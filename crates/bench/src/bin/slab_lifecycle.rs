//! Slab lifecycle cost — what the background msync cadence and series
//! GC add on top of the 46 ns `record()` hot path.
//!
//! Three questions, answered against the same geometry `slab_store`
//! benches:
//!
//! 1. **Flush overhead**: `record()` p99 with a background thread
//!    msync'ing every 100 ms vs the unflushed baseline. The contract is
//!    ≤ 1.2× — flushing happens off the writer thread and only the dirty
//!    counter's relaxed `fetch_add` rides the hot path.
//! 2. **Compaction cost**: a no-op `compact()` scan over the full series
//!    directory, and a worst-case pass reclaiming 256 retired series at
//!    once (tombstone + scrub + one msync barrier + free).
//! 3. **Reclaim hygiene**: every ring reclaimed above is immediately
//!    re-allocated and must come back empty — `stale_payloads` in the
//!    JSON is the number that served a predecessor's data (must be 0).
//!
//! Run: `cargo run --release -p apollo-bench --bin slab_lifecycle`

use apollo_alloc_count::allocs;
use apollo_bench::report::{Report, Series};
use apollo_streams::codec::Record;
use apollo_streams::{CompactPolicy, SlabConfig, SlabStore, StreamId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH: usize = 8;
const BATCHES: usize = 50_000;
const WARMUP_BATCHES: usize = 5_000;

/// Per-record latency samples (ns), timed in batches of [`BATCH`] so the
/// two `Instant` reads amortize over 8 records.
fn batched_latency_ns(mut op: impl FnMut(u64)) -> Vec<f64> {
    let mut samples = Vec::with_capacity(BATCHES);
    let mut i = 0u64;
    for batch in 0..WARMUP_BATCHES + BATCHES {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            op(i);
            i += 1;
        }
        let per_record = t0.elapsed().as_nanos() as f64 / BATCH as f64;
        if batch >= WARMUP_BATCHES {
            samples.push(per_record);
        }
    }
    samples
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn main() {
    let dir = std::env::temp_dir().join(format!("apollo-slablc-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    // --- 1. record() under background flush vs baseline ---------------
    let hot_path = dir.join("hot.slab");
    let _ = std::fs::remove_file(&hot_path);
    let cfg = SlabConfig { max_series: 4, ..SlabConfig::default() };
    let ring_slots = cfg.slots as u64;
    let store = SlabStore::create(&hot_path, cfg).expect("create slab");
    let series = store.series("bench").expect("series");
    let payload = Record::measured(1_000_000, 42.5).encode();
    for i in 0..ring_slots {
        assert!(series.record(StreamId::new(i, 0), &payload));
    }

    let allocs_before = allocs();
    let base = 100_000u64;
    for i in 0..10_000u64 {
        assert!(series.record(StreamId::new(base + i, 0), &payload));
    }
    let record_allocs = allocs() - allocs_before;

    let lat_base = 1_000_000u64;
    let mut baseline_ns = batched_latency_ns(|i| {
        assert!(series.record(StreamId::new(lat_base + i, 0), &payload));
    });
    baseline_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let stop = Arc::new(AtomicBool::new(false));
    let flushes = Arc::new(AtomicU64::new(0));
    let flusher = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        let flushes = Arc::clone(&flushes);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                store.flush().expect("bench flush");
                flushes.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(100));
            }
        })
    };
    let flushed_base = 10_000_000u64;
    let mut flushed_ns = batched_latency_ns(|i| {
        assert!(series.record(StreamId::new(flushed_base + i, 0), &payload));
    });
    stop.store(true, Ordering::Relaxed);
    flusher.join().expect("flusher thread");
    flushed_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let flushes_during_measure = flushes.load(Ordering::Relaxed);

    // --- 2. compact() pass cost ----------------------------------------
    // 256 retired series over a 512-dirent directory, modest rings so the
    // reclaim bench measures the protocol (tombstone + scrub + msync +
    // free), not 100 MB of page zeroing.
    let churn_path = dir.join("churn.slab");
    let _ = std::fs::remove_file(&churn_path);
    let churn_cfg = SlabConfig { max_series: 512, slots: 256, ..SlabConfig::default() };
    let churn = SlabStore::create(&churn_path, churn_cfg).expect("create churn slab");

    // Empty directory: the no-op scan every compact_every tick pays.
    let t0 = Instant::now();
    let empty_passes = 200u32;
    for _ in 0..empty_passes {
        let report = churn.compact(1, CompactPolicy::default()).expect("empty compact");
        assert_eq!(report.reclaimed, 0);
    }
    let compact_empty_pass_ns = t0.elapsed().as_nanos() as f64 / f64::from(empty_passes);

    let retired = 256usize;
    let records_each = 64u64;
    {
        let handles: Vec<_> = (0..retired)
            .map(|k| {
                let s = churn.series(&format!("job/{k:03}")).expect("churn series");
                for r in 0..records_each {
                    assert!(s.record(StreamId::new(1_000 + r, k as u64), &payload));
                }
                s
            })
            .collect();
        drop(handles);
    }
    churn.consolidate();
    let t0 = Instant::now();
    let reclaim =
        churn.compact(10_000_000, CompactPolicy { retention_ms: 1_000 }).expect("reclaim compact");
    let compact_reclaim_pass_ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(reclaim.reclaimed, retired, "{reclaim:?}");

    // --- 3. reclaimed rings must come back empty ------------------------
    let mut stale_payloads = 0u64;
    for k in 0..retired {
        let s = churn.series(&format!("job2/{k:03}")).expect("reallocate reclaimed dirent");
        if s.appended() != 0 || !s.range(StreamId::MIN, StreamId::MAX).is_empty() {
            stale_payloads += 1;
        }
    }

    let mut report = Report::new("slab_lifecycle", "Slab lifecycle: flush cadence + series GC");
    let mut base_series = Series::new("baseline_record_ns");
    let mut flush_series = Series::new("flushed_record_ns");
    for (x, q) in [(50.0, 0.50), (99.0, 0.99), (99.9, 0.999)] {
        base_series.push(x, quantile(&baseline_ns, q));
        flush_series.push(x, quantile(&flushed_ns, q));
    }
    report.add_series(base_series);
    report.add_series(flush_series);
    let p99_baseline = quantile(&baseline_ns, 0.99);
    let p99_flushed = quantile(&flushed_ns, 0.99);
    report.note("allocs_per_record", record_allocs as f64 / 10_000.0);
    report.note("p99_record_ns_baseline", p99_baseline);
    report.note("p99_record_ns_flushed", p99_flushed);
    report.note("flush_overhead_ratio", p99_flushed / p99_baseline);
    report.note("flushes_during_measure", flushes_during_measure);
    report.note("compact_empty_pass_ns", compact_empty_pass_ns);
    report.note("compact_reclaim_pass_ns", compact_reclaim_pass_ns);
    report.note("compact_reclaim_per_series_ns", compact_reclaim_pass_ns / retired as f64);
    report.note("reclaimed_series", reclaim.reclaimed as u64);
    report.note("reclaimed_entries", reclaim.reclaimed_entries);
    report.note("stale_payloads", stale_payloads);
    report.note("batch", BATCH as u64);
    report.note("samples", BATCHES as u64);
    report.finish("percentile", "ns per record");

    assert_eq!(record_allocs, 0, "dirty tracking must not put allocations on the hot path");
    assert_eq!(stale_payloads, 0, "a reclaimed ring served a predecessor's payloads");
    let _ = std::fs::remove_file(&hot_path);
    let _ = std::fs::remove_file(&churn_path);
}
