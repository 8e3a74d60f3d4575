//! Slab-store hot path — steady-state `SlabSeries::record` latency and
//! allocation count, against the heap `ArchiveLog::append` baseline.
//!
//! The slab's contract is that archiving an evicted entry is a bounded
//! mmap slot write: copy the payload into a pre-allocated slot, write
//! three header words, publish with one `Release` store. That has to
//! mean **zero heap allocations** per record (proved here with the
//! `apollo-alloc-count` allocator) and a sub-50 ns p99 (timed in batches
//! of 8 so the clock read stays out of the measured path).
//!
//! Run: `cargo run --release -p apollo-bench --bin slab_store`

use apollo_alloc_count::allocs_during;
use apollo_bench::report::{Report, Series};
use apollo_streams::codec::Record;
use apollo_streams::{ArchiveLog, Entry, SlabConfig, SlabStore, StreamId};
use std::time::Instant;

const BATCH: usize = 8;
const BATCHES: usize = 50_000;
const WARMUP_BATCHES: usize = 5_000;

/// Per-record latency samples (ns), timed in batches of [`BATCH`] so the
/// two `Instant` reads amortize over 8 records instead of dominating a
/// sub-50 ns measurement.
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
    let dir = std::env::temp_dir().join(format!("apollo-slab-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bench.slab");
    let _ = std::fs::remove_file(&path);

    // Default geometry: 4096 × 64 B per series — the per-series ring an
    // eviction stream actually writes into.
    let cfg = SlabConfig { max_series: 4, ..SlabConfig::default() };
    let ring_slots = cfg.slots as u64;
    let store = SlabStore::create(&path, cfg).expect("create slab");
    let series = store.series("bench").expect("series");
    let payload = Record::measured(1_000_000, 42.5).encode();

    // Warm a full ring lap so measurement hits the steady overwrite path
    // (faulted-in pages, wrapped head), not first-touch page faults.
    for i in 0..ring_slots {
        assert!(series.record(StreamId::new(i, 0), &payload));
    }

    // Zero-alloc proof on the steady-state path.
    let base = 100_000u64;
    let allocs = allocs_during(|| {
        for i in 0..10_000u64 {
            assert!(series.record(StreamId::new(base + i, 0), &payload));
        }
    });

    // Latency: slab record vs the heap archive append baseline.
    let lat_base = 1_000_000u64;
    let mut slab_ns = batched_latency_ns(|i| {
        assert!(series.record(StreamId::new(lat_base + i, 0), &payload));
    });
    slab_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let heap = ArchiveLog::new();
    let mut heap_ns = batched_latency_ns(|i| {
        heap.append(Entry::new(StreamId::new(i, 0), payload.clone()));
    });
    heap_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());

    // Throughput of a sustained single-writer stream.
    let tp_base = 10_000_000u64;
    let tp_records = 2_000_000u64;
    let t0 = Instant::now();
    for i in 0..tp_records {
        series.record(StreamId::new(tp_base + i, 0), &payload);
    }
    let records_per_sec = tp_records as f64 / t0.elapsed().as_secs_f64();

    // Consolidation throughput: fold the ring's live entries into tiers.
    let lag = store.stats().consolidation_lag;
    let t0 = Instant::now();
    let folded = store.consolidate().folded;
    let consolidate_secs = t0.elapsed().as_secs_f64();

    let mut report = Report::new("slab_store", "Durable slab spill: record() hot path");
    let mut slab_series = Series::new("slab_record_ns");
    let mut heap_series = Series::new("heap_append_ns");
    for (x, q) in [(50.0, 0.50), (99.0, 0.99), (99.9, 0.999)] {
        slab_series.push(x, quantile(&slab_ns, q));
        heap_series.push(x, quantile(&heap_ns, q));
    }
    report.add_series(slab_series);
    report.add_series(heap_series);
    report.note("allocs_per_record", allocs as f64 / 10_000.0);
    report.note("p50_record_ns", quantile(&slab_ns, 0.50));
    report.note("p99_record_ns", quantile(&slab_ns, 0.99));
    report.note("p999_record_ns", quantile(&slab_ns, 0.999));
    report.note("heap_p99_append_ns", quantile(&heap_ns, 0.99));
    report.note("records_per_sec", records_per_sec);
    report.note("consolidation_backlog", lag);
    report.note("consolidation_folded", folded);
    report.note("consolidate_records_per_sec", folded as f64 / consolidate_secs.max(1e-9));
    report.note("batch", BATCH as u64);
    report.note("samples", BATCHES as u64);
    report.finish("percentile", "ns per record");

    assert_eq!(allocs, 0, "steady-state record() must not allocate");
    let _ = std::fs::remove_file(&path);
}
