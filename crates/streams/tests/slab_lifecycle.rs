//! Lifecycle teeth for the memory-mapped slab spill: loud directory
//! exhaustion, the bounded machine-crash loss window, and series GC
//! under seeded churn with restarts.
//!
//! The two "teeth" tests show the durable-history loss each guards
//! against (a stream refused a series; no background msync) and assert the
//! paths are loud/bounded.

use apollo_streams::slab::{dir_full_count, exhaustion_warned};
use apollo_streams::{
    Broker, CompactPolicy, Record, SlabConfig, SlabStore, Stream, StreamConfig, StreamId,
    TierConfig,
};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_slab(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apollo-slablc-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("{tag}.slab"));
    let _ = fs::remove_file(&path);
    path
}

fn tiny_config() -> SlabConfig {
    SlabConfig {
        max_series: 2,
        slots: 16,
        slot_bytes: 64,
        max_cursors: 1,
        tiers: vec![TierConfig::new(1_000, 16)],
    }
}

/// Teeth: a stream refused a series on a full directory archives into a
/// private in-memory ring — writes look fine, and its history is gone
/// after a restart. That loss is never silent: `Stream::new` and the
/// consumer-group path record every refusal on `streams.slab.dir_full`
/// and the store's stats, and warn once.
///
/// All exhaustion-triggering in this binary lives in this one test so the
/// process-global counter deltas are race-free.
#[test]
fn directory_exhaustion_is_loud_where_it_used_to_be_silent() {
    let path = temp_slab("exhaustion");
    {
        let store = SlabStore::create(&path, tiny_config()).unwrap();
        let _a = store.series("a").unwrap();
        let _b = store.series("b").unwrap();

        // --- Stream::new on the exhausted directory.
        let before = dir_full_count();
        assert!(!exhaustion_warned() || before > 0);
        let c = Stream::new("c", StreamConfig::bounded(1).with_slab(Arc::clone(&store)));
        assert_eq!(dir_full_count(), before + 1, "the refusal is counted");
        assert!(exhaustion_warned(), "and warned about (once per process)");
        assert_eq!(store.stats().series_fallbacks, 1, "the store records the fallback too");
        // The stream still works — its evictions land in a private ring.
        for i in 0..10u64 {
            c.append(i + 1, vec![i as u8]);
        }
        assert_eq!(c.range(StreamId::MIN, StreamId::MAX).len(), 10);
        let ring = c.archive().expect("evictions archived");
        assert_eq!(ring.live_len(), 9);
        assert!(ring.store().path().as_os_str().is_empty(), "in memory, not in the file");
        store.flush().unwrap();
    }

    // Restart: series "c" never existed in the slab, so its archived
    // entries are gone — the loss the counter announced.
    let (store, report) = SlabStore::open(&path).unwrap();
    assert_eq!(store.stats().series_live, 2, "only a and b survived");
    assert_eq!(report.recovered_entries, 0, "c's entries were in its private ring and died");

    // --- Consumer groups on a full cursor directory.
    let broker = Broker::new(StreamConfig::bounded(2).with_slab(Arc::clone(&store)));
    let g0 = broker.consumer_group("t", "g0"); // takes the only cursor dirent
    let before = dir_full_count();
    let g1 = broker.consumer_group("t", "g1"); // refused a dirent
    assert_eq!(dir_full_count(), before + 1, "cursor refusal counted");
    // Both groups still deliver; g1 just won't survive a restart.
    broker.publish("t", 1, vec![7]);
    assert_eq!(g0.read_new("c", 10).unwrap().len(), 1);
    assert_eq!(g1.read_new("c", 10).unwrap().len(), 1);

    let _ = fs::remove_file(&path);
}

/// Teeth: without background msync the whole run since process start is
/// exposed to a machine crash; with flushes the exposure is exactly the
/// dirty window since the last flush.
///
/// A copy of the file taken at a flush point is the machine-crash lower
/// bound: everything msync'd is on disk no matter when power dies. (A
/// copy can't show MORE loss than that — file reads see the shared page
/// cache — so the test snapshots at flush points and asserts the
/// guaranteed prefix.)
#[test]
fn flush_cadence_bounds_the_machine_crash_loss_window() {
    let path = temp_slab("flush");
    let snapshot = temp_slab("flush-snapshot");
    let store = SlabStore::create(&path, SlabConfig { max_series: 4, slots: 256, ..tiny_config() })
        .unwrap();
    let series = store.series("m").unwrap();
    for i in 0..100u64 {
        assert!(series.record(StreamId::new(i + 1, 0), &Record::measured(i, i as f64).encode()));
    }
    assert_eq!(store.dirty_records(), 100, "every record since start is crash-exposed");
    assert_eq!(store.flush().unwrap(), 100, "flush reports what it made durable");
    assert_eq!(store.dirty_records(), 0);
    fs::copy(&path, &snapshot).unwrap(); // disk state guaranteed from here on

    for i in 100..150u64 {
        assert!(series.record(StreamId::new(i + 1, 0), &Record::measured(i, i as f64).encode()));
    }
    assert_eq!(store.dirty_records(), 50, "the loss window is the 50 unflushed records");

    // "Machine crash": reopen the flush-point snapshot.
    let (crashed, report) = SlabStore::open(&snapshot).unwrap();
    assert_eq!(report.recovered_entries, 100, "the flushed prefix survives in full");
    let survivor = crashed.series("m").unwrap();
    assert_eq!(survivor.appended(), 100);
    let got = survivor.range(StreamId::MIN, StreamId::MAX);
    assert_eq!(got.len(), 100);
    for (i, e) in got.iter().enumerate() {
        assert_eq!(e.id, StreamId::new(i as u64 + 1, 0), "ID continuity across the crash");
    }

    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&snapshot);
}

/// Seeded register/retire churn across three "process restarts": dirent
/// occupancy returns to a fixed point after every compaction, reclaimed
/// rings never serve a predecessor's payloads, and tombstones never leak
/// across reopen.
#[test]
fn seeded_churn_reaches_a_fixed_point_across_restarts() {
    let path = temp_slab("churn");
    let cfg = SlabConfig { max_series: 8, slots: 32, ..tiny_config() };
    SlabStore::create(&path, cfg).unwrap();

    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut rng = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut now_ms = 1_000u64;
    let mut total_reclaimed = 0u64;
    let mut gen = 0u32;

    for epoch in 0..3 {
        let (store, report) = SlabStore::open(&path).unwrap();
        assert_eq!(report.reclaimed_tombstones, 0, "epoch {epoch}: no torn reclaim left behind");

        for _ in 0..8 {
            let live = 1 + (rng() % 4) as usize;
            {
                let handles: Vec<_> = (0..live)
                    .map(|k| {
                        let series = store.series(&format!("churn/g{gen:03}/s{k}")).unwrap();
                        assert_eq!(series.appended(), 0, "reclaimed ring leaked an old head");
                        assert!(
                            series.range(StreamId::MIN, StreamId::MAX).is_empty(),
                            "reclaimed ring served stale payloads"
                        );
                        for r in 0..1 + rng() % 8 {
                            series.record(
                                StreamId::new(now_ms + r, k as u64),
                                &Record::measured(now_ms, r as f64).encode(),
                            );
                        }
                        series
                    })
                    .collect();
                // Live handles pin their dirents: compaction must skip them.
                let pinned =
                    store.compact(now_ms + 1_000_000, CompactPolicy { retention_ms: 0 }).unwrap();
                assert_eq!(pinned.reclaimed, 0, "held handles are never reclaimed");
                assert_eq!(pinned.kept_live_handles, handles.len());
            } // retire the generation
            store.consolidate();
            now_ms += 10_000;
            let compacted = store.compact(now_ms, CompactPolicy { retention_ms: 2_000 }).unwrap();
            assert_eq!(compacted.reclaimed, live, "every retired series reclaimed");
            total_reclaimed += compacted.reclaimed as u64;
            let st = store.stats();
            assert_eq!(st.series_live + st.series_tombstoned, 0, "back to the fixed point");
            gen += 1;
        }
        store.flush().unwrap();
    }
    assert!(total_reclaimed >= 24, "{total_reclaimed} series cycled through 8 dirents");
    let _ = fs::remove_file(&path);
}
