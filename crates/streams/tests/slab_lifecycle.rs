//! Lifecycle teeth for the memory-mapped slab spill: loud directory
//! exhaustion, the bounded machine-crash loss window, and series GC
//! under seeded churn with restarts.
//!
//! The two "teeth" tests show the durable-history loss each guards
//! against (a stream refused a series; no background msync) and assert the
//! paths are loud/bounded.

use apollo_streams::slab::{SlabLayout, SlabSeries, NAME_CAP};
use apollo_streams::{
    Broker, CompactPolicy, Record, SlabConfig, SlabDirError, SlabStore, StreamConfig, StreamId,
    TierConfig,
};
use std::collections::BTreeMap;
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
    SlabConfig { max_series: 2, slots: 16, tiers: vec![TierConfig::new(1_000, 16)] }
}

/// Teeth: a stream refused a series on a full directory archives into a
/// private in-memory ring — writes look fine, and its history is gone
/// after a restart. That loss is never silent: the store counts every
/// refusal in its stats, an instrumented broker spilling to it exports
/// that count as `streams.slab.dir_full`, and the store warns once.
#[test]
fn directory_exhaustion_is_loud_where_it_used_to_be_silent() {
    let path = temp_slab("exhaustion");
    {
        let store = SlabStore::create(&path, tiny_config()).unwrap();
        let _a = store.series("a").unwrap();
        let _b = store.series("b").unwrap();
        let broker = Broker::new(StreamConfig::bounded(1).with_slab(Arc::clone(&store)));
        let registry = apollo_obs::Registry::new();
        broker.instrument(&registry);
        assert_eq!(registry.snapshot().counter("streams.slab.dir_full"), 0);

        // --- A topic created on the exhausted directory.
        for i in 0..10u64 {
            broker.publish("c", i + 1, Record::measured(i, i as f64).encode());
        }
        assert_eq!(store.stats().series_fallbacks, 1, "the refusal is counted once");
        assert_eq!(registry.snapshot().counter("streams.slab.dir_full"), 1, "and exported");
        // The topic still works — its evictions land in a private ring.
        assert_eq!(broker.range("c", StreamId::MIN, StreamId::MAX).len(), 10);
        assert_eq!(broker.topic_info("c").unwrap().archived_len, 9);
        store.flush().unwrap();
    }

    // Restart: series "c" never existed in the slab, so its archived
    // entries are gone — the loss the counter announced.
    let (store, report) = SlabStore::open(&path).unwrap();
    assert_eq!(store.stats().series_live, 2, "only a and b survived");
    assert_eq!(report.recovered_entries, 0, "c's entries were in its private ring and died");
    let _ = fs::remove_file(&path);
}

/// A slab-backed topic takes exactly one series, under its own name, so a
/// name of exactly `NAME_CAP` bytes attaches durably: no fallback is
/// counted and no exhaustion alarm is raised for a topic whose history
/// does survive a restart.
#[test]
fn a_topic_named_at_the_name_cap_takes_one_durable_series() {
    let path = temp_slab("name-cap");
    let long = "t".repeat(NAME_CAP);
    {
        let store =
            SlabStore::create(&path, SlabConfig { max_series: 4, ..tiny_config() }).unwrap();
        let broker = Broker::new(StreamConfig::bounded(2).with_slab(Arc::clone(&store)));
        for topic in [long.as_str(), "short"] {
            for ms in 1..=3u64 {
                broker.publish(topic, ms, Record::measured(ms, 0.0).encode());
            }
        }
        let stats = store.stats();
        assert_eq!(stats.series_live, 2, "one series per topic");
        assert_eq!(stats.series_fallbacks, 0, "no topic fell back to a private ring");
    }
    let (store, report) = SlabStore::open(&path).unwrap();
    assert_eq!(report.series_live, 2);
    let ring = store.series(&long).unwrap();
    assert_eq!(ring.range(StreamId::MIN, StreamId::MAX).len(), 1, "its eviction survived");
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

/// The series directory against a model of it, over seeded operations on
/// an 8-dirent store with names drawn from a pool of 12: attaches (some
/// handles held, some dropped), zero-retention compactions, hand-made
/// tombstones completed by reopen, plain reopens and over-long names.
/// After every operation each live name attaches to the model's dirent; a
/// new name gets the lowest dirent the model has free, or
/// `SeriesDirectoryFull` once all 8 are live; and the live, tombstoned and
/// fallback counts agree. The model is the directory walk `series()` once
/// was: first live match, else first free dirent.
#[test]
fn series_directory_matches_its_model_under_seeded_churn() {
    const DIRENTS: usize = 8;
    /// Live name → dirent, plus the fallbacks the store has counted since
    /// it was opened.
    #[derive(Default)]
    struct Model {
        live: BTreeMap<String, usize>,
        fallbacks: u64,
    }
    impl Model {
        fn attach(&self, name: &str) -> Option<usize> {
            if let Some(&idx) = self.live.get(name) {
                return Some(idx);
            }
            (0..DIRENTS).find(|idx| !self.live.values().any(|v| v == idx))
        }
    }
    fn check(store: &Arc<SlabStore>, model: &Model, step: &str) {
        for (name, &idx) in &model.live {
            assert_eq!(store.series(name).unwrap().index(), idx, "{step}: {name}");
        }
        let st = store.stats();
        assert_eq!(st.series_live, model.live.len(), "{step}: live dirents");
        assert_eq!(st.series_tombstoned, 0, "{step}: no tombstone outlives its op");
        assert_eq!(st.series_fallbacks, model.fallbacks, "{step}: fallbacks");
    }

    for seed in [3u64, 17, 2024, 0x5EED] {
        let path = temp_slab(&format!("model-{seed}"));
        let cfg = SlabConfig { max_series: DIRENTS as u32, slots: 8, ..tiny_config() };
        let layout = SlabLayout::for_config(&cfg);
        let mut store = SlabStore::create(&path, cfg).unwrap();
        let mut state = seed;
        let mut rng = move |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let mut model = Model::default();
        let mut held: Vec<(String, SlabSeries)> = Vec::new();
        let mut ms = 1u64;
        let (mut full, mut tombstoned) = (0, 0);
        for op in 0..400 {
            let step = format!("seed {seed} op {op}");
            match rng(20) {
                0..=11 => {
                    let name = format!("pool/{:02}", rng(12));
                    let got = store.series(&name);
                    match model.attach(&name) {
                        Some(idx) => {
                            let series = got.unwrap();
                            assert_eq!(series.index(), idx, "{step}: attach {name}");
                            series
                                .record(StreamId::new(ms, 0), &Record::measured(ms, 1.0).encode());
                            ms += 1;
                            model.live.insert(name.clone(), idx);
                            if rng(2) == 0 {
                                held.push((name, series));
                            }
                        }
                        None => {
                            assert!(
                                matches!(
                                    got,
                                    Err(SlabDirError::SeriesDirectoryFull { capacity: 8 })
                                ),
                                "{step}: {name} on a full directory"
                            );
                            model.fallbacks += 1;
                            full += 1;
                        }
                    }
                }
                12 => held.clear(),
                13..=15 => {
                    store.consolidate();
                    let r = store.compact(u64::MAX, CompactPolicy { retention_ms: 0 }).unwrap();
                    let before = model.live.len();
                    model.live.retain(|name, _| held.iter().any(|(h, _)| h == name));
                    assert_eq!(r.reclaimed, before - model.live.len(), "{step}: reclaimed");
                }
                16 | 17 => {
                    // A crash between a tombstone's publish and its durable
                    // scrub, then a restart.
                    held.clear();
                    drop(store);
                    let victim = match model.live.len() {
                        0 => None,
                        n => model.live.keys().nth(rng(n as u64) as usize).cloned(),
                    };
                    if let Some(name) = &victim {
                        let at = layout.series_dirent(model.live[name]);
                        let mut bytes = fs::read(&path).unwrap();
                        bytes[at..at + 8].copy_from_slice(&2u64.to_le_bytes());
                        fs::write(&path, &bytes).unwrap();
                        model.live.remove(name);
                        tombstoned += 1;
                    }
                    let (reopened, report) = SlabStore::open(&path).unwrap();
                    assert_eq!(report.reclaimed_tombstones, victim.is_some() as usize, "{step}");
                    assert_eq!(report.series_live, model.live.len(), "{step}");
                    store = reopened;
                    model.fallbacks = 0;
                }
                18 => {
                    held.clear();
                    drop(store);
                    let (reopened, report) = SlabStore::open(&path).unwrap();
                    assert_eq!(report.series_live, model.live.len(), "{step}");
                    store = reopened;
                    model.fallbacks = 0;
                }
                _ => {
                    let long = "n".repeat(NAME_CAP + 1);
                    assert!(
                        matches!(store.series(&long), Err(SlabDirError::NameTooLong { .. })),
                        "{step}"
                    );
                    model.fallbacks += 1;
                }
            }
            check(&store, &model, &step);
        }
        assert!(full > 0 && tombstoned > 0, "seed {seed}: {full} full, {tombstoned} tombstones");
        drop((held, store));
        let _ = fs::remove_file(&path);
    }
}
