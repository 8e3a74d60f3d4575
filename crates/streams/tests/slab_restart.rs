//! Restart survival of the memory-mapped slab spill.
//!
//! The slab's durability contract: everything *published* (slot words
//! written, then the series head bumped with `Release`) survives a process
//! crash; a torn newest slot — possible only when the machine dies between
//! the slot write and the sync — is rolled back on reopen rather than
//! served corrupt. These tests exercise that contract end-to-end through
//! the broker (history, ID continuity, a reader's saved cursor) and
//! directly against the file (byte-patched torn tails).

use apollo_streams::slab::SlabLayout;
use apollo_streams::{
    Broker, CompactPolicy, Record, SlabConfig, SlabStore, SpillBackend, StreamConfig, StreamId,
    TierConfig,
};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_slab(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apollo-slabrs-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("{tag}.slab"));
    let _ = fs::remove_file(&path);
    path
}

fn small_config() -> SlabConfig {
    SlabConfig {
        max_series: 8,
        slots: 64,
        tiers: vec![TierConfig::new(1_000, 16), TierConfig::new(10_000, 8)],
    }
}

fn slab_broker(store: &Arc<SlabStore>, max_len: usize) -> Broker {
    Broker::new(StreamConfig {
        max_len: Some(max_len),
        archive_evicted: true,
        spill: SpillBackend::slab(Arc::clone(store)),
    })
}

#[test]
fn reopen_restores_archived_history_and_id_continuity() {
    let path = temp_slab("history");
    let mut evicted_ids = Vec::new();
    {
        let store = SlabStore::create(&path, small_config()).unwrap();
        let broker = slab_broker(&store, 2);
        for i in 0..12u64 {
            let id = broker.publish("cap", i + 1, Record::measured(i, i as f64));
            evicted_ids.push(id);
        }
        // Window keeps the last 2 in memory only; the first 10 are in the
        // slab. No explicit flush: a process exit is not a machine crash,
        // and published slots live in the shared page cache.
    }

    let (store, report) = SlabStore::open(&path).unwrap();
    assert_eq!(report.rolled_back_slots, 0);
    assert!(report.recovered_entries >= 10, "report: {report:?}");
    let broker = slab_broker(&store, 2);
    // Appending re-attaches the topic's slab series; the restored
    // archive seeds last_id, so IDs keep increasing across the restart.
    let next = broker.publish("cap", 1, Record::measured(99, 99.0));
    assert!(next > evicted_ids[9], "{next} continues after the recovered archive tail");
    let got = broker.range("cap", StreamId::MIN, StreamId::MAX);
    // Pre-restart archived history (the 10 evicted entries) plus the new
    // append; the 2 window-resident entries died with the process.
    assert_eq!(got.len(), 11, "10 recovered + 1 new");
    assert_eq!(&got[..10].iter().map(|e| e.id).collect::<Vec<_>>(), &evicted_ids[..10]);
    for pair in got.windows(2) {
        assert!(pair[0].id < pair[1].id);
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn a_cursor_reader_resumes_after_restart_with_only_what_it_missed() {
    let path = temp_slab("cursor");
    let mut ids = Vec::new();
    let saved = {
        let store = SlabStore::create(&path, small_config()).unwrap();
        let broker = slab_broker(&store, 2);
        for i in 0..10u64 {
            ids.push(broker.publish("cap", i + 1, Record::measured(i, i as f64)));
        }
        let first = broker.read_after("cap", None, 6);
        assert_eq!(first.iter().map(|e| e.id).collect::<Vec<_>>(), ids[..6].to_vec());
        // Crash here: the reader saved its cursor at ids[5]; of the 4 it
        // never read, ids[6..8] reached the slab archive and ids[8..10]
        // were window-only.
        first.last().map(|e| e.id)
    };
    assert_eq!(saved, Some(ids[5]));

    let (store, _) = SlabStore::open(&path).unwrap();
    let broker = slab_broker(&store, 2);
    // The reader registers its waker again, as a standing query does on
    // its input: that attaches the topic to its archived series.
    let _waker = broker.wake_on("cap", || {});
    let resumed = broker.read_after("cap", saved, 10);
    assert_eq!(
        resumed.iter().map(|e| e.id).collect::<Vec<_>>(),
        ids[6..8].to_vec(),
        "resume right after the saved cursor; no duplicates, no skips"
    );
    let _ = fs::remove_file(&path);
}

#[test]
fn torn_newest_slot_is_rolled_back_on_reopen() {
    let path = temp_slab("torn");
    let cfg = small_config();
    let layout = SlabLayout::for_config(&cfg);
    let (series_idx, last_good, n) = {
        let store = SlabStore::create(&path, cfg).unwrap();
        let series = store.series("t").unwrap();
        let n = 9u64;
        for i in 0..n {
            series.push(StreamId::new(i + 1, 0), Record::measured(i, i as f64));
        }
        store.flush().unwrap();
        (series.index(), StreamId::new(n - 1, 0), n)
    };

    // Simulate a machine crash that lost the newest slot's page but kept
    // the head bump: flip a value byte so the slot checksum no longer
    // matches.
    let newest_slot = ((n - 1) % 64) as usize;
    let offset = layout.slot(series_idx, newest_slot) + 24; // past ms/seq/timestamp words
    let mut bytes = fs::read(&path).unwrap();
    bytes[offset] ^= 0xff;
    fs::write(&path, &bytes).unwrap();

    let (store, report) = SlabStore::open(&path).unwrap();
    assert_eq!(report.rolled_back_slots, 1, "{report:?}");
    assert_eq!(report.recovered_entries, n - 1);
    let series = store.series("t").unwrap();
    assert_eq!(series.last_id(), Some(last_good));
    let got = series.range(StreamId::MIN, StreamId::MAX);
    assert_eq!(got.len(), (n - 1) as usize);
    assert_eq!(got.last().unwrap().record, Record::measured(n - 2, (n - 2) as f64));
    // The rolled-back slot is writable again: appends resume cleanly.
    series.push(StreamId::new(n + 10, 0), Record::measured(n, 0.0));
    assert_eq!(series.last_id(), Some(StreamId::new(n + 10, 0)));
    let _ = fs::remove_file(&path);
}

/// A torn slot in the middle of a live ring — one value bit flipped, one
/// provenance word outside 1–3, one checksum zeroed — is
/// skipped by every read that walks the ring, and every other row comes
/// back in order. The damage is written through the file while the store
/// is mapped (a shared mapping sees it), so no reopen rolls it away.
#[cfg(unix)]
#[test]
fn torn_slots_mid_ring_are_skipped_by_every_read() {
    use apollo_streams::Stream;
    use std::os::unix::fs::FileExt;

    let path = temp_slab("torn-mid");
    let cfg = small_config();
    let layout = SlabLayout::for_config(&cfg);
    let store = SlabStore::create(&path, cfg).unwrap();
    // 40 archived rows in a 64-slot ring, 8 in the window.
    let stream = Stream::new("t", StreamConfig::bounded(8).with_slab(Arc::clone(&store)));
    for i in 0..48u64 {
        stream.append(i + 1, Record::measured(i * 1_000, i as f64));
    }
    let ring = stream.archive().expect("slab-backed");
    assert_eq!(ring.live_len(), 40);

    let slot = |logical: usize| layout.slot(ring.index(), logical);
    let file = fs::OpenOptions::new().write(true).open(&path).unwrap();
    // Slot words: ms | seq | timestamp_ns | value bits |
    // (provenance + 1) u32, checksum u32.
    let value_byte = slot(10) + 24 + 1;
    let mut byte = [0u8];
    fs::File::open(&path).unwrap().read_exact_at(&mut byte, value_byte as u64).unwrap();
    file.write_all_at(&[byte[0] ^ 0x10], value_byte as u64).unwrap();
    file.write_all_at(&4u32.to_le_bytes(), slot(20) as u64 + 32).unwrap();
    file.write_all_at(&[0; 4], slot(30) as u64 + 36).unwrap();

    let torn = [10u64, 20, 30];
    let want: Vec<u64> = (0..48).filter(|i| !torn.contains(i)).collect();
    let ids = |ms: &[u64]| ms.iter().map(|i| i + 1).collect::<Vec<_>>();

    let columns = stream.scan_columns(StreamId::MIN, StreamId::MAX);
    let values: Vec<u64> = columns.values.iter().map(|&v| v as u64).collect();
    assert_eq!(values, want, "scan_columns");
    assert_eq!(columns.ids_ms, ids(&want), "scan_columns ids");

    let entry_ms = |entries: &[apollo_streams::Entry]| -> Vec<u64> {
        entries.iter().map(|e| e.id.ms).collect()
    };
    let range = stream.range(StreamId::MIN, StreamId::MAX);
    assert_eq!(entry_ms(&range), ids(&want), "range");
    assert!(range
        .iter()
        .zip(&want)
        .all(|(e, &i)| { e.record == Record::measured(i * 1_000, i as f64) }));
    assert_eq!(entry_ms(&stream.read_after(None, usize::MAX)), ids(&want), "read_after");
    let batch = stream.scan_batch(StreamId::MIN, StreamId::MAX);
    assert_eq!(entry_ms(&batch.entries), ids(&want), "scan_batch entries");
    let values: Vec<u64> = batch.records.iter().map(|r| r.value as u64).collect();
    assert_eq!(values, want, "scan_batch records");
    let _ = fs::remove_file(&path);
}

#[test]
fn consolidation_tiers_survive_restart() {
    let path = temp_slab("tiers");
    {
        let store = SlabStore::create(&path, small_config()).unwrap();
        let series = store.series("m").unwrap();
        // Two records per 1s bucket across 4 buckets.
        for i in 0..8u64 {
            let ms = i * 500;
            let v = i as f64;
            series.push(StreamId::new(ms, 1), Record::measured(ms, v));
        }
        let report = store.consolidate();
        assert_eq!(report.folded, 8);
        store.flush().unwrap();
    }

    let (store, _) = SlabStore::open(&path).unwrap();
    let series = store.series("m").unwrap();
    let buckets = series.tier_buckets(0);
    assert_eq!(buckets.len(), 4, "{buckets:?}");
    let first = series.tier_bucket_at(0, 0).unwrap();
    assert_eq!(first.count, 2);
    assert_eq!(first.sum, 1.0); // values 0.0 + 1.0
    assert_eq!((first.min, first.max), (0.0, 1.0));
    // The coarser 10s tier folded everything into one bucket.
    let coarse = series.tier_bucket_at(1, 0).unwrap();
    assert_eq!(coarse.count, 8);
    assert_eq!(coarse.max, 7.0);
    let _ = fs::remove_file(&path);
}

/// Restart at fleet scale: 2 100 series with a few rows each, three of
/// them reclaimed, then a reopen re-attaches every name in shuffled
/// order. Each lands on its original dirent and resumes its `last_id`,
/// and a new name takes the lowest reclaimed dirent. Correctness only; no
/// timing is asserted.
#[test]
fn fleet_scale_reopen_reattaches_every_series_in_place() {
    const SERIES: usize = 2_100;
    let path = temp_slab("fleet");
    let cfg = SlabConfig { max_series: SERIES as u32 + 16, slots: 8, tiers: vec![] };
    let name = |i: usize| format!("fleet/topic/{i:04}");
    let reclaimed = [1_700usize, 42, 999];
    let mut placed = Vec::with_capacity(SERIES);
    {
        let store = SlabStore::create(&path, cfg).unwrap();
        let mut handles = Vec::with_capacity(SERIES);
        for i in 0..SERIES {
            let series = store.series(&name(i)).unwrap();
            assert_eq!(series.index(), i, "a fresh directory fills lowest first");
            for r in 0..1 + i as u64 % 3 {
                let id = StreamId::new(1_000 + r, i as u64);
                series.push(id, Record::measured(r, i as f64));
            }
            placed.push((series.index(), series.last_id().unwrap()));
            handles.push(series);
        }
        for &i in &reclaimed {
            handles[i] = store.series(&name(SERIES - 1)).unwrap(); // release i's handle
        }
        let r = store.compact(u64::MAX, CompactPolicy { retention_ms: 0 }).unwrap();
        assert_eq!(r.reclaimed, reclaimed.len());
        store.flush().unwrap();
    }

    let (store, report) = SlabStore::open(&path).unwrap();
    assert_eq!(report.series_live, SERIES - reclaimed.len());
    let mut order: Vec<usize> = (0..SERIES).filter(|i| !reclaimed.contains(i)).collect();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for k in (1..order.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        order.swap(k, (state % (k as u64 + 1)) as usize);
    }
    let mut handles = Vec::with_capacity(order.len());
    for i in order {
        let series = store.series(&name(i)).unwrap();
        assert_eq!(series.index(), placed[i].0, "{} moved dirent", name(i));
        assert_eq!(series.last_id(), Some(placed[i].1), "{} lost its tail", name(i));
        handles.push(series);
    }
    assert_eq!(store.series("fleet/new").unwrap().index(), 42, "the lowest free dirent");
    assert_eq!(store.stats().series_live, SERIES - reclaimed.len() + 1);
    drop((handles, store));
    let _ = fs::remove_file(&path);
}
