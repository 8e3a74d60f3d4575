//! Randomized (seeded, deterministic) interleaving test for the
//! eviction/scan race.
//!
//! Repro for the consistent-snapshot contract of `Stream::range`: the
//! pre-fix stitch read the archive and the live window under *separate*
//! locks, so an eviction racing a scan could move an entry out of the
//! window after the archive pass and before the window pass — the scan
//! silently dropped it. Against that implementation this test fails
//! within a handful of seeds (a scan bounded by an already-observed
//! `last_id` comes back short); with the stitch that walks ring and window
//! under one hold of the window read lock it pins the no-gaps/no-duplicates
//! guarantee.
//!
//! Determinism: thread *schedules* still vary run to run (that is the
//! point — more interleavings explored), but the operation mix each
//! thread drives is generated by a seeded LCG, and the assertions hold
//! for **every** interleaving, so a failure always means a real race,
//! never test flakiness.
//!
//! There is one spill backend, a slab ring, whose slot write sits under
//! the window write lock; the first three tests run over a file ring large
//! enough to hold a whole run. The last runs over a 64-slot ring the writer
//! laps hundreds of times, so the ring's oldest slots are overwritten
//! while scans read it: a ring walk taken outside the window lock fails it.
//!
//! The contract must also hold for both destinations of the one range
//! walk: the entry sink (`range`, `scan_batch`) and the column sink
//! (`scan_columns`, which takes each row's fields where the walk finds
//! it). The race takes every seam-biased scan through both.

use apollo_streams::{
    Broker, ColumnBatch, Provenance, Record, ScanBatch, SlabConfig, SlabStore, Stream,
    StreamConfig, StreamId,
};
use bytes::Bytes;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// `StreamConfig::bounded(max_len)` over a one-series slab in a fresh
/// temp-dir store whose ring holds a whole run (so "every entry, exactly
/// once" still means every entry ever appended).
fn over_a_whole_run_ring(tag: &str, max_len: usize, case: impl Fn(StreamConfig)) {
    let path = std::env::temp_dir().join(format!("apollo-evict-{}-{tag}.slab", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = SlabConfig { max_series: 1, slots: 32_768, ..SlabConfig::default() };
    let store = SlabStore::create(&path, cfg).expect("create slab store");
    case(StreamConfig::bounded(max_len).with_slab(Arc::clone(&store)));
    // Teeth against a silently skipped ring: the evictions really landed
    // in it (its only series is the case's stream).
    assert!(store.stats().appended > 0, "{tag}: the ring never recorded an eviction");
    let _ = std::fs::remove_file(&path);
}

/// Tiny deterministic PRNG (LCG, same constants as MMIX) so the test
/// needs no external crates and every run draws the same operation mix.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Entry `i`'s record: `(i ms, i as f64, measured)`.
fn record_of(i: u64) -> Record {
    Record::measured(i * 1_000_000, i as f64)
}

/// The column and entry sinks must land the same rows: position by
/// position the same timestamp, value bits and provenance byte. (Only
/// meaningful for two scans of one snapshot, or of a range whose content
/// is settled.)
fn assert_same_rows(cols: &ColumnBatch, batch: &ScanBatch, what: &str) {
    assert_eq!(cols.len(), batch.records.len(), "{what}: row count");
    for (k, r) in batch.records.iter().enumerate() {
        assert_eq!(cols.timestamps_ns[k], r.timestamp_ns, "{what}: row {k} timestamp");
        assert_eq!(cols.values[k].to_bits(), r.value.to_bits(), "{what}: row {k} value bits");
        assert_eq!(cols.provenance[k], r.provenance.wire(), "{what}: row {k} provenance");
    }
}

/// One writer appends entries with strictly increasing `ms` (so entry
/// `i` gets ID `(i, 0)` — the scanners can compute exactly what any
/// bounded scan must return) while scanner threads hammer `range` /
/// `range_by_time` over prefixes they have already observed as
/// published. A tiny `max_len` keeps every append evicting, maximizing
/// scan/eviction collisions.
#[test]
fn concurrent_scans_observe_every_entry_exactly_once() {
    for seed in [0x5eed_0001u64, 0x5eed_0002, 0x5eed_0003] {
        over_a_whole_run_ring(&format!("race-{seed:x}"), 8, |config| scan_race(seed, config));
    }
}

fn scan_race(seed: u64, config: StreamConfig) {
    const APPENDS: u64 = 20_000;
    const SCANNERS: usize = 3;

    let stream = Arc::new(Stream::new("race", config));
    let high_water = Arc::new(AtomicU64::new(0)); // appended count
    let done = Arc::new(AtomicBool::new(false));
    let extended = Arc::new(AtomicBool::new(false)); // the tailer's first extension

    let writer = {
        let stream = Arc::clone(&stream);
        let high_water = Arc::clone(&high_water);
        let done = Arc::clone(&done);
        let extended = Arc::clone(&extended);
        std::thread::spawn(move || {
            for i in 0..APPENDS {
                // Halfway, wait for the tailer, or it may start after the end.
                while i == APPENDS / 2 && !extended.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                let id = stream.append(i, record_of(i));
                assert_eq!(id, StreamId::new(i, 0), "distinct ms per append");
                high_water.store(i + 1, Ordering::Release);
            }
            done.store(true, Ordering::Release);
        })
    };

    let scanners: Vec<_> = (0..SCANNERS)
        .map(|s| {
            let stream = Arc::clone(&stream);
            let high_water = Arc::clone(&high_water);
            let done = Arc::clone(&done);
            let mut rng = Lcg(seed ^ (s as u64).wrapping_mul(0x9e37_79b9));
            std::thread::spawn(move || {
                let mut scans = 0u64;
                while !done.load(Ordering::Acquire) || scans == 0 {
                    let n = high_water.load(Ordering::Acquire);
                    if n == 0 {
                        std::thread::yield_now();
                        continue;
                    }
                    // Scan a random sub-window of entries the writer
                    // has definitely finished appending: ms in
                    // [lo, hi] with hi < n must return exactly
                    // hi - lo + 1 entries, each exactly once, no
                    // matter how evictions interleave. Most scans are
                    // biased onto the eviction seam (the window holds
                    // only the newest 8 entries, so ranges ending at
                    // the high-water mark are the ones an in-flight
                    // eviction can bite); one in eight is a random
                    // deep scan over the settled archive.
                    let seam = !rng.next().is_multiple_of(8);
                    let (lo, hi) = if seam {
                        let hi = n - 1;
                        (hi.saturating_sub(rng.next() % 24), hi)
                    } else {
                        let hi = rng.next() % n;
                        let lo = if hi == 0 { 0 } else { rng.next() % (hi + 1) };
                        (lo, hi)
                    };
                    let got = stream.range_by_time(lo, hi);
                    assert_eq!(
                        got.len() as u64,
                        hi - lo + 1,
                        "seed {seed:#x}: scan [{lo}, {hi}] lost or duplicated entries \
                             (an eviction raced the archive/window stitch)"
                    );
                    for (k, e) in got.iter().enumerate() {
                        assert_eq!(e.id, StreamId::new(lo + k as u64, 0));
                        assert_eq!(e.record, record_of(lo + k as u64));
                    }
                    scans += 1;
                    if !seam {
                        continue;
                    }
                    // The same seam scan through the column sink: every
                    // row exactly once and in order.
                    let cols = stream.scan_columns_by_time(lo, hi);
                    assert_eq!(
                        cols.len() as u64,
                        hi - lo + 1,
                        "seed {seed:#x}: columns [{lo}, {hi}]"
                    );
                    for (k, i) in (lo..=hi).enumerate() {
                        assert_eq!(cols.timestamps_ns[k], i * 1_000_000);
                        assert_eq!(cols.values[k].to_bits(), (i as f64).to_bits());
                        assert_eq!(cols.provenance[k], Provenance::Measured.wire());
                    }
                    // And against the entry sink: the range is settled, so
                    // the rows agree whatever the snapshots, and the later
                    // scan's snapshot is no older.
                    let batch = stream.scan_batch_by_time(lo, hi);
                    assert_eq!(batch.entries.len() as u64, hi - lo + 1);
                    assert_same_rows(&cols, &batch, "seam scan");
                    assert!(cols.last_id <= batch.last_id);
                }
                scans
            })
        })
        .collect();

    // A reader that scanned once and then only *extends* that batch in
    // place (the query layer's per-topic tail), pacing itself behind an
    // 8-row window so most extensions start in the archive: every entry
    // exactly once and in order, and a batch someone still holds is never
    // written under.
    let tailer = {
        let stream = Arc::clone(&stream);
        let done = Arc::clone(&done);
        let extended = Arc::clone(&extended);
        std::thread::spawn(move || {
            let mut tail = Arc::new(stream.scan_columns(StreamId::MIN, StreamId::MAX));
            let mut expect = 0u64..;
            let (mut checked, mut extensions) = (0usize, 0u64);
            loop {
                let finished = done.load(Ordering::Acquire);
                let (held, held_rows) = (Arc::clone(&tail), tail.len());
                assert!(tail.last_id.is_none() || stream.extend_columns(&mut tail));
                if tail.last_id.is_none() {
                    tail = Arc::new(stream.scan_columns(StreamId::MIN, StreamId::MAX));
                }
                assert_eq!(held.len(), held_rows, "seed {seed:#x}: a held batch grew");
                for k in checked..tail.len() {
                    let i = expect.next().unwrap();
                    assert_eq!(tail.ids_ms[k], i, "seed {seed:#x}: tail row {k} lost or repeated");
                    assert_eq!(tail.values[k].to_bits(), (i as f64).to_bits());
                }
                checked = tail.len();
                let appended = tail.last_id.map_or(0, |id| id.ms + 1);
                assert_eq!(checked as u64, appended, "seed {seed:#x}: rows");
                assert!(tail.first_id.is_none_or(|id| id == StreamId::MIN), "nothing is lost here");
                extensions += 1;
                extended.store(true, Ordering::Release);
                if finished {
                    return (appended, extensions);
                }
            }
        })
    };

    writer.join().unwrap();
    let total_scans: u64 = scanners.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total_scans > 0);
    let (tailed, extensions) = tailer.join().unwrap();
    assert_eq!(tailed, APPENDS, "the tail ends where the stream does");
    assert!(extensions > 1);

    // Post-quiescence: the full log is intact and ordered.
    let all = stream.range(StreamId::MIN, StreamId::MAX);
    assert_eq!(all.len() as u64, APPENDS);
    assert!(all.windows(2).all(|w| w[0].id < w[1].id));
}

/// Payloads that are not records — too short, a bad provenance byte, or
/// a record with bytes after it — offered at the broker's publish door
/// between real records: each is refused there (the door panics), so none
/// reaches the window or the ring, on either side of the seam. The column
/// sink must still agree with the entry sink and with a model of the
/// records that landed — over the full span, and over every short range
/// across the seam.
#[test]
fn both_sinks_agree_with_corrupt_and_oversize_rows_across_the_seam() {
    over_a_whole_run_ring("sinks", 16, |config| {
        const APPENDS: u64 = 400;
        let broker = Broker::new(config);
        let mut rng = Lcg(0x5eed_0c01);
        // Per offer: the value it landed, or `None` when it was refused.
        let mut model: Vec<Option<f64>> = Vec::new();
        for i in 0..APPENDS {
            let mut payload = Record::predicted(i * 1_000_000, -(i as f64)).encode().to_vec();
            match rng.next() % 10 {
                0 | 1 => payload.truncate(2),
                2 => payload[16] = 3 + (rng.next() % 253) as u8,
                3 => payload.resize(18 + (rng.next() % 63) as usize, 9),
                _ => {}
            }
            let record = payload.len() == 17 && Record::decode(&payload).is_ok();
            let frame = Bytes::from(payload);
            let publish = AssertUnwindSafe(|| broker.publish("sinks", i, frame));
            assert_eq!(catch_unwind(publish).is_ok(), record, "offer {i}");
            model.push(record.then_some(-(i as f64)));
        }
        let landed: Vec<u64> = (0..APPENDS).filter(|&i| model[i as usize].is_some()).collect();
        let info = broker.topic_info("sinks").unwrap();
        assert_eq!(info.window_len + info.archived_len, landed.len(), "only the records landed");
        let seam = landed[landed.len() - info.window_len];
        // What a scan of `[lo, hi]` reads: the records, on both sides of the seam.
        let readable = |lo: u64, hi: u64| (lo..=hi).filter_map(|i| model[i as usize]);
        let refused = |lo: u64, hi: u64| (lo..hi).filter(|&i| model[i as usize].is_none()).count();
        assert!(refused(0, seam) > 0 && refused(seam, APPENDS) > 0, "on both sides");
        let ranges = (seam - 40..seam + 4).map(|lo| (lo, lo + 12)).chain([(0, APPENDS - 1)]);
        for (lo, hi) in ranges {
            let cols = broker.scan_columns_by_time("sinks", lo, hi);
            let batch = broker.scan_batch_by_time("sinks", lo, hi);
            assert_eq!(cols.last_id, batch.last_id);
            let rows = readable(lo, hi).count();
            assert_eq!(batch.entries.len(), rows, "exactly once across the seam");
            assert_same_rows(&cols, &batch, "quiescent scan");
            let want: Vec<u64> = readable(lo, hi).map(f64::to_bits).collect();
            assert_eq!(cols.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want);
            assert!(cols.provenance.iter().all(|&p| p == Provenance::Predicted.wire()));
        }
    });
}

/// Same regime for the cursor path: a reader that paces itself slower
/// than retention must be handed every entry exactly once via the archive
/// stitch in `read_after`, and some of its reads must start below the
/// live window.
#[test]
fn slow_cursor_reader_never_skips_evicted_entries() {
    over_a_whole_run_ring("lag", 4, slow_cursor_walk);
}

fn slow_cursor_walk(config: StreamConfig) {
    const APPENDS: u64 = 10_000;

    let stream = Arc::new(Stream::new("lag", config));
    let done = Arc::new(AtomicBool::new(false));

    let writer = {
        let stream = Arc::clone(&stream);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            for i in 0..APPENDS {
                stream.append(i, record_of(i));
            }
            done.store(true, Ordering::Release);
        })
    };

    let reader = {
        let stream = Arc::clone(&stream);
        let done = Arc::clone(&done);
        let mut rng = Lcg(0xc0ff_ee00);
        std::thread::spawn(move || {
            let mut cursor: Option<StreamId> = None;
            let mut seen = 0u64;
            let mut stitched = 0u64;
            loop {
                let batch_size = (rng.next() % 7 + 1) as usize;
                // The live window's oldest row is the one after the
                // archive's newest, and that floor only moves forward: a
                // read whose next row lay below it before the read must
                // have stitched from the archive.
                let newest_archived = stream.archive().and_then(|ring| ring.last_id());
                let got = stream.read_after(cursor, batch_size);
                if got.is_empty() {
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    std::thread::yield_now();
                    continue;
                }
                if newest_archived.is_some_and(|archived| got[0].id <= archived) {
                    stitched += 1;
                }
                for e in &got {
                    // Strictly-increasing ms per append means the k-th
                    // entry ever appended has ID (k, 0): a gap-free
                    // cursor walk sees exactly (seen, 0) next.
                    assert_eq!(
                        e.id,
                        StreamId::new(seen, 0),
                        "cursor skipped or replayed an entry across the eviction seam"
                    );
                    seen += 1;
                }
                cursor = Some(got.last().unwrap().id);
            }
            (seen, stitched)
        })
    };

    writer.join().unwrap();
    let (seen, stitched) = reader.join().unwrap();
    assert_eq!(seen, APPENDS, "reader observed every appended entry exactly once");
    assert!(
        stitched > 0,
        "a reader pacing behind a max_len=4 window must have been archive-stitched at least once"
    );
}

/// The oldest row the lap race's stream retains once its newest is
/// `last`: its 64 ring slots and 8 window rows hold the newest 72.
fn retained_from(last: u64) -> u64 {
    (last + 1).saturating_sub(64 + 8)
}

/// `cols`, read from `lo` on, holds exactly the rows of
/// `max(lo, first)..=last`, where `first..=last` is what the lap stream
/// retained at the batch's snapshot, each carrying its own
/// `record_of`. Returns `last`.
fn assert_retained_rows(cols: &ColumnBatch, lo: u64, what: &str) -> u64 {
    let last = cols.last_id.expect("rows were appended").ms;
    let first = retained_from(last);
    assert_eq!(cols.first_id, Some(StreamId::new(first, 0)), "{what}: the retained head");
    let rows: Vec<u64> = (lo.max(first)..=last).collect();
    assert_eq!(cols.ids_ms, rows, "{what}: rows from {lo} to {last} not contiguous");
    assert!(cols.values.iter().zip(&rows).all(|(&v, &i)| v == i as f64), "{what}: values");
    assert!(cols.timestamps_ns.iter().zip(&rows).all(|(&t, &i)| t == i * 1_000_000), "{what}");
    last
}

/// One writer laps a 64-slot ring hundreds of times behind an 8-row
/// window while two scanners read from random starts on either side of
/// the ring's floor (`range`, `scan_columns`) and a third only extends one
/// columnar tail, trimmed to the stream's `first_id` after every
/// extension. Every result is the contiguous run the stream retained at
/// its snapshot, each row carrying its own record, and the tail, carried
/// across every lap, ends equal to a fresh scan.
#[test]
fn scans_racing_a_ring_lap_see_one_contiguous_snapshot() {
    for seed in [0x1a9_0001u64, 0x1a9_0002, 0x1a9_0003] {
        lap_race(seed);
    }
}

fn lap_race(seed: u64) {
    // At least 400 laps, and on (up to a cap) until the scanners have read
    // 200 times and the tail has been extended 20: a writer looping on the
    // lock can re-take it before parked readers wake.
    const APPENDS: u64 = 400 * 64;
    let store = SlabStore::in_memory(SlabConfig { max_series: 1, slots: 64, ..Default::default() });
    let stream = Stream::new("lap", StreamConfig::bounded(8).with_slab(store.expect("geometry")));
    let (appended, scans, extensions) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
    let done = AtomicBool::new(false);
    let tail = std::thread::scope(|s| {
        s.spawn(|| {
            let starved =
                || scans.load(Ordering::Relaxed) < 200 || extensions.load(Ordering::Relaxed) < 20;
            let mut i = 0;
            while i < APPENDS || (starved() && i < 100 * APPENDS) {
                assert_eq!(stream.append(i, record_of(i)), StreamId::new(i, 0));
                i += 1;
                appended.store(i, Ordering::Release);
            }
            done.store(true, Ordering::Release);
        });
        for scanner in 0..2u64 {
            let mut rng = Lcg(seed ^ scanner.wrapping_mul(0x9e37_79b9));
            let (stream, appended, scans, done) = (&stream, &appended, &scans, &done);
            s.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    let n = appended.load(Ordering::Acquire);
                    // From up to 24 rows before the ring's floor to the head.
                    let lo = n.saturating_sub(1 + rng.next() % 96);
                    let what = format!("seed {seed:#x}: scan from {lo} after {n} appends");
                    let last = if n == 0 {
                        continue;
                    } else if rng.next().is_multiple_of(2) {
                        let got = stream.range(StreamId::new(lo, 0), StreamId::MAX);
                        let last = got.last().expect("row n - 1 was appended").id.ms;
                        let ids =
                            (lo.max(retained_from(last))..=last).map(|ms| StreamId::new(ms, 0));
                        assert!(got.iter().map(|e| e.id).eq(ids), "{what}: not contiguous");
                        assert!(got.iter().all(|e| e.record == record_of(e.id.ms)), "{what}");
                        last
                    } else {
                        let cols = stream.scan_columns(StreamId::new(lo, 0), StreamId::MAX);
                        assert_retained_rows(&cols, lo, &what)
                    };
                    assert!(last >= n - 1, "{what}: older than the row before it");
                    scans.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let tailer = s.spawn(|| {
            let mut tail = Arc::new(ColumnBatch::default());
            loop {
                let finished = done.load(Ordering::Acquire);
                if tail.last_id.is_none() {
                    tail = Arc::new(stream.scan_columns(StreamId::MIN, StreamId::MAX));
                    continue;
                }
                assert!(stream.extend_columns(&mut tail), "seed {seed:#x}: same stream");
                let first = tail.first_id.expect("rows retained");
                Arc::make_mut(&mut tail).trim_before(first.ms);
                assert_retained_rows(&tail, 0, &format!("seed {seed:#x}: tail"));
                extensions.fetch_add(1, Ordering::Relaxed);
                if finished {
                    return tail;
                }
            }
        });
        tailer.join().expect("tailer")
    });
    let read = (scans.into_inner(), extensions.into_inner());
    assert!(read.0 >= 200 && read.1 >= 20, "seed {seed:#x}: readers starved: {read:?}");
    let fresh = stream.scan_columns(StreamId::MIN, StreamId::MAX);
    assert_eq!(assert_retained_rows(&fresh, 0, "fresh") + 1, appended.into_inner());
    assert_eq!((&tail.ids_ms, &tail.timestamps_ns), (&fresh.ids_ms, &fresh.timestamps_ns));
    assert_eq!((tail.first_id, tail.last_id), (fresh.first_id, fresh.last_id));
}
