//! Proof of the slab spill's zero-allocation claim, counted by the
//! workspace's counting allocator (`apollo-alloc-count`): archiving an
//! evicted entry is a bounded slot write — store the record's five words
//! into a pre-allocated slot, publish with one `Release` store, bump the
//! dirty counter — so a warm
//! [`SlabSeries::record`](apollo_streams::slab::SlabSeries::record), and
//! a stream's eviction in front of it, must perform **exactly zero** heap
//! allocations per entry. A stream without a shared store pays a fixed
//! handful once, at its first eviction, for its private ring.
//!
//! The read side has the same kind of bound. A scan is one walk whose rows
//! land in a sink, and a slot is read once into locals — its five words
//! loaded, the checksum verified over them, the record taken from them —
//! with no scratch buffer: [`Stream::scan_columns`] lands every archived
//! row's fields from the words its read loaded, so a full scan allocates
//! exactly its four columns however many rows it covers, and
//! [`Stream::range`] exactly one block — the entry `Vec` — since a
//! record's frame is built inside its entry, from slot and window alike. The walk
//! finds the ring's rows and the window's before it lands either, so each
//! column or `Vec` is sized once for both. Extending a uniquely held tail
//! ([`Stream::extend_columns`]) un-shares nothing and allocates only its
//! columns' growth, never a block per row. A subscription takes a window
//! entry, or waits for one, without allocating.
//!
//! This file deliberately holds a single `#[test]`: the count is
//! process-wide, so a second concurrently-running test would pollute it.

use apollo_alloc_count::allocs_during;
use apollo_streams::{Broker, Record, SlabConfig, SlabStore, Stream, StreamConfig, StreamId};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn warm_slab_records_allocate_nothing() {
    let dir = std::env::temp_dir().join(format!("apollo-slab-allocs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("allocs.slab");
    let _ = std::fs::remove_file(&path);

    // Default geometry (4096 × 40 B per series): 10 000 records lap the
    // ring more than twice.
    let cfg = SlabConfig { max_series: 4, ..SlabConfig::default() };
    let ring_slots = u64::from(cfg.slots);
    let store = SlabStore::create(&path, cfg).expect("create slab");
    let payload = Record::measured(1_000_000, 42.5).encode();

    // --- SlabSeries::record ------------------------------------------------
    let series = store.series("direct").expect("series");
    // Warm one full lap so the measured calls overwrite a wrapped ring.
    for i in 0..ring_slots {
        assert!(series.record(StreamId::new(i, 0), &payload));
    }
    let dirty_before = store.dirty_records();
    let n = allocs_during(|| {
        for i in 0..10_000u64 {
            assert!(series.record(StreamId::new(ring_slots + i, 0), &payload));
        }
    });
    assert_eq!(n, 0, "record() allocated {n} times over 10 000 warm calls");
    assert_eq!(series.appended(), ring_slots + 10_000);
    assert_eq!(series.live_len(), ring_slots, "the ring wrapped during the measured calls");
    assert_eq!(store.dirty_records() - dirty_before, 10_000, "dirty tracking was live");

    // --- Evictions into a private ring ---------------------------------------
    // The first append allocates the window; the second, the first
    // eviction, allocates the private ring: the store's zeroed words, its
    // handle counts and its `Arc` (once the process has built the ring
    // geometry, which the warm-up stream does). Every eviction after that,
    // across two laps, is a slot write.
    let warm_up = Stream::new("warm-up", StreamConfig::bounded(1));
    for ms in 0..2 {
        warm_up.append(ms, payload.clone());
    }
    let private = Stream::new("private", StreamConfig::bounded(1));
    private.append(0, payload.clone());
    let n = allocs_during(|| {
        private.append(1, payload.clone());
    });
    assert_eq!(n, 3, "the first eviction allocated {n} blocks for its ring");
    let n = allocs_during(|| {
        for i in 0..10_000u64 {
            private.append(2 + i, payload.clone());
        }
    });
    assert_eq!(n, 0, "10 000 evictions into a private ring allocated {n} times");
    let ring = private.archive().expect("a private ring");
    assert_eq!((ring.live_len(), private.archive_rejected()), (ring_slots, 0), "it lapped");

    // --- Stream scans over 4 096 archived + 256 window rows -----------------
    const ARCHIVED: u64 = 4_096;
    const WINDOW: u64 = 256;
    let stream =
        Stream::new("scan", StreamConfig::bounded(WINDOW as usize).with_slab(store.clone()));
    for i in 0..ARCHIVED + WINDOW {
        stream.append(i, Record::measured(i * 1_000_000, i as f64).encode());
    }
    assert_eq!(stream.archive().expect("slab-backed").live_len(), ARCHIVED);
    assert_eq!(stream.len() as u64, WINDOW);

    let mut columns = None;
    let n = allocs_during(|| columns = Some(stream.scan_columns(StreamId::MIN, StreamId::MAX)));
    let columns = columns.expect("scanned");
    assert_eq!(columns.len() as u64, ARCHIVED + WINDOW);
    assert_eq!((columns.values[0], columns.values[4_351]), (0.0, 4_351.0));
    assert_eq!(columns.values.capacity(), columns.len(), "a cached batch carries no slack");
    // Four columns, each sized once for the ring and window rows together;
    // a slot is read into locals, not a scratch.
    assert_eq!(n, 4, "scan_columns allocated {n} blocks for {} rows", columns.len());

    let mut entries = Vec::new();
    let n = allocs_during(|| entries = stream.range(StreamId::MIN, StreamId::MAX));
    assert_eq!(entries.len() as u64, ARCHIVED + WINDOW);
    assert_eq!(entries.capacity(), entries.len(), "the entry vector is sized exactly");
    // The `Vec`, sized once for the ring and window rows together: no
    // block per row, archived or not.
    assert_eq!(n, 1, "range allocated {n} blocks for {} rows", entries.len());

    // --- Extending a uniquely held tail --------------------------------------
    // A tail of the whole stream, extended by K rows that cross the seam:
    // the `Arc` is not shared, so nothing is copied, and the only blocks
    // are the four columns' growth — none per row. An extension that fits
    // the spare capacity growth left behind allocates nothing.
    const K: u64 = 1_000;
    let mut tail = Arc::new(columns);
    for i in ARCHIVED + WINDOW..ARCHIVED + WINDOW + K {
        stream.append(i, Record::measured(i * 1_000_000, i as f64).encode());
    }
    let before = Arc::as_ptr(&tail);
    let n = allocs_during(|| assert!(stream.extend_columns(&mut tail)));
    assert_eq!(tail.len() as u64, ARCHIVED + WINDOW + K, "every appended row landed");
    assert_eq!(Arc::as_ptr(&tail), before, "a unique tail is extended in place");
    assert_eq!(n, 4, "extending by {K} rows allocated {n} blocks: only the columns' growth");
    let spare = (tail.values.capacity() - tail.len()) as u64;
    assert!(spare >= 8, "amortised growth leaves room ({spare} rows)");
    let next = ARCHIVED + WINDOW + K;
    for i in next..next + 8 {
        stream.append(i, Record::measured(i * 1_000_000, i as f64).encode());
    }
    let n = allocs_during(|| assert!(stream.extend_columns(&mut tail)));
    assert_eq!((n, tail.len() as u64), (0, next + 8), "an extension into spare room allocated");

    // --- A subscription's reads ---------------------------------------------
    // A subscription is a cursor over the stream: taking a window entry
    // copies it into the one slot the subscription keeps, and waiting for
    // one parks on a condvar. Neither allocates.
    let broker = Broker::new(StreamConfig::bounded(8));
    let sub = broker.subscribe("t");
    for ms in 0..16 {
        broker.publish("t", ms, payload.clone());
    }
    assert_eq!(sub.drain().len(), 16, "the window at its bound, the ring built");
    broker.publish("t", 16, payload.clone());
    let n = allocs_during(|| {
        assert!(sub.try_recv().is_some());
        assert!(sub.try_recv().is_none());
    });
    assert_eq!(n, 0, "try_recv allocated {n} times");
    broker.publish("t", 17, payload.clone());
    let n = allocs_during(|| {
        assert!(sub.recv_timeout(Duration::from_secs(1)).is_some());
        assert!(sub.recv_timeout(Duration::from_millis(1)).is_none(), "parked, timed out");
    });
    assert_eq!(n, 0, "recv_timeout allocated {n} times");

    let _ = std::fs::remove_file(&path);
}
