//! Proof of the scan cache's zero-allocation claims on the one read,
//! counted by the workspace's counting allocator (`apollo-alloc-count`): a
//! repeat [`TableProvider::columns`] call against an unchanged topic must
//! be served as a pure `Arc` clone — **exactly zero** heap allocations —
//! and a lookup that extends the topic's tail by rows its columns have
//! room for allocates nothing either.
//!
//! The first call is the miss that decodes the scan and keeps it as the
//! topic's tail. Every hit after that touches only borrowed keys, atomics,
//! and `Arc` reference counts. [`TableProvider::range`] is an adapter that
//! collects the slice into a fresh `Vec`, so it allocates by design and is
//! not counted here.
//!
//! This file deliberately holds a single `#[test]`: the count is
//! process-wide, so a second concurrently-running test would pollute it.

use apollo_alloc_count::allocs_during;
use apollo_query::exec::{CachedBroker, ScanCache, TableProvider};
use apollo_streams::codec::Record;
use apollo_streams::{Broker, StreamConfig};

#[test]
fn warm_range_hits_allocate_nothing() {
    const TOPIC: &str = "node0/nvme0/load";
    let broker = Broker::new(StreamConfig::default());
    for i in 0..256u64 {
        let ts_ms = (i + 1) * 10;
        broker.publish(TOPIC, ts_ms, Record::measured(ts_ms * 1_000_000, i as f64).encode());
    }
    let cache = ScanCache::new();
    let provider = CachedBroker::new(&broker, &cache);

    // --- Warm hits ---------------------------------------------------------
    // Warm-up: the miss decodes the scan and keeps it as the tail.
    let first = provider.columns(TOPIC, 0, u64::MAX);
    assert_eq!(first.rows.len(), 256);
    let n = allocs_during(|| {
        for _ in 0..100 {
            let warm = provider.columns(TOPIC, 0, u64::MAX);
            assert_eq!(warm.rows.len(), 256);
        }
    });
    assert_eq!(n, 0, "warm columns hits allocated {n} times over 100 calls");
    assert_eq!((cache.hits(), cache.misses()), (100, 1), "warm hits never re-scanned");

    // --- Extension ---------------------------------------------------------
    // The first extension grows the columns past their exact first sizing
    // (and allocates). While appended rows fit that room, extending them is
    // allocation-free (the publish itself happens outside the count). No
    // slice is held across an extension, so the tail is extended in place.
    drop(first);
    broker.publish(TOPIC, 9_999, Record::measured(9_999_000_000, 1.0).encode());
    assert_eq!(provider.columns(TOPIC, 0, u64::MAX).rows.len(), 257);
    for i in 0..100u64 {
        let ts_ms = 10_000 + i;
        broker.publish(TOPIC, ts_ms, Record::measured(ts_ms * 1_000_000, i as f64).encode());
        let n = allocs_during(|| {
            let cols = provider.columns(TOPIC, ts_ms - 50, u64::MAX);
            assert_eq!(cols.batch.len() as u64, 258 + i);
        });
        assert_eq!(n, 0, "extension {i} allocated {n} times");
    }
    assert_eq!((cache.misses(), cache.invalidations()), (1, 0), "extended, never re-scanned");
}
