//! Proof of the scan cache's zero-allocation claims, counted by the
//! workspace's counting allocator (`apollo-alloc-count`): a repeat
//! [`TableProvider::range`] / [`TableProvider::columns`] call against an
//! unchanged topic must be served as a pure `Arc` clone — **exactly
//! zero** heap allocations — and a lookup that extends the topic's tail
//! by rows its columns have room for allocates nothing either.
//!
//! The first call is the miss that decodes the scan and keeps it as the
//! topic's tail, in both forms. Every hit after that touches only
//! borrowed keys, atomics, and `Arc` reference counts.
//!
//! This file deliberately holds a single `#[test]`: the count is
//! process-wide, so a second concurrently-running test would pollute it.

use apollo_alloc_count::allocs_during;
use apollo_query::exec::{CachedBroker, ScanCache, TableProvider};
use apollo_streams::codec::Record;
use apollo_streams::{Broker, StreamConfig};

#[test]
fn warm_range_hits_allocate_nothing() {
    let broker = Broker::new(StreamConfig::default());
    for i in 0..256u64 {
        let ts_ms = (i + 1) * 10;
        broker.publish(
            "node0/nvme0/load",
            ts_ms,
            Record::measured(ts_ms * 1_000_000, i as f64).encode(),
        );
    }
    let cache = ScanCache::new();
    let provider = CachedBroker::new(&broker, &cache);

    // Warm-up: the miss — decodes the scan and stores both forms.
    let first = provider.range("node0/nvme0/load", 0, u64::MAX);
    assert_eq!(first.len(), 256);
    let second = provider.range("node0/nvme0/load", 0, u64::MAX);
    assert_eq!(cache.hits(), 1);
    assert_eq!(cache.misses(), 1);

    // --- Row form --------------------------------------------------------
    let n = allocs_during(|| {
        for _ in 0..100 {
            let warm = provider.range("node0/nvme0/load", 0, u64::MAX);
            assert_eq!(warm.len(), 256);
        }
    });
    assert_eq!(n, 0, "warm range hits allocated {n} times over 100 calls");
    assert_eq!(cache.hits(), 101);
    assert_eq!(cache.misses(), 1, "warm hits never re-scanned");

    // Same Arc, not a copy: every hit aliases the one decoded scan.
    let warm = provider.range("node0/nvme0/load", 0, u64::MAX);
    assert!(std::ptr::eq(warm.as_ptr(), second.as_ptr()), "hit returned a cloned Vec");

    // --- Columnar form ---------------------------------------------------
    // Shares the cached scan with `range`, so it is already warm.
    let cols = provider.columns("node0/nvme0/load", 0, u64::MAX).unwrap();
    assert_eq!(cols.rows.len(), 256);
    let n = allocs_during(|| {
        for _ in 0..100 {
            let warm = provider.columns("node0/nvme0/load", 0, u64::MAX).unwrap();
            assert_eq!(warm.rows.len(), 256);
        }
    });
    assert_eq!(n, 0, "warm columns hits allocated {n} times over 100 calls");

    // An append extends the tail and drops the row memo: the next row
    // call re-derives it (and allocates), after which the path is
    // allocation-free again.
    drop((cols, warm, first, second));
    broker.publish("node0/nvme0/load", 9_999, Record::measured(9_999_000_000, 1.0).encode());
    let refreshed = provider.range("node0/nvme0/load", 0, u64::MAX);
    assert_eq!(refreshed.len(), 257);
    let n = allocs_during(|| {
        for _ in 0..100 {
            assert_eq!(provider.range("node0/nvme0/load", 0, u64::MAX).len(), 257);
        }
    });
    assert_eq!(n, 0, "post-extension warm hits allocated {n} times");
    assert_eq!(cache.misses(), 1, "the append was an extension, not a re-scan");

    // --- Extension -------------------------------------------------------
    // The first extension grew the columns past their exact first sizing;
    // while appended rows fit that room, extending them is allocation-free
    // (the publish itself allocates: it happens outside the count).
    drop(refreshed);
    for i in 0..100u64 {
        let ts_ms = 10_000 + i;
        let record = Record::measured(ts_ms * 1_000_000, i as f64).encode();
        broker.publish("node0/nvme0/load", ts_ms, record);
        let n = allocs_during(|| {
            let cols = provider.columns("node0/nvme0/load", ts_ms - 50, u64::MAX).unwrap();
            assert_eq!(cols.batch.len() as u64, 258 + i);
        });
        assert_eq!(n, 0, "extension {i} allocated {n} times");
    }
    assert_eq!((cache.misses(), cache.invalidations()), (1, 0));
}
