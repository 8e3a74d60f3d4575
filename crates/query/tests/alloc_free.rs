//! Proof of the warm-scan-cache zero-allocation claim, counted by the
//! workspace's counting allocator (`apollo-alloc-count`): a repeat
//! [`TableProvider::range`] / [`TableProvider::columns`] call against an
//! unchanged topic must be served as a pure `Arc` clone — **exactly
//! zero** heap allocations.
//!
//! Two warm-up calls are required before measuring: the first call is the
//! miss that decodes and stores the scan, and the second (the first hit)
//! creates the topic's per-topic planner-stats entry, which owns the
//! topic name. Every hit after that touches only borrowed keys, atomics,
//! and `Arc` reference counts.
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

    // Warm-up #1: the miss — decodes the scan and stores both forms.
    let first = provider.range("node0/nvme0/load", 0, u64::MAX);
    assert_eq!(first.len(), 256);
    // Warm-up #2: the first hit — creates the per-topic stats entry.
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
    assert_eq!(cols.len(), 256);
    let n = allocs_during(|| {
        for _ in 0..100 {
            let warm = provider.columns("node0/nvme0/load", 0, u64::MAX).unwrap();
            assert_eq!(warm.len(), 256);
        }
    });
    assert_eq!(n, 0, "warm columns hits allocated {n} times over 100 calls");

    // An append invalidates: the next call re-scans (and may allocate),
    // after which the path is allocation-free again.
    broker.publish("node0/nvme0/load", 9_999, Record::measured(9_999_000_000, 1.0).encode());
    let refreshed = provider.range("node0/nvme0/load", 0, u64::MAX);
    assert_eq!(refreshed.len(), 257);
    provider.range("node0/nvme0/load", 0, u64::MAX); // re-warm (first hit on the new scan)
    let n = allocs_during(|| {
        for _ in 0..100 {
            assert_eq!(provider.range("node0/nvme0/load", 0, u64::MAX).len(), 257);
        }
    });
    assert_eq!(n, 0, "post-invalidation warm hits allocated {n} times");
}
