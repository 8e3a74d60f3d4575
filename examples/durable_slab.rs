//! Durable slab spill: evicted history survives a restart, and a reader
//! that saved its cursor resumes where it stopped.
//!
//! This drives the PR-7 surface end-to-end: a bounded stream spills its
//! evictions into an mmap [`SlabStore`](apollo_streams::SlabStore)
//! instead of a private in-memory ring; [`Apollo::attach_slab`] consolidates the
//! raw 1 s entries into coarser tiers on the service event loop and exports
//! `streams.slab.*` gauges; then the whole service is torn down and
//! rebuilt over the same file: the archived history comes back, and an
//! alert builder that saved the last `StreamId` it read resumes from it
//! with `Broker::read_after`. A third life shortens the
//! one deployment setting of the lifecycle — how long a retired series
//! is kept — and watches series GC reclaim a retired job metric's dirent.
//!
//! Run: `cargo run --release -p apollo-bench --example durable_slab`

use apollo_cluster::metrics::ConstSource;
use apollo_core::selfobs::{deploy_slab_observer, SLAB_SELF_TOPICS};
use apollo_core::service::{Apollo, FactVertexSpec};
use apollo_runtime::event_loop::EventLoop;
use apollo_streams::{
    CompactPolicy, Record, SlabConfig, SlabStore, SpillBackend, StreamConfig, StreamId, TierConfig,
};
use std::sync::Arc;
use std::time::Duration;

fn slab_path() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("apollo-durable-slab-example");
    std::fs::create_dir_all(&dir).expect("create slab dir");
    dir.join("apollo.slab")
}

/// An Apollo instance whose bounded streams spill into `store`.
fn apollo_over(store: &Arc<SlabStore>) -> Apollo {
    let mut apollo = Apollo::with_config(
        EventLoop::new_virtual(),
        StreamConfig {
            max_len: Some(4),
            archive_evicted: true,
            spill: SpillBackend::slab(Arc::clone(store)),
        },
    );
    apollo.attach_slab(Arc::clone(store), Duration::from_secs(5));
    apollo
}

fn main() {
    let path = slab_path();
    let _ = std::fs::remove_file(&path);
    let config = SlabConfig {
        max_series: 16,
        slots: 256,
        tiers: vec![TierConfig::new(1_000, 64), TierConfig::new(10_000, 32)],
    };

    // ---- first life: publish, evict into the slab, read half ----------
    let store = SlabStore::create(&path, config).expect("create slab");
    let mut apollo = apollo_over(&store);
    apollo
        .register_fact(
            FactVertexSpec::fixed(
                "disk/io_pressure",
                Arc::new(ConstSource::new("psi", 7.0)),
                Duration::from_secs(1),
            )
            // Publish every poll (not just on change) so the bounded
            // window actually evicts into the slab.
            .publish_always(),
        )
        .expect("register fact");
    let slab_topics = deploy_slab_observer(&mut apollo, Duration::from_secs(5))
        .expect("deploy")
        .expect("store attached");
    assert_eq!(slab_topics.len(), SLAB_SELF_TOPICS.len());

    // The alert builder reads the topic from its start by cursor, and
    // keeps the last `StreamId` it read as its own saved state.
    let broker = apollo.broker();
    apollo.run_for(Duration::from_secs(10));
    let first_read = broker.read_after("disk/io_pressure", None, 6);
    let saved = first_read.last().map(|e| e.id);
    apollo.run_for(Duration::from_secs(20));
    println!("first life:  window+archive entries = {}", broker.topic_len("disk/io_pressure"));
    println!("first life:  alert builder read {} entries, saved its cursor", first_read.len());

    let snap = apollo.metrics_snapshot();
    println!(
        "first life:  slab gauges: series={} consolidated_entries={}",
        snap.gauges["streams.slab.series"], snap.counters["streams.slab.consolidated_entries"]
    );
    let occ = apollo
        .query(&format!("SELECT MAX(Timestamp), metric FROM {}", SLAB_SELF_TOPICS[0]))
        .expect("occupancy query");
    println!("first life:  {} rows from {}", occ.rows.len(), SLAB_SELF_TOPICS[0]);

    store.flush().expect("msync");
    drop(apollo);
    drop(store);

    // ---- second life: reopen the same file, everything comes back -----
    let (store, report) = SlabStore::open(&path).expect("reopen slab");
    println!(
        "second life: reopened {} series, {} committed entries, {} torn slots rolled back",
        report.series_live, report.recovered_entries, report.rolled_back_slots
    );
    let apollo = apollo_over(&store);
    let broker = apollo.broker();

    // The alert builder registers its waker on the topic, which
    // re-attaches the slab series and restores the archived history, and
    // resumes from the cursor it saved.
    let _waker = broker.wake_on("disk/io_pressure", || {});
    let resumed = broker.read_after("disk/io_pressure", saved, 100);
    let history = broker.topic_len("disk/io_pressure");
    println!("second life: restored history = {history} entries");
    println!(
        "second life: alert builder resumed with {} entries (only what the first life never read)",
        resumed.len()
    );
    assert!(history > 4, "archived history must outlive the process");
    assert!(
        !resumed.is_empty() && resumed.len() < history,
        "cursor must resume mid-stream, not from zero"
    );
    assert!(resumed.iter().all(|e| Some(e.id) > saved), "nothing it already read");
    let tiers = store.series("disk/io_pressure").expect("series").tier_buckets(0);
    println!("second life: tier-0 consolidation buckets = {}", tiers.len());
    assert!(!tiers.is_empty(), "consolidated tiers must survive restart");
    drop(apollo);

    // ---- third life: the lifecycle — one step per tick, series GC -----
    // Each tick consolidates, msyncs (so the tick length bounds the
    // machine-crash loss window) and compacts. A short-lived job metric is
    // retired and, past the 3 s retention, its dirent reclaimed while the
    // held `disk/io_pressure` handle pins that series in place.
    let mut apollo = Apollo::with_config(
        EventLoop::new_virtual(),
        StreamConfig {
            max_len: Some(4),
            archive_evicted: true,
            spill: SpillBackend::slab(Arc::clone(&store)),
        },
    );
    apollo.attach_slab_with(
        Arc::clone(&store),
        Duration::from_secs(1),
        CompactPolicy { retention_ms: 3_000 },
    );
    let pinned = store.series("disk/io_pressure").expect("pin the history series");
    let live_before = store.stats().series_live;
    {
        let scratch = store.series("job/1234/scratch_bytes").expect("scratch series");
        for i in 0..32u64 {
            scratch.push(StreamId::new(1_000 + i, 0), Record::measured(1_000 + i, i as f64));
        }
    } // job done: the handle drops, the series is GC-eligible after retention
    apollo.run_for(Duration::from_secs(20));

    let snap = apollo.metrics_snapshot();
    let after = store.stats();
    println!(
        "third life:  flushes={} reclaimed_series={} reclaimed_entries={} dirty={} pressure={:.2}",
        snap.counters["streams.slab.flushes"],
        snap.counters["streams.slab.reclaimed_series"],
        snap.counters["streams.slab.reclaimed_entries"],
        store.dirty_records(),
        after.pressure(),
    );
    assert_eq!(snap.counters["streams.slab.flushes"], 20, "one flush per tick");
    assert!(
        snap.counters["streams.slab.reclaimed_series"] >= 1,
        "the retired job series must be reclaimed"
    );
    // The job series AND the stale self-observer series from the earlier
    // lives are reclaimed; the handle-pinned history series survives.
    assert!(after.series_live < live_before, "retired series must be gone");
    assert!(!pinned.tier_buckets(0).is_empty(), "pinned history survives GC intact");
    assert_eq!(after.series_tombstoned, 0, "no tombstone leaks");
    drop(pinned);

    let _ = std::fs::remove_file(&path);
    println!("\nDurable slab round-trip OK");
}
