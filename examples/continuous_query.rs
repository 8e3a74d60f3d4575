//! Continuous queries: a registered AQE query as a standing vertex.
//!
//! One Fact vertex replays a capacity ramp; a continuous query over it
//! (`SELECT AVG(metric) FROM ...`) reruns on the service's cached query
//! path when a publish wakes it, and republishes its result as ordinary
//! facts whenever it changes. The scan cache keeps the AVG's fold and
//! resumes it over only the rows appended since
//! (`query.scan_cache.fold_resumed`), so a pump, and a matching
//! `Apollo::query`, folds only the new rows — and is bit-identical to a
//! full rescan, which this example checks on every tick.
//!
//! Run: `cargo run --release -p apollo-bench --example continuous_query`

use apollo_cluster::metrics::TraceSource;
use apollo_cluster::series::TimeSeries;
use apollo_core::service::{Apollo, FactVertexSpec};
use std::sync::Arc;
use std::time::Duration;

const NS: u64 = 1_000_000_000;

fn main() {
    let mut apollo = Apollo::new_virtual();

    // A device draining 2 GB/s, polled every second.
    let trace =
        TimeSeries::from_points((0..120u64).map(|i| (i * NS, 240.0 - 2.0 * i as f64)).collect());
    apollo
        .register_fact(FactVertexSpec::fixed(
            "node0/nvme/remaining_capacity",
            Arc::new(TraceSource::new("cap", trace)),
            Duration::from_secs(1),
        ))
        .expect("register fact");

    // Build up some history first: the standing result must include it.
    apollo.run_for(Duration::from_secs(10));

    let sql = "SELECT AVG(metric) FROM node0/nvme/remaining_capacity";
    let standing = apollo
        .register_continuous("cluster/avg_capacity", sql, Duration::from_secs(1))
        .expect("register continuous query");
    println!("registered standing query: {sql}");

    // Every tick: the query path, the standing result and a full rescan
    // agree bit-for-bit.
    let broker = apollo.broker();
    for tick in 0..20 {
        apollo.run_for(Duration::from_secs(1));
        let served = apollo.query(sql).expect("standing query");
        let kept = standing.result().expect("standing result");
        // The oracle: a fresh engine over the raw broker — full scan, no
        // cache.
        let rescan =
            apollo_query::QueryEngine::new(broker.as_ref()).execute_sql(sql).expect("full rescan");
        let rescan = format!("{rescan:?}");
        assert_eq!(format!("{served:?}"), rescan, "query path diverged at tick {tick}");
        assert_eq!(format!("{kept:?}"), rescan, "standing result diverged at tick {tick}");
    }
    let snap = apollo.metrics_snapshot();
    let resumed = snap.counter("query.scan_cache.fold_resumed");
    let misses = snap.counter("query.scan_cache.misses");
    let emitted = snap.counter("query.continuous.emitted_rows");
    println!("after 20 queried ticks:");
    println!("  query.scan_cache.fold_resumed = {resumed} (folds of only the new rows)");
    println!("  query.scan_cache.misses       = {misses} (full scans)");
    println!("  query.continuous.emitted_rows = {emitted}");
    assert!(resumed >= 30, "the saved fold was barely resumed: {resumed}");
    assert_eq!(misses, 1, "only the first lookup scanned the topic");

    // Changed results were republished as facts on the query's own topic.
    let history =
        apollo.query("SELECT COUNT(*) FROM cluster/avg_capacity").expect("result-history query");
    println!("  result-history rows published = {}", history.rows[0].value);
    assert!(history.rows[0].value >= 2.0, "standing query never republished");

    // And the standing-query count is self-observable like any metric.
    apollo_core::deploy_self_observer(&mut apollo, Duration::from_secs(1))
        .expect("deploy self-observer");
    apollo.run_for(Duration::from_secs(3));
    let cq = apollo
        .query("SELECT MAX(Timestamp), metric FROM apollo/self/continuous_queries")
        .expect("self-observer query");
    println!("  apollo/self/continuous_queries = {}", cq.rows[0].value);
    assert_eq!(cq.rows[0].value, 1.0);

    println!("\nStanding query stayed bit-identical to a full rescan for 20 ticks.");
}
