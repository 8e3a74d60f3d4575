//! Cross-crate integration: the full Apollo pipeline over a simulated
//! cluster — fact vertices, chained insights, AQE queries, retention
//! spill into the archive, and the live (real-clock) service mode.

use apollo_adaptive::controller::{AimdParams, ChangeMode};
use apollo_cluster::cluster::SimCluster;
use apollo_cluster::device::DeviceKind;
use apollo_cluster::metrics::{DeviceMetric, MetricKind, TraceSource};
use apollo_cluster::series::TimeSeries;
use apollo_cluster::workloads::hacc::{HaccConfig, HaccWorkload};
use apollo_core::service::{Apollo, FactVertexSpec, InsightVertexSpec};
use apollo_query::QueryEngine;
use apollo_runtime::event_loop::EventLoop;
use apollo_streams::StreamConfig;
use std::sync::Arc;
use std::time::Duration;

const NS: u64 = 1_000_000_000;

#[test]
fn cluster_monitoring_pipeline_with_chained_insights() {
    let cluster = SimCluster::ares_scaled(4, 2);
    let mut apollo = Apollo::new_virtual();

    // Facts: capacity per NVMe device.
    let mut topics = Vec::new();
    for (node, device) in cluster.devices() {
        if device.spec.kind != DeviceKind::Nvme {
            continue;
        }
        let topic = format!("node{node}/capacity");
        topics.push(topic.clone());
        apollo
            .register_fact(FactVertexSpec::fixed(
                topic,
                Arc::new(DeviceMetric::new(device, MetricKind::RemainingCapacity)),
                Duration::from_secs(1),
            ))
            .unwrap();
    }

    // Two-layer insight chain: per-tier sum -> GB conversion.
    apollo
        .register_insight(InsightVertexSpec::sum_of(
            "tier/nvme/total",
            topics,
            Duration::from_millis(500),
        ))
        .unwrap();
    apollo
        .register_insight(InsightVertexSpec::new(
            "tier/nvme/total_gb",
            vec!["tier/nvme/total".into()],
            Duration::from_millis(500),
            |i| i.value("tier/nvme/total").map(|v| v / 1e9),
        ))
        .unwrap();

    assert_eq!(apollo.graph().height(), 2);
    assert_eq!(apollo.graph().hamming_distance("tier/nvme/total_gb"), 2);

    cluster.tier(DeviceKind::Nvme)[0].write(0, 50_000_000_000).unwrap();
    apollo.run_for(Duration::from_secs(5));

    let gb = apollo.query("SELECT MAX(Timestamp), metric FROM tier/nvme/total_gb").unwrap();
    assert_eq!(gb.rows[0].value, 4.0 * 250.0 - 50.0);

    // Aggregates over history work through the same engine.
    let count = apollo.query("SELECT COUNT(*) FROM tier/nvme/total_gb").unwrap();
    assert!(count.rows[0].value >= 1.0);
}

#[test]
fn retention_spill_remains_queryable() {
    // Tiny in-memory window: most records must be served from the
    // archive (the "persisted log for evicted entries" path).
    let mut apollo = Apollo::with_config(EventLoop::new_virtual(), StreamConfig::bounded(8));
    let trace = TimeSeries::from_points((0..600u64).map(|i| (i * NS, i as f64)).collect());
    apollo
        .register_fact(FactVertexSpec::fixed(
            "m",
            Arc::new(TraceSource::new("m", trace)),
            Duration::from_secs(1),
        ))
        .unwrap();
    apollo.run_for(Duration::from_secs(599));

    let all = apollo.query("SELECT metric FROM m").unwrap();
    assert_eq!(all.rows.len(), 599, "archive + window must cover all records");

    // A range entirely inside the archived region.
    let old = apollo.query("SELECT metric FROM m WHERE Timestamp BETWEEN 10000 AND 20000").unwrap();
    assert_eq!(old.rows.len(), 11);
    assert_eq!(old.rows[0].value, 10.0);

    let avg =
        apollo.query("SELECT AVG(metric) FROM m WHERE Timestamp BETWEEN 1000 AND 3000").unwrap();
    assert_eq!(avg.rows[0].value, 2.0);
}

#[test]
fn adaptive_interval_saves_hook_calls_on_real_workload() {
    // Regular HACC trace: AIMD should need far fewer hook calls than 1s
    // polling while catching every capacity level eventually.
    let workload = HaccWorkload::generate(HaccConfig::regular().with_duration_s(600));
    let mut apollo = Apollo::new_virtual();
    apollo
        .register_fact(FactVertexSpec::complex_aimd(
            "cap",
            Arc::new(TraceSource::new("cap", workload.capacity_trace())),
            AimdParams {
                threshold: 1_000.0,
                change_mode: ChangeMode::Absolute,
                ..AimdParams::default()
            },
            10,
        ))
        .unwrap();
    apollo.run_for(Duration::from_secs(600));

    let calls = apollo.total_hook_calls();
    assert!(calls < 600, "adaptive polling must beat 1s polling: {calls} calls");
    assert!(calls > 10, "but it must still poll: {calls} calls");

    let latest = apollo.query("SELECT MAX(Timestamp), metric FROM cap").unwrap();
    let truth = workload.capacity_trace().value_at(600 * NS).unwrap();
    let err = (latest.rows[0].value - truth).abs();
    assert!(err <= 5.0 * 38_000.0, "latest view within a few writes of truth (err {err} bytes)");
}

#[test]
fn live_service_serves_concurrent_queries() {
    let mut apollo = Apollo::new_real();
    // Ramps that end within half a second: once a trace holds its last
    // value the change filter suppresses every sample, the topics go
    // quiet, and what the handle answers can be compared with a rescan.
    for (name, points) in [("m", 300u64), ("n", 200)] {
        let trace =
            TimeSeries::from_points((0..points).map(|i| (i * 1_000_000, i as f64)).collect());
        apollo
            .register_fact(FactVertexSpec::fixed(
                name,
                Arc::new(TraceSource::new(name, trace)),
                Duration::from_millis(1),
            ))
            .unwrap();
    }
    let standing = "SELECT AVG(metric) FROM m";
    apollo.register_continuous("cq/avg_m", standing, Duration::from_millis(5)).unwrap();
    let registry = apollo.metrics().clone();
    let handle = apollo.spawn();
    let asked = std::cell::Cell::new(0u64);
    let ask = |sql: &str| {
        asked.set(asked.get() + 1);
        handle.query(sql)
    };

    // Wait for data.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while ask("SELECT MAX(Timestamp), metric FROM m").is_err() {
        assert!(std::time::Instant::now() < deadline, "no data within 5s");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Concurrent middleware clients.
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for _ in 0..50 {
                    let out = handle.query("SELECT MAX(Timestamp), metric FROM m").unwrap();
                    assert_eq!(out.rows.len(), 1);
                }
            });
        }
    });
    asked.set(asked.get() + 8 * 50);

    // Wait for both ramps to end.
    for (table, last) in [("m", 299.0), ("n", 199.0)] {
        let sql = format!("SELECT MAX(Timestamp), metric FROM {table}");
        while ask(&sql).is_ok_and(|out| out.rows[0].value < last) {
            assert!(std::time::Instant::now() < deadline, "{table} still ramping after 5s");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    // Parity: the handle runs the service's query path, whose answers are
    // an uncached rescan's. Each is asked twice; the second scan of a
    // quiet topic is a cache hit.
    let broker = handle.broker();
    let oracle = QueryEngine::new(broker.as_ref());
    let newest_ms = ask("SELECT MAX(Timestamp), metric FROM n").unwrap().rows[0].timestamp_ms;
    let parity = [
        "SELECT MAX(Timestamp), metric FROM m".to_string(),
        format!("SELECT AVG(metric) FROM n WHERE Timestamp >= {}", newest_ms.saturating_sub(100)),
        "SELECT MAX(metric) FROM m GROUP BY BUCKET(Timestamp, 50)".to_string(),
        "SELECT SUM(metric) FROM n UNION SELECT COUNT(*) FROM m".to_string(),
    ];
    for sql in parity.iter().chain(&parity) {
        assert_eq!(ask(sql).unwrap(), oracle.execute_sql(sql).unwrap(), "{sql}");
    }
    // The standing SQL equals a rescan, and once the pump has saved its
    // fold an ask resumes it rather than folding m again.
    loop {
        let resumed = || registry.snapshot().counter("query.scan_cache.fold_resumed");
        let before = resumed();
        assert_eq!(ask(standing).unwrap(), oracle.execute_sql(standing).unwrap());
        if resumed() > before {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "the standing fold was never resumed");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Visibility: everything asked through the handle is in the service's
    // own metrics and its scan cache.
    let apollo = handle.stop();
    assert!(apollo.total_hook_calls() > 0);
    let snap = apollo.metrics_snapshot();
    let asked = asked.get();
    assert_eq!(snap.counter("query.executed"), asked, "handle queries missing from query.*");
    let arms = snap.histograms.get("query.arm_ns").map_or(0, |h| h.count);
    assert!(arms >= asked, "{arms} arms timed");
    // Four scan arms over three keys (the union's COUNT shares m's full
    // span with the bucketed MAX): three misses and a hit on the first
    // pass, four hits on the second.
    let cache = apollo.scan_cache();
    assert_eq!(snap.counter("query.scan_cache.misses"), cache.misses());
    assert!(cache.misses() >= 3, "{} misses", cache.misses());
    assert!(cache.hits() >= 5, "repeat scans of quiet topics must hit: {} hits", cache.hits());
}

#[test]
fn pubsub_fanout_to_middleware_subscriber() {
    // A middleware service subscribing directly to a fact topic sees
    // every published record, in order.
    let mut apollo = Apollo::new_virtual();
    let trace = TimeSeries::from_points((0..20u64).map(|i| (i * NS, i as f64)).collect());
    apollo
        .register_fact(FactVertexSpec::fixed(
            "m",
            Arc::new(TraceSource::new("m", trace)),
            Duration::from_secs(1),
        ))
        .unwrap();
    let sub = apollo.broker().subscribe("m");
    apollo.run_for(Duration::from_secs(19));
    let got = sub.drain();
    assert_eq!(got.len(), 19);
    assert!(got.windows(2).all(|w| w[0].id < w[1].id));
}
