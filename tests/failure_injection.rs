//! Failure-injection integration tests: node loss, degraded devices and
//! links, consumer crash/recovery from a saved cursor, and vertex
//! unregistration — the operational corners a monitoring service must
//! survive.

use apollo_cluster::cluster::SimCluster;
use apollo_cluster::device::DeviceKind;
use apollo_cluster::metrics::{DeviceMetric, MetricKind, NodeMetric};
use apollo_core::service::{Apollo, FactVertexSpec, InsightVertexSpec};
use apollo_insights as insights;
use apollo_streams::{Broker, Record, StreamConfig};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn node_failure_reflected_in_availability_insight() {
    let cluster = SimCluster::ares_scaled(4, 0);
    assert_eq!(insights::node_availability(&cluster, 0).online.len(), 4);

    cluster.node(2).unwrap().set_online(false);
    let after = insights::node_availability(&cluster, 1);
    assert_eq!(after.online, vec![0, 1, 3]);

    // Recovery.
    cluster.node(2).unwrap().set_online(true);
    assert_eq!(insights::node_availability(&cluster, 2).online.len(), 4);
}

#[test]
fn degraded_device_surfaces_through_monitoring() {
    let cluster = SimCluster::ares_scaled(1, 1);
    let hdd = cluster.tier(DeviceKind::Hdd)[0].clone();
    let mut apollo = Apollo::new_virtual();
    apollo
        .register_fact(FactVertexSpec::fixed(
            "hdd/health",
            Arc::new(DeviceMetric::new(Arc::clone(&hdd), MetricKind::DeviceHealth)),
            Duration::from_secs(1),
        ))
        .unwrap();

    apollo.run_for(Duration::from_secs(2));
    let before = apollo.query("SELECT MAX(Timestamp), metric FROM hdd/health").unwrap();
    assert_eq!(before.rows[0].value, 1.0);

    // Inject media degradation mid-run.
    hdd.degrade(hdd.spec.total_blocks() / 4);
    apollo.run_for(Duration::from_secs(2));
    let after = apollo.query("SELECT MAX(Timestamp), metric FROM hdd/health").unwrap();
    assert!((after.rows[0].value - 0.75).abs() < 1e-6);

    // Fault-tolerance insight tracks it too.
    assert!((insights::device_fault_tolerance(&hdd) - 0.75).abs() < 1e-6);
}

#[test]
fn degraded_network_link_visible_in_ping_insight() {
    let cluster = SimCluster::ares_scaled(4, 0);
    let before = insights::network_health(&cluster, 0, 0, 1);
    cluster.network().degrade_node(1, Duration::from_millis(10));
    let after = insights::network_health(&cluster, 1, 0, 1);
    assert!(
        after.ping_ns > before.ping_ns + 5_000_000,
        "degraded link must show in ping: {} -> {}",
        before.ping_ns,
        after.ping_ns
    );
}

#[test]
fn consumer_crash_recovery_resumes_from_its_saved_cursor() {
    let broker = Broker::new(StreamConfig::default());
    let ids: Vec<_> =
        (0..5u64).map(|i| broker.publish("facts", i, Record::measured(i, i as f64))).collect();

    // Worker A takes the batch, processes three entries, saving its cursor
    // after each, then "crashes".
    let taken = broker.read_after("facts", None, 5);
    assert_eq!(taken.len(), 5);
    let saved = taken[..3].last().map(|e| e.id);

    // Worker B resumes from the saved cursor: exactly the two entries A
    // never finished, none it did.
    let resumed = broker.read_after("facts", saved, 10);
    assert_eq!(resumed.iter().map(|e| e.id).collect::<Vec<_>>(), ids[3..].to_vec());

    // New work flows normally afterwards.
    let next = broker.publish("facts", 9, Record::measured(9, 9.0));
    let more = broker.read_after("facts", resumed.last().map(|e| e.id), 10);
    assert_eq!(more.iter().map(|e| e.id).collect::<Vec<_>>(), vec![next]);
}

#[test]
fn offline_node_stops_contributing_to_cluster_load_insight() {
    let cluster = SimCluster::ares_scaled(3, 0);
    let mut apollo = Apollo::new_virtual();
    let mut topics = Vec::new();
    for node in cluster.nodes() {
        node.set_cpu_load(0.5);
        let topic = format!("node{}/cpu", node.id());
        topics.push(topic.clone());
        apollo
            .register_fact(FactVertexSpec::fixed(
                topic,
                Arc::new(NodeMetric::new(Arc::clone(node), MetricKind::CpuLoad)),
                Duration::from_secs(1),
            ))
            .unwrap();
    }
    // Cluster-load insight averages only ONLINE nodes, consulting the
    // availability list the way a leader-election service would.
    let cluster = Arc::new(cluster);
    let c2 = Arc::clone(&cluster);
    apollo
        .register_insight(InsightVertexSpec::new(
            "cluster/online_avg_load",
            topics.clone(),
            Duration::from_secs(1),
            move |inputs| {
                let online = c2.online_nodes();
                let vals: Vec<f64> =
                    online.iter().filter_map(|n| inputs.value(&format!("node{n}/cpu"))).collect();
                (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64)
            },
        ))
        .unwrap();

    apollo.run_for(Duration::from_secs(3));
    let q = "SELECT MAX(Timestamp), metric FROM cluster/online_avg_load";
    assert!((apollo.query(q).unwrap().rows[0].value - 0.5).abs() < 1e-9);

    // Node 1 fails with its load pinned high; the insight must converge
    // to the remaining nodes' average.
    cluster.node(1).unwrap().set_cpu_load(1.0);
    apollo.run_for(Duration::from_secs(2));
    cluster.node(1).unwrap().set_online(false);
    cluster.node(0).unwrap().set_cpu_load(0.2);
    cluster.node(2).unwrap().set_cpu_load(0.4);
    apollo.run_for(Duration::from_secs(3));
    let v = apollo.query(q).unwrap().rows[0].value;
    assert!((v - 0.3).abs() < 1e-9, "offline node excluded: {v}");
}

#[test]
fn vertex_unregistration_rules_enforced() {
    use apollo_core::graph::{GraphError, ScoreGraph};
    let mut g = ScoreGraph::new();
    g.add_fact("f").unwrap();
    g.add_insight("i", &["f".into()]).unwrap();

    // Removing a consumed vertex is refused; top-down removal works —
    // the runtime register/unregister contract of §3.1.
    assert!(matches!(g.remove("f"), Err(GraphError::UnknownInput { .. })));
    g.remove("i").unwrap();
    g.remove("f").unwrap();
    assert!(g.is_empty());
}
