//! Event facts (§6, KProbes-style) through the service: a device's I/O
//! events become change-filtered facts stamped with each event's own time,
//! drained by one parked step that the device wakes.

use apollo_cluster::device::{Device, DeviceSpec, EventMetric};
use apollo_cluster::metrics::{DeviceMetric, MetricKind};
use apollo_core::graph::GraphError;
use apollo_core::service::{Apollo, FactVertexSpec, InsightVertexSpec};
use apollo_streams::Record;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

const NS: u64 = 1_000_000_000;

fn setup(metric: EventMetric) -> (Apollo, Arc<Device>) {
    let device = Arc::new(Device::new("nvme0", DeviceSpec::nvme_250g()));
    let mut apollo = Apollo::new_virtual();
    apollo.register_events("cap", &device, metric).unwrap();
    (apollo, device)
}

fn records(apollo: &Apollo, topic: &str) -> Vec<Record> {
    let rows = apollo.broker().range_by_time(topic, 0, u64::MAX);
    rows.iter().map(|e| Record::decode(&e.payload).unwrap()).collect()
}

#[test]
fn events_become_exact_timestamped_facts() {
    let (mut apollo, device) = setup(EventMetric::RemainingCapacity);
    device.write(5 * NS, 1_000).unwrap();
    device.write(9 * NS, 2_000).unwrap();
    apollo.run_for(Duration::from_secs(1));
    let rows = records(&apollo, "cap");
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].timestamp_ns, 5 * NS, "event timestamp preserved exactly");
    assert_eq!(rows[0].value, 250_000_000_000.0 - 1_000.0);
    assert_eq!(rows[1].timestamp_ns, 9 * NS);
    assert_eq!(rows[1].value, 250_000_000_000.0 - 3_000.0);
}

#[test]
fn reads_do_not_move_capacity_facts() {
    let (mut apollo, device) = setup(EventMetric::UsedCapacity);
    apollo.register_events("size", &device, EventMetric::TransferSize).unwrap();
    device.read(NS, 4_096, 0);
    device.read(2 * NS, 4_096, 1);
    apollo.run_for(Duration::from_secs(1));
    assert!(records(&apollo, "cap").is_empty(), "no capacity facts published");
    let sizes = records(&apollo, "size");
    assert_eq!(sizes.len(), 1, "the reads reach the drain as one 4 KiB transfer fact");
    assert_eq!((sizes[0].timestamp_ns, sizes[0].value), (NS, 4_096.0));
}

#[test]
fn change_filter_applies_to_events_too() {
    let (mut apollo, device) = setup(EventMetric::TransferSize);
    for i in 1..=5 {
        device.write(i * NS, 4_096).unwrap();
    }
    apollo.run_for(Duration::from_secs(1));
    assert_eq!(records(&apollo, "cap").len(), 1, "identical transfer sizes deduplicate");
}

#[test]
fn frees_carry_their_own_timestamp() {
    let (mut apollo, device) = setup(EventMetric::UsedCapacity);
    device.write(NS, 10_000).unwrap();
    device.free(7 * NS, 4_000);
    apollo.run_for(Duration::from_secs(1));
    let last = *records(&apollo, "cap").last().unwrap();
    assert_eq!(last.timestamp_ns, 7 * NS);
    assert_eq!(last.value, 6_000.0);
}

#[test]
fn event_driven_vs_polling_accuracy_and_cost() {
    // The §6 claim quantified: event-driven monitoring captures every
    // capacity change with exact timestamps and zero hook calls, where
    // 5 s polling misses intermediate states.
    let (mut apollo, device) = setup(EventMetric::RemainingCapacity);
    let poller = Arc::new(DeviceMetric::new(Arc::clone(&device), MetricKind::RemainingCapacity));
    let polled = FactVertexSpec::fixed("cap/polled", poller, Duration::from_secs(5));
    let polled = apollo.register_fact(polled).unwrap();

    // Bursty workload: 10 writes in one second, then quiet.
    for i in 0..10u64 {
        device.write(NS + i * 100_000_000, 1_000).unwrap();
    }
    apollo.run_for(Duration::from_secs(5));

    assert_eq!(records(&apollo, "cap").len(), 10, "every change captured");
    assert_eq!(polled.hook_calls(), 1, "polling cost");
    // The poll sees only the final state; the event stream has the full
    // history.
    let last_polled = records(&apollo, "cap/polled")[0].value;
    assert_eq!(records(&apollo, "cap").last().unwrap().value, last_polled);
}

#[test]
fn a_parked_event_fact_fires_no_timer_while_the_device_is_idle() {
    let (mut apollo, device) = setup(EventMetric::UsedCapacity);
    let fires = |apollo: &Apollo| apollo.metrics_snapshot().counter("runtime.timer.fires");
    apollo.run_for(Duration::from_secs(1));
    assert_eq!(fires(&apollo), 1, "the first fire drains nothing and parks");
    apollo.run_for(Duration::from_secs(600));
    assert_eq!(fires(&apollo), 1, "an idle device costs no timer fire");
    device.write(apollo.now(), 4_096).unwrap();
    apollo.run_for(Duration::from_secs(1));
    assert_eq!(fires(&apollo), 2, "an event wakes the parked step once");
    assert_eq!(records(&apollo, "cap").len(), 1);
}

#[test]
fn unregister_stops_an_event_fact_and_the_device_drops_its_queue() {
    let (mut apollo, device) = setup(EventMetric::UsedCapacity);
    let again = apollo.register_events("cap", &device, EventMetric::UsedCapacity);
    assert_eq!(again, Err(GraphError::Duplicate("cap".into())));
    let reserved = "streams.slab.lifecycle";
    let step = apollo.register_events(reserved, &device, EventMetric::UsedCapacity);
    assert_eq!(step, Err(GraphError::Duplicate(reserved.into())));
    assert_eq!(device.event_subscribers(), 1);

    device.write(NS, 4_096).unwrap();
    apollo.run_for(Duration::from_secs(1));
    assert_eq!(records(&apollo, "cap").len(), 1);
    apollo.unregister("cap").unwrap();
    apollo.run_for(Duration::from_secs(1));
    device.write(2 * NS, 4_096).unwrap();
    apollo.run_for(Duration::from_secs(1));
    assert!(!apollo.broker().has_topic("cap"), "a write after unregister publishes nothing");
    assert_eq!(device.event_subscribers(), 0, "the device dropped the dead queue");
}

#[test]
fn an_insight_over_an_event_fact_sees_every_change() {
    let (mut apollo, device) = setup(EventMetric::UsedCapacity);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let into = Arc::clone(&seen);
    let builder = move |i: &apollo_core::InsightInputs| {
        into.lock().extend(i.fresh.iter().map(|(_, r)| r.value));
        i.value("cap")
    };
    let spec =
        InsightVertexSpec::new("seen", vec!["cap".into()], Duration::from_millis(1), builder);
    apollo.register_insight(spec).unwrap();

    let mut expected = Vec::new();
    for burst in 0..4u64 {
        for i in 0..=burst {
            device.write(apollo.now() + i, 1_000).unwrap();
            expected.push(device.used_bytes() as f64);
        }
        apollo.run_for(Duration::from_secs(1));
    }
    assert_eq!(*seen.lock(), expected);
}
