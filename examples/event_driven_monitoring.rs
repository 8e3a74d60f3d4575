//! Event-driven (KProbes-style) monitoring vs polling — the §6 future
//! work, demonstrated.
//!
//! A bursty application hammers an NVMe. One virtual-clock Apollo runs
//! two facts over the device's capacity: a polling fact vertex samples it
//! on a 1 s interval, and an event fact drains the device's I/O events
//! instead, woken by the device after each one. The event path captures
//! every capacity change with exact timestamps at zero sampling cost —
//! "further reducing the minimum monitoring bound".
//!
//! Run: `cargo run --release -p apollo-bench --example event_driven_monitoring`

use apollo_cluster::device::{Device, DeviceSpec, EventMetric};
use apollo_cluster::metrics::{DeviceMetric, MetricKind};
use apollo_core::service::{Apollo, FactVertexSpec};
use std::sync::Arc;
use std::time::Duration;

const NS: u64 = 1_000_000_000;

fn main() {
    let device = Arc::new(Device::new("nvme0", DeviceSpec::nvme_250g()));
    let mut apollo = Apollo::new_virtual();

    // Polling path: classic monitor hook at 1 s, first polling at 1 s.
    let source = Arc::new(DeviceMetric::new(Arc::clone(&device), MetricKind::RemainingCapacity));
    let polling = apollo
        .register_fact(FactVertexSpec::fixed("cap/polled", source, Duration::from_secs(1)))
        .unwrap();
    // Event path: registered BEFORE the workload so no event is missed.
    apollo.register_events("cap/events", &device, EventMetric::RemainingCapacity).unwrap();

    // A bursty workload, starting after the first poll: three write
    // bursts inside one second each, separated by quiet gaps — exactly
    // what interval polling smears.
    let mut writes: Vec<u64> = Vec::new();
    let mut t = 2 * NS;
    for burst in 0..3u64 {
        for i in 0..8u64 {
            writes.push(t + i * 50_000_000);
        }
        t += (3 + burst) * NS;
    }
    let end = t + NS;

    // Drive the service chronologically: issue each second's writes, each
    // stamped with its own time, then run the service through that second.
    let mut next_write = 0usize;
    for s in 1..=(end / NS) {
        while next_write < writes.len() && writes[next_write] <= s * NS {
            device.write(writes[next_write], 10_000_000).unwrap();
            next_write += 1;
        }
        apollo.run_for(Duration::from_secs(1));
    }

    let broker = apollo.broker();
    let polled = broker.range_by_time("cap/polled", 0, u64::MAX);
    let evented = broker.range_by_time("cap/events", 0, u64::MAX);

    println!("Bursty workload: 24 writes of 10 MB in 3 sub-second bursts\n");
    println!("{:<16}{:>14}{:>16}{:>18}", "path", "hook calls", "facts captured", "states observed");
    println!(
        "{:<16}{:>14}{:>16}{:>18}",
        "polling (1s)",
        polling.hook_calls(),
        polled.len(),
        polled.len()
    );
    println!("{:<16}{:>14}{:>16}{:>18}", "event-driven", 0, evented.len(), evented.len());

    let last_polled = polled.last().unwrap().record;
    let last_evented = evented.last().unwrap().record;
    assert_eq!(last_polled.value, last_evented.value, "both paths agree on the final state");
    assert_eq!(evented.len(), 24, "every write captured");
    assert!(polled.len() < evented.len(), "polling smears the bursts");

    println!(
        "\nThe event path saw all {} capacity states with exact timestamps and \
         zero sampling;\npolling saw {} (one per second that happened to differ), \
         costing {} hook calls.",
        evented.len(),
        polled.len(),
        polling.hook_calls()
    );
}
