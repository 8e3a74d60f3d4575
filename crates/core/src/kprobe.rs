//! Event-driven (KProbes-style) fact vertices — the paper's §6 future
//! work: *"We could also improve the way monitoring is done using
//! KProbes, which can further reduce the minimum monitoring bound."*
//!
//! Instead of a Monitor Hook polling the resource on an interval, the
//! resource notifies the vertex on every I/O ([`apollo_cluster::device::IoEvent`]).
//! The vertex publishes a fact per state change with the event's exact
//! timestamp: zero sampling cost, zero staleness — the monitoring bound
//! drops from "interval" to "event latency".
//!
//! The trade-off mirrors real kprobes: the instrumented resource pays the
//! per-event notification cost, and a very hot device can emit far more
//! events than a sane polling schedule would (the
//! `event_driven_vs_polling` test quantifies both sides).

use apollo_cluster::device::{Device, IoEvent, IoEventKind};
use apollo_streams::codec::Record;
use apollo_streams::{Broker, Publisher};
use crossbeam::channel::Receiver;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What an event vertex publishes about its device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventMetric {
    /// Bytes in use after each event.
    UsedCapacity,
    /// Remaining bytes after each event.
    RemainingCapacity,
    /// Bytes moved by each event.
    TransferSize,
}

/// An event-driven Fact vertex: consumes a device's I/O event stream and
/// publishes facts at event granularity — no polling at all.
pub struct EventFactVertex {
    capacity: u64,
    metric: EventMetric,
    events: Receiver<IoEvent>,
    publisher: Publisher,
    last_published: parking_lot::Mutex<Option<f64>>,
    published: AtomicU64,
    consumed: AtomicU64,
}

impl EventFactVertex {
    /// Attach to a device's event stream, publishing to topic `name`.
    pub fn attach(
        name: impl Into<String>,
        device: &Device,
        metric: EventMetric,
        broker: Arc<Broker>,
    ) -> Self {
        Self {
            capacity: device.spec.capacity_bytes,
            metric,
            events: device.subscribe_events(),
            publisher: broker.publisher(name),
            last_published: parking_lot::Mutex::new(None),
            published: AtomicU64::new(0),
            consumed: AtomicU64::new(0),
        }
    }

    /// Topic name.
    pub fn name(&self) -> &str {
        self.publisher.topic()
    }

    fn value_of(&self, e: &IoEvent) -> f64 {
        match self.metric {
            EventMetric::UsedCapacity => e.used_after as f64,
            EventMetric::RemainingCapacity => self.capacity.saturating_sub(e.used_after) as f64,
            EventMetric::TransferSize => e.bytes as f64,
        }
    }

    /// Drain all pending events, publishing change-filtered facts with
    /// the events' own timestamps. Returns the number of events consumed.
    /// `fallback_now_ns` stamps events that carry no timestamp (frees).
    pub fn pump(&self, fallback_now_ns: u64) -> usize {
        let mut n = 0;
        while let Ok(e) = self.events.try_recv() {
            n += 1;
            // Reads don't move capacity; skip them for capacity metrics.
            if e.kind == IoEventKind::Read && !matches!(self.metric, EventMetric::TransferSize) {
                continue;
            }
            let ts = if e.timestamp_ns == 0 { fallback_now_ns } else { e.timestamp_ns };
            let value = self.value_of(&e);
            let mut last = self.last_published.lock();
            if last.is_none_or(|prev| prev != value) {
                self.publisher.publish(ts / 1_000_000, Record::measured(ts, value).encode());
                self.published.fetch_add(1, Ordering::Relaxed);
                *last = Some(value);
            }
        }
        self.consumed.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// Facts published.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Events consumed.
    pub fn consumed(&self) -> u64 {
        self.consumed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apollo_cluster::device::DeviceSpec;
    use apollo_streams::StreamConfig;

    const NS: u64 = 1_000_000_000;

    fn setup() -> (Arc<Device>, Arc<Broker>) {
        (
            Arc::new(Device::new("nvme0", DeviceSpec::nvme_250g())),
            Arc::new(Broker::new(StreamConfig::default())),
        )
    }

    #[test]
    fn events_become_exact_timestamped_facts() {
        let (device, broker) = setup();
        let v = EventFactVertex::attach(
            "cap",
            &device,
            EventMetric::RemainingCapacity,
            Arc::clone(&broker),
        );
        device.write(5 * NS, 1_000).unwrap();
        device.write(9 * NS, 2_000).unwrap();
        assert_eq!(v.pump(0), 2);
        let rows = broker.range_by_time("cap", 0, u64::MAX);
        assert_eq!(rows.len(), 2);
        let r0 = Record::decode(&rows[0].payload).unwrap();
        assert_eq!(r0.timestamp_ns, 5 * NS, "event timestamp preserved exactly");
        assert_eq!(r0.value, 250_000_000_000.0 - 1_000.0);
        let r1 = Record::decode(&rows[1].payload).unwrap();
        assert_eq!(r1.value, 250_000_000_000.0 - 3_000.0);
    }

    #[test]
    fn reads_do_not_move_capacity_facts() {
        let (device, broker) = setup();
        let v = EventFactVertex::attach("cap", &device, EventMetric::UsedCapacity, broker);
        device.read(NS, 4_096, 0);
        device.read(2 * NS, 4_096, 1);
        assert_eq!(v.pump(0), 2, "events consumed");
        assert_eq!(v.published(), 0, "but no capacity facts published");
    }

    #[test]
    fn change_filter_applies_to_events_too() {
        let (device, broker) = setup();
        let v = EventFactVertex::attach("xfer", &device, EventMetric::TransferSize, broker);
        for i in 1..=5 {
            device.write(i * NS, 4_096).unwrap();
        }
        v.pump(0);
        assert_eq!(v.consumed(), 5);
        assert_eq!(v.published(), 1, "identical transfer sizes deduplicate");
    }

    #[test]
    fn frees_use_fallback_timestamp() {
        let (device, broker) = setup();
        let v =
            EventFactVertex::attach("cap", &device, EventMetric::UsedCapacity, Arc::clone(&broker));
        device.write(NS, 10_000).unwrap();
        device.free(4_000);
        v.pump(7 * NS);
        let rows = broker.range_by_time("cap", 0, u64::MAX);
        let last = Record::decode(&rows.last().unwrap().payload).unwrap();
        assert_eq!(last.timestamp_ns, 7 * NS);
        assert_eq!(last.value, 6_000.0);
    }

    #[test]
    fn event_driven_vs_polling_accuracy_and_cost() {
        // The §6 claim quantified: event-driven monitoring captures every
        // capacity change with exact timestamps and zero hook calls,
        // where 5s polling misses intermediate states.
        use apollo_cluster::metrics::{DeviceMetric, MetricKind, MetricSource};

        let (device, broker) = setup();
        let event_vertex = EventFactVertex::attach(
            "cap_events",
            &device,
            EventMetric::RemainingCapacity,
            Arc::clone(&broker),
        );
        let poller = DeviceMetric::new(Arc::clone(&device), MetricKind::RemainingCapacity);

        // Bursty workload: 10 writes in one second, then quiet.
        for i in 0..10u64 {
            device.write(NS + i * 100_000_000, 1_000).unwrap();
        }
        event_vertex.pump(0);
        // Polling at 5s would see exactly one post-burst state.
        let polled = poller.sample(5 * NS).unwrap();

        assert_eq!(event_vertex.published(), 10, "every change captured");
        assert_eq!(poller.samples_taken(), 1, "polling cost");
        // The poll sees only the final state; the event stream has the
        // full history.
        let history = broker.range_by_time("cap_events", 0, u64::MAX);
        assert_eq!(history.len(), 10);
        let last = Record::decode(&history.last().unwrap().payload).unwrap();
        assert_eq!(last.value, polled);
    }
}
