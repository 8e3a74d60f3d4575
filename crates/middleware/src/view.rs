//! Capacity views: how a policy sees the state of the storage targets.
//!
//! The Apollo-aware policies do not read devices directly — they consume
//! the capacity *facts* Apollo publishes ("the HDPE and HDFE can maintain
//! an insight that utilizes metrics tracking the remaining capacity of
//! the different buffering targets", §4.4.2). An [`ApolloView`] therefore
//! sees values that are as fresh as the monitoring interval allows, and
//! each read is charged a simulated query cost (the "<1% overhead" the
//! paper reports).

use apollo_streams::codec::Record;
use apollo_streams::Broker;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Read access to the remaining capacity of named targets.
pub trait CapacityView: Send {
    /// Remaining bytes of a target, as the view believes it to be.
    /// `None` when the view has no information.
    fn remaining(&self, target: &str) -> Option<u64>;

    /// Simulated cost of one view read (query latency).
    fn query_cost(&self) -> Duration {
        Duration::ZERO
    }

    /// Number of view reads issued.
    fn reads(&self) -> u64;
}

/// Ground-truth view: reads the device registry directly (an oracle, for
/// upper-bound comparisons and tests).
pub struct OracleView {
    devices: Vec<Arc<apollo_cluster::device::Device>>,
    reads: AtomicU64,
}

impl OracleView {
    /// Create an oracle over a device list.
    pub fn new(devices: Vec<Arc<apollo_cluster::device::Device>>) -> Self {
        Self { devices, reads: AtomicU64::new(0) }
    }
}

impl CapacityView for OracleView {
    fn remaining(&self, target: &str) -> Option<u64> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.devices.iter().find(|d| d.name() == target).map(|d| d.remaining_bytes())
    }

    fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}

/// Apollo-backed view: the latest `<target>/remaining_capacity` fact from
/// the pub-sub fabric (fresh to within the monitoring interval).
pub struct ApolloView {
    broker: Arc<Broker>,
    /// Simulated per-query latency (the paper measures ~0.1 ms pulls).
    cost: Duration,
    reads: AtomicU64,
}

impl ApolloView {
    /// Create a view over an Apollo broker with the default ~0.1 ms
    /// query cost.
    pub fn new(broker: Arc<Broker>) -> Self {
        Self { broker, cost: Duration::from_micros(100), reads: AtomicU64::new(0) }
    }

    /// Topic name carrying a target's capacity fact.
    pub fn capacity_topic(target: &str) -> String {
        format!("{target}/remaining_capacity")
    }
}

impl CapacityView for ApolloView {
    fn remaining(&self, target: &str) -> Option<u64> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let entry = self.broker.latest(&Self::capacity_topic(target))?;
        let record = Record::decode(&entry.payload).ok()?;
        Some(record.value.max(0.0) as u64)
    }

    fn query_cost(&self) -> Duration {
        self.cost
    }

    fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}

/// A view that knows nothing (what round-robin effectively uses).
#[derive(Debug, Default)]
pub struct BlindView {
    reads: AtomicU64,
}

impl CapacityView for BlindView {
    fn remaining(&self, _target: &str) -> Option<u64> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        None
    }

    fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apollo_cluster::device::{Device, DeviceSpec};
    use apollo_streams::StreamConfig;

    #[test]
    fn oracle_reads_ground_truth() {
        let d = Arc::new(Device::new("nvme0", DeviceSpec::nvme_250g()));
        let view = OracleView::new(vec![Arc::clone(&d)]);
        assert_eq!(view.remaining("nvme0"), Some(250_000_000_000));
        d.write(0, 1_000).unwrap();
        assert_eq!(view.remaining("nvme0"), Some(250_000_000_000 - 1_000));
        assert_eq!(view.remaining("ghost"), None);
        assert_eq!(view.reads(), 3);
    }

    #[test]
    fn apollo_view_reads_latest_fact() {
        let broker = Arc::new(Broker::new(StreamConfig::default()));
        let view = ApolloView::new(Arc::clone(&broker));
        assert_eq!(view.remaining("nvme0"), None, "no fact published yet");
        broker.publish(
            "nvme0/remaining_capacity",
            1,
            Record::measured(1_000_000, 5_000.0).encode(),
        );
        assert_eq!(view.remaining("nvme0"), Some(5_000));
        // A newer fact supersedes.
        broker.publish(
            "nvme0/remaining_capacity",
            2,
            Record::measured(2_000_000, 4_000.0).encode(),
        );
        assert_eq!(view.remaining("nvme0"), Some(4_000));
        assert!(view.query_cost() > Duration::ZERO);
    }

    #[test]
    fn apollo_view_is_stale_between_polls() {
        // The fact says 10 000 bytes remain even after the device filled —
        // exactly the staleness the engines must tolerate.
        let broker = Arc::new(Broker::new(StreamConfig::default()));
        broker.publish("t/remaining_capacity", 1, Record::measured(1_000_000, 10_000.0).encode());
        let view = ApolloView::new(broker);
        assert_eq!(view.remaining("t"), Some(10_000));
    }

    #[test]
    fn blind_view_knows_nothing() {
        let v = BlindView::default();
        assert_eq!(v.remaining("anything"), None);
        assert_eq!(v.reads(), 1);
        assert_eq!(v.query_cost(), Duration::ZERO);
    }

    #[test]
    fn negative_capacity_clamps_to_zero() {
        let broker = Arc::new(Broker::new(StreamConfig::default()));
        broker.publish("t/remaining_capacity", 1, Record::measured(1, -5.0).encode());
        let view = ApolloView::new(broker);
        assert_eq!(view.remaining("t"), Some(0));
    }
}
