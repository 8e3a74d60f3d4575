//! Metric sources — what a Fact vertex's Monitor Hook polls.
//!
//! A [`MetricSource`] is the boundary between Apollo and the monitored
//! resource. Live sources read a device or node; the
//! [`TraceSource`] replays a captured [`TimeSeries`] (the "synthetic
//! monitoring hook, which replays the regular or irregular (random) HACC
//! dataset" used in §4.3.1 so adaptive-interval experiments are free of
//! time drift and interference).
//!
//! Sampling costs are modelled explicitly: the paper's Figure 4 shows the
//! monitor hook dominating vertex time (~97.5%), so hooks report a
//! per-sample cost that the anatomy instrumentation charges.

use crate::device::Device;
use crate::node::Node;
use crate::series::TimeSeries;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Why a sample could not be taken.
///
/// Real monitor hooks fail: `/proc` reads hit EIO on a dying disk, RPC
/// probes time out, counters wrap or return garbage. Sources surface those
/// conditions here; the vertex supervision layer in `apollo-core` decides
/// how to react (retry, back off, quarantine, publish last-known-stale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricError {
    /// The resource could not be reached at all (EIO, ENOENT, RPC refused).
    Unavailable,
    /// The hook did not answer within its deadline; carries the observed
    /// (modelled) latency.
    Timeout(Duration),
    /// The hook answered, but the value failed validation; carries the
    /// rejected raw value.
    Corrupt(f64),
}

impl std::fmt::Display for MetricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricError::Unavailable => write!(f, "metric source unavailable"),
            MetricError::Timeout(d) => write!(f, "metric sample timed out after {d:?}"),
            MetricError::Corrupt(v) => write!(f, "metric sample corrupt (raw value {v})"),
        }
    }
}

impl std::error::Error for MetricError {}

/// The kinds of low-level metrics Apollo's fact vertices collect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MetricKind {
    /// Remaining device capacity (bytes).
    RemainingCapacity,
    /// Device used capacity (bytes).
    UsedCapacity,
    /// Outstanding device requests.
    QueueDepth,
    /// Observed device bandwidth over the trailing window (bytes/s).
    RealBandwidth,
    /// Cumulative blocks read.
    BlocksRead,
    /// Cumulative blocks written.
    BlocksWritten,
    /// Device health fraction in `[0, 1]`.
    DeviceHealth,
    /// Node CPU load in `[0, 1]`.
    CpuLoad,
    /// Node RAM used (bytes).
    RamUsed,
    /// Node power draw (watts).
    PowerDraw,
    /// Cumulative device transfers.
    Transfers,
}

impl MetricKind {
    /// Metric label used in topic names (`node3/nvme0/remaining_capacity`).
    pub fn label(&self) -> &'static str {
        match self {
            MetricKind::RemainingCapacity => "remaining_capacity",
            MetricKind::UsedCapacity => "used_capacity",
            MetricKind::QueueDepth => "queue_depth",
            MetricKind::RealBandwidth => "real_bw",
            MetricKind::BlocksRead => "blocks_read",
            MetricKind::BlocksWritten => "blocks_written",
            MetricKind::DeviceHealth => "health",
            MetricKind::CpuLoad => "cpu_load",
            MetricKind::RamUsed => "ram_used",
            MetricKind::PowerDraw => "power_w",
            MetricKind::Transfers => "transfers",
        }
    }
}

/// A pollable metric.
pub trait MetricSource: Send + Sync {
    /// Sample the metric at simulated time `now_ns`.
    ///
    /// Returns [`MetricError`] when the resource cannot be read; callers
    /// own the retry/backoff/staleness policy. Passing a metric kind the
    /// source cannot serve (e.g. a node kind to a [`DeviceMetric`]) is a
    /// programmer error and panics.
    fn sample(&self, now_ns: u64) -> Result<f64, MetricError>;

    /// The modelled cost of taking one sample (charged to the monitor
    /// hook phase). Defaults to the ~0.5 ms a syscall-and-parse hook like
    /// reading `/proc` + statfs costs.
    fn sample_cost(&self) -> Duration {
        Duration::from_micros(500)
    }

    /// Stable name for topics and query tables.
    fn name(&self) -> String;

    /// Number of samples taken so far (the *cost* axis of Figures 8–10).
    fn samples_taken(&self) -> u64;
}

/// Live metric over a device.
pub struct DeviceMetric {
    device: Arc<Device>,
    kind: MetricKind,
    count: AtomicU64,
}

impl DeviceMetric {
    /// Create a device metric source.
    pub fn new(device: Arc<Device>, kind: MetricKind) -> Self {
        Self { device, kind, count: AtomicU64::new(0) }
    }
}

impl MetricSource for DeviceMetric {
    fn sample(&self, now_ns: u64) -> Result<f64, MetricError> {
        self.count.fetch_add(1, Ordering::Relaxed);
        Ok(match self.kind {
            MetricKind::RemainingCapacity => self.device.remaining_bytes() as f64,
            MetricKind::UsedCapacity => self.device.used_bytes() as f64,
            MetricKind::QueueDepth => self.device.queue_depth() as f64,
            MetricKind::RealBandwidth => self.device.real_bw(now_ns),
            MetricKind::BlocksRead => self.device.blocks_read() as f64,
            MetricKind::BlocksWritten => self.device.blocks_written() as f64,
            MetricKind::DeviceHealth => self.device.health(),
            MetricKind::Transfers => self.device.transfers() as f64,
            MetricKind::PowerDraw => self.device.power_w(now_ns),
            MetricKind::CpuLoad | MetricKind::RamUsed => {
                panic!("{:?} is a node metric, not a device metric", self.kind)
            }
        })
    }

    fn name(&self) -> String {
        format!("{}/{}", self.device.name(), self.kind.label())
    }

    fn samples_taken(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// Live metric over a node.
pub struct NodeMetric {
    node: Arc<Node>,
    kind: MetricKind,
    count: AtomicU64,
}

impl NodeMetric {
    /// Create a node metric source.
    pub fn new(node: Arc<Node>, kind: MetricKind) -> Self {
        Self { node, kind, count: AtomicU64::new(0) }
    }
}

impl MetricSource for NodeMetric {
    fn sample(&self, now_ns: u64) -> Result<f64, MetricError> {
        self.count.fetch_add(1, Ordering::Relaxed);
        Ok(match self.kind {
            MetricKind::CpuLoad => self.node.cpu_load(),
            MetricKind::RamUsed => self.node.ram_used() as f64,
            MetricKind::PowerDraw => self.node.power_w(now_ns),
            other => panic!("{other:?} is not a node metric"),
        })
    }

    fn name(&self) -> String {
        format!("node{}/{}", self.node.id(), self.kind.label())
    }

    fn samples_taken(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// Replays a captured time series as a metric (the §4.3.1 emulation hook).
pub struct TraceSource {
    name: String,
    series: TimeSeries,
    count: AtomicU64,
    cost: Duration,
}

impl TraceSource {
    /// Create a trace-replay source.
    pub fn new(name: impl Into<String>, series: TimeSeries) -> Self {
        Self {
            name: name.into(),
            series,
            count: AtomicU64::new(0),
            cost: Duration::from_micros(500),
        }
    }

    /// Override the modelled per-sample cost.
    pub fn with_cost(mut self, cost: Duration) -> Self {
        self.cost = cost;
        self
    }

    /// The underlying series.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }
}

impl MetricSource for TraceSource {
    fn sample(&self, now_ns: u64) -> Result<f64, MetricError> {
        self.count.fetch_add(1, Ordering::Relaxed);
        Ok(self
            .series
            .value_at(now_ns)
            .unwrap_or_else(|| self.series.points().first().map(|&(_, v)| v).unwrap_or(0.0)))
    }

    fn sample_cost(&self) -> Duration {
        self.cost
    }

    fn name(&self) -> String {
        self.name.clone()
    }

    fn samples_taken(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// A constant-valued metric (useful in tests and as a health canary).
pub struct ConstSource {
    name: String,
    value: f64,
    count: AtomicU64,
}

impl ConstSource {
    /// Create a constant metric source.
    pub fn new(name: impl Into<String>, value: f64) -> Self {
        Self { name: name.into(), value, count: AtomicU64::new(0) }
    }
}

impl MetricSource for ConstSource {
    fn sample(&self, _now_ns: u64) -> Result<f64, MetricError> {
        self.count.fetch_add(1, Ordering::Relaxed);
        Ok(self.value)
    }

    fn name(&self) -> String {
        self.name.clone()
    }

    fn samples_taken(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::node::NodeRole;

    #[test]
    fn device_metric_samples_capacity() {
        let d = Arc::new(Device::new("n0/nvme0", DeviceSpec::nvme_250g()));
        let m = DeviceMetric::new(Arc::clone(&d), MetricKind::RemainingCapacity);
        let before = m.sample(0).unwrap();
        d.write(0, 1_000_000).unwrap();
        let after = m.sample(0).unwrap();
        assert_eq!(before - after, 1_000_000.0);
        assert_eq!(m.samples_taken(), 2);
        assert_eq!(m.name(), "n0/nvme0/remaining_capacity");
    }

    #[test]
    fn device_metric_health_and_queue() {
        let d = Arc::new(Device::new("d", DeviceSpec::hdd_1t()));
        assert_eq!(DeviceMetric::new(Arc::clone(&d), MetricKind::DeviceHealth).sample(0), Ok(1.0));
        assert_eq!(DeviceMetric::new(Arc::clone(&d), MetricKind::QueueDepth).sample(0), Ok(0.0));
    }

    #[test]
    #[should_panic(expected = "node metric")]
    fn device_metric_rejects_node_kinds() {
        let d = Arc::new(Device::new("d", DeviceSpec::nvme_250g()));
        let _ = DeviceMetric::new(d, MetricKind::CpuLoad).sample(0);
    }

    #[test]
    fn node_metric_samples_cpu() {
        let n = Arc::new(Node::new(3, NodeRole::Compute, 40, 0));
        n.set_cpu_load(0.25);
        let m = NodeMetric::new(Arc::clone(&n), MetricKind::CpuLoad);
        assert!((m.sample(0).unwrap() - 0.25).abs() < 1e-9);
        assert_eq!(m.name(), "node3/cpu_load");
    }

    #[test]
    fn trace_source_replays_step_function() {
        let series = TimeSeries::from_points(vec![(0, 10.0), (100, 20.0)]);
        let t = TraceSource::new("hacc", series);
        assert_eq!(t.sample(0), Ok(10.0));
        assert_eq!(t.sample(50), Ok(10.0));
        assert_eq!(t.sample(100), Ok(20.0));
        assert_eq!(t.samples_taken(), 3);
    }

    #[test]
    fn trace_source_before_start_returns_first() {
        let series = TimeSeries::from_points(vec![(100, 42.0)]);
        let t = TraceSource::new("x", series);
        assert_eq!(t.sample(0), Ok(42.0));
    }

    #[test]
    fn trace_source_custom_cost() {
        let t = TraceSource::new("x", TimeSeries::new()).with_cost(Duration::from_millis(2));
        assert_eq!(t.sample_cost(), Duration::from_millis(2));
        assert_eq!(t.sample(0), Ok(0.0), "empty trace samples zero");
    }

    #[test]
    fn const_source() {
        let c = ConstSource::new("k", 7.5);
        assert_eq!(c.sample(0), Ok(7.5));
        assert_eq!(c.sample(1_000_000), Ok(7.5));
        assert_eq!(c.samples_taken(), 2);
        assert_eq!(c.name(), "k");
    }

    #[test]
    fn metric_labels_are_stable() {
        assert_eq!(MetricKind::RemainingCapacity.label(), "remaining_capacity");
        assert_eq!(MetricKind::RealBandwidth.label(), "real_bw");
    }
}
