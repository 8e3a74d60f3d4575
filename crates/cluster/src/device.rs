//! Storage device models.
//!
//! Each device exposes the raw metric surface Apollo's Fact vertices poll:
//! capacity, queue depth, instantaneous/windowed bandwidth, block
//! read/write counters, bad blocks, and energy. The numeric presets follow
//! the Ares testbed hardware (§4.1.1) plus the Hermes tier assumptions the
//! middleware evaluation uses (§4.4).
//!
//! The model is intentionally simple and analytic: a request of `n` bytes
//! takes `latency + n / bandwidth` seconds, scaled by queueing pressure
//! when outstanding requests exceed the device's internal concurrency
//! (`DevC` in Table 1's MSCA formalization). Simplicity keeps every
//! figure-regeneration deterministic while preserving the *relative*
//! behaviour (NVMe ≫ SSD ≫ HDD, interference grows with queue depth) the
//! experiments rely on.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::task::Waker;
use std::time::Duration;

/// Kind of a device I/O event (KProbes-style notification, §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoEventKind {
    /// A completed write.
    Write,
    /// A completed read.
    Read,
    /// Capacity released.
    Free,
}

/// A push notification emitted by the device on every I/O — the
/// event-driven alternative to polling that the paper's future work
/// ("using KProbes") points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoEvent {
    /// When the I/O happened (ns).
    pub timestamp_ns: u64,
    /// What happened.
    pub kind: IoEventKind,
    /// Bytes involved.
    pub bytes: u64,
    /// Bytes in use after the operation.
    pub used_after: u64,
}

/// What an event fact publishes about its device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventMetric {
    /// Bytes in use after each event.
    UsedCapacity,
    /// Remaining bytes after each event.
    RemainingCapacity,
    /// Bytes moved by each event.
    TransferSize,
}

impl EventMetric {
    /// The metric's value after `event` on a device of `capacity` bytes;
    /// `None` for a read on a capacity metric, which moves no capacity.
    pub fn value(self, event: &IoEvent, capacity: u64) -> Option<f64> {
        match self {
            _ if event.kind == IoEventKind::Read && self != Self::TransferSize => None,
            Self::UsedCapacity => Some(event.used_after as f64),
            Self::RemainingCapacity => Some(capacity.saturating_sub(event.used_after) as f64),
            Self::TransferSize => Some(event.bytes as f64),
        }
    }
}

/// Device block size used for block accounting (bytes).
pub const BLOCK_SIZE: u64 = 4096;

/// The storage technology of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DeviceKind {
    /// DRAM-backed storage tier.
    Ram,
    /// NVMe SSD.
    Nvme,
    /// SATA SSD.
    Ssd,
    /// Spinning disk.
    Hdd,
    /// Shared burst buffer (SSD-backed, remote).
    BurstBuffer,
    /// Parallel file system (HDD-backed, remote).
    Pfs,
}

impl DeviceKind {
    /// Short lowercase label used in metric/topic names.
    pub fn label(&self) -> &'static str {
        match self {
            DeviceKind::Ram => "ram",
            DeviceKind::Nvme => "nvme",
            DeviceKind::Ssd => "ssd",
            DeviceKind::Hdd => "hdd",
            DeviceKind::BurstBuffer => "bb",
            DeviceKind::Pfs => "pfs",
        }
    }
}

/// Static description of a device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Technology.
    pub kind: DeviceKind,
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Peak sequential read bandwidth, bytes/second.
    pub read_bw: f64,
    /// Peak sequential write bandwidth, bytes/second.
    pub write_bw: f64,
    /// Per-request access latency.
    pub latency: Duration,
    /// Internal concurrency the device sustains without queueing
    /// degradation (`DevC` in Table 1).
    pub concurrency: u32,
    /// Active power draw in watts.
    pub power_active_w: f64,
    /// Idle power draw in watts.
    pub power_idle_w: f64,
    /// Replication level configured for data on this device.
    pub replication_level: u32,
}

impl DeviceSpec {
    /// 250 GB local NVMe (Ares compute node).
    pub fn nvme_250g() -> Self {
        Self {
            kind: DeviceKind::Nvme,
            capacity_bytes: 250_000_000_000,
            read_bw: 3.0e9,
            write_bw: 2.0e9,
            latency: Duration::from_micros(20),
            concurrency: 64,
            power_active_w: 8.0,
            power_idle_w: 2.0,
            replication_level: 1,
        }
    }

    /// 150 GB SATA SSD (Ares storage node).
    pub fn ssd_150g() -> Self {
        Self {
            kind: DeviceKind::Ssd,
            capacity_bytes: 150_000_000_000,
            read_bw: 5.0e8,
            write_bw: 4.5e8,
            latency: Duration::from_micros(80),
            concurrency: 32,
            power_active_w: 4.0,
            power_idle_w: 1.0,
            replication_level: 1,
        }
    }

    /// 1 TB HDD (Ares storage node).
    pub fn hdd_1t() -> Self {
        Self {
            kind: DeviceKind::Hdd,
            capacity_bytes: 1_000_000_000_000,
            read_bw: 1.5e8,
            write_bw: 1.2e8,
            latency: Duration::from_millis(8),
            concurrency: 4,
            power_active_w: 9.0,
            power_idle_w: 5.0,
            replication_level: 1,
        }
    }

    /// Remote shared burst buffer over SSDs (§4.4.1 tier 3).
    pub fn burst_buffer(capacity_bytes: u64) -> Self {
        Self {
            kind: DeviceKind::BurstBuffer,
            capacity_bytes,
            read_bw: 4.0e8,
            write_bw: 3.5e8,
            latency: Duration::from_micros(200),
            concurrency: 128,
            power_active_w: 40.0,
            power_idle_w: 15.0,
            replication_level: 1,
        }
    }

    /// Parallel file system over HDDs (§4.4.1 tier 4). Modelled as never
    /// filling (the paper "assumes the PFS always has space").
    pub fn pfs() -> Self {
        Self {
            kind: DeviceKind::Pfs,
            capacity_bytes: u64::MAX,
            read_bw: 1.0e8,
            write_bw: 0.8e8,
            latency: Duration::from_millis(2),
            concurrency: 512,
            power_active_w: 500.0,
            power_idle_w: 300.0,
            replication_level: 1,
        }
    }

    /// Total number of blocks on the device.
    pub fn total_blocks(&self) -> u64 {
        (self.capacity_bytes / BLOCK_SIZE).max(1)
    }
}

/// Sliding-window I/O accounting for RealBW and rate metrics: a trim at
/// `now` drops completions older than `now - 1 s`. One event per distinct
/// timestamp, in order, beside their byte total: a trim pops only what it
/// drops, and a clock that never moves holds one event.
#[derive(Debug, Default)]
struct IoWindow {
    /// `(timestamp_ns, bytes)`, ascending by timestamp.
    events: VecDeque<(u64, u64)>,
    total: u64,
}

impl IoWindow {
    const WINDOW_NS: u64 = 1_000_000_000; // 1s

    fn record(&mut self, now_ns: u64, bytes: u64) {
        let at = self.events.partition_point(|&(t, _)| t < now_ns);
        match self.events.get_mut(at) {
            Some((t, held)) if *t == now_ns => *held += bytes,
            _ => self.events.insert(at, (now_ns, bytes)),
        }
        self.total += bytes;
        self.trim(now_ns);
    }

    fn trim(&mut self, now_ns: u64) {
        let cutoff = now_ns.saturating_sub(Self::WINDOW_NS);
        while let Some((_, bytes)) = self.events.pop_front_if(|(t, _)| *t < cutoff) {
            self.total -= bytes;
        }
    }

    /// Bytes/second over the trailing window.
    fn rate(&mut self, now_ns: u64) -> f64 {
        self.trim(now_ns);
        self.total as f64 / (Self::WINDOW_NS as f64 / 1e9)
    }
}

/// A live storage device.
#[derive(Debug)]
pub struct Device {
    /// Static description.
    pub spec: DeviceSpec,
    name: String,
    used: AtomicU64,
    queue_depth: AtomicU64,
    bad_blocks: AtomicU64,
    blocks_read: AtomicU64,
    blocks_written: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    transfers: AtomicU64,
    read_window: Mutex<IoWindow>,
    write_window: Mutex<IoWindow>,
    /// Per-block access counters for the Block Hotness insight.
    block_access: Mutex<HashMap<u64, u64>>,
    /// KProbes-style event subscribers: queues and their wakers.
    event_subs: Mutex<Vec<(Sender<IoEvent>, Waker)>>,
}

/// Error writing to a full device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceFull {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes remaining.
    pub remaining: u64,
}

impl std::fmt::Display for DeviceFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "device full: requested {} bytes, {} remaining", self.requested, self.remaining)
    }
}

impl std::error::Error for DeviceFull {}

impl Device {
    /// Create a device from a spec.
    pub fn new(name: impl Into<String>, spec: DeviceSpec) -> Self {
        Self {
            spec,
            name: name.into(),
            used: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            bad_blocks: AtomicU64::new(0),
            blocks_read: AtomicU64::new(0),
            blocks_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            transfers: AtomicU64::new(0),
            read_window: Mutex::new(IoWindow::default()),
            write_window: Mutex::new(IoWindow::default()),
            block_access: Mutex::new(HashMap::new()),
            event_subs: Mutex::new(Vec::new()),
        }
    }

    /// Subscribe `queue` to the device's KProbes-style I/O events (§6):
    /// every write/read/free sends one [`IoEvent`] stamped with its caller's
    /// time, then wakes `waker`. Dropping the receiver unsubscribes: the
    /// next event drops the queue and its waker.
    pub fn subscribe_events(&self, queue: Sender<IoEvent>, waker: Waker) {
        self.event_subs.lock().push((queue, waker));
    }

    /// Live event subscribers (a dropped one counts until the next event).
    pub fn event_subscribers(&self) -> usize {
        self.event_subs.lock().len()
    }

    fn emit_event(&self, kind: IoEventKind, timestamp_ns: u64, bytes: u64) {
        let event = IoEvent { timestamp_ns, kind, bytes, used_after: self.used_bytes() };
        let mut subs = self.event_subs.lock();
        subs.retain(|(queue, waker)| queue.send(event).map(|()| waker.wake_by_ref()).is_ok());
    }

    /// Device name (e.g. `node3/nvme0`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bytes currently stored.
    pub fn used_bytes(&self) -> u64 {
        self.used.load(Ordering::SeqCst)
    }

    /// Bytes still free.
    pub fn remaining_bytes(&self) -> u64 {
        self.spec.capacity_bytes.saturating_sub(self.used_bytes())
    }

    /// Fraction of capacity in use, in [0, 1].
    pub fn utilization(&self) -> f64 {
        if self.spec.capacity_bytes == 0 || self.spec.capacity_bytes == u64::MAX {
            return 0.0;
        }
        self.used_bytes() as f64 / self.spec.capacity_bytes as f64
    }

    /// Outstanding requests (queue size metric).
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::SeqCst)
    }

    fn service_time(&self, bytes: u64, bw: f64) -> Duration {
        // Queueing pressure beyond the device's internal concurrency slows
        // the request proportionally.
        let depth = self.queue_depth();
        let pressure = if depth > self.spec.concurrency as u64 {
            depth as f64 / self.spec.concurrency as f64
        } else {
            1.0
        };
        let transfer = bytes as f64 / bw * pressure;
        self.spec.latency + Duration::from_secs_f64(transfer)
    }

    /// Write `bytes` at simulated time `now_ns`. Returns the modelled
    /// service time, or [`DeviceFull`] if capacity would be exceeded
    /// (writes are all-or-nothing).
    pub fn write(&self, now_ns: u64, bytes: u64) -> Result<Duration, DeviceFull> {
        // Reserve capacity atomically (CAS loop: concurrent writers must
        // not oversubscribe the device).
        let mut cur = self.used.load(Ordering::SeqCst);
        loop {
            let remaining = self.spec.capacity_bytes.saturating_sub(cur);
            if bytes > remaining {
                return Err(DeviceFull { requested: bytes, remaining });
            }
            // PFS-style "infinite" devices skip accounting growth overflow.
            let next = cur.saturating_add(bytes);
            match self.used.compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        self.queue_depth.fetch_add(1, Ordering::SeqCst);
        let t = self.service_time(bytes, self.spec.write_bw);
        self.queue_depth.fetch_sub(1, Ordering::SeqCst);
        let blocks = bytes.div_ceil(BLOCK_SIZE);
        self.blocks_written.fetch_add(blocks, Ordering::SeqCst);
        self.bytes_written.fetch_add(bytes, Ordering::SeqCst);
        self.transfers.fetch_add(1, Ordering::SeqCst);
        self.write_window.lock().record(now_ns, bytes);
        self.emit_event(IoEventKind::Write, now_ns, bytes);
        Ok(t)
    }

    /// Read `bytes` at simulated time `now_ns`, touching blocks starting
    /// at `block_id` for hotness accounting. Returns the modelled service
    /// time.
    pub fn read(&self, now_ns: u64, bytes: u64, block_id: u64) -> Duration {
        self.queue_depth.fetch_add(1, Ordering::SeqCst);
        let t = self.service_time(bytes, self.spec.read_bw);
        self.queue_depth.fetch_sub(1, Ordering::SeqCst);
        let blocks = bytes.div_ceil(BLOCK_SIZE).max(1);
        self.blocks_read.fetch_add(blocks, Ordering::SeqCst);
        self.bytes_read.fetch_add(bytes, Ordering::SeqCst);
        self.transfers.fetch_add(1, Ordering::SeqCst);
        self.read_window.lock().record(now_ns, bytes);
        {
            let mut access = self.block_access.lock();
            for b in block_id..block_id + blocks.min(64) {
                *access.entry(b).or_insert(0) += 1;
            }
        }
        self.emit_event(IoEventKind::Read, now_ns, bytes);
        t
    }

    /// Release `bytes` of stored data (flush/evict/delete) at simulated
    /// time `now_ns`.
    pub fn free(&self, now_ns: u64, bytes: u64) {
        let mut cur = self.used.load(Ordering::SeqCst);
        loop {
            let next = cur.saturating_sub(bytes);
            match self.used.compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        self.emit_event(IoEventKind::Free, now_ns, bytes);
    }

    /// Observed write bandwidth over the trailing 1 s window, bytes/s.
    pub fn real_write_bw(&self, now_ns: u64) -> f64 {
        self.write_window.lock().rate(now_ns)
    }

    /// Observed read bandwidth over the trailing 1 s window, bytes/s.
    pub fn real_read_bw(&self, now_ns: u64) -> f64 {
        self.read_window.lock().rate(now_ns)
    }

    /// Observed total bandwidth (read + write) over the trailing window.
    pub fn real_bw(&self, now_ns: u64) -> f64 {
        self.real_read_bw(now_ns) + self.real_write_bw(now_ns)
    }

    /// Peak total bandwidth (MaxBW in Table 1).
    pub fn max_bw(&self) -> f64 {
        self.spec.read_bw + self.spec.write_bw
    }

    /// Cumulative blocks read.
    pub fn blocks_read(&self) -> u64 {
        self.blocks_read.load(Ordering::SeqCst)
    }

    /// Cumulative blocks written.
    pub fn blocks_written(&self) -> u64 {
        self.blocks_written.load(Ordering::SeqCst)
    }

    /// Cumulative bytes read.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::SeqCst)
    }

    /// Cumulative bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::SeqCst)
    }

    /// Cumulative transfer operations.
    pub fn transfers(&self) -> u64 {
        self.transfers.load(Ordering::SeqCst)
    }

    /// Mark `n` additional blocks as bad (fault injection).
    pub fn degrade(&self, n: u64) {
        let total = self.spec.total_blocks();
        let mut cur = self.bad_blocks.load(Ordering::SeqCst);
        loop {
            let next = (cur + n).min(total);
            match self.bad_blocks.compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Number of bad blocks.
    pub fn bad_blocks(&self) -> u64 {
        self.bad_blocks.load(Ordering::SeqCst)
    }

    /// Device health `1 - bad/total` (Table 1, row 5). Always in [0, 1].
    pub fn health(&self) -> f64 {
        1.0 - self.bad_blocks() as f64 / self.spec.total_blocks() as f64
    }

    /// Per-block access counts, hottest first, truncated to `top`.
    pub fn hottest_blocks(&self, top: usize) -> Vec<(u64, u64)> {
        let access = self.block_access.lock();
        let mut v: Vec<(u64, u64)> = access.iter().map(|(&b, &c)| (b, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(top);
        v
    }

    /// Instantaneous power draw in watts: idle plus active scaled by the
    /// windowed utilization of peak bandwidth.
    pub fn power_w(&self, now_ns: u64) -> f64 {
        let activity = (self.real_bw(now_ns) / self.max_bw()).min(1.0);
        self.spec.power_idle_w + (self.spec.power_active_w - self.spec.power_idle_w) * activity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The window as it was first written: every completion in a `Vec`,
    /// each trim a `retain` over all of them.
    #[derive(Default)]
    struct RetainWindow(Vec<(u64, u64)>);

    impl RetainWindow {
        fn record(&mut self, now_ns: u64, bytes: u64) {
            self.0.push((now_ns, bytes));
            self.trim(now_ns);
        }

        fn trim(&mut self, now_ns: u64) {
            let cutoff = now_ns.saturating_sub(IoWindow::WINDOW_NS);
            self.0.retain(|&(t, _)| t >= cutoff);
        }

        fn rate(&mut self, now_ns: u64) -> f64 {
            self.trim(now_ns);
            let total: u64 = self.0.iter().map(|&(_, b)| b).sum();
            total as f64 / (IoWindow::WINDOW_NS as f64 / 1e9)
        }
    }

    #[test]
    fn io_window_rates_match_the_retain_reference_bit_for_bit() {
        // Deterministic LCG so the test needs no external crate.
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 16) % bound
        };
        // Timestamp schedules: a clock stuck at 0, a forward clock with
        // repeats, and a clock that jumps back and forth across the window.
        type Clock = fn(u64, u64) -> u64;
        let clocks: [(&str, Clock); 3] = [
            ("all-zero", |_, _| 0),
            ("forward", |i, r| i * 7_000_000 + r % 3 * 1_000_000),
            ("non-monotone", |i, r| (i * 50_000_000).saturating_sub(r % 3_000_000_000)),
        ];
        for (name, clock) in clocks {
            let (mut window, mut reference) = (IoWindow::default(), RetainWindow::default());
            for i in 0..4_000 {
                let now = clock(i, next(u64::MAX));
                if next(4) == 0 {
                    let (got, want) = (window.rate(now), reference.rate(now));
                    assert_eq!(got.to_bits(), want.to_bits(), "{name}: rate at step {i}");
                } else {
                    let bytes = next(1 << 20);
                    window.record(now, bytes);
                    reference.record(now, bytes);
                }
                let held: u64 = window.events.iter().map(|&(_, b)| b).sum();
                assert_eq!(held, window.total, "{name}: running total at step {i}");
            }
        }
    }

    #[test]
    fn zero_time_writes_hold_one_event() {
        let d = Device::new("d", DeviceSpec::nvme_250g());
        for _ in 0..100_000 {
            d.write(0, 4096).unwrap();
        }
        assert_eq!(d.write_window.lock().events.len(), 1);
        assert_eq!(d.real_write_bw(0), 100_000.0 * 4096.0, "every byte ever written");
    }

    #[test]
    fn capacity_accounting() {
        let d = Device::new("d", DeviceSpec::nvme_250g());
        assert_eq!(d.remaining_bytes(), 250_000_000_000);
        d.write(0, 1_000_000).unwrap();
        assert_eq!(d.used_bytes(), 1_000_000);
        d.free(0, 400_000);
        assert_eq!(d.used_bytes(), 600_000);
        d.free(0, u64::MAX); // over-free clamps to zero
        assert_eq!(d.used_bytes(), 0);
    }

    #[test]
    fn write_to_full_device_fails_atomically() {
        let mut spec = DeviceSpec::nvme_250g();
        spec.capacity_bytes = 100;
        let d = Device::new("d", spec);
        d.write(0, 60).unwrap();
        let err = d.write(0, 60).unwrap_err();
        assert_eq!(err, DeviceFull { requested: 60, remaining: 40 });
        assert_eq!(d.used_bytes(), 60, "failed write must not consume capacity");
    }

    #[test]
    fn service_time_ordering_nvme_ssd_hdd() {
        let nvme = Device::new("n", DeviceSpec::nvme_250g());
        let ssd = Device::new("s", DeviceSpec::ssd_150g());
        let hdd = Device::new("h", DeviceSpec::hdd_1t());
        let n = nvme.write(0, 10_000_000).unwrap();
        let s = ssd.write(0, 10_000_000).unwrap();
        let h = hdd.write(0, 10_000_000).unwrap();
        assert!(n < s, "nvme faster than ssd");
        assert!(s < h, "ssd faster than hdd");
    }

    #[test]
    fn block_counters_and_rates() {
        let d = Device::new("d", DeviceSpec::ssd_150g());
        d.write(0, BLOCK_SIZE * 3).unwrap();
        d.read(0, BLOCK_SIZE * 2, 0);
        assert_eq!(d.blocks_written(), 3);
        assert_eq!(d.blocks_read(), 2);
        assert_eq!(d.bytes_written(), BLOCK_SIZE * 3);
        assert_eq!(d.transfers(), 2);
        assert!(d.real_write_bw(0) > 0.0);
        // Window expires after 1s.
        assert_eq!(d.real_write_bw(3_000_000_000), 0.0);
    }

    #[test]
    fn health_and_degradation() {
        let d = Device::new("d", DeviceSpec::hdd_1t());
        assert_eq!(d.health(), 1.0);
        d.degrade(d.spec.total_blocks() / 10);
        assert!((d.health() - 0.9).abs() < 1e-6);
        d.degrade(u64::MAX / 2); // clamps at total
        assert!(d.health() >= 0.0);
        assert_eq!(d.bad_blocks(), d.spec.total_blocks());
    }

    #[test]
    fn hottest_blocks_ranked() {
        let d = Device::new("d", DeviceSpec::nvme_250g());
        d.read(0, BLOCK_SIZE, 5);
        d.read(0, BLOCK_SIZE, 5);
        d.read(0, BLOCK_SIZE, 9);
        let hot = d.hottest_blocks(2);
        assert_eq!(hot[0], (5, 2));
        assert_eq!(hot[1], (9, 1));
    }

    #[test]
    fn power_between_idle_and_active() {
        let d = Device::new("d", DeviceSpec::nvme_250g());
        let idle = d.power_w(0);
        assert!((idle - d.spec.power_idle_w).abs() < 1e-9);
        // Saturate the window.
        for _ in 0..50 {
            d.write(0, 100_000_000).unwrap();
        }
        let busy = d.power_w(0);
        assert!(busy > idle);
        assert!(busy <= d.spec.power_active_w + 1e-9);
    }

    #[test]
    fn pfs_never_fills() {
        let d = Device::new("pfs", DeviceSpec::pfs());
        for _ in 0..10 {
            d.write(0, u64::MAX / 32).unwrap();
        }
        assert_eq!(d.utilization(), 0.0, "PFS reports as never utilized");
    }

    #[test]
    fn concurrent_writes_never_oversubscribe() {
        let mut spec = DeviceSpec::nvme_250g();
        spec.capacity_bytes = 1_000;
        let d = std::sync::Arc::new(Device::new("d", spec));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let d = d.clone();
            handles.push(std::thread::spawn(move || {
                let mut ok = 0u64;
                for _ in 0..100 {
                    if d.write(0, 10).is_ok() {
                        ok += 1;
                    }
                }
                ok
            }));
        }
        let ok: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(ok, 100, "exactly capacity/10 writes can succeed");
        assert_eq!(d.used_bytes(), 1_000);
    }

    #[test]
    fn kind_labels() {
        assert_eq!(DeviceKind::Nvme.label(), "nvme");
        assert_eq!(DeviceKind::BurstBuffer.label(), "bb");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn used_bytes_equals_writes_minus_frees(
            ops in proptest::collection::vec((any::<bool>(), 1u64..1_000_000), 1..200),
        ) {
            let d = Device::new("d", DeviceSpec::nvme_250g());
            let mut expected: u64 = 0;
            for (is_write, n) in ops {
                if is_write {
                    if d.write(0, n).is_ok() {
                        expected += n;
                    }
                } else {
                    d.free(0, n);
                    expected = expected.saturating_sub(n);
                }
            }
            prop_assert_eq!(d.used_bytes(), expected);
        }

        #[test]
        fn health_always_in_unit_interval(degrades in proptest::collection::vec(0u64..u64::MAX / 4, 0..8)) {
            let d = Device::new("d", DeviceSpec::ssd_150g());
            for n in degrades {
                d.degrade(n);
                let h = d.health();
                prop_assert!((0.0..=1.0).contains(&h));
            }
        }
    }
}
