//! HDRE — the Hierarchical Data Replication Engine (§4.4.2, Figure 13c).
//!
//! Places replicas of written data into *replication sets* for fault
//! tolerance and read availability. The round-robin policy "can lead to
//! data stalls if the replication set is out of free space or is too
//! remote from the source"; the Apollo-aware policy scores sets by
//! remaining capacity and network latency and "places replicas into
//! replication sets that have enough capacity".
//!
//! The workload pair mirrors the paper: VPIC-IO writes (3× volume due to
//! replication), then BD-CATS reads the data back from the fastest live
//! replica — or from the PFS when the replica was displaced.

use crate::report::SimReport;
use crate::view::CapacityView;
use apollo_cluster::workloads::apps::{IoKind, IoOp};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Replication policies of the Figure 13c comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationPolicy {
    /// Unreplicated writes straight to the PFS.
    PfsOnly,
    /// Round-robin choice of replication set.
    RoundRobin,
    /// Apollo-aware: the set with the most free space among the
    /// lowest-latency sets.
    ApolloAware,
}

/// A replication set: a group of devices holding one replica each, at a
/// modelled network distance from the writing application.
#[derive(Debug, Clone)]
pub struct ReplicationSet {
    /// Devices in this set (replication factor = len).
    pub devices: Vec<Arc<apollo_cluster::device::Device>>,
    /// One-way network latency from the application to this set.
    pub latency: Duration,
}

impl ReplicationSet {
    /// Free bytes in the fullest-constrained device (a replica must fit
    /// on every device of the set).
    pub fn min_remaining(&self) -> u64 {
        self.devices.iter().map(|d| d.remaining_bytes()).min().unwrap_or(0)
    }
}

/// Where one op's replicas ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Placement {
    Set(usize),
    Pfs,
}

/// The replication engine.
pub struct ReplicationEngine {
    sets: Vec<ReplicationSet>,
    pfs: Arc<apollo_cluster::device::Device>,
    policy: ReplicationPolicy,
    view: Box<dyn CapacityView>,
    rr_cursor: usize,
    placements: HashMap<(u32, u32), Placement>,
    /// Per-set FIFO of live replicas, oldest first, for displacement.
    set_fifo: Vec<std::collections::VecDeque<((u32, u32), u64)>>,
}

impl ReplicationEngine {
    /// Create an engine over replication sets and a PFS backstop.
    pub fn new(
        sets: Vec<ReplicationSet>,
        pfs: Arc<apollo_cluster::device::Device>,
        policy: ReplicationPolicy,
        view: Box<dyn CapacityView>,
    ) -> Self {
        assert!(!sets.is_empty(), "need at least one replication set");
        let n = sets.len();
        Self {
            sets,
            pfs,
            policy,
            view,
            rr_cursor: 0,
            placements: HashMap::new(),
            set_fifo: vec![std::collections::VecDeque::new(); n],
        }
    }

    /// The replication sets.
    pub fn sets(&self) -> &[ReplicationSet] {
        &self.sets
    }

    /// Run the write phase (VPIC). Returns its report.
    pub fn run_writes(&mut self, ops: &[IoOp]) -> SimReport {
        self.run_writes_with(ops, |_, _| {})
    }

    /// Run the write phase with a per-step callback `(step, io_time_s)` —
    /// the harness uses it to let Apollo re-poll capacities so the view
    /// tracks the filling sets.
    pub fn run_writes_with(
        &mut self,
        ops: &[IoOp],
        mut on_step: impl FnMut(u32, f64),
    ) -> SimReport {
        let mut report = SimReport::default();
        let mut ops_iter = ops.iter().peekable();
        while ops_iter.peek().is_some() {
            let step = ops_iter.peek().expect("peeked").step;
            on_step(step, report.io_time_s);
            let mut traffic: HashMap<String, (u64, u64, Duration)> = HashMap::new();

            // Apollo-aware: per-step snapshot of per-set min-remaining.
            let snapshot: Option<Vec<u64>> = match self.policy {
                ReplicationPolicy::ApolloAware => {
                    report.query_overhead_s += self.view.query_cost().as_secs_f64();
                    Some(
                        self.sets
                            .iter()
                            .map(|s| {
                                s.devices
                                    .iter()
                                    .map(|d| self.view.remaining(d.name()).unwrap_or(0))
                                    .min()
                                    .unwrap_or(0)
                            })
                            .collect(),
                    )
                }
                _ => None,
            };
            let mut snapshot = snapshot;

            while ops_iter.peek().is_some_and(|o| o.step == step) {
                let op = ops_iter.next().expect("peeked");
                debug_assert_eq!(op.kind, IoKind::Write);
                self.write_op(op, &mut traffic, snapshot.as_mut(), &mut report);
            }

            // Write-side step time: slowest device (plus network hop).
            let mut t = Duration::ZERO;
            for (name, (bytes, n_ops, net)) in &traffic {
                let device = self.device_by_name(name);
                let dt = device.spec.latency * (*n_ops as u32)
                    + *net
                    + Duration::from_secs_f64(*bytes as f64 / device.spec.write_bw);
                t = t.max(dt);
            }
            report.add_io_time(t);
        }
        report
    }

    /// Run the read phase (BD-CATS) over the same logical data.
    pub fn run_reads(&mut self, ops: &[IoOp]) -> SimReport {
        let mut report = SimReport::default();
        let mut ops_iter = ops.iter().peekable();
        while ops_iter.peek().is_some() {
            let step = ops_iter.peek().expect("peeked").step;
            let mut traffic: HashMap<String, (u64, u64, Duration)> = HashMap::new();
            while ops_iter.peek().is_some_and(|o| o.step == step) {
                let op = ops_iter.next().expect("peeked");
                debug_assert_eq!(op.kind, IoKind::Read);
                match self.placements.get(&(op.step, op.proc)) {
                    Some(Placement::Set(idx)) => {
                        let set = &self.sets[*idx];
                        // Read from the fastest replica in the set.
                        let device = set
                            .devices
                            .iter()
                            .max_by(|a, b| {
                                a.spec
                                    .read_bw
                                    .partial_cmp(&b.spec.read_bw)
                                    .unwrap_or(std::cmp::Ordering::Equal)
                            })
                            .expect("non-empty set");
                        let e = traffic.entry(device.name().to_string()).or_default();
                        e.0 += op.bytes;
                        e.1 += 1;
                        e.2 = set.latency;
                        report.bytes_fast += op.bytes;
                    }
                    Some(Placement::Pfs) | None => {
                        report.stalls +=
                            u64::from(!self.placements.contains_key(&(op.step, op.proc)));
                        let e = traffic.entry(self.pfs.name().to_string()).or_default();
                        e.0 += op.bytes;
                        e.1 += 1;
                        report.bytes_pfs += op.bytes;
                    }
                }
            }
            // Read-side step time uses read bandwidths.
            let mut t = Duration::ZERO;
            for (name, (bytes, n_ops, net)) in &traffic {
                let device = self.device_by_name(name);
                let dt = device.spec.latency * (*n_ops as u32)
                    + *net
                    + Duration::from_secs_f64(*bytes as f64 / device.spec.read_bw);
                t = t.max(dt);
            }
            report.add_io_time(t);
        }
        report
    }

    fn device_by_name(&self, name: &str) -> Arc<apollo_cluster::device::Device> {
        if name == self.pfs.name() {
            return Arc::clone(&self.pfs);
        }
        self.sets
            .iter()
            .flat_map(|s| s.devices.iter())
            .find(|d| d.name() == name)
            .cloned()
            .expect("device exists")
    }

    fn write_op(
        &mut self,
        op: &IoOp,
        traffic: &mut HashMap<String, (u64, u64, Duration)>,
        snapshot: Option<&mut Vec<u64>>,
        report: &mut SimReport,
    ) {
        let choice: Option<usize> = match self.policy {
            ReplicationPolicy::PfsOnly => None,
            ReplicationPolicy::RoundRobin => {
                let idx = self.rr_cursor % self.sets.len();
                self.rr_cursor += 1;
                Some(idx)
            }
            ReplicationPolicy::ApolloAware => {
                let snap = snapshot.expect("snapshot for ApolloAware");
                // Among sets with room, pick the lowest-latency one;
                // prefer capacity when nothing fits.
                let viable: Vec<usize> =
                    (0..self.sets.len()).filter(|&i| snap[i] >= op.bytes).collect();
                let pick = viable.into_iter().min_by_key(|&i| self.sets[i].latency);
                if let Some(i) = pick {
                    snap[i] = snap[i].saturating_sub(op.bytes);
                }
                pick
            }
        };

        match choice {
            None => {
                self.pfs.write(0, op.bytes).expect("PFS never fills");
                let e = traffic.entry(self.pfs.name().to_string()).or_default();
                e.0 += op.bytes;
                e.1 += 1;
                report.bytes_pfs += op.bytes;
                self.placements.insert((op.step, op.proc), Placement::Pfs);
            }
            Some(idx) => {
                let set = self.sets[idx].clone();
                // Displace oldest replicas (set-wide) until the new one
                // fits on every device of the set. Displaced data falls
                // back to the PFS and its reads will stall there.
                let mut stalled = false;
                while set.min_remaining() < op.bytes {
                    let Some((victim, vbytes)) = self.set_fifo[idx].pop_front() else {
                        break;
                    };
                    stalled = true;
                    for device in &set.devices {
                        device.free(0, vbytes);
                    }
                    self.pfs.write(0, vbytes).expect("PFS never fills");
                    let e = traffic.entry(self.pfs.name().to_string()).or_default();
                    e.0 += vbytes;
                    e.1 += 1;
                    report.bytes_pfs += vbytes;
                    self.placements.insert(victim, Placement::Pfs);
                    // The displacement is synchronous: the application
                    // blocks until the victim drains — this serial wait is
                    // the "data stall" the Apollo-aware policy avoids.
                    report.add_io_time(
                        self.pfs.spec.latency
                            + Duration::from_secs_f64(vbytes as f64 / self.pfs.spec.write_bw),
                    );
                }
                if stalled {
                    report.stalls += 1;
                    report.flushes += 1;
                }
                if set.min_remaining() < op.bytes {
                    // Set smaller than one replica: PFS fallback.
                    self.pfs.write(0, op.bytes).expect("PFS never fills");
                    let e = traffic.entry(self.pfs.name().to_string()).or_default();
                    e.0 += op.bytes;
                    e.1 += 1;
                    report.bytes_pfs += op.bytes;
                    self.placements.insert((op.step, op.proc), Placement::Pfs);
                    return;
                }
                for device in &set.devices {
                    device.write(0, op.bytes).expect("room ensured above");
                    let e = traffic.entry(device.name().to_string()).or_default();
                    e.0 += op.bytes;
                    e.1 += 1;
                    e.2 = set.latency;
                    report.bytes_fast += op.bytes;
                }
                self.set_fifo[idx].push_back(((op.step, op.proc), op.bytes));
                self.placements.insert((op.step, op.proc), Placement::Set(idx));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{BlindView, OracleView};
    use apollo_cluster::device::{Device, DeviceSpec};
    use apollo_cluster::workloads::apps::{bdcats, vpic};

    fn sets(cap_gb: u64) -> (Vec<ReplicationSet>, Arc<Device>) {
        let mut sets = Vec::new();
        for s in 0..4 {
            let mut devices = Vec::new();
            for r in 0..3 {
                // Replicas live on fast local tiers (NVMe-class).
                let mut spec = DeviceSpec::nvme_250g();
                spec.capacity_bytes = cap_gb * 1_000_000_000;
                devices.push(Arc::new(Device::new(format!("set{s}/replica{r}"), spec)));
            }
            sets.push(ReplicationSet {
                devices,
                latency: Duration::from_micros(50 * (s as u64 + 1)),
            });
        }
        let mut pfs_spec = DeviceSpec::pfs();
        pfs_spec.write_bw = 2.5e9;
        pfs_spec.read_bw = 3.2e9;
        (sets, Arc::new(Device::new("pfs", pfs_spec)))
    }

    fn engine(policy: ReplicationPolicy, cap_gb: u64) -> ReplicationEngine {
        let (sets, pfs) = sets(cap_gb);
        let view: Box<dyn CapacityView> = match policy {
            ReplicationPolicy::ApolloAware => Box::new(OracleView::new(
                sets.iter().flat_map(|s| s.devices.iter().cloned()).collect(),
            )),
            _ => Box::new(BlindView::default()),
        };
        ReplicationEngine::new(sets, pfs, policy, view)
    }

    #[test]
    fn writes_replicate_three_times() {
        let ops = vpic(8);
        let mut e = engine(ReplicationPolicy::RoundRobin, 100);
        let r = e.run_writes(&ops);
        let logical = apollo_cluster::workloads::apps::total_bytes(&ops);
        assert_eq!(r.bytes_fast, 3 * logical, "3 replicas per op");
    }

    #[test]
    fn replication_slows_writes_but_speeds_reads() {
        // The paper's observation: HDRE increases VPIC write time (3×
        // volume) but decreases BD-CATS read time vs. the PFS.
        let procs = 64;
        let w = vpic(procs);
        let rd = bdcats(procs);

        let mut pfs_engine = engine(ReplicationPolicy::PfsOnly, 100);
        let pfs_w = pfs_engine.run_writes(&w);
        let pfs_r = pfs_engine.run_reads(&rd);

        let mut repl = engine(ReplicationPolicy::RoundRobin, 100);
        let rr_w = repl.run_writes(&w);
        let rr_r = repl.run_reads(&rd);

        let logical = apollo_cluster::workloads::apps::total_bytes(&w);
        assert_eq!(rr_w.bytes_fast, 3 * logical, "replication writes 3× the data");
        assert_eq!(pfs_w.bytes_pfs, logical, "PFS baseline writes it once");
        assert!(rr_r.io_time_s < pfs_r.io_time_s, "replicated reads are faster");
    }

    #[test]
    fn round_robin_stalls_on_full_sets() {
        // Tiny sets: VPIC(64) writes 32 GB logical (96 GB replicated)
        // into 4 sets × 3 × 2 GB = 24 GB.
        let ops = vpic(64);
        let r = engine(ReplicationPolicy::RoundRobin, 2).run_writes(&ops);
        assert!(r.stalls > 0);
        assert!(r.flushes > 0);
    }

    #[test]
    fn apollo_avoids_stalls_and_beats_round_robin() {
        let procs = 64;
        let w = vpic(procs);
        let rd = bdcats(procs);

        let mut rr = engine(ReplicationPolicy::RoundRobin, 3);
        let rr_w = rr.run_writes(&w);
        let rr_r = rr.run_reads(&rd);

        let mut ap = engine(ReplicationPolicy::ApolloAware, 3);
        let ap_w = ap.run_writes(&w);
        let ap_r = ap.run_reads(&rd);

        assert!(ap_w.stalls < rr_w.stalls, "apollo {} vs rr {}", ap_w.stalls, rr_w.stalls);
        let ap_total = ap_w.io_time_s + ap_r.io_time_s;
        let rr_total = rr_w.io_time_s + rr_r.io_time_s;
        assert!(ap_total < rr_total, "apollo {ap_total:.2}s vs rr {rr_total:.2}s");
    }

    #[test]
    fn apollo_prefers_low_latency_sets() {
        let ops = vpic(4);
        let mut e = engine(ReplicationPolicy::ApolloAware, 100);
        e.run_writes(&ops);
        // With ample capacity everywhere, everything lands in set 0 (the
        // lowest-latency set).
        let set0_used: u64 = e.sets()[0].devices.iter().map(|d| d.used_bytes()).sum();
        let set3_used: u64 = e.sets()[3].devices.iter().map(|d| d.used_bytes()).sum();
        assert!(set0_used > 0);
        assert_eq!(set3_used, 0);
    }

    #[test]
    fn reads_after_pfs_writes_come_from_pfs() {
        let mut e = engine(ReplicationPolicy::PfsOnly, 100);
        e.run_writes(&vpic(4));
        let r = e.run_reads(&bdcats(4));
        assert_eq!(r.bytes_fast, 0);
        assert!(r.bytes_pfs > 0);
        assert_eq!(r.stalls, 0, "placements known, no stall accounting");
    }
}
