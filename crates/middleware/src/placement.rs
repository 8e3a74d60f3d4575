//! HDPE — the Hierarchical Data Placement Engine (§4.4.2, Figure 13a).
//!
//! Writes application data into fast buffering targets. The baseline
//! round-robin policy can land on a full target, which "needs to be
//! flushed before the new data can be ingested", stalling the
//! application; the Apollo-aware policy consults the remaining-capacity
//! insight (one query per time step — the engine "maintains an insight …
//! in a list sorted by bandwidth") and places each operation into the
//! fastest target with room.
//!
//! The simulation is bulk-synchronous: within one application time step,
//! every process issues its write; bytes are routed to devices; the step
//! costs the slowest device's transfer time, and flushes add PFS traffic
//! to the same step.

use crate::report::SimReport;
use crate::targets::TargetSet;
use crate::view::CapacityView;
use apollo_cluster::workloads::apps::{IoKind, IoOp};
use std::collections::HashMap;
use std::time::Duration;

/// Placement policies of the Figure 13a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Everything straight to the PFS (the "simply writing to the PFS"
    /// baseline).
    PfsOnly,
    /// Blind round-robin over the buffering targets (Hermes' default).
    RoundRobin,
    /// Apollo-aware: fastest target with sufficient remaining capacity,
    /// per the capacity insight.
    ApolloAware,
}

/// When a full target must make room, this fraction of its capacity is
/// flushed down to the PFS in one go.
const FLUSH_FRACTION: u64 = 8;

/// The placement engine.
pub struct PlacementEngine {
    targets: TargetSet,
    policy: PlacementPolicy,
    view: Box<dyn CapacityView>,
    rr_cursor: usize,
}

impl PlacementEngine {
    /// Create an engine.
    pub fn new(targets: TargetSet, policy: PlacementPolicy, view: Box<dyn CapacityView>) -> Self {
        Self { targets, policy, view, rr_cursor: 0 }
    }

    /// The target set (e.g. to inspect device fill levels after a run).
    pub fn targets(&self) -> &TargetSet {
        &self.targets
    }

    /// Run a write workload, invoking `on_step(step, sim_time_s)` before
    /// each application step (the harness uses this to let Apollo re-poll
    /// capacities so the view stays as fresh as the monitoring interval).
    pub fn run_with(&mut self, ops: &[IoOp], mut on_step: impl FnMut(u32, f64)) -> SimReport {
        let mut report = SimReport::default();
        let mut ops_iter = ops.iter().peekable();
        while ops_iter.peek().is_some() {
            let step = ops_iter.peek().expect("peeked").step;
            on_step(step, report.io_time_s);

            // Per-step device traffic: name -> (bytes, ops).
            let mut traffic: HashMap<String, (u64, u64)> = HashMap::new();

            // Apollo-aware: one capacity snapshot per step, decremented
            // locally as this step's placements are decided.
            let mut snapshot: Option<HashMap<String, u64>> = None;
            if self.policy == PlacementPolicy::ApolloAware {
                let mut snap = HashMap::new();
                for d in &self.targets.targets {
                    if let Some(rem) = self.view.remaining(d.name()) {
                        snap.insert(d.name().to_string(), rem);
                    }
                }
                report.query_overhead_s += self.view.query_cost().as_secs_f64();
                snapshot = Some(snap);
            }

            while ops_iter.peek().is_some_and(|o| o.step == step) {
                let op = ops_iter.next().expect("peeked");
                debug_assert_eq!(op.kind, IoKind::Write, "HDPE consumes write workloads");
                self.place(op, &mut traffic, snapshot.as_mut(), &mut report);
            }

            // Step wall time: slowest device in this step.
            let mut step_time = Duration::ZERO;
            for (name, (bytes, n_ops)) in &traffic {
                let device = if name == self.targets.pfs.name() {
                    &self.targets.pfs
                } else {
                    self.targets.targets.iter().find(|d| d.name() == name).expect("routed device")
                };
                let t = device.spec.latency * (*n_ops as u32)
                    + Duration::from_secs_f64(*bytes as f64 / device.spec.write_bw);
                step_time = step_time.max(t);
            }
            report.add_io_time(step_time);
        }
        report
    }

    /// Run without a per-step callback.
    pub fn run(&mut self, ops: &[IoOp]) -> SimReport {
        self.run_with(ops, |_, _| {})
    }

    fn place(
        &mut self,
        op: &IoOp,
        traffic: &mut HashMap<String, (u64, u64)>,
        mut snapshot: Option<&mut HashMap<String, u64>>,
        report: &mut SimReport,
    ) {
        let chosen: Option<usize> = match self.policy {
            PlacementPolicy::PfsOnly => None,
            PlacementPolicy::RoundRobin => {
                let idx = self.rr_cursor % self.targets.targets.len();
                self.rr_cursor += 1;
                Some(idx)
            }
            PlacementPolicy::ApolloAware => {
                let snap = snapshot.as_deref_mut().expect("snapshot exists for ApolloAware");
                // Resource-aware balancing: among targets with room, pick
                // the one whose projected step-completion time (bytes
                // already routed this step plus this op, over bandwidth)
                // is smallest. Fast devices absorb proportionally more
                // without becoming the step's critical path.
                self.targets
                    .targets
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| snap.get(d.name()).copied().unwrap_or(0) >= op.bytes)
                    .min_by(|(_, a), (_, b)| {
                        let ta = (traffic.get(a.name()).map_or(0, |e| e.0) + op.bytes) as f64
                            / a.spec.write_bw;
                        let tb = (traffic.get(b.name()).map_or(0, |e| e.0) + op.bytes) as f64
                            / b.spec.write_bw;
                        ta.partial_cmp(&tb).unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .map(|(i, _)| i)
            }
        };

        match chosen {
            None => {
                // PFS write (either PfsOnly, or no target had room).
                self.targets.pfs.write(0, op.bytes).expect("PFS never fills");
                let e = traffic.entry(self.targets.pfs.name().to_string()).or_default();
                e.0 += op.bytes;
                e.1 += 1;
                report.bytes_pfs += op.bytes;
            }
            Some(idx) => {
                let device = std::sync::Arc::clone(&self.targets.targets[idx]);
                if let Some(snap) = snapshot {
                    if let Some(rem) = snap.get_mut(device.name()) {
                        *rem = rem.saturating_sub(op.bytes);
                    }
                }
                // Try the buffered write; a full target must flush first.
                if device.write(0, op.bytes).is_err() {
                    report.stalls += 1;
                    report.flushes += 1;
                    let flush = (device.spec.capacity_bytes / FLUSH_FRACTION).max(op.bytes);
                    let flush = flush.min(device.used_bytes());
                    device.free(0, flush);
                    self.targets.pfs.write(0, flush).expect("PFS never fills");
                    let e = traffic.entry(self.targets.pfs.name().to_string()).or_default();
                    e.0 += flush;
                    e.1 += 1;
                    report.bytes_pfs += flush;
                    device.write(0, op.bytes).expect("room after flush");
                }
                let e = traffic.entry(device.name().to_string()).or_default();
                e.0 += op.bytes;
                e.1 += 1;
                report.bytes_fast += op.bytes;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{BlindView, OracleView};
    use apollo_cluster::workloads::apps::vpic;

    fn engine(policy: PlacementPolicy) -> PlacementEngine {
        let targets = TargetSet::paper_hierarchy();
        let view: Box<dyn CapacityView> = match policy {
            PlacementPolicy::ApolloAware => Box::new(OracleView::new(targets.targets.clone())),
            _ => Box::new(BlindView::default()),
        };
        PlacementEngine::new(targets, policy, view)
    }

    #[test]
    fn pfs_only_routes_everything_to_pfs() {
        let ops = vpic(16);
        let mut e = engine(PlacementPolicy::PfsOnly);
        let r = e.run(&ops);
        assert_eq!(r.bytes_fast, 0);
        assert_eq!(r.bytes_pfs, apollo_cluster::workloads::apps::total_bytes(&ops));
        assert_eq!(r.flushes, 0);
        assert!(r.io_time_s > 0.0);
    }

    #[test]
    fn buffered_placement_beats_pfs_only() {
        // Small workload that fits in the fast tier entirely.
        let ops = vpic(64);
        let pfs_time = engine(PlacementPolicy::PfsOnly).run(&ops).io_time_s;
        let rr_time = engine(PlacementPolicy::RoundRobin).run(&ops).io_time_s;
        assert!(
            rr_time < pfs_time,
            "buffering ({rr_time:.2}s) must beat PFS-only ({pfs_time:.2}s)"
        );
    }

    #[test]
    fn apollo_policy_never_stalls_with_fresh_view() {
        // Oracle view == perfectly fresh capacity facts: every placement
        // has room, so no flush-stalls even when the tier overflows — the
        // engine falls back to the PFS deliberately instead.
        let ops = vpic(2560); // 1.31 TB > 1.096 TB fast tier
        let mut e = engine(PlacementPolicy::ApolloAware);
        let r = e.run(&ops);
        assert_eq!(r.stalls, 0, "fresh view avoids every stall");
        assert!(r.bytes_pfs > 0, "overflow flows to the PFS");
        assert!(r.bytes_fast > 0);
    }

    #[test]
    fn round_robin_stalls_when_tier_overflows() {
        let ops = vpic(2560);
        let r = engine(PlacementPolicy::RoundRobin).run(&ops);
        assert!(r.flushes > 0, "RR must hit full targets");
        assert!(r.stalls > 0);
    }

    #[test]
    fn figure13a_shape_apollo_beats_round_robin_beats_pfs() {
        let ops = vpic(2560);
        let pfs = engine(PlacementPolicy::PfsOnly).run(&ops);
        let rr = engine(PlacementPolicy::RoundRobin).run(&ops);
        let apollo = engine(PlacementPolicy::ApolloAware).run(&ops);
        assert!(
            apollo.io_time_s < rr.io_time_s,
            "apollo {:.1}s must beat RR {:.1}s",
            apollo.io_time_s,
            rr.io_time_s
        );
        assert!(rr.io_time_s < pfs.io_time_s, "HDPE must beat PFS-only");
        // Query overhead is small (paper: <1%).
        assert!(apollo.query_overhead_fraction() < 0.01);
    }

    #[test]
    fn on_step_callback_fires_once_per_step() {
        let ops = vpic(4);
        let mut steps = Vec::new();
        engine(PlacementPolicy::RoundRobin).run_with(&ops, |s, _| steps.push(s));
        assert_eq!(steps, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn conservation_of_bytes() {
        let ops = vpic(128);
        let total = apollo_cluster::workloads::apps::total_bytes(&ops);
        let r = engine(PlacementPolicy::RoundRobin).run(&ops);
        // Application bytes all land somewhere; flushed bytes add to PFS
        // traffic beyond the application's own volume.
        assert!(r.total_bytes() >= total);
    }
}
