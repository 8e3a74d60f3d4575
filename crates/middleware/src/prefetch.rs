//! HDFE — the Hierarchical Data Prefetching Engine (§4.4.2, Figure 13b).
//!
//! Stages data from the PFS into fast prefetching caches ahead of the
//! application's reads. The round-robin policy "can result in unnecessary
//! evictions when a prefetching cache is full, leading to data stalls
//! when an application attempts to read the evicted data"; the
//! Apollo-aware policy stages into caches with known remaining capacity,
//! avoiding the eviction churn.
//!
//! Model: the prefetcher runs `lookahead` steps ahead of the reader.
//! Staging overlaps with compute and is off the critical path; what costs
//! time is each read — a cache hit reads at cache speed, a miss stalls to
//! the PFS. Evictions (round-robin forcing room) turn already-staged
//! near-future reads into misses.

use crate::report::SimReport;
use crate::targets::TargetSet;
use crate::view::CapacityView;
use apollo_cluster::workloads::apps::{IoKind, IoOp};
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

/// Prefetch policies of the Figure 13b comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchPolicy {
    /// No prefetching: every read goes to the PFS.
    PfsOnly,
    /// Blind round-robin staging.
    RoundRobin,
    /// Apollo-aware staging into caches with room.
    ApolloAware,
}

/// Key identifying one application read (one op's data).
type OpKey = (u32, u32); // (step, proc)

/// The prefetch engine.
pub struct PrefetchEngine {
    caches: TargetSet,
    policy: PrefetchPolicy,
    view: Box<dyn CapacityView>,
    /// Steps of read-ahead.
    lookahead: u32,
    rr_cursor: usize,
    /// Where each op's data is staged (cache index), if staged.
    staged: HashMap<OpKey, usize>,
    /// FIFO of staged entries per cache, for round-robin eviction.
    staged_fifo: Vec<VecDeque<OpKey>>,
}

impl PrefetchEngine {
    /// Create an engine with the given lookahead (steps of read-ahead).
    pub fn new(
        caches: TargetSet,
        policy: PrefetchPolicy,
        view: Box<dyn CapacityView>,
        lookahead: u32,
    ) -> Self {
        let n = caches.targets.len();
        Self {
            caches,
            policy,
            view,
            lookahead: lookahead.max(1),
            rr_cursor: 0,
            staged: HashMap::new(),
            staged_fifo: vec![VecDeque::new(); n],
        }
    }

    /// The cache set.
    pub fn caches(&self) -> &TargetSet {
        &self.caches
    }

    /// Run a read workload; `on_step` fires before each step.
    pub fn run_with(&mut self, ops: &[IoOp], mut on_step: impl FnMut(u32, f64)) -> SimReport {
        let mut report = SimReport::default();
        // Group ops by step.
        let mut steps: Vec<Vec<&IoOp>> = Vec::new();
        for op in ops {
            debug_assert_eq!(op.kind, IoKind::Read, "HDFE consumes read workloads");
            let idx = op.step as usize;
            if steps.len() <= idx {
                steps.resize_with(idx + 1, Vec::new);
            }
            steps[idx].push(op);
        }

        for step in 0..steps.len() as u32 {
            on_step(step, report.io_time_s);
            if self.policy != PrefetchPolicy::PfsOnly {
                // Stage the lookahead window.
                let mut snapshot = self.capacity_snapshot(&mut report);
                for ahead in step..(step + self.lookahead).min(steps.len() as u32) {
                    // Clone keys to avoid holding borrows during staging.
                    let pending: Vec<(u32, u32, u64)> = steps[ahead as usize]
                        .iter()
                        .filter(|o| !self.staged.contains_key(&(o.step, o.proc)))
                        .map(|o| (o.step, o.proc, o.bytes))
                        .collect();
                    for (s, p, bytes) in pending {
                        self.stage((s, p), bytes, snapshot.as_mut(), &mut report);
                    }
                }
            }

            // Execute the reads.
            let mut traffic: HashMap<String, (u64, u64)> = HashMap::new();
            let step_ops: Vec<(u32, u32, u64)> =
                steps[step as usize].iter().map(|o| (o.step, o.proc, o.bytes)).collect();
            for (s, p, bytes) in step_ops {
                let key = (s, p);
                match self.staged.remove(&key) {
                    Some(cache_idx) => {
                        let cache = &self.caches.targets[cache_idx];
                        let e = traffic.entry(cache.name().to_string()).or_default();
                        e.0 += bytes;
                        e.1 += 1;
                        report.bytes_fast += bytes;
                        cache.free(0, bytes);
                        self.staged_fifo[cache_idx].retain(|k| *k != key);
                    }
                    None => {
                        // Miss: stall to the PFS.
                        report.stalls += 1;
                        let e = traffic.entry(self.caches.pfs.name().to_string()).or_default();
                        e.0 += bytes;
                        e.1 += 1;
                        report.bytes_pfs += bytes;
                    }
                }
            }

            let mut step_time = Duration::ZERO;
            for (name, (bytes, n_ops)) in &traffic {
                let device = if name == self.caches.pfs.name() {
                    &self.caches.pfs
                } else {
                    self.caches.targets.iter().find(|d| d.name() == name).expect("cache exists")
                };
                let t = device.spec.latency * (*n_ops as u32)
                    + Duration::from_secs_f64(*bytes as f64 / device.spec.read_bw);
                step_time = step_time.max(t);
            }
            report.add_io_time(step_time);
        }
        report
    }

    /// Run without a step callback.
    pub fn run(&mut self, ops: &[IoOp]) -> SimReport {
        self.run_with(ops, |_, _| {})
    }

    fn capacity_snapshot(&mut self, report: &mut SimReport) -> Option<HashMap<String, u64>> {
        if self.policy != PrefetchPolicy::ApolloAware {
            return None;
        }
        let mut snap = HashMap::new();
        for d in &self.caches.targets {
            if let Some(rem) = self.view.remaining(d.name()) {
                snap.insert(d.name().to_string(), rem);
            }
        }
        report.query_overhead_s += self.view.query_cost().as_secs_f64();
        Some(snap)
    }

    fn stage(
        &mut self,
        key: OpKey,
        bytes: u64,
        snapshot: Option<&mut HashMap<String, u64>>,
        report: &mut SimReport,
    ) {
        match self.policy {
            PrefetchPolicy::PfsOnly => {}
            PrefetchPolicy::RoundRobin => {
                let idx = self.rr_cursor % self.caches.targets.len();
                self.rr_cursor += 1;
                let cache = std::sync::Arc::clone(&self.caches.targets[idx]);
                // Force room by evicting oldest staged entries (the
                // "unnecessary evictions" of §4.4.2).
                while cache.write(0, bytes).is_err() {
                    match self.staged_fifo[idx].pop_front() {
                        Some(victim) => {
                            if let Some(vidx) = self.staged.remove(&victim) {
                                debug_assert_eq!(vidx, idx);
                                self.caches.targets[idx].free(0, bytes_of(victim, bytes));
                                report.evictions += 1;
                            }
                        }
                        None => return, // cache smaller than one entry
                    }
                }
                self.staged.insert(key, idx);
                self.staged_fifo[idx].push_back(key);
            }
            PrefetchPolicy::ApolloAware => {
                let snap = snapshot.expect("snapshot for ApolloAware");
                let choice = self
                    .caches
                    .targets
                    .iter()
                    .position(|d| snap.get(d.name()).copied().unwrap_or(0) >= bytes);
                if let Some(idx) = choice {
                    let cache = std::sync::Arc::clone(&self.caches.targets[idx]);
                    if cache.write(0, bytes).is_ok() {
                        if let Some(rem) = snap.get_mut(cache.name()) {
                            *rem = rem.saturating_sub(bytes);
                        }
                        self.staged.insert(key, idx);
                        self.staged_fifo[idx].push_back(key);
                    }
                    // A stale view may refuse the write: skip staging —
                    // the read will miss, but nothing staged was lost.
                }
            }
        }
    }
}

/// All ops in one workload share a size; keep the helper honest anyway.
fn bytes_of(_key: OpKey, bytes: u64) -> u64 {
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{BlindView, OracleView};
    use apollo_cluster::device::{Device, DeviceSpec};
    use apollo_cluster::workloads::apps::montage;
    use std::sync::Arc;

    /// Small cache set that two steps of Montage (procs × 10 MB) overflow.
    fn tight_caches(procs: u32) -> TargetSet {
        let per_step = procs as u64 * 10 * 1024 * 1024;
        let mut targets = Vec::new();
        for i in 0..4 {
            let mut spec = DeviceSpec::nvme_250g();
            // Total cache = 2.5 steps of data.
            spec.capacity_bytes = per_step * 5 / 8;
            targets.push(Arc::new(Device::new(format!("cache{i}"), spec)));
        }
        let mut pfs_spec = DeviceSpec::pfs();
        pfs_spec.read_bw = 3.2e9;
        TargetSet::new(targets, Arc::new(Device::new("pfs", pfs_spec)))
    }

    fn engine(policy: PrefetchPolicy, procs: u32) -> PrefetchEngine {
        let caches = tight_caches(procs);
        let view: Box<dyn CapacityView> = match policy {
            PrefetchPolicy::ApolloAware => Box::new(OracleView::new(caches.targets.clone())),
            _ => Box::new(BlindView::default()),
        };
        PrefetchEngine::new(caches, policy, view, 4)
    }

    #[test]
    fn pfs_only_misses_everything() {
        let ops = montage(32);
        let r = engine(PrefetchPolicy::PfsOnly, 32).run(&ops);
        assert_eq!(r.stalls, ops.len() as u64);
        assert_eq!(r.bytes_fast, 0);
    }

    #[test]
    fn prefetching_beats_pfs_only() {
        let ops = montage(32);
        let pfs = engine(PrefetchPolicy::PfsOnly, 32).run(&ops);
        let rr = engine(PrefetchPolicy::RoundRobin, 32).run(&ops);
        assert!(rr.io_time_s < pfs.io_time_s, "rr {} vs pfs {}", rr.io_time_s, pfs.io_time_s);
        assert!(rr.bytes_fast > 0);
    }

    #[test]
    fn round_robin_evicts_under_pressure() {
        let ops = montage(64);
        let r = engine(PrefetchPolicy::RoundRobin, 64).run(&ops);
        assert!(r.evictions > 0, "tight caches must force evictions");
        assert!(r.stalls > 0, "evicted data causes stalls");
    }

    #[test]
    fn apollo_never_evicts() {
        let ops = montage(64);
        let r = engine(PrefetchPolicy::ApolloAware, 64).run(&ops);
        assert_eq!(r.evictions, 0);
    }

    #[test]
    fn figure13b_shape_apollo_beats_round_robin() {
        let ops = montage(64);
        let rr = engine(PrefetchPolicy::RoundRobin, 64).run(&ops);
        let apollo = engine(PrefetchPolicy::ApolloAware, 64).run(&ops);
        assert!(
            apollo.io_time_s < rr.io_time_s,
            "apollo {:.2}s must beat RR {:.2}s",
            apollo.io_time_s,
            rr.io_time_s
        );
        assert!(apollo.stalls <= rr.stalls);
        assert!(apollo.query_overhead_fraction() < 0.01);
    }

    #[test]
    fn all_reads_are_served() {
        let ops = montage(16);
        let r = engine(PrefetchPolicy::RoundRobin, 16).run(&ops);
        let total = apollo_cluster::workloads::apps::total_bytes(&ops);
        assert_eq!(r.total_bytes(), total, "every read is served from cache or PFS");
    }
}
