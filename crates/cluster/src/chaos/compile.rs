//! Lowering chaos schedules to fault plans and perturbations.
//!
//! Compilation is a pure, seeded function of the schedule: layer by
//! layer, source-directed faults accumulate as raw windows per source
//! and broker-directed actions as [`Perturbation`]s. Cross-layer window
//! collisions on one source are resolved deterministically (the
//! earlier-starting window wins the overlap, the later one keeps its
//! tail) and every resulting plan must pass
//! [`FaultPlan::validated`] — composing layers can never smuggle an
//! order-dependent overlap into a [`crate::fault::FlakySource`].

use crate::chaos::schedule::{ChaosLayer, ChaosSchedule};
use crate::fault::{kind_rank, FaultPlan, FaultPlanError, FaultWindow};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::time::Duration;

/// A runtime-level chaos action the soak runner executes against the
/// broker (as opposed to the per-source faults a `FlakySource` acts out).
#[derive(Debug, Clone, PartialEq)]
pub enum PerturbationKind {
    /// Append `appends` records to `topic` with the producer clock
    /// regressed by `regression`.
    ClockSkew {
        /// Target topic.
        topic: String,
        /// Producer clock regression.
        regression: Duration,
        /// Number of skewed appends.
        appends: u32,
    },
    /// Attach a non-draining subscriber to `topic` and hold it for `hold`.
    SlowConsumer {
        /// Target topic.
        topic: String,
        /// How long the subscriber refuses to drain.
        hold: Duration,
    },
    /// Publish `records` extra records into `topic` in one burst.
    BackpressureBurst {
        /// Target topic.
        topic: String,
        /// Records in the burst.
        records: u32,
    },
}

impl PerturbationKind {
    /// Stable tag for distinct-kind accounting and reports.
    pub fn tag(&self) -> &'static str {
        match self {
            PerturbationKind::ClockSkew { .. } => "clock_skew",
            PerturbationKind::SlowConsumer { .. } => "slow_consumer",
            PerturbationKind::BackpressureBurst { .. } => "backpressure_burst",
        }
    }

    fn rank(&self) -> u8 {
        match self {
            PerturbationKind::ClockSkew { .. } => 0,
            PerturbationKind::SlowConsumer { .. } => 1,
            PerturbationKind::BackpressureBurst { .. } => 2,
        }
    }

    fn topic(&self) -> &str {
        match self {
            PerturbationKind::ClockSkew { topic, .. }
            | PerturbationKind::SlowConsumer { topic, .. }
            | PerturbationKind::BackpressureBurst { topic, .. } => topic,
        }
    }
}

/// One scheduled runtime action.
#[derive(Debug, Clone, PartialEq)]
pub struct Perturbation {
    /// When (ns of virtual time) the action fires.
    pub at_ns: u64,
    /// What happens.
    pub kind: PerturbationKind,
}

/// The executable form of a [`ChaosSchedule`].
#[derive(Debug, Clone)]
pub struct CompiledChaos {
    name: String,
    seed: u64,
    horizon: Duration,
    plans: BTreeMap<String, FaultPlan>,
    perturbations: Vec<Perturbation>,
}

impl CompiledChaos {
    /// Scenario name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Scenario seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Scenario horizon.
    pub fn horizon(&self) -> Duration {
        self.horizon
    }

    /// Per-source validated fault plans, keyed by source name.
    pub fn plans(&self) -> &BTreeMap<String, FaultPlan> {
        &self.plans
    }

    /// The plan (if any) targeting `source`.
    pub fn plan_for(&self, source: &str) -> Option<&FaultPlan> {
        self.plans.get(source)
    }

    /// Runtime perturbations, sorted by fire time.
    pub fn perturbations(&self) -> &[Perturbation] {
        &self.perturbations
    }

    /// Names of the distinct fault/perturbation kinds the scenario
    /// composes (e.g. `error_burst`, `latency_spike`, `clock_skew`).
    pub fn fault_kind_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = Vec::new();
        let mut push = |n: &'static str| {
            if !names.contains(&n) {
                names.push(n);
            }
        };
        for plan in self.plans.values() {
            for w in plan.windows() {
                push(match w.kind {
                    crate::fault::FaultKind::ErrorBurst => "error_burst",
                    crate::fault::FaultKind::Corrupt => "corrupt",
                    crate::fault::FaultKind::LatencySpike(_) => "latency_spike",
                    crate::fault::FaultKind::Hang => "hang",
                });
            }
        }
        for p in &self.perturbations {
            push(p.kind.tag());
        }
        names.sort_unstable();
        names
    }

    /// Number of distinct composed fault kinds.
    pub fn fault_kinds(&self) -> usize {
        self.fault_kind_names().len()
    }
}

/// Resolve cross-layer window collisions on one source: sort windows
/// canonically, merge same-kind overlaps, and let the earlier-starting
/// window win a different-kind overlap (the later one keeps its
/// non-overlapped tail). The result always passes
/// [`FaultPlan::validated`].
fn resolve(mut windows: Vec<FaultWindow>) -> Vec<FaultWindow> {
    windows.sort_by_key(|w| (w.start_ns, w.end_ns, kind_rank(w.kind)));
    let mut out: Vec<FaultWindow> = Vec::with_capacity(windows.len());
    for mut w in windows {
        if let Some(last) = out.last_mut() {
            if w.start_ns < last.end_ns {
                if last.kind == w.kind {
                    last.end_ns = last.end_ns.max(w.end_ns);
                    continue;
                }
                w.start_ns = last.end_ns;
                if w.start_ns >= w.end_ns {
                    continue;
                }
            }
        }
        out.push(w);
    }
    out
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

pub(super) fn compile(s: &ChaosSchedule) -> Result<CompiledChaos, FaultPlanError> {
    let horizon_ns = ns(s.horizon());
    let mut raw: BTreeMap<String, Vec<FaultWindow>> = BTreeMap::new();
    let mut perturbations: Vec<Perturbation> = Vec::new();
    let window = |raw: &mut BTreeMap<String, Vec<FaultWindow>>,
                  source: &str,
                  start_ns: u64,
                  end_ns: u64,
                  kind| {
        let end_ns = end_ns.min(horizon_ns);
        if start_ns < end_ns {
            raw.entry(source.to_string()).or_default().push(FaultWindow { start_ns, end_ns, kind });
        }
    };

    for (li, layer) in s.layers().iter().enumerate() {
        match layer {
            ChaosLayer::CascadingLoss { groups, kind, first, stagger, outage } => {
                for (gi, group) in groups.iter().enumerate() {
                    // One seeded jitter per group: the whole group drops
                    // together, but groups don't fire on an exact grid.
                    let mut rng = StdRng::seed_from_u64(s.seed() ^ ((li as u64) << 32) ^ gi as u64);
                    let jitter_span = ns(*stagger) / 4;
                    let jitter =
                        if jitter_span > 0 { rng.random_range(0..=jitter_span) } else { 0 };
                    let start = ns(*first) + (gi as u64) * ns(*stagger) + jitter;
                    for source in group {
                        window(&mut raw, source, start, start + ns(*outage), *kind);
                    }
                }
            }
            ChaosLayer::CorrelatedFlaps { sources, kind, first, period, flap, count } => {
                for k in 0..*count {
                    let start = ns(*first) + u64::from(k) * ns(*period);
                    for source in sources {
                        window(&mut raw, source, start, start + ns(*flap), *kind);
                    }
                }
            }
            ChaosLayer::LatencyStorm { sources, extra, from, until } => {
                for source in sources {
                    window(
                        &mut raw,
                        source,
                        ns(*from),
                        ns(*until),
                        crate::fault::FaultKind::LatencySpike(*extra),
                    );
                }
            }
            ChaosLayer::ClockSkew { topics, at, regression, appends } => {
                for topic in topics {
                    perturbations.push(Perturbation {
                        at_ns: ns(*at).min(horizon_ns),
                        kind: PerturbationKind::ClockSkew {
                            topic: topic.clone(),
                            regression: *regression,
                            appends: *appends,
                        },
                    });
                }
            }
            ChaosLayer::SlowConsumerStorm { topics, at, hold } => {
                for topic in topics {
                    perturbations.push(Perturbation {
                        at_ns: ns(*at).min(horizon_ns),
                        kind: PerturbationKind::SlowConsumer { topic: topic.clone(), hold: *hold },
                    });
                }
            }
            ChaosLayer::BackpressureBurst { topics, at, records } => {
                for topic in topics {
                    perturbations.push(Perturbation {
                        at_ns: ns(*at).min(horizon_ns),
                        kind: PerturbationKind::BackpressureBurst {
                            topic: topic.clone(),
                            records: *records,
                        },
                    });
                }
            }
        }
    }

    let mut plans = BTreeMap::new();
    for (source, windows) in raw {
        let plan = FaultPlan::from_windows(resolve(windows)).validated()?;
        plans.insert(source, plan);
    }
    perturbations.sort_by(|a, b| {
        (a.at_ns, a.kind.rank(), a.kind.topic()).cmp(&(b.at_ns, b.kind.rank(), b.kind.topic()))
    });

    Ok(CompiledChaos {
        name: s.name().to_string(),
        seed: s.seed(),
        horizon: s.horizon(),
        plans,
        perturbations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;

    fn secs(v: u64) -> Duration {
        Duration::from_secs(v)
    }

    fn names(prefix: &str, n: usize) -> Vec<String> {
        (0..n).map(|i| format!("{prefix}{i}")).collect()
    }

    fn sample() -> ChaosSchedule {
        ChaosSchedule::new("sample", 7, secs(120))
            .cascading_loss(
                vec![names("rack0/n", 2), names("rack1/n", 2)],
                secs(10),
                secs(8),
                secs(12),
            )
            .correlated_flaps(
                names("rack0/n", 2),
                FaultKind::Corrupt,
                secs(60),
                secs(10),
                secs(2),
                3,
            )
            .latency_storm(names("rack1/n", 2), Duration::from_millis(40), secs(30), secs(50))
            .clock_skew(vec!["rack0/n0".into()], secs(45), secs(20), 8)
            .slow_consumer_storm(vec!["rack1/n0".into()], secs(20), secs(15))
            .backpressure_burst(vec!["rack0/n1".into()], secs(70), 256)
    }

    #[test]
    fn compilation_is_deterministic_per_seed() {
        let (a, b) = (sample().compile().unwrap(), sample().compile().unwrap());
        for (src, plan) in a.plans() {
            assert_eq!(plan.windows(), b.plan_for(src).unwrap().windows());
        }
        assert_eq!(a.perturbations(), b.perturbations());
        // A different seed moves the jittered cascade starts.
        let c = ChaosSchedule::new("sample", 8, secs(120))
            .cascading_loss(
                vec![names("rack0/n", 2), names("rack1/n", 2)],
                secs(10),
                secs(8),
                secs(12),
            )
            .compile()
            .unwrap();
        assert_ne!(
            a.plan_for("rack0/n0").unwrap().windows()[0],
            c.plan_for("rack0/n0").unwrap().windows()[0]
        );
    }

    #[test]
    fn every_compiled_plan_is_validated_and_clamped() {
        let compiled = sample().compile().unwrap();
        let horizon_ns = secs(120).as_nanos() as u64;
        assert_eq!(compiled.plans().len(), 4, "four distinct sources targeted");
        for plan in compiled.plans().values() {
            // validated() is idempotent on a validated plan.
            let revalidated = plan.clone().validated().unwrap();
            assert_eq!(revalidated.windows(), plan.windows());
            for w in plan.windows() {
                assert!(w.start_ns < w.end_ns && w.end_ns <= horizon_ns);
            }
        }
    }

    #[test]
    fn cross_layer_conflicts_resolve_earlier_window_wins() {
        // An ErrorBurst outage [10, 30) collides with a LatencyStorm
        // [20, 50) on the same source: the storm must keep only its tail.
        let compiled = ChaosSchedule::new("conflict", 1, secs(100))
            .with_layer(ChaosLayer::CascadingLoss {
                groups: vec![vec!["s0".into()]],
                kind: FaultKind::ErrorBurst,
                first: secs(10),
                stagger: Duration::ZERO,
                outage: secs(20),
            })
            .latency_storm(vec!["s0".into()], Duration::from_millis(5), secs(20), secs(50))
            .compile()
            .unwrap();
        let ws = compiled.plan_for("s0").unwrap().windows();
        assert_eq!(ws.len(), 2);
        assert_eq!(
            (ws[0].start_ns, ws[0].end_ns),
            (secs(10).as_nanos() as u64, secs(30).as_nanos() as u64)
        );
        assert_eq!(ws[0].kind, FaultKind::ErrorBurst);
        assert_eq!(ws[1].start_ns, ws[0].end_ns, "storm truncated to its tail");
        assert!(matches!(ws[1].kind, FaultKind::LatencySpike(_)));
    }

    #[test]
    fn perturbations_sort_by_time_and_kinds_are_counted() {
        let compiled = sample().compile().unwrap();
        assert!(compiled.perturbations().windows(2).all(|p| p[0].at_ns <= p[1].at_ns));
        let kinds = compiled.fault_kind_names();
        assert_eq!(
            kinds,
            vec![
                "backpressure_burst",
                "clock_skew",
                "corrupt",
                "error_burst",
                "latency_spike",
                "slow_consumer"
            ]
        );
        assert_eq!(compiled.fault_kinds(), 6);
    }
}
