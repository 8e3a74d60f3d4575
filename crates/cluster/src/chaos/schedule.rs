//! Declarative chaos scenarios.
//!
//! A [`ChaosSchedule`] names a scenario, fixes its seed and horizon, and
//! stacks [`ChaosLayer`]s; [`ChaosSchedule::compile`] lowers the stack to
//! per-source fault plans plus runtime perturbations.

use crate::chaos::compile::{self, CompiledChaos};
use crate::fault::{FaultKind, FaultPlanError};
use std::time::Duration;

/// One composable ingredient of a chaos scenario.
///
/// Source-directed layers (loss, flaps, storms, corruption) compile to
/// [`crate::fault::FaultWindow`]s on the named sources; broker-directed
/// layers (clock skew, slow consumers, backpressure) compile to
/// [`crate::chaos::compile::Perturbation`]s the soak runner executes.
#[derive(Debug, Clone)]
pub enum ChaosLayer {
    /// Staggered group outages: group `i` goes down at
    /// `first + i·stagger` (plus a small seeded jitter shared by the
    /// whole group) and stays down for `outage`. Models a rack losing
    /// power and its fallback domino-ing into the next.
    CascadingLoss {
        /// Groups of source names, in failure order.
        groups: Vec<Vec<String>>,
        /// The fault injected during each outage.
        kind: FaultKind,
        /// When the first group fails.
        first: Duration,
        /// Delay between consecutive group failures.
        stagger: Duration,
        /// How long each group stays down.
        outage: Duration,
    },
    /// `count` short, simultaneous outages shared by every listed source
    /// (a flapping shared dependency): flap `k` covers
    /// `[first + k·period, first + k·period + flap)`.
    CorrelatedFlaps {
        /// Sources that flap together.
        sources: Vec<String>,
        /// The fault injected during each flap.
        kind: FaultKind,
        /// Start of the first flap.
        first: Duration,
        /// Distance between flap starts.
        period: Duration,
        /// Length of each flap.
        flap: Duration,
        /// Number of flaps.
        count: u32,
    },
    /// Every listed source answers, but `extra` slower, over
    /// `[from, until)` — a congested fabric or wedged procfs.
    LatencyStorm {
        /// Affected sources.
        sources: Vec<String>,
        /// Added per-sample cost.
        extra: Duration,
        /// Storm start.
        from: Duration,
        /// Storm end (exclusive).
        until: Duration,
    },
    /// At `at`, append `appends` records to each listed topic with a
    /// wall-clock timestamp regressed by `regression` — an NTP step
    /// backwards, which `Stream::append` must clamp without corrupting
    /// eviction order.
    ClockSkew {
        /// Affected topics.
        topics: Vec<String>,
        /// When the skewed appends happen.
        at: Duration,
        /// How far the producer clock has regressed.
        regression: Duration,
        /// Skewed appends per topic.
        appends: u32,
    },
    /// At `at`, attach a subscriber to each listed topic and stop draining
    /// it for `hold` — a cursor that trails its topic's stream.
    SlowConsumerStorm {
        /// Affected topics.
        topics: Vec<String>,
        /// When the slow subscribers attach.
        at: Duration,
        /// How long they refuse to drain.
        hold: Duration,
    },
    /// At `at`, publish `records` extra records into each listed topic in
    /// one burst — saturating the live window and forcing eviction storms.
    BackpressureBurst {
        /// Affected topics.
        topics: Vec<String>,
        /// When the burst lands.
        at: Duration,
        /// Records per topic.
        records: u32,
    },
}

/// A named, seeded, deterministic chaos scenario over a fixed horizon.
#[derive(Debug, Clone)]
pub struct ChaosSchedule {
    name: String,
    seed: u64,
    horizon: Duration,
    layers: Vec<ChaosLayer>,
}

impl ChaosSchedule {
    /// An empty schedule; add layers with the builder methods.
    pub fn new(name: impl Into<String>, seed: u64, horizon: Duration) -> Self {
        Self { name: name.into(), seed, horizon, layers: Vec::new() }
    }

    /// Scenario name (lands in the soak report).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Seed driving all jitter in the compiled schedule.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Scenario horizon; compiled windows are clamped to it.
    pub fn horizon(&self) -> Duration {
        self.horizon
    }

    /// The stacked layers, in composition order.
    pub fn layers(&self) -> &[ChaosLayer] {
        &self.layers
    }

    /// Stack an explicit layer.
    pub fn with_layer(mut self, layer: ChaosLayer) -> Self {
        self.layers.push(layer);
        self
    }

    /// Stack a [`ChaosLayer::CascadingLoss`] of `ErrorBurst` outages.
    pub fn cascading_loss(
        self,
        groups: Vec<Vec<String>>,
        first: Duration,
        stagger: Duration,
        outage: Duration,
    ) -> Self {
        self.with_layer(ChaosLayer::CascadingLoss {
            groups,
            kind: FaultKind::ErrorBurst,
            first,
            stagger,
            outage,
        })
    }

    /// Stack a [`ChaosLayer::CorrelatedFlaps`] layer.
    pub fn correlated_flaps(
        self,
        sources: Vec<String>,
        kind: FaultKind,
        first: Duration,
        period: Duration,
        flap: Duration,
        count: u32,
    ) -> Self {
        self.with_layer(ChaosLayer::CorrelatedFlaps { sources, kind, first, period, flap, count })
    }

    /// Stack a [`ChaosLayer::LatencyStorm`] layer.
    pub fn latency_storm(
        self,
        sources: Vec<String>,
        extra: Duration,
        from: Duration,
        until: Duration,
    ) -> Self {
        self.with_layer(ChaosLayer::LatencyStorm { sources, extra, from, until })
    }

    /// Stack a [`ChaosLayer::ClockSkew`] layer.
    pub fn clock_skew(
        self,
        topics: Vec<String>,
        at: Duration,
        regression: Duration,
        appends: u32,
    ) -> Self {
        self.with_layer(ChaosLayer::ClockSkew { topics, at, regression, appends })
    }

    /// Stack a [`ChaosLayer::SlowConsumerStorm`] layer.
    pub fn slow_consumer_storm(self, topics: Vec<String>, at: Duration, hold: Duration) -> Self {
        self.with_layer(ChaosLayer::SlowConsumerStorm { topics, at, hold })
    }

    /// Stack a [`ChaosLayer::BackpressureBurst`] layer.
    pub fn backpressure_burst(self, topics: Vec<String>, at: Duration, records: u32) -> Self {
        self.with_layer(ChaosLayer::BackpressureBurst { topics, at, records })
    }

    /// Lower the schedule to per-source validated fault plans plus
    /// time-ordered runtime perturbations. Deterministic per
    /// `(layers, seed)`; cross-layer window conflicts on one source are
    /// resolved earlier-window-wins before validation.
    pub fn compile(&self) -> Result<CompiledChaos, FaultPlanError> {
        compile::compile(self)
    }
}
