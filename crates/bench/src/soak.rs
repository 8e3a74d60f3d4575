//! Invariant-checked chaos soak harness.
//!
//! Drive a large fleet of fact vertices (10⁴–10⁵) and a
//! [`apollo_core::predict::PredictionPump`] on one service loop under a
//! composed [`ChaosSchedule`], while **continuously** asserting the
//! contracts the rest of the repo pins in isolation:
//!
//! 1. **`scan_exactly_once`** — no scan observation is lost or
//!    duplicated: a cursor reader ([`apollo_streams::Broker::read_after`])
//!    drained at every checkpoint must see exactly the entries a
//!    lock-held full-range stitch sees, and that stitch must account
//!    for every append the topic ever took (the
//!    `eviction_interleaving` contract, checked live under eviction
//!    storms, clock skew and backpressure bursts).
//! 2. **`monotone_recovery`** — every vertex whose source has healed
//!    (its last fault window ended) returns to `Healthy` within a
//!    bounded, configured number of probe cycles
//!    ([`SoakConfig::recovery_deadline`]).
//! 3. **`bounded_memory`** — the broker's live-window memory stays under
//!    a ceiling proportional to `topics × window bound`, and no sampled
//!    stream's window exceeds its configured bound (eviction works under
//!    churn). A slow subscriber holds no memory: it is a cursor, and at
//!    release it must take, in order, every row published since it
//!    attached, unless retention lapped it (checked with invariant 1).
//! 4. **`no_escaped_panics`** — zero event-loop callbacks panic past
//!    `catch_unwind` over the whole run.
//!
//! The soak is fully deterministic per ([`SoakConfig::seed`], schedule):
//! virtual clock, seeded faults, seeded jitter, one loop thread. Two
//! runs produce the same [`SoakOutcome::digest`].

use apollo_cluster::chaos::{ChaosSchedule, CompiledChaos, PerturbationKind};
use apollo_cluster::fault::{FaultPlanError, FlakySource};
use apollo_cluster::metrics::{MetricSource, TraceSource};
use apollo_cluster::workloads::fio::{self, SarMetric};
use apollo_cluster::DeviceKind;
use apollo_core::health::{HealthState, SupervisorConfig};
use apollo_core::selfobs::deploy_self_observer;
use apollo_core::service::{Apollo, FactVertexSpec, InsightVertexSpec};
use apollo_core::vertex::FactVertex;
use apollo_runtime::event_loop::EventLoop;
use apollo_streams::{CompactPolicy, Record, SlabStore, StreamConfig, StreamId, Subscription};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

/// A subscriber that stops draining for a while, and what its topic held
/// when it attached.
struct SlowSub {
    release_ns: u64,
    topic: String,
    sub: Subscription,
    /// The topic's last ID and publish count at attach.
    from: Option<StreamId>,
    published: u64,
    /// The topic's `cursor_lapped` counter, and its value at attach.
    lapped: apollo_obs::Counter,
    lapped_before: u64,
}

impl SlowSub {
    /// Drain the subscription: its IDs strictly increase, it ends at the
    /// topic's last ID, and it holds every row published since it attached
    /// unless retention lapped a cursor on the topic. Returns what failed.
    fn release(&self, broker: &apollo_streams::Broker) -> Vec<String> {
        let got = self.sub.drain();
        let (last_id, published) =
            broker.topic_info(&self.topic).map_or((None, 0), |i| (i.last_id, i.published));
        let mut faults = Vec::new();
        if !got.windows(2).all(|w| w[0].id < w[1].id) {
            faults.push("IDs out of order".to_string());
        }
        let ended = got.last().map(|e| e.id).or(self.from);
        if ended != last_id {
            faults.push(format!("ends at {ended:?}, the topic at {last_id:?}"));
        }
        let due = published - self.published;
        if self.lapped.get() == self.lapped_before && got.len() as u64 != due {
            faults.push(format!("took {} rows of {due} published", got.len()));
        }
        faults.into_iter().map(|f| format!("{}: slow subscriber {f}", self.topic)).collect()
    }
}

/// Canonical name of soak vertex `i` (also its topic).
pub fn vertex_name(i: usize) -> String {
    format!("soak/v{i:05}")
}

/// Tunables of one soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Fact vertices to register.
    pub vertices: usize,
    /// Master seed: trace generation, fault corruption, supervision
    /// jitter (mixed per vertex by the service).
    pub seed: u64,
    /// Virtual-time horizon of the run.
    pub horizon: Duration,
    /// Base poll cadence (staggered slightly per vertex so the fleet
    /// doesn't fire in lockstep).
    pub poll_interval: Duration,
    /// How often invariants are evaluated and a sample is recorded.
    pub checkpoint_every: Duration,
    /// Per-topic retention and spill backend. The live-window bound
    /// (`max_len`, required) is small enough that steady publishing
    /// causes continuous eviction.
    pub stream: StreamConfig,
    /// When set, a batched Delphi prediction pump ticks at this cadence.
    pub pump_every: Option<Duration>,
    /// Every `pump_stride`-th vertex enrolls in the pump.
    pub pump_stride: usize,
    /// Every `insight_stride`-th vertex anchors a small sum-insight over
    /// its neighbours (0 = no insights).
    pub insight_stride: usize,
    /// Topics sampled for the exactly-once scan ledger (all faulted
    /// topics are always sampled; this pads with healthy ones).
    pub scan_topics: usize,
    /// Supervision policy applied to every vertex.
    pub supervision: SupervisorConfig,
    /// Wall budget, in virtual time, for a healed vertex to be Healthy
    /// again, measured from the end of its last fault window. Derive it
    /// from the supervision policy: with the probation fix, roughly
    /// `(recovery_successes + 1) · probe_interval · (1 + jitter)` plus a
    /// poll interval of slack.
    pub recovery_deadline: Duration,
    /// Multiplier on the computed live-window memory ceiling.
    pub memory_slack: f64,
    /// Optional slab-churn layer: register transient slab series at every
    /// checkpoint and drop their handles, exercising series GC under the
    /// attached slab lifecycle (the paper's job-scoped-metrics regime:
    /// thousands of short-lived series over a long-running observer). Adds
    /// the `slab_churn_fixed_point` invariant.
    pub slab_churn: Option<SlabChurnConfig>,
    /// Standing AQE queries registered over the first soak topics
    /// ([`Apollo::register_continuous`]). At every checkpoint each one is
    /// quiesced and its standing result compared bit-for-bit against a
    /// full rescan — the `continuous_rescan_equivalence` invariant.
    pub continuous_queries: usize,
    /// Teeth hook: deliberately move each standing result by one ULP so
    /// the equivalence invariant must FAIL (proves the check has teeth).
    pub continuous_break_fold: bool,
}

/// Tunables of the [`SoakConfig::slab_churn`] layer.
#[derive(Debug, Clone)]
pub struct SlabChurnConfig {
    /// The churned store; [`Apollo::attach_slab_with`] runs its lifecycle
    /// once a second for the duration of the soak.
    pub store: Arc<SlabStore>,
    /// How long the GC keeps a retired series.
    pub retention: CompactPolicy,
    /// Transient series registered at each checkpoint.
    pub series_per_checkpoint: usize,
    /// Records written into each series before its handle drops.
    pub records_per_series: u64,
    /// Fixed-point ceiling: live + tombstoned series dirents observed at
    /// any checkpoint must never exceed this (GC keeps up with churn).
    pub max_live_series: usize,
}

impl Default for SoakConfig {
    fn default() -> Self {
        Self {
            vertices: 256,
            seed: 7,
            horizon: Duration::from_secs(120),
            poll_interval: Duration::from_secs(1),
            checkpoint_every: Duration::from_secs(10),
            stream: StreamConfig::bounded(24),
            pump_every: None,
            pump_stride: 32,
            insight_stride: 64,
            scan_topics: 24,
            supervision: SupervisorConfig {
                poll_timeout: Duration::from_millis(250),
                backoff_base: Duration::from_secs(1),
                backoff_cap: Duration::from_secs(8),
                jitter_frac: 0.1,
                degraded_after: 1,
                quarantine_after: 2,
                probe_interval: Duration::from_secs(2),
                recovery_successes: 2,
                probation_polls: 4,
                ..SupervisorConfig::default()
            },
            recovery_deadline: Duration::from_secs(15),
            memory_slack: 2.0,
            slab_churn: None,
            continuous_queries: 2,
            continuous_break_fold: false,
        }
    }
}

impl SoakConfig {
    /// The per-topic live-window bound the memory invariants check.
    fn window_bound(&self) -> usize {
        self.stream.max_len.expect("soak streams are bounded")
    }

    /// Live-window memory ceiling for `topics` streams: every window
    /// holds at most `stream.max_len` entries of roughly `payload + Entry`
    /// bytes, padded by [`SoakConfig::memory_slack`].
    pub fn memory_ceiling_bytes(&self, topics: usize) -> usize {
        const EST_ENTRY_BYTES: usize = 160;
        ((topics * self.window_bound() * EST_ENTRY_BYTES) as f64 * self.memory_slack.max(1.0))
            as usize
    }
}

/// Pass/fail of one live invariant, with enough detail to debug a red run.
#[derive(Debug, Clone)]
pub struct InvariantVerdict {
    /// Invariant name (stable; keys the JSON report).
    pub name: &'static str,
    /// Whether the invariant held over the whole run.
    pub pass: bool,
    /// Human-readable evidence (violations, or the observed bounds).
    pub detail: String,
}

/// One checkpoint sample.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Virtual time of the sample (ns).
    pub t_ns: u64,
    /// Broker live-window memory at the sample.
    pub memory_bytes: usize,
    /// Fleet poll-latency p99 (wall ns) so far.
    pub p99_poll_ns: u64,
    /// Vertices Quarantined at the sample.
    pub quarantined: usize,
}

/// Everything a soak run reports.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// Schedule name.
    pub schedule: String,
    /// Master seed.
    pub seed: u64,
    /// Registered fact vertices (excluding self-observer).
    pub vertices: usize,
    /// Distinct composed fault kinds of the schedule.
    pub fault_kinds: Vec<&'static str>,
    /// Sources targeted by at least one fault window.
    pub faulted_sources: usize,
    /// Per-invariant verdicts.
    pub verdicts: Vec<InvariantVerdict>,
    /// Checkpoint samples over the run.
    pub checkpoints: Vec<Checkpoint>,
    /// Fleet poll-latency p99 (wall ns) over the whole run.
    pub p99_poll_ns: u64,
    /// Timer dispatch-lag p99 (ns) over the whole run.
    pub p99_dispatch_ns: u64,
    /// Peak broker live-window memory observed.
    pub peak_memory_bytes: usize,
    /// The ceiling the peak was checked against.
    pub memory_ceiling_bytes: usize,
    /// Fleet-wide Quarantined → Healthy recoveries.
    pub quarantine_recoveries: u64,
    /// Facts published by the soak fleet (excludes the self-observer's
    /// vertices, whose publish count tracks wall-clock-measured
    /// latencies and is therefore not deterministic per seed).
    pub facts_published: u64,
    /// Entries verified by the exactly-once ledger.
    pub scanned_entries: u64,
    /// Clock-regression clamps across all topics.
    pub clock_regressions: u64,
    /// Peak slab series-dirent occupancy (live + tombstoned) observed at
    /// any checkpoint; 0 without a [`SoakConfig::slab_churn`] layer.
    pub slab_peak_series: usize,
    /// Series reclaimed by the attached lifecycle's compaction timer
    /// (`streams.slab.reclaimed_series`); 0 without churn.
    pub slab_reclaimed_series: u64,
    /// Standing-result-vs-rescan comparisons made by the
    /// `continuous_rescan_equivalence` invariant.
    pub continuous_checks: u64,
    /// Order-independent digest of sampled stream contents and counters;
    /// equal for two runs of the same (config, schedule).
    pub digest: u64,
}

impl SoakOutcome {
    /// Whether every invariant held.
    pub fn all_pass(&self) -> bool {
        self.verdicts.iter().all(|v| v.pass)
    }

    /// The verdict named `name`, if present.
    pub fn verdict(&self, name: &str) -> Option<&InvariantVerdict> {
        self.verdicts.iter().find(|v| v.name == name)
    }
}

/// Exactly-once accounting for live scan observations.
///
/// Feed it every entry a continuously-draining cursor reader observes
/// ([`ScanLedger::observe`]); at the end, [`ScanLedger::verify`] compares
/// against the authoritative full-range stitch. Duplicates are counted as
/// they arrive; losses are whatever the stitch has that the consumer
/// never saw.
#[derive(Debug, Default)]
pub struct ScanLedger {
    seen: BTreeMap<String, BTreeSet<(u64, u64)>>,
    duplicates: u64,
}

impl ScanLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record observed entry IDs for `topic`, counting re-deliveries.
    pub fn observe(&mut self, topic: &str, ids: impl IntoIterator<Item = StreamId>) {
        let seen = self.seen.entry(topic.to_string()).or_default();
        for id in ids {
            if !seen.insert((id.ms, id.seq)) {
                self.duplicates += 1;
            }
        }
    }

    /// Entries observed more than once, across all topics.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Distinct entries observed for `topic`.
    pub fn seen(&self, topic: &str) -> usize {
        self.seen.get(topic).map_or(0, |s| s.len())
    }

    /// Compare against the authoritative entry list: returns
    /// `(lost, phantom)` — entries the consumer never saw, and entries
    /// the consumer saw that the authority does not contain.
    pub fn verify(&self, topic: &str, authority: &[StreamId]) -> (u64, u64) {
        static EMPTY: BTreeSet<(u64, u64)> = BTreeSet::new();
        let seen = self.seen.get(topic).unwrap_or(&EMPTY);
        let auth: BTreeSet<(u64, u64)> = authority.iter().map(|id| (id.ms, id.seq)).collect();
        let lost = auth.difference(seen).count() as u64;
        let phantom = seen.difference(&auth).count() as u64;
        (lost, phantom)
    }
}

/// FNV-1a fold helper for the run digest.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Compile `schedule` and run the soak. See the module docs for the
/// invariants checked; the returned [`SoakOutcome`] carries one verdict
/// per invariant rather than panicking, so harnesses can assert teeth
/// (a deliberately broken configuration must FAIL a verdict).
pub fn run(config: &SoakConfig, schedule: &ChaosSchedule) -> Result<SoakOutcome, FaultPlanError> {
    let compiled = schedule.compile()?;
    Ok(run_compiled(config, &compiled))
}

/// [`run`] over an already-compiled schedule.
pub fn run_compiled(config: &SoakConfig, compiled: &CompiledChaos) -> SoakOutcome {
    // --- Build the service -------------------------------------------
    let mut apollo = Apollo::with_config(EventLoop::new_virtual(), config.stream.clone());
    let pump = config.pump_every.map(|every| {
        // Tiny Delphi: the soak exercises the pump's dispatch plumbing,
        // not forecast quality, so training must stay cheap.
        let model = apollo_delphi::Delphi::train(apollo_delphi::DelphiConfig {
            feature_samples: 60,
            feature_epochs: 3,
            combiner_samples: 40,
            combiner_epochs: 3,
            seed: config.seed,
            ..apollo_delphi::DelphiConfig::default()
        });
        apollo.prediction_pump(model, every)
    });
    if let Some(churn) = &config.slab_churn {
        apollo.attach_slab_with(Arc::clone(&churn.store), Duration::from_secs(1), churn.retention);
    }

    // A small pool of trace series shared round-robin by the fleet keeps
    // setup O(pool) instead of O(vertices) while every vertex still sees
    // realistic bursty SAR data.
    const DEVICES: [DeviceKind; 6] = [
        DeviceKind::Nvme,
        DeviceKind::Ssd,
        DeviceKind::Hdd,
        DeviceKind::BurstBuffer,
        DeviceKind::Pfs,
        DeviceKind::Ram,
    ];
    let samples = config.horizon.as_secs() as usize + 8;
    let pool: Vec<_> = (0..32u64)
        .map(|i| {
            fio::trace(
                DEVICES[(i as usize) % DEVICES.len()],
                SarMetric::ALL[(i as usize) % SarMetric::ALL.len()],
                samples,
                config.seed ^ (i.wrapping_mul(0x9E37_79B9)),
            )
        })
        .collect();

    let mut fleet: Vec<Arc<FactVertex>> = Vec::with_capacity(config.vertices);
    for i in 0..config.vertices {
        let name = vertex_name(i);
        let base: Arc<dyn MetricSource> = Arc::new(
            TraceSource::new(name.clone(), pool[i % pool.len()].clone())
                .with_cost(Duration::from_micros(20)),
        );
        let source: Arc<dyn MetricSource> = match compiled.plan_for(&name) {
            Some(plan) => Arc::new(FlakySource::new(base, plan.clone(), config.seed ^ i as u64)),
            None => base,
        };
        // Stagger cadences over seven phases so timers don't fire in
        // lockstep.
        let every = config.poll_interval + Duration::from_millis(53 * (i as u64 % 7));
        let mut spec = FactVertexSpec::fixed(name, source, every)
            .with_supervision(SupervisorConfig { seed: config.seed, ..config.supervision.clone() });
        if let Some(pump) = &pump {
            if config.pump_stride > 0 && i % config.pump_stride == 0 {
                spec = spec.with_batched_prediction(pump);
            }
        }
        fleet.push(apollo.register_fact(spec).expect("soak vertex names are unique"));
    }
    if config.insight_stride > 0 {
        for b in (0..config.vertices).step_by(config.insight_stride.max(4)) {
            let inputs: Vec<String> = (b..(b + 4).min(config.vertices)).map(vertex_name).collect();
            apollo
                .register_insight(InsightVertexSpec::sum_of(
                    format!("soak/insight{b:05}"),
                    inputs,
                    config.poll_interval * 2,
                ))
                .expect("soak insight names are unique");
        }
    }
    // Standing queries over the first soak topics: one aggregate arm and
    // one COUNT arm each, pumped at poll cadence, checked for rescan
    // equivalence at every checkpoint.
    let mut continuous: Vec<Arc<apollo_core::continuous::ContinuousVertex>> = Vec::new();
    for c in 0..config.continuous_queries.min(config.vertices / 2) {
        let a = vertex_name(2 * c);
        let b = vertex_name(2 * c + 1);
        let sql = format!("SELECT AVG(metric) FROM {a} UNION SELECT COUNT(*) FROM {b}");
        let cv = apollo
            .register_continuous(format!("soak/cq{c:02}"), &sql, config.poll_interval)
            .expect("soak continuous queries register");
        if config.continuous_break_fold {
            cv.set_break_fold(true);
        }
        continuous.push(cv);
    }
    deploy_self_observer(&mut apollo, config.checkpoint_every.min(Duration::from_secs(5)))
        .expect("self-observer registers");

    // --- Ledger cursors over sampled topics --------------------------
    let faulted: Vec<String> = compiled.plans().keys().cloned().collect();
    let mut sampled: Vec<String> = faulted
        .iter()
        .filter(|name| name.starts_with("soak/"))
        .take(config.scan_topics)
        .cloned()
        .collect();
    if config.vertices > 0 {
        let stride = (config.vertices / config.scan_topics.max(1)).max(1);
        let mut i = 0;
        while sampled.len() < config.scan_topics && i < config.vertices {
            let name = vertex_name(i);
            if !sampled.contains(&name) {
                sampled.push(name);
            }
            i += stride;
        }
    }
    let broker = apollo.broker();
    // Each sampled topic's ledger cursor: the last entry it drained.
    let mut cursors: Vec<(String, Option<StreamId>)> =
        sampled.into_iter().map(|t| (t, None)).collect();
    let mut ledger = ScanLedger::new();

    // Vertices with a fault plan, and when their source heals for good.
    let healed_at: Vec<(usize, u64)> = fleet
        .iter()
        .enumerate()
        .filter_map(|(i, _)| {
            compiled.plan_for(&vertex_name(i)).and_then(|p| p.healed_after_ns()).map(|ns| (i, ns))
        })
        .collect();

    let poll_hist = apollo.metrics().histogram("score.poll_ns");
    let dispatch_hist = apollo.metrics().histogram("runtime.timer.dispatch_lag_ns");
    let recoveries_ctr = apollo.metrics().counter("health.quarantine_recoveries");

    // --- Drive the run -----------------------------------------------
    let horizon_ns = config.horizon.as_nanos() as u64;
    let cp_ns = (config.checkpoint_every.as_nanos() as u64).max(1);
    let deadline_ns = config.recovery_deadline.as_nanos() as u64;
    let perts = compiled.perturbations();
    let mut pert_idx = 0usize;
    let mut slow_subs: Vec<SlowSub> = Vec::new();
    let mut scan_violations: Vec<String> = Vec::new();
    let mut checkpoints: Vec<Checkpoint> = Vec::new();
    let mut peak_memory = 0usize;
    let mut memory_violations: Vec<String> = Vec::new();
    let mut recovery_violations: Vec<String> = Vec::new();
    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    let mut depth_violations: Vec<String> = Vec::new();
    let mut churn_gen = 0u64;
    let mut churn_registered = 0u64;
    let mut churn_peak = 0usize;
    let mut churn_violations: Vec<String> = Vec::new();
    let mut continuous_checks = 0u64;
    let mut continuous_violations: Vec<String> = Vec::new();
    let mut next_cp = cp_ns;
    // The number of topics only grows during the run; size the ceiling
    // for the final population (vertices + insights + self topics).
    let ceiling = config.memory_ceiling_bytes(broker.topic_names().len().max(config.vertices + 8));

    loop {
        let now = apollo.now();
        let mut next = horizon_ns;
        if let Some(p) = perts.get(pert_idx) {
            next = next.min(p.at_ns.max(now + 1));
        }
        for slow in &slow_subs {
            next = next.min(slow.release_ns);
        }
        next = next.min(next_cp).max(now);
        if next > now {
            apollo.run_for(Duration::from_nanos(next - now));
        }
        let now = apollo.now();

        // Release slow subscribers whose hold expired (the rest at the
        // horizon): each takes every row published since it attached.
        slow_subs.retain(|slow| {
            let due = slow.release_ns <= now;
            if due {
                scan_violations.extend(slow.release(&broker));
            }
            !due
        });

        // Act out due perturbations.
        while let Some(p) = perts.get(pert_idx).filter(|p| p.at_ns <= now) {
            let now_ms = now / 1_000_000;
            match &p.kind {
                PerturbationKind::ClockSkew { topic, regression, appends } => {
                    // A producer whose wall clock stepped backwards:
                    // Stream::append must clamp, not corrupt ordering.
                    let skewed_ms = now_ms.saturating_sub(regression.as_millis() as u64);
                    for _ in 0..*appends {
                        broker.publish(topic, skewed_ms, Record::measured(now, -1.0).encode());
                    }
                }
                PerturbationKind::SlowConsumer { topic, hold } => {
                    let sub = broker.subscribe(topic);
                    let info = broker.topic_info(topic).expect("subscribing created it");
                    let lapped =
                        apollo.metrics().counter(&format!("streams.topic.{topic}.cursor_lapped"));
                    slow_subs.push(SlowSub {
                        release_ns: now + hold.as_nanos() as u64,
                        topic: topic.clone(),
                        sub,
                        from: info.last_id,
                        published: info.published,
                        lapped_before: lapped.get(),
                        lapped,
                    });
                }
                PerturbationKind::BackpressureBurst { topic, records } => {
                    for _ in 0..*records {
                        broker.publish(topic, now_ms, Record::measured(now, -2.0).encode());
                    }
                }
            }
            pert_idx += 1;
        }

        let at_checkpoint = now >= next_cp || now >= horizon_ns;
        if at_checkpoint {
            // Drain the ledger cursors (live exactly-once check feed).
            for (topic, cursor) in &mut cursors {
                let entries = broker.read_after(topic, *cursor, usize::MAX);
                if let Some(last) = entries.last() {
                    *cursor = Some(last.id);
                }
                ledger.observe(topic, entries.iter().map(|e| e.id));
            }
            // Memory / depth bounds.
            let memory = broker.approx_memory_bytes();
            peak_memory = peak_memory.max(memory);
            if memory > ceiling {
                memory_violations
                    .push(format!("t={}s: {memory} B > {ceiling} B", now / 1_000_000_000));
            }
            for (topic, _) in &cursors {
                let len = broker.topic_info(topic).map_or(0, |i| i.window_len);
                if len > config.window_bound() {
                    depth_violations
                        .push(format!("{topic}: window {len} > {}", config.window_bound()));
                }
            }
            // Monotone recovery: healed sources must be Healthy again
            // within the configured deadline.
            let mut quarantined = 0usize;
            for f in &fleet {
                if f.health() == HealthState::Quarantined {
                    quarantined += 1;
                }
            }
            for (i, heal_ns) in &healed_at {
                if now > heal_ns.saturating_add(deadline_ns)
                    && fleet[*i].health() != HealthState::Healthy
                    && flagged.insert(*i)
                {
                    recovery_violations.push(format!(
                        "{}: {} at t={}s, healed at {}s (+{}s deadline)",
                        vertex_name(*i),
                        fleet[*i].health(),
                        now / 1_000_000_000,
                        heal_ns / 1_000_000_000,
                        deadline_ns / 1_000_000_000,
                    ));
                }
            }
            // Slab churn: register a generation of transient series,
            // write into them, verify the read-back, and drop the
            // handles. Compaction (running off the attached lifecycle's
            // timers) must hold dirent occupancy at a fixed point, and a
            // reclaimed ring handed to a new series must come back empty
            // — never serving a predecessor's checksummed payloads.
            if let Some(churn) = &config.slab_churn {
                let now_ms = now / 1_000_000;
                for k in 0..churn.series_per_checkpoint {
                    let name = format!("soak/churn/g{churn_gen:04}/s{k:03}");
                    match churn.store.series(&name) {
                        Ok(series) => {
                            churn_registered += 1;
                            if series.appended() != 0 || series.last_id().is_some() {
                                churn_violations.push(format!(
                                    "{name}: fresh series carries {} prior entries (reclaimed ring leaked)",
                                    series.appended()
                                ));
                            }
                            for r in 0..churn.records_per_series {
                                series.record(
                                    StreamId::new(now_ms + r, k as u64),
                                    &Record::measured(now, r as f64).encode(),
                                );
                            }
                            let got = series.range(StreamId::MIN, StreamId::MAX);
                            let want =
                                churn.records_per_series.min(u64::from(churn.store.config().slots))
                                    as usize;
                            if got.len() != want || !got.windows(2).all(|w| w[0].id < w[1].id) {
                                churn_violations.push(format!(
                                    "{name}: read back {} of {want} entries (stale or torn ring)",
                                    got.len()
                                ));
                            }
                        }
                        Err(e) => churn_violations
                            .push(format!("{name}: directory refused a transient series: {e}")),
                    }
                }
                churn_gen += 1;
                let st = churn.store.stats();
                let occupied = st.series_live + st.series_tombstoned;
                churn_peak = churn_peak.max(occupied);
                if occupied > churn.max_live_series {
                    churn_violations.push(format!(
                        "t={}s: {occupied} series dirents occupied > fixed point {}",
                        now / 1_000_000_000,
                        churn.max_live_series
                    ));
                }
            }
            // Continuous-query equivalence: pump each standing query (read
            // its inputs to their tails here, at a point where the event
            // loop is idle) and demand its result, served through the scan
            // cache, be bit-identical to an uncached rescan of the same
            // query. Results are compared through their Debug rendering,
            // which round-trips f64 exactly — a single-bit divergence
            // shows up.
            for cv in &continuous {
                cv.pump(now / 1_000_000);
                let standing = cv.result();
                let fresh =
                    apollo_query::exec::QueryEngine::new(broker.as_ref()).execute(&cv.query());
                continuous_checks += 1;
                if format!("{standing:?}") != format!("{fresh:?}") {
                    continuous_violations.push(format!(
                        "{}: t={}s standing result diverges from rescan",
                        cv.name(),
                        now / 1_000_000_000,
                    ));
                }
            }
            checkpoints.push(Checkpoint {
                t_ns: now,
                memory_bytes: memory,
                p99_poll_ns: poll_hist.quantile(0.99),
                quarantined,
            });
            while next_cp <= now {
                next_cp += cp_ns;
            }
        }
        if now >= horizon_ns {
            break;
        }
    }

    // --- Final verification ------------------------------------------
    for slow in &slow_subs {
        scan_violations.extend(slow.release(&broker));
    }
    let mut scanned_entries = 0u64;
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for (topic, _) in &cursors {
        // Authoritative stitch over archive + window, under the window lock.
        let full = broker.range(topic, StreamId::MIN, StreamId::MAX);
        let published = broker.topic_info(topic).map_or(0, |info| info.published);
        if full.len() as u64 != published {
            scan_violations.push(format!(
                "{topic}: full stitch has {} entries, {published} were published",
                full.len(),
            ));
        }
        let ids: Vec<StreamId> = full.iter().map(|e| e.id).collect();
        let (lost, phantom) = ledger.verify(topic, &ids);
        if lost > 0 || phantom > 0 {
            scan_violations.push(format!("{topic}: consumer lost {lost}, phantom {phantom}"));
        }
        scanned_entries += full.len() as u64;
        for e in &full {
            digest = fnv(digest, &e.id.ms.to_le_bytes());
            digest = fnv(digest, &e.id.seq.to_le_bytes());
            digest = fnv(digest, &e.payload);
        }
    }
    if ledger.duplicates() > 0 {
        scan_violations.push(format!("{} duplicated deliveries", ledger.duplicates()));
    }

    let stats = apollo.stats();
    let clock_regressions: u64 = broker.info().iter().map(|info| info.clock_regressions).sum();
    // Publish volume of the soak fleet only: the self-observer's
    // poll-p99 vertex republishes *wall-clock-measured* latencies, so
    // folding service-wide publishes into the digest would make two
    // otherwise bit-identical runs diverge on scheduler noise.
    let fleet_published: u64 = fleet.iter().map(|f| f.published()).sum();
    digest = fnv(digest, &fleet_published.to_le_bytes());
    digest = fnv(digest, &stats.poll_failures.to_le_bytes());
    digest = fnv(digest, &stats.quarantine_recoveries.to_le_bytes());
    digest = fnv(digest, &clock_regressions.to_le_bytes());

    let verdicts = vec![
        InvariantVerdict {
            name: "scan_exactly_once",
            pass: scan_violations.is_empty(),
            detail: if scan_violations.is_empty() {
                format!("{} topics, {scanned_entries} entries, 0 lost, 0 duplicated", cursors.len())
            } else {
                scan_violations.join("; ")
            },
        },
        InvariantVerdict {
            name: "monotone_recovery",
            pass: recovery_violations.is_empty(),
            detail: if recovery_violations.is_empty() {
                format!(
                    "{} faulted vertices all Healthy within {}s of healing ({} recoveries)",
                    healed_at.len(),
                    deadline_ns / 1_000_000_000,
                    recoveries_ctr.get(),
                )
            } else {
                recovery_violations.join("; ")
            },
        },
        InvariantVerdict {
            name: "bounded_memory",
            pass: memory_violations.is_empty() && depth_violations.is_empty(),
            detail: if memory_violations.is_empty() && depth_violations.is_empty() {
                format!("peak {peak_memory} B ≤ ceiling {ceiling} B; window depths bounded")
            } else {
                memory_violations
                    .iter()
                    .chain(depth_violations.iter())
                    .cloned()
                    .collect::<Vec<_>>()
                    .join("; ")
            },
        },
        InvariantVerdict {
            name: "no_escaped_panics",
            pass: stats.callback_panics == 0,
            detail: format!("{} callback panics escaped", stats.callback_panics),
        },
        InvariantVerdict {
            name: "continuous_rescan_equivalence",
            pass: continuous_violations.is_empty(),
            detail: if continuous.is_empty() {
                "disabled (no continuous queries configured)".to_string()
            } else if continuous_violations.is_empty() {
                format!(
                    "{} standing queries bit-identical to rescan across {continuous_checks} \
                     checkpoint comparisons",
                    continuous.len()
                )
            } else {
                continuous_violations.join("; ")
            },
        },
        InvariantVerdict {
            name: "slab_churn_fixed_point",
            pass: churn_violations.is_empty(),
            detail: match &config.slab_churn {
                None => "disabled (no slab churn configured)".to_string(),
                Some(c) if churn_violations.is_empty() => format!(
                    "{churn_registered} transient series churned over {churn_gen} generations; \
                     peak dirent occupancy {churn_peak} ≤ {}; reclaimed rings served no stale \
                     payloads",
                    c.max_live_series
                ),
                Some(_) => churn_violations.join("; "),
            },
        },
    ];

    SoakOutcome {
        schedule: compiled.name().to_string(),
        seed: config.seed,
        vertices: config.vertices,
        fault_kinds: compiled.fault_kind_names(),
        faulted_sources: compiled.plans().len(),
        verdicts,
        checkpoints,
        p99_poll_ns: poll_hist.quantile(0.99),
        p99_dispatch_ns: dispatch_hist.quantile(0.99),
        peak_memory_bytes: peak_memory,
        memory_ceiling_bytes: ceiling,
        quarantine_recoveries: recoveries_ctr.get(),
        facts_published: fleet_published,
        scanned_entries,
        clock_regressions,
        slab_peak_series: churn_peak,
        slab_reclaimed_series: apollo.metrics().counter("streams.slab.reclaimed_series").get(),
        continuous_checks,
        digest,
    }
}

/// The standard composed soak scenario: cascading rack loss, correlated
/// corrupt flaps, a latency storm, clock skew, slow consumers, and
/// backpressure bursts over the first `vertices` soak topics — ≥3
/// composed fault kinds on any non-trivial fleet.
pub fn standard_schedule(vertices: usize, seed: u64, horizon: Duration) -> ChaosSchedule {
    use apollo_cluster::fault::FaultKind;
    let name = |i: usize| vertex_name(i % vertices.max(1));
    // Target vertices spread across the fleet; group sizes scale gently
    // with fleet size so big soaks see proportionate blast radii.
    let group = (vertices / 64).clamp(2, 32);
    let rack = |r: usize| (0..group).map(|k| name(r * group + k)).collect::<Vec<_>>();
    let pct = |p: usize| name(vertices.saturating_mul(p) / 100);
    ChaosSchedule::new("standard", seed, horizon)
        .cascading_loss(
            vec![rack(0), rack(1), rack(2)],
            Duration::from_secs(10),
            Duration::from_secs(8),
            Duration::from_secs(12),
        )
        .correlated_flaps(
            vec![pct(50), pct(51), pct(52), pct(53)],
            FaultKind::Corrupt,
            Duration::from_secs(20),
            Duration::from_secs(15),
            Duration::from_secs(4),
            3,
        )
        .latency_storm(
            vec![pct(75), pct(76)],
            Duration::from_millis(40),
            Duration::from_secs(30),
            Duration::from_secs(55),
        )
        .clock_skew(vec![name(0), pct(25)], Duration::from_secs(40), Duration::from_secs(30), 16)
        .slow_consumer_storm(
            vec![name(0), pct(50)],
            Duration::from_secs(35),
            Duration::from_secs(20),
        )
        .backpressure_burst(vec![name(1), pct(75)], Duration::from_secs(50), 256)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_counts_losses_duplicates_and_phantoms() {
        let id = |ms: u64, seq: u64| StreamId { ms, seq };
        let mut ledger = ScanLedger::new();
        ledger.observe("t", [id(1, 0), id(2, 0), id(2, 0), id(9, 0)]);
        assert_eq!(ledger.duplicates(), 1);
        assert_eq!(ledger.seen("t"), 3);
        let (lost, phantom) = ledger.verify("t", &[id(1, 0), id(2, 0), id(3, 0)]);
        assert_eq!(lost, 1, "id 3 never observed");
        assert_eq!(phantom, 1, "id 9 observed but not authoritative");
        assert_eq!(ledger.verify("missing", &[id(1, 0)]), (1, 0));
    }

    #[test]
    fn tiny_soak_passes_all_invariants() {
        let config = SoakConfig {
            vertices: 48,
            horizon: Duration::from_secs(60),
            scan_topics: 8,
            ..SoakConfig::default()
        };
        let schedule = standard_schedule(config.vertices, config.seed, config.horizon);
        let outcome = run(&config, &schedule).unwrap();
        assert!(outcome.all_pass(), "verdicts: {:#?}", outcome.verdicts);
        assert!(outcome.fault_kinds.len() >= 3, "composed kinds: {:?}", outcome.fault_kinds);
        assert!(outcome.scanned_entries > 0);
        assert!(outcome.clock_regressions > 0, "skew perturbation exercised the clamp");
        assert_eq!(outcome.slab_peak_series, 0, "no churn layer configured");
        assert!(
            outcome.continuous_checks >= 2 * 6,
            "2 standing queries compared at every checkpoint: {}",
            outcome.continuous_checks
        );
    }

    #[test]
    fn broken_continuous_fold_fails_the_equivalence_verdict() {
        let config = SoakConfig {
            vertices: 24,
            horizon: Duration::from_secs(60),
            scan_topics: 4,
            // Move every standing result by one ULP: it MUST diverge from
            // rescans — teeth for the invariant itself.
            continuous_break_fold: true,
            ..SoakConfig::default()
        };
        let schedule = standard_schedule(config.vertices, config.seed, config.horizon);
        let outcome = run(&config, &schedule).unwrap();
        let v = outcome.verdict("continuous_rescan_equivalence").unwrap();
        assert!(!v.pass, "a perturbed result must blow the equivalence check: {}", v.detail);
    }

    /// A 60 s churned soak over a fresh 64-series store keeping retired
    /// series for `retention_ms`; the store file is removed afterwards.
    fn churned_soak(tag: &str, retention_ms: u64) -> SoakOutcome {
        use apollo_streams::SlabConfig;
        let path =
            std::env::temp_dir().join(format!("apollo-bench-{tag}-{}.slab", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let config = SlabConfig { max_series: 64, slots: 64, ..SlabConfig::default() };
        let store = SlabStore::create(&path, config).unwrap();
        let config = SoakConfig {
            vertices: 24,
            horizon: Duration::from_secs(60),
            scan_topics: 4,
            slab_churn: Some(SlabChurnConfig {
                store: Arc::clone(&store),
                retention: CompactPolicy { retention_ms },
                series_per_checkpoint: 8,
                records_per_series: 16,
                max_live_series: 24,
            }),
            ..SoakConfig::default()
        };
        let schedule = standard_schedule(config.vertices, config.seed, config.horizon);
        let outcome = run(&config, &schedule).unwrap();
        let _ = std::fs::remove_file(store.path());
        outcome
    }

    #[test]
    fn churned_soak_reaches_a_gc_fixed_point() {
        let outcome = churned_soak("soak-churn", 2_000);
        let v = outcome.verdict("slab_churn_fixed_point").unwrap();
        assert!(v.pass, "{}", v.detail);
        assert!(outcome.all_pass(), "verdicts: {:#?}", outcome.verdicts);
        assert!(outcome.slab_reclaimed_series > 0, "compaction reclaimed churned series");
        assert!(
            outcome.slab_peak_series > 0 && outcome.slab_peak_series <= 24,
            "peak {}",
            outcome.slab_peak_series
        );
    }

    #[test]
    fn churn_without_compaction_fails_the_fixed_point_verdict() {
        // GC off: churn accumulates, so the occupancy fixed point MUST
        // fail — teeth for the invariant itself.
        let outcome = churned_soak("soak-teeth", u64::MAX);
        let v = outcome.verdict("slab_churn_fixed_point").unwrap();
        assert!(!v.pass, "GC disabled must blow the occupancy ceiling: {}", v.detail);
        assert_eq!(outcome.slab_reclaimed_series, 0, "nothing compacts with GC off");
        assert!(outcome.slab_peak_series > 24, "peak {}", outcome.slab_peak_series);
    }
}
