//! SCoRe vertices.
//!
//! A **Fact Vertex** hooks into a resource (flow ① of Figure 1b): its
//! Monitor Hook samples a [`MetricSource`], the Fact Builder turns the
//! metric into a `(timestamp, value, measured)` record, and the record is
//! linearized and published onto the vertex's fact queue (②) — but only
//! when the value changed (§3.2.1: "Facts and Insights are added only if
//! there is a change from their previous value").
//!
//! An **Insight Vertex** subscribes to fact queues and/or other insight
//! queues (③/④), recomputes its insight in the Insight Builder, and
//! publishes to its own insight queue (⑤) for downstream consumption (⑥).
//!
//! Both vertex types are instrumented with a [`PhaseTimer`] so the share
//! of time spent in each internal component can be reported (Figure 4).
//! One sampling decision per `poll`/`pump` gates every clock read of that
//! call, phases and latency histograms alike; counters are exact.

use crate::health::{HealthMonitor, HealthState, SupervisorConfig};
use apollo_adaptive::controller::IntervalController;
use apollo_cluster::metrics::{MetricError, MetricSource};
use apollo_runtime::time::{Phase, PhaseTimer};
use apollo_streams::codec::Record;
use apollo_streams::{Broker, Publisher, Subscription};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Numeric encoding of a [`HealthState`] for gauge export.
fn health_code(state: HealthState) -> f64 {
    match state {
        HealthState::Healthy => 0.0,
        HealthState::Degraded => 1.0,
        HealthState::Quarantined => 2.0,
    }
}

/// Pre-resolved instrument handles for a fact vertex.
struct FactObs {
    /// This vertex's poll wall-clock latency (`core.vertex.<name>.poll_ns`).
    poll_ns: apollo_obs::Histogram,
    /// Fleet-wide poll latency (`score.poll_ns`) — the p99 the
    /// self-observer republishes as a fact.
    poll_ns_all: apollo_obs::Histogram,
    /// Samples suppressed by the change filter.
    suppressed: apollo_obs::Counter,
    /// Health state changes (any direction).
    health_transitions: apollo_obs::Counter,
    /// Fleet-wide Quarantined → Healthy recoveries
    /// (`health.quarantine_recoveries`) — the counter the soak harness's
    /// monotone-recovery invariant reads.
    quarantine_recoveries: apollo_obs::Counter,
    /// Current health state (0 healthy, 1 degraded, 2 quarantined).
    health_state: apollo_obs::Gauge,
}

/// Pre-resolved instrument handles for an insight vertex.
struct InsightObs {
    /// This vertex's pump wall-clock latency (`core.vertex.<name>.pump_ns`).
    pump_ns: apollo_obs::Histogram,
    /// Fleet-wide pump latency (`score.pump_ns`).
    pump_ns_all: apollo_obs::Histogram,
}

/// A Fact Vertex: monitor hook + fact builder + fact queue.
pub struct FactVertex {
    source: Arc<dyn MetricSource>,
    controller: parking_lot::Mutex<Box<dyn IntervalController>>,
    /// This vertex's fact queue, resolved on first publish: a vertex that
    /// never published has no topic.
    publisher: Publisher,
    timer: PhaseTimer,
    last_published: parking_lot::Mutex<Option<f64>>,
    published: AtomicU64,
    suppressed: AtomicU64,
    failures: AtomicU64,
    retries: AtomicU64,
    stale_published: AtomicU64,
    health: parking_lot::Mutex<HealthMonitor>,
    /// `SupervisorConfig::poll_timeout` / `max_retries`, copied out at
    /// construction: immutable, and read on every poll.
    poll_timeout: Duration,
    max_retries: u32,
    /// When false (ablation), every sample publishes even if unchanged.
    publish_on_change_only: bool,
    obs: OnceLock<FactObs>,
}

impl FactVertex {
    /// Create a fact vertex publishing to topic `name`, supervised with
    /// the default [`SupervisorConfig`].
    pub fn new(
        name: impl Into<String>,
        source: Arc<dyn MetricSource>,
        controller: Box<dyn IntervalController>,
        broker: Arc<Broker>,
        publish_on_change_only: bool,
    ) -> Self {
        Self::supervised(
            name,
            source,
            controller,
            broker,
            publish_on_change_only,
            SupervisorConfig::default(),
        )
    }

    /// [`FactVertex::new`] with an explicit supervision policy.
    pub fn supervised(
        name: impl Into<String>,
        source: Arc<dyn MetricSource>,
        controller: Box<dyn IntervalController>,
        broker: Arc<Broker>,
        publish_on_change_only: bool,
        supervision: SupervisorConfig,
    ) -> Self {
        Self {
            source,
            controller: parking_lot::Mutex::new(controller),
            publisher: broker.publisher(name),
            timer: PhaseTimer::new(),
            last_published: parking_lot::Mutex::new(None),
            published: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            stale_published: AtomicU64::new(0),
            poll_timeout: supervision.poll_timeout,
            max_retries: supervision.max_retries,
            health: parking_lot::Mutex::new(HealthMonitor::new(supervision)),
            publish_on_change_only,
            obs: OnceLock::new(),
        }
    }

    /// Attach metric instruments: per-vertex poll latency
    /// (`core.vertex.<name>.poll_ns`), fleet-wide poll latency
    /// (`score.poll_ns`), change-filter suppression and health-transition
    /// counters, and a health-state gauge. The histograms hold the sampled
    /// polls; counters are exact. A disabled registry leaves the vertex
    /// uninstrumented. Idempotent; the first call wins.
    pub fn instrument(&self, registry: &apollo_obs::Registry) {
        if !registry.enabled() {
            return;
        }
        let name = self.name();
        let _ = self.obs.set(FactObs {
            poll_ns: registry.histogram(&format!("core.vertex.{name}.poll_ns")),
            poll_ns_all: registry.histogram("score.poll_ns"),
            suppressed: registry.counter(&format!("core.vertex.{name}.suppressed")),
            health_transitions: registry.counter(&format!("core.vertex.{name}.health_transitions")),
            quarantine_recoveries: registry.counter("health.quarantine_recoveries"),
            health_state: registry.gauge(&format!("core.vertex.{name}.health_state")),
        });
    }

    /// Topic / table name of this vertex's queue.
    pub fn name(&self) -> &str {
        self.publisher.topic()
    }

    /// Execute one monitoring cycle at time `now_ns`: sample (with bounded
    /// retry and timeout classification), build, maybe publish. Returns the
    /// interval until the next cycle — the controller's choice while
    /// Healthy, a supervised backoff/probe interval otherwise.
    ///
    /// A sampled poll also charges the monitor-hook phase the modelled
    /// `sample_cost` of the source (a real hook does syscalls; a simulated
    /// one is a lookup), so anatomy fractions match a live deployment's.
    pub fn poll(&self, now_ns: u64) -> Duration {
        let sampled = self.timer.begin_call();
        let obs = self.obs.get();
        let start = (sampled && obs.is_some()).then(std::time::Instant::now);
        let next = self.poll_inner(now_ns, sampled, obs);
        if let (Some(start), Some(obs)) = (start, obs) {
            let dur = start.elapsed().as_nanos() as u64;
            obs.poll_ns.observe(dur);
            obs.poll_ns_all.observe(dur);
        }
        next
    }

    fn poll_inner(&self, now_ns: u64, sampled: bool, obs: Option<&FactObs>) -> Duration {
        let (poll_timeout, max_retries) = (self.poll_timeout, self.max_retries);

        // ① Monitor hook. An attempt whose modelled cost exceeds the poll
        // timeout counts as a timeout even though it returned a value: a
        // live deployment would have abandoned the hook call.
        let mut outcome: Result<f64, MetricError> = Err(MetricError::Unavailable);
        for attempt in 0..=max_retries {
            let reading =
                self.timer.time(sampled, Phase::MonitorHook, || self.source.sample(now_ns));
            let cost = self.source.sample_cost();
            if sampled {
                self.timer.record(Phase::MonitorHook, cost.as_nanos() as u64);
            }
            outcome = match reading {
                Ok(_) if cost > poll_timeout => Err(MetricError::Timeout(cost)),
                other => other,
            };
            if outcome.is_ok() {
                break;
            }
            if attempt < max_retries {
                self.retries.fetch_add(1, Ordering::Relaxed);
            }
        }

        let value = match outcome {
            Ok(v) => v,
            Err(_) => return self.on_poll_failure(now_ns, sampled, obs),
        };

        // Fact builder.
        let record =
            self.timer.time(sampled, Phase::Build, || Record::measured(now_ns, value).encode());

        // ② Publish, change-filtered.
        let mut last = self.last_published.lock();
        let changed = last.is_none_or(|prev| prev != value);
        if changed || !self.publish_on_change_only {
            self.timer.time(sampled, Phase::Publish, || {
                self.publisher.publish(now_ns / 1_000_000, record);
            });
            self.published.fetch_add(1, Ordering::Relaxed);
            *last = Some(value);
        } else {
            self.suppressed.fetch_add(1, Ordering::Relaxed);
            if let Some(obs) = obs {
                obs.suppressed.inc();
            }
        }
        drop(last);

        self.health_step(obs, HealthMonitor::on_success);
        self.controller.lock().on_sample(value)
    }

    /// All retries exhausted: republish the last-known value marked stale
    /// (downstream consumers see an explicit degraded signal, not silence),
    /// advance the health machine, and let it pick the next interval.
    fn on_poll_failure(&self, now_ns: u64, sampled: bool, obs: Option<&FactObs>) -> Duration {
        self.failures.fetch_add(1, Ordering::Relaxed);
        if let Some(prev) = *self.last_published.lock() {
            let record =
                self.timer.time(sampled, Phase::Build, || Record::stale(now_ns, prev).encode());
            self.timer.time(sampled, Phase::Publish, || {
                self.publisher.publish(now_ns / 1_000_000, record);
            });
            self.stale_published.fetch_add(1, Ordering::Relaxed);
        }
        let normal = self.controller.lock().current_interval();
        self.health_step(obs, |h| {
            h.on_failure();
            h.next_interval(normal)
        })
    }

    /// Advance the health machine and export a state change read off the
    /// same lock hold (the gauge starts at 0, the code of Healthy).
    fn health_step<R>(
        &self,
        obs: Option<&FactObs>,
        step: impl FnOnce(&mut HealthMonitor) -> R,
    ) -> R {
        let mut health = self.health.lock();
        let before = health.state();
        let out = step(&mut health);
        let after = health.state();
        drop(health);
        if let Some(obs) = obs.filter(|_| after != before) {
            obs.health_transitions.inc();
            if before == HealthState::Quarantined && after == HealthState::Healthy {
                obs.quarantine_recoveries.inc();
            }
            obs.health_state.set(health_code(after));
        }
        out
    }

    /// Publish a Delphi-predicted value between polls (flow ① with the
    /// prediction path of Figure 1b). Not change-filtered: a prediction is
    /// only emitted when the model believes the value moved.
    pub fn publish_predicted(&self, now_ns: u64, value: f64) {
        self.publisher.publish(now_ns / 1_000_000, Record::predicted(now_ns, value).encode());
        self.published.fetch_add(1, Ordering::Relaxed);
    }

    /// The most recently sampled value (the change filter guarantees the
    /// cached publish value equals the latest sample).
    pub fn last_value(&self) -> Option<f64> {
        *self.last_published.lock()
    }

    /// Records published so far.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Samples suppressed by the change filter.
    pub fn suppressed(&self) -> u64 {
        self.suppressed.load(Ordering::Relaxed)
    }

    /// Polls that failed after exhausting all retries.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// In-poll retry attempts taken.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Stale (last-known-value) records published during outages.
    pub fn stale_published(&self) -> u64 {
        self.stale_published.load(Ordering::Relaxed)
    }

    /// Current supervision state of this vertex's hook.
    pub fn health(&self) -> HealthState {
        self.health.lock().state()
    }

    /// Times the vertex recovered from quarantine.
    pub fn recoveries(&self) -> u64 {
        self.health.lock().recoveries()
    }

    /// Monitor-hook invocations (the monitoring *cost*).
    pub fn hook_calls(&self) -> u64 {
        self.source.samples_taken()
    }

    /// The anatomy instrumentation.
    pub fn phase_timer(&self) -> &PhaseTimer {
        &self.timer
    }

    /// Current interval of the attached controller.
    pub fn current_interval(&self) -> Duration {
        self.controller.lock().current_interval()
    }
}

impl std::fmt::Debug for FactVertex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FactVertex")
            .field("name", &self.name())
            .field("published", &self.published())
            .field("suppressed", &self.suppressed())
            .field("health", &self.health())
            .finish()
    }
}

/// The inputs handed to an insight builder on each recomputation, keyed
/// by slot: the position of an input topic in [`InsightVertex::inputs`].
#[derive(Debug, Default)]
pub struct InsightInputs {
    /// The input topics, sorted by name: the order aggregations over all
    /// inputs (e.g. [`InsightInputs::sum`]) fold in — float accumulation
    /// is not associative, so it must not depend on arrival.
    topics: Vec<String>,
    /// Latest record seen per slot.
    latest: Vec<Option<Record>>,
    /// Records newly consumed in this cycle as `(slot, record)`, in the
    /// order they were drained (per topic, arrival order).
    pub fresh: Vec<(usize, Record)>,
    /// The pump's drain buffer, empty between pumps.
    drained: Vec<apollo_streams::Entry>,
}

impl InsightInputs {
    /// Latest value of an input topic, if seen.
    pub fn value(&self, topic: &str) -> Option<f64> {
        let slot = self.topics.binary_search_by(|t| t.as_str().cmp(topic)).ok()?;
        self.latest[slot].map(|r| r.value)
    }

    /// True when every listed topic has been seen at least once.
    pub fn all_present(&self, topics: &[String]) -> bool {
        topics.iter().all(|t| self.value(t).is_some())
    }

    /// Sum of the latest values of all inputs (the classic capacity
    /// aggregation insight).
    pub fn sum(&self) -> f64 {
        self.latest.iter().flatten().map(|r| r.value).sum()
    }
}

type Builder = Box<dyn FnMut(&InsightInputs) -> Option<f64> + Send>;

/// An Insight Vertex: subscriptions + insight builder + insight queue.
pub struct InsightVertex {
    /// Sorted and de-duplicated; a topic's position is its slot.
    inputs: Vec<String>,
    subscriptions: Vec<Subscription>,
    builder: parking_lot::Mutex<Builder>,
    state: parking_lot::Mutex<InsightInputs>,
    /// This vertex's insight queue, resolved on first publish.
    publisher: Publisher,
    timer: PhaseTimer,
    last_published: parking_lot::Mutex<Option<f64>>,
    published: AtomicU64,
    recomputes: AtomicU64,
    obs: OnceLock<InsightObs>,
}

impl InsightVertex {
    /// Create an insight vertex named `name` consuming `inputs` topics.
    /// Subscriptions are created immediately, so anything published to the
    /// inputs after this call is seen.
    pub fn new(
        name: impl Into<String>,
        inputs: Vec<String>,
        builder: Builder,
        broker: Arc<Broker>,
    ) -> Self {
        let mut inputs = inputs;
        inputs.sort();
        inputs.dedup();
        let subscriptions = inputs.iter().map(|t| broker.subscribe(t)).collect();
        let state = InsightInputs {
            latest: vec![None; inputs.len()],
            topics: inputs.clone(),
            ..InsightInputs::default()
        };
        Self {
            inputs,
            subscriptions,
            builder: parking_lot::Mutex::new(builder),
            state: parking_lot::Mutex::new(state),
            publisher: broker.publisher(name),
            timer: PhaseTimer::new(),
            last_published: parking_lot::Mutex::new(None),
            published: AtomicU64::new(0),
            recomputes: AtomicU64::new(0),
            obs: OnceLock::new(),
        }
    }

    /// Attach metric instruments: per-vertex pump latency
    /// (`core.vertex.<name>.pump_ns`) and the fleet-wide `score.pump_ns`
    /// histogram, over the sampled pumps. A disabled registry leaves the
    /// vertex uninstrumented. Idempotent; the first call wins.
    pub fn instrument(&self, registry: &apollo_obs::Registry) {
        if !registry.enabled() {
            return;
        }
        let _ = self.obs.set(InsightObs {
            pump_ns: registry.histogram(&format!("core.vertex.{}.pump_ns", self.name())),
            pump_ns_all: registry.histogram("score.pump_ns"),
        });
    }

    /// Topic / table name of this vertex's insight queue.
    pub fn name(&self) -> &str {
        self.publisher.topic()
    }

    /// The input topic names, sorted and de-duplicated.
    pub fn inputs(&self) -> &[String] {
        &self.inputs
    }

    /// One processing cycle (flow ③→⑤): drain subscriptions, rebuild the
    /// insight, publish when it changed. Returns true when something new
    /// was consumed.
    pub fn pump(&self, now_ns: u64) -> bool {
        let sampled = self.timer.begin_call();
        let obs = self.obs.get();
        let start = (sampled && obs.is_some()).then(std::time::Instant::now);
        let consumed = self.pump_inner(now_ns, sampled);
        if let (Some(start), Some(obs)) = (start, obs) {
            let dur = start.elapsed().as_nanos() as u64;
            obs.pump_ns.observe(dur);
            obs.pump_ns_all.observe(dur);
        }
        consumed
    }

    fn pump_inner(&self, now_ns: u64, sampled: bool) -> bool {
        let mut state = self.state.lock();
        let consumed = self.timer.time(sampled, Phase::Consume, || {
            let InsightInputs { latest, fresh, drained, .. } = &mut *state;
            fresh.clear();
            for (slot, sub) in self.subscriptions.iter().enumerate() {
                sub.drain_into(drained);
                for entry in drained.drain(..) {
                    if let Ok(r) = Record::decode(&entry.payload) {
                        latest[slot] = Some(r);
                        fresh.push((slot, r));
                    }
                }
            }
            !fresh.is_empty()
        });
        if !consumed {
            return false;
        }
        self.recomputes.fetch_add(1, Ordering::Relaxed);
        let value = {
            let mut builder = self.builder.lock();
            self.timer.time(sampled, Phase::Other, || (builder)(&state))
        };
        if let Some(v) = value {
            let mut last = self.last_published.lock();
            if last.is_none_or(|prev| prev != v) {
                let record =
                    self.timer.time(sampled, Phase::Build, || Record::measured(now_ns, v).encode());
                self.timer.time(sampled, Phase::Publish, || {
                    self.publisher.publish(now_ns / 1_000_000, record);
                });
                self.published.fetch_add(1, Ordering::Relaxed);
                *last = Some(v);
            }
        }
        true
    }

    /// Insights published so far.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Builder invocations.
    pub fn recomputes(&self) -> u64 {
        self.recomputes.load(Ordering::Relaxed)
    }

    /// The anatomy instrumentation.
    pub fn phase_timer(&self) -> &PhaseTimer {
        &self.timer
    }
}

impl std::fmt::Debug for InsightVertex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InsightVertex")
            .field("name", &self.name())
            .field("inputs", &self.inputs)
            .field("published", &self.published())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apollo_adaptive::controller::FixedInterval;
    use apollo_cluster::fault::{FaultKind, FaultPlan, FaultWindow, FlakySource};
    use apollo_cluster::metrics::{ConstSource, TraceSource};
    use apollo_cluster::series::TimeSeries;
    use apollo_streams::StreamConfig;

    fn broker() -> Arc<Broker> {
        Arc::new(Broker::new(StreamConfig::default()))
    }

    fn fixed(secs: u64) -> Box<dyn IntervalController> {
        Box::new(FixedInterval::new(Duration::from_secs(secs)))
    }

    #[test]
    fn fact_vertex_publishes_measured_records() {
        let b = broker();
        let v =
            FactVertex::new("cap", Arc::new(ConstSource::new("c", 7.0)), fixed(1), b.clone(), true);
        let next = v.poll(1_000_000_000);
        assert_eq!(next, Duration::from_secs(1));
        let entry = b.latest("cap").unwrap();
        let r = Record::decode(&entry.payload).unwrap();
        assert_eq!(r.value, 7.0);
        assert!(r.is_measured());
        assert_eq!(v.published(), 1);
        assert_eq!(v.hook_calls(), 1);
    }

    #[test]
    fn change_filter_suppresses_duplicates() {
        let b = broker();
        let v =
            FactVertex::new("cap", Arc::new(ConstSource::new("c", 7.0)), fixed(1), b.clone(), true);
        for i in 0..5 {
            v.poll(i * 1_000_000_000 + 1);
        }
        assert_eq!(v.published(), 1, "constant metric publishes once");
        assert_eq!(v.suppressed(), 4);
        assert_eq!(b.topic_len("cap"), 1);
    }

    #[test]
    fn publish_always_ablation() {
        let b = broker();
        let v = FactVertex::new(
            "cap",
            Arc::new(ConstSource::new("c", 7.0)),
            fixed(1),
            b.clone(),
            false,
        );
        for i in 0..5 {
            v.poll(i * 1_000_000_000 + 1);
        }
        assert_eq!(v.published(), 5);
        assert_eq!(v.suppressed(), 0);
    }

    #[test]
    fn changing_metric_publishes_each_change() {
        let b = broker();
        let series = TimeSeries::from_points(vec![(0, 1.0), (2_000_000_000, 2.0)]);
        let v = FactVertex::new(
            "m",
            Arc::new(TraceSource::new("t", series)),
            fixed(1),
            b.clone(),
            true,
        );
        v.poll(0);
        v.poll(1_000_000_000); // still 1.0 — suppressed
        v.poll(2_000_000_000); // 2.0 — published
        assert_eq!(v.published(), 2);
        assert_eq!(v.suppressed(), 1);
    }

    #[test]
    fn anatomy_is_dominated_by_the_monitor_hook() {
        let b = broker();
        let v = FactVertex::new("cap", Arc::new(ConstSource::new("c", 1.0)), fixed(1), b, true);
        // Ten sampled polls.
        for i in 0..10 * apollo_obs::SAMPLE_PERIOD {
            v.poll(i * 1_000_000_000);
        }
        let rows = v.phase_timer().breakdown();
        assert_eq!(rows[0].0, "monitor_hook", "hook dominates: {rows:?}");
        assert!(rows[0].2 > 0.9, "hook share {:.3} should be ~97.5%", rows[0].2);
    }

    #[test]
    fn predicted_records_are_marked() {
        let b = broker();
        let v =
            FactVertex::new("cap", Arc::new(ConstSource::new("c", 1.0)), fixed(1), b.clone(), true);
        v.publish_predicted(5_000_000, 3.5);
        let r = Record::decode(&b.latest("cap").unwrap().payload).unwrap();
        assert!(!r.is_measured());
        assert_eq!(r.value, 3.5);
    }

    #[test]
    fn insight_vertex_aggregates_inputs() {
        let b = broker();
        let fact_a =
            FactVertex::new("a", Arc::new(ConstSource::new("a", 10.0)), fixed(1), b.clone(), true);
        let fact_b =
            FactVertex::new("b", Arc::new(ConstSource::new("b", 32.0)), fixed(1), b.clone(), true);
        let insight = InsightVertex::new(
            "total",
            vec!["a".into(), "b".into()],
            Box::new(|inputs: &InsightInputs| {
                inputs.all_present(&["a".to_string(), "b".to_string()]).then(|| inputs.sum())
            }),
            b.clone(),
        );
        fact_a.poll(1_000_000_000);
        fact_b.poll(1_000_000_000);
        assert!(insight.pump(2_000_000_000));
        let r = Record::decode(&b.latest("total").unwrap().payload).unwrap();
        assert_eq!(r.value, 42.0);
        assert_eq!(insight.published(), 1);
    }

    #[test]
    fn insight_pump_without_input_is_noop() {
        let b = broker();
        let insight =
            InsightVertex::new("i", vec!["missing".into()], Box::new(|_| Some(1.0)), b.clone());
        assert!(!insight.pump(1));
        assert_eq!(insight.published(), 0);
        assert_eq!(insight.recomputes(), 0);
    }

    #[test]
    fn insight_change_filter() {
        let b = broker();
        let fact =
            FactVertex::new("a", Arc::new(ConstSource::new("a", 5.0)), fixed(1), b.clone(), false);
        let insight = InsightVertex::new(
            "i",
            vec!["a".into()],
            Box::new(|inputs: &InsightInputs| inputs.value("a")),
            b.clone(),
        );
        for i in 0..4 {
            fact.poll(i * 1_000_000_000 + 1);
            insight.pump(i * 1_000_000_000 + 2);
        }
        assert_eq!(insight.recomputes(), 4, "recomputed per fresh fact");
        assert_eq!(insight.published(), 1, "published once: value never changed");
    }

    #[test]
    fn insights_can_chain() {
        let b = broker();
        let fact =
            FactVertex::new("f", Arc::new(ConstSource::new("f", 2.0)), fixed(1), b.clone(), true);
        let mid = InsightVertex::new(
            "mid",
            vec!["f".into()],
            Box::new(|i: &InsightInputs| i.value("f").map(|v| v * 10.0)),
            b.clone(),
        );
        let top = InsightVertex::new(
            "top",
            vec!["mid".into()],
            Box::new(|i: &InsightInputs| i.value("mid").map(|v| v + 1.0)),
            b.clone(),
        );
        fact.poll(1_000_000_000);
        mid.pump(1_100_000_000);
        top.pump(1_200_000_000);
        let r = Record::decode(&b.latest("top").unwrap().payload).unwrap();
        assert_eq!(r.value, 21.0);
    }

    #[test]
    fn failed_polls_publish_stale_records() {
        const NS: u64 = 1_000_000_000;
        let b = broker();
        let plan = FaultPlan::none().with_window(FaultWindow::new(
            Duration::from_secs(2),
            Duration::from_secs(4),
            FaultKind::ErrorBurst,
        ));
        let src = FlakySource::new(Arc::new(ConstSource::new("c", 7.0)), plan, 1);
        let v = FactVertex::new("cap", Arc::new(src), fixed(1), b.clone(), true);
        v.poll(NS);
        assert_eq!(v.health(), HealthState::Healthy);
        v.poll(2 * NS);
        assert_eq!(v.failures(), 1);
        assert_eq!(v.retries(), 2, "default config retries twice in-poll");
        assert_eq!(v.stale_published(), 1);
        assert_eq!(v.health(), HealthState::Degraded);
        let r = Record::decode(&b.latest("cap").unwrap().payload).unwrap();
        assert!(r.is_stale());
        assert_eq!(r.value, 7.0, "stale record carries the last-known value");
        // Recovery: outside the window a single success re-heals.
        v.poll(4 * NS);
        assert_eq!(v.health(), HealthState::Healthy);
    }

    #[test]
    fn hang_is_classified_as_timeout() {
        const NS: u64 = 1_000_000_000;
        let b = broker();
        let plan = FaultPlan::none().with_window(FaultWindow::new(
            Duration::from_secs(1),
            Duration::from_secs(2),
            FaultKind::Hang,
        ));
        let src = FlakySource::new(Arc::new(ConstSource::new("c", 7.0)), plan, 1);
        let v = FactVertex::new("cap", Arc::new(src), fixed(1), b, true);
        v.poll(NS);
        assert_eq!(v.failures(), 1, "a hung sample still counts as a failed poll");
        assert_eq!(v.health(), HealthState::Degraded);
        assert_eq!(v.stale_published(), 0, "no last-known value to republish yet");
    }

    #[test]
    fn persistent_failure_quarantines_then_recovers() {
        const NS: u64 = 1_000_000_000;
        let b = broker();
        let plan = FaultPlan::none().with_window(FaultWindow::new(
            Duration::from_secs(1),
            Duration::from_secs(3),
            FaultKind::ErrorBurst,
        ));
        let src = FlakySource::new(Arc::new(ConstSource::new("c", 7.0)), plan, 1);
        let cfg = SupervisorConfig {
            jitter_frac: 0.0,
            degraded_after: 1,
            quarantine_after: 2,
            recovery_successes: 2,
            ..SupervisorConfig::default()
        };
        let v = FactVertex::supervised("cap", Arc::new(src), fixed(1), b, true, cfg.clone());
        let next = v.poll(NS);
        assert_eq!(v.health(), HealthState::Degraded);
        assert_eq!(next, cfg.backoff_base, "first backoff step is the base");
        let next = v.poll(2 * NS);
        assert_eq!(v.health(), HealthState::Quarantined);
        assert_eq!(next, cfg.probe_interval, "quarantined vertices re-probe slowly");
        // Two successful probes restore trust.
        v.poll(3 * NS);
        assert_eq!(v.health(), HealthState::Quarantined);
        let next = v.poll(4 * NS);
        assert_eq!(v.health(), HealthState::Healthy);
        assert_eq!(v.recoveries(), 1);
        assert_eq!(next, Duration::from_secs(1), "controller interval resumes");
    }

    #[test]
    fn fresh_records_visible_to_builder() {
        let b = broker();
        let fact =
            FactVertex::new("f", Arc::new(ConstSource::new("f", 1.0)), fixed(1), b.clone(), false);
        let insight = InsightVertex::new(
            "count",
            vec!["f".into()],
            Box::new(|i: &InsightInputs| Some(i.fresh.len() as f64)),
            b.clone(),
        );
        fact.poll(1);
        fact.poll(1_000_000_001);
        insight.pump(2_000_000_000);
        let r = Record::decode(&b.latest("count").unwrap().payload).unwrap();
        assert_eq!(r.value, 2.0, "both records arrived in one pump");
    }
}
