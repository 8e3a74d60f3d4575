//! The Apollo service facade.
//!
//! [`Apollo`] assembles the pieces: the pub-sub [`Broker`] (SCoRe's
//! communication fabric), the timer [`EventLoop`] (the libuv analogue
//! driving monitor hooks at their — possibly adaptive — intervals), the
//! [`ScoreGraph`] topology, and the AQE for queries.
//!
//! Two execution modes:
//!
//! * **Deterministic** — build with [`Apollo::new_virtual`] and drive with
//!   [`Apollo::run_for`]; time is simulated, so a 30-minute monitoring run
//!   replays in milliseconds and is bit-identical across runs. Every
//!   figure harness uses this mode.
//! * **Live** — build with [`Apollo::new_real`] and call
//!   [`Apollo::spawn`]; the loop runs on a background thread against the
//!   wall clock until the returned [`ApolloHandle`] is stopped.

use crate::continuous::{ContinuousRegisterError, ContinuousVertex};
use crate::graph::{GraphError, ScoreGraph};
use crate::health::{HealthState, SupervisorConfig};
use crate::predict::PredictionPump;
use crate::vertex::{FactVertex, InsightInputs, InsightVertex};
use apollo_adaptive::controller::{
    AimdParams, ComplexAimd, FixedInterval, IntervalController, SimpleAimd,
};
use apollo_cluster::device::{Device, EventMetric};
use apollo_cluster::metrics::MetricSource;
use apollo_delphi::stack::Delphi;
use apollo_obs::Registry;
use apollo_query::exec::{
    CachedBroker, ExecSqlError, QueryEngine, QueryMetrics, QueryResult, ScanCache,
};
use apollo_runtime::event_loop::{EventLoop, TimerAction, TimerControl};
use apollo_streams::{Broker, CompactPolicy, PublishWaker, Record, SlabStore, StreamConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::Waker;
use std::time::Duration;

/// Specification of a Fact vertex to register.
pub struct FactVertexSpec {
    /// Topic / table name.
    pub name: String,
    /// The resource hook.
    pub source: Arc<dyn MetricSource>,
    /// Polling interval policy.
    pub controller: Box<dyn IntervalController>,
    /// Publish only on value change (§3.2.1). Disable for ablation.
    pub publish_on_change_only: bool,
    /// Optional Delphi prediction between polls, through a shared
    /// batched-prediction pump (see [`Apollo::prediction_pump`]).
    pub batched_prediction: Option<PredictionPump>,
    /// Supervision policy; `None` uses [`SupervisorConfig::default`].
    pub supervision: Option<SupervisorConfig>,
}

impl FactVertexSpec {
    /// A fact vertex with a fixed polling interval.
    pub fn fixed(name: impl Into<String>, source: Arc<dyn MetricSource>, every: Duration) -> Self {
        Self {
            name: name.into(),
            source,
            controller: Box::new(FixedInterval::new(every)),
            publish_on_change_only: true,
            batched_prediction: None,
            supervision: None,
        }
    }

    /// A fact vertex with the simple AIMD adaptive interval.
    ///
    /// # Panics
    ///
    /// Panics when `params` fails [`AimdParams::validated`] (e.g.
    /// `decrease_factor <= 1.0`, zero `max_interval`): a misconfigured
    /// controller would otherwise relax on change or panic deep inside
    /// `Duration::div_f64` on an arbitrary later sample, so registration
    /// fails fast instead.
    pub fn simple_aimd(
        name: impl Into<String>,
        source: Arc<dyn MetricSource>,
        params: AimdParams,
    ) -> Self {
        let name = name.into();
        let params =
            params.validated().unwrap_or_else(|e| panic!("vertex {name}: bad AIMD config: {e}"));
        Self {
            name,
            source,
            controller: Box::new(SimpleAimd::new(params)),
            publish_on_change_only: true,
            batched_prediction: None,
            supervision: None,
        }
    }

    /// A fact vertex with the complex (rolling-average) AIMD interval.
    ///
    /// # Panics
    ///
    /// Panics when `params` fails [`AimdParams::validated`]; see
    /// [`FactVertexSpec::simple_aimd`].
    pub fn complex_aimd(
        name: impl Into<String>,
        source: Arc<dyn MetricSource>,
        params: AimdParams,
        window: usize,
    ) -> Self {
        let name = name.into();
        let params =
            params.validated().unwrap_or_else(|e| panic!("vertex {name}: bad AIMD config: {e}"));
        Self {
            name,
            source,
            controller: Box::new(ComplexAimd::new(params, window)),
            publish_on_change_only: true,
            batched_prediction: None,
            supervision: None,
        }
    }

    /// Attach Delphi prediction between polls by enrolling this vertex
    /// in a prediction pump (see [`Apollo::prediction_pump`]): one kernel
    /// call per pump tick predicts every due vertex. A single vertex that
    /// wants prediction is a one-vertex batch.
    pub fn with_batched_prediction(mut self, pump: &PredictionPump) -> Self {
        self.batched_prediction = Some(pump.clone());
        self
    }

    /// Disable the change filter (ablation).
    pub fn publish_always(mut self) -> Self {
        self.publish_on_change_only = false;
        self
    }

    /// Use an explicit supervision policy (timeouts, retries, backoff,
    /// quarantine thresholds) instead of the default.
    pub fn with_supervision(mut self, config: SupervisorConfig) -> Self {
        self.supervision = Some(config);
        self
    }
}

/// FNV-1a hash of a vertex name, mixed into the supervision jitter seed so
/// a fleet of identically configured vertices desynchronizes its backoff.
fn name_seed(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An insight builder: folds the latest inputs into a derived value.
pub type InsightBuilder = Box<dyn FnMut(&InsightInputs) -> Option<f64> + Send>;

/// Specification of an Insight vertex to register.
pub struct InsightVertexSpec {
    /// Topic / table name of the insight queue.
    pub name: String,
    /// Input topics (facts and/or other insights).
    pub inputs: Vec<String>,
    /// The insight builder.
    pub builder: InsightBuilder,
    /// The minimum spacing between recomputes: a publish to an input
    /// wakes the vertex no sooner than one cadence after its last run.
    pub cadence: Duration,
}

impl InsightVertexSpec {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        inputs: Vec<String>,
        cadence: Duration,
        builder: impl FnMut(&InsightInputs) -> Option<f64> + Send + 'static,
    ) -> Self {
        Self { name: name.into(), inputs, builder: Box::new(builder), cadence }
    }

    /// An insight summing the latest values of all inputs once every
    /// input has reported — the Figure 2 "total space available" use case.
    pub fn sum_of(name: impl Into<String>, inputs: Vec<String>, cadence: Duration) -> Self {
        let expected = inputs.clone();
        Self::new(name, inputs, cadence, move |i: &InsightInputs| {
            i.all_present(&expected).then(|| i.sum())
        })
    }
}

/// The one AQE query path behind [`Apollo::query`] and
/// [`ApolloHandle::query`]; `spawn` gives the handle a clone.
#[derive(Clone)]
struct QueryPath {
    broker: Arc<Broker>,
    /// Decoded-scan cache (one extended-in-place tail per topic) shared
    /// by every AQE query and standing query (engines are per-call; the
    /// cache outlives them here).
    scan_cache: Arc<ScanCache>,
    /// `query.{executed,arm_ns,arm_errors}`, resolved once at wiring.
    metrics: Option<QueryMetrics>,
}

impl QueryPath {
    /// Parse → cached-or-fresh scan → fold.
    fn query(&self, sql: &str) -> Result<QueryResult, ExecSqlError> {
        let query = apollo_query::parse(sql).map_err(ExecSqlError::Parse)?;
        let provider = CachedBroker::new(&self.broker, &self.scan_cache);
        QueryEngine::with_resolved_metrics(&provider, self.metrics.as_ref())
            .execute(&query)
            .map_err(ExecSqlError::Exec)
    }
}

/// The schedule name of the slab lifecycle step ([`Apollo::attach_slab`]).
const LIFECYCLE_STEP: &str = "streams.slab.lifecycle";
/// The schedule names of the prediction pumps are this plus their number
/// ([`Apollo::prediction_pump`]).
const PUMP_STEP: &str = "delphi.pump.";

/// How long a hot device's events wait, at most, for their event fact's drain.
const EVENT_DRAIN_BOUND: Duration = Duration::from_millis(1);

/// A vertex may not take a service step's name, whichever registers
/// first: the two would share one schedule entry, and the later would
/// cancel the earlier.
fn check_vertex_name(name: &str) -> Result<(), GraphError> {
    if name == LIFECYCLE_STEP || name.starts_with(PUMP_STEP) {
        return Err(GraphError::Duplicate(name.to_string()));
    }
    Ok(())
}

/// One step on the service loop (see [`Apollo::schedule`]).
struct Scheduled {
    /// The step's timer, cancelled when the step is unregistered or
    /// re-scheduled.
    timer: Arc<TimerControl>,
    /// The timer's wakers on the step's input topics, removed with it.
    _wakers: Vec<PublishWaker>,
}

/// The assembled Apollo service.
pub struct Apollo {
    broker: Arc<Broker>,
    el: EventLoop,
    graph: ScoreGraph,
    facts: Vec<Arc<FactVertex>>,
    insights: Vec<Arc<InsightVertex>>,
    /// Every periodic step by name: vertices, prediction pumps and the
    /// slab lifecycle.
    scheduled: HashMap<String, Scheduled>,
    /// Batched Delphi prediction pumps (see [`Apollo::prediction_pump`]).
    pumps: Vec<PredictionPump>,
    /// The self-observation metrics registry every subsystem reports into.
    registry: Registry,
    /// What [`Apollo::query`] runs on.
    query_path: QueryPath,
    /// Registered standing queries ([`Apollo::register_continuous`]).
    continuous: Vec<Arc<ContinuousVertex>>,
    /// Live registered-standing-query count, exported as
    /// `query.continuous.registered` and read by the self-observer.
    continuous_registered: Arc<AtomicU64>,
    /// Durable slab store whose lifecycle runs on the event loop (see
    /// [`Apollo::attach_slab`]).
    slab: Option<Arc<SlabStore>>,
}

impl Apollo {
    /// Service over a fresh virtual clock (deterministic).
    pub fn new_virtual() -> Self {
        Self::with_config(EventLoop::new_virtual(), StreamConfig::default())
    }

    /// Service over the wall clock.
    pub fn new_real() -> Self {
        Self::with_config(EventLoop::new_real(), StreamConfig::default())
    }

    /// Service with explicit loop and stream retention config, observed
    /// by a fresh enabled metrics registry.
    pub fn with_config(el: EventLoop, streams: StreamConfig) -> Self {
        Self::with_registry(el, streams, Registry::new())
    }

    /// [`Apollo::with_config`] with an explicit metrics registry. Pass
    /// [`Registry::noop`] to strip self-observation down to a handful of
    /// never-taken branches (the ≤5 % overhead bound of the bench suite).
    pub fn with_registry(mut el: EventLoop, streams: StreamConfig, registry: Registry) -> Self {
        let broker = Arc::new(Broker::new(streams));
        el.instrument(&registry);
        broker.instrument(&registry);
        let scan_cache = Arc::new(ScanCache::new());
        scan_cache.instrument(&registry);
        let continuous_registered = Arc::new(AtomicU64::new(0));
        registry
            .counter_backed_by("query.continuous.registered", Arc::clone(&continuous_registered));
        let query_path = QueryPath {
            broker: Arc::clone(&broker),
            scan_cache,
            metrics: QueryMetrics::resolve(&registry),
        };
        Self {
            broker,
            el,
            graph: ScoreGraph::new(),
            facts: Vec::new(),
            insights: Vec::new(),
            scheduled: HashMap::new(),
            pumps: Vec::new(),
            registry,
            query_path,
            continuous: Vec::new(),
            continuous_registered,
            slab: None,
        }
    }

    /// The one way a step reaches the event loop. One `every` from now the
    /// loop calls `step(ctl, now_ns)` with one clock reading, then again as
    /// its [`TimerAction`] says: after `every` (or what it re-programs through
    /// its [`TimerControl`]), or, parked, on a publish to a `wakes_on` topic.
    ///
    /// A step already scheduled under `name` is cancelled, so a name never
    /// has two timers. Vertices and service steps never share a name
    /// ([`check_vertex_name`]), so only a step of the same kind is replaced.
    /// Returns the step's timer, for a waker outside the broker.
    fn schedule(
        &mut self,
        name: &str,
        wakes_on: &[String],
        every: Duration,
        mut step: impl FnMut(&TimerControl, u64) -> TimerAction + Send + 'static,
    ) -> Arc<TimerControl> {
        let clock = self.el.clock().clone();
        let timer = self.el.add_timer(every, move |ctl| step(ctl, clock.now()));
        let woken = Arc::clone(&timer);
        let wake = move || woken.wake();
        let _wakers = wakes_on.iter().map(|t| self.broker.wake_on(t, wake.clone())).collect();
        let scheduled = Scheduled { timer: Arc::clone(&timer), _wakers };
        if let Some(previous) = self.scheduled.insert(name.to_string(), scheduled) {
            previous.timer.cancel();
        }
        timer
    }

    /// [`Apollo::attach_slab_with`] keeping a retired series for
    /// [`CompactPolicy::default`]'s 10 minutes.
    pub fn attach_slab(&mut self, store: Arc<SlabStore>, every: Duration) {
        self.attach_slab_with(store, every, CompactPolicy::default());
    }

    /// Attach a durable slab store and run its lifecycle as one step on
    /// the service event loop. Every `every`, in this order:
    ///
    /// 1. [`SlabStore::consolidate`] folds new entries into the tiers
    ///    (`streams.slab.consolidated_entries`).
    /// 2. [`SlabStore::flush`] msyncs, so the folds and the entries they
    ///    cover reach disk together (`streams.slab.{flushes, flush_ns,
    ///    flush_errors}`).
    /// 3. [`SlabStore::compact`] reclaims the series `retention` calls
    ///    retired, on the loop's clock (`streams.slab.{reclaimed_series,
    ///    reclaimed_entries, compact_ns, compact_errors}`). A pass that
    ///    reclaims nothing reads one state word per directory entry, so
    ///    compaction needs no cadence of its own; `retention_ms: u64::MAX`
    ///    keeps every series that holds an entry.
    /// 4. The `streams.slab.{occupied_slots, consolidation_lag, series,
    ///    pressure, dirty_records, lapped_entries}` gauges are set.
    ///
    /// `every` is the machine-crash loss bound: a power cut can take the
    /// records written since the last tick (`streams.slab.dirty_records`);
    /// a process crash loses nothing. Attaching again replaces the running
    /// lifecycle with one over the new store.
    ///
    /// Streams spill into the store when their [`StreamConfig`] selects
    /// [`apollo_streams::SpillBackend::slab`] over the same `Arc`.
    pub fn attach_slab_with(
        &mut self,
        store: Arc<SlabStore>,
        every: Duration,
        retention: CompactPolicy,
    ) {
        let folded = self.registry.counter("streams.slab.consolidated_entries");
        let flushes = self.registry.counter("streams.slab.flushes");
        let flush_errors = self.registry.counter("streams.slab.flush_errors");
        let flush_ns = self.registry.histogram("streams.slab.flush_ns");
        let reclaimed = self.registry.counter("streams.slab.reclaimed_series");
        let reclaimed_entries = self.registry.counter("streams.slab.reclaimed_entries");
        let compact_ns = self.registry.histogram("streams.slab.compact_ns");
        let compact_errors = self.registry.counter("streams.slab.compact_errors");
        let occupied = self.registry.gauge("streams.slab.occupied_slots");
        let lag = self.registry.gauge("streams.slab.consolidation_lag");
        let series = self.registry.gauge("streams.slab.series");
        let pressure = self.registry.gauge("streams.slab.pressure");
        let dirty = self.registry.gauge("streams.slab.dirty_records");
        let lapped = self.registry.gauge("streams.slab.lapped_entries");
        self.slab = Some(Arc::clone(&store));
        self.schedule(LIFECYCLE_STEP, &[], every, move |_ctl, now_ns| {
            folded.add(store.consolidate().folded);
            let t0 = std::time::Instant::now();
            match store.flush() {
                Ok(_) => {
                    flush_ns.observe(t0.elapsed().as_nanos() as u64);
                    flushes.inc();
                }
                Err(_) => flush_errors.inc(),
            }
            let t0 = std::time::Instant::now();
            match store.compact(now_ns / 1_000_000, retention) {
                Ok(report) => {
                    compact_ns.observe(t0.elapsed().as_nanos() as u64);
                    reclaimed.add(report.reclaimed as u64);
                    reclaimed_entries.add(report.reclaimed_entries);
                }
                Err(_) => compact_errors.inc(),
            }
            let stats = store.stats();
            occupied.set(stats.live_entries as f64);
            lag.set(stats.consolidation_lag as f64);
            series.set(stats.series_live as f64);
            pressure.set(stats.pressure());
            dirty.set(stats.dirty_records as f64);
            lapped.set(stats.lapped_entries as f64);
            TimerAction::Continue
        });
    }

    /// The attached slab store, when [`Apollo::attach_slab`] was called.
    pub fn slab(&self) -> Option<&Arc<SlabStore>> {
        self.slab.as_ref()
    }

    /// Create a batched Delphi prediction pump: one timer that, every
    /// `every`, packs the windows of all enrolled-and-stale vertices into
    /// one batch and predicts them with a **single** fused kernel call
    /// ([`Delphi::predict_batch_into`]). Enroll vertices by passing the
    /// returned handle to [`FactVertexSpec::with_batched_prediction`]
    /// before registering them.
    ///
    /// Kernel wall time and batch sizes report as `delphi.predict_ns` /
    /// `delphi.batch_size`.
    ///
    /// Batches are padded to the model's SIMD lane width
    /// (`delphi.simd_lanes`) so ticks stay on the kernel's vector path;
    /// any rows that fall off it count on `delphi.batch_tail_scalar`
    /// (held at 0 by the padding).
    pub fn prediction_pump(&mut self, model: Delphi, every: Duration) -> PredictionPump {
        let name = format!("{PUMP_STEP}{}", self.pumps.len());
        let pump = PredictionPump::new(model, every);
        pump.shared.instrument(&self.registry);
        let shared = Arc::clone(&pump.shared);
        self.schedule(&name, &[], every, move |_ctl, now| {
            shared.tick(now);
            TimerAction::Continue
        });
        self.pumps.push(pump.clone());
        pump
    }

    /// The pub-sub fabric (for subscribing middleware).
    pub fn broker(&self) -> Arc<Broker> {
        Arc::clone(&self.broker)
    }

    /// The metrics registry all subsystems report into.
    pub fn metrics(&self) -> &Registry {
        &self.registry
    }

    /// Point-in-time view of every registered counter/gauge/histogram.
    pub fn metrics_snapshot(&self) -> apollo_obs::Snapshot {
        self.registry.snapshot()
    }

    /// The DAG topology.
    pub fn graph(&self) -> &ScoreGraph {
        &self.graph
    }

    /// Current clock reading.
    pub fn now(&self) -> u64 {
        self.el.clock().now()
    }

    /// Register a fact vertex; returns its handle. A name held by a vertex
    /// or a service step (`streams.slab.lifecycle`, `delphi.pump.N`) is
    /// [`GraphError::Duplicate`].
    pub fn register_fact(&mut self, spec: FactVertexSpec) -> Result<Arc<FactVertex>, GraphError> {
        check_vertex_name(&spec.name)?;
        self.graph.add_fact(&spec.name)?;
        let initial = spec.controller.current_interval();
        let mut supervision = spec.supervision.unwrap_or_default();
        supervision.seed ^= name_seed(&spec.name);
        let vertex = Arc::new(FactVertex::supervised(
            spec.name,
            spec.source,
            spec.controller,
            Arc::clone(&self.broker),
            spec.publish_on_change_only,
            supervision,
        ));
        vertex.instrument(&self.registry);
        // Enrolled before its first poll, which re-anchors its window.
        if let Some(pump) = spec.batched_prediction {
            pump.enroll(Arc::clone(&vertex));
        }
        let polled = Arc::clone(&vertex);
        self.schedule(vertex.name(), &[], initial, move |ctl, now| {
            ctl.set_interval(polled.poll(now));
            TimerAction::Continue
        });
        self.facts.push(Arc::clone(&vertex));
        Ok(vertex)
    }

    /// Register an event fact (§6, KProbes-style): topic `name` carries
    /// `metric` after each of `device`'s I/O events, change-filtered and
    /// stamped with the event's own time. A graph fact like
    /// [`Apollo::register_fact`]'s, it runs as one step that drains the
    /// device's event queue (at most once a millisecond) and parks until
    /// the device wakes it, so an idle device costs no timer fire.
    pub fn register_events(
        &mut self,
        name: impl Into<String>,
        device: &Device,
        metric: EventMetric,
    ) -> Result<(), GraphError> {
        let name = name.into();
        check_vertex_name(&name)?;
        self.graph.add_fact(&name)?;
        let (queue, events) = std::sync::mpsc::channel();
        let capacity = device.spec.capacity_bytes;
        let mut publisher = self.broker.publisher(name.as_str());
        let mut last = None;
        let step = self.schedule(&name, &[], EVENT_DRAIN_BOUND, move |_ctl, _now| {
            for event in events.try_iter() {
                let Some(value) = metric.value(&event, capacity) else { continue };
                if last.replace(value) != Some(value) {
                    let ts = event.timestamp_ns;
                    publisher.publish(ts / 1_000_000, Record::measured(ts, value).encode());
                }
            }
            TimerAction::Park
        });
        device.subscribe_events(queue, Waker::from(step));
        Ok(())
    }

    /// Unregister a vertex at runtime (§3.1). Cancels its timer, removes
    /// it from the DAG (rejected while other vertices consume it, and for
    /// a name that is not a vertex: pumps, the slab lifecycle and topics
    /// published around Apollo are not reachable from here) and drops its
    /// topic from the broker.
    pub fn unregister(&mut self, name: &str) -> Result<(), GraphError> {
        self.graph.remove(name)?;
        if let Some(step) = self.scheduled.remove(name) {
            step.timer.cancel();
        }
        self.facts.retain(|f| f.name() != name);
        self.insights.retain(|i| i.name() != name);
        let continuous = &mut self.continuous;
        let before = continuous.len();
        continuous.retain(|c| c.name() != name);
        self.continuous_registered.fetch_sub((before - continuous.len()) as u64, Ordering::SeqCst);
        for pump in &self.pumps {
            pump.retire(name);
        }
        self.broker.remove_topic(name);
        Ok(())
    }

    /// Register an insight vertex; returns its handle. Names are checked
    /// as [`Apollo::register_fact`] checks them.
    pub fn register_insight(
        &mut self,
        spec: InsightVertexSpec,
    ) -> Result<Arc<InsightVertex>, GraphError> {
        check_vertex_name(&spec.name)?;
        self.graph.add_insight(&spec.name, &spec.inputs)?;
        let inputs = spec.inputs.clone();
        let vertex = Arc::new(InsightVertex::new(
            spec.name,
            spec.inputs,
            spec.builder,
            Arc::clone(&self.broker),
        ));
        vertex.instrument(&self.registry);
        let pumped = Arc::clone(&vertex);
        self.schedule(vertex.name(), &inputs, spec.cadence, move |_ctl, now| {
            pumped.pump(now);
            TimerAction::Park
        });
        self.insights.push(Arc::clone(&vertex));
        Ok(vertex)
    }

    /// Register a **continuous query**: `sql` becomes a standing,
    /// insight-style vertex named `name` that reruns the query on this
    /// service's cached query path whenever one of its input topics is
    /// published, at most once per `cadence`. Whenever the result changes,
    /// its rows are republished to topic `name` as measured records — a
    /// query you can subscribe to, carrying what [`Apollo::query`] returns
    /// for the same SQL.
    ///
    /// Fails on parse errors, on input topics (arm or join tables) that
    /// are not registered vertices, and on a name
    /// [`Apollo::register_fact`] would refuse.
    pub fn register_continuous(
        &mut self,
        name: impl Into<String>,
        sql: &str,
        cadence: Duration,
    ) -> Result<Arc<ContinuousVertex>, ContinuousRegisterError> {
        let name = name.into();
        let query = apollo_query::parse(sql).map_err(ContinuousRegisterError::Parse)?;
        let mut inputs: Vec<String> = query
            .selects
            .iter()
            .flat_map(|s| std::iter::once(&s.table).chain(s.join.as_ref().map(|j| &j.table)))
            .cloned()
            .collect();
        inputs.sort_unstable();
        inputs.dedup();
        check_vertex_name(&name)
            .and_then(|()| self.graph.add_insight(&name, &inputs))
            .map_err(ContinuousRegisterError::Graph)?;
        let vertex = Arc::new(ContinuousVertex::new(
            name.clone(),
            query,
            inputs.clone(),
            self.broker(),
            Arc::clone(&self.query_path.scan_cache),
            &self.registry,
        ));
        let fold_ns = self.registry.histogram("query.continuous.fold_ns");
        let pumped = Arc::clone(&vertex);
        self.schedule(&name, &inputs, cadence, move |_ctl, now| {
            let t0 = std::time::Instant::now();
            pumped.pump(now / 1_000_000);
            fold_ns.observe(t0.elapsed().as_nanos() as u64);
            TimerAction::Park
        });
        self.continuous_registered.fetch_add(1, Ordering::SeqCst);
        self.continuous.push(Arc::clone(&vertex));
        Ok(vertex)
    }

    /// Registered continuous queries, in registration order.
    pub fn continuous(&self) -> &[Arc<ContinuousVertex>] {
        &self.continuous
    }

    /// Live registered-standing-query count cell (self-observer hook).
    pub(crate) fn continuous_registered_cell(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.continuous_registered)
    }

    /// Registered fact vertices.
    pub fn facts(&self) -> &[Arc<FactVertex>] {
        &self.facts
    }

    /// Registered insight vertices.
    pub fn insights(&self) -> &[Arc<InsightVertex>] {
        &self.insights
    }

    /// Drive the service for `d` (virtual clocks replay instantly).
    pub fn run_for(&mut self, d: Duration) {
        self.el.run_for(d);
    }

    /// Execute an AQE query (instrumented: `query.executed`,
    /// `query.arm_ns`, `query.arm_errors`) on the one query path this
    /// service and its [`ApolloHandle`] share. Range scans go through
    /// the scan cache (`query.scan_cache.{hits,misses,invalidations}`):
    /// a topic scanned before is decoded only for the rows appended
    /// since, whatever the window.
    pub fn query(&self, sql: &str) -> Result<QueryResult, ExecSqlError> {
        self.query_path.query(sql)
    }

    /// The decoded-scan cache behind both `query` entry points.
    pub fn scan_cache(&self) -> &ScanCache {
        &self.query_path.scan_cache
    }

    /// Approximate memory held by all SCoRe queues (Figure 5).
    pub fn approx_memory_bytes(&self) -> usize {
        self.broker.approx_memory_bytes()
    }

    /// Total monitor-hook calls across all fact vertices (monitoring
    /// cost, Figures 9/10).
    pub fn total_hook_calls(&self) -> u64 {
        self.facts.iter().map(|f| f.hook_calls()).sum()
    }

    /// Operational snapshot of the whole service: per-vertex counters
    /// plus aggregate memory and DAG shape — the status surface an
    /// administrator (or Figure 5's accounting) reads.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            now_ns: self.now(),
            fact_vertices: self.facts.len(),
            insight_vertices: self.insights.len(),
            dag_height: self.graph.height(),
            hook_calls: self.total_hook_calls(),
            facts_published: self.facts.iter().map(|f| f.published()).sum(),
            facts_suppressed: self.facts.iter().map(|f| f.suppressed()).sum(),
            insights_published: self.insights.iter().map(|i| i.published()).sum(),
            insight_recomputes: self.insights.iter().map(|i| i.recomputes()).sum(),
            facts_stale: self.facts.iter().map(|f| f.stale_published()).sum(),
            poll_failures: self.facts.iter().map(|f| f.failures()).sum(),
            quarantine_recoveries: self.facts.iter().map(|f| f.recoveries()).sum(),
            callback_panics: self.el.callback_panics(),
            memory_bytes: self.approx_memory_bytes(),
            vertex_intervals: self
                .facts
                .iter()
                .map(|f| (f.name().to_string(), f.current_interval()))
                .collect(),
            vertex_health: self.facts.iter().map(|f| (f.name().to_string(), f.health())).collect(),
        }
    }

    /// Move the service onto a background thread (live mode). The service
    /// keeps running until [`ApolloHandle::stop`].
    pub fn spawn(mut self) -> ApolloHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let query_path = self.query_path.clone();
        // Canary timer bounds the stop latency even when all hooks run at
        // long intervals.
        let stop2 = Arc::clone(&stop);
        self.el.add_timer(Duration::from_millis(25), move |_| {
            if stop2.load(Ordering::SeqCst) {
                TimerAction::Stop
            } else {
                TimerAction::Continue
            }
        });
        let stop3 = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("apollo-service".into())
            .spawn(move || {
                while !stop3.load(Ordering::SeqCst) {
                    if !self.el.turn() {
                        break;
                    }
                }
                self
            })
            .expect("spawn apollo service thread");
        ApolloHandle { stop, join: Some(join), query_path }
    }
}

/// Operational snapshot of a running Apollo service.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Clock reading at snapshot time (ns).
    pub now_ns: u64,
    /// Registered fact vertices.
    pub fact_vertices: usize,
    /// Registered insight vertices.
    pub insight_vertices: usize,
    /// Height of the SCoRe DAG.
    pub dag_height: usize,
    /// Monitor-hook invocations so far.
    pub hook_calls: u64,
    /// Facts published (post change-filter).
    pub facts_published: u64,
    /// Samples suppressed by the change filter.
    pub facts_suppressed: u64,
    /// Insights published.
    pub insights_published: u64,
    /// Insight builder invocations.
    pub insight_recomputes: u64,
    /// Stale (last-known-value) records published during hook outages.
    pub facts_stale: u64,
    /// Polls that failed after exhausting retries.
    pub poll_failures: u64,
    /// Quarantined → Healthy recoveries across the fleet.
    pub quarantine_recoveries: u64,
    /// Timer callbacks that panicked (each retires only its own timer).
    pub callback_panics: u64,
    /// Approximate queue memory.
    pub memory_bytes: usize,
    /// Current polling interval per fact vertex.
    pub vertex_intervals: Vec<(String, Duration)>,
    /// Supervision state per fact vertex.
    pub vertex_health: Vec<(String, HealthState)>,
}

impl ServiceStats {
    /// Fraction of samples the change filter suppressed.
    pub fn suppression_ratio(&self) -> f64 {
        let total = self.facts_published + self.facts_suppressed;
        if total == 0 {
            0.0
        } else {
            self.facts_suppressed as f64 / total as f64
        }
    }
}

/// Handle to a live (spawned) Apollo service.
pub struct ApolloHandle {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<Apollo>>,
    query_path: QueryPath,
}

impl ApolloHandle {
    /// The pub-sub fabric (for live queries/subscriptions).
    pub fn broker(&self) -> Arc<Broker> {
        Arc::clone(&self.query_path.broker)
    }

    /// [`Apollo::query`] against the live service, from any thread.
    pub fn query(&self, sql: &str) -> Result<QueryResult, ExecSqlError> {
        self.query_path.query(sql)
    }

    /// Stop the service and get the `Apollo` back for inspection.
    pub fn stop(mut self) -> Apollo {
        self.stop.store(true, Ordering::SeqCst);
        self.join.take().expect("not yet joined").join().expect("apollo thread panicked")
    }
}

impl Drop for ApolloHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apollo_cluster::metrics::{ConstSource, TraceSource};
    use apollo_cluster::series::TimeSeries;

    const NS: u64 = 1_000_000_000;

    #[test]
    fn fixed_fact_vertex_end_to_end() {
        let mut apollo = Apollo::new_virtual();
        apollo
            .register_fact(FactVertexSpec::fixed(
                "cap",
                Arc::new(ConstSource::new("c", 9.0)),
                Duration::from_secs(1),
            ))
            .unwrap();
        apollo.run_for(Duration::from_secs(10));
        let out = apollo.query("SELECT MAX(Timestamp), metric FROM cap").unwrap();
        assert_eq!(out.rows[0].value, 9.0);
        assert_eq!(apollo.total_hook_calls(), 10);
        assert_eq!(apollo.facts()[0].published(), 1, "change filter");
    }

    #[test]
    fn adaptive_fact_vertex_relaxes_on_static_metric() {
        let mut apollo = Apollo::new_virtual();
        let v = apollo
            .register_fact(FactVertexSpec::simple_aimd(
                "cap",
                Arc::new(ConstSource::new("c", 5.0)),
                AimdParams::default(),
            ))
            .unwrap();
        // Additive growth from 5s needs Σ(5..60) ≈ 1 820 s to reach the
        // 60 s cap; run past that.
        apollo.run_for(Duration::from_secs(2100));
        assert_eq!(v.current_interval(), Duration::from_secs(60));
        assert!(apollo.total_hook_calls() < 100, "calls {}", apollo.total_hook_calls());
    }

    #[test]
    fn insight_pipeline_via_event_loop() {
        let mut apollo = Apollo::new_virtual();
        for (name, v) in [("a", 10.0), ("b", 20.0)] {
            apollo
                .register_fact(FactVertexSpec::fixed(
                    name,
                    Arc::new(ConstSource::new(name, v)),
                    Duration::from_secs(1),
                ))
                .unwrap();
        }
        apollo
            .register_insight(InsightVertexSpec::sum_of(
                "total",
                vec!["a".into(), "b".into()],
                Duration::from_millis(500),
            ))
            .unwrap();
        apollo.run_for(Duration::from_secs(5));
        let out = apollo.query("SELECT MAX(Timestamp), metric FROM total").unwrap();
        assert_eq!(out.rows[0].value, 30.0);
        assert_eq!(apollo.graph().height(), 1);
    }

    #[test]
    fn registering_duplicate_vertex_fails() {
        let mut apollo = Apollo::new_virtual();
        apollo
            .register_fact(FactVertexSpec::fixed(
                "x",
                Arc::new(ConstSource::new("x", 0.0)),
                Duration::from_secs(1),
            ))
            .unwrap();
        let err = apollo
            .register_fact(FactVertexSpec::fixed(
                "x",
                Arc::new(ConstSource::new("x", 0.0)),
                Duration::from_secs(1),
            ))
            .unwrap_err();
        assert!(matches!(err, GraphError::Duplicate(_)));
    }

    #[test]
    fn changing_trace_produces_history_for_range_queries() {
        let mut apollo = Apollo::new_virtual();
        let series = TimeSeries::from_points(vec![(0, 100.0), (3 * NS, 90.0), (6 * NS, 80.0)]);
        apollo
            .register_fact(FactVertexSpec::fixed(
                "cap",
                Arc::new(TraceSource::new("t", series)),
                Duration::from_secs(1),
            ))
            .unwrap();
        apollo.run_for(Duration::from_secs(10));
        let all = apollo.query("SELECT metric FROM cap").unwrap();
        assert_eq!(all.rows.len(), 3, "one row per distinct value");
        let avg = apollo.query("SELECT AVG(metric) FROM cap").unwrap();
        assert_eq!(avg.rows[0].value, 90.0);
    }

    #[test]
    fn live_mode_spawn_and_stop() {
        let mut apollo = Apollo::new_real();
        apollo
            .register_fact(FactVertexSpec::fixed(
                "cap",
                Arc::new(ConstSource::new("c", 3.0)),
                Duration::from_millis(5),
            ))
            .unwrap();
        let handle = apollo.spawn();
        // Wait for at least one poll.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if let Ok(out) = handle.query("SELECT MAX(Timestamp), metric FROM cap") {
                assert_eq!(out.rows[0].value, 3.0);
                break;
            }
            assert!(std::time::Instant::now() < deadline, "no data within 5s");
            std::thread::sleep(Duration::from_millis(2));
        }
        let apollo = handle.stop();
        assert!(apollo.total_hook_calls() >= 1);
    }

    #[test]
    fn stats_snapshot_reports_counters() {
        let mut apollo = Apollo::new_virtual();
        apollo
            .register_fact(FactVertexSpec::fixed(
                "constant",
                Arc::new(ConstSource::new("c", 5.0)),
                Duration::from_secs(1),
            ))
            .unwrap();
        apollo
            .register_insight(InsightVertexSpec::sum_of(
                "sum",
                vec!["constant".into()],
                Duration::from_secs(1),
            ))
            .unwrap();
        apollo.run_for(Duration::from_secs(10));
        let stats = apollo.stats();
        assert_eq!(stats.fact_vertices, 1);
        assert_eq!(stats.insight_vertices, 1);
        assert_eq!(stats.dag_height, 1);
        assert_eq!(stats.hook_calls, 10);
        assert_eq!(stats.facts_published, 1, "constant metric publishes once");
        assert_eq!(stats.facts_suppressed, 9);
        assert!((stats.suppression_ratio() - 0.9).abs() < 1e-12);
        assert_eq!(stats.vertex_intervals.len(), 1);
        assert_eq!(stats.vertex_intervals[0].1, Duration::from_secs(1));
        assert_eq!(stats.now_ns, 10_000_000_000);
    }

    #[test]
    fn faulty_source_degrades_without_stopping_the_service() {
        use apollo_cluster::fault::{FaultKind, FaultPlan, FaultWindow, FlakySource};
        let mut apollo = Apollo::new_virtual();
        let plan = FaultPlan::none().with_window(FaultWindow::new(
            Duration::from_secs(3),
            Duration::from_secs(6),
            FaultKind::ErrorBurst,
        ));
        let src = FlakySource::new(Arc::new(ConstSource::new("c", 5.0)), plan, 7);
        apollo
            .register_fact(FactVertexSpec::fixed("cap", Arc::new(src), Duration::from_secs(1)))
            .unwrap();
        let healthy = apollo
            .register_fact(FactVertexSpec::fixed(
                "other",
                Arc::new(ConstSource::new("o", 1.0)),
                Duration::from_secs(1),
            ))
            .unwrap();
        apollo.run_for(Duration::from_secs(30));
        let stats = apollo.stats();
        assert!(stats.poll_failures >= 1, "failures recorded: {stats:?}");
        assert!(stats.facts_stale >= 1, "stale records published: {stats:?}");
        // The sibling vertex was untouched and the flaky one recovered.
        assert_eq!(healthy.hook_calls(), 30);
        assert!(
            stats.vertex_health.iter().all(|(_, h)| *h == HealthState::Healthy),
            "all recovered: {stats:?}"
        );
        // Stale records are queryable alongside measured ones.
        let out = apollo.query("SELECT MAX(Timestamp), metric FROM cap").unwrap();
        assert_eq!(out.rows[0].value, 5.0);
    }

    #[test]
    fn panicking_hook_does_not_kill_sibling_vertices() {
        use apollo_cluster::fault::PanicSource;
        let mut apollo = Apollo::new_virtual();
        apollo
            .register_fact(FactVertexSpec::fixed(
                "bad",
                Arc::new(PanicSource::new("boom")),
                Duration::from_secs(1),
            ))
            .unwrap();
        let good = apollo
            .register_fact(FactVertexSpec::fixed(
                "good",
                Arc::new(ConstSource::new("g", 2.0)),
                Duration::from_secs(1),
            ))
            .unwrap();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        apollo.run_for(Duration::from_secs(10));
        std::panic::set_hook(hook);
        assert_eq!(apollo.stats().callback_panics, 1);
        assert_eq!(good.hook_calls(), 10, "sibling kept its schedule");
        assert_eq!(
            apollo.query("SELECT MAX(Timestamp), metric FROM good").unwrap().rows[0].value,
            2.0
        );
    }

    #[test]
    fn an_input_stamped_ahead_of_the_clock_is_taken_at_the_next_pump() {
        // An insight reads what its input topic holds, whatever the stamp:
        // a record from a producer whose clock runs an hour ahead of the
        // loop's is taken at the next pump, and the step parks again.
        use apollo_streams::codec::Record;
        let mut apollo = Apollo::new_virtual();
        let every = Duration::from_secs(1);
        let source = Arc::new(ConstSource::new("c", 5.0));
        apollo.register_fact(FactVertexSpec::fixed("cap", source, every)).unwrap();
        let sum = apollo
            .register_insight(InsightVertexSpec::sum_of("sum", vec!["cap".into()], every))
            .unwrap();
        apollo.run_for(Duration::from_secs(5));
        let ahead = apollo.now() + 3_600 * NS;
        apollo.broker().publish("cap", ahead / 1_000_000, Record::measured(ahead, 7.0).encode());
        apollo.run_for(Duration::from_secs(5));
        assert_eq!(apollo.scheduled["sum"].timer.fire_count(), 2, "one run per publish");
        assert_eq!(sum.recomputes(), 2);
        let latest = apollo.query("SELECT MAX(Timestamp), metric FROM sum").unwrap();
        assert_eq!(latest.rows[0].value, 7.0);
    }

    #[test]
    fn metrics_snapshot_covers_every_layer() {
        let mut apollo = Apollo::new_virtual();
        apollo
            .register_fact(FactVertexSpec::fixed(
                "cap",
                Arc::new(ConstSource::new("c", 5.0)),
                Duration::from_secs(1),
            ))
            .unwrap();
        apollo
            .register_insight(InsightVertexSpec::sum_of(
                "sum",
                vec!["cap".into()],
                Duration::from_secs(1),
            ))
            .unwrap();
        apollo.run_for(Duration::from_secs(10));
        apollo.query("SELECT MAX(Timestamp), metric FROM cap").unwrap();
        let snap = apollo.metrics_snapshot();
        // Runtime layer: ten polls, and one insight run on the one publish
        // a constant fact makes.
        assert_eq!(snap.counter("runtime.timer.fires"), 11, "{snap:?}");
        // Streams layer: publishes.
        assert!(snap.counter("streams.published_total") >= 2);
        // Core layer: per-vertex poll latency + suppression.
        assert!(snap.histograms.contains_key("core.vertex.cap.poll_ns"));
        assert!(snap.histograms.contains_key("core.vertex.sum.pump_ns"));
        assert_eq!(snap.counter("core.vertex.cap.suppressed"), 9);
        // Query layer.
        assert_eq!(snap.counter("query.executed"), 1);
        // Scan-consistency layer: the decoded-scan cache counters and the
        // per-topic lapped-cursor/rejected-eviction counters are all exported.
        assert!(snap.counters.contains_key("query.scan_cache.hits"));
        assert!(snap.counters.contains_key("query.scan_cache.misses"));
        assert!(snap.counters.contains_key("query.scan_cache.invalidations"));
        assert!(snap.counters.contains_key("streams.topic.cap.archive_rejected"));
        assert!(snap.counters.contains_key("streams.topic.cap.cursor_lapped"));
        // And the whole thing survives a JSON round-trip.
        let json = snap.to_json();
        assert_eq!(apollo_obs::Snapshot::from_json(&json).unwrap(), snap);
    }

    #[test]
    fn repeat_queries_hit_the_scan_cache() {
        let mut apollo = Apollo::new_virtual();
        apollo
            .register_fact(FactVertexSpec::fixed(
                "cap",
                Arc::new(ConstSource::new("c", 5.0)),
                Duration::from_secs(1),
            ))
            .unwrap();
        apollo.run_for(Duration::from_secs(5));
        let first = apollo.query("SELECT AVG(metric) FROM cap").unwrap();
        let second = apollo.query("SELECT AVG(metric) FROM cap").unwrap();
        assert_eq!(first, second);
        assert_eq!(apollo.scan_cache().misses(), 1);
        assert_eq!(apollo.scan_cache().hits(), 1);
        let snap = apollo.metrics_snapshot();
        assert_eq!(snap.counter("query.scan_cache.hits"), 1);
        assert_eq!(snap.counter("query.scan_cache.misses"), 1);
        // New data extends the cached tail: the next scan sees it without
        // decoding the topic again.
        apollo.run_for(Duration::from_secs(1));
        apollo.broker().publish(
            "cap",
            7_000,
            apollo_streams::Record::measured(7 * 1_000_000_000, 11.0).encode(),
        );
        let third = apollo.query("SELECT MAX(metric) FROM cap").unwrap();
        assert_eq!(third.rows[0].value, 11.0);
        let cache = apollo.scan_cache();
        assert_eq!((cache.hits(), cache.misses(), cache.invalidations()), (2, 1, 0));
    }

    #[test]
    fn whole_history_aggregates_resume_their_saved_fold() {
        const AVG: &str = "SELECT AVG(metric) FROM cap";
        let mut apollo = Apollo::new_virtual();
        apollo
            .register_fact(FactVertexSpec::fixed(
                "cap",
                Arc::new(ConstSource::new("c", 5.0)),
                Duration::from_secs(1),
            ))
            .unwrap();
        apollo.run_for(Duration::from_secs(5));
        apollo.query(AVG).unwrap();
        // The first fold is saved, not resumed; each later one folds only
        // the rows published since onto it, and answers what a rescan does.
        for (i, v) in [11.0, -3.5, 0.25].into_iter().enumerate() {
            let ms = 7_000 + i as u64;
            let r = apollo_streams::Record::measured(ms * 1_000_000, v);
            apollo.broker().publish("cap", ms, r.encode());
            let rescan = QueryEngine::new(apollo.broker().as_ref()).execute_sql(AVG).unwrap();
            assert_eq!(apollo.query(AVG).unwrap(), rescan);
        }
        assert_eq!(apollo.scan_cache().fold_resumed(), 3);
        let snap = apollo.metrics_snapshot();
        assert_eq!(snap.counter("query.scan_cache.fold_resumed"), 3);
        assert_eq!(snap.counter("query.scan_cache.hits"), 3);
    }

    #[test]
    fn latest_query_skips_a_corrupt_newest_payload() {
        let apollo = Apollo::new_virtual();
        let broker = apollo.broker();
        broker.publish("t", 1, apollo_streams::Record::measured(1_000_000, 7.0).encode());
        broker.publish("t", 2, vec![0xde, 0xad, 0xbe, 0xef]);
        let out = apollo.query("SELECT MAX(Timestamp), metric FROM t").unwrap();
        let row = &out.rows[0];
        assert_eq!((row.value, row.provenance), (7.0, Some(apollo_streams::Provenance::Measured)));
    }

    #[test]
    fn noop_registry_disables_self_observation() {
        let mut apollo = Apollo::with_registry(
            EventLoop::new_virtual(),
            StreamConfig::default(),
            Registry::noop(),
        );
        apollo
            .register_fact(FactVertexSpec::fixed(
                "cap",
                Arc::new(ConstSource::new("c", 5.0)),
                Duration::from_secs(1),
            ))
            .unwrap();
        apollo.run_for(Duration::from_secs(5));
        apollo.query("SELECT MAX(Timestamp), metric FROM cap").unwrap();
        let snap = apollo.metrics_snapshot();
        assert!(snap.counters.is_empty() && snap.histograms.is_empty(), "{snap:?}");
    }

    #[test]
    fn memory_accounting_nonzero_after_publishes() {
        let mut apollo = Apollo::new_virtual();
        let series = TimeSeries::from_points((0..100).map(|i| (i * NS, i as f64)).collect());
        apollo
            .register_fact(FactVertexSpec::fixed(
                "m",
                Arc::new(TraceSource::new("t", series)),
                Duration::from_secs(1),
            ))
            .unwrap();
        apollo.run_for(Duration::from_secs(100));
        assert!(apollo.approx_memory_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "bad AIMD config")]
    fn simple_aimd_rejects_sub_one_decrease_factor() {
        // decrease_factor 0.5 would *relax* the interval on change; the
        // spec constructor must fail fast at registration time.
        FactVertexSpec::simple_aimd(
            "bad",
            Arc::new(ConstSource::new("c", 1.0)),
            AimdParams { decrease_factor: 0.5, ..AimdParams::default() },
        );
    }

    #[test]
    #[should_panic(expected = "bad AIMD config")]
    fn complex_aimd_rejects_zero_max_interval() {
        FactVertexSpec::complex_aimd(
            "bad",
            Arc::new(ConstSource::new("c", 1.0)),
            AimdParams {
                min_interval: Duration::ZERO,
                max_interval: Duration::ZERO,
                ..AimdParams::default()
            },
            10,
        );
    }

    /// Small Delphi for pump wiring tests (training speed matters here,
    /// prediction quality does not).
    fn tiny_delphi() -> apollo_delphi::Delphi {
        apollo_delphi::Delphi::train(apollo_delphi::DelphiConfig {
            feature_samples: 60,
            feature_epochs: 3,
            combiner_samples: 40,
            combiner_epochs: 3,
            ..apollo_delphi::DelphiConfig::default()
        })
    }

    /// A fresh slab file under the temp dir; the test removes
    /// `store.path()` when it is done.
    fn temp_store(tag: &str, config: apollo_streams::SlabConfig) -> Arc<SlabStore> {
        let path =
            std::env::temp_dir().join(format!("apollo-core-{tag}-{}.slab", std::process::id()));
        let _ = std::fs::remove_file(&path);
        SlabStore::create(&path, config).unwrap()
    }

    #[test]
    fn pump_enrolls_and_retires_with_vertex_lifecycle() {
        let mut apollo = Apollo::new_virtual();
        let pump = apollo.prediction_pump(tiny_delphi(), Duration::from_secs(3));
        for name in ["a", "b"] {
            apollo
                .register_fact(
                    FactVertexSpec::fixed(
                        name,
                        Arc::new(ConstSource::new(name, 1.0)),
                        Duration::from_secs(10),
                    )
                    .with_batched_prediction(&pump),
                )
                .unwrap();
        }
        assert_eq!(pump.enrolled(), 2);
        apollo.unregister("a").unwrap();
        assert_eq!(pump.enrolled(), 1);
        // The surviving vertex keeps predicting after its peer retires.
        apollo.run_for(Duration::from_secs(120));
        assert!(apollo.total_hook_calls() >= 12);
        apollo.unregister("b").unwrap();
        assert_eq!(pump.enrolled(), 0);
    }

    #[test]
    fn unregister_rejects_names_that_are_not_vertices() {
        use apollo_streams::{Record, SlabConfig};
        let store = temp_store("unregister", SlabConfig::default());
        let mut apollo = Apollo::new_virtual();
        apollo.attach_slab(Arc::clone(&store), Duration::from_secs(1));
        apollo.prediction_pump(tiny_delphi(), Duration::from_secs(3));
        let broker = apollo.broker();
        broker.publish("some/raw/topic", 1, Record::measured(1, 1.0).encode());
        apollo.run_for(Duration::from_secs(2));

        // Service steps (the lifecycle, the pump) are scheduled, not vertices.
        let names: Vec<String> = apollo.scheduled.keys().cloned().collect();
        assert_eq!(names.len(), 2);
        for name in names.iter().map(String::as_str).chain(["some/raw/topic", "streams.slab.flush"])
        {
            assert_eq!(apollo.unregister(name), Err(GraphError::UnknownVertex(name.into())));
        }
        assert_eq!(broker.topic_len("some/raw/topic"), 1, "a topic Apollo never registered");
        apollo.run_for(Duration::from_secs(2));
        assert_eq!(apollo.metrics_snapshot().counter("streams.slab.flushes"), 4);
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn a_registered_vertex_has_no_topic_until_it_publishes() {
        let mut apollo = Apollo::new_virtual();
        apollo
            .register_fact(FactVertexSpec::fixed(
                "slow",
                Arc::new(ConstSource::new("slow", 1.0)),
                Duration::from_secs(10),
            ))
            .unwrap();
        apollo
            .register_insight(InsightVertexSpec::sum_of(
                "sum",
                vec!["slow".into()],
                Duration::from_secs(1),
            ))
            .unwrap();
        // Five seconds in: the insight pumped (on nothing), the fact was
        // never polled. The insight's *reader* created its input
        // topic; nothing created the outputs, and querying creates nothing.
        apollo.run_for(Duration::from_secs(5));
        assert!(apollo.query("SELECT MAX(Timestamp), metric FROM sum").is_err());
        let broker = apollo.broker();
        assert!(!broker.has_topic("sum"), "an insight that never published has no topic");
        assert_eq!(broker.topic_names(), ["slow"], "the insight's input, empty");
        assert_eq!(broker.topic_len("slow"), 0);
        apollo.run_for(Duration::from_secs(6));
        assert_eq!(broker.topic_len("slow"), 1);
        assert!(broker.has_topic("sum"));
    }

    #[test]
    fn a_reregistered_name_publishes_into_the_new_topic() {
        let mut apollo = Apollo::new_virtual();
        let spec = |value| {
            FactVertexSpec::fixed(
                "cap",
                Arc::new(ConstSource::new("cap", value)),
                Duration::from_secs(1),
            )
            .publish_always()
        };
        let old = apollo.register_fact(spec(1.0)).unwrap();
        apollo.run_for(Duration::from_secs(3));
        let broker = apollo.broker();
        assert_eq!(broker.topic_len("cap"), 3);

        apollo.unregister("cap").unwrap();
        assert!(!broker.has_topic("cap"));
        apollo.register_fact(spec(2.0)).unwrap();
        assert!(!broker.has_topic("cap"), "registration alone creates no topic");
        apollo.run_for(Duration::from_secs(2));
        let rows = apollo.query("SELECT metric FROM cap").unwrap().rows;
        assert_eq!(rows.iter().map(|r| r.value).collect::<Vec<_>>(), [2.0, 2.0]);

        // A retained handle to the retired vertex still resolves the name
        // rather than writing into the removed topic nobody can read.
        old.poll(apollo.now());
        let latest =
            apollo_streams::Record::decode(&broker.latest("cap").unwrap().payload).unwrap();
        assert_eq!((latest.value, broker.topic_len("cap")), (1.0, 3));
    }

    #[test]
    fn attached_slab_consolidates_on_the_service_loop() {
        use apollo_streams::{Record, SlabConfig, SpillBackend};
        let store = temp_store("consolidate", SlabConfig::default());
        let mut apollo = Apollo::with_config(
            EventLoop::new_virtual(),
            StreamConfig {
                max_len: Some(2),
                archive_evicted: true,
                spill: SpillBackend::slab(Arc::clone(&store)),
            },
        );
        apollo.attach_slab(Arc::clone(&store), Duration::from_secs(1));
        // Overflow the 2-entry window so eviction lands records in the slab.
        for i in 0..16u64 {
            apollo.broker().publish(
                "cap",
                i + 1,
                Record::measured((i + 1) * 1_000_000, (i + 1) as f64).encode(),
            );
        }
        assert!(store.stats().live_entries >= 14, "evictions recorded in the slab");
        assert!(store.stats().consolidation_lag > 0);
        apollo.run_for(Duration::from_secs(5));
        let snap = apollo.metrics_snapshot();
        assert!(snap.counter("streams.slab.consolidated_entries") >= 14, "{snap:?}");
        assert_eq!(store.stats().consolidation_lag, 0, "timer drained the backlog");
        assert!(snap.gauges.contains_key("streams.slab.occupied_slots"));
        assert!(snap.gauges.contains_key("streams.slab.consolidation_lag"));
        assert!(snap.gauges["streams.slab.series"] >= 1.0, "{snap:?}");
        // Every tick also flushes: the dirty window (machine-crash loss
        // bound) drains at the same cadence.
        assert_eq!(store.dirty_records(), 0, "the lifecycle drained the dirty window");
        assert!(snap.counter("streams.slab.flushes") >= 1, "{snap:?}");
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn attached_lifecycle_flushes_and_compacts_on_the_service_loop() {
        use apollo_streams::{CompactPolicy, Record, SlabConfig, StreamId};
        let store = temp_store(
            "lifecycle",
            SlabConfig { max_series: 8, slots: 64, ..SlabConfig::default() },
        );
        let mut apollo = Apollo::new_virtual();
        apollo.attach_slab_with(
            Arc::clone(&store),
            Duration::from_secs(1),
            CompactPolicy { retention_ms: 500 },
        );
        {
            let series = store.series("job/tmp").unwrap();
            for i in 0..10u64 {
                series.record(StreamId::new(i + 1, 0), &Record::measured(i, i as f64).encode());
            }
        } // handle dropped: GC-eligible once consolidated and past retention
        assert_eq!(store.dirty_records(), 10);

        // One tick. A series is reclaimable only once its entries are
        // folded, so reclaiming it in the tick that folded them is the
        // order consolidate → flush → compact; the gauges come last and
        // already read the compacted directory.
        apollo.run_for(Duration::from_secs(1));
        let snap = apollo.metrics_snapshot();
        assert_eq!(snap.counter("streams.slab.consolidated_entries"), 10, "{snap:?}");
        assert_eq!(snap.counter("streams.slab.flushes"), 1);
        assert_eq!(store.dirty_records(), 0, "the tick drained the dirty window");
        assert_eq!(snap.counter("streams.slab.reclaimed_series"), 1);
        assert_eq!(snap.counter("streams.slab.reclaimed_entries"), 10);
        assert_eq!(snap.gauges["streams.slab.series"], 0.0);
        assert_eq!(store.stats().series_tombstoned, 0, "no tombstone left mid-reclaim");
        for counter in ["flush_errors", "compact_errors"] {
            assert_eq!(snap.counters.get(&format!("streams.slab.{counter}")), Some(&0));
        }
        for gauge in [
            "occupied_slots",
            "consolidation_lag",
            "series",
            "pressure",
            "dirty_records",
            "lapped_entries",
        ] {
            assert!(snap.gauges.contains_key(&format!("streams.slab.{gauge}")), "{gauge}");
        }
        assert_eq!(snap.histograms["streams.slab.flush_ns"].count, 1);

        // Compaction has no cadence of its own because a pass that
        // reclaims nothing is a directory scan: the median fits a tick.
        apollo.run_for(Duration::from_secs(29));
        let compact = &apollo.metrics_snapshot().histograms["streams.slab.compact_ns"];
        assert_eq!(compact.count, 30, "{compact:?}");
        assert!(compact.p50 < 1_000_000, "no-op compact scan took {} ns", compact.p50);
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn attaching_a_second_store_replaces_the_first_lifecycle() {
        let create = |tag| temp_store(tag, apollo_streams::SlabConfig::default());
        let (first, second) = (create("reattach-a"), create("reattach-b"));
        let mut apollo = Apollo::new_virtual();
        apollo.attach_slab(Arc::clone(&first), Duration::from_secs(1));
        apollo.run_for(Duration::from_secs(3));
        let (timers, flushes) =
            (apollo.el.timer_count(), apollo.metrics_snapshot().counter("streams.slab.flushes"));
        assert_eq!((timers, flushes), (1, 3));

        apollo.attach_slab(Arc::clone(&second), Duration::from_secs(1));
        assert!(Arc::ptr_eq(apollo.slab().unwrap(), &second));
        apollo.run_for(Duration::from_secs(5));
        assert_eq!(apollo.el.timer_count(), timers, "the first store's timer outlived it");
        assert_eq!(apollo.metrics_snapshot().counter("streams.slab.flushes"), flushes + 5);
        for store in [first, second] {
            let _ = std::fs::remove_file(store.path());
        }
    }

    /// Registers a fact, an insight and a standing query under each
    /// service step name and expects every one refused.
    fn assert_step_names_refused(apollo: &mut Apollo) {
        let every = Duration::from_secs(1);
        for name in ["streams.slab.lifecycle", "delphi.pump.0"] {
            let fact = FactVertexSpec::fixed(name, Arc::new(ConstSource::new(name, 1.0)), every);
            let err = apollo.register_fact(fact).map(|_| ()).unwrap_err();
            assert_eq!(err, GraphError::Duplicate(name.into()));
            let insight = InsightVertexSpec::sum_of(name, vec!["a".into()], every);
            let err = apollo.register_insight(insight).map(|_| ()).unwrap_err();
            assert_eq!(err, GraphError::Duplicate(name.into()));
            let err = apollo.register_continuous(name, "SELECT AVG(metric) FROM a", every);
            assert!(matches!(err, Err(ContinuousRegisterError::Graph(GraphError::Duplicate(_)))));
            assert_eq!(apollo.unregister(name), Err(GraphError::UnknownVertex(name.into())));
        }
    }

    #[test]
    fn a_vertex_named_like_a_running_service_step_is_refused() {
        let store = temp_store("step-name-after", apollo_streams::SlabConfig::default());
        let mut apollo = Apollo::new_virtual();
        let every = Duration::from_secs(1);
        apollo
            .register_fact(FactVertexSpec::fixed("a", Arc::new(ConstSource::new("a", 1.0)), every))
            .unwrap();
        apollo.attach_slab(Arc::clone(&store), every);
        apollo.prediction_pump(tiny_delphi(), every);
        assert_step_names_refused(&mut apollo);

        // The lifecycle and the pump still run: nothing cancelled them.
        apollo.run_for(Duration::from_secs(3));
        assert_eq!(apollo.el.timer_count(), 3, "fact a, the lifecycle and the pump");
        assert_eq!(apollo.metrics_snapshot().counter("streams.slab.flushes"), 3);
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn a_vertex_named_like_a_service_step_is_refused_before_the_step_exists() {
        let store = temp_store("step-name-before", apollo_streams::SlabConfig::default());
        let mut apollo = Apollo::new_virtual();
        let every = Duration::from_secs(1);
        apollo
            .register_fact(FactVertexSpec::fixed("a", Arc::new(ConstSource::new("a", 1.0)), every))
            .unwrap();
        assert_step_names_refused(&mut apollo);

        // So the steps, started now, cancel no vertex.
        apollo.attach_slab(Arc::clone(&store), every);
        apollo.prediction_pump(tiny_delphi(), every);
        apollo.run_for(Duration::from_secs(3));
        assert_eq!(apollo.el.timer_count(), 3, "fact a, the lifecycle and the pump");
        assert_eq!(apollo.metrics_snapshot().counter("streams.slab.flushes"), 3);
        assert_eq!(apollo.query("SELECT COUNT(*) FROM a").unwrap().rows[0].value, 1.0);
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn idle_derived_vertices_do_not_run() {
        // A constant fact publishes once, at 1 s. The insight over it and
        // the standing query over the insight each run once on that
        // publish and never again: nothing they read moves.
        let mut apollo = Apollo::new_virtual();
        let every = Duration::from_secs(1);
        let source = Arc::new(ConstSource::new("c", 5.0));
        apollo.register_fact(FactVertexSpec::fixed("cap", source, every)).unwrap();
        apollo
            .register_insight(InsightVertexSpec::sum_of("sum", vec!["cap".into()], every))
            .unwrap();
        apollo.register_continuous("cq/avg", "SELECT AVG(metric) FROM sum", every).unwrap();
        apollo.run_for(Duration::from_secs(60));
        let fires = |name: &str| apollo.scheduled[name].timer.fire_count();
        assert_eq!((fires("cap"), fires("sum"), fires("cq/avg")), (60, 1, 1));
        assert_eq!(apollo.metrics_snapshot().counter("runtime.timer.fires"), 62);
        assert_eq!(apollo.continuous()[0].result().unwrap().rows[0].value, 5.0);
    }

    #[test]
    fn hops_wait_only_on_their_own_rate_limit() {
        // The benchmark's chain: a probe publishing every 7 ms into
        // pass-through hops at 3, 5 and 11 ms. A 7 ms feed never
        // rate-limits hops 0 and 1, so each publishes at the probe's
        // virtual instant; hop 2 runs at most once per 11 ms.
        const MS: u64 = 1_000_000;
        let mut apollo = Apollo::new_virtual();
        let series = TimeSeries::from_points((0..200).map(|i| (i * 7 * MS, i as f64)).collect());
        let probe = Arc::new(TraceSource::new("probe", series));
        apollo
            .register_fact(FactVertexSpec::fixed("probe", probe, Duration::from_millis(7)))
            .unwrap();
        let mut input = "probe".to_string();
        for (hop, every) in [3, 5, 11].into_iter().enumerate() {
            let (name, read) = (format!("h{hop}"), input.clone());
            let every = Duration::from_millis(every);
            let pass = move |i: &InsightInputs| i.value(&read);
            apollo
                .register_insight(InsightVertexSpec::new(&name, vec![input], every, pass))
                .unwrap();
            input = name;
        }
        apollo.run_for(Duration::from_millis(700));
        let stamps = |topic: &str| -> Vec<u64> {
            let rows = apollo.query(&format!("SELECT metric FROM {topic}")).unwrap().rows;
            rows.iter().map(|r| r.timestamp_ms).collect()
        };
        // From 100 ms on: past the first runs, which found nothing and
        // spaced the next ones by a cadence.
        let probed: Vec<u64> = stamps("probe").into_iter().filter(|&t| t >= 100).collect();
        assert_eq!(probed.len(), 86);
        for hop in ["h0", "h1"] {
            let published = stamps(hop);
            assert!(probed.iter().all(|t| published.contains(t)), "{hop}: {published:?}");
        }
        let h2 = stamps("h2");
        assert!(h2.windows(2).all(|w| w[1] - w[0] >= 11), "{h2:?}");
    }

    #[test]
    fn unregistering_derived_vertices_releases_their_inputs() {
        use apollo_streams::{SlabConfig, SpillBackend};
        let store = temp_store("unregister-derived", SlabConfig::default());
        let streams = StreamConfig {
            max_len: Some(64),
            archive_evicted: true,
            spill: SpillBackend::slab(Arc::clone(&store)),
        };
        let mut apollo = Apollo::with_config(EventLoop::new_virtual(), streams);
        let every = Duration::from_secs(1);
        let source = Arc::new(ConstSource::new("c", 5.0));
        apollo.register_fact(FactVertexSpec::fixed("cap", source, every)).unwrap();
        apollo
            .register_insight(InsightVertexSpec::sum_of("sum", vec!["cap".into()], every))
            .unwrap();
        apollo.register_continuous("cq/avg", "SELECT AVG(metric) FROM cap", every).unwrap();
        apollo.run_for(Duration::from_secs(5)); // both ran once, at 1 s, and parked
        let broker = apollo.broker();
        let info = broker.topic_info("cap").unwrap();
        assert_eq!(info.readers, 2, "both steps' wakers");
        let timers = apollo.el.timer_count();

        apollo.unregister("cq/avg").unwrap();
        apollo.unregister("sum").unwrap();
        apollo.run_for(Duration::from_millis(1)); // one turn reaps both parked timers
        assert_eq!(apollo.el.timer_count(), timers - 2);
        let info = broker.topic_info("cap").unwrap();
        assert_eq!(info.readers, 0);
        let _ = std::fs::remove_file(store.path());
    }
}
