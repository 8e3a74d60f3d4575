//! Continuous (standing) queries wired into the service.
//!
//! [`crate::service::Apollo::register_continuous`] turns an AQE query into
//! an insight-style vertex. A standing query is an ordinary query kept
//! current: a step that an input's publish wakes runs it on the service's
//! own cached path ([`CachedBroker`] over the service's [`ScanCache`]) and,
//! whenever the result changed, republishes its rows to the vertex's own
//! topic as measured records, so downstream consumers can subscribe to a
//! query the way they subscribe to any fact. Its result is therefore what
//! [`crate::service::Apollo::query`] returns for the same SQL, JOINs and
//! dropped evictions included, and it costs what that query costs: the
//! scan cache resumes a whole-history `COUNT`/`SUM`/`AVG`/`MAX`/`MIN` from
//! the fold it saved, so a pump folds only the rows appended since.

use crate::graph::GraphError;
use apollo_obs::{Counter, Registry};
use apollo_query::exec::{ExecError, QueryResult};
use apollo_query::{CachedBroker, ParseError, Query, QueryEngine, ScanCache};
use apollo_streams::{Broker, Publisher, Record, StreamId};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Why [`crate::service::Apollo::register_continuous`] refused a query.
#[derive(Debug)]
pub enum ContinuousRegisterError {
    /// The SQL text failed to parse.
    Parse(ParseError),
    /// The vertex could not join the DAG (duplicate name, unknown input
    /// topic, cycle).
    Graph(GraphError),
}

impl std::fmt::Display for ContinuousRegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContinuousRegisterError::Parse(e) => write!(f, "{e}"),
            ContinuousRegisterError::Graph(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ContinuousRegisterError {}

/// What the last pump read and emitted.
struct Pumped {
    /// Each input's `last_id` as the last pump read it, read before the
    /// query ran: a publish in between leaves the vertex behind, never
    /// wrongly caught up.
    read_through: Vec<Option<StreamId>>,
    /// Last emitted standing result (change filter, §3.2.1 style).
    last: Option<QueryResult>,
    /// The output topic, resolved on the first republication.
    publisher: Publisher,
}

/// A registered standing query: its parsed query, run on the service's
/// cached path, and change-filtered republication of its result rows.
pub struct ContinuousVertex {
    name: Arc<str>,
    query: Query,
    /// Every table the query reads, arms and join partners alike.
    inputs: Vec<String>,
    broker: Arc<Broker>,
    scan_cache: Arc<ScanCache>,
    pumped: Mutex<Pumped>,
    emitted_rows: Counter,
    break_result: AtomicBool,
}

impl std::fmt::Debug for ContinuousVertex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContinuousVertex").field("name", &self.name()).finish_non_exhaustive()
    }
}

impl ContinuousVertex {
    /// The vertex `name` standing `query` over `inputs` (the tables it
    /// reads), answered through `scan_cache`.
    pub(crate) fn new(
        name: String,
        query: Query,
        inputs: Vec<String>,
        broker: Arc<Broker>,
        scan_cache: Arc<ScanCache>,
        registry: &Registry,
    ) -> Self {
        let (read_through, name) = (vec![None; inputs.len()], Arc::<str>::from(name));
        Self {
            pumped: Mutex::new(Pumped {
                read_through,
                last: None,
                publisher: broker.publisher(Arc::clone(&name)),
            }),
            name,
            query,
            inputs,
            broker,
            scan_cache,
            emitted_rows: registry.counter("query.continuous.emitted_rows"),
            break_result: AtomicBool::new(false),
        }
    }

    /// Vertex (and output topic) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Clone of the underlying query AST (for rescan comparisons).
    pub fn query(&self) -> Query {
        self.query.clone()
    }

    /// Did the last pump read every input up to the `last_id` it has now?
    pub fn caught_up(&self) -> bool {
        let pumped = self.pumped.lock();
        let now = self.inputs.iter().map(|t| self.broker.scan_meta(t).last_id);
        now.eq(pumped.read_through.iter().copied())
    }

    /// The standing result: the query run on the service's cached path,
    /// which is what [`crate::service::Apollo::query`] answers for it.
    pub fn result(&self) -> Result<QueryResult, ExecError> {
        let provider = CachedBroker::new(&self.broker, &self.scan_cache);
        let mut out = QueryEngine::new(&provider).execute(&self.query);
        if let Some(row) = out.as_mut().ok().and_then(|r| r.rows.first_mut()) {
            if self.break_result.load(Ordering::Relaxed) {
                row.value = f64::from_bits(row.value.to_bits() ^ 1);
            }
        }
        out
    }

    /// Run the query and — when its result changed — republish the rows
    /// to this vertex's topic as measured records. Returns whether an
    /// emission happened. `now_ms` stamps the published stream entries.
    pub fn pump(&self, now_ms: u64) -> bool {
        let mut pumped = self.pumped.lock();
        let pumped = &mut *pumped;
        for (table, read) in self.inputs.iter().zip(&mut pumped.read_through) {
            *read = self.broker.scan_meta(table).last_id;
        }
        // Errors (empty window, stale-only) have nothing to emit.
        let Ok(result) = self.result() else { return false };
        if pumped.last.as_ref() == Some(&result) {
            return false;
        }
        for row in &result.rows {
            pumped
                .publisher
                .publish(now_ms, Record::measured(row.timestamp_ms * 1_000_000, row.value));
        }
        self.emitted_rows.add(result.rows.len() as u64);
        pumped.last = Some(result);
        true
    }

    /// Teeth hook for the soak harness: when on, [`ContinuousVertex::result`]
    /// moves its first row's value by one ULP, so the equivalence check
    /// against a rescan must fail.
    #[doc(hidden)]
    pub fn set_break_fold(&self, on: bool) {
        self.break_result.store(on, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::ContinuousVertex;
    use crate::service::{Apollo, FactVertexSpec};
    use apollo_cluster::metrics::{ConstSource, TraceSource};
    use apollo_cluster::series::TimeSeries;
    use apollo_query::exec::{ExecSqlError, QueryEngine};
    use apollo_runtime::event_loop::EventLoop;
    use apollo_streams::{Record, StreamConfig};
    use std::sync::Arc;
    use std::time::Duration;

    const NS: u64 = 1_000_000_000;
    const HOUR: Duration = Duration::from_secs(3600);
    const AVG: &str = "SELECT AVG(metric) FROM cap";

    /// A virtual-clock service whose topics retain per `streams`, with a
    /// ramp fact per `(name, every)` that samples `i` at `i` s.
    fn ramps(streams: StreamConfig, facts: &[(&str, u64)]) -> Apollo {
        let mut apollo = Apollo::with_config(EventLoop::new_virtual(), streams);
        let trace = TimeSeries::from_points((0..60u64).map(|i| (i * NS, i as f64)).collect());
        for &(name, every) in facts {
            let source = Arc::new(TraceSource::new(name, trace.clone()));
            let spec = FactVertexSpec::fixed(name, source, Duration::from_secs(every));
            apollo.register_fact(spec).unwrap();
        }
        apollo
    }

    /// A 1 Hz ramp fact `cap`.
    fn ramp_service(streams: StreamConfig) -> Apollo {
        ramps(streams, &[("cap", 1)])
    }

    /// A service whose `topics` are facts that first poll in an hour, so a
    /// test publishes their rows itself, and the standing `sql` over them.
    fn hand_fed(topics: &[&str], sql: &str) -> (Apollo, Arc<ContinuousVertex>) {
        let mut apollo = Apollo::new_virtual();
        for &t in topics {
            let source = Arc::new(ConstSource::new(t, 0.0));
            apollo.register_fact(FactVertexSpec::fixed(t, source, HOUR)).unwrap();
        }
        let cv = apollo.register_continuous("cq/out", sql, HOUR).unwrap();
        (apollo, cv)
    }

    /// Pump `cv` at `now_ms`, then hold four readings to be bit-identical
    /// (through `Debug`: NaN never equals itself, and -0.0 equals 0.0):
    /// the row it last published, [`ContinuousVertex::result`],
    /// [`Apollo::query`] of `sql` and an uncached rescan.
    fn pump_and_check(apollo: &Apollo, cv: &ContinuousVertex, sql: &str, now_ms: u64, at: &str) {
        cv.pump(now_ms);
        assert!(cv.caught_up(), "{at}: the pump read every input");
        let broker = apollo.broker();
        let rescan = QueryEngine::new(broker.as_ref()).execute(&cv.query());
        let want = format!("{rescan:?}");
        assert_eq!(format!("{:?}", cv.result()), want, "{at}: result()");
        let served = match apollo.query(sql) {
            Err(ExecSqlError::Exec(e)) => Err(e),
            served => Ok(served.unwrap()),
        };
        assert_eq!(format!("{served:?}"), want, "{at}: Apollo::query");
        if let Some(row) = rescan.ok().and_then(|r| r.rows.last().cloned()) {
            let entry = broker.latest(cv.name()).expect("a result was published");
            let published = entry.record;
            let row = Record::measured(row.timestamp_ms * 1_000_000, row.value);
            assert_eq!(format!("{published:?}"), format!("{row:?}"), "{at}: published row");
        }
    }

    /// Register `sql` over `apollo`'s ramps after 5 s of history, then
    /// check it after a pump at every second for 25 s.
    fn every_pump_agrees(mut apollo: Apollo, sql: &str) -> Apollo {
        apollo.run_for(Duration::from_secs(5));
        let cv = apollo.register_continuous("cq/out", sql, Duration::from_secs(1)).unwrap();
        for step in 0..25 {
            apollo.run_for(Duration::from_secs(1));
            pump_and_check(&apollo, &cv, sql, apollo.now() / 1_000_000, &format!("step {step}"));
        }
        apollo
    }

    #[test]
    fn an_evicting_archiveless_window_agrees_after_every_pump() {
        let streams = StreamConfig { archive_evicted: false, ..StreamConfig::bounded(8) };
        let apollo = every_pump_agrees(ramp_service(streams), AVG);
        let info = apollo.broker().topic_info("cap").unwrap();
        assert_eq!((info.window_len, info.archived_len), (8, 0), "the window evicted");
    }

    #[test]
    fn bucketed_and_filtered_folds_match() {
        let sql = "SELECT SUM(metric) FROM cap WHERE metric > 2 GROUP BY BUCKET(Timestamp, 4s)";
        every_pump_agrees(ramp_service(StreamConfig::default()), sql);
    }

    #[test]
    fn a_join_standing_query_agrees_after_every_pump() {
        // Half of `cap`'s rows have a partner, and with evictions dropped
        // the admitted set shrinks as `half` loses rows.
        let streams = StreamConfig { archive_evicted: false, ..StreamConfig::bounded(8) };
        let apollo = ramps(streams, &[("cap", 1), ("half", 2)]);
        every_pump_agrees(apollo, "SELECT AVG(metric) FROM cap JOIN half ON Timestamp");
    }

    #[test]
    fn aggregate_fold_matches_rescan_at_every_step() {
        let sql = "SELECT AVG(metric) FROM cpu WHERE Timestamp BETWEEN 100 AND 800 \
                   UNION SELECT COUNT(*) FROM cpu UNION SELECT MAX(Timestamp), metric FROM cpu";
        let (apollo, cv) = hand_fed(&["cpu"], sql);
        for i in 0..20u64 {
            let (ts, v) = (50 + i * 50, (i as f64) * 1.25 - 3.0);
            let rec = match i % 4 {
                3 => Record::stale(ts * 1_000_000, v),
                _ => Record::measured(ts * 1_000_000, v),
            };
            apollo.broker().publish("cpu", ts, rec);
            pump_and_check(&apollo, &cv, sql, ts, &format!("step {i}"));
        }
    }

    #[test]
    fn special_values_fold_bit_for_bit_at_every_step() {
        // `neg` holds no positive value and `pos` no negative one, so MAX
        // of the first and MIN of the second are ±0 once a zero is in, and
        // the resumed folds must keep which zero came first.
        let sql = "SELECT MAX(metric) FROM neg INCLUDE STALE UNION SELECT MIN(metric) FROM pos \
                   UNION SELECT AVG(metric) FROM neg UNION SELECT COUNT(*) FROM pos \
                   UNION SELECT MAX(metric) FROM neg GROUP BY BUCKET(Timestamp, 200) \
                   UNION SELECT MIN(metric) FROM pos GROUP BY BUCKET(Timestamp, 200) INCLUDE STALE";
        let (apollo, cv) = hand_fed(&["neg", "pos"], sql);
        let neg = [-1.0, 0.0, -0.0, f64::NAN, -5e-324, f64::NEG_INFINITY];
        let pos = [1e-310, -0.0, 0.0, f64::NAN, 5e-324, f64::INFINITY];
        for i in 0..120u64 {
            // A record clock that regresses now and then revisits a bucket.
            let ts = 10 + i * 7;
            let record_ms = if i % 11 == 10 { ts - 60 } else { ts };
            let at = (i % 6) as usize;
            for (topic, v) in [("neg", neg[at]), ("pos", pos[at])] {
                let rec = match i % 13 {
                    12 => Record::stale(record_ms * 1_000_000, v),
                    _ => Record::measured(record_ms * 1_000_000, v),
                };
                apollo.broker().publish(topic, ts, rec);
                pump_and_check(&apollo, &cv, sql, ts, &format!("step {i} {topic}"));
            }
        }
    }

    #[test]
    fn all_rows_with_order_limit_match() {
        let sql = "SELECT metric FROM t ORDER BY metric DESC LIMIT 5";
        let (apollo, cv) = hand_fed(&["t"], sql);
        for i in 0..12u64 {
            let rec = Record::measured(i * 10_000_000, ((i * 7) % 12) as f64);
            apollo.broker().publish("t", i * 10, rec);
            pump_and_check(&apollo, &cv, sql, i * 10, &format!("step {i}"));
        }
    }

    #[test]
    fn empty_tables_error_identically() {
        let (apollo, cv) = hand_fed(&["nothing"], "SELECT AVG(metric) FROM nothing");
        pump_and_check(&apollo, &cv, "SELECT AVG(metric) FROM nothing", 0, "empty");
        assert!(!cv.pump(0), "an error has nothing to emit");
        assert!(apollo.broker().latest("cq/out").is_none());
    }

    #[test]
    fn out_of_window_records_are_ignored() {
        let sql = "SELECT SUM(metric) FROM t WHERE Timestamp BETWEEN 100 AND 200";
        let (apollo, cv) = hand_fed(&["t"], sql);
        for ts in [50u64, 100, 150, 200, 250] {
            apollo.broker().publish("t", ts, Record::measured(ts * 1_000_000, ts as f64));
            pump_and_check(&apollo, &cv, sql, ts, &format!("at {ts} ms"));
        }
        assert_eq!(cv.result().unwrap().rows[0].value, 450.0);
    }

    #[test]
    fn broken_fold_demonstrably_diverges() {
        // Teeth: with the hook on, the standing result must NOT match the
        // rescan, proving the equivalence check can fail.
        let (apollo, cv) = hand_fed(&["t"], "SELECT SUM(metric) FROM t");
        for i in 1..=10u64 {
            apollo.broker().publish("t", i, Record::measured(i * 1_000_000, i as f64));
        }
        let fresh = QueryEngine::new(apollo.broker().as_ref()).execute(&cv.query()).unwrap();
        cv.set_break_fold(true);
        assert_ne!(cv.result().unwrap(), fresh, "a broken result must diverge");
        cv.set_break_fold(false);
        assert_eq!(cv.result().unwrap(), fresh);
    }

    #[test]
    fn a_pump_resumes_the_cached_fold_and_is_not_an_aqe_query() {
        let mut apollo = ramp_service(StreamConfig::default());
        apollo.register_continuous("cq/avg", AVG, Duration::from_secs(1)).unwrap();
        apollo.run_for(Duration::from_secs(10));
        let snap = apollo.metrics_snapshot();
        assert_eq!(snap.counter("query.executed"), 0, "pumps are not AQE queries");
        assert!(snap.counter("query.scan_cache.fold_resumed") >= 8, "{snap:?}");
        assert_eq!(apollo.scan_cache().misses(), 1, "only the first pump scanned");
        assert_eq!(snap.counter("query.continuous.registered"), 1);
        assert!(snap.histograms.contains_key("query.continuous.fold_ns"));
        let out = apollo.query(AVG).unwrap();
        assert_eq!(out, QueryEngine::new(apollo.broker().as_ref()).execute_sql(AVG).unwrap());
        assert_eq!(apollo.metrics_snapshot().counter("query.executed"), 1);
    }

    #[test]
    fn an_archived_eviction_keeps_the_standing_query_serving() {
        let mut apollo = ramp_service(StreamConfig::bounded(8));
        let cv = apollo.register_continuous("cq/avg", AVG, Duration::from_secs(1)).unwrap();
        apollo.run_for(Duration::from_secs(20));
        assert!(apollo.broker().topic_info("cap").unwrap().archived_len > 0);
        assert_eq!(cv.result().unwrap().rows[0].counts.unwrap().measured, 20);
        assert_eq!(cv.result().unwrap(), apollo.query(AVG).unwrap());
    }

    #[test]
    fn a_publish_behind_the_pumps_back_is_read_by_the_next_pump() {
        let max = "SELECT MAX(metric) FROM cap";
        let mut apollo = ramp_service(StreamConfig::default());
        let cv = apollo.register_continuous("cq/max", max, Duration::from_secs(1)).unwrap();
        apollo.run_for(Duration::from_secs(5));
        assert!(cv.caught_up());
        apollo.broker().publish("cap", 5_500, Record::measured(5_500_000_000, 500.0));
        assert!(!cv.caught_up(), "the vertex has not read the new row");
        assert_eq!(apollo.query(max).unwrap().rows[0].value, 500.0, "a query sees it");
        assert_eq!(cv.result().unwrap().rows[0].value, 500.0, "and so does result()");
        // The publish woke the vertex; its next pump reads and republishes.
        apollo.run_for(Duration::from_secs(1));
        assert!(cv.caught_up());
        let latest = apollo.broker().latest("cq/max").unwrap();
        assert_eq!(latest.record.value, 500.0);
    }

    #[test]
    fn changed_results_are_republished_as_facts() {
        let mut apollo = ramp_service(StreamConfig::default());
        apollo.register_continuous("cq/avg", AVG, Duration::from_secs(1)).unwrap();
        apollo.run_for(Duration::from_secs(10));
        // The standing AVG over a ramp changes every pump, so the vertex
        // topic carries a history of result rows.
        let out = apollo.query("SELECT MAX(Timestamp), metric FROM cq/avg").unwrap();
        let standing = apollo.continuous()[0].result().unwrap();
        assert_eq!(out.rows[0].value, standing.rows[0].value);
        assert!(apollo.metrics_snapshot().counter("query.continuous.emitted_rows") >= 2);
    }

    #[test]
    fn unknown_input_topics_are_rejected() {
        let mut apollo = ramp_service(StreamConfig::default());
        for sql in
            ["SELECT AVG(metric) FROM nope", "SELECT AVG(metric) FROM cap JOIN nope ON Timestamp"]
        {
            let err = apollo.register_continuous("cq/x", sql, Duration::from_secs(1)).unwrap_err();
            assert!(matches!(err, super::ContinuousRegisterError::Graph(_)), "{err}");
        }
    }
}
