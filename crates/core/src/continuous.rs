//! Continuous (standing) queries wired into the service.
//!
//! [`crate::service::Apollo::register_continuous`] turns a registered AQE
//! query into an insight-style vertex: the query is seeded from one
//! consistent snapshot per input topic, then a step that an input's publish
//! wakes reads each arm's topic after its cursor and incrementally folds
//! the new records through the engine's own
//! [`apollo_query::ContinuousQuery`] machinery. The standing result:
//!
//! * is **bit-identical** to a full rescan at any quiescent point (the
//!   soak harness checks this at every checkpoint, with a teeth test
//!   proving a broken fold diverges);
//! * is republished to the vertex's own topic as ordinary fact records
//!   whenever it changes, so downstream consumers can subscribe to a
//!   query the way they subscribe to any fact;
//! * serves [`crate::service::Apollo::query`] and
//!   [`crate::service::ApolloHandle::query`] directly (the `incremental`
//!   access path of [`apollo_query::ScanCache`]'s doc) whenever the fold
//!   has caught up with every input topic's tail — a standing query
//!   answers in O(rows) with no scan and no cache probe. Evictions do not
//!   end that: while the stream still retains the oldest row the fold
//!   consumed, a rescan reads every row the fold did.
//!
//! Seeding is race-free against concurrent publishes: each arm's cursor
//! starts at the seed snapshot's last ID, so whatever is published after
//! the snapshot is read by the next pump, and nothing twice.

use crate::graph::GraphError;
use apollo_obs::{Counter, Registry};
use apollo_query::exec::{ExecError, QueryResult};
use apollo_query::{ContinuousError, ContinuousQuery, ParseError, Query};
use apollo_streams::{Broker, Entry, Publisher, Record, StreamId};
use parking_lot::Mutex;
use std::sync::Arc;

/// Why [`crate::service::Apollo::register_continuous`] refused a query.
#[derive(Debug)]
pub enum ContinuousRegisterError {
    /// The SQL text failed to parse.
    Parse(ParseError),
    /// The query cannot be folded incrementally (JOIN arms).
    Unsupported(ContinuousError),
    /// The vertex could not join the DAG (duplicate name, unknown input
    /// topic, cycle).
    Graph(GraphError),
}

impl std::fmt::Display for ContinuousRegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContinuousRegisterError::Parse(e) => write!(f, "{e}"),
            ContinuousRegisterError::Unsupported(e) => write!(f, "{e}"),
            ContinuousRegisterError::Graph(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ContinuousRegisterError {}

/// Per-arm feed: the input topic, a cursor into it, and what a rescan
/// must still see for the fold to stand in for it.
struct ArmFeed {
    table: String,
    /// The stream incarnation ([`apollo_streams::ScanMeta::source`]) the
    /// fold consumed its rows from, read before its first row was.
    source: u64,
    /// First entry folded: a rescan reads every row the fold consumed
    /// while the stream retains it (not after a ring lap or a dropped
    /// eviction).
    folded_from: Option<StreamId>,
    /// Last entry folded (seed or pump): the next pump reads after it,
    /// and the fold is caught up when it equals the topic's live tail.
    folded_through: Option<StreamId>,
}

impl ArmFeed {
    /// Fold `entries`, the arm's rows after its cursor, into arm `i` of
    /// `cq`; `source` was read before them. Returns the records folded.
    fn fold(&mut self, i: usize, cq: &mut ContinuousQuery, source: u64, entries: &[Entry]) -> u64 {
        if let (None, Some(first)) = (self.folded_from, entries.first()) {
            (self.source, self.folded_from) = (source, Some(first.id));
        }
        let mut folded = 0;
        for e in entries {
            // Decode per entry (not `ScanBatch::records`) so each fold
            // keeps its publish timestamp; corrupt payloads are skipped
            // exactly as a range scan skips them.
            if let Ok(r) = Record::decode(&e.payload) {
                cq.fold(i, e.id.ms, &r);
                folded += 1;
            }
            self.folded_through = Some(e.id);
        }
        folded
    }
}

struct Inner {
    cq: ContinuousQuery,
    arms: Vec<ArmFeed>,
    /// Last emitted standing result (change filter, §3.2.1 style).
    last: Option<QueryResult>,
}

impl Inner {
    fn caught_up(&self, broker: &Broker) -> bool {
        self.arms.iter().all(|a| {
            let now = broker.scan_meta(&a.table);
            let retained = a.folded_from.is_none_or(|oldest| {
                now.source == a.source && now.first_id.is_some_and(|first| first <= oldest)
            });
            retained && now.last_id == a.folded_through
        })
    }
}

/// A registered standing query: per-arm cursors, the incremental fold,
/// and change-filtered republication of result rows.
pub struct ContinuousVertex {
    /// The output topic, resolved on the first republication.
    publisher: Publisher,
    /// The standing query's AST, outside the lock: the query path
    /// compares every incoming query against it.
    query: Query,
    broker: Arc<Broker>,
    inner: Mutex<Inner>,
    folds: Counter,
    emitted_rows: Counter,
}

impl std::fmt::Debug for ContinuousVertex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContinuousVertex").field("name", &self.name()).finish_non_exhaustive()
    }
}

impl ContinuousVertex {
    /// Build the vertex: seed the fold from one consistent full-range
    /// snapshot per input topic, and start each arm's cursor at its end.
    pub(crate) fn seed(
        name: String,
        mut cq: ContinuousQuery,
        broker: Arc<Broker>,
        registry: &Registry,
    ) -> Self {
        let mut arms = Vec::with_capacity(cq.arm_count());
        for i in 0..cq.arm_count() {
            let table = cq.table(i).to_string();
            let source = broker.scan_meta(&table).source;
            let batch = broker.scan_batch(&table, StreamId::MIN, StreamId::MAX);
            let mut arm = ArmFeed { table, source, folded_from: None, folded_through: None };
            arm.fold(i, &mut cq, source, &batch.entries);
            arms.push(arm);
        }
        Self {
            publisher: broker.publisher(name),
            query: cq.query().clone(),
            broker,
            inner: Mutex::new(Inner { cq, arms, last: None }),
            folds: registry.counter("query.continuous.folds"),
            emitted_rows: registry.counter("query.continuous.emitted_rows"),
        }
    }

    /// Vertex (and output topic) name.
    pub fn name(&self) -> &str {
        self.publisher.topic()
    }

    /// Clone of the underlying query AST (for rescan comparisons and
    /// planner matching).
    pub fn query(&self) -> Query {
        self.query.clone()
    }

    /// Records folded so far, seed included.
    pub fn folded(&self) -> u64 {
        self.inner.lock().cq.folded()
    }

    /// Does `q` name exactly this standing query?
    pub fn matches(&self, q: &Query) -> bool {
        self.query == *q
    }

    /// Has the fold consumed every record published to every input topic,
    /// and does each topic still retain every record it consumed? Only
    /// then may the standing result substitute for a fresh scan.
    pub fn caught_up(&self) -> bool {
        self.inner.lock().caught_up(&self.broker)
    }

    /// The standing result, in O(rows).
    pub fn result(&self) -> Result<QueryResult, ExecError> {
        self.inner.lock().cq.result()
    }

    /// The incremental tier: the standing result if `q` is this standing
    /// query and the fold is caught up, checked and read under one hold
    /// of the vertex lock (which [`ContinuousVertex::pump`] also holds
    /// while it folds, so the result is never a half-folded one).
    pub(crate) fn serve(&self, q: &Query) -> Option<Result<QueryResult, ExecError>> {
        if !self.matches(q) {
            return None;
        }
        let inner = self.inner.lock();
        inner.caught_up(&self.broker).then(|| inner.cq.result())
    }

    /// Read every arm's topic after its cursor, fold the new records,
    /// and — when the standing result changed — republish its rows to
    /// this vertex's topic as measured records. Returns whether an
    /// emission happened. `now_ms` stamps the published stream entries.
    pub fn pump(&self, now_ms: u64) -> bool {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let mut folded = 0u64;
        for (i, arm) in inner.arms.iter_mut().enumerate() {
            // Read before the rows: an incarnation that changes in between
            // leaves the arm stale, never wrongly caught up.
            let source = match arm.folded_from {
                Some(_) => arm.source,
                None => self.broker.scan_meta(&arm.table).source,
            };
            let entries = self.broker.read_after(&arm.table, arm.folded_through, usize::MAX);
            folded += arm.fold(i, &mut inner.cq, source, &entries);
        }
        self.folds.add(folded);
        let result = match inner.cq.result() {
            Ok(r) => r,
            // Errors (empty window, stale-only) have nothing to emit;
            // they still surface through `result()`/the query path.
            Err(_) => return false,
        };
        if inner.last.as_ref() == Some(&result) {
            return false;
        }
        for row in &result.rows {
            self.publisher.publish(
                now_ms,
                Record::measured(row.timestamp_ms * 1_000_000, row.value).encode(),
            );
        }
        self.emitted_rows.add(result.rows.len() as u64);
        inner.last = Some(result);
        true
    }

    /// Teeth hook: see [`ContinuousQuery::set_break_fold`].
    #[doc(hidden)]
    pub fn set_break_fold(&self, on: bool) {
        self.inner.lock().cq.set_break_fold(on);
    }
}

#[cfg(test)]
mod tests {
    use crate::service::{Apollo, FactVertexSpec};
    use apollo_cluster::metrics::TraceSource;
    use apollo_cluster::series::TimeSeries;
    use apollo_query::exec::QueryEngine;
    use apollo_runtime::event_loop::EventLoop;
    use apollo_streams::StreamConfig;
    use std::sync::Arc;
    use std::time::Duration;

    const NS: u64 = 1_000_000_000;
    const AVG: &str = "SELECT AVG(metric) FROM cap";

    /// A 1 Hz ramp fact `cap` on a virtual-clock service whose topics
    /// retain per `streams`.
    fn ramp_service(streams: StreamConfig) -> Apollo {
        let mut apollo = Apollo::with_config(EventLoop::new_virtual(), streams);
        let trace = TimeSeries::from_points((0..60u64).map(|i| (i * NS, i as f64)).collect());
        apollo
            .register_fact(FactVertexSpec::fixed(
                "cap",
                Arc::new(TraceSource::new("cap", trace)),
                Duration::from_secs(1),
            ))
            .unwrap();
        apollo
    }

    #[test]
    fn standing_query_seeds_folds_and_matches_rescan() {
        let mut apollo = ramp_service(StreamConfig::default());
        // Pre-existing history exercises the seed path.
        apollo.run_for(Duration::from_secs(3));
        let cv = apollo
            .register_continuous("cq/avg", "SELECT AVG(metric) FROM cap", Duration::from_secs(1))
            .unwrap();
        assert!(cv.folded() >= 3, "seed folded the existing records");
        apollo.run_for(Duration::from_secs(7));
        let standing = cv.result().unwrap();
        let fresh = QueryEngine::new(apollo.broker().as_ref()).execute(&cv.query()).unwrap();
        assert_eq!(standing, fresh, "standing result bit-identical to a rescan");
    }

    #[test]
    fn caught_up_queries_serve_incrementally_without_scanning() {
        let mut apollo = ramp_service(StreamConfig::default());
        apollo
            .register_continuous("cq/avg", "SELECT AVG(metric) FROM cap", Duration::from_secs(1))
            .unwrap();
        apollo.run_for(Duration::from_secs(10));
        let out = apollo.query("SELECT AVG(metric) FROM cap").unwrap();
        let fresh = QueryEngine::new(apollo.broker().as_ref())
            .execute(&apollo_query::parse("SELECT AVG(metric) FROM cap").unwrap())
            .unwrap();
        assert_eq!(out, fresh);
        let snap = apollo.metrics_snapshot();
        assert_eq!(snap.counter("query.planner.incremental"), 1, "served by the standing fold");
        assert_eq!(snap.counter("query.executed"), 1);
        assert_eq!(apollo.scan_cache().misses(), 0, "no scan happened");
        assert_eq!(snap.counter("query.continuous.registered"), 1);
        assert!(snap.counter("query.continuous.folds") >= 9, "{snap:?}");
        assert!(snap.histograms.contains_key("query.continuous.fold_ns"));
    }

    /// A standing `AVG` over 20 ramp records, 12 of them evicted (kept or
    /// dropped per `archive_evicted`), queried once and checked against a
    /// rescan.
    fn standing_avg_over_evictions(archive_evicted: bool) -> Apollo {
        let mut apollo = ramp_service(StreamConfig { archive_evicted, ..StreamConfig::bounded(8) });
        apollo.register_continuous("cq/avg", AVG, Duration::from_secs(1)).unwrap();
        apollo.run_for(Duration::from_secs(20));
        assert_eq!(apollo.broker().topic_info("cap").unwrap().window_len, 8, "the window evicted");
        let out = apollo.query(AVG).unwrap();
        let rescan = QueryEngine::new(apollo.broker().as_ref()).execute_sql(AVG).unwrap();
        assert_eq!(out, rescan);
        apollo
    }

    #[test]
    fn an_archived_eviction_keeps_the_standing_query_serving() {
        let apollo = standing_avg_over_evictions(true);
        assert!(apollo.broker().topic_info("cap").unwrap().archived_len > 0);
        let snap = apollo.metrics_snapshot();
        assert_eq!(snap.counter("query.planner.incremental"), 1, "served by the standing fold");
        assert_eq!(apollo.scan_cache().misses(), 0, "no scan happened");
        assert_eq!(apollo.continuous()[0].result().unwrap().rows[0].counts.unwrap().measured, 20);
    }

    #[test]
    fn a_dropped_eviction_falls_back_to_a_scan() {
        let apollo = standing_avg_over_evictions(false);
        assert_eq!(apollo.broker().topic_info("cap").unwrap().archived_len, 0);
        assert_eq!(apollo.metrics_snapshot().counter("query.planner.incremental"), 0);
        assert!(!apollo.continuous()[0].caught_up(), "the fold holds rows a rescan cannot see");
    }

    #[test]
    fn stale_fold_falls_back_to_a_scan_then_recovers() {
        let mut apollo = ramp_service(StreamConfig::default());
        apollo
            .register_continuous("cq/max", "SELECT MAX(metric) FROM cap", Duration::from_secs(1))
            .unwrap();
        apollo.run_for(Duration::from_secs(5));
        // Publish behind the pump's back: the fold is no longer caught
        // up, so the query must scan (and see the new record).
        apollo.broker().publish(
            "cap",
            6_000,
            apollo_streams::Record::measured(6 * NS, 500.0).encode(),
        );
        let out = apollo.query("SELECT MAX(metric) FROM cap").unwrap();
        assert_eq!(out.rows[0].value, 500.0);
        assert_eq!(apollo.metrics_snapshot().counter("query.planner.incremental"), 0);
        // The next pump folds it; the incremental tier takes over again.
        apollo.run_for(Duration::from_secs(1));
        let out = apollo.query("SELECT MAX(metric) FROM cap").unwrap();
        assert_eq!(out.rows[0].value, 500.0);
        assert_eq!(apollo.metrics_snapshot().counter("query.planner.incremental"), 1);
    }

    #[test]
    fn changed_results_are_republished_as_facts() {
        let mut apollo = ramp_service(StreamConfig::default());
        apollo
            .register_continuous("cq/avg", "SELECT AVG(metric) FROM cap", Duration::from_secs(1))
            .unwrap();
        apollo.run_for(Duration::from_secs(10));
        // The standing AVG over a ramp changes every fold, so the vertex
        // topic carries a history of result rows.
        let out = apollo.query("SELECT MAX(Timestamp), metric FROM cq/avg").unwrap();
        let standing = apollo.continuous()[0].result().unwrap();
        assert_eq!(out.rows[0].value, standing.rows[0].value);
        assert!(apollo.metrics_snapshot().counter("query.continuous.emitted_rows") >= 2);
    }

    #[test]
    fn join_queries_are_rejected_at_registration() {
        let mut apollo = ramp_service(StreamConfig::default());
        let err = apollo
            .register_continuous(
                "cq/j",
                "SELECT COUNT(*) FROM cap JOIN cap ON Timestamp",
                Duration::from_secs(1),
            )
            .unwrap_err();
        assert!(matches!(err, super::ContinuousRegisterError::Unsupported(_)), "{err}");
    }

    #[test]
    fn unknown_input_topics_are_rejected() {
        let mut apollo = ramp_service(StreamConfig::default());
        let err = apollo
            .register_continuous("cq/x", "SELECT AVG(metric) FROM nope", Duration::from_secs(1))
            .unwrap_err();
        assert!(matches!(err, super::ContinuousRegisterError::Graph(_)), "{err}");
    }
}
