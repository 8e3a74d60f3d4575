//! Continuous (standing) queries.
//!
//! A [`ContinuousQuery`] is a registered query that folds newly published
//! records incrementally instead of rescanning its tables on every
//! evaluation. The service layer seeds it from one consistent snapshot,
//! then feeds it each new record as it arrives;
//! [`ContinuousQuery::result`] reads the standing answer out in O(rows).
//!
//! **Equivalence contract:** at any quiescent point (all published
//! records folded), `result()` is **bit-identical** to executing the same
//! query from scratch over the broker. This holds because the fold
//! reuses the executor's own machinery — `ScanState` for aggregates,
//! `apply_order_limit`/`merge_arm_results` for row shaping — and
//! records arrive in the same stream order a fresh range scan would
//! yield. The soak harness checks the contract at every checkpoint.
//!
//! JOIN arms are rejected at registration: a semi-join's admitted set can
//! *shrink* when the partner table evicts, which no append-only fold can
//! track.

use crate::ast::{Aggregate, Query};
use crate::exec::{apply_order_limit, merge_arm_results, ExecError, QueryResult, Row, ScanState};
use apollo_streams::codec::Record;

/// Why a query cannot run continuously.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContinuousError {
    /// JOIN arms need the partner table's full window on every match and
    /// cannot be folded append-only.
    UnsupportedJoin {
        /// Zero-based arm index.
        arm: usize,
        /// The joined table.
        table: String,
    },
}

impl std::fmt::Display for ContinuousError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContinuousError::UnsupportedJoin { arm, table } => {
                write!(f, "arm {arm} joins table {table:?}: JOIN arms cannot run continuously")
            }
        }
    }
}

impl std::error::Error for ContinuousError {}

/// Per-arm fold state.
#[derive(Debug)]
enum ArmAcc {
    /// `MAX(Timestamp), metric`: the last in-window record wins.
    Latest(Option<Record>),
    /// `SELECT metric`: admitted rows in arrival order (ordering/limit
    /// applied at read-out, since `ORDER BY metric` is not prefix-stable).
    All(Vec<Row>),
    /// Scan aggregates: the executor's own sequential accumulator.
    Scan(ScanState),
}

/// A standing query folding records incrementally. See the module docs
/// for the equivalence contract.
#[derive(Debug)]
pub struct ContinuousQuery {
    query: Query,
    arms: Vec<ArmAcc>,
    folded: u64,
    break_fold: bool,
}

impl ContinuousQuery {
    /// Wrap a parsed query. Fails for JOIN arms (see module docs).
    pub fn new(query: Query) -> Result<Self, ContinuousError> {
        for (i, s) in query.selects.iter().enumerate() {
            if let Some(j) = &s.join {
                return Err(ContinuousError::UnsupportedJoin { arm: i, table: j.table.clone() });
            }
        }
        let arms = query
            .selects
            .iter()
            .map(|s| match s.aggregate {
                Aggregate::Latest => ArmAcc::Latest(None),
                Aggregate::All => ArmAcc::All(Vec::new()),
                _ => ArmAcc::Scan(ScanState::new(s)),
            })
            .collect();
        Ok(Self { query, arms, folded: 0, break_fold: false })
    }

    /// The underlying query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Number of UNION arms.
    pub fn arm_count(&self) -> usize {
        self.arms.len()
    }

    /// The table arm `i` reads.
    pub fn table(&self, arm: usize) -> &str {
        &self.query.selects[arm].table
    }

    /// Records folded so far (including out-of-window ones).
    pub fn folded(&self) -> u64 {
        self.folded
    }

    /// Fold one record published to arm `arm`'s table. `entry_ms` is the
    /// *publish* (stream-entry) time — the same axis `WHERE Timestamp`
    /// filters and range scans select on; the record's own timestamp
    /// drives buckets and row output, exactly as in a full scan.
    pub fn fold(&mut self, arm: usize, entry_ms: u64, record: &Record) {
        self.folded += 1;
        if self.break_fold && self.folded.is_multiple_of(5) {
            return; // deliberately broken fold for harness teeth tests
        }
        let select = &self.query.selects[arm];
        let (lo, hi) = select.time_range.unwrap_or((0, u64::MAX));
        if entry_ms < lo || entry_ms > hi {
            return;
        }
        match &mut self.arms[arm] {
            ArmAcc::Latest(slot) => *slot = Some(*record),
            ArmAcc::All(rows) => {
                if select.value_preds.iter().all(|p| p.admits(record.value)) {
                    rows.push(Row::record(&select.table, record));
                }
            }
            ArmAcc::Scan(st) => st.observe(
                select,
                None,
                record.timestamp_ns / 1_000_000,
                record.value,
                record.provenance,
            ),
        }
    }

    /// Read the standing result out. Mirrors
    /// [`QueryEngine::execute`](crate::exec::QueryEngine::execute)
    /// exactly: single-arm errors propagate, multi-arm unions keep
    /// healthy arms, post-merge order/limit apply last.
    pub fn result(&self) -> Result<QueryResult, ExecError> {
        let results: Vec<Result<Vec<Row>, ExecError>> = self
            .arms
            .iter()
            .zip(&self.query.selects)
            .map(|(acc, select)| match acc {
                ArmAcc::Latest(slot) => slot
                    .as_ref()
                    .map(|r| vec![Row::record(&select.table, r)])
                    .ok_or_else(|| ExecError::EmptyTable(select.table.clone())),
                ArmAcc::All(rows) => {
                    let mut rows = rows.clone();
                    apply_order_limit(&mut rows, select.order, select.limit);
                    Ok(rows)
                }
                ArmAcc::Scan(st) => st.finalize(select),
            })
            .collect();
        merge_arm_results(&self.query, results)
    }

    /// Teeth hook for the soak harness: when enabled, every 5th folded
    /// record is silently dropped, so the standing result must diverge
    /// from a full rescan and the equivalence invariant must FAIL.
    #[doc(hidden)]
    pub fn set_break_fold(&mut self, on: bool) {
        self.break_fold = on;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::QueryEngine;
    use crate::parser::parse;
    use apollo_streams::{Broker, StreamConfig};

    /// Publish to the broker and fold into the continuous query in the
    /// same breath, then assert the standing result equals a fresh
    /// execution — the equivalence contract, in miniature.
    fn publish_and_fold(
        b: &Broker,
        cq: &mut ContinuousQuery,
        topic_arms: &[(usize, &str)],
        ts_ms: u64,
        record: Record,
    ) {
        let topic = topic_arms
            .iter()
            .find_map(|(arm, t)| (cq.table(*arm) == *t).then_some(*t))
            .expect("topic registered");
        b.publish(topic, ts_ms, record.clone().encode());
        for (arm, t) in topic_arms {
            if cq.table(*arm) == *t {
                cq.fold(*arm, ts_ms, &record);
            }
        }
    }

    fn assert_equiv(b: &Broker, cq: &ContinuousQuery) {
        let engine = QueryEngine::new(b);
        let fresh = engine.execute(cq.query());
        let standing = cq.result();
        assert_eq!(standing, fresh, "standing result diverged from full rescan");
    }

    #[test]
    fn aggregate_fold_matches_rescan_at_every_step() {
        let b = Broker::new(StreamConfig::default());
        let q = parse(
            "SELECT AVG(metric) FROM cpu WHERE Timestamp BETWEEN 100 AND 800 \
             UNION SELECT COUNT(*) FROM cpu \
             UNION SELECT MAX(Timestamp), metric FROM cpu",
        )
        .unwrap();
        let mut cq = ContinuousQuery::new(q).unwrap();
        let arms: Vec<(usize, &str)> = vec![(0, "cpu"), (1, "cpu"), (2, "cpu")];
        for i in 0..20u64 {
            let ts = 50 + i * 50;
            let v = (i as f64) * 1.25 - 3.0;
            let rec = if i % 4 == 3 {
                Record::stale(ts * 1_000_000, v)
            } else {
                Record::measured(ts * 1_000_000, v)
            };
            publish_and_fold(&b, &mut cq, &arms, ts, rec);
            assert_equiv(&b, &cq);
        }
    }

    #[test]
    fn special_values_fold_bit_for_bit_at_every_step() {
        // `neg` holds no positive value and `pos` no negative one, so MAX
        // of the first and MIN of the second are ±0 once a zero is in. Row
        // 1's zero comes first, but the lane holding rows 0, 8, … meets the
        // other zero, so the ad-hoc lane fold must redo them in order to
        // match this record-at-a-time fold. Compared via `Debug`: NaN never
        // equals itself, and -0.0 equals 0.0.
        let b = Broker::new(StreamConfig::default());
        let q = parse(
            "SELECT MAX(metric) FROM neg INCLUDE STALE UNION SELECT MIN(metric) FROM pos \
             UNION SELECT AVG(metric) FROM neg UNION SELECT COUNT(*) FROM pos \
             UNION SELECT MAX(metric) FROM neg GROUP BY BUCKET(Timestamp, 200) \
             UNION SELECT MIN(metric) FROM pos GROUP BY BUCKET(Timestamp, 200) INCLUDE STALE",
        )
        .unwrap();
        let mut cq = ContinuousQuery::new(q).unwrap();
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
                b.publish(topic, ts, rec.encode());
                for arm in 0..cq.arm_count() {
                    if cq.table(arm) == topic {
                        cq.fold(arm, ts, &rec);
                    }
                }
                let fresh = QueryEngine::new(&b).execute(cq.query());
                assert_eq!(format!("{:?}", cq.result()), format!("{fresh:?}"), "step {i}");
            }
        }
    }

    #[test]
    fn bucketed_and_filtered_folds_match() {
        let b = Broker::new(StreamConfig::default());
        let q =
            parse("SELECT SUM(metric) FROM io WHERE metric > 0 GROUP BY BUCKET(Timestamp, 200)")
                .unwrap();
        let mut cq = ContinuousQuery::new(q).unwrap();
        for i in 0..30u64 {
            let ts = i * 37;
            let v = ((i as f64) - 10.0) * 0.5;
            let rec = Record::predicted(ts * 1_000_000, v);
            b.publish("io", ts, rec.clone().encode());
            cq.fold(0, ts, &rec);
        }
        assert_equiv(&b, &cq);
    }

    #[test]
    fn all_rows_with_order_limit_match() {
        let b = Broker::new(StreamConfig::default());
        let q = parse("SELECT metric FROM t ORDER BY metric DESC LIMIT 5").unwrap();
        let mut cq = ContinuousQuery::new(q).unwrap();
        for i in 0..12u64 {
            let ts = i * 10;
            let rec = Record::measured(ts * 1_000_000, ((i * 7) % 12) as f64);
            b.publish("t", ts, rec.clone().encode());
            cq.fold(0, ts, &rec);
            assert_equiv(&b, &cq);
        }
    }

    #[test]
    fn empty_tables_error_identically() {
        let b = Broker::new(StreamConfig::default());
        let q = parse("SELECT AVG(metric) FROM nothing").unwrap();
        let cq = ContinuousQuery::new(q).unwrap();
        assert_equiv(&b, &cq);
        assert!(matches!(cq.result(), Err(ExecError::EmptyTable(t)) if t == "nothing"));
    }

    #[test]
    fn out_of_window_records_are_ignored() {
        let b = Broker::new(StreamConfig::default());
        let q = parse("SELECT SUM(metric) FROM t WHERE Timestamp BETWEEN 100 AND 200").unwrap();
        let mut cq = ContinuousQuery::new(q).unwrap();
        for ts in [50u64, 100, 150, 200, 250] {
            let rec = Record::measured(ts * 1_000_000, ts as f64);
            b.publish("t", ts, rec.clone().encode());
            cq.fold(0, ts, &rec);
        }
        assert_equiv(&b, &cq);
        assert_eq!(cq.result().unwrap().rows[0].value, 450.0);
    }

    #[test]
    fn join_queries_are_rejected() {
        let q = parse("SELECT AVG(metric) FROM a JOIN b ON Timestamp WITHIN 5ms").unwrap();
        let err = ContinuousQuery::new(q).unwrap_err();
        assert!(
            matches!(err, ContinuousError::UnsupportedJoin { arm: 0, ref table } if table == "b")
        );
    }

    #[test]
    fn broken_fold_demonstrably_diverges() {
        // Teeth: with the fold deliberately broken, the standing result
        // must NOT match the rescan — proving the equivalence check can
        // actually fail.
        let b = Broker::new(StreamConfig::default());
        let q = parse("SELECT SUM(metric) FROM t").unwrap();
        let mut cq = ContinuousQuery::new(q).unwrap();
        cq.set_break_fold(true);
        for i in 1..=10u64 {
            let rec = Record::measured(i * 1_000_000, i as f64);
            b.publish("t", i, rec.clone().encode());
            cq.fold(0, i, &rec);
        }
        let fresh = QueryEngine::new(&b).execute(cq.query()).unwrap();
        let standing = cq.result().unwrap();
        assert_ne!(standing, fresh, "a broken fold must diverge");
    }
}
