//! The executor against a naive fold over seeded broker states, and the
//! cached-tail-vs-fresh-scan differential suite (second half).
//!
//! The oracle ([`naive::execute`]) answers a parsed query the obvious way:
//! per arm, the window's records
//! (`Broker::scan_batch_by_time(..).records`), filtered, grouped into
//! buckets and folded in stream order — none of the engine's code (no
//! `ScanState`, no column kernel, no cache). The engine, over the plain
//! broker and through a [`CachedBroker`], must match it on every query in
//! the v2 surface — value predicates, time windows, `GROUP BY BUCKET`,
//! joins with tolerance, unions with per-arm/post-merge ordering and arm
//! errors — across broker states that exercise every provenance (measured
//! / predicted / stale), eviction churn behind the scan cache, and special values — signed
//! zeros, NaN, infinities and subnormals, in slices across the lane (8) and
//! provenance-chunk (255) edges, under record clocks that regress (bucket
//! revisits, join cursor resets, unsorted batches). Results are compared
//! through their `Debug` form, which round-trips `f64` bits exactly: the
//! oracle's sums start at `0.0` and add in stream order, as the engine's
//! do, so a single ULP of divergence fails the suite. The last test holds
//! the tail's saved folds to the same oracle: whole-tail aggregates and
//! sliding bucketed arms resumed across appends, evictions, head loss,
//! reach trims, topic re-creation and regressing record clocks.

use apollo_query::exec::{CachedBroker, QueryEngine, ScanCache, TableProvider};
use apollo_query::{parse, Query};
use apollo_streams::codec::Record;
use apollo_streams::{Broker, SlabConfig, SlabStore, StreamConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// The query semantics, spelled out over records.
mod naive {
    use apollo_query::ast::OrderBy;
    use apollo_query::exec::{AggregateCounts, ArmError, ExecError, QueryResult, Row};
    use apollo_query::{Aggregate, Query, Select};
    use apollo_streams::codec::{Provenance, Record};
    use apollo_streams::Broker;
    use std::collections::BTreeMap;

    fn ms(r: &Record) -> u64 {
        r.timestamp_ns / 1_000_000
    }

    fn record_row(table: &str, r: &Record) -> Row {
        let (timestamp_ms, value, provenance) = (ms(r), r.value, Some(r.provenance));
        Row { table: table.to_string(), timestamp_ms, value, provenance, counts: None }
    }

    fn split(records: &[&Record]) -> AggregateCounts {
        let of = |p: Provenance| records.iter().filter(|r| r.provenance == p).count() as u64;
        AggregateCounts {
            measured: of(Provenance::Measured),
            predicted: of(Provenance::Predicted),
            stale: of(Provenance::Stale),
        }
    }

    /// `agg` over `values`, folded front to back. MAX and MIN keep the
    /// first of equal values and skip NaN: `f64::max` skips NaN too, but
    /// leaves the sign of a zero answer unspecified.
    fn fold(agg: Aggregate, values: &[f64]) -> f64 {
        match agg {
            Aggregate::Max => {
                values.iter().fold(f64::NEG_INFINITY, |m, &v| if v > m { v } else { m })
            }
            Aggregate::Min => values.iter().fold(f64::INFINITY, |m, &v| if v < m { v } else { m }),
            Aggregate::Sum => values.iter().fold(0.0, |s, &v| s + v),
            Aggregate::Avg => fold(Aggregate::Sum, values) / values.len() as f64,
            Aggregate::Count => values.len() as f64,
            Aggregate::Latest | Aggregate::All => unreachable!("not a scan aggregate"),
        }
    }

    /// Stable sort, then truncate; NaN compares equal to everything.
    fn order_limit(rows: &mut Vec<Row>, order: Option<OrderBy>, limit: Option<usize>) {
        let by_value =
            |a: &Row, b: &Row| a.value.partial_cmp(&b.value).unwrap_or(std::cmp::Ordering::Equal);
        match order {
            None => {}
            Some(OrderBy::TimestampAsc) => rows.sort_by_key(|r| r.timestamp_ms),
            Some(OrderBy::TimestampDesc) => rows.sort_by_key(|r| std::cmp::Reverse(r.timestamp_ms)),
            Some(OrderBy::MetricAsc) => rows.sort_by(by_value),
            Some(OrderBy::MetricDesc) => rows.sort_by(|a, b| by_value(b, a)),
        }
        rows.truncate(limit.unwrap_or(usize::MAX));
    }

    fn arm(broker: &Broker, s: &Select) -> Result<Vec<Row>, ExecError> {
        let (lo, hi) = s.time_range.unwrap_or((0, u64::MAX));
        let records = broker.scan_batch_by_time(&s.table, lo, hi).records;
        let empty = || ExecError::EmptyTable(s.table.clone());
        if s.aggregate == Aggregate::Latest {
            return records.last().map(|r| vec![record_row(&s.table, r)]).ok_or_else(empty);
        }
        let partner: Option<(Vec<u64>, u64)> = s.join.as_ref().map(|j| {
            let (plo, phi) = (lo.saturating_sub(j.tolerance_ms), hi.saturating_add(j.tolerance_ms));
            let rows = broker.scan_batch_by_time(&j.table, plo, phi).records;
            (rows.iter().map(ms).collect(), j.tolerance_ms)
        });
        let admitted: Vec<&Record> = records
            .iter()
            .filter(|r| s.value_preds.iter().all(|p| p.admits(r.value)))
            .filter(|r| {
                partner
                    .as_ref()
                    .is_none_or(|(ts, tol)| ts.iter().any(|t| t.abs_diff(ms(r)) <= *tol))
            })
            .collect();
        if s.aggregate == Aggregate::All {
            let mut rows = admitted.iter().map(|r| record_row(&s.table, r)).collect();
            order_limit(&mut rows, s.order, s.limit);
            return Ok(rows);
        }
        if records.is_empty() {
            return Err(empty());
        }
        let counted = |r: &Record| s.include_stale || r.provenance != Provenance::Stale;
        let aggregate_row = |timestamp_ms, values: &[f64], of: &[&Record]| Row {
            table: s.table.clone(),
            timestamp_ms,
            value: fold(s.aggregate, values),
            provenance: None,
            counts: Some(split(of)),
        };
        if let Some(width) = s.bucket_ms {
            let mut buckets: BTreeMap<u64, Vec<&Record>> = BTreeMap::new();
            for r in &admitted {
                buckets.entry(ms(r) - ms(r) % width).or_default().push(r);
            }
            let rows = buckets.into_iter().filter_map(|(start, of)| {
                let values: Vec<f64> = of.iter().filter(|r| counted(r)).map(|r| r.value).collect();
                let keep = s.aggregate == Aggregate::Count || !values.is_empty();
                keep.then(|| aggregate_row(start, &values, &of))
            });
            return Ok(rows.collect());
        }
        let included: Vec<&Record> = admitted.iter().copied().filter(|r| counted(r)).collect();
        let values: Vec<f64> = included.iter().map(|r| r.value).collect();
        let newest = |of: &[&Record]| of.iter().map(|r| ms(r)).max().unwrap_or(0);
        if s.aggregate == Aggregate::Count {
            let all: Vec<&Record> = records.iter().collect();
            return Ok(vec![aggregate_row(newest(&all), &values, &admitted)]);
        }
        if admitted.is_empty() {
            return Err(empty());
        }
        if included.is_empty() {
            return Err(ExecError::StaleOnly(s.table.clone()));
        }
        Ok(vec![aggregate_row(newest(&included), &values, &admitted)])
    }

    /// Every arm, merged: a single arm's error is the query's; a union
    /// keeps its healthy arms and lists the others.
    pub fn execute(broker: &Broker, query: &Query) -> Result<QueryResult, ExecError> {
        let (mut rows, mut arm_errors) = (Vec::new(), Vec::new());
        for (i, s) in query.selects.iter().enumerate() {
            match arm(broker, s) {
                Ok(arm_rows) => rows.extend(arm_rows),
                Err(error) if query.selects.len() == 1 => return Err(error),
                Err(error) => arm_errors.push(ArmError { arm: i, error }),
            }
        }
        order_limit(&mut rows, query.order, query.limit);
        Ok(QueryResult { rows, arm_errors })
    }
}

/// The v2 query battery over a topic `t` (and a join partner `u`).
fn battery() -> Vec<Query> {
    let mut sqls: Vec<&str> = vec![
        "SELECT metric FROM t",
        "SELECT MAX(Timestamp), metric FROM t",
        "SELECT MAX(Timestamp), metric FROM t WHERE Timestamp <= 640",
        "SELECT MAX(metric) FROM t",
        "SELECT MIN(metric) FROM t",
        "SELECT AVG(metric) FROM t",
        "SELECT SUM(metric) FROM t",
        "SELECT COUNT(*) FROM t",
        "SELECT AVG(metric) FROM t INCLUDE STALE",
        "SELECT SUM(metric) FROM t INCLUDE STALE",
        "SELECT COUNT(*) FROM t INCLUDE STALE",
        "SELECT metric FROM t WHERE Timestamp BETWEEN 200 AND 700",
        "SELECT AVG(metric) FROM t WHERE Timestamp >= 350",
        "SELECT SUM(metric) FROM t WHERE Timestamp <= 640",
        "SELECT COUNT(*) FROM t WHERE Timestamp BETWEEN 400 AND 600",
        "SELECT metric FROM t WHERE metric > 0.5",
        "SELECT COUNT(*) FROM t WHERE metric <= 0.25",
        "SELECT MAX(metric) FROM t WHERE metric >= 0.2",
        "SELECT AVG(metric) FROM t WHERE Timestamp BETWEEN 100 AND 900 AND metric > 0.1",
        "SELECT AVG(metric) FROM t GROUP BY BUCKET(Timestamp, 200)",
        "SELECT COUNT(*) FROM t GROUP BY BUCKET(Timestamp, 150)",
        "SELECT SUM(metric) FROM t GROUP BY BUCKET(Timestamp, 1s)",
        "SELECT MIN(metric) FROM t GROUP BY BUCKET(Timestamp, 250)",
        "SELECT AVG(metric) FROM t GROUP BY BUCKET(Timestamp, 300) INCLUDE STALE",
        "SELECT MAX(metric) FROM t WHERE metric > 0.2 GROUP BY BUCKET(Timestamp, 300)",
        "SELECT metric FROM t JOIN u ON Timestamp",
        "SELECT COUNT(*) FROM t JOIN u ON Timestamp WITHIN 10ms",
        "SELECT AVG(metric) FROM t JOIN u ON Timestamp WITHIN 25ms",
        "SELECT metric FROM t ORDER BY Timestamp DESC LIMIT 4",
        "SELECT metric FROM t UNION SELECT metric FROM u",
        "SELECT AVG(metric) FROM t UNION SELECT COUNT(*) FROM u",
        "SELECT SUM(metric) FROM t WHERE metric > 0 \
         UNION SELECT MAX(metric) FROM u GROUP BY BUCKET(Timestamp, 200) \
         ORDER BY metric DESC LIMIT 4",
        "SELECT AVG(metric) FROM t UNION SELECT AVG(metric) FROM missing \
         UNION SELECT MAX(Timestamp), metric FROM missing UNION SELECT MIN(metric) FROM u",
        "(SELECT metric FROM t ORDER BY metric DESC LIMIT 3) \
         UNION (SELECT metric FROM u ORDER BY metric ASC LIMIT 2)",
        "SELECT metric FROM t UNION SELECT metric FROM u ORDER BY Timestamp LIMIT 5",
        "SELECT MAX(Timestamp), metric FROM missing",
    ];
    // Lane folds over slices that keep their stale rows, and the bucket
    // runs of every aggregate.
    sqls.extend([
        "SELECT MAX(metric) FROM t INCLUDE STALE",
        "SELECT MIN(metric) FROM u INCLUDE STALE",
        "SELECT MIN(metric) FROM u",
        "SELECT COUNT(*) FROM t GROUP BY BUCKET(Timestamp, 100)",
        "SELECT MAX(metric) FROM t GROUP BY BUCKET(Timestamp, 100) INCLUDE STALE",
        "SELECT MIN(metric) FROM u GROUP BY BUCKET(Timestamp, 1s)",
    ]);
    // The one column pass: predicates and a join cursor together, a
    // joined arm's bucket runs, and a joined arm that keeps stale rows.
    sqls.extend([
        "SELECT AVG(metric) FROM t JOIN u ON Timestamp WITHIN 25ms WHERE metric > 0.1",
        "SELECT MIN(metric) FROM t JOIN u ON Timestamp WITHIN 40ms GROUP BY BUCKET(Timestamp, 200)",
        "SELECT COUNT(*) FROM t JOIN u ON Timestamp WITHIN 10ms \
         WHERE Timestamp >= 200 AND metric <= 0.5 GROUP BY BUCKET(Timestamp, 150)",
        "SELECT SUM(metric) FROM t JOIN u ON Timestamp WITHIN 25ms INCLUDE STALE",
    ]);
    // Degenerate windows that select nothing must agree too.
    sqls.push("SELECT metric FROM t WHERE Timestamp BETWEEN 5 AND 6");
    sqls.push("SELECT AVG(metric) FROM t WHERE metric > 1000000000");
    sqls.iter().map(|sql| parse(sql).unwrap_or_else(|e| panic!("{sql}: {e}"))).collect()
}

/// Assert the engine — over the plain broker and through `cache` — and
/// the naive fold agree on every query in the battery, errors included.
fn assert_matches_fold(broker: &Broker, cache: &ScanCache, state: &str) {
    let cached = CachedBroker::new(broker, cache);
    let (plain, through_cache) = (QueryEngine::new(broker), QueryEngine::new(&cached));
    for query in battery() {
        let want = format!("{:?}", naive::execute(broker, &query));
        for (path, got) in
            [("plain", plain.execute(&query)), ("cached", through_cache.execute(&query))]
        {
            assert_eq!(format!("{got:?}"), want, "[{state}, {path}] diverged on: {query:?}");
        }
    }
}

fn publish(broker: &Broker, topic: &str, ts_ms: u64, record: Record) {
    broker.publish(topic, ts_ms, record);
}

/// Seed `topic` with `n` records of mixed provenance from a deterministic
/// RNG: measured / predicted / stale interleaved, values in `[-1, 1]`.
fn seed_mixed(broker: &Broker, topic: &str, n: u64, rng: &mut StdRng) {
    for i in 0..n {
        let ts_ms = (i + 1) * 37;
        let ts_ns = ts_ms * 1_000_000;
        let value: f64 = rng.random_range(-1.0..1.0);
        let record = match rng.random_range(0..10u32) {
            0..=5 => Record::measured(ts_ns, value),
            6..=8 => Record::predicted(ts_ns, value),
            _ => Record::stale(ts_ns, value),
        };
        publish(broker, topic, ts_ms, record);
    }
}

#[test]
fn engine_matches_naive_fold_on_measured_ramps() {
    let broker = Broker::new(StreamConfig::default());
    for i in 0..40u64 {
        let ts_ms = (i + 1) * 25;
        publish(&broker, "t", ts_ms, Record::measured(ts_ms * 1_000_000, (i as f64).sin()));
        if i % 3 == 0 {
            publish(&broker, "u", ts_ms, Record::measured(ts_ms * 1_000_000, i as f64 / 40.0));
        }
    }
    let cache = ScanCache::new();
    assert_matches_fold(&broker, &cache, "measured ramp (cold cache)");
    assert_matches_fold(&broker, &cache, "measured ramp (warm cache)");
}

#[test]
fn engine_matches_naive_fold_on_mixed_provenance() {
    let mut rng = StdRng::seed_from_u64(0xA90_110);
    for round in 0..8 {
        let broker = Broker::new(StreamConfig::default());
        seed_mixed(&broker, "t", 64, &mut rng);
        seed_mixed(&broker, "u", 48, &mut rng);
        assert_matches_fold(
            &broker,
            &ScanCache::new(),
            &format!("mixed provenance, round {round}"),
        );
    }
}

#[test]
fn stale_only_topics_error_identically() {
    let broker = Broker::new(StreamConfig::default());
    for i in 0..10u64 {
        let ts_ms = (i + 1) * 100;
        publish(&broker, "t", ts_ms, Record::stale(ts_ms * 1_000_000, i as f64));
        publish(&broker, "u", ts_ms, Record::stale(ts_ms * 1_000_000, -(i as f64)));
    }
    assert_matches_fold(&broker, &ScanCache::new(), "stale-only topics");
}

/// Values whose fold order shows in the bits, or that a lane fold could
/// mishandle: signed zeros, NaN, infinities and subnormals.
const SPECIAL: [f64; 9] =
    [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 5e-324, -5e-324, 1e-310, 0.75];

/// Append `n` rows of [`SPECIAL`] values to `topic`, IDs 7 ms apart from
/// `from_ms`. Provenance comes in runs, so some buckets and windows hold
/// stale rows only; one record in eight runs 400 ms behind its ID, so
/// buckets are revisited, join probes fall below the last one and the
/// batch's timestamps are unsorted.
fn seed_special(broker: &Broker, topic: &str, from_ms: u64, n: u64, rng: &mut StdRng) {
    let mut kind = 0;
    for i in 0..n {
        let id_ms = from_ms + i * 7;
        let behind = if rng.random_range(0..8u32) == 0 { 400 } else { 0 };
        let ts_ns = id_ms.saturating_sub(behind) * 1_000_000;
        if rng.random_range(0..16u32) == 0 {
            kind = rng.random_range(0..3u32);
        }
        let value = SPECIAL[rng.random_range(0..SPECIAL.len())];
        let record = match kind {
            0 => Record::measured(ts_ns, value),
            1 => Record::predicted(ts_ns, value),
            _ => Record::stale(ts_ns, value),
        };
        publish(broker, topic, id_ms, record);
    }
}

#[test]
fn engine_matches_naive_fold_on_special_values() {
    let mut rng = StdRng::seed_from_u64(0x5_9EC1A1);
    // Slices across the lane (8) and chunk (255) edges, where a zero decides
    // the extreme: `t` holds no positive value, so its MAX is ±0 whenever it
    // holds a zero, and `u` no negative one, so its MIN is. One row, and
    // all-NaN windows, too.
    let t_values = [0.0, -0.0, -0.0, 0.0, -1.5, f64::NAN, -5e-324];
    let u_values = [0.0, -0.0, 0.0, -0.0, 2.5, f64::NAN, 5e-324];
    let all_nan = [f64::NAN];
    for (n, t, u) in [1, 7, 8, 9, 255, 256, 257]
        .map(|n| (n, &t_values[..], &u_values[..]))
        .into_iter()
        .chain([(9, &all_nan[..], &all_nan[..]), (300, &all_nan[..], &u_values[..])])
    {
        let broker = Broker::new(StreamConfig::default());
        for i in 0..n {
            let ms = (i + 1) * 3;
            let (tv, uv) = (t[rng.random_range(0..t.len())], u[rng.random_range(0..u.len())]);
            publish(&broker, "t", ms, Record::measured(ms * 1_000_000, tv));
            publish(&broker, "u", ms, Record::predicted(ms * 1_000_000, uv));
        }
        let cache = ScanCache::new();
        assert_matches_fold(&broker, &cache, &format!("{n} rows of mixed zeros (cold cache)"));
        assert_matches_fold(&broker, &cache, &format!("{n} rows of mixed zeros (warm cache)"));
    }
    // Regressing record clocks and stale runs, appended between lookups so
    // the cached tail is extended across the regressions.
    let broker = Broker::new(StreamConfig::default());
    let cache = ScanCache::new();
    for round in 0..4 {
        seed_special(&broker, "t", 1 + round * 1_400, 200, &mut rng);
        seed_special(&broker, "u", 1 + round * 1_400, 120, &mut rng);
        assert_matches_fold(&broker, &cache, &format!("special values, round {round}"));
    }
    let tail = CachedBroker::new(&broker, &cache).columns("t", 0, u64::MAX);
    assert!(!tail.batch.timestamps_sorted(), "the record clock never regressed");
    assert!(cache.hits() > 0, "the tail was never extended");
}

#[test]
fn corrupt_payloads_are_handled_identically() {
    let broker = Broker::new(StreamConfig::default());
    for i in 0..20u64 {
        let ts_ms = (i + 1) * 50;
        if i % 5 == 4 {
            // Undecodable garbage interleaved with real records — and as
            // `t`'s newest offer — is refused at the publish door (it
            // panics there) and leaves no row for either path to read.
            let frame = bytes::Bytes::copy_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
            let publish = std::panic::AssertUnwindSafe(|| broker.publish("t", ts_ms, frame));
            assert!(std::panic::catch_unwind(publish).is_err(), "garbage at {ts_ms} ms");
        } else {
            publish(&broker, "t", ts_ms, Record::measured(ts_ms * 1_000_000, i as f64 * 0.3));
        }
        publish(&broker, "u", ts_ms, Record::measured(ts_ms * 1_000_000, 1.0));
    }
    assert_eq!(broker.topic_info("t").unwrap().published, 16, "only the records landed");
    assert_matches_fold(&broker, &ScanCache::new(), "corrupt interleaved");
}

#[test]
fn eviction_churn_keeps_paths_identical() {
    // A tightly bounded live window forces evictions into the archive;
    // full-span scans stitch live + archive while the cached tail is
    // extended across the evictions mid-battery. Interleave publishes
    // with queries so the cached provider extends under churn.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let broker = Broker::new(StreamConfig { max_len: Some(16), ..StreamConfig::default() });
    let cache = ScanCache::new();
    for round in 0..6 {
        seed_mixed(&broker, "t", 24, &mut rng);
        seed_mixed(&broker, "u", 12, &mut rng);
        assert_matches_fold(&broker, &cache, &format!("eviction churn, round {round}"));
    }
    assert!(broker.topic_info("t").unwrap().archived_len > 0, "churn never evicted");
    assert!(cache.hits() > cache.misses(), "the tail was rebuilt, not extended, under churn");
}

// ------------------------------------------------------------------------
// The tail invariant, differentially: after any interleaving of appends,
// evictions and lookups, the slice the cache serves for `(lo, hi)` equals
// a fresh `Broker::scan_columns_by_time(lo, hi)` taken at the same
// `(first_id, last_id)` — timestamps, value bits, provenance bytes, row count.

/// The archives a tail must stay a suffix of: a stream's private ring
/// (4 096 slots: lapped late in a run) and a file ring that holds the
/// whole run (nothing is ever lost), a file ring shorter than the run
/// (lapped mid-run: the head goes a row at a time) and no archive at all
/// (the head goes with every eviction). Windows hold 16 rows throughout.
fn over_backends(tag: &str, case: impl Fn(&str, &Broker)) {
    case("private ring", &Broker::new(StreamConfig::bounded(16)));
    let lossy = StreamConfig { archive_evicted: false, ..StreamConfig::bounded(16) };
    case("no archive", &Broker::new(lossy));
    for (name, slots) in [("slab archive", 8_192), ("lapped slab ring", 64)] {
        let path =
            std::env::temp_dir().join(format!("apollo-tail-{}-{tag}-{slots}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = SlabConfig { max_series: 4, slots, ..SlabConfig::default() };
        let store = SlabStore::create(&path, cfg).expect("create slab store");
        case(name, &Broker::new(StreamConfig::bounded(16).with_slab(Arc::clone(&store))));
        assert!(store.stats().appended > 0, "{name}: nothing was evicted into the ring");
        let _ = std::fs::remove_file(&path);
    }
}

/// The differential check for one window of topic `t`: the slice the
/// cache serves, and the records the `range` adapter collects from it.
fn assert_window_is_fresh(
    cached: &CachedBroker<'_>,
    broker: &Broker,
    (lo, hi): (u64, u64),
    at: &str,
) {
    let served = cached.columns("t", lo, hi);
    let fresh = broker.scan_columns_by_time("t", lo, hi);
    let at = format!("{at}, window [{lo}, {hi}]");
    assert_eq!(served.rows.len(), fresh.len(), "{at}: row count");
    assert_eq!(served.timestamps_ns(), &fresh.timestamps_ns[..], "{at}: timestamps");
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(served.values()), bits(&fresh.values), "{at}: value bits");
    assert_eq!(served.provenance(), &fresh.provenance[..], "{at}: provenance");
    let served_at = (served.batch.first_id, served.batch.last_id);
    assert_eq!(served_at, (fresh.first_id, fresh.last_id), "{at}: snapshot");
    let rows = cached.range("t", lo, hi);
    assert_eq!(rows, broker.scan_batch_by_time("t", lo, hi).records, "{at}: row form");
}

/// What a seeded run appends: IDs advance 0–2 ms a row (so milliseconds
/// are shared, at trim boundaries too), and one record timestamp in four
/// runs behind its ID's
/// millisecond (a clock that regressed: ID ms ≠ record ms).
struct Feed {
    rng: StdRng,
    now_ms: u64,
    rows: u64,
}

impl Feed {
    fn append(&mut self, broker: &Broker, n: u64) {
        for _ in 0..n {
            self.now_ms += self.rng.random_range(0..3u64);
            self.rows += 1;
            let behind = if self.rng.random_range(0..4u32) == 0 { 40 } else { 0 };
            let ts_ns = self.now_ms.saturating_sub(behind) * 1_000_000 + self.rows;
            let value = self.rng.random_range(-1.0..1.0);
            let record = match self.rng.random_range(0..8u32) {
                0..=2 => Record::predicted(ts_ns, value),
                3 => Record::stale(ts_ns, value),
                _ => Record::measured(ts_ns, value),
            };
            broker.publish("t", self.now_ms, record);
        }
    }

    /// [`Feed::append`] with the fold's hard cases for values: a [`SPECIAL`]
    /// value one row in twenty, signed zeros one in three, and the rest of
    /// one sign per stretch of 50 rows (so `MAX` or `MIN` answers a zero).
    /// Provenance comes in runs of 20, so a short tail may hold stale rows
    /// only.
    fn append_special(&mut self, broker: &Broker, n: u64) {
        for _ in 0..n {
            self.now_ms += self.rng.random_range(0..3u64);
            self.rows += 1;
            let ts_ns = self.now_ms * 1_000_000 + self.rows;
            let sign = if (self.rows / 50).is_multiple_of(2) { -1.0 } else { 1.0 };
            let value = match self.rng.random_range(0..60u32) {
                0..=2 => SPECIAL[self.rng.random_range(0..SPECIAL.len())],
                3..=22 => [0.0, -0.0][self.rng.random_range(0..2)],
                _ => sign * self.rng.random_range(0.0..1.0),
            };
            let record = match (self.rows / 20) % 3 {
                0 => Record::measured(ts_ns, value),
                1 => Record::predicted(ts_ns, value),
                _ => Record::stale(ts_ns, value),
            };
            broker.publish("t", self.now_ms, record);
        }
    }

    /// A window over the run so far: open-ended or closed, anywhere from
    /// before the first row to past the last.
    fn window(&mut self) -> (u64, u64) {
        let lo = match self.rng.random_range(0..4u32) {
            0 => 0,
            1 => self.now_ms.saturating_sub(self.rng.random_range(0..30u64)),
            _ => self.rng.random_range(0..self.now_ms + 5),
        };
        match self.rng.random_range(0..3u32) {
            0 => (lo, lo + self.rng.random_range(0..60u64)),
            _ => (lo, u64::MAX),
        }
    }
}

#[test]
fn a_cached_tail_serves_what_a_fresh_scan_would() {
    over_backends("driver", |backend, broker| {
        for seed in [0x7A11u64, 0x7A12, 0x7A13] {
            let at = format!("{backend}, seed {seed:#x}");
            let cache = ScanCache::new();
            let cached = CachedBroker::new(broker, &cache);
            // A second cache only ever sees one sliding window, so its
            // tail also lets go of the rows behind the span it is asked.
            let slid = ScanCache::new();
            let sliding = CachedBroker::new(broker, &slid);
            broker.remove_topic("t");
            broker.remove_topic("u");
            let mut feed = Feed { rng: StdRng::seed_from_u64(seed), now_ms: 1_000, rows: 0 };
            // The window shapes one by one, from a known state: a younger
            // start builds the tail; closed inside it, before it,
            // straddling its start; an older start after the younger one;
            // and the engine's own reads of a slice (ranged latest, bucket
            // cursor, a join partner's one column) against the naive fold.
            feed.append(broker, 150);
            let mid = (1_000 + feed.now_ms) / 2;
            let shapes = [
                (mid, u64::MAX),
                (mid + 9, mid + 20),
                (0, mid - 20),
                (mid - 30, mid + 5),
                (0, u64::MAX),
            ];
            for window in shapes {
                assert_window_is_fresh(&cached, broker, window, &format!("{at}, shapes"));
            }
            publish(broker, "u", mid, Record::measured(mid * 1_000_000, 1.0));
            for sql in [
                format!("SELECT MAX(Timestamp), metric FROM t WHERE Timestamp <= {mid}"),
                format!("SELECT MAX(metric) FROM t WHERE Timestamp >= {mid} GROUP BY BUCKET(Timestamp, 20)"),
                format!("SELECT COUNT(*) FROM u JOIN t ON Timestamp WITHIN 45ms WHERE Timestamp >= {mid}"),
            ] {
                let query = parse(&sql).unwrap();
                let tail = QueryEngine::new(&cached).execute(&query);
                let want = naive::execute(broker, &query);
                assert_eq!(format!("{tail:?}"), format!("{want:?}"), "{at}: {sql}");
            }
            for step in 0..400 {
                match feed.rng.random_range(0..10u32) {
                    // Unregistered and re-registered under the same name;
                    // one time in two its clock (so its IDs) starts over
                    // inside the span the old tail covers.
                    _ if step % 100 == 50 => {
                        broker.remove_topic("t");
                        if feed.rng.random_range(0..2u32) == 0 {
                            feed.now_ms = feed.now_ms.saturating_sub(200);
                        }
                    }
                    0..=3 => {
                        let n = feed.rng.random_range(1..12u64);
                        feed.append(broker, n);
                    }
                    // A burst longer than window (and short ring): the
                    // extension starts in the archive, or in rows lost.
                    4 => feed.append(broker, 90),
                    _ => {
                        let at = format!("{at}, step {step}");
                        assert_window_is_fresh(&cached, broker, feed.window(), &at);
                        let last = (feed.now_ms.saturating_sub(25), u64::MAX);
                        assert_window_is_fresh(&sliding, broker, last, &at);
                    }
                }
            }
            let lookups = cache.hits() + cache.misses() + cache.planner_fresh();
            assert!(cache.hits() * 2 > lookups, "{at}: {} hits in {lookups} lookups", cache.hits());
            assert!(cache.planner_fresh() > 0 && cache.len() == 2, "{at}: `t` and `u`");
            assert!(cache.invalidations() > 0, "{at}: a re-created topic's tail was extended");
            assert!(slid.hits() > slid.misses(), "{at}: {} sliding misses", slid.misses());
        }
    });
}

/// Trimming is by millisecond, so it is only right when the loss ends on
/// one. Three rows share the millisecond the window's front comes to rest
/// in: a tail trimmed there would keep the evicted one.
#[test]
fn a_head_lost_mid_millisecond_rebuilds_the_tail() {
    let lossy = StreamConfig { archive_evicted: false, ..StreamConfig::bounded(4) };
    let broker = Broker::new(lossy);
    let cache = ScanCache::new();
    let cached = CachedBroker::new(&broker, &cache);
    let row = |ms: u64, v: f64| publish(&broker, "t", ms, Record::measured(ms * 1_000_000, v));
    for (ms, v) in [(10, 0.0), (11, 1.0), (12, 2.0), (12, 3.0)] {
        row(ms, v);
    }
    assert_window_is_fresh(&cached, &broker, (0, u64::MAX), "built");
    row(12, 4.0); // evicts ms 10: the loss ends where ms 11 starts
    row(13, 5.0); // evicts ms 11: ends where ms 12 starts
    assert_window_is_fresh(&cached, &broker, (0, u64::MAX), "boundary loss");
    assert_eq!((cache.misses(), cache.invalidations()), (1, 0), "trimmed in place");
    row(14, 6.0); // evicts 12-0: the front is now 12-1, mid-millisecond
    assert_window_is_fresh(&cached, &broker, (0, u64::MAX), "mid-millisecond loss");
    assert_window_is_fresh(&cached, &broker, (12, 12), "the shared millisecond itself");
    assert_eq!((cache.misses(), cache.invalidations()), (2, 1), "rebuilt");
}

// ------------------------------------------------------------------------
// Saved folds, differentially: a whole-tail aggregate through the cache
// folds only the rows after its tail's saved fold, and a bucketed arm over
// a sliding window only the bucket its new start cuts and the rows after
// its saved fold. After every step of a seeded run of appends, evictions,
// head loss (trimmed or rebuilt), reach trims, topic re-creation and a
// stretch of regressing record clocks, each such answer must equal the
// naive fold.

/// `SELECT` aggregate `i` of the ten a tail keeps a fold of (`COUNT`,
/// `SUM`, `AVG`, `MAX`, `MIN`, each with and without `INCLUDE STALE`) from
/// `t`, with `filter` as its `WHERE` clause.
fn saved_fold_sql(i: usize, filter: &str) -> String {
    let agg = ["COUNT(*)", "SUM(metric)", "AVG(metric)", "MAX(metric)", "MIN(metric)"][i / 2];
    let stale = if i % 2 == 1 { " INCLUDE STALE" } else { "" };
    format!("SELECT {agg} FROM t{filter}{stale}")
}

fn assert_sql_matches_fold(cached: &CachedBroker<'_>, broker: &Broker, sql: &str, at: &str) {
    let query = parse(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let got = QueryEngine::new(cached).execute(&query);
    let want = naive::execute(broker, &query);
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{at}: {sql}");
}

#[test]
fn resumed_whole_tail_folds_match_the_naive_fold() {
    over_backends("folds", |backend, broker| {
        let mut bucket_resumes = 0;
        for seed in [0xF01Du64, 0xF01E] {
            let at = format!("{backend}, seed {seed:#x}");
            let cache = ScanCache::new();
            let cached = CachedBroker::new(broker, &cache);
            // Only ever asked a narrow window that slides with the newest
            // row: its tail is trimmed to the window's width, and a window
            // that starts at the trimmed front resumes the fold kept there.
            let slid = ScanCache::new();
            let sliding = CachedBroker::new(broker, &slid);
            // Only ever asked sliding bucketed arms: 5 ms buckets divide
            // the 40 ms span, 7 ms ones do not, and the window's start
            // moves by whatever a step appended.
            let bucketed = ScanCache::new();
            let buckets = CachedBroker::new(broker, &bucketed);
            broker.remove_topic("t");
            let mut feed = Feed { rng: StdRng::seed_from_u64(seed), now_ms: 1_000, rows: 0 };
            feed.append_special(broker, 40);
            for step in 0..160 {
                match feed.rng.random_range(0..10u32) {
                    // Re-created under the same name; one time in two its
                    // IDs start over inside the span the old tail covers.
                    _ if step % 100 == 50 => {
                        broker.remove_topic("t");
                        if feed.rng.random_range(0..2u32) == 0 {
                            feed.now_ms = feed.now_ms.saturating_sub(200);
                        }
                        feed.append_special(broker, 3);
                    }
                    // Record clocks that regress: the tail's batch is
                    // unsorted, and bucketed arms fold from their first
                    // row, until the topic is re-created at step 150.
                    _ if step == 120 => feed.append(broker, 30),
                    0..=4 => {
                        let n = feed.rng.random_range(1..12u64);
                        feed.append_special(broker, n);
                    }
                    // Longer than the window and the short ring: evictions,
                    // and in the lossy archives a head lost on or inside a
                    // millisecond (trimmed or rebuilt).
                    5 => feed.append_special(broker, 90),
                    _ => {}
                }
                let at = format!("{at}, step {step}");
                for i in 0..10 {
                    assert_sql_matches_fold(&cached, broker, &saved_fold_sql(i, ""), &at);
                }
                let slide = format!(" WHERE Timestamp >= {}", feed.now_ms.saturating_sub(25));
                for i in 0..10 {
                    assert_sql_matches_fold(&sliding, broker, &saved_fold_sql(i, &slide), &at);
                }
                let slide = format!(" WHERE Timestamp >= {}", feed.now_ms.saturating_sub(40));
                for i in 0..10 {
                    for width in [5, 7] {
                        let bucket = format!("{slide} GROUP BY BUCKET(Timestamp, {width})");
                        assert_sql_matches_fold(&buckets, broker, &saved_fold_sql(i, &bucket), &at);
                    }
                }
                // Whole-tail bucketed arms, beside the unbucketed ones.
                for i in (0..10).step_by(3) {
                    let bucket = saved_fold_sql(i, " GROUP BY BUCKET(Timestamp, 16)");
                    assert_sql_matches_fold(&cached, broker, &bucket, &at);
                }
                // A window that ends before the saved folds do, and one whose
                // lower bound falls before the tail's first row.
                let Some(first) = broker.scan_meta("t").first_id else { continue };
                let x = feed.rng.random_range(first.ms.min(feed.now_ms)..feed.now_ms + 1);
                let before = saved_fold_sql(
                    feed.rng.random_range(0..10),
                    &format!(" WHERE Timestamp <= {x}"),
                );
                assert_sql_matches_fold(&cached, broker, &before, &at);
                let before = format!(" WHERE Timestamp <= {x} GROUP BY BUCKET(Timestamp, 16)");
                let before = saved_fold_sql(feed.rng.random_range(0..10), &before);
                assert_sql_matches_fold(&cached, broker, &before, &at);
                let lo = first.ms.saturating_sub(feed.rng.random_range(1..5u64));
                let early = saved_fold_sql(
                    feed.rng.random_range(0..10),
                    &format!(" WHERE Timestamp >= {lo}"),
                );
                assert_sql_matches_fold(&cached, broker, &early, &at);
            }
            assert!(
                cache.fold_resumed() > cache.misses(),
                "{at}: {} resumed",
                cache.fold_resumed()
            );
            assert!(slid.fold_resumed() > 0, "{at}: no sliding window resumed a fold");
            bucket_resumes += bucketed.fold_resumed();
        }
        // Per backend, not per seed: a slab series outlives its topic, so
        // the next seed's `t` may inherit rows whose clock runs ahead of
        // its own, and its batch is then unsorted throughout.
        assert!(bucket_resumes > 0, "{backend}: no sliding bucketed arm resumed a fold");
    });
}
