//! Reader-vs-pump interleaving on the one query path.
//!
//! Five reader threads go through [`ApolloHandle::query`] while the
//! service thread publishes, pumps the continuous vertex and evicts into
//! the archive. A reader takes a topic's scan-cache lock and then reads
//! the broker; the pump takes the vertex lock, runs the same cached query
//! (scan-cache lock, then broker) and then writes the broker (`publish`)
//! — no lock is taken in the opposite order, so the run finishing at all
//! is the no-deadlock check.
//!
//! The fact publishes the sequence 1, 2, 3, …, one record per sample, so
//! every consistent snapshot of the topic is a prefix `1..=k` and a
//! result can be checked against the rescan *of its own snapshot* without
//! stopping the publisher: a full-span `SUM` over `k` records must be
//! exactly `k(k+1)/2` however often the pump resumed its fold in between,
//! and a window must hold consecutive numbers even where it stitches
//! archive and live window.
//!
//! The third reader holds the scan cache's extended-in-place tail to the
//! same argument: its aggregates are folded over slices of one cached
//! batch that the other readers' lookups keep extending, so each answer
//! must still be a run of consecutive numbers ending at its own `k`, and
//! the run must end with cache hits to show.
//!
//! The fourth reader asks full-span aggregates other than the standing
//! one, which the tail answers by resuming the fold it saved for
//! each: folded on over whatever rows the other readers' lookups landed
//! since, each must still be the exact fold of its own prefix `1..=k`.
//!
//! The fifth runs the query mix's windowed shapes at the run's scale: a
//! sliding `MAX … GROUP BY BUCKET`, which the tail answers by resuming its
//! saved bucketed fold, and a sliding `COUNT(*) … JOIN` against a static
//! partner topic, folded in one column pass. Each answer must equal an
//! uncached rescan of the prefix `1..=k` it was taken at.

use apollo_cluster::metrics::{MetricError, MetricSource};
use apollo_core::service::{Apollo, ApolloHandle, FactVertexSpec};
use apollo_query::QueryEngine;
use apollo_runtime::event_loop::EventLoop;
use apollo_streams::{Broker, StreamConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Live window, in entries: evictions start about half a second in, and
/// the tail keeps resuming its saved folds across them (the window's
/// private ring still holds every row), under the pump.
const WINDOW: usize = 256;
const STANDING: &str = "SELECT SUM(metric) FROM seq";
const RUN: Duration = Duration::from_millis(2_200);

/// Sample `n` returns `n`: every sample differs from the last, so the
/// change filter publishes each one.
struct Sequence(AtomicU64);

impl MetricSource for Sequence {
    fn sample(&self, _now_ns: u64) -> Result<f64, MetricError> {
        Ok((self.0.fetch_add(1, Ordering::Relaxed) + 1) as f64)
    }

    fn name(&self) -> String {
        "seq".into()
    }

    fn samples_taken(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Hammer the standing SQL; returns how many answers were checked.
fn standing_reader(handle: &ApolloHandle, until: Instant) -> u64 {
    let (mut last_k, mut checked) = (0u64, 0u64);
    while Instant::now() < until {
        let Ok(out) = handle.query(STANDING) else { continue }; // before the first sample
        let row = &out.rows[0];
        let k = row.counts.expect("aggregate rows carry counts").measured;
        assert_eq!(row.value, (k * (k + 1) / 2) as f64, "SUM over {k} records is not a prefix sum");
        assert!(k >= last_k, "the topic went backwards: {k} records after {last_k}");
        last_k = k;
        checked += 1;
    }
    checked
}

/// Slide a window over the newest records; returns how many scans were
/// checked.
fn sliding_reader(handle: &ApolloHandle, until: Instant) -> u64 {
    let (mut last_seq, mut checked) = (0u64, 0u64);
    while Instant::now() < until {
        let Ok(newest) = handle.query("SELECT MAX(Timestamp), metric FROM seq") else { continue };
        let lo = newest.rows[0].timestamp_ms.saturating_sub(400);
        let out = handle.query(&format!("SELECT metric FROM seq WHERE Timestamp >= {lo}")).unwrap();
        let seqs: Vec<u64> = out.rows.iter().map(|r| r.value as u64).collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "gap or duplicate in {seqs:?}");
        let newest_seq = *seqs.last().expect("the window ends at the newest record");
        assert!(newest_seq >= newest.rows[0].value as u64, "scan older than the read before it");
        assert!(newest_seq >= last_seq, "sequence went backwards: {newest_seq} < {last_seq}");
        last_seq = newest_seq;
        checked += 1;
    }
    checked
}

/// `SUM` and row count of a window of the sequence: the numbers
/// `k - n + 1 ..= k`, for the one `k` this returns — or no whole `k` fits
/// and a row was dropped, repeated or torn.
fn run_ending_at(out: &apollo_query::QueryResult, what: &str) -> u64 {
    let row = &out.rows[0];
    let n = row.counts.expect("aggregate rows carry counts").measured;
    let twice_sum = 2 * row.value as u64;
    assert!(n > 0 && twice_sum.is_multiple_of(n), "{what}: {} over {n} rows", row.value);
    // sum = n(2k - n + 1)/2  ⇒  2k = 2·sum/n + n - 1
    let twice_k = twice_sum / n + n - 1;
    assert!(twice_k.is_multiple_of(2) && twice_k / 2 >= n, "{what}: {} over {n} rows", row.value);
    twice_k / 2
}

/// Aggregates over slices of the cached tail — a sliding `SUM` and a
/// full-span `COUNT(*)`, neither of which the standing query answers —
/// each checked against its own snapshot; returns how many were.
fn tail_reader(handle: &ApolloHandle, until: Instant) -> u64 {
    let (mut last_k, mut checked) = (0u64, 0u64);
    while Instant::now() < until {
        let Ok(newest) = handle.query("SELECT MAX(Timestamp), metric FROM seq") else { continue };
        let lo = newest.rows[0].timestamp_ms.saturating_sub(500);
        let sql = format!("SELECT SUM(metric) FROM seq WHERE Timestamp >= {lo}");
        let k = run_ending_at(&handle.query(&sql).unwrap(), &sql);
        assert!(k >= newest.rows[0].value as u64, "slice older than the read before it");
        // Nothing is ever lost here (the run fits the window plus its
        // private ring): the whole topic is 1..=k.
        let count = handle.query("SELECT COUNT(*) FROM seq").unwrap();
        let all = count.rows[0].value as u64;
        assert!(all >= k && k >= last_k, "the tail went backwards: {last_k}, {k}, {all}");
        last_k = all;
        checked += 2;
    }
    checked
}

/// Full-span `SUM(metric) INCLUDE STALE`, `MAX(metric)` and `COUNT(*)`,
/// each resumed from the tail's saved fold of its kind: exactly
/// `k(k+1)/2`, `k` and `k` for its own `k`. Returns how many were checked.
fn resumed_reader(handle: &ApolloHandle, until: Instant) -> u64 {
    let (mut last_k, mut checked) = (0u64, 0u64);
    while Instant::now() < until {
        for (sql, summed) in [
            ("SELECT SUM(metric) FROM seq INCLUDE STALE", true),
            ("SELECT MAX(metric) FROM seq", false),
            ("SELECT COUNT(*) FROM seq", false),
        ] {
            let Ok(out) = handle.query(sql) else { continue }; // before the first sample
            let row = &out.rows[0];
            let k = row.counts.expect("aggregate rows carry counts").measured;
            let want = if summed { k * (k + 1) / 2 } else { k };
            assert_eq!(row.value, want as f64, "{sql} over {k} records");
            assert!(k >= last_k, "{sql}: the topic went backwards: {k} after {last_k}");
            last_k = k;
            checked += 1;
        }
    }
    checked
}

/// The join partner: one record every `PACE_MS`, published before the run
/// over the span it can last, and never written again.
const PACE_MS: u64 = 13;
const PACE_SPAN_MS: u64 = 30_000;

/// The `seq` records with ID time at or after `lo_ms` in the prefix
/// `1..=k`, as `(record ms, value)`, from an uncached scan. Nothing is
/// lost in this run, so the prefix is all of the snapshot's window.
fn prefix(broker: &Broker, lo_ms: u64, k: u64) -> Vec<(u64, f64)> {
    let records = broker.scan_batch_by_time("seq", lo_ms, u64::MAX).records;
    let rows = records.iter().map(|r| (r.timestamp_ns / 1_000_000, r.value));
    rows.filter(|&(_, v)| v <= k as f64).collect()
}

/// A sliding bucketed `MAX` (600 ms in 50 ms buckets) and a sliding
/// `COUNT(*)` joined to `pace` within 5 ms (200 ms), each checked against
/// a rescan of its own snapshot. A bucket's `MAX` is its newest number,
/// so the last bucket's names `k`; the join's row carries the window's
/// newest record time, which names `k` up to records sharing that
/// millisecond. Returns how many answers were checked.
fn windowed_reader(handle: &ApolloHandle, until: Instant) -> u64 {
    let broker = handle.broker();
    let mut checked = 0u64;
    while Instant::now() < until {
        let Ok(newest) = handle.query("SELECT MAX(Timestamp), metric FROM seq") else { continue };
        let now = newest.rows[0].timestamp_ms;
        let lo = now.saturating_sub(600);
        let sql = format!(
            "SELECT MAX(metric) FROM seq WHERE Timestamp >= {lo} GROUP BY BUCKET(Timestamp, 50)"
        );
        let out = handle.query(&sql).unwrap();
        let got: Vec<_> = out
            .rows
            .iter()
            .map(|r| (r.timestamp_ms, r.value, r.counts.unwrap().measured))
            .collect();
        let k = got.last().expect("the window holds the newest record").1 as u64;
        let mut want: Vec<(u64, f64, u64)> = Vec::new();
        for (ms, v) in prefix(&broker, lo, k) {
            match want.last_mut() {
                Some(b) if b.0 == ms - ms % 50 => (b.1, b.2) = (v, b.2 + 1),
                _ => want.push((ms - ms % 50, v, 1)),
            }
        }
        assert_eq!(got, want, "{sql} at k = {k}");

        let lo = now.saturating_sub(200);
        let sql = format!(
            "SELECT COUNT(*) FROM seq JOIN pace ON Timestamp WITHIN 5ms WHERE Timestamp >= {lo}"
        );
        let out = handle.query(&sql).unwrap();
        let row = &out.rows[0];
        assert_eq!(row.counts.unwrap().measured as f64, row.value, "{sql}: counts");
        let window = prefix(&broker, lo, u64::MAX);
        let matched = |&(ms, _): &(u64, f64)| ms % PACE_MS <= 5 || PACE_MS - ms % PACE_MS <= 5;
        // Every prefix of the window that ends at a record of the row's
        // millisecond is a snapshot the answer may have been taken at.
        let candidates: Vec<f64> = (0..window.len())
            .filter(|&end| window[end].0 == row.timestamp_ms)
            .map(|end| window[..=end].iter().filter(|r| matched(r)).count() as f64)
            .collect();
        assert!(candidates.contains(&row.value), "{sql}: {} not in {candidates:?}", row.value);
        assert!(window.iter().all(|&(ms, _)| ms + 5 <= PACE_SPAN_MS), "the partner ran out");
        checked += 2;
    }
    checked
}

#[test]
fn readers_interleave_with_pump_and_eviction() {
    let mut apollo = Apollo::with_config(EventLoop::new_real(), StreamConfig::bounded(WINDOW));
    apollo
        .register_fact(FactVertexSpec::fixed(
            "seq",
            Arc::new(Sequence(AtomicU64::new(0))),
            Duration::from_millis(2),
        ))
        .unwrap();
    apollo.register_continuous("cq/sum", STANDING, Duration::from_millis(3)).unwrap();
    for ms in (0..=PACE_SPAN_MS).step_by(PACE_MS as usize) {
        let pace = apollo_streams::Record::measured(ms * 1_000_000, 1.0);
        apollo.broker().publish("pace", ms, pace);
    }
    let handle = apollo.spawn();

    let until = Instant::now() + RUN;
    let (standing, sliding, tail, resumed, windowed) = std::thread::scope(|s| {
        let a = s.spawn(|| standing_reader(&handle, until));
        let b = s.spawn(|| sliding_reader(&handle, until));
        let c = s.spawn(|| tail_reader(&handle, until));
        let d = s.spawn(|| resumed_reader(&handle, until));
        let e = s.spawn(|| windowed_reader(&handle, until));
        (
            a.join().expect("standing reader"),
            b.join().expect("sliding reader"),
            c.join().expect("tail reader"),
            d.join().expect("resumed-fold reader"),
            e.join().expect("windowed reader"),
        )
    });
    let counts = [standing, sliding, tail, resumed, windowed];
    assert!(counts.iter().all(|&n| n > 0), "starved: {counts:?}");

    let apollo = handle.stop();
    let broker = apollo.broker();
    let info = broker.topic_info("seq").unwrap();
    assert!(info.archived_len > 0, "the run never evicted: {} records", info.published);
    let snap = apollo.metrics_snapshot();
    let resumed = snap.counter("query.scan_cache.fold_resumed");
    assert!(resumed > 0, "no saved fold resumed with the standing pump running");
    assert!(snap.counter("query.continuous.emitted_rows") > 0, "the pump never emitted");
    // Quiescent now: once a pump has read what the last one left, the
    // path, the standing result and an uncached rescan agree bit for bit.
    apollo.continuous()[0].pump(apollo.now() / 1_000_000);
    let rescan = QueryEngine::new(broker.as_ref()).execute_sql(STANDING).unwrap();
    assert_eq!(apollo.query(STANDING).unwrap(), rescan);
    assert_eq!(apollo.continuous()[0].result().unwrap(), rescan);

    // The readers' scans were slices of one tail that kept being extended,
    // not a rebuild each (which would pass every check above too).
    let cache = apollo.scan_cache();
    assert!(cache.hits() > cache.misses(), "{} hits, {} misses", cache.hits(), cache.misses());
    assert_eq!(cache.invalidations(), 0, "nothing is lost here: no tail is ever rebuilt for it");
    assert!(cache.fold_resumed() > 0, "no full-span aggregate resumed a saved fold");
    // Two arms over the one topic, one after the other in one query, with
    // a publish before each query: the first arm extends the tail and the
    // second is served the same rows from it.
    let (mut k, mut ms) = (rescan.rows[0].counts.unwrap().measured, apollo.now() / 1_000_000);
    for _ in 0..200 {
        (k, ms) = (k + 1, ms + 1);
        broker.publish("seq", ms, apollo_streams::Record::measured(ms * 1_000_000, k as f64));
        let arms = apollo
            .query("SELECT MAX(metric) FROM seq UNION SELECT MAX(metric) FROM seq WHERE Timestamp >= 0")
            .unwrap();
        assert_eq!(arms.rows.len(), 2, "{:?}", arms.arm_errors);
        assert_eq!((arms.rows[0].value, &arms.rows[0].counts), (k as f64, &arms.rows[1].counts));
        assert_eq!(arms.rows[0].value, arms.rows[1].value, "arms disagree over one topic");
    }
}
