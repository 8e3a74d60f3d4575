//! The query executor.
//!
//! Each SELECT of a UNION is an independent table access (§3.1): the
//! executor answers the arms one after another on the caller's thread and
//! concatenates the results in source order. AQE parallelism is across
//! queries, not across one query's arms — any number of threads call
//! `ApolloHandle::query` at once, while a hot scan arm costs a few µs,
//! less than a thread spawn.
//!
//! Table data comes from a [`TableProvider`], whose one read is
//! [`TableProvider::columns`]: a [`ColumnSlice`] of the window's timestamp,
//! value and provenance columns. Every arm is answered from it: `SELECT
//! metric` builds its rows from the slice, a ranged `Latest` takes its last
//! row, a join walks its partner's timestamp column with a cursor, and
//! scan aggregates fold it in one column pass, `vector::run_scan_columns`
//! (an arm with value predicates or a join folds the rows its mask
//! admits). Through [`TableProvider::fold`] a cached tail resumes a saved
//! fold through the same kernel: a whole-tail aggregate over the rows
//! appended since, and a sliding `GROUP BY BUCKET` arm over the one bucket
//! its new start cuts and the rows appended since. The in-tree providers
//! are the pub-sub [`Broker`], whose scans transparently cover the live
//! queue and the archived log ("the queue (or the persisted log for
//! evicted entries) using timestamp-based indexing"), and the
//! [`CachedBroker`] over it.
//! `tests/equivalence.rs` holds the results to a naive fold over the
//! broker's decoded records, bit for bit.

use crate::ast::{Aggregate, OrderBy, Query, Select};
use crate::vector::{self, JoinIndex, ScanAccumulator};
use apollo_streams::codec::{Provenance, Record};
use apollo_streams::{Broker, ColumnBatch, StreamId};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Provenance breakdown of the records a scan aggregate looked at.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AggregateCounts {
    /// Records actually measured by a monitor hook.
    pub measured: u64,
    /// Records produced by a Delphi prediction.
    pub predicted: u64,
    /// Stale last-known-value republications (hook outage).
    pub stale: u64,
}

impl std::ops::AddAssign for AggregateCounts {
    fn add_assign(&mut self, other: Self) {
        self.measured += other.measured;
        self.predicted += other.predicted;
        self.stale += other.stale;
    }
}

/// One result row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Source table.
    pub table: String,
    /// Record timestamp (ms), when the row is a record; aggregate rows
    /// carry the largest contributing timestamp, bucketed rows the bucket
    /// start.
    pub timestamp_ms: u64,
    /// The value (record value, or aggregate result).
    pub value: f64,
    /// How the underlying record's value was obtained (measured,
    /// predicted, or a stale republication during a hook outage).
    /// `None` for aggregate rows, which blend many records.
    pub provenance: Option<Provenance>,
    /// For scan-aggregate rows: how many measured/predicted/stale records
    /// the scanned window admitted (regardless of whether stale ones were
    /// aggregated). `None` for record rows and `Latest`.
    pub counts: Option<AggregateCounts>,
}

impl Row {
    /// The row of one record of `table`.
    pub(crate) fn record(table: &str, r: &Record) -> Self {
        Row {
            table: table.to_string(),
            timestamp_ms: r.timestamp_ns / 1_000_000,
            value: r.value,
            provenance: Some(r.provenance),
            counts: None,
        }
    }
}

/// Error executing a query.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecError {
    /// The table does not exist, holds no records in the window, or every
    /// record was filtered out by the arm's predicates.
    EmptyTable(String),
    /// Every admitted record in the scanned window is a stale
    /// republication and the query did not opt in via `INCLUDE STALE`.
    StaleOnly(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::EmptyTable(t) => write!(f, "table {t:?} is empty or missing"),
            ExecError::StaleOnly(t) => write!(
                f,
                "table {t:?} holds only stale records in the queried window \
                 (add INCLUDE STALE to aggregate them)"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// A UNION arm that failed while its siblings succeeded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArmError {
    /// Zero-based arm index in source order.
    pub arm: usize,
    /// Why the arm produced no rows.
    pub error: ExecError,
}

/// Result of a full query: per-arm rows, flattened in source order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResult {
    /// All rows from all UNION arms (post-merge order/limit applied).
    pub rows: Vec<Row>,
    /// Arms of a multi-arm union that failed (empty table, all-stale
    /// window, …). A dashboard-style union keeps the healthy arms' rows;
    /// the failures are surfaced here instead of poisoning the whole
    /// query. Always empty for single-SELECT queries, which still return
    /// `Err` directly.
    pub arm_errors: Vec<ArmError>,
}

/// One window of a shared [`ColumnBatch`] (a cached tail, usually): the
/// rows whose ID millisecond lies in the looked-up range, in stream order
/// — what a scan of exactly that window would have decoded.
#[derive(Debug, Clone)]
pub struct ColumnSlice {
    /// The batch the rows sit in; its snapshot parts are the slice's.
    pub batch: Arc<ColumnBatch>,
    /// Where in the batch's columns.
    pub rows: Range<usize>,
}

impl ColumnSlice {
    /// The rows of `batch` inside `[start_ms, end_ms]`.
    pub fn new(batch: Arc<ColumnBatch>, start_ms: u64, end_ms: u64) -> Self {
        let rows = batch.rows_in(start_ms, end_ms);
        Self { batch, rows }
    }

    /// Record timestamps (ns) of the window's rows.
    pub fn timestamps_ns(&self) -> &[u64] {
        &self.batch.timestamps_ns[self.rows.clone()]
    }

    /// Values of the window's rows.
    pub fn values(&self) -> &[f64] {
        &self.batch.values[self.rows.clone()]
    }

    /// Provenance wire bytes of the window's rows.
    pub fn provenance(&self) -> &[u8] {
        &self.batch.provenance[self.rows.clone()]
    }

    /// The window's rows re-materialized as records, in order.
    pub fn records(&self) -> impl DoubleEndedIterator<Item = Record> + ExactSizeIterator + '_ {
        let fields = self.timestamps_ns().iter().zip(self.values()).zip(self.provenance());
        fields.map(|((&timestamp_ns, &value), &wire)| Record {
            timestamp_ns,
            value,
            provenance: Provenance::from_wire(wire).expect("a batch holds only decoded rows"),
        })
    }
}

/// Supplies table data to the executor.
pub trait TableProvider {
    /// Most recent record of a table: an O(1) tail-read. `None` for an
    /// unknown or empty table, and for one whose newest payload does not
    /// decode — the executor then takes the newest row that does from
    /// [`TableProvider::columns`].
    fn latest(&self, table: &str) -> Option<Record>;

    /// The decoded rows with `start_ms <= publish time <= end_ms`, in
    /// stream order, as columns: the one read every arm is answered from.
    fn columns(&self, table: &str, start_ms: u64, end_ms: u64) -> ColumnSlice;

    /// `select`'s scan aggregate over its window `[start_ms, end_ms]`, its
    /// join partner (if any) indexed in `join`. The default folds
    /// [`TableProvider::columns`]; a provider that keeps a window's rows
    /// may keep their fold as well, and resume it.
    fn fold(
        &self,
        select: &Select,
        start_ms: u64,
        end_ms: u64,
        join: Option<&mut JoinIndex>,
    ) -> Result<Vec<Row>, ExecError> {
        vector::run_scan_columns(select, &self.columns(&select.table, start_ms, end_ms), join)
    }

    /// The same window as records, collected from
    /// [`TableProvider::columns`] into a fresh `Vec`. No query path calls
    /// it.
    fn range(&self, table: &str, start_ms: u64, end_ms: u64) -> Vec<Record> {
        self.columns(table, start_ms, end_ms).records().collect()
    }
}

impl TableProvider for Broker {
    fn latest(&self, table: &str) -> Option<Record> {
        Broker::latest(self, table).and_then(|e| Record::decode(&e.payload).ok())
    }

    fn columns(&self, table: &str, start_ms: u64, end_ms: u64) -> ColumnSlice {
        let batch = Broker::scan_columns_by_time(self, table, start_ms, end_ms);
        ColumnSlice::new(Arc::new(batch), start_ms, end_ms)
    }
}

/// Topics whose tails are kept before the cache wholesale-clears to
/// re-admit the working set (no LRU bookkeeping on the query hot path).
const MAX_CACHED_SCANS: usize = 256;

/// One topic's cached scan: the decoded rows from `first` to the topic's
/// `last_id` as of the last lookup, and the folds kept over them.
struct Tail {
    /// Every row the stream retains with `first <= id <= cols.last_id`,
    /// behind the dead rows below `live`.
    cols: Arc<ColumnBatch>,
    /// Where the tail starts: its oldest scan's lower bound, moved up past
    /// the head rows the stream has lost, or the tail let go of, since.
    first: StreamId,
    /// The first row at or past `first`. The rows before it are dead but
    /// still held, and dropped in bulk once they outnumber the rest
    /// ([`Tail::let_go`]): a stream that loses a head row on every append
    /// costs no move of the whole tail per append.
    live: usize,
    /// The widest span (ms) any lookup has asked of the tail, back from
    /// the topic's newest row at the time.
    reach: u64,
    /// One saved fold per resumable arm kind asked (see [`Tail::fold`]).
    folds: Vec<SavedFold>,
}

/// A fold a tail keeps: the [`ScanState`] of one kind of arm — aggregate,
/// stale policy and bucket width — after the tail's rows `rows`.
struct SavedFold {
    key: (Aggregate, bool, Option<u64>),
    rows: Range<usize>,
    state: ScanState,
}

impl Tail {
    /// A scan from `lo` that ran to its topic's end, as the topic's tail.
    fn new(cols: Arc<ColumnBatch>, lo: StreamId) -> Option<Self> {
        let (first, last) = (cols.first_id?, cols.last_id?);
        let reach = last.ms.saturating_sub(lo.ms);
        Some(Self { cols, first: lo.max(first), live: 0, reach, folds: Vec::new() })
    }

    /// The rows of the window `[start_ms, end_ms]` the tail still holds
    /// live.
    fn window(&self, start_ms: u64, end_ms: u64) -> ColumnSlice {
        let rows = self.cols.rows_in(start_ms, end_ms);
        let start = rows.start.max(self.live);
        ColumnSlice { batch: Arc::clone(&self.cols), rows: start..rows.end.max(start) }
    }

    /// Let go of the rows below `first`'s millisecond, and of every fold
    /// that covers one of them; drop them (and move the rest) only once
    /// they outnumber the live rows, so each row is moved O(1) times.
    fn let_go(&mut self, first: StreamId) {
        self.first = first;
        let live = self.cols.ids_ms.partition_point(|&ms| ms < first.ms);
        self.live = live;
        self.folds.retain(|f| f.rows.start >= live);
        if live * 2 > self.cols.len() {
            Arc::make_mut(&mut self.cols).trim_before(first.ms);
            for f in &mut self.folds {
                f.rows = f.rows.start - live..f.rows.end - live;
                f.state.rebase(live);
            }
            self.live = 0;
        }
    }

    /// Note the span a lookup from `lo` asks for, and let go of the rows
    /// older than the widest span asked so far: a window that slides keeps
    /// a tail of its own width, not of the stream's retention. Only once
    /// those rows outnumber the rest.
    fn keep_reach(&mut self, lo: StreamId) {
        let Some(last) = self.cols.last_id else { return };
        self.reach = self.reach.max(last.ms.saturating_sub(lo.ms));
        let cut = StreamId::new(last.ms - self.reach.min(last.ms), 0);
        let dead = || self.cols.ids_ms.partition_point(|&ms| ms < cut.ms);
        if cut > self.first && dead() * 2 > self.cols.len() {
            self.let_go(cut);
        }
    }

    /// `select`'s aggregate over the tail's `rows`, folded on from the
    /// fold saved for its kind, which it then replaces; and whether one
    /// was resumed. `None`, leaving the folds as they are, unless the arm
    /// is [`vector::resumable`] and its window suits a saved fold: it
    /// starts at the tail's first live row (unbucketed) or over a batch
    /// whose record clock never regressed (bucketed), and ends at or past
    /// where the saved fold does. A saved fold is resumed when the window
    /// starts where it does (unbucketed) or at or after it (bucketed);
    /// otherwise the window is folded from its first row and saved. Either
    /// way the answer is the front-to-back fold of `rows`, bit for bit
    /// (see [`vector::refold`]).
    fn fold(
        &mut self,
        select: &Select,
        rows: Range<usize>,
    ) -> Option<(Result<Vec<Row>, ExecError>, bool)> {
        let suits = match select.bucket_ms {
            None => rows.start == self.live,
            Some(_) => self.cols.timestamps_sorted(),
        };
        if !vector::resumable(select) || !suits {
            return None;
        }
        let key = (select.aggregate, select.include_stale, select.bucket_ms);
        let fresh =
            || SavedFold { key, rows: rows.start..rows.start, state: ScanState::new(select) };
        let (i, resumed) = match self.folds.iter().position(|f| f.key == key) {
            Some(i) if rows.end < self.folds[i].rows.end => return None,
            Some(i) if rows.start >= self.folds[i].rows.start => (i, true),
            Some(i) => {
                self.folds[i] = fresh();
                (i, false)
            }
            None => {
                self.folds.push(fresh());
                (self.folds.len() - 1, false)
            }
        };
        let f = &mut self.folds[i];
        vector::refold(select, &mut f.state, &self.cols, f.rows.clone(), rows.clone());
        f.rows = rows;
        Some((f.state.finalize(select), resumed))
    }
}

/// A cache of decoded range scans: **one columnar tail per topic**, which
/// a lookup extends by the rows appended since and serves as a slice.
///
/// SCoRe queues only append and only ever lose their oldest rows, so a
/// batch scanned from some ID to the topic's end stays a prefix of the
/// same scan taken later. A lookup asks the stream for the rows after the
/// tail's `last_id` ([`Broker::extend_columns`]: one walk, one consistent
/// snapshot, straight into the batch) and finds its window by binary
/// search on the rows' ID milliseconds — a repeated or sliding range query
/// pays for the rows that arrived since, not for the span. The snapshot's
/// `first_id` says whether the stream still retains the tail's head: when
/// a loss ends on a millisecond boundary the lost rows become a dead
/// prefix that no window is served from, dropped in bulk once it
/// outnumbers the live rows (a lapped ring loses a head row per append,
/// and must not cost a move of the whole tail per append); otherwise the
/// tail is re-scanned, as it is for a topic re-created under its name. A
/// window reaching further back than the tail rebuilds it from the older
/// start; a closed window wholly older than it is scanned on its own and
/// not kept; empty and unknown topics get no entry. So a tail is a decoded
/// suffix of what the stream itself retains, behind at most as many dead
/// rows — no more of it than twice the widest span a lookup has asked
/// for, back from the newest row — at 25 B a row, for at most
/// `MAX_CACHED_SCANS` topics.
///
/// Extension happens at lookup, under the topic's own lock, never on the
/// publish path; a reader still folding the batch keeps it unchanged. The
/// cache lives on the service, shared by every query on every thread.
///
/// A tail also keeps **folds**, one per kind of arm asked of it — `COUNT`,
/// `SUM`, `AVG`, `MAX` or `MIN`, with or without `INCLUDE STALE` and
/// `GROUP BY BUCKET` width, no value predicate or join — as the
/// `ScanState` after a run of its rows:
///
/// * a whole-tail arm (its window starts at the tail's first live row)
///   that ends at or past the saved state folds only the rows after it;
/// * a bucketed arm over a batch whose record clock never regressed, so
///   that each bucket is one run of rows, whose window starts at or after
///   the saved state's and ends at or past it, drops the buckets that slid
///   out, refolds the one bucket its start cuts and folds the rows after
///   the saved state — a dashboard's "last minute in 1 s buckets" costs
///   what changed, not the minute.
///
/// Either saves the state it reached (`query.scan_cache.fold_resumed`
/// counts these). Sums go on in stream order and lanes start from the
/// saved extreme, so the answer is the front-to-back fold, bit for bit. A
/// bucketed window starting before its kind's saved fold is folded from
/// its first row and replaces it; any window ending before it, a batch
/// whose clock regressed and every other arm fold the slice, as a plain
/// provider does. Letting go of head rows drops the folds that covered
/// one of them, and a rebuild starts without; a fold is read and advanced
/// only under the topic's lock, together with the rows it covers.
///
/// A window is served by one of two access paths, each counted under
/// `query.planner.*`:
///
/// * `cached_scan` — the window is a slice of the topic's tail, which the
///   lookup first extends by the rows appended since (a *hit*), or scans
///   and keeps because the topic had none, the window reaches further
///   back, or the stream lost the tail's head mid-millisecond (a *miss*).
/// * `fresh_batch` — one consistent snapshot scan of exactly the window,
///   nothing kept: a closed window wholly older than the tail (or, with no
///   tail yet, short of the topic's end), an empty or unknown topic.
#[derive(Default)]
pub struct ScanCache {
    /// The map lock is held to find or insert a topic's cell only; scans
    /// and extensions run under the cell's lock.
    tails: Mutex<HashMap<String, Arc<Mutex<Tail>>>>,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
    invalidations: Arc<AtomicU64>,
    fold_resumed: Arc<AtomicU64>,
    planner_cached: Arc<AtomicU64>,
    planner_fresh: Arc<AtomicU64>,
}

impl ScanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Export the hit/miss/invalidation and resumed-fold counters into
    /// `registry` as
    /// `query.scan_cache.{hits,misses,invalidations,fold_resumed}` and the
    /// access-path tallies as `query.planner.{cached_scan,fresh_batch}`,
    /// backed by the cells the lookup path already increments (zero added
    /// cost).
    pub fn instrument(&self, registry: &apollo_obs::Registry) {
        if !registry.enabled() {
            return;
        }
        let _ = registry.counter_backed_by("query.scan_cache.hits", Arc::clone(&self.hits));
        let _ = registry.counter_backed_by("query.scan_cache.misses", Arc::clone(&self.misses));
        let _ = registry
            .counter_backed_by("query.scan_cache.invalidations", Arc::clone(&self.invalidations));
        let _ = registry
            .counter_backed_by("query.scan_cache.fold_resumed", Arc::clone(&self.fold_resumed));
        let _ = registry
            .counter_backed_by("query.planner.cached_scan", Arc::clone(&self.planner_cached));
        let _ = registry
            .counter_backed_by("query.planner.fresh_batch", Arc::clone(&self.planner_fresh));
    }

    /// Range lookups served from a topic's tail (extended or not).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Range lookups that scanned and kept the scan as the topic's tail:
    /// its first, one reaching further back, or a rebuild.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Tails rebuilt because the stream lost their head part-way through
    /// a millisecond, or is no longer the stream they were scanned from.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Scan aggregates answered from a tail's saved fold, folding only
    /// the rows appended since it was saved — and, for a sliding bucketed
    /// arm, the bucket its window's new start cuts.
    pub fn fold_resumed(&self) -> u64 {
        self.fold_resumed.load(Ordering::Relaxed)
    }

    /// Lookups scanned on their own with nothing kept (the `fresh_batch`
    /// path): a closed window older than the tail or short of the topic's
    /// end, an empty or unknown topic.
    pub fn planner_fresh(&self) -> u64 {
        self.planner_fresh.load(Ordering::Relaxed)
    }

    /// Topics with a cached tail.
    pub fn len(&self) -> usize {
        self.tails.lock().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tally one lookup on the cached path, served with or without a scan.
    fn count_cached(&self, scanned: bool) {
        self.planner_cached.fetch_add(1, Ordering::Relaxed);
        let outcome = if scanned { &self.misses } else { &self.hits };
        outcome.fetch_add(1, Ordering::Relaxed);
    }
}

/// A [`TableProvider`] wrapping a [`Broker`] with a shared [`ScanCache`]:
/// `latest` passes straight through (an O(1) tail-read is cheaper than
/// any cache probe); `columns` serves a window as a slice of the topic's
/// cached tail, extended first by whatever was appended since the
/// last lookup, and scan only what no tail covers (see [`ScanCache`]);
/// `fold` resumes a whole-tail aggregate or a sliding bucketed arm from
/// the tail's saved fold. A repeat lookup of an unchanged topic allocates
/// nothing.
pub struct CachedBroker<'a> {
    broker: &'a Broker,
    cache: &'a ScanCache,
}

impl<'a> CachedBroker<'a> {
    /// Wrap `broker` with `cache`.
    pub fn new(broker: &'a Broker, cache: &'a ScanCache) -> Self {
        Self { broker, cache }
    }

    /// Bring `tail` up to the stream's present — new rows in, lost head
    /// rows out — and back to `lo` if the window `[lo, hi]` starts before
    /// it and reaches into it. `Some(scanned)` when the tail then covers
    /// the window; `None` when the window is not the tail's to serve: it
    /// lies wholly before it, or the topic is gone (and its cell with it).
    fn refresh(&self, table: &str, tail: &mut Tail, lo: StreamId, hi: StreamId) -> Option<bool> {
        let extended = self.broker.extend_columns(table, &mut tail.cols);
        // The oldest ID the stream retains, if the tail is still all of it.
        let kept = match tail.cols.first_id.filter(|_| extended) {
            Some(first) if first <= tail.first => Some(first),
            // Rows are kept to the millisecond: which of them a loss took
            // is only known when it ends where a millisecond does.
            Some(first) if first.seq == 0 => {
                tail.let_go(first);
                Some(first)
            }
            _ => None,
        };
        match kept {
            Some(first) if lo.max(first) >= tail.first => {
                tail.keep_reach(lo);
                return Some(false);
            }
            Some(_) if hi < tail.first => return None,
            Some(_) => {}
            None => drop(self.cache.invalidations.fetch_add(1, Ordering::Relaxed)),
        }
        let cols = self.broker.scan_columns(table, lo, StreamId::MAX);
        let Some(rebuilt) = Tail::new(Arc::new(cols), lo) else {
            self.cache.tails.lock().remove(table);
            return None;
        };
        *tail = rebuilt;
        Some(true)
    }

    /// The window as a slice of its topic's tail, handed to `serve` with
    /// the tail still locked; or, when no tail covers it, a scan of the
    /// window alone, handed over with the tail it then becomes, if any.
    fn serve<R>(
        &self,
        table: &str,
        start_ms: u64,
        end_ms: u64,
        serve: impl FnOnce(Option<&mut Tail>, ColumnSlice) -> R,
    ) -> R {
        let (lo, hi) = (StreamId::new(start_ms, 0), StreamId::new(end_ms, u64::MAX));
        let cell = self.cache.tails.lock().get(table).cloned();
        if let Some(cell) = cell {
            let tail = &mut *cell.lock();
            if let Some(scanned) = self.refresh(table, tail, lo, hi) {
                self.cache.count_cached(scanned);
                let window = tail.window(start_ms, end_ms);
                return serve(Some(tail), window);
            }
        }
        let cols = Arc::new(self.broker.scan_columns(table, lo, hi));
        let window = ColumnSlice::new(Arc::clone(&cols), start_ms, end_ms);
        // A scan that reached the topic's end is the topic's tail from now
        // on; anything else (a window closed in the past, an empty or
        // unknown topic) is served and forgotten.
        let reached_end = cols.last_id.is_some_and(|last| last <= hi);
        let Some(mut tail) = Tail::new(cols, lo).filter(|_| reached_end) else {
            self.cache.planner_fresh.fetch_add(1, Ordering::Relaxed);
            return serve(None, window);
        };
        self.cache.count_cached(true);
        let out = serve(Some(&mut tail), window);
        let mut tails = self.cache.tails.lock();
        if tails.len() >= MAX_CACHED_SCANS && !tails.contains_key(table) {
            tails.clear();
        }
        tails.insert(table.to_string(), Arc::new(Mutex::new(tail)));
        out
    }
}

impl TableProvider for CachedBroker<'_> {
    fn latest(&self, table: &str) -> Option<Record> {
        TableProvider::latest(self.broker, table)
    }

    /// A slice of the topic's tail, or a scan of the window alone.
    fn columns(&self, table: &str, start_ms: u64, end_ms: u64) -> ColumnSlice {
        self.serve(table, start_ms, end_ms, |_, window| window)
    }

    /// A resumable arm folds, under the tail's lock, only what changed
    /// since the tail's saved fold of its kind (see [`ScanCache`]); any
    /// other arm folds its slice as the default does, after the lock is
    /// let go.
    fn fold(
        &self,
        select: &Select,
        start_ms: u64,
        end_ms: u64,
        join: Option<&mut JoinIndex>,
    ) -> Result<Vec<Row>, ExecError> {
        let served = self.serve(&select.table, start_ms, end_ms, |tail, window| {
            let resumed = tail.and_then(|tail| tail.fold(select, window.rows.clone()));
            resumed.ok_or(window)
        });
        match served {
            Ok((rows, resumed)) => {
                if resumed {
                    self.cache.fold_resumed.fetch_add(1, Ordering::Relaxed);
                }
                rows
            }
            Err(window) => vector::run_scan_columns(select, &window, join),
        }
    }
}

/// One bucket of a `GROUP BY BUCKET` scan.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BucketState {
    /// The bucket's start (ms).
    pub(crate) start: u64,
    /// The batch row the bucket's first folded row sits at: where a
    /// resumed fold finds the bucket's rows (a sorted batch holds each
    /// bucket as one run).
    pub(crate) first: usize,
    pub(crate) counts: AggregateCounts,
    pub(crate) acc: ScanAccumulator,
}

/// The scan-aggregate state of the column path, and of the folds a cached
/// tail saves. Admitted records are fed in stream order, a run of rows at
/// a time (`vector::fold_columns`), and the result is read out of
/// [`ScanState::finalize`], so a fold resumed from a saved state is
/// bit-identical to one run front to back.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ScanState {
    /// Records seen in the time window (before predicates).
    pub(crate) total_in_window: u64,
    /// Largest record timestamp over the whole window; read by unbucketed
    /// scans only (a bucket row carries its bucket's start).
    pub(crate) max_ts_all: u64,
    /// Provenance split of the admitted (predicate-passing) records of an
    /// unbucketed scan.
    pub(crate) counts: AggregateCounts,
    /// Records an unbucketed scan's value predicates and join admitted.
    pub(crate) admitted: u64,
    /// Fold over the included (admitted minus excluded-stale) records.
    pub(crate) acc: ScanAccumulator,
    /// Largest record timestamp among the included records.
    pub(crate) max_ts_included: u64,
    /// A bucketed scan's buckets, sorted by start. A key that re-occurs
    /// (a clock regression) finds its state again, so each bucket still
    /// folds its rows in stream order.
    pub(crate) buckets: Vec<BucketState>,
}

impl ScanState {
    pub(crate) fn new(select: &Select) -> Self {
        Self {
            total_in_window: 0,
            max_ts_all: 0,
            counts: AggregateCounts::default(),
            admitted: 0,
            acc: ScanAccumulator::new(select.aggregate),
            max_ts_included: 0,
            buckets: Vec::new(),
        }
    }

    /// Fold a run of admitted records that all fall in bucket `key`, the
    /// first at batch row `first`: counted at once, folded by the arm's
    /// aggregate.
    pub(crate) fn fold_run(
        &mut self,
        select: &Select,
        key: u64,
        first: usize,
        values: &[f64],
        provenance: &[u8],
    ) {
        let counts = vector::provenance_counts(provenance);
        let at = match self.buckets.last() {
            Some(open) if open.start == key => self.buckets.len() - 1,
            _ => self.buckets.binary_search_by_key(&key, |b| b.start).unwrap_or_else(|at| {
                let (counts, acc) =
                    (AggregateCounts::default(), ScanAccumulator::new(select.aggregate));
                self.buckets.insert(at, BucketState { start: key, first, counts, acc });
                at
            }),
        };
        let b = &mut self.buckets[at];
        b.counts += counts;
        if select.include_stale || counts.stale == 0 {
            return b.acc.add_all(values);
        }
        let stale = Provenance::Stale.wire();
        for (&v, &p) in values.iter().zip(provenance) {
            if p != stale {
                b.acc.add(v);
            }
        }
    }

    /// The batch the state's rows sit in dropped its first `rows` rows.
    fn rebase(&mut self, rows: usize) {
        for b in &mut self.buckets {
            b.first -= rows;
        }
    }

    /// Produce `select`'s aggregate rows. Mirrors the v1 semantics exactly
    /// for unfiltered scans: `COUNT` is an honest zero over an all-stale
    /// window, other aggregates error with [`ExecError::StaleOnly`].
    pub(crate) fn finalize(&self, select: &Select) -> Result<Vec<Row>, ExecError> {
        let (table, agg) = (&select.table, select.aggregate);
        if self.total_in_window == 0 {
            return Err(ExecError::EmptyTable(table.to_string()));
        }
        if select.bucket_ms.is_some() {
            // One row per bucket holding at least one admitted record, in
            // ascending bucket order; the row timestamp is the bucket
            // start. COUNT emits zero-valued rows for stale-only buckets;
            // other aggregates skip them.
            let mut rows = Vec::with_capacity(self.buckets.len());
            for b in &self.buckets {
                if agg != Aggregate::Count && b.acc.count == 0 {
                    continue;
                }
                rows.push(Row {
                    table: table.to_string(),
                    timestamp_ms: b.start,
                    value: b.acc.value(),
                    provenance: None,
                    counts: Some(b.counts),
                });
            }
            return Ok(rows);
        }
        if agg == Aggregate::Count {
            // COUNT reports how many records the aggregate policy admits;
            // an all-stale (or fully filtered) window is an honest zero
            // with the split alongside, not an error.
            return Ok(vec![Row {
                table: table.to_string(),
                timestamp_ms: self.max_ts_all,
                value: self.acc.value(),
                provenance: None,
                counts: Some(self.counts),
            }]);
        }
        if self.admitted == 0 {
            return Err(ExecError::EmptyTable(table.to_string()));
        }
        if self.acc.count == 0 {
            return Err(ExecError::StaleOnly(table.to_string()));
        }
        Ok(vec![Row {
            table: table.to_string(),
            timestamp_ms: self.max_ts_included,
            value: self.acc.value(),
            provenance: None,
            counts: Some(self.counts),
        }])
    }
}

/// Sort + truncate rows per an ORDER BY/LIMIT pair. Used per-arm (All
/// scans) and post-merge (union-level trailing clauses), so both agree.
/// Sorts are stable; rows arrive in stream order, so `Timestamp ASC` is a
/// no-op for a single arm and a real merge for a union.
fn apply_order_limit(rows: &mut Vec<Row>, order: Option<OrderBy>, limit: Option<usize>) {
    match order {
        None => {}
        Some(OrderBy::TimestampAsc) => rows.sort_by_key(|r| r.timestamp_ms),
        Some(OrderBy::TimestampDesc) => rows.sort_by_key(|r| std::cmp::Reverse(r.timestamp_ms)),
        Some(OrderBy::MetricAsc) => {
            rows.sort_by(|a, b| a.value.partial_cmp(&b.value).unwrap_or(std::cmp::Ordering::Equal))
        }
        Some(OrderBy::MetricDesc) => {
            rows.sort_by(|a, b| b.value.partial_cmp(&a.value).unwrap_or(std::cmp::Ordering::Equal))
        }
    }
    if let Some(n) = limit {
        rows.truncate(n);
    }
}

/// Instrument handles for query execution, resolved by name once.
#[derive(Clone)]
pub struct QueryMetrics {
    /// Queries executed (`query.executed`).
    pub queries: apollo_obs::Counter,
    /// Wall-clock latency of each UNION arm (`query.arm_ns`).
    pub arm_ns: apollo_obs::Histogram,
    /// Arms that returned an error (`query.arm_errors`).
    pub arm_errors: apollo_obs::Counter,
}

impl QueryMetrics {
    /// Look the instruments up in `registry`; `None` when it is disabled.
    pub fn resolve(registry: &apollo_obs::Registry) -> Option<Self> {
        registry.enabled().then(|| Self {
            queries: registry.counter("query.executed"),
            arm_ns: registry.histogram("query.arm_ns"),
            arm_errors: registry.counter("query.arm_errors"),
        })
    }
}

/// The Apollo Query Engine.
pub struct QueryEngine<'a, P: TableProvider> {
    provider: &'a P,
    obs: Option<Cow<'a, QueryMetrics>>,
}

impl<'a, P: TableProvider> QueryEngine<'a, P> {
    /// Create an engine over a provider.
    pub fn new(provider: &'a P) -> Self {
        Self { provider, obs: None }
    }

    /// Create an engine that records per-arm execution latency
    /// (`query.arm_ns`), executed-query and arm-error counters into
    /// `registry`. A disabled registry yields an uninstrumented engine.
    pub fn with_metrics(provider: &'a P, registry: &apollo_obs::Registry) -> Self {
        Self { provider, obs: QueryMetrics::resolve(registry).map(Cow::Owned) }
    }

    /// [`QueryEngine::with_metrics`] over handles the caller resolved
    /// earlier: a per-call engine then pays no by-name lookup per query.
    pub fn with_resolved_metrics(provider: &'a P, metrics: Option<&'a QueryMetrics>) -> Self {
        Self { provider, obs: metrics.map(Cow::Borrowed) }
    }

    /// [`QueryEngine::run_select`] with per-arm latency accounting.
    fn timed_select(&self, select: &Select) -> Result<Vec<Row>, ExecError> {
        let Some(obs) = &self.obs else { return self.run_select(select) };
        let start = std::time::Instant::now();
        let result = self.run_select(select);
        obs.arm_ns.observe(start.elapsed().as_nanos() as u64);
        if result.is_err() {
            obs.arm_errors.inc();
        }
        result
    }

    /// Build the timestamp semi-join index for an arm, if it has one: the
    /// joined table's window widened by the tolerance, whose record
    /// timestamps a cursor walks. Only that one column is read.
    fn join_index(&self, select: &Select, lo: u64, hi: u64) -> Option<JoinIndex> {
        select.join.as_ref().map(|j| {
            let rlo = lo.saturating_sub(j.tolerance_ms);
            let rhi = hi.saturating_add(j.tolerance_ms);
            JoinIndex::new(self.provider.columns(&j.table, rlo, rhi), j.tolerance_ms)
        })
    }

    /// Execute one SELECT arm.
    fn run_select(&self, select: &Select) -> Result<Vec<Row>, ExecError> {
        let table = &select.table;
        let (lo, hi) = select.time_range.unwrap_or((0, u64::MAX));
        if select.aggregate == Aggregate::Latest {
            // The O(1) tail-read, unless the arm is ranged or the newest
            // payload does not decode: then the window's newest row.
            let tail = select.time_range.is_none().then(|| self.provider.latest(table));
            let r = tail
                .flatten()
                .or_else(|| self.provider.columns(table, lo, hi).records().next_back())
                .ok_or_else(|| ExecError::EmptyTable(table.clone()))?;
            return Ok(vec![Row::record(table, &r)]);
        }
        let mut join = self.join_index(select, lo, hi);
        if select.aggregate != Aggregate::All {
            return self.provider.fold(select, lo, hi, join.as_mut());
        }
        let window = self.provider.columns(table, lo, hi);
        let mut rows: Vec<Row> = window
            .records()
            .filter(|r| {
                select.value_preds.iter().all(|p| p.admits(r.value))
                    && join.as_mut().is_none_or(|j| j.matches(r.timestamp_ns))
            })
            .map(|r| Row::record(table, &r))
            .collect();
        apply_order_limit(&mut rows, select.order, select.limit);
        Ok(rows)
    }

    /// Execute a query. Rows come back grouped by arm, in source order,
    /// with any post-merge `ORDER BY`/`LIMIT` applied to the concatenated
    /// rows. Every arm runs on the caller's thread.
    ///
    /// Error semantics differ by arity. A single-SELECT query propagates
    /// its arm's error as `Err`. A multi-arm union is a dashboard-style
    /// fan-out over independent tables: one empty or all-stale arm must
    /// not blank every other panel, so the union returns `Ok` with the
    /// healthy arms' rows and the failed arms listed in
    /// [`QueryResult::arm_errors`].
    pub fn execute(&self, query: &Query) -> Result<QueryResult, ExecError> {
        if let Some(obs) = &self.obs {
            obs.queries.inc();
        }
        let results: Vec<_> = query.selects.iter().map(|s| self.timed_select(s)).collect();
        let (mut rows, mut arm_errors) = (Vec::new(), Vec::new());
        if results.len() == 1 {
            rows = results.into_iter().next().expect("one arm")?;
        } else {
            for (arm, r) in results.into_iter().enumerate() {
                match r {
                    Ok(arm_rows) => rows.extend(arm_rows),
                    Err(error) => arm_errors.push(ArmError { arm, error }),
                }
            }
        }
        apply_order_limit(&mut rows, query.order, query.limit);
        Ok(QueryResult { rows, arm_errors })
    }

    /// Parse and execute in one call.
    pub fn execute_sql(&self, sql: &str) -> Result<QueryResult, ExecSqlError> {
        let query = crate::parser::parse(sql).map_err(ExecSqlError::Parse)?;
        self.execute(&query).map_err(ExecSqlError::Exec)
    }

    /// Describe how a query would execute without running it (the
    /// `EXPLAIN` surface): one line per arm and the post-merge clauses.
    pub fn explain(&self, query: &Query) -> String {
        let mut out =
            format!("query: {} arm(s), complexity {}\n", query.selects.len(), query.complexity());
        for (i, s) in query.selects.iter().enumerate() {
            let access = match s.aggregate {
                Aggregate::Latest if s.time_range.is_none() => "O(1) tail-read".to_string(),
                Aggregate::Latest => "column scan, newest row".to_string(),
                Aggregate::All => "column scan".to_string(),
                other => format!("column scan + {other:?} ({})", vector::fold_name(s)),
            };
            let mut filter = match s.time_range {
                Some((lo, hi)) if hi == u64::MAX => format!(", Timestamp >= {lo}"),
                Some((lo, hi)) => format!(", Timestamp in [{lo}, {hi}]"),
                None => String::new(),
            };
            for p in &s.value_preds {
                filter.push_str(&format!(", metric {} {}", p.op, p.literal));
            }
            if let Some(w) = s.bucket_ms {
                filter.push_str(&format!(", bucket {w}ms"));
            }
            if let Some(j) = &s.join {
                filter.push_str(&format!(", join {} ±{}ms", j.table, j.tolerance_ms));
            }
            let order = s.order.map(|o| format!(", order {o:?}")).unwrap_or_default();
            let limit = s.limit.map(|n| format!(", limit {n}")).unwrap_or_default();
            out.push_str(&format!("  arm {i}: {} — {access}{filter}{order}{limit}\n", s.table));
        }
        if query.order.is_some() || query.limit.is_some() {
            let order = query.order.map(|o| format!(" order {o:?}")).unwrap_or_default();
            let limit = query.limit.map(|n| format!(" limit {n}")).unwrap_or_default();
            out.push_str(&format!("  post-merge:{order}{limit}\n"));
        }
        out
    }

    /// Parse and explain in one call.
    pub fn explain_sql(&self, sql: &str) -> Result<String, crate::parser::ParseError> {
        Ok(self.explain(&crate::parser::parse(sql)?))
    }
}

/// Combined parse/execute error.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecSqlError {
    /// The query text failed to parse.
    Parse(crate::parser::ParseError),
    /// The query failed at execution.
    Exec(ExecError),
}

impl std::fmt::Display for ExecSqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecSqlError::Parse(e) => write!(f, "{e}"),
            ExecSqlError::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExecSqlError {}

#[cfg(test)]
mod tests {
    use super::*;
    use apollo_streams::StreamConfig;

    fn seeded_broker() -> Broker {
        let b = Broker::new(StreamConfig::default());
        for (i, v) in [10.0, 20.0, 30.0, 40.0].iter().enumerate() {
            let ts_ms = (i as u64 + 1) * 100;
            b.publish("capacity", ts_ms, Record::measured(ts_ms * 1_000_000, *v).encode());
        }
        for (i, v) in [5.0, 15.0].iter().enumerate() {
            let ts_ms = (i as u64 + 1) * 100;
            b.publish("load", ts_ms, Record::measured(ts_ms * 1_000_000, *v).encode());
        }
        b
    }

    #[test]
    fn latest_returns_most_recent() {
        let b = seeded_broker();
        let engine = QueryEngine::new(&b);
        let out = engine.execute_sql("SELECT MAX(Timestamp), metric FROM capacity").unwrap();
        assert_eq!(
            out.rows,
            vec![Row {
                table: "capacity".into(),
                timestamp_ms: 400,
                value: 40.0,
                provenance: Some(Provenance::Measured),
                counts: None,
            }]
        );
    }

    #[test]
    fn stale_records_surface_their_provenance() {
        let b = Broker::new(StreamConfig::default());
        b.publish("t", 1, Record::measured(1_000_000, 9.0).encode());
        b.publish("t", 2, Record::stale(2_000_000, 9.0).encode());
        let engine = QueryEngine::new(&b);
        let out = engine.execute_sql("SELECT MAX(Timestamp), metric FROM t").unwrap();
        assert_eq!(out.rows[0].provenance, Some(Provenance::Stale));
        let all = engine.execute_sql("SELECT metric FROM t").unwrap();
        assert_eq!(all.rows[0].provenance, Some(Provenance::Measured));
        assert_eq!(all.rows[1].provenance, Some(Provenance::Stale));
        // Aggregates blend records and carry no single provenance.
        let avg = engine.execute_sql("SELECT AVG(metric) FROM t").unwrap();
        assert_eq!(avg.rows[0].provenance, None);
    }

    #[test]
    fn union_concatenates_in_source_order() {
        let b = seeded_broker();
        let engine = QueryEngine::new(&b);
        let out = engine
            .execute_sql(
                "SELECT MAX(Timestamp), metric FROM load \
                 UNION SELECT MAX(Timestamp), metric FROM capacity",
            )
            .unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].table, "load");
        assert_eq!(out.rows[1].table, "capacity");
    }

    #[test]
    fn aggregates() {
        let b = seeded_broker();
        let engine = QueryEngine::new(&b);
        assert_eq!(
            engine.execute_sql("SELECT MAX(metric) FROM capacity").unwrap().rows[0].value,
            40.0
        );
        assert_eq!(
            engine.execute_sql("SELECT MIN(metric) FROM capacity").unwrap().rows[0].value,
            10.0
        );
        assert_eq!(
            engine.execute_sql("SELECT AVG(metric) FROM capacity").unwrap().rows[0].value,
            25.0
        );
        assert_eq!(
            engine.execute_sql("SELECT SUM(metric) FROM capacity").unwrap().rows[0].value,
            100.0
        );
        assert_eq!(engine.execute_sql("SELECT COUNT(*) FROM capacity").unwrap().rows[0].value, 4.0);
    }

    #[test]
    fn time_range_filters() {
        let b = seeded_broker();
        let engine = QueryEngine::new(&b);
        let out = engine
            .execute_sql("SELECT metric FROM capacity WHERE Timestamp BETWEEN 150 AND 350")
            .unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].value, 20.0);
        assert_eq!(out.rows[1].value, 30.0);

        let latest_in_range = engine
            .execute_sql("SELECT MAX(Timestamp), metric FROM capacity WHERE Timestamp <= 250")
            .unwrap();
        assert_eq!(latest_in_range.rows[0].value, 20.0);
    }

    #[test]
    fn value_predicates_filter_rows_and_aggregates() {
        let b = seeded_broker();
        let engine = QueryEngine::new(&b);
        let out = engine.execute_sql("SELECT metric FROM capacity WHERE metric > 15").unwrap();
        assert_eq!(out.rows.len(), 3);
        assert_eq!(out.rows[0].value, 20.0);
        // Predicates AND with timestamp bounds.
        let avg = engine
            .execute_sql(
                "SELECT AVG(metric) FROM capacity \
                 WHERE Timestamp BETWEEN 100 AND 300 AND metric >= 20",
            )
            .unwrap();
        assert_eq!(avg.rows[0].value, 25.0, "(20 + 30) / 2");
        assert_eq!(
            avg.rows[0].counts,
            Some(AggregateCounts { measured: 2, predicted: 0, stale: 0 }),
            "counts cover only the admitted records"
        );
        // COUNT over a fully filtered window is an honest zero.
        let count =
            engine.execute_sql("SELECT COUNT(*) FROM capacity WHERE metric > 1000").unwrap();
        assert_eq!(count.rows[0].value, 0.0);
        // Other aggregates over a fully filtered window are EmptyTable.
        let err =
            engine.execute_sql("SELECT AVG(metric) FROM capacity WHERE metric > 1000").unwrap_err();
        assert!(matches!(err, ExecSqlError::Exec(ExecError::EmptyTable(_))));
    }

    #[test]
    fn bucketed_aggregates_emit_one_row_per_bucket() {
        let b = seeded_broker();
        let engine = QueryEngine::new(&b);
        // Records at 100/200/300/400 ms → 200ms buckets [0,200), [200,400),
        // [400,600): AVG(10)=10, AVG(20,30)=25, AVG(40)=40.
        let out = engine
            .execute_sql("SELECT AVG(metric) FROM capacity GROUP BY BUCKET(Timestamp, 200)")
            .unwrap();
        assert_eq!(out.rows.len(), 3);
        assert_eq!((out.rows[0].timestamp_ms, out.rows[0].value), (0, 10.0));
        assert_eq!((out.rows[1].timestamp_ms, out.rows[1].value), (200, 25.0));
        assert_eq!((out.rows[2].timestamp_ms, out.rows[2].value), (400, 40.0));
        let count = engine
            .execute_sql("SELECT COUNT(*) FROM capacity GROUP BY BUCKET(Timestamp, 200)")
            .unwrap();
        assert_eq!(count.rows.iter().map(|r| r.value).collect::<Vec<_>>(), vec![1.0, 2.0, 1.0]);
        // Duration units work end to end (1s buckets → everything in one).
        let sum = engine
            .execute_sql("SELECT SUM(metric) FROM capacity GROUP BY BUCKET(Timestamp, 1s)")
            .unwrap();
        assert_eq!(sum.rows.len(), 1);
        assert_eq!(sum.rows[0].value, 100.0);
    }

    #[test]
    fn stale_only_buckets_are_zero_for_count_and_skipped_otherwise() {
        let b = outage_broker();
        let engine = QueryEngine::new(&b);
        // Measured at 100–300, stale at 400–600 → 300ms buckets.
        let count = engine
            .execute_sql("SELECT COUNT(*) FROM disk GROUP BY BUCKET(Timestamp, 300)")
            .unwrap();
        // Bucket 0 holds ts 100,200 (measured); 300 holds 300 (measured) +
        // 400,500 (stale); 600 holds 600 (stale).
        assert_eq!(
            count.rows.iter().map(|r| (r.timestamp_ms, r.value)).collect::<Vec<_>>(),
            vec![(0, 2.0), (300, 1.0), (600, 0.0)],
            "stale-only bucket surfaces as an honest zero"
        );
        let avg = engine
            .execute_sql("SELECT AVG(metric) FROM disk GROUP BY BUCKET(Timestamp, 300)")
            .unwrap();
        assert_eq!(
            avg.rows.iter().map(|r| (r.timestamp_ms, r.value)).collect::<Vec<_>>(),
            vec![(0, 15.0), (300, 30.0)],
            "stale-only bucket is skipped for value aggregates"
        );
    }

    #[test]
    fn a_revisited_bucket_keeps_folding_in_stream_order() {
        // Record timestamps regress (publish order is ID order): bucket 0
        // is left for bucket 200 and revisited twice. Its SUM must fold
        // 1e16, 1.0, -1e16 in stream order — (1e16 + 1.0) + -1e16 == 0.0,
        // any other order gives 1.0 — and finalize must still emit the
        // buckets in ascending order with the open one in its place.
        let b = Broker::new(StreamConfig::default());
        let rows = [(100u64, 1e16), (300, 7.0), (150, 1.0), (350, 8.0), (120, -1e16), (500, 2.0)];
        for (i, (ts, v)) in rows.iter().enumerate() {
            b.publish("skewed", 1_000 + i as u64, Record::measured(ts * 1_000_000, *v).encode());
        }
        let sql = "SELECT SUM(metric) FROM skewed GROUP BY BUCKET(Timestamp, 200)";
        let out = QueryEngine::new(&b).execute_sql(sql).unwrap();
        assert_eq!(
            out.rows.iter().map(|r| (r.timestamp_ms, r.value.to_bits())).collect::<Vec<_>>(),
            vec![(0, 0.0f64.to_bits()), (200, 15.0f64.to_bits()), (400, 2.0f64.to_bits())]
        );
        assert_eq!(out.rows[0].counts.unwrap().measured, 3);
        // Ending on a revisit leaves an interior bucket open at finalize.
        b.publish("skewed", 2_000, Record::measured(360 * 1_000_000, 1.0).encode());
        let out = QueryEngine::new(&b).execute_sql(sql).unwrap();
        assert_eq!(
            out.rows.iter().map(|r| (r.timestamp_ms, r.value)).collect::<Vec<_>>(),
            vec![(0, 0.0), (200, 16.0), (400, 2.0)]
        );
    }

    #[test]
    fn join_semi_join_filters_by_partner_timestamps() {
        let b = Broker::new(StreamConfig::default());
        for ts in [100u64, 200, 300, 400] {
            b.publish("left", ts, Record::measured(ts * 1_000_000, ts as f64).encode());
        }
        for ts in [105u64, 395] {
            b.publish("right", ts, Record::measured(ts * 1_000_000, 1.0).encode());
        }
        let engine = QueryEngine::new(&b);
        let out = engine
            .execute_sql("SELECT metric FROM left JOIN right ON Timestamp WITHIN 10ms")
            .unwrap();
        assert_eq!(
            out.rows.iter().map(|r| r.value).collect::<Vec<_>>(),
            vec![100.0, 400.0],
            "only records with a partner within ±10ms survive"
        );
        // Exact match (tolerance 0) finds nothing here.
        let out = engine.execute_sql("SELECT COUNT(*) FROM left JOIN right ON Timestamp").unwrap();
        assert_eq!(out.rows[0].value, 0.0);
        // Aggregates run over the matched set.
        let avg = engine
            .execute_sql("SELECT AVG(metric) FROM left JOIN right ON Timestamp WITHIN 10ms")
            .unwrap();
        assert_eq!(avg.rows[0].value, 250.0);
    }

    #[test]
    fn post_merge_order_limit_applies_across_arms() {
        let b = seeded_broker();
        let engine = QueryEngine::new(&b);
        // Trailing clause on an unparenthesized final arm scopes to the
        // merged rows: the top-3 values across BOTH tables.
        let out = engine
            .execute_sql(
                "SELECT metric FROM capacity UNION SELECT metric FROM load \
                 ORDER BY metric DESC LIMIT 3",
            )
            .unwrap();
        assert_eq!(
            out.rows.iter().map(|r| r.value).collect::<Vec<_>>(),
            vec![40.0, 30.0, 20.0],
            "ordering crosses arm boundaries"
        );
        // Parenthesized arms keep the clause per-arm: last arm alone is
        // limited, the union sees all capacity rows.
        let out = engine
            .execute_sql(
                "(SELECT metric FROM capacity) UNION (SELECT metric FROM load \
                 ORDER BY metric DESC LIMIT 1)",
            )
            .unwrap();
        assert_eq!(out.rows.len(), 5);
        assert_eq!(out.rows[4].value, 15.0);
        // Post-merge Timestamp ASC interleaves the two streams.
        let out = engine
            .execute_sql(
                "SELECT metric FROM capacity UNION SELECT metric FROM load ORDER BY Timestamp",
            )
            .unwrap();
        let ts: Vec<u64> = out.rows.iter().map(|r| r.timestamp_ms).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "merged rows are time-sorted: {ts:?}");
    }

    #[test]
    fn empty_table_is_an_error_for_latest_and_aggregates() {
        let b = seeded_broker();
        let engine = QueryEngine::new(&b);
        let err = engine.execute_sql("SELECT MAX(Timestamp), metric FROM nope").unwrap_err();
        assert!(matches!(err, ExecSqlError::Exec(ExecError::EmptyTable(t)) if t == "nope"));
        let err = engine.execute_sql("SELECT AVG(metric) FROM nope").unwrap_err();
        assert!(matches!(err, ExecSqlError::Exec(ExecError::EmptyTable(_))));
        // `SELECT metric` over a missing table is an empty set, not an error.
        let ok = engine.execute_sql("SELECT metric FROM nope").unwrap();
        assert!(ok.rows.is_empty());
    }

    #[test]
    fn union_keeps_healthy_arms_and_surfaces_failures() {
        let b = seeded_broker();
        let engine = QueryEngine::new(&b);
        // Tail-read arms.
        let out = engine
            .execute_sql(
                "SELECT MAX(Timestamp), metric FROM capacity \
                 UNION SELECT MAX(Timestamp), metric FROM missing",
            )
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].table, "capacity");
        assert_eq!(out.arm_errors.len(), 1);
        assert_eq!(out.arm_errors[0].arm, 1);
        assert!(matches!(&out.arm_errors[0].error, ExecError::EmptyTable(t) if t == "missing"));
    }

    #[test]
    fn three_arm_union_with_one_empty_table() {
        let b = seeded_broker();
        let engine = QueryEngine::new(&b);
        // Scan-aggregate arms: the empty middle arm must not blank the
        // other two panels.
        let out = engine
            .execute_sql(
                "SELECT AVG(metric) FROM capacity \
                 UNION SELECT AVG(metric) FROM missing \
                 UNION SELECT AVG(metric) FROM load",
            )
            .unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].table, "capacity");
        assert_eq!(out.rows[0].value, 25.0);
        assert_eq!(out.rows[1].table, "load");
        assert_eq!(out.rows[1].value, 10.0);
        assert_eq!(out.arm_errors.len(), 1);
        assert_eq!(out.arm_errors[0].arm, 1);
        assert!(matches!(&out.arm_errors[0].error, ExecError::EmptyTable(t) if t == "missing"));
    }

    #[test]
    fn single_select_still_errors_directly() {
        let b = seeded_broker();
        let engine = QueryEngine::new(&b);
        let err = engine.execute_sql("SELECT AVG(metric) FROM missing").unwrap_err();
        assert!(matches!(err, ExecSqlError::Exec(ExecError::EmptyTable(_))));
    }

    /// An outage window republishes the last measured value as stale
    /// records; they must not move the aggregates.
    fn outage_broker() -> Broker {
        let b = Broker::new(StreamConfig::default());
        for (i, v) in [10.0, 20.0, 30.0].iter().enumerate() {
            let ts_ms = (i as u64 + 1) * 100;
            b.publish("disk", ts_ms, Record::measured(ts_ms * 1_000_000, *v).encode());
        }
        // Hook outage: the last value (30.0) is republished as stale.
        for i in 0..3u64 {
            let ts_ms = 400 + i * 100;
            b.publish("disk", ts_ms, Record::stale(ts_ms * 1_000_000, 30.0).encode());
        }
        b
    }

    #[test]
    fn stale_republication_does_not_move_aggregates() {
        let b = outage_broker();
        let engine = QueryEngine::new(&b);
        // Without the fix AVG would drift to 25.0 (stale 30s double-counted).
        let avg = engine.execute_sql("SELECT AVG(metric) FROM disk").unwrap();
        assert_eq!(avg.rows[0].value, 20.0);
        assert_eq!(
            avg.rows[0].counts,
            Some(AggregateCounts { measured: 3, predicted: 0, stale: 3 })
        );
        // Aggregate timestamp comes from the included records only.
        assert_eq!(avg.rows[0].timestamp_ms, 300);
        let sum = engine.execute_sql("SELECT SUM(metric) FROM disk").unwrap();
        assert_eq!(sum.rows[0].value, 60.0);
        // COUNT reports the admitted records, with the split alongside.
        let count = engine.execute_sql("SELECT COUNT(*) FROM disk").unwrap();
        assert_eq!(count.rows[0].value, 3.0);
        assert_eq!(
            count.rows[0].counts,
            Some(AggregateCounts { measured: 3, predicted: 0, stale: 3 })
        );
    }

    #[test]
    fn include_stale_opts_back_in() {
        let b = outage_broker();
        let engine = QueryEngine::new(&b);
        let avg = engine.execute_sql("SELECT AVG(metric) FROM disk INCLUDE STALE").unwrap();
        assert_eq!(avg.rows[0].value, 25.0);
        let count = engine.execute_sql("SELECT COUNT(*) FROM disk INCLUDE STALE").unwrap();
        assert_eq!(count.rows[0].value, 6.0);
        assert_eq!(
            count.rows[0].counts,
            Some(AggregateCounts { measured: 3, predicted: 0, stale: 3 })
        );
    }

    #[test]
    fn all_stale_window_errors_unless_opted_in() {
        let b = outage_broker();
        let engine = QueryEngine::new(&b);
        // Only the outage window: every record is stale.
        let err = engine
            .execute_sql("SELECT AVG(metric) FROM disk WHERE Timestamp BETWEEN 400 AND 600")
            .unwrap_err();
        assert!(matches!(err, ExecSqlError::Exec(ExecError::StaleOnly(t)) if t == "disk"));
        // COUNT is an honest zero rather than an error.
        let count = engine
            .execute_sql("SELECT COUNT(*) FROM disk WHERE Timestamp BETWEEN 400 AND 600")
            .unwrap();
        assert_eq!(count.rows[0].value, 0.0);
        assert_eq!(
            count.rows[0].counts,
            Some(AggregateCounts { measured: 0, predicted: 0, stale: 3 })
        );
        // Opting in restores the old blended behaviour.
        let avg = engine
            .execute_sql(
                "SELECT AVG(metric) FROM disk WHERE Timestamp BETWEEN 400 AND 600 INCLUDE STALE",
            )
            .unwrap();
        assert_eq!(avg.rows[0].value, 30.0);
    }

    #[test]
    fn instrumented_engine_records_arm_latency_and_errors() {
        let b = seeded_broker();
        let registry = apollo_obs::Registry::new();
        let engine = QueryEngine::with_metrics(&b, &registry);
        engine
            .execute_sql("SELECT AVG(metric) FROM capacity UNION SELECT AVG(metric) FROM missing")
            .unwrap();
        engine.execute_sql("SELECT MAX(Timestamp), metric FROM capacity").unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("query.executed"), 2);
        assert_eq!(snap.counter("query.arm_errors"), 1);
        let h = snap.histograms.get("query.arm_ns").expect("arm latency histogram");
        assert_eq!(h.count, 3);
    }

    #[test]
    fn parse_errors_surface() {
        let b = seeded_broker();
        let engine = QueryEngine::new(&b);
        let err = engine.execute_sql("SELEKT nope").unwrap_err();
        assert!(matches!(err, ExecSqlError::Parse(_)));
    }

    #[test]
    fn wide_union_keeps_source_order() {
        let b = Broker::new(StreamConfig::default());
        for i in 0..32 {
            let t = format!("t{i}");
            b.publish(&t, 1, Record::measured(1_000_000, i as f64).encode());
        }
        let engine = QueryEngine::new(&b);
        let tables: Vec<String> = (0..32).map(|i| format!("t{i}")).collect();
        let refs: Vec<&str> = tables.iter().map(String::as_str).collect();
        let q = Query::latest_of(&refs);
        let out = engine.execute(&q).unwrap();
        assert_eq!(out.rows.len(), 32);
        for (i, row) in out.rows.iter().enumerate() {
            assert_eq!(row.value, i as f64, "source order preserved");
        }
    }

    #[test]
    fn corrupt_payloads_are_skipped_by_provider() {
        let b = Broker::new(StreamConfig::default());
        b.publish("t", 1, vec![1, 2, 3]); // not a valid record
        b.publish("t", 2, Record::measured(2_000_000, 9.0).encode());
        b.publish("t", 3, vec![0xde, 0xad, 0xbe, 0xef]);
        let engine = QueryEngine::new(&b);
        let out = engine.execute_sql("SELECT metric FROM t").unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].value, 9.0);
        // Same through the aggregate path.
        let count = engine.execute_sql("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(count.rows[0].value, 1.0);
        // The newest entry does not decode either: a latest-value read
        // answers the newest row that does, as its ranged form does.
        let cache = ScanCache::new();
        let cached = CachedBroker::new(&b, &cache);
        let want = vec![Row::record("t", &Record::measured(2_000_000, 9.0))];
        for sql in [
            "SELECT MAX(Timestamp), metric FROM t",
            "SELECT MAX(Timestamp), metric FROM t WHERE Timestamp >= 0",
        ] {
            assert_eq!(engine.execute_sql(sql).unwrap().rows, want, "{sql}");
            assert_eq!(QueryEngine::new(&cached).execute_sql(sql).unwrap().rows, want, "{sql}");
        }
    }

    /// A provider that notes which thread each `columns` call ran on.
    struct ThreadLog<'a> {
        inner: &'a Broker,
        reads: Mutex<Vec<std::thread::ThreadId>>,
    }

    impl TableProvider for ThreadLog<'_> {
        fn latest(&self, table: &str) -> Option<Record> {
            TableProvider::latest(self.inner, table)
        }

        fn columns(&self, table: &str, start_ms: u64, end_ms: u64) -> ColumnSlice {
            self.reads.lock().push(std::thread::current().id());
            self.inner.columns(table, start_ms, end_ms)
        }
    }

    #[test]
    fn scan_arms_run_on_the_callers_thread() {
        let b = seeded_broker();
        let provider = ThreadLog { inner: &b, reads: Mutex::new(Vec::new()) };
        let out = QueryEngine::new(&provider)
            .execute_sql(
                "SELECT AVG(metric) FROM capacity UNION SELECT COUNT(*) FROM load \
                 UNION SELECT metric FROM load JOIN capacity ON Timestamp",
            )
            .unwrap();
        assert_eq!(out.rows.len(), 4, "{out:?}");
        let reads = provider.reads.into_inner();
        assert_eq!(reads.len(), 4, "three windows and one join partner");
        assert!(reads.iter().all(|&id| id == std::thread::current().id()), "{reads:?}");
    }

    #[test]
    fn explain_describes_strategy_and_arms() {
        let b = seeded_broker();
        let engine = QueryEngine::new(&b);
        let plan = engine
            .explain_sql(
                "SELECT MAX(Timestamp), metric FROM capacity \
                 UNION SELECT MAX(Timestamp), metric FROM load",
            )
            .unwrap();
        assert!(plan.contains("2 arm(s)"), "{plan}");
        assert!(plan.contains("O(1) tail-read"), "{plan}");

        let plan = engine
            .explain_sql(
                "SELECT AVG(metric) FROM capacity WHERE Timestamp BETWEEN 1 AND 9 \
                 UNION SELECT metric FROM load ORDER BY metric DESC LIMIT 3",
            )
            .unwrap();
        assert!(plan.contains("column scan + Avg (sum fold), Timestamp in [1, 9]"), "{plan}");
        assert!(plan.contains("limit 3"), "{plan}");

        // Each scan arm names the fold its aggregate and clauses direct.
        let plan = engine
            .explain_sql(
                "SELECT MAX(metric) FROM capacity GROUP BY BUCKET(Timestamp, 1s) \
                 UNION SELECT COUNT(*) FROM load JOIN capacity ON Timestamp \
                 UNION SELECT MIN(metric) FROM load \
                 UNION SELECT COUNT(*) FROM load WHERE metric > 1 \
                 UNION SELECT AVG(metric) FROM load JOIN capacity ON Timestamp \
                 WHERE metric > 1 GROUP BY BUCKET(Timestamp, 1s)",
            )
            .unwrap();
        for fold in [
            "Max (bucket runs, resumable), bucket 1000ms",
            "Count (column pass, join cursor mask: count only)",
            "Min (lane min)",
            "Count (column pass, predicate mask: count only), metric > 1",
            "Avg (column pass, predicate + join cursor mask: bucket runs)",
        ] {
            assert!(plan.contains(fold), "{fold}: {plan}");
        }
    }

    #[test]
    fn empty_query_returns_no_rows() {
        let b = seeded_broker();
        let engine = QueryEngine::new(&b);
        let out = engine.execute(&Query::new(vec![])).unwrap();
        assert!(out.rows.is_empty());
    }

    #[test]
    fn cached_broker_returns_same_results_as_uncached() {
        let b = outage_broker();
        let cache = ScanCache::new();
        let cached = CachedBroker::new(&b, &cache);
        let plain = QueryEngine::new(&b);
        let through_cache = QueryEngine::new(&cached);
        for sql in [
            "SELECT AVG(metric) FROM disk",
            "SELECT metric FROM disk",
            "SELECT COUNT(*) FROM disk INCLUDE STALE",
            "SELECT MAX(Timestamp), metric FROM disk",
            "SELECT AVG(metric) FROM disk WHERE Timestamp BETWEEN 100 AND 300",
            "SELECT AVG(metric) FROM disk GROUP BY BUCKET(Timestamp, 200)",
            "SELECT COUNT(*) FROM disk WHERE metric >= 30",
            "SELECT metric FROM missing",
        ] {
            // Twice through the cache (cold then warm) — both must match
            // the uncached engine exactly.
            assert_eq!(through_cache.execute_sql(sql).ok(), plain.execute_sql(sql).ok(), "{sql}");
            assert_eq!(through_cache.execute_sql(sql).ok(), plain.execute_sql(sql).ok(), "{sql}");
        }
        assert!(cache.hits() > 0, "warm passes must have hit");
    }

    #[test]
    fn warm_range_hits_share_the_cached_allocation() {
        let b = seeded_broker();
        let cache = ScanCache::new();
        let cached = CachedBroker::new(&b, &cache);
        let c1 = cached.columns("capacity", 0, u64::MAX);
        let c2 = cached.columns("capacity", 150, 350);
        assert!(Arc::ptr_eq(&c1.batch, &c2.batch), "every window is a slice of the one tail");
        assert_eq!((c1.rows.len(), c2.values()), (4, &[20.0, 30.0][..]));
    }

    #[test]
    fn scan_cache_hits_while_topic_unchanged() {
        let b = seeded_broker();
        let cache = ScanCache::new();
        let cached = CachedBroker::new(&b, &cache);
        let engine = QueryEngine::new(&cached);
        engine.execute_sql("SELECT AVG(metric) FROM capacity").unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        engine.execute_sql("SELECT AVG(metric) FROM capacity").unwrap();
        engine.execute_sql("SELECT AVG(metric) FROM capacity").unwrap();
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
        // A different time window is another slice of the same tail.
        let avg = engine
            .execute_sql("SELECT AVG(metric) FROM capacity WHERE Timestamp BETWEEN 100 AND 200")
            .unwrap();
        assert_eq!(avg.rows[0].value, 15.0);
        assert_eq!((cache.hits(), cache.misses()), (3, 1));
        assert_eq!((cache.invalidations(), cache.planner_fresh(), cache.len()), (0, 0, 1));
    }

    #[test]
    fn scan_cache_invalidates_on_append() {
        let b = seeded_broker();
        let cache = ScanCache::new();
        let cached = CachedBroker::new(&b, &cache);
        let engine = QueryEngine::new(&cached);
        let before = engine.execute_sql("SELECT SUM(metric) FROM capacity").unwrap();
        assert_eq!(before.rows[0].value, 100.0);
        let tail = cached.columns("capacity", 0, u64::MAX);
        // New data moves last_id: the tail is extended by exactly the
        // appended rows — nothing it held is decoded again — and the
        // batch a reader still holds is not written under.
        b.publish("capacity", 500, Record::measured(500_000_000, 60.0).encode());
        b.publish("capacity", 500, vec![0xde, 0xad]);
        let after = engine.execute_sql("SELECT SUM(metric) FROM capacity").unwrap();
        assert_eq!(after.rows[0].value, 160.0, "stale cache entry served after append");
        let extended = cached.columns("capacity", 0, u64::MAX);
        assert_eq!((tail.rows.len(), extended.rows.len(), extended.batch.corrupt), (4, 5, 1));
        assert_eq!(extended.batch.last_id, Some(StreamId::new(500, 1)));
        assert_eq!((cache.misses(), cache.invalidations(), cache.len()), (1, 0, 1));
        assert_eq!(cache.hits(), 3, "an extended tail serves as a hit");
    }

    #[test]
    fn sliding_windows_over_a_written_topic_hit_the_extended_tail() {
        // A dashboard's read: the topic is appended between queries and
        // the window's lower bound moves each time, so no window is ever
        // asked for twice — and only the first lookup scans.
        let b = Broker::new(StreamConfig::default());
        let publish =
            |ms: u64| b.publish("t", ms, Record::measured(ms * 1_000_000, ms as f64).encode());
        for ms in 1..=200 {
            publish(ms);
        }
        let cache = ScanCache::new();
        let cached = CachedBroker::new(&b, &cache);
        let engine = QueryEngine::new(&cached);
        let oracle = QueryEngine::new(&b);
        const QUERIES: u64 = 640;
        for i in 0..QUERIES {
            publish(201 + i);
            let sql = format!("SELECT AVG(metric) FROM t WHERE Timestamp >= {}", 100 + i);
            assert_eq!(engine.execute_sql(&sql).ok(), oracle.execute_sql(&sql).ok(), "{sql}");
            // However long it slides, the tail holds the 102 rows asked
            // for (at most twice that), not all appended since the scan.
            let tail = cached.columns("t", 100 + i, u64::MAX);
            assert!(tail.rows.len() == 102 && tail.batch.len() <= 204, "{}", tail.batch.len());
        }
        assert_eq!((cache.hits(), cache.misses()), (2 * QUERIES - 1, 1));
        assert_eq!((cache.planner_fresh(), cache.len()), (0, 1), "one tail, nothing dead kept");
        // A closed window wholly before the tail is scanned on its own…
        let old = "SELECT COUNT(*) FROM t WHERE Timestamp BETWEEN 10 AND 50";
        assert_eq!(engine.execute_sql(old).ok(), oracle.execute_sql(old).ok());
        assert_eq!((cache.planner_fresh(), cache.misses()), (1, 1));
        // …and one reaching into it rebuilds the tail from the older start.
        let straddling = "SELECT COUNT(*) FROM t WHERE Timestamp BETWEEN 10 AND 800";
        assert_eq!(engine.execute_sql(straddling).ok(), oracle.execute_sql(straddling).ok());
        assert_eq!(engine.execute_sql(old).ok(), oracle.execute_sql(old).ok());
        assert_eq!((cache.planner_fresh(), cache.misses(), cache.hits()), (1, 2, 2 * QUERIES));
    }

    #[test]
    fn unknown_tables_leave_no_cache_state() {
        // SQL arrives from outside: a name nobody publishes under must not
        // cost the cache anything, however many of them arrive.
        let b = seeded_broker();
        let cache = ScanCache::new();
        let cached = CachedBroker::new(&b, &cache);
        let engine = QueryEngine::new(&cached);
        for i in 0..10_000 {
            let out = engine.execute_sql(&format!("SELECT AVG(metric) FROM ghost/{i}"));
            let missing = matches!(&out, Err(ExecSqlError::Exec(ExecError::EmptyTable(_))));
            assert!(missing && cache.is_empty(), "table {i}: {out:?}, {} cells", cache.len());
        }
        assert_eq!((cache.hits(), cache.misses(), cache.planner_fresh()), (0, 0, 10_000));
    }

    #[test]
    fn scan_cache_invalidates_on_archiveless_eviction() {
        // archive_evicted=false drops entries on eviction: range content
        // shrinks even though the data went nowhere readable. The tail
        // must lose the same rows, or the cache would serve vanished
        // records.
        let b = Broker::new(StreamConfig { archive_evicted: false, ..StreamConfig::bounded(2) });
        for i in 0..2u64 {
            b.publish("t", i, Record::measured(i * 1_000_000, i as f64).encode());
        }
        let cache = ScanCache::new();
        let cached = CachedBroker::new(&b, &cache);
        let engine = QueryEngine::new(&cached);
        assert_eq!(engine.execute_sql("SELECT COUNT(*) FROM t").unwrap().rows[0].value, 2.0);
        // Two more publishes evict the first two entirely.
        for i in 2..4u64 {
            b.publish("t", i, Record::measured(i * 1_000_000, i as f64).encode());
        }
        let out = engine.execute_sql("SELECT metric FROM t").unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].value, 2.0, "evicted records must be gone from cached scans");
        let count = engine.execute_sql("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(count.rows[0].value, 2.0);
        assert_eq!(
            (cache.misses(), cache.invalidations()),
            (1, 0),
            "the loss ended on a millisecond boundary: trimmed, not re-scanned"
        );
    }

    #[test]
    fn a_tail_losing_a_head_row_per_append_moves_only_once_half_is_dead() {
        // No archive and a 64-row window, one row per millisecond: past
        // the 64th, each append loses the head row on a millisecond
        // boundary, as a lapped ring does. The tail keeps the lost rows as
        // a dead prefix — its columns neither move nor shift — until they
        // outnumber the live ones, and serves every window from its first
        // live row.
        let lossy = StreamConfig { archive_evicted: false, ..StreamConfig::bounded(64) };
        let b = Broker::new(lossy);
        let publish =
            |ms: u64| b.publish("t", ms, Record::measured(ms * 1_000_000, ms as f64).encode());
        let cache = ScanCache::new();
        let cached = CachedBroker::new(&b, &cache);
        let (engine, oracle) = (QueryEngine::new(&cached), QueryEngine::new(&b));
        // The columns' allocation, their first row and the served window.
        let tail = || {
            let w = cached.columns("t", 0, u64::MAX);
            (w.batch.timestamps_ns.as_ptr(), w.batch.timestamps_ns[0], w.rows.clone())
        };
        for ms in 1..=64 {
            publish(ms);
        }
        engine.execute_sql("SELECT COUNT(*) FROM t").unwrap();
        // The first extension grows the exactly sized columns (to 128 rows).
        publish(65);
        let (at, head, _) = tail();
        let sliding = |ms: u64| {
            format!(
                "SELECT MAX(metric) FROM t WHERE Timestamp >= {} GROUP BY BUCKET(Timestamp, 10)",
                ms - 30
            )
        };
        let mut moves = 0;
        for ms in 66..=400u64 {
            publish(ms);
            for sql in ["SELECT COUNT(*) FROM t", "SELECT SUM(metric) FROM t", &sliding(ms)] {
                assert_eq!(engine.execute_sql(sql), oracle.execute_sql(sql), "{sql}");
            }
            let (now_at, now_head, rows) = tail();
            assert_eq!(rows.len(), 64, "ms {ms}");
            if ms <= 128 {
                // 64 live rows behind up to 64 dead ones: nothing moved.
                assert_eq!((now_at, now_head, rows.start), (at, head, ms as usize - 64), "ms {ms}");
            }
            moves += usize::from(now_head != head && rows.start == 0);
        }
        // 129 rows, 65 of them dead: dropped at once, and again each time
        // 65 more are lost.
        assert_eq!(moves, (400 - 128) / 65 + 1);
        assert_eq!((cache.misses(), cache.invalidations()), (1, 0), "never rebuilt");
        // The whole-tail folds covered a lost row at every append; the
        // sliding bucketed arm's started past them, and kept resuming.
        assert_eq!(cache.fold_resumed(), 400 - 66, "{}", cache.fold_resumed());
    }

    #[test]
    fn scan_cache_instruments_registry() {
        let b = seeded_broker();
        let cache = ScanCache::new();
        let registry = apollo_obs::Registry::new();
        cache.instrument(&registry);
        let cached = CachedBroker::new(&b, &cache);
        let engine = QueryEngine::new(&cached);
        engine.execute_sql("SELECT AVG(metric) FROM capacity").unwrap();
        engine.execute_sql("SELECT AVG(metric) FROM capacity").unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("query.scan_cache.hits"), 1);
        assert_eq!(snap.counter("query.scan_cache.misses"), 1);
        assert_eq!(snap.counter("query.scan_cache.invalidations"), 0);
        assert_eq!(snap.counter("query.planner.cached_scan"), 2);
        assert_eq!(snap.counter("query.planner.fresh_batch"), 0);
    }

    #[test]
    fn scan_cache_bounds_its_size() {
        let b = Broker::new(StreamConfig::default());
        let cache = ScanCache::new();
        let cached = CachedBroker::new(&b, &cache);
        // One tail per topic, however many windows; topics are bounded.
        for i in 0..600u64 {
            let topic = format!("t{i}");
            b.publish(&topic, 1, Record::measured(1_000_000, 1.0).encode());
            cached.columns(&topic, 0, i + 1);
            cached.columns("t0", 0, i);
            assert!(cache.len() <= 256, "cache grew past its bound: {}", cache.len());
        }
        assert!(cache.len() > 1);
    }
}
