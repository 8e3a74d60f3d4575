//! Columnar scan kernels.
//!
//! The executor runs scan aggregates over a [`ColumnSlice`] — one window
//! of the provider's struct-of-arrays batch, usually a cached tail —
//! without materializing per-row records. Each arm's fold is directed by
//! its aggregate and folds only what the aggregate returns (DESIGN §17):
//! `COUNT` no value, `SUM`/`AVG` the sum front to back, `MAX`/`MIN` eight
//! lanes, folded again in order when the answer is ±0; a `GROUP BY
//! BUCKET` arm folds each run of rows in one bucket that way. An arm with
//! value predicates or a join takes the same one column pass: its
//! admission is decided per row from the predicates and a [`JoinIndex`]
//! cursor, the admitted rows are gathered a stack-held chunk at a time in
//! stream order, and each chunk is folded as an unfiltered window is.
//! Each fold continues a [`ScanState`](crate::exec), so a cached tail
//! resumes a saved fold over only the rows that changed: a whole-tail
//! aggregate over the rows appended since, and a bucketed arm (no
//! predicate or join, record clock sorted) over the bucket its window's
//! new start cuts and the rows appended since (`refold`).
//!
//! **Equivalence contract:** every result is bit-identical to a naive
//! fold over the window's records, front to back. The naive fold is test
//! code, in `crates/query/tests/equivalence.rs`.

use crate::ast::{Aggregate, Select};
use crate::exec::{AggregateCounts, ColumnSlice, ExecError, Row, ScanState};
use apollo_streams::codec::Provenance;
use apollo_streams::ColumnBatch;
use std::ops::Range;

/// Independent lanes of a `MAX`/`MIN` fold.
const LANES: usize = 8;

/// Rows a filtered arm gathers at a time: the chunk's columns sit on the
/// stack, so the pass allocates nothing per row or per chunk.
const CHUNK: usize = 256;

/// The fold of one scan aggregate: one fold order, so any two folds of
/// the same value sequence are bit-identical. It folds only what its
/// aggregate returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanAccumulator {
    agg: Aggregate,
    /// Values folded so far.
    pub count: u64,
    /// `SUM`/`AVG`: the running sum, in fold order (IEEE addition is
    /// order-sensitive — this exact sequence is the contract). `MAX`/`MIN`:
    /// the running extreme (`∓∞` when empty). `COUNT`: unused.
    folded: f64,
}

impl ScanAccumulator {
    /// An empty accumulator for a scan aggregate.
    pub fn new(agg: Aggregate) -> Self {
        let folded = match agg {
            Aggregate::Max => f64::NEG_INFINITY,
            Aggregate::Min => f64::INFINITY,
            _ => 0.0,
        };
        Self { agg, count: 0, folded }
    }

    /// Fold one value.
    #[inline]
    pub fn add(&mut self, value: f64) {
        self.count += 1;
        match self.agg {
            Aggregate::Sum | Aggregate::Avg => self.folded += value,
            Aggregate::Max => self.folded = max(self.folded, value),
            Aggregate::Min => self.folded = min(self.folded, value),
            _ => {}
        }
    }

    /// Fold `values`, bit-identical to [`ScanAccumulator::add`] on each in
    /// turn.
    pub fn add_all(&mut self, values: &[f64]) {
        self.count += values.len() as u64;
        self.folded = match self.agg {
            Aggregate::Sum | Aggregate::Avg => values.iter().fold(self.folded, |s, &v| s + v),
            Aggregate::Max => extreme(self.folded, values, max),
            Aggregate::Min => extreme(self.folded, values, min),
            _ => self.folded,
        };
    }

    /// The aggregate's result.
    pub fn value(&self) -> f64 {
        match self.agg {
            Aggregate::Max | Aggregate::Min | Aggregate::Sum => self.folded,
            Aggregate::Avg => self.folded / self.count as f64,
            Aggregate::Count => self.count as f64,
            Aggregate::Latest | Aggregate::All => unreachable!("not a scan aggregate"),
        }
    }
}

/// `f64::max` with the sign of a zero answer fixed: `v` replaces `m` only
/// when larger, so of equal values the first is kept, and NaN never is.
/// `f64::max` leaves that sign unspecified, and two inlined copies of it
/// can pick differently.
#[inline]
fn max(m: f64, v: f64) -> f64 {
    if v > m {
        v
    } else {
        m
    }
}

/// [`max`]'s mirror: `v` replaces `m` only when smaller.
#[inline]
fn min(m: f64, v: f64) -> f64 {
    if v < m {
        v
    } else {
        m
    }
}

/// `op` ([`max`] or [`min`]) over `values` from `init`, in
/// [`LANES`] independent chains combined at the end.
fn lanes(init: f64, values: &[f64], op: impl Fn(f64, f64) -> f64 + Copy) -> f64 {
    let mut lane = [init; LANES];
    let chunks = values.chunks_exact(LANES);
    let rest = chunks.remainder();
    for chunk in chunks {
        for (l, &v) in lane.iter_mut().zip(chunk) {
            *l = op(*l, v);
        }
    }
    lane.into_iter().chain(rest.iter().copied()).fold(init, op)
}

/// [`lanes`], bit-identical to folding `values` front to back: an answer
/// of ±0, the one whose sign the order can decide, is folded again in
/// order.
fn extreme(init: f64, values: &[f64], op: impl Fn(f64, f64) -> f64 + Copy) -> f64 {
    let out = lanes(init, values, op);
    if out == 0.0 {
        return values.iter().fold(init, |m, &v| op(m, v));
    }
    out
}

/// The right side of a timestamp semi-join: the partner table's window,
/// its record timestamps probed through a cursor.
#[derive(Debug, Clone)]
pub struct JoinIndex {
    /// The partner's window, whose timestamp column is probed in place
    /// when its batch's record clock never regressed.
    partner: ColumnSlice,
    /// The partner's timestamps (ns), sorted, when it did; empty else.
    sorted: Vec<u64>,
    tolerance_ms: u64,
    /// The last probe's lower bound (ns) and the first partner at or
    /// above it.
    lo_ns: u64,
    cursor: usize,
}

impl JoinIndex {
    /// Index the partner's window with the given match tolerance. Rows
    /// arrive in ID order, and a record timestamp may regress where an ID
    /// may not: only then are the timestamps copied out and sorted.
    pub fn new(partner: ColumnSlice, tolerance_ms: u64) -> Self {
        let mut sorted = Vec::new();
        if !partner.batch.timestamps_sorted() {
            sorted.extend_from_slice(partner.timestamps_ns());
            sorted.sort_unstable();
        }
        Self { partner, sorted, tolerance_ms, lo_ns: 0, cursor: 0 }
    }

    /// Does any partner record fall within ±tolerance of the record
    /// stamped `ts_ns`, both taken in whole milliseconds? The one-probe
    /// form of the cursor walk a filtered fold takes over a window.
    pub fn matches(&mut self, ts_ns: u64) -> bool {
        let mut admit = [true];
        self.mask(&[ts_ns], &mut admit);
        admit[0]
    }

    /// Clear `admit[i]` unless a partner record falls within ±tolerance of
    /// the record stamped `probes_ns[i]`. While probes do not decrease the
    /// cursor only walks forward, so a window of probes costs one pass
    /// over the partner; a probe below the last binary-searches afresh.
    pub(crate) fn mask(&mut self, probes_ns: &[u64], admit: &mut [bool]) {
        let ts: &[u64] =
            if self.sorted.is_empty() { self.partner.timestamps_ns() } else { &self.sorted };
        // A partner at `t` ns is at `t / 1e6` ms: inside `[lo, hi]` ms
        // when `lo·1e6 <= t < (hi + 1)·1e6`.
        let tolerance_ns = self.tolerance_ms.saturating_mul(1_000_000);
        let (mut last_lo, mut cursor) = (self.lo_ns, self.cursor);
        for (&probe, admit) in probes_ns.iter().zip(admit) {
            let ms_ns = probe - probe % 1_000_000;
            let lo = ms_ns.saturating_sub(tolerance_ns);
            if lo < last_lo {
                cursor = ts.partition_point(|&t| t < lo);
            }
            while cursor < ts.len() && ts[cursor] < lo {
                cursor += 1;
            }
            last_lo = lo;
            let hi = ms_ns.saturating_add(tolerance_ns).saturating_add(999_999);
            *admit &= cursor < ts.len() && ts[cursor] <= hi;
        }
        (self.lo_ns, self.cursor) = (last_lo, cursor);
    }
}

/// Provenance split of a wire-byte column. The counters are `u8`, which
/// vectorize where `u64` ones do not, widened once per chunk of at most
/// 255 rows — a chunk they cannot overflow on.
pub fn provenance_counts(provenance: &[u8]) -> AggregateCounts {
    let mut counts = AggregateCounts::default();
    for chunk in provenance.chunks(u8::MAX as usize) {
        let (mut measured, mut predicted, mut stale) = (0u8, 0u8, 0u8);
        for &b in chunk {
            measured += u8::from(b == Provenance::Measured.wire());
            predicted += u8::from(b == Provenance::Predicted.wire());
            stale += u8::from(b == Provenance::Stale.wire());
        }
        counts.measured += u64::from(measured);
        counts.predicted += u64::from(predicted);
        counts.stale += u64::from(stale);
    }
    counts
}

/// The fold `select`'s scan aggregate takes, as `EXPLAIN` names it: the
/// admission mask of a filtered arm's column pass, if any, then the fold
/// of the admitted rows.
pub(crate) fn fold_name(select: &Select) -> String {
    let mask = match (select.value_preds.is_empty(), select.join.is_none()) {
        (true, true) => "",
        (false, true) => "column pass, predicate mask: ",
        (true, false) => "column pass, join cursor mask: ",
        (false, false) => "column pass, predicate + join cursor mask: ",
    };
    let fold = match select.aggregate {
        _ if select.bucket_ms.is_some() && resumable(select) => "bucket runs, resumable",
        _ if select.bucket_ms.is_some() => "bucket runs",
        Aggregate::Count => "count only",
        Aggregate::Max => "lane max",
        Aggregate::Min => "lane min",
        _ => "sum fold",
    };
    format!("{mask}{fold}")
}

/// True when a cached tail may keep `select`'s fold and resume it (see
/// [`refold`]): a scan aggregate with no value predicate or join. A
/// bucketed one resumes only over a batch whose record clock never
/// regressed, whose buckets are runs of rows.
pub(crate) fn resumable(select: &Select) -> bool {
    let scan = !matches!(select.aggregate, Aggregate::Latest | Aggregate::All);
    scan && select.value_preds.is_empty() && select.join.is_none()
}

/// Run `select`'s scan aggregate over a columnar window, directed by its
/// aggregate (see the module docs).
pub(crate) fn run_scan_columns(
    select: &Select,
    cols: &ColumnSlice,
    join: Option<&mut JoinIndex>,
) -> Result<Vec<Row>, ExecError> {
    let mut st = ScanState::new(select);
    fold_columns(select, &mut st, &cols.batch, cols.rows.clone(), join);
    st.finalize(select)
}

/// Continue `st`, the fold of `batch`'s rows `saved`, to the fold of its
/// rows `window` — which ends at or past `saved`, and for an unbucketed
/// arm starts where it does. An unbucketed fold goes on over the rows
/// appended since. A bucketed one (sorted record clock: each bucket is a
/// run of rows) drops the buckets that slid out, refolds the one bucket
/// the window's start cuts from that row on, and goes on over the rows
/// appended since, the last saved bucket continued. Either way the answer
/// is the front-to-back fold of `window`, bit for bit.
pub(crate) fn refold(
    select: &Select,
    st: &mut ScanState,
    batch: &ColumnBatch,
    saved: Range<usize>,
    window: Range<usize>,
) {
    if select.bucket_ms.is_none() {
        return fold_columns(select, st, batch, saved.end..window.end, None);
    }
    let gone = st.buckets.partition_point(|b| b.first < window.start);
    let cut_end = st.buckets.get(gone).map_or(saved.end, |b| b.first).max(window.start);
    st.buckets.drain(..gone);
    fold_columns(select, st, batch, window.start..cut_end, None);
    fold_columns(select, st, batch, saved.end.max(cut_end)..window.end, None);
    st.total_in_window = window.len() as u64;
}

/// Fold `batch`'s rows `rows` into `st`, which holds the fold of the rows
/// before them (a new state when there are none): the directed fold of
/// [`run_scan_columns`], continued. The sum goes on in stream order and
/// the lanes start from the extreme so far, so a fold resumed over a
/// window's later rows is bit-identical to one over the whole window. An
/// arm with value predicates or a join folds the rows it admits, gathered
/// [`CHUNK`] at a time.
pub(crate) fn fold_columns(
    select: &Select,
    st: &mut ScanState,
    batch: &ColumnBatch,
    rows: Range<usize>,
    mut join: Option<&mut JoinIndex>,
) {
    let (first, sorted) = (rows.start, batch.timestamps_sorted());
    let timestamps_ns = &batch.timestamps_ns[rows.clone()];
    let (values, provenance) = (&batch.values[rows.clone()], &batch.provenance[rows]);
    st.total_in_window += values.len() as u64;
    match select.bucket_ms {
        None => st.max_ts_all = st.max_ts_all.max(newest_ms(timestamps_ns, sorted)),
        // Sorted, the window spans at most this many buckets (and holds
        // no more than a bucket a row): one allocation.
        Some(width) if st.buckets.is_empty() && sorted && !timestamps_ns.is_empty() => {
            let (lo, hi) = (timestamps_ns[0] / 1_000_000, newest_ms(timestamps_ns, true));
            let span = (hi / width - lo / width).saturating_add(1);
            st.buckets.reserve_exact(span.min(values.len() as u64) as usize);
        }
        Some(_) => {}
    }
    if select.value_preds.is_empty() && join.is_none() {
        return fold_rows(select, st, sorted, first, timestamps_ns, values, provenance);
    }
    let (mut ts, mut vs, mut ps) = ([0u64; CHUNK], [0f64; CHUNK], [0u8; CHUNK]);
    let mut mask = [true; CHUNK];
    for start in (0..values.len()).step_by(CHUNK) {
        let end = values.len().min(start + CHUNK);
        let admit = &mut mask[..end - start];
        admit.fill(true);
        for p in &select.value_preds {
            for (a, &v) in admit.iter_mut().zip(&values[start..end]) {
                *a &= p.admits(v);
            }
        }
        if let Some(join) = join.as_deref_mut() {
            join.mask(&timestamps_ns[start..end], admit);
        }
        let mut kept = 0;
        for (i, &a) in (start..end).zip(admit.iter()) {
            (ts[kept], vs[kept], ps[kept]) = (timestamps_ns[i], values[i], provenance[i]);
            kept += usize::from(a);
        }
        // A filtered arm is never resumed, so its buckets' first rows go
        // unread: the chunk's first row stands in.
        fold_rows(select, st, sorted, first + start, &ts[..kept], &vs[..kept], &ps[..kept]);
    }
}

/// The largest of `timestamps_ns`, in ms: the last when they are sorted.
fn newest_ms(timestamps_ns: &[u64], sorted: bool) -> u64 {
    let newest = if sorted { timestamps_ns.last() } else { timestamps_ns.iter().max() };
    newest.copied().unwrap_or(0) / 1_000_000
}

/// Fold admitted rows — all of an unfiltered window's, or a filtered
/// arm's gathered chunk — into `st`: the provenance split and the
/// aggregate, per bucket run when the arm is bucketed. `first` is the
/// batch row of the first of them.
fn fold_rows(
    select: &Select,
    st: &mut ScanState,
    sorted: bool,
    first: usize,
    timestamps_ns: &[u64],
    values: &[f64],
    provenance: &[u8],
) {
    if let Some(width) = select.bucket_ms {
        // A run is the rows from `i` up to the first outside the bucket of
        // row `i`, found by comparing with the bucket's bounds (ns).
        let width_ns = width.saturating_mul(1_000_000);
        let mut i = 0;
        while i < values.len() {
            let key = timestamps_ns[i] / 1_000_000 / width * width;
            let lo_ns = key * 1_000_000;
            let outside = |&t: &u64| t < lo_ns || t - lo_ns >= width_ns;
            let run = timestamps_ns[i + 1..].iter().position(outside);
            let end = run.map_or(values.len(), |n| i + 1 + n);
            st.fold_run(select, key, first + i, &values[i..end], &provenance[i..end]);
            i = end;
        }
        return;
    }
    let counts = provenance_counts(provenance);
    st.admitted += values.len() as u64;
    st.counts += counts;
    if select.include_stale || counts.stale == 0 {
        st.acc.add_all(values);
        st.max_ts_included = st.max_ts_included.max(newest_ms(timestamps_ns, sorted));
    } else {
        let stale = Provenance::Stale.wire();
        let mut max_ts_ns = 0;
        for i in 0..values.len() {
            if provenance[i] != stale {
                st.acc.add(values[i]);
                max_ts_ns = max_ts_ns.max(timestamps_ns[i]);
            }
        }
        st.max_ts_included = st.max_ts_included.max(max_ts_ns / 1_000_000);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_matches_naive_folds() {
        let values = [3.5, -1.0, 7.25, 0.0, 2.5];
        let folded = |agg| {
            let mut acc = ScanAccumulator::new(agg);
            acc.add_all(&values);
            let mut one_by_one = ScanAccumulator::new(agg);
            values.iter().for_each(|&v| one_by_one.add(v));
            assert_eq!(acc, one_by_one, "{agg:?}");
            assert_eq!(acc.count, 5);
            acc.value()
        };
        assert_eq!(folded(Aggregate::Sum), values.iter().copied().sum::<f64>());
        assert_eq!(folded(Aggregate::Max), 7.25);
        assert_eq!(folded(Aggregate::Min), -1.0);
        assert_eq!(folded(Aggregate::Avg), values.iter().copied().sum::<f64>() / 5.0);
        assert_eq!(folded(Aggregate::Count), 5.0);
    }

    #[test]
    fn lane_extremes_need_the_signed_zero_redo() {
        // Teeth for the ±0 redo: front to back, the first of two equal
        // zeros (row 1) is kept; lane 0 meets row 8's zero and is combined
        // ahead of lane 1, so the lanes alone answer with row 8's sign.
        for (first, second) in [(0.0f64, -0.0f64), (-0.0, 0.0)] {
            let ops =
                [(max as fn(f64, f64) -> f64, f64::NEG_INFINITY, -1.0), (min, f64::INFINITY, 1.0)];
            for (op, init, fill) in ops {
                let mut values = vec![fill; 2 * LANES + 1];
                (values[1], values[LANES]) = (first, second);
                let sequential = values.iter().fold(init, |m, &v| op(m, v));
                assert_eq!(sequential.to_bits(), first.to_bits());
                assert_eq!(lanes(init, &values, op).to_bits(), second.to_bits(), "{values:?}");
                assert_eq!(extreme(init, &values, op).to_bits(), first.to_bits(), "{values:?}");
            }
        }
    }

    #[test]
    fn lane_extremes_skip_nan_and_keep_infinities() {
        let mut values = vec![f64::NAN; 20];
        let mut acc = ScanAccumulator::new(Aggregate::Max);
        acc.add_all(&values);
        assert_eq!(acc.value(), f64::NEG_INFINITY, "all-NaN folds to the empty answer");
        values[13] = f64::INFINITY;
        values[2] = -3.0;
        let mut acc = ScanAccumulator::new(Aggregate::Min);
        acc.add_all(&values);
        assert_eq!(acc.value(), -3.0);
        let mut acc = ScanAccumulator::new(Aggregate::Max);
        acc.add_all(&values);
        assert_eq!(acc.value(), f64::INFINITY);
    }

    /// `ms` as a record timestamp (ns).
    fn at(ms: u64) -> u64 {
        ms * 1_000_000
    }

    /// A partner window holding records at `ts_ms`, in that (ID) order: a
    /// batch whose record clock regressed when they are not sorted.
    fn partner(ts_ms: &[u64]) -> ColumnSlice {
        let broker = apollo_streams::Broker::new(apollo_streams::StreamConfig::default());
        for (i, &ms) in ts_ms.iter().enumerate() {
            let record = apollo_streams::codec::Record::measured(ms * 1_000_000, 1.0);
            broker.publish("p", i as u64 + 1, record.encode());
        }
        crate::exec::TableProvider::columns(&broker, "p", 0, u64::MAX)
    }

    #[test]
    fn join_index_matches_within_tolerance() {
        for ts in [[250u64, 100, 900], [100, 250, 900]] {
            let sorted = ts.is_sorted();
            assert_eq!(partner(&ts).batch.timestamps_sorted(), sorted);
            let mut idx = JoinIndex::new(partner(&ts), 10);
            assert!(idx.matches(at(100)));
            assert!(idx.matches(at(95)));
            assert!(idx.matches(at(110)));
            assert!(!idx.matches(at(111)));
            assert!(!idx.matches(at(0)));
            assert!(idx.matches(at(890)) && idx.matches(at(910)));
            let mut exact = JoinIndex::new(partner(&ts), 0);
            assert!(exact.matches(at(250)));
            assert!(!exact.matches(at(249)) && !exact.matches(at(251)));
        }
        let mut empty = JoinIndex::new(partner(&[]), 1000);
        assert!(!empty.matches(at(100)));
    }

    #[test]
    fn join_cursor_agrees_with_a_fresh_search_on_any_probe_order() {
        let unsorted: Vec<u64> = (0..60u64).map(|i| (i * 37) % 1_000).collect();
        let mut sorted = unsorted.clone();
        sorted.sort_unstable();
        for ts in [unsorted, sorted] {
            let probes = (0..400u64).map(|i| if i % 50 == 49 { i } else { i * 3 });
            let mut cursor = JoinIndex::new(partner(&ts), 4);
            for probe in probes {
                let fresh = ts.iter().any(|&t| t.abs_diff(probe) <= 4);
                // Anywhere inside the probe's millisecond.
                let ns = at(probe) + probe * 7_919 % 1_000_000;
                assert_eq!(cursor.matches(ns), fresh, "probe {probe}");
            }
        }
    }

    #[test]
    fn join_index_saturates_at_the_origin() {
        let mut idx = JoinIndex::new(partner(&[0]), 5);
        assert!(idx.matches(at(0)), "ts 0 with tolerance must not underflow");
        assert!(idx.matches(at(3)));
        assert!(!idx.matches(at(6)));
        let mut far = JoinIndex::new(partner(&[0]), u64::MAX);
        assert!(far.matches(u64::MAX), "a tolerance to the end of time must not overflow");
    }

    #[test]
    fn provenance_counts_split() {
        let bytes = vec![
            Provenance::Measured.wire(),
            Provenance::Stale.wire(),
            Provenance::Measured.wire(),
            Provenance::Predicted.wire(),
            Provenance::Stale.wire(),
        ];
        let c = provenance_counts(&bytes);
        assert_eq!((c.measured, c.predicted, c.stale), (2, 1, 2));
        let none = provenance_counts(&[]);
        assert_eq!((none.measured, none.predicted, none.stale), (0, 0, 0));
        // Across the u8 counters' chunk edge: all of one kind, so one
        // counter takes every row of a chunk.
        for n in [254, 255, 256, 510, 511] {
            let c = provenance_counts(&vec![Provenance::Stale.wire(); n]);
            assert_eq!((c.measured, c.predicted, c.stale), (0, 0, n as u64));
        }
    }
}
