//! Columnar scan kernels.
//!
//! The executor runs scan aggregates over a [`ColumnSlice`] — one window
//! of the provider's struct-of-arrays batch, usually a cached tail —
//! without materializing per-row records. Each arm's fold is directed by
//! its aggregate and folds only what the aggregate returns (DESIGN §17):
//! `COUNT` no value, `SUM`/`AVG` the sum front to back, `MAX`/`MIN` eight
//! lanes, folded again in order when the answer is ±0. Arms with value
//! predicates or a join go row by row through the shared
//! [`ScanState`](crate::exec). Each fold
//! continues a state, so a cached tail resumes a whole-tail aggregate's
//! saved fold over only the rows appended since.
//!
//! **Equivalence contract:** every result is bit-identical to a naive
//! fold over the window's records, front to back. The naive fold is test
//! code, in `crates/query/tests/equivalence.rs`.

use crate::ast::{Aggregate, Select};
use crate::exec::{AggregateCounts, ColumnSlice, ExecError, Row, ScanState};
use apollo_streams::codec::Provenance;

/// Independent lanes of a `MAX`/`MIN` fold.
const LANES: usize = 8;

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

/// The right side of a timestamp semi-join: the partner table's record
/// timestamps (ms), sorted, probed through a cursor.
#[derive(Debug, Clone)]
pub struct JoinIndex {
    ts_ms: Vec<u64>,
    tolerance_ms: u64,
    /// The last probe's lower bound and the first partner at or above it.
    lo: u64,
    cursor: usize,
}

impl JoinIndex {
    /// Index the partner rows' record timestamps (ns) with the given
    /// match tolerance. Sorted here: rows arrive in ID order, and a record
    /// timestamp may regress where an ID may not.
    pub fn new(timestamps_ns: impl Iterator<Item = u64>, tolerance_ms: u64) -> Self {
        let mut ts_ms: Vec<u64> = timestamps_ns.map(|ns| ns / 1_000_000).collect();
        ts_ms.sort_unstable();
        Self { ts_ms, tolerance_ms, lo: 0, cursor: 0 }
    }

    /// Does any partner timestamp fall within ±tolerance of `ts_ms`? While
    /// probes do not decrease the cursor only walks forward, so a window
    /// of probes costs one pass over the partner; a probe below the last
    /// binary-searches afresh.
    #[inline]
    pub fn matches(&mut self, ts_ms: u64) -> bool {
        let lo = ts_ms.saturating_sub(self.tolerance_ms);
        if lo < self.lo {
            self.cursor = self.ts_ms.partition_point(|&t| t < lo);
        }
        while self.ts_ms.get(self.cursor).is_some_and(|&t| t < lo) {
            self.cursor += 1;
        }
        self.lo = lo;
        self.ts_ms.get(self.cursor).is_some_and(|&t| t <= ts_ms.saturating_add(self.tolerance_ms))
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

/// The fold `select`'s scan aggregate takes, as `EXPLAIN` names it.
pub(crate) fn fold_name(select: &Select) -> &'static str {
    match select.aggregate {
        _ if !select.value_preds.is_empty() => "per-row (predicates)",
        _ if select.join.is_some() => "join cursor",
        _ if select.bucket_ms.is_some() => "bucket runs",
        Aggregate::Count => "count only",
        Aggregate::Max => "lane max",
        Aggregate::Min => "lane min",
        _ => "sum fold",
    }
}

/// True when `select`'s fold of a window is its fold of the window's first
/// rows continued over the rest, with nothing carried but the
/// [`ScanState`]: a scan aggregate with no value predicate, join or
/// bucket. A cached tail keeps such folds to resume them.
pub(crate) fn resumable(select: &Select) -> bool {
    let scan = !matches!(select.aggregate, Aggregate::Latest | Aggregate::All);
    scan && select.value_preds.is_empty() && select.join.is_none() && select.bucket_ms.is_none()
}

/// Run `select`'s scan aggregate over a columnar window, directed by its
/// aggregate (see the module docs). Arms with value predicates or a join
/// take the shared per-row [`ScanState`] path.
pub(crate) fn run_scan_columns(
    select: &Select,
    cols: &ColumnSlice,
    join: Option<&mut JoinIndex>,
) -> Result<Vec<Row>, ExecError> {
    let mut st = ScanState::new(select);
    fold_columns(select, &mut st, cols, join);
    st.finalize(select)
}

/// Fold the window's rows into `st`, which holds the fold of the rows
/// before them (a new state when there are none): the directed fold of
/// [`run_scan_columns`], continued. The sum goes on in stream order and
/// the lanes start from the extreme so far, so a fold resumed over a
/// window's later rows is bit-identical to one over the whole window.
pub(crate) fn fold_columns(
    select: &Select,
    st: &mut ScanState,
    cols: &ColumnSlice,
    mut join: Option<&mut JoinIndex>,
) {
    let (timestamps_ns, values, provenance) =
        (cols.timestamps_ns(), cols.values(), cols.provenance());
    if !select.value_preds.is_empty() || join.is_some() {
        for i in 0..values.len() {
            let provenance = Provenance::from_wire(provenance[i])
                .expect("ColumnBatch holds only successfully decoded records");
            let ts_ms = timestamps_ns[i] / 1_000_000;
            st.observe(select, join.as_deref_mut(), ts_ms, values[i], provenance);
        }
    } else if let Some(width) = select.bucket_ms {
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
            st.observe_run(select, key, &values[i..end], &provenance[i..end]);
            i = end;
        }
    } else {
        let counts = provenance_counts(provenance);
        st.total_in_window += values.len() as u64;
        st.admitted += values.len() as u64;
        st.counts += counts;
        // Sorted timestamps peak at the window's last row.
        let sorted = cols.batch.timestamps_sorted();
        let newest = if sorted { timestamps_ns.last() } else { timestamps_ns.iter().max() };
        let newest_ms = newest.copied().unwrap_or(0) / 1_000_000;
        st.max_ts_all = st.max_ts_all.max(newest_ms);
        if select.include_stale || counts.stale == 0 {
            st.acc.add_all(values);
            st.max_ts_included = st.max_ts_included.max(newest_ms);
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

    #[test]
    fn join_index_matches_within_tolerance() {
        let partner = || [250u64, 100, 900].into_iter().map(|ms| ms * 1_000_000);
        let mut idx = JoinIndex::new(partner(), 10);
        assert!(idx.matches(100));
        assert!(idx.matches(95));
        assert!(idx.matches(110));
        assert!(!idx.matches(111));
        assert!(!idx.matches(0));
        assert!(idx.matches(890) && idx.matches(910));
        let mut exact = JoinIndex::new(partner(), 0);
        assert!(exact.matches(250));
        assert!(!exact.matches(249) && !exact.matches(251));
        let mut empty = JoinIndex::new(std::iter::empty(), 1000);
        assert!(!empty.matches(100));
    }

    #[test]
    fn join_cursor_agrees_with_a_fresh_search_on_any_probe_order() {
        let partner: Vec<u64> = (0..60u64).map(|i| (i * 37) % 1_000 * 1_000_000).collect();
        let probes = (0..400u64).map(|i| if i % 50 == 49 { i } else { i * 3 });
        let mut cursor = JoinIndex::new(partner.iter().copied(), 4);
        for ts in probes {
            let fresh = JoinIndex::new(partner.iter().copied(), 4).matches(ts);
            assert_eq!(cursor.matches(ts), fresh, "probe {ts}");
        }
    }

    #[test]
    fn join_index_saturates_at_the_origin() {
        let mut idx = JoinIndex::new(std::iter::once(0), 5);
        assert!(idx.matches(0), "ts 0 with tolerance must not underflow");
        assert!(idx.matches(3));
        assert!(!idx.matches(6));
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
