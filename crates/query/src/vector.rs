//! Columnar scan kernels.
//!
//! The executor runs scan aggregates over a [`ColumnSlice`] — one window
//! of the provider's struct-of-arrays batch (timestamp, value and
//! provenance columns), usually a cached tail — without materializing
//! per-row records. On the common unfiltered path the fold is a
//! branch-free pass over the contiguous `f64` column, which the compiler
//! auto-vectorizes; filtered/bucketed scans stream the columns through the
//! shared sequential [`ScanState`](crate::exec) machinery.
//!
//! **Equivalence contract:** every kernel folds values in stream order,
//! one IEEE operation per value, so its `f64` results are bit-identical to
//! a naive fold over the window's records. The naive fold is test code,
//! in `crates/query/tests/equivalence.rs`.

use crate::ast::{Aggregate, Select};
use crate::exec::{ColumnSlice, ExecError, Row, ScanState};
use apollo_streams::codec::Provenance;

/// The sequential fold shared by the column path and continuous queries:
/// one code path, one fold order, so both are bit-identical on the same
/// value sequence. Tracks every scan aggregate
/// at once (the marginal cost over tracking one is a few ALU ops).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanAccumulator {
    /// Values folded so far.
    pub count: u64,
    /// Running sum, in push order (IEEE addition is order-sensitive —
    /// this exact sequence is the contract).
    pub sum: f64,
    /// Running maximum (`NEG_INFINITY` when empty).
    pub max: f64,
    /// Running minimum (`INFINITY` when empty).
    pub min: f64,
}

impl Default for ScanAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl ScanAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self { count: 0, sum: 0.0, max: f64::NEG_INFINITY, min: f64::INFINITY }
    }

    /// Fold one value.
    #[inline]
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
    }

    /// Read the result out for a scan aggregate.
    pub fn value(&self, agg: Aggregate) -> f64 {
        match agg {
            Aggregate::Max => self.max,
            Aggregate::Min => self.min,
            Aggregate::Avg => self.sum / self.count as f64,
            Aggregate::Sum => self.sum,
            Aggregate::Count => self.count as f64,
            Aggregate::Latest | Aggregate::All => unreachable!("not a scan aggregate"),
        }
    }
}

/// The right side of a timestamp semi-join: the partner table's record
/// timestamps (ms), sorted for binary-search matching.
#[derive(Debug, Clone)]
pub struct JoinIndex {
    ts_ms: Vec<u64>,
    tolerance_ms: u64,
}

impl JoinIndex {
    /// Index the partner rows' record timestamps (ns) with the given
    /// match tolerance. Sorted here: rows arrive in ID order, and a record
    /// timestamp may regress where an ID may not.
    pub fn new(timestamps_ns: impl Iterator<Item = u64>, tolerance_ms: u64) -> Self {
        let mut ts_ms: Vec<u64> = timestamps_ns.map(|ns| ns / 1_000_000).collect();
        ts_ms.sort_unstable();
        Self { ts_ms, tolerance_ms }
    }

    /// Does any partner timestamp fall within ±tolerance of `ts_ms`?
    #[inline]
    pub fn matches(&self, ts_ms: u64) -> bool {
        let lo = ts_ms.saturating_sub(self.tolerance_ms);
        let i = self.ts_ms.partition_point(|&t| t < lo);
        self.ts_ms.get(i).is_some_and(|&t| t <= ts_ms.saturating_add(self.tolerance_ms))
    }
}

/// Provenance split of a wire-byte column in one pass (three independent
/// counters over a contiguous `u8` slice — auto-vectorizes).
pub fn provenance_counts(provenance: &[u8]) -> crate::exec::AggregateCounts {
    let mut measured = 0u64;
    let mut predicted = 0u64;
    let mut stale = 0u64;
    for &b in provenance {
        measured += u64::from(b == Provenance::Measured.wire());
        predicted += u64::from(b == Provenance::Predicted.wire());
        stale += u64::from(b == Provenance::Stale.wire());
    }
    crate::exec::AggregateCounts { measured, predicted, stale }
}

/// Branch-free fold over full columns: every row is included. Returns the
/// accumulator and the max record timestamp (ns).
fn fold_columns(timestamps_ns: &[u64], values: &[f64]) -> (ScanAccumulator, u64) {
    let mut acc = ScanAccumulator::new();
    let mut max_ts = 0u64;
    for (&t, &v) in timestamps_ns.iter().zip(values) {
        acc.push(v);
        max_ts = max_ts.max(t);
    }
    (acc, max_ts)
}

/// Run `select`'s scan aggregate over a columnar window. The unfiltered path
/// (no predicates, no join, no buckets) uses the tight column kernels;
/// everything else streams the columns through the shared [`ScanState`],
/// which continuous queries fold through too — same fold order either way.
pub(crate) fn run_scan_columns(
    select: &Select,
    cols: &ColumnSlice,
    join: Option<&JoinIndex>,
) -> Result<Vec<Row>, ExecError> {
    let (timestamps_ns, values, provenance) =
        (cols.timestamps_ns(), cols.values(), cols.provenance());
    let fast = select.value_preds.is_empty() && join.is_none() && select.bucket_ms.is_none();
    if fast {
        let mut st = ScanState::new(None);
        st.total_in_window = values.len() as u64;
        st.admitted = values.len() as u64;
        st.counts = provenance_counts(provenance);
        if select.include_stale || st.counts.stale == 0 {
            // Nothing is skipped: fold the whole value column branch-free.
            let (acc, max_ts_ns) = fold_columns(timestamps_ns, values);
            st.acc = acc;
            st.max_ts_all = max_ts_ns / 1_000_000;
            st.max_ts_included = st.max_ts_all;
        } else {
            // Stale rows are excluded: one predicated pass.
            let stale_wire = Provenance::Stale.wire();
            for i in 0..values.len() {
                let ts_ms = timestamps_ns[i] / 1_000_000;
                st.max_ts_all = st.max_ts_all.max(ts_ms);
                if provenance[i] != stale_wire {
                    st.acc.push(values[i]);
                    st.max_ts_included = st.max_ts_included.max(ts_ms);
                }
            }
        }
        return st.finalize(select);
    }
    let mut st = ScanState::new(select.bucket_ms);
    for i in 0..values.len() {
        let provenance = Provenance::from_wire(provenance[i])
            .expect("ColumnBatch holds only successfully decoded records");
        st.observe(select, join, timestamps_ns[i] / 1_000_000, values[i], provenance);
    }
    st.finalize(select)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_matches_naive_folds() {
        let values = [3.5, -1.0, 7.25, 0.0, 2.5];
        let mut acc = ScanAccumulator::new();
        for v in values {
            acc.push(v);
        }
        assert_eq!(acc.count, 5);
        assert_eq!(acc.value(Aggregate::Sum), values.iter().copied().sum::<f64>());
        assert_eq!(acc.value(Aggregate::Max), 7.25);
        assert_eq!(acc.value(Aggregate::Min), -1.0);
        assert_eq!(acc.value(Aggregate::Avg), values.iter().copied().sum::<f64>() / 5.0);
        assert_eq!(acc.value(Aggregate::Count), 5.0);
    }

    #[test]
    fn join_index_matches_within_tolerance() {
        let partner = || [250u64, 100, 900].into_iter().map(|ms| ms * 1_000_000);
        let idx = JoinIndex::new(partner(), 10);
        assert!(idx.matches(100));
        assert!(idx.matches(95));
        assert!(idx.matches(110));
        assert!(!idx.matches(111));
        assert!(!idx.matches(0));
        assert!(idx.matches(890) && idx.matches(910));
        let exact = JoinIndex::new(partner(), 0);
        assert!(exact.matches(250));
        assert!(!exact.matches(249) && !exact.matches(251));
        let empty = JoinIndex::new(std::iter::empty(), 1000);
        assert!(!empty.matches(100));
    }

    #[test]
    fn join_index_saturates_at_the_origin() {
        let idx = JoinIndex::new(std::iter::once(0), 5);
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
    }
}
