//! Satellite coverage: the clock-regression clamp in `Stream::append`
//! interacting with *active fault windows*.
//!
//! The chaos compiler (apollo-cluster, which this crate cannot depend on)
//! emits clock-skew perturbations as `(start_ms, end_ms, regression_ms)`
//! windows; inside a window the producer's wall clock reads `regression_ms`
//! in the past. These tests drive a bounded, archiving stream through such
//! schedules and assert the clamp's contract:
//!
//! * assigned IDs stay strictly monotone no matter how far the clock
//!   regresses, so eviction order — and therefore the archive's
//!   ordered-append invariant — never corrupts;
//! * `clock_regressions` counts exactly the appends whose skewed
//!   timestamp was not ahead of the stream head;
//! * the full window+archive stitch loses nothing and stays ID-sorted
//!   across skew/eviction interleavings, including under a concurrent
//!   scanner.

use apollo_streams::id::StreamId;
use apollo_streams::stream::{Stream, StreamConfig};
use apollo_streams::Record;
use bytes::Bytes;
use std::sync::Arc;

/// The record a producer samples at `true_ms`: its value is the tick, so
/// a read can tell the ticks apart after the clamp moved their IDs.
fn tick(true_ms: u64) -> Bytes {
    Record::measured(true_ms * 1_000_000, true_ms as f64).encode()
}

/// A skew fault window: between `start_ms..end_ms` (ticks, inclusive of
/// start, exclusive of end) the producer clock reads `regression_ms` in
/// the past. Mirrors the shape `PerturbationKind::ClockSkew` compiles to.
#[derive(Clone, Copy)]
struct SkewWindow {
    start_ms: u64,
    end_ms: u64,
    regression_ms: u64,
}

impl SkewWindow {
    fn observed_clock(&self, true_ms: u64) -> Option<u64> {
        (self.start_ms <= true_ms && true_ms < self.end_ms)
            .then(|| true_ms.saturating_sub(self.regression_ms))
    }
}

/// The clock a producer observes at `true_ms` under `windows` (first
/// matching window wins, like the compiler's earlier-window-wins rule).
fn skewed_clock(windows: &[SkewWindow], true_ms: u64) -> u64 {
    windows.iter().find_map(|w| w.observed_clock(true_ms)).unwrap_or(true_ms)
}

#[test]
fn clamp_keeps_ids_monotone_through_skew_windows() {
    let stream = Stream::new("skew", StreamConfig::bounded(8));
    let windows = [
        SkewWindow { start_ms: 1_020, end_ms: 1_040, regression_ms: 500 },
        SkewWindow { start_ms: 1_060, end_ms: 1_070, regression_ms: 10_000 },
    ];

    let mut expected_regressions = 0u64;
    let mut last = None::<StreamId>;
    for true_ms in 1_000..1_100 {
        let observed = skewed_clock(&windows, true_ms);
        // Strictly behind the head counts as a regression; landing on the
        // head's millisecond is an ordinary seq bump.
        if last.is_some_and(|l| observed < l.ms) {
            expected_regressions += 1;
        }
        let id = stream.append(observed, tick(true_ms));
        assert!(last.is_none_or(|l| id > l), "id must advance: {id} after {last:?}");
        // The clamp never *loses* time: the assigned ms is the max of the
        // observed clock and the stream head.
        assert!(id.ms >= observed, "assigned {id} behind observed clock {observed}");
        last = Some(id);
    }

    assert_eq!(stream.clock_regressions(), expected_regressions);
    assert!(expected_regressions > 0, "schedule must actually exercise the clamp");
    assert_eq!(stream.total_len(), 100, "no append may be dropped by the clamp");
}

#[test]
fn full_stitch_is_lossless_across_skew_and_eviction() {
    let stream = Stream::new("skew-stitch", StreamConfig::bounded(6));
    let windows = [
        SkewWindow { start_ms: 3_008, end_ms: 3_016, regression_ms: 3 },
        SkewWindow { start_ms: 3_030, end_ms: 3_050, regression_ms: 40 },
        SkewWindow { start_ms: 3_055, end_ms: 3_058, regression_ms: u64::MAX },
    ];

    let total = 70u64;
    for true_ms in 3_000..3_000 + total {
        stream.append(skewed_clock(&windows, true_ms), tick(true_ms));
    }

    let all = stream.range(StreamId::MIN, StreamId::MAX);
    assert_eq!(all.len() as u64, total, "stitch lost or duplicated entries");
    assert_eq!(all.len(), stream.total_len());
    assert!(all.windows(2).all(|w| w[0].id < w[1].id), "stitch out of ID order");
    // Payload check: every appended tick is present exactly once, in
    // append order — the clamp reorders nothing.
    for (i, entry) in all.iter().enumerate() {
        assert_eq!(entry.payload, tick(3_000 + i as u64), "append order broken at {i}");
    }

    // scan_batch over the full range agrees with range(), and its snapshot
    // is the stream's: the skewed run evicted, yet retains its first row.
    let scan = stream.scan_batch(StreamId::MIN, StreamId::MAX);
    assert_eq!(scan.entries.len(), all.len());
    assert_eq!(scan.last_id, stream.last_id());
    let meta = stream.scan_meta();
    assert_eq!((meta.first_id, meta.last_id), (Some(all[0].id), scan.last_id));
}

#[test]
fn time_range_reads_find_clamped_entries_at_or_after_their_slot() {
    let stream = Stream::new("skew-by-time", StreamConfig::bounded(64));
    // Healthy appends at 4_000..4_010, then a skew window pinning the
    // clock back to ~3_980 for ten ticks, then healthy again.
    let windows = [SkewWindow { start_ms: 4_010, end_ms: 4_020, regression_ms: 30 }];
    for true_ms in 4_000..4_030 {
        stream.append(skewed_clock(&windows, true_ms), tick(true_ms));
    }

    // Clamped entries were assigned ms >= the pre-skew head (4_009), so a
    // time scan from the head onward sees *all* subsequent appends — the
    // skewed ones did not vanish into the past.
    let from_head = stream.range_by_time(4_009, u64::MAX);
    assert_eq!(from_head.len() as u64, 21, "head-onward scan must include clamped appends");
    // And nothing was filed before the first append's slot.
    assert_eq!(stream.range_by_time(0, 3_999).len(), 0);
    assert_eq!(stream.clock_regressions(), 10);
}

#[test]
fn concurrent_scans_stay_consistent_under_skewed_eviction() {
    let stream = Arc::new(Stream::new("skew-race", StreamConfig::bounded(8)));
    let windows = [
        SkewWindow { start_ms: 5_100, end_ms: 5_400, regression_ms: 250 },
        SkewWindow { start_ms: 5_600, end_ms: 5_800, regression_ms: u64::MAX },
    ];
    let total = 1_000u64;

    let writer = {
        let stream = Arc::clone(&stream);
        std::thread::spawn(move || {
            for true_ms in 5_000..5_000 + total {
                stream.append(skewed_clock(&windows, true_ms), tick(true_ms));
            }
        })
    };
    let scanner = {
        let stream = Arc::clone(&stream);
        std::thread::spawn(move || {
            let mut max_seen = 0usize;
            while stream.total_len() < total as usize {
                let batch = stream.scan_batch(StreamId::MIN, StreamId::MAX);
                assert!(
                    batch.entries.windows(2).all(|w| w[0].id < w[1].id),
                    "concurrent scan observed out-of-order ids"
                );
                // A snapshot can only grow between scans.
                assert!(batch.entries.len() >= max_seen, "scan shrank mid-run");
                max_seen = batch.entries.len();
            }
        })
    };
    writer.join().unwrap();
    scanner.join().unwrap();

    let all = stream.range(StreamId::MIN, StreamId::MAX);
    assert_eq!(all.len() as u64, total);
    assert!(all.windows(2).all(|w| w[0].id < w[1].id));
    // Window 1 regresses until the skewed clock catches the pre-window
    // head (249 strictly-behind ticks; the tick that lands *on* the head
    // is a seq bump, not a regression); window 2 regresses for all 200.
    assert_eq!(stream.clock_regressions(), 249 + 200);
    assert!(stream.archive().is_some_and(|ring| ring.live_len() > 0), "the run evicted");
}
