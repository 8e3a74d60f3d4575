//! Property-based equivalence for the lowered SIMD inference path
//! (`apollo_delphi::simd`).
//!
//! The f64 stack (`Delphi::predict_exact`) is the reference; the lowered
//! f32 stack is *tolerance-bounded* against that oracle under
//! [`apollo_delphi::simd::budget::STACK_F32`]. The properties pin the
//! contract the prediction pump relies on: lowered batch rows are
//! bit-identical to the single-row path regardless of batch placement
//! (batch sizes 0..=20 straddle the 8-lane boundary), and the scalar
//! tail length is exactly `B % LANES` until padding removes it.

use apollo_delphi::simd::{self, budget};
use apollo_delphi::stack::{Delphi, DelphiConfig, DelphiScratch};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::OnceLock;

/// One tiny stack per process, shared across proptest cases.
fn model() -> &'static Delphi {
    static MODEL: OnceLock<Delphi> = OnceLock::new();
    MODEL.get_or_init(|| {
        Delphi::train(DelphiConfig {
            feature_samples: 80,
            feature_epochs: 5,
            combiner_samples: 60,
            combiner_epochs: 5,
            ..DelphiConfig::default()
        })
    })
}

proptest! {
    /// The full lowered stack stays within its budget of the exact
    /// f64 stack on arbitrary normalized windows.
    #[test]
    fn lowered_stacks_track_exact_within_budget(window in vec(0.0f64..1.0, 5)) {
        let want = model().predict_exact(&window);
        let simd = model().predict(&window);
        prop_assert!(
            budget::STACK_F32.within(want, simd),
            "simd-f32: want {want}, got {simd}"
        );
    }

    /// Lowered batch rows are bit-identical to the single-row path —
    /// including non-lane-multiple batches — and the unpadded SIMD
    /// scalar tail is exactly `B % LANES`, vanishing once the batch is
    /// padded to the lane width.
    #[test]
    fn lowered_batches_match_singles_and_report_tails(
        windows in vec(vec(0.0f64..1.0, 5), 0usize..=20)
    ) {
        let b = windows.len();
        let model = model();
        let singles: Vec<f64> = windows.iter().map(|w| model.predict(w)).collect();

        let mut scratch = DelphiScratch::default();
        let mut out = Vec::new();
        scratch.begin_batch(b, 5);
        for (i, w) in windows.iter().enumerate() {
            scratch.set_row(i, w);
        }
        model.predict_batch_into(&mut scratch, &mut out);
        prop_assert_eq!(&out, &singles, "unpadded batch");
        prop_assert_eq!(scratch.tail_rows(), b % simd::LANES, "unpadded tail");

        // Pump-style padding: same first-B bits, no scalar tail.
        scratch.begin_batch(b.next_multiple_of(model.lane_width()), 5);
        for (i, w) in windows.iter().enumerate() {
            scratch.set_row(i, w);
        }
        scratch.pad_rows(b);
        model.predict_batch_into(&mut scratch, &mut out);
        prop_assert_eq!(&out[..b], &singles[..], "padded batch");
        prop_assert_eq!(scratch.tail_rows(), 0, "padded tail");
    }
}
