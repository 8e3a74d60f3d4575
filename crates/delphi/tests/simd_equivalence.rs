//! Property-based equivalence for the lowered SIMD / int8 inference
//! kernels (`apollo_delphi::simd`, `apollo_delphi::quant`).
//!
//! The f64 `tensor::Matrix` kernels are the bit-exact reference; the
//! lowered f32 kernels are *tolerance-bounded* against that oracle under
//! the per-kernel budgets in [`apollo_delphi::simd::budget`]. Shapes are
//! drawn to straddle the 8-lane boundary (dims 0..=17, reduction depth
//! up to 24) so full lanes, scalar tails, and empty operands are all
//! exercised. The stacked-model properties pin the contract the
//! prediction pump relies on: lowered batch rows are bit-identical to
//! the single-row path regardless of batch placement, and the scalar
//! tail length is exactly `B % LANES` until padding removes it.
//!
//! The vendored proptest shim has no `prop_flat_map`, so shape-dependent
//! operands are drawn as max-size pools and truncated to the drawn shape.

use apollo_delphi::nn::Activation;
use apollo_delphi::simd::{self, budget, Mat32};
use apollo_delphi::stack::{Delphi, DelphiConfig, DelphiScratch, InferencePrecision};
use apollo_delphi::tensor::Matrix;
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::OnceLock;

const ACTS: [Activation; 4] =
    [Activation::Linear, Activation::Relu, Activation::Sigmoid, Activation::Tanh];

/// First `rows*cols` values of a drawn pool as a matrix.
fn matrix(rows: usize, cols: usize, pool: &[f64]) -> Matrix {
    Matrix::from_vec(rows, cols, pool[..rows * cols].to_vec())
}

proptest! {
    /// `simd::matmul_bias_act` vs the f64 `act(x·w + bias)` oracle,
    /// element-wise under [`budget::DENSE`], all four activations.
    #[test]
    fn dense_tracks_f64_oracle(
        b in 0usize..=10,
        k in 0usize..=24,
        n in 0usize..=17,
        act_i in 0usize..4,
        xp in vec(-2.0f64..2.0, 10 * 24),
        wp in vec(-2.0f64..2.0, 24 * 17),
        bp in vec(-2.0f64..2.0, 17),
    ) {
        let act = ACTS[act_i];
        let (x, w, bias) = (matrix(b, k, &xp), matrix(k, n, &wp), matrix(1, n, &bp));
        let oracle = x.matmul(&w).add_row_broadcast(&bias).map(|v| act.apply(v));
        let (x32, w32) = (Mat32::from_matrix(&x), Mat32::from_matrix(&w));
        let b32: Vec<f32> = bias.data().iter().map(|&v| v as f32).collect();
        let mut out = Mat32::default();
        simd::matmul_bias_act(&x32, &w32, &b32, act, &mut out);
        prop_assert_eq!((out.rows(), out.cols()), (oracle.rows(), oracle.cols()));
        for r in 0..oracle.rows() {
            for c in 0..oracle.cols() {
                let (want, got) = (oracle.get(r, c), out.get(r, c) as f64);
                prop_assert!(
                    budget::DENSE.within(want, got),
                    "({r},{c}): want {want}, got {got}"
                );
            }
        }
    }

    /// `simd::matmul_at` (a stored transposed) vs the materialized f64
    /// transpose product, under [`budget::MATMUL_AT`].
    #[test]
    fn matmul_at_tracks_f64_oracle(
        m in 0usize..=17,
        k in 0usize..=24,
        n in 0usize..=17,
        ap in vec(-2.0f64..2.0, 24 * 17),
        bp in vec(-2.0f64..2.0, 24 * 17),
    ) {
        let (a, b) = (matrix(k, m, &ap), matrix(k, n, &bp));
        let oracle = a.transpose().matmul(&b);
        let (a32, b32) = (Mat32::from_matrix(&a), Mat32::from_matrix(&b));
        let mut out = Mat32::default();
        simd::matmul_at(&a32, &b32, &mut out);
        prop_assert_eq!((out.rows(), out.cols()), (oracle.rows(), oracle.cols()));
        for r in 0..oracle.rows() {
            for c in 0..oracle.cols() {
                let (want, got) = (oracle.get(r, c), out.get(r, c) as f64);
                prop_assert!(
                    budget::MATMUL_AT.within(want, got),
                    "({r},{c}): want {want}, got {got}"
                );
            }
        }
    }

    /// `simd::matmul_bt` (b stored transposed; lane-partial reordered
    /// reduction) vs the materialized f64 transpose product, under
    /// [`budget::MATMUL_BT`].
    #[test]
    fn matmul_bt_tracks_f64_oracle(
        m in 0usize..=10,
        k in 0usize..=24,
        n in 0usize..=10,
        ap in vec(-2.0f64..2.0, 10 * 24),
        bp in vec(-2.0f64..2.0, 10 * 24),
    ) {
        let (a, b) = (matrix(m, k, &ap), matrix(n, k, &bp));
        let oracle = a.matmul(&b.transpose());
        let (a32, b32) = (Mat32::from_matrix(&a), Mat32::from_matrix(&b));
        let mut out = Mat32::default();
        simd::matmul_bt(&a32, &b32, &mut out);
        prop_assert_eq!((out.rows(), out.cols()), (oracle.rows(), oracle.cols()));
        for r in 0..oracle.rows() {
            for c in 0..oracle.cols() {
                let (want, got) = (oracle.get(r, c), out.get(r, c) as f64);
                prop_assert!(
                    budget::MATMUL_BT.within(want, got),
                    "({r},{c}): want {want}, got {got}"
                );
            }
        }
    }

    /// `simd::dot` (8 lane partials + fixed tree + ascending tail) vs a
    /// naive ascending f64 sum.
    #[test]
    fn dot_tracks_f64_oracle(
        n in 0usize..=40,
        ap in vec(-2.0f32..2.0, 40),
        bp in vec(-2.0f32..2.0, 40),
    ) {
        let (a, b) = (&ap[..n], &bp[..n]);
        let oracle: f64 = a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum();
        let got = simd::dot(a, b) as f64;
        prop_assert!(budget::MATMUL_BT.within(oracle, got), "want {oracle}, got {got}");
    }

    /// `simd::conv1d` vs an inline f64 valid-convolution oracle, under
    /// [`budget::CONV`].
    #[test]
    fn conv1d_tracks_f64_oracle(
        channels in 1usize..=4,
        kernel in 1usize..=5,
        extra in 0usize..=20,
        xp in vec(-2.0f32..2.0, 25),
        wp in vec(-2.0f32..2.0, 4 * 5),
        bp in vec(-2.0f32..2.0, 4),
    ) {
        let x = &xp[..kernel + extra];
        let w = &wp[..channels * kernel];
        let bias = &bp[..channels];
        let t_len = x.len() + 1 - kernel;
        let mut out = Mat32::default();
        simd::conv1d(x, w, bias, channels, kernel, &mut out);
        prop_assert_eq!((out.rows(), out.cols()), (channels, t_len));
        for ch in 0..channels {
            for t in 0..t_len {
                let mut want = bias[ch] as f64;
                for k in 0..kernel {
                    want += w[ch * kernel + k] as f64 * x[t + k] as f64;
                }
                let got = out.get(ch, t) as f64;
                prop_assert!(
                    budget::CONV.within(want, got),
                    "channel {ch} t {t}: want {want}, got {got}"
                );
            }
        }
    }

    /// `simd::lstm_gates` vs an inline f64 oracle computing
    /// `z = b + x·wx + Σ_j h[j]·wh[j]` per gate column, under
    /// [`budget::LSTM`].
    #[test]
    fn lstm_gates_track_f64_oracle(
        hidden in 1usize..=12,
        x in -2.0f32..2.0,
        hp in vec(-1.0f32..1.0, 12),
        wxp in vec(-1.0f32..1.0, 48),
        whp in vec(-1.0f32..1.0, 12 * 48),
        bp in vec(-1.0f32..1.0, 48),
    ) {
        let g = 4 * hidden;
        let h = &hp[..hidden];
        let wx = &wxp[..g];
        let wh = &whp[..hidden * g];
        let b = &bp[..g];
        let mut z = vec![0.0f32; g];
        simd::lstm_gates(x, h, wx, wh, b, &mut z);
        for c in 0..g {
            let mut want = b[c] as f64 + x as f64 * wx[c] as f64;
            for (j, &hj) in h.iter().enumerate() {
                want += hj as f64 * wh[j * g + c] as f64;
            }
            let got = z[c] as f64;
            prop_assert!(budget::LSTM.within(want, got), "gate {c}: want {want}, got {got}");
        }
    }
}

/// One tiny stack per process, shared across proptest cases; lowered
/// variants are clones with their tables built once. The oracle asks for
/// `Exact` by name: training returns the lowered serving path, and an
/// oracle left on it would compare f32 with f32.
fn exact() -> &'static Delphi {
    static MODEL: OnceLock<Delphi> = OnceLock::new();
    MODEL.get_or_init(|| {
        Delphi::train(DelphiConfig {
            feature_samples: 80,
            feature_epochs: 5,
            combiner_samples: 60,
            combiner_epochs: 5,
            ..DelphiConfig::default()
        })
        .with_precision(InferencePrecision::Exact)
    })
}

fn lowered(precision: InferencePrecision) -> &'static Delphi {
    static SIMD: OnceLock<Delphi> = OnceLock::new();
    static INT8: OnceLock<Delphi> = OnceLock::new();
    let cell = match precision {
        InferencePrecision::SimdF32 => &SIMD,
        InferencePrecision::Int8 => &INT8,
        InferencePrecision::Exact => unreachable!("exact is not a lowered path"),
    };
    cell.get_or_init(|| exact().clone().with_precision(precision))
}

proptest! {
    /// The full lowered stacks stay within their budgets of the exact
    /// f64 stack on arbitrary normalized windows.
    #[test]
    fn lowered_stacks_track_exact_within_budget(window in vec(0.0f64..1.0, 5)) {
        let want = exact().predict(&window);
        let simd = lowered(InferencePrecision::SimdF32).predict(&window);
        prop_assert!(
            budget::STACK_F32.within(want, simd),
            "simd-f32: want {want}, got {simd}"
        );
        let int8 = lowered(InferencePrecision::Int8).predict(&window);
        prop_assert!(
            budget::STACK_INT8.within(want, int8),
            "int8: want {want}, got {int8}"
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
        for precision in [InferencePrecision::SimdF32, InferencePrecision::Int8] {
            let model = lowered(precision);
            let singles: Vec<f64> = windows.iter().map(|w| model.predict(w)).collect();

            let mut scratch = DelphiScratch::default();
            let mut out = Vec::new();
            scratch.begin_batch(b, 5);
            for (i, w) in windows.iter().enumerate() {
                scratch.set_row(i, w);
            }
            model.predict_batch_into(&mut scratch, &mut out);
            prop_assert_eq!(&out, &singles, "{} unpadded batch", precision.name());
            let expect_tail = match precision {
                InferencePrecision::SimdF32 if b > 0 => b % simd::LANES,
                _ => 0,
            };
            prop_assert_eq!(scratch.tail_rows(), expect_tail, "{} tail", precision.name());

            // Pump-style padding: same first-B bits, no scalar tail.
            scratch.begin_batch(b.next_multiple_of(model.lane_width()), 5);
            for (i, w) in windows.iter().enumerate() {
                scratch.set_row(i, w);
            }
            scratch.pad_rows(b);
            model.predict_batch_into(&mut scratch, &mut out);
            prop_assert_eq!(&out[..b], &singles[..], "{} padded batch", precision.name());
            prop_assert_eq!(scratch.tail_rows(), 0, "{} padded tail", precision.name());
        }
    }
}
