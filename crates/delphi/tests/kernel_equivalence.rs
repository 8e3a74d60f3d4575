//! Fused-kernel equivalence suite: every fused kernel in
//! `apollo_delphi::tensor` must be **bit-identical** (`assert_eq!` on
//! `f64`, not approximate) to the naive composition it replaces, across
//! seeded random shapes including `1×1`, non-square, and empty operands.
//! The fused kernels reproduce the naive path's ascending-`k`
//! accumulation order and its exact-zero skip, so equality is exact —
//! any reordering of the reduction shows up here as a hard failure.

use apollo_delphi::nn::Activation;
use apollo_delphi::simd::budget;
use apollo_delphi::stack::{Delphi, DelphiConfig};
use apollo_delphi::tensor::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Random matrix with ~20% exact zeros so the fused kernels' zero-skip
/// branch is exercised against the naive path's identical skip.
fn rand_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.random_range(0.0..1.0) < 0.2 {
            0.0
        } else {
            rng.random_range(-2.0..2.0)
        }
    })
}

/// Shape triples `(m, k, n)` covering square, tall, wide, vector-like,
/// 1×1, and empty (zero-row) products.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (1, 5, 1),
    (5, 1, 5),
    (4, 4, 4),
    (3, 7, 2),
    (8, 3, 9),
    (16, 5, 1),
    (0, 4, 3),
    (2, 6, 0),
];

#[test]
fn matmul_bias_act_matches_naive_composition() {
    let mut rng = StdRng::seed_from_u64(0xFACADE);
    for &(m, k, n) in SHAPES {
        for act in [Activation::Linear, Activation::Relu, Activation::Sigmoid, Activation::Tanh] {
            let a = rand_matrix(m, k, &mut rng);
            let b = rand_matrix(k, n, &mut rng);
            let bias = rand_matrix(1, n, &mut rng);
            let naive = a.matmul(&b).add_row_broadcast(&bias).map(|v| act.apply(v));
            let fused = a.matmul_bias_act(&b, &bias, |v| act.apply(v));
            assert_eq!(naive, fused, "shape ({m},{k},{n}) act {act:?}");
        }
    }
}

#[test]
fn matmul_at_matches_materialized_transpose() {
    let mut rng = StdRng::seed_from_u64(0xA7);
    for &(m, k, n) in SHAPES {
        // `a` is stored transposed: `k×m`, so `aᵀ·b` is `m×n`.
        let a = rand_matrix(k, m, &mut rng);
        let b = rand_matrix(k, n, &mut rng);
        assert_eq!(a.transpose().matmul(&b), a.matmul_at(&b), "shape ({m},{k},{n})");
    }
}

#[test]
fn matmul_bt_matches_materialized_transpose() {
    let mut rng = StdRng::seed_from_u64(0xB7);
    for &(m, k, n) in SHAPES {
        let a = rand_matrix(m, k, &mut rng);
        // `b` is stored transposed: `n×k`, so `a·bᵀ` is `m×n`.
        let b = rand_matrix(n, k, &mut rng);
        assert_eq!(a.matmul(&b.transpose()), a.matmul_bt(&b), "shape ({m},{k},{n})");
    }
}

/// The `_into` variants must produce the same bits when writing into a
/// dirty, wrongly-sized buffer left over from a previous larger call —
/// the scratch-arena reuse pattern the inference path depends on.
#[test]
fn into_variants_overwrite_dirty_buffers_correctly() {
    let mut rng = StdRng::seed_from_u64(0xD1127);
    let mut out = rand_matrix(13, 11, &mut rng); // deliberately stale
    for &(m, k, n) in SHAPES {
        let a = rand_matrix(m, k, &mut rng);
        let b = rand_matrix(k, n, &mut rng);
        let bias = rand_matrix(1, n, &mut rng);

        a.matmul_into(&b, &mut out);
        assert_eq!(a.matmul(&b), out, "matmul_into ({m},{k},{n})");

        a.matmul_bias_act_into(&b, &bias, |v| Activation::Relu.apply(v), &mut out);
        assert_eq!(
            a.matmul_bias_act(&b, &bias, |v| Activation::Relu.apply(v)),
            out,
            "matmul_bias_act_into ({m},{k},{n})"
        );

        let at = rand_matrix(k, m, &mut rng);
        at.matmul_at_into(&b, &mut out);
        assert_eq!(at.matmul_at(&b), out, "matmul_at_into ({m},{k},{n})");

        let bt = rand_matrix(n, k, &mut rng);
        a.matmul_bt_into(&bt, &mut out);
        assert_eq!(a.matmul_bt(&bt), out, "matmul_bt_into ({m},{k},{n})");
    }
}

fn tiny_delphi() -> Delphi {
    Delphi::train(DelphiConfig {
        feature_samples: 80,
        feature_epochs: 5,
        combiner_samples: 60,
        combiner_epochs: 5,
        ..DelphiConfig::default()
    })
}

/// Batched prediction is row-for-row bit-identical to the single-window
/// call: packing B windows into one kernel call changes the cost of the
/// forward sweep, never its value — and every row stays within the
/// lowered kernel's budget of the f64 reference.
#[test]
fn predict_batch_matches_single_row_predictions() {
    let d = tiny_delphi();
    let w = d.window();
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    for batch in [0usize, 1, 2, 7, 33] {
        let windows: Vec<Vec<f64>> =
            (0..batch).map(|_| (0..w).map(|_| rng.random_range(0.0..1.0)).collect()).collect();
        let batched = d.predict_batch(&windows);
        let singles: Vec<f64> = windows.iter().map(|win| d.predict(win)).collect();
        assert_eq!(batched, singles, "batch size {batch}");
        for (win, &got) in windows.iter().zip(&batched) {
            let want = d.predict_exact(win);
            assert!(budget::STACK_F32.within(want, got), "exact {want} vs lowered {got}");
        }
    }
}
