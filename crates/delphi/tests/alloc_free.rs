//! Proof of the zero-allocation inference claim, counted by the
//! workspace's counting allocator (`apollo-alloc-count`): the
//! steady-state prediction paths (`Delphi::predict_into`,
//! `Delphi::predict_batch_into` after one warm-up call at each batch
//! size) must perform **exactly zero** heap allocations per call.
//!
//! This file deliberately holds a single `#[test]`: the count is
//! process-wide, so a second concurrently-running test would pollute it.

use apollo_alloc_count::allocs_during;
use apollo_delphi::stack::{Delphi, DelphiConfig, DelphiScratch};

#[test]
fn steady_state_prediction_allocates_nothing() {
    let model = Delphi::train(DelphiConfig {
        feature_samples: 80,
        feature_epochs: 5,
        combiner_samples: 60,
        combiner_epochs: 5,
        ..DelphiConfig::default()
    });
    let w = model.window();
    let window: Vec<f64> = (0..w).map(|i| 0.1 + 0.08 * i as f64).collect();

    // --- Single-row path -------------------------------------------------
    let mut scratch = DelphiScratch::default();
    // Warm up: the first call sizes every scratch buffer.
    let expected = model.predict_into(&window, &mut scratch);
    let n = allocs_during(|| {
        for _ in 0..100 {
            let p = model.predict_into(&window, &mut scratch);
            assert_eq!(p, expected);
        }
    });
    assert_eq!(n, 0, "predict_into allocated {n} times over 100 steady-state calls");

    // --- Batched path ----------------------------------------------------
    // Pump-style padded batch: capacity and staged rows rounded up to
    // the lane width, padding rows zeroed, outputs past the staged
    // prefix discarded.
    let batch = 13usize;
    let padded = batch.next_multiple_of(model.lane_width());
    let mut out = Vec::new();
    let stage = |scratch: &mut DelphiScratch| {
        scratch.begin_batch(padded, w);
        for i in 0..batch {
            scratch.set_row(i, &window);
        }
        scratch.pad_rows(batch);
    };
    stage(&mut scratch);
    model.predict_batch_into(&mut scratch, &mut out); // warm-up at this size
    let n = allocs_during(|| {
        for _ in 0..100 {
            stage(&mut scratch);
            model.predict_batch_into(&mut scratch, &mut out);
            assert_eq!(out[0], expected);
            assert_eq!(scratch.tail_rows(), 0, "padded batch fell off the vector path");
        }
    });
    assert_eq!(n, 0, "padded predict_batch_into allocated {n} times over 100 steady-state calls");

    // Shrinking the staged batch (the pump's due-subset path) must also
    // stay allocation-free: capacity is retained, rows are a prefix.
    let n = allocs_during(|| {
        for staged in (1..=padded).rev() {
            scratch.begin_batch(staged, w);
            for i in 0..staged {
                scratch.set_row(i, &window);
            }
            model.predict_batch_into(&mut scratch, &mut out);
            assert_eq!(out.len(), staged);
        }
    });
    assert_eq!(n, 0, "shrinking batches allocated {n} times");
}
