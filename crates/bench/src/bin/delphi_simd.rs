//! Lowered Delphi inference — exact f64 vs SIMD f32.
//!
//! Two [`InferencePrecision`] paths through the same trained stack:
//!
//! * **exact** — the PR-5 fused f64 kernels (`delphi_inference`'s
//!   "fused"/"batched" baseline), bit-exact by construction.
//! * **simd** — the lowered f32 path: one fused `stack_forward` sweep
//!   with 8-wide lanes running across batch rows, runtime-dispatched to
//!   AVX2 where the host supports it.
//!
//! Batched rows are staged pump-style: padded up to the model's lane
//! width so nothing falls onto the scalar tail (`tail_rows` is also
//! demonstrated un-padded). The report records predictions/sec and
//! allocations per call for both paths and the SIMD speedups over the
//! exact baseline — the run itself gates the ≥2× SIMD speedups.
//!
//! Run: `cargo run --release -p apollo-bench --bin delphi_simd`

use apollo_alloc_count::allocs;
use apollo_bench::report::{Report, Series};
use apollo_delphi::simd::{active_tier, LANES};
use apollo_delphi::stack::{Delphi, DelphiConfig, DelphiScratch, InferencePrecision};
use std::hint::black_box;
use std::time::Instant;

const ITERS: u32 = 2_000;
const BATCHES: &[usize] = &[1, 16, 64];

/// Run `f` `ITERS` times; returns (predictions/sec, allocations/call).
fn measure(batch: usize, mut f: impl FnMut() -> f64) -> (f64, f64) {
    f(); // warm-up sizes every scratch buffer
    let allocs_before = allocs();
    let t = Instant::now();
    let mut acc = 0.0;
    for _ in 0..ITERS {
        acc += f();
    }
    let secs = t.elapsed().as_secs_f64();
    black_box(acc);
    let allocs = allocs() - allocs_before;
    ((batch as f64) * f64::from(ITERS) / secs, allocs as f64 / f64::from(ITERS))
}

/// (fused preds/sec, fused allocs, batched preds/sec, batched allocs)
/// for one precision path. Batches are staged pump-style: padded to the
/// model's lane width, padded outputs discarded.
fn run_path(model: &Delphi, windows: &[Vec<f64>], w: usize) -> (f64, f64, f64, f64) {
    let batch = windows.len();
    let mut scratch = DelphiScratch::default();
    let (fused_ps, fused_allocs) = measure(batch, || {
        windows.iter().map(|win| model.predict_into(black_box(win), &mut scratch)).sum()
    });

    let lane = model.lane_width();
    let mut bscratch = DelphiScratch::default();
    let mut out = Vec::new();
    let (batched_ps, batched_allocs) = measure(batch, || {
        bscratch.begin_batch(batch.next_multiple_of(lane), w);
        for (i, win) in windows.iter().enumerate() {
            bscratch.set_row(i, black_box(win));
        }
        bscratch.pad_rows(batch);
        model.predict_batch_into(&mut bscratch, &mut out);
        assert_eq!(bscratch.tail_rows(), 0, "padded batch fell off the vector path");
        out[..batch].iter().sum()
    });
    (fused_ps, fused_allocs, batched_ps, batched_allocs)
}

fn main() {
    println!("Training Delphi…");
    // Training returns the serving path (SIMD f32); the f64 baseline is
    // asked for by name.
    let simd = Delphi::train(DelphiConfig {
        feature_samples: 300,
        feature_epochs: 50,
        combiner_samples: 150,
        combiner_epochs: 10,
        ..DelphiConfig::default()
    });
    assert_eq!(simd.precision(), InferencePrecision::SimdF32);
    let exact = simd.clone().with_precision(InferencePrecision::Exact);
    let w = exact.window();

    let mut report = Report::new(
        "delphi_simd",
        "Delphi lowered inference: exact f64 vs SIMD f32, runtime-dispatched",
    );
    report.note("dispatch_tier", active_tier().name());
    report.note("simd_lanes", LANES as f64);

    let mut series: Vec<Series> = ["fused_exact", "fused_simd", "batched_exact", "batched_simd"]
        .iter()
        .map(|n| Series::new(*n))
        .collect();
    let mut simd_fused_speedup_b1 = 0.0;
    let mut simd_fused_speedup_b16 = 0.0;
    let mut simd_batched_speedup_b16 = 0.0;

    for &batch in BATCHES {
        let windows: Vec<Vec<f64>> = (0..batch)
            .map(|i| (0..w).map(|j| 0.05 + 0.9 * ((i * w + j) % 17) as f64 / 17.0).collect())
            .collect();

        let paths = [&exact, &simd].map(|m| run_path(m, &windows, w));
        for (p, &(fused_ps, _, batched_ps, _)) in paths.iter().enumerate() {
            series[p].push(batch as f64, fused_ps);
            series[p + 2].push(batch as f64, batched_ps);
        }
        let [(ef, _, eb, _), (sf, _, sb, _)] = paths;
        println!(
            "B={batch:>3}: fused exact {ef:>12.0}/s  simd {sf:>12.0}/s   \
             batched exact {eb:>12.0}/s  simd {sb:>12.0}/s"
        );
        if batch == 1 {
            simd_fused_speedup_b1 = sf / ef;
        }
        if batch == 16 {
            simd_fused_speedup_b16 = sf / ef;
            simd_batched_speedup_b16 = sb / eb;
            for (name, &(_, fa, _, ba)) in ["exact", "simd"].iter().zip(paths.iter()) {
                report.note(format!("allocs_per_iter_fused_{name}_b16"), fa);
                report.note(format!("allocs_per_iter_batched_{name}_b16"), ba);
            }
        }
    }
    report.note("simd_fused_speedup_b1", simd_fused_speedup_b1);
    report.note("simd_fused_speedup_b16", simd_fused_speedup_b16);
    report.note("simd_batched_speedup_b16", simd_batched_speedup_b16);

    // Scalar-tail demonstration: a 13-row batch staged without padding
    // runs 13 % LANES = 5 rows on the scalar tail; padded it runs none.
    let windows: Vec<Vec<f64>> = (0..13)
        .map(|i| (0..w).map(|j| 0.05 + 0.9 * ((i * w + j) % 17) as f64 / 17.0).collect())
        .collect();
    let mut scratch = DelphiScratch::default();
    let mut out = Vec::new();
    scratch.begin_batch(13, w);
    for (i, win) in windows.iter().enumerate() {
        scratch.set_row(i, win);
    }
    simd.predict_batch_into(&mut scratch, &mut out);
    report.note("tail_rows_unpadded_b13", scratch.tail_rows() as f64);
    scratch.begin_batch(13usize.next_multiple_of(LANES), w);
    for (i, win) in windows.iter().enumerate() {
        scratch.set_row(i, win);
    }
    scratch.pad_rows(13);
    simd.predict_batch_into(&mut scratch, &mut out);
    report.note("tail_rows_padded_b13", scratch.tail_rows() as f64);

    for s in series {
        report.add_series(s);
    }
    report.finish("batch_size", "predictions/sec");

    // The run is the gate: lowering must pay for itself.
    assert!(
        simd_fused_speedup_b1 >= 2.0,
        "simd fused B=1 speedup {simd_fused_speedup_b1:.2}x below the 2x bar"
    );
    assert!(
        simd_batched_speedup_b16 >= 2.0,
        "simd batched B=16 speedup {simd_batched_speedup_b16:.2}x below the 2x bar"
    );
    println!(
        "\nsimd fused B=1 {simd_fused_speedup_b1:.2}x, batched B=16 {simd_batched_speedup_b16:.2}x"
    );
}
