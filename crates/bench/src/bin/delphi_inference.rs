//! Delphi inference kernels — naive vs fused vs batched.
//!
//! Three ways to predict the next value for `B` vertices from the same
//! trained stack:
//!
//! * **naive** — `B` calls to [`Delphi::predict`]: every call allocates
//!   fresh matrices for each feature model and the combiner.
//! * **fused** — `B` calls to [`Delphi::predict_into`]: the fused
//!   matmul+bias+activation kernels write into one reusable
//!   [`DelphiScratch`]; steady-state calls never touch the allocator.
//! * **batched** — one [`Delphi::predict_batch_into`] over a `B×window`
//!   matrix: the whole pump tick is a single kernel sweep.
//!
//! The report records predictions/sec per batch size plus the measured
//! heap allocations per prediction (counted by `apollo-alloc-count`) — `allocs_per_prediction_fused` must be exactly zero, and
//! CI requires `fused_speedup_b16 >= 2`.
//!
//! Run: `cargo run --release -p apollo-bench --bin delphi_inference`

use apollo_alloc_count::allocs;
use apollo_bench::report::{Report, Series};
use apollo_delphi::stack::{Delphi, DelphiConfig, DelphiScratch, InferencePrecision};
use std::hint::black_box;
use std::time::Instant;

const ITERS: u32 = 2_000;
const BATCHES: &[usize] = &[1, 4, 16, 64];

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

fn main() {
    println!("Training Delphi…");
    let delphi = Delphi::train(DelphiConfig {
        feature_samples: 300,
        feature_epochs: 50,
        combiner_samples: 150,
        combiner_epochs: 10,
        ..DelphiConfig::default()
    })
    // This report compares the three f64 kernels; the lowered serving
    // path is `delphi_simd`'s subject.
    .with_precision(InferencePrecision::Exact);
    let w = delphi.window();

    let mut report = Report::new(
        "delphi_inference",
        "Delphi inference: naive vs fused (allocation-free) vs batched kernels",
    );
    let mut naive = Series::new("naive");
    let mut fused = Series::new("fused");
    let mut batched = Series::new("batched");
    let mut fused_speedup_b16 = 0.0;
    let mut batched_speedup_b16 = 0.0;

    for &batch in BATCHES {
        let windows: Vec<Vec<f64>> = (0..batch)
            .map(|i| (0..w).map(|j| 0.05 + 0.9 * ((i * w + j) % 17) as f64 / 17.0).collect())
            .collect();

        let (naive_ps, naive_allocs) =
            measure(batch, || windows.iter().map(|win| delphi.predict(black_box(win))).sum());

        let mut scratch = DelphiScratch::default();
        let (fused_ps, fused_allocs) = measure(batch, || {
            windows.iter().map(|win| delphi.predict_into(black_box(win), &mut scratch)).sum()
        });

        let mut bscratch = DelphiScratch::default();
        let mut out = Vec::new();
        let (batched_ps, batched_allocs) = measure(batch, || {
            bscratch.begin_batch(windows.len(), w);
            for (i, win) in windows.iter().enumerate() {
                bscratch.set_row(i, black_box(win));
            }
            delphi.predict_batch_into(&mut bscratch, &mut out);
            out.iter().sum()
        });

        println!(
            "B={batch:>3}: naive {naive_ps:>12.0}/s ({:.1} allocs/iter)  \
             fused {fused_ps:>12.0}/s ({fused_allocs} allocs/iter)  \
             batched {batched_ps:>12.0}/s ({batched_allocs} allocs/iter)",
            naive_allocs
        );
        naive.push(batch as f64, naive_ps);
        fused.push(batch as f64, fused_ps);
        batched.push(batch as f64, batched_ps);
        if batch == 16 {
            fused_speedup_b16 = fused_ps / naive_ps;
            batched_speedup_b16 = batched_ps / naive_ps;
            report.note("allocs_per_iter_naive_b16", naive_allocs);
            report.note("allocs_per_iter_fused_b16", fused_allocs);
            report.note("allocs_per_iter_batched_b16", batched_allocs);
        }
    }

    report.note("fused_speedup_b16", fused_speedup_b16);
    report.note("batched_speedup_b16", batched_speedup_b16);
    report.add_series(naive);
    report.add_series(fused);
    report.add_series(batched);
    report.finish("batch_size", "predictions/sec");
}
