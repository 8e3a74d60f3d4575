//! Criterion counterpart of the `delphi_simd` report: the exact f64
//! fused path vs the lowered SIMD f32 path, fused (per-row)
//! and batched pump-style (padded to the lane width), at the batch
//! sizes a prediction-pump tick actually sees.

use apollo_delphi::stack::{Delphi, DelphiConfig, DelphiScratch, InferencePrecision};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn trained() -> Delphi {
    Delphi::train(DelphiConfig {
        feature_samples: 300,
        feature_epochs: 50,
        combiner_samples: 150,
        combiner_epochs: 10,
        ..DelphiConfig::default()
    })
}

fn windows(n: usize, w: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| (0..w).map(|j| 0.05 + 0.9 * ((i * w + j) % 17) as f64 / 17.0).collect())
        .collect()
}

fn bench_lowered(c: &mut Criterion) {
    let simd = trained(); // training returns the SIMD f32 serving path
    let w = simd.window();
    let paths = [("exact", simd.clone().with_precision(InferencePrecision::Exact)), ("simd", simd)];
    let mut group = c.benchmark_group("delphi_simd");
    for batch in [1usize, 16, 64] {
        let wins = windows(batch, w);
        group.throughput(Throughput::Elements(batch as u64));
        for (name, model) in &paths {
            group.bench_with_input(
                BenchmarkId::new(format!("fused_{name}"), batch),
                &wins,
                |b, wins| {
                    let mut scratch = DelphiScratch::default();
                    b.iter(|| {
                        let mut acc = 0.0;
                        for win in wins {
                            acc += model.predict_into(black_box(win), &mut scratch);
                        }
                        acc
                    });
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("batched_{name}"), batch),
                &wins,
                |b, wins| {
                    let lane = model.lane_width();
                    let mut scratch = DelphiScratch::default();
                    let mut out = Vec::new();
                    b.iter(|| {
                        scratch.begin_batch(wins.len().next_multiple_of(lane), w);
                        for (i, win) in wins.iter().enumerate() {
                            scratch.set_row(i, black_box(win));
                        }
                        scratch.pad_rows(wins.len());
                        model.predict_batch_into(&mut scratch, &mut out);
                        out[..wins.len()].iter().sum::<f64>()
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_lowered);
criterion_main!(benches);
