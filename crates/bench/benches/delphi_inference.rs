//! Criterion counterpart of the `delphi_inference` report: naive
//! allocating inference vs the fused allocation-free kernels vs the
//! batched multi-vertex sweep, at the batch sizes a prediction-pump tick
//! actually sees.

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
    // The three f64 kernels are this bench's subject.
    .with_precision(InferencePrecision::Exact)
}

fn windows(n: usize, w: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| (0..w).map(|j| 0.05 + 0.9 * ((i * w + j) % 17) as f64 / 17.0).collect())
        .collect()
}

fn bench_inference(c: &mut Criterion) {
    let delphi = trained();
    let w = delphi.window();
    let mut group = c.benchmark_group("delphi_inference");
    for batch in [1usize, 4, 16, 64] {
        let wins = windows(batch, w);
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_with_input(BenchmarkId::new("naive", batch), &wins, |b, wins| {
            b.iter(|| {
                let mut acc = 0.0;
                for win in wins {
                    acc += delphi.predict(black_box(win));
                }
                acc
            });
        });
        group.bench_with_input(BenchmarkId::new("fused", batch), &wins, |b, wins| {
            let mut scratch = DelphiScratch::default();
            b.iter(|| {
                let mut acc = 0.0;
                for win in wins {
                    acc += delphi.predict_into(black_box(win), &mut scratch);
                }
                acc
            });
        });
        group.bench_with_input(BenchmarkId::new("batched", batch), &wins, |b, wins| {
            let mut scratch = DelphiScratch::default();
            let mut out = Vec::new();
            b.iter(|| {
                scratch.begin_batch(wins.len(), w);
                for (i, win) in wins.iter().enumerate() {
                    scratch.set_row(i, black_box(win));
                }
                delphi.predict_batch_into(&mut scratch, &mut out);
                out.iter().sum::<f64>()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
