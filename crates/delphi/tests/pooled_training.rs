//! Determinism of pooled training across worker counts: the Delphi stack
//! trained with 1, 2, or 8 pool workers — or with no pool at all — must
//! produce **bit-identical** models. Per-shard gradients are pure
//! functions of the epoch-start snapshot and the reduction runs on the
//! caller thread in a fixed ascending order, so thread count can change
//! only wall-clock time, never a single bit of the result.

use apollo_delphi::stack::{Delphi, DelphiConfig};
use apollo_runtime::pool::WorkerPool;

fn config() -> DelphiConfig {
    DelphiConfig {
        feature_samples: 120,
        feature_epochs: 8,
        combiner_samples: 80,
        combiner_epochs: 8,
        ..DelphiConfig::default()
    }
}

#[test]
fn delphi_training_is_bit_identical_across_worker_counts() {
    let serial = Delphi::train(config());
    let probe: Vec<Vec<f64>> =
        (0..8).map(|k| (0..5).map(|i| 0.05 * (k + i) as f64).collect()).collect();
    let expected: Vec<f64> = probe.iter().map(|w| serial.predict(w)).collect();
    for workers in [1usize, 2, 8] {
        let pool = WorkerPool::new(workers);
        let pooled = Delphi::train_with_pool(config(), Some(&pool));
        let got: Vec<f64> = probe.iter().map(|w| pooled.predict(w)).collect();
        assert_eq!(expected, got, "{workers} workers diverged from serial");
    }
}
