//! Determinism of the LSTM comparator's pooled training across worker
//! counts: 1, 2, or 8 pool workers — or no pool at all — must produce
//! **bit-identical** models. Per-shard gradients are pure functions of
//! the epoch-start snapshot and the reduction runs on the caller thread
//! in a fixed ascending order, so thread count can change only
//! wall-clock time, never a single bit of the result.

use apollo_bench::lstm::LstmModel;
use apollo_runtime::pool::WorkerPool;

#[test]
fn lstm_pooled_epochs_are_bit_identical_across_worker_counts() {
    let series: Vec<f64> =
        (0..160).map(|t| 0.5 + 0.3 * (t as f64 * 0.17).sin() + 0.001 * t as f64).collect();
    let window = 5;
    let train = |pool: Option<&WorkerPool>| -> (f64, f64) {
        let mut m = LstmModel::new(12, window, 99);
        let loss = m.fit_series_pooled(&series, 6, 0.05, 4, pool);
        (loss, m.predict(&series[series.len() - window..]))
    };
    let inline = train(None);
    for workers in [1usize, 2, 8] {
        let pool = WorkerPool::new(workers);
        assert_eq!(inline, train(Some(&pool)), "{workers} workers diverged from inline");
    }
}

/// Shard count, by contrast, IS part of the math (it fixes the reduction
/// tree) — pinning that distinction here guards against someone
/// "optimizing" the shard plan per worker count and silently breaking
/// reproducibility.
#[test]
fn lstm_shard_count_changes_reduction_but_worker_count_never_does() {
    let series: Vec<f64> = (0..80).map(|t| (t as f64 * 0.31).cos()).collect();
    let run = |shards: usize, workers: Option<usize>| -> f64 {
        let pool = workers.map(WorkerPool::new);
        let mut m = LstmModel::new(8, 5, 7);
        m.fit_series_pooled(&series, 3, 0.05, shards, pool.as_ref());
        m.predict(&series[series.len() - 5..])
    };
    // Same shards, any workers: identical.
    assert_eq!(run(4, None), run(4, Some(3)));
    // The losses still agree closely across shard plans (same data, same
    // optimizer family), just not bitwise.
    let a = run(1, None);
    let b = run(4, None);
    assert!((a - b).abs() < 1e-2, "shard plans wildly diverged: {a} vs {b}");
}
