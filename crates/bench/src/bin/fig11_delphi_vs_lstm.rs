//! Figure 11 — the Delphi model vs per-metric LSTM baselines.
//!
//! Paper setup: SAR metrics collected per drive (NVMe/SSD/HDD) while FIO
//! ran; one LSTM (71 851 params, 3–5 h training) trained *per metric* on
//! 10 K points and tested on 60 K; Delphi (50 params, 14 trainable,
//! ~15 min training) trained once on synthetic features and tested on the
//! same metrics. Reported per metric: RMSE (bubble size), R² (colour),
//! inference time (y-axis).
//!
//! Here the dataset sizes are scaled (train/test per metric, and the LSTM
//! epochs bounded) so the binary finishes in minutes; the qualitative
//! contrast — Delphi generalizes across metrics at a fraction of the
//! parameters, training time, and inference cost — is what the paper's
//! figure shows. Parameter counts are exact.
//!
//! Run: `cargo run --release -p apollo-bench --bin fig11_delphi_vs_lstm`

use apollo_bench::conv::CnnModel;
use apollo_bench::lstm::LstmModel;
use apollo_bench::report::{Report, Series};
use apollo_cluster::workloads::fio;
use apollo_delphi::eval::one_step_eval;
use apollo_delphi::stack::{Delphi, DelphiConfig};
use std::time::Instant;

/// Scaled dataset sizes (paper: 10 000 / 60 000).
const TRAIN: usize = 600;
const TEST: usize = 3_000;
/// LSTM with the paper-scale architecture is too slow to train per-metric
/// in a harness run; a 24-hidden LSTM keeps the same qualitative contrast
/// while the paper-scale parameter count is still reported.
const LSTM_HIDDEN: usize = 24;
const LSTM_EPOCHS: usize = 12;

fn main() {
    let mut report = Report::new("fig11", "Delphi vs per-metric LSTM baselines");

    println!("Training Delphi once on synthetic features…");
    let t0 = Instant::now();
    let delphi = Delphi::train(DelphiConfig::default());
    let delphi_train_s = t0.elapsed().as_secs_f64();
    println!(
        "  Delphi: {} params ({} trainable), trained in {:.1}s",
        delphi.param_count(),
        delphi.trainable_param_count(),
        delphi_train_s
    );
    report.note("delphi_params", delphi.param_count() as u64);
    report.note("delphi_trainable_params", delphi.trainable_param_count() as u64);
    report.note("delphi_train_s", delphi_train_s);
    report.note("paper_delphi_params", "50 (14 trainable); ~15 min training");
    report.note("paper_lstm_params", 71_851);
    report.note("lstm_paper_scale_params", LstmModel::paper_baseline(5, 0).param_count() as u64);

    let mut delphi_rmse = Series::new("delphi_rmse_norm");
    let mut lstm_rmse = Series::new("lstm_rmse_norm");
    let mut delphi_r2 = Series::new("delphi_r2");
    let mut lstm_r2 = Series::new("lstm_r2");
    let mut delphi_inf = Series::new("delphi_inference_ns");
    let mut lstm_inf = Series::new("lstm_inference_ns");
    let mut lstm_train_time = Series::new("lstm_train_s");
    let mut cnn_rmse = Series::new("cnn_rmse_norm");
    let mut cnn_inf = Series::new("cnn_inference_ns");

    println!(
        "\n{:<22}{:>12}{:>9}{:>12}{:>12}{:>9}{:>12}{:>12}{:>12}{:>12}",
        "metric",
        "delphi_rmse",
        "d_r2",
        "d_inf_ns",
        "lstm_rmse",
        "l_r2",
        "l_inf_ns",
        "l_train_s",
        "cnn_rmse",
        "c_inf_ns"
    );

    let dataset = fio::dataset(TRAIN, TEST, 11);
    for (i, (device, metric, train, test)) in dataset.iter().enumerate() {
        let label = format!("{}/{}", device.label(), metric.label());
        // Normalize to unit scale so RMSE is comparable across metrics
        // (the paper's bubbles are per-metric-scale too).
        let train_n = train.normalized().values();
        // Normalize test with the same min-max as train would in
        // production; per-window normalization inside eval handles scale.
        let test_v = test.values();

        let d_eval = one_step_eval(&delphi, &test_v);

        let t0 = Instant::now();
        let mut lstm = LstmModel::new(LSTM_HIDDEN, 5, 7 + i as u64);
        lstm.fit_series(&train_n, LSTM_EPOCHS, 0.02);
        let l_train_s = t0.elapsed().as_secs_f64();
        let l_eval = one_step_eval(&lstm, &test_v);

        // The §2.2 CNN comparator, trained per metric like the LSTM.
        let mut cnn = CnnModel::new(5, 3, 16, 7 + i as u64);
        cnn.fit_series(&train_n, LSTM_EPOCHS, 0.02);
        let c_eval = one_step_eval(&cnn, &test_v);

        // Report RMSE normalized by the metric's test-set spread.
        let spread = (test.max() - test.min()).max(1e-9);
        let d_nrmse = d_eval.rmse / spread;
        let l_nrmse = l_eval.rmse / spread;
        let c_nrmse = c_eval.rmse / spread;

        println!(
            "{label:<22}{d_nrmse:>12.4}{:>9.3}{:>12.0}{l_nrmse:>12.4}{:>9.3}{:>12.0}{l_train_s:>12.2}{c_nrmse:>12.4}{:>12.0}",
            d_eval.r2, d_eval.inference_ns, l_eval.r2, l_eval.inference_ns, c_eval.inference_ns
        );
        cnn_rmse.push(i as f64, c_nrmse);
        cnn_inf.push(i as f64, c_eval.inference_ns);
        let x = i as f64;
        delphi_rmse.push(x, d_nrmse);
        lstm_rmse.push(x, l_nrmse);
        delphi_r2.push(x, d_eval.r2);
        lstm_r2.push(x, l_eval.r2);
        delphi_inf.push(x, d_eval.inference_ns);
        lstm_inf.push(x, l_eval.inference_ns);
        lstm_train_time.push(x, l_train_s);
    }

    for s in [
        delphi_rmse,
        lstm_rmse,
        delphi_r2,
        lstm_r2,
        delphi_inf,
        lstm_inf,
        lstm_train_time,
        cnn_rmse,
        cnn_inf,
    ] {
        report.add_series(s);
    }
    report.note("cnn_params", CnnModel::new(5, 3, 16, 0).param_count() as u64);
    report.note(
        "paper_shape",
        "Delphi predicts any periodic non-random metric at far lower inference cost; \
         LSTMs only shine on the metric they were trained for",
    );
    report.finish("metric index", "per-series units");
}
