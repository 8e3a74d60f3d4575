//! The Delphi stacked model (Figure 3a).
//!
//! Eight single-Dense feature models (window 5), each pre-trained on its
//! own synthetic feature dataset and then **frozen**; a final one-Dense
//! trainable layer combines their predictions (and "learns any other
//! missing features and subsequent noise").
//!
//! Parameter accounting: each feature model is `window → 1` dense
//! (window+1 params); the combiner is `8 → 1` dense (9 params). With the
//! paper's window of 5 that is 8×6 = 48 frozen + 9 trainable = 57 total —
//! the same two-orders-below-LSTM scale as the paper's reported
//! "50 parameters, of which 14 are trainable" (the paper does not break
//! down its exact layer shapes; EXPERIMENTS.md records both counts).

use crate::features::{mixed_dataset, windows, Feature};
use crate::nn::{Activation, Dense, Sequential};
use crate::simd;
use crate::tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shards used for combiner training (see [`Sequential::fit_sharded`]).
/// The shard plan fixes the bits of the trained combiner.
const COMBINER_SHARDS: usize = 4;

/// Frozen lowered inference tables, built once when training ends. The
/// stack is eight `window → 1` linear Dense layers plus an `8 → 1` linear
/// combiner by construction, so lowering packs them into flat `f32` rows
/// for the transposed SIMD batch kernel ([`crate::simd`]).
#[derive(Debug, Clone)]
struct Lowered {
    /// Feature weights, `nfeat × window` row-major.
    fw: Vec<f32>,
    /// Per-feature bias.
    fb: Vec<f32>,
    /// Combiner weights, len `nfeat`.
    cw: Vec<f32>,
    /// Combiner bias.
    cb: f32,
}

/// Reusable buffers for [`Delphi::predict_into`] /
/// [`Delphi::predict_batch_into`]. Owning one of these per call site
/// makes steady-state prediction allocation-free: every buffer inside is
/// `resize`d (capacity-reusing) rather than rebuilt.
#[derive(Debug, Default, Clone)]
pub struct DelphiScratch {
    /// Packed input windows, one per row (`B×window`).
    input: Matrix,
    /// Transposed f32 staging (`window × B`).
    xt: Vec<f32>,
    /// Transposed f32 feature outputs (`nfeat × B`).
    ft: Vec<f32>,
    /// f32 combiner outputs.
    out32: Vec<f32>,
    /// Scalar-tail rows of the last kernel call.
    tail_rows: usize,
}

impl DelphiScratch {
    /// Start staging a batch of `batch` windows of length `window`.
    /// Rows are filled with [`DelphiScratch::set_row`] before calling
    /// [`Delphi::predict_batch_into`].
    pub fn begin_batch(&mut self, batch: usize, window: usize) {
        self.input.resize(batch, window);
    }

    /// Copy one window into staged row `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range or the window length differs from
    /// the one given to [`DelphiScratch::begin_batch`].
    pub fn set_row(&mut self, i: usize, window: &[f64]) {
        self.input.row_mut(i).copy_from_slice(window);
    }

    /// Staged row `i`, for a caller that writes a window in place (the
    /// prediction pump normalizes straight into it).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        self.input.row_mut(i)
    }

    /// Number of rows currently staged.
    pub fn staged_rows(&self) -> usize {
        self.input.rows()
    }

    /// Zero-fill staged rows `from..staged_rows()` — the prediction
    /// pump's lane-width padding: after shrinking the batch to
    /// `staged.next_multiple_of(lane_width)`, the padding rows must be
    /// zeroed (not stale) so the vector path computes well-defined
    /// (discarded) values.
    pub fn pad_rows(&mut self, from: usize) {
        for r in from..self.input.rows() {
            self.input.row_mut(r).fill(0.0);
        }
    }

    /// Rows the last [`Delphi::predict_batch_into`] call processed on
    /// the kernel's scalar tail — 0 whenever the staged batch is a
    /// lane-width multiple (which the prediction pump guarantees by
    /// padding). Feeds the `delphi.batch_tail_scalar` counter.
    pub fn tail_rows(&self) -> usize {
        self.tail_rows
    }
}

/// Configuration for building and training a [`Delphi`] model.
#[derive(Debug, Clone)]
pub struct DelphiConfig {
    /// Input window length (paper: 5).
    pub window: usize,
    /// Samples of each synthetic feature used to pre-train feature models.
    pub feature_samples: usize,
    /// Epochs of SGD for each feature model.
    pub feature_epochs: usize,
    /// Samples per feature in the mixed combiner dataset.
    pub combiner_samples: usize,
    /// Epochs of SGD for the combiner.
    pub combiner_epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// RNG seed (weights + datasets).
    pub seed: u64,
}

impl Default for DelphiConfig {
    fn default() -> Self {
        Self {
            window: 5,
            feature_samples: 2_000,
            feature_epochs: 400,
            combiner_samples: 500,
            combiner_epochs: 400,
            lr: 0.05,
            seed: 0xDE1F1,
        }
    }
}

/// One pre-trained single-Dense feature model.
#[derive(Debug, Clone)]
pub struct FeatureModel {
    /// Which feature this model was trained on.
    pub feature: Feature,
    net: Sequential,
    /// Final training loss, for diagnostics.
    pub train_loss: f64,
}

impl FeatureModel {
    /// Train a `window → 1` dense model on the feature's synthetic data.
    ///
    /// Training covers several independently drawn instances of the
    /// feature (different slopes, periods, levels), so the model learns
    /// the *pattern family* rather than one realization — a trend model
    /// must extrapolate rising and falling windows alike.
    pub fn train(feature: Feature, config: &DelphiConfig) -> Self {
        const INSTANCES: u64 = 4;
        let per = (config.feature_samples as u64 / INSTANCES).max(config.window as u64 + 2);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for inst in 0..INSTANCES {
            let series = feature.generate(per as usize, config.seed.wrapping_add(inst * 7919));
            let (mut xi, mut yi) = windows(&series, config.window);
            xs.append(&mut xi);
            ys.append(&mut yi);
        }
        let x = to_matrix(&xs);
        let y = Matrix::from_vec(ys.len(), 1, ys);
        // A single linear layer has a closed-form optimum; a few SGD
        // epochs then polish nothing but keep the training-loop code path
        // (and epochs knob) exercised.
        let (w, b) = crate::nn::least_squares(&x, &y, 1e-6);
        let mut rng = StdRng::seed_from_u64(config.seed ^ feature as u64);
        let mut layer = Dense::new(config.window, 1, Activation::Linear, &mut rng);
        layer.weights = w;
        layer.bias = Matrix::from_vec(1, 1, vec![b]);
        let mut net = Sequential::new();
        net.push(layer);
        let polish_epochs = config.feature_epochs.min(10);
        let train_loss = net.fit(&x, &y, config.lr, polish_epochs);
        Self { feature, net, train_loss }
    }

    /// Predict the next value from a window (normalized scale).
    pub fn predict(&self, window: &[f64]) -> f64 {
        let x = Matrix::row_vector(window.to_vec());
        self.net.infer(&x).get(0, 0)
    }

    /// Parameter count (all frozen once stacked).
    pub fn param_count(&self) -> usize {
        self.net.param_count()
    }
}

/// The full stacked Delphi model.
#[derive(Debug, Clone)]
pub struct Delphi {
    config: DelphiConfig,
    features: Vec<FeatureModel>,
    combiner: Sequential,
    lowered: Lowered,
}

impl Delphi {
    /// Build and train the full stack per the paper's methodology:
    /// pre-train the eight feature models, freeze them, then train the
    /// combiner on a mixed dataset.
    pub fn train(config: DelphiConfig) -> Self {
        let features: Vec<FeatureModel> =
            Feature::ALL.iter().map(|&f| FeatureModel::train(f, &config)).collect();

        // Build the combiner training set: feature-model outputs -> truth.
        let mixed = mixed_dataset(config.combiner_samples, config.seed.wrapping_add(1));
        let (xs, ys) = windows(&mixed, config.window);
        let stacked: Vec<Vec<f64>> =
            xs.iter().map(|w| features.iter().map(|m| m.predict(w)).collect()).collect();
        let x = to_matrix(&stacked);
        let y = Matrix::from_vec(ys.len(), 1, ys);

        let (w, b) = crate::nn::least_squares(&x, &y, 1e-6);
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xC0B1);
        let mut layer = Dense::new(features.len(), 1, Activation::Linear, &mut rng);
        layer.weights = w;
        layer.bias = Matrix::from_vec(1, 1, vec![b]);
        let mut combiner = Sequential::new();
        combiner.push(layer);
        let epochs = config.combiner_epochs.min(10);
        combiner.fit_sharded(&x, &y, config.lr, epochs, COMBINER_SHARDS);

        let lowered = Self::build_lowered(config.window, &features, &combiner);
        Self { config, features, combiner, lowered }
    }

    /// Window length the model expects.
    pub fn window(&self) -> usize {
        self.config.window
    }

    /// SIMD lane width of the kernel: staging batch capacities should be
    /// rounded up to a multiple of this so tail batches don't fall off
    /// the vector path.
    pub fn lane_width(&self) -> usize {
        simd::LANES
    }

    /// Pack the frozen stack into flat lowered tables. Relies on the
    /// construction invariant that every tier is a single linear Dense.
    fn build_lowered(window: usize, features: &[FeatureModel], combiner: &Sequential) -> Lowered {
        let nfeat = features.len();
        let single_linear = |net: &Sequential| {
            let layers = net.layers();
            assert_eq!(layers.len(), 1, "lowering expects single-layer tiers");
            assert_eq!(layers[0].activation, Activation::Linear, "lowering expects linear tiers");
        };
        let mut fw = Vec::with_capacity(nfeat * window);
        let mut fb = Vec::with_capacity(nfeat);
        for m in features {
            single_linear(&m.net);
            let layer = &m.net.layers()[0];
            assert_eq!(layer.weights.rows(), window, "feature window mismatch");
            assert_eq!(layer.weights.cols(), 1, "feature output width mismatch");
            fw.extend((0..window).map(|k| layer.weights.get(k, 0) as f32));
            fb.push(layer.bias.get(0, 0) as f32);
        }
        single_linear(combiner);
        let comb = &combiner.layers()[0];
        assert_eq!(comb.weights.rows(), nfeat, "combiner width mismatch");
        let cw: Vec<f32> = (0..nfeat).map(|j| comb.weights.get(j, 0) as f32).collect();
        let cb = comb.bias.get(0, 0) as f32;
        Lowered { fw, fb, cw, cb }
    }

    /// Predict the next normalized value from a normalized window
    /// (allocating convenience over [`Delphi::predict_into`]).
    ///
    /// # Panics
    /// Panics if `window.len()` differs from the configured window.
    pub fn predict(&self, window: &[f64]) -> f64 {
        self.predict_into(window, &mut DelphiScratch::default())
    }

    /// The f64 reference: the stack evaluated on the f64 weights training
    /// produced, one `1×window` pass per feature model. Nothing serves on
    /// it — it is the oracle the equivalence suites hold the lowered
    /// kernel to, within [`crate::simd::budget::STACK_F32`].
    ///
    /// # Panics
    /// Panics if `window.len()` differs from the configured window.
    pub fn predict_exact(&self, window: &[f64]) -> f64 {
        assert_eq!(window.len(), self.config.window, "window length mismatch");
        let feats: Vec<f64> = self.features.iter().map(|m| m.predict(window)).collect();
        self.combiner.infer(&Matrix::row_vector(feats)).get(0, 0)
    }

    /// [`Delphi::predict`] through caller-owned scratch buffers: after
    /// the first call warms the scratch, steady-state calls perform
    /// **zero heap allocations**. Bit-identical to [`Delphi::predict`].
    ///
    /// # Panics
    /// Panics if `window.len()` differs from the configured window.
    pub fn predict_into(&self, window: &[f64], scratch: &mut DelphiScratch) -> f64 {
        assert_eq!(window.len(), self.config.window, "window length mismatch");
        // Stage the single window as one full zero-padded lane so even
        // B=1 rides the vector path (row values are placement-independent,
        // so padding never changes them).
        let rows = simd::LANES;
        scratch.xt.resize(window.len() * rows, 0.0);
        scratch.xt.fill(0.0);
        for (k, &v) in window.iter().enumerate() {
            scratch.xt[k * rows] = v as f32;
        }
        self.forward(scratch, rows);
        scratch.out32[0] as f64
    }

    /// Predict every staged window in one kernel call: the rows are
    /// packed transposed and the feature tier and the combiner each run
    /// once across the whole batch, instead of `B` separate `1×window`
    /// passes. Results land in `out` (cleared first), row `i`
    /// bit-identical to `self.predict(row_i)`.
    ///
    /// Stage rows with [`DelphiScratch::begin_batch`] /
    /// [`DelphiScratch::set_row`] first. An empty batch yields an empty
    /// `out`. Steady state this allocates nothing.
    ///
    /// # Panics
    /// Panics if the staged window length differs from the configured
    /// window.
    pub fn predict_batch_into(&self, scratch: &mut DelphiScratch, out: &mut Vec<f64>) {
        let w = self.config.window;
        assert_eq!(scratch.input.cols(), w, "staged window length mismatch");
        out.clear();
        let b = scratch.input.rows();
        scratch.tail_rows = 0;
        if b == 0 {
            return;
        }
        // Pack the staged rows transposed (window × B) so the kernel's
        // lanes run across batch rows. Rows staged but not a lane
        // multiple run on the kernel's scalar tail — reported via
        // `DelphiScratch::tail_rows`; the prediction pump avoids that by
        // padding to `lane_width()`.
        scratch.xt.resize(w * b, 0.0);
        for r in 0..b {
            let row = scratch.input.row(r);
            for (k, &v) in row.iter().enumerate() {
                scratch.xt[k * b + r] = v as f32;
            }
        }
        self.forward(scratch, b);
        out.extend(scratch.out32[..b].iter().map(|&v| v as f64));
    }

    /// One kernel call over the `rows` windows transposed into
    /// `scratch.xt`; outputs land in `scratch.out32[..rows]`.
    fn forward(&self, scratch: &mut DelphiScratch, rows: usize) {
        let low = &self.lowered;
        let nfeat = low.fb.len();
        scratch.ft.resize(nfeat * rows, 0.0);
        scratch.out32.resize(rows, 0.0);
        scratch.tail_rows = simd::stack_forward(
            self.config.window,
            nfeat,
            &low.fw,
            &low.fb,
            &low.cw,
            low.cb,
            &scratch.xt,
            rows,
            &mut scratch.ft,
            &mut scratch.out32,
        );
    }

    /// Allocating convenience over [`Delphi::predict_batch_into`].
    pub fn predict_batch<W: AsRef<[f64]>>(&self, windows: &[W]) -> Vec<f64> {
        let mut scratch = DelphiScratch::default();
        scratch.begin_batch(windows.len(), self.config.window);
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(w.as_ref().len(), self.config.window, "window length mismatch");
            scratch.set_row(i, w.as_ref());
        }
        let mut out = Vec::with_capacity(windows.len());
        self.predict_batch_into(&mut scratch, &mut out);
        out
    }

    /// Total parameter count (frozen feature models + combiner).
    pub fn param_count(&self) -> usize {
        self.features.iter().map(FeatureModel::param_count).sum::<usize>()
            + self.combiner.param_count()
    }

    /// Trainable parameter count (the combiner only).
    pub fn trainable_param_count(&self) -> usize {
        self.combiner.param_count()
    }

    /// The pre-trained feature models.
    pub fn feature_models(&self) -> &[FeatureModel] {
        &self.features
    }

    /// Per-feature confidence scores on a validation series: for each
    /// frozen feature model, `1 / (1 + MSE)` of its one-step predictions —
    /// the quantity the combiner implicitly learns to weight by ("the
    /// model learns how to combine the predictions of the different
    /// models based on their different confidence scores", §3.4.2).
    ///
    /// Returns `(feature, confidence)` pairs in [`Feature::ALL`] order.
    pub fn feature_confidence(&self, series: &[f64]) -> Vec<(Feature, f64)> {
        let (xs, ys) = windows(series, self.config.window);
        self.features
            .iter()
            .map(|m| {
                if xs.is_empty() {
                    return (m.feature, 0.0);
                }
                let mse: f64 = xs
                    .iter()
                    .zip(&ys)
                    .map(|(x, &y)| {
                        let p = m.predict(x);
                        (p - y) * (p - y)
                    })
                    .sum::<f64>()
                    / xs.len() as f64;
                (m.feature, 1.0 / (1.0 + mse))
            })
            .collect()
    }

    /// The combiner's learned weight for each feature model — the
    /// realized "confidence" after training.
    pub fn combiner_weights(&self) -> Vec<(Feature, f64)> {
        let w = &self.combiner.layers()[0].weights;
        self.features.iter().enumerate().map(|(i, m)| (m.feature, w.get(i, 0))).collect()
    }
}

fn to_matrix(rows: &[Vec<f64>]) -> Matrix {
    let n = rows.len();
    let w = rows.first().map(Vec::len).unwrap_or(0);
    let mut data = Vec::with_capacity(n * w);
    for r in rows {
        assert_eq!(r.len(), w, "ragged rows");
        data.extend_from_slice(r);
    }
    Matrix::from_vec(n, w, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> DelphiConfig {
        DelphiConfig {
            feature_samples: 400,
            feature_epochs: 150,
            combiner_samples: 120,
            combiner_epochs: 150,
            ..DelphiConfig::default()
        }
    }

    #[test]
    fn feature_model_learns_constant() {
        let m = FeatureModel::train(Feature::Constant, &fast_config());
        assert!(m.train_loss < 1e-3, "constant loss {}", m.train_loss);
        let p = m.predict(&[0.5, 0.5, 0.5, 0.5, 0.5]);
        assert!((p - 0.5).abs() < 0.1, "constant prediction {p}");
    }

    #[test]
    fn feature_model_learns_trend() {
        let m = FeatureModel::train(Feature::Trend, &fast_config());
        // A rising window should predict a value >= the last input.
        let p = m.predict(&[0.1, 0.2, 0.3, 0.4, 0.5]);
        assert!(p > 0.45, "trend prediction {p}");
    }

    #[test]
    fn delphi_parameter_counts() {
        let d = Delphi::train(fast_config());
        // 8 feature models × (5 weights + 1 bias) + combiner (8 + 1).
        assert_eq!(d.param_count(), 8 * 6 + 9);
        assert_eq!(d.trainable_param_count(), 9);
        assert_eq!(d.window(), 5);
        assert_eq!(d.feature_models().len(), 8);
    }

    #[test]
    fn delphi_predicts_constant_series_well() {
        let d = Delphi::train(fast_config());
        let p = d.predict(&[0.4, 0.4, 0.4, 0.4, 0.4]);
        assert!((p - 0.4).abs() < 0.15, "constant stack prediction {p}");
    }

    #[test]
    fn delphi_tracks_a_trend() {
        let d = Delphi::train(fast_config());
        let up = d.predict(&[0.2, 0.3, 0.4, 0.5, 0.6]);
        let down = d.predict(&[0.6, 0.5, 0.4, 0.3, 0.2]);
        assert!(up > down, "rising window must predict above falling window");
    }

    #[test]
    #[should_panic(expected = "window length mismatch")]
    fn wrong_window_length_panics() {
        let d = Delphi::train(fast_config());
        d.predict(&[0.1, 0.2]);
    }

    #[test]
    fn confidence_scores_rank_the_right_expert() {
        let d = Delphi::train(fast_config());
        // On a fresh trend series the trend model must be among the most
        // confident experts.
        let series = Feature::Trend.generate(200, 999);
        let conf = d.feature_confidence(&series);
        assert_eq!(conf.len(), 8);
        assert!(conf.iter().all(|&(_, c)| (0.0..=1.0).contains(&c)));
        let trend_conf = conf.iter().find(|(f, _)| *f == Feature::Trend).unwrap().1;
        let rank = conf.iter().filter(|&&(_, c)| c > trend_conf).count();
        assert!(rank <= 3, "trend expert ranked {rank} of 8 on trend data: {conf:?}");
    }

    #[test]
    fn confidence_on_empty_series_is_zero() {
        let d = Delphi::train(fast_config());
        let conf = d.feature_confidence(&[0.5; 3]); // shorter than window
        assert!(conf.iter().all(|&(_, c)| c == 0.0));
    }

    #[test]
    fn combiner_weights_cover_all_features() {
        let d = Delphi::train(fast_config());
        let w = d.combiner_weights();
        assert_eq!(w.len(), 8);
        // Weights roughly combine to a convex-ish mix: their sum is near 1
        // because the experts each approximate the target directly.
        let sum: f64 = w.iter().map(|&(_, v)| v).sum();
        assert!((0.2..=1.8).contains(&sum), "weight sum {sum}: {w:?}");
    }

    #[test]
    fn training_is_deterministic() {
        let a = Delphi::train(fast_config());
        let b = Delphi::train(fast_config());
        let w = [0.3, 0.35, 0.4, 0.45, 0.5];
        assert_eq!(a.predict(&w), b.predict(&w));
    }

    #[test]
    fn predict_into_matches_predict_bitwise() {
        let d = Delphi::train(fast_config());
        let mut scratch = DelphiScratch::default();
        for w in [[0.4, 0.4, 0.4, 0.4, 0.4], [0.2, 0.3, 0.4, 0.5, 0.6], [0.9, 0.1, 0.8, 0.2, 0.7]] {
            assert_eq!(d.predict_into(&w, &mut scratch), d.predict(&w));
        }
    }

    #[test]
    fn predict_batch_matches_per_row_predict_bitwise() {
        let d = Delphi::train(fast_config());
        let windows: Vec<Vec<f64>> = (0..7)
            .map(|i| (0..5).map(|j| ((i * 5 + j) as f64 * 0.173).sin() * 0.5 + 0.5).collect())
            .collect();
        let batched = d.predict_batch(&windows);
        assert_eq!(batched.len(), windows.len());
        for (w, &p) in windows.iter().zip(&batched) {
            assert_eq!(p, d.predict(w));
        }
        // B=1 and empty batches.
        assert_eq!(d.predict_batch(&windows[..1]), vec![d.predict(&windows[0])]);
        assert_eq!(d.predict_batch(&Vec::<Vec<f64>>::new()), Vec::<f64>::new());
    }

    #[test]
    fn training_returns_the_lowered_serving_path() {
        let w = [0.3, 0.35, 0.4, 0.45, 0.5];
        let d = Delphi::train(fast_config());
        assert_eq!(d.lane_width(), crate::simd::LANES);
        // Served from the f32 tables, not the f64 weights they were
        // packed from.
        let p = d.predict(&w);
        assert_eq!(p, f64::from(p as f32));
        assert_ne!(p, d.predict_exact(&w));
    }

    /// Bits recorded from the f64 stack for this seeded model, on the
    /// first windows of the budget test below: the oracle the lowered
    /// kernel is held to must itself not drift.
    #[test]
    fn predict_exact_is_the_pinned_f64_reference() {
        let d = Delphi::train(fast_config());
        let pinned: [u64; 4] = [
            0x3feb_59bc_915f_c7db,
            0x3fee_f894_16fc_492f,
            0x3fe3_73f2_d13d_0b4a,
            0x3fc1_e1a8_6f6d_a9da,
        ];
        for (i, want) in pinned.into_iter().enumerate() {
            let w: Vec<f64> =
                (0..5).map(|j| ((i * 5 + j) as f64 * 0.211).sin() * 0.5 + 0.5).collect();
            assert_eq!(d.predict_exact(&w).to_bits(), want, "window {i}");
        }
    }

    #[test]
    fn simd_precision_tracks_exact_within_budget() {
        let d = Delphi::train(fast_config());
        let budget = crate::simd::budget::STACK_F32;
        let mut scratch = DelphiScratch::default();
        for i in 0..50 {
            let w: Vec<f64> =
                (0..5).map(|j| ((i * 5 + j) as f64 * 0.211).sin() * 0.5 + 0.5).collect();
            let oracle = d.predict_exact(&w);
            let got = d.predict_into(&w, &mut scratch);
            assert!(
                budget.within(oracle, got),
                "window {i}: exact {oracle} vs simd {got} (budget {budget:?})"
            );
        }
    }

    /// Each row's value is independent of batch size and lane placement,
    /// so batched == per-row **bitwise**.
    #[test]
    fn lowered_batches_match_single_rows_bitwise() {
        let d = Delphi::train(fast_config());
        let windows: Vec<Vec<f64>> = (0..13)
            .map(|i| (0..5).map(|j| ((i * 5 + j) as f64 * 0.37).sin() * 0.5 + 0.5).collect())
            .collect();
        let batched = d.predict_batch(&windows);
        let mut scratch = DelphiScratch::default();
        for (w, &p) in windows.iter().zip(&batched) {
            assert_eq!(p, d.predict_into(w, &mut scratch));
            assert_eq!(p, d.predict(w));
        }
    }

    #[test]
    fn simd_tail_rows_are_reported_and_vanish_when_padded() {
        let d = Delphi::train(fast_config());
        let w = d.window();
        let window: Vec<f64> = (0..w).map(|i| 0.1 + 0.1 * i as f64).collect();
        let mut scratch = DelphiScratch::default();
        let mut out = Vec::new();
        // Unpadded B=13: 8 lane rows + 5 scalar-tail rows.
        scratch.begin_batch(13, w);
        for i in 0..13 {
            scratch.set_row(i, &window);
        }
        d.predict_batch_into(&mut scratch, &mut out);
        assert_eq!(scratch.tail_rows(), 13 % crate::simd::LANES);
        let unpadded = out.clone();
        // Pump-style padding to the lane width: tail disappears, the
        // first 13 outputs are bit-identical.
        let padded = 13usize.next_multiple_of(d.lane_width());
        scratch.begin_batch(padded, w);
        for i in 0..13 {
            scratch.set_row(i, &window);
        }
        scratch.pad_rows(13);
        d.predict_batch_into(&mut scratch, &mut out);
        assert_eq!(scratch.tail_rows(), 0);
        assert_eq!(&out[..13], &unpadded[..]);
        // Single-row predictions pad internally: no tail either.
        d.predict_into(&window, &mut scratch);
        assert_eq!(scratch.tail_rows(), 0);
    }
}
