//! From-scratch LSTM — the Figure 11 baseline.
//!
//! §2.2/§4.3.2: the paper trains one LSTM **per metric** ("71,851
//! parameters, all of which are trainable", "3 to 5 hours" to train) and
//! shows Delphi matches it at a fraction of the cost. This module
//! implements a standard LSTM cell (input/forget/output gates, candidate
//! cell, BPTT through the input window) plus a dense head, so the baseline
//! is reproduced without TensorFlow.
//!
//! With input size 1, hidden width `h`, and a linear head, the parameter
//! count is `4·h·(h+2) + h + 1`; the default `h = 133` gives 71 954
//! parameters — the same scale as the paper's 71 851 (whose exact layer
//! shapes are unpublished).

use apollo_delphi::nn::Activation;
use apollo_delphi::tensor::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Cached per-timestep state for BPTT.
struct StepCache {
    x: Matrix,      // 1×in
    h_prev: Matrix, // 1×h
    c_prev: Matrix, // 1×h
    i: Matrix,
    f: Matrix,
    o: Matrix,
    g: Matrix,
    c: Matrix,
    tanh_c: Matrix,
}

/// Weight gradients for one BPTT pass, reusable across samples/epochs.
#[derive(Debug, Clone, Default)]
pub struct LstmGrads {
    dwx: Matrix,
    dwh: Matrix,
    db: Matrix,
    dwy: Matrix,
    dby: Matrix,
}

impl LstmGrads {
    /// Size (capacity-reusing) and zero every buffer for a model with
    /// `hidden` units.
    fn reset(&mut self, hidden: usize) {
        self.dwx.resize(1, 4 * hidden);
        self.dwh.resize(hidden, 4 * hidden);
        self.db.resize(1, 4 * hidden);
        self.dwy.resize(hidden, 1);
        self.dby.resize(1, 1);
        for g in [&mut self.dwx, &mut self.dwh, &mut self.db, &mut self.dwy, &mut self.dby] {
            g.fill_zero();
        }
    }
}

/// A single-layer LSTM with a linear dense head, trained one-step-ahead.
#[derive(Clone)]
pub struct LstmModel {
    hidden: usize,
    window: usize,
    // Gate weights, concatenated [i | f | o | g] along columns.
    wx: Matrix, // in × 4h
    wh: Matrix, // h × 4h
    b: Matrix,  // 1 × 4h
    // Head.
    wy: Matrix, // h × 1
    by: Matrix, // 1 × 1
    // Reused by train_step so repeated steps reuse gradient capacity.
    grad_buf: LstmGrads,
}

impl LstmModel {
    /// Create an untrained model. `window` is the input sequence length
    /// (the paper uses 5 for Delphi; the LSTM consumes the same windows).
    pub fn new(hidden: usize, window: usize, seed: u64) -> Self {
        assert!(hidden > 0 && window > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = (1.0 / (hidden as f64)).sqrt();
        let mut init =
            |r: usize, c: usize| Matrix::from_fn(r, c, |_, _| rng.random_range(-scale..scale));
        let wx = init(1, 4 * hidden);
        let wh = init(hidden, 4 * hidden);
        let mut b = Matrix::zeros(1, 4 * hidden);
        // Forget-gate bias init to 1.0 (standard practice, speeds training).
        for j in hidden..2 * hidden {
            b.set(0, j, 1.0);
        }
        let wy = init(hidden, 1);
        let by = Matrix::zeros(1, 1);
        Self { hidden, window, wx, wh, b, wy, by, grad_buf: LstmGrads::default() }
    }

    /// The paper-scale baseline: hidden width 133 → 71 954 parameters.
    pub fn paper_baseline(window: usize, seed: u64) -> Self {
        Self::new(133, window, seed)
    }

    /// Total (= trainable) parameter count.
    pub fn param_count(&self) -> usize {
        self.wx.len() + self.wh.len() + self.b.len() + self.wy.len() + self.by.len()
    }

    /// Window length the model expects.
    pub fn window(&self) -> usize {
        self.window
    }

    fn gate_slices(&self, z: &Matrix) -> (Matrix, Matrix, Matrix, Matrix) {
        let h = self.hidden;
        let take = |lo: usize| Matrix::from_fn(1, h, |_, c| z.get(0, lo + c));
        (take(0), take(h), take(2 * h), take(3 * h))
    }

    fn step(&self, x: &Matrix, h_prev: &Matrix, c_prev: &Matrix) -> StepCache {
        let z = x.matmul(&self.wx).add(&h_prev.matmul(&self.wh)).add_row_broadcast(&self.b);
        let (zi, zf, zo, zg) = self.gate_slices(&z);
        let i = zi.map(sigmoid);
        let f = zf.map(sigmoid);
        let o = zo.map(sigmoid);
        let g = zg.map(|v| v.tanh());
        let c = f.hadamard(c_prev).add(&i.hadamard(&g));
        let tanh_c = c.map(|v| v.tanh());
        StepCache {
            x: x.clone(),
            h_prev: h_prev.clone(),
            c_prev: c_prev.clone(),
            i,
            f,
            o,
            g,
            c,
            tanh_c,
        }
    }

    /// Forward pass over a window, returning the scalar prediction.
    pub fn predict(&self, window: &[f64]) -> f64 {
        assert_eq!(window.len(), self.window, "window length mismatch");
        let mut h = Matrix::zeros(1, self.hidden);
        let mut c = Matrix::zeros(1, self.hidden);
        for &v in window {
            let cache = self.step(&Matrix::row_vector(vec![v]), &h, &c);
            h = cache.o.hadamard(&cache.tanh_c);
            c = cache.c;
        }
        h.matmul(&self.wy).add_row_broadcast(&self.by).get(0, 0)
    }

    /// One SGD step on a single `(window, target)` pair via BPTT.
    /// Returns the squared error before the update.
    pub fn train_step(&mut self, window: &[f64], target: f64, lr: f64) -> f64 {
        let mut grads = std::mem::take(&mut self.grad_buf);
        let loss = self.sample_grads(window, target, &mut grads);
        self.apply_grads(&grads, -lr);
        self.grad_buf = grads;
        loss
    }

    /// `self += grads * k` across every weight matrix.
    fn apply_grads(&mut self, grads: &LstmGrads, k: f64) {
        self.wx.add_scaled_in_place(&grads.dwx, k);
        self.wh.add_scaled_in_place(&grads.dwh, k);
        self.b.add_scaled_in_place(&grads.db, k);
        self.wy.add_scaled_in_place(&grads.dwy, k);
        self.by.add_scaled_in_place(&grads.dby, k);
    }

    /// Full BPTT pass on one `(window, target)` pair: writes the clipped
    /// gradients into `out` (overwriting it) and returns the squared
    /// error.
    fn sample_grads(&self, window: &[f64], target: f64, out: &mut LstmGrads) -> f64 {
        assert_eq!(window.len(), self.window, "window length mismatch");
        out.reset(self.hidden);
        // Forward, caching every step.
        let mut caches: Vec<StepCache> = Vec::with_capacity(self.window);
        let mut h = Matrix::zeros(1, self.hidden);
        let mut c = Matrix::zeros(1, self.hidden);
        for &v in window {
            let cache = self.step(&Matrix::row_vector(vec![v]), &h, &c);
            h = cache.o.hadamard(&cache.tanh_c);
            c = cache.c.clone();
            caches.push(cache);
        }
        let pred = h.matmul(&self.wy).add_row_broadcast(&self.by).get(0, 0);
        let err = pred - target;
        let loss = err * err;

        // Head gradients.
        let dpred = 2.0 * err;
        for j in 0..self.hidden {
            out.dwy.set(j, 0, h.get(0, j) * dpred);
        }
        out.dby.set(0, 0, dpred);
        let mut dh = self.wy.transpose().scale(dpred); // 1×h
        let mut dc = Matrix::zeros(1, self.hidden);

        for cache in caches.iter().rev() {
            // dh flows into o and tanh(c).
            let d_tanh_c = dh.hadamard(&cache.o);
            let dc_total = dc.add(&d_tanh_c.hadamard(&cache.tanh_c.map(|t| 1.0 - t * t)));
            let d_o = dh.hadamard(&cache.tanh_c);
            let d_i = dc_total.hadamard(&cache.g);
            let d_f = dc_total.hadamard(&cache.c_prev);
            let d_g = dc_total.hadamard(&cache.i);

            let dz_i = d_i.hadamard(&cache.i.map(|v| v * (1.0 - v)));
            let dz_f = d_f.hadamard(&cache.f.map(|v| v * (1.0 - v)));
            let dz_o = d_o.hadamard(&cache.o.map(|v| v * (1.0 - v)));
            let dz_g = d_g.hadamard(&cache.g.map(|v| 1.0 - v * v));

            // Concatenate dz = [dz_i dz_f dz_o dz_g].
            let hidden = self.hidden;
            let dz = Matrix::from_fn(1, 4 * hidden, |_, col| match col / hidden {
                0 => dz_i.get(0, col % hidden),
                1 => dz_f.get(0, col % hidden),
                2 => dz_o.get(0, col % hidden),
                _ => dz_g.get(0, col % hidden),
            });

            out.dwx.add_scaled_in_place(&cache.x.matmul_at(&dz), 1.0);
            out.dwh.add_scaled_in_place(&cache.h_prev.matmul_at(&dz), 1.0);
            out.db.add_scaled_in_place(&dz, 1.0);

            dh = dz.matmul_bt(&self.wh);
            dc = dc_total.hadamard(&cache.f);
        }

        // Clip gradients to keep BPTT stable on spiky series.
        for g in [&mut out.dwx, &mut out.dwh, &mut out.db] {
            let n = g.norm();
            if n > 5.0 {
                g.scale_in_place(5.0 / n);
            }
        }
        loss
    }

    /// Train on a series with sliding windows for `epochs` passes.
    /// Returns the mean loss of the final epoch.
    pub fn fit_series(&mut self, series: &[f64], epochs: usize, lr: f64) -> f64 {
        let (xs, ys) = apollo_delphi::features::windows(series, self.window);
        assert!(!xs.is_empty(), "series shorter than window");
        let mut last = f64::INFINITY;
        for _ in 0..epochs {
            let mut total = 0.0;
            for (x, &y) in xs.iter().zip(&ys) {
                total += self.train_step(x, y, lr);
            }
            last = total / xs.len() as f64;
        }
        last
    }

    /// Activation used by the head (always linear; exposed for
    /// completeness in reports).
    pub fn head_activation(&self) -> Activation {
        Activation::Linear
    }
}

impl apollo_delphi::predictor::WindowModel for LstmModel {
    type Scratch = ();

    fn window(&self) -> usize {
        self.window()
    }

    fn predict_normalized(&self, window: &[f64]) -> f64 {
        self.predict(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_count_formula() {
        let m = LstmModel::new(8, 5, 0);
        // 4h(in + h + 1) + (h + 1) with in=1, h=8: 4*8*10 + 9 = 329
        assert_eq!(m.param_count(), 329);
        let paper = LstmModel::paper_baseline(5, 0);
        assert_eq!(paper.param_count(), 4 * 133 * 135 + 134);
        assert_eq!(paper.param_count(), 71_954);
    }

    #[test]
    fn untrained_prediction_is_finite() {
        let m = LstmModel::new(8, 5, 1);
        let p = m.predict(&[0.1, 0.2, 0.3, 0.4, 0.5]);
        assert!(p.is_finite());
    }

    #[test]
    fn learns_constant_series() {
        let mut m = LstmModel::new(8, 5, 2);
        let series = vec![0.5; 60];
        let loss = m.fit_series(&series, 60, 0.05);
        assert!(loss < 1e-3, "constant loss {loss}");
        let p = m.predict(&[0.5; 5]);
        assert!((p - 0.5).abs() < 0.05, "prediction {p}");
    }

    #[test]
    fn learns_alternating_series() {
        // 0.2, 0.8, 0.2, 0.8, ... — requires actual sequence memory.
        let mut m = LstmModel::new(16, 5, 3);
        let series: Vec<f64> = (0..200).map(|i| if i % 2 == 0 { 0.2 } else { 0.8 }).collect();
        let loss = m.fit_series(&series, 150, 0.05);
        assert!(loss < 0.01, "alternating loss {loss}");
        let p_after_even = m.predict(&[0.2, 0.8, 0.2, 0.8, 0.2]);
        assert!((p_after_even - 0.8).abs() < 0.15, "prediction {p_after_even}");
    }

    #[test]
    fn learns_linear_ramp() {
        let mut m = LstmModel::new(12, 5, 4);
        let series: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let loss = m.fit_series(&series, 200, 0.02);
        assert!(loss < 5e-3, "ramp loss {loss}");
        let p = m.predict(&[0.40, 0.41, 0.42, 0.43, 0.44]);
        assert!((p - 0.45).abs() < 0.08, "ramp prediction {p}");
    }

    #[test]
    fn training_is_deterministic() {
        let series: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin() * 0.4 + 0.5).collect();
        let mut a = LstmModel::new(8, 5, 7);
        let mut b = LstmModel::new(8, 5, 7);
        a.fit_series(&series, 10, 0.05);
        b.fit_series(&series, 10, 0.05);
        let w = [0.5, 0.6, 0.7, 0.6, 0.5];
        assert_eq!(a.predict(&w), b.predict(&w));
    }

    #[test]
    #[should_panic(expected = "window length mismatch")]
    fn wrong_window_panics() {
        LstmModel::new(4, 5, 0).predict(&[0.0; 3]);
    }

    #[test]
    fn gradients_reduce_loss() {
        // Single step on a fixed pair must reduce squared error.
        let mut m = LstmModel::new(8, 5, 9);
        let w = [0.3, 0.4, 0.5, 0.6, 0.7];
        let before = {
            let p = m.predict(&w);
            (p - 0.8) * (p - 0.8)
        };
        for _ in 0..20 {
            m.train_step(&w, 0.8, 0.05);
        }
        let after = {
            let p = m.predict(&w);
            (p - 0.8) * (p - 0.8)
        };
        assert!(after < before, "loss must fall: {before} -> {after}");
    }
}
