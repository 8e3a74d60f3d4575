//! A 1-D convolutional baseline (§2.2).
//!
//! The paper surveys CNN sequence models (Bai et al.) as an alternative
//! to RNNs for time-series forecasting but rejects both for Apollo's
//! low-overhead setting. This module provides that comparator: a small
//! temporal-convolution network — one [`Conv1d`] layer with ReLU over the
//! input window followed by a dense head — trained one-step-ahead with
//! backprop, so the Figure 11 comparison can include all three model
//! families (Delphi stack / LSTM / CNN).

use apollo_delphi::nn::Activation;
use apollo_delphi::tensor::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A 1-D convolution over the time axis: `channels` filters of width
/// `kernel`, valid padding, stride 1.
pub struct Conv1d {
    /// Filters, `channels × kernel`.
    weights: Matrix,
    /// Per-channel bias.
    bias: Vec<f64>,
    kernel: usize,
    channels: usize,
}

impl Conv1d {
    /// Create with small random weights.
    pub fn new(kernel: usize, channels: usize, rng: &mut StdRng) -> Self {
        assert!(kernel >= 1 && channels >= 1);
        let scale = (1.0 / kernel as f64).sqrt();
        Self {
            weights: Matrix::from_fn(channels, kernel, |_, _| rng.random_range(-scale..scale)),
            bias: vec![0.0; channels],
            kernel,
            channels,
        }
    }

    /// Output positions for an input of length `n`.
    pub fn out_len(&self, n: usize) -> usize {
        n + 1 - self.kernel
    }

    /// Parameter count.
    pub fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Forward pass into a caller-owned `channels × out_len` buffer of
    /// pre-activations; steady-state calls reuse its capacity and
    /// allocate nothing.
    fn forward_into(&self, x: &[f64], out: &mut Matrix) {
        let out_len = self.out_len(x.len());
        out.resize(self.channels, out_len);
        for c in 0..self.channels {
            let row = out.row_mut(c);
            for (t, slot) in row.iter_mut().enumerate() {
                let mut acc = self.bias[c];
                for k in 0..self.kernel {
                    acc += self.weights.get(c, k) * x[t + k];
                }
                *slot = acc;
            }
        }
    }
}

/// Reusable buffers for [`CnnModel::predict_into`] and the training
/// step: pre-activation map plus backprop temporaries.
#[derive(Debug, Clone, Default)]
pub struct CnnScratch {
    pre: Matrix,
    fm: Matrix,
    d_fm: Vec<f64>,
    d_w: Vec<f64>,
}

/// The CNN forecaster: Conv1d → ReLU → flatten → dense(1).
pub struct CnnModel {
    conv: Conv1d,
    /// Dense head over the flattened feature map.
    head_w: Matrix, // (channels*out_len) × 1
    head_b: f64,
    window: usize,
    // Reused by train_step so repeated steps allocate nothing.
    train_buf: CnnScratch,
}

impl CnnModel {
    /// Create an untrained model over windows of length `window`.
    pub fn new(window: usize, kernel: usize, channels: usize, seed: u64) -> Self {
        assert!(kernel <= window, "kernel must fit in the window");
        let mut rng = StdRng::seed_from_u64(seed);
        let conv = Conv1d::new(kernel, channels, &mut rng);
        let flat = channels * (window + 1 - kernel);
        let scale = (1.0 / flat as f64).sqrt();
        let head_w = Matrix::from_fn(flat, 1, |_, _| rng.random_range(-scale..scale));
        Self { conv, head_w, head_b: 0.0, window, train_buf: CnnScratch::default() }
    }

    /// Window length the model expects.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.conv.param_count() + self.head_w.len() + 1
    }

    /// Predict the next value of a window.
    pub fn predict(&self, window: &[f64]) -> f64 {
        let mut scratch = CnnScratch::default();
        self.predict_into(window, &mut scratch)
    }

    /// [`CnnModel::predict`] through caller-owned scratch: the ReLU and
    /// head dot product fuse over the pre-activation map, so steady-state
    /// calls allocate nothing.
    pub fn predict_into(&self, window: &[f64], scratch: &mut CnnScratch) -> f64 {
        assert_eq!(window.len(), self.window, "window length mismatch");
        self.conv.forward_into(window, &mut scratch.pre);
        let mut acc = self.head_b;
        for (v, w) in scratch.pre.data().iter().zip(self.head_w.data()) {
            acc += Activation::Relu.apply(*v) * w;
        }
        acc
    }

    /// One SGD step on a `(window, target)` pair; returns pre-update
    /// squared error.
    pub fn train_step(&mut self, window: &[f64], target: f64, lr: f64) -> f64 {
        assert_eq!(window.len(), self.window, "window length mismatch");
        let mut buf = std::mem::take(&mut self.train_buf);
        self.conv.forward_into(window, &mut buf.pre);
        buf.fm.resize(buf.pre.rows(), buf.pre.cols());
        for (f, p) in buf.fm.data_mut().iter_mut().zip(buf.pre.data()) {
            *f = Activation::Relu.apply(*p);
        }
        let mut pred = self.head_b;
        for (v, w) in buf.fm.data().iter().zip(self.head_w.data()) {
            pred += v * w;
        }
        let err = pred - target;
        let dpred = 2.0 * err;

        // Head gradients (flat index i = c*out_len + t).
        let out_len = self.conv.out_len(window.len());
        buf.d_fm.clear();
        buf.d_fm.extend(self.head_w.data().iter().map(|w| dpred * w));
        for (w, v) in self.head_w.data_mut().iter_mut().zip(buf.fm.data()) {
            *w -= lr * dpred * v;
        }
        self.head_b -= lr * dpred;

        // Through ReLU into the conv filters.
        for c in 0..self.conv.channels {
            let mut d_bias = 0.0;
            buf.d_w.clear();
            buf.d_w.resize(self.conv.kernel, 0.0);
            for t in 0..out_len {
                let idx = c * out_len + t;
                let relu_grad = if buf.pre.get(c, t) > 0.0 { 1.0 } else { 0.0 };
                let dz = buf.d_fm[idx] * relu_grad;
                d_bias += dz;
                for (k, d) in buf.d_w.iter_mut().enumerate() {
                    *d += dz * window[t + k];
                }
            }
            self.conv.bias[c] -= lr * d_bias;
            for (k, d) in buf.d_w.iter().enumerate() {
                let cur = self.conv.weights.get(c, k);
                self.conv.weights.set(c, k, cur - lr * d);
            }
        }
        self.train_buf = buf;
        err * err
    }

    /// Train on a series with sliding windows; returns final-epoch mean
    /// loss.
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
}

impl apollo_delphi::predictor::WindowModel for CnnModel {
    type Scratch = CnnScratch;

    fn window(&self) -> usize {
        self.window
    }

    fn predict_normalized(&self, window: &[f64]) -> f64 {
        self.predict(window)
    }

    fn predict_normalized_into(&self, window: &[f64], scratch: &mut Self::Scratch) -> f64 {
        self.predict_into(window, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_param_count() {
        let m = CnnModel::new(5, 3, 4, 0);
        // conv: 4×3 + 4 bias = 16; head: 4×(5-3+1)=12 weights + 1 = 13.
        assert_eq!(m.param_count(), 16 + 13);
        assert_eq!(m.window(), 5);
    }

    #[test]
    #[should_panic(expected = "kernel must fit")]
    fn oversized_kernel_panics() {
        CnnModel::new(3, 5, 2, 0);
    }

    #[test]
    fn untrained_prediction_finite() {
        let m = CnnModel::new(5, 3, 4, 1);
        assert!(m.predict(&[0.1, 0.2, 0.3, 0.4, 0.5]).is_finite());
    }

    #[test]
    fn learns_constant_series() {
        let mut m = CnnModel::new(5, 3, 4, 2);
        let series = vec![0.5; 80];
        let loss = m.fit_series(&series, 150, 0.02);
        assert!(loss < 1e-3, "constant loss {loss}");
        let p = m.predict(&[0.5; 5]);
        assert!((p - 0.5).abs() < 0.05, "prediction {p}");
    }

    #[test]
    fn learns_linear_ramp() {
        let mut m = CnnModel::new(5, 3, 8, 3);
        let series: Vec<f64> = (0..120).map(|i| i as f64 / 120.0).collect();
        let loss = m.fit_series(&series, 300, 0.02);
        assert!(loss < 5e-3, "ramp loss {loss}");
        let p = m.predict(&[0.40, 0.41, 0.42, 0.43, 0.44]);
        assert!((p - 0.45).abs() < 0.08, "ramp prediction {p}");
    }

    #[test]
    fn learns_alternating_series() {
        let mut m = CnnModel::new(5, 3, 8, 4);
        let series: Vec<f64> = (0..160).map(|i| if i % 2 == 0 { 0.2 } else { 0.8 }).collect();
        let loss = m.fit_series(&series, 250, 0.02);
        assert!(loss < 0.01, "alternating loss {loss}");
        let p = m.predict(&[0.2, 0.8, 0.2, 0.8, 0.2]);
        assert!((p - 0.8).abs() < 0.15, "prediction {p}");
    }

    #[test]
    fn training_reduces_loss_on_fixed_pair() {
        let mut m = CnnModel::new(5, 3, 4, 5);
        let w = [0.3, 0.4, 0.5, 0.6, 0.7];
        let before = {
            let p = m.predict(&w);
            (p - 0.8) * (p - 0.8)
        };
        for _ in 0..50 {
            m.train_step(&w, 0.8, 0.05);
        }
        let p = m.predict(&w);
        let after = (p - 0.8) * (p - 0.8);
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn predict_into_matches_predict_bitwise() {
        let mut m = CnnModel::new(5, 3, 4, 6);
        let series: Vec<f64> = (0..60).map(|i| (i as f64 * 0.2).sin() * 0.3 + 0.5).collect();
        m.fit_series(&series, 10, 0.02);
        let mut scratch = CnnScratch::default();
        for w in [[0.1, 0.2, 0.3, 0.4, 0.5], [0.5, 0.4, 0.3, 0.2, 0.1], [0.5; 5]] {
            assert_eq!(m.predict_into(&w, &mut scratch), m.predict(&w));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let series: Vec<f64> = (0..60).map(|i| (i as f64 * 0.2).sin() * 0.3 + 0.5).collect();
        let mut a = CnnModel::new(5, 3, 4, 9);
        let mut b = CnnModel::new(5, 3, 4, 9);
        a.fit_series(&series, 20, 0.02);
        b.fit_series(&series, 20, 0.02);
        let w = [0.5, 0.55, 0.6, 0.55, 0.5];
        assert_eq!(a.predict(&w), b.predict(&w));
    }
}
