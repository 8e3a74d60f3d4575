//! Dense layers, activations, SGD training and the closed-form fit.
//!
//! Everything the Delphi stack needs: a [`Dense`] layer (weights, bias,
//! activation and an inference pass), a [`Sequential`] container with
//! per-layer freezing (the paper sets pre-trained feature models "to be
//! untrainable") trained on MSE loss by one backprop path,
//! [`Sequential::batch_grads`] + [`Sequential::apply_grads`], and
//! [`least_squares`]. The test module holds backprop to a
//! finite-difference gradient check.

use crate::tensor::Matrix;
use rand::rngs::StdRng;
use rand::RngExt;

/// Activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    Linear,
    /// max(0, x).
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Apply the activation.
    pub fn apply(&self, x: f64) -> f64 {
        match self {
            Activation::Linear => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
        }
    }

    /// Derivative expressed in terms of the activation *output* `y`.
    pub fn derivative_from_output(&self, y: f64) -> f64 {
        match self {
            Activation::Linear => 1.0,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
        }
    }
}

/// A fully connected layer `y = act(x·W + b)`.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weights, `in × out`.
    pub weights: Matrix,
    /// Bias, `1 × out`.
    pub bias: Matrix,
    /// Activation applied to the affine output.
    pub activation: Activation,
    /// When false, gradients are computed through but not applied to this
    /// layer (the paper's frozen feature models).
    pub trainable: bool,
}

impl Dense {
    /// Create a layer with small random weights (Xavier-ish scale).
    pub fn new(inputs: usize, outputs: usize, activation: Activation, rng: &mut StdRng) -> Self {
        let scale = (1.0 / inputs as f64).sqrt();
        Self {
            weights: Matrix::from_fn(inputs, outputs, |_, _| rng.random_range(-scale..scale)),
            bias: Matrix::zeros(1, outputs),
            activation,
            trainable: true,
        }
    }

    /// Input width.
    pub fn inputs(&self) -> usize {
        self.weights.rows()
    }

    /// Output width.
    pub fn outputs(&self) -> usize {
        self.weights.cols()
    }

    /// Trainable + frozen parameter count.
    pub fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Forward pass (inference).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.infer_into(x, &mut out);
        out
    }

    /// Allocation-free inference into a caller-owned buffer.
    pub fn infer_into(&self, x: &Matrix, out: &mut Matrix) {
        let act = self.activation;
        x.matmul_bias_act_into(&self.weights, &self.bias, |v| act.apply(v), out);
    }
}

/// Per-layer activation and gradient buffers for one full-batch backprop
/// pass. Caller-owned and reused across epochs/shards so sharded training
/// does not allocate per epoch beyond first-use sizing.
#[derive(Debug, Clone, Default)]
pub struct GradBuffer {
    /// `acts[i]` = output of layer `i` (`acts.last()` is the prediction).
    acts: Vec<Matrix>,
    /// `(dW, db)` per layer.
    grads: Vec<(Matrix, Matrix)>,
    dz: Matrix,
    // Ping-pong dL/dx chain buffers.
    dxa: Matrix,
    dxb: Matrix,
}

/// A stack of dense layers trained with SGD on MSE loss.
#[derive(Debug, Clone, Default)]
pub struct Sequential {
    layers: Vec<Dense>,
    // Reused by train_step so repeated steps don't allocate.
    train_buf: GradBuffer,
}

impl Sequential {
    /// An empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a layer.
    pub fn push(&mut self, layer: Dense) {
        if let Some(prev) = self.layers.last() {
            assert_eq!(prev.outputs(), layer.inputs(), "layer width mismatch");
        }
        self.layers.push(layer);
    }

    /// The layers.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable access (e.g. to freeze layers).
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Trainable parameter count.
    pub fn trainable_param_count(&self) -> usize {
        self.layers.iter().filter(|l| l.trainable).map(Dense::param_count).sum()
    }

    /// Forward without caching (inference).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let Some((first, rest)) = self.layers.split_first() else {
            return x.clone();
        };
        rest.iter().fold(first.infer(x), |a, layer| layer.infer(&a))
    }

    /// Full-batch forward + backward against the **current** weights with
    /// no update applied; activations and per-layer `(dW, db)` land in
    /// `buf` (overwritten). Returns the batch MSE.
    ///
    /// Takes `&self`, so [`Sequential::fit_sharded`] computes every
    /// shard's gradient against the same epoch-start weights.
    pub fn batch_grads(&self, x: &Matrix, y: &Matrix, buf: &mut GradBuffer) -> f64 {
        let n_layers = self.layers.len();
        buf.acts.resize(n_layers, Matrix::default());
        buf.grads.resize(n_layers, (Matrix::default(), Matrix::default()));
        // Forward, keeping every activation.
        for i in 0..n_layers {
            let (done, rest) = buf.acts.split_at_mut(i);
            let input = if i == 0 { x } else { &done[i - 1] };
            self.layers[i].infer_into(input, &mut rest[0]);
        }
        let pred = if n_layers == 0 { x } else { &buf.acts[n_layers - 1] };
        let n = (pred.rows() * pred.cols()) as f64;
        let loss =
            pred.data().iter().zip(y.data()).map(|(p, t)| (p - t) * (p - t)).sum::<f64>() / n;
        // dMSE/dpred = 2(pred - y)/n, then backprop; `dxa` always holds the
        // incoming dL/dy for the current layer.
        pred.sub_scale_into(y, 2.0 / n, &mut buf.dxa);
        for i in (0..n_layers).rev() {
            let layer = &self.layers[i];
            let act = layer.activation;
            buf.dxa.hadamard_map_into(&buf.acts[i], |v| act.derivative_from_output(v), &mut buf.dz);
            let input = if i == 0 { x } else { &buf.acts[i - 1] };
            let (dw, db) = &mut buf.grads[i];
            input.matmul_at_into(&buf.dz, dw);
            buf.dz.sum_rows_into(db);
            buf.dz.matmul_bt_into(&layer.weights, &mut buf.dxb);
            std::mem::swap(&mut buf.dxa, &mut buf.dxb);
        }
        loss
    }

    /// Apply buffered gradients: `W += dW·k` (and bias) for every
    /// trainable layer. `k = -lr` performs one SGD step.
    ///
    /// # Panics
    /// Panics when `buf` was filled against a different architecture.
    pub fn apply_grads(&mut self, buf: &GradBuffer, k: f64) {
        assert_eq!(buf.grads.len(), self.layers.len(), "grad buffer layer mismatch");
        for (l, (dw, db)) in self.layers.iter_mut().zip(&buf.grads) {
            if l.trainable {
                l.weights.add_scaled_in_place(dw, k);
                l.bias.add_scaled_in_place(db, k);
            }
        }
    }

    /// One SGD step on a batch; returns the batch MSE before the update.
    pub fn train_step(&mut self, x: &Matrix, y: &Matrix, lr: f64) -> f64 {
        let mut buf = std::mem::take(&mut self.train_buf);
        let loss = self.batch_grads(x, y, &mut buf);
        self.apply_grads(&buf, -lr);
        self.train_buf = buf;
        loss
    }

    /// Train for `epochs` full-batch passes; returns final loss.
    pub fn fit(&mut self, x: &Matrix, y: &Matrix, lr: f64, epochs: usize) -> f64 {
        let mut loss = f64::INFINITY;
        for _ in 0..epochs {
            loss = self.train_step(x, y, lr);
        }
        loss
    }

    /// Mean squared error of predictions on `(x, y)`.
    pub fn mse(&self, x: &Matrix, y: &Matrix) -> f64 {
        let pred = self.infer(x);
        let n = (pred.rows() * pred.cols()) as f64;
        pred.sub(y).data().iter().map(|v| v * v).sum::<f64>() / n
    }

    /// Deterministic sharded full-batch training. Each epoch shards the
    /// rows into contiguous blocks, computes every shard's gradient
    /// against the epoch-start weights, then applies them in ascending
    /// shard order, weighting each shard by its row fraction. The shard
    /// plan fixes the bits of the result: a different `shards` count
    /// re-associates the reduction. Returns the final epoch's loss
    /// (measured at the epoch-start weights, like [`Sequential::fit`]).
    ///
    /// # Panics
    /// Panics on empty data or row-count mismatch.
    pub fn fit_sharded(
        &mut self,
        x: &Matrix,
        y: &Matrix,
        lr: f64,
        epochs: usize,
        shards: usize,
    ) -> f64 {
        let rows = x.rows();
        assert!(rows > 0, "fit_sharded needs data");
        assert_eq!(y.rows(), rows, "fit_sharded shape mismatch");
        let shards = shards.clamp(1, rows);
        // Contiguous row blocks; the first `rem` shards take one extra row.
        let base = rows / shards;
        let rem = rows % shards;
        let mut blocks: Vec<(Matrix, Matrix)> = Vec::with_capacity(shards);
        let mut start = 0;
        for s in 0..shards {
            let len = base + usize::from(s < rem);
            let xs = Matrix::from_fn(len, x.cols(), |r, c| x.get(start + r, c));
            let ys = Matrix::from_fn(len, y.cols(), |r, c| y.get(start + r, c));
            blocks.push((xs, ys));
            start += len;
        }
        let fractions: Vec<f64> =
            blocks.iter().map(|(bx, _)| bx.rows() as f64 / rows as f64).collect();
        // Per-shard (gradient buffer, loss), reused across epochs.
        let mut grads: Vec<(GradBuffer, f64)> =
            (0..shards).map(|_| (GradBuffer::default(), 0.0)).collect();
        let mut loss = f64::INFINITY;
        for _ in 0..epochs {
            for ((bx, by), (buf, l)) in blocks.iter().zip(&mut grads) {
                *l = self.batch_grads(bx, by, buf);
            }
            loss = 0.0;
            for ((buf, l), frac) in grads.iter().zip(&fractions) {
                loss += l * frac;
                self.apply_grads(buf, -lr * frac);
            }
        }
        loss
    }
}

/// Solve a ridge-regularized least-squares fit `y ≈ x·w + b` in closed
/// form via the normal equations (Gaussian elimination with partial
/// pivoting on the augmented system). Returns `(weights, bias)`.
///
/// The Delphi feature models and combiner are single linear layers, so
/// this gives their exact optimum instantly — SGD is kept for the
/// non-linear [`Sequential`] paths.
///
/// # Panics
/// Panics on shape mismatch or an empty dataset.
pub fn least_squares(x: &Matrix, y: &Matrix, ridge: f64) -> (Matrix, f64) {
    let n = x.rows();
    let d = x.cols();
    assert!(n > 0, "least_squares needs data");
    assert_eq!(y.rows(), n, "least_squares shape mismatch");
    assert_eq!(y.cols(), 1, "least_squares expects one target column");
    // Augmented design matrix [x | 1].
    let da = d + 1;
    // A = XᵀX + ridge·I (no ridge on the bias), rhs = Xᵀy.
    let mut a = vec![0.0f64; da * da];
    let mut rhs = vec![0.0f64; da];
    for r in 0..n {
        for i in 0..da {
            let xi = if i < d { x.get(r, i) } else { 1.0 };
            rhs[i] += xi * y.get(r, 0);
            for j in 0..da {
                let xj = if j < d { x.get(r, j) } else { 1.0 };
                a[i * da + j] += xi * xj;
            }
        }
    }
    for i in 0..d {
        a[i * da + i] += ridge;
    }
    // Gaussian elimination with partial pivoting.
    for col in 0..da {
        let mut pivot = col;
        for r in col + 1..da {
            if a[r * da + col].abs() > a[pivot * da + col].abs() {
                pivot = r;
            }
        }
        if a[pivot * da + col].abs() < 1e-12 {
            continue; // singular direction; ridge usually prevents this
        }
        if pivot != col {
            for j in 0..da {
                a.swap(col * da + j, pivot * da + j);
            }
            rhs.swap(col, pivot);
        }
        let diag = a[col * da + col];
        for r in 0..da {
            if r == col {
                continue;
            }
            let factor = a[r * da + col] / diag;
            if factor == 0.0 {
                continue;
            }
            for j in col..da {
                a[r * da + j] -= factor * a[col * da + j];
            }
            rhs[r] -= factor * rhs[col];
        }
    }
    let mut sol = vec![0.0f64; da];
    for i in 0..da {
        let diag = a[i * da + i];
        sol[i] = if diag.abs() < 1e-12 { 0.0 } else { rhs[i] / diag };
    }
    let bias = sol[d];
    (Matrix::from_vec(d, 1, sol[..d].to_vec()), bias)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    /// Finite-difference gradient check of a `Sequential` at input `x`,
    /// target `y`: the oracle that holds `batch_grads` to the loss it
    /// differentiates. Returns the maximum relative error between analytic
    /// and numeric weight gradients over every trainable layer.
    fn gradient_check(model: &Sequential, x: &Matrix, y: &Matrix, eps: f64) -> f64 {
        let mut worst: f64 = 0.0;
        let loss_of = |m: &Sequential| m.mse(x, y);

        // Analytic gradients for every weight at once: one batch_grads pass.
        let mut grads = GradBuffer::default();
        model.batch_grads(x, y, &mut grads);

        // Numeric gradients: one scratch clone, each probed entry perturbed
        // and restored in place.
        let mut perturbed = model.clone();
        for li in 0..model.layers().len() {
            if !model.layers()[li].trainable {
                continue;
            }
            for wi in 0..model.layers()[li].weights.len() {
                let orig = model.layers()[li].weights.data()[wi];
                perturbed.layers_mut()[li].weights.data_mut()[wi] = orig + eps;
                let plus = loss_of(&perturbed);
                perturbed.layers_mut()[li].weights.data_mut()[wi] = orig - eps;
                let minus = loss_of(&perturbed);
                perturbed.layers_mut()[li].weights.data_mut()[wi] = orig;
                let numeric = (plus - minus) / (2.0 * eps);

                let analytic = grads.grads[li].0.data()[wi];
                let denom = numeric.abs().max(analytic.abs()).max(1e-8);
                worst = worst.max((numeric - analytic).abs() / denom);
            }
        }
        worst
    }

    #[test]
    fn activations() {
        assert_eq!(Activation::Linear.apply(-3.0), -3.0);
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert!((Activation::Tanh.apply(0.0)).abs() < 1e-12);
    }

    #[test]
    fn activation_derivatives() {
        // sigmoid'(0) = 0.25 given y = 0.5
        assert!((Activation::Sigmoid.derivative_from_output(0.5) - 0.25).abs() < 1e-12);
        assert_eq!(Activation::Relu.derivative_from_output(2.0), 1.0);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
        assert_eq!(Activation::Linear.derivative_from_output(123.0), 1.0);
        assert!((Activation::Tanh.derivative_from_output(0.5) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn dense_param_count() {
        let d = Dense::new(5, 1, Activation::Linear, &mut rng());
        assert_eq!(d.param_count(), 6);
        let d2 = Dense::new(8, 4, Activation::Relu, &mut rng());
        assert_eq!(d2.param_count(), 36);
    }

    #[test]
    fn single_linear_layer_learns_linear_map() {
        // y = 2a - 3b + 1
        let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let y = Matrix::from_vec(4, 1, vec![1.0, 3.0, -2.0, 0.0]);
        let mut m = Sequential::new();
        m.push(Dense::new(2, 1, Activation::Linear, &mut rng()));
        let loss = m.fit(&x, &y, 0.1, 2000);
        assert!(loss < 1e-8, "loss {loss}");
        let w = &m.layers()[0].weights;
        assert!((w.get(0, 0) - 2.0).abs() < 1e-3);
        assert!((w.get(1, 0) + 3.0).abs() < 1e-3);
        assert!((m.layers()[0].bias.get(0, 0) - 1.0).abs() < 1e-3);
        assert_eq!(Sequential::new().infer(&x), x, "no layers: passthrough");
    }

    #[test]
    fn two_layer_network_learns_xor() {
        let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let y = Matrix::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]);
        let mut m = Sequential::new();
        let mut r = rng();
        m.push(Dense::new(2, 8, Activation::Tanh, &mut r));
        m.push(Dense::new(8, 1, Activation::Sigmoid, &mut r));
        let loss = m.fit(&x, &y, 0.5, 5000);
        assert!(loss < 0.01, "XOR loss {loss}");
    }

    #[test]
    fn frozen_layer_does_not_move() {
        let x = Matrix::from_vec(2, 1, vec![1.0, 2.0]);
        let y = Matrix::from_vec(2, 1, vec![3.0, 5.0]);
        let mut m = Sequential::new();
        let mut r = rng();
        m.push(Dense::new(1, 4, Activation::Tanh, &mut r));
        m.push(Dense::new(4, 1, Activation::Linear, &mut r));
        m.layers_mut()[0].trainable = false;
        let frozen_before = m.layers()[0].weights.clone();
        m.fit(&x, &y, 0.05, 200);
        assert_eq!(m.layers()[0].weights, frozen_before, "frozen weights must not change");
        assert_eq!(m.trainable_param_count(), 5);
        assert_eq!(m.param_count(), 4 + 4 + 4 + 1);
    }

    #[test]
    fn gradient_check_passes_for_small_network() {
        let mut r = rng();
        let mut m = Sequential::new();
        m.push(Dense::new(3, 4, Activation::Tanh, &mut r));
        m.push(Dense::new(4, 1, Activation::Linear, &mut r));
        let x = Matrix::from_vec(2, 3, vec![0.1, -0.2, 0.3, 0.5, 0.4, -0.6]);
        let y = Matrix::from_vec(2, 1, vec![0.2, -0.1]);
        let err = gradient_check(&m, &x, &y, 1e-5);
        assert!(err < 1e-3, "gradient check rel-err {err}");
    }

    #[test]
    #[should_panic(expected = "layer width mismatch")]
    fn sequential_rejects_width_mismatch() {
        let mut m = Sequential::new();
        let mut r = rng();
        m.push(Dense::new(2, 3, Activation::Linear, &mut r));
        m.push(Dense::new(4, 1, Activation::Linear, &mut r));
    }

    #[test]
    fn batch_grads_plus_apply_matches_train_step() {
        let mut r = rng();
        let mut a = Sequential::new();
        a.push(Dense::new(3, 5, Activation::Tanh, &mut r));
        a.push(Dense::new(5, 1, Activation::Linear, &mut r));
        let mut b = a.clone();
        let x = Matrix::from_vec(4, 3, (0..12).map(|i| (i as f64 * 0.37).sin()).collect());
        let y = Matrix::from_vec(4, 1, vec![0.1, -0.2, 0.3, 0.0]);
        let la = a.train_step(&x, &y, 0.05);
        let mut buf = GradBuffer::default();
        let lb = b.batch_grads(&x, &y, &mut buf);
        b.apply_grads(&buf, -0.05);
        assert_eq!(la, lb);
        for (al, bl) in a.layers().iter().zip(b.layers()) {
            assert_eq!(al.weights, bl.weights);
            assert_eq!(al.bias, bl.bias);
        }
    }

    #[test]
    fn fit_sharded_converges() {
        // y = 2a - 3b + 1, same target as the SGD test; the sharded
        // full-batch path must also learn it.
        let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let y = Matrix::from_vec(4, 1, vec![1.0, 3.0, -2.0, 0.0]);
        let mut m = Sequential::new();
        m.push(Dense::new(2, 1, Activation::Linear, &mut rng()));
        let loss = m.fit_sharded(&x, &y, 0.1, 2000, 3);
        assert!(loss < 1e-6, "sharded loss {loss}");
    }
}
