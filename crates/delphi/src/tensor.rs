//! Minimal dense matrix math for the Delphi models.
//!
//! A deliberately small, allocation-conscious `f64` matrix type — the
//! models here have between ~50 (Delphi) and ~72 k (LSTM baseline)
//! parameters, so clarity and correctness beat BLAS-level tuning.

/// A row-major dense matrix of `f64`.
///
/// The default value is an empty `0 × 0` matrix — the idle state of a
/// reusable scratch buffer (`std::mem::take` swaps one out, the `*_into`
/// kernels size it on first use, and steady-state reuse never allocates).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Build from a row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Self { rows, cols, data }
    }

    /// A 1×n row vector.
    pub fn row_vector(data: Vec<f64>) -> Self {
        let cols = data.len();
        Self { rows: 1, cols, data }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// One row as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshape in place to `rows × cols`, reusing the existing allocation.
    /// Grows the backing store only when the new shape exceeds the current
    /// capacity; steady-state calls with a stable shape never allocate.
    /// Element contents after a resize are unspecified (kernels overwrite).
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Zero every element without changing shape or capacity.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Matrix product `self × rhs`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dims: {}x{} × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[r * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let out_row = &mut out.data[r * rhs.cols..(r + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// [`Matrix::matmul`] into a caller-owned output buffer (no
    /// allocation once `out` has capacity). Bit-identical to `matmul`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dims: {}x{} × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize(self.rows, rhs.cols);
        out.fill_zero();
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[r * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let out_row = &mut out.data[r * rhs.cols..(r + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
    }

    /// Fused `act(self × rhs + bias)` — matmul, row-broadcast bias add and
    /// activation in one pass over the output, no intermediates.
    ///
    /// Accumulation runs in the same element order as
    /// `self.matmul(rhs).add_row_broadcast(bias).map(act)` (ascending `k`,
    /// skipping zero left-operands), so the result is **bit-identical** to
    /// that naive composition — the kernel-equivalence suite pins this.
    ///
    /// # Panics
    /// Panics on dimension mismatch or when `bias` is not `1 × rhs.cols`.
    pub fn matmul_bias_act_into(
        &self,
        rhs: &Matrix,
        bias: &Matrix,
        act: impl Fn(f64) -> f64,
        out: &mut Matrix,
    ) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dims: {}x{} × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, rhs.cols, "bias width mismatch");
        out.resize(self.rows, rhs.cols);
        out.fill_zero();
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[r * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let out_row = &mut out.data[r * rhs.cols..(r + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
            let out_row = &mut out.data[r * rhs.cols..(r + 1) * rhs.cols];
            for (o, &b) in out_row.iter_mut().zip(&bias.data) {
                *o = act(*o + b);
            }
        }
    }

    /// Allocating convenience wrapper over [`Matrix::matmul_bias_act_into`].
    pub fn matmul_bias_act(&self, rhs: &Matrix, bias: &Matrix, act: impl Fn(f64) -> f64) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_bias_act_into(rhs, bias, act, &mut out);
        out
    }

    /// `selfᵀ × rhs` without materializing the transpose: for `self`
    /// `m × n` and `rhs` `m × k`, writes the `n × k` product into `out`.
    /// Loops run over `self`'s and `rhs`'s contiguous rows (the reduction
    /// axis outermost), so both operands stream cache-friendly; the
    /// per-element accumulation order matches
    /// `self.transpose().matmul(rhs)` exactly (bit-identical).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matmul_at_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_at dims: {}x{}ᵀ × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize(self.cols, rhs.cols);
        out.fill_zero();
        for r in 0..self.rows {
            let lhs_row = &self.data[r * self.cols..(r + 1) * self.cols];
            let rhs_row = &rhs.data[r * rhs.cols..(r + 1) * rhs.cols];
            for (i, &a) in lhs_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
    }

    /// Allocating convenience wrapper over [`Matrix::matmul_at_into`].
    pub fn matmul_at(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_at_into(rhs, &mut out);
        out
    }

    /// `self × rhsᵀ` without materializing the transpose: for `self`
    /// `m × n` and `rhs` `k × n`, writes the `m × k` product into `out`.
    /// Each output element is a dot product of two contiguous rows; the
    /// accumulation order matches `self.matmul(&rhs.transpose())` exactly
    /// (ascending column, skipping zero left-operands — bit-identical).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matmul_bt_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_bt dims: {}x{} × {}x{}ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize(self.rows, rhs.rows);
        for r in 0..self.rows {
            let lhs_row = &self.data[r * self.cols..(r + 1) * self.cols];
            for j in 0..rhs.rows {
                let rhs_row = &rhs.data[j * rhs.cols..(j + 1) * rhs.cols];
                let mut acc = 0.0;
                for (&a, &b) in lhs_row.iter().zip(rhs_row) {
                    if a == 0.0 {
                        continue;
                    }
                    acc += a * b;
                }
                out.data[r * rhs.rows + j] = acc;
            }
        }
    }

    /// Allocating convenience wrapper over [`Matrix::matmul_bt_into`].
    pub fn matmul_bt(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_bt_into(rhs, &mut out);
        out
    }

    /// `out[i] = self[i] * f(rhs[i])` — the fused form of
    /// `self.hadamard(&rhs.map(f))` (backprop's `dL/dy ⊙ act'(y)`).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn hadamard_map_into(&self, rhs: &Matrix, f: impl Fn(f64) -> f64, out: &mut Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "hadamard shape mismatch");
        out.resize(self.rows, self.cols);
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&rhs.data) {
            *o = a * f(b);
        }
    }

    /// `out[i] = (self[i] - rhs[i]) * k` — the fused form of
    /// `self.sub(rhs).scale(k)` (the MSE gradient seed).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn sub_scale_into(&self, rhs: &Matrix, k: f64, out: &mut Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "sub shape mismatch");
        out.resize(self.rows, self.cols);
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&rhs.data) {
            *o = (a - b) * k;
        }
    }

    /// [`Matrix::sum_rows`] into a caller-owned `1 × cols` buffer.
    pub fn sum_rows_into(&self, out: &mut Matrix) {
        out.resize(1, self.cols);
        out.fill_zero();
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Elementwise sum.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "add shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Elementwise difference.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "sub shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "hadamard shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a * b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Scale every element.
    pub fn scale(&self, k: f64) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|v| v * k).collect() }
    }

    /// Apply a function to every element.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// In-place `self *= k` (used by gradient clipping).
    pub fn scale_in_place(&mut self, k: f64) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// In-place `self += rhs * k` (used by SGD updates).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_scaled_in_place(&mut self, rhs: &Matrix, k: f64) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "add_scaled shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b * k;
        }
    }

    /// Broadcast-add a 1×cols row vector to every row.
    ///
    /// # Panics
    /// Panics unless `bias` is `1 × self.cols`.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        Matrix::from_fn(self.rows, self.cols, |r, c| self.get(r, c) + bias.get(0, c))
    }

    /// Sum over rows → 1×cols (used for bias gradients).
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.get(r, c);
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!((m.rows(), m.cols(), m.len()), (2, 3, 6));
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "matmul dims")]
    fn matmul_dim_mismatch_panics() {
        Matrix::zeros(2, 3).matmul(&Matrix::zeros(2, 3));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!((t.rows(), t.cols()), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.hadamard(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.map(|v| v * v).data(), &[1.0, 4.0, 9.0]);
    }

    #[test]
    fn add_scaled_in_place_is_sgd_step() {
        let mut w = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let g = Matrix::from_vec(1, 2, vec![0.5, -0.5]);
        w.add_scaled_in_place(&g, -0.1);
        assert!((w.get(0, 0) - 0.95).abs() < 1e-12);
        assert!((w.get(0, 1) - 1.05).abs() < 1e-12);
    }

    #[test]
    fn broadcast_and_sum_rows() {
        let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::row_vector(vec![10.0, 20.0]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y.data(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(y.sum_rows().data(), &[24.0, 46.0]);
    }

    #[test]
    fn norm() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rows_and_resize_reuse() {
        let mut m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        m.row_mut(0)[2] = 9.0;
        assert_eq!(m.get(0, 2), 9.0);
        m.resize(1, 2);
        assert_eq!((m.rows(), m.cols(), m.len()), (1, 2, 2));
    }

    #[test]
    fn matmul_into_matches_matmul() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let mut out = Matrix::zeros(5, 5); // wrong shape on purpose: must resize
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn fused_matmul_bias_act_matches_naive_composition() {
        let x = Matrix::from_vec(2, 3, vec![0.5, -1.0, 0.0, 2.0, 0.25, -0.75]);
        let w = Matrix::from_vec(3, 2, vec![1.0, -2.0, 0.5, 0.0, -1.5, 3.0]);
        let b = Matrix::row_vector(vec![0.1, -0.2]);
        let act = |v: f64| v.max(0.0);
        let naive = x.matmul(&w).add_row_broadcast(&b).map(act);
        assert_eq!(x.matmul_bias_act(&w, &b, act), naive);
    }

    #[test]
    fn matmul_at_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 0.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 4, (0..12).map(|i| i as f64 * 0.5 - 2.0).collect());
        assert_eq!(a.matmul_at(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 0.0, 3.0, -4.0, 5.0, -6.0]);
        let b = Matrix::from_vec(4, 3, (0..12).map(|i| (i as f64).sin()).collect());
        assert_eq!(a.matmul_bt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn fused_elementwise_helpers_match_compositions() {
        let a = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]);
        let b = Matrix::from_vec(2, 2, vec![0.5, 0.25, -0.5, 1.0]);
        let f = |v: f64| 1.0 - v * v;
        let mut out = Matrix::zeros(0, 0);
        a.hadamard_map_into(&b, f, &mut out);
        assert_eq!(out, a.hadamard(&b.map(f)));
        a.sub_scale_into(&b, 0.5, &mut out);
        assert_eq!(out, a.sub(&b).scale(0.5));
        a.sum_rows_into(&mut out);
        assert_eq!(out, a.sum_rows());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn mat(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-10.0f64..10.0, rows * cols)
            .prop_map(move |v| Matrix::from_vec(rows, cols, v))
    }

    proptest! {
        #[test]
        fn matmul_associative(a in mat(2, 3), b in mat(3, 4), c in mat(4, 2)) {
            let left = a.matmul(&b).matmul(&c);
            let right = a.matmul(&b.matmul(&c));
            for (x, y) in left.data().iter().zip(right.data()) {
                prop_assert!((x - y).abs() < 1e-9);
            }
        }

        #[test]
        fn transpose_of_product_is_reversed_product(a in mat(3, 2), b in mat(2, 4)) {
            let lhs = a.matmul(&b).transpose();
            let rhs = b.transpose().matmul(&a.transpose());
            for (x, y) in lhs.data().iter().zip(rhs.data()) {
                prop_assert!((x - y).abs() < 1e-9);
            }
        }

        #[test]
        fn add_commutes(a in mat(3, 3), b in mat(3, 3)) {
            prop_assert_eq!(a.add(&b), b.add(&a));
        }
    }
}
