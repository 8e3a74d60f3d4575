//! SIMD `f32` inference kernels with runtime dispatch.
//!
//! The f64 [`crate::tensor::Matrix`] kernels are the repo's **bit-exact
//! reference**: every equivalence/monitoring suite pins them, so they
//! must never change. This module is the opt-in fast path next to them —
//! a lowered `f32` kernel set selected through
//! [`crate::stack::InferencePrecision::SimdF32`], verified against the
//! f64 oracle under the explicit error budgets in [`budget`].
//!
//! # Lanes and dispatch tiers
//!
//! Kernels are written over [`F32x8`], a portable 8-wide lane struct
//! (one AVX2 `ymm` of `f32`) whose ops are plain element-wise loops.
//! Each public kernel has one `#[inline(always)]` body compiled twice:
//! once inside a `#[target_feature(enable = "avx2")]` wrapper (LLVM
//! turns the lane loops into `ymm` ops) and once without (the scalar
//! fallback). [`active_tier`] picks the wrapper at runtime via
//! `is_x86_feature_detected!("avx2")`, resolved once per process;
//! setting `APOLLO_DELPHI_FORCE_SCALAR=1` pins the scalar tier (the CI
//! concurrency-stress job runs the whole delphi suite that way).
//!
//! # Determinism contract
//!
//! Lane ops use separate multiply and add — never a fused multiply-add
//! — and reductions use a fixed pairwise tree, so **both tiers produce
//! bit-identical `f32` results**: the dispatch tier changes speed, never
//! values. The [`budget`] tolerances therefore only cover the f32-vs-f64
//! precision gap, not tier-to-tier drift. Kernels that vectorize across
//! *independent outputs* (`matmul_bias_act`, `matmul_at`, `lstm_gates`,
//! `conv1d`, `stack_forward`) additionally keep each output's
//! ascending-`k` accumulation order, so they are bit-identical to a
//! naive scalar `f32` loop; only the dot-product kernels (`dot`,
//! `matmul_bt`) reorder their reduction (8 lane partials + tree sum).

use crate::nn::Activation;
use std::sync::OnceLock;

/// Logical lane width of every kernel in this module (f32 lanes per
/// AVX2 register). Batch staging rounds up to this so tail rows stay
/// rare — see `PredictionPump`.
pub const LANES: usize = 8;

/// Which compiled kernel set [`active_tier`] resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchTier {
    /// Portable fallback: the same kernel bodies without AVX2 codegen.
    Scalar,
    /// AVX2-compiled kernel bodies (x86-64 with runtime-detected AVX2).
    Avx2,
}

impl DispatchTier {
    /// Stable name for logs/bench reports.
    pub fn name(self) -> &'static str {
        match self {
            DispatchTier::Scalar => "scalar",
            DispatchTier::Avx2 => "avx2",
        }
    }
}

/// The dispatch tier every kernel in this module runs on, resolved once
/// per process: `APOLLO_DELPHI_FORCE_SCALAR=1` pins [`DispatchTier::Scalar`],
/// otherwise AVX2 is used when the CPU reports it.
pub fn active_tier() -> DispatchTier {
    static TIER: OnceLock<DispatchTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        if std::env::var_os("APOLLO_DELPHI_FORCE_SCALAR").is_some_and(|v| v != "0") {
            return DispatchTier::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return DispatchTier::Avx2;
        }
        DispatchTier::Scalar
    })
}

/// Portable 8-wide f32 lane. All ops are plain element-wise loops —
/// inside an AVX2-enabled function LLVM lowers them to single `ymm`
/// instructions; elsewhere they compile to scalar code with identical
/// results (no FMA contraction, fixed reduction order).
#[derive(Debug, Clone, Copy)]
#[repr(align(32))]
pub struct F32x8(pub [f32; LANES]);

impl F32x8 {
    /// Broadcast one value to every lane.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        Self([v; LANES])
    }

    /// Load the first [`LANES`] elements of `s`.
    #[inline(always)]
    pub fn load(s: &[f32]) -> Self {
        let mut v = [0.0f32; LANES];
        v.copy_from_slice(&s[..LANES]);
        Self(v)
    }

    /// Store into the first [`LANES`] elements of `d`.
    #[inline(always)]
    pub fn store(self, d: &mut [f32]) {
        d[..LANES].copy_from_slice(&self.0);
    }

    /// `self + a * b`, as separate multiply then add per lane (never a
    /// fused multiply-add — see the module's determinism contract).
    #[inline(always)]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        let mut v = self.0;
        for ((slot, x), y) in v.iter_mut().zip(a.0).zip(b.0) {
            *slot += x * y;
        }
        Self(v)
    }

    /// Horizontal sum with a fixed pairwise tree:
    /// `((v0+v4)+(v2+v6)) + ((v1+v5)+(v3+v7))`.
    #[inline(always)]
    pub fn sum(self) -> f32 {
        let v = self.0;
        let a = [v[0] + v[4], v[1] + v[5], v[2] + v[6], v[3] + v[7]];
        (a[0] + a[2]) + (a[1] + a[3])
    }
}

/// Minimal row-major `f32` matrix for the lowered kernels (the f64
/// [`crate::tensor::Matrix`] stays the oracle type). `resize` reuses
/// capacity like its f64 counterpart so scratch reuse stays
/// allocation-free.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Mat32 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Mat32 {
    /// Build by lowering an f64 matrix element-wise.
    pub fn from_matrix(m: &crate::tensor::Matrix) -> Self {
        let mut out = Self::default();
        out.copy_lowered(m);
        out
    }

    /// Re-lower an f64 matrix into this buffer, reusing capacity.
    pub fn copy_lowered(&mut self, m: &crate::tensor::Matrix) {
        self.rows = m.rows();
        self.cols = m.cols();
        self.data.clear();
        self.data.extend(m.data().iter().map(|&v| v as f32));
    }

    /// Resize to `rows × cols`, reusing capacity; contents unspecified.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    #[inline(always)]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Set element at `(r, c)`.
    #[inline(always)]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline(always)]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline(always)]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat row-major data, mutable.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

/// Generates the dispatch trio for one kernel: the `#[inline(always)]`
/// body, an AVX2 `#[target_feature]` wrapper that inlines it with AVX2
/// codegen, and the public entry that picks a wrapper via
/// [`active_tier`]. Both compilations share one body, which is what
/// guarantees bit-identical results across tiers.
macro_rules! dispatched {
    (
        $(#[$meta:meta])*
        pub fn $name:ident / $body_name:ident / $avx_name:ident
            ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
        { $($body:tt)* }
    ) => {
        #[inline(always)]
        #[allow(clippy::too_many_arguments)]
        fn $body_name($($arg: $ty),*) $(-> $ret)? { $($body)* }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $avx_name($($arg: $ty),*) $(-> $ret)? { $body_name($($arg),*) }

        $(#[$meta])*
        #[allow(clippy::too_many_arguments)]
        pub fn $name($($arg: $ty),*) $(-> $ret)? {
            match active_tier() {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: the Avx2 tier is only resolved after
                // `is_x86_feature_detected!("avx2")` succeeded.
                DispatchTier::Avx2 => unsafe { $avx_name($($arg),*) },
                _ => $body_name($($arg),*),
            }
        }
    };
}

dispatched! {
    /// Lowered fused dense kernel: `out = act(x · w + bias)` with `x`
    /// `B×K`, `w` `K×N`, `bias` len `N`. Vectorizes across output
    /// columns; every column keeps the ascending-`k` accumulation order,
    /// so the result is bit-identical to a naive scalar f32 loop.
    /// Verified against the f64 oracle under [`budget::DENSE`].
    pub fn matmul_bias_act / matmul_bias_act_body / matmul_bias_act_avx2
        (x: &Mat32, w: &Mat32, bias: &[f32], act: Activation, out: &mut Mat32)
    {
        let (b, k, n) = (x.rows(), x.cols(), w.cols());
        assert_eq!(w.rows(), k, "inner dimension mismatch");
        assert_eq!(bias.len(), n, "bias width mismatch");
        out.resize(b, n);
        for r in 0..b {
            out.row_mut(r).copy_from_slice(bias);
            for kk in 0..k {
                let a = x.get(r, kk);
                let av = F32x8::splat(a);
                let wrow = w.row(kk);
                let orow = out.row_mut(r);
                let mut c = 0;
                while c + LANES <= n {
                    let acc = F32x8::load(&orow[c..]);
                    acc.mul_add(av, F32x8::load(&wrow[c..])).store(&mut orow[c..]);
                    c += LANES;
                }
                for cc in c..n {
                    orow[cc] += a * wrow[cc];
                }
            }
            for v in out.row_mut(r) {
                *v = act.apply_f32(*v);
            }
        }
    }
}

dispatched! {
    /// Lowered `aᵀ · b` with `a` stored transposed (`K×M`) and `b`
    /// `K×N`; `out` is `M×N`. Reduction axis outermost, vectorized
    /// across output columns with ascending-`k` order per output.
    /// Verified under [`budget::MATMUL_AT`].
    pub fn matmul_at / matmul_at_body / matmul_at_avx2
        (a: &Mat32, b: &Mat32, out: &mut Mat32)
    {
        let (k, m, n) = (a.rows(), a.cols(), b.cols());
        assert_eq!(b.rows(), k, "inner dimension mismatch");
        out.resize(m, n);
        out.data_mut().fill(0.0);
        for r in 0..k {
            for i in 0..m {
                let av = a.get(r, i);
                let avv = F32x8::splat(av);
                let brow = b.row(r);
                let orow = out.row_mut(i);
                let mut c = 0;
                while c + LANES <= n {
                    let acc = F32x8::load(&orow[c..]);
                    acc.mul_add(avv, F32x8::load(&brow[c..])).store(&mut orow[c..]);
                    c += LANES;
                }
                for cc in c..n {
                    orow[cc] += av * brow[cc];
                }
            }
        }
    }
}

dispatched! {
    /// Lowered `a · bᵀ` with `a` `M×K` and `b` stored transposed
    /// (`N×K`); `out` is `M×N`. Row-dot-row via [`dot`]'s lane-partial
    /// reduction — this kernel *reorders* the sum (8 partials + fixed
    /// tree), so it is tolerance-bounded only. Verified under
    /// [`budget::MATMUL_BT`].
    pub fn matmul_bt / matmul_bt_body / matmul_bt_avx2
        (a: &Mat32, b: &Mat32, out: &mut Mat32)
    {
        let (m, k, n) = (a.rows(), a.cols(), b.rows());
        assert_eq!(b.cols(), k, "inner dimension mismatch");
        out.resize(m, n);
        for r in 0..m {
            for j in 0..n {
                let v = dot_body(a.row(r), b.row(j));
                out.set(r, j, v);
            }
        }
    }
}

dispatched! {
    /// Dot product with 8 lane partials and a fixed pairwise tree sum
    /// plus an ascending scalar tail. Deterministic but *reordered*
    /// relative to a naive ascending sum — tolerance-bounded only.
    pub fn dot / dot_body / dot_avx2 (a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot length mismatch");
        let n = a.len();
        let mut acc = F32x8::splat(0.0);
        let mut c = 0;
        while c + LANES <= n {
            acc = acc.mul_add(F32x8::load(&a[c..]), F32x8::load(&b[c..]));
            c += LANES;
        }
        let mut tail = 0.0f32;
        for i in c..n {
            tail += a[i] * b[i];
        }
        acc.sum() + tail
    }
}

dispatched! {
    /// LSTM gate pre-activations for one timestep:
    /// `z = b + x·wx + h·wh` with scalar input `x`, hidden state `h`
    /// (len `H`), `wx`/`b`/`z` len `4H` (gates concatenated
    /// `[i | f | o | g]` along columns) and `wh` row-major `H×4H`.
    /// Vectorizes across the `4H` gate columns; each column keeps the
    /// fixed order `b + x·wx + Σ_j h[j]·wh[j]`, so the result is
    /// bit-identical to a scalar loop. Verified under [`budget::LSTM`].
    pub fn lstm_gates / lstm_gates_body / lstm_gates_avx2
        (x: f32, h: &[f32], wx: &[f32], wh: &[f32], b: &[f32], z: &mut [f32])
    {
        let g = z.len();
        assert_eq!(wx.len(), g, "wx width mismatch");
        assert_eq!(b.len(), g, "bias width mismatch");
        assert_eq!(wh.len(), h.len() * g, "wh shape mismatch");
        z.copy_from_slice(b);
        let xv = F32x8::splat(x);
        let mut c = 0;
        while c + LANES <= g {
            let acc = F32x8::load(&z[c..]);
            acc.mul_add(xv, F32x8::load(&wx[c..])).store(&mut z[c..]);
            c += LANES;
        }
        for cc in c..g {
            z[cc] += x * wx[cc];
        }
        for (j, &hj) in h.iter().enumerate() {
            let hv = F32x8::splat(hj);
            let row = &wh[j * g..(j + 1) * g];
            let mut c = 0;
            while c + LANES <= g {
                let acc = F32x8::load(&z[c..]);
                acc.mul_add(hv, F32x8::load(&row[c..])).store(&mut z[c..]);
                c += LANES;
            }
            for cc in c..g {
                z[cc] += hj * row[cc];
            }
        }
    }
}

dispatched! {
    /// Lowered 1-D valid convolution: `channels` filters of width
    /// `kernel` (`w` row-major `channels×kernel`) over `x`, stride 1;
    /// `out` is `channels × (len(x)+1-kernel)` of pre-activations.
    /// Vectorizes across output positions; each position keeps the
    /// ascending-`k` order `bias + Σ_k w[k]·x[t+k]`, bit-identical to a
    /// scalar loop. Verified under [`budget::CONV`].
    pub fn conv1d / conv1d_body / conv1d_avx2
        (x: &[f32], w: &[f32], bias: &[f32], channels: usize, kernel: usize, out: &mut Mat32)
    {
        assert!(kernel >= 1 && x.len() >= kernel, "kernel must fit in the input");
        assert_eq!(w.len(), channels * kernel, "filter shape mismatch");
        assert_eq!(bias.len(), channels, "bias width mismatch");
        let t_len = x.len() + 1 - kernel;
        out.resize(channels, t_len);
        for ch in 0..channels {
            let orow = out.row_mut(ch);
            orow.fill(bias[ch]);
            for kk in 0..kernel {
                let wv = w[ch * kernel + kk];
                let wvv = F32x8::splat(wv);
                let xs = &x[kk..kk + t_len];
                let mut t = 0;
                while t + LANES <= t_len {
                    let acc = F32x8::load(&orow[t..]);
                    acc.mul_add(wvv, F32x8::load(&xs[t..])).store(&mut orow[t..]);
                    t += LANES;
                }
                for tt in t..t_len {
                    orow[tt] += wv * xs[tt];
                }
            }
        }
    }
}

dispatched! {
    /// Fused Delphi stack forward over a *transposed* staged batch:
    /// `xt[k·rows + r]` holds window element `k` of batch row `r`, so
    /// the lanes run **across batch rows** (the stack's own output width
    /// is 1 — column-wise lanes would be useless). `fw`/`fb` are the
    /// frozen feature rows (`nfeat×window` + bias), `cw`/`cb` the
    /// combiner; `ft` (`nfeat×rows`, same transposed layout) receives
    /// the feature outputs and `out` (len `rows`) the combined
    /// predictions.
    ///
    /// Rows `0..rows - rows%LANES` run 8-wide; the remainder runs on an
    /// identical scalar-f32 chain (same ascending-`k` order), so each
    /// row's value is independent of its lane placement — batched,
    /// single, and tail results are bit-identical. Returns the
    /// scalar-tail row count (0 when `rows` is a lane multiple, which
    /// the `PredictionPump` guarantees by padding).
    pub fn stack_forward / stack_forward_body / stack_forward_avx2
        (window: usize, nfeat: usize, fw: &[f32], fb: &[f32], cw: &[f32], cb: f32,
         xt: &[f32], rows: usize, ft: &mut [f32], out: &mut [f32]) -> usize
    {
        assert_eq!(fw.len(), nfeat * window, "feature weight shape mismatch");
        assert_eq!(fb.len(), nfeat, "feature bias width mismatch");
        assert_eq!(cw.len(), nfeat, "combiner width mismatch");
        assert!(xt.len() >= window * rows, "staged batch too small");
        assert!(ft.len() >= nfeat * rows, "feature buffer too small");
        assert!(out.len() >= rows, "output buffer too small");
        let full = rows - rows % LANES;
        let mut r = 0;
        while r < full {
            for j in 0..nfeat {
                let mut acc = F32x8::splat(fb[j]);
                for k in 0..window {
                    acc = acc.mul_add(
                        F32x8::splat(fw[j * window + k]),
                        F32x8::load(&xt[k * rows + r..]),
                    );
                }
                acc.store(&mut ft[j * rows + r..]);
            }
            let mut acc = F32x8::splat(cb);
            for j in 0..nfeat {
                acc = acc.mul_add(F32x8::splat(cw[j]), F32x8::load(&ft[j * rows + r..]));
            }
            acc.store(&mut out[r..]);
            r += LANES;
        }
        for r in full..rows {
            for j in 0..nfeat {
                let mut acc = fb[j];
                for k in 0..window {
                    acc += fw[j * window + k] * xt[k * rows + r];
                }
                ft[j * rows + r] = acc;
            }
            let mut acc = cb;
            for j in 0..nfeat {
                acc += cw[j] * ft[j * rows + r];
            }
            out[r] = acc;
        }
        rows - full
    }
}

/// Per-kernel error budgets for the tolerance-bounded equivalence
/// suites: SIMD `f32` and int8 results are checked against the f64
/// scalar oracle with `|got - oracle| ≤ abs + ulps·ε₃₂·|oracle|`.
///
/// Derivation: with operands in `[-2, 2]` and reduction length `K ≤ 32`
/// (every proptest shape), sequential f32 summation error is bounded by
/// `K·ε₃₂·Σ|aᵢbᵢ| ≤ 32·ε₃₂·128 ≈ 5·10⁻⁴`, plus `Σ|ab|·ε₃₂ ≈ 1.5·10⁻⁵`
/// from lowering the f64 inputs — the `2·10⁻³` abs floors hold with
/// ~4× headroom. The LSTM budget is wider: its `H×4H` gate matvec sums
/// hundreds of terms per gate and the recurrence compounds over the
/// window. The int8 stack budget covers two symmetric-quantization
/// rounds (inputs and feature activations, ≤ `amax/254` ≈ 0.4% each)
/// amplified by the frozen weights on the unit-normalized scale.
pub mod budget {
    /// One kernel's error budget (see the module docs for the formula).
    #[derive(Debug, Clone, Copy)]
    pub struct Budget {
        /// Absolute error floor.
        pub abs: f64,
        /// Relative term in multiples of `f32::EPSILON`.
        pub ulps: f64,
    }

    impl Budget {
        /// Largest tolerated `|got - oracle|` for this oracle value.
        pub fn max_err(&self, oracle: f64) -> f64 {
            self.abs + self.ulps * f32::EPSILON as f64 * oracle.abs()
        }

        /// Whether `got` is within budget of `oracle`.
        pub fn within(&self, oracle: f64, got: f64) -> bool {
            (got - oracle).abs() <= self.max_err(oracle)
        }
    }

    /// [`super::matmul_bias_act`] vs the f64 fused kernel.
    pub const DENSE: Budget = Budget { abs: 2e-3, ulps: 1024.0 };
    /// [`super::matmul_at`] vs the f64 kernel.
    pub const MATMUL_AT: Budget = Budget { abs: 2e-3, ulps: 1024.0 };
    /// [`super::matmul_bt`] vs the f64 kernel (reordered reduction).
    pub const MATMUL_BT: Budget = Budget { abs: 2e-3, ulps: 1024.0 };
    /// [`super::conv1d`] vs a naive f64 convolution.
    pub const CONV: Budget = Budget { abs: 2e-3, ulps: 1024.0 };
    /// [`super::lstm_gates`] / `LstmF32` vs the f64 LSTM forward pass.
    pub const LSTM: Budget = Budget { abs: 5e-3, ulps: 4096.0 };
    /// `InferencePrecision::SimdF32` stack predictions vs `Exact`.
    pub const STACK_F32: Budget = Budget { abs: 1e-4, ulps: 1024.0 };
    /// `InferencePrecision::Int8` stack predictions vs `Exact`.
    pub const STACK_INT8: Budget = Budget { abs: 5e-2, ulps: 0.0 };

    /// Documented accuracy budget for the quantized path on the Fig-3c
    /// eval harness: the mean spread-normalized MAE delta between
    /// `Int8` and `Exact` across every device×metric trace must stay
    /// under this (gated in CI via `bench_results/delphi_simd.json`).
    pub const FIG3C_INT8_MAE_DELTA: f64 = 0.02;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn rand_mat32(rows: usize, cols: usize, rng: &mut StdRng) -> Mat32 {
        Mat32::from_matrix(&Matrix::from_fn(rows, cols, |_, _| rng.random_range(-2.0..2.0)))
    }

    /// The public dispatched entry must match the plain body bit-for-bit
    /// — on an AVX2 machine this pins the AVX2 wrapper against the
    /// scalar compilation of the same body (the determinism contract);
    /// on anything else it is trivially true.
    #[test]
    fn dispatch_tiers_are_bit_identical() {
        let mut rng = StdRng::seed_from_u64(0x51D);
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (3, 7, 2), (16, 5, 9), (8, 24, 17)] {
            let a = rand_mat32(m, k, &mut rng);
            let w = rand_mat32(k, n, &mut rng);
            let bias: Vec<f32> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
            let (mut via_dispatch, mut via_body) = (Mat32::default(), Mat32::default());
            matmul_bias_act(&a, &w, &bias, Activation::Tanh, &mut via_dispatch);
            matmul_bias_act_body(&a, &w, &bias, Activation::Tanh, &mut via_body);
            assert_eq!(via_dispatch, via_body, "dense ({m},{k},{n})");

            let at = rand_mat32(k, m, &mut rng);
            matmul_at(&at, &w, &mut via_dispatch);
            matmul_at_body(&at, &w, &mut via_body);
            assert_eq!(via_dispatch, via_body, "at ({m},{k},{n})");

            let bt = rand_mat32(n, k, &mut rng);
            matmul_bt(&a, &bt, &mut via_dispatch);
            matmul_bt_body(&a, &bt, &mut via_body);
            assert_eq!(via_dispatch, via_body, "bt ({m},{k},{n})");

            assert_eq!(dot(a.row(0), bt.row(0)), dot_body(a.row(0), bt.row(0)));
        }
    }

    #[test]
    fn lane_sum_uses_fixed_tree() {
        let v = F32x8([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(v.sum(), ((1.0 + 5.0) + (3.0 + 7.0)) + ((2.0 + 6.0) + (4.0 + 8.0)));
    }

    #[test]
    fn dense_is_bit_identical_to_naive_scalar_f32() {
        // Column-vectorized kernels keep per-output ascending-k order, so
        // they must equal a naive scalar f32 loop exactly, tails included.
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        for &(m, k, n) in &[(2usize, 3usize, 11usize), (4, 6, 8), (3, 5, 19)] {
            let x = rand_mat32(m, k, &mut rng);
            let w = rand_mat32(k, n, &mut rng);
            let bias: Vec<f32> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
            let mut out = Mat32::default();
            matmul_bias_act(&x, &w, &bias, Activation::Sigmoid, &mut out);
            for r in 0..m {
                for (c, &b0) in bias.iter().enumerate() {
                    let mut acc = b0;
                    for kk in 0..k {
                        acc += x.get(r, kk) * w.get(kk, c);
                    }
                    assert_eq!(out.get(r, c), Activation::Sigmoid.apply_f32(acc), "({r},{c})");
                }
            }
        }
    }

    #[test]
    fn stack_forward_rows_are_placement_independent() {
        // Row values must not depend on batch size or lane position:
        // staging the same window at B=1 (all-tail), B=8 (one lane), and
        // B=13 (lane + tail) yields identical bits in every slot.
        let (window, nfeat) = (5usize, 8usize);
        let mut rng = StdRng::seed_from_u64(0x57AC);
        let fw: Vec<f32> = (0..nfeat * window).map(|_| rng.random_range(-1.0..1.0)).collect();
        let fb: Vec<f32> = (0..nfeat).map(|_| rng.random_range(-0.5..0.5)).collect();
        let cw: Vec<f32> = (0..nfeat).map(|_| rng.random_range(-1.0..1.0)).collect();
        let cb = 0.125f32;
        let win: Vec<f32> = (0..window).map(|_| rng.random_range(0.0..1.0)).collect();
        let mut reference = f32::NAN;
        for rows in [1usize, 8, 13] {
            let mut xt = vec![0.0f32; window * rows];
            for r in 0..rows {
                for k in 0..window {
                    xt[k * rows + r] = win[k];
                }
            }
            let mut ft = vec![0.0f32; nfeat * rows];
            let mut out = vec![0.0f32; rows];
            let tail =
                stack_forward(window, nfeat, &fw, &fb, &cw, cb, &xt, rows, &mut ft, &mut out);
            assert_eq!(tail, rows % LANES, "tail count at rows={rows}");
            // The serving kernel's two tiers: dispatched (AVX2 where the
            // host has it) vs the scalar compilation of the same body.
            let mut out_body = vec![0.0f32; rows];
            stack_forward_body(window, nfeat, &fw, &fb, &cw, cb, &xt, rows, &mut ft, &mut out_body);
            assert!(
                out.iter().zip(&out_body).all(|(a, b)| a.to_bits() == b.to_bits()),
                "dispatch tiers diverge at rows={rows}"
            );
            if reference.is_nan() {
                reference = out[0];
            }
            for (r, &v) in out.iter().enumerate() {
                assert_eq!(v.to_bits(), reference.to_bits(), "row {r} at rows={rows}");
            }
        }
    }

    #[test]
    fn budgets_accept_exact_and_reject_gross_error() {
        assert!(budget::DENSE.within(1.0, 1.0));
        assert!(budget::DENSE.within(1.0, 1.0 + 1e-4));
        assert!(!budget::DENSE.within(1.0, 1.1));
        assert!(budget::STACK_INT8.within(0.5, 0.52));
        assert!(!budget::STACK_INT8.within(0.5, 0.6));
    }
}
