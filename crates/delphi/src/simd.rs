//! The lowered `f32` serving kernel, with runtime dispatch.
//!
//! The f64 [`crate::tensor::Matrix`] kernels are the repo's **bit-exact
//! reference**: training runs on them and
//! [`crate::stack::Delphi::predict_exact`] evaluates the trained stack on
//! them, so they must never change. This module is the serving path —
//! one fused kernel, [`stack_forward`], which every prediction runs and
//! every equivalence suite verifies against that f64 oracle under
//! [`budget::STACK_F32`].
//!
//! # Lanes and dispatch tiers
//!
//! The kernel is written over [`F32x8`], a portable 8-wide lane struct
//! (one AVX2 `ymm` of `f32`) whose ops are plain element-wise loops.
//! Its one `#[inline(always)]` body is compiled twice by `dispatched!`:
//! once inside a `#[target_feature(enable = "avx2")]` wrapper (LLVM turns
//! the lane loops into `ymm` ops) and once without (the scalar fallback).
//! [`active_tier`] picks the wrapper at runtime via
//! `is_x86_feature_detected!("avx2")`, resolved once per process;
//! setting `APOLLO_DELPHI_FORCE_SCALAR=1` pins the scalar tier — the
//! only tier on a host without AVX2, so the CI concurrency-stress job
//! runs the whole delphi suite that way.
//!
//! # Determinism contract
//!
//! Lane ops use separate multiply and add — never a fused multiply-add
//! — so **both tiers produce bit-identical `f32` results**: the dispatch
//! tier changes speed, never values, and [`budget::STACK_F32`] only
//! covers the f32-vs-f64 precision gap. The kernel vectorizes across
//! *independent outputs* (batch rows) and keeps each output's
//! ascending-`k` accumulation order, so it is also bit-identical to a
//! naive scalar `f32` loop.

use std::sync::OnceLock;

/// Logical lane width of the kernel in this module (f32 lanes per
/// AVX2 register). Batch staging rounds up to this so tail rows stay
/// rare — see `PredictionPump`.
pub const LANES: usize = 8;

/// Which compilation of the kernel [`active_tier`] resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchTier {
    /// Portable fallback: the same kernel body without AVX2 codegen.
    Scalar,
    /// AVX2-compiled kernel body (x86-64 with runtime-detected AVX2).
    Avx2,
}

/// The dispatch tier [`stack_forward`] runs on, resolved once
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
/// results (no FMA contraction).
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
}

/// Generates the dispatch trio for the kernel: the `#[inline(always)]`
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

/// The error budget for the tolerance-bounded equivalence suites: lowered
/// `f32` results are checked against the f64 scalar oracle with
/// `|got - oracle| ≤ abs + ulps·ε₃₂·|oracle|`.
///
/// Derivation: the stack reduces `window` (5) then `nfeat` (8) terms on
/// the unit-normalized scale, so with weights in `[-2, 2]` sequential f32
/// summation error is bounded by `K·ε₃₂·Σ|aᵢbᵢ| ≤ 8·ε₃₂·16 ≈ 1.5·10⁻⁵`
/// per tier, plus `Σ|ab|·ε₃₂ ≈ 2·10⁻⁶` from lowering the f64 inputs —
/// the `10⁻⁴` abs floor holds with ~3× headroom.
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

    /// Lowered stack predictions vs `Delphi::predict_exact`.
    pub const STACK_F32: Budget = Budget { abs: 1e-4, ulps: 1024.0 };
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

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
        assert!(budget::STACK_F32.within(1.0, 1.0));
        assert!(budget::STACK_F32.within(1.0, 1.0 + 1e-4));
        assert!(!budget::STACK_F32.within(1.0, 1.1));
    }
}
