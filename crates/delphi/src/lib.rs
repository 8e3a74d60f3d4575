//! # apollo-delphi
//!
//! The **Delphi** predictive model of Apollo (HPDC '21, §3.4.2), built
//! from scratch — this crate is the stand-in for the TensorFlow 2.3.1 +
//! C-API dependency of the original implementation.
//!
//! Architecture (paper, Figure 3a):
//!
//! 1. Time-series data is assumed to decompose into **eight key features**
//!    (Lin et al.) — [`features`] generates a synthetic dataset per
//!    feature.
//! 2. For each feature, a lightweight **one-Dense-layer** network with a
//!    **window size of five** is trained on that feature alone
//!    ([`stack::FeatureModel`]).
//! 3. The pre-trained feature models are **frozen** ("set … to be
//!    untrainable") and stacked; a final **one-Dense trainable layer**
//!    learns to combine their predictions ([`stack::Delphi`]).
//!
//! Serving is one path: training packs the frozen stack into lowered
//! f32 tables once and every prediction — a single window or the
//! prediction pump's batch — runs the [`simd`] kernel over them. The f64
//! weights training produced stay reachable as one function,
//! [`Delphi::predict_exact`], the oracle the equivalence suites hold the
//! kernel to.
//!
//! Supporting modules: [`tensor`] (matrix math), [`nn`] (dense layers,
//! SGD, gradient checking), [`predictor`] (the online scale-invariant
//! wrapper monitor hooks call between polls), [`eval`] (RMSE/R²/inference
//! timing). The Figure 11 comparators (LSTM, CNN) live beside their
//! harness in `apollo-bench`.

pub mod eval;
pub mod features;
pub mod nn;
pub mod predictor;
pub mod simd;
pub mod stack;
pub mod tensor;

pub use features::Feature;
pub use predictor::{OnlinePredictor, WindowTracker};
pub use stack::{Delphi, DelphiConfig, DelphiScratch};
