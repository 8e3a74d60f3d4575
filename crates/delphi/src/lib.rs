//! # apollo-delphi
//!
//! The **Delphi** predictive model of Apollo (HPDC '21, §3.4.2) and the
//! LSTM baseline it is evaluated against (Figure 11), built from scratch —
//! this crate is the stand-in for the TensorFlow 2.3.1 + C-API dependency
//! of the original implementation.
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
//! The baseline ([`lstm`]) is a full LSTM (input/forget/output gates,
//! BPTT) sized to ~71 k parameters like the paper's per-metric baselines.
//!
//! Supporting modules: [`tensor`] (matrix math), [`nn`] (dense layers,
//! SGD, gradient checking), [`predictor`] (the online scale-invariant
//! wrapper monitor hooks call between polls), [`eval`] (RMSE/R²/inference
//! timing).

pub mod conv;
pub mod eval;
pub mod features;
pub mod lstm;
pub mod nn;
pub mod predictor;
pub mod simd;
pub mod stack;
pub mod tensor;

pub use conv::{CnnModel, CnnScratch};
pub use features::Feature;
pub use lstm::LstmModel;
pub use predictor::{OnlinePredictor, WindowTracker};
pub use stack::{Delphi, DelphiConfig, DelphiScratch, InferencePrecision};
