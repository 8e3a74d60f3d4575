//! # apollo-adaptive
//!
//! Apollo's **adaptive and dynamic monitoring interval** (HPDC '21,
//! §3.4.1): the interval controllers a fact vertex polls under.
//!
//! Two interval policies from the paper, plus the static baseline:
//!
//! * [`controller::FixedInterval`] — the fixed-interval strawman (the
//!   "fixed model of 5 seconds" of Figure 8).
//! * [`controller::SimpleAimd`] — *simple parameterized method*: Additive
//!   Increase, Multiplicative Decrease keyed on the change in metric value
//!   relative to a user-defined threshold.
//! * [`controller::ComplexAimd`] — *adaptive parameterized method*: the
//!   change is compared to a **rolling average of changes** (window 10 in
//!   the paper), so non-continuous metrics that bounce between discrete
//!   value groupings don't thrash the interval.
//!
//! As the paper's §6 future-work extension, [`entropy`] adds a
//! permutation-entropy controller ([`entropy::EntropyInterval`]) that
//! adapts to the *complexity* of the signal rather than single changes.
//!
//! Figures 8–10 score these controllers through the running service
//! (`apollo_bench::eval`), not in this crate.

pub mod controller;
pub mod entropy;

pub use controller::{
    AimdConfigError, AimdParams, ComplexAimd, FixedInterval, IntervalController, SimpleAimd,
};
pub use entropy::{EntropyInterval, EntropyParams};
