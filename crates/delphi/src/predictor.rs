//! Scale-invariant windows for online prediction.
//!
//! The Delphi stack is trained on unit-scaled synthetic features; real
//! metrics live on wildly different scales (an NVMe capacity is ~10¹¹
//! bytes). [`WindowTracker`] keeps the last `window` observations and
//! min-max normalizes them; the model predicts the next normalized value,
//! which is then denormalized. The prediction pump in `apollo-core` stages
//! its vertices' windows this way to emit *predicted* records between
//! measurements (§3.1: "Delphi … predicts Facts for Fact Vertices and
//! Insights for Insight Vertices between the monitoring intervals").
//! [`OnlinePredictor`] is the same scheme for one series at a time — the
//! per-vertex replay the pump's output is checked against.

use std::collections::VecDeque;

/// A model that maps a normalized window to the next normalized value.
pub trait WindowModel: Send + Sync {
    /// Caller-owned scratch for allocation-free prediction. Models
    /// without a buffered fast path use `()`.
    type Scratch: Default + Send;
    /// Expected window length.
    fn window(&self) -> usize;
    /// Predict the next value of a unit-scaled window.
    fn predict_normalized(&self, window: &[f64]) -> f64;
    /// [`WindowModel::predict_normalized`] through reusable scratch;
    /// the default just forwards to the allocating path.
    fn predict_normalized_into(&self, window: &[f64], _scratch: &mut Self::Scratch) -> f64 {
        self.predict_normalized(window)
    }
}

impl WindowModel for crate::stack::Delphi {
    type Scratch = crate::stack::DelphiScratch;

    fn window(&self) -> usize {
        self.window()
    }

    fn predict_normalized(&self, window: &[f64]) -> f64 {
        self.predict(window)
    }

    fn predict_normalized_into(&self, window: &[f64], scratch: &mut Self::Scratch) -> f64 {
        self.predict_into(window, scratch)
    }
}

/// Sliding min-max window state: the last `window` observations plus a
/// reusable normalization buffer. Extracted from [`OnlinePredictor`] so
/// the batched prediction pump in `apollo-core` can stage many vertices'
/// normalized windows without re-deriving the scheme.
#[derive(Debug, Clone, Default)]
pub struct WindowTracker {
    window: usize,
    history: VecDeque<f64>,
    normalized: Vec<f64>,
}

impl WindowTracker {
    /// Track windows of `window` observations.
    pub fn new(window: usize) -> Self {
        Self {
            window,
            history: VecDeque::with_capacity(window),
            normalized: Vec::with_capacity(window),
        }
    }

    /// Record a value, evicting the oldest once the window is full.
    pub fn observe(&mut self, value: f64) {
        if self.history.len() == self.window {
            self.history.pop_front();
        }
        self.history.push_back(value);
    }

    /// True once a full window is held.
    pub fn ready(&self) -> bool {
        self.history.len() == self.window
    }

    /// Min-max normalize the window into the internal reusable buffer.
    /// Returns `(normalized, lo, span)` — denormalize a prediction `p`
    /// with [`WindowTracker::denormalize`]`(lo, span, p)`. `None` until
    /// the window is full. A flat window (span == 0) yields a zero-filled
    /// buffer; since `lo + p·0 = lo`, any prediction denormalizes back to
    /// the flat value, so callers may skip the model entirely.
    ///
    /// Steady state this allocates nothing.
    pub fn normalized(&mut self) -> Option<(&[f64], f64, f64)> {
        if !self.ready() {
            return None;
        }
        self.normalized.resize(self.window, 0.0);
        let (lo, span) = normalize(&self.history, &mut self.normalized);
        Some((&self.normalized, lo, span))
    }

    /// [`WindowTracker::normalized`] written into a caller-owned row —
    /// how the batched pump normalizes straight into its staged batch
    /// instead of into a side buffer that is then copied. Returns
    /// `(lo, span)`; `None` (and `out` untouched) until the window is
    /// full.
    ///
    /// # Panics
    /// Panics if `out.len()` differs from the window length.
    pub fn normalized_into(&self, out: &mut [f64]) -> Option<(f64, f64)> {
        if !self.ready() {
            return None;
        }
        assert_eq!(out.len(), self.window, "row length differs from the window");
        Some(normalize(&self.history, out))
    }

    /// Map a normalized prediction back onto the metric's real scale.
    pub fn denormalize(lo: f64, span: f64, p: f64) -> f64 {
        lo + p * span
    }
}

/// Min-max normalize `history` into `out` (same length); returns
/// `(lo, span)`. A flat window (span == 0) zero-fills `out`.
fn normalize(history: &VecDeque<f64>, out: &mut [f64]) -> (f64, f64) {
    let lo = history.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = history.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = hi - lo;
    if span == 0.0 {
        out.fill(0.0);
    } else {
        for (o, v) in out.iter_mut().zip(history) {
            *o = (v - lo) / span;
        }
    }
    (lo, span)
}

/// Scale-invariant online wrapper around a [`WindowModel`].
pub struct OnlinePredictor<M: WindowModel> {
    model: M,
    tracker: WindowTracker,
    scratch: M::Scratch,
}

impl<M: WindowModel> OnlinePredictor<M> {
    /// Wrap a model.
    pub fn new(model: M) -> Self {
        let w = model.window();
        Self { model, tracker: WindowTracker::new(w), scratch: M::Scratch::default() }
    }

    /// Record a *measured* value (from a real poll).
    pub fn observe(&mut self, value: f64) {
        self.tracker.observe(value);
    }

    /// Predict the next value on the metric's real scale. Returns `None`
    /// until the window is full. Steady state this allocates nothing for
    /// models with a buffered fast path (e.g. the Delphi stack).
    ///
    /// A flat window (max == min) predicts the same flat value — the
    /// normalizer cannot invent variation, and a constant metric staying
    /// constant is the correct call.
    pub fn predict_next(&mut self) -> Option<f64> {
        let (normalized, lo, span) = self.tracker.normalized()?;
        if span == 0.0 {
            return Some(lo);
        }
        let p = self.model.predict_normalized_into(normalized, &mut self.scratch);
        Some(WindowTracker::denormalize(lo, span, p))
    }

    /// Predict, then feed the prediction back as pseudo-history so chained
    /// multi-step prediction is possible. Returns `None` until ready.
    pub fn predict_and_advance(&mut self) -> Option<f64> {
        let p = self.predict_next()?;
        self.observe(p);
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial model predicting the mean of the window.
    struct MeanModel(usize);

    impl WindowModel for MeanModel {
        type Scratch = ();

        fn window(&self) -> usize {
            self.0
        }

        fn predict_normalized(&self, window: &[f64]) -> f64 {
            window.iter().sum::<f64>() / window.len() as f64
        }
    }

    #[test]
    fn not_ready_until_window_full() {
        let mut p = OnlinePredictor::new(MeanModel(3));
        assert_eq!(p.predict_next(), None);
        assert_eq!(p.predict_and_advance(), None, "nothing to chain from");
        p.observe(1.0);
        p.observe(2.0);
        assert_eq!(p.predict_next(), None, "window not yet full");
        p.observe(3.0);
        assert!(p.predict_next().is_some());
    }

    #[test]
    fn denormalization_restores_scale() {
        // Window [1e9, 2e9, 3e9]: normalized [0, 0.5, 1], mean = 0.5,
        // denormalized = 1e9 + 0.5 * 2e9 = 2e9.
        let mut p = OnlinePredictor::new(MeanModel(3));
        for v in [1e9, 2e9, 3e9] {
            p.observe(v);
        }
        let pred = p.predict_next().unwrap();
        assert!((pred - 2e9).abs() < 1.0);
    }

    #[test]
    fn flat_window_predicts_flat() {
        let mut p = OnlinePredictor::new(MeanModel(3));
        for _ in 0..3 {
            p.observe(42.0);
        }
        assert_eq!(p.predict_next(), Some(42.0));
    }

    #[test]
    fn window_slides() {
        let mut p = OnlinePredictor::new(MeanModel(2));
        p.observe(1.0);
        p.observe(2.0);
        p.observe(10.0); // evicts 1.0; window now [2, 10]
                         // normalized [0,1], mean 0.5 -> 2 + 0.5*8 = 6
        assert_eq!(p.predict_next(), Some(6.0));
    }

    #[test]
    fn predict_and_advance_chains() {
        let mut p = OnlinePredictor::new(MeanModel(2));
        p.observe(0.0);
        p.observe(1.0);
        let a = p.predict_and_advance().unwrap();
        assert!((a - 0.5).abs() < 1e-12);
        // history now [1.0, 0.5]
        let b = p.predict_and_advance().unwrap();
        assert!((b - 0.75).abs() < 1e-12);
    }

    #[test]
    fn tracker_normalizes_and_denormalizes() {
        let mut t = WindowTracker::new(3);
        assert!(t.normalized().is_none());
        for v in [1e9, 2e9, 3e9] {
            t.observe(v);
        }
        let (w, lo, span) = t.normalized().unwrap();
        assert_eq!(w, &[0.0, 0.5, 1.0]);
        assert_eq!((lo, span), (1e9, 2e9));
        assert_eq!(WindowTracker::denormalize(lo, span, 0.5), 2e9);
        // Flat window: zero-filled buffer, span 0, denorm is the identity.
        let mut flat = WindowTracker::new(2);
        flat.observe(7.0);
        flat.observe(7.0);
        let (w, lo, span) = flat.normalized().unwrap();
        assert_eq!(w, &[0.0, 0.0]);
        assert_eq!(WindowTracker::denormalize(lo, span, 0.9), 7.0);
    }

    #[test]
    fn normalized_into_writes_the_same_window_into_a_caller_row() {
        let mut t = WindowTracker::new(3);
        let mut row = [9.0; 3];
        t.observe(4.0);
        assert_eq!(t.normalized_into(&mut row), None);
        assert_eq!(row, [9.0; 3], "untouched until the window is full");
        for v in [1.0, 7.0, 3.0] {
            t.observe(v);
        }
        assert_eq!(t.normalized_into(&mut row), Some((1.0, 6.0)));
        let (w, lo, span) = t.normalized().unwrap();
        assert_eq!((w, lo, span), (&row[..], 1.0, 6.0));
    }

    #[test]
    fn works_with_real_delphi() {
        let config = crate::stack::DelphiConfig {
            feature_samples: 300,
            feature_epochs: 100,
            combiner_samples: 100,
            combiner_epochs: 100,
            ..Default::default()
        };
        let delphi = crate::stack::Delphi::train(config);
        let mut p = OnlinePredictor::new(delphi);
        // Feed a falling capacity-like series.
        for i in 0..5 {
            p.observe(1e11 - i as f64 * 38_000.0);
        }
        let pred = p.predict_next().unwrap();
        // Prediction stays in the neighbourhood of the window.
        assert!(pred > 1e11 - 10.0 * 38_000.0 && pred < 1e11 + 5.0 * 38_000.0, "pred {pred}");
    }
}
