//! Delphi prediction between polls: one kernel call per pump tick.
//!
//! A [`PredictionPump`] shares one trained [`Delphi`] model across its
//! enrolled fact vertices — it is the only way a vertex gets prediction,
//! and a single vertex is a one-row batch. Each tick packs every due
//! vertex's normalized window into one `B×window` staging matrix, runs a
//! **single** kernel call ([`Delphi::predict_batch_into`]), then
//! denormalizes and publishes per vertex. A row's value is independent of
//! the rest of its batch, so what a vertex publishes is bit-for-bit what
//! [`Delphi::predict_into`] returns for its window, whoever else is
//! enrolled.
//!
//! Self-observation: `delphi.predict_ns` (wall time of each kernel
//! call), `delphi.batch_size` (rows per call), `delphi.batch_tail_scalar`
//! (rows that fell off the kernel's vector path onto its scalar tail —
//! held at 0 by the pump's lane-width padding), and the
//! `delphi.simd_lanes` gauge.
//!
//! Batches are staged at a capacity rounded up to the model's
//! [`Delphi::lane_width`] and the due rows padded with zero windows to
//! the next lane multiple, so every tick runs entirely on the vector path
//! (padding rows' outputs are computed and discarded).
//!
//! An enrolled vertex keeps its own sliding window and last-poll time in
//! its state lock, beside its publisher: a poll re-anchors the window and
//! stamps the time under the lock it already takes, and a tick stages a
//! vertex, then publishes and re-observes its prediction, under one hold
//! each (lock order: the pump's slots, then the vertex).

use crate::vertex::FactVertex;
use apollo_delphi::predictor::WindowTracker;
use apollo_delphi::stack::{Delphi, DelphiScratch};
use apollo_obs::Registry;
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Pre-resolved instrument handles (`delphi.*`).
struct PumpObs {
    /// Wall time of each batched kernel call.
    predict_ns: apollo_obs::Histogram,
    /// Rows per batched kernel call.
    batch_size: apollo_obs::Histogram,
    /// Rows processed on the SIMD kernel's scalar tail. The pump pads
    /// every batch to the lane width, so a nonzero count is a
    /// regression alarm, not business as usual.
    batch_tail_scalar: apollo_obs::Counter,
}

/// Reusable per-tick buffers: after the first tick at a given batch size,
/// staging, the kernel call, its outputs and the publishes allocate
/// nothing (pinned by `tests/pump_allocations.rs`).
#[derive(Default)]
struct TickScratch {
    ds: DelphiScratch,
    /// `(slot index, lo, span)` per staged (non-flat) row.
    staged: Vec<(usize, f64, f64)>,
    out: Vec<f64>,
}

pub(crate) struct PumpShared {
    model: Delphi,
    every_ns: u64,
    /// The enrolled vertices, each tracking its own window.
    slots: Mutex<Vec<Arc<FactVertex>>>,
    scratch: Mutex<TickScratch>,
    obs: OnceLock<PumpObs>,
}

impl PumpShared {
    fn new(model: Delphi, every: Duration) -> Self {
        Self {
            model,
            every_ns: every.as_nanos() as u64,
            slots: Mutex::new(Vec::new()),
            scratch: Mutex::new(TickScratch::default()),
            obs: OnceLock::new(),
        }
    }

    pub(crate) fn instrument(&self, registry: &Registry) {
        if !registry.enabled() {
            return;
        }
        registry.gauge("delphi.simd_lanes").set(self.model.lane_width() as f64);
        let _ = self.obs.set(PumpObs {
            predict_ns: registry.histogram("delphi.predict_ns"),
            batch_size: registry.histogram("delphi.batch_size"),
            batch_tail_scalar: registry.counter("delphi.batch_tail_scalar"),
        });
    }

    /// One pump turn: stage every due vertex's normalized window, run one
    /// batched forward sweep, publish and re-observe per vertex.
    ///
    /// Per-slot semantics mirror `OnlinePredictor::predict_and_advance`
    /// exactly: skip until the window is full, a flat window publishes
    /// its flat value without touching the model, and each prediction is
    /// fed back as pseudo-history for chained multi-step forecasting.
    pub(crate) fn tick(&self, now: u64) {
        let slots = self.slots.lock();
        let mut scratch = self.scratch.lock();
        let scratch = &mut *scratch;
        let window = self.model.window();
        let lane = self.model.lane_width();
        scratch.staged.clear();
        // Round the staging capacity up to the SIMD lane width so the
        // later pad-to-lane shrink never has to grow the buffers.
        scratch.ds.begin_batch(slots.len().next_multiple_of(lane), window);
        let mut staged_rows = 0;
        for (idx, vertex) in slots.iter().enumerate() {
            let mut state = vertex.state.lock();
            let Some((tracker, polled_at)) = state.pump.as_deref_mut() else { continue };
            if now.saturating_sub(*polled_at) < self.every_ns {
                continue;
            }
            // Normalize straight into the next free staged row; a row
            // that is not kept (flat window) is simply overwritten.
            let Some((lo, span)) = tracker.normalized_into(scratch.ds.row_mut(staged_rows)) else {
                continue;
            };
            if span == 0.0 {
                // Flat window: the model cannot move it; publish directly.
                vertex.predicted(&mut state, now, lo);
            } else {
                scratch.staged.push((idx, lo, span));
                staged_rows += 1;
            }
        }
        if staged_rows == 0 {
            return;
        }
        // Shrink to the staged rows padded up to the lane width
        // (prefix-preserving; padding rows are zeroed and their outputs
        // discarded), one kernel call entirely on the vector path.
        scratch.ds.begin_batch(staged_rows.next_multiple_of(lane), window);
        scratch.ds.pad_rows(staged_rows);
        let started = std::time::Instant::now();
        self.model.predict_batch_into(&mut scratch.ds, &mut scratch.out);
        let elapsed = started.elapsed().as_nanos() as u64;
        if let Some(o) = self.obs.get() {
            o.predict_ns.observe(elapsed);
            o.batch_size.observe(staged_rows as u64);
            o.batch_tail_scalar.add(scratch.ds.tail_rows() as u64);
        }
        for (&(idx, lo, span), &p) in scratch.staged.iter().zip(&scratch.out) {
            slots[idx].publish_predicted(now, WindowTracker::denormalize(lo, span, p));
        }
    }
}

/// Cloneable handle to a batched Delphi prediction pump. Created with
/// `Apollo::prediction_pump`, then attached to fact vertices via
/// `FactVertexSpec::with_batched_prediction` before registration.
///
/// Scheduling note: the pump's timer is registered when the pump is
/// created — before its vertices' poll timers — so when a poll and a
/// pump tick land on the same instant the pump runs first: the vertex
/// still looks stale to it, and a prediction is published just ahead of
/// the measurement for that instant.
#[derive(Clone)]
pub struct PredictionPump {
    pub(crate) shared: Arc<PumpShared>,
}

impl PredictionPump {
    pub(crate) fn new(model: Delphi, every: Duration) -> Self {
        Self { shared: Arc::new(PumpShared::new(model, every)) }
    }

    /// Window length of the shared model.
    pub fn window(&self) -> usize {
        self.shared.model.window()
    }

    /// Vertices currently enrolled.
    pub fn enrolled(&self) -> usize {
        self.shared.slots.lock().len()
    }

    /// Enroll `vertex`: each of its polls re-anchors a window of the
    /// model's length from now on.
    pub(crate) fn enroll(&self, vertex: Arc<FactVertex>) {
        vertex.state.lock().pump = Some(Box::new((WindowTracker::new(self.window()), 0)));
        self.shared.slots.lock().push(vertex);
    }

    /// Drop `vertex_name` from the pump (vertex retirement).
    pub(crate) fn retire(&self, vertex_name: &str) {
        self.shared.slots.lock().retain(|v| v.name() != vertex_name);
    }
}
