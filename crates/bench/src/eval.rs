//! Polling policies scored through the running service (§4.3.1,
//! Figures 8–10).
//!
//! [`monitor`] registers one fact vertex that replays a 1-second
//! reference trace (the "1 second monitoring trace") under a given
//! [`IntervalController`] in a virtual-clock [`Apollo`], optionally
//! enrolled in a one-vertex Delphi prediction pump, and runs the service
//! for the trace's span. The stored topic is then read back once: the
//! belief at each 1-second grid point is the newest record at or before
//! it, measured or predicted.
//!
//! * **accuracy** — the fraction of grid points whose belief matches the
//!   reference within a relative tolerance (0 = exact). Grid points
//!   before the first stored record count as misses: the service polls
//!   first at the controller's `current_interval()`, not at t = 0.
//! * **cost** — hook calls over the number of grid points, i.e. relative
//!   to 1-second polling.

use apollo_adaptive::controller::IntervalController;
use apollo_cluster::metrics::TraceSource;
use apollo_cluster::series::TimeSeries;
use apollo_core::service::{Apollo, FactVertexSpec};
use apollo_delphi::stack::Delphi;
use apollo_streams::{Provenance, Record};
use std::sync::Arc;
use std::time::Duration;

/// The topic the monitored trace is stored under.
const TOPIC: &str = "trace";

/// What one policy run through the service produced.
#[derive(Debug, Clone)]
pub struct Monitored {
    /// Monitor-hook invocations ([`apollo_core::FactVertex::hook_calls`]).
    pub hook_calls: u64,
    /// `hook_calls` over the reference's grid points.
    pub cost: f64,
    /// Fraction of all grid points whose belief matches the reference.
    pub accuracy: f64,
    /// Root-mean-square belief error over the grid points with a belief.
    pub rmse: f64,
    /// Stored rows with predicted provenance (Delphi's fill).
    pub predicted: u64,
    /// The belief at every grid point from the first stored record on.
    pub belief: TimeSeries,
}

/// Monitor `reference` (a 1-second-grid trace starting at t = 0) with
/// `controller` in a fresh virtual-clock service, with Delphi predicting
/// between polls at 1 s when `delphi` is given, and score the stored
/// topic against it with relative `tolerance`.
///
/// # Panics
/// Panics when `reference` is empty.
pub fn monitor(
    controller: Box<dyn IntervalController>,
    reference: &TimeSeries,
    delphi: Option<Delphi>,
    tolerance: f64,
) -> Monitored {
    let span = reference.end().expect("reference trace must not be empty");
    let mut apollo = Apollo::new_virtual();
    let batched_prediction = delphi.map(|m| apollo.prediction_pump(m, Duration::from_secs(1)));
    let vertex = apollo
        .register_fact(FactVertexSpec {
            name: TOPIC.into(),
            source: Arc::new(TraceSource::new(TOPIC, reference.clone())),
            controller,
            publish_on_change_only: true,
            batched_prediction,
            supervision: None,
        })
        .expect("one vertex on a fresh service");
    apollo.run_for(Duration::from_nanos(span));

    let records: Vec<Record> =
        apollo.broker().range_by_time(TOPIC, 0, u64::MAX).iter().map(|e| e.record).collect();
    let mut belief = TimeSeries::new();
    let (mut matches, mut sq_err, mut next) = (0u64, 0.0, 0);
    for &(t, truth) in reference.points() {
        while records.get(next).is_some_and(|r| r.timestamp_ns <= t) {
            next += 1;
        }
        let Some(held) = next.checked_sub(1).map(|i| records[i].value) else { continue };
        matches += u64::from((held - truth).abs() <= tolerance * truth.abs().max(1e-12));
        sq_err += (held - truth) * (held - truth);
        belief.push(t, held);
    }
    let grid = reference.len() as f64;
    Monitored {
        hook_calls: vertex.hook_calls(),
        cost: vertex.hook_calls() as f64 / grid,
        accuracy: matches as f64 / grid,
        rmse: (sq_err / belief.len() as f64).sqrt(),
        predicted: records.iter().filter(|r| r.provenance == Provenance::Predicted).count() as u64,
        belief,
    }
}

/// Policies through the service: its first poll lands at the controller's
/// initial interval, so the grid points before it hold no belief and
/// count as misses.
#[cfg(test)]
mod tests {
    use super::*;
    use apollo_adaptive::controller::{
        AimdParams, ChangeMode, ComplexAimd, FixedInterval, SimpleAimd,
    };

    const NS: u64 = 1_000_000_000;

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    /// Reference: value changes every `period_s` seconds by `delta`.
    fn step_trace(duration_s: u64, period_s: u64, start_v: f64, delta: f64) -> TimeSeries {
        let mut ts = TimeSeries::new();
        let mut v = start_v;
        for t in 0..=duration_s {
            if t > 0 && t % period_s == 0 {
                v += delta;
            }
            ts.push(t * NS, v);
        }
        ts
    }

    #[test]
    fn one_second_fixed_polling_is_perfect_and_full_cost() {
        let trace = step_trace(60, 5, 100.0, -1.0);
        let out = monitor(Box::new(FixedInterval::new(secs(1))), &trace, None, 0.0);
        assert_eq!(out.hook_calls, 60, "one poll per second from t = 1 s");
        assert_eq!(out.accuracy, 60.0 / 61.0, "only t = 0 precedes the first poll");
        assert_eq!(out.cost, 60.0 / 61.0);
        assert_eq!((out.rmse, out.predicted), (0.0, 0));
    }

    #[test]
    fn five_second_fixed_on_five_second_workload_is_cheap_and_accurate() {
        // The §4.3.1 observation: a 5s fixed interval is near-optimal for
        // the regular (5s period) workload.
        let trace = step_trace(300, 5, 1000.0, -38.0);
        let out = monitor(Box::new(FixedInterval::new(secs(5))), &trace, None, 0.0);
        assert!(out.cost < 0.25, "cost {}", out.cost);
        assert!(out.accuracy > 0.95, "accuracy {}", out.accuracy);
    }

    #[test]
    fn coarse_fixed_interval_loses_accuracy_on_fast_workload() {
        let trace = step_trace(300, 2, 1000.0, -1.0);
        let out = monitor(Box::new(FixedInterval::new(secs(20))), &trace, None, 0.0);
        assert!(out.accuracy < 0.5, "accuracy {}", out.accuracy);
        assert!(out.cost < 0.1);
    }

    #[test]
    fn static_trace_lets_aimd_relax() {
        let trace = step_trace(600, 1, 42.0, 0.0);
        let out = monitor(Box::new(SimpleAimd::new(AimdParams::default())), &trace, None, 0.0);
        assert_eq!(out.accuracy, 596.0 / 601.0, "matched at every second from the 5 s poll");
        assert!(out.cost < 0.1, "aimd must relax on a static metric, cost {}", out.cost);
    }

    #[test]
    fn aimd_beats_coarse_fixed_on_bursty_trace() {
        // Quiet for 200s, then changes every 2s for 100s, then quiet.
        let mut trace = TimeSeries::new();
        let mut v = 1000.0;
        for t in 0..=500u64 {
            if (200..300).contains(&t) && t % 2 == 0 {
                v -= 5.0;
            }
            trace.push(t * NS, v);
        }
        let aimd = monitor(Box::new(SimpleAimd::new(AimdParams::default())), &trace, None, 0.0);
        let fixed = monitor(Box::new(FixedInterval::new(secs(20))), &trace, None, 0.0);
        assert!(
            aimd.accuracy > fixed.accuracy,
            "aimd {} vs fixed {}",
            aimd.accuracy,
            fixed.accuracy
        );
    }

    #[test]
    fn figure8_shape_on_irregular_hacc() {
        // The paper's Figure 8 claim: on the *irregular* HACC workload,
        // complex AIMD is the most accurate adaptive policy (beating both
        // simple AIMD and the fixed 5 s interval), "but with an associated
        // cost". Capacity changes are absolute (bytes), so the controllers
        // run in Absolute mode with a threshold below one write.
        use apollo_cluster::workloads::hacc::{HaccConfig, HaccWorkload};
        let reference = HaccWorkload::generate(HaccConfig::irregular(11)).reference_trace_1s();
        let p = AimdParams {
            threshold: 1_000.0,
            change_mode: ChangeMode::Absolute,
            ..AimdParams::default()
        };
        let f = monitor(Box::new(FixedInterval::new(secs(5))), &reference, None, 0.0);
        let s = monitor(Box::new(SimpleAimd::new(p.clone())), &reference, None, 0.0);
        let c = monitor(Box::new(ComplexAimd::new(p, 10)), &reference, None, 0.0);
        assert!(
            c.accuracy > s.accuracy,
            "complex accuracy {} must beat simple {}",
            c.accuracy,
            s.accuracy
        );
        assert!(
            c.accuracy > f.accuracy,
            "complex accuracy {} must beat fixed-5s {}",
            c.accuracy,
            f.accuracy
        );
        assert!(c.cost > s.cost, "complex has an associated cost: {} vs {}", c.cost, s.cost);
        assert!(c.cost <= 1.0, "never costlier than 1s polling, cost {}", c.cost);
    }

    #[test]
    fn forecaster_fills_between_polls() {
        // A metric falling by 1 per second, polled every 10 s: Delphi
        // stores predicted rows between polls at no extra hook call, and
        // they, not the last poll, are the belief there. Whether they beat
        // holding the last poll is not asserted: on this ramp they do not.
        use apollo_delphi::stack::DelphiConfig;
        let delphi = Delphi::train(DelphiConfig {
            feature_samples: 300,
            feature_epochs: 50,
            combiner_samples: 100,
            combiner_epochs: 50,
            ..DelphiConfig::default()
        });
        let mut trace = TimeSeries::new();
        for t in 0..=300u64 {
            trace.push(t * NS, 1_000.0 - t as f64);
        }
        let without = monitor(Box::new(FixedInterval::new(secs(10))), &trace, None, 0.0);
        let with = monitor(Box::new(FixedInterval::new(secs(10))), &trace, Some(delphi), 0.0);
        assert_eq!(with.hook_calls, without.hook_calls, "prediction costs no hook calls");
        assert!(with.predicted > 0);
        let mut beliefs = with.belief.points().iter().zip(without.belief.points());
        assert!(beliefs.any(|(a, b)| a != b), "predictions never became belief");
    }

    #[test]
    fn reconstructed_series_covers_every_second() {
        let trace = step_trace(120, 7, 10.0, 3.0);
        let out = monitor(Box::new(SimpleAimd::new(AimdParams::default())), &trace, None, 0.0);
        let first = out.belief.start().expect("polled");
        assert_eq!(first, 5 * NS, "first poll at the initial interval");
        assert_eq!(out.belief.len(), 116, "a belief at every second from then on");
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_reference_panics() {
        monitor(Box::new(FixedInterval::new(secs(1))), &TimeSeries::new(), None, 0.0);
    }
}
