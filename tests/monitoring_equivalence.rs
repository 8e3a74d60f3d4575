//! Cross-system invariants: Apollo and the LDMS baseline monitoring the
//! same resources must agree on the facts; SCoRe's change filter and
//! archive must never lose or reorder information; insight chains must
//! compute the same answer as direct evaluation.

use apollo_bench::ldms::{LdmsConfig, LdmsService};
use apollo_cluster::metrics::{MetricSource, TraceSource};
use apollo_cluster::series::TimeSeries;
use apollo_cluster::workloads::hacc::{HaccConfig, HaccWorkload};
use apollo_core::service::{Apollo, FactVertexSpec, InsightVertexSpec};
use apollo_streams::codec::Record;
use std::sync::Arc;
use std::time::Duration;

const NS: u64 = 1_000_000_000;

/// Both services poll the same HACC capacity trace at 1 s; their final
/// view of the metric must be identical.
#[test]
fn apollo_and_ldms_agree_on_latest_values() {
    let workload = HaccWorkload::generate(HaccConfig::irregular(77).with_duration_s(300));
    let trace = workload.capacity_trace();

    let mut apollo = Apollo::new_virtual();
    apollo
        .register_fact(FactVertexSpec::fixed(
            "cap",
            Arc::new(TraceSource::new("cap", trace.clone())),
            Duration::from_secs(1),
        ))
        .unwrap();
    apollo.run_for(Duration::from_secs(300));

    let mut ldms = LdmsService::new_virtual(LdmsConfig::default());
    let src: Arc<dyn MetricSource> = Arc::new(TraceSource::new("cap", trace.clone()));
    ldms.register_sampler("cap", src);
    ldms.run_for(Duration::from_secs(300));

    let a = apollo.query("SELECT MAX(Timestamp), metric FROM cap").unwrap().rows[0].value;
    let l = ldms.query_latest(&["cap"]).unwrap()[0].value;
    assert_eq!(a, l, "same trace, same interval => same latest value");
    assert_eq!(a, trace.value_at(300 * NS).unwrap());
}

/// The change filter drops duplicates but must preserve the *sequence*
/// of distinct values exactly (SCoRe's linearizability claim, §3.1).
#[test]
fn change_filter_preserves_distinct_value_sequence() {
    let workload = HaccWorkload::generate(HaccConfig::regular().with_duration_s(240));
    let reference = workload.reference_trace_1s();

    let mut apollo = Apollo::new_virtual();
    apollo
        .register_fact(FactVertexSpec::fixed(
            "cap",
            Arc::new(TraceSource::new("cap", workload.capacity_trace())),
            Duration::from_secs(1),
        ))
        .unwrap();
    apollo.run_for(Duration::from_secs(240));

    let stored: Vec<f64> =
        apollo.query("SELECT metric FROM cap").unwrap().rows.iter().map(|r| r.value).collect();

    // Expected: the deduplicated 1s reference sequence (from t=1, the
    // first poll).
    let mut expected = Vec::new();
    for &(t, v) in reference.points() {
        if t == 0 {
            continue;
        }
        if expected.last() != Some(&v) {
            expected.push(v);
        }
    }
    assert_eq!(stored, expected, "distinct-value sequence must match");
}

/// A three-level insight chain equals direct computation over the raw
/// inputs (propagation correctness through the DAG).
#[test]
fn insight_chain_equals_direct_computation() {
    let mut apollo = Apollo::new_virtual();
    let mut topics = Vec::new();
    let mut finals = Vec::new();
    for i in 0..6u64 {
        let trace = TimeSeries::from_points(
            (0..60u64).map(|t| (t * NS, (i + 1) as f64 * 100.0 - t as f64)).collect(),
        );
        finals.push(trace.value_at(59 * NS).unwrap());
        let name = format!("m{i}");
        topics.push(name.clone());
        apollo
            .register_fact(FactVertexSpec::fixed(
                name,
                Arc::new(TraceSource::new("t", trace)),
                Duration::from_secs(1),
            ))
            .unwrap();
    }
    // Layer 1: two partial sums. Layer 2: their sum. Layer 3: scaled.
    apollo
        .register_insight(InsightVertexSpec::sum_of(
            "sum_a",
            topics[..3].to_vec(),
            Duration::from_millis(500),
        ))
        .unwrap();
    apollo
        .register_insight(InsightVertexSpec::sum_of(
            "sum_b",
            topics[3..].to_vec(),
            Duration::from_millis(500),
        ))
        .unwrap();
    apollo
        .register_insight(InsightVertexSpec::sum_of(
            "total",
            vec!["sum_a".into(), "sum_b".into()],
            Duration::from_millis(500),
        ))
        .unwrap();
    apollo
        .register_insight(InsightVertexSpec::new(
            "total_scaled",
            vec!["total".into()],
            Duration::from_millis(500),
            |i| i.value("total").map(|v| v / 6.0),
        ))
        .unwrap();

    apollo.run_for(Duration::from_secs(61));

    assert_eq!(apollo.graph().height(), 3);
    let expected: f64 = finals.iter().sum();
    let total = apollo.query("SELECT MAX(Timestamp), metric FROM total").unwrap().rows[0].value;
    assert_eq!(total, expected);
    let scaled =
        apollo.query("SELECT MAX(Timestamp), metric FROM total_scaled").unwrap().rows[0].value;
    assert!((scaled - expected / 6.0).abs() < 1e-9);
}

/// Predicted records are marked as such and never overwrite measured
/// provenance (the `(timestamp, value, predicted/measured)` tuple).
#[test]
fn provenance_flags_survive_the_full_pipeline() {
    use apollo_delphi::stack::{Delphi, DelphiConfig};

    let mut apollo = Apollo::new_virtual();
    let trace = TimeSeries::from_points(
        (0..200u64).map(|t| (t * NS, 1_000.0 - (t as f64) * 3.0)).collect(),
    );
    let delphi = Delphi::train(DelphiConfig {
        feature_samples: 300,
        feature_epochs: 50,
        combiner_samples: 100,
        combiner_epochs: 50,
        ..DelphiConfig::default()
    });
    let pump = apollo.prediction_pump(delphi, Duration::from_secs(2));
    apollo
        .register_fact(
            FactVertexSpec::fixed(
                "m",
                Arc::new(TraceSource::new("m", trace)),
                Duration::from_secs(10),
            )
            .with_batched_prediction(&pump),
        )
        .unwrap();
    // The pump needs five measured polls (50 s at the 10 s interval)
    // before it can fill gaps; run long enough for the steady state.
    apollo.run_for(Duration::from_secs(200));

    let entries = apollo.broker().range_by_time("m", 0, u64::MAX);
    let records: Vec<Record> =
        entries.iter().map(|e| Record::decode(&e.payload).unwrap()).collect();
    let measured = records.iter().filter(|r| r.is_measured()).count();
    let predicted = records.len() - measured;
    assert!(measured >= 15, "10s polls over 200s: {measured}");
    assert!(predicted > measured, "2s predictions between 10s polls: {predicted}");
    // Timestamps strictly increase across the mixed stream.
    assert!(records.windows(2).all(|w| w[0].timestamp_ns <= w[1].timestamp_ns));
}

/// Retention + archive: a bounded window must still serve the entire
/// history through range queries, byte-for-byte.
#[test]
fn bounded_window_serves_full_history() {
    use apollo_runtime::event_loop::EventLoop;
    use apollo_streams::StreamConfig;

    let mut apollo = Apollo::with_config(EventLoop::new_virtual(), StreamConfig::bounded(16));
    let trace = TimeSeries::from_points((0..500u64).map(|t| (t * NS, t as f64)).collect());
    apollo
        .register_fact(FactVertexSpec::fixed(
            "m",
            Arc::new(TraceSource::new("m", trace)),
            Duration::from_secs(1),
        ))
        .unwrap();
    apollo.run_for(Duration::from_secs(499));

    let rows = apollo.query("SELECT metric FROM m").unwrap().rows;
    assert_eq!(rows.len(), 499);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.value, (i + 1) as f64, "row {i} intact after archival");
    }
}

/// Every predicted record the pump publishes is **bit-identical** to a
/// per-vertex replay: feed the vertex's measured records to an
/// `OnlinePredictor` over the same model, and each predicted record in
/// the stream is what `predict_and_advance` — `Delphi::predict_into` on
/// that vertex's window, denormalized — returns at that point. Predicted
/// records sit on pump ticks, and only where the last measurement is at
/// least one cadence old. Intervals are chosen so no pump tick coincides
/// with a poll inside the run (poll 10 s, predict 3 s — ties land on 30 s
/// multiples, the window only fills at t = 50 s, and the run stops at
/// 59 s before the t = 60 s tie).
#[test]
fn batched_pump_matches_per_vertex_prediction_bitwise() {
    pump_matches_per_vertex_replay(3);
}

/// The case that lets the pump be the only prediction path: one enrolled
/// vertex is a one-row batch, padded to the lane width like any other —
/// no row on the kernel's scalar tail — and publishes what the
/// single-window call returns.
#[test]
fn one_vertex_pump_publishes_what_predict_into_returns() {
    pump_matches_per_vertex_replay(1);
}

fn pump_matches_per_vertex_replay(vertices: usize) {
    use apollo_delphi::predictor::OnlinePredictor;
    use apollo_delphi::stack::{Delphi, DelphiConfig};

    let delphi = Delphi::train(DelphiConfig {
        feature_samples: 300,
        feature_epochs: 50,
        combiner_samples: 100,
        combiner_epochs: 50,
        ..DelphiConfig::default()
    });
    let poll = Duration::from_secs(10);
    let every = Duration::from_secs(3);
    let every_ns = every.as_nanos() as u64;

    let mut apollo = Apollo::new_virtual();
    let pump = apollo.prediction_pump(delphi.clone(), every);
    for k in 0..vertices as u64 {
        let trace = TimeSeries::from_points(
            (0..200u64)
                .map(|t| (t * NS, 1_000.0 + 100.0 * k as f64 - (t as f64) * (3.0 + k as f64)))
                .collect(),
        );
        apollo
            .register_fact(
                FactVertexSpec::fixed(
                    format!("m{k}"),
                    Arc::new(TraceSource::new("m", trace)),
                    poll,
                )
                .with_batched_prediction(&pump),
            )
            .unwrap();
    }
    assert_eq!(pump.enrolled(), vertices);
    apollo.run_for(Duration::from_secs(59));

    for k in 0..vertices {
        let name = format!("m{k}");
        let mut replay = OnlinePredictor::new(delphi.clone());
        let mut last_measured_ns = 0;
        let mut predicted = 0;
        for entry in apollo.broker().range_by_time(&name, 0, u64::MAX) {
            let record = Record::decode(&entry.payload).unwrap();
            if record.is_measured() {
                replay.observe(record.value);
                last_measured_ns = record.timestamp_ns;
                continue;
            }
            predicted += 1;
            let want = replay.predict_and_advance().expect("predicted before the window filled");
            assert_eq!(record.value.to_bits(), want.to_bits(), "vertex {name} diverges");
            assert_eq!(record.timestamp_ns % every_ns, 0, "vertex {name}: off a pump tick");
            assert!(record.timestamp_ns - last_measured_ns >= every_ns, "vertex {name}: not stale");
        }
        assert!(predicted >= 2, "vertex {name}: no predictions exercised ({predicted})");
    }

    // The pump ran whole, lane-padded batches: every tick predicted all
    // enrolled vertices in one kernel call, none of it on the scalar tail.
    let snap = apollo.metrics_snapshot();
    assert_eq!(snap.gauges["delphi.simd_lanes"], delphi.lane_width() as f64);
    assert_eq!(snap.counter("delphi.batch_tail_scalar"), 0);
    let batch = &snap.histograms["delphi.batch_size"];
    assert!(batch.count >= 2, "pump never ticked a batch");
    assert_eq!(batch.max, vertices as u64, "full batch never formed");
    assert_eq!(
        snap.histograms["delphi.predict_ns"].count, batch.count,
        "one timing sample per kernel call"
    );
}
