//! Allocation teeth for the record path: a record — predicted, polled or
//! derived by an insight — costs **no** heap allocation. Its 17-byte frame
//! sits inside the `Bytes` handle, so the window entry that owns it and
//! every subscriber's copy are the record itself. Counted by the
//! workspace's counting allocator (`apollo-alloc-count`); the count is
//! process-wide, so this file deliberately holds a single `#[test]`.
//!
//! With `B` vertices enrolled in one pump, windows at their retention
//! bound (so no `VecDeque` grows) and the pump warm (scratch sized,
//! trackers full), one tick performs exactly zero allocations. With the
//! payload in a refcounted heap block it was `B`; with a two-object
//! payload (`Arc<Vec<u8>>`) published as a batch of one through
//! intermediate `Vec`s it was `5·B`.
//!
//! Waking a derived reader is free too: a publish that arms a parked
//! insight allocates nothing, and a standing query's pump pays for its
//! read and its result, not per record it folds.

use apollo_adaptive::controller::FixedInterval;
use apollo_alloc_count::allocs_during;
use apollo_cluster::metrics::{MetricError, MetricSource};
use apollo_core::service::{Apollo, FactVertexSpec, InsightVertexSpec};
use apollo_core::vertex::{FactVertex, InsightInputs, InsightVertex};
use apollo_delphi::{Delphi, DelphiConfig};
use apollo_runtime::event_loop::EventLoop;
use apollo_streams::codec::Record;
use apollo_streams::{Broker, SpillBackend, StreamConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A metric that never repeats a window: a phase-shifted sine, so every
/// enrolled vertex stages a non-flat row each tick.
struct Sine {
    phase: f64,
    samples: AtomicU64,
}

impl MetricSource for Sine {
    fn sample(&self, now_ns: u64) -> Result<f64, MetricError> {
        self.samples.fetch_add(1, Ordering::Relaxed);
        Ok(100.0 + (now_ns as f64 / 1e9 * 0.7 + self.phase).sin())
    }

    fn name(&self) -> String {
        "sine".into()
    }

    fn samples_taken(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }
}

/// Windows bounded at 8 entries and evictions dropped, not archived: at
/// the bound an append frees one entry and grows nothing.
fn bounded() -> StreamConfig {
    StreamConfig { max_len: Some(8), archive_evicted: false, spill: SpillBackend::Memory }
}

#[test]
fn a_record_costs_no_allocation() {
    a_warm_pump_tick_allocates_nothing();
    encoding_and_publishing_a_record_allocates_nothing();
    a_warm_poll_and_a_warm_insight_pump_allocate_nothing();
    a_publish_that_wakes_a_parked_insight_allocates_nothing();
    a_warm_standing_query_pump_allocates_per_pump_not_per_record();
}

fn sine(phase: f64) -> Arc<Sine> {
    Arc::new(Sine { phase, samples: AtomicU64::new(0) })
}

fn a_publish_that_wakes_a_parked_insight_allocates_nothing() {
    let mut apollo = Apollo::with_config(EventLoop::new_virtual(), bounded());
    let every = Duration::from_secs(1);
    apollo.register_fact(FactVertexSpec::fixed("woken/in", sine(0.0), every)).unwrap();
    let insight = apollo
        .register_insight(InsightVertexSpec::sum_of("woken/sum", vec!["woken/in".into()], every))
        .unwrap();
    // Ten polls: the insight ran on each one's publish and parked.
    apollo.run_for(Duration::from_millis(10_500));
    let runs = insight.recomputes();
    let payload = Record::measured(10_500_000_000, 1.0).encode();
    let broker = apollo.broker();
    let allocs = allocs_during(|| {
        broker.publish("woken/in", 10_500, payload);
    });
    assert_eq!(allocs, 0, "a publish that wakes a parked insight allocated");
    apollo.run_for(Duration::from_millis(500));
    assert_eq!(insight.recomputes(), runs + 1, "the wake armed the insight");
}

fn a_warm_standing_query_pump_allocates_per_pump_not_per_record() {
    let streams =
        StreamConfig { max_len: Some(64), archive_evicted: false, spill: SpillBackend::Memory };
    let mut apollo = Apollo::with_config(EventLoop::new_virtual(), streams);
    let hour = Duration::from_secs(3600);
    apollo.register_fact(FactVertexSpec::fixed("cq/in", sine(0.0), hour)).unwrap();
    let cq = apollo.register_continuous("cq/avg", "SELECT AVG(metric) FROM cq/in", hour).unwrap();
    let broker = apollo.broker();
    let mut ms = 0u64;
    let mut pump = |records: u64| {
        for _ in 0..records {
            ms += 1;
            broker.publish("cq/in", ms, Record::measured(ms * 1_000_000, ms as f64).encode());
        }
        allocs_during(|| assert!(cq.pump(ms), "a rising AVG changes every pump"))
    };
    // Warm: both windows at their bound.
    for _ in 0..80 {
        pump(1);
    }
    let (one, ten) = (pump(1), pump(10));
    assert_eq!(one, ten, "a pump folding 10 records allocated {ten}, folding 1 {one}");
}

fn a_warm_pump_tick_allocates_nothing() {
    const B: usize = 24; // three full SIMD lanes
    let mut apollo = Apollo::with_config(EventLoop::new_virtual(), bounded());
    let model = Delphi::train(DelphiConfig {
        feature_samples: 80,
        feature_epochs: 5,
        combiner_samples: 60,
        combiner_epochs: 5,
        ..DelphiConfig::default()
    });
    let pump = apollo.prediction_pump(model, Duration::from_millis(100));
    for i in 0..B {
        apollo
            .register_fact(
                FactVertexSpec::fixed(
                    format!("v{i}"),
                    Arc::new(Sine { phase: i as f64 * 0.37, samples: AtomicU64::new(0) }),
                    Duration::from_secs(1),
                )
                .with_batched_prediction(&pump),
            )
            .unwrap();
    }
    // Five polls fill the trackers; by 6.05 s every window is at its
    // bound and the pump has ticked at full batch ten times.
    apollo.run_for(Duration::from_millis(6_050));
    let broker = apollo.broker();
    for i in 0..B {
        assert_eq!(broker.topic_info(&format!("v{i}")).unwrap().window_len, 8);
    }

    // 6.05 s → 6.95 s: nine pump ticks (6.1 … 6.9), no poll.
    let before = apollo.stats().facts_published;
    let allocs = allocs_during(|| apollo.run_for(Duration::from_millis(900)));
    let predicted = apollo.stats().facts_published - before;
    assert_eq!(predicted, 9 * B as u64, "every enrolled vertex predicts on every tick");
    assert_eq!(allocs, 0, "a tick of {predicted} predicted records allocated");
    let batch = &apollo.metrics_snapshot().histograms["delphi.batch_size"];
    assert_eq!(batch.max, B as u64, "the ticks ran as whole batches through the kernel");
}

fn encoding_and_publishing_a_record_allocates_nothing() {
    let broker = Arc::new(Broker::new(bounded()));
    let mut publisher = broker.publisher("by-handle");
    let record = |i: u64| Record::measured(i * 1_000_000, i as f64);
    // Warm: create both topics and fill their windows to the bound.
    for i in 0..16 {
        broker.publish("by-name", i, record(i).encode());
        broker.publish_batch("by-name", [(i, record(i).encode())]);
        publisher.publish(i, record(i).encode());
    }

    assert_eq!(allocs_during(|| drop(record(99).encode())), 0, "the payload sits in its handle");
    // Payloads are built outside the counted regions.
    let [p, q, r, s] = [100, 101, 102, 103].map(|i| record(i).encode());
    let mut ids = [None; 2];
    assert_eq!(allocs_during(|| ids[0] = Some(broker.publish("by-name", 100, p))), 0);
    assert_eq!(allocs_during(|| ids[1] = Some(publisher.publish(100, q))), 0);
    assert!(ids.iter().all(Option::is_some));
    // A batch returns its IDs in a `Vec`: its only allocation.
    assert_eq!(allocs_during(|| drop(broker.publish_batch("by-name", [(101, r)]))), 1);
    assert_eq!(allocs_during(|| drop(publisher.publish_batch([(101, s)]))), 1);
}

fn a_warm_poll_and_a_warm_insight_pump_allocate_nothing() {
    const NS: u64 = 1_000_000_000;
    let broker = Arc::new(Broker::new(bounded()));
    let facts: Vec<FactVertex> = (0..2)
        .map(|i| {
            FactVertex::new(
                format!("f{i}"),
                Arc::new(Sine { phase: i as f64, samples: AtomicU64::new(0) }),
                Box::new(FixedInterval::new(Duration::from_secs(1))),
                Arc::clone(&broker),
                false,
            )
        })
        .collect();
    let insight = InsightVertex::new(
        "sum",
        vec!["f0".into(), "f1".into()],
        Box::new(|i: &InsightInputs| Some(i.sum() + i.fresh.len() as f64)),
        Arc::clone(&broker),
    );
    let tap = broker.subscribe("f0");
    // Warm: windows at their bound and the pump's buffers at the size a
    // round of eight polls per fact needs.
    let mut now = 0;
    let mut polls = |n: usize| {
        for _ in 0..n {
            now += NS;
            for f in &facts {
                f.poll(now);
            }
        }
        now
    };
    for _ in 0..3 {
        let now = polls(8);
        assert!(insight.pump(now));
        drop(tap.drain());
    }

    // Poll 29 of each fact: not a sampled one, one subscriber each (f0 two).
    let now = polls(4) + NS;
    for f in &facts {
        let allocs = allocs_during(|| {
            f.poll(now);
        });
        assert_eq!(allocs, 0, "a poll allocates nothing");
    }
    // The pump consumes ten records from two inputs it has seen before.
    let published = insight.published();
    assert_eq!(allocs_during(|| assert!(insight.pump(now))), 0, "a pump allocates nothing");
    assert_eq!(insight.published(), published + 1);
    assert_eq!(allocs_during(|| assert!(!insight.pump(now))), 0, "an idle pump allocates nothing");
    // Five entries leave the queue in the one `Vec` that carries them.
    assert_eq!(allocs_during(|| assert_eq!(tap.drain().len(), 5)), 1);
}
