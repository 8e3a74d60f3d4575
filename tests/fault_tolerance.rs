//! End-to-end fault-tolerance: drives a full Apollo service through a
//! seeded [`FaultPlan`] (error bursts, hung hooks) under the virtual
//! clock and asserts the failure-model guarantees:
//!
//! * the event loop survives every injected fault,
//! * quarantined vertices recover once their hook heals,
//! * outage periods are covered by stale (last-known-value) records that
//!   stay queryable with their provenance,
//! * and the whole run is bit-identical for a given seed.

use apollo_cluster::fault::{FaultKind, FaultPlan, FaultWindow, FlakySource};
use apollo_cluster::metrics::ConstSource;
use apollo_core::health::{HealthState, SupervisorConfig};
use apollo_core::service::{Apollo, FactVertexSpec};
use apollo_streams::{Provenance, StreamId};
use std::sync::Arc;
use std::time::Duration;

const fn secs(s: u64) -> Duration {
    Duration::from_secs(s)
}

/// One stream entry flattened to (ms, seq, payload bytes).
type FlatEntry = (u64, u64, Vec<u8>);

/// Everything observable about one scenario run; two runs with the same
/// seed must produce equal digests.
#[derive(Debug, PartialEq)]
struct Digest {
    /// Per topic: every entry, flattened.
    topics: Vec<(String, Vec<FlatEntry>)>,
    /// (hook_calls, facts_published, facts_stale, poll_failures).
    counters: (u64, u64, u64, u64),
    faults_injected: (u64, u64),
}

/// Builds a three-vertex service, runs it for 60 virtual seconds under
/// injected faults, asserts the fault-tolerance guarantees, and returns a
/// full digest.
fn run_scenario(seed: u64) -> Digest {
    let mut apollo = Apollo::new_virtual();
    let broker = apollo.broker();

    // Vertex 1: explicit schedule — a 25s error burst that must push it
    // through Degraded into Quarantined, then a hang window after it has
    // recovered.
    let flaky_plan = FaultPlan::none()
        .with_window(FaultWindow::new(secs(5), secs(30), FaultKind::ErrorBurst))
        .with_window(FaultWindow::new(secs(40), secs(43), FaultKind::Hang));
    let flaky_src =
        Arc::new(FlakySource::new(Arc::new(ConstSource::new("flaky", 5.0)), flaky_plan, seed));
    let flaky = apollo
        .register_fact(
            FactVertexSpec::fixed("store/flaky", Arc::clone(&flaky_src) as _, secs(1))
                .with_supervision(SupervisorConfig {
                    max_retries: 0,
                    backoff_base: secs(2),
                    backoff_cap: secs(8),
                    jitter_frac: 0.0,
                    degraded_after: 1,
                    quarantine_after: 3,
                    probe_interval: secs(4),
                    recovery_successes: 2,
                    seed,
                    ..SupervisorConfig::default()
                }),
        )
        .unwrap();

    // Vertex 2: seed-derived schedule, so different seeds produce visibly
    // different runs.
    let noisy_src = Arc::new(FlakySource::new(
        Arc::new(ConstSource::new("noisy", 9.0)),
        FaultPlan::seeded(seed, secs(60), secs(10), secs(3)),
        seed ^ 0xD1CE,
    ));
    apollo
        .register_fact(FactVertexSpec::fixed("store/noisy", Arc::clone(&noisy_src) as _, secs(1)))
        .unwrap();

    // Vertex 3: a healthy sibling that must be completely unaffected.
    let steady = apollo
        .register_fact(FactVertexSpec::fixed(
            "store/steady",
            Arc::new(ConstSource::new("steady", 1.0)),
            secs(1),
        ))
        .unwrap();

    apollo.run_for(secs(60));

    // The loop survived: virtual time advanced the full horizon and the
    // healthy sibling never missed a poll.
    let stats = apollo.stats();
    assert!(stats.now_ns >= 60_000_000_000);
    assert_eq!(steady.hook_calls(), 60, "healthy sibling unaffected by faults");
    assert_eq!(stats.callback_panics, 0);

    // The flaky vertex went down, was quarantined, and came back.
    assert_eq!(flaky.health(), HealthState::Healthy, "recovered by end of run");
    assert!(flaky.recoveries() >= 1, "passed through quarantine and back");
    assert!(flaky.failures() >= 5, "burst + hang registered as failures");
    assert!(flaky_src.faults_injected() >= 5);
    assert!(
        flaky.hook_calls() < steady.hook_calls(),
        "backoff/quarantine must poll less than a healthy schedule"
    );

    // Outage coverage: stale records published and queryable as such.
    assert!(flaky.stale_published() >= 1);
    assert!(stats.facts_stale >= 1);
    let rows = apollo.query("SELECT metric FROM store/flaky").unwrap().rows;
    let provs: Vec<Provenance> = rows.iter().filter_map(|r| r.provenance).collect();
    assert!(provs.contains(&Provenance::Measured));
    assert!(provs.contains(&Provenance::Stale), "outage marked in the queue");
    let latest = apollo.query("SELECT MAX(Timestamp), metric FROM store/steady").unwrap();
    assert_eq!(latest.rows[0].value, 1.0);

    Digest {
        topics: broker
            .topic_names()
            .into_iter()
            .map(|name| {
                let entries = broker
                    .range(&name, StreamId::MIN, StreamId::MAX)
                    .into_iter()
                    .map(|e| (e.id.ms, e.id.seq, e.payload.to_vec()))
                    .collect();
                (name, entries)
            })
            .collect(),
        counters: (stats.hook_calls, stats.facts_published, stats.facts_stale, stats.poll_failures),
        faults_injected: (flaky_src.faults_injected(), noisy_src.faults_injected()),
    }
}

#[test]
fn service_survives_seeded_faults_and_recovers() {
    // All the behavioural assertions live inside the scenario.
    run_scenario(7);
}

#[test]
fn same_seed_replays_bit_identically() {
    assert_eq!(run_scenario(11), run_scenario(11));
}

#[test]
fn different_seeds_produce_different_schedules() {
    assert_ne!(run_scenario(1), run_scenario(2));
}
