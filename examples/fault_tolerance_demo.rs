//! Fault-tolerance walkthrough: a monitor hook that errors, hangs, and
//! recovers, with its outage bridged by stale records; a slow subscriber
//! catching up from the stream.
//!
//! Run with:
//! ```bash
//! cargo run --release -p apollo-bench --example fault_tolerance_demo
//! ```
//!
//! Everything runs under the virtual clock from a fixed seed, so the
//! output is bit-identical on every run.

use apollo_cluster::fault::{FaultKind, FaultPlan, FaultWindow, FlakySource};
use apollo_cluster::metrics::ConstSource;
use apollo_core::health::SupervisorConfig;
use apollo_core::service::{Apollo, FactVertexSpec};
use apollo_streams::{Provenance, Record};
use std::sync::Arc;
use std::time::Duration;

const fn secs(s: u64) -> Duration {
    Duration::from_secs(s)
}

fn main() {
    let seed = 7u64;
    let mut apollo = Apollo::new_virtual();
    let broker = apollo.broker();

    // A hook that goes dark from t=5s to t=30s, then hangs at t=40..43s.
    let plan = FaultPlan::none()
        .with_window(FaultWindow::new(secs(5), secs(30), FaultKind::ErrorBurst))
        .with_window(FaultWindow::new(secs(40), secs(43), FaultKind::Hang));
    let flaky_src =
        Arc::new(FlakySource::new(Arc::new(ConstSource::new("flaky", 5.0)), plan, seed));
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
        .expect("register flaky");
    let steady = apollo
        .register_fact(FactVertexSpec::fixed(
            "store/steady",
            Arc::new(ConstSource::new("steady", 1.0)),
            secs(1),
        ))
        .expect("register steady");

    println!("== 60s run with a 25s error burst and a 3s hang ==");
    for window in 0..6 {
        apollo.run_for(secs(10));
        println!(
            "  t={:>2}s  flaky={:<11}  failures={:<2}  stale={:<2}  hook_calls(flaky/steady)={}/{}",
            (window + 1) * 10,
            flaky.health().to_string(),
            flaky.failures(),
            flaky.stale_published(),
            flaky.hook_calls(),
            steady.hook_calls(),
        );
    }
    let stats = apollo.stats();
    println!(
        "  loop survived: panics={} poll_failures={} facts_stale={} recoveries={}",
        stats.callback_panics,
        stats.poll_failures,
        stats.facts_stale,
        flaky.recoveries()
    );

    println!("\n== provenance in the queue (AQE view) ==");
    let rows = apollo.query("SELECT metric FROM store/flaky").expect("query").rows;
    let count = |p: Provenance| rows.iter().filter(|r| r.provenance == Some(p)).count();
    println!(
        "  {} records: {} measured, {} stale (outage bridged with last known value)",
        rows.len(),
        count(Provenance::Measured),
        count(Provenance::Stale)
    );

    println!("\n== a slow subscriber catches up from the stream ==");
    let sub = broker.subscribe("store/steady");
    for i in 0..10u64 {
        broker.publish("store/steady", 100 + i, Record::measured((100 + i) * 1_000_000, i as f64));
    }
    let taken: Vec<u8> = sub.drain().iter().map(|e| e.record.value as u8).collect();
    println!(
        "  published 10 while it read nothing: one drain takes {:?} from its cursor \
         (the stream holds {} entries, no copy for the reader)",
        taken,
        broker.topic_len("store/steady"),
    );
}
