//! Chaos soak regression gate — drive a 10⁴-vertex SCoRe fleet on the
//! service loop and prediction pump under the standard composed
//! chaos schedule (cascading rack loss, correlated flaps, latency storm,
//! clock skew, slow consumers, backpressure bursts), continuously
//! asserting the live invariants, and persist the verdicts + latency /
//! memory envelope as `bench_results/chaos_soak.json` for CI to gate on.
//!
//! Run: `cargo run --release -p apollo-bench --bin chaos_soak`
//!   `--smoke`             ~30 s seeded mini-soak, saved as
//!                         `chaos_soak_smoke.json` (CI chaos-smoke job)
//!   `--vertices N`        fleet size (default 10000; smoke 512)
//!   `--horizon-secs S`    virtual-time horizon (default 180; smoke 45)
//!   `--seed S`            master seed (default 7)
//!
//! The process exits non-zero when any invariant verdict fails, so the
//! CI job is the run itself — no separate comparator needed beyond the
//! schema check in bench-smoke.

use apollo_bench::report::{Report, Series};
use apollo_bench::soak::{self, SoakConfig};
use std::time::{Duration, Instant};

struct Args {
    smoke: bool,
    vertices: usize,
    horizon: Duration,
    seed: u64,
}

fn parse_args() -> Args {
    let mut smoke = false;
    let mut vertices: Option<u64> = None;
    let mut horizon = None;
    let mut seed = 7u64;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val =
            |what: &str| it.next().unwrap_or_else(|| panic!("{what} requires a value")).parse();
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--vertices" => vertices = Some(val("--vertices").expect("--vertices N")),
            "--horizon-secs" => {
                horizon = Some(Duration::from_secs(val("--horizon-secs").expect("--horizon S")))
            }
            "--seed" => seed = val("--seed").expect("--seed S"),
            other => panic!("unknown argument {other}"),
        }
    }
    Args {
        smoke,
        vertices: vertices.unwrap_or(if smoke { 512 } else { 10_000 }) as usize,
        horizon: horizon.unwrap_or(Duration::from_secs(if smoke { 45 } else { 180 })),
        seed,
    }
}

fn main() {
    let args = parse_args();
    let config = SoakConfig {
        vertices: args.vertices,
        seed: args.seed,
        horizon: args.horizon,
        checkpoint_every: Duration::from_secs(if args.smoke { 5 } else { 10 }),
        scan_topics: if args.smoke { 16 } else { 32 },
        pump_every: Some(Duration::from_secs(2)),
        pump_stride: 64,
        ..SoakConfig::default()
    };
    let schedule = soak::standard_schedule(config.vertices, config.seed, config.horizon);

    println!(
        "chaos_soak: {} vertices, {:?} horizon, seed {} ({})",
        config.vertices,
        config.horizon,
        config.seed,
        if args.smoke { "smoke" } else { "full" },
    );
    let started = Instant::now();
    let outcome = soak::run(&config, &schedule).expect("standard schedule compiles");
    let wall = started.elapsed();

    let experiment = if args.smoke { "chaos_soak_smoke" } else { "chaos_soak" };
    let mut report = Report::new(experiment, "chaos soak: composed faults, live invariants");
    report.note("schedule", outcome.schedule.clone());
    report.note("seed", outcome.seed);
    report.note("vertices", outcome.vertices as u64);
    report.note("fault_kinds", outcome.fault_kinds.clone());
    report.note("faulted_sources", outcome.faulted_sources as u64);
    report.note("horizon_secs", config.horizon.as_secs());
    report.note("wall_secs", wall.as_secs_f64());
    for v in &outcome.verdicts {
        report.note(format!("invariant_{}", v.name), if v.pass { "pass" } else { "fail" });
        report.note(format!("invariant_{}_detail", v.name), v.detail.clone());
    }
    report.note("p99_poll_ns", outcome.p99_poll_ns);
    report.note("p99_dispatch_ns", outcome.p99_dispatch_ns);
    report.note("peak_memory_bytes", outcome.peak_memory_bytes as u64);
    report.note("memory_ceiling_bytes", outcome.memory_ceiling_bytes as u64);
    report.note("quarantine_recoveries", outcome.quarantine_recoveries);
    report.note("facts_published", outcome.facts_published);
    report.note("scanned_entries", outcome.scanned_entries);
    report.note("clock_regressions", outcome.clock_regressions);
    report.note("digest", format!("{:016x}", outcome.digest));

    let mut memory = Series::new("memory_bytes");
    let mut poll = Series::new("p99_poll_ns");
    let mut quarantined = Series::new("quarantined");
    for cp in &outcome.checkpoints {
        let t = cp.t_ns as f64 / 1e9;
        memory.push(t, cp.memory_bytes as f64);
        poll.push(t, cp.p99_poll_ns as f64);
        quarantined.push(t, cp.quarantined as f64);
    }
    report.add_series(memory);
    report.add_series(poll);
    report.add_series(quarantined);
    report.finish("t_secs", "per-checkpoint");

    if !outcome.all_pass() {
        for v in outcome.verdicts.iter().filter(|v| !v.pass) {
            eprintln!("INVARIANT FAILED {}: {}", v.name, v.detail);
        }
        std::process::exit(1);
    }
}
