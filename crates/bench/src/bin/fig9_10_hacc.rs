//! Figures 9 & 10 — Apollo on irregular (Fig 9) and regular (Fig 10)
//! HACC-IO workloads: capacity-over-time as seen by each configuration,
//! and the monitoring cost (hook calls).
//!
//! Configurations, as in §4.3.2:
//! * baseline — 1-second fixed monitoring (the "ideal" trace),
//! * adaptive — the dynamic monitoring interval alone,
//! * adaptive+Delphi — the dynamic interval with the Delphi model
//!   predicting intermediate values between polls.
//!
//! Paper shape: the predictive model tracks the capacity curve closely
//! "for a fraction of the cost compared to monitoring as often as
//! possible".
//!
//! Run: `cargo run --release -p apollo-bench --bin fig9_10_hacc`

use apollo_adaptive::controller::{
    AimdParams, ChangeMode, FixedInterval, IntervalController, SimpleAimd,
};
use apollo_bench::eval::monitor;
use apollo_bench::report::{Report, Series};
use apollo_cluster::workloads::hacc::{HaccConfig, HaccWorkload};
use apollo_delphi::stack::{Delphi, DelphiConfig};
use std::time::Duration;

/// A prediction counts as a match when it lands within ~12.5 kB of the
/// true capacity (5e-8 of 250 GB) — less than one HACC write, so
/// hold-last errors cannot sneak in.
const TOLERANCE: f64 = 5e-8;

fn params() -> AimdParams {
    AimdParams {
        threshold: 1_000.0,
        change_mode: ChangeMode::Absolute,
        add_step: Duration::from_secs(1),
        decrease_factor: 2.0,
        min_interval: Duration::from_secs(1),
        max_interval: Duration::from_secs(60),
        initial_interval: Duration::from_secs(5),
    }
}

fn main() {
    println!("Training Delphi (stacked feature models + combiner)…");
    let delphi = Delphi::train(DelphiConfig::default());

    for (fig, workload_name, config) in [
        ("fig9", "irregular", HaccConfig::irregular(909)),
        ("fig10", "regular", HaccConfig::regular()),
    ] {
        let reference = HaccWorkload::generate(config).reference_trace_1s();
        let mut report = Report::new(fig, format!("Apollo on {workload_name} HACC-IO"));

        // Each configuration monitors the capacity trace inside a
        // virtual-clock Apollo. Simple AIMD is the low-cost end of the
        // adaptive spectrum — where prediction between (long) polls
        // matters.
        let run = |controller: Box<dyn IntervalController>, delphi| {
            monitor(controller, &reference, delphi, TOLERANCE)
        };
        let runs = [
            (
                "baseline-1s",
                "baseline",
                run(Box::new(FixedInterval::new(Duration::from_secs(1))), None),
            ),
            ("adaptive", "adaptive", run(Box::new(SimpleAimd::new(params())), None)),
            (
                "adaptive+delphi",
                "adaptive_delphi",
                run(Box::new(SimpleAimd::new(params())), Some(delphi.clone())),
            ),
        ];

        println!("\n== {fig} ({workload_name}) ==");
        println!(
            "{:<22}{:>10}{:>10}{:>12}{:>12}{:>11}",
            "config", "accuracy", "cost", "hook calls", "rmse (kB)", "predicted"
        );
        for (label, series, out) in &runs {
            println!(
                "{label:<22}{:>10.4}{:>10.4}{:>12}{:>12.2}{:>11}",
                out.accuracy,
                out.cost,
                out.hook_calls,
                out.rmse / 1e3,
                out.predicted
            );
            report.note(format!("{label}_accuracy"), out.accuracy);
            report.note(format!("{label}_cost"), out.cost);
            report.note(format!("{label}_hook_calls"), out.hook_calls);
            report.note(format!("{label}_rmse_bytes"), out.rmse);
            report.note(format!("{label}_predicted_points"), out.predicted);
            // Capacity as each configuration saw it, every 30 s.
            let mut s = Series::new(format!("{series}_capacity_gb"));
            for (t, v) in out.belief.points().iter().step_by(30) {
                s.push(*t as f64 / 1e9, v / 1e9);
            }
            report.add_series(s);
        }
        report.note("accuracy_tolerance", TOLERANCE);

        let (base, with_delphi) = (&runs[0].2, &runs[2].2);
        let frac = with_delphi.cost / base.cost;
        println!(
            "adaptive+delphi monitors the capacity at {:.1}% of the 1 s polling \
             cost, storing {} predicted rows between polls (RMSE {:.1} kB ≈ {:.1} \
             writes on a 250 GB metric).",
            frac * 100.0,
            with_delphi.predicted,
            with_delphi.rmse / 1e3,
            with_delphi.rmse / 28_500.0
        );
        report.note("cost_fraction_vs_1s", frac);
        report.finish("time (s)", "capacity (GB)");
    }
}
