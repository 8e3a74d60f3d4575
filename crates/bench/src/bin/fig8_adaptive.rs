//! Figure 8 — cost and accuracy of fixed and AIMD-based adaptivity
//! models on the regular and irregular HACC capacity workloads.
//!
//! Paper setup (§4.3.1): 30-minute replays of the captured HACC capacity
//! trace; policies are a fixed 5 s interval, simple AIMD, and complex
//! AIMD with a rolling window of 10; accuracy/cost are scored against the
//! 1-second monitoring trace. Each policy monitors the trace inside a
//! virtual-clock Apollo ([`apollo_bench::eval::monitor`]), and its
//! accuracy is read back from the stored topic.
//!
//! Paper shape: on the regular workload the fixed 5 s interval is
//! near-optimal (it matches the write period) and simple AIMD is decent
//! at much lower cost; on the irregular workload complex AIMD is the most
//! accurate, at an associated cost.
//!
//! Run: `cargo run --release -p apollo-bench --bin fig8_adaptive`

use apollo_adaptive::controller::{
    AimdParams, ChangeMode, ComplexAimd, FixedInterval, IntervalController, SimpleAimd,
};
use apollo_adaptive::entropy::{EntropyInterval, EntropyParams};
use apollo_bench::eval::monitor;
use apollo_bench::report::{Report, Series};
use apollo_cluster::workloads::hacc::{HaccConfig, HaccWorkload};
use std::time::Duration;

fn params() -> AimdParams {
    AimdParams {
        // Capacity deltas are absolute bytes; one HACC write is ≥19 000 B.
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
    let mut report = Report::new("fig8", "cost and accuracy of adaptivity models on HACC");
    let mut acc_series = Series::new("accuracy");
    let mut cost_series = Series::new("cost");

    println!(
        "\n{:<12}{:<16}{:>10}{:>10}{:>12}",
        "workload", "policy", "accuracy", "cost", "hook calls"
    );
    println!("{}", "-".repeat(62));

    let mut idx = 0.0;
    for (workload_name, config) in
        [("regular", HaccConfig::regular()), ("irregular", HaccConfig::irregular(2021))]
    {
        let reference = HaccWorkload::generate(config).reference_trace_1s();
        let policies: Vec<Box<dyn IntervalController>> = vec![
            Box::new(FixedInterval::new(Duration::from_secs(5))),
            Box::new(SimpleAimd::new(params())),
            Box::new(ComplexAimd::new(params(), 10)),
            // §6 future-work extension, included for comparison.
            Box::new(EntropyInterval::new(EntropyParams::default())),
        ];
        for policy in policies {
            let name = policy.name();
            let out = monitor(policy, &reference, None, 0.0);
            println!(
                "{workload_name:<12}{name:<16}{:>10.4}{:>10.4}{:>12}",
                out.accuracy, out.cost, out.hook_calls
            );
            report.note(format!("{workload_name}_{name}_accuracy"), out.accuracy);
            report.note(format!("{workload_name}_{name}_cost"), out.cost);
            report.note(format!("{workload_name}_{name}_hook_calls"), out.hook_calls);
            acc_series.push(idx, out.accuracy);
            cost_series.push(idx, out.cost);
            idx += 1.0;
        }
    }

    // DESIGN §6 ablation: sweep the AIMD parameters on the irregular
    // workload and report the accuracy/cost frontier.
    println!("\nAIMD parameter sweep (irregular workload, complex AIMD w=10):");
    println!("{:<12}{:<10}{:>10}{:>10}", "threshold", "factor", "accuracy", "cost");
    let sweep_ref = HaccWorkload::generate(HaccConfig::irregular(2021)).reference_trace_1s();
    let mut sweep_acc = Series::new("sweep_accuracy");
    let mut sweep_cost = Series::new("sweep_cost");
    let mut idx2 = 0.0;
    for threshold in [100.0, 1_000.0, 10_000.0, 40_000.0] {
        for factor in [1.5, 2.0, 4.0] {
            let ctl =
                ComplexAimd::new(AimdParams { threshold, decrease_factor: factor, ..params() }, 10);
            let out = monitor(Box::new(ctl), &sweep_ref, None, 0.0);
            println!("{threshold:<12}{factor:<10}{:>10.4}{:>10.4}", out.accuracy, out.cost);
            report.note(
                format!("sweep_t{threshold}_f{factor}"),
                format!("acc={:.4} cost={:.4}", out.accuracy, out.cost),
            );
            sweep_acc.push(idx2, out.accuracy);
            sweep_cost.push(idx2, out.cost);
            idx2 += 1.0;
        }
    }
    report.add_series(sweep_acc);
    report.add_series(sweep_cost);

    report.add_series(acc_series);
    report.add_series(cost_series);
    report.note(
        "paper_shape",
        "fixed-5s near-optimal on regular; complex AIMD most accurate on irregular, with cost",
    );
    report.note("x_order", "per workload: fixed, simple, complex, entropy");
    report.finish("policy index", "ratio");
}
