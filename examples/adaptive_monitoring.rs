//! Adaptive monitoring demo: the §3.4 machinery end-to-end.
//!
//! Monitors the paper's irregular HACC capacity workload inside a
//! virtual-clock Apollo under three configurations — fixed 1 s polling,
//! complex AIMD, and complex AIMD with Delphi predicting values between
//! polls — and prints the accuracy/cost trade-off each achieves, read
//! back from the stored topic (the Figures 8–9 story).
//!
//! Run: `cargo run --release -p apollo-bench --example adaptive_monitoring`

use apollo_adaptive::controller::{AimdParams, ChangeMode, ComplexAimd, FixedInterval};
use apollo_bench::eval::monitor;
use apollo_cluster::workloads::hacc::{HaccConfig, HaccWorkload};
use apollo_delphi::stack::{Delphi, DelphiConfig};
use std::time::Duration;

fn main() {
    // The workload: random 19–38 kB writes to an NVMe every 5–20 s for
    // 30 minutes, exactly as §4.3.1 describes.
    let workload = HaccWorkload::generate(HaccConfig::irregular(42));
    let reference = workload.reference_trace_1s();
    println!(
        "Irregular HACC workload: {} writes, {:.1} MB total over {} s",
        workload.events().len(),
        workload.total_bytes() as f64 / 1e6,
        workload.config().duration_s
    );

    let params = AimdParams {
        threshold: 1_000.0, // bytes; below one HACC write
        change_mode: ChangeMode::Absolute,
        add_step: Duration::from_secs(1),
        decrease_factor: 2.0,
        min_interval: Duration::from_secs(1),
        max_interval: Duration::from_secs(60),
        initial_interval: Duration::from_secs(5),
    };

    println!("\n{:<24}{:>10}{:>10}{:>12}", "configuration", "accuracy", "cost", "hook calls");
    println!("{}", "-".repeat(58));

    let base = monitor(Box::new(FixedInterval::new(Duration::from_secs(1))), &reference, None, 0.0);
    println!(
        "{:<24}{:>10.4}{:>10.4}{:>12}",
        "fixed-1s (ideal)", base.accuracy, base.cost, base.hook_calls
    );

    let adaptive = monitor(Box::new(ComplexAimd::new(params.clone(), 10)), &reference, None, 0.0);
    println!(
        "{:<24}{:>10.4}{:>10.4}{:>12}",
        "complex AIMD", adaptive.accuracy, adaptive.cost, adaptive.hook_calls
    );

    println!("\nTraining Delphi (eight frozen feature models + combiner)…");
    let delphi = Delphi::train(DelphiConfig::default());
    let with_delphi =
        monitor(Box::new(ComplexAimd::new(params, 10)), &reference, Some(delphi), 5e-8);
    println!(
        "{:<24}{:>10.4}{:>10.4}{:>12}   ({} rows predicted)",
        "complex AIMD + Delphi",
        with_delphi.accuracy,
        with_delphi.cost,
        with_delphi.hook_calls,
        with_delphi.predicted
    );

    println!(
        "\nThe adaptive interval polls {:.1}% as often as the 1 s baseline;\n\
         Delphi stores {} predicted rows between polls at no polling cost.",
        with_delphi.cost * 100.0,
        with_delphi.predicted
    );
    assert!(with_delphi.cost < 1.0);
}
