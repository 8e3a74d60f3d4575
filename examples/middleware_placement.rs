//! Resource-aware data placement: Apollo feeding a middleware engine.
//!
//! Runs the VPIC-IO write workload through the Hierarchical Data
//! Placement Engine under its three policies (§4.4.2) and shows how the
//! Apollo-aware policy avoids flush-stalls by consuming capacity facts
//! from the pub-sub fabric.
//!
//! Run: `cargo run --release -p apollo-bench --example middleware_placement`

use apollo_cluster::workloads::apps::vpic;
use apollo_middleware::placement::{PlacementEngine, PlacementPolicy};
use apollo_middleware::targets::TargetSet;
use apollo_middleware::view::{ApolloView, BlindView, CapacityView};
use apollo_streams::codec::Record;
use apollo_streams::{Broker, StreamConfig};
use std::sync::Arc;

fn main() {
    // 512 processes, 32 MB per step, 16 steps = 256 GB of writes into a
    // 96 GB NVMe + 1 TB burst-buffer hierarchy.
    let ops = vpic(512);
    println!(
        "VPIC-IO: {} write ops, {:.0} GB total\n",
        ops.len(),
        apollo_cluster::workloads::apps::total_bytes(&ops) as f64 / 1e9
    );
    println!(
        "{:<14}{:>12}{:>9}{:>9}{:>12}{:>12}",
        "policy", "io_time(s)", "stalls", "flushes", "fast(GB)", "pfs(GB)"
    );
    println!("{}", "-".repeat(68));

    let mut times = std::collections::HashMap::new();
    for policy in
        [PlacementPolicy::PfsOnly, PlacementPolicy::RoundRobin, PlacementPolicy::ApolloAware]
    {
        let targets = TargetSet::paper_hierarchy();
        let broker = Arc::new(Broker::new(StreamConfig::default()));
        let view: Box<dyn CapacityView> = match policy {
            PlacementPolicy::ApolloAware => Box::new(ApolloView::new(Arc::clone(&broker))),
            _ => Box::new(BlindView::default()),
        };
        let devices = targets.targets.clone();
        let mut engine = PlacementEngine::new(targets, policy, view);

        // Before each application step, Apollo's monitoring publishes
        // fresh capacity facts (what the fact vertices do continuously).
        let report = engine.run_with(&ops, |step, _sim_t| {
            for d in &devices {
                broker.publish(
                    &ApolloView::capacity_topic(d.name()),
                    u64::from(step) + 1,
                    Record::measured(u64::from(step) * 1_000_000_000, d.remaining_bytes() as f64),
                );
            }
        });

        let name = match policy {
            PlacementPolicy::PfsOnly => "pfs-only",
            PlacementPolicy::RoundRobin => "round-robin",
            PlacementPolicy::ApolloAware => "apollo-aware",
        };
        println!(
            "{name:<14}{:>12.1}{:>9}{:>9}{:>12.1}{:>12.1}",
            report.io_time_s,
            report.stalls,
            report.flushes,
            report.bytes_fast as f64 / 1e9,
            report.bytes_pfs as f64 / 1e9
        );
        times.insert(name, report.io_time_s);
    }

    let rr = times["round-robin"];
    let apollo = times["apollo-aware"];
    let pfs = times["pfs-only"];
    println!(
        "\nBuffered placement beats PFS-only by {:.2}x; capacity awareness \
         adds another {:+.1}% over round-robin.",
        pfs / rr,
        (rr / apollo - 1.0) * 100.0
    );
    assert!(apollo <= rr, "resource awareness must not hurt");
}
