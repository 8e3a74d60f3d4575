//! Figure 5 — Apollo resource consumption and overhead under an
//! IOR-style workload.
//!
//! Paper: CPU-share breakdown (Apollo executables ≈13.3% of the active
//! CPU pie, IOR ≈7.2%, PAT ≈27.2%, SAR ≈4.51%) and memory overhead
//! (~57 MB, <0.1% of an Ares node's 96 GB).
//!
//! We reproduce the two Apollo-controlled quantities directly —
//! Apollo's CPU *work share* (time spent in hooks/build/publish relative
//! to the modelled application I/O work) and its memory footprint — and
//! report the paper's external-tool numbers alongside for reference.
//!
//! Run: `cargo run --release -p apollo-bench --bin fig5_overhead`

use apollo_bench::report::Report;
use apollo_cluster::cluster::SimCluster;
use apollo_cluster::device::DeviceKind;
use apollo_cluster::metrics::{DeviceMetric, MetricKind};
use apollo_cluster::workloads::ior::{generate, IorConfig};
use apollo_core::service::{Apollo, FactVertexSpec, InsightVertexSpec};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let cluster = SimCluster::ares_scaled(4, 4);
    let mut apollo = Apollo::new_virtual();

    // Monitor every device: capacity + queue depth + bandwidth.
    let mut capacity_topics = Vec::new();
    for (node, device) in cluster.devices() {
        for kind in
            [MetricKind::RemainingCapacity, MetricKind::QueueDepth, MetricKind::RealBandwidth]
        {
            let name = format!(
                "node{node}/{}",
                format_args!("{}/{}", device.spec.kind.label(), kind.label())
            );
            if kind == MetricKind::RemainingCapacity {
                capacity_topics.push(name.clone());
            }
            let mut spec = FactVertexSpec::fixed(
                name,
                Arc::new(DeviceMetric::new(Arc::clone(&device), kind)),
                Duration::from_secs(1),
            );
            if kind != MetricKind::RemainingCapacity {
                // Queue depth / bandwidth are volatile: every sample is a
                // fresh record (the change filter would rarely trigger on
                // real hardware either).
                spec = spec.publish_always();
            }
            apollo.register_fact(spec).expect("register");
        }
    }
    apollo
        .register_insight(InsightVertexSpec::sum_of(
            "cluster/total_capacity",
            capacity_topics,
            Duration::from_secs(1),
        ))
        .expect("register insight");

    // Replay an IOR schedule against the NVMe tier while Apollo monitors.
    let ior = IorConfig { procs: 40, iterations: 4, ..IorConfig::default() };
    let events = generate(&ior);
    let nvmes = cluster.tier(DeviceKind::Nvme);
    let mut app_io_bytes: u64 = 0;
    // Monitor for exactly the span of the IOR run, as the paper does.
    let duration_s = (events.last().map(|e| e.at_ns).unwrap_or(0) / 1_000_000_000 + 1).max(60);
    for e in &events {
        let d = &nvmes[(e.rank as usize) % nvmes.len()];
        if e.write {
            let _ = d.write(e.at_ns, e.bytes);
        } else {
            d.read(e.at_ns, e.bytes, u64::from(e.rank) * 1000);
        }
        app_io_bytes += e.bytes;
    }
    apollo.run_for(Duration::from_secs(duration_s));

    // Apollo CPU work: the time its vertices spent in all phases.
    let apollo_work_ns: u64 = apollo
        .facts()
        .iter()
        .map(|f| f.phase_timer().estimated_total())
        .chain(apollo.insights().iter().map(|i| i.phase_timer().estimated_total()))
        .sum();
    // Application I/O work: bytes over NVMe bandwidth (the IOR pie slice).
    let app_work_ns = (app_io_bytes as f64 / 2.0e9 * 1e9) as u64;
    let apollo_share = apollo_work_ns as f64 / (apollo_work_ns + app_work_ns) as f64 * 100.0;

    let mem = apollo.approx_memory_bytes();
    // The footprint is retention-bound: with every queue window full
    // (65 536 records of 17 B + bookkeeping) the service saturates at
    // this ceiling — the figure's "steady state" number.
    let n_topics = apollo.facts().len() + apollo.insights().len();
    let per_entry = 17 + 56; // payload + Entry bookkeeping
    let saturated = n_topics * 65_536 * per_entry;
    let node_ram: u64 = 96_000_000_000;

    let mut report = Report::new("fig5", "Apollo resource consumption under IOR");
    report.note("apollo_cpu_work_ms", apollo_work_ns as f64 / 1e6);
    report.note("app_io_work_ms", app_work_ns as f64 / 1e6);
    report.note("apollo_cpu_share_pct", apollo_share);
    report.note("apollo_memory_bytes", mem as u64);
    report.note("apollo_memory_mb", mem as f64 / 1e6);
    report.note("apollo_memory_saturated_mb", saturated as f64 / 1e6);
    report.note("memory_pct_of_node", mem as f64 / node_ram as f64 * 100.0);
    report.note("hook_calls", apollo.total_hook_calls());
    report.note("paper_apollo_cpu_pct", 13.32);
    report.note("paper_memory_mb", 57.0);
    // Self-observation: the run's own counters/histograms ride along in
    // the JSON, so overhead numbers are auditable after the fact.
    report.attach_metrics(&apollo.metrics_snapshot());

    println!("\n(a) CPU breakdown");
    println!("    Apollo vertices work: {:>10.2} ms", apollo_work_ns as f64 / 1e6);
    println!("    IOR application I/O : {:>10.2} ms", app_work_ns as f64 / 1e6);
    println!("    Apollo CPU share    : {:>10.2} %   (paper: 13.32%)", apollo_share);
    println!("(b) Memory");
    println!(
        "    Apollo queues (run) : {:>10.2} MB  (paper: ~57 MB process footprint)",
        mem as f64 / 1e6
    );
    println!("    Retention ceiling   : {:>10.2} MB  (all windows full)", saturated as f64 / 1e6);
    println!(
        "    Fraction of node RAM: {:>10.4} %   (paper: <0.1%)",
        saturated as f64 / node_ram as f64 * 100.0
    );
    report.finish("-", "-");
}
