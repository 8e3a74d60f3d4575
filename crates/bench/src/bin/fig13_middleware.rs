//! Figure 13 — Apollo aiding middleware libraries.
//!
//! (a) HDPE + VPIC-IO writes: PFS-only vs round-robin vs Apollo-aware.
//! (b) HDFE + Montage reads: PFS-only vs round-robin vs Apollo-aware.
//! (c) HDRE + VPIC writes & BD-CATS reads: PFS vs RR vs Apollo-aware.
//!
//! The Apollo-aware policies read capacity facts from a live Apollo
//! broker; the harness republishes device capacities before every
//! application step (standing in for the monitoring interval), so the
//! policies see *monitored* — not oracle — state.
//!
//! Paper shape: HDPE ≈2.3× over PFS and +18% from Apollo; HDFE ≈33%
//! over PFS and +16% from Apollo; HDRE ≈12% better with Apollo, with
//! query overhead <1%.
//!
//! Run: `cargo run --release -p apollo-bench --bin fig13_middleware`

use apollo_bench::report::Report;
use apollo_cluster::device::{Device, DeviceSpec};
use apollo_cluster::workloads::apps::{bdcats, montage, vpic};
use apollo_middleware::placement::{PlacementEngine, PlacementPolicy};
use apollo_middleware::prefetch::{PrefetchEngine, PrefetchPolicy};
use apollo_middleware::replication::{ReplicationEngine, ReplicationPolicy, ReplicationSet};
use apollo_middleware::report::SimReport;
use apollo_middleware::targets::TargetSet;
use apollo_middleware::view::{ApolloView, BlindView, CapacityView};
use apollo_streams::codec::Record;
use apollo_streams::{Broker, StreamConfig};
use std::sync::Arc;
use std::time::Duration;

const PROCS: u32 = 2560;

/// Publish a capacity fact for every device (what Apollo's fact vertices
/// do each monitoring interval).
fn publish_capacities(broker: &Broker, devices: &[Arc<Device>], t_ms: u64) {
    for d in devices {
        broker.publish(
            &ApolloView::capacity_topic(d.name()),
            t_ms,
            Record::measured(t_ms * 1_000_000, d.remaining_bytes() as f64),
        );
    }
}

fn main() {
    fig13a_placement();
    fig13b_prefetch();
    fig13c_replication();
}

fn fig13a_placement() {
    let mut report = Report::new("fig13a", "HDPE + VPIC-IO (write I/O time)");
    let ops = vpic(PROCS);
    println!("\n(a) HDPE + VPIC-IO ({} procs, 32MB x 16 steps)", PROCS);

    let mut results: Vec<(&str, SimReport)> = Vec::new();
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
        let broker2 = Arc::clone(&broker);
        let r = engine.run_with(&ops, move |step, _t| {
            // Monitoring re-polls capacities each application step.
            publish_capacities(&broker2, &devices, u64::from(step) + 1);
        });
        let label = match policy {
            PlacementPolicy::PfsOnly => "pfs_only",
            PlacementPolicy::RoundRobin => "round_robin",
            PlacementPolicy::ApolloAware => "apollo",
        };
        println!(
            "  {label:<12} io_time {:>9.1}s  stalls {:>5}  flushes {:>5}  fast {:>6.1}GB  pfs {:>6.1}GB",
            r.io_time_s,
            r.stalls,
            r.flushes,
            r.bytes_fast as f64 / 1e9,
            r.bytes_pfs as f64 / 1e9
        );
        report.note(format!("{label}_io_time_s"), r.io_time_s);
        report.note(format!("{label}_stalls"), r.stalls);
        results.push((label, r));
    }
    let pfs = &results[0].1;
    let rr = &results[1].1;
    let apollo = &results[2].1;
    report.note("hdpe_speedup_over_pfs", rr.speedup_over(pfs));
    report.note("apollo_gain_over_rr_pct", (rr.io_time_s / apollo.io_time_s - 1.0) * 100.0);
    report.note("apollo_query_overhead_pct", apollo.query_overhead_fraction() * 100.0);
    report.note("paper", "HDPE 2.3x over PFS; Apollo +18% over round-robin; <1% query overhead");
    println!(
        "  => HDPE {:.2}x over PFS; Apollo {:+.1}% over RR (query overhead {:.3}%)",
        rr.speedup_over(pfs),
        (rr.io_time_s / apollo.io_time_s - 1.0) * 100.0,
        apollo.query_overhead_fraction() * 100.0
    );
    report.finish("-", "-");
}

fn fig13b_prefetch() {
    let mut report = Report::new("fig13b", "HDFE + Montage (read I/O time)");
    let ops = montage(PROCS);
    println!("\n(b) HDFE + Montage ({} procs, 10MB x 16 steps)", PROCS);

    // Prefetch caches: the NVMe tier only (96 GB); per-step data is
    // 25.6 GB, lookahead 4 creates pressure.
    let caches = || {
        let mut targets = Vec::new();
        for i in 0..8 {
            let mut spec = DeviceSpec::nvme_250g();
            spec.capacity_bytes = 12_000_000_000;
            targets.push(Arc::new(Device::new(format!("cache{i}"), spec)));
        }
        let mut pfs_spec = DeviceSpec::pfs();
        pfs_spec.read_bw = 3.2e9;
        TargetSet::new(targets, Arc::new(Device::new("pfs", pfs_spec)))
    };

    let mut results: Vec<(&str, SimReport)> = Vec::new();
    for policy in [PrefetchPolicy::PfsOnly, PrefetchPolicy::RoundRobin, PrefetchPolicy::ApolloAware]
    {
        let cache_set = caches();
        let broker = Arc::new(Broker::new(StreamConfig::default()));
        let view: Box<dyn CapacityView> = match policy {
            PrefetchPolicy::ApolloAware => Box::new(ApolloView::new(Arc::clone(&broker))),
            _ => Box::new(BlindView::default()),
        };
        let devices = cache_set.targets.clone();
        let mut engine = PrefetchEngine::new(cache_set, policy, view, 4);
        let broker2 = Arc::clone(&broker);
        let r = engine.run_with(&ops, move |step, _t| {
            publish_capacities(&broker2, &devices, u64::from(step) + 1);
        });
        let label = match policy {
            PrefetchPolicy::PfsOnly => "pfs_only",
            PrefetchPolicy::RoundRobin => "round_robin",
            PrefetchPolicy::ApolloAware => "apollo",
        };
        println!(
            "  {label:<12} io_time {:>9.1}s  stalls {:>6}  evictions {:>6}  cache {:>6.1}GB  pfs {:>6.1}GB",
            r.io_time_s,
            r.stalls,
            r.evictions,
            r.bytes_fast as f64 / 1e9,
            r.bytes_pfs as f64 / 1e9
        );
        report.note(format!("{label}_io_time_s"), r.io_time_s);
        report.note(format!("{label}_stalls"), r.stalls);
        report.note(format!("{label}_evictions"), r.evictions);
        results.push((label, r));
    }
    let pfs = &results[0].1;
    let rr = &results[1].1;
    let apollo = &results[2].1;
    report.note("hdfe_gain_over_pfs_pct", (pfs.io_time_s / rr.io_time_s - 1.0) * 100.0);
    report.note("apollo_gain_over_rr_pct", (rr.io_time_s / apollo.io_time_s - 1.0) * 100.0);
    report.note("paper", "HDFE 33% over PFS; Apollo +16% over round-robin");
    println!(
        "  => HDFE {:+.1}% over PFS; Apollo {:+.1}% over RR",
        (pfs.io_time_s / rr.io_time_s - 1.0) * 100.0,
        (rr.io_time_s / apollo.io_time_s - 1.0) * 100.0
    );
    report.finish("-", "-");
}

fn fig13c_replication() {
    let mut report = Report::new("fig13c", "HDRE + VPIC/BD-CATS (write + read I/O time)");
    let writes = vpic(PROCS);
    let reads = bdcats(PROCS);
    println!("\n(c) HDRE + VPIC/BD-CATS ({} procs, 3x replication)", PROCS);

    // Replication sets sized so VPIC's replicated volume overflows them:
    // 4 sets x 3 replicas x 80 GB; logical volume 1.31 TB.
    let make_sets = || {
        let mut sets = Vec::new();
        for s in 0..4 {
            let mut devices = Vec::new();
            for r in 0..3 {
                let mut spec = DeviceSpec::nvme_250g();
                spec.capacity_bytes = 80_000_000_000;
                devices.push(Arc::new(Device::new(format!("set{s}/replica{r}"), spec)));
            }
            sets.push(ReplicationSet { devices, latency: Duration::from_micros(40 * (s + 1)) });
        }
        let mut pfs_spec = DeviceSpec::pfs();
        pfs_spec.write_bw = 2.5e9;
        pfs_spec.read_bw = 3.2e9;
        (sets, Arc::new(Device::new("pfs", pfs_spec)))
    };

    let mut rows: Vec<(&str, f64, f64, u64)> = Vec::new();
    for policy in
        [ReplicationPolicy::PfsOnly, ReplicationPolicy::RoundRobin, ReplicationPolicy::ApolloAware]
    {
        let (sets, pfs) = make_sets();
        let broker = Arc::new(Broker::new(StreamConfig::default()));
        let all_devices: Vec<Arc<Device>> =
            sets.iter().flat_map(|s| s.devices.iter().cloned()).collect();
        let view: Box<dyn CapacityView> = match policy {
            ReplicationPolicy::ApolloAware => Box::new(ApolloView::new(Arc::clone(&broker))),
            _ => Box::new(BlindView::default()),
        };
        publish_capacities(&broker, &all_devices, 1);
        let mut engine = ReplicationEngine::new(sets, pfs, policy, view);
        // Monitoring re-polls the replica devices before each step.
        let broker2 = Arc::clone(&broker);
        let devices2 = all_devices.clone();
        let w = engine.run_writes_with(&writes, move |step, _t| {
            publish_capacities(&broker2, &devices2, u64::from(step) + 2);
        });
        publish_capacities(&broker, &all_devices, 100);
        let r = engine.run_reads(&reads);
        let label = match policy {
            ReplicationPolicy::PfsOnly => "pfs_only",
            ReplicationPolicy::RoundRobin => "round_robin",
            ReplicationPolicy::ApolloAware => "apollo",
        };
        println!(
            "  {label:<12} write {:>8.1}s  read {:>8.1}s  total {:>8.1}s  stalls {:>5}",
            w.io_time_s,
            r.io_time_s,
            w.io_time_s + r.io_time_s,
            w.stalls + r.stalls
        );
        report.note(format!("{label}_write_s"), w.io_time_s);
        report.note(format!("{label}_read_s"), r.io_time_s);
        report.note(format!("{label}_stalls"), w.stalls + r.stalls);
        rows.push((label, w.io_time_s, r.io_time_s, w.stalls + r.stalls));
    }
    let rr_total = rows[1].1 + rows[1].2;
    let ap_total = rows[2].1 + rows[2].2;
    report.note("apollo_gain_over_rr_pct", (rr_total / ap_total - 1.0) * 100.0);
    report.note("paper", "HDRE: write slower (3x data), reads faster; Apollo ≈+12%");
    println!(
        "  => Apollo {:+.1}% over RR (write slower than PFS by design: 3x volume)",
        (rr_total / ap_total - 1.0) * 100.0
    );
    report.finish("-", "-");
}
