//! Figure 12 — Apollo vs the LDMS-model baseline.
//!
//! (a) Average resource-query latency scaling monitored nodes 1→16 at a
//!     fixed query complexity of 3.
//! (b) Average query latency scaling complexity 1→8 at 16 nodes.
//! (c) Monitoring-side CPU overhead per process at 16 nodes, complexity 3.
//!
//! The resource query is Algorithm 4.4.1: a UNION of `MAX(Timestamp),
//! metric` table accesses, issued by a hierarchical data placement
//! middleware. Paper shape: Apollo ≈3.5× lower latency than LDMS, with
//! only ≈7% more overhead.
//!
//! Run: `cargo run --release -p apollo-bench --bin fig12_vs_ldms`

use apollo_bench::ldms::{LdmsConfig, LdmsService};
use apollo_bench::report::{Report, Series};
use apollo_cluster::device::DeviceKind;
use apollo_cluster::metrics::{MetricSource, TraceSource};
use apollo_cluster::series::TimeSeries;
use apollo_cluster::workloads::fio::{self, SarMetric};
use apollo_core::service::{Apollo, FactVertexSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seconds of telemetry history both services collect before querying
/// (2 h — enough that the flat-file scan cost is visible, as on a real
/// deployment that has been up for a while).
const WARMUP_S: u64 = 7_200;
/// Queries per measurement.
const QUERIES: u32 = 200;

fn metric_trace(node: u32, m: usize) -> TimeSeries {
    fio::trace(
        DeviceKind::Nvme,
        SarMetric::ALL[m % SarMetric::ALL.len()],
        (WARMUP_S + 10) as usize,
        u64::from(node) * 31 + m as u64,
    )
}

/// Table names for one node's metrics.
fn tables_for(nodes: u32, per_node: usize) -> Vec<String> {
    let mut t = Vec::new();
    for n in 0..nodes {
        for m in 0..per_node {
            t.push(format!("node_{n}_metric_{m}"));
        }
    }
    t
}

fn build_apollo(nodes: u32, per_node: usize) -> Apollo {
    let mut apollo = Apollo::new_virtual();
    for n in 0..nodes {
        for m in 0..per_node {
            let name = format!("node_{n}_metric_{m}");
            apollo
                .register_fact(FactVertexSpec::fixed(
                    name.clone(),
                    Arc::new(TraceSource::new(name, metric_trace(n, m))),
                    Duration::from_secs(1),
                ))
                .expect("register");
        }
    }
    apollo.run_for(Duration::from_secs(WARMUP_S));
    apollo
}

fn build_ldms(nodes: u32, per_node: usize) -> LdmsService {
    let mut ldms = LdmsService::new_virtual(LdmsConfig {
        interval: Duration::from_secs(1),
        retention_rows: 100_000,
    });
    for n in 0..nodes {
        for m in 0..per_node {
            let name = format!("node_{n}_metric_{m}");
            let src: Arc<dyn MetricSource> =
                Arc::new(TraceSource::new(name.clone(), metric_trace(n, m)));
            ldms.register_sampler(name, src);
        }
    }
    ldms.run_for(Duration::from_secs(WARMUP_S));
    ldms
}

/// Build the Algorithm 4.4.1 resource query over `complexity` tables
/// spread across nodes.
fn resource_query_tables(all_tables: &[String], complexity: usize) -> Vec<&str> {
    all_tables
        .iter()
        .step_by((all_tables.len() / complexity).max(1))
        .take(complexity)
        .map(String::as_str)
        .collect()
}

fn apollo_query_latency(apollo: &Apollo, tables: &[&str]) -> f64 {
    let sql = tables
        .iter()
        .map(|t| format!("SELECT MAX(Timestamp), metric FROM {t}"))
        .collect::<Vec<_>>()
        .join(" UNION ");
    // Warm once.
    apollo.query(&sql).expect("query ok");
    let start = Instant::now();
    for _ in 0..QUERIES {
        std::hint::black_box(apollo.query(&sql).expect("query ok"));
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(QUERIES)
}

fn ldms_query_latency(ldms: &LdmsService, tables: &[&str]) -> f64 {
    ldms.query_latest(tables).expect("query ok");
    let start = Instant::now();
    for _ in 0..QUERIES {
        std::hint::black_box(ldms.query_latest(tables).expect("query ok"));
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(QUERIES)
}

fn main() {
    let per_node = 4usize;

    // (a) scale nodes at complexity 3.
    let mut report_a = Report::new("fig12a", "query latency vs monitored nodes (complexity 3)");
    let mut apollo_s = Series::new("apollo_us");
    let mut ldms_s = Series::new("ldms_us");
    println!("\n(a) latency vs nodes (complexity 3)");
    for nodes in [1u32, 2, 4, 8, 16] {
        let apollo = build_apollo(nodes, per_node);
        let ldms = build_ldms(nodes, per_node);
        let tables = tables_for(nodes, per_node);
        let q = resource_query_tables(&tables, 3);
        let a = apollo_query_latency(&apollo, &q);
        let l = ldms_query_latency(&ldms, &q);
        println!("  nodes={nodes:>2}  apollo {a:>9.1} us   ldms {l:>9.1} us   ({:.2}x)", l / a);
        apollo_s.push(f64::from(nodes), a);
        ldms_s.push(f64::from(nodes), l);
    }
    report_a.add_series(apollo_s);
    report_a.add_series(ldms_s);
    report_a.note("paper_shape", "Apollo ≈3.5x lower latency than LDMS");
    report_a.finish("nodes", "latency (us)");

    // (b) scale complexity at 16 nodes.
    let mut report_b = Report::new("fig12b", "query latency vs complexity (16 nodes)");
    let mut apollo_s = Series::new("apollo_us");
    let mut ldms_s = Series::new("ldms_us");
    let apollo = build_apollo(16, per_node);
    let ldms = build_ldms(16, per_node);
    let tables = tables_for(16, per_node);
    println!("(b) latency vs complexity (16 nodes)");
    let mut ratios = Vec::new();
    for complexity in [1usize, 2, 3, 4, 6, 8] {
        let q = resource_query_tables(&tables, complexity);
        let a = apollo_query_latency(&apollo, &q);
        let l = ldms_query_latency(&ldms, &q);
        println!(
            "  complexity={complexity}  apollo {a:>9.1} us   ldms {l:>9.1} us   ({:.2}x)",
            l / a
        );
        apollo_s.push(complexity as f64, a);
        ldms_s.push(complexity as f64, l);
        ratios.push(l / a);
    }
    let mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
    report_b.add_series(apollo_s);
    report_b.add_series(ldms_s);
    report_b.note("mean_latency_ratio", mean_ratio);
    report_b.finish("query complexity", "latency (us)");

    // (c) monitoring CPU overhead at 16 nodes: hook/sampler work.
    let mut report_c = Report::new("fig12c", "monitoring overhead at 16 nodes (complexity 3)");
    let apollo = build_apollo(16, per_node);
    let ldms = build_ldms(16, per_node);
    // Apollo per-vertex work (hook + build + publish), summed.
    let apollo_work_ns: u64 =
        apollo.facts().iter().map(|f| f.phase_timer().estimated_total()).sum();
    // LDMS per-sampler work: samples × the same modelled 0.5 ms hook cost.
    let ldms_work_ns = ldms.total_samples() * 500_000;
    let overhead = apollo_work_ns as f64 / ldms_work_ns as f64 - 1.0;
    println!(
        "(c) overhead: apollo work {:.1} ms vs ldms {:.1} ms  ({:+.1}%)",
        apollo_work_ns as f64 / 1e6,
        ldms_work_ns as f64 / 1e6,
        overhead * 100.0
    );
    println!("    (paper: Apollo ≈ +7% overhead for 3.5x lower latency)");
    report_c.note("apollo_work_ms", apollo_work_ns as f64 / 1e6);
    report_c.note("ldms_work_ms", ldms_work_ns as f64 / 1e6);
    report_c.note("apollo_extra_overhead_pct", overhead * 100.0);
    report_c.note("paper", "+7% overhead, 3.5x lower latency");
    report_c.finish("-", "-");
}
