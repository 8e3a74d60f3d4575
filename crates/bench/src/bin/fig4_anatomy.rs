//! Figure 4 — anatomy of operations in the two SCoRe vertex types.
//!
//! Paper setup: one Fact vertex (capacity metric) and one Insight vertex
//! deriving from it, on a single node. Reported: the percentage of time
//! each internal component consumes. Paper shape: the monitor hook
//! dominates the Fact vertex (~97.5%) with publish ~1.8%; the Insight
//! vertex splits across consume/build/publish/other.
//!
//! The anatomy is built from the vertices' sampled calls (the first, then
//! one in `apollo_obs::SAMPLE_PERIOD`), so the run is ten virtual hours:
//! ~560 timed calls a vertex, so the first publish's topic creation fades.
//!
//! Run: `cargo run --release -p apollo-bench --bin fig4_anatomy`

use apollo_bench::report::{Report, Series};
use apollo_cluster::metrics::TraceSource;
use apollo_cluster::series::TimeSeries;
use apollo_core::service::{Apollo, FactVertexSpec, InsightVertexSpec};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let mut apollo = Apollo::new_virtual();

    // A capacity metric that changes every second (so publishes happen).
    let trace = TimeSeries::from_points(
        (0..40_000u64).map(|i| (i * 1_000_000_000, 2.5e11 - (i as f64) * 38_000.0)).collect(),
    );
    apollo
        .register_fact(FactVertexSpec::fixed(
            "node0/nvme0/capacity",
            Arc::new(TraceSource::new("capacity", trace)),
            Duration::from_secs(1),
        ))
        .expect("register fact");
    apollo
        .register_insight(InsightVertexSpec::new(
            "node0/capacity_insight",
            vec!["node0/nvme0/capacity".into()],
            Duration::from_secs(1),
            |inputs| inputs.value("node0/nvme0/capacity").map(|v| v / 1e9),
        ))
        .expect("register insight");

    apollo.run_for(Duration::from_secs(36_000));

    let mut report = Report::new("fig4", "vertex operation anatomy (% of time per component)");

    println!("\n(a) Fact Vertex");
    let mut fact_series = Series::new("fact_vertex_pct");
    for (i, (phase, nanos, frac)) in apollo.facts()[0].phase_timer().breakdown().iter().enumerate()
    {
        println!("    {phase:<16} {:>7.2}%   ({} ns total)", frac * 100.0, nanos);
        fact_series.push(i as f64, frac * 100.0);
        report.note(format!("fact_{phase}_pct"), frac * 100.0);
    }
    report.add_series(fact_series);

    println!("(b) Insight Vertex");
    let mut insight_series = Series::new("insight_vertex_pct");
    for (i, (phase, nanos, frac)) in
        apollo.insights()[0].phase_timer().breakdown().iter().enumerate()
    {
        println!("    {phase:<16} {:>7.2}%   ({} ns total)", frac * 100.0, nanos);
        insight_series.push(i as f64, frac * 100.0);
        report.note(format!("insight_{phase}_pct"), frac * 100.0);
    }
    report.add_series(insight_series);

    println!("\nPaper shape: Fact vertex dominated by the monitor hook (97.5%),");
    println!("publish ~1.8%; SCoRe's queue is never the bottleneck.");
    report.finish("phase index", "% time");
}
