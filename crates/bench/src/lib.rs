//! # apollo-bench
//!
//! The figure/table regeneration harness: one binary per table and figure
//! of the paper's evaluation (§4), the two reports that measure what
//! `benchmarks/pipeline` cannot drive, and the gate that holds every
//! committed report to `bench_gates.md`.
//!
//! | Target | Reproduces or measures |
//! |--------|------------|
//! | `fig_table1` | Table 1 — the 15 I/O curations, computed live |
//! | `fig3c_delphi_verify` | Fig 3c — Delphi verification on I/O metrics |
//! | `fig4_anatomy` | Fig 4 — vertex operation anatomy |
//! | `fig5_overhead` | Fig 5 — CPU/memory overhead under IOR |
//! | `fig6_throughput` | Fig 6 — publish/subscribe throughput scaling |
//! | `fig7_latency` | Fig 7 — latency vs node degree / Hamming distance |
//! | `fig8_adaptive` | Fig 8 — fixed vs simple vs complex AIMD |
//! | `fig9_10_hacc` | Figs 9 & 10 — adaptive (+Delphi) on HACC-IO |
//! | `fig11_delphi_vs_lstm` | Fig 11 — Delphi vs per-metric LSTM |
//! | `fig12_vs_ldms` | Fig 12 — Apollo vs LDMS latency/overhead |
//! | `fig13_middleware` | Fig 13 — HDPE/HDFE/HDRE with Apollo |
//! | `chaos_soak` | invariant verdicts of a 10⁴-vertex fleet under composed faults |
//! | `gate` | evaluates the rows of `bench_gates.md` over `bench_results/` |
//!
//! Binaries print human-readable tables and write machine-readable JSON
//! into `bench_results/` (see [`report`]). [`eval`] scores a polling
//! policy through a virtual-clock Apollo for Figures 8–10 and the
//! `adaptive_monitoring` example. [`lstm`] and [`conv`] are the
//! Figure 11 comparators Delphi is evaluated against, [`ldms`] the
//! Figure 12 one; nothing serves on them. [`soak`] is the chaos soak
//! harness the `chaos_soak` bin and integration test run.

pub mod conv;
pub mod eval;
pub mod ldms;
pub mod lstm;
pub mod report;
pub mod soak;

pub use soak::{ScanLedger, SlabChurnConfig, SoakConfig, SoakOutcome};

/// The [`ldms`] comparator's tests.
#[cfg(test)]
mod tests {
    use crate::ldms::{LdmsConfig, LdmsService};
    use apollo_cluster::metrics::{ConstSource, TraceSource};
    use apollo_cluster::series::TimeSeries;
    use std::sync::Arc;
    use std::time::Duration;

    const NS: u64 = 1_000_000_000;

    #[test]
    fn samplers_fill_the_central_store() {
        let mut ldms = LdmsService::new_virtual(LdmsConfig::default());
        ldms.register_sampler("cap", Arc::new(ConstSource::new("c", 5.0)));
        ldms.run_for(Duration::from_secs(10));
        assert_eq!(ldms.total_samples(), 10);
        // LDMS has no change filter: every sample is stored.
        assert_eq!(ldms.stored_rows(), 10);
    }

    #[test]
    fn query_latest_returns_most_recent() {
        let mut ldms = LdmsService::new_virtual(LdmsConfig::default());
        let series = TimeSeries::from_points(vec![(0, 1.0), (5 * NS, 2.0)]);
        ldms.register_sampler("m", Arc::new(TraceSource::new("t", series)));
        ldms.run_for(Duration::from_secs(10));
        let out = ldms.query_latest(&["m"]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, 2.0);
    }

    #[test]
    fn query_multiple_tables_in_order() {
        let mut ldms = LdmsService::new_virtual(LdmsConfig::default());
        ldms.register_sampler("a", Arc::new(ConstSource::new("a", 1.0)));
        ldms.register_sampler("b", Arc::new(ConstSource::new("b", 2.0)));
        ldms.run_for(Duration::from_secs(3));
        let out = ldms.query_latest(&["b", "a"]).unwrap();
        assert_eq!(out[0].table, "b");
        assert_eq!(out[0].value, 2.0);
        assert_eq!(out[1].table, "a");
    }

    #[test]
    fn missing_table_errors() {
        let ldms = LdmsService::new_virtual(LdmsConfig::default());
        assert!(ldms.query_latest(&["ghost"]).is_err());
        assert!(ldms.query_avg("ghost", 0, 100).is_err());
    }

    #[test]
    fn retention_bounds_store() {
        let mut ldms = LdmsService::new_virtual(LdmsConfig {
            interval: Duration::from_secs(1),
            retention_rows: 5,
        });
        ldms.register_sampler("m", Arc::new(ConstSource::new("m", 1.0)));
        ldms.run_for(Duration::from_secs(50));
        assert_eq!(ldms.stored_rows(), 5);
        assert_eq!(ldms.total_samples(), 50);
    }

    #[test]
    fn aggregate_avg_over_range() {
        let mut ldms = LdmsService::new_virtual(LdmsConfig::default());
        let series = TimeSeries::from_points(vec![(0, 10.0), (3 * NS, 20.0), (6 * NS, 30.0)]);
        ldms.register_sampler("m", Arc::new(TraceSource::new("t", series)));
        ldms.run_for(Duration::from_secs(10));
        // Samples at 1..=10s: values 10,10,20,20,20,30,30,30,30,30
        let avg = ldms.query_avg("m", 0, 5 * NS).unwrap();
        assert!((avg - 16.0).abs() < 1e-9, "avg {avg}");
    }

    #[test]
    fn no_change_filter_is_the_architectural_difference() {
        // Same constant metric: LDMS stores every sample; Apollo's change
        // filter stores one. This asymmetry feeds the Fig 12 overhead gap.
        let mut ldms = LdmsService::new_virtual(LdmsConfig::default());
        ldms.register_sampler("cap", Arc::new(ConstSource::new("c", 7.0)));
        ldms.run_for(Duration::from_secs(100));
        assert_eq!(ldms.stored_rows(), 100);
    }
}
