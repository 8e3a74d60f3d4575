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
//! | `dispatch_scaling` | worker-pool vs inline hook dispatch (the pipeline runs inline only) |
//! | `chaos_soak` | invariant verdicts of a 10⁴-vertex fleet under composed faults |
//! | `gate` | evaluates the rows of `bench_gates.md` over `bench_results/` |
//!
//! Binaries print human-readable tables and write machine-readable JSON
//! into `bench_results/` (see [`report`]). [`lstm`] and [`conv`] are the
//! Figure 11 comparators Delphi is evaluated against; nothing serves on
//! them.

pub mod conv;
pub mod lstm;
pub mod report;
