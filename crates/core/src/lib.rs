//! # apollo-core
//!
//! The core of the Apollo reproduction (HPDC '21): **SCoRe** — the
//! *Storage Condition Report* — a distributed DAG of Fact and Insight
//! vertices over a pub-sub fabric, together with the Apollo service facade
//! that middleware libraries talk to.
//!
//! * [`vertex`] — [`vertex::FactVertex`] (monitor hook → fact builder →
//!   fact queue, Figure 1b flows ①–②) and [`vertex::InsightVertex`]
//!   (consumes facts/insights ③–④, builds and publishes insights ⑤–⑥).
//!   Facts and insights are published **only when their value changes**
//!   (§3.2.1); every vertex carries a [`apollo_runtime::time::PhaseTimer`]
//!   so the Figure 4 anatomy can be reproduced.
//! * [`predict`] — [`predict::PredictionPump`]: Delphi predicts facts
//!   between polls for every enrolled vertex in one kernel call per tick.
//! * [`health`] — per-vertex supervision: the `Healthy → Degraded →
//!   Quarantined` state machine, bounded retry with exponential backoff
//!   and seeded jitter, and quarantine re-probing, so one failing monitor
//!   hook degrades gracefully instead of poisoning the DAG.
//! * [`graph`] — the SCoRe DAG: registration, cycle detection, height
//!   (the Hamming-distance bound of §3.2.1's `O(p·h)` propagation cost)
//!   and degree accounting for the Figure 7 experiments.
//! * [`service`] — [`service::Apollo`]: owns the broker, the event loop,
//!   and the vertex registry; runs deterministically on a virtual clock
//!   (`run_for`) or live on a background thread (`spawn`); answers AQE
//!   queries (`query`). Every subsystem reports into a shared
//!   `apollo_obs::Registry` (`metrics`/`metrics_snapshot`). A device's I/O
//!   events become facts through [`service::Apollo::register_events`] (§6).
//! * [`continuous`] — standing AQE queries as insight-style vertices:
//!   [`service::Apollo::register_continuous`] reruns a query on the
//!   service's cached query path whenever an input is published and
//!   republishes changed results as facts.
//! * [`selfobs`] — self-SCoRe: [`selfobs::deploy_self_observer`]
//!   republishes Apollo's own internals (broker memory, stream depth,
//!   poll p99, quarantine count, quarantine recoveries) as Fact vertices
//!   queryable through the AQE.
//!
//! ```
//! use apollo_core::service::{Apollo, FactVertexSpec};
//! use apollo_cluster::metrics::ConstSource;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let mut apollo = Apollo::new_virtual();
//! apollo.register_fact(FactVertexSpec::fixed(
//!     "node0/nvme0/remaining_capacity",
//!     Arc::new(ConstSource::new("cap", 42.0)),
//!     Duration::from_secs(1),
//! ));
//! apollo.run_for(Duration::from_secs(10));
//! let out = apollo
//!     .query("SELECT MAX(Timestamp), metric FROM node0/nvme0/remaining_capacity")
//!     .unwrap();
//! assert_eq!(out.rows[0].value, 42.0);
//! ```

pub mod continuous;
pub mod curators;
pub mod graph;
pub mod health;
pub mod predict;
pub mod selfobs;
pub mod service;
pub mod vertex;

pub use continuous::{ContinuousRegisterError, ContinuousVertex};
pub use graph::ScoreGraph;
pub use health::{HealthMonitor, HealthState, SupervisorConfig};
pub use predict::PredictionPump;
pub use selfobs::{deploy_self_observer, SELF_TOPICS};
pub use selfobs::{deploy_slab_observer, SLAB_SELF_TOPICS};
pub use service::{Apollo, ApolloHandle, FactVertexSpec, InsightVertexSpec};
pub use vertex::{FactVertex, InsightInputs, InsightVertex};
