//! Self-observation substrate for the Apollo observer.
//!
//! Apollo's headline claim (paper Fig. 5–7) is that full-fidelity storage
//! monitoring can ride along at negligible cost. To defend that claim the
//! reproduction must be able to measure *its own* hot paths — the timer
//! dispatch loop, the broker publish, vertex polling, and query execution —
//! without perturbing them. This crate provides that substrate:
//!
//! * [`Registry`] — a named family of lock-cheap instruments. Handles are
//!   resolved once (a map lookup under a short `RwLock`) and then updated
//!   with plain atomic operations; the hot path never touches the registry
//!   map again.
//! * [`Counter`] / [`Gauge`] — single `AtomicU64` cells (gauges store f64
//!   bits).
//! * [`Histogram`] — fixed upper-bound buckets with atomic per-bucket
//!   counts, built for nanosecond latencies; an observation is two atomic
//!   adds, the count is the sum of the buckets when read, and quantiles
//!   are estimated from the bucket upper bounds.
//!
//! Metric families by convention share a dotted prefix with the subsystem
//! that emits them: `runtime.*` (timer dispatch), `streams.*`
//! (pub-sub fabric), `core.*` / `score.*` (vertex polling and
//! publication), `query.*` (AQE), and `delphi.*` for the ML layer —
//! `delphi.predict_ns` and `delphi.batch_size` time and size each
//! prediction-pump kernel call, `delphi.batch_tail_scalar` counts rows
//! that fell off its vector path (0 while the pump pads to the
//! `delphi.simd_lanes` gauge).
//!
//! The AQE family breaks down further. `query.executed` / `query.arm_ns`
//! / `query.arm_errors` cover per-query execution;
//! `query.scan_cache.{hits,misses,invalidations}` report the scan
//! cache's per-topic tails (a hit is a window served from a tail,
//! extended first by whatever was appended; a miss scanned and kept one;
//! an invalidation is a tail re-scanned because the stream lost its head
//! part-way through a millisecond or was re-created), and
//! `query.scan_cache.fold_resumed` the whole-tail aggregates answered by
//! folding only the rows appended since their tail's saved fold; the
//! access path each range lookup took is tallied as
//! `query.planner.{cached_scan,fresh_batch}` (a fresh batch is a closed
//! window older than the tail, scanned alone and not kept). The
//! `query.*` execution counters count AQE callers only (`Apollo::query`
//! or a spawned service's `ApolloHandle::query` — one path, one set of
//! counters); a standing query's pump runs the same cached path
//! uninstrumented, so it shows in the scan-cache and planner tallies
//! alone. Standing queries export `query.continuous.registered`
//! (gauge-like counter backed by the service's registration cell), the
//! `query.continuous.emitted_rows` counter, and the
//! `query.continuous.fold_ns` pump-latency histogram.
//!
//! Durability surfaces its own family. `streams.slab.*` reports the
//! memory-mapped slab spill:
//! gauges `streams.slab.occupied_slots` (live ring entries),
//! `streams.slab.consolidation_lag` (committed entries the tier roll-ups
//! have not folded yet), `streams.slab.series` (live series dirents),
//! `streams.slab.pressure` (worst-case fill fraction across series
//! directory and rings — 1.0 means new demand will be refused),
//! `streams.slab.dirty_records` (records written since the last
//! msync, i.e. the machine-crash loss window), and
//! `streams.slab.lapped_entries` (entries overwritten before any
//! consolidation pass folded them), plus the
//! `streams.slab.consolidated_entries` counter incremented by each
//! consolidation timer tick. The background flush timer exports
//! `streams.slab.flushes` / `streams.slab.flush_errors` counters and the
//! `streams.slab.flush_ns` histogram; series GC exports
//! `streams.slab.reclaimed_series` / `streams.slab.reclaimed_entries` /
//! `streams.slab.compact_errors` counters and the
//! `streams.slab.compact_ns` histogram. `streams.slab.dir_full` counts
//! directory-exhaustion refusals (a stream asked for a durable series and
//! fell back to a private in-memory ring — losses on restart).
//!
//! **Counters are exact; wall-clock histograms are sampled.** A call site
//! that times itself — a timer's callback (`runtime.timer.callback_ns`), a
//! vertex's poll or pump (`core.vertex.<name>.{poll,pump}_ns`,
//! `score.*_ns`), a topic's publish (`streams.publish_ns`) — times its
//! first call, then one in [`SAMPLE_PERIOD`] ([`sampled`]). There `count` is the number of timed calls, and
//! `runtime.timer.overruns` is judged on them. Everything counted is
//! exact, as is `runtime.timer.dispatch_lag_ns` (no clock read).
//!
//! Every instrument carries an `enabled` flag captured at construction. A
//! registry built with [`Registry::noop`] hands out disabled handles whose
//! update methods compile down to a branch on an immutable bool — this is
//! what the `score_throughput` bench compares against to keep the measured
//! instrumentation overhead ≤ 5%.

mod metrics;

pub use metrics::{
    sampled, Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot,
    DEFAULT_LATENCY_BOUNDS_NS, SAMPLE_PERIOD,
};
