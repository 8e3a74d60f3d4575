//! A faithful *architectural* model of the *Lightweight Distributed
//! Metric Service* (LDMS) — the comparator of the paper's Figure 12
//! evaluation (§4.4.1, §5).
//!
//! What matters for the comparison is the architecture, not the exact
//! binary: per §5, LDMS (and Ganglia) "utilize a user defined **fixed
//! interval** to collect the low-level metric data" and "store the
//! monitoring information into MySQL or **flat file storage** …, which
//! increases the data access latency". The paper's test harness also
//! notes LDMS "presents a similar but simplified Insight Layer mechanism
//! which allows the service to aggregate results from multiple nodes" —
//! aggregation happens **at query time**, by scanning.
//!
//! This module therefore implements exactly that architecture:
//!
//! * [`LdmsService`] — fixed-interval samplers appending rows to one
//!   **centralized, globally locked** store (the flat-file/MySQL model).
//! * Queries **scan** the unindexed table to resolve `MAX(Timestamp)`
//!   and aggregate across nodes **serially**, paying a modelled per-row
//!   access cost — in contrast to Apollo's indexed tail-reads resolved in
//!   parallel.
//!
//! The contrast in data-path shape (scan+serial vs. index+parallel) is
//! what produces the Figure 12 latency gap; absolute factors depend on
//! store size and cost model, recorded in EXPERIMENTS.md.

use apollo_cluster::metrics::MetricSource;
use apollo_runtime::event_loop::{EventLoop, TimerAction};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One stored telemetry row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LdmsRow {
    /// Sample timestamp (ns).
    pub timestamp_ns: u64,
    /// Sampled value.
    pub value: f64,
}

/// A query result row.
#[derive(Debug, Clone, PartialEq)]
pub struct LdmsResult {
    /// Metric/table name.
    pub table: String,
    /// Timestamp of the reported value (ms).
    pub timestamp_ms: u64,
    /// The value.
    pub value: f64,
}

/// Centralized store: metric name → append-ordered rows. One global lock
/// (the flat-file model: every reader and writer contends on the file).
#[derive(Debug, Default)]
struct CentralStore {
    tables: HashMap<String, Vec<LdmsRow>>,
}

/// Configuration of the LDMS-model service.
#[derive(Debug, Clone)]
pub struct LdmsConfig {
    /// The fixed sampling interval of every sampler.
    pub interval: Duration,
    /// Bound on rows retained per table (old rows are dropped, like a
    /// rotated flat file). Keeps query scans from growing without bound.
    pub retention_rows: usize,
}

impl Default for LdmsConfig {
    fn default() -> Self {
        Self { interval: Duration::from_secs(1), retention_rows: 100_000 }
    }
}

/// The LDMS-model monitoring service.
pub struct LdmsService {
    config: LdmsConfig,
    store: Arc<Mutex<CentralStore>>,
    el: EventLoop,
    samples: Arc<AtomicU64>,
    sampler_names: Vec<String>,
}

impl LdmsService {
    /// Service over a virtual clock (deterministic experiments).
    pub fn new_virtual(config: LdmsConfig) -> Self {
        Self::with_loop(EventLoop::new_virtual(), config)
    }

    /// Service over the wall clock.
    pub fn new_real(config: LdmsConfig) -> Self {
        Self::with_loop(EventLoop::new_real(), config)
    }

    fn with_loop(el: EventLoop, config: LdmsConfig) -> Self {
        Self {
            config,
            store: Arc::new(Mutex::new(CentralStore::default())),
            el,
            samples: Arc::new(AtomicU64::new(0)),
            sampler_names: Vec::new(),
        }
    }

    /// Register a fixed-interval sampler feeding the central store.
    pub fn register_sampler(&mut self, name: impl Into<String>, source: Arc<dyn MetricSource>) {
        let name = name.into();
        self.sampler_names.push(name.clone());
        let store = Arc::clone(&self.store);
        let clock = self.el.clock().clone();
        let samples = Arc::clone(&self.samples);
        let retention = self.config.retention_rows;
        self.el.add_timer(self.config.interval, move |_| {
            let now = clock.now();
            // LDMS has no retry/staleness machinery (that asymmetry is part
            // of the comparison): a failed sample is simply a missing row.
            let Ok(value) = source.sample(now) else {
                return TimerAction::Continue;
            };
            samples.fetch_add(1, Ordering::Relaxed);
            let mut store = store.lock();
            let rows = store.tables.entry(name.clone()).or_default();
            rows.push(LdmsRow { timestamp_ns: now, value });
            if rows.len() > retention {
                let excess = rows.len() - retention;
                rows.drain(..excess);
            }
            TimerAction::Continue
        });
    }

    /// Registered sampler names.
    pub fn sampler_names(&self) -> &[String] {
        &self.sampler_names
    }

    /// Drive the service for `d`.
    pub fn run_for(&mut self, d: Duration) {
        self.el.run_for(d);
    }

    /// Total samples collected (the monitoring-cost counter).
    pub fn total_samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    /// Rows currently stored across all tables.
    pub fn stored_rows(&self) -> usize {
        self.store.lock().tables.values().map(Vec::len).sum()
    }

    /// The latest value of each requested table — resolved **serially**,
    /// each via a full scan of the unindexed table under the global store
    /// lock. This is the LDMS-side equivalent of the Algorithm 4.4.1
    /// resource query.
    pub fn query_latest(&self, tables: &[&str]) -> Result<Vec<LdmsResult>, String> {
        let mut out = Vec::with_capacity(tables.len());
        for table in tables {
            let store = self.store.lock();
            let rows = store.tables.get(*table).ok_or_else(|| format!("no table {table:?}"))?;
            // Full scan for MAX(Timestamp): no index in a flat file.
            let mut best: Option<LdmsRow> = None;
            for row in rows {
                // Touch the value so the scan is not optimized away; a
                // flat-file reader must parse each row it passes.
                let candidate = LdmsRow {
                    timestamp_ns: row.timestamp_ns,
                    value: std::hint::black_box(row.value),
                };
                if best.is_none_or(|b| candidate.timestamp_ns >= b.timestamp_ns) {
                    best = Some(candidate);
                }
            }
            let row = best.ok_or_else(|| format!("table {table:?} is empty"))?;
            out.push(LdmsResult {
                table: (*table).to_string(),
                timestamp_ms: row.timestamp_ns / 1_000_000,
                value: row.value,
            });
        }
        Ok(out)
    }

    /// Aggregate a table over a time range by scanning (the "simplified
    /// Insight Layer": aggregation at query time).
    pub fn query_avg(&self, table: &str, start_ns: u64, end_ns: u64) -> Result<f64, String> {
        let store = self.store.lock();
        let rows = store.tables.get(table).ok_or_else(|| format!("no table {table:?}"))?;
        let mut sum = 0.0;
        let mut n = 0usize;
        for row in rows {
            if (start_ns..=end_ns).contains(&row.timestamp_ns) {
                sum += row.value;
                n += 1;
            }
        }
        if n == 0 {
            return Err(format!("no rows of {table:?} in range"));
        }
        Ok(sum / n as f64)
    }
}
