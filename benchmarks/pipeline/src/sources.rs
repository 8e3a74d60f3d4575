//! Benchmark-owned monitor hooks: the generated inputs Apollo samples.

use crate::util::Rng;
use apollo_cluster::metrics::{MetricError, MetricSource};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A sine-family signal `offset + amp·sin(2π(t/period + phase))`, rounded
/// to `quantum` when that is non-zero (so the change filter has repeats to
/// suppress). With `log` set, every emitted `(ms, value)` is recorded for
/// the query oracle.
pub struct Sine {
    pub offset: f64,
    pub amp: f64,
    pub period_ns: f64,
    pub phase: f64,
    pub quantum: f64,
    log: Option<Mutex<Vec<(u64, f64)>>>,
    count: AtomicU64,
}

impl Sine {
    /// A seeded member of the family; `period` scales the drawn period.
    pub fn seeded(rng: &mut Rng, period: Duration) -> Self {
        Self {
            offset: rng.range(50.0, 150.0),
            amp: rng.range(5.0, 40.0),
            period_ns: period.as_nanos() as f64 * rng.range(0.5, 2.0),
            phase: rng.unit(),
            quantum: 0.0,
            log: None,
            count: AtomicU64::new(0),
        }
    }

    pub fn quantized(mut self, quantum: f64) -> Self {
        self.quantum = quantum;
        self
    }

    pub fn logged(mut self) -> Self {
        self.log = Some(Mutex::new(Vec::new()));
        self
    }

    pub fn value_at(&self, now_ns: u64) -> f64 {
        let turns = now_ns as f64 / self.period_ns + self.phase;
        let v = self.offset + self.amp * (std::f64::consts::TAU * turns).sin();
        if self.quantum > 0.0 {
            (v / self.quantum).round() * self.quantum
        } else {
            v
        }
    }

    /// Everything emitted so far, in emission order (empty when unlogged).
    pub fn emitted(&self) -> std::sync::MutexGuard<'_, Vec<(u64, f64)>> {
        self.log.as_ref().expect("source was built with logged()").lock().expect("log lock")
    }
}

impl MetricSource for Sine {
    fn sample(&self, now_ns: u64) -> Result<f64, MetricError> {
        self.count.fetch_add(1, Ordering::Relaxed);
        let v = self.value_at(now_ns);
        if let Some(log) = &self.log {
            log.lock().expect("log lock").push((now_ns / 1_000_000, v));
        }
        Ok(v)
    }

    fn sample_cost(&self) -> Duration {
        Duration::from_micros(1)
    }

    fn name(&self) -> String {
        "sine".into()
    }

    fn samples_taken(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// A probe fact: its value is a sequence number, and `sample()` stamps the
/// wall time each number was produced at, so a reader that later sees the
/// number in a query result knows how old it is.
pub struct Probe {
    epoch: Instant,
    next: AtomicU64,
    /// `stamps[seq]` = nanoseconds since `epoch` at `sample()`; 0 = unset.
    stamps: Vec<AtomicU64>,
}

impl Probe {
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Self {
            epoch,
            next: AtomicU64::new(1),
            stamps: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Sequence numbers handed out so far (they start at 1).
    pub fn produced(&self) -> u64 {
        self.next.load(Ordering::Acquire) - 1
    }

    /// Stamp of `seq`, when it has been produced and fits the table.
    pub fn stamp_ns(&self, seq: u64) -> Option<u64> {
        match self.stamps.get(seq as usize)?.load(Ordering::Acquire) {
            0 => None,
            ns => Some(ns),
        }
    }
}

impl MetricSource for Probe {
    fn sample(&self, _now_ns: u64) -> Result<f64, MetricError> {
        let seq = self.next.fetch_add(1, Ordering::AcqRel);
        if let Some(slot) = self.stamps.get(seq as usize) {
            slot.store(self.epoch.elapsed().as_nanos().max(1) as u64, Ordering::Release);
        }
        Ok(seq as f64)
    }

    fn sample_cost(&self) -> Duration {
        Duration::from_micros(1)
    }

    fn name(&self) -> String {
        "probe".into()
    }

    fn samples_taken(&self) -> u64 {
        self.produced()
    }
}
