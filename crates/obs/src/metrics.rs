//! Lock-cheap metrics: counters, gauges, fixed-bucket histograms, and the
//! registry that names them.

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default latency bucket upper bounds in nanoseconds: powers of four from
/// 256 ns to ~4.3 s, plus an implicit overflow bucket. Thirteen buckets keep
/// the per-histogram footprint at ~200 bytes while spanning sub-microsecond
/// atomics up to multi-second stalls.
pub const DEFAULT_LATENCY_BOUNDS_NS: [u64; 13] = [
    256,
    1_024,
    4_096,
    16_384,
    65_536,
    262_144,
    1_048_576,
    4_194_304,
    16_777_216,
    67_108_864,
    268_435_456,
    1_073_741_824,
    4_294_967_296,
];

/// A call site that times itself reads the clock on one call in this many
/// (see [`sampled`]); counters are never sampled. A power of two: a mask.
pub const SAMPLE_PERIOD: u64 = 64;

/// Whether call number `n` (counted from zero) of a call site is one of its
/// timed calls. The first call is, so a short run still holds data.
#[inline]
pub fn sampled(n: u64) -> bool {
    n.is_multiple_of(SAMPLE_PERIOD)
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// Monotonically increasing event count. Cloning shares the cell.
#[derive(Clone, Debug)]
pub struct Counter {
    cell: Arc<AtomicU64>,
    enabled: bool,
}

impl Counter {
    fn new(enabled: bool) -> Self {
        Self { cell: Arc::new(AtomicU64::new(0)), enabled }
    }

    /// A permanently disabled counter (every update is a no-op).
    pub fn noop() -> Self {
        Self::new(false)
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// Last-write-wins instantaneous value (f64 bits in an `AtomicU64`).
#[derive(Clone, Debug)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
    enabled: bool,
}

impl Gauge {
    fn new(enabled: bool) -> Self {
        Self { bits: Arc::new(AtomicU64::new(0f64.to_bits())), enabled }
    }

    /// A permanently disabled gauge.
    pub fn noop() -> Self {
        Self::new(false)
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: f64) {
        if self.enabled {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Raise the value to `v` if `v` is greater (monotone high-water mark).
    #[inline]
    pub fn fetch_max(&self, v: f64) {
        if !self.enabled {
            return;
        }
        let mut cur = self.bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct HistogramInner {
    /// Sorted inclusive upper bounds; `buckets.len() == bounds.len() + 1`
    /// (the last bucket is the overflow bucket).
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Fixed-bucket latency histogram. Observation is two relaxed atomic adds
/// (bucket and sum) plus a bucket search over ≤ a few dozen bounds; the
/// observation count is the sum of the buckets, taken when read.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
    enabled: bool,
}

impl Histogram {
    fn new(enabled: bool, bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must be sorted");
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            inner: Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                buckets,
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
            enabled,
        }
    }

    /// A permanently disabled histogram.
    pub fn noop() -> Self {
        Self::new(false, &DEFAULT_LATENCY_BOUNDS_NS)
    }

    /// Record one observation (typically nanoseconds).
    #[inline]
    pub fn observe(&self, v: u64) {
        self.observe_n(v, 1);
    }

    /// Record `n` observations of `v` at once: what `n` calls of
    /// [`Histogram::observe`] would leave, in buckets, sum and max.
    #[inline]
    pub fn observe_n(&self, v: u64, n: u64) {
        if !self.enabled || n == 0 {
            return;
        }
        let inner = &*self.inner;
        let idx = inner.bounds.partition_point(|&b| b < v);
        inner.buckets[idx].fetch_add(n, Ordering::Relaxed);
        // What `n` wrapping adds of `v` leave.
        inner.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        if v > inner.max.load(Ordering::Relaxed) {
            inner.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    fn bucket_counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.inner.buckets.iter().map(|b| b.load(Ordering::Relaxed))
    }

    /// Total observations recorded. On a sampled call site (see
    /// [`SAMPLE_PERIOD`]) this is the number of timed calls, not of calls.
    pub fn count(&self) -> u64 {
        self.bucket_counts().sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Mean of all observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Estimate quantile `q` in [0, 1]: the upper bound of the bucket holding
    /// the q-th observation (the true max for the overflow bucket). Returns 0
    /// when empty. Conservative: never under-reports a latency tail by more
    /// than one bucket width.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_of(&self.bucket_counts().collect::<Vec<_>>(), q)
    }

    /// [`Histogram::quantile`] over bucket counts already read.
    fn quantile_of(&self, buckets: &[u64], q: f64) -> u64 {
        let inner = &*self.inner;
        let total: u64 = buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        let at = buckets.iter().position(|b| {
            seen += b;
            seen >= rank
        });
        match at.and_then(|i| inner.bounds.get(i)) {
            Some(&bound) => bound,
            None => inner.max.load(Ordering::Relaxed),
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.bucket_counts().collect();
        HistogramSnapshot {
            bounds: self.inner.bounds.clone(),
            count: buckets.iter().sum(),
            sum: self.sum(),
            max: self.inner.max.load(Ordering::Relaxed),
            p50: self.quantile_of(&buckets, 0.50),
            p99: self.quantile_of(&buckets, 0.99),
            buckets,
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Point-in-time serialisable view of one histogram.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds of the finite buckets.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; one longer than `bounds` (overflow bucket last).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Convert to a JSON value (the vendored serde shim has no generic
    /// serialisation, so conversion is explicit).
    pub fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("bounds".into(), Value::from(self.bounds.clone()));
        m.insert("buckets".into(), Value::from(self.buckets.clone()));
        m.insert("count".into(), Value::from(self.count));
        m.insert("sum".into(), Value::from(self.sum));
        m.insert("max".into(), Value::from(self.max));
        m.insert("p50".into(), Value::from(self.p50));
        m.insert("p99".into(), Value::from(self.p99));
        Value::Object(m)
    }

    /// Parse back from [`HistogramSnapshot::to_value`] output.
    pub fn from_value(v: &Value) -> Option<Self> {
        let nums = |key: &str| -> Option<Vec<u64>> {
            v.get_path(key).as_array()?.iter().map(|x| x.as_u64()).collect()
        };
        Some(Self {
            bounds: nums("bounds")?,
            buckets: nums("buckets")?,
            count: v.get_path("count").as_u64()?,
            sum: v.get_path("sum").as_u64()?,
            max: v.get_path("max").as_u64()?,
            p50: v.get_path("p50").as_u64()?,
            p99: v.get_path("p99").as_u64()?,
        })
    }
}

/// Point-in-time serialisable view of a whole [`Registry`].
#[derive(Clone, Debug, Default, Serialize, Deserialize, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Convert to a JSON value for embedding in reports.
    pub fn to_value(&self) -> Value {
        let mut counters = Map::new();
        for (k, v) in &self.counters {
            counters.insert(k.clone(), Value::from(*v));
        }
        let mut gauges = Map::new();
        for (k, v) in &self.gauges {
            gauges.insert(k.clone(), Value::from(*v));
        }
        let mut histograms = Map::new();
        for (k, v) in &self.histograms {
            histograms.insert(k.clone(), v.to_value());
        }
        let mut m = Map::new();
        m.insert("counters".into(), Value::Object(counters));
        m.insert("gauges".into(), Value::Object(gauges));
        m.insert("histograms".into(), Value::Object(histograms));
        Value::Object(m)
    }

    /// Parse back from [`Snapshot::to_value`] output.
    pub fn from_value(v: &Value) -> Option<Self> {
        let mut snap = Snapshot::default();
        for (k, c) in v.get_path("counters").as_object()? {
            snap.counters.insert(k.clone(), c.as_u64()?);
        }
        for (k, g) in v.get_path("gauges").as_object()? {
            snap.gauges.insert(k.clone(), g.as_f64()?);
        }
        for (k, h) in v.get_path("histograms").as_object()? {
            snap.histograms.insert(k.clone(), HistogramSnapshot::from_value(h)?);
        }
        Some(snap)
    }

    /// Serialise to a JSON string (pretty-printed).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("snapshot serialises")
    }

    /// Parse a snapshot previously written by [`Snapshot::to_json`].
    pub fn from_json(s: &str) -> Option<Self> {
        Self::from_value(&serde_json::from_str(s).ok()?)
    }

    /// Convenience: counter value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct RegistryInner {
    enabled: bool,
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
}

/// Named family of instruments. Cloning shares the underlying maps; handles
/// returned by the accessors stay valid (and shared) for the registry's
/// lifetime. Resolve handles once at wiring time, not per operation.
#[derive(Clone, Debug)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An enabled registry: instruments record normally.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A disabled registry: every instrument it hands out is a no-op and
    /// [`Registry::snapshot`] is empty. Used as the overhead baseline.
    pub fn noop() -> Self {
        Self::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Self {
        Self {
            inner: Arc::new(RegistryInner {
                enabled,
                counters: RwLock::new(BTreeMap::new()),
                gauges: RwLock::new(BTreeMap::new()),
                histograms: RwLock::new(BTreeMap::new()),
            }),
        }
    }

    /// Whether instruments from this registry record anything.
    pub fn enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Fetch or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        if !self.inner.enabled {
            return Counter::noop();
        }
        if let Some(c) = self.inner.counters.read().get(name) {
            return c.clone();
        }
        self.inner
            .counters
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Counter::new(true))
            .clone()
    }

    /// Fetch or create the counter named `name`, backing a newly created
    /// counter with `cell` — an atomic the caller already increments on
    /// its hot path. The subsystem keeps its single `fetch_add` per event
    /// and the registry snapshots the same cell, so exporting the metric
    /// costs nothing extra per event. If `name` already exists, the
    /// existing counter (and its backing cell) wins and `cell` is ignored.
    pub fn counter_backed_by(&self, name: &str, cell: Arc<AtomicU64>) -> Counter {
        if !self.inner.enabled {
            return Counter::noop();
        }
        if let Some(c) = self.inner.counters.read().get(name) {
            return c.clone();
        }
        self.inner
            .counters
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Counter { cell, enabled: true })
            .clone()
    }

    /// Fetch or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        if !self.inner.enabled {
            return Gauge::noop();
        }
        if let Some(g) = self.inner.gauges.read().get(name) {
            return g.clone();
        }
        self.inner
            .gauges
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Gauge::new(true))
            .clone()
    }

    /// Fetch or create a histogram with the default latency bounds.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &DEFAULT_LATENCY_BOUNDS_NS)
    }

    /// Fetch or create a histogram with explicit bucket upper bounds. If the
    /// histogram already exists its original bounds win.
    pub fn histogram_with(&self, name: &str, bounds: &[u64]) -> Histogram {
        if !self.inner.enabled {
            return Histogram::noop();
        }
        if let Some(h) = self.inner.histograms.read().get(name) {
            return h.clone();
        }
        self.inner
            .histograms
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(true, bounds))
            .clone()
    }

    /// Consistent point-in-time view of every instrument. "Consistent" here
    /// means each instrument is read atomically; cross-instrument skew is
    /// bounded by the snapshot's own duration (no locks are held across
    /// instruments on the hot path).
    pub fn snapshot(&self) -> Snapshot {
        if !self.inner.enabled {
            return Snapshot::default();
        }
        Snapshot {
            counters: self
                .inner
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self.inner.gauges.read().iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: self
                .inner
                .histograms
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_concurrent_increments_sum_exactly() {
        let reg = Registry::new();
        let c = reg.counter("hits");
        thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        assert_eq!(reg.snapshot().counter("hits"), 80_000);
    }

    #[test]
    fn counter_handles_share_the_cell() {
        let reg = Registry::new();
        reg.counter("x").add(3);
        reg.counter("x").add(4);
        assert_eq!(reg.counter("x").get(), 7);
    }

    #[test]
    fn gauge_set_get_and_fetch_max() {
        let reg = Registry::new();
        let g = reg.gauge("depth");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.fetch_max(1.0);
        assert_eq!(g.get(), 2.5);
        g.fetch_max(9.0);
        assert_eq!(g.get(), 9.0);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper_bounds() {
        let reg = Registry::new();
        let h = reg.histogram_with("lat", &[10, 100, 1000]);
        // Exactly on a bound lands in that bound's bucket.
        h.observe(10);
        h.observe(11); // first value past the bound -> next bucket
        h.observe(100);
        h.observe(1000);
        h.observe(1001); // overflow bucket
        let snap = reg.snapshot().histograms["lat"].clone();
        assert_eq!(snap.bounds, vec![10, 100, 1000]);
        assert_eq!(snap.buckets, vec![1, 2, 1, 1]);
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 10 + 11 + 100 + 1000 + 1001);
        assert_eq!(snap.max, 1001);
    }

    #[test]
    fn observe_n_equals_n_single_observations() {
        let reg = Registry::new();
        let bounds = [10, 100, 1000];
        for (k, &(v, n)) in
            [(0, 0), (7, 0), (10, 1), (11, 3), (1000, 17), (1001, 2), (u64::MAX / 3, 5)]
                .iter()
                .enumerate()
        {
            let (batched, single) = (
                reg.histogram_with(&format!("batched{k}"), &bounds),
                reg.histogram_with(&format!("single{k}"), &bounds),
            );
            // A prior observation, so `max` and `sum` start off zero.
            for h in [&batched, &single] {
                h.observe(50);
            }
            batched.observe_n(v, n);
            for _ in 0..n {
                single.observe(v);
            }
            let snap = reg.snapshot();
            let (b, s) =
                (&snap.histograms[&format!("batched{k}")], &snap.histograms[&format!("single{k}")]);
            assert_eq!((&b.buckets, b.sum, b.max), (&s.buckets, s.sum, s.max), "v={v} n={n}");
        }
    }

    #[test]
    fn histogram_quantiles_report_bucket_upper_bounds() {
        let reg = Registry::new();
        let h = reg.histogram_with("lat", &[10, 100, 1000]);
        for _ in 0..99 {
            h.observe(5);
        }
        h.observe(500);
        assert_eq!(h.quantile(0.5), 10); // median bucket's upper bound
        assert_eq!(h.quantile(0.99), 10);
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.count(), 100);
    }

    #[test]
    fn histogram_overflow_quantile_uses_observed_max() {
        let reg = Registry::new();
        let h = reg.histogram_with("lat", &[10]);
        h.observe(7_777);
        assert_eq!(h.quantile(0.99), 7_777);
    }

    #[test]
    fn snapshot_is_consistent_under_concurrent_writes() {
        // Each snapshot must see internally-sane histograms: the count is
        // the bucket total, and counters only grow between snapshots.
        let reg = Registry::new();
        let c = reg.counter("ops");
        let h = reg.histogram_with("lat", &[8, 64, 512]);
        let stop = AtomicU64::new(0);
        let stop = &stop;
        thread::scope(|s| {
            for _ in 0..4 {
                let (c, h) = (c.clone(), h.clone());
                s.spawn(move || {
                    for i in 0..20_000u64 {
                        c.inc();
                        h.observe(i % 600);
                    }
                    stop.fetch_add(1, Ordering::SeqCst);
                });
            }
            let mut last_ops = 0;
            while stop.load(Ordering::SeqCst) < 4 {
                let snap = reg.snapshot();
                let ops = snap.counter("ops");
                assert!(ops >= last_ops, "counter went backwards");
                last_ops = ops;
                if let Some(hs) = snap.histograms.get("lat") {
                    // count is derived from the buckets the snapshot read.
                    assert_eq!(hs.buckets.iter().sum::<u64>(), hs.count);
                }
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("ops"), 80_000);
        assert_eq!(snap.histograms["lat"].count, 80_000);
        let bucket_total: u64 = snap.histograms["lat"].buckets.iter().sum();
        assert_eq!(bucket_total, 80_000);
    }

    #[test]
    fn noop_registry_records_nothing() {
        let reg = Registry::noop();
        let c = reg.counter("x");
        let g = reg.gauge("y");
        let h = reg.histogram("z");
        c.add(10);
        g.set(1.0);
        g.fetch_max(2.0);
        h.observe(99);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.count(), 0);
        assert_eq!(reg.snapshot(), Snapshot::default());
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = Registry::new();
        reg.counter("a").add(5);
        reg.gauge("b").set(2.25);
        reg.histogram_with("c", &[10, 20]).observe(15);
        let snap = reg.snapshot();
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }
}
