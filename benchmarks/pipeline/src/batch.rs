//! The repetition loop the three virtual-clock workloads share.
//!
//! A run is a sequence of identical fixed-size *units*: each builds a
//! fresh service from the seed (one `setup_s` sample), drives it (one
//! throughput sample), queries it (latency samples) and checks its
//! outputs. Units repeat until the run's wall budget is spent; the run
//! reports each figure over the undisturbed tenth of its samples (see
//! [`undisturbed`]).

use crate::report::Outcome;
use crate::trace::Tracer;
use crate::util::{median, peak_rss_mb, undisturbed, undisturbed_latencies_us, Digest};
use apollo_core::service::Apollo;
use std::time::{Duration, Instant};

/// What one unit measured.
pub struct Unit {
    pub setup_s: f64,
    /// Records made query-visible, and the wall time of each step of the
    /// phase that made them (one entry when the phase is not stepped).
    pub records: u64,
    pub record_steps_s: Vec<f64>,
    /// Latency of every timed query call, in call order.
    pub query_us: Vec<f64>,
    /// Digest of the unit's outputs: equal across units of one run.
    pub digest: Digest,
    /// Share of hook samples the change filter suppressed.
    pub suppressed_ratio: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Unit {
    pub fn record_wall_s(&self) -> f64 {
        self.record_steps_s.iter().sum()
    }

    pub fn records_per_s(&self) -> f64 {
        self.records as f64 / self.record_wall_s()
    }

    pub fn queries_per_s(&self) -> f64 {
        self.query_us.len() as f64 / (self.query_us.iter().sum::<f64>() / 1e6)
    }
}

/// Drive `apollo` through `virtual_s` one-second steps under `root`,
/// returning each step's wall time.
pub fn timed_steps(
    apollo: &mut Apollo,
    virtual_s: u64,
    tracer: &mut Tracer,
    root: u64,
) -> Vec<f64> {
    (0..virtual_s)
        .map(|_| {
            let t = Instant::now();
            apollo.run_for(Duration::from_secs(1));
            let end = Instant::now();
            tracer.record("run_for", root, 0, t, end);
            end.duration_since(t).as_secs_f64()
        })
        .collect()
}

/// The verification sweep of the two batch workloads: one timed
/// `COUNT(*)` per topic, each of which must return `expected`. Returns
/// the latencies; misses go to `errors`, their number is returned too.
pub fn count_sweep(
    apollo: &Apollo,
    topics: &[String],
    expected: u64,
    tracer: &mut Tracer,
    root: u64,
    errors: &mut Vec<String>,
) -> (Vec<f64>, u64) {
    let mut failed = 0;
    let query_us = topics
        .iter()
        .map(|name| {
            let sql = format!("SELECT COUNT(*) FROM {name}");
            let t = Instant::now();
            let result = apollo.query(&sql);
            let end = Instant::now();
            tracer.record("query", root, 0, t, end);
            match result {
                Ok(r) if r.rows.len() == 1 && r.rows[0].value == expected as f64 => {}
                other => {
                    failed += 1;
                    errors.push(format!("{sql}: {other:?}, expected {expected}"));
                }
            }
            end.duration_since(t).as_nanos() as f64 / 1e3
        })
        .collect();
    (query_us, failed)
}

const MIN_UNITS: usize = 3;
/// Consecutive queries per chunk when ranking a run's query latencies.
const CHUNK: usize = 256;

/// The undisturbed wall time of the record-making phase: every step's
/// time is taken over the undisturbed tenth of the units, and the phase
/// is the sum of the steps.
///
/// A whole unit is too coarse a sample here. The first wave of evictions
/// into a fresh slab file sometimes waits seconds for the file system's
/// journal (it shows as `streams.first_evict_wave_ms`), and that one step
/// would decide the unit's rate; per step, it is one outlier among units.
pub fn undisturbed_record_wall_s(units: &[Unit]) -> f64 {
    let steps = units.iter().map(|u| u.record_steps_s.len()).min().unwrap_or(0);
    (0..steps)
        .map(|k| undisturbed(&units.iter().map(|u| u.record_steps_s[k]).collect::<Vec<_>>(), false))
        .sum()
}

/// Fold units into `out`: operation accounting, failed checks, and the
/// same-seed determinism check.
fn absorb(out: &mut Outcome, units: &[Unit]) {
    for (i, u) in units.iter().enumerate() {
        out.attempted += u.attempted;
        out.failed += u.failed;
        for e in &u.errors {
            out.check(false, || format!("unit {i}: {e}"));
        }
        out.check(u.digest == units[0].digest, || {
            format!("unit {i} digest {:?} differs from unit 0 {:?}", u.digest, units[0].digest)
        });
    }
}

/// Untraced run: repeat `unit` for `seconds`, report the end-to-end figures.
pub fn run_untraced(seconds: f64, mut unit: impl FnMut(&mut Tracer) -> Unit) -> Outcome {
    let started = Instant::now();
    let mut off = Tracer::new(false);
    let mut units = Vec::new();
    while units.len() < MIN_UNITS || started.elapsed().as_secs_f64() < seconds {
        units.push(unit(&mut off));
    }
    let mut out = Outcome::default();
    absorb(&mut out, &units);
    let n = units.len();
    let of = |f: &dyn Fn(&Unit) -> f64| units.iter().map(f).collect::<Vec<f64>>();
    out.set("setup_s", undisturbed(&of(&|u| u.setup_s), false), n);
    out.set("records_per_s", units[0].records as f64 / undisturbed_record_wall_s(&units), n);
    let lat = undisturbed_latencies_us(units.iter().flat_map(|u| u.query_us.chunks_exact(CHUNK)));
    out.set("queries_per_s", lat.per_s, lat.pooled);
    out.set("query_p50_us", lat.p50, lat.pooled);
    out.notes.push(format!(
        "query p{:.0} {:.2} us over {} samples (not gated: see query.p99_us)",
        lat.p99.0 * 100.0,
        lat.p99.1,
        lat.pooled
    ));
    out.set("peak_rss_mb", peak_rss_mb(), 1);
    out.notes.push(format!(
        "{n} units; plain medians over units: records_per_s {:.0}, queries_per_s {:.0}",
        median(&of(&Unit::records_per_s)),
        median(&of(&Unit::queries_per_s)),
    ));
    out
}

/// Traced run: alternate untraced and traced units for `seconds`, keep the
/// spans, and report the tracing overhead on `rate` (a figure over a set
/// of units). Returns the outcome (accounting and `trace.overhead_pct`
/// only — the caller adds the layer metrics) and every unit.
pub fn run_traced(
    seconds: f64,
    tracer: &mut Tracer,
    rate: impl Fn(&[Unit]) -> f64,
    mut unit: impl FnMut(&mut Tracer) -> Unit,
) -> (Outcome, Vec<Unit>) {
    let started = Instant::now();
    let mut off = Tracer::new(false);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while traced.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        // Swap the order every pair: a unit that follows another's
        // teardown closely sees a busier file system than one that does not.
        if traced.len() % 2 == 0 {
            plain.push(unit(&mut off));
            traced.push(unit(tracer));
        } else {
            traced.push(unit(tracer));
            plain.push(unit(&mut off));
        }
    }
    let mut out = Outcome::default();
    let (plain_rate, traced_rate) = (rate(&plain), rate(&traced));
    out.set("trace.overhead_pct", (plain_rate - traced_rate) / plain_rate * 100.0, traced.len());
    out.set("core.hook.suppressed_ratio", traced[0].suppressed_ratio, 1);
    plain.append(&mut traced);
    let lat = undisturbed_latencies_us(plain.iter().flat_map(|u| u.query_us.chunks_exact(CHUNK)));
    out.set("query.p99_us", lat.p99.1, lat.pooled);
    absorb(&mut out, &plain);
    (out, plain)
}
