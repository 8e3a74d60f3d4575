//! Parallel hook dispatch scaling — the worker-pool event loop vs. the
//! inline baseline at 64 vertices (§3.4: monitoring "as fast as the
//! hardware allows" requires the scheduler to stop serializing
//! independent vertices).
//!
//! Each vertex's monitor hook blocks for a fixed wait (modelling the
//! syscall / device latency a real storage probe pays), so aggregate
//! throughput is bound by *concurrent waiting*, not CPU: inline dispatch
//! pays `vertices × wait` per tick while pool dispatch overlaps the
//! waits across workers. The run also proves the ordering contract: a
//! seeded pooled run is **bit-identical** to a second pooled run and to
//! the inline run (per-vertex sequences preserved).
//!
//! Run: `cargo run --release -p apollo-bench --bin dispatch_scaling`

use apollo_bench::report::{Report, Series};
use apollo_cluster::metrics::{MetricError, MetricSource};
use apollo_core::service::{Apollo, FactVertexSpec};
use apollo_streams::StreamId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const VERTICES: usize = 64;
const WORKERS: usize = 4;
const HOOK_WAIT: Duration = Duration::from_micros(200);
const HORIZON: Duration = Duration::from_secs(20);
const POLL_EVERY: Duration = Duration::from_secs(1);

/// A monitor hook that blocks for [`HOOK_WAIT`] (syscall/device wait)
/// and then yields a deterministic seeded value.
struct BlockingSource {
    name: String,
    seed: u64,
    calls: AtomicU64,
}

impl BlockingSource {
    fn new(name: impl Into<String>, seed: u64) -> Self {
        Self { name: name.into(), seed, calls: AtomicU64::new(0) }
    }
}

impl MetricSource for BlockingSource {
    fn sample(&self, now_ns: u64) -> Result<f64, MetricError> {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(HOOK_WAIT);
        let mut x = self.seed ^ now_ns ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        Ok(((x >> 33) % 10_000) as f64 / 100.0)
    }

    fn sample_cost(&self) -> Duration {
        HOOK_WAIT
    }

    fn name(&self) -> String {
        self.name.clone()
    }

    fn samples_taken(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// FNV-1a over every topic's full entry log: any reordering, loss or
/// value change shows up as a different digest.
fn digest(apollo: &Apollo) -> u64 {
    let broker = apollo.broker();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    for name in broker.topic_names() {
        for b in name.as_bytes() {
            mix(*b);
        }
        for e in broker.range(&name, StreamId::MIN, StreamId::MAX) {
            for b in e.id.ms.to_le_bytes().into_iter().chain(e.id.seq.to_le_bytes()) {
                mix(b);
            }
            for b in e.payload.iter() {
                mix(*b);
            }
        }
    }
    h
}

/// Drive 64 blocking-hook vertices for the virtual horizon; returns
/// (hook calls, wall seconds, stream digest, metrics snapshot).
fn run(seed: u64, workers: Option<usize>) -> (u64, f64, u64, apollo_obs::Snapshot) {
    let mut apollo = Apollo::new_virtual();
    if let Some(n) = workers {
        apollo.use_worker_pool(n);
    }
    for i in 0..VERTICES {
        let name = format!("node/{i}/probe");
        let src = Arc::new(BlockingSource::new(name.clone(), seed ^ ((i as u64) << 8)));
        apollo
            .register_fact(FactVertexSpec::fixed(name, src, POLL_EVERY).publish_always())
            .unwrap();
    }
    let t = Instant::now();
    apollo.run_for(HORIZON);
    let wall = t.elapsed().as_secs_f64();
    (apollo.total_hook_calls(), wall, digest(&apollo), apollo.metrics_snapshot())
}

fn main() {
    let mut report = Report::new(
        "dispatch_scaling",
        "Aggregate hook throughput: worker-pool vs inline dispatch (64 vertices)",
    );
    let (hooks_inline, wall_inline, digest_inline, _) = run(42, None);
    let inline_rate = hooks_inline as f64 / wall_inline;

    let (hooks_pool, wall_pool, digest_pool, pool_metrics) = run(42, Some(WORKERS));
    let pool_rate = hooks_pool as f64 / wall_pool;
    let (_, _, digest_pool2, _) = run(42, Some(WORKERS));

    assert_eq!(hooks_inline, hooks_pool, "same schedule ⇒ same hook count");
    assert_eq!(digest_pool, digest_pool2, "seeded pooled runs must be bit-identical");
    assert_eq!(digest_pool, digest_inline, "pool dispatch must preserve per-vertex sequences");
    let speedup = pool_rate / inline_rate;
    assert!(
        speedup >= 2.0,
        "pool dispatch speedup {speedup:.2}x below the 2x bar \
         (inline {inline_rate:.0} hooks/s, pool {pool_rate:.0} hooks/s)"
    );

    let mut throughput = Series::new("hooks_per_sec");
    throughput.push(1.0, inline_rate);
    throughput.push(WORKERS as f64, pool_rate);
    report.add_series(throughput);
    report.note("vertices", VERTICES as u64);
    report.note("workers", WORKERS as u64);
    report.note("hook_wait_us", HOOK_WAIT.as_micros() as u64);
    report.note("hooks_total", hooks_inline);
    report.note("speedup", speedup);
    report.note("deterministic", 1u64);
    report.note("digest", format!("{digest_pool:016x}"));
    report.attach_metrics(&pool_metrics);
    report.finish("workers", "hooks/sec");
}
