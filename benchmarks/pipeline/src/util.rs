//! Seeded inputs, order statistics, `/proc` readers and scratch files.

use std::path::PathBuf;
use std::time::Instant;

/// SplitMix64: the benchmark's only randomness. The program under test
/// never sees the seed, only the inputs generated from it.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Zipf(s = 1) sampler over `n` ranks: rank 0 is the hottest.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / k as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// FNV-1a over 64-bit words — the run digest compared across same-seed
/// repetitions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
}

/// Median of an unsorted sample (0.0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    quantile(&v, 0.5)
}

/// Linear-interpolated quantile of a sorted sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = (sorted.len() - 1) as f64 * q;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest percentile not above `want` that still has at least ten
/// samples beyond it, with its value: `(percentile, value)`. A sample too
/// small for `want` degrades to a lower percentile instead of reporting a
/// figure one outlier decides.
pub fn tail(sorted: &[f64], want: f64) -> (f64, f64) {
    let n = sorted.len() as f64;
    let supported = if n > 10.0 { 1.0 - 10.0 / n } else { 0.5 };
    let p = want.min(supported).max(0.5);
    (p, quantile(sorted, p))
}

/// Mean of the tenth of an unsorted sample that lies on the *undisturbed*
/// side: the largest tenth of a set of rates, the smallest of times.
///
/// The sandbox this benchmark is sized for does not run at one speed: a
/// pure spin loop slows by 10-50 % for seconds at a time, memory-heavy
/// code by more, and whole 20 s runs of one workload differ by 30 % and
/// more in their medians. The disturbance is one-sided, so the fast tail
/// of many short samples repeats where their median does not. Measured on
/// ten 20 s runs of each virtual-clock workload in a noisy hour, the
/// spread (interquartile range over median) of `records_per_s` was
/// 11-97 % with the median of units, 10-21 % with the lower quartile of
/// each step, 8-13 % with the fastest tenth; query medians and p99s
/// behaved the same way (6-14 % and 9-18 % on the fastest tenth of the
/// chunks against 10-16 % and 14-23 % on the fastest third).
pub fn undisturbed(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    if higher_is_better {
        v.reverse();
    }
    let keep = v.len().div_ceil(10).max(1).min(v.len());
    v[..keep].iter().sum::<f64>() / keep.max(1) as f64
}

/// Latency figures of the undisturbed part of a run: the chunks (runs of
/// consecutive samples) are ranked by their own median and the fastest
/// tenth pooled — more when needed to reach [`POOL_MIN`] samples — and
/// the pool's median, tail percentile and rate reported. A p99 so rests
/// on forty samples beyond it, all taken while the machine was closest
/// to its own speed.
pub struct Latencies {
    pub p50: f64,
    /// `(percentile actually supported, value)`, see [`tail`].
    pub p99: (f64, f64),
    /// Samples per second of summed latency.
    pub per_s: f64,
    /// Samples pooled.
    pub pooled: usize,
}

/// Fewest samples a latency pool may hold (when the run has that many).
/// With a bare thousand the p99 of the same build moved by 20 % and more
/// between runs.
pub const POOL_MIN: usize = 4096;

pub fn undisturbed_latencies_us<'a>(chunks: impl Iterator<Item = &'a [f64]>) -> Latencies {
    let mut ranked: Vec<(f64, &[f64])> = chunks
        .filter(|c| !c.is_empty())
        .map(|c| {
            let mut sorted = c.to_vec();
            sort(&mut sorted);
            (quantile(&sorted, 0.5), c)
        })
        .collect();
    ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("benchmark samples are never NaN"));
    let tenth = ranked.len().div_ceil(10);
    let mut pool: Vec<f64> = Vec::new();
    for (k, (_, chunk)) in ranked.iter().enumerate() {
        if k >= tenth && pool.len() >= POOL_MIN {
            break;
        }
        pool.extend_from_slice(chunk);
    }
    sort(&mut pool);
    let total_us: f64 = pool.iter().sum();
    Latencies {
        p50: quantile(&pool, 0.5),
        p99: tail(&pool, 0.99),
        per_s: if total_us > 0.0 { pool.len() as f64 / (total_us / 1e6) } else { 0.0 },
        pooled: pool.len(),
    }
}

/// Interquartile range as a share of the median — the spread the
/// repeat-check and the baseline report.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    let med = quantile(&v, 0.5);
    if med == 0.0 {
        return 0.0;
    }
    (quantile(&v, 0.75) - quantile(&v, 0.25)) / med.abs()
}

/// Nanoseconds per call of `f`, as the undisturbed-tenth mean over
/// `rounds` timed batches of `batch` calls (one warm-up batch first).
pub fn ns_per_call(rounds: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..batch {
        f();
    }
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    undisturbed(&samples, false)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) consumed so far by the thread of this
/// process named `name`, from `/proc/self/task/*/stat`.
pub fn thread_cpu_seconds(name: &str) -> Option<f64> {
    for entry in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        let comm = std::fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
        if comm.trim() != name {
            continue;
        }
        let stat = std::fs::read_to_string(entry.path().join("stat")).ok()?;
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th fields of the whole line.
        let rest = stat.rsplit_once(')')?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks: f64 =
            fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
        // USER_HZ is 100 on every Linux ABI.
        return Some(ticks / 100.0);
    }
    None
}

/// Directory for slab files and trace output, inside the benchmark's own
/// directory (and so inside the checkout).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmarks/pipeline/out");
    dir
}

/// A slab file path removed again on drop — also when a check fails or
/// the workload panics.
pub struct ScratchFile(pub PathBuf);

impl ScratchFile {
    pub fn new(tag: &str) -> Self {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Self(out_dir().join(format!("{tag}-{}-{n}.slab", std::process::id())))
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}
