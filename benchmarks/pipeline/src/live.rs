//! `live_fleet` — real clock, open loop, a spawned service and one reader.
//!
//! The service's timers fire on the wall clock whether or not anyone
//! reads. 256 background facts on sine-family sources (128 fixed 10 ms
//! `publish_always`, 64 simple-AIMD, 64 fixed 40 ms enrolled in a 20 ms
//! prediction pump), 16 `sum_of`-16 insights at 50 ms, one continuous
//! query, windows bounded at 256 spilling into a slab with the 1 s
//! lifecycle — and 8 **probe** facts at 7 ms whose value is a sequence
//! number stamped with the wall time of its `sample()` call, each feeding
//! a three-hop pass-through insight chain at 3 / 5 / 11 ms (incommensurate
//! with 7 ms, so the phases are sampled uniformly).
//!
//! The reader — this thread — asks `ApolloHandle::query` for the latest
//! value of every probe and every chain tail, pauses 20 µs, and repeats;
//! every 16th loop it also runs one hot-window (last second) and one
//! archive-spanning (last five seconds) `AVG` over a background fact. After a 6 s warm-up it measures for `--seconds`.
//!
//! This is the only workload with wall-clock time and real
//! reader/publisher concurrency: freshness, sampling punctuality, lock
//! interplay, slab-lifecycle stalls. Every layer does a little, none
//! dominates.

use crate::drivers::{self, Population};
use crate::fleet::{self, FleetSpec};
use crate::model::Budget;
use crate::report::Outcome;
use crate::sources::{Probe, Sine};
use crate::trace::Tracer;
use crate::util::{
    median, peak_rss_mb, sort, tail, thread_cpu_seconds, undisturbed, undisturbed_latencies_us,
    Rng, ScratchFile,
};
use crate::Ctx;
use apollo_adaptive::controller::AimdParams;
use apollo_core::service::{Apollo, ApolloHandle, FactVertexSpec, InsightVertexSpec};
use apollo_core::vertex::InsightInputs;
use apollo_core::HealthState;
use apollo_runtime::event_loop::EventLoop;
use apollo_streams::SlabStore;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PROBES: usize = 8;
const PROBE_EVERY: Duration = Duration::from_millis(7);
const HOP_EVERY_MS: [u64; 3] = [3, 5, 11];
/// Windows fill at 2.6 s and the first flush after that wave can stall the
/// service for a second; measuring starts well after it.
const WARMUP_S: f64 = 6.0;
const READER_PAUSE: Duration = Duration::from_micros(20);
const RANGE_EVERY_LOOPS: u64 = 16;
const WINDOW: usize = 256;
const FIXED: usize = 128;
const AIMD: usize = 64;
const PUMPED: usize = 64;
const SUMS: usize = 16;
const FANIN: usize = 16;
/// Set-ups timed before the run, and again after it. A set-up takes
/// 11-17 ms depending on the machine's mood; with twenty of them the
/// figure of one build moved by 26 % between two sets of runs.
const SETUPS_EACH_SIDE: usize = 40;
/// Length of one slice of the measured window.
const SLICE_NS: u64 = 1_000_000_000;
/// A sample must be query-visible within this long, or it is a failed op.
/// Five seconds, not one: on the sandbox's disk the service thread now and
/// then blocks for over a second in a write fault on a slab page that is
/// under write-back. `blind_ms_per_s` and the p99s report those stalls;
/// only one that long means something is broken.
const VISIBLE_WITHIN_NS: u64 = 5_000_000_000;
/// Spans of the reader's two range aggregates: the last second sits in
/// the window, the last five reach 2.4 s into the slab archive.
const HOT_SPAN_MS: u64 = 1_000;
const ARCHIVE_SPAN_MS: u64 = 5_000;

/// `stamps[hop][probe][seq]`: when hop `hop`'s builder first saw a value
/// ≥ `seq`, in ns since the benchmark epoch. Written by builder closures
/// on the service thread, only while `on` is set (the traced half).
struct HopStamps {
    on: AtomicBool,
    epoch: Instant,
    capacity: usize,
    cells: Vec<AtomicU64>,
}

impl HopStamps {
    fn new(epoch: Instant, capacity: usize) -> Self {
        let cells = (0..3 * PROBES * capacity).map(|_| AtomicU64::new(0)).collect();
        Self { on: AtomicBool::new(false), epoch, capacity, cells }
    }

    fn cell(&self, hop: usize, probe: usize, seq: u64) -> Option<&AtomicU64> {
        ((seq as usize) < self.capacity)
            .then(|| &self.cells[(hop * PROBES + probe) * self.capacity + seq as usize])
    }

    fn get(&self, hop: usize, probe: usize, seq: u64) -> Option<u64> {
        self.cell(hop, probe, seq).map(|c| c.load(Ordering::Acquire)).filter(|&ns| ns != 0)
    }
}

struct Live {
    apollo: Apollo,
    probes: Vec<Arc<Probe>>,
    hops: Arc<HopStamps>,
    /// `(topic, source)` of the fixed background facts the reader scans.
    fixed: Vec<(String, Arc<Sine>)>,
    sum_inputs: Vec<Vec<String>>,
    chain: Vec<[String; 3]>,
    _store: Arc<SlabStore>,
    _file: ScratchFile,
}

fn probe_name(i: usize) -> String {
    format!("probe/{i}")
}

fn build(seed: u64, epoch: Instant, capacity: usize) -> Live {
    let mut rng = Rng::new(seed);
    let file = ScratchFile::new("live");
    let series = FIXED + AIMD + PUMPED + SUMS + PROBES * 4 + 16;
    let slots = (capacity as u32).next_power_of_two();
    let store = SlabStore::create(&file.0, fleet::slab_config(series, slots)).expect("create slab");
    let mut apollo =
        Apollo::with_config(EventLoop::new_real(), fleet::slab_streams(WINDOW, &store));
    apollo.attach_slab(Arc::clone(&store), Duration::from_secs(1));

    let mut background = Vec::new();
    let mut fixed = Vec::new();
    for i in 0..FIXED {
        let name = format!("bg/fixed/{i:03}");
        let source = Arc::new(Sine::seeded(&mut rng, Duration::from_secs(2)));
        let every = Duration::from_millis(10);
        apollo
            .register_fact(
                FactVertexSpec::fixed(name.clone(), source.clone(), every).publish_always(),
            )
            .expect("register fact");
        fixed.push((name.clone(), source));
        background.push(name);
    }
    let aimd = AimdParams {
        add_step: Duration::from_millis(5),
        min_interval: Duration::from_millis(10),
        max_interval: Duration::from_millis(80),
        initial_interval: Duration::from_millis(20),
        ..AimdParams::default()
    };
    for i in 0..AIMD {
        let name = format!("bg/aimd/{i:03}");
        // Quantised, so consecutive samples repeat and the interval relaxes.
        let source = Arc::new(Sine::seeded(&mut rng, Duration::from_secs(2)).quantized(2.0));
        apollo
            .register_fact(FactVertexSpec::simple_aimd(name.clone(), source, aimd.clone()))
            .expect("register fact");
        background.push(name);
    }
    let pump = apollo.prediction_pump(fleet::train_model(), Duration::from_millis(20));
    for i in 0..PUMPED {
        let name = format!("bg/pumped/{i:03}");
        let source = Arc::new(Sine::seeded(&mut rng, Duration::from_secs(2)));
        let spec = FactVertexSpec::fixed(name.clone(), source, Duration::from_millis(40))
            .with_batched_prediction(&pump);
        apollo.register_fact(spec).expect("register fact");
        background.push(name);
    }
    let mut sum_inputs = Vec::new();
    for j in 0..SUMS {
        let inputs: Vec<String> = background[j * FANIN..(j + 1) * FANIN].to_vec();
        apollo
            .register_insight(InsightVertexSpec::sum_of(
                format!("bg/sum/{j:02}"),
                inputs.clone(),
                Duration::from_millis(50),
            ))
            .expect("register insight");
        sum_inputs.push(inputs);
    }
    apollo
        .register_continuous(
            "bg/standing_avg",
            &format!("SELECT AVG(metric) FROM {}", fixed[0].0),
            Duration::from_millis(20),
        )
        .expect("register continuous query");

    let hops = Arc::new(HopStamps::new(epoch, capacity));
    let mut probes = Vec::new();
    let mut chain = Vec::new();
    for i in 0..PROBES {
        let probe = Arc::new(Probe::new(epoch, capacity));
        apollo
            .register_fact(FactVertexSpec::fixed(probe_name(i), probe.clone(), PROBE_EVERY))
            .expect("register probe");
        probes.push(probe);
        let mut input = probe_name(i);
        let names: [String; 3] = std::array::from_fn(|hop| format!("chain/{i}/h{hop}"));
        for (hop, name) in names.iter().enumerate() {
            let (stamps, source) = (Arc::clone(&hops), input.clone());
            let mut seen = 0u64;
            // Pass-through builder: forwards the newest sequence number
            // and, in the traced half, stamps when it first got that far.
            let builder = move |inputs: &InsightInputs| {
                let value = inputs.value(&source)?;
                if stamps.on.load(Ordering::Relaxed) {
                    let now = stamps.epoch.elapsed().as_nanos() as u64;
                    for seq in seen + 1..=value as u64 {
                        if let Some(cell) = stamps.cell(hop, i, seq) {
                            cell.store(now, Ordering::Release);
                        }
                    }
                }
                seen = value as u64;
                Some(value)
            };
            let every = Duration::from_millis(HOP_EVERY_MS[hop]);
            apollo
                .register_insight(InsightVertexSpec::new(name.clone(), vec![input], every, builder))
                .expect("register chain hop");
            input = name.clone();
        }
        chain.push(names);
    }
    Live { apollo, probes, hops, fixed, sum_inputs, chain, _store: store, _file: file }
}

/// What the reader has seen of one sequence-numbered topic.
struct Seen {
    sql: String,
    last: u64,
    /// `visible[seq]`: when a query first returned a value ≥ `seq`.
    visible: Vec<u64>,
}

impl Seen {
    fn new(topic: &str, capacity: usize) -> Self {
        let sql = format!("SELECT MAX(Timestamp), metric FROM {topic}");
        Self { sql, last: 0, visible: vec![0; capacity] }
    }

    /// One latest-value query.
    fn poll(&mut self, handle: &ApolloHandle, epoch: Instant, st: &mut ReaderStats) {
        st.queries += 1;
        let row = match handle.query(&self.sql).map(|r| r.rows.into_iter().next()) {
            Ok(Some(row)) => row,
            // Before the first sample the topic does not exist yet.
            Ok(None) => return,
            Err(_) if self.last == 0 => return,
            Err(e) => {
                st.query_errors += 1;
                st.first_error.get_or_insert_with(|| format!("{}: {e}", self.sql));
                return;
            }
        };
        let now = epoch.elapsed().as_nanos() as u64;
        let value = row.value as u64;
        if value < self.last {
            st.out_of_order += 1;
        }
        for seq in self.last + 1..=value {
            if let Some(slot) = self.visible.get_mut(seq as usize) {
                *slot = now;
            }
        }
        self.last = self.last.max(value);
    }
}

#[derive(Default)]
struct ReaderStats {
    queries: u64,
    query_errors: u64,
    out_of_order: u64,
    first_error: Option<String>,
    /// Archive-spanning AVG latencies in the measured window, with when.
    cold_us: Vec<(u64, f64)>,
    bad_aggregates: u64,
}

/// Counters at a boundary of the measured window. The window is cut into
/// one-second slices; the run reports each metric over the undisturbed
/// tenth of the slices.
#[derive(Clone, Copy)]
struct Mark {
    at_ns: u64,
    published: u64,
    queries: u64,
    /// Service-thread CPU seconds; read only at the window's ends (and
    /// its middle when traced), 0 elsewhere.
    cpu_s: f64,
}

fn mark(handle: &ApolloHandle, epoch: Instant, st: &ReaderStats, with_cpu: bool) -> Mark {
    Mark {
        at_ns: epoch.elapsed().as_nanos() as u64,
        published: handle.broker().published_total(),
        queries: st.queries,
        cpu_s: if with_cpu { thread_cpu_seconds("apollo-service").unwrap_or(0.0) } else { 0.0 },
    }
}

/// Timed samples `(when_ns, value)` grouped by the slice `when` falls in.
fn by_slice(samples: &[(u64, f64)], marks: &[Mark]) -> Vec<Vec<f64>> {
    let mut slices = vec![Vec::new(); marks.len().saturating_sub(1)];
    for &(at, v) in samples {
        let k = marks.partition_point(|m| m.at_ns <= at);
        if k >= 1 && k < marks.len() {
            slices[k - 1].push(v);
        }
    }
    slices
}

fn whole_window_p99(samples: &[(u64, f64)]) -> f64 {
    let mut all: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
    sort(&mut all);
    tail(&all, 0.99).1
}

pub fn population() -> Population {
    let ms = Duration::from_millis;
    Population {
        timers: vec![
            (ms(10), FIXED),
            (ms(20), AIMD + 2),
            (ms(40), PUMPED),
            (ms(50), SUMS),
            (PROBE_EVERY, PROBES),
            (ms(3), PROBES),
            (ms(5), PROBES),
            (ms(11), PROBES),
            (ms(1000), 2),
        ],
        publish_every_ms: 10,
        topics: FIXED + AIMD + PUMPED,
        window: WINDOW,
        rows_per_topic: 2_400,
        fanin: FANIN,
        per_input: 5,
        pump_batch: PUMPED,
        dirty_per_tick: FIXED * 100 + AIMD * 25 + PUMPED * 50,
        slab_slots: 4096,
        fleet: FleetSpec {
            facts: FIXED + AIMD + PUMPED,
            fact_every: ms(10),
            insights: SUMS,
            fanin: FANIN,
            insight_every: ms(50),
            window: Some(WINDOW),
            slots: 1024,
            pump_every: None,
            observed: true,
        },
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let total_s = WARMUP_S + ctx.seconds;
    // Sequence numbers a probe can hand out over the run (143 a second),
    // with slack; also the slab ring's slots, which must hold them.
    let capacity = ((total_s + 2.0) * 145.0) as usize;

    // Set-up, several times before the run and as often after it, so
    // that the samples do not all fall into one mood of the machine.
    let mut setups = Vec::new();
    let timed_build = |setups: &mut Vec<f64>| {
        let t = Instant::now();
        let live = build(ctx.seed, epoch, capacity);
        setups.push(t.elapsed().as_secs_f64());
        live
    };
    for _ in 0..SETUPS_EACH_SIDE - 1 {
        drop(timed_build(&mut setups));
    }
    let Live { apollo, probes, hops, fixed, sum_inputs, chain, _store, _file } =
        timed_build(&mut setups);

    let mut facts: Vec<Seen> = (0..PROBES).map(|i| Seen::new(&probe_name(i), capacity)).collect();
    let mut tails: Vec<Seen> = chain.iter().map(|c| Seen::new(&c[2], capacity)).collect();
    let mut tracer = Tracer::since(ctx.trace, epoch);
    let mut st = ReaderStats::default();

    let handle = apollo.spawn();
    let started_ns = epoch.elapsed().as_nanos() as u64;
    let warm_ns = started_ns + (WARMUP_S * 1e9) as u64;
    let end_ns = warm_ns + (ctx.seconds * 1e9) as u64;
    // Traced runs stamp the hops only in the second half of the window.
    let half_ns = warm_ns + (ctx.seconds * 0.5e9) as u64;
    let mut marks: Vec<Mark> = Vec::new();
    let mut at_half: Option<Mark> = None;
    let mut loops = 0u64;
    loop {
        let now_ns = epoch.elapsed().as_nanos() as u64;
        if now_ns >= end_ns {
            break;
        }
        if now_ns >= warm_ns + marks.len() as u64 * SLICE_NS {
            marks.push(mark(&handle, epoch, &st, marks.is_empty()));
        }
        if ctx.trace && at_half.is_none() && now_ns >= half_ns {
            at_half = Some(mark(&handle, epoch, &st, true));
            hops.on.store(true, Ordering::Relaxed);
        }
        for i in 0..PROBES {
            facts[i].poll(&handle, epoch, &mut st);
            tails[i].poll(&handle, epoch, &mut st);
        }
        loops += 1;
        if loops.is_multiple_of(RANGE_EVERY_LOOPS)
            && now_ns >= started_ns + ARCHIVE_SPAN_MS * 1_000_000
        {
            let (topic, source) = &fixed[(loops / RANGE_EVERY_LOOPS) as usize % FIXED];
            // Both spans end at the topic's own newest record, so neither
            // is ever empty however long the service last stalled.
            let newest = format!("SELECT MAX(Timestamp), metric FROM {topic}");
            st.queries += 1;
            let newest_ms = match handle.query(&newest) {
                Ok(r) => r.rows.first().map_or(0, |row| row.timestamp_ms),
                Err(e) => {
                    st.query_errors += 1;
                    st.first_error.get_or_insert_with(|| format!("{newest}: {e}"));
                    0
                }
            };
            for (span_ms, spanning) in [(HOT_SPAN_MS, false), (ARCHIVE_SPAN_MS, true)] {
                let sql = format!(
                    "SELECT AVG(metric) FROM {topic} WHERE Timestamp >= {}",
                    newest_ms.saturating_sub(span_ms)
                );
                st.queries += 1;
                let t = Instant::now();
                let result = handle.query(&sql);
                let end = Instant::now();
                match result {
                    Ok(r) => {
                        let lo = source.offset - source.amp;
                        let hi = source.offset + source.amp;
                        if !r.rows.first().is_some_and(|row| (lo..=hi).contains(&row.value)) {
                            st.bad_aggregates += 1;
                        }
                    }
                    Err(e) => {
                        st.query_errors += 1;
                        st.first_error.get_or_insert_with(|| format!("{sql}: {e}"));
                    }
                }
                if spanning && now_ns >= warm_ns {
                    st.cold_us.push((now_ns, end.duration_since(t).as_nanos() as f64 / 1e3));
                    tracer.record("query.archive_avg", 0, 0, t, end);
                }
            }
        }
        let pause = Instant::now();
        while pause.elapsed() < READER_PAUSE {
            std::hint::spin_loop();
        }
    }
    let at_end = mark(&handle, epoch, &st, true);
    // The last slice ends where the window ends, even when a little short.
    let short_tail = marks.len() > 1
        && marks.last().is_some_and(|last| at_end.at_ns - last.at_ns < SLICE_NS / 2);
    if short_tail {
        marks.pop();
    }
    marks.push(at_end);
    let at_warm = marks[0];
    let apollo = handle.stop();
    for _ in 0..SETUPS_EACH_SIDE {
        drop(timed_build(&mut setups));
    }
    let window_s = (at_end.at_ns - at_warm.at_ns) as f64 / 1e9;

    // ---- freshness, punctuality, blindness --------------------------------
    let mut fresh_fact = Vec::new();
    let mut fresh_insight = Vec::new();
    let mut late = Vec::new();
    let mut blind_ns = 0u64;
    let mut samples = 0u64;
    let mut not_visible = 0u64;
    let mut first_evict_stall_ns = 0u64;
    let deadline_ns = at_end.at_ns.saturating_sub(VISIBLE_WITHIN_NS);
    for (i, probe) in probes.iter().enumerate() {
        let mut previous: Option<u64> = None;
        for seq in 1..=probe.produced() {
            let Some(stamp) = probe.stamp_ns(seq) else { continue };
            if let Some(prev) = previous.replace(stamp) {
                let gap = stamp - prev;
                if stamp < at_warm.at_ns {
                    first_evict_stall_ns = first_evict_stall_ns.max(gap);
                } else if prev >= at_warm.at_ns && stamp <= at_end.at_ns {
                    late.push((stamp, gap as f64 / 1e3 - PROBE_EVERY.as_micros() as f64));
                    if i == 0 {
                        blind_ns += gap.saturating_sub(2 * PROBE_EVERY.as_nanos() as u64);
                    }
                }
            }
            if stamp < at_warm.at_ns || stamp > at_end.at_ns {
                continue;
            }
            let seen = |s: &Seen| s.visible.get(seq as usize).copied().filter(|&ns| ns != 0);
            for (seen_at, sink) in
                [(seen(&facts[i]), &mut fresh_fact), (seen(&tails[i]), &mut fresh_insight)]
            {
                match seen_at {
                    Some(at) if at - stamp <= VISIBLE_WITHIN_NS => {
                        samples += 1;
                        sink.push((stamp, (at - stamp) as f64 / 1e3));
                    }
                    // Sampled in the last second: may simply not be due yet.
                    None if stamp > deadline_ns => {}
                    _ => {
                        samples += 1;
                        not_visible += 1;
                    }
                }
            }
        }
    }
    out.attempted = samples + (at_end.queries - at_warm.queries);
    out.failed = not_visible + st.query_errors;
    out.check(st.out_of_order == 0, || {
        format!("{} query results went back in sequence", st.out_of_order)
    });
    out.check(st.bad_aggregates == 0, || {
        format!("{} range AVGs outside their source's value range", st.bad_aggregates)
    });
    out.check(out.failed == 0, || {
        format!(
            "{not_visible} samples not query-visible within 5 s, {} query errors ({:?})",
            st.query_errors, st.first_error
        )
    });
    let stats = apollo.stats();
    out.check(stats.callback_panics == 0, || {
        format!("{} callbacks panicked", stats.callback_panics)
    });
    out.check(stats.vertex_health.iter().all(|(_, h)| *h == HealthState::Healthy), || {
        "a vertex left the Healthy state".into()
    });
    out.check(fresh_fact.len() > 1_000 && fresh_insight.len() > 1_000, || {
        format!("only {} / {} freshness samples", fresh_fact.len(), fresh_insight.len())
    });

    if !ctx.trace {
        let pooled = |samples: &[(u64, f64)]| {
            undisturbed_latencies_us(by_slice(samples, &marks).iter().map(Vec::as_slice))
        };
        let fact = pooled(&fresh_fact);
        out.set("fresh_fact_p50_us", fact.p50, fact.pooled);
        out.set("fresh_fact_p99_us", fact.p99.1, fact.pooled);
        let insight = pooled(&fresh_insight);
        out.set("fresh_insight_p50_us", insight.p50, insight.pooled);
        let archive = pooled(&st.cold_us);
        out.set("query_p50_us", archive.p50, archive.pooled);
        out.notes.push(format!(
            "archive AVG p{:.0} {:.2} us over {} samples (not gated: see query.p99_us)",
            archive.p99.0 * 100.0,
            archive.p99.1,
            archive.pooled
        ));
        // This tail is made by the once-a-second lifecycle stall, not by
        // the machine's speed: a slice either holds a stall or not, so it
        // is taken over the whole window.
        out.set("fresh_insight_p99_us", whole_window_p99(&fresh_insight), fresh_insight.len());
        let per_slice = |f: &dyn Fn(&Mark, &Mark) -> f64| -> Vec<f64> {
            marks
                .windows(2)
                .map(|w| f(&w[0], &w[1]) / ((w[1].at_ns - w[0].at_ns) as f64 / 1e9))
                .collect()
        };
        let records = per_slice(&|a, b| (b.published - a.published) as f64);
        let queries = per_slice(&|a, b| (b.queries - a.queries) as f64);
        out.set("records_per_s", undisturbed(&records, true), records.len());
        out.set("queries_per_s", undisturbed(&queries, true), queries.len());
        out.set("blind_ms_per_s", blind_ns as f64 / 1e6 / window_s, window_s as usize);
        out.set("service_cpu_pct", (at_end.cpu_s - at_warm.cpu_s) / window_s * 100.0, 1);
        out.set("setup_s", undisturbed(&setups, false), setups.len());
        out.set("peak_rss_mb", peak_rss_mb(), 1);
        out.notes.push(format!(
            "first eviction stall in warm-up: largest probe gap {:.1} ms",
            first_evict_stall_ns as f64 / 1e6
        ));

        return out;
    }

    // ---- traced run: hop waits, overhead, layer metrics, model ------------
    let at_half = at_half.unwrap_or(at_end);
    let mut waits: [Vec<f64>; 4] = Default::default();
    for (i, probe) in probes.iter().enumerate() {
        for seq in 1..=probe.produced() {
            let Some(stamp) = probe.stamp_ns(seq).filter(|&s| s >= at_half.at_ns) else { continue };
            let visible = tails[i].visible.get(seq as usize).copied().unwrap_or(0);
            let at: Option<Vec<u64>> = (0..3).map(|hop| hops.get(hop, i, seq)).collect();
            let Some(at) = at.filter(|_| visible != 0) else { continue };
            let edges = [stamp, at[0], at[1], at[2], visible];
            if edges.windows(2).any(|w| w[1] < w[0]) {
                continue;
            }
            let req = ((i as u64) << 32) | seq;
            let root = tracer.record_ns("fresh_insight", 0, req, stamp, visible);
            let names = ["hop0_wait", "hop1_wait", "hop2_wait", "tail_visible"];
            for (k, name) in names.into_iter().enumerate() {
                waits[k].push((edges[k + 1] - edges[k]) as f64 / 1e3);
                tracer.record_ns(name, root, req, edges[k], edges[k + 1]);
            }
        }
    }
    let wait_names = [
        "core.insight.hop0_wait_us",
        "core.insight.hop1_wait_us",
        "core.insight.hop2_wait_us",
        "core.insight.tail_visible_us",
    ];
    for (name, values) in wait_names.into_iter().zip(&waits) {
        out.set(name, median(values), values.len());
    }
    out.set("streams.first_evict_stall_ms", first_evict_stall_ns as f64 / 1e6, 1);
    out.set("runtime.sample_late_p99_us", whole_window_p99(&late), late.len());
    let archive = undisturbed_latencies_us(by_slice(&st.cold_us, &marks).iter().map(Vec::as_slice));
    out.set("query.p99_us", archive.p99.1, archive.pooled);
    let plain_cpu =
        (at_half.cpu_s - at_warm.cpu_s) / ((at_half.at_ns - at_warm.at_ns) as f64 / 1e9);
    let traced_cpu = (at_end.cpu_s - at_half.cpu_s) / ((at_end.at_ns - at_half.at_ns) as f64 / 1e9);
    out.set("trace.overhead_pct", (traced_cpu - plain_cpu) / plain_cpu * 100.0, 2);

    let costs = drivers::run_all(&population(), ctx.seed, &mut tracer, &mut out);
    out.set("core.hook.suppressed_ratio", stats.suppression_ratio(), stats.hook_calls as usize);
    // The reader goes through `ApolloHandle::query`, which has no cache.
    let cache = apollo.scan_cache();
    let lookups = cache.hits() + cache.misses() + cache.planner_fresh();
    out.set("query.cache_hit_ratio", cache.hits() as f64 / lookups.max(1) as f64, lookups as usize);

    // Model: the service thread's CPU over its whole life, from call
    // counts the service itself reports.
    let broker = apollo.broker();
    let snapshot = apollo.metrics_snapshot();
    let session_s = at_end.at_ns.saturating_sub(started_ns) as f64 / 1e9;
    let measured_polls = (stats.hook_calls - stats.facts_suppressed) as f64;
    let predicted = stats.facts_published as f64 - measured_polls;
    let evicting: f64 = broker
        .topic_names()
        .iter()
        .map(|t| broker.topic_len(t).saturating_sub(WINDOW) as f64)
        .sum();
    let consumed: f64 = sum_inputs
        .iter()
        .flatten()
        .chain(chain.iter().flat_map(|c| c[..2].iter()))
        .map(|t| broker.topic_len(t) as f64)
        .sum::<f64>()
        + probes.iter().map(|p| p.produced() as f64).sum::<f64>();
    let pumps: f64 =
        HOP_EVERY_MS.iter().map(|ms| PROBES as f64 * session_s * 1e3 / *ms as f64).sum::<f64>()
            + SUMS as f64 * session_s * 20.0;
    let mut budget = Budget::new(&costs);
    budget.add("runtime.fire_ns", snapshot.counter("runtime.timer.fires") as f64);
    budget.add("core.hook.poll_ns", measured_polls);
    budget.add_diff("core.hook.poll_ns", "streams.publish_ns", stats.facts_suppressed as f64);
    budget.add_diff("streams.publish_evict_ns", "streams.publish_ns", evicting);
    budget.add("core.insight.pump_ns_per_input", consumed);
    budget.add("core.insight.idle_pump_ns", (pumps - stats.insight_recomputes as f64).max(0.0));
    budget.add("streams.publish_ns", stats.insights_published as f64);
    budget.add("core.predict.record_ns", predicted);
    budget.add("query.continuous.fold_ns_per_record", broker.topic_len(&fixed[0].0) as f64);
    budget.add_ms("streams.slab.consolidate_ms", session_s.floor());
    budget.add_ms("streams.slab.flush_ms", session_s.floor());
    budget.finish(
        &mut out,
        at_end.cpu_s,
        "sleep/wake syscalls of the real-clock loop, lock waits against the reader, cache misses \
         between sparse timer fires (drivers run hot loops)",
    );
    crate::finish_trace(ctx, &tracer, &out);
    out
}
