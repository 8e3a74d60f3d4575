//! `query_mix` — virtual clock, closed loop, one client.
//!
//! 16 topics are preloaded with 20 000 rows each at 10 ms; windows hold
//! 4096 rows, so 80 % of the history sits in the slab archive. One unit
//! then issues 3 000 `Apollo::query` calls from a seeded mix — `latest`
//! 40 %, `hot_avg` 20 %, `cold_avg` 10 %, `bucket` 10 %, `union8` 15 %,
//! `join2` 5 % — Zipf-skewed over the topics, stepping the service 10 ms
//! every fourth query so one row per topic appends and the scan cache's
//! epochs move. Every result is checked against an oracle computed from
//! the benchmark's own log of what its sources emitted.
//!
//! Parse, plan, cache and scans (hot and archived) dominate; the hooks
//! are idle. It reads through `streams` where `ingest_drain` writes.

use crate::batch::{self, Unit};
use crate::drivers::{self, Population};
use crate::fleet;
use crate::model::Budget;
use crate::report::Outcome;
use crate::sources::Sine;
use crate::trace::Tracer;
use crate::util::{undisturbed, Digest, Rng, ScratchFile, Zipf};
use crate::Ctx;
use apollo_core::service::{Apollo, FactVertexSpec};
use apollo_query::QueryResult;
use apollo_runtime::event_loop::EventLoop;
use apollo_streams::SlabStore;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const TOPICS: usize = 16;
const PRELOAD_ROWS: usize = 20_000;
const WINDOW: usize = 4096;
const ROW_EVERY_MS: u64 = 10;
const QUERIES: usize = 3_000;
/// One 10 ms step of the service every this many queries.
pub const STEP_EVERY: usize = 4;

const HOT_SPAN_MS: u64 = 10_000;
const BUCKET_SPAN_MS: u64 = 60_000;
const JOIN_SPAN_MS: u64 = 20_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Latest,
    HotAvg,
    ColdAvg,
    Bucket,
    Union8,
    Join2,
}

impl Kind {
    pub const ALL: [Kind; 6] =
        [Kind::Latest, Kind::HotAvg, Kind::ColdAvg, Kind::Bucket, Kind::Union8, Kind::Join2];

    /// Share of the mix, in percent.
    fn share(self) -> u64 {
        match self {
            Kind::Latest => 40,
            Kind::HotAvg => 20,
            Kind::ColdAvg => 10,
            Kind::Bucket => 10,
            Kind::Union8 => 15,
            Kind::Join2 => 5,
        }
    }

    pub fn span_name(self) -> &'static str {
        match self {
            Kind::Latest => "query.latest",
            Kind::HotAvg => "query.hot_avg",
            Kind::ColdAvg => "query.cold_avg",
            Kind::Bucket => "query.bucket",
            Kind::Union8 => "query.union8",
            Kind::Join2 => "query.join2",
        }
    }

    /// The per-layer metric holding this kind's execution cost.
    pub fn metric(self) -> &'static str {
        match self {
            Kind::Latest => "query.exec_latest_us",
            Kind::HotAvg => "query.exec_hot_avg_us",
            Kind::ColdAvg => "query.exec_cold_avg_us",
            Kind::Bucket => "query.exec_bucket_us",
            Kind::Union8 => "query.exec_union8_us",
            Kind::Join2 => "query.exec_join2_us",
        }
    }
}

/// One generated query: its kind and the topics it touches.
#[derive(Clone, Copy)]
pub struct Planned {
    pub kind: Kind,
    topics: [usize; 8],
}

/// The seeded query list. Kinds come in shuffled blocks of twenty that
/// hold each kind at exactly its share, so every seed's list, and every
/// stretch of it, has the same composition (a `cold_avg` costs a
/// thousand `latest`s: drawn independently, their count per stretch would
/// decide the stretch's rate). Topics are drawn by Zipf rank.
pub fn plan(seed: u64, n: usize) -> Vec<Planned> {
    let mut rng = Rng::new(seed ^ 0x9e11);
    let zipf = Zipf::new(TOPICS);
    let block: Vec<Kind> =
        Kind::ALL.iter().flat_map(|&k| std::iter::repeat_n(k, (k.share() / 5) as usize)).collect();
    let mut kinds = Vec::with_capacity(n + block.len());
    while kinds.len() < n {
        let mut shuffled = block.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.below(i + 1));
        }
        kinds.extend(shuffled);
    }
    kinds
        .into_iter()
        .take(n)
        .map(|kind| {
            let mut topics = [0usize; 8];
            for t in &mut topics {
                *t = zipf.sample(&mut rng);
            }
            if kind == Kind::Join2 && topics[1] == topics[0] {
                topics[1] = (topics[0] + 1) % TOPICS;
            }
            Planned { kind, topics }
        })
        .collect()
}

pub fn topic_name(i: usize) -> String {
    format!("qm/t{i:02}")
}

impl Planned {
    pub fn sql(&self, now_ms: u64) -> String {
        let t = |k: usize| topic_name(self.topics[k]);
        match self.kind {
            Kind::Latest => format!("SELECT MAX(Timestamp), metric FROM {}", t(0)),
            Kind::HotAvg => format!(
                "SELECT AVG(metric) FROM {} WHERE Timestamp >= {}",
                t(0),
                now_ms.saturating_sub(HOT_SPAN_MS)
            ),
            Kind::ColdAvg => format!("SELECT AVG(metric) FROM {}", t(0)),
            Kind::Bucket => format!(
                "SELECT MAX(metric) FROM {} WHERE Timestamp >= {} GROUP BY BUCKET(Timestamp, 1s)",
                t(0),
                now_ms.saturating_sub(BUCKET_SPAN_MS)
            ),
            Kind::Union8 => (0..8)
                .map(|k| format!("SELECT MAX(Timestamp), metric FROM {}", t(k)))
                .collect::<Vec<_>>()
                .join(" UNION "),
            Kind::Join2 => format!(
                "SELECT COUNT(*) FROM {} JOIN {} ON Timestamp WITHIN 5ms WHERE Timestamp >= {}",
                t(0),
                t(1),
                now_ms.saturating_sub(JOIN_SPAN_MS)
            ),
        }
    }

    /// Compare `result` with the oracle over `logs` (per topic, every
    /// `(ms, value)` emitted so far). Returns the rows the query's range
    /// admits, or what differed. MAX, COUNT and latest are exact; AVG is
    /// held to 1e-9 relative.
    pub fn verify(
        &self,
        result: &QueryResult,
        logs: &[Vec<(u64, f64)>],
        now_ms: u64,
        digest: &mut Digest,
    ) -> Result<usize, String> {
        for row in &result.rows {
            digest.push(row.value.to_bits());
        }
        if !result.arm_errors.is_empty() {
            return Err(format!("arm errors {:?}", result.arm_errors));
        }
        let log = &logs[self.topics[0]];
        let from = |lo: u64| &log[log.partition_point(|&(ms, _)| ms < lo)..];
        let rows = &result.rows;
        let one = |want: f64, tolerance: f64| match rows.as_slice() {
            [row] if (row.value - want).abs() <= tolerance * want.abs() => Ok(()),
            other => Err(format!("got {other:?}, oracle says {want}")),
        };
        let avg = |rows: &[(u64, f64)]| rows.iter().map(|r| r.1).sum::<f64>() / rows.len() as f64;
        match self.kind {
            Kind::Latest => {
                let &(ms, v) = log.last().expect("preloaded");
                one(v, 0.0)?;
                if rows[0].timestamp_ms != ms {
                    return Err(format!("latest at {} ms, oracle says {ms}", rows[0].timestamp_ms));
                }
                Ok(1)
            }
            Kind::HotAvg => {
                let hot = from(now_ms.saturating_sub(HOT_SPAN_MS));
                one(avg(hot), 1e-9).map(|()| hot.len())
            }
            Kind::ColdAvg => one(avg(log), 1e-9).map(|()| log.len()),
            Kind::Bucket => {
                let span = from(now_ms.saturating_sub(BUCKET_SPAN_MS));
                let mut want: Vec<(u64, f64)> = Vec::new();
                for &(ms, v) in span {
                    let start = ms - ms % 1000;
                    match want.last_mut() {
                        Some(last) if last.0 == start => last.1 = last.1.max(v),
                        _ => want.push((start, v)),
                    }
                }
                let got: Vec<(u64, f64)> = rows.iter().map(|r| (r.timestamp_ms, r.value)).collect();
                if got != want {
                    return Err(format!(
                        "{} buckets differ from the oracle's {}",
                        got.len(),
                        want.len()
                    ));
                }
                Ok(span.len())
            }
            Kind::Union8 => {
                let want: Vec<f64> =
                    self.topics.iter().map(|&t| logs[t].last().expect("preloaded").1).collect();
                let got: Vec<f64> = rows.iter().map(|r| r.value).collect();
                if got != want {
                    return Err(format!("union rows {got:?}, oracle says {want:?}"));
                }
                Ok(8)
            }
            Kind::Join2 => {
                let span = from(now_ms.saturating_sub(JOIN_SPAN_MS));
                let other = &logs[self.topics[1]];
                let matched = span
                    .iter()
                    .filter(|&&(ms, _)| {
                        let i = other.partition_point(|&(o, _)| o + 5 < ms);
                        other.get(i).is_some_and(|&(o, _)| o <= ms + 5)
                    })
                    .count();
                one(matched as f64, 0.0).map(|()| span.len())
            }
        }
    }
}

struct Service {
    apollo: Apollo,
    sources: Vec<Arc<Sine>>,
    _store: Arc<SlabStore>,
    _file: ScratchFile,
}

/// Build the service and preload the history through its own hooks.
fn setup(seed: u64) -> Service {
    let mut rng = Rng::new(seed);
    let file = ScratchFile::new("qmix");
    let store =
        SlabStore::create(&file.0, fleet::slab_config(TOPICS, 32_768)).expect("create slab");
    let mut apollo =
        Apollo::with_config(EventLoop::new_virtual(), fleet::slab_streams(WINDOW, &store));
    let every = Duration::from_millis(ROW_EVERY_MS);
    let sources: Vec<Arc<Sine>> = (0..TOPICS)
        .map(|i| {
            let source = Arc::new(Sine::seeded(&mut rng, Duration::from_secs(30)).logged());
            apollo
                .register_fact(
                    FactVertexSpec::fixed(topic_name(i), source.clone(), every).publish_always(),
                )
                .expect("register fact");
            source
        })
        .collect();
    apollo.run_for(every * PRELOAD_ROWS as u32);
    Service { apollo, sources, _store: store, _file: file }
}

/// Per-kind latencies of one unit, for the traced run's model.
#[derive(Default)]
struct KindTimes {
    us: [Vec<f64>; 6],
    rows_scanned: u64,
    cache_hits: u64,
    cache_lookups: u64,
}

fn unit(seed: u64, tracer: &mut Tracer, kinds: &mut KindTimes) -> Unit {
    let t_setup = Instant::now();
    let Service { mut apollo, sources, _store, _file } = setup(seed);
    let setup_s = t_setup.elapsed().as_secs_f64();
    let queries = plan(seed, QUERIES);
    let mut logs: Vec<Vec<(u64, f64)>> = vec![Vec::new(); TOPICS];
    let sync_logs = |logs: &mut Vec<Vec<(u64, f64)>>| {
        for (log, source) in logs.iter_mut().zip(&sources) {
            let emitted = source.emitted();
            log.extend_from_slice(&emitted[log.len()..]);
        }
    };
    sync_logs(&mut logs);

    let t_unit = Instant::now();
    let root = tracer.record("query_mix.unit", 0, 0, t_unit, t_unit);
    let mut errors = Vec::new();
    let mut failed = 0u64;
    let mut digest = Digest::new();
    let mut query_us = Vec::with_capacity(QUERIES);
    // Step times, summed in ten chunks so a unit offers ten samples.
    let mut record_steps_s = vec![0.0f64; 10];
    let mut steps = 0u64;
    for (i, q) in queries.iter().enumerate() {
        if i % STEP_EVERY == 0 {
            let t = Instant::now();
            apollo.run_for(Duration::from_millis(ROW_EVERY_MS));
            let end = Instant::now();
            record_steps_s[i * 10 / QUERIES] += end.duration_since(t).as_secs_f64();
            tracer.record("run_for", root, 0, t, end);
            steps += 1;
            sync_logs(&mut logs);
        }
        let now_ms = apollo.now() / 1_000_000;
        let sql = q.sql(now_ms);
        let t = Instant::now();
        let result = apollo.query(&sql);
        let end = Instant::now();
        let us = end.duration_since(t).as_nanos() as f64 / 1e3;
        query_us.push(us);
        tracer.record(q.kind.span_name(), root, 0, t, end);
        kinds.us[Kind::ALL.iter().position(|k| *k == q.kind).expect("listed")].push(us);
        match result
            .map_err(|e| e.to_string())
            .and_then(|r| q.verify(&r, &logs, now_ms, &mut digest))
        {
            Ok(rows) => kinds.rows_scanned += rows as u64,
            Err(e) => {
                failed += 1;
                if errors.len() < 5 {
                    errors.push(format!("{sql}: {e}"));
                }
            }
        }
    }
    let cache = apollo.scan_cache();
    kinds.cache_hits += cache.hits();
    kinds.cache_lookups += cache.hits() + cache.misses() + cache.planner_fresh();
    Unit {
        setup_s,
        records: steps * TOPICS as u64,
        record_steps_s,
        query_us,
        digest,
        suppressed_ratio: apollo.stats().suppression_ratio(),
        attempted: QUERIES as u64 + steps * TOPICS as u64,
        failed,
        errors,
    }
}

pub fn population() -> Population {
    let every = Duration::from_millis(ROW_EVERY_MS);
    Population {
        timers: vec![(every, TOPICS)],
        publish_every_ms: ROW_EVERY_MS,
        topics: TOPICS,
        window: WINDOW,
        rows_per_topic: PRELOAD_ROWS,
        fanin: 16,
        per_input: 5,
        pump_batch: 64,
        dirty_per_tick: TOPICS * 100,
        slab_slots: 32_768,
        fleet: crate::ingest::spec(),
    }
}

fn queries_rate(units: &[Unit]) -> f64 {
    undisturbed(&units.iter().map(Unit::queries_per_s).collect::<Vec<_>>(), true)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut kinds = KindTimes::default();
    if !ctx.trace {
        return batch::run_untraced(ctx.seconds, |t| unit(ctx.seed, t, &mut kinds));
    }
    let mut tracer = Tracer::new(true);
    let (mut out, units) = batch::run_traced(ctx.seconds / 2.0, &mut tracer, queries_rate, |t| {
        unit(ctx.seed, t, &mut kinds)
    });
    let costs = drivers::run_all(&population(), ctx.seed, &mut tracer, &mut out);
    // These two come from the workload's own run, not from a driver.
    let n_units = units.len() as f64;
    out.set(
        "query.cache_hit_ratio",
        kinds.cache_hits as f64 / kinds.cache_lookups.max(1) as f64,
        units.len(),
    );
    out.set(
        "query.rows_scanned_per_query",
        kinds.rows_scanned as f64 / (n_units * QUERIES as f64),
        units.len() * QUERIES,
    );

    // Model: queries of each kind at the driver's per-kind cost, plus the
    // append steps at hook cost.
    let mut budget = Budget::new(&costs);
    let mut measured = 0.0;
    for (k, kind) in Kind::ALL.iter().enumerate() {
        budget.add_us(kind.metric(), kinds.us[k].len() as f64 / n_units);
        measured += kinds.us[k].iter().sum::<f64>() / 1e6 / n_units;
    }
    let steps = (QUERIES / STEP_EVERY) as f64;
    budget.add("runtime.fire_ns", steps * TOPICS as f64);
    budget.add("core.hook.poll_ns", steps * TOPICS as f64);
    budget.add_diff("streams.publish_evict_ns", "streams.publish_ns", steps * TOPICS as f64);
    measured += batch::undisturbed_record_wall_s(&units);
    budget.finish(&mut out, measured, "run_for's own horizon bookkeeping per 10 ms step");
    crate::finish_trace(ctx, &tracer, &out);
    out
}
