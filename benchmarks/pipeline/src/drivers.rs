//! Layer drivers: each replays a workload's population through one
//! layer's public entry points at a time and reports the per-call cost —
//! the per-layer metrics, and the unit costs of the layer model.
//!
//! A driver takes its sizes from the workload's [`Population`], so
//! `streams.publish_ns` on `ingest_drain` is the cost over 1024 topics
//! and on `query_mix` over 16. Where a workload never calls a layer, the
//! population carries a nominal size and the model multiplies by zero.

use crate::fleet::{self, FleetSpec};
use crate::qmix::{self, Kind};
use crate::report::Outcome;
use crate::sources::Sine;
use crate::trace::Tracer;
use crate::util::{ns_per_call, quantile, sort, undisturbed, Digest, Rng, ScratchFile};
use apollo_adaptive::controller::{AimdParams, FixedInterval, IntervalController, SimpleAimd};
use apollo_cluster::metrics::MetricSource;
use apollo_core::service::{Apollo, FactVertexSpec};
use apollo_core::vertex::{FactVertex, InsightInputs, InsightVertex};
use apollo_delphi::stack::DelphiScratch;
use apollo_obs::Registry;
use apollo_query::{CachedBroker, QueryEngine, ScanCache, TableProvider};
use apollo_runtime::event_loop::{EventLoop, TimerAction};
use apollo_streams::{Broker, Record, SlabStore, StreamConfig, StreamId};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::os::unix::fs::MetadataExt;
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The sizes a workload hands the drivers.
pub struct Population {
    /// Timer population: `(cadence, how many timers)`.
    pub timers: Vec<(Duration, usize)>,
    /// Spacing of published records' timestamps.
    pub publish_every_ms: u64,
    /// Topics receiving publishes.
    pub topics: usize,
    /// Window bound (`max_len`).
    pub window: usize,
    /// History depth per topic for the scan and query drivers.
    pub rows_per_topic: usize,
    /// Insight shape: inputs per insight, fresh records per input per pump.
    pub fanin: usize,
    pub per_input: usize,
    /// Vertices predicted per pump tick.
    pub pump_batch: usize,
    /// Records reaching the slab between two lifecycle ticks, and the
    /// slab's ring slots per series (msync walks the whole mapping).
    pub dirty_per_tick: usize,
    pub slab_slots: u32,
    /// Fleet for the whole-service replays (`obs.overhead_pct`).
    pub fleet: FleetSpec,
}

type Costs = BTreeMap<&'static str, f64>;

/// Every driver sample is a time: report the undisturbed tenth's mean.
fn fast(samples: &[f64]) -> f64 {
    undisturbed(samples, false)
}

/// The least of a few whole-run wall times, for differences between two
/// variants of a run.
fn least(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

struct Run<'a> {
    pop: &'a Population,
    seed: u64,
    tracer: &'a mut Tracer,
    out: &'a mut Outcome,
    costs: Costs,
}

impl Run<'_> {
    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.out.set(name, value, samples);
        self.costs.insert(name, value);
    }

    /// Run one layer's drivers under a `driver.<layer>` span.
    fn layer(&mut self, name: &'static str, f: impl FnOnce(&mut Self)) {
        let start = Instant::now();
        f(self);
        let end = Instant::now();
        println!("{name:<28} took {:.2} s", end.duration_since(start).as_secs_f64());
        self.tracer.record(name, 0, 0, start, end);
    }
}

/// Run every driver; sets the per-layer metrics on `out` and returns the
/// unit costs for the workload's model.
pub fn run_all(pop: &Population, seed: u64, tracer: &mut Tracer, out: &mut Outcome) -> Costs {
    let mut run = Run { pop, seed, tracer, out, costs: Costs::new() };
    run.layer("driver.runtime", runtime);
    run.layer("driver.core.hook", hook);
    run.layer("driver.streams.publish", streams_publish);
    run.layer("driver.streams.scan", streams_scan);
    run.layer("driver.streams.slab", slab);
    run.layer("driver.core.insight", insight);
    run.layer("driver.delphi", delphi);
    run.layer("driver.query", query);
    run.layer("driver.query.continuous", continuous);
    run.layer("driver.obs", obs);
    run.costs
}

fn topic(i: usize) -> String {
    format!("drv/t{i:04}")
}

/// A freshly allocated encoded record, as a hook's fact builder makes one.
fn payload(ms: u64, v: f64) -> bytes::Bytes {
    Record::measured(ms * 1_000_000, v).encode()
}

/// A broker observed by an enabled registry, as `Apollo` builds its own:
/// the per-topic counters and sampled histograms are part of the cost.
fn observed(broker: Broker) -> Broker {
    broker.instrument(&Registry::new());
    broker
}

/// A slab-spilling broker sized for `series` topics of `rows` rows.
fn slab_broker(series: usize, window: usize, rows: usize) -> (Broker, Arc<SlabStore>, ScratchFile) {
    let file = ScratchFile::new("driver");
    let slots = (rows.saturating_sub(window) + 64).next_power_of_two().max(256) as u32;
    let store = SlabStore::create(&file.0, fleet::slab_config(series, slots)).expect("create slab");
    (observed(Broker::new(fleet::slab_streams(window, &store))), store, file)
}

// ---------------------------------------------------------------- runtime

fn runtime(run: &mut Run) {
    // Timer-wheel cost per fire: the workload's timer population with
    // callbacks that do nothing.
    let mut el = EventLoop::new_virtual();
    el.instrument(&Registry::new());
    let controls: Vec<_> = run
        .pop
        .timers
        .iter()
        .flat_map(|&(every, n)| (0..n).map(move |_| every))
        .map(|every| el.add_timer(every, |_| TimerAction::Continue))
        .collect();
    let per_virtual_s: f64 =
        run.pop.timers.iter().map(|&(every, n)| n as f64 / every.as_secs_f64()).sum();
    let span = Duration::from_secs_f64((100_000.0 / per_virtual_s).max(0.05));
    el.run_for(span);
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let fired: u64 = controls.iter().map(|c| c.fire_count()).sum();
            let t = Instant::now();
            el.run_for(span);
            let ns = t.elapsed().as_nanos() as f64;
            ns / (controls.iter().map(|c| c.fire_count()).sum::<u64>() - fired) as f64
        })
        .collect();
    run.set("runtime.fire_ns", fast(&samples), samples.len());

    // Real clock, one 2 ms timer: how late the loop wakes.
    let mut el = EventLoop::new_real();
    let wakes = Arc::new(Mutex::new(Vec::with_capacity(160)));
    let sink = Arc::clone(&wakes);
    let every = Duration::from_millis(2);
    el.add_timer(every, move |_| {
        sink.lock().expect("wake log").push(Instant::now());
        TimerAction::Continue
    });
    for _ in 0..150 {
        el.turn();
    }
    let wakes = wakes.lock().expect("wake log");
    let over: Vec<f64> = wakes
        .windows(2)
        .map(|w| (w[1].duration_since(w[0]).as_secs_f64() - every.as_secs_f64()) * 1e6)
        .collect();
    run.set("runtime.wake_overshoot_us", fast(&over), over.len());
}

// -------------------------------------------------------------- core.hook

fn hook(run: &mut Run) {
    let n = run.pop.topics;
    let mut rng = Rng::new(run.seed);
    let registry = Registry::new();
    let broker = Arc::new(Broker::new(StreamConfig::unbounded()));
    broker.instrument(&registry);
    let every = Duration::from_millis(run.pop.publish_every_ms);
    let vertices: Vec<FactVertex> = (0..n)
        .map(|i| {
            let source: Arc<dyn MetricSource> = Arc::new(Sine::seeded(&mut rng, every * 200));
            let v = FactVertex::new(
                topic(i),
                source,
                Box::new(FixedInterval::new(every)),
                Arc::clone(&broker),
                false,
            );
            v.instrument(&registry);
            v
        })
        .collect();
    let rounds = (200_000 / n).max(8);
    let mut now = 0u64;
    let mut samples = Vec::with_capacity(rounds);
    for round in 0..rounds + 1 {
        now += every.as_nanos() as u64;
        let t = Instant::now();
        for v in &vertices {
            black_box(v.poll(now));
        }
        if round > 0 {
            samples.push(t.elapsed().as_nanos() as f64 / n as f64);
        }
    }
    run.set("core.hook.poll_ns", fast(&samples), samples.len());

    let mut aimd = SimpleAimd::new(AimdParams::default());
    let mut x = 0.0f64;
    let ns = ns_per_call(9, 20_000, || {
        x += 0.37;
        black_box(aimd.on_sample(100.0 + x.sin()));
    });
    run.set("adaptive.on_sample_ns", ns, 9);
}

// --------------------------------------------------------- streams.publish

/// Median ns per publish over `rounds` rounds of one publish per topic;
/// `prepare` runs untimed before each round.
fn publish_rounds(
    broker: &Broker,
    names: &[String],
    every_ms: u64,
    start_ms: u64,
    rounds: usize,
    batch: bool,
    mut prepare: impl FnMut(),
) -> (f64, u64) {
    let mut ms = start_ms;
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        ms += every_ms;
        prepare();
        let payloads: Vec<_> = names.iter().map(|_| payload(ms, ms as f64)).collect();
        let t = Instant::now();
        for (name, p) in names.iter().zip(payloads) {
            if batch {
                black_box(broker.publish_batch(name, [(ms, p)]));
            } else {
                black_box(broker.publish(name, ms, p));
            }
        }
        samples.push(t.elapsed().as_nanos() as f64 / names.len() as f64);
    }
    (fast(&samples), ms)
}

fn streams_publish(run: &mut Run) {
    let pop = run.pop;
    let names: Vec<String> = (0..pop.topics).map(topic).collect();
    let every = pop.publish_every_ms;
    let rounds = (150_000 / pop.topics).max(16);

    // Below the bound: append only.
    let plain = observed(Broker::new(StreamConfig::unbounded()));
    let (warm, ms) = publish_rounds(&plain, &names, every, 0, 4, false, || {});
    black_box(warm);
    let (publish_ns, ms) = publish_rounds(&plain, &names, every, ms, rounds, false, || {});
    run.set("streams.publish_ns", publish_ns, rounds);
    let in_windows = (rounds + 4) * pop.topics;
    run.set(
        "streams.mem_bytes_per_record",
        plain.approx_memory_bytes() as f64 / in_windows as f64,
        in_windows,
    );
    let (batch_ns, _) = publish_rounds(&plain, &names, every, ms, rounds, true, || {});
    run.set("streams.publish_batch_ns", batch_ns, rounds);

    let latest_ns = ns_per_call(9, names.len().max(1_000), {
        let mut i = 0;
        let (plain, names) = (&plain, &names);
        move || {
            i = (i + 1) % names.len();
            black_box(plain.latest(&names[i]));
        }
    });
    run.set("streams.latest_ns", latest_ns, 9);

    // One subscriber per topic, drained between rounds.
    let fanned = observed(Broker::new(StreamConfig::unbounded()));
    let subs: Vec<_> = names.iter().map(|n| fanned.subscribe(n)).collect();
    let drain = || {
        for s in &subs {
            black_box(s.drain());
        }
    };
    let (_, ms) = publish_rounds(&fanned, &names, every, 0, 4, false, drain);
    let (with_sub_ns, _) = publish_rounds(&fanned, &names, every, ms, rounds, false, drain);
    run.set("streams.fanout_ns", (with_sub_ns - publish_ns).max(0.0), rounds);

    // At the bound with slab spill: fill every window, time the first
    // eviction wave, then steady-state evicting publishes.
    let evict_rounds = rounds.min(512);
    let (spilling, store, _file) =
        slab_broker(pop.topics, pop.window, pop.window + evict_rounds + 8);
    let mut ms = 0;
    for _ in 0..pop.window {
        ms += every;
        for name in &names {
            spilling.publish(name, ms, payload(ms, 1.0));
        }
    }
    let t = Instant::now();
    let (_, ms) = publish_rounds(&spilling, &names, every, ms, 1, false, || {});
    run.set("streams.first_evict_wave_ms", t.elapsed().as_secs_f64() * 1e3, 1);
    let (evict_ns, _) = publish_rounds(&spilling, &names, every, ms, evict_rounds, false, || {});
    run.set("streams.publish_evict_ns", evict_ns, evict_rounds);
    store.flush().expect("flush slab");
    let archived = (evict_rounds + 1) * pop.topics;
    let blocks = std::fs::metadata(store.path()).map(|m| m.blocks()).unwrap_or(0);
    run.set("streams.archive_bytes_per_record", blocks as f64 * 512.0 / archived as f64, archived);
}

// ------------------------------------------------------------ streams.scan

fn streams_scan(run: &mut Run) {
    let pop = run.pop;
    let topics = pop.topics.min(16);
    let names: Vec<String> = (0..topics).map(topic).collect();
    let (broker, _store, _file) = slab_broker(topics, pop.window, pop.rows_per_topic);
    let every = pop.publish_every_ms;
    for k in 1..=pop.rows_per_topic as u64 {
        for name in &names {
            broker.publish(name, k * every, payload(k * every, k as f64));
        }
    }
    let hot_rows = pop.window.min(pop.rows_per_topic);
    let cold_rows = pop.rows_per_topic - hot_rows;
    let seam_ms = (cold_rows as u64) * every;
    let mut i = 0;
    let hot = ns_per_call(9, 64, || {
        i = (i + 1) % topics;
        let batch = broker.scan_batch_by_time(&names[i], seam_ms + 1, u64::MAX);
        assert_eq!(batch.records.len(), hot_rows);
        black_box(batch);
    });
    run.set("streams.scan_hot_ns_per_row", hot / hot_rows as f64, 9);
    if cold_rows == 0 {
        // Nothing archived at this depth: the archive scan costs what the
        // window scan costs.
        run.set("streams.scan_cold_ns_per_row", hot / hot_rows as f64, 9);
        return;
    }
    let cold = ns_per_call(9, 64, || {
        i = (i + 1) % topics;
        let batch = broker.scan_batch_by_time(&names[i], 0, seam_ms);
        assert_eq!(batch.records.len(), cold_rows);
        black_box(batch);
    });
    run.set("streams.scan_cold_ns_per_row", cold / cold_rows as f64, 9);
}

// ------------------------------------------------------------ streams.slab

fn slab(run: &mut Run) {
    // record(): timed in batches of 8 so two clock reads amortise.
    let file = ScratchFile::new("driver-record");
    let store = SlabStore::create(&file.0, fleet::slab_config(4, 4096)).expect("create slab");
    let series = store.series("bench").expect("series");
    let bytes = Record::measured(1_000_000, 42.5).encode();
    let mut id = 0u64;
    let mut samples: Vec<f64> = (0..45_000)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..8 {
                id += 1;
                assert!(series.record(StreamId::new(id, 0), &bytes));
            }
            t.elapsed().as_nanos() as f64 / 8.0
        })
        .skip(5_000)
        .collect();
    sort(&mut samples);
    run.set("streams.slab.record_p50_ns", quantile(&samples, 0.5), samples.len());
    run.set("streams.slab.record_p99_ns", quantile(&samples, 0.99), samples.len());
    drop(series);
    drop(store);

    // One lifecycle tick at the workload's dirty volume: that many records
    // spread over the workload's series, then consolidate and flush.
    let n = run.pop.topics;
    let per_series = (run.pop.dirty_per_tick / n).max(1);
    let file = ScratchFile::new("driver-lifecycle");
    let store =
        SlabStore::create(&file.0, fleet::slab_config(n, run.pop.slab_slots)).expect("create slab");
    let all: Vec<_> = (0..n).map(|i| store.series(&topic(i)).expect("series")).collect();
    let (mut consolidate, mut flush) = (Vec::new(), Vec::new());
    let mut ms = 0u64;
    for _ in 0..6 {
        for _ in 0..per_series {
            ms += run.pop.publish_every_ms;
            for s in &all {
                s.record(StreamId::new(ms, 0), &bytes);
            }
        }
        let t = Instant::now();
        black_box(store.consolidate());
        consolidate.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        store.flush().expect("flush slab");
        flush.push(t.elapsed().as_secs_f64() * 1e3);
    }
    // The first tick also pays for first-touch page faults; skip it.
    run.set("streams.slab.consolidate_ms", fast(&consolidate[1..]), 5);
    run.set("streams.slab.flush_ms", fast(&flush[1..]), 5);
}

// ------------------------------------------------------------ core.insight

fn insight(run: &mut Run) {
    let pop = run.pop;
    let vertices = 16usize;
    let registry = Registry::new();
    let broker = Arc::new(Broker::new(StreamConfig::unbounded()));
    broker.instrument(&registry);
    let inputs: Vec<Vec<String>> =
        (0..vertices).map(|j| (0..pop.fanin).map(|k| topic(j * pop.fanin + k)).collect()).collect();
    let pumps: Vec<InsightVertex> = inputs
        .iter()
        .enumerate()
        .map(|(j, ins)| {
            let expected = ins.clone();
            let v = InsightVertex::new(
                format!("drv/sum/{j}"),
                ins.clone(),
                Box::new(move |i: &InsightInputs| i.all_present(&expected).then(|| i.sum())),
                Arc::clone(&broker),
            );
            v.instrument(&registry);
            v
        })
        .collect();
    let rounds = 60;
    let consumed = (vertices * pop.fanin * pop.per_input) as f64;
    let (mut busy, mut idle) = (Vec::new(), Vec::new());
    let mut ms = 0u64;
    for _ in 0..rounds {
        for _ in 0..pop.per_input {
            ms += pop.publish_every_ms;
            for name in inputs.iter().flatten() {
                broker.publish(name, ms, payload(ms, ms as f64));
            }
        }
        let t = Instant::now();
        for v in &pumps {
            black_box(v.pump(ms * 1_000_000));
        }
        busy.push(t.elapsed().as_nanos() as f64 / consumed);
        let t = Instant::now();
        for v in &pumps {
            black_box(v.pump(ms * 1_000_000));
        }
        idle.push(t.elapsed().as_nanos() as f64 / vertices as f64);
    }
    run.set("core.insight.pump_ns_per_input", fast(&busy[4..]), rounds - 4);
    run.set("core.insight.idle_pump_ns", fast(&idle[4..]), rounds - 4);
}

// ------------------------------------------------------------------ delphi

/// A fleet of `n` facts at 1 s, enrolled in a 100 ms pump or not.
fn pump_fleet(n: usize, enrolled: bool) -> FleetSpec {
    FleetSpec {
        facts: n,
        fact_every: Duration::from_secs(1),
        insights: 0,
        fanin: 0,
        insight_every: Duration::ZERO,
        window: None,
        slots: 0,
        pump_every: enrolled.then_some(Duration::from_millis(100)),
        observed: true,
    }
}

fn delphi(run: &mut Run) {
    let t = Instant::now();
    let model = fleet::train_model();
    run.set("delphi.train_s", t.elapsed().as_secs_f64(), 1);

    // Kernel cost per row at the pump's batch size.
    let batch = run.pop.pump_batch.next_multiple_of(model.lane_width());
    let window = model.window();
    let mut rng = Rng::new(run.seed);
    let mut scratch = DelphiScratch::default();
    let mut out = Vec::new();
    let rows: Vec<Vec<f64>> =
        (0..batch).map(|_| (0..window).map(|_| rng.unit()).collect()).collect();
    let ns = ns_per_call(9, (20_000 / batch).max(4), || {
        scratch.begin_batch(batch, window);
        for (i, row) in rows.iter().enumerate() {
            scratch.set_row(i, row);
        }
        model.predict_batch_into(&mut scratch, &mut out);
        black_box(&out);
    });
    run.set("delphi.row_ns", ns / batch as f64, 9);

    // In situ: the same fleet with and without enrolment. The difference,
    // per predicted record, is what prediction costs at the pump.
    let n = run.pop.pump_batch;
    let virtual_s = (100_000 / (n * 10)).clamp(4, 60) as u64;
    let mut walls: [Vec<f64>; 2] = Default::default();
    let mut allocs_per_tick = 0.0;
    let mut predicted = 0u64;
    for _ in 0..3 {
        for (k, enrolled) in [false, true].into_iter().enumerate() {
            let mut f = fleet::build(&pump_fleet(n, enrolled), run.seed);
            // Past the five observations a window needs before predicting.
            f.apollo.run_for(Duration::from_secs(6));
            let before = f.apollo.stats().facts_published;
            let t = Instant::now();
            f.apollo.run_for(Duration::from_secs(virtual_s));
            walls[k].push(t.elapsed().as_secs_f64());
            if enrolled {
                predicted = f.apollo.stats().facts_published - before - n as u64 * virtual_s;
                // Nine pump ticks and no poll: allocations per tick.
                let a = crate::alloc::thread_allocs();
                f.apollo.run_for(Duration::from_millis(950));
                allocs_per_tick = (crate::alloc::thread_allocs() - a) as f64 / 9.0;
            }
        }
    }
    let extra_s = (least(&walls[1]) - least(&walls[0])).max(0.0);
    run.set("core.predict.record_ns", extra_s * 1e9 / predicted.max(1) as f64, walls[1].len());
    run.set("delphi.allocs_per_tick", allocs_per_tick, 1);
}

// ------------------------------------------------------------------- query

fn query(run: &mut Run) {
    let pop = run.pop;
    let names: Vec<String> = (0..qmix::TOPICS).map(qmix::topic_name).collect();
    let (broker, _store, _file) = slab_broker(qmix::TOPICS, pop.window, pop.rows_per_topic + 4_096);
    let mut rng = Rng::new(run.seed);
    let sines: Vec<Sine> =
        (0..qmix::TOPICS).map(|_| Sine::seeded(&mut rng, Duration::from_secs(30))).collect();
    let every = pop.publish_every_ms;
    let mut logs: Vec<Vec<(u64, f64)>> = vec![Vec::new(); qmix::TOPICS];
    let mut now_ms = 0u64;
    let append = |now_ms: &mut u64, logs: &mut Vec<Vec<(u64, f64)>>| {
        *now_ms += every;
        for (i, name) in names.iter().enumerate() {
            let v = sines[i].value_at(*now_ms * 1_000_000);
            broker.publish(name, *now_ms, Record::measured(*now_ms * 1_000_000, v).encode());
            logs[i].push((*now_ms, v));
        }
    };
    for _ in 0..pop.rows_per_topic {
        append(&mut now_ms, &mut logs);
    }

    let cache = ScanCache::new();
    let registry = Registry::new();
    let provider = CachedBroker::new(&broker, &cache);
    let engine = QueryEngine::with_metrics(&provider, &registry);
    let list = qmix::plan(run.seed, 2_400);
    let mut digest = Digest::new();
    let mut rows_scanned = 0usize;
    // One pass per kind over the same list, appending at the workload's
    // cadence, so each kind sees the invalidation pattern of the mix.
    for kind in Kind::ALL {
        let mut us = Vec::new();
        for (i, q) in list.iter().enumerate() {
            if i % qmix::STEP_EVERY == 0 {
                append(&mut now_ms, &mut logs);
            }
            if q.kind != kind {
                continue;
            }
            let sql = q.sql(now_ms);
            let t = Instant::now();
            let result = engine.execute_sql(&sql);
            us.push(t.elapsed().as_nanos() as f64 / 1e3);
            match result
                .map_err(|e| e.to_string())
                .and_then(|r| q.verify(&r, &logs, now_ms, &mut digest))
            {
                Ok(rows) => rows_scanned += rows,
                Err(e) => run.out.check(false, || format!("query driver: {sql}: {e}")),
            }
        }
        run.set(kind.metric(), fast(&us), us.len());
    }
    // `query_mix` overwrites these two with the figures of its real run.
    run.set("query.rows_scanned_per_query", rows_scanned as f64 / list.len() as f64, list.len());
    let lookups = cache.hits() + cache.misses() + cache.planner_fresh();
    run.set("query.cache_hit_ratio", cache.hits() as f64 / lookups.max(1) as f64, lookups as usize);

    let sqls: Vec<String> = list.iter().map(|q| q.sql(now_ms)).collect();
    let mut i = 0;
    let parse_ns = ns_per_call(9, sqls.len(), || {
        i = (i + 1) % sqls.len();
        black_box(apollo_query::parse(&sqls[i]).expect("generated SQL parses"));
    });
    run.set("query.parse_ns", parse_ns, 9);

    // Scan cache: a warm hit, and the rescan after an append invalidates.
    provider.range(&names[0], 0, u64::MAX);
    let hit_ns = ns_per_call(9, 2_000, || {
        black_box(provider.range(&names[0], 0, u64::MAX));
    });
    run.set("query.hit_ns", hit_ns, 9);
    let miss: Vec<f64> = (0..40)
        .map(|_| {
            append(&mut now_ms, &mut logs);
            let t = Instant::now();
            black_box(provider.range(&names[0], 0, u64::MAX));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    run.set("query.miss_us", fast(&miss), miss.len());

    // The same SQL through a spawned service's handle and through the
    // service itself, appending every fourth query as the mix does.
    let apollo = Apollo::new_real();
    let service_broker = apollo.broker();
    let mut ms = 0u64;
    let add = |ms: &mut u64| {
        *ms += every;
        service_broker.publish(
            "drv/hs",
            *ms,
            Record::measured(*ms * 1_000_000, *ms as f64).encode(),
        );
    };
    for _ in 0..pop.rows_per_topic.min(20_000) {
        add(&mut ms);
    }
    let sql = "SELECT AVG(metric) FROM drv/hs";
    let timed = |f: &dyn Fn() -> bool, ms: &mut u64| -> f64 {
        let us: Vec<f64> = (0..400)
            .map(|i| {
                if i % qmix::STEP_EVERY == 0 {
                    add(ms);
                }
                let t = Instant::now();
                assert!(f(), "{sql} failed");
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        fast(&us)
    };
    let service_us = timed(&|| apollo.query(sql).is_ok(), &mut ms);
    let handle = apollo.spawn();
    let handle_us = timed(&|| handle.query(sql).is_ok(), &mut ms);
    drop(handle.stop());
    run.set("query.handle_vs_service_ratio", handle_us / service_us, 400);
}

fn continuous(run: &mut Run) {
    let mut rng = Rng::new(run.seed);
    let mut apollo = Apollo::new_virtual();
    apollo
        .register_fact(FactVertexSpec::fixed(
            "drv/cq/in",
            Arc::new(Sine::seeded(&mut rng, Duration::from_secs(1))),
            Duration::from_secs(3600),
        ))
        .expect("register fact");
    let broker = apollo.broker();
    let sql = "SELECT AVG(metric) FROM drv/cq/in";
    let mut ms = 0u64;
    broker.publish("drv/cq/in", 1, Record::measured(1_000_000, 1.0).encode());
    let cv = apollo
        .register_continuous("drv/cq/out", sql, Duration::from_secs(3600))
        .expect("register continuous query");
    let per_fold = run.pop.per_input.max(1) as u64;
    let (mut fold, mut serve) = (Vec::new(), Vec::new());
    for _ in 0..400 {
        for _ in 0..per_fold {
            ms += run.pop.publish_every_ms;
            broker.publish("drv/cq/in", ms, Record::measured(ms * 1_000_000, ms as f64).encode());
        }
        let t = Instant::now();
        black_box(cv.pump(ms));
        fold.push(t.elapsed().as_nanos() as f64 / per_fold as f64);
        let t = Instant::now();
        black_box(apollo.query(sql).expect("standing result"));
        serve.push(t.elapsed().as_nanos() as f64);
    }
    run.out.check(cv.caught_up(), || "continuous driver: fold never caught up".into());
    run.set("query.continuous.fold_ns_per_record", fast(&fold), fold.len());
    run.set("query.incremental_serve_ns", fast(&serve), serve.len());
}

// --------------------------------------------------------------------- obs

fn obs(run: &mut Run) {
    // Replay the workload's fleet with and without an enabled registry.
    let spec = run.pop.fleet.clone();
    let per_virtual_s = spec.facts as f64
        * (1.0 / spec.fact_every.as_secs_f64()
            + spec.pump_every.map_or(0.0, |every| 1.0 / every.as_secs_f64()));
    let span = Duration::from_secs_f64((80_000.0 / per_virtual_s).max(0.5));
    let mut walls: [Vec<f64>; 2] = Default::default();
    let mut snapshot = Vec::new();
    for _ in 0..3 {
        for (k, observed) in [false, true].into_iter().enumerate() {
            let mut f = fleet::build(&FleetSpec { observed, ..spec.clone() }, run.seed);
            f.apollo.run_for(span / 4);
            let t = Instant::now();
            f.apollo.run_for(span);
            walls[k].push(t.elapsed().as_secs_f64());
            if observed {
                let t = Instant::now();
                black_box(f.apollo.metrics_snapshot());
                snapshot.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
        }
    }
    let (noop, observed) = (least(&walls[0]), least(&walls[1]));
    run.set("obs.overhead_pct", (observed - noop) / noop * 100.0, walls[1].len());
    run.set("obs.snapshot_us", fast(&snapshot), snapshot.len());
}
