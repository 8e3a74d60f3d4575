//! `ingest_drain` — virtual clock, batch, one thread.
//!
//! 1024 facts at 100 ms (`publish_always`), 64 `sum_of`-16 insights at
//! 500 ms, windows bounded at 256 spilling into a slab (spill only: the
//! flush/consolidate lifecycle timers belong to `live_fleet`, where a
//! virtual clock does not fire them ten times a wall second). One unit
//! drives 40 virtual seconds: 409 600 hook calls, each a publish, 144 of
//! every topic's 400 records evicted into the slab. The timer wheel, the
//! hook and publish → evict → spill do nearly all the work; the query
//! engine only runs the verification sweep afterwards and Delphi is
//! absent.

use crate::batch::{self, Unit};
use crate::drivers::{self, Population};
use crate::fleet::{self, Fleet, FleetSpec};
use crate::model::Budget;
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::util::{Digest, Rng};
use crate::Ctx;
use std::time::{Duration, Instant};

const FACTS: usize = 1024;
const INSIGHTS: usize = 64;
const FANIN: usize = 16;
const WINDOW: usize = 256;
const VIRTUAL_S: u64 = 40;
const FACT_EVERY: Duration = Duration::from_millis(100);
const INSIGHT_EVERY: Duration = Duration::from_millis(500);
/// Topics whose every record is compared with the source function.
const SEEDED_TOPICS: usize = 16;

const ROWS_PER_FACT: u64 = VIRTUAL_S * 10;
const ROWS_PER_INSIGHT: u64 = VIRTUAL_S * 2;

pub fn spec() -> FleetSpec {
    FleetSpec {
        facts: FACTS,
        fact_every: FACT_EVERY,
        insights: INSIGHTS,
        fanin: FANIN,
        insight_every: INSIGHT_EVERY,
        window: Some(WINDOW),
        slots: 1024,
        pump_every: None,
        observed: true,
    }
}

fn unit(seed: u64, tracer: &mut Tracer) -> Unit {
    let t_setup = Instant::now();
    let Fleet { mut apollo, sources, fact_names, insight_names, store, .. } =
        fleet::build(&spec(), seed);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let t_run = Instant::now();
    let root = tracer.record("ingest_drain.unit", 0, 0, t_run, t_run);
    let record_steps_s = batch::timed_steps(&mut apollo, VIRTUAL_S, tracer, root);

    let mut errors = Vec::new();
    let mut digest = Digest::new();
    let stats = apollo.stats();
    let expect_hooks = FACTS as u64 * ROWS_PER_FACT;
    let expect_insights = INSIGHTS as u64 * ROWS_PER_INSIGHT;
    if stats.hook_calls != expect_hooks || stats.facts_published != expect_hooks {
        errors.push(format!(
            "hooks {} / facts published {} (expected {expect_hooks} each)",
            stats.hook_calls, stats.facts_published
        ));
    }
    if stats.insights_published != expect_insights {
        errors.push(format!(
            "insights published {} (expected {expect_insights})",
            stats.insights_published
        ));
    }
    let fallbacks = store.as_ref().map_or(0, |s| s.stats().series_fallbacks);
    if fallbacks != 0 {
        errors.push(format!("{fallbacks} streams fell back from the slab to a heap archive"));
    }
    digest.push(stats.hook_calls);
    digest.push(stats.insights_published);

    // Verification sweep: every topic's full span (window + slab) counted
    // exactly once. These 1024 cold scans are the workload's queries.
    let (query_us, failed) =
        batch::count_sweep(&apollo, &fact_names, ROWS_PER_FACT, tracer, root, &mut errors);

    // Seeded topics: every record, in order, equals the source function.
    let mut rng = Rng::new(seed ^ 0x5eed);
    for _ in 0..SEEDED_TOPICS {
        let i = rng.below(FACTS);
        let rows = match apollo.query(&format!("SELECT metric FROM {}", fact_names[i])) {
            Ok(r) => r.rows,
            Err(e) => {
                errors.push(format!("scan {}: {e}", fact_names[i]));
                continue;
            }
        };
        let ok = rows.len() as u64 == ROWS_PER_FACT
            && rows.iter().enumerate().all(|(k, row)| {
                let ms = (k as u64 + 1) * 100;
                row.timestamp_ms == ms && row.value == sources[i].value_at(ms * 1_000_000)
            });
        if !ok {
            errors.push(format!("{}: rows differ from the source function", fact_names[i]));
        }
        for row in &rows {
            digest.push(row.value.to_bits());
        }
    }
    // Insight sums equal the sum of their inputs' source functions.
    for (j, name) in insight_names.iter().enumerate() {
        let rows = apollo.query(&format!("SELECT metric FROM {name}")).map(|r| r.rows);
        let ok = rows.as_ref().is_ok_and(|rows| {
            rows.len() as u64 == ROWS_PER_INSIGHT
                && rows.iter().all(|row| {
                    let ns = row.timestamp_ms * 1_000_000;
                    let want: f64 = (0..FANIN).map(|k| sources[j * FANIN + k].value_at(ns)).sum();
                    (row.value - want).abs() <= 1e-9 * want.abs()
                })
        });
        if !ok {
            errors.push(format!("{name}: sums differ from the source functions"));
        }
    }

    let attempted = expect_hooks + query_us.len() as u64;
    Unit {
        setup_s,
        records: stats.facts_published + stats.insights_published,
        record_steps_s,
        query_us,
        digest,
        suppressed_ratio: stats.suppression_ratio(),
        attempted,
        failed,
        errors,
    }
}

pub fn population() -> Population {
    Population {
        timers: vec![(FACT_EVERY, FACTS), (INSIGHT_EVERY, INSIGHTS)],
        publish_every_ms: 100,
        topics: FACTS,
        window: WINDOW,
        rows_per_topic: ROWS_PER_FACT as usize,
        fanin: FANIN,
        per_input: 5,
        pump_batch: 64,
        dirty_per_tick: FACTS * 10,
        slab_slots: 1024,
        fleet: spec(),
    }
}

fn records_rate(units: &[Unit]) -> f64 {
    units[0].records as f64 / batch::undisturbed_record_wall_s(units)
}

pub fn run(ctx: &Ctx) -> Outcome {
    if !ctx.trace {
        return batch::run_untraced(ctx.seconds, |t| unit(ctx.seed, t));
    }
    let mut tracer = Tracer::new(true);
    let (mut out, units) =
        batch::run_traced(ctx.seconds / 2.0, &mut tracer, records_rate, |t| unit(ctx.seed, t));
    let pop = population();
    let costs = drivers::run_all(&pop, ctx.seed, &mut tracer, &mut out);

    // Layer model: per-call cost × this unit's exact call counts.
    let polls = FACTS as f64 * ROWS_PER_FACT as f64;
    let evicting = FACTS as f64 * (ROWS_PER_FACT as f64 - WINDOW as f64);
    let pumps = INSIGHTS as f64 * ROWS_PER_INSIGHT as f64;
    let mut budget = Budget::new(&costs);
    budget.add("runtime.fire_ns", polls + pumps);
    budget.add("core.hook.poll_ns", polls);
    budget.add_diff("streams.publish_evict_ns", "streams.publish_ns", evicting);
    budget.add("streams.fanout_ns", polls);
    budget.add("core.insight.pump_ns_per_input", polls);
    budget.add("streams.publish_ns", pumps);
    let wall = batch::undisturbed_record_wall_s(&units);
    budget.finish(&mut out, wall, "the timer callback around poll (clock read, set_interval)");
    crate::finish_trace(ctx, &tracer, &out);
    out
}
