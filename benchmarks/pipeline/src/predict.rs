//! `predict_fleet` — virtual clock, batch, one thread.
//!
//! 1024 facts polled every second, all enrolled in one prediction pump at
//! 100 ms, so about nine of ten records are Delphi predictions published
//! through `Broker::publish_batch`. One unit drives 60 virtual seconds.
//! `core::predict`, `delphi` and the batch publish do the work and the
//! hook a tenth of the records; windows never evict, so the slab is
//! absent. `ingest_drain` is its no-change control for a Delphi or pump
//! change.

use crate::batch::{self, Unit};
use crate::drivers::{self, Population};
use crate::fleet::{self, Fleet, FleetSpec};
use crate::model::Budget;
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::util::{Digest, Rng};
use crate::Ctx;
use apollo_delphi::predictor::OnlinePredictor;
use apollo_streams::Provenance;
use std::time::{Duration, Instant};

const FACTS: usize = 1024;
const VIRTUAL_S: u64 = 60;
const FACT_EVERY: Duration = Duration::from_secs(1);
const PUMP_EVERY: Duration = Duration::from_millis(100);
const SEEDED_TOPICS: usize = 16;

pub fn spec() -> FleetSpec {
    FleetSpec {
        facts: FACTS,
        fact_every: FACT_EVERY,
        insights: 0,
        fanin: 0,
        insight_every: Duration::ZERO,
        window: None,
        slots: 0,
        pump_every: Some(PUMP_EVERY),
        observed: true,
    }
}

fn unit(seed: u64, tracer: &mut Tracer) -> Unit {
    let t_setup = Instant::now();
    let Fleet { mut apollo, sources, fact_names, model, .. } = fleet::build(&spec(), seed);
    let setup_s = t_setup.elapsed().as_secs_f64();
    let model = model.expect("predict_fleet trains a model");

    let t_run = Instant::now();
    let root = tracer.record("predict_fleet.unit", 0, 0, t_run, t_run);
    let record_steps_s = batch::timed_steps(&mut apollo, VIRTUAL_S, tracer, root);

    let mut errors = Vec::new();
    let mut digest = Digest::new();
    let stats = apollo.stats();
    let expect_hooks = FACTS as u64 * VIRTUAL_S;
    if stats.hook_calls != expect_hooks {
        errors.push(format!("hooks {} (expected {expect_hooks})", stats.hook_calls));
    }
    // Every vertex has the same cadence, so the records split evenly.
    let per_topic = stats.facts_published / FACTS as u64;
    if stats.facts_published % FACTS as u64 != 0 || per_topic <= VIRTUAL_S {
        errors.push(format!("{} records do not split over {FACTS} topics", stats.facts_published));
    }
    digest.push(stats.hook_calls);
    digest.push(stats.facts_published);

    // Verification sweep: hot-window full scans, one per topic.
    let (query_us, failed) =
        batch::count_sweep(&apollo, &fact_names, per_topic, tracer, root, &mut errors);

    // Seeded vertices: replay measured rows through an `OnlinePredictor`
    // over the same model; every predicted row must sit within 5 % of the
    // signal's span of the replayed prediction.
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
        let tolerance = 5e-2 * 2.0 * sources[i].amp;
        let mut replay = OnlinePredictor::new(model.clone());
        let mut worst = 0.0f64;
        let mut predicted = 0u64;
        for row in &rows {
            digest.push(row.value.to_bits());
            match row.provenance {
                Some(Provenance::Predicted) => {
                    predicted += 1;
                    match replay.predict_and_advance() {
                        Some(want) => worst = worst.max((row.value - want).abs()),
                        None => worst = f64::INFINITY,
                    }
                }
                _ => replay.observe(row.value),
            }
        }
        if worst > tolerance || predicted == 0 {
            errors.push(format!(
                "{}: {predicted} predicted rows, worst deviation {worst} from the replay \
                 (tolerance {tolerance})",
                fact_names[i]
            ));
        }
    }

    Unit {
        setup_s,
        records: stats.facts_published,
        record_steps_s,
        query_us,
        digest,
        suppressed_ratio: stats.suppression_ratio(),
        attempted: stats.facts_published + FACTS as u64,
        failed,
        errors,
    }
}

pub fn population() -> Population {
    Population {
        timers: vec![(FACT_EVERY, FACTS), (PUMP_EVERY, 1)],
        publish_every_ms: 100,
        topics: FACTS,
        window: 256,
        rows_per_topic: 600,
        fanin: 16,
        per_input: 5,
        pump_batch: FACTS,
        dirty_per_tick: FACTS,
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
    let costs = drivers::run_all(&population(), ctx.seed, &mut tracer, &mut out);

    let polls = (FACTS as u64 * VIRTUAL_S) as f64;
    let records = units[0].records as f64;
    let predicted = records - polls;
    let ticks = (VIRTUAL_S * 10) as f64;
    let mut budget = Budget::new(&costs);
    budget.add("runtime.fire_ns", polls + ticks);
    budget.add("core.hook.poll_ns", polls);
    budget.add("core.predict.record_ns", predicted);
    budget.part("delphi.row_ns", predicted);
    budget.part("streams.publish_batch_ns", predicted);
    let wall = batch::undisturbed_record_wall_s(&units);
    budget.finish(
        &mut out,
        wall,
        "nothing by construction: core.predict.record_ns is the difference of two whole runs, so the residual is the sandbox changing speed between them and this one",
    );
    crate::finish_trace(ctx, &tracer, &out);
    out
}
