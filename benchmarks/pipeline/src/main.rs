//! `pipeline` — the freshness / throughput / query benchmark for Apollo.
//!
//! It measures Apollo from outside: it owns the metric sources, the
//! insight builder closures, the reader and the clocks, and times calls
//! into public functions only. See `README.md` for the definitions.
//!
//! ```text
//! pipeline --workload W --seed N --seconds S --trace 0|1   one run (what BENCHMARK.json invokes)
//! pipeline run [--seed N] [--workload W] [--reps 3] [--seconds S]
//! pipeline trace [--seed N] [--workload W] [--seconds S]
//! pipeline repeat-check [--seed N] [--reps 3] [--seconds S]
//! pipeline list [--json]
//! ```

mod alloc;
mod batch;
mod drivers;
mod fleet;
mod ingest;
mod live;
mod metrics;
mod model;
mod orchestrate;
mod predict;
mod qmix;
mod report;
mod sources;
mod trace;
mod util;

use std::process::ExitCode;

/// One run's arguments.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// `--name value` pairs after the optional subcommand.
pub struct Args(Vec<String>);

impl Args {
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0.iter().position(|a| a == name).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v:?}")),
        }
    }
}

/// Write the traced run's spans and per-layer table to `out/trace-<workload>.json`.
pub fn finish_trace(ctx: &Ctx, tracer: &trace::Tracer, out: &report::Outcome) {
    let mut layers = serde_json::Map::new();
    for (name, v) in &out.values {
        layers.insert((*name).to_string(), serde_json::Value::from(v.value));
    }
    let doc = tracer.to_json(&ctx.workload, &serde_json::Value::Object(layers));
    let path = util::out_dir().join(format!("trace-{}.json", ctx.workload));
    let text = serde_json::to_string_pretty(&doc).expect("trace serialises");
    match std::fs::write(&path, text) {
        Ok(()) => println!(
            "spans: {} kept, {} dropped -> {}",
            tracer.spans.len(),
            tracer.dropped,
            path.display()
        ),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// One run of one workload in this process; the last stdout line is the
/// result object.
fn run_one(args: &Args) -> Result<ExitCode, String> {
    let ctx = Ctx {
        workload: args.get("--workload").ok_or("--workload is required")?.to_string(),
        seed: args.parsed("--seed", metrics::DEFAULT_SEED)?,
        seconds: args.parsed("--seconds", metrics::RUN_SECONDS as f64)?,
        trace: args.parsed::<u8>("--trace", 0)? != 0,
    };
    if !(ctx.seconds.is_finite() && ctx.seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {}", ctx.seconds));
    }
    let mut out = match ctx.workload.as_str() {
        metrics::LIVE => live::run(&ctx),
        metrics::INGEST => ingest::run(&ctx),
        metrics::QMIX => qmix::run(&ctx),
        metrics::PREDICT => predict::run(&ctx),
        other => return Err(format!("unknown workload {other:?}; see `pipeline list`")),
    };
    out.print(&ctx.workload, ctx.trace);
    Ok(if out.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn list(args: &Args) {
    if args.has("--json") {
        let doc = serde_json::to_string_pretty(&metrics::benchmark_json()).expect("serialises");
        println!("{doc}");
        return;
    }
    println!("seeds: default {}, held out {}", metrics::DEFAULT_SEED, metrics::HELD_OUT_SEED);
    println!("run length: {} s per run\n\nworkloads:", metrics::RUN_SECONDS);
    for w in metrics::WORKLOADS {
        println!("  {:<14} {}", w.name, w.why);
    }
    println!("\nend-to-end metrics (bound = allowed worsening of the median):");
    for m in metrics::END_TO_END {
        let on = if m.everywhere() { "all".to_string() } else { m.on.join(",") };
        println!(
            "  {:<22} {:<5} {:<6} bound {:>4.0} %  on {:<11} {}",
            m.name,
            m.unit,
            m.better,
            m.bound * 100.0,
            on,
            m.note
        );
    }
    println!("\nper-layer metrics (-> the end-to-end metric each should move):");
    for m in metrics::PER_LAYER {
        let on = if m.everywhere() { "all".to_string() } else { m.on.join(",") };
        println!("  {:<36} {:<6} {:<6} on {:<11} -> {}", m.name, m.unit, m.better, on, m.note);
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first() {
        Some(first) if !first.starts_with("--") => argv.remove(0),
        _ => String::new(),
    };
    let args = Args(argv);
    let result = match command.as_str() {
        "" => run_one(&args),
        "run" => orchestrate::run(&args),
        "trace" => orchestrate::trace(&args),
        "repeat-check" => orchestrate::repeat_check(&args),
        "list" => {
            list(&args);
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}: run | trace | repeat-check | list")),
    };
    result.unwrap_or_else(|e| {
        eprintln!("pipeline: {e}");
        ExitCode::from(2)
    })
}
