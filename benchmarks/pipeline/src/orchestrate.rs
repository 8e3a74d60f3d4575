//! `run`, `trace` and `repeat-check`: repetitions in fresh child
//! processes of this same executable, interleaved across workloads, with
//! the median repetition reported.

use crate::metrics;
use crate::util::{iqr_share, median, out_dir};
use crate::Args;
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// What one child run printed.
struct Child {
    ok: bool,
    attempted: u64,
    failed: u64,
    /// Every `name unit value` line, universal or not.
    values: BTreeMap<String, f64>,
    stdout: String,
}

fn spawn(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let mut values = BTreeMap::new();
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        if let (Some(name), Some(_unit), Some(value)) = (words.next(), words.next(), words.next()) {
            if let (Some(_), Ok(v)) = (metrics::lookup(name), value.parse::<f64>()) {
                values.insert(name.to_string(), v);
            }
        }
    }
    let last = stdout.lines().last().unwrap_or_default();
    let result = serde_json::from_str(last).unwrap_or(Value::Null);
    Ok(Child {
        ok: output.status.success() && result["correct"] == true,
        attempted: result["attempted"].as_u64().unwrap_or(0),
        failed: result["failed"].as_u64().unwrap_or(0),
        values,
        stdout,
    })
}

fn selected(args: &Args) -> Result<Vec<&'static str>, String> {
    match args.get("--workload") {
        None => Ok(metrics::WORKLOADS.iter().map(|w| w.name).collect()),
        Some(name) => metrics::WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .map(|w| vec![w.name])
            .ok_or_else(|| format!("unknown workload {name:?}")),
    }
}

/// Per workload, per metric: one value per repetition.
type Set = BTreeMap<&'static str, BTreeMap<String, Vec<f64>>>;

struct SetResult {
    values: Set,
    ops: BTreeMap<&'static str, (u64, u64)>,
    all_ok: bool,
}

/// `reps` untraced repetitions of each workload, interleaved so slow
/// drift of the machine lands on every workload alike.
fn run_set(
    workloads: &[&'static str],
    seed: u64,
    seconds: f64,
    reps: usize,
) -> Result<SetResult, String> {
    let mut set = SetResult { values: Set::new(), ops: BTreeMap::new(), all_ok: true };
    for rep in 0..reps {
        for &w in workloads {
            eprintln!("[{}/{reps}] {w} seed {seed} ...", rep + 1);
            let child = spawn(w, seed, seconds, false)?;
            if !child.ok {
                set.all_ok = false;
                eprintln!("{w}: run failed its checks:\n{}", child.stdout);
            }
            let ops = set.ops.entry(w).or_default();
            ops.0 += child.attempted;
            ops.1 += child.failed;
            for (name, v) in child.values {
                set.values.entry(w).or_default().entry(name).or_default().push(v);
            }
        }
    }
    Ok(set)
}

fn summary(set: &SetResult, seed: u64, seconds: f64, reps: usize) -> Value {
    let mut workloads = Map::new();
    for (w, by_metric) in &set.values {
        let mut ms = Map::new();
        for m in metrics::reported(w, false) {
            let Some(values) = by_metric.get(m.name) else { continue };
            println!(
                "{w:<14} {:<22} {:<5} {:<18} spread {:>5.1} %  n={}",
                m.name,
                m.unit,
                median(values),
                iqr_share(values) * 100.0,
                values.len()
            );
            ms.insert(
                m.name.to_string(),
                json!({"value": median(values), "unit": m.unit, "spread": iqr_share(values), "bound": m.bound}),
            );
        }
        let (ops, failed) = set.ops.get(w).copied().unwrap_or_default();
        println!("{w:<14} {:<22} {:<5} {ops}", "ops", "count");
        println!("{w:<14} {:<22} {:<5} {failed}", "failed", "count");
        ms.insert("ops".into(), Value::from(ops));
        ms.insert("failed".into(), Value::from(failed));
        workloads.insert((*w).to_string(), Value::Object(ms));
    }
    json!({
        "seed": seed,
        "run_seconds": seconds,
        "repetitions": reps,
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "correct": set.all_ok,
        "workloads": Value::Object(workloads),
        "claim": Value::Null,
    })
}

struct Common {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    reps: usize,
}

fn common(args: &Args) -> Result<Common, String> {
    Ok(Common {
        workloads: selected(args)?,
        seed: args.parsed("--seed", metrics::DEFAULT_SEED)?,
        seconds: args.parsed("--seconds", metrics::RUN_SECONDS as f64)?,
        reps: args.parsed("--reps", 3usize)?.max(1),
    })
}

pub fn run(args: &Args) -> Result<ExitCode, String> {
    let c = common(args)?;
    let set = run_set(&c.workloads, c.seed, c.seconds, c.reps)?;
    let doc = summary(&set, c.seed, c.seconds, c.reps);
    println!("{}", serde_json::to_string_pretty(&doc).expect("summary serialises"));
    Ok(if set.all_ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

pub fn trace(args: &Args) -> Result<ExitCode, String> {
    let c = common(args)?;
    let mut all_ok = true;
    let mut merged = Vec::new();
    for &w in &c.workloads {
        eprintln!("tracing {w} seed {} ...", c.seed);
        let child = spawn(w, c.seed, c.seconds, true)?;
        println!("== {w} (traced) ==\n{}", child.stdout);
        all_ok &= child.ok;
        let path = out_dir().join(format!("trace-{w}.json"));
        match std::fs::read_to_string(&path).ok().and_then(|t| serde_json::from_str(&t).ok()) {
            Some(doc) => merged.push(doc),
            None => eprintln!("no trace file at {}", path.display()),
        }
    }
    let path = out_dir().join("trace.json");
    let text = serde_json::to_string_pretty(&Value::Array(merged)).expect("trace serialises");
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("spans and per-layer tables of every workload: {}", path.display());
    Ok(if all_ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Two full sets of runs of the same build must agree within each
/// metric's bound.
pub fn repeat_check(args: &Args) -> Result<ExitCode, String> {
    let c = common(args)?;
    let a = run_set(&c.workloads, c.seed, c.seconds, c.reps)?;
    let b = run_set(&c.workloads, c.seed, c.seconds, c.reps)?;
    let mut agree = a.all_ok && b.all_ok;
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>8} {:>7} {:>8}",
        "workload", "metric", "first", "second", "differ", "bound", "spread"
    );
    for &w in &c.workloads {
        for m in metrics::reported(w, false) {
            let (Some(va), Some(vb)) = (
                a.values.get(w).and_then(|x| x.get(m.name)),
                b.values.get(w).and_then(|x| x.get(m.name)),
            ) else {
                agree = false;
                println!("{w:<14} {:<22} missing from a set", m.name);
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let differ = (mb - ma).abs() / ma.abs().max(f64::MIN_POSITIVE);
            let both: Vec<f64> = va.iter().chain(vb).copied().collect();
            let ok = differ <= m.bound;
            agree &= ok;
            println!(
                "{w:<14} {:<22} {ma:>14.4} {mb:>14.4} {:>7.1}% {:>6.0}% {:>7.1}% {}",
                m.name,
                differ * 100.0,
                m.bound * 100.0,
                iqr_share(&both) * 100.0,
                if ok { "" } else { "DISAGREE" }
            );
        }
    }
    println!("{}", json!({"repeat_check": agree, "seed": c.seed, "claim": Value::Null}));
    Ok(if agree { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
