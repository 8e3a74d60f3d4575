//! The one bench gate: evaluates the rows of `bench_gates.md` (grammar
//! documented there) against `bench_results/<report>.json`, prints
//! measurement vs target per row and exits non-zero on a miss.
//!
//! Run: `cargo run --release -p apollo-bench --bin gate -- [report…]`
//! (no report named = every row).

use apollo_bench::report::results_dir;
use serde_json::Value;
use std::collections::BTreeMap;

/// One criterion row of the gate table.
struct Gate<'a> {
    report: &'a str,
    measurement: &'a str,
    cmp: &'a str,
    target: &'a str,
    reason: &'a str,
}

/// The criterion rows of a markdown pipe table (header and rule skipped).
fn parse_table(text: &str) -> Vec<Gate<'_>> {
    fn row(line: &str) -> Option<Gate<'_>> {
        let cells: Vec<&str> = line.trim().strip_prefix('|')?.split('|').map(str::trim).collect();
        match cells[..] {
            [report, measurement, cmp, target, reason, ..]
                if report != "report" && !report.starts_with('-') =>
            {
                let measurement = measurement.trim_matches('`');
                Some(Gate { report, measurement, cmp, target, reason })
            }
            _ => None,
        }
    }
    text.lines().filter_map(row).collect()
}

/// Follow a `/`-separated path from the report root: object keys, array
/// indices, and — in the `series` array — a series name for its points.
fn resolve<'a>(root: &'a Value, path: &str) -> Result<&'a Value, String> {
    let mut at = root;
    for seg in path.split('/') {
        let next = match at {
            Value::Object(map) => map.get(seg),
            Value::Array(items) => match seg.parse::<usize>() {
                Ok(i) => items.get(i),
                Err(_) => items.iter().find(|s| s["name"] == seg).map(|s| &s["points"]),
            },
            _ => None,
        };
        at = next.ok_or_else(|| format!("no `{seg}` in `{path}`"))?;
    }
    Ok(at)
}

/// A number, or the `y` of every `[x, y]` point.
fn numbers(root: &Value, path: &str) -> Result<Vec<f64>, String> {
    let bad = || format!("`{path}` is not a number or a points array");
    match resolve(root, path)? {
        Value::Number(n) => Ok(vec![*n]),
        Value::Array(points) => points.iter().map(|p| p[1].as_f64().ok_or_else(bad)).collect(),
        _ => Err(bad()),
    }
}

enum Measured {
    Numbers(Vec<f64>),
    Text(String),
}

fn measure(root: &Value, expr: &str) -> Result<Measured, String> {
    if let Some(path) = expr.strip_prefix("len ") {
        let len = match path.strip_suffix('*').map(|p| p.rsplit_once('/').unwrap_or(("", p))) {
            Some((parent, prefix)) => match resolve(root, parent)? {
                Value::Object(map) => map.keys().filter(|k| k.starts_with(prefix)).count(),
                _ => return Err(format!("`{parent}` is not an object")),
            },
            None => match resolve(root, path)? {
                Value::Array(items) => items.len(),
                Value::Object(map) => map.len(),
                _ => return Err(format!("`{path}` has no length")),
            },
        };
        return Ok(Measured::Numbers(vec![len as f64]));
    }
    if let Some((num, den)) = expr.split_once(" / ") {
        let (num, den) = (numbers(root, num)?, numbers(root, den)?);
        if num.len() != den.len() {
            return Err(format!("`{expr}`: {} values over {}", num.len(), den.len()));
        }
        return Ok(Measured::Numbers(num.iter().zip(&den).map(|(a, b)| a / b).collect()));
    }
    match resolve(root, expr)? {
        Value::String(s) => Ok(Measured::Text(s.clone())),
        _ => numbers(root, expr).map(Measured::Numbers),
    }
}

/// Whether the row holds, and the measurement to print: for a points
/// array the value furthest on the failing side of the comparator.
fn check(gate: &Gate<'_>, root: &Value) -> Result<(bool, String), String> {
    let values = match measure(root, gate.measurement)? {
        Measured::Text(s) if gate.cmp == "==" => return Ok((s == gate.target, s)),
        Measured::Text(s) => return Err(format!("`{}` on the string {s:?}", gate.cmp)),
        Measured::Numbers(v) => v,
    };
    let target: f64 =
        gate.target.parse().map_err(|_| format!("target `{}` is not a number", gate.target))?;
    let holds: fn(f64, f64) -> bool = match gate.cmp {
        ">=" => |v, t| v >= t,
        ">" => |v, t| v > t,
        "<=" => |v, t| v <= t,
        "<" => |v, t| v < t,
        "==" => |v, t| v == t,
        other => return Err(format!("unknown comparator `{other}`")),
    };
    let nearest = if gate.cmp.starts_with('<') { f64::max } else { f64::min };
    let failing = values.iter().copied().find(|&v| !holds(v, target));
    let shown = failing.or_else(|| values.iter().copied().reduce(nearest)).ok_or("no values")?;
    Ok((failing.is_none(), shown.to_string()))
}

/// Evaluate the rows of `reports` (all rows when empty), loading each
/// report with `load`; prints one line per row and returns the misses.
fn run(table: &str, reports: &[String], load: impl Fn(&str) -> Result<Value, String>) -> usize {
    let gates = parse_table(table);
    let mut loaded: BTreeMap<&str, Result<Value, String>> = BTreeMap::new();
    let mut misses = 0;
    for unknown in reports.iter().filter(|r| gates.iter().all(|g| g.report != *r)) {
        println!("MISS {unknown}: no row in the gate table names this report");
        misses += 1;
    }
    for gate in gates.iter().filter(|g| reports.is_empty() || reports.iter().any(|r| r == g.report))
    {
        let root = loaded.entry(gate.report).or_insert_with(|| load(gate.report));
        let outcome = root.as_ref().map_err(Clone::clone).and_then(|root| check(gate, root));
        let (status, shown) = match outcome {
            Ok((true, shown)) => ("ok  ", shown),
            Ok((false, shown)) => ("MISS", shown),
            Err(e) => ("MISS", e),
        };
        misses += usize::from(status == "MISS");
        println!(
            "{status} {:<17} {:<58} {shown:>22}  {:<2} {:<8}  {}",
            gate.report, gate.measurement, gate.cmp, gate.target, gate.reason
        );
    }
    misses
}

fn read_report(report: &str) -> Result<Value, String> {
    let path = results_dir().join(format!("{report}.json"));
    let raw = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&raw).map_err(|e| format!("{}: {e}", path.display()))
}

fn table_text() -> String {
    let path = results_dir().with_file_name("bench_gates.md");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn main() {
    let reports: Vec<String> = std::env::args().skip(1).collect();
    let misses = run(&table_text(), &reports, read_report);
    if misses > 0 {
        eprintln!("gate: {misses} criteria missed");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(_: &str) -> Result<Value, String> {
        let report = r#"{
            "notes": { "speedup": 2.5, "verdict": "pass", "kinds": ["a", "b", "c"], "p50": 4, "p99": 8 },
            "series": [
                { "name": "warm", "points": [[1, 10.0], [2, 30.0]] },
                { "name": "cold", "points": [[1, 10.0], [2, 40.0]] }
            ],
            "metrics": { "histograms": { "core.vertex.poll_ns": {}, "core.vertex.build_ns": {} } }
        }"#;
        serde_json::from_str(report).map_err(|e| e.to_string())
    }

    fn misses(rows: &str) -> usize {
        run(
            &format!(
                "| report | measurement | cmp | target | reason |\n|---|---|---|---|---|\n{rows}"
            ),
            &[],
            fixture,
        )
    }

    #[test]
    fn every_measurement_form_is_evaluated_against_its_target() {
        assert_eq!(
            misses(
                "| r | `notes/speedup` | >= | 2.0 | scalar |\n\
                 | r | `notes/verdict` | == | pass | string |\n\
                 | r | `len notes/kinds` | >= | 3 | array length |\n\
                 | r | `len metrics/histograms/core.vertex.*` | == | 2 | key prefix |\n\
                 | r | `notes/p50 / notes/p99` | <= | 1 | scalar ratio |\n\
                 | r | `series/warm` | > | 0 | every point |\n\
                 | r | `series/cold/1/1` | == | 40 | indexed point |"
            ),
            0
        );
    }

    #[test]
    fn a_miss_an_unresolvable_key_and_an_unknown_report_all_fail() {
        assert_eq!(misses("| r | `notes/speedup` | >= | 3.0 | below target |"), 1);
        assert_eq!(misses("| r | `notes/verdict` | == | fail | wrong string |"), 1);
        // One point of two (30 / 40) is under the bar: the row misses.
        assert_eq!(misses("| r | `series/warm / series/cold` | >= | 1 | pointwise |"), 1);
        assert_eq!(misses("| r | `notes/absent` | >= | 0 | unresolvable |"), 1);
        assert_eq!(misses("| r | `notes/speedup` | ~ | 2 | bad comparator |"), 1);
        let table = "| r | `notes/speedup` | >= | 2.0 | scalar |";
        assert_eq!(run(table, &["typo".to_string()], fixture), 1);
    }

    /// The checked-in table holds over the checked-in reports.
    #[test]
    fn committed_table_passes_over_committed_reports() {
        assert_eq!(run(&table_text(), &[], read_report), 0);
    }
}
