//! The layer model: per-call layer cost (from the layer drivers) times the
//! workload's exact call counts should add up to the measured figure.
//! `model.residual_pct` says by how much it does not.

use crate::report::Outcome;
use std::collections::BTreeMap;

pub struct Budget<'a> {
    costs: &'a BTreeMap<&'static str, f64>,
    /// `(layer metric, calls, seconds)`.
    lines: Vec<(String, f64, f64)>,
    /// Same shape, printed but not summed.
    parts: Vec<(String, f64, f64)>,
}

impl<'a> Budget<'a> {
    pub fn new(costs: &'a BTreeMap<&'static str, f64>) -> Self {
        Self { costs, lines: Vec::new(), parts: Vec::new() }
    }

    fn cost(&self, name: &str) -> f64 {
        *self.costs.get(name).unwrap_or_else(|| panic!("no layer cost measured for {name}"))
    }

    /// `calls` calls at the nanosecond cost of layer metric `name`.
    pub fn add(&mut self, name: &str, calls: f64) {
        let s = calls * self.cost(name) / 1e9;
        self.lines.push((name.to_string(), calls, s));
    }

    /// `calls` calls at the cost by which `name` exceeds `base`.
    pub fn add_diff(&mut self, name: &str, base: &str, calls: f64) {
        let s = calls * (self.cost(name) - self.cost(base)).max(0.0) / 1e9;
        self.lines.push((format!("{name} - {base}"), calls, s));
    }

    /// Print-only: what `calls` calls of `name` cost *inside* a line
    /// already added (a differential line that contains this layer).
    pub fn part(&mut self, name: &str, calls: f64) {
        let s = calls * self.cost(name) / 1e9;
        self.parts.push((name.to_string(), calls, s));
    }

    /// `calls` calls at the microsecond cost of `name`.
    pub fn add_us(&mut self, name: &str, calls: f64) {
        let s = calls * self.cost(name) / 1e6;
        self.lines.push((name.to_string(), calls, s));
    }

    /// `calls` calls at the millisecond cost of `name`.
    pub fn add_ms(&mut self, name: &str, calls: f64) {
        let s = calls * self.cost(name) / 1e3;
        self.lines.push((name.to_string(), calls, s));
    }

    /// Print the budget table, set `model.residual_pct` against
    /// `measured_s`, and name the cost the model leaves out.
    pub fn finish(self, out: &mut Outcome, measured_s: f64, unmodelled: &str) {
        let total: f64 = self.lines.iter().map(|l| l.2).sum();
        println!("layer budget (calls x per-call cost) against {measured_s:.4} s measured:");
        for (name, calls, s) in &self.lines {
            println!(
                "  {name:<52} {calls:>12.0} calls {s:>9.4} s {:>5.1} %",
                s / measured_s * 100.0
            );
        }
        for (name, calls, s) in &self.parts {
            println!(
                "    of which {name:<43} {calls:>12.0} calls {s:>9.4} s {:>5.1} %",
                s / measured_s * 100.0
            );
        }
        let residual = (total - measured_s).abs() / measured_s * 100.0;
        println!("  {:<52} {:>12} {total:>15.4} s", "sum of budgets", "");
        out.set("model.residual_pct", residual, self.lines.len());
        out.notes.push(format!(
            "model: budgets sum to {total:.4} s of {measured_s:.4} s measured \
             (residual {residual:.1} %); not modelled: {unmodelled}"
        ));
    }
}
