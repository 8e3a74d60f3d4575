//! What one run of one workload produced, and how it is printed.

use crate::metrics;
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;

/// One measured value with the number of samples behind it.
#[derive(Clone, Copy)]
pub struct Measured {
    pub value: f64,
    pub samples: usize,
}

/// Result of one run: metric values, operation accounting, failed checks.
#[derive(Default)]
pub struct Outcome {
    pub values: BTreeMap<&'static str, Measured>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Free-form remarks printed with the metrics (percentile actually
    /// supported, unmodelled costs, …).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(metrics::lookup(name).is_some(), "unknown metric {name}");
        self.values.insert(name, Measured { value, samples });
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.errors.len() < 20 {
            self.errors.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Print every metric as `name unit value`, then the one-line JSON
    /// result the driver reads. A metric the run should report but did not
    /// measure is a failed check, not a silent gap.
    pub fn print(&mut self, workload: &str, traced: bool) {
        let mut out = Map::new();
        for m in metrics::reported(workload, traced) {
            match self.values.get(m.name) {
                Some(v) if v.value.is_finite() => {
                    println!("{:<36} {:<6} {:<18} n={}", m.name, m.unit, v.value, v.samples);
                    if m.everywhere() {
                        out.insert(m.name.to_string(), json!({"value": v.value, "unit": m.unit}));
                    }
                }
                _ => self.errors.push(format!("metric {} was not measured", m.name)),
            }
        }
        println!("{:<36} {:<6} {}", "ops", "count", self.attempted);
        println!("{:<36} {:<6} {}", "failed", "count", self.failed);
        for n in &self.notes {
            println!("note: {n}");
        }
        for e in &self.errors {
            println!("CHECK FAILED: {e}");
        }
        let line = json!({
            "correct": self.correct(),
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": Value::Object(out),
        });
        println!("{line}");
    }
}
