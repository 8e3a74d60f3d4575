//! In-memory spans recorded by the benchmark's own code around its calls
//! into Apollo, written to `out/trace.json` when the traced run ends.

use serde_json::{json, Value};
use std::time::Instant;

/// One span. `parent` is the id of the span that caused it (0 = root);
/// `req` groups the spans of one request — a probe sequence number in
/// `live_fleet`, 0 elsewhere.
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept per name, so that a 100 000-query run still writes a
/// readable file.
const CAP_PER_NAME: usize = 4_000;

/// Span recorder. Disabled (the untraced run) it records nothing and its
/// methods cost one branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// Spans seen per name; beyond [`CAP_PER_NAME`] they count as `dropped`.
    counts: std::collections::HashMap<&'static str, usize>,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self::since(enabled, Instant::now())
    }

    /// A recorder whose span times count from `epoch`.
    pub fn since(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            counts: std::collections::HashMap::new(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Record a finished span; returns its id (0 when not kept).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        self.record_ns(name, parent, req, start_ns, end_ns)
    }

    /// [`Tracer::record`] for stamps already expressed relative to the epoch.
    pub fn record_ns(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let seen = self.counts.entry(name).or_insert(0);
        *seen += 1;
        if *seen > CAP_PER_NAME {
            self.dropped += 1;
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span { id, parent, req, name, start_ns, end_ns });
        id
    }

    /// Self time per span name: duration minus the part children cover.
    pub fn self_times_ns(&self) -> Vec<(&'static str, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64)> = Default::default();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own;
        }
        by_name.into_iter().map(|(n, (count, ns))| (n, count, ns)).collect()
    }

    pub fn to_json(&self, workload: &str, layers: &Value) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "id": s.id, "parent": s.parent, "req": s.req, "name": s.name,
                    "start_ns": s.start_ns, "end_ns": s.end_ns,
                })
            })
            .collect();
        let self_times: Vec<Value> = self
            .self_times_ns()
            .into_iter()
            .map(|(name, count, ns)| json!({"name": name, "spans": count, "self_ns": ns}))
            .collect();
        json!({
            "workload": workload,
            "spans": spans,
            "spans_dropped": self.dropped,
            "self_time": self_times,
            "per_layer": layers.clone(),
        })
    }
}
