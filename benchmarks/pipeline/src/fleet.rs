//! Builds a virtual-clock Apollo fleet from a shape and a seed. Shared by
//! `ingest_drain`, `predict_fleet` and the whole-service layer drivers
//! (`obs.overhead_pct`, `core.predict.record_ns`) that replay a
//! workload's population with one thing switched off.

use crate::sources::Sine;
use crate::util::{Rng, ScratchFile};
use apollo_core::service::{Apollo, FactVertexSpec, InsightVertexSpec};
use apollo_delphi::stack::{Delphi, DelphiConfig};
use apollo_obs::Registry;
use apollo_runtime::event_loop::EventLoop;
use apollo_streams::{SlabConfig, SlabStore, SpillBackend, StreamConfig, TierConfig};
use std::sync::Arc;
use std::time::Duration;

#[derive(Clone)]
pub struct FleetSpec {
    pub facts: usize,
    pub fact_every: Duration,
    /// `sum_of` insights, each over the next `fanin` facts.
    pub insights: usize,
    pub fanin: usize,
    pub insight_every: Duration,
    /// Bound every window at this many entries and spill evictions into a
    /// slab (no lifecycle timers: only `live_fleet` attaches those);
    /// `None` keeps the default stream config.
    pub window: Option<usize>,
    /// Slab ring slots per series (must hold a unit's evictions).
    pub slots: u32,
    /// Enrol every fact in one prediction pump at this cadence.
    pub pump_every: Option<Duration>,
    /// Enabled metrics registry, or `Registry::noop()`.
    pub observed: bool,
}

pub struct Fleet {
    pub apollo: Apollo,
    pub sources: Vec<Arc<Sine>>,
    pub fact_names: Vec<String>,
    pub insight_names: Vec<String>,
    pub store: Option<Arc<SlabStore>>,
    pub model: Option<Delphi>,
    // Declared last: the mapping is dropped before its file is removed.
    _file: Option<ScratchFile>,
}

/// The small Delphi stack every pump in the benchmark serves: trained
/// from `DelphiConfig`'s own fixed seed, so the model does not vary with
/// the workload seed, at the precision `Delphi::train` ships.
pub fn train_model() -> Delphi {
    Delphi::train(DelphiConfig {
        feature_samples: 300,
        feature_epochs: 50,
        combiner_samples: 150,
        combiner_epochs: 10,
        ..DelphiConfig::default()
    })
}

/// Slab geometry for `topics` topics of `slots` slots each. A topic takes
/// two series (its stream and its dead-letter stream); two short tiers
/// keep the sparse file small without changing the per-record path.
pub fn slab_config(topics: usize, slots: u32) -> SlabConfig {
    SlabConfig {
        max_series: (2 * topics + 16) as u32,
        slots,
        tiers: vec![TierConfig::new(1_000, 128), TierConfig::new(10_000, 32)],
        ..SlabConfig::default()
    }
}

pub fn slab_streams(window: usize, store: &Arc<SlabStore>) -> StreamConfig {
    StreamConfig {
        max_len: Some(window),
        archive_evicted: true,
        spill: SpillBackend::slab(Arc::clone(store)),
    }
}

pub fn build(spec: &FleetSpec, seed: u64) -> Fleet {
    let mut rng = Rng::new(seed);
    let registry = if spec.observed { Registry::new() } else { Registry::noop() };
    let (streams, store, file) = match spec.window {
        Some(window) => {
            let file = ScratchFile::new("fleet");
            let cfg = slab_config(spec.facts + spec.insights, spec.slots);
            let store = SlabStore::create(&file.0, cfg).expect("create slab");
            (slab_streams(window, &store), Some(store), Some(file))
        }
        None => (StreamConfig::default(), None, None),
    };
    let mut apollo = Apollo::with_registry(EventLoop::new_virtual(), streams, registry);
    let (model, pump) = match spec.pump_every {
        Some(every) => {
            let model = train_model();
            let pump = apollo.prediction_pump(model.clone(), every);
            (Some(model), Some(pump))
        }
        None => (None, None),
    };
    let period = spec.fact_every * 200;
    let mut sources = Vec::with_capacity(spec.facts);
    let mut fact_names = Vec::with_capacity(spec.facts);
    for i in 0..spec.facts {
        let name = format!("fleet/fact/{i:04}");
        let source = Arc::new(Sine::seeded(&mut rng, period));
        let mut fact =
            FactVertexSpec::fixed(name.clone(), source.clone(), spec.fact_every).publish_always();
        if let Some(pump) = &pump {
            fact = fact.with_batched_prediction(pump);
        }
        apollo.register_fact(fact).expect("register fact");
        sources.push(source);
        fact_names.push(name);
    }
    let mut insight_names = Vec::with_capacity(spec.insights);
    for j in 0..spec.insights {
        let name = format!("fleet/sum/{j:03}");
        let inputs = (0..spec.fanin).map(|k| fact_names[(j * spec.fanin + k) % spec.facts].clone());
        apollo
            .register_insight(InsightVertexSpec::sum_of(
                name.clone(),
                inputs.collect(),
                spec.insight_every,
            ))
            .expect("register insight");
        insight_names.push(name);
    }
    Fleet { apollo, sources, fact_names, insight_names, store, model, _file: file }
}
