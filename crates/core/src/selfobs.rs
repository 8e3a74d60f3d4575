//! Self-SCoRe: Apollo observing itself.
//!
//! Apollo is "a storage resource observer"; this module turns the
//! observer on its own internals. [`deploy_self_observer`] registers a
//! small set of Fact vertices whose monitor hooks read the service's own
//! state — broker memory, total stream depth, fleet poll-latency p99,
//! quarantined-vertex count, publish volume, fleet-wide quarantine
//! recoveries, registered continuous queries — so the health of the
//! monitoring layer is queryable through the AQE exactly like any
//! monitored cluster resource:
//!
//! ```text
//! SELECT MAX(Timestamp), metric FROM apollo/self/broker_memory_bytes
//! ```
//!
//! The hooks are ordinary [`MetricSource`]s, so they inherit the whole
//! vertex stack for free: change filtering (a flat memory curve publishes
//! once), adaptive intervals, supervision, provenance.

use crate::graph::GraphError;
use crate::service::{Apollo, FactVertexSpec};
use crate::vertex::FactVertex;
use apollo_cluster::metrics::{MetricError, MetricSource};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Topic names published by [`deploy_self_observer`], in registration
/// order.
pub const SELF_TOPICS: [&str; 7] = [
    "apollo/self/broker_memory_bytes",
    "apollo/self/stream_entries",
    "apollo/self/poll_p99_ns",
    "apollo/self/quarantined_vertices",
    "apollo/self/facts_published",
    "apollo/self/quarantine_recoveries",
    "apollo/self/continuous_queries",
];

/// Topic names published by [`deploy_slab_observer`], in registration
/// order. Separate from [`SELF_TOPICS`] because they only exist when a
/// durable slab store is attached ([`Apollo::attach_slab`]).
pub const SLAB_SELF_TOPICS: [&str; 3] = [
    "apollo/self/slab_occupancy",
    "apollo/self/slab_consolidation_lag",
    "apollo/self/slab_pressure",
];

/// A monitor hook over a closure reading an Apollo internal.
struct SelfMetricSource {
    name: &'static str,
    read: Box<dyn Fn() -> f64 + Send + Sync>,
    samples: AtomicU64,
}

impl SelfMetricSource {
    fn new(name: &'static str, read: impl Fn() -> f64 + Send + Sync + 'static) -> Arc<Self> {
        Arc::new(Self { name, read: Box::new(read), samples: AtomicU64::new(0) })
    }
}

impl MetricSource for SelfMetricSource {
    fn sample(&self, _now_ns: u64) -> Result<f64, MetricError> {
        self.samples.fetch_add(1, Ordering::Relaxed);
        Ok((self.read)())
    }

    /// Reading our own atomics is orders of magnitude cheaper than a
    /// syscall-backed hook.
    fn sample_cost(&self) -> Duration {
        Duration::from_micros(5)
    }

    fn name(&self) -> String {
        self.name.to_string()
    }

    fn samples_taken(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }
}

/// Register the [`SELF_TOPICS`] fact vertices on `apollo`, each polling
/// every `every`. Returns the vertex handles in [`SELF_TOPICS`] order.
///
/// The quarantine and publish-volume hooks observe the fact vertices
/// registered *before* this call (the monitored fleet); the self-observer
/// vertices do not observe themselves, so the readings cannot feed back.
pub fn deploy_self_observer(
    apollo: &mut Apollo,
    every: Duration,
) -> Result<Vec<Arc<FactVertex>>, GraphError> {
    let fleet: Vec<Arc<FactVertex>> = apollo.facts().to_vec();
    let broker = apollo.broker();
    let poll_hist = apollo.metrics().histogram("score.poll_ns");
    let recoveries = apollo.metrics().counter("health.quarantine_recoveries");

    let continuous_cell = apollo.continuous_registered_cell();
    let sources: [Arc<SelfMetricSource>; 7] = [
        SelfMetricSource::new(SELF_TOPICS[0], {
            let broker = Arc::clone(&broker);
            move || broker.approx_memory_bytes() as f64
        }),
        SelfMetricSource::new(SELF_TOPICS[1], {
            let broker = Arc::clone(&broker);
            move || broker.topic_names().iter().map(|t| broker.topic_len(t)).sum::<usize>() as f64
        }),
        SelfMetricSource::new(SELF_TOPICS[2], move || poll_hist.quantile(0.99) as f64),
        SelfMetricSource::new(SELF_TOPICS[3], {
            let fleet = fleet.clone();
            move || {
                fleet
                    .iter()
                    .filter(|f| f.health() == crate::health::HealthState::Quarantined)
                    .count() as f64
            }
        }),
        SelfMetricSource::new(SELF_TOPICS[4], {
            let fleet = fleet.clone();
            move || fleet.iter().map(|f| f.published()).sum::<u64>() as f64
        }),
        SelfMetricSource::new(SELF_TOPICS[5], move || recoveries.get() as f64),
        SelfMetricSource::new(SELF_TOPICS[6], move || {
            continuous_cell.load(Ordering::Relaxed) as f64
        }),
    ];

    let mut vertices = Vec::with_capacity(sources.len());
    for source in sources {
        let name = source.name();
        vertices.push(apollo.register_fact(FactVertexSpec::fixed(
            name,
            source as Arc<dyn MetricSource>,
            every,
        ))?);
    }
    Ok(vertices)
}

/// Register the [`SLAB_SELF_TOPICS`] fact vertices on `apollo`, each
/// polling every `every`: ring occupancy (0..=1), consolidation lag
/// (committed entries the tier roll-ups have not folded yet), and
/// directory/ring pressure (worst-case fill fraction across the series
/// directory and rings — 1.0 means new demand will be refused) of the
/// attached slab store. Returns `None` — registering
/// nothing — when no slab is attached, so callers can deploy
/// unconditionally.
pub fn deploy_slab_observer(
    apollo: &mut Apollo,
    every: Duration,
) -> Result<Option<Vec<Arc<FactVertex>>>, GraphError> {
    let Some(store) = apollo.slab().map(Arc::clone) else {
        return Ok(None);
    };
    let sources: [Arc<SelfMetricSource>; 3] = [
        SelfMetricSource::new(SLAB_SELF_TOPICS[0], {
            let store = Arc::clone(&store);
            move || store.stats().occupancy
        }),
        SelfMetricSource::new(SLAB_SELF_TOPICS[1], {
            let store = Arc::clone(&store);
            move || store.stats().consolidation_lag as f64
        }),
        SelfMetricSource::new(SLAB_SELF_TOPICS[2], move || store.stats().pressure()),
    ];
    let mut vertices = Vec::with_capacity(sources.len());
    for source in sources {
        let name = source.name();
        vertices.push(apollo.register_fact(FactVertexSpec::fixed(
            name,
            source as Arc<dyn MetricSource>,
            every,
        ))?);
    }
    Ok(Some(vertices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apollo_cluster::metrics::ConstSource;

    #[test]
    fn self_observer_topics_are_queryable() {
        let mut apollo = Apollo::new_virtual();
        apollo
            .register_fact(FactVertexSpec::fixed(
                "cap",
                Arc::new(ConstSource::new("c", 9.0)),
                Duration::from_secs(1),
            ))
            .unwrap();
        let vertices = deploy_self_observer(&mut apollo, Duration::from_secs(5)).unwrap();
        assert_eq!(vertices.len(), SELF_TOPICS.len());
        apollo.run_for(Duration::from_secs(30));
        for topic in SELF_TOPICS {
            let out = apollo
                .query(&format!("SELECT MAX(Timestamp), metric FROM {topic}"))
                .unwrap_or_else(|e| panic!("{topic}: {e}"));
            assert_eq!(out.rows.len(), 1, "{topic}");
        }
        let mem =
            apollo.query("SELECT MAX(Timestamp), metric FROM apollo/self/broker_memory_bytes");
        assert!(mem.unwrap().rows[0].value > 0.0);
        let published =
            apollo.query("SELECT MAX(Timestamp), metric FROM apollo/self/facts_published");
        assert_eq!(published.unwrap().rows[0].value, 1.0, "const metric published once");
        let p99 = apollo.query("SELECT MAX(Timestamp), metric FROM apollo/self/poll_p99_ns");
        assert!(p99.unwrap().rows[0].value > 0.0, "instrumented polls feed score.poll_ns");
    }

    #[test]
    fn slab_observer_is_a_noop_without_an_attached_store() {
        let mut apollo = Apollo::new_virtual();
        assert!(deploy_slab_observer(&mut apollo, Duration::from_secs(1)).unwrap().is_none());
        assert!(apollo.facts().is_empty());
    }

    #[test]
    fn slab_observer_topics_track_the_attached_store() {
        use apollo_streams::{SlabConfig, SlabStore, SpillBackend, StreamConfig};
        let dir = std::env::temp_dir().join(format!("apollo-selfobs-slab-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("self.slab");
        let _ = std::fs::remove_file(&path);
        let store = SlabStore::create(&path, SlabConfig::default()).unwrap();
        let mut apollo = Apollo::with_config(
            apollo_runtime::event_loop::EventLoop::new_virtual(),
            StreamConfig {
                spill: SpillBackend::slab(Arc::clone(&store)),
                ..StreamConfig::default()
            },
        );
        apollo.attach_slab(Arc::clone(&store), Duration::from_secs(5));
        apollo
            .register_fact(FactVertexSpec::fixed(
                "cap",
                Arc::new(ConstSource::new("c", 9.0)),
                Duration::from_secs(1),
            ))
            .unwrap();
        let vertices = deploy_slab_observer(&mut apollo, Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(vertices.len(), SLAB_SELF_TOPICS.len());
        apollo.run_for(Duration::from_secs(30));
        for topic in SLAB_SELF_TOPICS {
            let out = apollo
                .query(&format!("SELECT MAX(Timestamp), metric FROM {topic}"))
                .unwrap_or_else(|e| panic!("{topic}: {e}"));
            assert_eq!(out.rows.len(), 1, "{topic}");
        }
        let snap = apollo.metrics_snapshot();
        assert!(snap.gauges.contains_key("streams.slab.series"), "{snap:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn self_observer_does_not_observe_itself() {
        let mut apollo = Apollo::new_virtual();
        deploy_self_observer(&mut apollo, Duration::from_secs(1)).unwrap();
        apollo.run_for(Duration::from_secs(10));
        // No fleet registered before deployment: publish volume stays 0.
        let out =
            apollo.query("SELECT MAX(Timestamp), metric FROM apollo/self/facts_published").unwrap();
        assert_eq!(out.rows[0].value, 0.0);
    }

    #[test]
    fn continuous_query_count_is_self_observable() {
        let mut apollo = Apollo::new_virtual();
        apollo
            .register_fact(FactVertexSpec::fixed(
                "cap",
                Arc::new(ConstSource::new("c", 9.0)),
                Duration::from_secs(1),
            ))
            .unwrap();
        apollo
            .register_continuous("cq/avg", "SELECT AVG(metric) FROM cap", Duration::from_secs(1))
            .unwrap();
        deploy_self_observer(&mut apollo, Duration::from_secs(1)).unwrap();
        apollo.run_for(Duration::from_secs(5));
        let out = apollo
            .query("SELECT MAX(Timestamp), metric FROM apollo/self/continuous_queries")
            .unwrap();
        assert_eq!(out.rows[0].value, 1.0);
    }
}
