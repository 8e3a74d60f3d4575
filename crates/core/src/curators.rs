//! Table-1 curations as SCoRe Insight vertices.
//!
//! `apollo_insights` computes the curations directly over cluster
//! state; this module packages the stream-computable ones as
//! [`InsightVertexSpec`]s, so they live *inside* the DAG — continuously
//! maintained, change-filtered, and queryable through the AQE like any
//! other vertex ("easy hooks to get this information", §3.3).
//!
//! Each builder takes the fact topics it consumes plus the static device
//! constants its formalization needs.

use crate::service::InsightVertexSpec;
use crate::vertex::InsightInputs;
use std::time::Duration;

/// Row 2 — Interference Factor: `RealBW / MaxBW` over a bandwidth fact.
pub fn interference_factor(
    name: impl Into<String>,
    real_bw_topic: String,
    max_bw: f64,
    cadence: Duration,
) -> InsightVertexSpec {
    let topic = real_bw_topic.clone();
    InsightVertexSpec::new(name, vec![real_bw_topic], cadence, move |i: &InsightInputs| {
        i.value(&topic).map(|bw| (bw / max_bw).clamp(0.0, 1.0))
    })
}

/// Row 1 — MSCA: `NumReqs/DevC × (MaxBW − RealBW)/MaxBW` over queue-depth
/// and bandwidth facts.
pub fn msca(
    name: impl Into<String>,
    queue_topic: String,
    real_bw_topic: String,
    devc: u32,
    max_bw: f64,
    cadence: Duration,
) -> InsightVertexSpec {
    let (qt, bt) = (queue_topic.clone(), real_bw_topic.clone());
    InsightVertexSpec::new(
        name,
        vec![queue_topic, real_bw_topic],
        cadence,
        move |i: &InsightInputs| {
            let q = i.value(&qt)?;
            let bw = i.value(&bt)?;
            let headroom = ((max_bw - bw) / max_bw).max(0.0);
            Some(q / f64::from(devc.max(1)) * headroom)
        },
    )
}

/// Row 10 — Tier Remaining Capacity: the sum of capacity facts (also
/// available as [`InsightVertexSpec::sum_of`]; provided here under its
/// Table-1 name).
pub fn tier_remaining_capacity(
    name: impl Into<String>,
    capacity_topics: Vec<String>,
    cadence: Duration,
) -> InsightVertexSpec {
    InsightVertexSpec::sum_of(name, capacity_topics, cadence)
}

/// Row 13 — Device Load: recent block rate over lifetime blocks, from a
/// bandwidth fact and a cumulative-blocks fact.
pub fn device_load(
    name: impl Into<String>,
    real_bw_topic: String,
    blocks_total_topic: String,
    cadence: Duration,
) -> InsightVertexSpec {
    let (bw_t, blk_t) = (real_bw_topic.clone(), blocks_total_topic.clone());
    InsightVertexSpec::new(
        name,
        vec![real_bw_topic, blocks_total_topic],
        cadence,
        move |i: &InsightInputs| {
            let bw = i.value(&bw_t)?;
            let lifetime = i.value(&blk_t)?;
            if lifetime <= 0.0 {
                return Some(0.0);
            }
            Some(bw / apollo_cluster::device::BLOCK_SIZE as f64 / lifetime)
        },
    )
}

/// Row 7 — Device Fault Tolerance: `ReplicationLevel × DeviceHealth`
/// over a health fact (see `apollo-insights` for the formalization
/// reading).
pub fn device_fault_tolerance(
    name: impl Into<String>,
    health_topic: String,
    replication_level: u32,
    cadence: Duration,
) -> InsightVertexSpec {
    let topic = health_topic.clone();
    InsightVertexSpec::new(name, vec![health_topic], cadence, move |i: &InsightInputs| {
        i.value(&topic).map(|h| f64::from(replication_level) * h)
    })
}

/// Rows 11/14 — Energy per Transfer: power fact over a transfers-rate
/// fact; infinite when idle (the decommissioning signal).
pub fn energy_per_transfer(
    name: impl Into<String>,
    power_topic: String,
    transfers_topic: String,
    window_s: f64,
    cadence: Duration,
) -> InsightVertexSpec {
    let (pt, tt) = (power_topic.clone(), transfers_topic.clone());
    InsightVertexSpec::new(
        name,
        vec![power_topic, transfers_topic],
        cadence,
        move |i: &InsightInputs| {
            let power = i.value(&pt)?;
            let transfers = i.value(&tt)?;
            let tps = transfers / window_s.max(1e-9);
            Some(if tps == 0.0 { f64::INFINITY } else { power / tps })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{Apollo, FactVertexSpec};
    use apollo_cluster::cluster::SimCluster;
    use apollo_cluster::device::DeviceKind;
    use apollo_cluster::metrics::{DeviceMetric, MetricKind};
    use std::sync::Arc;

    /// Deploy facts + the curated vertex over one busy NVMe, drive, query.
    fn harness(
        build: impl FnOnce(&str, &str, &apollo_cluster::device::Device) -> InsightVertexSpec,
    ) -> (Apollo, Arc<apollo_cluster::device::Device>) {
        let cluster = SimCluster::ares_scaled(1, 0);
        let device = cluster.tier(DeviceKind::Nvme)[0].clone();
        let mut apollo = Apollo::new_virtual();
        for (topic, kind) in [
            ("d/real_bw", MetricKind::RealBandwidth),
            ("d/queue", MetricKind::QueueDepth),
            ("d/health", MetricKind::DeviceHealth),
            ("d/transfers", MetricKind::Transfers),
            ("d/power", MetricKind::PowerDraw),
        ] {
            apollo
                .register_fact(
                    FactVertexSpec::fixed(
                        topic,
                        Arc::new(DeviceMetric::new(Arc::clone(&device), kind)),
                        Duration::from_secs(1),
                    )
                    .publish_always(),
                )
                .unwrap();
        }
        let spec = build("d/real_bw", "d/queue", &device);
        apollo.register_insight(spec).unwrap();
        (apollo, device)
    }

    #[test]
    fn interference_vertex_tracks_traffic() {
        let (mut apollo, device) = harness(|bw, _q, d| {
            interference_factor("insight", bw.into(), d.max_bw(), Duration::from_secs(1))
        });
        apollo.run_for(Duration::from_secs(2));
        let idle =
            apollo.query("SELECT MAX(Timestamp), metric FROM insight").unwrap().rows[0].value;
        assert_eq!(idle, 0.0);

        // Saturate the window right before the next poll; the burst
        // expires from the 1 s bandwidth window soon after, so check the
        // *peak* interference the insight recorded rather than the latest.
        for _ in 0..20 {
            device.write(apollo.now(), 200_000_000).unwrap();
        }
        apollo.run_for(Duration::from_secs(2));
        let busy = apollo.query("SELECT MAX(metric) FROM insight").unwrap().rows[0].value;
        assert!(busy > 0.0 && busy <= 1.0, "peak interference {busy}");
    }

    #[test]
    fn msca_vertex_matches_direct_formula() {
        let (mut apollo, device) = harness(|bw, q, d| {
            msca(
                "insight",
                q.into(),
                bw.into(),
                d.spec.concurrency,
                d.max_bw(),
                Duration::from_secs(1),
            )
        });
        apollo.run_for(Duration::from_secs(3));
        // Idle device: queue 0 => MSCA 0, exactly as the direct curator.
        let v = apollo.query("SELECT MAX(Timestamp), metric FROM insight").unwrap().rows[0].value;
        assert_eq!(v, apollo_insights::msca(&device, apollo.now()));
        assert_eq!(v, 0.0);
    }

    #[test]
    fn fault_tolerance_vertex_tracks_degradation() {
        let (mut apollo, device) = harness(|_bw, _q, _d| {
            device_fault_tolerance("insight", "d/health".into(), 3, Duration::from_secs(1))
        });
        apollo.run_for(Duration::from_secs(2));
        let healthy =
            apollo.query("SELECT MAX(Timestamp), metric FROM insight").unwrap().rows[0].value;
        assert_eq!(healthy, 3.0);
        device.degrade(device.spec.total_blocks() / 2);
        apollo.run_for(Duration::from_secs(2));
        let degraded =
            apollo.query("SELECT MAX(Timestamp), metric FROM insight").unwrap().rows[0].value;
        assert!((degraded - 1.5).abs() < 1e-6, "{degraded}");
    }

    #[test]
    fn energy_vertex_is_infinite_when_idle_then_finite() {
        let (mut apollo, device) = harness(|_bw, _q, _d| {
            energy_per_transfer(
                "insight",
                "d/power".into(),
                "d/transfers".into(),
                10.0,
                Duration::from_secs(1),
            )
        });
        apollo.run_for(Duration::from_secs(2));
        let idle =
            apollo.query("SELECT MAX(Timestamp), metric FROM insight").unwrap().rows[0].value;
        assert!(idle.is_infinite());
        device.write(apollo.now(), 1_000_000).unwrap();
        apollo.run_for(Duration::from_secs(2));
        let active =
            apollo.query("SELECT MAX(Timestamp), metric FROM insight").unwrap().rows[0].value;
        assert!(active.is_finite() && active > 0.0);
    }

    #[test]
    fn device_load_vertex_zero_without_history() {
        let (mut apollo, _device) = harness(|bw, _q, _d| {
            device_load("insight", bw.into(), "d/transfers".into(), Duration::from_secs(1))
        });
        apollo.run_for(Duration::from_secs(2));
        let v = apollo.query("SELECT MAX(Timestamp), metric FROM insight").unwrap().rows[0].value;
        assert_eq!(v, 0.0);
    }
}
