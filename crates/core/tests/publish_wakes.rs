//! Lost-wake teeth for push-driven steps of a spawned real-clock service.
//! A thread outside the service loop feeds one parked step one input at a
//! time, and sends the next as soon as the step has landed the last — often
//! while that run is still in progress:
//!
//! * records published into a fact topic, relayed by an insight;
//! * writes to a device, drained by an event fact the device wakes.
//!
//! Nothing else feeds the step, so a lost wake (one that lands mid-run and
//! is dropped, or lands on a parked timer and arms nothing) leaves it
//! parked for good, and the wait for the input times out.
//!
//! A wake from outside the loop is served at the loop's next turn; a
//! 1 ms fact the step does not read keeps the loop turning.

use apollo_cluster::device::{Device, DeviceSpec, EventMetric};
use apollo_cluster::metrics::ConstSource;
use apollo_core::service::{Apollo, FactVertexSpec, InsightVertexSpec};
use apollo_core::vertex::InsightInputs;
use apollo_streams::Record;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const RECORDS: u64 = 1_000;
/// How long one record may take to reach the insight. A lost wake never
/// gets there; a loaded host gets there in milliseconds.
const BOUND: Duration = Duration::from_secs(5);

/// A real-clock service whose loop a 1 ms fact keeps turning.
fn turning_service() -> Apollo {
    let mut apollo = Apollo::new_real();
    let tick = Arc::new(ConstSource::new("tick", 1.0));
    let every_ms = Duration::from_millis(1);
    apollo.register_fact(FactVertexSpec::fixed("tick", tick, every_ms).publish_always()).unwrap();
    apollo
}

#[test]
fn every_outside_publish_reaches_a_parked_insight() {
    let mut apollo = turning_service();
    let never = Duration::from_secs(3600);
    let source = Arc::new(ConstSource::new("outside", 0.0));
    apollo.register_fact(FactVertexSpec::fixed("outside", source, never)).unwrap();
    let seen = Arc::new(AtomicU64::new(0));
    let relayed = Arc::clone(&seen);
    let relay = move |i: &InsightInputs| {
        let v = i.value("outside")?;
        relayed.store(v as u64, Ordering::Release);
        Some(v)
    };
    let cadence = Duration::from_micros(200);
    let spec = InsightVertexSpec::new("relay", vec!["outside".into()], cadence, relay);
    apollo.register_insight(spec).unwrap();
    let handle = apollo.spawn();
    let broker = handle.broker();

    let epoch = Instant::now();
    let mut worst = Duration::ZERO;
    for seq in 1..=RECORDS {
        let now_ns = epoch.elapsed().as_nanos() as u64;
        let sent = Instant::now();
        let record = Record::measured(now_ns, seq as f64);
        broker.publish("outside", now_ns / 1_000_000, record);
        while seen.load(Ordering::Acquire) < seq {
            assert!(sent.elapsed() < BOUND, "record {seq} never reached the insight: a lost wake");
            std::thread::yield_now();
        }
        worst = worst.max(sent.elapsed());
    }
    let apollo = handle.stop();
    assert_eq!(apollo.insights()[0].recomputes(), RECORDS);
    eprintln!("{RECORDS} outside publishes relayed; slowest {worst:?}");
}

#[test]
fn every_outside_write_reaches_a_parked_event_fact() {
    let mut apollo = turning_service();
    let device = Device::new("nvme0", DeviceSpec::nvme_250g());
    apollo.register_events("used", &device, EventMetric::UsedCapacity).unwrap();
    let handle = apollo.spawn();
    let broker = handle.broker();
    let landed = || broker.latest("used").map_or(0.0, |e| e.record.value);

    let epoch = Instant::now();
    let mut worst = Duration::ZERO;
    for seq in 1..=RECORDS {
        let sent = Instant::now();
        device.write(epoch.elapsed().as_nanos() as u64, 1).unwrap();
        while landed() < seq as f64 {
            assert!(sent.elapsed() < BOUND, "write {seq} never landed: a lost wake");
            std::thread::yield_now();
        }
        worst = worst.max(sent.elapsed());
    }
    handle.stop();
    eprintln!("{RECORDS} outside writes landed; slowest {worst:?}");
}
