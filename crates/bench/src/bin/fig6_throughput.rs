//! Figure 6 — SCoRe publish/subscribe throughput.
//!
//! (a) Publish throughput scaling client threads 1→40 (events are 17 B
//!     encoded records, one queue). Paper shape: rises to a peak around 16
//!     threads, then degrades under contention. Past the 65 536-row window
//!     the queue evicts into its archive ring, which holds records only.
//! (b) Subscribe throughput scaling subscriber "nodes" 1→32 (40 threads
//!     each in the paper; each node here is a subscriber draining the
//!     topic). Paper shape: scales without significant slowdown.
//!
//! Run: `cargo run --release -p apollo-bench --bin fig6_throughput`

use apollo_bench::report::{Report, Series};
use apollo_obs::Registry;
use apollo_streams::codec::RECORD_WIRE_SIZE;
use apollo_streams::{Broker, Record, StreamConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const EVENT_BYTES: usize = RECORD_WIRE_SIZE;

fn main() {
    publish_scaling();
    subscribe_scaling();
}

fn publish_scaling() {
    let mut report =
        Report::new("fig6a", "publish throughput vs client threads (17 B record events)");
    let mut series = Series::new("events_per_sec");
    let events_per_thread = 50_000u64;
    // One registry across all thread counts: the saved metrics are the
    // whole experiment's publish accounting.
    let registry = Registry::new();
    let mut archived = 0;

    for threads in [1u32, 2, 4, 8, 16, 24, 32, 40] {
        let broker = Arc::new(Broker::new(StreamConfig::bounded(65_536)));
        broker.instrument(&registry);
        let payload = Record::measured(0, 0.0).encode();
        let start = Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let broker = Arc::clone(&broker);
                let payload = payload.clone();
                s.spawn(move || {
                    for i in 0..events_per_thread {
                        broker.publish(
                            "queue",
                            u64::from(t) * events_per_thread + i,
                            payload.clone(),
                        );
                    }
                });
            }
        });
        let elapsed = start.elapsed().as_secs_f64();
        let total = u64::from(threads) * events_per_thread;
        let rate = total as f64 / elapsed;
        println!("publish  threads={threads:>2}  {rate:>12.0} events/s");
        series.push(f64::from(threads), rate);
        archived = broker.topic_info("queue").map_or(0, |info| info.archived_len);
    }
    report.add_series(series);
    report.note("event_bytes", EVENT_BYTES as u64);
    report.note("archived_at_max_threads", archived as u64);
    report.note("paper_peak", "≈70K events/s at 16 threads, degrading beyond");
    report.attach_metrics(&registry.snapshot());
    report.finish("client threads", "events/s");
}

fn subscribe_scaling() {
    let mut report = Report::new("fig6b", "subscribe throughput vs subscriber count");
    let mut series = Series::new("delivered_events_per_sec");
    let events = 16_000u64;
    let registry = Registry::new();

    for nodes in [1u32, 2, 4, 8, 16, 32] {
        let broker = Arc::new(Broker::new(StreamConfig::bounded(65_536)));
        broker.instrument(&registry);
        let delivered = Arc::new(AtomicU64::new(0));
        let start = Instant::now();
        std::thread::scope(|s| {
            // Subscribers first, so they see every event.
            let subs: Vec<_> = (0..nodes).map(|_| broker.subscribe("queue")).collect();
            for sub in subs {
                let delivered = Arc::clone(&delivered);
                s.spawn(move || {
                    let mut got = 0u64;
                    while got < events {
                        if let Some(_e) = sub.recv_timeout(std::time::Duration::from_secs(10)) {
                            got += 1;
                        } else {
                            break;
                        }
                    }
                    delivered.fetch_add(got, Ordering::Relaxed);
                });
            }
            let broker = Arc::clone(&broker);
            s.spawn(move || {
                let payload = Record::measured(0, 0.0).encode();
                for i in 0..events {
                    broker.publish("queue", i, payload.clone());
                }
            });
        });
        let elapsed = start.elapsed().as_secs_f64();
        let rate = delivered.load(Ordering::Relaxed) as f64 / elapsed;
        println!("subscribe nodes={nodes:>2}  {rate:>12.0} deliveries/s");
        series.push(f64::from(nodes), rate);
    }
    report.add_series(series);
    report.note("events_published", events);
    report.note("paper_shape", "scales to 32 nodes without significant slowdown");
    report.attach_metrics(&registry.snapshot());
    report.finish("subscriber nodes", "deliveries/s");
}
