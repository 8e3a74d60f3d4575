//! Lost-wakeup teeth for the subscriber queue's waiter-gated notifies.
//!
//! A queue notifies a side only when that side's parked count is
//! non-zero, so the count has to be exact at the moment the other side
//! holds the lock: bumped outside the lock, or a notify skipped while
//! someone is parked, and one of these hand-offs stalls until its
//! ten-second timeout and fails. No case sleeps; interleavings are forced
//! by a capacity-1 queue, where every second operation of either side has
//! to wait for the other.

use apollo_streams::{BackpressurePolicy, Broker, Entry, StreamConfig, SubscribeOptions};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Far beyond any scheduling delay: reaching it means a wake-up was lost.
const STALL: Duration = Duration::from_secs(10);

fn one_slot(policy: BackpressurePolicy) -> SubscribeOptions {
    SubscribeOptions { capacity: 1, policy }
}

fn seq(entry: &Entry) -> u32 {
    u32::from_le_bytes(entry.payload[..4].try_into().expect("four-byte payload"))
}

#[test]
fn a_capacity_one_block_queue_hands_every_entry_across_in_order() {
    const N: u32 = 100_000;
    let broker = Arc::new(Broker::new(StreamConfig::default()));
    let sub = broker.subscribe_with("t", one_slot(BackpressurePolicy::Block));
    let publisher = {
        let broker = Arc::clone(&broker);
        thread::spawn(move || {
            for i in 0..N {
                broker.publish("t", u64::from(i), i.to_le_bytes().to_vec());
            }
        })
    };
    let started = Instant::now();
    let mut received = 0;
    while received < N {
        match sub.recv_timeout(STALL) {
            Some(entry) if seq(&entry) == received && started.elapsed() < STALL => received += 1,
            other => {
                // Closing the queue releases a publisher parked on it, so a
                // failure reports instead of hanging the join below.
                drop(sub);
                publisher.join().expect("publisher thread");
                panic!("entry {received}: expected it in order and without a stall, got {other:?}");
            }
        }
    }
    publisher.join().expect("publisher thread");
    assert!(sub.try_recv().is_none(), "nothing published twice");
}

/// The publisher fills the one slot, says so, and publishes again: the
/// second publish parks until `take` makes room.
fn a_full_queue_releases_its_publisher(take: impl Fn(&apollo_streams::Subscription) -> Vec<Entry>) {
    const ROUNDS: u32 = 2_000;
    let broker = Arc::new(Broker::new(StreamConfig::default()));
    let sub = broker.subscribe_with("t", one_slot(BackpressurePolicy::Block));
    let (filled_tx, filled_rx) = mpsc::channel();
    let publisher = {
        let broker = Arc::clone(&broker);
        thread::spawn(move || {
            for round in 0..ROUNDS {
                broker.publish("t", 0, (2 * round).to_le_bytes().to_vec());
                filled_tx.send(()).expect("receiver alive");
                broker.publish("t", 0, (2 * round + 1).to_le_bytes().to_vec());
            }
        })
    };
    let mut next = 0;
    for _ in 0..ROUNDS {
        filled_rx.recv_timeout(STALL).expect("the publisher filled the slot");
        // Give the second publish time to park; the round must complete
        // whether or not it did.
        thread::yield_now();
        let deadline = Instant::now() + STALL;
        let end = next + 2;
        while next < end {
            assert!(Instant::now() < deadline, "publisher never released after entry {next}");
            for entry in take(&sub) {
                assert_eq!(seq(&entry), next);
                next += 1;
            }
        }
    }
    publisher.join().expect("publisher thread");
}

#[test]
fn try_recv_releases_a_publisher_parked_on_a_full_queue() {
    a_full_queue_releases_its_publisher(|sub| sub.try_recv().into_iter().collect());
}

#[test]
fn drain_releases_a_publisher_parked_on_a_full_queue() {
    a_full_queue_releases_its_publisher(|sub| sub.drain());
}

#[test]
fn a_waiting_receiver_observes_the_disconnect() {
    let broker = Arc::new(Broker::new(StreamConfig::default()));
    let sub = broker.subscribe_with("t", one_slot(BackpressurePolicy::DisconnectSlow));
    let started = Instant::now();
    let receiver = thread::spawn(move || {
        let mut received = 0u32;
        while sub.recv_timeout(STALL).is_some() {
            received += 1;
        }
        (received, sub.is_disconnected())
    });
    // Publish until a push finds the slot still full and kicks the
    // subscriber; from then on the receiver's wait must end at once.
    let mut published = 0u32;
    while broker.topic_info("t").expect("topic exists").subscribers > 0 {
        broker.publish("t", 0, published.to_le_bytes().to_vec());
        published += 1;
        assert!(started.elapsed() < STALL, "the receiver kept up with {published} publishes");
    }
    let (received, disconnected) = receiver.join().expect("receiver thread");
    assert!(disconnected, "the receiver stopped because it was disconnected");
    assert!(received < published, "the kicking publish was not delivered");
    assert!(started.elapsed() < STALL, "the receiver did not wait out its timeout");
}
