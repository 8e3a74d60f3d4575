//! Lost-wakeup teeth for a subscription's blocking receive.
//!
//! A subscription is a cursor over its topic's stream, and a receiver
//! blocked in `recv_timeout` parks its own thread. The hand-off rests on
//! two locks and `park`'s token: a receiver joins the subscription's
//! waiter list, under its lock, before it re-checks the stream, and the
//! publish's waker unparks every listed thread under the same lock after
//! its append. Re-check before joining, or skip an unpark, and one of
//! these hand-offs stalls until its ten-second timeout and fails. The
//! lockstep cases force a receiver to park before nearly every publish.

use apollo_streams::{Broker, Entry, Record, StreamConfig, Subscription};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Far beyond any scheduling delay: reaching it means a wake-up was lost.
const STALL: Duration = Duration::from_secs(10);

/// Unbounded, so retention never laps a receiver: an entry it misses can
/// only be a lost wake-up.
fn broker() -> Arc<Broker> {
    Arc::new(Broker::new(StreamConfig::unbounded()))
}

fn seq(entry: &Entry) -> u32 {
    entry.record.timestamp_ns as u32
}

fn publish(broker: &Broker, i: u32) {
    broker.publish("t", u64::from(i), Record::measured(u64::from(i), f64::from(i)));
}

#[test]
fn a_receiver_takes_every_entry_in_order_without_a_stall() {
    const N: u32 = 100_000;
    let broker = broker();
    let sub = broker.subscribe("t");
    let publisher = {
        let broker = Arc::clone(&broker);
        thread::spawn(move || (0..N).for_each(|i| publish(&broker, i)))
    };
    let started = Instant::now();
    for expected in 0..N {
        let got = sub.recv_timeout(STALL);
        assert!(
            got.as_ref().is_some_and(|e| seq(e) == expected) && started.elapsed() < STALL,
            "entry {expected}: expected it in order and without a stall, got {got:?}"
        );
    }
    publisher.join().expect("publisher thread");
    assert!(sub.try_recv().is_none(), "nothing published twice");
}

#[test]
fn a_receiver_parked_before_each_publish_is_woken() {
    const ROUNDS: u32 = 10_000;
    let broker = broker();
    let sub = broker.subscribe("t");
    let (took_tx, took_rx) = mpsc::channel();
    let receiver = thread::spawn(move || {
        for expected in 0..ROUNDS {
            let asked = Instant::now();
            // An entry found only when the wait ran out was not woken for.
            let got = sub.recv_timeout(STALL).filter(|_| asked.elapsed() < STALL).map(|e| seq(&e));
            took_tx.send(got).expect("publisher alive");
            if got != Some(expected) {
                break;
            }
        }
    });
    // The receiver is parked before the first publish: it has nothing to
    // take until then.
    thread::sleep(Duration::from_millis(20));
    for i in 0..ROUNDS {
        publish(&broker, i);
        // The next publish waits for this one to be taken, so the receiver
        // is usually parked again before it.
        let took = took_rx.recv_timeout(STALL + STALL).expect("the receiver answered");
        assert_eq!(took, Some(i), "round {i}: the parked receiver was not woken");
    }
    receiver.join().expect("receiver thread");
}

/// One thread publishes an entry, says so and waits; the other, told,
/// must `take` exactly that entry at once, without waiting, and says so.
fn a_returned_publish_is_taken_at_once(take: impl Fn(&Subscription) -> Vec<Entry>) {
    const ROUNDS: u32 = 2_000;
    let broker = broker();
    let sub = broker.subscribe("t");
    let (published_tx, published_rx) = mpsc::channel();
    let (taken_tx, taken_rx) = mpsc::channel();
    let publisher = {
        let broker = Arc::clone(&broker);
        thread::spawn(move || {
            for i in 0..ROUNDS {
                publish(&broker, i);
                published_tx.send(()).expect("receiver alive");
                if taken_rx.recv().is_err() {
                    return;
                }
            }
        })
    };
    for i in 0..ROUNDS {
        published_rx.recv_timeout(STALL).expect("the publisher published");
        let got: Vec<u32> = take(&sub).iter().map(seq).collect();
        assert_eq!(got, [i], "round {i}");
        taken_tx.send(()).expect("publisher alive");
    }
    publisher.join().expect("publisher thread");
}

#[test]
fn try_recv_takes_a_returned_publish_at_once() {
    a_returned_publish_is_taken_at_once(|sub| sub.try_recv().into_iter().collect());
}

#[test]
fn drain_takes_a_returned_publish_at_once() {
    a_returned_publish_is_taken_at_once(Subscription::drain);
}
