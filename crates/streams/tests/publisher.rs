//! The resolved-topic [`Publisher`] contract: it is lazy, it never goes
//! stale, it leaves exactly the state a by-name publish leaves, and it
//! keeps the broker's delivery promise — a `subscribe()` that returned
//! before a publish began receives that publish.

use apollo_obs::Registry;
use apollo_streams::{Broker, Entry, Publisher, Record, StreamConfig, StreamId, Subscription};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn instrumented() -> (Arc<Broker>, Registry) {
    let registry = Registry::new();
    let broker = Arc::new(Broker::new(StreamConfig::default()));
    broker.instrument(&registry);
    (broker, registry)
}

#[test]
fn a_publisher_that_never_published_has_no_topic() {
    let (broker, _) = instrumented();
    let mut publisher = broker.publisher("idle");
    assert_eq!(publisher.topic(), "idle");
    assert!(publisher.publish_batch([]).is_empty());
    assert!(!broker.has_topic("idle"), "creating a handle or flushing nothing creates no topic");
    assert!(broker.latest("idle").is_none(), "and reads still never create one");
    assert!(broker.topic_names().is_empty());

    publisher.publish(1, Record::measured(1, 1.0));
    assert!(broker.has_topic("idle"));
    assert_eq!(broker.topic_len("idle"), 1);
}

/// What one publish sequence leaves behind, as far as anyone can tell.
#[derive(Debug, PartialEq)]
struct Observed {
    ids: Vec<StreamId>,
    info: Option<apollo_streams::TopicInfo>,
    published_total: u64,
    published_total_metric: u64,
    publish_ns_samples: u64,
    subscriber_saw: Vec<StreamId>,
}

/// Publish, remove the topic, publish again — through `publish` and
/// `publish_batch` callbacks that are either by-name or by-handle.
fn remove_and_republish(
    broker: &Broker,
    registry: &Registry,
    publish: impl Fn(u64, Record) -> StreamId,
    publish_batch: impl Fn(Vec<(u64, Record)>) -> Vec<StreamId>,
) -> Observed {
    let payload = |i: u8| Record::measured(u64::from(i), f64::from(i));
    let mut ids = vec![publish(10, payload(0)), publish(10, payload(1))];
    ids.extend(publish_batch(vec![(11, payload(2)), (12, payload(3))]));
    assert_eq!(broker.topic_len("t"), 4);

    assert!(broker.remove_topic("t"));
    assert!(!broker.has_topic("t"));
    // A subscriber of the *new* topic: it must see what is published now.
    let sub = broker.subscribe("t");
    ids.push(publish(5, payload(4)));
    ids.extend(publish_batch(vec![(6, payload(5))]));

    let snap = registry.snapshot();
    Observed {
        ids,
        info: broker.topic_info("t"),
        published_total: broker.published_total(),
        published_total_metric: snap.counter("streams.published_total"),
        publish_ns_samples: snap.histograms["streams.publish_ns"].count,
        subscriber_saw: sub.drain().iter().map(|e| e.id).collect(),
    }
}

#[test]
fn publishing_through_a_handle_after_remove_topic_recreates_it_as_a_by_name_publish_does() {
    let (named, named_registry) = instrumented();
    let by_name = remove_and_republish(
        &named,
        &named_registry,
        |ms, p| named.publish("t", ms, p),
        |records| named.publish_batch("t", records),
    );

    let (handled, handled_registry) = instrumented();
    let publisher = std::cell::RefCell::new(handled.publisher("t"));
    let by_handle = remove_and_republish(
        &handled,
        &handled_registry,
        |ms, p| publisher.borrow_mut().publish(ms, p),
        |records| publisher.borrow_mut().publish_batch(records),
    );

    assert_eq!(by_handle, by_name);
    // And that state is the one intended: a fresh topic with fresh IDs
    // (earlier `ms` than the removed topic ever saw, sequence from 0),
    // every publish counted, the new subscriber served.
    assert_eq!(by_handle.ids[4..], [StreamId::new(5, 0), StreamId::new(6, 0)]);
    assert_eq!(by_handle.subscriber_saw, by_handle.ids[4..]);
    assert_eq!((by_handle.published_total, by_handle.published_total_metric), (6, 6));
    let info = by_handle.info.expect("the topic exists again");
    assert_eq!((info.window_len, info.published, info.readers), (2, 2, 1));
    assert!(by_handle.publish_ns_samples >= 2, "both topics' first publishes were sampled");
}

/// The sequence number a published record carries as its timestamp.
fn sequence_number(e: &Entry) -> u64 {
    e.record.timestamp_ns
}

/// Two threads. One publishes the sequence numbers `0, 1, 2, …` in
/// order, announcing each **before** it begins, until the other has
/// finished its rounds. The other subscribes again and again (one
/// subscription alive at a time, so without a resident subscriber every
/// `subscribe()` finds the topic's list empty): each subscription must
/// hold, gap-free and in order, every sequence number from the first
/// publish that had not begun when its `subscribe()` returned up to the
/// last one known to have completed.
///
/// The publisher is paced: it begins publish `k` only while `k` is less
/// than two strides past the current round's first due publish. A round
/// needs one stride, so the publisher never waits on a round that waits
/// on it, and it stays under `2 * STRIDE * (ROUNDS + 1)` publishes however
/// the two threads are scheduled: it can neither run out of its bound nor
/// lap the resident subscriber's cursor.
fn every_returned_subscribe_sees_every_later_publish(
    broker: &Arc<Broker>,
    resident: Option<&Subscription>,
    mut publish: impl FnMut(u64, Record) + Send,
) {
    const ROUNDS: u64 = 200;
    const STRIDE: u64 = 64;
    /// Far more than the paced publisher reaches: reached only if the
    /// subscribing thread stopped pacing it (it panicked), and then the
    /// publisher stops rather than spins.
    const MOST: u64 = RESIDENT_WINDOW as u64;
    let began = AtomicU64::new(0);
    let rounds = AtomicU64::new(0);
    // The publisher begins publish `k` only while `k < allowed`.
    let allowed = AtomicU64::new(2 * STRIDE);
    /// Lifts the pacing when the subscribing thread leaves, on a failed
    /// assertion too, so the scope never waits on a paced publisher.
    struct Unpace<'a>(&'a AtomicU64);
    impl Drop for Unpace<'_> {
        fn drop(&mut self) {
            self.0.store(u64::MAX, Ordering::SeqCst);
        }
    }
    std::thread::scope(|s| {
        s.spawn(|| {
            for k in 0..MOST {
                while k >= allowed.load(Ordering::SeqCst) && rounds.load(Ordering::SeqCst) < ROUNDS
                {
                    std::thread::yield_now();
                }
                if rounds.load(Ordering::SeqCst) >= ROUNDS {
                    break;
                }
                // SeqCst: a subscriber that reads `began == k0` after its
                // `subscribe()` returned knows no publish `>= k0` had begun.
                began.store(k + 1, Ordering::SeqCst);
                publish(k, Record::measured(k, k as f64));
            }
            // Release a subscriber still waiting for the next stride.
            began.store(u64::MAX, Ordering::SeqCst);
        });
        let _unpace = Unpace(&allowed);
        for round in 0..ROUNDS {
            let sub = broker.subscribe("t");
            let first_due = began.load(Ordering::SeqCst);
            allowed.store(first_due.saturating_add(2 * STRIDE), Ordering::SeqCst);
            // Let the publisher run on. It announces `k + 1` only after
            // publish `k - 1` returned, so once `upto` is read everything
            // up to `upto - 2` has been delivered.
            let mut upto = first_due;
            while upto < first_due.saturating_add(STRIDE) {
                std::thread::yield_now();
                upto = began.load(Ordering::SeqCst);
            }
            assert_ne!(upto, u64::MAX, "the publisher gave up in round {round}: starved?");
            let got: Vec<u64> = sub.drain().iter().map(sequence_number).collect();
            let (Some(&first), Some(&last)) = (got.first(), got.last()) else {
                panic!("round {round} received nothing of {first_due}..{upto}");
            };
            assert!(first <= first_due, "round {round} missed {first_due}..{first}");
            assert!(last + 2 >= upto, "round {round} stops at {last}, {upto} had begun");
            assert!(got.windows(2).all(|w| w[1] == w[0] + 1), "round {round}: gap in {got:?}");
            rounds.store(round + 1, Ordering::SeqCst);
        }
    });
    if let Some(resident) = resident {
        let all: Vec<u64> = resident.drain().iter().map(sequence_number).collect();
        assert!(all.len() as u64 >= ROUNDS * STRIDE);
        assert!(all.iter().copied().eq(0..all.len() as u64), "the resident subscriber has a gap");
    }
}

/// The default window: retention never laps the resident subscriber's
/// cursor within this many publishes.
const RESIDENT_WINDOW: usize = 65_536;

#[test]
fn a_subscribe_that_returned_sees_every_later_publish() {
    type Publish = fn(&Broker, &mut Publisher, u64, Record);
    let paths: [(&str, Publish); 4] = [
        ("Broker::publish", |b, _, ms, p| {
            b.publish("t", ms, p);
        }),
        ("Broker::publish_batch", |b, _, ms, p| {
            b.publish_batch("t", [(ms, p)]);
        }),
        ("Publisher::publish", |_, h, ms, p| {
            h.publish(ms, p);
        }),
        ("Publisher::publish_batch", |_, h, ms, p| {
            h.publish_batch([(ms, p)]);
        }),
    ];
    for (path, publish) in paths {
        for with_resident in [false, true] {
            let broker = Arc::new(Broker::new(StreamConfig::default()));
            let mut publisher = broker.publisher("t");
            let resident = with_resident.then(|| broker.subscribe("t"));
            eprintln!("{path}, resident subscriber: {with_resident}");
            every_returned_subscribe_sees_every_later_publish(
                &broker,
                resident.as_ref(),
                |ms, p| publish(&broker, &mut publisher, ms, p),
            );
        }
    }
}
