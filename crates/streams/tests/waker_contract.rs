//! The waker contract of `Broker::wake_on`: a waker runs under its topic's
//! waker lock, so it may publish to another topic, while the topic's own
//! waker list churns, and nothing hangs. (Publishing to its own topic is
//! what the contract rules out: that waits on the lock the publish holds.)

use apollo_streams::{Broker, StreamConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const PUBLISHES: u64 = 10_000;
/// Far beyond what the run takes; reached only by a deadlock.
const BOUND: Duration = Duration::from_secs(30);

/// Run `f` on its own thread; the returned closure waits at most until
/// `deadline` for it to end and joins it, `None` when it hung (it is left
/// behind).
fn within<T: Send + 'static>(
    deadline: Instant,
    f: impl FnOnce() -> T + Send + 'static,
) -> impl FnOnce() -> Option<T> {
    let (done, ended) = mpsc::channel::<()>();
    let thread = std::thread::spawn(move || {
        let _done = done; // dropped as `f` returns or unwinds
        f()
    });
    move || match ended.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
        Err(mpsc::RecvTimeoutError::Timeout) => None,
        _ => Some(thread.join().expect("the thread ran to its end")),
    }
}

#[test]
fn a_waker_that_publishes_to_another_topic_relays_every_publish_while_its_topic_churns() {
    let broker = Arc::new(Broker::new(StreamConfig::default()));
    let relay = {
        let weak = Arc::downgrade(&broker);
        broker.wake_on("a", move || {
            if let Some(broker) = weak.upgrade() {
                broker.publish("b", 0, vec![1u8]);
            }
        })
    };
    let relayed = broker.subscribe("b");
    let deadline = Instant::now() + BOUND;
    let publishing = Arc::new(AtomicBool::new(true));
    let churning = Arc::new(AtomicBool::new(false));

    let churner = {
        let (broker, publishing) = (Arc::clone(&broker), Arc::clone(&publishing));
        let churning = Arc::clone(&churning);
        within(deadline, move || {
            let mut churned = 0u64;
            loop {
                drop(broker.subscribe("a"));
                drop(broker.wake_on("a", || {}));
                churned += 1;
                churning.store(true, Ordering::SeqCst);
                if !publishing.load(Ordering::SeqCst) {
                    return churned;
                }
            }
        })
    };
    let publisher = {
        let (broker, publishing) = (Arc::clone(&broker), Arc::clone(&publishing));
        within(deadline, move || {
            // Start once the churn has: the two overlap.
            while !churning.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let mut a = broker.publisher("a");
            for i in 0..PUBLISHES {
                a.publish(i, i.to_le_bytes().to_vec());
            }
            publishing.store(false, Ordering::SeqCst);
        })
    };
    let reader = within(deadline, move || {
        let mut rows = 0;
        while rows < PUBLISHES {
            match relayed.recv_timeout(BOUND) {
                Some(_) => rows += 1,
                None => break,
            }
        }
        (rows, relayed.drain().len() as u64)
    });

    let (published, churned, read) = (publisher(), churner(), reader());
    let finished = [published.is_some(), churned.is_some(), read.is_some()];
    let (Some(()), Some(churned), Some((rows, extra))) = (published, churned, read) else {
        // A hung thread holds the waker lock that dropping `relay` takes.
        std::mem::forget(relay);
        panic!("hung past {BOUND:?}: publisher, churner, reader finished {finished:?}");
    };
    assert_eq!((rows, extra), (PUBLISHES, 0), "one row on \"b\" per publish to \"a\"");
    assert!(churned > 1, "the churner ran alongside the publisher");
    assert_eq!(broker.topic_info("a").expect("exists").readers, 1, "only the relay is left");
    drop(relay);
    assert_eq!(broker.topic_info("a").expect("exists").readers, 0);
}
