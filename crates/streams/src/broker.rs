//! Pub-Sub fan-out over streams.
//!
//! The [`Broker`] is SCoRe's communication fabric: every vertex owns a
//! topic (backed by a [`Stream`]); downstream vertices either **subscribe**
//! (push: each new entry is delivered over a bounded queue — how Insight
//! vertices consume Facts, flow ③/④ of Figure 1b) or **pull** the latest
//! value / a timestamp range on demand (how the Query Executor and
//! middleware clients read, flow ⑥).
//!
//! A reader that must not miss an entry keeps its own cursor — the last
//! [`StreamId`] it processed — and reads by [`Broker::read_after`]; the
//! broker keeps no delivery state for it, so a reader restarted after a
//! crash resumes from the cursor it saved. Subscriber queues are bounded:
//! a [`BackpressurePolicy`] decides whether a slow subscriber blocks the
//! publisher, loses its oldest entries, or is disconnected.
//!
//! A condvar notify is a futex syscall whether or not anyone waits, so
//! wake-ups are **waiter-gated**: a subscriber queue counts its parked
//! receivers and publishers under its own mutex, around the wait, and
//! notifies a side only when its count is non-zero (closing always
//! notifies). A topic's readers — subscribers, and derived readers' wakers
//! ([`Broker::wake_on`]) — are **copy-on-write**: an `Arc<Readers>` that
//! subscribing and dropping edit and a publish clones after its append
//! and wakes; no subscriber, no entry built.

use crate::entry::Entry;
use crate::id::StreamId;
use crate::stream::{ColumnBatch, ScanBatch, ScanMeta, Stream, StreamConfig};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Unique identifier for a subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriptionId(u64);

/// What a publisher does when a subscriber's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Block the publisher until the subscriber drains. Lossless, but ties
    /// publisher progress to the slowest subscriber — only sensible in
    /// live (multi-threaded) mode; under a single-threaded virtual clock
    /// it would deadlock.
    Block,
    /// Drop the subscriber's oldest buffered entry to make room. The
    /// subscriber keeps up with the newest data at the price of gaps
    /// (which it can detect via [`Subscription::dropped_entries`]).
    DropOldest,
    /// Disconnect the subscriber. It can still drain what was buffered,
    /// then receives nothing more; the publisher never stalls and never
    /// drops data for healthy subscribers.
    DisconnectSlow,
}

/// Options for [`Broker::subscribe_with`].
#[derive(Debug, Clone, Copy)]
pub struct SubscribeOptions {
    /// Queue capacity (entries buffered between publish and receive).
    pub capacity: usize,
    /// What happens when the queue is full.
    pub policy: BackpressurePolicy,
}

impl Default for SubscribeOptions {
    fn default() -> Self {
        Self { capacity: 65_536, policy: BackpressurePolicy::DropOldest }
    }
}

/// Outcome of pushing one entry to one subscriber.
enum SendOutcome {
    Delivered,
    /// Delivered, but the subscriber's oldest buffered entry was dropped.
    DroppedOldest,
    /// The subscriber was disconnected (policy, or receiver gone).
    Gone,
}

#[derive(Debug, Default)]
struct SubQueueState {
    buf: VecDeque<Entry>,
    /// Receiver side dropped.
    closed: bool,
    /// Kicked by [`BackpressurePolicy::DisconnectSlow`].
    disconnected: bool,
    /// Entries discarded by [`BackpressurePolicy::DropOldest`].
    dropped: u64,
    /// Receivers parked on `not_empty` / publishers parked on `not_full`,
    /// counted under this mutex so a notifier holding it sees every waiter.
    parked_receivers: usize,
    parked_senders: usize,
}

/// A bounded MPSC queue between the publisher and one subscriber.
///
/// Built on `std::sync` primitives (the workspace `parking_lot` has no
/// condvar); lock poisoning is ignored — the state is a plain buffer and
/// stays coherent even if a holder panicked.
struct SubQueue {
    state: std::sync::Mutex<SubQueueState>,
    not_empty: std::sync::Condvar,
    not_full: std::sync::Condvar,
    capacity: usize,
    policy: BackpressurePolicy,
}

impl SubQueue {
    fn new(opts: SubscribeOptions) -> Self {
        Self {
            state: std::sync::Mutex::new(SubQueueState::default()),
            not_empty: std::sync::Condvar::new(),
            not_full: std::sync::Condvar::new(),
            capacity: opts.capacity.max(1),
            policy: opts.policy,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SubQueueState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Wake parked receivers / publishers, if any, with the state lock held.
    fn wake_receivers(&self, st: &SubQueueState) {
        if st.parked_receivers > 0 {
            self.not_empty.notify_all();
        }
    }

    fn wake_senders(&self, st: &SubQueueState) {
        if st.parked_senders > 0 {
            self.not_full.notify_all();
        }
    }

    fn push(&self, entry: Entry) -> SendOutcome {
        let mut st = self.lock();
        if st.closed || st.disconnected {
            return SendOutcome::Gone;
        }
        if st.buf.len() >= self.capacity {
            match self.policy {
                BackpressurePolicy::Block => {
                    while st.buf.len() >= self.capacity && !st.closed {
                        st.parked_senders += 1;
                        st = self
                            .not_full
                            .wait(st)
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        st.parked_senders -= 1;
                    }
                    if st.closed {
                        return SendOutcome::Gone;
                    }
                }
                BackpressurePolicy::DropOldest => {
                    st.buf.pop_front();
                    st.dropped += 1;
                    st.buf.push_back(entry);
                    self.wake_receivers(&st);
                    return SendOutcome::DroppedOldest;
                }
                BackpressurePolicy::DisconnectSlow => {
                    st.disconnected = true;
                    // Wake a blocked receiver so it observes the disconnect.
                    self.wake_receivers(&st);
                    return SendOutcome::Gone;
                }
            }
        }
        st.buf.push_back(entry);
        self.wake_receivers(&st);
        SendOutcome::Delivered
    }

    fn try_pop(&self) -> Option<Entry> {
        let mut st = self.lock();
        let e = st.buf.pop_front();
        if e.is_some() {
            self.wake_senders(&st);
        }
        e
    }

    fn pop_timeout(&self, timeout: Duration) -> Option<Entry> {
        let deadline = Instant::now() + timeout;
        let mut st = self.lock();
        loop {
            if let Some(e) = st.buf.pop_front() {
                self.wake_senders(&st);
                return Some(e);
            }
            if st.disconnected {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            st.parked_receivers += 1;
            let (guard, res) = self
                .not_empty
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st = guard;
            st.parked_receivers -= 1;
            if res.timed_out() && st.buf.is_empty() {
                return None;
            }
        }
    }

    fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        self.not_full.notify_all();
    }

    fn len(&self) -> usize {
        self.lock().buf.len()
    }

    fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    fn is_disconnected(&self) -> bool {
        self.lock().disconnected
    }
}

#[derive(Clone)]
struct Subscriber {
    id: SubscriptionId,
    queue: Arc<SubQueue>,
}

/// What a publish reaches besides the window.
#[derive(Clone, Default)]
struct Readers {
    subscribers: Vec<Subscriber>,
    wakers: Vec<(SubscriptionId, Arc<dyn Fn() + Send + Sync>)>,
}

struct Topic {
    stream: Stream,
    /// Copy-on-write: subscribing and dropping edit it (a copy, if a publish
    /// holds it), a publish clones the `Arc` and delivers with the lock released.
    readers: Mutex<Arc<Readers>>,
    /// Behind an `Arc` so [`Broker::instrument`] can export the same cell
    /// as `streams.topic.<name>.published` without a second increment on
    /// the publish hot path.
    published: Arc<AtomicU64>,
    dropped: AtomicU64,
    dropped_entries: AtomicU64,
    /// Set by [`Broker::remove_topic`]: a [`Publisher`] still holding this
    /// topic resolves the name again instead of publishing into a topic
    /// nobody can read.
    removed: AtomicBool,
    /// Registry handles, set once by [`Broker::instrument`] (or at topic
    /// creation on an instrumented broker). A plain atomic load on the
    /// publish hot path when absent.
    obs: OnceLock<TopicObs>,
}

impl Topic {
    /// Edit the readers, copying them first if a publish holds them.
    fn edit_readers<R>(&self, edit: impl FnOnce(&mut Readers) -> R) -> R {
        edit(Arc::make_mut(&mut self.readers.lock()))
    }

    /// Drop the subscribers `keep` rejects; returns how many went.
    fn prune_subscribers(&self, keep: impl Fn(&Subscriber) -> bool) -> usize {
        self.edit_readers(|r| {
            let before = r.subscribers.len();
            r.subscribers.retain(keep);
            before - r.subscribers.len()
        })
    }
}

/// Pre-resolved per-topic instrument handles. Each holds both the
/// topic-scoped instrument and a clone of the broker-wide total, so the
/// hot path never consults the registry maps.
struct TopicObs {
    dropped_entries: apollo_obs::Counter,
    dropped_entries_total: apollo_obs::Counter,
    dropped_subscribers_total: apollo_obs::Counter,
    /// Deepest subscriber queue observed during the most recent publish.
    backlog: apollo_obs::Gauge,
}

impl TopicObs {
    fn new(
        registry: &apollo_obs::Registry,
        topic: &str,
        published: Arc<AtomicU64>,
        stream: &Stream,
    ) -> Self {
        // The per-topic publish counter is backed by the atomic the
        // publish path already increments, so exporting it is free — and
        // the lapped-cursor / rejected-eviction counters are likewise
        // backed by the cells the stream already maintains.
        let _ = registry.counter_backed_by(&format!("streams.topic.{topic}.published"), published);
        for (name, cell) in [
            ("cursor_lapped", stream.cursor_lapped_cell()),
            ("archive_rejected", stream.archive_rejected_cell()),
        ] {
            let _ = registry.counter_backed_by(&format!("streams.topic.{topic}.{name}"), cell);
        }
        Self {
            dropped_entries: registry.counter(&format!("streams.topic.{topic}.dropped_entries")),
            dropped_entries_total: registry.counter("streams.dropped_entries_total"),
            dropped_subscribers_total: registry.counter("streams.dropped_subscribers_total"),
            backlog: registry.gauge(&format!("streams.topic.{topic}.backlog")),
        }
    }
}

/// Broker-wide instrument handles (publish latency spans all topics).
struct BrokerObs {
    registry: apollo_obs::Registry,
    publish_ns: apollo_obs::Histogram,
}

/// A push subscription delivering every entry published after the
/// subscription was created, through a bounded queue.
pub struct Subscription {
    id: SubscriptionId,
    topic: Arc<Topic>,
    queue: Arc<SubQueue>,
}

impl Subscription {
    /// Receive the next entry, blocking up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Entry> {
        self.queue.pop_timeout(timeout)
    }

    /// Receive without blocking.
    pub fn try_recv(&self) -> Option<Entry> {
        self.queue.try_pop()
    }

    /// Drain everything currently buffered.
    pub fn drain(&self) -> Vec<Entry> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// [`Subscription::drain`] onto the end of a buffer the caller reuses:
    /// one queue-lock hold, no allocation once `out` has the capacity.
    pub fn drain_into(&self, out: &mut Vec<Entry>) {
        let mut st = self.queue.lock();
        if !st.buf.is_empty() {
            out.extend(st.buf.drain(..));
            self.queue.wake_senders(&st);
        }
    }

    /// Entries buffered but not yet received.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Entries this subscriber lost to [`BackpressurePolicy::DropOldest`].
    pub fn dropped_entries(&self) -> u64 {
        self.queue.dropped()
    }

    /// Whether this subscriber was disconnected by
    /// [`BackpressurePolicy::DisconnectSlow`]. Buffered entries can still
    /// be drained; nothing new arrives.
    pub fn is_disconnected(&self) -> bool {
        self.queue.is_disconnected()
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.queue.close();
        self.topic.prune_subscribers(|s| s.id != self.id);
    }
}

/// A waker on one topic, from [`Broker::wake_on`]: every publish to the
/// topic calls it after the append. Dropping this removes it.
pub struct PublishWaker {
    id: SubscriptionId,
    topic: Arc<Topic>,
}

impl Drop for PublishWaker {
    fn drop(&mut self) {
        self.topic.edit_readers(|r| r.wakers.retain(|(id, _)| *id != self.id));
    }
}

/// `XINFO STREAM`-style statistics for one topic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopicInfo {
    /// Topic name.
    pub name: String,
    /// Entries in the live window.
    pub window_len: usize,
    /// Entries the archive ring holds.
    pub archived_len: usize,
    /// Entries ever published.
    pub published: u64,
    /// Subscribers dropped after disconnecting.
    pub dropped_subscribers: u64,
    /// Entries dropped from slow subscribers' queues (DropOldest).
    pub dropped_entries: u64,
    /// Live push subscribers.
    pub subscribers: usize,
    /// Most recent ID.
    pub last_id: Option<StreamId>,
    /// Approximate window memory.
    pub memory_bytes: usize,
    /// Auto-ID appends whose wall-clock `ms` regressed and were clamped
    /// forward to keep IDs monotonic (see [`Stream::clock_regressions`]).
    pub clock_regressions: u64,
}

/// Number of lock stripes the topic namespace is split across. Query
/// threads and publishers outside the service loop convoy on a single
/// `RwLock<HashMap>`; 16 stripes keyed by topic hash keep the expected
/// collision rate low for dozens of concurrent callers while costing only
/// 16 small maps. Power of two so the hash folds with
/// a mask.
const TOPIC_SHARDS: usize = 16;

/// FNV-1a over the topic name: cheap, deterministic across runs (shard
/// assignment is stable for a given name) and well-mixed in the low bits
/// used for the stripe mask.
fn topic_shard_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The pub-sub broker: a namespace of topics.
pub struct Broker {
    /// Topic namespace, lock-striped into [`TOPIC_SHARDS`] independent
    /// maps keyed by topic-name hash, so parallel vertices touching
    /// different topics do not convoy on one lock.
    shards: Vec<RwLock<HashMap<String, Arc<Topic>>>>,
    /// Shard lock acquisitions that found the stripe already held and had
    /// to block; exported as `streams.shard_contention`.
    shard_contention: Arc<AtomicU64>,
    default_config: StreamConfig,
    next_sub_id: AtomicU64,
    /// Lifetime publishes across all topics; behind an `Arc` so
    /// [`Broker::instrument`] exports it as `streams.published_total`
    /// without adding a conditional increment to the hot path.
    published_total: Arc<AtomicU64>,
    /// Set once by [`Broker::instrument`].
    obs: OnceLock<BrokerObs>,
}

impl Default for Broker {
    fn default() -> Self {
        Self::new(StreamConfig::default())
    }
}

impl Broker {
    /// Create a broker whose topics use `default_config` retention.
    pub fn new(default_config: StreamConfig) -> Self {
        Self {
            shards: (0..TOPIC_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            shard_contention: Arc::new(AtomicU64::new(0)),
            default_config,
            next_sub_id: AtomicU64::new(1),
            published_total: Arc::new(AtomicU64::new(0)),
            obs: OnceLock::new(),
        }
    }

    /// Wire publish/fan-out into `registry`: per-topic publish, drop,
    /// lapped-cursor and rejected-eviction counters plus a backlog gauge (`streams.topic.<name>.*`),
    /// broker-wide totals, and a publish-latency histogram
    /// (`streams.publish_ns`). Existing and future topics are both covered.
    /// Idempotent; a disabled registry leaves the broker uninstrumented.
    pub fn instrument(&self, registry: &apollo_obs::Registry) {
        if !registry.enabled() {
            return;
        }
        let _ = registry
            .counter_backed_by("streams.published_total", Arc::clone(&self.published_total));
        let _ = self.obs.set(BrokerObs {
            registry: registry.clone(),
            publish_ns: registry.histogram("streams.publish_ns"),
        });
        let _ = registry
            .counter_backed_by("streams.shard_contention", Arc::clone(&self.shard_contention));
        // Slab-exhaustion fallbacks (process-wide cell bumped whenever a
        // stream wanted a slab series and couldn't get one — directory
        // full or name too long).
        let _ = registry.counter_backed_by("streams.slab.dir_full", crate::slab::dir_full_cell());
        let registry = &self.obs.get().expect("just set").registry;
        for shard in &self.shards {
            for (name, t) in shard.read().iter() {
                let _ =
                    t.obs.set(TopicObs::new(registry, name, Arc::clone(&t.published), &t.stream));
            }
        }
    }

    /// Lifetime publishes across all topics (also exported to an
    /// instrumented registry as `streams.published_total`).
    pub fn published_total(&self) -> u64 {
        self.published_total.load(Ordering::Relaxed)
    }

    /// The lock stripe owning `name`.
    fn shard(&self, name: &str) -> &RwLock<HashMap<String, Arc<Topic>>> {
        &self.shards[(topic_shard_hash(name) % TOPIC_SHARDS as u64) as usize]
    }

    /// Read-lock `name`'s stripe, counting the acquisition as contended
    /// when the uncontended fast path (`try_read`) fails.
    fn shard_read(
        &self,
        name: &str,
    ) -> parking_lot::RwLockReadGuard<'_, HashMap<String, Arc<Topic>>> {
        let shard = self.shard(name);
        shard.try_read().unwrap_or_else(|| {
            self.shard_contention.fetch_add(1, Ordering::Relaxed);
            shard.read()
        })
    }

    /// Write-lock `name`'s stripe, counting contention like
    /// [`Broker::shard_read`].
    fn shard_write(
        &self,
        name: &str,
    ) -> parking_lot::RwLockWriteGuard<'_, HashMap<String, Arc<Topic>>> {
        let shard = self.shard(name);
        shard.try_write().unwrap_or_else(|| {
            self.shard_contention.fetch_add(1, Ordering::Relaxed);
            shard.write()
        })
    }

    /// Shard lock acquisitions that found their stripe already held
    /// (also exported to an instrumented registry as
    /// `streams.shard_contention`).
    pub fn shard_contention(&self) -> u64 {
        self.shard_contention.load(Ordering::Relaxed)
    }

    /// Fetch-or-create a topic. This is the **write/registration path**
    /// (`publish*`, `subscribe*`, `wake_on`); every read accessor
    /// goes through [`Broker::lookup`] instead and never creates topics.
    fn topic(&self, name: &str) -> Arc<Topic> {
        if let Some(t) = self.shard_read(name).get(name) {
            return Arc::clone(t);
        }
        let mut topics = self.shard_write(name);
        Arc::clone(topics.entry(name.to_string()).or_insert_with(|| {
            let published = Arc::new(AtomicU64::new(0));
            let stream = Stream::new(name, self.default_config.clone());
            let obs = OnceLock::new();
            if let Some(b) = self.obs.get() {
                let _ = obs.set(TopicObs::new(&b.registry, name, Arc::clone(&published), &stream));
            }
            Arc::new(Topic {
                stream,
                readers: Mutex::default(),
                published,
                dropped: AtomicU64::new(0),
                dropped_entries: AtomicU64::new(0),
                removed: AtomicBool::new(false),
                obs,
            })
        }))
    }

    /// Non-creating topic lookup: the single accessor every read path
    /// (`read_after`, `latest`, `range`, `range_by_time`, `scan_*`,
    /// `topic_len`, `topic_info`) goes through.
    /// **Reads never create topics** — reading a name no one has
    /// published or subscribed to returns empty and leaves the namespace
    /// untouched, so probing a topic before its first publish cannot
    /// register a phantom topic that later shows up in `info()` or
    /// metrics.
    fn lookup(&self, name: &str) -> Option<Arc<Topic>> {
        self.shard_read(name).get(name).map(Arc::clone)
    }

    /// Topic names currently registered.
    pub fn topic_names(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.shards.iter().flat_map(|s| s.read().keys().cloned().collect::<Vec<_>>()).collect();
        names.sort();
        names
    }

    /// True when a topic exists (has been published or subscribed to).
    pub fn has_topic(&self, name: &str) -> bool {
        self.shard_read(name).contains_key(name)
    }

    /// Remove a topic and all its state. Existing subscriptions stop
    /// receiving, and a [`Publisher`] resolved to the topic creates it
    /// anew on its next publish, as a by-name publish would. Returns
    /// whether the topic existed.
    pub fn remove_topic(&self, name: &str) -> bool {
        let removed = self.shard_write(name).remove(name);
        if let Some(t) = &removed {
            // Release pairs with the Acquire load in `Publisher::with_topic`.
            t.removed.store(true, Ordering::Release);
        }
        removed.is_some()
    }

    /// A publisher resolved to `topic`: what a vertex that owns a topic
    /// holds instead of the name, so its publishes skip the namespace
    /// lookup (see [`Publisher`]). Creating one does not create the topic.
    pub fn publisher(self: &Arc<Self>, topic: impl Into<String>) -> Publisher {
        Publisher { broker: Arc::clone(self), name: topic.into(), topic: Mutex::new(None) }
    }

    /// Publish a payload on `topic` at millisecond timestamp `ms`.
    /// Appends to the topic's stream and fans out to all subscribers,
    /// applying each subscriber's backpressure policy.
    ///
    /// Delivery happens on a snapshot of the subscriber list taken under
    /// the lock **after the append**, with the lock *released* while
    /// queues are pushed — so a `subscribe()` that returned before this
    /// call began receives the entry, and a subscriber blocked on a full
    /// [`BackpressurePolicy::Block`] queue stalls only publishers of its
    /// own entry, never subscription churn or healthy siblings of a
    /// concurrent publish.
    pub fn publish(&self, topic: &str, ms: u64, payload: impl Into<Bytes>) -> StreamId {
        self.publish_to(&self.topic(topic), ms, payload.into())
    }

    fn publish_to(&self, t: &Topic, ms: u64, payload: Bytes) -> StreamId {
        let seq = t.published.fetch_add(1, Ordering::Relaxed);
        self.published_total.fetch_add(1, Ordering::Relaxed);
        // A clock read costs more than the rest of an uncontended publish,
        // so the latency histogram and the backlog gauge sample one publish
        // in `apollo_obs::SAMPLE_PERIOD`; counters stay exact.
        let start = (self.obs.get().is_some() && apollo_obs::sampled(seq)).then(Instant::now);
        // A record's payload sits in its handle, so keeping a copy for the
        // subscribers costs nothing; the list is read once, after the append.
        let kept = payload.clone();
        let id = t.stream.append(ms, payload);
        let readers = Arc::clone(&t.readers.lock());
        let deepest = if readers.subscribers.is_empty() {
            0
        } else {
            Self::fan_out(t, &readers.subscribers, &[Entry::new(id, kept)], start.is_some())
        };
        readers.wakers.iter().for_each(|(_, wake)| wake());
        self.observe_sample(t, start, deepest);
        id
    }

    /// Publish a batch of `(ms, payload)` records on `topic` under a
    /// single topic lookup, a single window-lock acquisition, and a
    /// single subscriber-list snapshot — the amortized flush SCoRe
    /// vertices and the self-observer use when emitting several records
    /// at once. Semantically identical to calling [`Broker::publish`]
    /// per record (same IDs, same per-subscriber ordering, same exact
    /// counters); only the lock traffic is amortized. Returns the
    /// assigned IDs in record order — the only allocation when the topic
    /// has no subscribers.
    pub fn publish_batch(
        &self,
        topic: &str,
        records: impl IntoIterator<Item = (u64, Bytes)>,
    ) -> Vec<StreamId> {
        let mut records = records.into_iter().peekable();
        if records.peek().is_none() {
            return Vec::new();
        }
        self.publish_batch_to(&self.topic(topic), records)
    }

    fn publish_batch_to(
        &self,
        t: &Topic,
        records: impl Iterator<Item = (u64, Bytes)>,
    ) -> Vec<StreamId> {
        // Same sampling policy as `publish`: sample when the batch's
        // sequence span crosses a multiple of the period. The records are
        // consumed under the window lock, so the span is sized from the
        // iterator's lower bound — exact for slices, arrays and `Vec`s.
        let seq = t.published.load(Ordering::Relaxed);
        let expect = records.size_hint().0.max(1) as u64;
        let start = (self.obs.get().is_some()
            && seq.next_multiple_of(apollo_obs::SAMPLE_PERIOD) < seq + expect)
            .then(Instant::now);
        // The entry list exists only for subscribers; their IDs are filled
        // in once the append has assigned them. The readers are locked
        // once, across the append, so the read that decides whether to
        // build the entries is also the snapshot they are delivered to.
        let locked = t.readers.lock();
        let mut entries: Vec<Entry> = Vec::new();
        let ids = t.stream.append_batch(records.inspect(|(_, payload)| {
            if !locked.subscribers.is_empty() {
                entries.push(Entry::new(StreamId::MIN, payload.clone()));
            }
        }));
        let readers = Arc::clone(&locked);
        drop(locked);
        let n = ids.len() as u64;
        t.published.fetch_add(n, Ordering::Relaxed);
        self.published_total.fetch_add(n, Ordering::Relaxed);
        for (entry, id) in entries.iter_mut().zip(&ids) {
            entry.id = *id;
        }
        let deepest = if entries.is_empty() {
            0
        } else {
            Self::fan_out(t, &readers.subscribers, &entries, start.is_some())
        };
        readers.wakers.iter().for_each(|(_, wake)| wake());
        self.observe_sample(t, start, deepest);
        ids
    }

    /// Record a sampled publish: latency since `start` and the deepest
    /// subscriber queue seen. Publish counts ride `t.published` /
    /// `Broker::published_total` (exported via `counter_backed_by`), so
    /// the instrumented hot path adds only a branch when unsampled; the
    /// backlog gauge rides the same sample — it is a point-in-time depth
    /// reading, not an exact count.
    fn observe_sample(&self, t: &Topic, start: Option<Instant>, deepest: usize) {
        let (Some(start), Some(obs)) = (start, self.obs.get()) else { return };
        obs.publish_ns.observe(start.elapsed().as_nanos() as u64);
        if let Some(tobs) = t.obs.get() {
            tobs.backlog.set(deepest as f64);
        }
    }

    /// Deliver `entries` in order to `targets`, a snapshot of `t`'s
    /// subscribers taken after the append (lock released during delivery
    /// — see [`Broker::publish`]), applying backpressure policies and
    /// pruning subscribers that went away. Returns the deepest queue
    /// observed (for the backlog gauge) on a `sampled` publish, else 0.
    fn fan_out(t: &Topic, targets: &[Subscriber], entries: &[Entry], sampled: bool) -> usize {
        let mut gone: Vec<SubscriptionId> = Vec::new();
        for entry in entries {
            for sub in targets {
                if gone.contains(&sub.id) {
                    continue;
                }
                match sub.queue.push(entry.clone()) {
                    SendOutcome::Delivered => {}
                    SendOutcome::DroppedOldest => {
                        t.dropped_entries.fetch_add(1, Ordering::Relaxed);
                        if let Some(tobs) = t.obs.get() {
                            tobs.dropped_entries.inc();
                            tobs.dropped_entries_total.inc();
                        }
                    }
                    SendOutcome::Gone => gone.push(sub.id),
                }
            }
        }
        if !gone.is_empty() {
            // Re-acquire briefly to prune; count only subscribers this call
            // actually removed (a racing `Subscription::drop` may have
            // already pruned itself).
            let removed = t.prune_subscribers(|s| !gone.contains(&s.id)) as u64;
            if removed > 0 {
                t.dropped.fetch_add(removed, Ordering::Relaxed);
                if let Some(tobs) = t.obs.get() {
                    tobs.dropped_subscribers_total.add(removed);
                }
            }
        }
        if !sampled {
            return 0;
        }
        targets.iter().map(|s| s.queue.len()).max().unwrap_or(0)
    }

    /// Subscribe to a topic with default options (bounded queue,
    /// drop-oldest backpressure); receives entries published from now on.
    pub fn subscribe(&self, topic: &str) -> Subscription {
        self.subscribe_with(topic, SubscribeOptions::default())
    }

    /// Subscribe with an explicit queue capacity and backpressure policy.
    pub fn subscribe_with(&self, topic: &str, opts: SubscribeOptions) -> Subscription {
        let t = self.topic(topic);
        let queue = Arc::new(SubQueue::new(opts));
        let id = SubscriptionId(self.next_sub_id.fetch_add(1, Ordering::Relaxed));
        t.edit_readers(|r| r.subscribers.push(Subscriber { id, queue: Arc::clone(&queue) }));
        Subscription { id, topic: t, queue }
    }

    /// Call `waker` after every publish to `topic` until the returned handle
    /// is dropped: how a derived reader learns its input moved. Creates the topic.
    pub fn wake_on(&self, topic: &str, waker: impl Fn() + Send + Sync + 'static) -> PublishWaker {
        let t = self.topic(topic);
        let id = SubscriptionId(self.next_sub_id.fetch_add(1, Ordering::Relaxed));
        t.edit_readers(|r| r.wakers.push((id, Arc::new(waker))));
        PublishWaker { id, topic: t }
    }

    /// Up to `count` entries of `topic` after `cursor` (see
    /// [`Stream::read_after`]); an unknown topic reads as empty. The cursor
    /// is the caller's — a standing query's, or a reader's that saves the
    /// last [`StreamId`] it processed and resumes from it after a restart.
    pub fn read_after(&self, topic: &str, cursor: Option<StreamId>, count: usize) -> Vec<Entry> {
        self.lookup(topic).map(|t| t.stream.read_after(cursor, count)).unwrap_or_default()
    }

    /// The latest entry on a topic (pull path). Reading a topic that was
    /// never published or subscribed to returns `None` without creating
    /// it (`Broker::lookup`).
    pub fn latest(&self, topic: &str) -> Option<Entry> {
        self.lookup(topic).and_then(|t| t.stream.last())
    }

    /// Range-read a topic by ID (archive + window, one consistent
    /// snapshot — see [`Stream::range`]). An unknown topic reads as
    /// empty and is not created.
    pub fn range(&self, topic: &str, start: StreamId, end: StreamId) -> Vec<Entry> {
        self.lookup(topic).map(|t| t.stream.range(start, end)).unwrap_or_default()
    }

    /// Range-read a topic by millisecond timestamp. An unknown topic
    /// reads as empty and is not created.
    pub fn range_by_time(&self, topic: &str, start_ms: u64, end_ms: u64) -> Vec<Entry> {
        self.lookup(topic).map(|t| t.stream.range_by_time(start_ms, end_ms)).unwrap_or_default()
    }

    /// Consistent batched scan of a topic by ID: entries plus pre-decoded
    /// records in one pass (see [`Stream::scan_batch`]). An unknown topic
    /// yields an empty batch with no `last_id` — as an
    /// existing-but-never-written topic does, since both read as empty.
    pub fn scan_batch(&self, topic: &str, start: StreamId, end: StreamId) -> ScanBatch {
        self.lookup(topic).map(|t| t.stream.scan_batch(start, end)).unwrap_or_default()
    }

    /// [`Broker::scan_batch`] keyed by millisecond timestamp.
    pub fn scan_batch_by_time(&self, topic: &str, start_ms: u64, end_ms: u64) -> ScanBatch {
        self.scan_batch(topic, StreamId::new(start_ms, 0), StreamId::new(end_ms, u64::MAX))
    }

    /// Consistent columnar scan of a topic (see [`Stream::scan_columns`]):
    /// the decoded fields land in per-field vectors instead of
    /// `Record` structs — what the vectorized query path iterates. An
    /// unknown topic yields an empty batch with the empty snapshot,
    /// mirroring [`Broker::scan_batch`].
    pub fn scan_columns(&self, topic: &str, start: StreamId, end: StreamId) -> ColumnBatch {
        match self.lookup(topic) {
            Some(t) => t.stream.scan_columns(start, end),
            None => ColumnBatch::default(),
        }
    }

    /// [`Broker::scan_columns`] keyed by millisecond timestamp.
    pub fn scan_columns_by_time(&self, topic: &str, start_ms: u64, end_ms: u64) -> ColumnBatch {
        self.scan_columns(topic, StreamId::new(start_ms, 0), StreamId::new(end_ms, u64::MAX))
    }

    /// Bring a columnar scan of `topic` that ran to the topic's end up to
    /// the present (see [`Stream::extend_columns`]). `false`, with `tail`
    /// untouched, when the topic is gone or was re-created since.
    pub fn extend_columns(&self, topic: &str, tail: &mut Arc<ColumnBatch>) -> bool {
        self.lookup(topic).is_some_and(|t| t.stream.extend_columns(tail))
    }

    /// A topic's snapshot (see [`Stream::scan_meta`]); the empty one
    /// (source 0, no IDs) for an unknown topic.
    pub fn scan_meta(&self, topic: &str) -> ScanMeta {
        self.lookup(topic).map(|t| t.stream.scan_meta()).unwrap_or_default()
    }

    /// Entries ever published on a topic (including archived).
    pub fn topic_len(&self, topic: &str) -> usize {
        self.lookup(topic).map(|t| t.stream.total_len()).unwrap_or(0)
    }

    /// Approximate memory footprint of all topic windows (Figure 5's
    /// memory-overhead accounting).
    pub fn approx_memory_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().values().map(|t| t.stream.approx_memory_bytes()).sum::<usize>())
            .sum()
    }

    /// `XINFO`-style statistics for one topic, if it exists.
    pub fn topic_info(&self, topic: &str) -> Option<TopicInfo> {
        let t = self.lookup(topic)?;
        let subscribers = t.readers.lock().subscribers.len();
        Some(TopicInfo {
            name: topic.to_string(),
            window_len: t.stream.len(),
            archived_len: t.stream.archive().map_or(0, |ring| ring.live_len() as usize),
            published: t.published.load(Ordering::Relaxed),
            dropped_subscribers: t.dropped.load(Ordering::Relaxed),
            dropped_entries: t.dropped_entries.load(Ordering::Relaxed),
            subscribers,
            last_id: t.stream.last_id(),
            memory_bytes: t.stream.approx_memory_bytes(),
            clock_regressions: t.stream.clock_regressions(),
        })
    }

    /// Statistics for every topic, sorted by name.
    pub fn info(&self) -> Vec<TopicInfo> {
        let mut out: Vec<TopicInfo> =
            self.topic_names().iter().filter_map(|n| self.topic_info(n)).collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

/// A publisher resolved to one topic, created by [`Broker::publisher`]:
/// the topic's `Arc` plus the broker's shared counters and instruments,
/// so a publish is the counter `fetch_add`s, the window append and the
/// fan-out — no name hash, stripe lock or map probe. Records land exactly
/// as a by-name [`Broker::publish`] would put them (same IDs, counters,
/// instruments and append-then-snapshot delivery order).
///
/// * **Lazy**: the topic is resolved (and, if absent, created) on the
///   first publish, so a vertex that never published has no topic.
/// * **Never stale**: once [`Broker::remove_topic`] has flagged the held
///   topic removed, the next publish resolves the name again and lands in
///   the topic a by-name publish would create.
///
/// Publishes through one handle are serialized (the handle is held
/// locked for the duration of a publish); a vertex owns its handle and
/// never publishes concurrently with itself.
pub struct Publisher {
    broker: Arc<Broker>,
    name: String,
    topic: Mutex<Option<Arc<Topic>>>,
}

impl Publisher {
    /// The topic name this publisher writes to.
    pub fn topic(&self) -> &str {
        &self.name
    }

    /// Run `f` on the live topic, resolving the name first when nothing is
    /// held yet or the held topic was removed.
    fn with_topic<R>(&self, f: impl FnOnce(&Broker, &Topic) -> R) -> R {
        let mut held = self.topic.lock();
        // Acquire pairs with the Release store in `Broker::remove_topic`.
        let live = held.as_ref().is_some_and(|t| !t.removed.load(Ordering::Acquire));
        if !live {
            *held = Some(self.broker.topic(&self.name));
        }
        f(&self.broker, held.as_ref().expect("resolved above"))
    }

    /// [`Broker::publish`] on the resolved topic.
    pub fn publish(&self, ms: u64, payload: impl Into<Bytes>) -> StreamId {
        let payload = payload.into();
        self.with_topic(|broker, t| broker.publish_to(t, ms, payload))
    }

    /// [`Broker::publish_batch`] on the resolved topic.
    pub fn publish_batch(&self, records: impl IntoIterator<Item = (u64, Bytes)>) -> Vec<StreamId> {
        let mut records = records.into_iter().peekable();
        if records.peek().is_none() {
            return Vec::new();
        }
        self.with_topic(|broker, t| broker.publish_batch_to(t, records))
    }
}

impl std::fmt::Debug for Publisher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Publisher").field("topic", &self.name).finish()
    }
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let topics: usize = self.shards.iter().map(|s| s.read().len()).sum();
        f.debug_struct("Broker").field("topics", &topics).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_namespace_holds_many_topics() {
        // Far more topics than stripes: every one must land in exactly one
        // shard and stay reachable through all the namespace accessors.
        let b = Broker::default();
        let names: Vec<String> = (0..128).map(|i| format!("topic-{i}")).collect();
        for (i, n) in names.iter().enumerate() {
            b.publish(n, i as u64, vec![i as u8]);
        }
        let mut expect = names.clone();
        expect.sort();
        assert_eq!(b.topic_names(), expect);
        for n in &names {
            assert!(b.has_topic(n));
            assert_eq!(b.topic_len(n), 1);
        }
        assert_eq!(b.published_total(), 128);
        assert!(b.remove_topic("topic-7"));
        assert!(!b.has_topic("topic-7"));
        assert_eq!(b.topic_names().len(), 127);
    }

    #[test]
    fn shard_assignment_is_stable_and_striped() {
        // The hash must be deterministic (same name, same stripe across
        // calls) and actually spread names over multiple stripes.
        let stripes: std::collections::HashSet<u64> = (0..64)
            .map(|i| topic_shard_hash(&format!("vertex/{i}")) % TOPIC_SHARDS as u64)
            .collect();
        assert!(stripes.len() > TOPIC_SHARDS / 2, "only {} stripes used", stripes.len());
        for name in ["cpu", "apollo/self/health", "a-much-longer-topic-name"] {
            assert_eq!(topic_shard_hash(name), topic_shard_hash(name));
        }
    }

    #[test]
    fn concurrent_publishes_to_distinct_topics_land_cleanly() {
        let b = Arc::new(Broker::default());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        b.publish(&format!("worker-{t}"), i, vec![t as u8]);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(b.published_total(), 8 * 200);
        for t in 0..8 {
            assert_eq!(b.topic_len(&format!("worker-{t}")), 200);
        }
        // Contention is workload-dependent; the counter just has to be
        // readable and consistent with `streams.shard_contention` export.
        let _ = b.shard_contention();
    }

    #[test]
    fn shard_contention_counter_is_exported() {
        let reg = apollo_obs::Registry::new();
        let b = Broker::default();
        b.instrument(&reg);
        b.publish("t", 1, vec![1]);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("streams.shard_contention"), b.shard_contention());
    }

    #[test]
    fn publish_subscribe_delivers_in_order() {
        let b = Broker::default();
        let sub = b.subscribe("cpu");
        for i in 0..10u64 {
            b.publish("cpu", i, vec![i as u8]);
        }
        let got = sub.drain();
        assert_eq!(got.len(), 10);
        assert!(got.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn subscriber_sees_only_post_subscription_entries() {
        let b = Broker::default();
        b.publish("t", 1, vec![1]);
        let sub = b.subscribe("t");
        b.publish("t", 2, vec![2]);
        let got = sub.drain();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload[0], 2);
    }

    #[test]
    fn multiple_subscribers_each_get_every_entry() {
        let b = Broker::default();
        let subs: Vec<_> = (0..5).map(|_| b.subscribe("t")).collect();
        for i in 0..20u64 {
            b.publish("t", i, vec![]);
        }
        for s in &subs {
            assert_eq!(s.drain().len(), 20);
        }
    }

    #[test]
    fn dropped_subscription_is_pruned() {
        let b = Broker::default();
        let sub = b.subscribe("t");
        drop(sub);
        // Publishing after drop must not panic and must prune.
        b.publish("t", 1, vec![]);
        let t = b.topic("t");
        assert_eq!(t.readers.lock().subscribers.len(), 0);
    }

    #[test]
    fn latest_and_range_pull_paths() {
        let b = Broker::default();
        for i in 0..5u64 {
            b.publish("t", i * 10, vec![i as u8]);
        }
        assert_eq!(b.latest("t").unwrap().payload[0], 4);
        assert_eq!(b.range_by_time("t", 10, 30).len(), 3);
        assert!(b.latest("missing").is_none());
        assert!(b.range_by_time("missing", 0, 100).is_empty());
    }

    #[test]
    fn remove_topic() {
        let b = Broker::default();
        b.publish("t", 1, vec![]);
        assert!(b.has_topic("t"));
        assert!(b.remove_topic("t"));
        assert!(!b.has_topic("t"));
        assert!(!b.remove_topic("t"));
        assert_eq!(b.topic_len("t"), 0);
    }

    #[test]
    fn topic_info_reports_stats() {
        let b = Broker::new(StreamConfig::bounded(4));
        assert!(b.topic_info("t").is_none());
        let _sub = b.subscribe("t");
        for i in 0..10u64 {
            b.publish("t", i, vec![0u8; 8]);
        }
        let info = b.topic_info("t").expect("exists");
        assert_eq!(info.window_len, 4, "bounded window");
        assert_eq!(info.archived_len, 6, "evicted to archive");
        assert_eq!(info.published, 10);
        assert_eq!(info.subscribers, 1);
        assert_eq!(info.dropped_entries, 0);
        assert_eq!(info.last_id.unwrap().ms, 9);
        assert!(info.memory_bytes > 0);
        let all = b.info();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0], info);
    }

    #[test]
    fn blocking_recv_wakes_on_publish() {
        let b = Arc::new(Broker::default());
        let sub = b.subscribe("t");
        let b2 = Arc::clone(&b);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            b2.publish("t", 1, vec![42]);
        });
        let got = sub.recv_timeout(Duration::from_secs(5)).expect("entry arrives");
        assert_eq!(got.payload[0], 42);
        h.join().unwrap();
    }

    #[test]
    fn drop_oldest_keeps_newest_entries() {
        let b = Broker::default();
        let sub = b.subscribe_with(
            "t",
            SubscribeOptions { capacity: 4, policy: BackpressurePolicy::DropOldest },
        );
        for i in 0..10u64 {
            b.publish("t", i, vec![i as u8]);
        }
        let got = sub.drain();
        assert_eq!(got.len(), 4);
        let values: Vec<u8> = got.iter().map(|e| e.payload[0]).collect();
        assert_eq!(values, vec![6, 7, 8, 9], "oldest dropped, newest kept");
        assert_eq!(sub.dropped_entries(), 6);
        assert_eq!(b.topic_info("t").unwrap().dropped_entries, 6);
        assert!(!sub.is_disconnected());
        // The topic's stream itself lost nothing.
        assert_eq!(b.topic_len("t"), 10);
    }

    #[test]
    fn disconnect_slow_kicks_subscriber_but_keeps_buffer() {
        let b = Broker::default();
        let sub = b.subscribe_with(
            "t",
            SubscribeOptions { capacity: 2, policy: BackpressurePolicy::DisconnectSlow },
        );
        for i in 0..5u64 {
            b.publish("t", i, vec![i as u8]);
        }
        assert!(sub.is_disconnected());
        // Buffered entries drain; nothing new arrives.
        let got = sub.drain();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].payload[0], 0);
        assert!(sub.recv_timeout(Duration::from_millis(10)).is_none());
        let info = b.topic_info("t").unwrap();
        assert_eq!(info.subscribers, 0, "publisher pruned the slow subscriber");
        assert_eq!(info.dropped_subscribers, 1);
    }

    #[test]
    fn block_policy_is_lossless_with_live_consumer() {
        let b = Arc::new(Broker::default());
        let sub = b.subscribe_with(
            "t",
            SubscribeOptions { capacity: 1, policy: BackpressurePolicy::Block },
        );
        let b2 = Arc::clone(&b);
        let publisher = std::thread::spawn(move || {
            for i in 0..50u64 {
                b2.publish("t", i, vec![i as u8]);
            }
        });
        let mut got = Vec::new();
        while got.len() < 50 {
            if let Some(e) = sub.recv_timeout(Duration::from_secs(5)) {
                got.push(e);
            } else {
                panic!("timed out with {} entries", got.len());
            }
        }
        publisher.join().unwrap();
        assert!(got.windows(2).all(|w| w[0].id < w[1].id));
        assert_eq!(sub.dropped_entries(), 0);
    }

    #[test]
    fn blocked_subscriber_does_not_stall_concurrent_publish() {
        // Regression: delivery used to happen while holding the topic's
        // subscriber list lock, so one subscriber blocked on a full
        // `Block`-policy queue serialized every other publisher (they
        // queued on the lock, not on their own entries). A publish must
        // now reach healthy subscribers even while another publisher is
        // parked on the slow subscriber's queue.
        let b = Arc::new(Broker::default());
        let ok = b.subscribe("t"); // healthy; registered first, delivered first
        let blocked = b.subscribe_with(
            "t",
            SubscribeOptions { capacity: 1, policy: BackpressurePolicy::Block },
        );
        b.publish("t", 0, vec![0]); // fills the blocked subscriber's queue
        assert_eq!(ok.recv_timeout(Duration::from_secs(5)).unwrap().payload[0], 0);

        let b1 = Arc::clone(&b);
        let p1 = std::thread::spawn(move || b1.publish("t", 1, vec![1]));
        // p1 delivered to `ok` and is now parked in the blocked queue's
        // push; once `ok` has entry 1 we know p1 is past the healthy leg.
        assert_eq!(ok.recv_timeout(Duration::from_secs(5)).unwrap().payload[0], 1);

        let b2 = Arc::clone(&b);
        let p2 = std::thread::spawn(move || b2.publish("t", 2, vec![2]));
        // The concurrent publish must reach the healthy subscriber promptly
        // even though p1 is still blocked (the old code deadlocked here
        // until the slow subscriber drained).
        let got = ok
            .recv_timeout(Duration::from_secs(5))
            .expect("concurrent publish delayed by an unrelated blocked subscriber");
        assert_eq!(got.payload[0], 2);
        assert_eq!(blocked.backlog(), 1, "slow queue still full while others progressed");

        // Unblock the parked publishers and let them finish.
        drop(blocked); // closes the queue; blocked pushes observe Gone
        p1.join().unwrap();
        p2.join().unwrap();
        assert_eq!(b.topic_len("t"), 3, "the stream itself lost nothing");
    }

    #[test]
    fn instrumented_broker_exports_topic_metrics() {
        let b = Broker::default();
        b.publish("pre", 0, vec![]); // topic exists before instrumentation
        let reg = apollo_obs::Registry::new();
        b.instrument(&reg);
        let sub = b.subscribe_with(
            "pre",
            SubscribeOptions { capacity: 2, policy: BackpressurePolicy::DropOldest },
        );
        for i in 1..=5u64 {
            b.publish("pre", i, vec![]);
        }
        let snap = reg.snapshot();
        // Publish counters are backed by the broker's lifetime counts, so
        // the pre-instrumentation publish shows up too.
        assert_eq!(snap.counter("streams.topic.pre.published"), 6);
        assert_eq!(snap.counter("streams.published_total"), 6);
        assert_eq!(b.published_total(), 6);
        assert_eq!(snap.counter("streams.topic.pre.dropped_entries"), 3);
        assert_eq!(snap.counter("streams.dropped_entries_total"), 3);
        // Latency/backlog sample 1-in-64 publishes keyed on the topic's
        // publish sequence; "pre"'s seq 0 predates instrumentation, so
        // nothing sampled yet — the backlog gauge is registered but unset.
        assert_eq!(snap.histograms["streams.publish_ns"].count, 0);
        assert_eq!(snap.gauges["streams.topic.pre.backlog"], 0.0);
        // Topics created after instrumentation are covered too, and their
        // first publish (seq 0) lands a latency sample + backlog reading.
        b.publish("post", 1, vec![]);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("streams.topic.post.published"), 1);
        assert_eq!(snap.counter("streams.published_total"), 7);
        assert_eq!(snap.histograms["streams.publish_ns"].count, 1);
        assert_eq!(snap.gauges["streams.topic.post.backlog"], 0.0);
        drop(sub);
    }

    #[test]
    fn uninstrumented_broker_exports_nothing() {
        let b = Broker::default();
        let reg = apollo_obs::Registry::noop();
        b.instrument(&reg); // disabled registry: stays uninstrumented
        b.publish("t", 1, vec![]);
        assert_eq!(reg.snapshot(), apollo_obs::Snapshot::default());
    }

    #[test]
    fn topic_info_surfaces_clock_regressions() {
        let b = Broker::default();
        b.publish("t", 100, vec![]);
        b.publish("t", 40, vec![]); // wall clock stepped backwards
        let info = b.topic_info("t").unwrap();
        assert_eq!(info.clock_regressions, 1);
        assert_eq!(info.last_id, Some(StreamId::new(100, 1)), "clamped forward");
    }

    #[test]
    fn reads_never_create_topics() {
        let b = Broker::default();
        // Every read accessor probed before any publish/subscribe...
        assert!(b.latest("ghost").is_none());
        assert!(b.range("ghost", StreamId::MIN, StreamId::MAX).is_empty());
        assert!(b.range_by_time("ghost", 0, u64::MAX).is_empty());
        let batch = b.scan_batch("ghost", StreamId::MIN, StreamId::MAX);
        assert!(batch.entries.is_empty() && batch.records.is_empty());
        assert_eq!(b.scan_meta("ghost"), ScanMeta::default());
        assert_eq!(b.topic_len("ghost"), 0);
        assert!(b.read_after("ghost", None, 10).is_empty());
        assert!(b.topic_info("ghost").is_none());
        // ...leaves the namespace untouched: no phantom topic registered.
        assert!(!b.has_topic("ghost"));
        assert!(b.topic_names().is_empty());
        // Read-before-first-publish then sees the data once it arrives.
        b.publish("ghost", 7, vec![42]);
        assert_eq!(b.latest("ghost").unwrap().payload[0], 42);
        assert_eq!(b.range_by_time("ghost", 7, 7).len(), 1);
    }

    #[test]
    fn publish_batch_matches_sequential_publishes() {
        let b = Broker::default();
        let sub = b.subscribe("batched");
        let records: Vec<(u64, Bytes)> =
            (0..10u64).map(|i| (i, Bytes::from(vec![i as u8]))).collect();
        let ids = b.publish_batch("batched", records.clone());

        // Same IDs as the sequential path produces on a fresh topic.
        let singles: Vec<StreamId> =
            records.iter().map(|(ms, p)| b.publish("sequential", *ms, p.clone())).collect();
        assert_eq!(ids, singles);

        // Subscribers and cursor readers see every record, in order.
        let delivered = sub.drain();
        assert_eq!(delivered.iter().map(|e| e.id).collect::<Vec<_>>(), ids);
        let read = b.read_after("batched", None, 100);
        assert_eq!(read.iter().map(|e| e.id).collect::<Vec<_>>(), ids);

        // Counters stay exact.
        assert_eq!(b.topic_info("batched").unwrap().published, 10);
        assert_eq!(b.published_total(), 20);
        assert_eq!(b.topic_len("batched"), 10);

        // Empty batch is a no-op that does not even create the topic.
        assert!(b.publish_batch("empty", Vec::new()).is_empty());
        assert!(!b.has_topic("empty"));
    }

    #[test]
    fn cursor_read_stitches_evicted_entries() {
        // A cursor that trails the live window (retention evicted entries
        // before the reader got to them) is caught up from the archive,
        // not silently skipped past the gap.
        let b = Broker::new(StreamConfig::bounded(2));
        let first = b.publish("t", 0, vec![0]);
        for i in 1..10u64 {
            b.publish("t", i, vec![i as u8]);
        }
        // Window holds the last 2 entries; the 8 older ones are archived.
        let got = b.read_after("t", None, 100);
        assert_eq!(got.len(), 10, "no entry skipped despite eviction");
        assert!(got.windows(2).all(|w| w[0].id < w[1].id));
        assert_eq!(got[0].payload[0], 0);
        // Resuming from a saved cursor delivers only what follows it.
        let ids: Vec<StreamId> = got.iter().map(|e| e.id).collect();
        let rest: Vec<StreamId> =
            b.read_after("t", Some(first), 100).iter().map(|e| e.id).collect();
        assert_eq!(rest, ids[1..]);
        assert!(b.read_after("t", ids.last().copied(), 100).is_empty(), "caught up");
    }

    #[test]
    fn a_cursor_lapped_by_the_ring_reads_from_its_floor_and_is_counted() {
        // The reader has read nothing while 98 entries were evicted into an
        // 8-slot ring: the 90 oldest are gone. The read starts at the ring's
        // floor, and the skip is not silent.
        let path = std::env::temp_dir().join(format!("apollo-lapped-{}.slab", std::process::id()));
        let cfg = crate::slab::SlabConfig { max_series: 1, slots: 8, ..Default::default() };
        let store = crate::slab::SlabStore::create(&path, cfg).unwrap();
        let b = Broker::new(StreamConfig::bounded(2).with_slab(store));
        let reg = apollo_obs::Registry::new();
        b.instrument(&reg);
        let start = b.publish("t", 0, vec![0]);
        for i in 1..100u64 {
            b.publish("t", i, vec![i as u8]);
        }
        let got = b.read_after("t", Some(start), 1_000);
        assert_eq!(got.iter().map(|e| e.id.ms).collect::<Vec<_>>(), (90..100).collect::<Vec<_>>());
        assert_eq!(reg.snapshot().counter("streams.topic.t.cursor_lapped"), 1);
        assert!(b.read_after("t", got.last().map(|e| e.id), 1_000).is_empty());
        assert_eq!(reg.snapshot().counter("streams.topic.t.cursor_lapped"), 1, "caught up");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scan_batch_passthrough_decodes_records() {
        let b = Broker::default();
        for i in 0..4u64 {
            let r = crate::codec::Record::measured(i * 1_000_000, i as f64);
            b.publish("cpu", i, r.encode());
        }
        let batch = b.scan_batch_by_time("cpu", 1, 2);
        assert_eq!(batch.entries.len(), 2);
        assert_eq!(batch.records.len(), 2);
        assert_eq!(batch.corrupt, 0);
        assert_eq!(batch.records[0].value, 1.0);
        assert_eq!(batch.last_id, b.scan_meta("cpu").last_id);
    }

    #[test]
    fn instrumented_broker_exports_scan_and_lag_counters() {
        let b = Broker::new(StreamConfig::bounded(2));
        let reg = apollo_obs::Registry::new();
        b.instrument(&reg);
        for i in 0..6u64 {
            b.publish("t", i, vec![]);
        }
        assert_eq!(b.read_after("t", None, 100).len(), 6);
        let snap = reg.snapshot();
        // The archive held every evicted entry and every eviction fit its
        // slot, so nothing was lapped or rejected — but both counters are
        // registered and exported.
        for name in ["cursor_lapped", "archive_rejected"] {
            let key = format!("streams.topic.t.{name}");
            assert!(snap.counters.contains_key(&key), "{key}");
            assert_eq!(snap.counter(&key), 0, "{key}");
        }
    }

    #[test]
    fn concurrent_publishers_no_loss() {
        let b = Arc::new(Broker::default());
        let sub = b.subscribe("t");
        let mut handles = Vec::new();
        for t in 0..4 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    b.publish("t", t * 10_000 + i, vec![]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sub.drain().len(), 4000);
        assert_eq!(b.topic_len("t"), 4000);
    }
}
