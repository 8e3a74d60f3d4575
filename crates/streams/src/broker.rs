//! Pub-Sub over streams: a subscription is a cursor.
//!
//! The [`Broker`] is SCoRe's communication fabric: every vertex owns a
//! topic (backed by a [`Stream`]); downstream vertices either **read**
//! the entries after a cursor they keep (how Insight vertices consume
//! Facts, flow ③/④ of Figure 1b: each holds a [`Reader`] and a cursor per
//! input, and its step's [`Broker::wake_on`] waker runs it after a
//! publish) or **pull** the latest value / a timestamp range on demand
//! (how the Query Executor and middleware clients read, flow ⑥).
//!
//! As in Redis Streams' `XREAD BLOCK`, a reader is a cursor — the last
//! [`StreamId`] it took — and the stream holds no copy for it. A
//! [`Subscription`] keeps its cursor for a blocking client; a reader
//! that must survive a crash saves its own and reads by
//! [`Broker::read_after`]. A slow subscriber holds no memory: it loses
//! rows only when retention laps its cursor, and that read is counted in
//! `streams.topic.<name>.cursor_lapped` as any cursor reader's is.
//!
//! A publish appends and then calls the topic's **wakers**: one per
//! subscription and one per derived reader ([`Broker::wake_on`]). The
//! waker list is one mutex that subscribing and dropping edit and a
//! publish holds while it calls the wakers after its append, so a waker
//! must not publish to, subscribe to, or drop a waker on its own topic.
//! A subscription's waker unparks the threads blocked in its
//! [`Subscription::recv_timeout`], if any.

use crate::entry::Entry;
use crate::id::StreamId;
use crate::stream::{ColumnBatch, ScanBatch, ScanMeta, Stream, StreamConfig};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// What a publish calls after its append.
type Waker = Arc<dyn Fn() + Send + Sync>;

struct Topic {
    stream: Stream,
    /// Subscribing and dropping edit it; a publish calls the wakers under it.
    wakers: Mutex<Vec<Waker>>,
    /// Behind an `Arc` so [`Broker::instrument`] can export the same cell
    /// as `streams.topic.<name>.published` without a second increment on
    /// the publish hot path.
    published: Arc<AtomicU64>,
    /// Set by [`Broker::remove_topic`]: a [`Publisher`] still holding this
    /// topic resolves the name again instead of publishing into a topic
    /// nobody can read.
    removed: AtomicBool,
}

impl Topic {
    /// Export the topic's publish, lapped-cursor and rejected-eviction
    /// counters, each backed by the cell its hot path already increments.
    fn register(&self, registry: &apollo_obs::Registry, name: &str) {
        for (metric, cell) in [
            ("published", Arc::clone(&self.published)),
            ("cursor_lapped", self.stream.cursor_lapped_cell()),
            ("archive_rejected", self.stream.archive_rejected_cell()),
        ] {
            let _ = registry.counter_backed_by(&format!("streams.topic.{name}.{metric}"), cell);
        }
    }
}

/// Broker-wide instrument handles (publish latency spans all topics).
struct BrokerObs {
    registry: apollo_obs::Registry,
    publish_ns: apollo_obs::Histogram,
}

/// A subscription's place in its topic's stream.
struct Cursor {
    /// The last ID taken; `None` before the topic's first append.
    last: Option<StreamId>,
    /// Room for the one entry [`Subscription::try_recv`] reads.
    one: Vec<Entry>,
}

/// A cursor over one topic's stream, from [`Broker::subscribe`]: it takes
/// every entry published after the subscription was created, in order.
/// The stream keeps the entries; the subscription keeps only its cursor.
pub struct Subscription {
    /// Registers the subscription's waker; holds the topic.
    waker: PublishWaker,
    cursor: Mutex<Cursor>,
    /// The threads blocked in [`Subscription::recv_timeout`], which the
    /// waker unparks. A leaf lock: nothing is taken under it.
    waiters: Arc<Mutex<Vec<Thread>>>,
}

impl Subscription {
    /// Read after the cursor onto `out`, up to `count`, and move the cursor
    /// to the last entry read.
    fn take(&self, cursor: &mut Option<StreamId>, count: usize, out: &mut Vec<Entry>) {
        let before = out.len();
        self.waker.topic.stream.read_after_into(*cursor, count, out);
        if out.len() > before {
            *cursor = out.last().map(|e| e.id);
        }
    }

    /// Receive the next entry, blocking up to `timeout` (`Duration::MAX`:
    /// until one arrives).
    ///
    /// No wake-up is lost: the thread joins the waiters before it re-checks
    /// the stream, so a publish either appended before the re-check or
    /// finds it listed, and an unpark before the park leaves its token.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Entry> {
        if let Some(entry) = self.try_recv() {
            return Some(entry);
        }
        let deadline = Instant::now().checked_add(timeout);
        let me = thread::current();
        self.waiters.lock().push(me.clone());
        let got = loop {
            if let Some(entry) = self.try_recv() {
                break Some(entry);
            }
            match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => thread::park(),
                Some(left) if left.is_zero() => break None,
                Some(left) => thread::park_timeout(left),
            }
        };
        self.waiters.lock().retain(|t| t.id() != me.id());
        got
    }

    /// Receive without blocking.
    pub fn try_recv(&self) -> Option<Entry> {
        let mut cursor = self.cursor.lock();
        let Cursor { last, one } = &mut *cursor;
        self.take(last, 1, one);
        one.pop()
    }

    /// Take every entry published since the last one taken.
    pub fn drain(&self) -> Vec<Entry> {
        let mut out = Vec::new();
        self.take(&mut self.cursor.lock().last, usize::MAX, &mut out);
        out
    }
}

/// A topic's stream, from [`Broker::reader`], for a reader that keeps its
/// own cursor: it holds the topic as a [`Publisher`] does, with no lock
/// and no waker of its own.
pub struct Reader(Arc<Topic>);

impl Reader {
    /// [`Stream::read_after_into`] on the topic's stream.
    pub fn read_after_into(&self, cursor: Option<StreamId>, count: usize, out: &mut Vec<Entry>) {
        self.0.stream.read_after_into(cursor, count, out);
    }

    /// The topic's most recent ID.
    pub fn last_id(&self) -> Option<StreamId> {
        self.0.stream.last_id()
    }
}

/// A waker on one topic, from [`Broker::wake_on`]: every publish to the
/// topic calls it after the append. Dropping this removes it.
pub struct PublishWaker {
    waker: Waker,
    topic: Arc<Topic>,
}

impl Drop for PublishWaker {
    fn drop(&mut self) {
        self.topic.wakers.lock().retain(|waker| !Arc::ptr_eq(waker, &self.waker));
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
    /// Wakers a publish calls: one per subscription and per
    /// [`Broker::wake_on`] reader.
    pub readers: usize,
    /// Most recent ID.
    pub last_id: Option<StreamId>,
    /// Approximate window memory.
    pub memory_bytes: usize,
    /// Auto-ID appends whose wall-clock `ms` regressed and were clamped
    /// forward to keep IDs monotonic (see [`Stream::clock_regressions`]).
    pub clock_regressions: u64,
}

/// The pub-sub broker: a namespace of topics.
pub struct Broker {
    /// Topic namespace. A vertex's publishes hold its topic's `Arc` (see
    /// [`Publisher`]), so the map is read on lookups and registration
    /// only.
    topics: RwLock<HashMap<String, Arc<Topic>>>,
    default_config: StreamConfig,
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
            topics: RwLock::default(),
            default_config,
            published_total: Arc::new(AtomicU64::new(0)),
            obs: OnceLock::new(),
        }
    }

    /// Wire publishes into `registry`: per-topic publish, lapped-cursor and
    /// rejected-eviction counters (`streams.topic.<name>.*`), broker-wide
    /// totals, and a publish-latency histogram (`streams.publish_ns`).
    /// Existing and future topics are both covered. Idempotent; a disabled
    /// registry leaves the broker uninstrumented.
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
        // Slab-exhaustion fallbacks: topics that wanted a series of the
        // store they spill to and were refused one (directory full or
        // name too long).
        if let crate::SpillBackend::Slab(store) = &self.default_config.spill {
            let _ = registry.counter_backed_by(
                "streams.slab.dir_full",
                Arc::clone(store.series_fallbacks_cell()),
            );
        }
        let registry = &self.obs.get().expect("just set").registry;
        for (name, t) in self.topics.read().iter() {
            t.register(registry, name);
        }
    }

    /// Lifetime publishes across all topics (also exported to an
    /// instrumented registry as `streams.published_total`).
    pub fn published_total(&self) -> u64 {
        self.published_total.load(Ordering::Relaxed)
    }

    /// Fetch-or-create a topic. This is the **write/registration path**
    /// (`publish*`, `subscribe`, `reader`, `wake_on`); every read accessor
    /// goes through [`Broker::lookup`] instead and never creates topics.
    fn topic(&self, name: &str) -> Arc<Topic> {
        if let Some(t) = self.topics.read().get(name) {
            return Arc::clone(t);
        }
        let mut topics = self.topics.write();
        Arc::clone(topics.entry(name.to_string()).or_insert_with(|| {
            let t = Topic {
                stream: Stream::new(name, self.default_config.clone()),
                wakers: Mutex::default(),
                published: Arc::new(AtomicU64::new(0)),
                removed: AtomicBool::new(false),
            };
            if let Some(b) = self.obs.get() {
                t.register(&b.registry, name);
            }
            Arc::new(t)
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
        self.topics.read().get(name).map(Arc::clone)
    }

    /// Topic names currently registered.
    pub fn topic_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.topics.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// True when a topic exists (has been published or subscribed to).
    pub fn has_topic(&self, name: &str) -> bool {
        self.topics.read().contains_key(name)
    }

    /// Remove a topic from the namespace. Existing subscriptions stop
    /// receiving, and a [`Publisher`] resolved to the topic creates it
    /// anew on its next publish, as a by-name publish would. Returns
    /// whether the topic existed.
    ///
    /// On a slab-backed broker the topic's slab series is not retired
    /// here: it survives until [`crate::SlabStore::compact`] reclaims it.
    /// A topic re-created under the same name before then re-attaches the
    /// series and inherits its archived rows (not the rows its window held
    /// at removal), and its new IDs are clamped past the old ones.
    pub fn remove_topic(&self, name: &str) -> bool {
        let removed = self.topics.write().remove(name);
        if let Some(t) = &removed {
            // Release pairs with the Acquire load in `Publisher::with_topic`.
            t.removed.store(true, Ordering::Release);
        }
        removed.is_some()
    }

    /// A publisher resolved to `topic`: what a vertex that owns a topic
    /// holds instead of the name, so its publishes skip the namespace
    /// lookup (see [`Publisher`]). Creating one does not create the topic.
    pub fn publisher(self: &Arc<Self>, topic: impl Into<Arc<str>>) -> Publisher {
        Publisher { broker: Arc::clone(self), name: topic.into(), topic: None }
    }

    /// Publish a payload on `topic` at millisecond timestamp `ms`: append
    /// it to the topic's stream, then call the topic's wakers. The waker
    /// list is read **after the append**, so a `subscribe()` that returned
    /// before this call began reads the entry and is woken for it.
    pub fn publish(&self, topic: &str, ms: u64, payload: impl Into<Bytes>) -> StreamId {
        self.publish_to(&self.topic(topic), ms, payload.into())
    }

    fn publish_to(&self, t: &Topic, ms: u64, payload: Bytes) -> StreamId {
        let seq = t.published.fetch_add(1, Ordering::Relaxed);
        self.published_total.fetch_add(1, Ordering::Relaxed);
        // A clock read costs more than the rest of an uncontended publish,
        // so the latency histogram samples one publish in
        // `apollo_obs::SAMPLE_PERIOD`; counters stay exact.
        let start = (self.obs.get().is_some() && apollo_obs::sampled(seq)).then(Instant::now);
        let id = t.stream.append(ms, payload);
        self.wake(t, start);
        id
    }

    /// Publish a batch of `(ms, payload)` records on `topic` under a
    /// single topic lookup, a single window-lock acquisition, and a
    /// single waker-list read — the amortized flush SCoRe vertices and the
    /// self-observer use when emitting several records at once.
    /// Semantically identical to calling [`Broker::publish`] per record
    /// (same IDs, same order, same exact counters); only the lock traffic
    /// is amortized. Returns the assigned IDs in record order — the only
    /// allocation.
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
        let ids = t.stream.append_batch(records);
        let n = ids.len() as u64;
        t.published.fetch_add(n, Ordering::Relaxed);
        self.published_total.fetch_add(n, Ordering::Relaxed);
        self.wake(t, start);
        ids
    }

    /// Call `t`'s wakers under its waker lock, taken after the append, and
    /// record a sampled publish's latency since `start`. Publish counts
    /// ride `t.published` / `Broker::published_total` (exported via
    /// `counter_backed_by`), so the instrumented hot path adds only a
    /// branch when unsampled.
    fn wake(&self, t: &Topic, start: Option<Instant>) {
        t.wakers.lock().iter().for_each(|wake| wake());
        if let (Some(start), Some(obs)) = (start, self.obs.get()) {
            obs.publish_ns.observe(start.elapsed().as_nanos() as u64);
        }
    }

    /// Subscribe to a topic: the subscription reads every entry published
    /// from now on, from its cursor at the topic's last ID.
    pub fn subscribe(&self, topic: &str) -> Subscription {
        // Room for one waiter, so a single blocked receiver never allocates.
        let waiters = Arc::new(Mutex::new(Vec::<Thread>::with_capacity(1)));
        let waker = {
            let waiters = Arc::clone(&waiters);
            self.wake_on(topic, move || waiters.lock().iter().for_each(Thread::unpark))
        };
        let last = waker.topic.stream.last_id();
        Subscription {
            waker,
            cursor: Mutex::new(Cursor { last, one: Vec::with_capacity(1) }),
            waiters,
        }
    }

    /// A handle on `topic`'s stream for a reader that keeps its own cursor
    /// and learns of publishes through [`Broker::wake_on`]. Creates the topic.
    pub fn reader(&self, topic: &str) -> Reader {
        Reader(self.topic(topic))
    }

    /// Call `waker` after every publish to `topic` until the returned handle
    /// is dropped: how a derived reader learns its input moved. Creates the topic.
    ///
    /// A waker runs under its topic's waker lock, so it must not publish
    /// to, subscribe to, or drop a waker on that same topic: each would
    /// wait on the lock its own publish holds. Another topic is fine.
    pub fn wake_on(&self, topic: &str, waker: impl Fn() + Send + Sync + 'static) -> PublishWaker {
        let t = self.topic(topic);
        let waker: Waker = Arc::new(waker);
        t.wakers.lock().push(Arc::clone(&waker));
        PublishWaker { waker, topic: t }
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
        self.topics.read().values().map(|t| t.stream.approx_memory_bytes()).sum()
    }

    /// `XINFO`-style statistics for one topic, if it exists.
    pub fn topic_info(&self, topic: &str) -> Option<TopicInfo> {
        let t = self.lookup(topic)?;
        let readers = t.wakers.lock().len();
        Some(TopicInfo {
            name: topic.to_string(),
            window_len: t.stream.len(),
            archived_len: t.stream.archive().map_or(0, |ring| ring.live_len() as usize),
            published: t.published.load(Ordering::Relaxed),
            readers,
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
/// wakers — no namespace lock or map probe, and no lock of its own. Records land exactly
/// as a by-name [`Broker::publish`] would put them (same IDs, counters,
/// instruments and append-then-wake order).
///
/// * **Lazy**: the topic is resolved (and, if absent, created) on the
///   first publish, so a vertex that never published has no topic.
/// * **Never stale**: once [`Broker::remove_topic`] has flagged the held
///   topic removed, the next publish resolves the name again and lands in
///   the topic a by-name publish would create.
///
/// A publish takes the handle by `&mut`: its owner holds it exclusively
/// (an event fact's step) or under a lock it already takes for the record
/// (a vertex's state lock), so publishes through one handle are serialized
/// without a lock of the handle's own.
pub struct Publisher {
    broker: Arc<Broker>,
    /// Shared with the handle's owner, which names itself after its topic.
    name: Arc<str>,
    topic: Option<Arc<Topic>>,
}

impl Publisher {
    /// The topic name this publisher writes to.
    pub fn topic(&self) -> &str {
        &self.name
    }

    /// Run `f` on the live topic, resolving the name first when nothing is
    /// held yet or the held topic was removed.
    fn with_topic<R>(&mut self, f: impl FnOnce(&Broker, &Topic) -> R) -> R {
        // Acquire pairs with the Release store in `Broker::remove_topic`.
        let live = self.topic.as_ref().is_some_and(|t| !t.removed.load(Ordering::Acquire));
        if !live {
            self.topic = Some(self.broker.topic(&self.name));
        }
        f(&self.broker, self.topic.as_ref().expect("resolved above"))
    }

    /// [`Broker::publish`] on the resolved topic.
    pub fn publish(&mut self, ms: u64, payload: impl Into<Bytes>) -> StreamId {
        let payload = payload.into();
        self.with_topic(|broker, t| broker.publish_to(t, ms, payload))
    }

    /// [`Broker::publish_batch`] on the resolved topic.
    pub fn publish_batch(
        &mut self,
        records: impl IntoIterator<Item = (u64, Bytes)>,
    ) -> Vec<StreamId> {
        let mut records = records.into_iter().peekable();
        if records.peek().is_none() {
            return Vec::new();
        }
        self.with_topic(|broker, t| broker.publish_batch_to(t, records))
    }
}

impl std::fmt::Debug for Publisher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Publisher").field("topic", &&*self.name).finish()
    }
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Broker").field("topics", &self.topics.read().len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The frame of a measured record of value `i` at `i` ms: what a
    /// ring archives.
    fn rec(i: u64) -> Bytes {
        crate::Record::measured(i * 1_000_000, i as f64).encode()
    }

    #[test]
    fn namespace_holds_many_topics() {
        // Every topic stays reachable through all the namespace accessors.
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
        assert_eq!(t.wakers.lock().len(), 0);
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
            b.publish("t", i, rec(i));
        }
        let info = b.topic_info("t").expect("exists");
        assert_eq!(info.window_len, 4, "bounded window");
        assert_eq!(info.archived_len, 6, "evicted to archive");
        assert_eq!(info.published, 10);
        assert_eq!(info.readers, 1);
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
    fn a_blocking_recv_without_a_deadline_waits_for_a_publish() {
        // `Duration::MAX` overflows any deadline: the receiver parks until
        // an entry arrives.
        let b = Arc::new(Broker::default());
        let sub = b.subscribe("t");
        let b2 = Arc::clone(&b);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            b2.publish("t", 1, vec![7]);
        });
        let got = sub.recv_timeout(Duration::MAX).expect("entry arrives");
        assert_eq!(got.payload[0], 7);
        h.join().unwrap();
    }

    #[test]
    fn instrumented_broker_exports_topic_metrics() {
        let b = Broker::default();
        b.publish("pre", 0, vec![]); // topic exists before instrumentation
        let reg = apollo_obs::Registry::new();
        b.instrument(&reg);
        for i in 1..=5u64 {
            b.publish("pre", i, vec![]);
        }
        let snap = reg.snapshot();
        // Publish counters are backed by the broker's lifetime counts, so
        // the pre-instrumentation publish shows up too.
        assert_eq!(snap.counter("streams.topic.pre.published"), 6);
        assert_eq!(snap.counter("streams.published_total"), 6);
        assert_eq!(b.published_total(), 6);
        // Latency samples 1-in-64 publishes keyed on the topic's publish
        // sequence; "pre"'s seq 0 predates instrumentation, so nothing
        // sampled yet.
        assert_eq!(snap.histograms["streams.publish_ns"].count, 0);
        // Topics created after instrumentation are covered too, and their
        // first publish (seq 0) lands a latency sample.
        b.publish("post", 1, vec![]);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("streams.topic.post.published"), 1);
        assert_eq!(snap.counter("streams.published_total"), 7);
        assert_eq!(snap.histograms["streams.publish_ns"].count, 1);
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
        let sub = b.subscribe("t");
        let first = b.publish("t", 0, rec(0));
        for i in 1..10u64 {
            b.publish("t", i, rec(i));
        }
        // Window holds the last 2 entries; the 8 older ones are archived.
        let got = b.read_after("t", None, 100);
        assert_eq!(got.len(), 10, "no entry skipped despite eviction");
        assert_eq!(
            sub.drain(),
            got,
            "an undrained subscription reads the archive, then the window"
        );
        assert!(sub.drain().is_empty());
        assert!(got.windows(2).all(|w| w[0].id < w[1].id));
        assert_eq!(got[0].payload, rec(0));
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
        // floor, and the skip is not silent — whether the cursor is the
        // caller's, read by name, or a subscription's.
        for through_subscription in [false, true] {
            let path = std::env::temp_dir()
                .join(format!("apollo-lapped-{}-{through_subscription}.slab", std::process::id()));
            let cfg = crate::slab::SlabConfig { max_series: 1, slots: 8, ..Default::default() };
            let store = crate::slab::SlabStore::create(&path, cfg).unwrap();
            let b = Broker::new(StreamConfig::bounded(2).with_slab(store));
            let reg = apollo_obs::Registry::new();
            b.instrument(&reg);
            let mut cursor = Some(b.publish("t", 0, rec(0)));
            let sub = b.subscribe("t");
            for i in 1..100u64 {
                b.publish("t", i, rec(i));
            }
            let mut read = || {
                let got = if through_subscription {
                    sub.drain()
                } else {
                    b.read_after("t", cursor, 1_000)
                };
                cursor = got.last().map(|e| e.id).or(cursor);
                got
            };
            let got = read();
            assert_eq!(
                got.iter().map(|e| e.id.ms).collect::<Vec<_>>(),
                (90..100).collect::<Vec<_>>()
            );
            assert_eq!(reg.snapshot().counter("streams.topic.t.cursor_lapped"), 1);
            assert!(read().is_empty());
            assert_eq!(reg.snapshot().counter("streams.topic.t.cursor_lapped"), 1, "caught up");
            let _ = std::fs::remove_file(&path);
        }
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
            b.publish("t", i, rec(i));
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
