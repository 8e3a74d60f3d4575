//! The in-memory stream log.
//!
//! A [`Stream`] is the "dedicated, in-memory queue" each SCoRe vertex holds
//! (§3.1). Entries are ID-ordered; the hot window lives in a `VecDeque`,
//! and entries evicted by retention spill into the vertex's archive — the
//! Archiver that "stores the queue in a log" — which is always a slab ring
//! ([`SlabSeries`]): a series of a shared [`SlabStore`], or a private
//! in-memory ring created at the stream's first eviction. Range reads
//! transparently stitch the ring and the live window together, which is
//! exactly how the Query Executor "parses the queue (or the persisted log
//! for evicted entries) using timestamp-based indexing" — one walk with two
//! destinations: entries ([`Stream::range`]) or decoded columns
//! ([`Stream::scan_columns`]). The walk holds the window read lock across
//! the ring and the window; evictions hold its write lock, so a stitched
//! read is one snapshot with no retry.

use crate::codec::Record;
use crate::entry::{Entry, RowSink};
use crate::id::StreamId;
use crate::slab::{SlabConfig, SlabSeries, SlabStore};
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, OnceLock};

/// Which slab ring a stream's evicted entries go to.
#[derive(Debug, Clone)]
pub enum SpillBackend {
    /// A private in-memory ring per stream, created at its first
    /// eviction: the default ring geometry ([`SlabConfig`]: 4 096 slots of
    /// 64 B), so it keeps the newest 4 096 evicted entries, gone on restart.
    Memory,
    /// A durable memory-mapped slab store ([`crate::slab::SlabStore`]),
    /// shared by many streams. Each stream attaches to the series named
    /// after it, restoring archived history across restarts.
    Slab(Arc<SlabStore>),
}

impl SpillBackend {
    /// Durable slab spill into `store`.
    pub fn slab(store: Arc<SlabStore>) -> Self {
        SpillBackend::Slab(store)
    }
}

/// The ring of a stream without a shared store: one series, no tiers.
/// Its geometry is built once per process, and its one series is claimed
/// without a name index, so creating a ring allocates only the ring.
fn private_ring() -> SlabSeries {
    static GEOMETRY: LazyLock<SlabConfig> =
        LazyLock::new(|| SlabConfig { max_series: 1, tiers: vec![], ..SlabConfig::default() });
    let store = SlabStore::in_memory(GEOMETRY.clone()).expect("the default ring geometry is valid");
    store.first_series()
}

/// Retention configuration for a [`Stream`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Maximum entries kept in memory (`MAXLEN` analogue). `None` keeps
    /// everything in memory.
    pub max_len: Option<usize>,
    /// Spill evicted entries into the archive (vs. dropping them).
    pub archive_evicted: bool,
    /// Ring the archive records into when `archive_evicted` is set.
    pub spill: SpillBackend,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self::bounded(65_536)
    }
}

impl StreamConfig {
    /// Keep everything in memory, never evict.
    pub fn unbounded() -> Self {
        Self { max_len: None, archive_evicted: false, spill: SpillBackend::Memory }
    }

    /// Keep at most `n` entries in memory, archiving evictions in a
    /// private in-memory ring.
    pub fn bounded(n: usize) -> Self {
        Self { max_len: Some(n), archive_evicted: true, spill: SpillBackend::Memory }
    }

    /// `self` with evictions spilling into `store`.
    pub fn with_slab(mut self, store: Arc<SlabStore>) -> Self {
        self.spill = SpillBackend::slab(store);
        self
    }
}

#[derive(Debug, Default)]
struct Window {
    entries: VecDeque<Entry>,
    last_id: Option<StreamId>,
}

/// A consistent scan over a stream: the entries of one atomic
/// archive+window snapshot plus their payloads pre-decoded as telemetry
/// [`Record`]s in the same pass — the batched read the query executor
/// uses so a scan decodes each payload exactly once.
#[derive(Debug, Clone, Default)]
pub struct ScanBatch {
    /// The raw entries, in ID order.
    pub entries: Vec<Entry>,
    /// Decoded records in entry order; payloads that failed to decode are
    /// skipped (and counted in `corrupt`).
    pub records: Vec<Record>,
    /// Payloads that were not valid [`Record`] frames.
    pub corrupt: u64,
    /// The stream's last assigned ID at the snapshot point.
    pub last_id: Option<StreamId>,
}

/// A consistent range scan decoded straight into **columns** (structure
/// of arrays): one vector per record field instead of a `Vec<Record>` of
/// structs. This is the snapshot the vectorized query path iterates —
/// tight loops over `values`/`provenance` without materializing per-row
/// [`Record`]s. Positions align across the four columns; payloads that
/// failed to decode are skipped (and counted in `corrupt`), exactly as
/// [`ScanBatch::records`] skips them, so index *i* here is record *i*
/// there.
///
/// The batch carries the **snapshot** ([`ScanMeta`]) its walk took under
/// the window lock — which stream, `last_id`, `first_id` — which is what
/// lets a cache keep a batch scanned to the stream's end as a *tail*:
/// [`Stream::extend_columns`] appends the rows published after `last_id`
/// and refreshes the snapshot, `first_id` says whether the stream still
/// retains the batch's oldest rows ([`ColumnBatch::trim_before`] drops
/// the ones it lost), and [`ColumnBatch::rows_in`] finds any window's rows
/// by the ID milliseconds the window is defined on.
#[derive(Debug, Clone, Default)]
pub struct ColumnBatch {
    /// Millisecond part of each row's [`StreamId`] — the key time windows
    /// select by (it differs from the record's own timestamp when the
    /// clock regressed: see [`Stream::range_by_time`]). Non-decreasing.
    pub ids_ms: Vec<u64>,
    /// Record timestamps (ns), in entry order.
    pub timestamps_ns: Vec<u64>,
    /// Record values, in entry order.
    pub values: Vec<f64>,
    /// Record provenance wire bytes ([`crate::codec::Provenance::wire`]), in entry
    /// order.
    pub provenance: Vec<u8>,
    /// Payloads that were not valid [`Record`] frames.
    pub corrupt: u64,
    /// [`ScanMeta::last_id`] at the snapshot point.
    pub last_id: Option<StreamId>,
    /// [`ScanMeta::first_id`] at the snapshot point: every row appended
    /// with an ID from here on was readable.
    pub first_id: Option<StreamId>,
    /// [`ScanMeta::source`]: which [`Stream`] the snapshot is of.
    source: u64,
    /// Set, never cleared, when a decoded row's record timestamp was below
    /// its predecessor's. Rows dropped by a trim leave it set: it may say
    /// "regressed" of a batch that is sorted, never the reverse.
    ts_regressed: bool,
}

/// A stream's snapshot, read under the window lock a walk's rows came
/// from (or alone, by [`Stream::scan_meta`]); a [`ColumnBatch`] carries it.
/// While it stands still the stream's content has not changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanMeta {
    /// Which [`Stream`] incarnation (0: none): a re-created topic's IDs
    /// start over, and a ring that rejected an evicted entry lost a row
    /// that is not the stream's oldest, so the two IDs alone cannot tell.
    pub source: u64,
    /// The oldest ID the stream retained (the archive's oldest row, else
    /// the window's front): retention only drops a stream's oldest rows.
    pub first_id: Option<StreamId>,
    /// The stream's last assigned ID.
    pub last_id: Option<StreamId>,
}

/// A walk's rows landing in a [`ColumnBatch`]: the columns are sized once
/// for the walk, each decoded row is written at its index, and the drop
/// cuts them to the rows that decoded. The clock-regression check runs on
/// locals, carried from the batch's last row across the ring/window seam.
struct ColumnSink<'a> {
    batch: &'a mut ColumnBatch,
    /// Where the next decoded row is written.
    at: usize,
    /// The last landed row's record timestamp (0 before any).
    last_ts: u64,
    regressed: bool,
}

impl<'a> ColumnSink<'a> {
    /// Room for `rows` more: exactly for a one-shot scan (its batch is
    /// cached as it is), amortised for a tail extended again and again.
    fn new(batch: &'a mut ColumnBatch, rows: usize, exact: bool) -> Self {
        fn grow<T: Copy + Default>(column: &mut Vec<T>, rows: usize, exact: bool) {
            if exact {
                column.reserve_exact(rows);
            }
            column.resize(column.len() + rows, T::default());
        }
        let (at, last_ts) = (batch.len(), batch.timestamps_ns.last().copied().unwrap_or(0));
        grow(&mut batch.ids_ms, rows, exact);
        grow(&mut batch.timestamps_ns, rows, exact);
        grow(&mut batch.values, rows, exact);
        grow(&mut batch.provenance, rows, exact);
        Self { batch, at, last_ts, regressed: false }
    }
}

impl RowSink for ColumnSink<'_> {
    fn push_row(&mut self, id: StreamId, payload: &[u8]) {
        let Ok(r) = Record::decode(payload) else {
            self.batch.corrupt += 1;
            return;
        };
        let (b, i) = (&mut *self.batch, self.at);
        self.regressed |= r.timestamp_ns < self.last_ts;
        self.last_ts = r.timestamp_ns;
        b.ids_ms[i] = id.ms;
        b.timestamps_ns[i] = r.timestamp_ns;
        b.values[i] = r.value;
        b.provenance[i] = r.provenance.wire();
        self.at = i + 1;
    }
}

impl Drop for ColumnSink<'_> {
    fn drop(&mut self) {
        let (b, at) = (&mut *self.batch, self.at);
        b.ids_ms.truncate(at);
        b.timestamps_ns.truncate(at);
        b.values.truncate(at);
        b.provenance.truncate(at);
        b.ts_regressed |= self.regressed;
    }
}

impl ColumnBatch {
    /// The rows whose ID millisecond lies in `[start_ms, end_ms]` — the
    /// rows a scan of that window would have landed, in the same order.
    /// An inverted window selects nothing.
    pub fn rows_in(&self, start_ms: u64, end_ms: u64) -> std::ops::Range<usize> {
        let lo = self.ids_ms.partition_point(|&ms| ms < start_ms);
        lo..self.ids_ms.partition_point(|&ms| ms <= end_ms).max(lo)
    }

    /// Drop the leading rows whose ID millisecond is below `ms` (rows the
    /// stream has since lost). `corrupt` keeps counting every undecodable
    /// payload the batch ever walked past.
    pub fn trim_before(&mut self, ms: u64) {
        let n = self.ids_ms.partition_point(|&id_ms| id_ms < ms);
        self.ids_ms.drain(..n);
        self.timestamps_ns.drain(..n);
        self.values.drain(..n);
        self.provenance.drain(..n);
    }

    /// True when the record timestamps are known never to decrease, so any
    /// window's largest is its last row's. A batch whose record clock
    /// regressed while it was decoded answers `false` from then on.
    pub fn timestamps_sorted(&self) -> bool {
        !self.ts_regressed
    }

    /// Decoded records in the batch.
    pub fn len(&self) -> usize {
        self.timestamps_ns.len()
    }

    /// True when no record decoded.
    pub fn is_empty(&self) -> bool {
        self.timestamps_ns.is_empty()
    }
}

/// An append-only, ID-ordered stream with bounded in-memory retention.
#[derive(Debug)]
pub struct Stream {
    name: String,
    config: StreamConfig,
    window: RwLock<Window>,
    /// The ring evictions land in: attached at creation to a shared
    /// store's series, else created at the first eviction. Set, and
    /// written, only under the window write lock.
    archive: OnceLock<SlabSeries>,
    /// Auto-ID appends whose `ms` was behind the last ID's ms-part (the
    /// wall clock regressed); their IDs were clamped forward to stay
    /// monotonic. See [`Stream::range_by_time`] for the contract.
    clock_regressions: AtomicU64,
    /// [`Stream::read_after`] calls whose cursor trailed a lapped ring's
    /// floor: the rows between the cursor and the floor were skipped.
    /// Behind an `Arc` so the broker can export the cell as a metrics
    /// counter without a second increment on the read path.
    cursor_lapped: Arc<AtomicU64>,
    /// Evicted entries the ring could not hold (payload over its slot
    /// capacity): dropped, not archived.
    archive_rejected: Arc<AtomicU64>,
    /// Process-unique, non-zero: what [`ScanMeta`] snapshots name their
    /// stream by. Renewed when the ring rejects an evicted entry, whose row
    /// a snapshot may hold but the stream no longer does.
    incarnation: AtomicU64,
}

/// A fresh process-unique, non-zero [`Stream`] incarnation.
fn next_incarnation() -> u64 {
    static INCARNATIONS: AtomicU64 = AtomicU64::new(1);
    INCARNATIONS.fetch_add(1, Ordering::Relaxed)
}

impl Stream {
    /// Create a stream with the given retention config. Nothing is
    /// allocated for the archive until the first eviction.
    ///
    /// With a [`SpillBackend::Slab`] spill (and archiving enabled), the
    /// archive records into the slab series named after the stream, so a
    /// restarted stream finds its archived history and resumes ID
    /// assignment after it. If the slab's series directory is exhausted
    /// (or the name does not fit a dirent) the stream falls back to a
    /// private in-memory ring **loudly**: a one-shot WARN, the
    /// process-wide `streams.slab.dir_full` counter, and the store's
    /// `series_fallbacks` stat all record that this stream's history will
    /// not survive a restart.
    pub fn new(name: impl Into<String>, config: StreamConfig) -> Self {
        let name = name.into();
        let attached = match &config.spill {
            SpillBackend::Slab(store) if config.archive_evicted => store
                .series(&name)
                .inspect_err(|e| {
                    crate::slab::record_exhaustion(&format!(
                        "stream '{name}' wanted a slab series but got \"{e}\"; its evicted \
                         entries fall back to a private in-memory ring and will NOT survive a \
                         restart"
                    ))
                })
                .ok(),
            _ => None,
        };
        // Restart survival: resume ID assignment after the archived
        // history (None for a fresh series or no series yet).
        let window = Window {
            last_id: attached.as_ref().and_then(SlabSeries::last_id),
            ..Window::default()
        };
        Self {
            incarnation: AtomicU64::new(next_incarnation()),
            name,
            config,
            window: RwLock::new(window),
            archive: attached.map_or_else(OnceLock::new, OnceLock::from),
            clock_regressions: AtomicU64::new(0),
            cursor_lapped: Arc::new(AtomicU64::new(0)),
            archive_rejected: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Create a stream with default retention.
    pub fn with_defaults(name: impl Into<String>) -> Self {
        Self::new(name, StreamConfig::default())
    }

    /// Stream name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append with an auto-assigned ID derived from `ms` (monotonic even if
    /// `ms` goes backwards). Returns the assigned ID.
    ///
    /// When `ms` is behind the last ID's ms-part (the wall clock regressed,
    /// e.g. an NTP step), the ID is clamped forward to `last.ms` so the
    /// stream stays strictly ordered. The entry is then *indexed* at the
    /// clamped time, not at `ms` — [`Stream::clock_regressions`] counts how
    /// often this happened, and [`Stream::range_by_time`] documents the
    /// resulting lookup contract.
    pub fn append(&self, ms: u64, payload: impl Into<Bytes>) -> StreamId {
        let mut w = self.window.write();
        self.append_locked(&mut w, ms, payload.into())
    }

    /// Append many `(ms, payload)` records under a single window-lock
    /// acquisition — the batched flush SCoRe vertices use to amortize
    /// lock traffic. Equivalent to calling [`Stream::append`] per record
    /// (same IDs, same eviction, same clock-regression accounting), but
    /// with one lock round-trip for the whole batch.
    pub fn append_batch(&self, records: impl IntoIterator<Item = (u64, Bytes)>) -> Vec<StreamId> {
        let mut w = self.window.write();
        records.into_iter().map(|(ms, payload)| self.append_locked(&mut w, ms, payload)).collect()
    }

    fn append_locked(&self, w: &mut Window, ms: u64, payload: Bytes) -> StreamId {
        let id = match w.last_id {
            Some(last) => {
                if ms < last.ms {
                    self.clock_regressions.fetch_add(1, Ordering::Relaxed);
                }
                last.next_for(ms)
            }
            None => StreamId::new(ms, 0),
        };
        self.push_locked(w, Entry::new(id, payload));
        id
    }

    /// Number of auto-ID appends that arrived with a regressed `ms` and had
    /// their ID clamped forward (see [`Stream::append`]). A non-zero value
    /// means ID time and wall time have diverged for some entries.
    pub fn clock_regressions(&self) -> u64 {
        self.clock_regressions.load(Ordering::Relaxed)
    }

    /// Evicts before it pushes, so a bounded window's buffer never holds
    /// more than `max_len` entries and keeps the capacity of its bound.
    fn push_locked(&self, w: &mut Window, entry: Entry) {
        w.last_id = Some(entry.id);
        let Some(max) = self.config.max_len else { return w.entries.push_back(entry) };
        if max == 0 {
            // No window: the entry is its own eviction.
            if self.config.archive_evicted {
                self.spill(&entry);
            }
            return;
        }
        while w.entries.len() >= max {
            let Some(evicted) = w.entries.pop_front() else { break };
            if self.config.archive_evicted {
                self.spill(&evicted);
            }
        }
        w.entries.push_back(entry);
    }

    /// The one eviction site: record `evicted` in the archive ring (a
    /// private ring is created here, at the first eviction), or count it
    /// rejected when its payload exceeds the ring's slot capacity.
    ///
    /// # Panics
    /// Panics if `evicted.id` is not above the ring's newest ID. The
    /// window evicts oldest-first and resumes after the ring's history, so
    /// only two streams writing one shared series can trip it.
    fn spill(&self, evicted: &Entry) {
        let ring = self.archive.get_or_init(private_ring);
        if let Some(last) = ring.last_id() {
            assert!(evicted.id > last, "archive append out of order: {} after {last}", evicted.id);
        }
        if !ring.record(evicted.id, &evicted.payload) {
            self.archive_rejected.fetch_add(1, Ordering::Relaxed);
            // The stream lost a row that is not its oldest: no snapshot
            // taken before can be extended into what it holds now.
            self.incarnation.store(next_incarnation(), Ordering::Relaxed);
        }
    }

    /// Number of entries currently in the in-memory window.
    pub fn len(&self) -> usize {
        self.window.read().entries.len()
    }

    /// True when the in-memory window is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries retained: the window plus the archive ring's live span.
    pub fn total_len(&self) -> usize {
        self.len() + self.archive().map_or(0, |ring| ring.live_len() as usize)
    }

    /// The last assigned ID, if any entry was ever appended.
    pub fn last_id(&self) -> Option<StreamId> {
        self.window.read().last_id
    }

    /// The most recent entry, if the window is non-empty.
    pub fn last(&self) -> Option<Entry> {
        self.window.read().entries.back().cloned()
    }

    /// The ring holding evicted entries; `None` until a private ring's
    /// first eviction (and always when evictions are dropped).
    pub fn archive(&self) -> Option<&SlabSeries> {
        self.archive.get()
    }

    /// All entries with `start <= id <= end` in ID order, stitching the
    /// archive (older) and the live window (newer) together.
    ///
    /// The stitch observes an **atomic archive+window snapshot**: it holds
    /// the window read lock across both reads, and evictions need the
    /// write lock, so a scan racing retention sees no gaps and no
    /// duplicates.
    pub fn range(&self, start: StreamId, end: StreamId) -> Vec<Entry> {
        self.walk(start, end, Vec::with_capacity).0.unwrap_or_default()
    }

    /// The stitch behind [`Stream::range`], generic over where the rows
    /// land: the ring, then the window, under one hold of the window read
    /// lock (evictions, the ring's only writer, take it for writing, in
    /// the same window -> ring order), and the snapshot read under it.
    /// Both spans are found first, and `sink` makes the sink for their row
    /// count — sized once for the two — only when there are rows to land.
    fn walk<S: RowSink>(
        &self,
        start: StreamId,
        end: StreamId,
        sink: impl FnOnce(usize) -> S,
    ) -> (Option<S>, ScanMeta) {
        let w = self.window.read();
        let ring = self.archive().map(|ring| (ring, ring.span(start, end, usize::MAX)));
        let lo = partition_point_deque(&w.entries, |e| e.id < start);
        // `hi >= lo` even for an inverted range, which selects nothing.
        let hi = partition_point_deque(&w.entries, |e| e.id <= end).max(lo);
        let ring_rows = ring.as_ref().map_or(0, |(_, span)| (span.end - span.start) as usize);
        let rows = ring_rows + (hi - lo);
        let sink = (rows > 0).then(|| {
            let mut sink = sink(rows);
            if let Some((ring, span)) = ring {
                ring.walk(span, &mut sink);
            }
            sink.push_entries(w.entries.range(lo..hi));
            sink
        });
        (sink, self.meta_locked(&w))
    }

    /// The snapshot of a stream whose window lock `w` is held: the ring
    /// cannot lose or gain a row while this reads its oldest.
    fn meta_locked(&self, w: &Window) -> ScanMeta {
        ScanMeta {
            source: self.incarnation.load(Ordering::Relaxed),
            first_id: (self.archive().and_then(SlabSeries::first_id))
                .or_else(|| w.entries.front().map(|e| e.id)),
            last_id: w.last_id,
        }
    }

    /// All entries strictly after `cursor` (or from the very beginning
    /// when `None`), up to `count`, stitching the archive in front of the
    /// live window when the cursor trails it — a cursor that fell behind
    /// retention is caught up from the archive instead of silently
    /// skipping the evicted entries. A ring that lapped the cursor has
    /// lost what lay between: the read starts at the ring's floor and is
    /// counted in [`Stream::cursor_lapped`].
    pub fn read_after(&self, cursor: Option<StreamId>, count: usize) -> Vec<Entry> {
        let mut out = Vec::new();
        self.read_after_into(cursor, count, &mut out);
        out
    }

    /// [`Stream::read_after`] onto the end of `out`, which it grows by at
    /// most `count`: a read of window rows allocates nothing once `out`
    /// has the room. A cursor at the stream's last ID reads nothing.
    pub fn read_after_into(&self, cursor: Option<StreamId>, count: usize, out: &mut Vec<Entry>) {
        let start = match cursor {
            None => StreamId::MIN,
            Some(c) => match c.successor() {
                Some(s) => s,
                None => return,
            },
        };
        // Hold the window read lock across the archive read: evictions
        // need the write lock, so the stitch is a consistent snapshot.
        let w = self.window.read();
        if count == 0 || w.last_id.is_none_or(|last| last < start) {
            return;
        }
        let before = out.len();
        // The ring holds only rows older than the window's first: a cursor
        // past that reads the window alone.
        let ring = self.archive().filter(|_| w.entries.front().is_none_or(|e| e.id >= start));
        if let Some(ring) = ring.filter(|r| r.last_id().is_some_and(|a| a >= start)) {
            // Conservative by at most one read: a cursor on the last row
            // the ring lost skipped nothing.
            if ring.lapped_floor_id().is_some_and(|floor| start < floor) {
                self.cursor_lapped.fetch_add(1, Ordering::Relaxed);
            }
            ring.range_limited_into(start, StreamId::MAX, count, out);
        }
        let remaining = count - (out.len() - before);
        if remaining > 0 {
            let entries = &w.entries;
            let lo = partition_point_deque(entries, |e| e.id < start);
            out.extend(entries.iter().skip(lo).take(remaining).cloned());
        }
    }

    /// The snapshot every scan takes, read on its own under the window
    /// lock: while it stands still the stream's content has not changed.
    pub fn scan_meta(&self) -> ScanMeta {
        self.meta_locked(&self.window.read())
    }

    /// [`Stream::read_after`] calls whose cursor trailed the floor of a
    /// ring that had lapped it: each skipped the rows the ring lost.
    pub fn cursor_lapped(&self) -> u64 {
        self.cursor_lapped.load(Ordering::Relaxed)
    }

    /// The lapped-read counter cell, for zero-cost metrics export.
    pub(crate) fn cursor_lapped_cell(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.cursor_lapped)
    }

    /// Evicted entries dropped, not archived, because their payload
    /// exceeds the ring's slot capacity ([`SlabConfig::payload_cap`]).
    pub fn archive_rejected(&self) -> u64 {
        self.archive_rejected.load(Ordering::Relaxed)
    }

    /// The rejected-eviction counter cell, for zero-cost metrics export.
    pub(crate) fn archive_rejected_cell(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.archive_rejected)
    }

    /// Consistent range scan with the payloads decoded as telemetry
    /// [`Record`]s in the same pass: entries, records, and the snapshot's
    /// `last_id` in one call, so the query path decodes each payload
    /// exactly once per cache generation.
    pub fn scan_batch(&self, start: StreamId, end: StreamId) -> ScanBatch {
        let (entries, snap) = self.walk(start, end, Vec::with_capacity);
        let (entries, last_id) = (entries.unwrap_or_default(), snap.last_id);
        let mut records = Vec::with_capacity(entries.len());
        let mut corrupt = 0u64;
        for e in &entries {
            match Record::decode(&e.payload) {
                Ok(r) => records.push(r),
                Err(_) => corrupt += 1,
            }
        }
        ScanBatch { entries, records, corrupt, last_id }
    }

    /// [`Stream::scan_batch`] keyed by millisecond ID time (the contract
    /// of [`Stream::range_by_time`]).
    pub fn scan_batch_by_time(&self, start_ms: u64, end_ms: u64) -> ScanBatch {
        self.scan_batch(StreamId::new(start_ms, 0), StreamId::new(end_ms, u64::MAX))
    }

    /// Consistent range scan decoded straight into columns — same
    /// snapshot and same corrupt-skipping as [`Stream::scan_batch`], but
    /// each row is decoded where the walk finds it (a slot's loaded words,
    /// a window entry), written at its index in columns sized once for the
    /// walk, and no entry is built.
    pub fn scan_columns(&self, start: StreamId, end: StreamId) -> ColumnBatch {
        let mut out = ColumnBatch::default();
        let (_, snap) = self.walk(start, end, |rows| ColumnSink::new(&mut out, rows, true));
        (out.source, out.first_id, out.last_id) = (snap.source, snap.first_id, snap.last_id);
        out
    }

    /// Bring `tail` — a [`Stream::scan_columns`] of this stream that ran to
    /// its end — up to the present: the rows appended after its `last_id`
    /// land behind the ones it holds (one walk, one snapshot, as a scan)
    /// and its snapshot is refreshed, so it equals what a
    /// scan from the same start would return now, plus whatever head rows
    /// the stream has lost since (the caller compares `first_id`). The
    /// `Arc` is un-shared once per extension that lands rows, and only
    /// then; its columns grow amortised. Returns `false` when
    /// `tail` is not a snapshot of this stream as it stands — another
    /// stream, or this one after its ring rejected an evicted entry the
    /// tail may hold (checked again once the walk is done) — and the tail
    /// is to be scanned afresh.
    pub fn extend_columns(&self, tail: &mut Arc<ColumnBatch>) -> bool {
        let incarnation = self.incarnation.load(Ordering::Relaxed);
        let Some(last) = tail.last_id.filter(|_| tail.source == incarnation) else {
            return false;
        };
        // Nothing can follow the largest ID, and nothing was evicted since.
        let Some(start) = last.successor() else { return true };
        let (_, snap) = self
            .walk(start, StreamId::MAX, |rows| ColumnSink::new(Arc::make_mut(tail), rows, false));
        if snap.source != tail.source {
            return false; // a rejected eviction raced the walk
        }
        if (snap.first_id, snap.last_id) != (tail.first_id, tail.last_id) {
            let t = Arc::make_mut(tail);
            (t.first_id, t.last_id) = (snap.first_id, snap.last_id);
        }
        true
    }

    /// [`Stream::scan_columns`] keyed by millisecond ID time.
    pub fn scan_columns_by_time(&self, start_ms: u64, end_ms: u64) -> ColumnBatch {
        self.scan_columns(StreamId::new(start_ms, 0), StreamId::new(end_ms, u64::MAX))
    }

    /// Approximate bytes of memory held by the in-memory window: each
    /// entry (ID + `Bytes` handle, an in-place payload included) plus the
    /// heap block of a payload too long to sit in place. The archive ring
    /// is excluded (it is the spill log: fixed-size slots the store
    /// accounts for). Used by the Figure 5 memory-overhead report.
    pub fn approx_memory_bytes(&self) -> usize {
        let w = self.window.read();
        let per_entry = std::mem::size_of::<Entry>();
        w.entries.iter().map(|e| per_entry + e.payload.heap_size()).sum()
    }

    /// Entries whose **assigned ID time** lies in `[start_ms, end_ms]` —
    /// the timestamp index used by query execution.
    ///
    /// Contract: the index key is the ID's ms-part, which equals the `ms`
    /// passed to [`Stream::append`] except when the clock regressed — then
    /// the entry was clamped forward to the last ID's ms-part (never
    /// dropped, never reordered), so it is found at (or just after) the
    /// time of the entry it landed behind, not at its own wall time. A
    /// window query therefore never silently loses a clamped entry that
    /// overlaps the window's upper edge, and callers that need exact wall
    /// time must carry it in the payload (as the `Record` codec's
    /// `timestamp_ns` does). [`Stream::clock_regressions`] reports whether
    /// any divergence exists.
    pub fn range_by_time(&self, start_ms: u64, end_ms: u64) -> Vec<Entry> {
        self.range(StreamId::new(start_ms, 0), StreamId::new(end_ms, u64::MAX))
    }
}

/// `slice::partition_point` for a `VecDeque`, using O(1) indexing.
fn partition_point_deque<T>(deque: &VecDeque<T>, pred: impl Fn(&T) -> bool) -> usize {
    let mut lo = 0usize;
    let mut hi = deque.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(&deque[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_assigns_monotonic_ids() {
        let s = Stream::with_defaults("t");
        let a = s.append(10, vec![1]);
        let b = s.append(10, vec![2]);
        let c = s.append(11, vec![3]);
        let d = s.append(5, vec![4]); // clock skew backwards
        assert_eq!(a, StreamId::new(10, 0));
        assert_eq!(b, StreamId::new(10, 1));
        assert_eq!(c, StreamId::new(11, 0));
        assert_eq!(d, StreamId::new(11, 1));
        assert_eq!(s.last_id(), Some(d));
    }

    #[test]
    fn a_regressed_record_clock_marks_the_batch_for_good() {
        let s = Stream::with_defaults("t");
        let at = |ms: u64| Record::measured(ms * 1_000_000, 0.0).encode();
        for ms in [10, 20, 20, 30] {
            s.append(ms, at(ms));
        }
        let mut tail = Arc::new(s.scan_columns(StreamId::MIN, StreamId::MAX));
        assert!(tail.timestamps_sorted(), "equal timestamps are not a regression");
        s.append(40, at(25));
        s.append(50, at(50));
        assert!(s.extend_columns(&mut tail) && !tail.timestamps_sorted());
        // Trimming the row that regressed leaves the bit conservative.
        Arc::make_mut(&mut tail).trim_before(45);
        assert_eq!((tail.len(), tail.timestamps_sorted()), (1, false));
        assert!(s.scan_columns_by_time(45, u64::MAX).timestamps_sorted());
    }

    #[test]
    fn range_reads_window() {
        let s = Stream::with_defaults("t");
        for i in 0..50u64 {
            s.append(i, vec![i as u8]);
        }
        let got = s.range(StreamId::new(10, 0), StreamId::new(14, u64::MAX));
        assert_eq!(got.len(), 5);
        assert_eq!(got[0].payload[0], 10);
    }

    #[test]
    fn retention_evicts_to_archive_and_range_stitches() {
        let s = Stream::new("t", StreamConfig::bounded(10));
        for i in 0..100u64 {
            s.append(i, vec![i as u8]);
        }
        assert_eq!(s.len(), 10);
        assert_eq!(s.archive().unwrap().live_len(), 90);
        assert_eq!(s.total_len(), 100);
        // Range spanning archive and window.
        let got = s.range(StreamId::new(85, 0), StreamId::new(95, u64::MAX));
        assert_eq!(got.len(), 11);
        assert!(got.windows(2).all(|w| w[0].id < w[1].id));
        assert_eq!(got[0].payload[0], 85);
    }

    #[test]
    fn retention_without_archive_drops() {
        let s =
            Stream::new("t", StreamConfig { archive_evicted: false, ..StreamConfig::bounded(5) });
        for i in 0..20u64 {
            s.append(i, vec![]);
        }
        assert_eq!(s.len(), 5);
        assert!(s.archive().is_none());
        assert_eq!(s.total_len(), 5);
    }

    #[test]
    fn a_bounded_window_keeps_the_capacity_of_its_bound() {
        let s = Stream::new("t", StreamConfig::bounded(256));
        for i in 0..1_000u64 {
            s.append(i, vec![i as u8]);
        }
        let (len, capacity) = {
            let w = s.window.read();
            (w.entries.len(), w.entries.capacity())
        };
        assert_eq!((len, capacity), (256, 256), "evicting after the push doubles the buffer");
        assert_eq!(s.archive().unwrap().live_len(), 744);

        // A zero bound keeps no window and archives every entry.
        let s = Stream::new("t", StreamConfig::bounded(0));
        let ids: Vec<StreamId> = (0..100u64).map(|i| s.append(i, vec![i as u8])).collect();
        assert!(s.is_empty());
        assert_eq!(s.last_id(), ids.last().copied());
        let all = s.range(StreamId::new(0, 0), StreamId::new(u64::MAX, u64::MAX));
        assert_eq!(all.iter().map(|e| e.id).collect::<Vec<_>>(), ids);
        assert!(all.iter().enumerate().all(|(i, e)| e.payload[..] == [i as u8]));
    }

    #[test]
    fn read_after_cursor() {
        let s = Stream::with_defaults("t");
        let mut ids = Vec::new();
        for i in 0..10u64 {
            ids.push(s.append(i, vec![]));
        }
        let got = s.read_after(Some(ids[4]), 3);
        assert_eq!(got.iter().map(|e| e.id).collect::<Vec<_>>(), ids[5..8].to_vec());
        let all = s.read_after(None, usize::MAX);
        assert_eq!(all.len(), 10);
        let none = s.read_after(Some(ids[9]), 10);
        assert!(none.is_empty());
    }

    #[test]
    fn range_by_time_selects_ms_window() {
        let s = Stream::with_defaults("t");
        for ms in [100u64, 100, 200, 300, 300, 400] {
            s.append(ms, vec![]);
        }
        assert_eq!(s.range_by_time(200, 300).len(), 3);
        assert_eq!(s.range_by_time(0, 99).len(), 0);
        assert_eq!(s.range_by_time(100, 400).len(), 6);
    }

    #[test]
    fn clock_regression_clamps_ids_and_keeps_time_range_contract() {
        // Regression for the clock-skew/time-range interaction: wall time
        // regresses 100 -> 50 -> 60. Monotonic clamping must index both
        // regressed entries at ms=100, count the regressions, and keep
        // every entry reachable through range_by_time windows that respect
        // the documented ID-time contract.
        let s = Stream::with_defaults("t");
        let a = s.append(100, vec![0]);
        let b = s.append(50, vec![1]); // clock stepped backwards
        let c = s.append(60, vec![2]); // still behind the clamped ms
        assert_eq!(a, StreamId::new(100, 0));
        assert_eq!(b, StreamId::new(100, 1), "regressed entry clamped forward");
        assert_eq!(c, StreamId::new(100, 2));
        assert_eq!(s.clock_regressions(), 2);

        // Indexed at ID time: a window over the clamped time finds all
        // three; a window over the regressed wall times finds none (the
        // entries were clamped out of it, by contract).
        assert_eq!(s.range_by_time(100, 100).len(), 3);
        assert_eq!(s.range_by_time(40, 70).len(), 0);
        // A window whose upper edge covers the clamp target never loses
        // the clamped entries.
        assert_eq!(s.range_by_time(40, 100).len(), 3);

        // Once the clock recovers past the clamp point, appends resume
        // normal wall-time indexing without further regressions.
        let d = s.append(101, vec![3]);
        assert_eq!(d, StreamId::new(101, 0));
        assert_eq!(s.clock_regressions(), 2);
        assert_eq!(s.range_by_time(101, 101).len(), 1);
    }

    #[test]
    fn same_ms_append_is_not_a_regression() {
        let s = Stream::with_defaults("t");
        s.append(10, vec![]);
        s.append(10, vec![]); // same ms: normal seq bump
        assert_eq!(s.clock_regressions(), 0);
    }

    #[test]
    fn last_and_empty() {
        let s = Stream::with_defaults("t");
        assert!(s.is_empty());
        assert!(s.last().is_none());
        s.append(1, vec![9]);
        assert_eq!(s.last().unwrap().payload[0], 9);
    }

    #[test]
    fn unbounded_never_evicts() {
        let s = Stream::new("t", StreamConfig::unbounded());
        for i in 0..200_000u64 {
            s.append(i / 100, Bytes::new());
        }
        assert_eq!(s.len(), 200_000);
        assert!(s.archive().is_none());
    }

    #[test]
    fn scan_meta_pairs_first_id_with_last_id() {
        let ids = |m: ScanMeta| (m.first_id, m.last_id);
        let s = Stream::new("t", StreamConfig::bounded(2));
        assert_eq!(ids(s.scan_meta()), (None, None));
        let a = s.append(5, vec![]);
        assert_eq!(ids(s.scan_meta()), (Some(a), Some(a)));
        s.append(6, vec![]);
        let c = s.append(7, vec![]);
        assert_eq!(ids(s.scan_meta()), (Some(a), Some(c)), "the eviction archived `a`");
        let cols = s.scan_columns(StreamId::MIN, StreamId::MAX);
        let carried =
            ScanMeta { source: cols.source, first_id: cols.first_id, last_id: cols.last_id };
        assert_eq!(s.scan_meta(), carried, "the snapshot a scan carries");

        // An archive-less eviction changes what a range returns by moving
        // the head.
        let dropping =
            Stream::new("t", StreamConfig { archive_evicted: false, ..StreamConfig::bounded(2) });
        let ids: Vec<StreamId> = (5..8).map(|ms| dropping.append(ms, vec![])).collect();
        assert_eq!(dropping.scan_meta().first_id, Some(ids[1]));
    }

    #[test]
    fn read_after_stitches_archive_when_cursor_trails_window() {
        let s = Stream::new("t", StreamConfig::bounded(5));
        let mut ids = Vec::new();
        for i in 0..20u64 {
            ids.push(s.append(i, vec![i as u8]));
        }
        // Window holds ids[15..20]; ids[0..15] are archived. A cursor at
        // ids[2] must be caught up from the archive, not skipped to the
        // window front.
        let got = s.read_after(Some(ids[2]), 6);
        assert_eq!(got.iter().map(|e| e.id).collect::<Vec<_>>(), ids[3..9].to_vec());

        // A read spanning the archive/window seam stays gap-free.
        let got = s.read_after(Some(ids[12]), 5);
        assert_eq!(got.iter().map(|e| e.id).collect::<Vec<_>>(), ids[13..18].to_vec());

        // Cursor inside the window: pure window read.
        let got = s.read_after(Some(ids[16]), 10);
        assert_eq!(got.iter().map(|e| e.id).collect::<Vec<_>>(), ids[17..20].to_vec());
        assert_eq!(s.cursor_lapped(), 0, "the ring lapped no cursor");

        // No cursor: replay everything from the very beginning.
        let all = s.read_after(None, usize::MAX);
        assert_eq!(all.iter().map(|e| e.id).collect::<Vec<_>>(), ids);
    }

    #[test]
    fn append_batch_matches_sequential_appends() {
        let batched = Stream::new("t", StreamConfig::bounded(4));
        let sequential = Stream::new("t", StreamConfig::bounded(4));
        let records: Vec<(u64, Bytes)> =
            (0..10u64).map(|i| (i / 2, Bytes::from(vec![i as u8]))).collect();
        let batch_ids = batched.append_batch(records.clone());
        let seq_ids: Vec<StreamId> =
            records.iter().map(|(ms, p)| sequential.append(*ms, p.clone())).collect();
        assert_eq!(batch_ids, seq_ids);
        assert_eq!(
            batched.range(StreamId::MIN, StreamId::MAX),
            sequential.range(StreamId::MIN, StreamId::MAX)
        );
        assert_eq!(batched.scan_meta().first_id, sequential.scan_meta().first_id);
        assert_eq!(batched.clock_regressions(), sequential.clock_regressions());
    }

    #[test]
    fn scan_batch_decodes_in_one_pass_and_counts_corrupt() {
        let s = Stream::new("t", StreamConfig::bounded(3));
        for i in 0..6u64 {
            let rec = Record::measured(i * 1_000_000, i as f64);
            s.append(i, rec.encode());
        }
        s.append(6, vec![0xde, 0xad]); // not a valid Record frame
        let batch = s.scan_batch(StreamId::MIN, StreamId::MAX);
        assert_eq!(batch.entries.len(), 7);
        assert_eq!(batch.records.len(), 6);
        assert_eq!(batch.corrupt, 1);
        assert_eq!(batch.last_id, s.last_id());
        assert!(batch.records.iter().enumerate().all(|(i, r)| r.value == i as f64));

        let by_time = s.scan_batch_by_time(2, 4);
        assert_eq!(by_time.entries.len(), 3);
        assert_eq!(by_time.records.len(), 3);
    }

    #[test]
    fn window_memory_counts_the_entry_and_only_a_heap_payload() {
        let (records, blobs) = (Stream::with_defaults("r"), Stream::with_defaults("b"));
        for i in 0..10u64 {
            records.append(i, Record::measured(i, 1.0).encode());
            blobs.append(i, vec![0u8; 1024]);
        }
        let entry = std::mem::size_of::<Entry>();
        assert_eq!(records.approx_memory_bytes(), 10 * entry);
        assert_eq!(blobs.approx_memory_bytes(), 10 * (entry + 16 + 1024));
    }

    /// The cached-tail check of the private-ring contract: `tail`, kept
    /// across every append by `extend_columns` and trimmed of the head rows
    /// the stream lost, equals a fresh scan.
    fn assert_tail_is_fresh(s: &Stream, tail: &mut Arc<ColumnBatch>) {
        assert!(s.extend_columns(tail));
        let first = tail.first_id.expect("rows retained");
        Arc::make_mut(tail).trim_before(first.ms);
        let fresh = s.scan_columns(StreamId::MIN, StreamId::MAX);
        assert_eq!(tail.ids_ms, fresh.ids_ms);
        assert_eq!(tail.values, fresh.values);
        assert_eq!(tail.timestamps_ns, fresh.timestamps_ns);
        let snap = |b: &ColumnBatch| (b.last_id, b.first_id, b.corrupt);
        assert_eq!(snap(tail), snap(&fresh));
    }

    #[test]
    fn a_directory_less_archive_keeps_the_newest_ring_of_evictions() {
        let s = Stream::new("t", StreamConfig::bounded(8));
        let at = |i: u64| Record::measured(i * 1_000_000, i as f64).encode();
        let mut tail = None;
        for i in 0..10_000u64 {
            s.append(i, at(i));
            if i == 99 {
                tail = Some(Arc::new(s.scan_columns(StreamId::MIN, StreamId::MAX)));
            }
            if i % 1_000 == 999 {
                assert_tail_is_fresh(&s, tail.as_mut().unwrap());
            }
        }
        assert_eq!(s.archive().unwrap().live_len(), 4_096);
        assert_eq!(s.archive_rejected(), 0);
        let all = s.range(StreamId::MIN, StreamId::MAX);
        assert!(all.iter().map(|e| e.id.ms).eq(10_000 - 4_104..10_000), "newest 4 104, once each");
        assert!(all.iter().all(|e| e.payload == at(e.id.ms)));
    }

    #[test]
    fn an_eviction_over_the_slot_capacity_is_dropped_and_counted() {
        let cap = SlabConfig::default().payload_cap();
        let s = Stream::new("t", StreamConfig::bounded(1));
        let mut tail = Arc::new(ColumnBatch::default());
        for (ms, len) in [(1, cap + 1), (2, cap), (3, 17)] {
            let mut payload = Record::measured(ms * 1_000_000, ms as f64).encode().to_vec();
            payload.resize(len, 0);
            s.append(ms, payload);
            if ms == 1 {
                tail = Arc::new(s.scan_columns(StreamId::MIN, StreamId::MAX));
            }
        }
        let ring = s.archive().unwrap();
        assert_eq!((s.archive_rejected(), ring.store().stats().oversize_rejected), (1, 1));
        let kept: Vec<(u64, usize)> =
            s.range(StreamId::MIN, StreamId::MAX).iter().map(|e| (e.id.ms, e.len())).collect();
        assert_eq!(kept, [(2, cap), (3, 17)], "the 41-byte row is gone, the 40-byte one archived");
        assert!(!s.extend_columns(&mut tail), "a tail holding the dropped row is not extended");
    }

    #[test]
    fn a_private_ring_is_created_at_the_first_eviction() {
        let idle = Stream::with_defaults("t");
        for i in 0..10u64 {
            idle.append(i, vec![]);
        }
        assert!(idle.archive().is_none());
        let s = Stream::new("t", StreamConfig::bounded(8));
        for i in 0..8u64 {
            s.append(i, vec![]);
        }
        assert!(s.archive().is_none(), "eight rows fit the window");
        s.append(8, vec![]);
        let ring = s.archive().expect("the ninth evicted the first");
        assert_eq!((ring.live_len(), ring.store().path()), (1, std::path::Path::new("")));
    }

    #[test]
    fn concurrent_appenders_preserve_monotonicity() {
        let s = std::sync::Arc::new(Stream::with_defaults("t"));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                let mut ids = Vec::new();
                for i in 0..1000u64 {
                    ids.push(s.append(t * 1000 + i, Bytes::new()));
                }
                ids
            }));
        }
        let mut all: Vec<StreamId> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        let unique: std::collections::HashSet<_> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "ids must be unique");
        all.sort_unstable();
        let stored = s.read_after(None, usize::MAX);
        assert!(stored.windows(2).all(|w| w[0].id < w[1].id));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::codec::Provenance;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// What decoding entries one by one lands: the oracle of a column batch.
    #[derive(Debug, Default, PartialEq)]
    struct Landed {
        ids_ms: Vec<u64>,
        timestamps_ns: Vec<u64>,
        value_bits: Vec<u64>,
        provenance: Vec<u8>,
        corrupt: u64,
        regressed: bool,
    }

    impl Landed {
        fn decode(&mut self, entries: &[Entry]) {
            for e in entries {
                let Ok(r) = Record::decode(&e.payload) else {
                    self.corrupt += 1;
                    continue;
                };
                self.regressed |= self.timestamps_ns.last().is_some_and(|&t| r.timestamp_ns < t);
                self.ids_ms.push(e.id.ms);
                self.timestamps_ns.push(r.timestamp_ns);
                self.value_bits.push(r.value.to_bits());
                self.provenance.push(r.provenance.wire());
            }
        }

        fn of(b: &ColumnBatch) -> Self {
            Self {
                ids_ms: b.ids_ms.clone(),
                timestamps_ns: b.timestamps_ns.clone(),
                value_bits: b.values.iter().map(|v| v.to_bits()).collect(),
                provenance: b.provenance.clone(),
                corrupt: b.corrupt,
                regressed: !b.timestamps_sorted(),
            }
        }
    }

    /// A payload drawn from `a` and `b`: a record of any provenance, often
    /// a special value (NaN, ±0, ±inf, subnormal), else an undecodable
    /// frame — a bad provenance byte, 0–16 bytes, 18–`cap` bytes — or one
    /// over the slot capacity, which the ring rejects at eviction.
    fn payload(a: u64, b: u64, timestamp_ns: u64, cap: usize) -> Vec<u8> {
        const SPECIAL: [f64; 8] = [
            f64::NAN,
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 2.0,
            f64::MAX,
        ];
        let value = if a.is_multiple_of(3) { SPECIAL[(b % 8) as usize] } else { f64::from_bits(b) };
        let provenance = Provenance::from_wire(((a >> 4) % 3) as u8).unwrap();
        let mut frame = Record { timestamp_ns, value, provenance }.encode().to_vec();
        match (a >> 8) % 16 {
            0 => frame[16] = 3 + (b % 253) as u8,
            1 => frame.truncate((b % 17) as usize),
            2 => frame.resize(18 + (b % (cap as u64 - 17)) as usize, (b >> 8) as u8 | 1),
            3 if a.is_multiple_of(5) => frame.resize(cap + 1 + (b % 8) as usize, 0xa5),
            _ => {}
        }
        frame
    }

    proptest! {
        /// Ring and window rows land in columns as decoding the same
        /// range's entries one by one does — columns bit for bit,
        /// `corrupt`, the snapshot's `first_id`/`last_id` and
        /// `timestamps_sorted()` — for one-shot scans of any window and
        /// for a tail grown by `extend_columns` in random steps, over a
        /// private ring and over a 16-slot slab ring that laps. Record
        /// clocks regress (the flag is carried across the ring/window seam
        /// and every extension), ID clocks regress into clamped IDs, and
        /// the entries' payloads are the appended bytes, every length.
        #[test]
        fn column_landing_matches_decoding_the_range(
            ops in prop::collection::vec((0u8..100, any::<u64>(), any::<u64>()), 1..400),
            max_len in 1usize..24,
            slab in any::<bool>(),
        ) {
            let config = StreamConfig::bounded(max_len);
            let s = if slab {
                let cfg = SlabConfig { max_series: 1, slots: 16, slot_bytes: 64, tiers: vec![] };
                Stream::new("t", config.with_slab(SlabStore::in_memory(cfg).unwrap()))
            } else {
                Stream::new("t", config)
            };
            let cap = SlabConfig::default().payload_cap();
            let (mut ms, mut ts) = (0u64, 1u64 << 40);
            let mut appended = HashMap::new();
            let mut tail: Option<(Arc<ColumnBatch>, Landed)> = None;
            let mut reader: Option<(Arc<ColumnBatch>, Landed)> = None;
            for (kind, a, b) in ops {
                match kind {
                    0..70 => {
                        ms = (ms + a % 4).saturating_sub(if b.is_multiple_of(16) { 3 } else { 0 });
                        ts = if b.is_multiple_of(13) { ts - a % 5_000 } else { ts + a % 3_000 };
                        let bytes = payload(a, b, ts, cap);
                        appended.insert(s.append(ms, bytes.clone()), bytes);
                    }
                    70..85 => {
                        let (lo, hi) = (a % (ms + 3), b % (ms + 3));
                        let (start, end) = (StreamId::new(lo, a % 3), StreamId::new(hi, u64::MAX - b % 2));
                        let entries = s.range(start, end);
                        prop_assert!(entries.iter().all(|e| e.payload.as_ref() == appended[&e.id]));
                        // Every retained row in range, and only those: a row
                        // over the slot capacity is gone once evicted.
                        let (first, front) =
                            (s.scan_meta().first_id, s.window.read().entries.front().map(|e| e.id));
                        let mut retained: Vec<StreamId> = (appended.iter())
                            .filter(|&(&id, bytes)| {
                                (start..=end).contains(&id)
                                    && first.is_some_and(|f| id >= f)
                                    && (bytes.len() <= cap || front.is_some_and(|f| id >= f))
                            })
                            .map(|(&id, _)| id)
                            .collect();
                        retained.sort_unstable();
                        prop_assert_eq!(entries.iter().map(|e| e.id).collect::<Vec<_>>(), retained);
                        let mut want = Landed::default();
                        want.decode(&entries);
                        let got = s.scan_columns(start, end);
                        prop_assert_eq!(Landed::of(&got), want);
                        let meta = s.scan_meta();
                        prop_assert_eq!((got.first_id, got.last_id), (meta.first_id, meta.last_id));
                    }
                    85..95 => {
                        let extended = tail.as_mut().is_some_and(|(t, want)| {
                            let from = t.last_id.and_then(StreamId::successor);
                            let ok = s.extend_columns(t);
                            if let (true, Some(from)) = (ok, from) {
                                want.decode(&s.range(from, StreamId::MAX));
                            }
                            ok
                        });
                        if !extended {
                            let mut want = Landed::default();
                            want.decode(&s.range(StreamId::MIN, StreamId::MAX));
                            tail = Some((Arc::new(s.scan_columns(StreamId::MIN, StreamId::MAX)), want));
                        }
                        let (t, want) = tail.as_ref().unwrap();
                        prop_assert_eq!(&Landed::of(t), want);
                        let meta = s.scan_meta();
                        prop_assert_eq!((t.first_id, t.last_id), (meta.first_id, meta.last_id));
                    }
                    _ => {
                        if let Some((held, want)) = &reader {
                            prop_assert_eq!(&Landed::of(held), want, "a reader's tail moved");
                        }
                        reader = tail.as_ref().map(|(t, _)| (Arc::clone(t), Landed::of(t)));
                    }
                }
            }
        }

        /// With a bounded window, range over everything must still return
        /// every appended entry exactly once in order (archive + window).
        #[test]
        fn no_entry_lost_under_retention(
            n in 1usize..500,
            max_len in 1usize..64,
            ms_step in prop::collection::vec(0u64..3, 1..500),
        ) {
            let s = Stream::new("t", StreamConfig::bounded(max_len));
            let mut appended = Vec::new();
            let mut ms = 0u64;
            for i in 0..n {
                ms += ms_step[i % ms_step.len()];
                appended.push(s.append(ms, vec![]));
            }
            let got = s.range(StreamId::MIN, StreamId::MAX);
            prop_assert_eq!(got.len(), n);
            let ids: Vec<StreamId> = got.iter().map(|e| e.id).collect();
            prop_assert_eq!(ids, appended);
        }

        /// Arbitrary sub-ranges agree with a naive filter over the full log.
        #[test]
        fn subrange_agrees_with_naive(
            n in 1usize..300,
            max_len in 1usize..32,
            a in 0u64..400,
            b in 0u64..400,
        ) {
            let s = Stream::new("t", StreamConfig::bounded(max_len));
            for i in 0..n {
                s.append(i as u64, vec![]);
            }
            let (start, end) = (StreamId::new(a.min(b), 0), StreamId::new(a.max(b), u64::MAX));
            let got: Vec<StreamId> = s.range(start, end).iter().map(|e| e.id).collect();
            let naive: Vec<StreamId> = s
                .range(StreamId::MIN, StreamId::MAX)
                .iter()
                .map(|e| e.id)
                .filter(|id| *id >= start && *id <= end)
                .collect();
            prop_assert_eq!(got, naive);
        }
    }
}
