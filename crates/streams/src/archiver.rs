//! The per-vertex Archiver.
//!
//! §3.1: each Fact and Insight vertex "holds a dedicated, in-memory queue
//! and Archiver … and stores the queue in a log". When the in-memory queue
//! evicts under retention pressure, evicted entries land here and stay
//! readable by ID range — the Query Executor "parses the queue (or the
//! persisted log for evicted entries)".
//!
//! Two backends sit behind the same API:
//!
//! * **Heap** (default): segmented in-memory runs — a closed segment is an
//!   immutable sorted run, which keeps range reads a binary search per
//!   segment. Gone on restart.
//! * **Slab** ([`ArchiveLog::with_slab`]): evicted entries are recorded
//!   into a durable [`crate::slab::SlabSeries`] ring — a zero-alloc mmap
//!   slot write, and the only durable format. Payloads too large for a
//!   slot overflow into the heap segments (counted by
//!   [`ArchiveLog::overflowed`]); the ring walk merges them in by ID.
//!   Reads are generic over a crate-private row sink (`entry::RowSink`).

use crate::entry::{Entry, RowSink};
use crate::id::StreamId;
use crate::slab::SlabSeries;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Number of entries per closed segment.
const SEGMENT_CAPACITY: usize = 4096;

#[derive(Debug, Default)]
struct Segments {
    /// Closed, immutable segments in ID order.
    closed: Vec<Vec<Entry>>,
    /// The open segment receiving appends.
    open: Vec<Entry>,
}

impl Segments {
    fn last_id(&self) -> Option<StreamId> {
        self.open
            .last()
            .map(|e| e.id)
            .or_else(|| self.closed.last().and_then(|s| s.last()).map(|e| e.id))
    }

    fn first_id(&self) -> Option<StreamId> {
        self.runs().find_map(<[Entry]>::first).map(|e| e.id)
    }

    fn len(&self) -> usize {
        self.closed.iter().map(Vec::len).sum::<usize>() + self.open.len()
    }

    fn runs(&self) -> impl Iterator<Item = &[Entry]> {
        self.closed.iter().map(Vec::as_slice).chain(std::iter::once(self.open.as_slice()))
    }
}

/// An append-only archival log of evicted stream entries.
#[derive(Debug, Default)]
pub struct ArchiveLog {
    segments: RwLock<Segments>,
    /// Durable slab ring backing this log, if configured.
    slab: Option<SlabSeries>,
    /// Entries pushed to the heap segments because their payload exceeded
    /// the slab's inline slot capacity.
    overflowed: AtomicU64,
    /// Fast "any heap overflow?" check so the slab hot path skips the
    /// segments lock entirely in the common case.
    overflow_nonempty: AtomicBool,
}

impl ArchiveLog {
    /// Create an empty heap-backed log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a log that records evictions into a durable slab series.
    pub fn with_slab(series: SlabSeries) -> Self {
        Self { slab: Some(series), ..Self::default() }
    }

    /// The slab series behind this log, if slab-backed.
    pub fn slab_series(&self) -> Option<&SlabSeries> {
        self.slab.as_ref()
    }

    /// Entries that overflowed to the heap because their payload exceeded
    /// the slab's inline slot capacity (always 0 for heap-backed logs).
    pub fn overflowed(&self) -> u64 {
        self.overflowed.load(Ordering::Relaxed)
    }

    /// Append an entry. IDs must arrive in strictly increasing order (the
    /// stream evicts oldest-first, so this holds by construction).
    ///
    /// # Panics
    /// Panics if `entry.id` is not greater than the last archived ID; the
    /// stream layer guarantees ordering, so a violation is a logic bug.
    pub fn append(&self, entry: Entry) {
        if let Some(slab) = &self.slab {
            let last = if self.overflow_nonempty.load(Ordering::Relaxed) {
                self.last_id()
            } else {
                slab.last_id()
            };
            if let Some(last) = last {
                assert!(entry.id > last, "archive append out of order: {} after {last}", entry.id);
            }
            if slab.record(entry.id, &entry.payload) {
                if self.overflow_nonempty.load(Ordering::Relaxed) {
                    self.drop_lapped_overflow(slab);
                }
                return;
            }
            // Payload too large for an inline slot: keep it on the heap
            // overflow path (ordering vs. the slab was checked above).
            self.overflowed.fetch_add(1, Ordering::Relaxed);
            self.overflow_nonempty.store(true, Ordering::Relaxed);
            self.push_heap(entry, false);
            return;
        }
        self.push_heap(entry, true);
    }

    /// A lapped ring retains a suffix of what was archived, and the log as
    /// a whole must too ([`ArchiveLog::first_id`]): overflow rows older
    /// than the oldest slot the ring still holds go with the slots they
    /// sat between.
    fn drop_lapped_overflow(&self, slab: &SlabSeries) {
        let Some(floor) = slab.lapped_floor_id() else { return };
        if self.segments.read().first_id().is_some_and(|first| first >= floor) {
            return;
        }
        let Segments { closed, open } = &mut *self.segments.write();
        closed.retain(|run| run.last().is_some_and(|e| e.id >= floor));
        for run in closed.first_mut().into_iter().chain(Some(&mut *open)) {
            run.drain(..run.partition_point(|e| e.id < floor));
        }
        // Nothing left: appends stop paying for the check.
        self.overflow_nonempty.store(!(closed.is_empty() && open.is_empty()), Ordering::Relaxed);
    }

    fn push_heap(&self, entry: Entry, check_order: bool) {
        let mut seg = self.segments.write();
        if check_order {
            if let Some(last) = seg.last_id() {
                assert!(entry.id > last, "archive append out of order: {} after {last}", entry.id);
            }
        }
        seg.open.push(entry);
        if seg.open.len() >= SEGMENT_CAPACITY {
            let full = std::mem::take(&mut seg.open);
            seg.closed.push(full);
        }
    }

    /// Total number of readable archived entries. For slab-backed logs
    /// this is the ring's live span plus any heap overflow: a wrapped ring
    /// retains only its `slots` newest entries.
    pub fn len(&self) -> usize {
        let heap = self.segments.read().len();
        match &self.slab {
            Some(s) => heap + s.live_len() as usize,
            None => heap,
        }
    }

    /// True when nothing has been archived.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest archived ID, if any.
    pub fn last_id(&self) -> Option<StreamId> {
        let heap = if self.slab.is_none() || self.overflow_nonempty.load(Ordering::Relaxed) {
            self.segments.read().last_id()
        } else {
            None
        };
        let slab = self.slab.as_ref().and_then(|s| s.last_id());
        match (heap, slab) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        }
    }

    /// Oldest archived ID still readable, if any. The log only ever loses
    /// its oldest rows (a heap log none at all), so every row archived
    /// with an ID from here on is readable.
    pub fn first_id(&self) -> Option<StreamId> {
        let heap = self.slab.is_none() || self.overflow_nonempty.load(Ordering::Relaxed);
        let heap = if heap { self.segments.read().first_id() } else { None };
        let slab = self.slab.as_ref().and_then(|s| s.first_id());
        match (heap, slab) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// All entries with `start <= id <= end`, in ID order, appended to `out`.
    pub fn range_into(&self, start: StreamId, end: StreamId, out: &mut Vec<Entry>) {
        self.range_limited_into(start, end, usize::MAX, out);
    }

    /// Like [`ArchiveLog::range_into`], but stops after appending at most
    /// `max` entries — the consumer-group catch-up path wants the oldest
    /// `max` lagged entries, not the whole archive tail.
    pub fn range_limited_into(
        &self,
        start: StreamId,
        end: StreamId,
        max: usize,
        out: &mut Vec<Entry>,
    ) {
        self.walk(start, end, max, out);
    }

    /// The oldest `max` archived rows with `start <= id <= end` into
    /// `sink`, in ID order: the heap runs, or the ring walk with any
    /// oversize-payload overflow rows (few) merged in by ID.
    pub(crate) fn walk<S: RowSink>(
        &self,
        start: StreamId,
        end: StreamId,
        max: usize,
        sink: &mut S,
    ) {
        let Some(slab) = &self.slab else { return self.walk_heap(start, end, max, sink) };
        let mut overflow = Vec::new();
        if self.overflow_nonempty.load(Ordering::Relaxed) {
            self.walk_heap(start, end, max, &mut overflow);
        }
        slab.walk(start, end, max, &overflow, sink);
    }

    fn walk_heap<S: RowSink>(&self, start: StreamId, end: StreamId, max: usize, sink: &mut S) {
        let seg = self.segments.read();
        // Each run's rows in range (an inverted range selects nothing).
        let spans = || {
            seg.runs().map(|run| {
                let lo = run.partition_point(|e| e.id < start);
                &run[lo..run.partition_point(|e| e.id <= end).max(lo)]
            })
        };
        sink.reserve(spans().map(<[Entry]>::len).sum::<usize>().min(max));
        sink.push_entries(spans().flatten().take(max));
    }

    /// Convenience wrapper over [`ArchiveLog::range_into`].
    pub fn range(&self, start: StreamId, end: StreamId) -> Vec<Entry> {
        let mut out = Vec::new();
        self.range_into(start, end, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(ms: u64, v: u8) -> Entry {
        Entry::new(StreamId::new(ms, 0), vec![v])
    }

    #[test]
    fn append_and_range() {
        let log = ArchiveLog::new();
        for i in 0..100 {
            log.append(e(i, i as u8));
        }
        assert_eq!(log.len(), 100);
        let got = log.range(StreamId::new(10, 0), StreamId::new(19, 0));
        assert_eq!(got.len(), 10);
        assert_eq!(got[0].id.ms, 10);
        assert_eq!(got[9].id.ms, 19);
    }

    #[test]
    fn range_spanning_segments() {
        let log = ArchiveLog::new();
        let n = SEGMENT_CAPACITY * 2 + 100;
        for i in 0..n {
            log.append(e(i as u64, 0));
        }
        let start = StreamId::new(SEGMENT_CAPACITY as u64 - 5, 0);
        let end = StreamId::new(SEGMENT_CAPACITY as u64 + 5, 0);
        let got = log.range(start, end);
        assert_eq!(got.len(), 11);
        assert!(got.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn range_limited_stops_at_max_across_segments() {
        let log = ArchiveLog::new();
        let n = SEGMENT_CAPACITY + 50;
        for i in 0..n {
            log.append(e(i as u64, 0));
        }
        let mut out = Vec::new();
        log.range_limited_into(StreamId::new(10, 0), StreamId::MAX, SEGMENT_CAPACITY + 5, &mut out);
        assert_eq!(out.len(), SEGMENT_CAPACITY + 5);
        assert_eq!(out[0].id.ms, 10);
        assert!(out.windows(2).all(|w| w[0].id < w[1].id));
        let mut none = Vec::new();
        log.range_limited_into(StreamId::MIN, StreamId::MAX, 0, &mut none);
        assert!(none.is_empty());
    }

    #[test]
    fn empty_range_and_inverted_range() {
        let log = ArchiveLog::new();
        log.append(e(5, 0));
        assert!(log.range(StreamId::new(6, 0), StreamId::new(9, 0)).is_empty());
        assert!(log.range(StreamId::new(9, 0), StreamId::new(6, 0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_append_panics() {
        let log = ArchiveLog::new();
        log.append(e(5, 0));
        log.append(e(4, 0));
    }

    #[test]
    fn last_id_tracks() {
        let log = ArchiveLog::new();
        assert_eq!(log.last_id(), None);
        log.append(e(3, 0));
        assert_eq!(log.last_id(), Some(StreamId::new(3, 0)));
    }

    mod slab_backed {
        use super::*;
        use crate::slab::{SlabConfig, SlabStore};

        fn store(name: &str, slots: u32) -> std::sync::Arc<SlabStore> {
            let dir = std::env::temp_dir()
                .join(format!("apollo-archive-slab-{}-{name}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            SlabStore::create(
                dir.join("t.slab"),
                SlabConfig { max_series: 4, slots, max_cursors: 4, ..SlabConfig::default() },
            )
            .unwrap()
        }

        #[test]
        fn slab_log_matches_heap_semantics() {
            let store = store("sem", 256);
            let log = ArchiveLog::with_slab(store.series("m").unwrap());
            for i in 0..100 {
                log.append(e(i, i as u8));
            }
            assert_eq!(log.len(), 100);
            assert_eq!(log.last_id(), Some(StreamId::new(99, 0)));
            let got = log.range(StreamId::new(10, 0), StreamId::new(19, 0));
            assert_eq!(got.len(), 10);
            assert_eq!(got[0].payload[0], 10);
            let mut limited = Vec::new();
            log.range_limited_into(StreamId::new(10, 0), StreamId::MAX, 5, &mut limited);
            assert_eq!(limited.len(), 5);
            assert_eq!(limited[0].id.ms, 10);
            assert_eq!(log.overflowed(), 0);
        }

        #[test]
        fn oversize_payloads_overflow_to_heap_and_merge_in_order() {
            let store = store("ovf", 256);
            let cap = store.config().payload_cap();
            let log = ArchiveLog::with_slab(store.series("m").unwrap());
            log.append(Entry::new(StreamId::new(1, 0), vec![1u8; 4]));
            log.append(Entry::new(StreamId::new(2, 0), vec![2u8; cap + 10]));
            log.append(Entry::new(StreamId::new(3, 0), vec![3u8; 4]));
            assert_eq!(log.overflowed(), 1);
            assert_eq!(log.len(), 3);
            assert_eq!(log.last_id(), Some(StreamId::new(3, 0)));
            let all = log.range(StreamId::MIN, StreamId::MAX);
            assert_eq!(all.iter().map(|x| x.id.ms).collect::<Vec<_>>(), vec![1, 2, 3]);
            assert_eq!(all[1].payload.len(), cap + 10);
            let mut limited = Vec::new();
            log.range_limited_into(StreamId::MIN, StreamId::MAX, 2, &mut limited);
            assert_eq!(limited.iter().map(|x| x.id.ms).collect::<Vec<_>>(), vec![1, 2]);
        }

        #[test]
        fn a_lapped_ring_takes_older_overflow_rows_with_it() {
            let store = store("first", 8);
            let oversize = vec![0u8; store.config().payload_cap() + 1];
            let log = ArchiveLog::with_slab(store.series("m").unwrap());
            assert_eq!(log.first_id(), None);
            for ms in 1..=10 {
                match ms {
                    1 | 9 => log.append(Entry::new(StreamId::new(ms, 0), oversize.clone())),
                    _ => log.append(e(ms, 0)),
                }
            }
            assert_eq!(log.first_id(), Some(StreamId::new(1, 0)), "not lapped: nothing lost");
            assert_eq!(log.range(StreamId::MIN, StreamId::MAX).len(), 10);
            // The ninth ring row overwrites ms 2: the overflow row older
            // than the ring's new oldest (ms 3) is no longer a suffix row.
            log.append(e(11, 0));
            assert_eq!(log.first_id(), Some(StreamId::new(3, 0)));
            let left = log.range(StreamId::MIN, StreamId::MAX);
            assert!(left.iter().map(|x| x.id.ms).eq(3..=11), "ms 9's overflow row stays, in order");
        }

        #[test]
        #[should_panic(expected = "out of order")]
        fn slab_out_of_order_append_panics() {
            let store = store("ooo", 64);
            let log = ArchiveLog::with_slab(store.series("m").unwrap());
            log.append(e(5, 0));
            log.append(e(4, 0));
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn range_matches_naive_filter(
            ms_values in proptest::collection::btree_set(0u64..10_000, 0..300),
            start in 0u64..10_000,
            len in 0u64..10_000,
        ) {
            let log = ArchiveLog::new();
            let all: Vec<Entry> = ms_values
                .iter()
                .map(|&ms| Entry::new(StreamId::new(ms, 0), vec![]))
                .collect();
            for e in &all {
                log.append(e.clone());
            }
            let end = start.saturating_add(len);
            let got = log.range(StreamId::new(start, 0), StreamId::new(end, 0));
            let expected: Vec<Entry> = all
                .iter()
                .filter(|e| e.id.ms >= start && e.id.ms <= end)
                .cloned()
                .collect();
            prop_assert_eq!(got, expected);
        }
    }
}
