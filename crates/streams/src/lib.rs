//! # apollo-streams
//!
//! An in-memory, append-only, ID-ordered stream log with publish/subscribe
//! delivery — the substrate standing in for **Redis Streams** in the
//! original Apollo (HPDC '21, §3.2.1: *"Redis Streams for maintaining
//! telemetry data in a queue and providing the Pub-Sub communication
//! paradigm"*).
//!
//! Apollo uses only a small, well-defined subset of Redis Streams, all of
//! which is implemented here with matching semantics:
//!
//! * **Append** with monotonically increasing `ms-seq` IDs
//!   ([`id::StreamId`], auto-generated or explicit).
//! * **Range reads** by ID/timestamp (`XRANGE` analogue) — the
//!   timestamp-based indexing the Query Executor relies on.
//! * **Tail reads** (`XREAD` analogue): blocking and non-blocking reads of
//!   entries after a cursor. The cursor is the reader's own last
//!   [`id::StreamId`]: an insight keeps one per input beside a
//!   [`broker::Reader`], a [`broker::Subscription`] keeps it for a blocking
//!   client, and a reader that must survive a crash saves it and resumes
//!   with [`broker::Broker::read_after`].
//! * **Retention** (`MAXLEN` analogue) with eviction into a slab ring
//!   ([`slab::SlabSeries`]) — the per-vertex *Archiver* of §3.1 that
//!   "stores the queue in a log"; evicted entries remain range-readable,
//!   and steady-state eviction is a zero-alloc slot write.
//! * **One spill backend** ([`slab`]): every ring lives in a slab store
//!   (series directory + fixed columnar slot rings + tiered consolidation
//!   buckets). [`stream::StreamConfig`]'s [`stream::SpillBackend`] picks
//!   which: a pre-allocated memory-mapped slab file shared by many
//!   streams, one series per stream, whose history survives restarts, or
//!   by default a private in-memory ring per stream that keeps its newest
//!   4 096 evictions.
//! * **Pub-Sub** ([`broker::Broker`]): a publish appends and wakes the
//!   topic's readers; a subscription is a cursor over the stream, so the
//!   broker keeps no per-subscriber copy and a slow subscriber holds no
//!   memory.
//! * **Typed telemetry codec** ([`codec`]): the `(timestamp, value,
//!   provenance)` fact tuple of §3.1 — measured, predicted, or stale
//!   (last-known-value republished during an outage) — encoded with `bytes`.

pub mod broker;
pub mod codec;
pub mod entry;
pub mod id;
pub mod slab;
pub mod stream;

pub use broker::{Broker, PublishWaker, Publisher, Reader, Subscription, TopicInfo};
pub use codec::{Provenance, Record};
pub use entry::Entry;
pub use id::StreamId;
pub use slab::{
    CompactPolicy, CompactReport, SlabConfig, SlabDirError, SlabStats, SlabStore, TierConfig,
};
pub use stream::{ColumnBatch, ScanBatch, ScanMeta, SpillBackend, Stream, StreamConfig};

/// The Archiver's contract (§3.1: evicted entries stay readable by ID
/// range), pinned over the ring a stream's evictions land in — the
/// private in-memory ring of a directory-less stream unless noted.
#[cfg(test)]
mod archiver {
    use crate::{SlabConfig, SlabStore, Stream, StreamConfig, StreamId};

    /// A stream that kept only `ms`'s last row in its window and evicted
    /// every earlier one into its ring.
    fn archived(ms: impl IntoIterator<Item = u64>) -> Stream {
        let s = Stream::new("a", StreamConfig::bounded(1));
        for ms in ms {
            s.append(ms, vec![ms as u8]);
        }
        s
    }

    /// Two streams on one series of a shared store: `ahead` evicts ms 5
    /// into it, then `behind` evicts ms 4.
    fn evict_behind_a_shared_series(store: std::sync::Arc<SlabStore>) {
        let config = StreamConfig::bounded(1).with_slab(store);
        let (ahead, behind) = (Stream::new("m", config.clone()), Stream::new("m", config));
        ahead.append(5, vec![]);
        ahead.append(6, vec![]);
        behind.append(4, vec![]);
        behind.append(7, vec![]);
    }

    mod tests {
        use super::*;

        #[test]
        fn append_and_range() {
            let s = archived(0..=100);
            let ring = s.archive().expect("evictions archived");
            assert_eq!(ring.live_len(), 100);
            let got = ring.range(StreamId::new(10, 0), StreamId::new(19, 0));
            assert_eq!(got.len(), 10);
            assert_eq!((got[0].id.ms, got[0].payload[0]), (10, 10));
            assert_eq!(got[9].id.ms, 19);
        }

        /// The ring's physical end (slot 4 095 → slot 0) is no seam to a
        /// limited read.
        #[test]
        fn range_limited_stops_at_max_across_segments() {
            let s = archived(0..=4_096 + 50);
            let ring = s.archive().unwrap();
            assert_eq!(ring.first_id(), Some(StreamId::new(50, 0)), "lapped: the newest 4 096");
            let mut out = Vec::new();
            ring.range_limited_into(StreamId::new(60, 0), StreamId::MAX, 4_096 - 20, &mut out);
            assert_eq!(out.len(), 4_096 - 20);
            assert!(out.iter().map(|e| e.id.ms).eq(60..60 + 4_096 - 20), "in order, past slot 0");
            let mut none = Vec::new();
            ring.range_limited_into(StreamId::MIN, StreamId::MAX, 0, &mut none);
            assert!(none.is_empty());
        }

        #[test]
        fn empty_range_and_inverted_range() {
            let s = archived([5, 100]);
            let ring = s.archive().unwrap();
            assert!(ring.range(StreamId::new(6, 0), StreamId::new(9, 0)).is_empty());
            assert!(ring.range(StreamId::new(9, 0), StreamId::new(6, 0)).is_empty());
            assert_eq!(ring.range(StreamId::new(5, 0), StreamId::new(5, 0)).len(), 1);
        }

        /// Over a shared store without a file.
        #[test]
        #[should_panic(expected = "out of order")]
        fn out_of_order_append_panics() {
            let cfg = SlabConfig { max_series: 1, ..SlabConfig::default() };
            evict_behind_a_shared_series(SlabStore::in_memory(cfg).unwrap());
        }

        #[test]
        fn last_id_tracks() {
            let s = archived([3]);
            assert!(s.archive().is_none(), "nothing evicted, no ring");
            s.append(4, vec![]);
            assert_eq!(s.archive().unwrap().last_id(), Some(StreamId::new(3, 0)));
        }

        mod slab_backed {
            use super::*;

            #[test]
            #[should_panic(expected = "out of order")]
            fn slab_out_of_order_append_panics() {
                let path = std::env::temp_dir()
                    .join(format!("apollo-archive-ooo-{}.slab", std::process::id()));
                let cfg = SlabConfig { max_series: 1, slots: 64, ..SlabConfig::default() };
                evict_behind_a_shared_series(SlabStore::create(&path, cfg).unwrap());
            }
        }
    }

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
                // A last row past every window keeps the others archived.
                let s = archived(ms_values.iter().copied().chain([u64::MAX]));
                let end = start.saturating_add(len);
                let got: Vec<u64> = s
                    .archive()
                    .map(|ring| ring.range(StreamId::new(start, 0), StreamId::new(end, 0)))
                    .unwrap_or_default()
                    .iter()
                    .map(|e| e.id.ms)
                    .collect();
                let expected: Vec<u64> =
                    ms_values.iter().copied().filter(|&ms| ms >= start && ms <= end).collect();
                prop_assert_eq!(got, expected);
            }
        }
    }
}
