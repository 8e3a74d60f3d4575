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
//!   entries after a cursor.
//! * **Retention** (`MAXLEN` analogue) with eviction into an
//!   [`archiver::ArchiveLog`] — the per-vertex *Archiver* of §3.1 that
//!   "stores the queue in a log"; evicted entries remain range-readable.
//! * **Durable slab spill** ([`slab`]): the archive can record into a
//!   pre-allocated memory-mapped slab file (series directory + fixed
//!   columnar slot rings + tiered consolidation buckets) so steady-state
//!   eviction is a zero-alloc mmap slot write and history plus
//!   consumer-group cursors survive restarts. Select it through
//!   [`stream::StreamConfig`]'s [`stream::SpillBackend`]; the slab is the
//!   only durable format.
//! * **Pub-Sub fan-out** ([`broker::Broker`]): subscribers receive new
//!   entries over bounded queues with explicit [`broker::BackpressurePolicy`];
//!   consumer groups provide exactly-once-per-group delivery with
//!   acknowledgement, idle-entry reclamation (`XAUTOCLAIM` analogue), and
//!   dead-lettering of poison entries past a delivery cap.
//! * **Typed telemetry codec** ([`codec`]): the `(timestamp, value,
//!   provenance)` fact tuple of §3.1 — measured, predicted, or stale
//!   (last-known-value republished during an outage) — encoded with `bytes`.

pub mod archiver;
pub mod broker;
pub mod codec;
pub mod entry;
pub mod id;
pub mod slab;
pub mod stream;

pub use archiver::ArchiveLog;
pub use broker::{
    BackpressurePolicy, Broker, ConsumerGroup, GroupError, PublishWaker, Publisher,
    SubscribeOptions, Subscription, TopicInfo,
};
pub use codec::{Provenance, Record};
pub use entry::Entry;
pub use id::StreamId;
pub use slab::{
    CompactPolicy, CompactReport, SlabConfig, SlabDirError, SlabStats, SlabStore, TierConfig,
};
pub use stream::{ColumnBatch, ScanBatch, SpillBackend, Stream, StreamConfig};
