//! Durable memory-mapped slab store (rondo-style).
//!
//! A stream's hot window is a heap `VecDeque`; its evictions land in a
//! slab ring — always. A [`SlabStore`] is the one archive format: a
//! pre-allocated, memory-mapped file shared by many streams, or, for a
//! stream with no shared store, a private zeroed buffer
//! ([`SlabStore::in_memory`]) of the same layout that is gone on restart.
//! Either holds
//!
//! * a **header page** (magic, version, geometry, config hash),
//! * a **series directory** (fixed-size dirents naming each ring; an
//!   in-memory name index over it makes an attach O(1), see
//!   [`SlabStore::series`]),
//! * per-series **entry rings** (fixed-size columnar slots), and
//! * per-series **consolidation tiers** (bucketed count/sum/min/max
//!   aggregates at coarsening resolutions, e.g. 1s × 10m → 10s × 6h →
//!   5m × 7d).
//!
//! A ring slot is one [`crate::Record`] in five 8-byte words:
//!
//! ```text
//! [ id ms ][ id seq ][ timestamp_ns ][ value bits ][ provenance wire + 1 | checksum << 32 ]
//! ```
//!
//! 40 bytes ([`SLOT_BYTES`]), fixed: a slot holds one record, and
//! [`SlabSeries::push`] writes any record. A steady-state write
//! is a zero-alloc slot write into the mapping: the five words, then
//! **publish** by storing the bumped per-series `head` with `Release`
//! ordering. The head is the commit word: entries below it are committed,
//! the slot at `head % slots` is scratch. The checksum folds the first
//! four words and the provenance half of the fifth (format version 4; a
//! file of an earlier version is refused, not migrated), and a provenance
//! half outside 1–3 is a never-written or damaged slot. Reads are one walk,
//! generic over where the rows land: each slot's words are loaded once,
//! verified against its checksum and lent to the sink as a record —
//! entries hold it, columns take its fields. Crash recovery in
//! [`SlabStore::open`] re-validates every committed slot (checksum +
//! strictly increasing IDs) and rolls torn or unsynced slots out of the
//! committed range — a torn tail shrinks `head`, a destroyed oldest slot
//! (crash mid-overwrite before the head bump) advances the per-series
//! `tail` floor.
//!
//! Durability contract: after a **process** crash every published write
//! survives (the pages live in the kernel page cache); after a **machine**
//! crash the committed prefix as of the last [`SlabStore::flush`] (msync)
//! survives, minus whatever the torn-tail rollback discards. Consolidation
//! is at-least-once across crashes: tier buckets are advisory aggregates
//! and may re-fold an in-flight batch.
//!
//! Lifecycle: dirents are reclaimed, not allocate-only. A retired series
//! (zero live [`SlabSeries`] handles, consolidation caught up, newest
//! entry older than the [`CompactPolicy`] retention horizon) is collected
//! by [`SlabStore::compact`] in two crash-safe phases: the dirent state
//! word is flipped to a **tombstone** and its name leaves the index, the
//! ring, tier buckets, and dirent fields are scrubbed, the scrub is
//! msync'd, and only then does the dirent return to the free state (and
//! the index's free dirents). A crash mid-reclaim leaves the
//! tombstone behind; [`SlabStore::open`] completes the scrub
//! ([`OpenReport::reclaimed_tombstones`]), so a reclaimed ring can never
//! resurface a dead series' (still-checksummed) payloads under a new
//! name. `apollo-core`'s event loop runs the lifecycle — consolidate,
//! flush, compact — as one step; directory exhaustion surfaces as typed
//! [`SlabDirError`]s, a one-shot WARN and the store's
//! [`SlabStats::series_fallbacks`] (exported by an instrumented broker as
//! `streams.slab.dir_full`) instead of a silent fallback.
//!
//! A [`crate::Stream`] holds its ring directly, selected by
//! [`crate::StreamConfig`]'s `spill` backend. The exactly-once scan
//! contract is the stream's window lock: the slot write happens under its
//! write lock, and every ring read the stream makes holds its read lock,
//! so a read never races the ring's one writer.

use crate::codec::{Provenance, Record};
use crate::entry::{Entry, RowSink};
use crate::id::StreamId;
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fs::OpenOptions;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// File magic, first 8 bytes of the header page.
pub const SLAB_MAGIC: [u8; 8] = *b"APOLSLB1";
/// On-disk format version.
pub const SLAB_VERSION: u32 = 4;
/// Size of the header page.
pub const HEADER_BYTES: usize = 4096;
/// Size of one series directory entry.
pub const DIRENT_BYTES: usize = 256;
/// Longest series name storable in a dirent.
pub const NAME_CAP: usize = DIRENT_BYTES - 40;
/// One ring slot: `ms u64 | seq u64 | timestamp_ns u64 | value bits u64 |
/// (provenance wire + 1) u32 | checksum u32`.
pub const SLOT_BYTES: usize = 40;
/// Consolidation bucket: `start_ms u64 | count u64 | sum f64 | min f64 | max f64`.
pub const BUCKET_BYTES: usize = 40;
/// Most consolidation tiers a store can be configured with.
pub const MAX_TIERS: usize = 6;

/// Dirent state word values. `FREE` dirents are allocatable; `TOMBSTONE`
/// marks a series mid-reclaim whose scrub may not be durable yet — never
/// allocatable, completed (scrubbed and freed) on reopen.
const STATE_FREE: u64 = 0;
const STATE_LIVE: u64 = 1;
const STATE_TOMBSTONE: u64 = 2;

/// Series dirent field offsets.
const D_STATE: usize = 0; // u64: see STATE_*
const D_HEAD: usize = 8; // commit word
const D_CONSOLIDATED: usize = 16; // consolidation watermark
const D_TAIL: usize = 24; // readable floor
const D_NAME_LEN: usize = 32;
const D_NAME: usize = 40;

/// Header field offsets.
const H_MAGIC: usize = 0;
const H_VERSION: usize = 8;
const H_MAX_SERIES: usize = 12;
const H_SLOTS: usize = 16;
const H_TIER_COUNT: usize = 24;
const H_TIERS: usize = 32; // MAX_TIERS × (interval_ms u64, buckets u64)
const H_CONFIG_HASH: usize = H_TIERS + MAX_TIERS * 16;

/// One consolidation tier: fold raw records into `buckets` ring-buffered
/// aggregate buckets of `interval_ms` width each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// Bucket width in milliseconds of ID time.
    pub interval_ms: u64,
    /// Buckets retained per series (ring — old buckets are reused).
    pub buckets: u32,
}

impl TierConfig {
    /// Convenience constructor.
    pub fn new(interval_ms: u64, buckets: u32) -> Self {
        Self { interval_ms, buckets }
    }
}

/// Geometry of a slab store. Fixed at creation; [`SlabStore::open`]
/// reconstructs it from the header and refuses mismatched reopens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlabConfig {
    /// Series directory capacity.
    pub max_series: u32,
    /// Entry slots per series ring.
    pub slots: u32,
    /// Consolidation tiers, coarsest last, strictly increasing intervals.
    pub tiers: Vec<TierConfig>,
}

impl Default for SlabConfig {
    /// 256 series × 4096 slots × 40 B slots with the ROADMAP's
    /// 1s × 10m → 10s × 6h → 5m × 7d consolidation tiers (~88 MB virtual,
    /// sparse until written).
    fn default() -> Self {
        Self {
            max_series: 256,
            slots: 4096,
            tiers: vec![
                TierConfig::new(1_000, 600),     // 1 s buckets × 10 min
                TierConfig::new(10_000, 2_160),  // 10 s buckets × 6 h
                TierConfig::new(300_000, 2_016), // 5 min buckets × 7 d
            ],
        }
    }
}

impl SlabConfig {
    /// Validate the geometry, normalizing nothing.
    pub fn validated(self) -> io::Result<Self> {
        let bad = |msg: &str| Err(io::Error::new(io::ErrorKind::InvalidInput, msg.to_string()));
        if self.max_series == 0 {
            return bad("slab config: max_series must be > 0");
        }
        if self.slots < 2 {
            return bad("slab config: slots must be >= 2");
        }
        if self.tiers.len() > MAX_TIERS {
            return bad("slab config: too many consolidation tiers");
        }
        if self.tiers.iter().any(|t| t.interval_ms == 0 || t.buckets == 0) {
            return bad("slab config: tier interval and bucket count must be > 0");
        }
        if self.tiers.windows(2).any(|w| w[1].interval_ms <= w[0].interval_ms) {
            return bad("slab config: tier intervals must be strictly increasing");
        }
        Ok(self)
    }

    /// Word fold (`fold`) over the version and the geometry — the
    /// header's config hash.
    pub fn hash(&self) -> u64 {
        let mut h = fold(FOLD_BASIS, SLAB_VERSION as u64);
        for w in [self.max_series, self.slots] {
            h = fold(h, w as u64);
        }
        h = fold(h, self.tiers.len() as u64);
        for t in &self.tiers {
            h = fold(fold(h, t.interval_ms), t.buckets as u64);
        }
        h
    }
}

const FOLD_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One hash step over a 64-bit word: a multiply, then a half rotation so
/// the next step's multiply spreads this word's high bits too.
fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(32)
}

/// The five words of the slot that stores `rec` under `id`; the last
/// carries the checksum guarding the slot against torn writes.
fn slot_words(id: StreamId, rec: &Record) -> [u64; 5] {
    let (ts, value, prov) =
        (rec.timestamp_ns, rec.value.to_bits(), rec.provenance.wire() as u64 + 1);
    let xsum = slot_checksum([id.ms, id.seq, ts, value, prov]) as u64;
    [id.ms, id.seq, ts, value, prov | xsum << 32]
}

/// The row a slot's five loaded words hold: `None` when the checksum
/// fails (torn or mid-overwrite) or the provenance half is outside 1–3
/// (0 is a never-written slot).
fn slot_row(w: [u64; 5]) -> Option<(StreamId, Record)> {
    let prov = w[4] as u32 as u64;
    if slot_checksum([w[0], w[1], w[2], w[3], prov]) != (w[4] >> 32) as u32 {
        return None;
    }
    let provenance = Provenance::from_wire(u8::try_from(prov).ok()?.wrapping_sub(1))?;
    let rec = Record { timestamp_ns: w[2], value: f64::from_bits(w[3]), provenance };
    Some((StreamId::new(w[0], w[1]), rec))
}

/// [`fold`], from [`FOLD_BASIS`], over a slot's words with the checksum
/// half of the last cleared; the stored field is the low 32 bits of
/// `(h >> 32) ^ h`.
fn slot_checksum(words: [u64; 5]) -> u32 {
    let h = words.into_iter().fold(FOLD_BASIS, fold);
    ((h >> 32) ^ h) as u32
}

/// Byte offsets of every region of a slab file — public so tests can
/// surgically corrupt specific words when exercising recovery.
#[derive(Debug, Clone)]
pub struct SlabLayout {
    series_dir: usize,
    rings: usize,
    ring_stride: usize,
    tier_base: Vec<usize>,
    tier_stride: Vec<usize>,
    total: usize,
}

impl SlabLayout {
    /// Compute the layout for a geometry.
    pub fn for_config(cfg: &SlabConfig) -> Self {
        let series_dir = HEADER_BYTES;
        let rings = series_dir + cfg.max_series as usize * DIRENT_BYTES;
        let ring_stride = cfg.slots as usize * SLOT_BYTES;
        let mut at = rings + cfg.max_series as usize * ring_stride;
        let mut tier_base = Vec::with_capacity(cfg.tiers.len());
        let mut tier_stride = Vec::with_capacity(cfg.tiers.len());
        for t in &cfg.tiers {
            let stride = t.buckets as usize * BUCKET_BYTES;
            tier_base.push(at);
            tier_stride.push(stride);
            at += cfg.max_series as usize * stride;
        }
        Self { series_dir, rings, ring_stride, tier_base, tier_stride, total: at }
    }

    /// Total file size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.total
    }

    /// Offset of series dirent `idx`.
    pub fn series_dirent(&self, idx: usize) -> usize {
        self.series_dir + idx * DIRENT_BYTES
    }

    /// Offset of ring slot `slot` of series `idx`.
    pub fn slot(&self, idx: usize, slot: usize) -> usize {
        self.rings + idx * self.ring_stride + slot * SLOT_BYTES
    }

    /// Offset of bucket `bucket` of tier `tier` of series `idx`.
    pub fn bucket(&self, tier: usize, idx: usize, bucket: usize) -> usize {
        self.tier_base[tier] + idx * self.tier_stride[tier] + bucket * BUCKET_BYTES
    }
}

#[cfg(not(target_family = "unix"))]
compile_error!("the slab store maps its file with unix mmap: build on a unix target");

mod mem {
    //! Raw `mmap` wrapper. No mmap crate is vendored, and libc is always
    //! linked on unix, so the four calls are declared directly.
    //!
    //! A file mapping is advised random-access (`MADV_RANDOM`). A store
    //! writes a few slots per ring between flushes, scattered over a sparse
    //! file; under the default advice a write fault into a hole reads a
    //! readahead folio around it, whose pages then map and stay resident
    //! (on Linux 6.18 over ext4, about 13 of a 16-page ring whose writes
    //! fill 3), and `msync` writes whole dirty folios back. Under
    //! random-access advice a slot write faults, dirties and flushes the
    //! one 4 KiB page it lands on, so the store's resident size is the
    //! pages it wrote. The advice changes no byte the store reads or
    //! writes; a kernel that refuses it keeps the default.
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_SHARED: i32 = 1;
    const MS_SYNC: i32 = 4;
    const MADV_RANDOM: i32 = 1;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
        fn msync(addr: *mut u8, len: usize, flags: i32) -> i32;
        fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
    }

    /// A shared, writable mapping of a file, or a private zeroed buffer.
    pub struct Map {
        ptr: *mut u8,
        len: usize,
        /// The words behind `ptr` when they are a private buffer, not a
        /// file mapping (never resized, so `ptr` stays valid).
        words: Option<Vec<u64>>,
    }

    // SAFETY: `ptr` is plain memory valid for `len` bytes until drop (a
    // shared file mapping, or `words`' buffer, which is never touched
    // again after `in_memory` takes the pointer); all cross-thread
    // coordination happens through atomics the store layers on top.
    unsafe impl Send for Map {}
    unsafe impl Sync for Map {}

    impl Map {
        pub fn of_file(file: &File, len: usize) -> io::Result<Self> {
            assert!(len > 0, "cannot map an empty file");
            // SAFETY: a fresh mapping of `len` bytes of `file`; the advice
            // covers exactly that range, and only when the map succeeded.
            let ptr = unsafe {
                let ptr = mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_SHARED,
                    file.as_raw_fd(),
                    0,
                );
                if ptr as isize != -1 {
                    // Best effort: a refused advice leaves the default
                    // readahead, which costs residency, not correctness.
                    madvise(ptr, len, MADV_RANDOM);
                }
                ptr
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { ptr, len, words: None })
        }

        /// `len` zeroed bytes of private memory (untouched pages stay
        /// unbacked).
        pub fn in_memory(len: usize) -> Self {
            let mut words = vec![0u64; len.div_ceil(8)];
            Self { ptr: words.as_mut_ptr().cast(), len, words: Some(words) }
        }

        pub fn ptr(&self) -> *mut u8 {
            self.ptr
        }

        /// `msync(MS_SYNC)` the whole mapping; a private buffer has nothing
        /// to sync.
        pub fn sync(&self) -> io::Result<()> {
            if self.words.is_none() && unsafe { msync(self.ptr, self.len, MS_SYNC) } != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            if self.words.is_none() {
                // SAFETY: `ptr`/`len` are the live mapping `of_file` made,
                // unmapped once, here.
                unsafe {
                    munmap(self.ptr, self.len);
                }
            }
        }
    }
}

/// What [`SlabStore::open`] found and repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// Live series in the directory.
    pub series_live: usize,
    /// Committed entries readable after validation, across all series.
    pub recovered_entries: u64,
    /// Slots discarded by torn-tail / destroyed-oldest rollback.
    pub rolled_back_slots: u64,
    /// Torn [`SlabStore::compact`] reclaims completed on reopen: dirents
    /// found tombstoned, scrubbed again, and returned to the free state.
    pub reclaimed_tombstones: usize,
}

/// Typed slab directory-exhaustion errors. These are the conditions that
/// used to degrade silently: [`SlabStore::series`] counts each in
/// [`SlabStats::series_fallbacks`] and warns on the first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlabDirError {
    /// Every series dirent is live or tombstoned; no ring can be
    /// allocated until churned series are compacted away.
    SeriesDirectoryFull {
        /// The store's `max_series`.
        capacity: u32,
    },
    /// The series name does not fit a dirent.
    NameTooLong {
        /// Offered name length in bytes.
        len: usize,
        /// [`NAME_CAP`].
        cap: usize,
    },
}

impl std::fmt::Display for SlabDirError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlabDirError::SeriesDirectoryFull { capacity } => {
                write!(f, "slab series directory full (max_series = {capacity})")
            }
            SlabDirError::NameTooLong { len, cap } => {
                write!(f, "slab dirent name too long ({len} bytes, cap {cap})")
            }
        }
    }
}

impl std::error::Error for SlabDirError {}

impl From<SlabDirError> for io::Error {
    fn from(e: SlabDirError) -> Self {
        io::Error::other(e.to_string())
    }
}

/// When [`SlabStore::compact`] may reclaim a retired series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactPolicy {
    /// A series is reclaimable only once its newest entry is at least
    /// this much ID time older than the pass' `now_ms` (empty series are
    /// reclaimed immediately). Guards against collecting a series a
    /// restart is about to re-attach; `u64::MAX` keeps every series that
    /// holds an entry.
    pub retention_ms: u64,
}

impl Default for CompactPolicy {
    /// 10 minutes — one full finest-tier window in the default geometry.
    fn default() -> Self {
        Self { retention_ms: 600_000 }
    }
}

/// Outcome of one [`SlabStore::compact`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Live series examined.
    pub scanned: usize,
    /// Series dirents reclaimed (tombstoned, scrubbed, freed).
    pub reclaimed: usize,
    /// Readable entries discarded with those series.
    pub reclaimed_entries: u64,
    /// Series kept: a `SlabSeries` handle is still alive.
    pub kept_live_handles: usize,
    /// Series kept: consolidation has not caught up with the ring.
    pub kept_unconsolidated: usize,
    /// Series kept: newest entry is within the retention horizon.
    pub kept_fresh: usize,
}

/// Aggregate occupancy / progress numbers for gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SlabStats {
    /// Live series dirents.
    pub series_live: usize,
    /// Series directory capacity.
    pub series_capacity: usize,
    /// Entries ever recorded (sum of heads).
    pub appended: u64,
    /// Entries currently readable (sum of live ring spans).
    pub live_entries: u64,
    /// Ring slots across live series.
    pub slot_capacity: u64,
    /// `live_entries / slot_capacity`, 0.0 when no series exist.
    pub occupancy: f64,
    /// Committed entries not yet folded into consolidation tiers.
    pub consolidation_lag: u64,
    /// Frames [`SlabSeries::record`] refused: not a 17-byte
    /// [`crate::Record`] frame.
    pub rejected: u64,
    /// [`SlabStore::series`] calls refused a series (directory full or
    /// name too long): each such `Stream` falls back to a private
    /// in-memory ring.
    pub series_fallbacks: u64,
    /// Series dirents mid-reclaim (tombstoned; freed once the scrub is
    /// durable, or on reopen).
    pub series_tombstoned: usize,
    /// Committed entries that aged out of their ring before a
    /// consolidation pass folded them (ring-lap data loss).
    pub lapped_entries: u64,
    /// Records published since the last completed [`SlabStore::flush`] —
    /// the machine-crash loss window, in records.
    pub dirty_records: u64,
}

impl SlabStats {
    /// Worst-case fill fraction across the exhaustion axes: series
    /// directory (live + tombstoned) and ring occupancy. 1.0 means an axis
    /// is saturated — new series will be refused, or rings are lapping
    /// history. Exported as the `apollo/self/slab_pressure` self-observer
    /// fact.
    pub fn pressure(&self) -> f64 {
        let series = (self.series_live + self.series_tombstoned) as f64
            / (self.series_capacity.max(1)) as f64;
        series.max(self.occupancy)
    }
}

/// Outcome of one [`SlabStore::consolidate`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConsolidateReport {
    /// Live series visited.
    pub series: usize,
    /// Entries folded into tier buckets.
    pub folded: u64,
    /// Entries that aged out of the ring, or whose slot failed its
    /// checksum, before consolidation reached them.
    pub skipped: u64,
}

/// One consolidated aggregate bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierBucket {
    /// Bucket start, in ms of ID time (`start_ms..start_ms + interval_ms`).
    pub start_ms: u64,
    /// Records folded in.
    pub count: u64,
    /// Sum of record values.
    pub sum: f64,
    /// Minimum record value.
    pub min: f64,
    /// Maximum record value.
    pub max: f64,
}

impl TierBucket {
    /// Mean of the folded values (NaN for an empty bucket).
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }
}

/// The series directory in memory, so an attach is one hash probe: live
/// name → dirent, and the free dirents, lowest first. Tombstoned dirents
/// are in neither. The mapped dirents stay the only durable state; this
/// is rebuilt from them.
#[derive(Default)]
struct SeriesIndex {
    live: HashMap<Box<[u8]>, usize>,
    /// Live dirents whose name a lower live dirent holds too (only a
    /// hand-edited file has any): the lower one wins, as a directory walk's
    /// first match would, and this one takes over the name once the lower
    /// is reclaimed.
    shadowed: Vec<usize>,
    free: BinaryHeap<Reverse<usize>>,
}

/// The embedded memory-mapped slab store. See the module docs for the
/// layout and the durability contract.
pub struct SlabStore {
    map: mem::Map,
    /// Empty for an in-memory store.
    path: PathBuf,
    cfg: SlabConfig,
    layout: SlabLayout,
    /// Serializes series directory allocation, and holds the
    /// series directory's name index, built on the first lookup (or by
    /// [`SlabStore::open`]).
    dir_lock: Mutex<Option<SeriesIndex>>,
    /// Serializes consolidation passes and tier-bucket reads.
    consolidate_lock: Mutex<()>,
    /// Live `SlabSeries` handle count per dirent — the "no live `Stream`"
    /// half of the GC eligibility test. In-memory only: handles cannot
    /// outlive a crash, so reopen correctly starts every count at zero.
    handles: Box<[AtomicU64]>,
    rejected: AtomicU64,
    /// Behind an `Arc` so a broker can export the cell as its
    /// `streams.slab.dir_full` counter; made at the first refusal or
    /// export, so a private ring's store allocates none.
    series_fallbacks: OnceLock<Arc<AtomicU64>>,
    /// Entries that aged out of a ring before consolidation folded them.
    lapped: AtomicU64,
    /// Records published since the last completed flush.
    dirty_records: AtomicU64,
}

impl std::fmt::Debug for SlabStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlabStore")
            .field("path", &self.path)
            .field("max_series", &self.cfg.max_series)
            .field("slots", &self.cfg.slots)
            .finish()
    }
}

impl SlabStore {
    /// A store over `map`, whose bytes are laid out for `cfg`.
    fn with_map(map: mem::Map, path: PathBuf, cfg: SlabConfig) -> Self {
        let handles = (0..cfg.max_series as usize).map(|_| AtomicU64::new(0)).collect();
        Self {
            map,
            path,
            layout: SlabLayout::for_config(&cfg),
            cfg,
            dir_lock: Mutex::new(None),
            consolidate_lock: Mutex::new(()),
            handles,
            rejected: AtomicU64::new(0),
            series_fallbacks: OnceLock::new(),
            lapped: AtomicU64::new(0),
            dirty_records: AtomicU64::new(0),
        }
    }

    /// Create a fresh slab file at `path` (truncating any existing file).
    pub fn create(path: impl AsRef<Path>, cfg: SlabConfig) -> io::Result<Arc<Self>> {
        let path = path.as_ref().to_path_buf();
        let cfg = cfg.validated()?;
        let len = SlabLayout::for_config(&cfg).total_bytes();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(&path)?;
        // Sparse pre-allocation: pages materialize only when written.
        file.set_len(len as u64)?;
        let store = Self::with_map(mem::Map::of_file(&file, len)?, path, cfg);
        store.write_header();
        store.map.sync()?;
        Ok(Arc::new(store))
    }

    /// A private store in zeroed memory: the same rings, walks, checksums
    /// and directory as a file store, with no file behind it — nothing
    /// survives the store, [`SlabStore::flush`] and compaction's scrub
    /// barrier make no syscall, and [`SlabStore::path`] is empty. This is
    /// what a stream without a shared store spills into.
    pub fn in_memory(cfg: SlabConfig) -> io::Result<Arc<Self>> {
        let cfg = cfg.validated()?;
        let len = SlabLayout::for_config(&cfg).total_bytes();
        let store = Self::with_map(mem::Map::in_memory(len), PathBuf::new(), cfg);
        store.write_header();
        Ok(Arc::new(store))
    }

    /// Reopen an existing slab file, validating every committed slot and
    /// rolling back torn writes. See [`OpenReport`].
    pub fn open(path: impl AsRef<Path>) -> io::Result<(Arc<Self>, OpenReport)> {
        let path = path.as_ref().to_path_buf();
        let corrupt = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let flen = file.metadata()?.len() as usize;
        if flen < HEADER_BYTES {
            return Err(corrupt("slab file shorter than its header page".into()));
        }
        let map = mem::Map::of_file(&file, flen)?;
        let cfg = read_header(map.ptr(), flen)?;
        let implied = SlabLayout::for_config(&cfg).total_bytes();
        if implied != flen {
            return Err(corrupt(format!(
                "slab file is {flen} bytes but its header implies {implied}"
            )));
        }
        let mut store = Self::with_map(map, path, cfg);
        let mut report = OpenReport::default();
        for idx in 0..store.cfg.max_series as usize {
            let d = store.layout.series_dirent(idx);
            match store.atom(d + D_STATE).load(Ordering::Relaxed) {
                STATE_LIVE => {}
                STATE_TOMBSTONE => {
                    // A crash interrupted a compact() between the
                    // tombstone publish and the durable scrub. Redo the
                    // scrub (idempotent) and free the dirent.
                    store.scrub_series(idx);
                    store.atom(d + D_STATE).store(STATE_FREE, Ordering::Relaxed);
                    report.reclaimed_tombstones += 1;
                    continue;
                }
                _ => continue,
            }
            report.series_live += 1;
            let (live, rolled_back) = store.validate_series(idx);
            report.recovered_entries += live;
            report.rolled_back_slots += rolled_back;
        }
        let index = store.index_series();
        *store.dir_lock.get_mut() = Some(index);
        store.map.sync()?;
        Ok((Arc::new(store), report))
    }

    /// Open `path` if it exists (its geometry must match `cfg`), otherwise
    /// create it.
    pub fn open_or_create(
        path: impl AsRef<Path>,
        cfg: SlabConfig,
    ) -> io::Result<(Arc<Self>, OpenReport)> {
        let path = path.as_ref();
        if path.exists() {
            let cfg = cfg.validated()?;
            let (store, report) = Self::open(path)?;
            if store.cfg.hash() != cfg.hash() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "existing slab file geometry does not match the requested config",
                ));
            }
            Ok((store, report))
        } else {
            Ok((Self::create(path, cfg)?, OpenReport::default()))
        }
    }

    /// The store's file path (empty for an in-memory store).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The store's geometry.
    pub fn config(&self) -> &SlabConfig {
        &self.cfg
    }

    /// The store's byte layout (for diagnostics and recovery tests).
    pub fn layout(&self) -> &SlabLayout {
        &self.layout
    }

    /// `msync` the mapping: after this returns, everything committed is
    /// machine-crash durable (modulo the torn-tail rollback on reopen).
    /// Returns the number of dirty records the flush made durable.
    pub fn flush(&self) -> io::Result<u64> {
        // Claim the dirty count before syncing: records published during
        // the msync stay counted for the next flush. On failure the claim
        // is returned so the loss window is never under-reported.
        let dirty = self.dirty_records.swap(0, Ordering::Relaxed);
        if let Err(e) = self.map.sync() {
            self.dirty_records.fetch_add(dirty, Ordering::Relaxed);
            return Err(e);
        }
        Ok(dirty)
    }

    /// Records published since the last completed [`SlabStore::flush`].
    pub fn dirty_records(&self) -> u64 {
        self.dirty_records.load(Ordering::Relaxed)
    }

    /// The [`SlabStats::series_fallbacks`] cell, for zero-cost metrics
    /// export.
    pub(crate) fn series_fallbacks_cell(&self) -> &Arc<AtomicU64> {
        self.series_fallbacks.get_or_init(Arc::default)
    }

    /// Live [`SlabSeries`] handles onto series dirent `idx`.
    pub fn live_handles(&self, idx: usize) -> u64 {
        self.handles[idx].load(Ordering::Acquire)
    }

    /// Attach to the series named `name`, creating it if absent in the
    /// lowest free dirent. O(1): one probe of the directory's name index
    /// (plus one pop of its free dirents for a new name), never a walk
    /// over `max_series`.
    ///
    /// A refusal is counted in [`SlabStats::series_fallbacks`], and the
    /// store's first one is logged as a WARN: the caller (a `Stream`) falls
    /// back to a private ring whose history will not survive a restart.
    /// Later refusals are only counted — exhaustion is typically hit once
    /// per stream at creation and must not spam.
    pub fn series(self: &Arc<Self>, name: &str) -> Result<SlabSeries, SlabDirError> {
        let fail = |store: &Self, e: SlabDirError| {
            if store.series_fallbacks_cell().fetch_add(1, Ordering::Relaxed) == 0 {
                eprintln!(
                    "WARN apollo-streams: slab refused series '{name}' ({e}); its stream falls \
                     back to a private in-memory ring and will NOT survive a restart. Further \
                     refusals are counted in streams.slab.dir_full without logging."
                );
            }
            Err(e)
        };
        if name.len() > NAME_CAP {
            return fail(self, SlabDirError::NameTooLong { len: name.len(), cap: NAME_CAP });
        }
        let mut dir = self.dir_lock.lock();
        let index = dir.get_or_insert_with(|| self.index_series());
        if let Some(&idx) = index.live.get(name.as_bytes()) {
            return Ok(SlabSeries::new(Arc::clone(self), idx));
        }
        let Some(Reverse(idx)) = index.free.pop() else {
            return fail(self, SlabDirError::SeriesDirectoryFull { capacity: self.cfg.max_series });
        };
        index.live.insert(name.as_bytes().into(), idx);
        self.claim_series(idx, name);
        Ok(SlabSeries::new(Arc::clone(self), idx))
    }

    /// Dirent 0, under the empty name, of a store nothing has attached to
    /// yet: a private store's one ring, claimed without building the name
    /// index, so the ring costs only the store's own allocations.
    pub(crate) fn first_series(self: &Arc<Self>) -> SlabSeries {
        let dir = self.dir_lock.lock();
        let state = self.atom(self.layout.series_dirent(0) + D_STATE).load(Ordering::Relaxed);
        assert!(dir.is_none() && state == STATE_FREE, "first_series on a store in use");
        self.claim_series(0, "");
        SlabSeries::new(Arc::clone(self), 0)
    }

    /// Write `name` and zeroed positions into free dirent `idx`, then
    /// publish it live. Caller holds `dir_lock`.
    fn claim_series(&self, idx: usize, name: &str) {
        let d = self.layout.series_dirent(idx);
        // SAFETY: `name.len() <= NAME_CAP` (checked by the callers), so the
        // copy stays inside dirent `idx`'s name field.
        unsafe {
            std::ptr::copy_nonoverlapping(name.as_ptr(), self.ptr_at(d + D_NAME), name.len());
        }
        self.atom(d + D_NAME_LEN).store(name.len() as u64, Ordering::Relaxed);
        self.atom(d + D_HEAD).store(0, Ordering::Relaxed);
        self.atom(d + D_CONSOLIDATED).store(0, Ordering::Relaxed);
        self.atom(d + D_TAIL).store(0, Ordering::Relaxed);
        self.atom(d + D_STATE).store(STATE_LIVE, Ordering::Release);
    }

    /// The series directory's name index, read from the dirents: the one
    /// walk over `max_series` an attach ever pays for. Caller holds
    /// `dir_lock` (or is single-threaded reopen).
    fn index_series(&self) -> SeriesIndex {
        let mut index = SeriesIndex::default();
        let mut free = Vec::new();
        for idx in 0..self.cfg.max_series as usize {
            let d = self.layout.series_dirent(idx);
            match self.atom(d + D_STATE).load(Ordering::Acquire) {
                STATE_LIVE => {
                    let name = self.dirent_name(d);
                    if index.live.contains_key(name) {
                        index.shadowed.push(idx);
                    } else {
                        index.live.insert(name.into(), idx);
                    }
                }
                // Tombstoned dirents are mid-reclaim (their scrub may not
                // be durable yet) — never allocation candidates.
                STATE_TOMBSTONE => {}
                _ => free.push(Reverse(idx)),
            }
        }
        index.free = BinaryHeap::from(free);
        index
    }

    /// Take live dirent `idx`, named `name`, out of `index` as it is
    /// tombstoned; a shadowed dirent of the same name takes over the name.
    fn unindex_series(&self, index: &mut SeriesIndex, name: &[u8], idx: usize) {
        if index.live.get(name) != Some(&idx) {
            index.shadowed.retain(|&s| s != idx);
            return;
        }
        index.live.remove(name);
        let heir = index
            .shadowed
            .iter()
            .copied()
            .filter(|&s| self.dirent_name(self.layout.series_dirent(s)) == name)
            .min();
        if let Some(heir) = heir {
            index.shadowed.retain(|&s| s != heir);
            index.live.insert(name.into(), heir);
        }
    }

    /// Reclaim retired series: tombstone, scrub, and free every series
    /// dirent with no live [`SlabSeries`] handle, no unconsolidated
    /// entries (when tiers are configured), and a newest entry at least
    /// `policy.retention_ms` of ID time behind `now_ms`.
    ///
    /// Two-phase and crash-safe: the tombstone word is published first,
    /// then the ring / tier buckets / dirent fields are scrubbed, the
    /// scrub is msync'd, and only then does the dirent return to the free
    /// list. A crash anywhere in between leaves a tombstone that reopen
    /// completes — a reclaimed ring is never reusable before its old
    /// payloads are durably gone.
    ///
    /// Runs on the same service loop as [`SlabStore::consolidate`]; both
    /// directory locks are held so allocation and consolidation cannot
    /// race a reclaim.
    pub fn compact(&self, now_ms: u64, policy: CompactPolicy) -> io::Result<CompactReport> {
        let mut dir = self.dir_lock.lock();
        let _cons = self.consolidate_lock.lock();
        let mut report = CompactReport::default();
        let slots = self.cfg.slots as u64;
        let mut tombstoned = Vec::new();
        for idx in 0..self.cfg.max_series as usize {
            let d = self.layout.series_dirent(idx);
            if self.atom(d + D_STATE).load(Ordering::Acquire) != STATE_LIVE {
                continue;
            }
            report.scanned += 1;
            // dir_lock is held, so no new handle can appear mid-check.
            if self.handles[idx].load(Ordering::Acquire) != 0 {
                report.kept_live_handles += 1;
                continue;
            }
            let head = self.atom(d + D_HEAD).load(Ordering::Acquire);
            let tail = self.atom(d + D_TAIL).load(Ordering::Relaxed);
            let done = self.atom(d + D_CONSOLIDATED).load(Ordering::Relaxed);
            let floor = tail.max(head.saturating_sub(slots));
            if !self.cfg.tiers.is_empty() && done.max(floor) < head {
                report.kept_unconsolidated += 1;
                continue;
            }
            if head > 0 {
                let newest_ms = self.atom(self.slot_of(idx, head - 1)).load(Ordering::Relaxed);
                if newest_ms.saturating_add(policy.retention_ms) > now_ms {
                    report.kept_fresh += 1;
                    continue;
                }
            }
            self.atom(d + D_STATE).store(STATE_TOMBSTONE, Ordering::Release);
            if let Some(index) = dir.as_mut() {
                self.unindex_series(index, self.dirent_name(d), idx);
            }
            report.reclaimed_entries += head - floor;
            self.scrub_series(idx);
            tombstoned.push(idx);
        }
        if tombstoned.is_empty() {
            return Ok(report);
        }
        // The scrub must be durable before any freed dirent can be
        // reallocated: without this barrier a crash after reuse could
        // leave a new series' dirent pointing at the dead ring's intact,
        // checksummed payloads. On msync failure the tombstones stay
        // behind, out of the name index and its free dirents, and reopen
        // finishes the job.
        self.map.sync()?;
        for idx in tombstoned {
            let d = self.layout.series_dirent(idx);
            self.atom(d + D_STATE).store(STATE_FREE, Ordering::Release);
            if let Some(index) = dir.as_mut() {
                index.free.push(Reverse(idx));
            }
            report.reclaimed += 1;
        }
        Ok(report)
    }

    /// Zero series `idx`'s ring, tier buckets, and every dirent field
    /// except the state word. Idempotent; caller holds `dir_lock` (or is
    /// single-threaded reopen).
    fn scrub_series(&self, idx: usize) {
        unsafe {
            let ring = self.layout.slot(idx, 0);
            std::ptr::write_bytes(self.map.ptr().add(ring), 0, self.layout.ring_stride);
            for t in 0..self.cfg.tiers.len() {
                let base = self.layout.bucket(t, idx, 0);
                std::ptr::write_bytes(self.map.ptr().add(base), 0, self.layout.tier_stride[t]);
            }
            let d = self.layout.series_dirent(idx);
            std::ptr::write_bytes(self.map.ptr().add(d + D_HEAD), 0, DIRENT_BYTES - D_HEAD);
        }
    }

    /// Fold newly committed entries of every live series into the
    /// consolidation tiers. Runs off a timer in `apollo-core`; any caller
    /// works — passes are serialized internally.
    pub fn consolidate(&self) -> ConsolidateReport {
        let _guard = self.consolidate_lock.lock();
        let mut report = ConsolidateReport::default();
        if self.cfg.tiers.is_empty() {
            return report;
        }
        let slots = self.cfg.slots as u64;
        for idx in 0..self.cfg.max_series as usize {
            let d = self.layout.series_dirent(idx);
            if self.atom(d + D_STATE).load(Ordering::Acquire) != STATE_LIVE {
                continue;
            }
            report.series += 1;
            let head = self.atom(d + D_HEAD).load(Ordering::Acquire);
            let tail = self.atom(d + D_TAIL).load(Ordering::Relaxed);
            let done = self.atom(d + D_CONSOLIDATED).load(Ordering::Relaxed);
            let floor = tail.max(head.saturating_sub(slots));
            let from = done.max(floor);
            report.skipped += from - done;
            self.lapped.fetch_add(from - done, Ordering::Relaxed);
            for i in from..head {
                let Some((id, rec)) = self.read_slot(self.slot_of(idx, i)) else {
                    report.skipped += 1;
                    continue;
                };
                for (t, tier) in self.cfg.tiers.iter().enumerate() {
                    self.fold_bucket(t, tier, idx, id.ms, rec.value);
                }
                report.folded += 1;
            }
            // Published after the folds: consolidation is at-least-once
            // across a crash (buckets are advisory aggregates).
            self.atom(d + D_CONSOLIDATED).store(head, Ordering::Release);
        }
        report
    }

    fn fold_bucket(&self, t: usize, tier: &TierConfig, idx: usize, ms: u64, value: f64) {
        let start = ms - ms % tier.interval_ms;
        let bucket = ((ms / tier.interval_ms) % tier.buckets as u64) as usize;
        let b = self.layout.bucket(t, idx, bucket);
        let cur_start = self.atom(b).load(Ordering::Relaxed);
        let count = self.atom(b + 8).load(Ordering::Relaxed);
        if count == 0 || cur_start != start {
            // Empty or lapped bucket: claim it for this interval.
            self.atom(b).store(start, Ordering::Relaxed);
            self.atom(b + 8).store(1, Ordering::Relaxed);
            self.atom(b + 16).store(value.to_bits(), Ordering::Relaxed);
            self.atom(b + 24).store(value.to_bits(), Ordering::Relaxed);
            self.atom(b + 32).store(value.to_bits(), Ordering::Relaxed);
            return;
        }
        let sum = f64::from_bits(self.atom(b + 16).load(Ordering::Relaxed)) + value;
        let min = f64::from_bits(self.atom(b + 24).load(Ordering::Relaxed)).min(value);
        let max = f64::from_bits(self.atom(b + 32).load(Ordering::Relaxed)).max(value);
        self.atom(b + 16).store(sum.to_bits(), Ordering::Relaxed);
        self.atom(b + 24).store(min.to_bits(), Ordering::Relaxed);
        self.atom(b + 32).store(max.to_bits(), Ordering::Relaxed);
        self.atom(b + 8).store(count + 1, Ordering::Relaxed);
    }

    /// Occupancy / progress counters for the self-observer gauges.
    pub fn stats(&self) -> SlabStats {
        let slots = self.cfg.slots as u64;
        let mut s = SlabStats {
            series_capacity: self.cfg.max_series as usize,
            rejected: self.rejected.load(Ordering::Relaxed),
            series_fallbacks: self.series_fallbacks.get().map_or(0, |c| c.load(Ordering::Relaxed)),
            lapped_entries: self.lapped.load(Ordering::Relaxed),
            dirty_records: self.dirty_records.load(Ordering::Relaxed),
            ..SlabStats::default()
        };
        for idx in 0..self.cfg.max_series as usize {
            let d = self.layout.series_dirent(idx);
            match self.atom(d + D_STATE).load(Ordering::Acquire) {
                STATE_LIVE => {}
                STATE_TOMBSTONE => {
                    s.series_tombstoned += 1;
                    continue;
                }
                _ => continue,
            }
            s.series_live += 1;
            let head = self.atom(d + D_HEAD).load(Ordering::Acquire);
            let tail = self.atom(d + D_TAIL).load(Ordering::Relaxed);
            let done = self.atom(d + D_CONSOLIDATED).load(Ordering::Relaxed);
            let floor = tail.max(head.saturating_sub(slots));
            s.appended += head;
            s.live_entries += head - floor;
            s.slot_capacity += slots;
            s.consolidation_lag += head - done.max(floor).min(head);
        }
        if s.slot_capacity > 0 {
            s.occupancy = s.live_entries as f64 / s.slot_capacity as f64;
        }
        s
    }

    // ---- raw access helpers ----------------------------------------------

    /// # Safety
    /// `off` must lie inside the mapping (checked by debug_assert).
    unsafe fn ptr_at(&self, off: usize) -> *mut u8 {
        debug_assert!(off < self.layout.total_bytes());
        self.map.ptr().add(off)
    }

    fn atom(&self, off: usize) -> &AtomicU64 {
        debug_assert!(off.is_multiple_of(8) && off + 8 <= self.layout.total_bytes());
        unsafe { &*(self.map.ptr().add(off) as *const AtomicU64) }
    }

    fn dirent_name(&self, dirent: usize) -> &[u8] {
        let len = (self.atom(dirent + D_NAME_LEN).load(Ordering::Relaxed) as usize).min(NAME_CAP);
        unsafe { std::slice::from_raw_parts(self.map.ptr().add(dirent + D_NAME), len) }
    }

    fn write_header(&self) {
        let p = self.map.ptr();
        unsafe {
            std::ptr::copy_nonoverlapping(SLAB_MAGIC.as_ptr(), p.add(H_MAGIC), 8);
        }
        let w32 = |off: usize, v: u32| unsafe {
            std::ptr::copy_nonoverlapping(v.to_le_bytes().as_ptr(), p.add(off), 4);
        };
        w32(H_VERSION, SLAB_VERSION);
        w32(H_MAX_SERIES, self.cfg.max_series);
        w32(H_SLOTS, self.cfg.slots);
        w32(H_TIER_COUNT, self.cfg.tiers.len() as u32);
        for (i, t) in self.cfg.tiers.iter().enumerate() {
            self.atom(H_TIERS + i * 16).store(t.interval_ms, Ordering::Relaxed);
            self.atom(H_TIERS + i * 16 + 8).store(t.buckets as u64, Ordering::Relaxed);
        }
        self.atom(H_CONFIG_HASH).store(self.cfg.hash(), Ordering::Relaxed);
    }

    /// Byte offset of logical slot `logical` of series `idx`.
    fn slot_of(&self, idx: usize, logical: u64) -> usize {
        self.layout.slot(idx, (logical % self.cfg.slots as u64) as usize)
    }

    /// Read the slot at byte offset `slot` once: its five words are loaded
    /// into locals, and the row they hold is returned (the mapping is not
    /// read again). `None` when the slot fails its checksum (torn or
    /// mid-overwrite) or was never written.
    #[inline]
    pub(crate) fn read_slot(&self, slot: usize) -> Option<(StreamId, Record)> {
        slot_row(std::array::from_fn(|i| self.atom(slot + 8 * i).load(Ordering::Relaxed)))
    }

    /// Validate the committed range of series `idx` after a reopen,
    /// shrinking it past torn slots. Returns `(live_entries, rolled_back)`.
    fn validate_series(&self, idx: usize) -> (u64, u64) {
        let d = self.layout.series_dirent(idx);
        let slots = self.cfg.slots as u64;
        let mut head = self.atom(d + D_HEAD).load(Ordering::Relaxed);
        let stored_tail = self.atom(d + D_TAIL).load(Ordering::Relaxed);
        let floor = stored_tail.max(head.saturating_sub(slots));
        let mut rolled_back = 0u64;
        // Torn / unsynced tail: the newest slots may have missed their
        // flush even though the head word made it out.
        while head > floor && self.read_slot(self.slot_of(idx, head - 1)).is_none() {
            head -= 1;
            rolled_back += 1;
        }
        // Destroyed-oldest / interior damage: scan newest → oldest; stop at
        // the first slot that fails its checksum or breaks ID order (a
        // crash mid-overwrite destroys the *oldest* committed entry).
        let mut tail = floor;
        let mut prev: Option<StreamId> = None;
        for i in (floor..head).rev() {
            match self.read_slot(self.slot_of(idx, i)) {
                Some((id, _)) if prev.is_none_or(|p| id < p) => prev = Some(id),
                _ => {
                    rolled_back += i + 1 - floor;
                    tail = i + 1;
                    break;
                }
            }
        }
        self.atom(d + D_HEAD).store(head, Ordering::Relaxed);
        self.atom(d + D_TAIL).store(tail, Ordering::Relaxed);
        let done = self.atom(d + D_CONSOLIDATED).load(Ordering::Relaxed);
        self.atom(d + D_CONSOLIDATED).store(done.min(head), Ordering::Relaxed);
        (head - tail, rolled_back)
    }
}

fn read_header(ptr: *mut u8, flen: usize) -> io::Result<SlabConfig> {
    let corrupt = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    debug_assert!(flen >= HEADER_BYTES);
    let bytes = unsafe { std::slice::from_raw_parts(ptr, HEADER_BYTES) };
    if bytes[H_MAGIC..H_MAGIC + 8] != SLAB_MAGIC {
        return Err(corrupt("not a slab file (bad magic)"));
    }
    let r32 = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
    let r64 = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
    if r32(H_VERSION) != SLAB_VERSION {
        return Err(corrupt("unsupported slab format version"));
    }
    let tier_count = r32(H_TIER_COUNT) as usize;
    if tier_count > MAX_TIERS {
        return Err(corrupt("slab header tier count exceeds maximum"));
    }
    let tiers = (0..tier_count)
        .map(|i| TierConfig::new(r64(H_TIERS + i * 16), r64(H_TIERS + i * 16 + 8) as u32))
        .collect();
    let cfg = SlabConfig { max_series: r32(H_MAX_SERIES), slots: r32(H_SLOTS), tiers }
        .validated()
        .map_err(|_| corrupt("slab header geometry invalid"))?;
    if cfg.hash() != r64(H_CONFIG_HASH) {
        return Err(corrupt("slab header config hash mismatch"));
    }
    Ok(cfg)
}

/// A handle onto one series ring inside a [`SlabStore`]. Handles are
/// refcounted per dirent: a series with any live handle is pinned and
/// [`SlabStore::compact`] will not reclaim it.
pub struct SlabSeries {
    store: Arc<SlabStore>,
    idx: usize,
    dirent: usize,
    /// Byte offset of slot 0 of this series' ring (precomputed so the
    /// hot path does no layout arithmetic beyond one multiply-add).
    ring_base: usize,
    /// `slots - 1` when the ring length is a power of two — `record`
    /// masks instead of dividing — else 0 (fall back to `%`).
    slot_mask: u64,
}

impl std::fmt::Debug for SlabSeries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlabSeries").field("idx", &self.idx).finish()
    }
}

impl Clone for SlabSeries {
    fn clone(&self) -> Self {
        self.store.handles[self.idx].fetch_add(1, Ordering::Relaxed);
        Self {
            store: Arc::clone(&self.store),
            idx: self.idx,
            dirent: self.dirent,
            ring_base: self.ring_base,
            slot_mask: self.slot_mask,
        }
    }
}

impl Drop for SlabSeries {
    fn drop(&mut self) {
        self.store.handles[self.idx].fetch_sub(1, Ordering::Release);
    }
}

impl SlabSeries {
    fn new(store: Arc<SlabStore>, idx: usize) -> Self {
        store.handles[idx].fetch_add(1, Ordering::Relaxed);
        let dirent = store.layout.series_dirent(idx);
        let ring_base = store.layout.slot(idx, 0);
        let slots = store.cfg.slots as u64;
        let slot_mask = if slots.is_power_of_two() { slots - 1 } else { 0 };
        Self { store, idx, dirent, ring_base, slot_mask }
    }

    /// Byte offset of the ring slot logical position `head` maps to.
    #[inline]
    fn slot_offset(&self, head: u64) -> usize {
        let pos = if self.slot_mask != 0 {
            head & self.slot_mask
        } else {
            head % self.store.cfg.slots as u64
        };
        self.ring_base + pos as usize * SLOT_BYTES
    }

    /// The owning store.
    pub fn store(&self) -> &Arc<SlabStore> {
        &self.store
    }

    /// Directory index of this series.
    pub fn index(&self) -> usize {
        self.idx
    }

    fn head_cell(&self) -> &AtomicU64 {
        self.store.atom(self.dirent + D_HEAD)
    }

    fn tail(&self) -> u64 {
        self.store.atom(self.dirent + D_TAIL).load(Ordering::Relaxed)
    }

    /// Readable floor: the oldest logical index still backed by a valid
    /// committed slot, given `head`.
    fn floor_for(&self, head: u64) -> u64 {
        self.tail().max(head.saturating_sub(self.store.cfg.slots as u64))
    }

    /// Record one row. The zero-alloc hot path: write the five words of
    /// the slot at `head % slots`, publish by bumping `head` with
    /// `Release`. A slot holds any record, so this cannot refuse.
    ///
    /// Single-writer: callers serialize writes per series (the stream's
    /// window write lock does this in practice). A read is exact only
    /// while no write on the series runs (see [`SlabSeries::range_into`]).
    pub fn push(&self, id: StreamId, record: Record) {
        let head_cell = self.head_cell();
        let head = head_cell.load(Ordering::Relaxed);
        let slot = self.slot_offset(head);
        for (i, w) in slot_words(id, &record).into_iter().enumerate() {
            self.store.atom(slot + 8 * i).store(w, Ordering::Relaxed);
        }
        head_cell.store(head + 1, Ordering::Release);
        self.store.dirty_records.fetch_add(1, Ordering::Relaxed);
    }

    /// [`SlabSeries::push`] of the record a 17-byte frame
    /// ([`Record::encode`]) holds. Returns `false`, and counts the frame in
    /// [`SlabStats::rejected`], when it is not a record: nothing is written.
    pub fn record(&self, id: StreamId, frame: &[u8]) -> bool {
        let Some(record) = Record::of_frame(frame) else {
            self.store.rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        self.push(id, record);
        true
    }

    /// Entries ever recorded (monotonic; survives restart).
    pub fn appended(&self) -> u64 {
        self.head_cell().load(Ordering::Acquire)
    }

    /// Entries currently readable from the ring.
    pub fn live_len(&self) -> u64 {
        let head = self.head_cell().load(Ordering::Acquire);
        head - self.floor_for(head)
    }

    /// The newest committed ID, if any. Exact for the (single) writer;
    /// racing readers may see a just-superseded value.
    pub fn last_id(&self) -> Option<StreamId> {
        let head = self.head_cell().load(Ordering::Acquire);
        if head == self.floor_for(head) {
            return None;
        }
        Some(self.id_at(head - 1))
    }

    /// The oldest committed ID the ring still holds, if any. Exact while
    /// the writer is held off (the stream reads it under its window lock).
    pub fn first_id(&self) -> Option<StreamId> {
        let head = self.head_cell().load(Ordering::Acquire);
        let floor = self.floor_for(head);
        (floor < head).then(|| self.id_at(floor))
    }

    /// [`SlabSeries::first_id`] of a ring that has overwritten slots —
    /// every ID below it is gone — and `None` for one that never wrapped.
    pub(crate) fn lapped_floor_id(&self) -> Option<StreamId> {
        let head = self.head_cell().load(Ordering::Acquire);
        (head > self.store.cfg.slots as u64).then(|| self.id_at(self.floor_for(head)))
    }

    fn id_at(&self, at: u64) -> StreamId {
        let slot = self.slot_offset(at);
        let ms = self.store.atom(slot).load(Ordering::Relaxed);
        StreamId::new(ms, self.store.atom(slot + 8).load(Ordering::Relaxed))
    }

    /// All committed entries with `start <= id <= end`, appended to `out`
    /// in ID order.
    ///
    /// The read is exact while no [`SlabSeries::record`] on the series
    /// runs; the owning [`crate::Stream`] guarantees that by reading under
    /// its window lock, which every eviction holds for writing. A slot
    /// that fails its checksum (a crash tore it) is skipped.
    pub fn range_into(&self, start: StreamId, end: StreamId, out: &mut Vec<Entry>) {
        self.range_limited_into(start, end, usize::MAX, out);
    }

    /// Like [`SlabSeries::range_into`] (same contract) but stops after
    /// `max` entries (the oldest `max` in range).
    pub fn range_limited_into(
        &self,
        start: StreamId,
        end: StreamId,
        max: usize,
        out: &mut Vec<Entry>,
    ) {
        let span = self.span(start, end, max);
        out.reserve_exact((span.end - span.start) as usize);
        self.walk(span, out);
    }

    /// The logical indices `[lo, hi)` of the oldest `max` rows with
    /// `start <= id <= end`: what [`SlabSeries::walk`] over them lands.
    /// Same contract as [`SlabSeries::range_into`].
    pub(crate) fn span(&self, start: StreamId, end: StreamId, max: usize) -> Range<u64> {
        let head = self.head_cell().load(Ordering::Acquire);
        let floor = self.floor_for(head);
        // Rows newer than any the ring holds — what extending a cached
        // tail asks for nearly every time — need no search.
        let all_older = floor < head && self.id_at(head - 1) < start;
        let lo = if all_older { head } else { self.partition(floor, head, |id| id < start) };
        // `hi >= lo` even for an inverted range, which selects nothing.
        let hi = self.partition(lo, head, |id| id <= end);
        lo..hi.clamp(lo, lo.saturating_add(max as u64))
    }

    /// The one ring walk, one pass: the rows of `span` (a
    /// [`SlabSeries::span`] read under the same hold) go to `sink` in ID
    /// order, each slot read once by [`SlabStore::read_slot`]; a torn one
    /// is skipped. The caller has sized the sink.
    pub(crate) fn walk<S: RowSink>(&self, span: Range<u64>, sink: &mut S) {
        for i in span {
            if let Some((id, rec)) = self.store.read_slot(self.slot_offset(i)) {
                sink.push_record(id, rec);
            }
        }
    }

    /// Convenience wrapper over [`SlabSeries::range_into`] (same contract).
    pub fn range(&self, start: StreamId, end: StreamId) -> Vec<Entry> {
        let mut out = Vec::new();
        self.range_into(start, end, &mut out);
        out
    }

    /// First logical index in `[lo, hi)` whose ID fails `pred` (IDs are
    /// strictly increasing by logical index).
    fn partition(&self, lo: u64, hi: u64, pred: impl Fn(StreamId) -> bool) -> u64 {
        let (mut lo, mut hi) = (lo, hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.id_at(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Committed entries not yet folded into the consolidation tiers.
    pub fn consolidation_lag(&self) -> u64 {
        let head = self.head_cell().load(Ordering::Acquire);
        let done = self.store.atom(self.dirent + D_CONSOLIDATED).load(Ordering::Relaxed);
        head - done.max(self.floor_for(head)).min(head)
    }

    /// Snapshot the non-empty buckets of consolidation tier `tier`, oldest
    /// first. Consistent with concurrent consolidation (shares its lock).
    pub fn tier_buckets(&self, tier: usize) -> Vec<TierBucket> {
        let _guard = self.store.consolidate_lock.lock();
        let Some(t) = self.store.cfg.tiers.get(tier) else { return Vec::new() };
        let mut out = Vec::new();
        for bucket in 0..t.buckets as usize {
            let b = self.store.layout.bucket(tier, self.idx, bucket);
            let count = self.store.atom(b + 8).load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            out.push(TierBucket {
                start_ms: self.store.atom(b).load(Ordering::Relaxed),
                count,
                sum: f64::from_bits(self.store.atom(b + 16).load(Ordering::Relaxed)),
                min: f64::from_bits(self.store.atom(b + 24).load(Ordering::Relaxed)),
                max: f64::from_bits(self.store.atom(b + 32).load(Ordering::Relaxed)),
            });
        }
        out.sort_by_key(|b| b.start_ms);
        out
    }

    /// The bucket of tier `tier` covering ID-time `ms`, if consolidation
    /// has populated it (and it has not been lapped since).
    pub fn tier_bucket_at(&self, tier: usize, ms: u64) -> Option<TierBucket> {
        let t = *self.store.cfg.tiers.get(tier)?;
        let start = ms - ms % t.interval_ms;
        self.tier_buckets(tier).into_iter().find(|b| b.start_ms == start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("apollo-slab-unit-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("t.slab")
    }

    fn small_cfg() -> SlabConfig {
        SlabConfig { max_series: 4, slots: 8, ..SlabConfig::default() }
    }

    /// A measured record of value `v` at `ms`.
    fn rec(ms: u64, v: f64) -> Record {
        Record::measured(ms * 1_000_000, v)
    }

    #[test]
    fn config_validation_rejects_bad_geometry() {
        assert!(SlabConfig { max_series: 0, ..SlabConfig::default() }.validated().is_err());
        assert!(SlabConfig { slots: 1, ..SlabConfig::default() }.validated().is_err());
        let shrinking = SlabConfig {
            tiers: vec![TierConfig::new(100, 4), TierConfig::new(50, 4)],
            ..SlabConfig::default()
        };
        assert!(shrinking.validated().is_err());
        assert!(SlabConfig::default().validated().is_ok());
    }

    #[test]
    fn record_and_range_round_trip() {
        let store = SlabStore::create(tmp("roundtrip"), small_cfg()).unwrap();
        let s = store.series("m").unwrap();
        for i in 0..5u64 {
            s.push(StreamId::new(i, 0), rec(i, i as f64));
        }
        assert_eq!(s.live_len(), 5);
        assert_eq!(s.last_id(), Some(StreamId::new(4, 0)));
        let got = s.range(StreamId::new(1, 0), StreamId::new(3, 0));
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], Entry::new(StreamId::new(1, 0), rec(1, 1.0)));
        assert!(got.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn ring_wrap_keeps_newest_slots_entries() {
        let store = SlabStore::create(tmp("wrap"), small_cfg()).unwrap();
        let s = store.series("m").unwrap();
        for i in 0..20u64 {
            s.push(StreamId::new(i, 0), rec(i, i as f64));
        }
        assert_eq!(s.appended(), 20);
        assert_eq!(s.live_len(), 8, "ring holds `slots` newest entries");
        let got = s.range(StreamId::MIN, StreamId::MAX);
        let ids: Vec<u64> = got.iter().map(|e| e.id.ms).collect();
        assert_eq!(ids, (12..20).collect::<Vec<_>>());
        let mut limited = Vec::new();
        s.range_limited_into(StreamId::MIN, StreamId::MAX, 3, &mut limited);
        assert_eq!(limited.iter().map(|e| e.id.ms).collect::<Vec<_>>(), vec![12, 13, 14]);
    }

    /// A slot holds a record and nothing else: a frame of any other
    /// length, or of 17 bytes with a provenance byte past 2, is refused,
    /// counted, and leaves the head where it was.
    #[test]
    fn non_record_frames_are_refused_counted_and_leave_the_head() {
        let store = SlabStore::create(tmp("refused"), small_cfg()).unwrap();
        let s = store.series("m").unwrap();
        assert!(s.record(StreamId::new(1, 0), &rec(1, 1.0).encode()));
        let good = rec(2, 2.0).encode();
        let mut refused: Vec<Vec<u8>> = (0..=48)
            .filter(|&n| n != 17)
            .map(|n| {
                let mut bytes = good.to_vec();
                bytes.resize(n, 0);
                bytes
            })
            .collect();
        for b in 3..=255u8 {
            let mut bytes = good.to_vec();
            bytes[16] = b;
            refused.push(bytes);
        }
        for (k, bytes) in refused.iter().enumerate() {
            assert!(!s.record(StreamId::new(2, k as u64), bytes), "{} bytes", bytes.len());
            assert_eq!((s.appended(), store.stats().rejected), (1, k as u64 + 1));
        }
        assert_eq!(store.dirty_records(), 1, "a refusal dirties nothing");
        let ids: Vec<StreamId> =
            s.range(StreamId::MIN, StreamId::MAX).iter().map(|e| e.id).collect();
        assert_eq!(ids, [StreamId::new(1, 0)]);
    }

    #[test]
    fn series_attach_vs_fresh_and_directory_full() {
        let store = SlabStore::create(tmp("dir"), small_cfg()).unwrap();
        let a = store.series("x").unwrap();
        a.push(StreamId::new(7, 0), rec(7, 1.0));
        let again = store.series("x").unwrap();
        assert_eq!(again.index(), a.index(), "attach finds the same ring");
        assert_eq!(again.last_id(), Some(StreamId::new(7, 0)));
        let fresh = store.series("w").unwrap();
        assert_ne!(fresh.index(), a.index(), "a new name allocates a new ring");
        assert_eq!(fresh.last_id(), None);
        store.series("y").unwrap();
        store.series("z").unwrap();
        assert!(
            matches!(
                store.series("overflow"),
                Err(SlabDirError::SeriesDirectoryFull { capacity: 4 })
            ),
            "directory exhaustion is a typed error"
        );
        assert_eq!(store.stats().series_fallbacks, 1);
    }

    #[test]
    fn reopen_restores_series() {
        let path = tmp("reopen");
        {
            let store = SlabStore::create(&path, small_cfg()).unwrap();
            let s = store.series("m").unwrap();
            for i in 0..6u64 {
                s.push(StreamId::new(i, 2), rec(i, i as f64));
            }
            store.flush().unwrap();
        }
        let (store, report) = SlabStore::open(&path).unwrap();
        assert_eq!(report.series_live, 1);
        assert_eq!(report.recovered_entries, 6);
        assert_eq!(report.rolled_back_slots, 0);
        let s = store.series("m").unwrap();
        assert_eq!(s.last_id(), Some(StreamId::new(5, 2)));
        assert_eq!(s.range(StreamId::MIN, StreamId::MAX).len(), 6);
    }

    #[test]
    fn open_or_create_rejects_geometry_mismatch() {
        let path = tmp("mismatch");
        SlabStore::create(&path, small_cfg()).unwrap();
        let other = SlabConfig { slots: 16, ..small_cfg() };
        assert!(SlabStore::open_or_create(&path, other).is_err());
        assert!(SlabStore::open_or_create(&path, small_cfg()).is_ok());
    }

    /// Every one of a slot's 320 bits guards the row: flipped alone, it
    /// fails the checksum (or leaves a provenance outside 1–3), so a torn
    /// slot is never read as a row.
    #[test]
    fn checksum_changes_on_every_single_bit_flip() {
        let id = StreamId::new(1_700_000_000_123, 42);
        let rec = Record::predicted(0x5a5a_1234_0000_0017, -1.5e-300);
        let words = slot_words(id, &rec);
        let (got_id, got) = slot_row(words).expect("an intact slot reads back");
        assert_eq!(
            (got_id, got.timestamp_ns, got.value.to_bits()),
            (id, rec.timestamp_ns, rec.value.to_bits())
        );
        for bit in 0..SLOT_BYTES * 8 {
            let mut torn = words;
            torn[bit / 64] ^= 1 << (bit % 64);
            assert!(slot_row(torn).is_none(), "bit {bit}");
        }
        assert!(slot_row([0; 5]).is_none(), "a never-written slot holds no row");
    }

    #[test]
    fn version_1_file_is_refused_not_migrated() {
        assert_eq!(SLAB_VERSION, 4);
        for old in [1u32, 2, 3] {
            let path = tmp(&format!("v{old}"));
            drop(SlabStore::create(&path, small_cfg()).unwrap());
            let mut raw = std::fs::read(&path).unwrap();
            assert_eq!(raw[H_VERSION..H_VERSION + 4], SLAB_VERSION.to_le_bytes());
            raw[H_VERSION..H_VERSION + 4].copy_from_slice(&old.to_le_bytes());
            std::fs::write(&path, raw).unwrap();
            let err = SlabStore::open(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "v{old}");
            assert!(err.to_string().contains("unsupported slab format version"), "v{old}: {err}");
            assert!(
                SlabStore::open_or_create(&path, small_cfg()).is_err(),
                "nor recreated: v{old}"
            );
        }
    }

    #[test]
    fn consolidation_folds_records_into_tiers() {
        let cfg = SlabConfig {
            max_series: 2,
            slots: 64,
            tiers: vec![TierConfig::new(1_000, 8), TierConfig::new(10_000, 4)],
        };
        let store = SlabStore::create(tmp("tiers"), cfg).unwrap();
        let s = store.series("m").unwrap();
        // Two records in the first 1s bucket, one in the next.
        for (i, (ms, v)) in [(100u64, 1.0f64), (900, 3.0), (1_500, 10.0)].iter().enumerate() {
            let rec = Record::measured(ms * 1_000_000, *v);
            s.push(StreamId::new(*ms, i as u64), rec);
        }
        let report = store.consolidate();
        assert_eq!(report.folded, 3);
        assert_eq!(s.consolidation_lag(), 0);
        let b0 = s.tier_bucket_at(0, 0).unwrap();
        assert_eq!((b0.count, b0.sum, b0.min, b0.max), (2, 4.0, 1.0, 3.0));
        assert_eq!(b0.mean(), 2.0);
        let b1 = s.tier_bucket_at(0, 1_000).unwrap();
        assert_eq!((b1.count, b1.sum), (1, 10.0));
        assert!(s.tier_bucket_at(0, 5_000).is_none(), "empty bucket is a sentinel");
        let coarse = s.tier_bucket_at(1, 0).unwrap();
        assert_eq!((coarse.count, coarse.sum, coarse.min, coarse.max), (3, 14.0, 1.0, 10.0));
        // A second pass folds nothing new.
        assert_eq!(store.consolidate().folded, 0);
    }

    /// A slot that fails its read (a torn value word, a provenance word
    /// outside 1–3) is skipped and counted, and the consolidated watermark
    /// still moves past it.
    #[test]
    fn a_damaged_slot_is_skipped_by_consolidation() {
        let cfg = SlabConfig { max_series: 2, slots: 8, tiers: vec![TierConfig::new(1_000, 4)] };
        let store = SlabStore::create(tmp("consolidate-damage"), cfg).unwrap();
        let s = store.series("m").unwrap();
        for i in 0..4u64 {
            s.push(StreamId::new(i, 0), rec(i, 1.0));
        }
        // Slot 1: the value word, under an unchanged checksum.
        store.atom(s.slot_offset(1) + 24).fetch_xor(1, Ordering::Relaxed);
        // Slot 2: a provenance word of 4, under a checksum that matches it.
        let at = s.slot_offset(2);
        let w: [u64; 4] = std::array::from_fn(|i| store.atom(at + 8 * i).load(Ordering::Relaxed));
        let xsum = slot_checksum([w[0], w[1], w[2], w[3], 4]) as u64;
        store.atom(at + 32).store(4 | xsum << 32, Ordering::Relaxed);
        let report = store.consolidate();
        assert_eq!((report.folded, report.skipped), (2, 2));
        assert_eq!(s.consolidation_lag(), 0);
        let b = s.tier_bucket_at(0, 0).unwrap();
        assert_eq!((b.count, b.sum), (2, 2.0));
    }

    #[test]
    fn stats_track_occupancy_and_lag() {
        let store = SlabStore::create(tmp("stats"), small_cfg()).unwrap();
        let s = store.series("m").unwrap();
        for i in 0..4u64 {
            s.push(StreamId::new(i, 0), rec(i, 0.0));
        }
        let st = store.stats();
        assert_eq!(st.series_live, 1);
        assert_eq!(st.appended, 4);
        assert_eq!(st.live_entries, 4);
        assert_eq!(st.slot_capacity, 8);
        assert!((st.occupancy - 0.5).abs() < 1e-9);
        assert_eq!(st.consolidation_lag, 4);
        store.consolidate();
        assert_eq!(store.stats().consolidation_lag, 0);
    }

    #[test]
    fn flush_reports_and_resets_dirty_records() {
        let store = SlabStore::create(tmp("dirty"), small_cfg()).unwrap();
        let s = store.series("m").unwrap();
        assert_eq!(store.dirty_records(), 0);
        for i in 0..3u64 {
            s.push(StreamId::new(i, 0), rec(i, 0.0));
        }
        assert_eq!(store.dirty_records(), 3);
        assert_eq!(store.flush().unwrap(), 3);
        assert_eq!(store.dirty_records(), 0);
        assert_eq!(store.flush().unwrap(), 0, "nothing dirty, nothing claimed");
        assert_eq!(store.stats().dirty_records, 0);
    }

    #[test]
    fn compact_reclaims_only_retired_series() {
        let store = SlabStore::create(tmp("compact"), small_cfg()).unwrap();
        let a = store.series("a").unwrap();
        for i in 0..5u64 {
            a.push(StreamId::new(1_000 + i, 0), rec(1_000 + i, 0.0));
        }
        let b = store.series("b").unwrap();
        b.push(StreamId::new(2_000, 0), rec(2_000, 9.0));
        store.consolidate();

        // Live handles pin both series.
        let r = store.compact(100_000_000, CompactPolicy::default()).unwrap();
        assert_eq!((r.scanned, r.reclaimed, r.kept_live_handles), (2, 0, 2));

        // Dropping `a`'s handle (cloned handles count too) releases it.
        let a2 = a.clone();
        drop(a);
        assert_eq!(store.live_handles(a2.index()), 1);
        drop(a2);
        b.push(StreamId::new(2_100, 0), rec(2_100, 1.0));
        let r = store.compact(100_000_000, CompactPolicy::default()).unwrap();
        assert_eq!((r.reclaimed, r.reclaimed_entries, r.kept_live_handles), (1, 5, 1));
        assert_eq!(store.stats().series_live, 1);

        // A handle-free series is still kept while unconsolidated, then
        // while within the retention horizon, then reclaimed.
        drop(b);
        let r = store.compact(100_000_000, CompactPolicy::default()).unwrap();
        assert_eq!((r.reclaimed, r.kept_unconsolidated), (0, 1));
        store.consolidate();
        let r = store.compact(2_100 + 1, CompactPolicy::default()).unwrap();
        assert_eq!((r.reclaimed, r.kept_fresh), (0, 1));
        let r = store.compact(2_100 + 600_000, CompactPolicy::default()).unwrap();
        assert_eq!(r.reclaimed, 1);
        assert_eq!(store.stats().series_live, 0);
        assert_eq!(store.stats().series_tombstoned, 0, "two-phase reclaim completed");
    }

    #[test]
    fn reclaimed_ring_serves_no_stale_payloads() {
        let store = SlabStore::create(tmp("stale"), small_cfg()).unwrap();
        let victim = store.series("victim").unwrap();
        for i in 0..8u64 {
            let rec = Record::measured(i * 1_000_000, i as f64);
            victim.push(StreamId::new(i, 0), rec);
        }
        store.consolidate();
        assert!(!victim.tier_buckets(0).is_empty());
        let idx = victim.index();
        drop(victim);
        let r = store.compact(u64::MAX, CompactPolicy::default()).unwrap();
        assert_eq!(r.reclaimed, 1);
        // A new series allocated into the reclaimed dirent must observe a
        // pristine ring: no IDs, no payloads, no tier buckets.
        let fresh = store.series("other").unwrap();
        assert_eq!(fresh.index(), idx, "dirent was reused");
        assert_eq!(fresh.appended(), 0);
        assert_eq!(fresh.last_id(), None);
        assert!(fresh.range(StreamId::MIN, StreamId::MAX).is_empty());
        assert!(fresh.tier_buckets(0).is_empty(), "tier buckets scrubbed");
    }

    #[test]
    fn tombstone_completed_on_reopen() {
        let path = tmp("tombstone");
        {
            let store = SlabStore::create(&path, small_cfg()).unwrap();
            let s = store.series("m").unwrap();
            for i in 0..3u64 {
                s.push(StreamId::new(i, 0), rec(i, 0.0));
            }
            drop(s);
            // Simulate a crash between the tombstone publish and the
            // durable scrub: flip the state word by hand and stop.
            let d = store.layout().series_dirent(0);
            store.atom(d + D_STATE).store(STATE_TOMBSTONE, Ordering::Release);
            store.flush().unwrap();
        }
        let (store, report) = SlabStore::open(&path).unwrap();
        assert_eq!(report.reclaimed_tombstones, 1);
        assert_eq!(report.series_live, 0);
        let s = store.series("m").unwrap();
        assert_eq!(s.index(), 0, "completed tombstone frees the dirent");
        assert_eq!(s.last_id(), None, "the dead ring's payloads are gone");
        assert!(s.range(StreamId::MIN, StreamId::MAX).is_empty());
    }

    #[test]
    fn a_duplicated_live_name_resolves_to_its_lowest_dirent() {
        let path = tmp("duplicate");
        let store = SlabStore::create(&path, small_cfg()).unwrap();
        for (name, ms) in [("m", 1), ("x", 2), ("y", 1_000)] {
            store.series(name).unwrap().push(StreamId::new(ms, 0), rec(ms, 0.0));
        }
        // Hand-edit dirent 2 ("y") to carry dirent 0's name: no attach can
        // write such a file, but a reopened one may hold it.
        let renamed = store.layout().series_dirent(2) + D_NAME;
        drop(store);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[renamed] = b'm';
        std::fs::write(&path, &bytes).unwrap();
        let (store, _) = SlabStore::open(&path).unwrap();
        assert_eq!(store.series("m").unwrap().index(), 0, "the lowest dirent wins");
        // Reclaiming the winner hands the name to the other dirent, as a
        // directory walk would find it next.
        store.consolidate();
        let r = store.compact(1_500, CompactPolicy { retention_ms: 1_000 }).unwrap();
        assert_eq!((r.reclaimed, r.kept_fresh), (2, 1), "dirents 0 and 1 went");
        let heir = store.series("m").unwrap();
        assert_eq!(heir.index(), 2);
        assert_eq!(heir.last_id(), Some(StreamId::new(1_000, 0)));
        assert_eq!(store.series("z").unwrap().index(), 0, "the lowest free dirent");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pressure_tracks_the_fullest_axis() {
        let store = SlabStore::create(tmp("pressure"), small_cfg()).unwrap();
        assert_eq!(store.stats().pressure(), 0.0);
        let _s: Vec<_> = (0..4).map(|i| store.series(&format!("s{i}")).unwrap()).collect();
        let st = store.stats();
        assert_eq!(st.pressure(), 1.0, "series directory saturated");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The slot oracle: a frame `record` accepts reads back as the
        /// `(id, Record)` [`Record::decode`] gives for it, to the bit —
        /// NaN payloads, ±0 and ±∞ included — through the entry walk, the
        /// slot reader and a reopen's validation; a frame it refuses
        /// leaves the ring as it was.
        #[test]
        fn a_recorded_frame_reads_back_as_it_decodes(
            frames in prop::collection::vec((any::<u64>(), any::<u64>(), 0u8..6, 0u8..8), 1..40),
        ) {
            const SPECIAL: [f64; 6] = [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];
            let store = SlabStore::in_memory(SlabConfig { max_series: 1, slots: 64, tiers: vec![] }).unwrap();
            let s = store.series("m").unwrap();
            let mut want = Vec::new();
            for (k, (ts, bits, prov, special)) in frames.into_iter().enumerate() {
                let value = SPECIAL.get(special as usize).copied().unwrap_or(f64::from_bits(bits));
                let mut frame = Record::measured(ts, value).encode().to_vec();
                frame[16] = prov;
                let id = StreamId::new(k as u64, bits);
                let decoded = Record::decode(&frame).ok();
                prop_assert_eq!(s.record(id, &frame), decoded.is_some());
                if let Some(rec) = decoded {
                    want.push((id, rec.timestamp_ns, rec.value.to_bits(), rec.provenance));
                }
            }
            let got: Vec<_> = s.range(StreamId::MIN, StreamId::MAX).iter().map(|e| {
                (e.id, e.record.timestamp_ns, e.record.value.to_bits(), e.record.provenance)
            }).collect();
            prop_assert_eq!(&got, &want);
            let slots: Vec<_> = (0..s.appended()).filter_map(|i| store.read_slot(s.slot_offset(i))).map(|(id, rec)| {
                (id, rec.timestamp_ns, rec.value.to_bits(), rec.provenance)
            }).collect();
            prop_assert_eq!(&slots, &want);
            prop_assert_eq!(store.validate_series(s.index()), (want.len() as u64, 0));
        }
    }
}
