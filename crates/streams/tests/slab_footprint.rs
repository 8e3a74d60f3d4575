//! The file store's resident footprint is the pages it wrote.
//!
//! A fresh store is sparse: a ring page exists once a slot on it is
//! written. This suite writes a few slots into each of many series and
//! reads the mapping's resident size from its `/proc/self/smaps` entry:
//! it must not exceed the written ring pages plus the header and
//! directory pages.
//!
//! The bound has teeth only on a kernel whose page cache maps a readahead
//! folio on a write fault into a file hole, as Linux 6.18 over ext4 does:
//! there, without the mapping's random-access advice, the store below
//! (the default geometry, 256 series of 4 096 slots) is 39 MiB resident
//! where it wrote 3 MiB — about 39 pages per ring for 3 written. The
//! readahead grows with the faults a file takes, so a store of a few dozen
//! small rings shows almost none of it. A kernel that faults single pages
//! passes with or without the advice.
#![cfg(target_os = "linux")]

use apollo_streams::{SlabConfig, SlabStore, StreamId};
use std::collections::BTreeSet;
use std::path::Path;

/// Every dirent of the default geometry.
const SERIES: usize = 256;
/// Slots written per series: 144 × 64 B fill three 4 KiB pages.
const WRITTEN: usize = 144;

/// `(Rss, KernelPageSize)` in bytes of the one mapping of `path`.
fn mapping_residency(path: &Path) -> (usize, usize) {
    let smaps = std::fs::read_to_string("/proc/self/smaps").expect("read /proc/self/smaps");
    let path = path.to_str().expect("a UTF-8 temp path");
    let mut lines = smaps.lines().skip_while(|l| !l.ends_with(path)).skip(1);
    let mut field = |name: &str| -> usize {
        let line = lines.find(|l| l.starts_with(name)).unwrap_or_else(|| panic!("no {name}"));
        let kib = line[name.len()..].trim().trim_end_matches("kB").trim();
        kib.parse::<usize>().expect("a kB figure") * 1024
    };
    // smaps lists an entry's fields in this order.
    let page = field("KernelPageSize:");
    let rss = field("Rss:");
    (rss, page)
}

#[test]
fn a_file_store_is_resident_only_where_it_was_written() {
    let dir = std::env::temp_dir().join(format!("apollo-slabfp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("footprint.slab");
    let _ = std::fs::remove_file(&path);
    let cfg = SlabConfig::default();
    let store = SlabStore::create(&path, cfg).expect("create store");

    let series: Vec<_> =
        (0..SERIES).map(|i| store.series(&format!("s{i}")).expect("a free dirent")).collect();
    for (i, s) in series.iter().enumerate() {
        for k in 0..WRITTEN as u64 {
            assert!(s.record(StreamId::new(k, 0), &(i as u64 ^ k).to_le_bytes()));
        }
    }
    store.flush().expect("msync");

    let (rss, page) = mapping_residency(&path);
    let layout = store.layout();
    let pages_of = |from: usize, to: usize| (from / page)..to.div_ceil(page);
    let mut written: BTreeSet<usize> = BTreeSet::new();
    // The header page and the whole directory (an attach reads it).
    written.extend(pages_of(0, layout.slot(0, 0)));
    for s in &series {
        written.extend(pages_of(layout.slot(s.index(), 0), layout.slot(s.index(), WRITTEN)));
    }
    let bound = written.len() * page;
    assert!(rss > 0, "the mapping was found and written");
    assert!(
        rss <= bound,
        "{} KiB resident for {} KiB written ({SERIES} series × {WRITTEN} slots)",
        rss / 1024,
        bound / 1024
    );
    drop(series);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
