//! Scan consistency under retention pressure: the archive stitch, batch
//! publishing, and the query scan cache's extended tail — driven
//! end-to-end through the public `Apollo` surface.
//!
//! A topic with a tiny bounded window is filled far past retention, so
//! almost every entry lives in the archive. The demo shows that range
//! reads and a reader's own cursor still observe the full history
//! exactly once, and that repeated AQE range queries are served from the
//! scan cache, whose tail a publish extends: the topic's snapshot
//! `(first_id, last_id)` says what it holds.
//!
//! Run: `cargo run --release -p apollo-bench --example scan_consistency`

use apollo_core::service::Apollo;
use apollo_runtime::event_loop::EventLoop;
use apollo_streams::codec::Record;
use apollo_streams::{StreamConfig, StreamId};

fn main() {
    // A window of 8: with 1000 records published, 992 are evicted into
    // the archive and every scan must stitch across the eviction seam.
    let apollo = Apollo::with_config(EventLoop::new_virtual(), StreamConfig::bounded(8));
    let broker = apollo.broker();

    // The replayer's cursor, taken before the data lands, like a
    // middleware consumer that connects early and then falls behind.
    let mut cursor: Option<StreamId> = None;

    println!("== batch publish past retention ==");
    let records = (0..1000u64).map(|i| (i, Record::measured(i * 1_000_000, i as f64).encode()));
    let ids = broker.publish_batch("pfs/capacity", records);
    let info = broker.topic_info("pfs/capacity").expect("topic exists");
    println!("  published {} records into a window of 8", ids.len());
    println!("  live window: {} entries, archived: {}", info.window_len, info.archived_len);

    println!("\n== range reads stitch the full history ==");
    let all = broker.range("pfs/capacity", StreamId::MIN, StreamId::MAX);
    let ordered = all.windows(2).all(|w| w[0].id < w[1].id);
    println!("  range over everything: {} entries, strictly ordered: {ordered}", all.len());
    let batch = broker.scan_batch_by_time("pfs/capacity", 100, 199);
    println!(
        "  scan_batch [100ms, 199ms]: {} entries, {} decoded records",
        batch.entries.len(),
        batch.records.len()
    );
    let meta = broker.scan_meta("pfs/capacity");
    let show = |id: Option<StreamId>| id.map_or("-".to_string(), |id| id.to_string());
    println!(
        "  snapshot (first_id, last_id): ({}, {}), archived: {}",
        show(meta.first_id),
        show(meta.last_id),
        info.archived_len
    );

    println!("\n== a slow cursor reader is archive-stitched, not skipped ==");
    let mut seen = 0usize;
    let mut gap_free = true;
    loop {
        let got = broker.read_after("pfs/capacity", cursor, 64);
        let Some(last) = got.last() else { break };
        cursor = Some(last.id);
        for e in &got {
            gap_free &= e.id == StreamId::new(seen as u64, 0);
            seen += 1;
        }
    }
    let lapped = apollo.metrics_snapshot().counter("streams.topic.pfs/capacity.cursor_lapped");
    println!("  cursor walk saw {seen} entries, gap-free: {gap_free}");
    println!("  reads the ring had lapped (cursor_lapped): {lapped}");

    println!("\n== repeated range queries hit the scan cache ==");
    let sql = "SELECT AVG(metric) FROM pfs/capacity WHERE Timestamp BETWEEN 0 AND 999";
    let rows = apollo.query(sql).expect("query");
    println!("  cold AVG over the stitched history: {:?}", rows.rows[0].value);
    apollo.query(sql).expect("query");
    let cache = apollo.scan_cache();
    println!("  after 2 runs: hits={} misses={}", cache.hits(), cache.misses());

    // A fresh publish moves `last_id`: the cached tail is extended by
    // that one row, and the same query sees it.
    broker.publish("pfs/capacity", 999, Record::measured(999_000_000, 5000.0).encode());
    let rows = apollo.query(sql).expect("query");
    println!(
        "  after publish, same query sees the new row: AVG = {:?}, hits={} misses={}",
        rows.rows[0].value,
        cache.hits(),
        cache.misses()
    );

    let snap = apollo.metrics_snapshot();
    println!("\n== the metrics layer saw all of it ==");
    for key in [
        "query.scan_cache.hits",
        "query.scan_cache.misses",
        "query.scan_cache.invalidations",
        "streams.topic.pfs/capacity.cursor_lapped",
        "streams.topic.pfs/capacity.archive_rejected",
    ] {
        println!("  {key:<45} = {}", snap.counters.get(key).copied().unwrap_or(0));
    }
}
