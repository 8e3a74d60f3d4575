//! Proof of the scan cache's zero-allocation claims on the one read,
//! counted by the workspace's counting allocator (`apollo-alloc-count`): a
//! repeat [`TableProvider::columns`] call against an unchanged topic must
//! be served as a pure `Arc` clone — **exactly zero** heap allocations —
//! and a lookup that extends the topic's tail by rows its columns have
//! room for allocates nothing either.
//!
//! The first call is the miss that decodes the scan and keeps it as the
//! topic's tail. Every hit after that touches only borrowed keys, atomics,
//! and `Arc` reference counts. [`TableProvider::range`] is an adapter that
//! collects the slice into a fresh `Vec`, so it allocates by design and is
//! not counted here.
//!
//! Warm scan-aggregate executions over that tail allocate exactly what
//! their result rows need: no directed fold, bucket run, predicate mask or
//! join cursor allocates per row, per run or per chunk. Nor does a
//! whole-tail aggregate that resumes the tail's saved fold over rows
//! appended since, or a sliding bucketed arm that resumes its own.
//!
//! Parsing a query allocates only what its AST owns, plus the token
//! `Vec`: tokens borrow their identifiers from the SQL.
//!
//! This file deliberately holds a single `#[test]`: the count is
//! process-wide, so a second concurrently-running test would pollute it.

use apollo_alloc_count::allocs_during;
use apollo_query::exec::{CachedBroker, QueryEngine, ScanCache, TableProvider};
use apollo_query::parse;
use apollo_streams::codec::Record;
use apollo_streams::{Broker, StreamConfig};

#[test]
fn warm_range_hits_allocate_nothing() {
    const TOPIC: &str = "node0/nvme0/load";
    let broker = Broker::new(StreamConfig::default());
    for i in 0..256u64 {
        let ts_ms = (i + 1) * 10;
        broker.publish(TOPIC, ts_ms, Record::measured(ts_ms * 1_000_000, i as f64).encode());
    }
    let cache = ScanCache::new();
    let provider = CachedBroker::new(&broker, &cache);

    // --- Warm hits ---------------------------------------------------------
    // Warm-up: the miss decodes the scan and keeps it as the tail.
    let first = provider.columns(TOPIC, 0, u64::MAX);
    assert_eq!(first.rows.len(), 256);
    let n = allocs_during(|| {
        for _ in 0..100 {
            let warm = provider.columns(TOPIC, 0, u64::MAX);
            assert_eq!(warm.rows.len(), 256);
        }
    });
    assert_eq!(n, 0, "warm columns hits allocated {n} times over 100 calls");
    assert_eq!((cache.hits(), cache.misses()), (100, 1), "warm hits never re-scanned");

    // --- Extension ---------------------------------------------------------
    // The first extension grows the columns past their exact first sizing
    // (and allocates). While appended rows fit that room, extending them is
    // allocation-free (the publish itself happens outside the count). No
    // slice is held across an extension, so the tail is extended in place.
    drop(first);
    broker.publish(TOPIC, 9_999, Record::measured(9_999_000_000, 1.0).encode());
    assert_eq!(provider.columns(TOPIC, 0, u64::MAX).rows.len(), 257);
    for i in 0..100u64 {
        let ts_ms = 10_000 + i;
        broker.publish(TOPIC, ts_ms, Record::measured(ts_ms * 1_000_000, i as f64).encode());
        let n = allocs_during(|| {
            let cols = provider.columns(TOPIC, ts_ms - 50, u64::MAX);
            assert_eq!(cols.batch.len() as u64, 258 + i);
        });
        assert_eq!(n, 0, "extension {i} allocated {n} times");
    }
    assert_eq!((cache.misses(), cache.invalidations()), (1, 0), "extended, never re-scanned");

    // --- Warm scan aggregates ---------------------------------------------
    // An execution over the unchanged tail allocates its result and nothing
    // per row, per bucket run, per join probe or per gathered chunk (the
    // window's 357 rows are two): the per-arm result `Vec`, the rows' `Vec`
    // and each row's table name (3 for one row). A bucketed arm's 5 rows
    // take 5 names and one exactly sized rows `Vec` (7): its buckets live
    // in the tail's saved fold. A filtered bucketed arm folds afresh, its
    // bucket `Vec` sized once from the window's span (2 rows: 5). A join
    // walks its partner's timestamp column in place (3).
    const PARTNER: &str = "node0/nvme1/load";
    for i in 0..300u64 {
        let ts_ms = 9_900 + i;
        broker.publish(PARTNER, ts_ms, Record::measured(ts_ms * 1_000_000, 0.5).encode());
    }
    let engine = QueryEngine::new(&provider);
    for (sql, want) in [
        (format!("SELECT AVG(metric) FROM {TOPIC}"), 3),
        (format!("SELECT COUNT(*) FROM {TOPIC}"), 3),
        (format!("SELECT MAX(metric) FROM {TOPIC}"), 3),
        (format!("SELECT MAX(metric) FROM {TOPIC} GROUP BY BUCKET(Timestamp, 1s)"), 7),
        (format!("SELECT AVG(metric) FROM {TOPIC} WHERE metric > 100"), 3),
        (
            format!(
                "SELECT MAX(metric) FROM {TOPIC} WHERE metric > 100 GROUP BY BUCKET(Timestamp, 1s)"
            ),
            5,
        ),
        (format!("SELECT COUNT(*) FROM {TOPIC} JOIN {PARTNER} ON Timestamp WITHIN 5ms"), 3),
    ] {
        let query = parse(&sql).unwrap();
        engine.execute(&query).unwrap();
        let n = allocs_during(|| drop(engine.execute(&query).unwrap()));
        assert_eq!(n, want, "{sql}");
    }

    // --- Resumed folds -----------------------------------------------------
    // The whole-tail arms above left their folds on the tail. After a row
    // lands, each extends the tail in place and folds that row onto its
    // saved state: the state is advanced where it lies, not rebuilt or
    // copied, so the arm still allocates only its result (3).
    let resumed_before = cache.fold_resumed();
    for i in 0..20u64 {
        let ts_ms = 20_000 + i;
        broker.publish(TOPIC, ts_ms, Record::measured(ts_ms * 1_000_000, i as f64).encode());
        for sql in [
            format!("SELECT AVG(metric) FROM {TOPIC}"),
            format!("SELECT MAX(metric) FROM {TOPIC}"),
            format!("SELECT COUNT(*) FROM {TOPIC}"),
        ] {
            let query = parse(&sql).unwrap();
            let n = allocs_during(|| drop(engine.execute(&query).unwrap()));
            assert_eq!(n, 3, "{sql} after append {i}");
        }
    }
    assert_eq!(cache.fold_resumed() - resumed_before, 60, "every arm resumed its saved fold");

    // A bucketed arm over a window that slides with the newest row (rows
    // 100 ms apart, 1 s buckets, 1.5 s back) resumes its saved fold after
    // each append: it drops the buckets that slid out, refolds the one its
    // start cuts and folds the new row, in the saved state's own bucket
    // `Vec`, and allocates only its result: the result `Vec`, the rows'
    // `Vec` and a name per bucket row. The first resumes the fold the
    // whole-tail bucketed arm above saved (its window starts later and
    // ends later), whose bucket `Vec` already holds more buckets than any
    // of these windows do.
    let resumed_before = cache.fold_resumed();
    for i in 0..40u64 {
        let ts_ms = 21_000 + i * 100;
        broker.publish(TOPIC, ts_ms, Record::measured(ts_ms * 1_000_000, i as f64).encode());
        let sql = format!(
            "SELECT MAX(metric) FROM {TOPIC} WHERE Timestamp >= {} GROUP BY BUCKET(Timestamp, 1s)",
            ts_ms - 1_500
        );
        let query = parse(&sql).unwrap();
        let mut rows = 0;
        let n = allocs_during(|| rows = engine.execute(&query).unwrap().rows.len());
        assert_eq!(n, 2 + rows as u64, "{sql}: {rows} rows");
    }
    assert_eq!(cache.fold_resumed() - resumed_before, 40, "every append resumed");

    // --- Parsing -----------------------------------------------------------
    // Tokens borrow the SQL, so a parse allocates the token `Vec` and what
    // the AST owns: the arm `Vec` and each table name (3 for one arm, a
    // join's partner name 4). Eight arms own eight names, and the arm `Vec`
    // grows twice past its first arm (12). No count follows the number of
    // tokens: a WHERE of twenty bounds costs what one does.
    let union8 = (0..8)
        .map(|k| format!("SELECT MAX(Timestamp), metric FROM node{k}/nvme0/load"))
        .collect::<Vec<_>>()
        .join(" UNION ");
    let twenty_bounds = (0..20).map(|k| format!("Timestamp >= {k}")).collect::<Vec<_>>();
    for (sql, want) in [
        (format!("SELECT MAX(Timestamp), metric FROM {TOPIC}"), 3),
        (format!("SELECT COUNT(*) FROM {TOPIC}"), 3),
        (format!("SELECT AVG(metric) FROM {TOPIC} WHERE Timestamp >= 9000"), 3),
        (format!("SELECT AVG(metric) FROM {TOPIC} WHERE {}", twenty_bounds.join(" AND ")), 3),
        (
            format!(
                "SELECT MAX(metric) FROM {TOPIC} WHERE Timestamp >= 9000 \
                 GROUP BY BUCKET(Timestamp, 1s)"
            ),
            3,
        ),
        (
            format!(
                "SELECT COUNT(*) FROM {TOPIC} JOIN {PARTNER} ON Timestamp WITHIN 5ms \
                 WHERE Timestamp >= 9000"
            ),
            4,
        ),
        (union8, 12),
    ] {
        let n = allocs_during(|| drop(parse(&sql).unwrap()));
        assert_eq!(n, want, "{sql}");
    }
}
