//! AQE v2 engine benchmark — vectorized vs row-at-a-time execution, warm
//! scan-cache hit cost, and sustained query throughput under a live
//! publisher.
//!
//! Three phases over one seeded topic:
//!
//! * **vectorized vs row** — the same full-span aggregate executed by the
//!   vectorized engine ([`QueryEngine::new`], SoA columnar folds) and the
//!   row-at-a-time oracle ([`QueryEngine::row_oracle`]), both reading the
//!   same warm cached snapshot so the difference is pure execution. CI
//!   requires the vectorized path to win at full span.
//! * **warm hit cost** — per-call latency and heap allocations (counted
//!   by `apollo-alloc-count`) of a repeat `TableProvider::range`
//!   against an unchanged topic. `warm_hit_allocs` must be exactly zero:
//!   a warm hit is two `Arc` clones.
//! * **sustained qps under churn** — a writer thread keeps publishing
//!   (every append invalidates the cached snapshot) while the vectorized
//!   engine re-runs the full-span aggregate; reports queries/sec and the
//!   p99 per-query latency.
//!
//! Run: `cargo run --release -p apollo-bench --bin query_engine`

use apollo_alloc_count::allocs;
use apollo_bench::report::{Report, Series};
use apollo_query::{CachedBroker, QueryEngine, ScanCache, TableProvider};
use apollo_streams::codec::Record;
use apollo_streams::{Broker, StreamConfig};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const ROWS: u64 = 100_000;
const ITERS: u32 = 200;
const WARM_ITERS: u32 = 10_000;

fn scans_per_sec<P: TableProvider>(engine: &QueryEngine<P>, sql: &str) -> f64 {
    engine.execute_sql(sql).expect("warm scan");
    let t = Instant::now();
    for _ in 0..ITERS {
        black_box(engine.execute_sql(sql).expect("scan"));
    }
    f64::from(ITERS) / t.elapsed().as_secs_f64()
}

fn main() {
    let registry = apollo_obs::Registry::new();
    let broker = Arc::new(Broker::new(StreamConfig::default()));
    broker.instrument(&registry);
    for i in 0..ROWS {
        broker.publish("node_0_metric", i, Record::measured(i * 1_000_000, i as f64).encode());
    }
    let cache = ScanCache::new();
    cache.instrument(&registry);

    let mut report =
        Report::new("query_engine", "AQE v2: vectorized execution, warm hits, churn qps");

    // --- Phase 1: vectorized vs row-at-a-time over the same warm cache --
    let provider = CachedBroker::new(broker.as_ref(), &cache);
    let vectorized = QueryEngine::with_metrics(&provider, &registry);
    let row = QueryEngine::row_oracle(&provider);
    let mut vec_series = Series::new("vectorized");
    let mut row_series = Series::new("row_at_a_time");
    let mut speedup_full_span = 0.0;
    for span in [1_000u64, 10_000, ROWS - 1] {
        let sql =
            format!("SELECT AVG(metric) FROM node_0_metric WHERE Timestamp BETWEEN 0 AND {span}");
        assert_eq!(
            vectorized.execute_sql(&sql).unwrap(),
            row.execute_sql(&sql).unwrap(),
            "paths diverged before timing"
        );
        let v = scans_per_sec(&vectorized, &sql);
        let r = scans_per_sec(&row, &sql);
        vec_series.push(span as f64, v);
        row_series.push(span as f64, r);
        speedup_full_span = v / r;
    }
    report.note("vectorized_speedup_full_span", speedup_full_span);
    let bucket_sql = format!(
        "SELECT AVG(metric) FROM node_0_metric \
         WHERE Timestamp BETWEEN 0 AND {} GROUP BY BUCKET(Timestamp, 1s)",
        ROWS - 1
    );
    report.note(
        "vectorized_speedup_bucketed",
        scans_per_sec(&vectorized, &bucket_sql) / scans_per_sec(&row, &bucket_sql),
    );

    // --- Phase 2: warm-cache hit cost --------------------------------------
    // Two warm-ups: the miss that stores the scan, then the first hit
    // (which creates the per-topic planner-stats entry). After that a hit
    // is two `Arc` clones — zero heap traffic.
    provider.range("node_0_metric", 0, u64::MAX);
    provider.range("node_0_metric", 0, u64::MAX);
    let before = allocs();
    let t = Instant::now();
    for _ in 0..WARM_ITERS {
        black_box(provider.range("node_0_metric", 0, u64::MAX));
    }
    let warm_ns = t.elapsed().as_nanos() as f64 / f64::from(WARM_ITERS);
    let warm_allocs = (allocs() - before) / u64::from(WARM_ITERS);
    report.note("warm_hit_ns", warm_ns);
    report.note("warm_hit_allocs", warm_allocs);

    // --- Phase 3: sustained qps under a live publisher ---------------------
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let broker = Arc::clone(&broker);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut ms = ROWS;
            let mut published = 0u64;
            while !stop.load(Ordering::Acquire) {
                broker.publish("node_0_metric", ms, Record::measured(ms, ms as f64).encode());
                ms += 1;
                published += 1;
            }
            published
        })
    };
    let churn_sql = format!("SELECT AVG(metric) FROM node_0_metric WHERE Timestamp <= {ROWS}");
    let mut latencies_ns: Vec<f64> = Vec::new();
    let t = Instant::now();
    while t.elapsed().as_millis() < 500 {
        let q = Instant::now();
        black_box(vectorized.execute_sql(&churn_sql).expect("churn scan"));
        latencies_ns.push(q.elapsed().as_nanos() as f64);
    }
    let qps = latencies_ns.len() as f64 / t.elapsed().as_secs_f64();
    stop.store(true, Ordering::Release);
    let published = writer.join().unwrap();
    latencies_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p99 = latencies_ns[(latencies_ns.len() - 1) * 99 / 100];
    let mut churn_series = Series::new("qps_under_publish");
    churn_series.push(ROWS as f64, qps);
    report.note("sustained_qps", qps);
    report.note("p99_query_ns", p99);
    report.note("publishes_during_churn", published);
    report.note("cache_hits", cache.hits());
    report.note("cache_misses", cache.misses());
    report.note("planner_fresh_batches", cache.planner_fresh());

    report.add_series(vec_series);
    report.add_series(row_series);
    report.add_series(churn_series);
    report.attach_metrics(&registry.snapshot());
    report.finish("span_rows", "scans/sec");
}
