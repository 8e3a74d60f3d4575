//! The cost-aware access planner.
//!
//! Every range scan can be served three ways, in increasing freshness
//! cost:
//!
//! * [`AccessPlan::Incremental`] — a registered continuous query already
//!   folds this exact query; its standing result is read out with no scan
//!   at all. Chosen by the service's query path (the one function behind
//!   `apollo_core::Apollo::query` and `ApolloHandle::query`) when a
//!   registered continuous query's AST matches and its fold has caught up
//!   with the topic tail; the cache-level planner here never returns it.
//! * [`AccessPlan::CachedScan`] — probe the epoch-keyed
//!   [`ScanCache`](crate::exec::ScanCache); a warm hit is an `Arc` clone.
//! * [`AccessPlan::FreshBatch`] — skip the cache and take one consistent
//!   snapshot scan. Cheaper than the cached path when the cache never
//!   hits: a store that is never read back pays the key allocation, the
//!   map churn and a retained batch for nothing.
//!
//! [`choose`] picks between the latter two from the per-topic hit and
//! miss tallies the cache already keeps, plus the topic's live depth
//! gauge. Two access patterns never hit: a topic written between every
//! read invalidates each entry before reuse, and a sliding window
//! (`WHERE Timestamp >= newest − span`) never probes the same key twice.
//! Both show up as lookups that did not hit, so once those dominate hits
//! the planner routes the topic to fresh batches, re-probing periodically
//! in case the access pattern turns read-heavy again.

use serde::{Deserialize, Serialize};

/// How a table scan is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessPlan {
    /// Probe the epoch-keyed scan cache (store on miss).
    CachedScan,
    /// Bypass the cache: one consistent snapshot scan, nothing stored.
    FreshBatch,
    /// Serve from a registered continuous query's standing result.
    Incremental,
}

/// Per-topic cache history, maintained by the scan cache's lookup path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopicStats {
    /// Warm lookups served from the cache.
    pub hits: u64,
    /// Lookups that did not hit: no entry under the key, or an entry
    /// discarded because the topic's `(epoch, last_id)` moved underneath.
    pub misses: u64,
    /// Planner consults made while the topic was in bypass territory
    /// (fresh-batch scans plus the periodic re-probes).
    pub bypasses: u64,
}

/// Misses a topic must accumulate before the planner will consider
/// bypassing its cache — below this the sample is too small to indict.
pub const BYPASS_MISSES: u64 = 32;

/// A thrashing topic still probes the cache every Nth bypass, so a topic
/// that turns read-heavy is re-admitted instead of bypassed forever.
pub const REPROBE_EVERY: u64 = 16;

/// Topics at or below this live depth always use the cache: the scan is
/// trivially cheap either way, so history can't justify the bypass.
pub const SMALL_TOPIC_DEPTH: usize = 64;

/// Is the cache failing to earn its keep on this topic? The one rule:
/// at least [`BYPASS_MISSES`] lookups that did not hit, and fewer than
/// 1 lookup in 5 hitting.
pub fn thrashing(stats: &TopicStats) -> bool {
    stats.misses >= BYPASS_MISSES && stats.hits.saturating_mul(4) < stats.misses
}

/// Pick the access path for one scan of a topic with cache history
/// `stats` and `depth` live entries. Pure — deterministic in its inputs.
/// The caller advances `stats.bypasses` once per consult while the topic
/// is deep and [`thrashing`]; every [`REPROBE_EVERY`]th such consult
/// probes the cache again so a topic that turns read-heavy is
/// re-admitted.
pub fn choose(stats: &TopicStats, depth: usize) -> AccessPlan {
    if depth <= SMALL_TOPIC_DEPTH {
        return AccessPlan::CachedScan;
    }
    if !thrashing(stats) {
        return AccessPlan::CachedScan;
    }
    if (stats.bypasses + 1).is_multiple_of(REPROBE_EVERY) {
        return AccessPlan::CachedScan;
    }
    AccessPlan::FreshBatch
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_topics_use_the_cache() {
        assert_eq!(choose(&TopicStats::default(), 10_000), AccessPlan::CachedScan);
    }

    #[test]
    fn small_topics_always_use_the_cache() {
        let thrashing = TopicStats { hits: 0, misses: 10_000, bypasses: 0 };
        assert_eq!(choose(&thrashing, SMALL_TOPIC_DEPTH), AccessPlan::CachedScan);
        assert_eq!(choose(&thrashing, 1), AccessPlan::CachedScan);
    }

    #[test]
    fn invalidation_heavy_topics_bypass() {
        let s = TopicStats { hits: 0, misses: BYPASS_MISSES, bypasses: 0 };
        assert_eq!(choose(&s, 10_000), AccessPlan::FreshBatch);
        // One miss short of the threshold still caches.
        let s = TopicStats { hits: 0, misses: BYPASS_MISSES - 1, bypasses: 0 };
        assert_eq!(choose(&s, 10_000), AccessPlan::CachedScan);
    }

    #[test]
    fn a_working_hit_rate_keeps_the_cache() {
        // 1 lookup in 5 hitting: 4 * hits >= misses.
        let s = TopicStats { hits: 25, misses: 100, bypasses: 0 };
        assert_eq!(choose(&s, 10_000), AccessPlan::CachedScan);
        let s = TopicStats { hits: 24, misses: 100, bypasses: 0 };
        assert_eq!(choose(&s, 10_000), AccessPlan::FreshBatch);
    }

    #[test]
    fn bypassed_topics_reprobe_periodically() {
        let mut s = TopicStats { hits: 0, misses: 1000, bypasses: 0 };
        let mut probes = 0;
        // Mirror ScanCache::plan: the bypass counter advances on every
        // consult while the topic is thrashing, probe or not.
        for _ in 0..(2 * REPROBE_EVERY) {
            match choose(&s, 10_000) {
                AccessPlan::CachedScan => probes += 1,
                AccessPlan::FreshBatch => {}
                AccessPlan::Incremental => unreachable!("cache planner never picks incremental"),
            }
            s.bypasses += 1;
        }
        assert_eq!(probes, 2, "one probe per REPROBE_EVERY consults");
    }
}
