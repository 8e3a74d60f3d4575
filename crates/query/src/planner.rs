//! The access paths a range scan can be served by.
//!
//! In increasing freshness cost:
//!
//! * [`AccessPlan::Incremental`] — a registered continuous query already
//!   folds this exact query; its standing result is read out with no scan
//!   at all. Chosen by the service's query path (the one function behind
//!   `apollo_core::Apollo::query` and `ApolloHandle::query`) when a
//!   registered continuous query's AST matches and its fold has caught up
//!   with the topic tail; the cache below it never takes this path.
//! * [`AccessPlan::CachedScan`] — the window is a slice of the topic's
//!   cached tail in the [`ScanCache`](crate::exec::ScanCache), which the
//!   lookup first extends by the rows appended since (a *hit*), or which
//!   it scans and keeps because the topic had none, the window reaches
//!   further back, or the stream lost the tail's head mid-millisecond (a
//!   *miss*).
//! * [`AccessPlan::FreshBatch`] — one consistent snapshot scan of exactly
//!   the window, nothing kept: a closed window wholly older than the tail
//!   (or, with no tail yet, short of the topic's end), an empty or
//!   unknown topic.

use serde::{Deserialize, Serialize};

/// How a table scan is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessPlan {
    /// Serve a slice of the topic's cached tail (scanned now if need be).
    CachedScan,
    /// One consistent snapshot scan of the window alone, nothing stored.
    FreshBatch,
    /// Serve from a registered continuous query's standing result.
    Incremental,
}
