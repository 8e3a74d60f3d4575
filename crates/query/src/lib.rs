//! # apollo-query
//!
//! The **Apollo Query Engine** (AQE) of HPDC '21 §3.1: middleware
//! services query Apollo with a small SQL subset; the engine "converts a
//! client query into multiple Information access calls", answers each
//! table access against the SCoRe streams, and unions the results. The
//! parallelism is across queries: any number of threads call
//! `ApolloHandle::query` at once, each answering its own query's arms
//! inline.
//!
//! The supported grammar is the resource-query shape of Algorithm 4.4.1
//! plus the aggregates middleware needs — with v2 adding value
//! predicates, time-bucketed windows, and timestamp joins:
//!
//! ```sql
//! SELECT MAX(Timestamp), metric FROM pfs_capacity
//! UNION
//! SELECT AVG(metric) FROM node_2_load
//!   WHERE Timestamp BETWEEN 100 AND 200 AND metric > 0.5
//!   GROUP BY BUCKET(Timestamp, 10s)
//! UNION
//! SELECT COUNT(*) FROM reads JOIN writes ON Timestamp WITHIN 5ms;
//! ```
//!
//! * [`ast`] — query syntax tree.
//! * [`parser`] — hand-rolled tokenizer/parser with typed, positioned
//!   errors (reversed time bounds are rejected, not silently empty).
//! * [`exec`] — the executor over a [`exec::TableProvider`], whose one
//!   read is a [`exec::ColumnSlice`] of a window (implemented for the
//!   pub-sub [`apollo_streams::Broker`], reading the live queue or the
//!   archived log via timestamp indexing), with a scan cache of one
//!   decoded columnar tail per topic, extended in place by the rows
//!   appended since the last lookup and served a slice per window; warm
//!   hits are allocation-free. The cache's doc names the three access
//!   paths a window is served by.
//! * [`vector`] — columnar kernels: scan aggregates fold a slice of the
//!   provider's [`apollo_streams::ColumnBatch`] in stream order,
//!   bit-identical to a naive fold over the same records.

pub mod ast;
pub mod exec;
pub mod parser;
pub mod vector;

pub use ast::{Aggregate, CmpOp, Join, Query, Select, ValuePred};
pub use exec::{
    CachedBroker, ColumnSlice, QueryEngine, QueryMetrics, QueryResult, Row, ScanCache,
    TableProvider,
};
pub use parser::{parse, ParseError, ParseErrorKind};
pub use vector::{JoinIndex, ScanAccumulator};
