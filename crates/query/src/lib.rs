//! # bi-query — logical query plans over the relational engine
//!
//! The query layer every other subsystem speaks:
//!
//! * [`plan`] — the logical algebra ([`Plan`]): scan, filter, project,
//!   equi-join, aggregate, union, distinct, sort, limit — with static
//!   schema inference;
//! * [`catalog`] — named base tables and views (views are the paper's §3
//!   "access control by views" mechanism and §5's meta-report bodies);
//! * [`exec`] — a straightforward evaluator (hash joins, hash grouping);
//! * [`origins`] — schema-level lineage: which `(base table, column)`
//!   pairs feed each output column of a plan; the footprint used by PLA
//!   attribute checks;
//! * [`rewrite`] — VPD/Hippocratic-style enforcement by query rewriting
//!   (paper §3): row-restriction predicates and column masks injected at
//!   scans of protected tables;
//! * [`contain`] — conservative derivability: can a report be computed as
//!   a subset/view of a meta-report (paper §5)? Returns an executable
//!   [`contain::Derivation`] rewrite as the proof.
//!
//! Plans execute as written; there is no optimizer pass. Enforcement's
//! rewrites already put row restrictions at the scans, and the fused
//! [`pipeline`] evaluates only the masks its sinks read.

// Panics are not an acceptable failure mode on the delivery path: every
// lookup either has a typed error or degrades (e.g. columnar → row
// fallback). Tests may still unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod contain;
pub mod error;
pub mod exec;
pub mod explain;
pub mod origins;
pub mod pipeline;
pub mod plan;
pub mod rewrite;

pub use catalog::Catalog;
pub use error::QueryError;
pub use exec::{execute, execute_with};
pub use explain::explain;
pub use origins::{ColumnOrigins, Origin};
pub use plan::{AggFunc, AggItem, JoinKind, Plan, SortKey};
