//! # bi-relation — in-memory relational engine
//!
//! The storage and expression substrate under the whole `plabi` stack.
//! Data sources, the ETL staging area, the warehouse, and rendered reports
//! are all [`Table`]s; PLA conditions ("show exam results only for
//! patients that are not HIV positive", paper §5) are [`expr::Expr`]
//! trees evaluated against rows.
//!
//! Contents:
//! * [`table`] — [`Table`]: a named, schema-checked grid of rows with
//!   relational helpers (filter/project/sort/distinct/group);
//! * [`expr`] — expression AST, SQL-style three-valued evaluation, static
//!   type inference, a textual parser and a round-trippable printer, and
//!   the stack-based bytecode VM ([`expr::Program`]/[`expr::Vm`]) that
//!   every hot evaluation path compiles through;
//! * [`scalar`] — morsel-parallel, [`bi_exec::ExecConfig`]-aware filter
//!   and projection over compiled programs;
//! * [`column`] — columnar chunks ([`column::ColumnChunk`]): typed
//!   column vectors with validity bitmaps and dictionary-encoded text,
//!   plus vectorized predicate kernels ([`column::kernel`]) that
//!   evaluate a whole morsel per call;
//! * [`index`] — hash indexes used by joins and policy lookups;
//! * [`pretty`] — textual rendering of tables in the style of the paper's
//!   Figs. 2–4;
//! * [`error`] — the crate error type.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod column;
pub mod csv;
pub mod error;
pub mod expr;
pub mod index;
pub mod pretty;
pub mod scalar;
pub mod table;

pub use column::kernel::{filter_columnar, BoolMask, CompiledPredicate};
pub use column::sort::sort_permutation;
pub use column::{
    Column as ChunkColumn, ColumnChunk, ColumnData, ColumnarError, Dictionary, GroupCodes,
};
pub use error::RelationError;
pub use expr::{fold, BinOp, Expr, Func, Program, Vm};
pub use index::HashIndex;
pub use scalar::{filter_scalar, project_scalar, project_schema};
pub use table::{Row, Table};
