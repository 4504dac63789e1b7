//! # bi-types — shared kernel for the `plabi` workspace
//!
//! Foundational vocabulary shared by every other crate in the
//! reproduction of *Engineering Privacy Requirements in Business
//! Intelligence Applications* (Chiasera et al., SDM 2008):
//!
//! * [`Value`] / [`DataType`] — the dynamically-typed cell values flowing
//!   from data sources through ETL, the warehouse, and into reports;
//! * [`Date`] — a small proleptic-Gregorian calendar date (the paper's
//!   example relations are keyed by prescription dates);
//! * [`Schema`] / [`Column`] — relation schemas;
//! * identifier newtypes ([`SourceId`], [`RoleId`], …) naming the actors of
//!   the outsourced-BI scenario of the paper's Fig. 1;
//! * [`TypeError`] — the error vocabulary for typing mistakes.
//!
//! Everything here is deliberately dependency-free so the whole workspace
//! builds bottom-up from this crate.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod date;
pub mod error;
pub mod ids;
pub mod schema;
pub mod value;

pub use date::Date;
pub use error::TypeError;
pub use ids::{ConsumerId, PlaId, ReportId, RoleId, SourceId};
pub use schema::{Column, Schema};
pub use value::{DataType, Value};

/// The kernel types cross worker threads in `bi-exec`'s morsel-driven
/// operators, so `Send + Sync` is part of their public contract — assert
/// it at compile time rather than discovering a regression (e.g. an `Rc`
/// slipping into [`Value`]) deep inside a parallel call site.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<Value>();
    assert_sync_send::<DataType>();
    assert_sync_send::<Date>();
    assert_sync_send::<Schema>();
    assert_sync_send::<Column>();
    assert_sync_send::<TypeError>();
    assert_sync_send::<(ConsumerId, PlaId, ReportId, RoleId, SourceId)>();
};
