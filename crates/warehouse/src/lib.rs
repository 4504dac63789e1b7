//! # bi-warehouse — star-schema warehouse and OLAP cubes
//!
//! The paper's BI provider loads integrated data into a data warehouse
//! (§2) from which reports are computed; §4 puts PLA metadata on the
//! warehouse and cites fine-grained authorization for data cubes
//! (Wang/Jajodia/Wijesekera). This crate provides:
//!
//! * [`star`] — star-schema modeling: dimensions with level hierarchies,
//!   fact tables with measures, and a [`star::Warehouse`] owning the
//!   loaded tables plus declared referential integrity;
//! * [`cube`] — OLAP queries over a fact table ([`cube::CubeQuery`]):
//!   group by dimension levels, aggregate measures, with
//!   rollup / drill-down / slice / dice operations building new queries;
//! * [`authz`] — cube-cell authorization: minimum-count suppression and
//!   complementary suppression against differencing attacks;
//! * [`mvcc`] — bounded multi-version table storage: every
//!   [`star::Warehouse::load_table`] assigns a deterministic data
//!   version and retains the committed rows (Arc-shared, one pointer
//!   per version) so audit replays resolve the exact rows a journaled
//!   delivery read.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod authz;
pub mod cube;
pub mod error;
pub mod mvcc;
pub mod star;

pub use cube::CubeQuery;
pub use error::WarehouseError;
pub use mvcc::VersionHistory;
pub use star::{DimLevel, Dimension, FactTable, Measure, Warehouse, WarehouseSnapshot};
