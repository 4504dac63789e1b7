//! # bi-etl — extract / transform / load with PLA-aware flows
//!
//! The paper's BI provider "extracts, integrates and transforms data
//! that is then loaded on a data warehouse" (§2), staging data before the
//! warehouse (§4), with PLA annotations restricting what the ETL may do:
//! joins between sources, and "data disambiguation, correction, and
//! cleaning procedures" — entity resolution in particular, which needs
//! the *integration permission* (§5 annotation kind v).
//!
//! * [`quality`] — string similarity (Levenshtein, Jaro-Winkler), code
//!   standardization, null profiling, and **referential-integrity
//!   validation** (the guarantee `bi-query`'s containment pruning relies
//!   on);
//! * [`staging`] — the staging area: named tables with source
//!   attribution;
//! * [`pipeline`] — the operator language ([`EtlOp`]) and the runner,
//!   including source-level enforcement (row restrictions and retention
//!   filters applied at extraction);
//! * [`check`] — static PLA compliance of a pipeline *before it runs*
//!   (the paper's "testable" requirement, §2.i).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod check;
pub mod error;
pub mod pipeline;
pub mod quality;
pub mod staging;

pub use check::check_pipeline;
pub use error::EtlError;
pub use pipeline::{run_pipeline, run_pipeline_with, EtlOp, EtlReport, Pipeline, Step};
pub use staging::Staging;
