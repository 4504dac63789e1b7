//! # bi-core — the privacy-requirements-engineering framework
//!
//! The facade over the whole `plabi` stack, reproducing *Engineering
//! Privacy Requirements in Business Intelligence Applications*
//! (Chiasera, Casati, Daniel, Velegrakis — SDM 2008):
//!
//! * [`system`] — [`BiSystem`]: register sources and their PLAs, run
//!   checked ETL into the warehouse, approve meta-reports, define
//!   reports, deliver them with full enforcement, audit everything;
//! * [`elicitation`] — the cost model quantifying what eliciting PLAs at
//!   each level asks of a source owner (schema elements to understand,
//!   artifacts to discuss);
//! * [`continuum`] — the Fig. 5 simulation: sweep a report-evolution
//!   workload and measure elicitation effort vs. stability at all four
//!   PLA levels (source / warehouse / meta-report / report).
//!
//! Re-exports the whole workspace so downstream users depend on one
//! crate.

// Panics are not an acceptable failure mode in the facade: lock
// poisoning is absorbed, map lookups degrade or carry typed errors.
// Tests may still unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod continuum;
pub mod elicitation;
pub mod negotiation;
mod policy;
mod render_cache;
mod scheduler;
pub mod storage;
pub mod system;
pub mod wal;

pub use continuum::{simulate_continuum, ContinuumParams, LevelOutcome};
pub use elicitation::ElicitationCost;
pub use negotiation::{compare_strategies, negotiate, NegotiationOutcome, OwnerModel, Stance};
pub use storage::{export_deployment, import_deployment, StorageError};
pub use system::{BiSystem, ReplayedDelivery, SystemError};
pub use wal::{read_wal, WalError, WalReadout, WalRecord, WalWriter};

pub use bi_anonymize as anonymize;
pub use bi_audit as audit;
pub use bi_etl as etl;
pub use bi_exec as exec;
pub use bi_pla as pla;
pub use bi_provenance as provenance;
pub use bi_query as query;
pub use bi_relation as relation;
pub use bi_report as report;
pub use bi_types as types;
pub use bi_warehouse as warehouse;
