//! # bi-audit — monitoring, auditing, dispute resolution
//!
//! The paper's fourth challenge (§2.iv): "once requirements … are
//! collected, we have to face the problem of how to implement a solution
//! that i) enforces them and ii) supports monitoring and auditing to
//! detect violations." Enforcement lives in `bi-report`; this crate is
//! the monitoring half, built for the *third-party auditing agencies* §2
//! mentions:
//!
//! * [`log`] — an append-only journal of every report delivery or
//!   refusal: who, what plan, which enforcement actions, what outcome;
//! * [`recheck`] — post-hoc re-checking of delivered reports against the
//!   policy snapshot *and data versions* journaled at delivery time
//!   (falling back, flagged, to current state when a snapshot aged out):
//!   distinguishes enforcement bugs from policy drift (a PLA tightened
//!   after a report shipped);
//! * [`dispute`] — provenance-backed responsibility attribution: given a
//!   leaked source attribute, find every logged delivery that exposed
//!   it and the exact report cells that did.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod dispute;
pub mod log;
pub mod monitor;
pub mod recheck;

pub use bi_obs::TraceId;
pub use dispute::{exposures_of_attribute, responsible_deliveries, Exposure};
pub use log::{AuditEntry, AuditLog, Outcome, Provenance};
pub use monitor::{monitor, Alert, MonitorConfig};
pub use recheck::{
    catalog_at_versions, conditions_at_delivery, recheck_log, recheck_log_at_versions,
    recheck_log_with_snapshots, AtDelivery, AuditFinding, DeliveryConditions, SnapshotFidelity,
    VersionResolver,
};
