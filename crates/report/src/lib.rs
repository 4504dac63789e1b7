//! # bi-report — reports, meta-reports, compliance, enforcement
//!
//! The paper's §5 in executable form.
//!
//! * [`spec`] — [`spec::ReportSpec`]: a report definition (plan over the
//!   warehouse, consumer roles, purpose);
//! * [`meta`] — [`meta::MetaReport`]: a wide view over the warehouse,
//!   approved by source owners, carrying the PLA annotations elicited on
//!   it ("meta-reports represent tables or views over the data warehouse
//!   that contain data that can be used to define reports");
//! * [`comply`] — the compliance gate: a new/modified report is checked
//!   by (a) finding an approved meta-report it is *derivable from*
//!   (`bi-query`'s containment) and (b) statically checking the PLA
//!   rules; reports not covered by any meta-report require a fresh
//!   elicitation round — the cost Fig. 5 trades against;
//! * [`engine`] — enforced execution: discharges the checker's
//!   obligations (row filters, intensional masks, k-thresholds,
//!   anonymization) and renders the final table;
//! * [`generate`] — meta-report synthesis from a report portfolio with a
//!   granularity knob (the §5 design challenge: "how many meta-reports
//!   to define and how close … to the warehouse or the reports");
//! * [`evolve`] — a seeded report-evolution workload (add / modify /
//!   retire reports over epochs), the driver for experiment E5.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod comply;
pub mod engine;
pub mod error;
pub mod evolve;
pub mod generate;
pub mod meta;
pub mod render;
pub mod spec;

pub use comply::{check_report, ComplianceResult, Coverage, MetaIndex};
pub use engine::{render_checked, render_enforced, EnforcedReport, EngineConfig, RenderOutcome};
pub use error::ReportError;
pub use evolve::{EvolutionEvent, EvolutionWorkload, WorkloadParams};
pub use generate::{synthesize_meta_reports, GranularityKnob};
pub use meta::MetaReport;
pub use spec::ReportSpec;
