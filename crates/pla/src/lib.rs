//! # bi-pla — Privacy Level Agreements
//!
//! The paper's core artifact: **precise, testable, auditable** privacy
//! requirements agreed between data-source owners and the BI provider
//! (§2). A [`PlaDocument`] carries the five annotation kinds of §5:
//!
//! 1. *attribute access* — who (which roles) can see an attribute,
//!    optionally under an intensional condition ("examination results
//!    only for patients that are not HIV positive");
//! 2. *aggregation requirements* — minimum group size before values may
//!    be shown aggregated;
//! 3. *anonymization requirements* — suppression, pseudonymization,
//!    generalization, or noise on an attribute;
//! 4. *join permissions/prohibitions* — whether information from two
//!    sources may be combined;
//! 5. *integration permission* — whether a source's data may be used to
//!    clean/resolve other owners' data (entity resolution).
//!
//! plus row restrictions (the Fig. 2(b) `Policies` metadata table),
//! retention limits, and purpose limitation.
//!
//! Modules:
//! * [`rule`] / [`document`] — the rule language and documents bound to
//!   an enforcement [`document::PlaLevel`] (source / warehouse /
//!   meta-report / report — the paper's continuum, Fig. 5);
//! * [`combine`] — integrating PLAs from multiple sources
//!   (most-restrictive-wins) with explicit conflict surfacing (§2
//!   challenge ii);
//! * [`check`] — the static compliance checker: a query plan is checked
//!   against a combined policy, yielding [`check::Violation`]s and
//!   residual run-time [`check::Obligation`]s;
//! * [`dsl`] — a textual round-trippable format for PLA documents (the
//!   "language for annotations and PLAs" §6 calls for);
//! * [`subject`] — consumers and their roles.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod check;
pub mod combine;
pub mod document;
pub mod dsl;
pub mod error;
pub mod fingerprint;
pub mod lint;
pub mod rule;
pub mod subject;

pub use check::{check_plan, CheckOutcome, CheckProgram, Obligation, Violation};
pub use combine::{CombinedPolicy, Conflict};
pub use document::{PlaDocument, PlaLevel};
pub use error::PlaError;
pub use fingerprint::EnforcementKey;
pub use lint::{lint_document, LintWarning};
pub use rule::{AnonMethod, AttrRef, PlaRule};
pub use subject::SubjectRegistry;
