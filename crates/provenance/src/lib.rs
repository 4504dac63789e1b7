//! # bi-provenance — where-provenance for the BI pipeline
//!
//! Paper §4: "the task of eliciting privacy requirements with the source
//! owners and later testing PLAs once they have been agreed upon can be
//! supported by provenance or lineage techniques, that capture the
//! origins of data and facilitate privacy and compliance management."
//!
//! This crate implements annotation-based **where-provenance** in the
//! style of DBNotes/Buneman: every cell of a source relation carries a
//! unique [`ProvToken`]; executing a query plan with
//! [`propagate::pexecute`] propagates token sets through filters,
//! projections, joins, aggregation, union and duplicate elimination. The
//! result is an [`AnnotatedTable`] on which [`lineage`] answers the two
//! questions auditing needs (paper §2.iv):
//!
//! * *forward*: which report cells derive from a given source cell /
//!   table / column (the §5 elicitation GUI shows "where each report
//!   data item comes from");
//! * *backward*: which source cells fed a given report cell (dispute
//!   resolution — who is responsible for a leaked value).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod annotated;
pub mod lineage;
pub mod propagate;
pub mod token;

pub use annotated::{AnnSet, AnnotatedTable};
pub use lineage::Lineage;
pub use propagate::{pexecute, ProvCatalog};
pub use token::ProvToken;
