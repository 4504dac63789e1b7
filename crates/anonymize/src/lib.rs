//! # bi-anonymize — anonymization toolbox for source-level PLAs
//!
//! Paper §3: "the data delivered to BI providers may additionally undergo
//! a data anonymization procedure … Known anonymization techniques are
//! those based on k-anonymity or l-diversity." Paper §4 adds data
//! perturbation ("adding noise in such a way that the statistical
//! distribution and the patterns of the input data are preserved").
//!
//! This crate implements all of them over `bi-relation` tables:
//!
//! * [`hierarchy`] — generalization hierarchies for categorical, numeric
//!   and date attributes (the domain-generalization ladders of
//!   Samarati/Sweeney);
//! * [`kanon`] — full-domain generalization lattice search with a
//!   suppression budget (k-anonymity);
//! * [`mondrian`] — multidimensional median-cut partitioning (greedy
//!   Mondrian), usually much lower information loss than full-domain;
//! * [`ldiv`] — distinct ℓ-diversity checking and enforcement on top of a
//!   k-anonymized table;
//! * [`perturb`] — additive Laplace noise for numeric measures, keeping
//!   aggregates usable;
//! * [`pseudo`] — deterministic keyed pseudonyms for identifiers;
//! * [`metrics`] — utility metrics (discernibility, average class size,
//!   generalization precision loss) used by experiment E7.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod error;
pub mod hierarchy;
pub mod kanon;
pub mod ldiv;
pub mod metrics;
pub mod mondrian;
pub mod perturb;
pub mod pseudo;

pub use error::AnonError;
pub use hierarchy::Hierarchy;
pub use kanon::{is_k_anonymous, is_k_anonymous_with, kanonymize, kanonymize_with, AnonResult};
pub use ldiv::{enforce_l_diversity, is_l_diverse};
pub use mondrian::{mondrian, mondrian_with};
pub use perturb::laplace_perturb;
pub use pseudo::Pseudonymizer;
