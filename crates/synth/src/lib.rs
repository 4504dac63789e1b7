//! # bi-synth — synthetic health-care scenario data
//!
//! The paper evaluates its methodology on real projects "with the local
//! governments, hospitals, and social agencies" of Trento. Those data
//! are (rightly) unavailable; this crate is the substitution documented
//! in DESIGN.md: a **seeded generator** producing the Fig. 1 scenario —
//! hospital, medical laboratory, family doctor, municipality, and health
//! agency sources — with the same schema family as the paper's figures,
//! at configurable scale, with realistic dirt (name spelling variants
//! across sources, missing doctors) so the ETL/entity-resolution paths
//! are genuinely exercised.
//!
//! * [`fixtures`] — the *exact* tables printed in the paper's Figs. 2–4
//!   (Prescriptions, Policies, Familydoctor, Drug Cost, Drug
//!   consumption), for byte-level reproduction in examples and E1;
//! * [`names`] — name/drug/disease pools and the disease & drug-family
//!   taxonomies (as edge lists, so no dependency on `bi-anonymize`);
//! * [`scenario`] — the multi-source generator.

#![forbid(unsafe_code)]

pub mod fixtures;
pub mod names;
pub mod scenario;

pub use scenario::{Scenario, ScenarioConfig};
