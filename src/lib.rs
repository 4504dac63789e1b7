//! # plabi — Privacy Level Agreements for outsourced Business Intelligence
//!
//! A production-quality Rust reproduction of *Engineering Privacy
//! Requirements in Business Intelligence Applications* (A. Chiasera,
//! F. Casati, F. Daniel, Y. Velegrakis — SDM 2008, LNCS 5159, co-located
//! with VLDB 2008).
//!
//! The paper studies how a BI provider can elicit, model, **test**, and
//! **audit** the privacy requirements (PLAs) that data-source owners —
//! hospitals, laboratories, municipalities — impose on the reports the
//! provider computes from their data. Its central argument: PLAs can be
//! attached at four levels (source schema, warehouse/ETL, meta-reports,
//! reports), trading elicitation ease against stability under report
//! evolution, with **meta-reports** as the sweet spot.
//!
//! This crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `bi-types` | values, dates, schemas, ids |
//! | [`exec`] | `bi-exec` | morsel-driven parallel execution substrate |
//! | [`relation`] | `bi-relation` | tables, expressions (3-valued logic), parser |
//! | [`query`] | `bi-query` | plans, views, execution, VPD rewriting, containment |
//! | [`provenance`] | `bi-provenance` | where-provenance, lineage queries |
//! | [`anonymize`] | `bi-anonymize` | k-anonymity, Mondrian, ℓ-diversity, noise, pseudonyms |
//! | [`pla`] | `bi-pla` | the PLA language, DSL, combination, static checking |
//! | [`etl`] | `bi-etl` | pipelines, entity resolution, PLA-checked flows |
//! | [`warehouse`] | `bi-warehouse` | star schemas, OLAP cubes, cube authorization |
//! | [`report`] | `bi-report` | reports, meta-reports, compliance, enforcement |
//! | [`audit`] | `bi-audit` | journal, post-hoc re-checking, dispute resolution |
//! | [`core`](mod@core) | `bi-core` | the [`BiSystem`] facade, elicitation costs, Fig. 5 simulation |
//! | [`synth`] | `bi-synth` | the synthetic health-care scenario (Fig. 1) |
//!
//! ## Quick start
//!
//! ```
//! use plabi::prelude::*;
//!
//! // A warehouse table (normally loaded by ETL).
//! let mut system = BiSystem::new(Date::new(2008, 7, 1).unwrap());
//! let scenario = Scenario::generate(ScenarioConfig { patients: 30, prescriptions: 100, lab_tests: 0, ..Default::default() });
//! for (sid, cat) in &scenario.sources {
//!     system.register_source(sid.clone(), cat.clone());
//! }
//!
//! // The hospital's PLA, in the textual DSL.
//! system.add_pla_text(r#"
//! pla "hospital-1" source hospital version 1 level meta-report {
//!   require aggregation FactPrescriptions min 2;
//! }"#).unwrap();
//!
//! // ETL: extract + load, with source-level enforcement.
//! let pipeline = Pipeline::new("nightly")
//!     .step("e", EtlOp::Extract { source: "hospital".into(), table: "Prescriptions".into(), as_name: "s".into() })
//!     .step("l", EtlOp::Load { table: "s".into(), warehouse_table: "FactPrescriptions".into() });
//! system.run_etl(&pipeline, Some("quality")).unwrap();
//!
//! // An approved meta-report and a report derived from it.
//! system.add_meta_report(
//!     MetaReport::new("m1", "Prescription universe",
//!         scan("FactPrescriptions").project_cols(&["Patient", "Drug", "Disease"]))
//!     .approved("hospital"));
//! system.define_report(ReportSpec::new(
//!     "drug-consumption", "Drug consumption",
//!     scan("FactPrescriptions").aggregate(vec!["Drug".into()], vec![AggItem::count_star("Consumption")]),
//!     [RoleId::new("analyst")]));
//!
//! // Compliance gate + enforced delivery + audit.
//! system.subjects_mut().grant("alice@agency", "analyst");
//! assert!(system.check(&"drug-consumption".into()).unwrap().is_compliant());
//! let out = system.deliver(&"drug-consumption".into(), &"alice@agency".into()).unwrap();
//! assert!(!out.table.is_empty());
//! assert_eq!(system.audit_log().deliveries().count(), 1);
//! ```

#![forbid(unsafe_code)]

pub use bi_core as core;
pub use bi_core::{
    anonymize, audit, etl, exec, pla, provenance, query, relation, report, types, warehouse,
};
pub use bi_core::{read_wal, ReplayedDelivery, WalError, WalReadout, WalRecord, WalWriter};
pub use bi_core::{
    simulate_continuum, BiSystem, ContinuumParams, ElicitationCost, LevelOutcome, SystemError,
};
pub use bi_synth as synth;

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use bi_core::audit::SnapshotFidelity;
    pub use bi_core::etl::{EtlOp, Pipeline};
    pub use bi_core::pla::{AnonMethod, AttrRef, CombinedPolicy, PlaDocument, PlaLevel, PlaRule};
    pub use bi_core::query::plan::{scan, AggFunc, AggItem, Plan, SortKey};
    pub use bi_core::query::Catalog;
    pub use bi_core::relation::expr::{col, lit};
    pub use bi_core::relation::Table;
    pub use bi_core::report::{MetaReport, ReportSpec};
    pub use bi_core::types::{ConsumerId, Date, ReportId, RoleId, SourceId, Value};
    pub use bi_core::{simulate_continuum, BiSystem, ContinuumParams, LevelOutcome, SystemError};
    pub use bi_core::{ReplayedDelivery, WalError};
    pub use bi_synth::{Scenario, ScenarioConfig};
}
