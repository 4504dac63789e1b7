//! The hospital deployment every workload runs against: one seeded
//! `bi-synth` scenario, the PLAs of `examples/healthcare_scenario.rs`,
//! a checked ETL load, one approved meta-report, 24 reports in four
//! plan shapes and 300 consumers holding one role each.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use bi_core::etl::{EtlOp, Pipeline};
use bi_core::exec::{ExecConfig, Obs};
use bi_core::query::plan::{scan, AggItem, Plan, SortKey};
use bi_core::query::Catalog;
use bi_core::relation::expr::{col, lit};
use bi_core::report::{EnforcedReport, MetaReport, ReportError, ReportSpec};
use bi_core::types::{ConsumerId, Date, ReportId, RoleId, SourceId};
use bi_core::{BiSystem, SystemError};
use bi_synth::{Scenario, ScenarioConfig};

use crate::harness::ms_since;

/// The hospital's meta-report-level PLA plus the laboratory's and the
/// municipality's source-level PLAs.
pub const PLAS: &str = r#"
pla "hospital-2008" source hospital version 2 level meta-report {
  require aggregation FactPrescriptions min 5;
  allow attribute FactPrescriptions.Doctor to auditor when Disease <> 'HIV';
  anonymize FactPrescriptions.Patient with pseudonym;
  restrict rows FactPrescriptions when Disease <> 'HIV';
  purpose quality;
}

pla "laboratory-2008" source laboratory version 1 level source {
  allow integration by laboratory;
  retain LabTests.Date for 730 days;
}

pla "municipality-2008" source municipality version 1 level source {
  forbid join municipality with laboratory;
}
"#;

pub const PURPOSE: &str = "quality";
pub const ROLES: [&str; 3] = ["analyst", "auditor", "manager"];
const AUDITOR: usize = 1;
const REPORTS: usize = 24;
const CONSUMERS: usize = 300;
/// Distinct (report, effective role) pairs: what a render depends on.
pub const PROFILES: usize = REPORTS * ROLES.len();
/// Grouping columns the reports rotate over. Doctor is released to
/// auditors only, so its reports are refused to the other roles.
const GROUP_COLUMNS: [&str; 5] = ["Drug", "Disease", "Date", "Patient", "Doctor"];

/// The four plan shapes a report can have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Agg,
    FilterAgg,
    TopK,
    JoinAgg,
}

impl Shape {
    pub const ALL: [Shape; 4] = [Shape::Agg, Shape::FilterAgg, Shape::TopK, Shape::JoinAgg];
}

/// One report of the deployment.
pub struct ReportDef {
    pub id: ReportId,
    pub shape: Shape,
    pub group: &'static str,
    pub plan: Plan,
}

/// The 24 reports: shape `i % 4`, grouping column `i % 5` (join
/// reports group by the drug family from `DimDrug`).
pub fn report_defs() -> Vec<ReportDef> {
    (0..REPORTS)
        .map(|i| {
            let shape = Shape::ALL[i % Shape::ALL.len()];
            let group = match shape {
                Shape::JoinAgg => "Family",
                _ => GROUP_COLUMNS[i % GROUP_COLUMNS.len()],
            };
            let count = || vec![AggItem::count_star("N")];
            let plan = match shape {
                Shape::Agg => scan("FactPrescriptions").aggregate(vec![group.into()], count()),
                Shape::FilterAgg => scan("FactPrescriptions")
                    .filter(col("Date").ge(lit(Date::new(2007, 1, 1).expect("valid date"))))
                    .aggregate(vec![group.into()], count()),
                Shape::TopK => scan("FactPrescriptions")
                    .aggregate(vec![group.into()], count())
                    .sort(vec![SortKey::desc("N")])
                    .limit(10),
                Shape::JoinAgg => scan("FactPrescriptions")
                    .join(scan("DimDrug"), vec![("Drug".into(), "Drug".into())], "dim")
                    .aggregate(vec![group.into()], count()),
            };
            ReportDef {
                id: ReportId::new(format!("rep-{i:02}")),
                shape,
                group,
                plan,
            }
        })
        .collect()
}

/// Report index and role index of profile `p`.
fn profile_parts(p: usize) -> (usize, usize) {
    (p / ROLES.len(), p % ROLES.len())
}

/// Every profile.
pub fn all_profiles() -> Vec<usize> {
    (0..PROFILES).collect()
}

/// Whether the gate must refuse profile `p`.
pub fn expect_refused(defs: &[ReportDef], p: usize) -> bool {
    let (r, role) = profile_parts(p);
    defs[r].group == "Doctor" && role != AUDITOR
}

/// A request for profile `p`, served to the `turn`-th consumer holding
/// the profile's role.
pub fn request(defs: &[ReportDef], p: usize, turn: usize) -> (ReportId, ConsumerId) {
    let (r, role) = profile_parts(p);
    let per_role = CONSUMERS / ROLES.len();
    let c = role + ROLES.len() * (turn % per_role);
    (defs[r].id.clone(), ConsumerId::new(format!("consumer-{c}")))
}

/// A batch of `n` requests cycling over `profiles`; `turn` rotates which
/// consumers ask.
pub fn batch(
    defs: &[ReportDef],
    profiles: &[usize],
    n: usize,
    turn: usize,
) -> Vec<(ReportId, ConsumerId)> {
    (0..n)
        .map(|j| {
            request(
                defs,
                profiles[j % profiles.len()],
                turn + j / profiles.len(),
            )
        })
        .collect()
}

/// The engine every workload runs: as many workers as the host has
/// cores, columnar operators and fused pipelines on, default cache
/// bounds.
pub fn engine(obs: &Obs) -> ExecConfig {
    ExecConfig::auto().with_columnar(true).with_obs(obs.clone())
}

/// The fact-table commit: Extract Prescriptions → Deduplicate → Derive
/// `Batch` → Load `FactPrescriptions`. A new `batch` changes every row,
/// so each commit makes a new data version.
pub fn fact_pipeline(batch: i64) -> Pipeline {
    Pipeline::new(format!("facts-{batch}"))
        .step(
            "e-presc",
            EtlOp::Extract {
                source: "hospital".into(),
                table: "Prescriptions".into(),
                as_name: "stg_presc".into(),
            },
        )
        .step(
            "dedup",
            EtlOp::Deduplicate {
                table: "stg_presc".into(),
            },
        )
        .step(
            "batch",
            EtlOp::Derive {
                table: "stg_presc".into(),
                column: "Batch".into(),
                expr: lit(batch),
            },
        )
        .step(
            "l-presc",
            EtlOp::Load {
                table: "stg_presc".into(),
                warehouse_table: "FactPrescriptions".into(),
            },
        )
}

/// The initial load: the fact table (batch 0) and the drug dimension.
fn initial_pipeline() -> Pipeline {
    fact_pipeline(0)
        .step(
            "e-reg",
            EtlOp::Extract {
                source: "health-agency".into(),
                table: "DrugRegistry".into(),
                as_name: "stg_reg".into(),
            },
        )
        .step(
            "l-reg",
            EtlOp::Load {
                table: "stg_reg".into(),
                warehouse_table: "DimDrug".into(),
            },
        )
}

/// A built deployment.
pub struct Deployment {
    pub sys: BiSystem,
    /// The source catalogs, for calling the ETL layer directly.
    pub sources: BTreeMap<SourceId, Catalog>,
    pub defs: Vec<ReportDef>,
    pub today: Date,
    /// Time spent generating the scenario.
    pub generate_ms: f64,
}

/// Builds the deployment over `facts` prescriptions from `seed`,
/// recording into `obs` and logging to `wal` when given.
pub fn build(seed: u64, facts: usize, obs: &Obs, wal: Option<&Path>) -> Deployment {
    let t = Instant::now();
    let scenario = Scenario::generate(ScenarioConfig {
        seed,
        patients: (facts / 10).max(1),
        prescriptions: facts,
        lab_tests: facts / 4,
    });
    let generate_ms = ms_since(t);
    let today = Date::new(2008, 7, 1).expect("valid date");
    let mut sys = BiSystem::new(today);
    if let Some(path) = wal {
        sys.enable_wal(path).expect("benchmark WAL opens");
    }
    sys.engine_mut().exec = engine(obs);
    for (sid, cat) in &scenario.sources {
        sys.register_source(sid.clone(), cat.clone());
    }
    sys.add_pla_text(PLAS).expect("benchmark PLAs parse");
    sys.run_etl(&initial_pipeline(), Some(PURPOSE))
        .expect("initial ETL complies");
    sys.add_meta_report(
        MetaReport::new(
            "m-universe",
            "Prescription universe",
            scan("FactPrescriptions")
                .project_cols(&["Patient", "Doctor", "Drug", "Disease", "Date"]),
        )
        .approved("hospital"),
    );
    let defs = report_defs();
    for d in &defs {
        sys.define_report(
            ReportSpec::new(
                d.id.clone(),
                format!("{:?} by {}", d.shape, d.group),
                d.plan.clone(),
                ROLES.map(RoleId::new),
            )
            .for_purpose(PURPOSE),
        );
    }
    for c in 0..CONSUMERS {
        sys.grant(format!("consumer-{c}"), ROLES[c % ROLES.len()]);
    }
    Deployment {
        sys,
        sources: scenario.sources,
        defs,
        today,
        generate_ms,
    }
}

/// Whether a delivery result is the outcome its profile must have: a
/// report, or a compliance refusal for the Doctor reports of
/// non-auditors.
pub fn outcome_ok(res: &Result<EnforcedReport, SystemError>, refused: bool) -> bool {
    match res {
        Ok(_) => !refused,
        Err(SystemError::Report(ReportError::NonCompliant { .. })) => refused,
        Err(_) => false,
    }
}

/// Whether two delivery results are the same: equal tables and
/// suppression counts, or equal refusals.
pub fn same_result(
    a: &Result<EnforcedReport, SystemError>,
    b: &Result<EnforcedReport, SystemError>,
) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x.table == y.table && x.suppressed_groups == y.suppressed_groups,
        (
            Err(SystemError::Report(ReportError::NonCompliant { violations: x })),
            Err(SystemError::Report(ReportError::NonCompliant { violations: y })),
        ) => x == y,
        _ => false,
    }
}
