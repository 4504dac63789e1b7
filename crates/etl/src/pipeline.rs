//! The ETL operator language and runner.

use std::collections::BTreeMap;

use bi_exec::ExecConfig;
use bi_pla::CombinedPolicy;
use bi_query::Catalog;
use bi_relation::expr::Expr;
use bi_relation::Table;
use bi_types::{Date, SourceId, Value};

use crate::error::EtlError;
use crate::quality;
use crate::staging::Staging;

/// One ETL operation over the staging area.
#[derive(Debug, Clone, PartialEq)]
pub enum EtlOp {
    /// Copy `table` from `source`'s catalog into staging as `as_name`.
    /// Source-level enforcement (row restrictions, retention) applies
    /// here when a policy is passed to the runner.
    Extract {
        source: SourceId,
        table: String,
        as_name: String,
    },
    /// Keep only rows satisfying `pred`.
    FilterRows { table: String, pred: Expr },
    /// Replace coded values (`from` → `to`) in a text column.
    Standardize {
        table: String,
        column: String,
        mapping: Vec<(String, String)>,
    },
    /// Canonicalize near-duplicate spellings in a text column
    /// (Jaro-Winkler ≥ `threshold` maps to the first-seen spelling).
    FuzzyCanonicalize {
        table: String,
        column: String,
        threshold: f64,
    },
    /// Add a computed column.
    Derive {
        table: String,
        column: String,
        expr: Expr,
    },
    /// Remove exactly-duplicate rows.
    Deduplicate { table: String },
    /// Exact equi-join of two staged tables into `out`.
    Join {
        left: String,
        right: String,
        on: Vec<(String, String)>,
        out: String,
    },
    /// Entity resolution: fuzzy-join `left` and `right` on text key
    /// pairs with Jaro-Winkler ≥ `threshold`, producing `out`.
    /// Requires *integration permission* from every involved source.
    EntityResolution {
        left: String,
        right: String,
        on: Vec<(String, String)>,
        threshold: f64,
        out: String,
    },
    /// Publish a staged table to the warehouse under `warehouse_table`.
    Load {
        table: String,
        warehouse_table: String,
    },
}

impl EtlOp {
    /// Short operator tag for reports/errors.
    pub fn tag(&self) -> &'static str {
        match self {
            EtlOp::Extract { .. } => "extract",
            EtlOp::FilterRows { .. } => "filter",
            EtlOp::Standardize { .. } => "standardize",
            EtlOp::FuzzyCanonicalize { .. } => "fuzzy-canonicalize",
            EtlOp::Derive { .. } => "derive",
            EtlOp::Deduplicate { .. } => "deduplicate",
            EtlOp::Join { .. } => "join",
            EtlOp::EntityResolution { .. } => "entity-resolution",
            EtlOp::Load { .. } => "load",
        }
    }
}

/// A named, annotatable pipeline step.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    pub id: String,
    pub op: EtlOp,
    /// Free-text annotation shown to source owners during elicitation
    /// (the paper's "annotations to the ETL flows").
    pub note: Option<String>,
}

impl Step {
    /// An unannotated step.
    pub fn new(id: impl Into<String>, op: EtlOp) -> Self {
        Step {
            id: id.into(),
            op,
            note: None,
        }
    }

    /// Attaches an elicitation note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = Some(note.into());
        self
    }
}

/// An ordered ETL pipeline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pipeline {
    pub name: String,
    pub steps: Vec<Step>,
}

impl Pipeline {
    /// An empty pipeline.
    pub fn new(name: impl Into<String>) -> Self {
        Pipeline {
            name: name.into(),
            steps: Vec::new(),
        }
    }

    /// Appends a step (builder-style).
    pub fn step(mut self, id: impl Into<String>, op: EtlOp) -> Self {
        self.steps.push(Step::new(id, op));
        self
    }

    /// Appends an annotated step.
    pub fn annotated_step(
        mut self,
        id: impl Into<String>,
        op: EtlOp,
        note: impl Into<String>,
    ) -> Self {
        self.steps.push(Step::new(id, op).with_note(note));
        self
    }
}

/// Row-count bookkeeping for one executed step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepReport {
    pub step_id: String,
    pub op: &'static str,
    pub rows_out: usize,
    /// Cells changed / rows dropped, when the op tracks it.
    pub touched: usize,
}

/// The outcome of a pipeline run.
#[derive(Debug, Clone)]
pub struct EtlReport {
    pub staging: Staging,
    /// Tables published to the warehouse (renamed to their warehouse
    /// names), with the sources that fed each.
    pub loaded: Vec<(Table, Vec<SourceId>)>,
    pub steps: Vec<StepReport>,
}

/// Runs the pipeline.
///
/// * `sources` — one catalog per source (the provider-side extracts);
/// * `policy` — when present, **source-level enforcement** applies: row
///   restrictions and retention filters are injected at every `Extract`
///   (the Fig. 2(a) "data filter" box). Pass `None` to extract raw data
///   and enforce later in the pipeline (the trust decision §3 discusses).
/// * `today` — reference date for retention.
pub fn run_pipeline(
    pipeline: &Pipeline,
    sources: &BTreeMap<SourceId, Catalog>,
    policy: Option<&CombinedPolicy>,
    today: Date,
) -> Result<EtlReport, EtlError> {
    run_pipeline_with(pipeline, sources, policy, today, &ExecConfig::serial())
}

/// [`run_pipeline`] with an execution configuration: combining steps
/// (`Join`) run on the parallel executor. Output tables are identical
/// for every thread count.
pub fn run_pipeline_with(
    pipeline: &Pipeline,
    sources: &BTreeMap<SourceId, Catalog>,
    policy: Option<&CombinedPolicy>,
    today: Date,
    cfg: &ExecConfig,
) -> Result<EtlReport, EtlError> {
    // The runner enforces the policy it was given in full: the static
    // join/integration checks run here too, so a caller that skips
    // `check_pipeline` cannot execute a combining step the PLAs forbid.
    if let Some(p) = policy {
        let violations = crate::check::check_pipeline(pipeline, p, None);
        if !violations.is_empty() {
            return Err(EtlError::PolicyViolation { violations });
        }
    }
    let _span = cfg.obs.span(bi_exec::SpanKind::EtlPipeline);
    let env = Env {
        sources,
        policy,
        today,
        cfg,
    };
    let mut staging = Staging::new();
    let mut loaded = Vec::new();
    let mut steps = Vec::new();

    for (i, step) in pipeline.steps.iter().enumerate() {
        let step_span = cfg.obs.span(bi_exec::SpanKind::EtlStep);
        let next = &pipeline.steps[i + 1..];
        let report = execute_step(step, next, &env, &mut staging, &mut loaded)?;
        drop(step_span);
        cfg.obs.count(bi_exec::Counter::EtlSteps);
        cfg.obs
            .add(bi_exec::Counter::EtlRowsOut, report.rows_out as u64);
        if matches!(step.op, EtlOp::Load { .. }) {
            cfg.obs.count(bi_exec::Counter::EtlLoads);
        }
        steps.push(report);
    }
    Ok(EtlReport {
        staging,
        loaded,
        steps,
    })
}

/// What every step of one run reads.
struct Env<'a> {
    sources: &'a BTreeMap<SourceId, Catalog>,
    policy: Option<&'a CombinedPolicy>,
    today: Date,
    cfg: &'a ExecConfig,
}

/// The number of `Derive` steps on `table` that immediately follow in
/// `next`: the cells each of its rows is about to gain.
fn derives_following(table: &str, next: &[Step]) -> usize {
    next.iter()
        .take_while(|s| matches!(&s.op, EtlOp::Derive { table: t, .. } if t == table))
        .count()
}

/// Runs `step`; `next` holds the steps after it.
fn execute_step(
    step: &Step,
    next: &[Step],
    env: &Env,
    staging: &mut Staging,
    loaded: &mut Vec<(Table, Vec<SourceId>)>,
) -> Result<StepReport, EtlError> {
    let &Env {
        sources,
        policy,
        today,
        cfg,
    } = env;
    let sid = &step.id;
    let mut touched = 0usize;
    let rows_out;
    match &step.op {
        EtlOp::Extract {
            source,
            table,
            as_name,
        } => {
            let cat = sources.get(source).ok_or_else(|| EtlError::NoSuchSource {
                source: source.to_string(),
                step: sid.clone(),
            })?;
            let t = cat
                .table(table)
                .ok_or_else(|| EtlError::NoSuchStagingTable {
                    name: table.clone(),
                    step: sid.clone(),
                })?;
            let mut extracted = t.clone();
            if let Some(p) = policy {
                // Source-level enforcement at the extraction boundary.
                let mut filters: Vec<Expr> = Vec::new();
                if let Some(f) = p.row_filter(table) {
                    filters.push(f);
                }
                for (attr, days) in p.retentions(table) {
                    let cutoff = today.plus_days(-days)?;
                    filters.push(bi_relation::expr::col(attr).ge(Expr::Lit(cutoff.into())));
                }
                for f in filters {
                    let before = extracted.len();
                    extracted = bi_relation::filter_scalar(&extracted, &f, cfg)?;
                    touched += before - extracted.len();
                }
            }
            extracted.set_name(as_name.clone());
            rows_out = extracted.len();
            staging.put(extracted, vec![source.clone()]);
        }
        EtlOp::FilterRows { table, pred } => {
            let t = staging.get(table, sid)?;
            let before = t.len();
            let filtered = bi_relation::filter_scalar(t, pred, cfg)?;
            touched = before - filtered.len();
            rows_out = filtered.len();
            let srcs = staging.sources_of(table).to_vec();
            staging.put(filtered, srcs);
        }
        EtlOp::Standardize {
            table,
            column,
            mapping,
        } => {
            let t = staging.get(table, sid)?;
            let c = t.schema().index_of(column)?;
            let map: BTreeMap<&str, &str> = mapping
                .iter()
                .map(|(f, to)| (f.as_str(), to.as_str()))
                .collect();
            // Text-to-text remapping keeps every row well-typed, so the
            // staging table is rebuilt without per-row re-validation.
            let mut rows = Vec::with_capacity(t.len());
            for row in t.rows() {
                let mut r = row.clone();
                if let Value::Text(s) = &row[c] {
                    if let Some(to) = map.get(&**s) {
                        r[c] = Value::text(*to);
                        touched += 1;
                    }
                }
                rows.push(r);
            }
            let out = Table::from_rows_trusted(t.name().to_string(), t.schema_shared(), rows);
            rows_out = out.len();
            let srcs = staging.sources_of(table).to_vec();
            staging.put(out, srcs);
        }
        EtlOp::FuzzyCanonicalize {
            table,
            column,
            threshold,
        } => {
            let t = staging.get(table, sid)?;
            let (fixed, replaced) = quality::canonicalize_column(t, column, *threshold)?;
            touched = replaced;
            rows_out = fixed.len();
            let srcs = staging.sources_of(table).to_vec();
            staging.put(fixed, srcs);
        }
        EtlOp::Derive {
            table,
            column,
            expr,
        } => {
            // The step owns the staged table, so the new cells land in
            // place unless the rows are still shared.
            let (t, srcs) = staging.take(table, sid)?;
            let out = bi_relation::derive_scalar(t, column, expr, cfg)?;
            rows_out = out.len();
            staging.put(out, srcs);
        }
        EtlOp::Deduplicate { table } => {
            let (t, srcs) = staging.take(table, sid)?;
            // Copied survivors get room for the cells of the Derives
            // that follow, so those push in place and every row still
            // ends at exact capacity.
            let spare = derives_following(table, next);
            let out = bi_relation::column::distinct_by_codes(&t, spare, cfg).unwrap_or_else(|e| {
                cfg.obs.count(e.counter());
                t.distinct_spare(spare)
            });
            touched = t.len() - out.len();
            rows_out = out.len();
            staging.put(out, srcs);
        }
        EtlOp::Join {
            left,
            right,
            on,
            out,
        } => {
            let lt = staging.get(left, sid)?.clone();
            let rt = staging.get(right, sid)?.clone();
            let mut cat = Catalog::new();
            let mut l2 = lt.clone();
            l2.set_name("__l".to_string());
            let mut r2 = rt.clone();
            r2.set_name("__r".to_string());
            cat.add_table(l2)?;
            cat.add_table(r2)?;
            let plan =
                bi_query::plan::scan("__l").join(bi_query::plan::scan("__r"), on.clone(), "r");
            let mut joined = bi_query::execute_with(&plan, &cat, cfg)?;
            joined.set_name(out.clone());
            rows_out = joined.len();
            let mut srcs = staging.sources_of(left).to_vec();
            for s in staging.sources_of(right) {
                if !srcs.contains(s) {
                    srcs.push(s.clone());
                }
            }
            staging.put(joined, srcs);
        }
        EtlOp::EntityResolution {
            left,
            right,
            on,
            threshold,
            out,
        } => {
            if !(0.0..=1.0).contains(threshold) {
                return Err(EtlError::BadStep {
                    step: sid.clone(),
                    reason: format!("threshold {threshold} outside [0,1]"),
                });
            }
            let lt = staging.get(left, sid)?.clone();
            let rt = staging.get(right, sid)?.clone();
            let joined = fuzzy_join(&lt, &rt, on, *threshold, out, sid)?;
            rows_out = joined.len();
            let mut srcs = staging.sources_of(left).to_vec();
            for s in staging.sources_of(right) {
                if !srcs.contains(s) {
                    srcs.push(s.clone());
                }
            }
            staging.put(joined, srcs);
        }
        EtlOp::Load {
            table,
            warehouse_table,
        } => {
            let t = staging.get(table, sid)?;
            let mut published = t.clone();
            published.set_name(warehouse_table.clone());
            rows_out = published.len();
            loaded.push((published, staging.sources_of(table).to_vec()));
        }
    }
    Ok(StepReport {
        step_id: sid.clone(),
        op: step.op.tag(),
        rows_out,
        touched,
    })
}

/// Fuzzy equi-join: rows match when every `on` text pair has
/// Jaro-Winkler ≥ threshold. Right columns get prefixed with `r.` on
/// name clashes, plus a `__similarity` column with the mean similarity.
fn fuzzy_join(
    left: &Table,
    right: &Table,
    on: &[(String, String)],
    threshold: f64,
    out_name: &str,
    step: &str,
) -> Result<Table, EtlError> {
    if on.is_empty() {
        return Err(EtlError::BadStep {
            step: step.to_string(),
            reason: "entity resolution requires key pairs".into(),
        });
    }
    let lk: Vec<usize> = on
        .iter()
        .map(|(a, _)| left.schema().index_of(a))
        .collect::<Result<_, _>>()?;
    let rk: Vec<usize> = on
        .iter()
        .map(|(_, b)| right.schema().index_of(b))
        .collect::<Result<_, _>>()?;
    let mut schema = left.schema().join(right.schema(), "r")?;
    {
        let mut cols = schema.columns().to_vec();
        cols.push(bi_types::Column::new(
            "__similarity",
            bi_types::DataType::Float,
        ));
        schema = bi_types::Schema::new(cols)?;
    }
    let mut out = Table::new(out_name.to_string(), schema);
    for lrow in left.rows() {
        for rrow in right.rows() {
            let mut total = 0.0;
            let mut all_match = true;
            for (&lc, &rc) in lk.iter().zip(&rk) {
                let (Value::Text(a), Value::Text(b)) = (&lrow[lc], &rrow[rc]) else {
                    all_match = false;
                    break;
                };
                let s = quality::jaro_winkler(a, b);
                if s < threshold {
                    all_match = false;
                    break;
                }
                total += s;
            }
            if all_match {
                let mut row = lrow.clone();
                row.extend(rrow.iter().cloned());
                row.push(Value::Float(total / on.len() as f64));
                out.push_row(row)?;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bi_relation::expr::{col, lit};
    use bi_types::{Column, DataType, Schema};

    fn hospital_catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(
            Table::from_rows(
                "Prescriptions",
                Schema::new(vec![
                    Column::new("Patient", DataType::Text),
                    Column::new("Drug", DataType::Text),
                    Column::new("Date", DataType::Date),
                ])
                .unwrap(),
                vec![
                    vec![
                        "Alice".into(),
                        "DH".into(),
                        Value::date("2007-02-12").unwrap(),
                    ],
                    vec![
                        "Bob".into(),
                        "DR".into(),
                        Value::date("2006-01-01").unwrap(),
                    ],
                    vec![
                        "Math".into(),
                        "DM".into(),
                        Value::date("2007-10-15").unwrap(),
                    ],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        cat
    }

    fn lab_catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(
            Table::from_rows(
                "Tests",
                Schema::new(vec![
                    Column::new("Person", DataType::Text),
                    Column::new("Test", DataType::Text),
                ])
                .unwrap(),
                vec![
                    vec!["Alicia".into(), "CD4".into()],
                    vec!["Bob".into(), "Spiro".into()],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        cat
    }

    fn sources() -> BTreeMap<SourceId, Catalog> {
        [
            (SourceId::new("hospital"), hospital_catalog()),
            (SourceId::new("laboratory"), lab_catalog()),
        ]
        .into_iter()
        .collect()
    }

    fn today() -> Date {
        Date::new(2008, 1, 1).unwrap()
    }

    #[test]
    fn extract_transform_load() {
        let p = Pipeline::new("basic")
            .step(
                "e1",
                EtlOp::Extract {
                    source: "hospital".into(),
                    table: "Prescriptions".into(),
                    as_name: "stg_presc".into(),
                },
            )
            .step(
                "f1",
                EtlOp::FilterRows {
                    table: "stg_presc".into(),
                    pred: col("Patient").ne(lit("Math")),
                },
            )
            .step(
                "l1",
                EtlOp::Load {
                    table: "stg_presc".into(),
                    warehouse_table: "FactPrescriptions".into(),
                },
            );
        let r = run_pipeline(&p, &sources(), None, today()).unwrap();
        assert_eq!(r.loaded.len(), 1);
        let (t, srcs) = &r.loaded[0];
        assert_eq!(t.name(), "FactPrescriptions");
        assert_eq!(t.len(), 2);
        assert_eq!(srcs, &vec![SourceId::new("hospital")]);
        assert_eq!(r.steps[1].touched, 1, "one row filtered");
    }

    #[test]
    fn source_level_enforcement_at_extract() {
        use bi_pla::{CombinedPolicy, PlaDocument, PlaLevel, PlaRule};
        let doc = PlaDocument::new("h", "hospital", PlaLevel::Source)
            .with_rule(PlaRule::RowRestriction {
                table: "Prescriptions".into(),
                condition: col("Patient").ne(lit("Math")),
            })
            .with_rule(PlaRule::Retention {
                table: "Prescriptions".into(),
                date_attribute: "Date".into(),
                max_age_days: 400,
            });
        let policy = CombinedPolicy::combine(&[doc]);
        let p = Pipeline::new("enforced").step(
            "e1",
            EtlOp::Extract {
                source: "hospital".into(),
                table: "Prescriptions".into(),
                as_name: "s".into(),
            },
        );
        let r = run_pipeline(&p, &sources(), Some(&policy), today()).unwrap();
        let t = r.staging.get("s", "check").unwrap();
        // Math dropped by the row restriction; Bob's 2006 row by retention.
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows()[0][0], Value::from("Alice"));
        // Without the policy everything flows.
        let r = run_pipeline(&p, &sources(), None, today()).unwrap();
        assert_eq!(r.staging.get("s", "check").unwrap().len(), 3);
    }

    #[test]
    fn standardize_derive_dedup() {
        let p = Pipeline::new("t")
            .step(
                "e",
                EtlOp::Extract {
                    source: "hospital".into(),
                    table: "Prescriptions".into(),
                    as_name: "s".into(),
                },
            )
            .step(
                "std",
                EtlOp::Standardize {
                    table: "s".into(),
                    column: "Drug".into(),
                    mapping: vec![("DH".into(), "DH-01".into())],
                },
            )
            .step(
                "d",
                EtlOp::Derive {
                    table: "s".into(),
                    column: "Year".into(),
                    expr: bi_relation::Expr::Func(bi_relation::Func::Year, vec![col("Date")]),
                },
            )
            .step("dd", EtlOp::Deduplicate { table: "s".into() });
        let r = run_pipeline(&p, &sources(), None, today()).unwrap();
        let t = r.staging.get("s", "x").unwrap();
        assert!(t.schema().contains("Year"));
        assert_eq!(t.cell(0, "Drug").unwrap(), &Value::from("DH-01"));
        assert_eq!(t.cell(0, "Year").unwrap(), &Value::Int(2007));
        assert_eq!(r.steps[1].touched, 1, "one code standardized");
    }

    #[test]
    fn entity_resolution_fuzzy_matches() {
        let p = Pipeline::new("er")
            .step(
                "e1",
                EtlOp::Extract {
                    source: "hospital".into(),
                    table: "Prescriptions".into(),
                    as_name: "presc".into(),
                },
            )
            .step(
                "e2",
                EtlOp::Extract {
                    source: "laboratory".into(),
                    table: "Tests".into(),
                    as_name: "tests".into(),
                },
            )
            .step(
                "er",
                EtlOp::EntityResolution {
                    left: "presc".into(),
                    right: "tests".into(),
                    on: vec![("Patient".into(), "Person".into())],
                    threshold: 0.85,
                    out: "linked".into(),
                },
            );
        let r = run_pipeline(&p, &sources(), None, today()).unwrap();
        let linked = r.staging.get("linked", "x").unwrap();
        // Alice↔Alicia (fuzzy) and Bob↔Bob (exact) match; Math matches nothing.
        assert_eq!(linked.len(), 2);
        assert!(linked.schema().contains("__similarity"));
        let srcs = r.staging.sources_of("linked");
        assert_eq!(srcs.len(), 2, "combined table carries both sources");
        // Exact-join variant finds only Bob.
        let p2 = Pipeline::new("ej")
            .step(
                "e1",
                EtlOp::Extract {
                    source: "hospital".into(),
                    table: "Prescriptions".into(),
                    as_name: "presc".into(),
                },
            )
            .step(
                "e2",
                EtlOp::Extract {
                    source: "laboratory".into(),
                    table: "Tests".into(),
                    as_name: "tests".into(),
                },
            )
            .step(
                "j",
                EtlOp::Join {
                    left: "presc".into(),
                    right: "tests".into(),
                    on: vec![("Patient".into(), "Person".into())],
                    out: "joined".into(),
                },
            );
        let r2 = run_pipeline(&p2, &sources(), None, today()).unwrap();
        assert_eq!(r2.staging.get("joined", "x").unwrap().len(), 1);
    }

    #[test]
    fn missing_references_error() {
        let p = Pipeline::new("bad").step(
            "f",
            EtlOp::FilterRows {
                table: "ghost".into(),
                pred: lit(true),
            },
        );
        assert!(matches!(
            run_pipeline(&p, &sources(), None, today()),
            Err(EtlError::NoSuchStagingTable { .. })
        ));
        let p = Pipeline::new("bad2").step(
            "e",
            EtlOp::Extract {
                source: "mars".into(),
                table: "T".into(),
                as_name: "s".into(),
            },
        );
        assert!(matches!(
            run_pipeline(&p, &sources(), None, today()),
            Err(EtlError::NoSuchSource { .. })
        ));
        let p = Pipeline::new("bad3")
            .step(
                "e1",
                EtlOp::Extract {
                    source: "hospital".into(),
                    table: "Prescriptions".into(),
                    as_name: "a".into(),
                },
            )
            .step(
                "er",
                EtlOp::EntityResolution {
                    left: "a".into(),
                    right: "a".into(),
                    on: vec![],
                    threshold: 0.9,
                    out: "o".into(),
                },
            );
        assert!(matches!(
            run_pipeline(&p, &sources(), None, today()),
            Err(EtlError::BadStep { .. })
        ));
    }

    #[test]
    fn annotated_steps_keep_notes() {
        let p = Pipeline::new("n").annotated_step(
            "e",
            EtlOp::Extract {
                source: "hospital".into(),
                table: "Prescriptions".into(),
                as_name: "s".into(),
            },
            "shown to the hospital during elicitation",
        );
        assert_eq!(
            p.steps[0].note.as_deref(),
            Some("shown to the hospital during elicitation")
        );
    }
}

impl std::fmt::Display for EtlOp {
    /// Owner-readable operation description (shown during elicitation,
    /// paper §4: "annotations to the ETL flows, or to high level views of
    /// such flows").
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EtlOp::Extract {
                source,
                table,
                as_name,
            } => {
                write!(f, "extract {table} from {source} as {as_name}")
            }
            EtlOp::FilterRows { table, pred } => {
                write!(f, "filter {table} keeping rows where {pred}")
            }
            EtlOp::Standardize {
                table,
                column,
                mapping,
            } => {
                write!(
                    f,
                    "standardize {table}.{column} ({} code(s))",
                    mapping.len()
                )
            }
            EtlOp::FuzzyCanonicalize {
                table,
                column,
                threshold,
            } => {
                write!(
                    f,
                    "canonicalize spellings in {table}.{column} (similarity ≥ {threshold})"
                )
            }
            EtlOp::Derive {
                table,
                column,
                expr,
            } => write!(f, "derive {table}.{column} := {expr}"),
            EtlOp::Deduplicate { table } => write!(f, "deduplicate {table}"),
            EtlOp::Join {
                left,
                right,
                on,
                out,
            } => {
                let conds: Vec<String> = on.iter().map(|(l, r)| format!("{l} = {r}")).collect();
                write!(
                    f,
                    "join {left} with {right} on {} into {out}",
                    conds.join(" AND ")
                )
            }
            EtlOp::EntityResolution {
                left,
                right,
                on,
                threshold,
                out,
            } => {
                let keys: Vec<String> = on.iter().map(|(l, r)| format!("{l} ≈ {r}")).collect();
                write!(
                    f,
                    "link {left} with {right} matching {} (similarity ≥ {threshold}) into {out}",
                    keys.join(", ")
                )
            }
            EtlOp::Load {
                table,
                warehouse_table,
            } => {
                write!(f, "load {table} into warehouse table {warehouse_table}")
            }
        }
    }
}

impl std::fmt::Display for Pipeline {
    /// The flow sheet shown to source owners: one numbered line per step,
    /// elicitation notes indented beneath.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "ETL PIPELINE {}", self.name)?;
        for (i, s) in self.steps.iter().enumerate() {
            writeln!(f, "  {:>2}. [{}] {}", i + 1, s.id, s.op)?;
            if let Some(note) = &s.note {
                writeln!(f, "      note: {note}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;
    use bi_relation::expr::{col, lit};

    #[test]
    fn flow_sheet_is_owner_readable() {
        let p = Pipeline::new("nightly")
            .annotated_step(
                "e1",
                EtlOp::Extract {
                    source: "hospital".into(),
                    table: "Prescriptions".into(),
                    as_name: "stg".into(),
                },
                "only data covered by the consent forms",
            )
            .step(
                "f1",
                EtlOp::FilterRows {
                    table: "stg".into(),
                    pred: col("Disease").ne(lit("HIV")),
                },
            )
            .step(
                "er",
                EtlOp::EntityResolution {
                    left: "stg".into(),
                    right: "lab".into(),
                    on: vec![("Patient".into(), "Person".into())],
                    threshold: 0.9,
                    out: "linked".into(),
                },
            )
            .step(
                "l",
                EtlOp::Load {
                    table: "linked".into(),
                    warehouse_table: "Fact".into(),
                },
            );
        let s = p.to_string();
        assert!(s.starts_with("ETL PIPELINE nightly\n"));
        assert!(s.contains("1. [e1] extract Prescriptions from hospital as stg"));
        assert!(s.contains("note: only data covered by the consent forms"));
        assert!(s.contains("filter stg keeping rows where Disease <> 'HIV'"));
        assert!(s.contains(
            "link stg with lab matching Patient ≈ Person (similarity ≥ 0.9) into linked"
        ));
        assert!(s.contains("4. [l] load linked into warehouse table Fact"));
    }
}
