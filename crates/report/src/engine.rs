//! Enforced report execution.
//!
//! [`render_enforced`] is the only path through which report tables leave
//! the system: it re-runs the static check, refuses on violations, and
//! discharges every run-time [`Obligation`]:
//!
//! * row filters / retention — injected at the scans (VPD rewriting);
//! * intensional attribute masks — type-preserving `if(cond, col, NULL)`
//!   masks at the scans;
//! * suppression — NULL masks at the scans;
//! * k-thresholds — the report's aggregation is augmented with a hidden
//!   `COUNT(*)` guard column; groups under `k` are suppressed after
//!   execution (paper §5.ii "how many base elements should be present
//!   before the aggregation"). The guard counts the rows entering the
//!   aggregate: exact for single-table reports and for star joins along
//!   declared FKs (fan-out 1 under referential integrity), but a
//!   many-to-many join inflates the count relative to the obligated
//!   table's base rows — keep thresholded tables on FK-shaped joins;
//! * pseudonymization / generalization / noise — applied to the output
//!   columns derived from the obligated attributes.

use std::collections::BTreeMap;
use std::sync::Arc;

use bi_anonymize::{Hierarchy, Pseudonymizer};
use bi_exec::ExecConfig;
use bi_pla::{AnonMethod, CheckOutcome, CheckProgram, CombinedPolicy, Obligation};
use bi_query::plan::{scan, AggFunc, AggItem, Plan};
use bi_query::rewrite::{MaskAction, ScanPolicy};
use bi_query::{origins, Catalog, QueryError};
use bi_relation::Table;
use bi_types::{Column, DataType, Date, Schema, SourceId, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::ReportError;
use crate::spec::ReportSpec;

/// Engine configuration: keys and hierarchies for anonymization
/// obligations. Hierarchies are keyed by `table.column`.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    pub pseudo_key: u64,
    pub noise_seed: u64,
    pub hierarchies: BTreeMap<String, Hierarchy>,
    /// When true, k-threshold enforcement additionally applies
    /// complementary suppression along the report's finest group column
    /// (`bi-warehouse`'s differencing guard): if a family of sibling
    /// groups has exactly one suppressed member, an attacker knowing the
    /// rollup total could difference it back, so the smallest surviving
    /// sibling is hidden too.
    pub complementary_guard: bool,
    /// How the rewritten plan executes. Defaults to the fused engine at
    /// one thread ([`ExecConfig::columnar`]); every engine and thread
    /// count produces byte-identical report tables (see `bi-exec`).
    pub exec: ExecConfig,
}

/// An enforced, deliverable report table plus the audit trail of what
/// enforcement did. Cloning shares both the table's rows and the
/// action list.
#[derive(Debug, Clone)]
pub struct EnforcedReport {
    pub table: Table,
    /// Human-readable enforcement actions, in application order. The
    /// delivery journal shares this list as its entry's `actions`.
    pub applied: Arc<[String]>,
    /// Aggregate groups suppressed by k-thresholds.
    pub suppressed_groups: usize,
}

/// A gate-and-enforce outcome in shareable form: the two *journalable*
/// results of rendering a report for an effective role set. Unlike
/// `Result<EnforcedReport, ReportError>` this type is `Clone` — a
/// refusal carries only its violations — so one render can serve every
/// enforcement-equivalent request in a batch and live in a cross-batch
/// cache (`EnforcedReport` tables are Arc-backed CoW; cloning shares
/// row storage, never copies it).
#[derive(Debug, Clone)]
pub enum RenderOutcome {
    /// The gate passed and enforcement produced a deliverable table.
    Delivered(EnforcedReport),
    /// The gate refused; the violations are the journaled evidence.
    Refused(Vec<bi_pla::Violation>),
}

impl RenderOutcome {
    /// Folds a render result into shareable form. Only the compliance
    /// refusal is journalable; any other error stays an `Err` for the
    /// caller to surface un-shared.
    pub fn from_result(result: Result<EnforcedReport, ReportError>) -> Result<Self, ReportError> {
        match result {
            Ok(enforced) => Ok(RenderOutcome::Delivered(enforced)),
            Err(ReportError::NonCompliant { violations }) => Ok(RenderOutcome::Refused(violations)),
            Err(e) => Err(e),
        }
    }

    /// The per-consumer view of the shared outcome — exactly what a
    /// serial render would have returned. A delivered table and its
    /// actions are shared, not copied; a refusal copies its violations.
    pub fn to_result(&self) -> Result<EnforcedReport, ReportError> {
        match self {
            RenderOutcome::Delivered(enforced) => Ok(enforced.clone()),
            RenderOutcome::Refused(violations) => Err(ReportError::NonCompliant {
                violations: violations.clone(),
            }),
        }
    }
}

/// Hidden guard column for k-threshold enforcement.
const K_GUARD: &str = "__k_guard";

/// The topmost `Aggregate` of a plan, looking through filters,
/// projections, sorts, limits and distincts. Shared by the k-guard's
/// differencing axis and the generalization re-grouper — the two must
/// see the same aggregate.
fn topmost_aggregate(plan: &Plan) -> Option<(&Vec<String>, &Vec<AggItem>)> {
    match plan {
        Plan::Aggregate { group_by, aggs, .. } => Some((group_by, aggs)),
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. }
        | Plan::Distinct { input } => topmost_aggregate(input),
        _ => None,
    }
}

/// Executes `report` with full PLA enforcement.
///
/// Convenience wrapper: compiles the plan's check program, runs it for
/// the report's declared consumers, and renders under the resulting
/// obligations. Callers that already hold a [`CheckOutcome`] (e.g. from
/// a cached [`CheckProgram`] run for a specific consumer's effective
/// roles) should use [`render_checked`] directly.
pub fn render_enforced(
    report: &ReportSpec,
    cat: &Catalog,
    policy: &CombinedPolicy,
    table_source: &BTreeMap<String, SourceId>,
    config: &EngineConfig,
    today: Date,
) -> Result<EnforcedReport, ReportError> {
    let outcome = CheckProgram::compile(&report.plan, cat, policy, table_source)?.run(
        &report.consumers,
        report.purpose.as_deref(),
        today,
    )?;
    render_checked(report, cat, outcome, config)
}

/// Renders `report` under an already-computed check outcome: refuses on
/// violations, then discharges every run-time obligation. The policy,
/// table attribution, and business date are all baked into `outcome`.
pub fn render_checked(
    report: &ReportSpec,
    cat: &Catalog,
    outcome: CheckOutcome,
    config: &EngineConfig,
) -> Result<EnforcedReport, ReportError> {
    if !outcome.violations.is_empty() {
        return Err(ReportError::NonCompliant {
            violations: outcome.violations,
        });
    }

    let _span = config.exec.obs.span(bi_exec::SpanKind::ReportRender);
    config.exec.obs.count(bi_exec::Counter::ReportRenders);

    let mut applied: Vec<String> = Vec::new();

    // 1. Scan-level policies from the obligations.
    let mut scan_policies: BTreeMap<String, ScanPolicy> = BTreeMap::new();
    let mut k_required: usize = 0;
    let mut post_anon: Vec<(bi_pla::AttrRef, AnonMethod)> = Vec::new();
    for ob in &outcome.obligations {
        match ob {
            Obligation::FilterRows { table, condition } => {
                let p = scan_policies
                    .entry(table.clone())
                    .or_insert_with(|| ScanPolicy::for_table(table.clone()));
                *p = p.clone().restrict_rows(condition.clone());
                applied.push(format!("filter rows of {table}: {condition}"));
            }
            Obligation::MaskAttribute {
                attribute,
                condition,
            } => {
                let p = scan_policies
                    .entry(attribute.table.clone())
                    .or_insert_with(|| ScanPolicy::for_table(attribute.table.clone()));
                *p = p.clone().mask(
                    attribute.column.clone(),
                    MaskAction::ShowWhen(condition.clone()),
                );
                applied.push(format!("mask {attribute} unless {condition}"));
            }
            Obligation::EnforceMinGroup { table, k } => {
                k_required = k_required.max(*k);
                applied.push(format!("suppress groups of {table} smaller than {k}"));
            }
            Obligation::Anonymize { attribute, method } => match method {
                AnonMethod::Suppress => {
                    let p = scan_policies
                        .entry(attribute.table.clone())
                        .or_insert_with(|| ScanPolicy::for_table(attribute.table.clone()));
                    *p = p
                        .clone()
                        .mask(attribute.column.clone(), MaskAction::Nullify);
                    applied.push(format!("suppress {attribute}"));
                }
                other => {
                    post_anon.push((attribute.clone(), other.clone()));
                    applied.push(format!("anonymize {attribute} with {other}"));
                }
            },
        }
    }

    // 2. Augment the plan with the k-guard if required.
    let guarded = if k_required > 1 {
        let augmented = augment_with_guard(&report.plan).ok_or_else(|| {
            ReportError::Query(QueryError::BadAggregate {
                reason: "cannot enforce a group-size threshold on this plan shape".into(),
            })
        })?;
        Some(augmented)
    } else {
        None
    };

    // 3. Rewrite and execute.
    let policies: Vec<ScanPolicy> = scan_policies.into_values().collect();
    let plan = guarded.as_ref().unwrap_or(&report.plan);
    let rewritten = bi_query::rewrite::apply(plan, &policies, cat)?;
    let mut table = bi_query::execute_with(&rewritten, cat, &config.exec)?;

    // 4. Apply the k-threshold (optionally with the differencing guard)
    //    and drop the guard column.
    let mut suppressed_groups = 0usize;
    if guarded.is_some() {
        // The differencing guard needs a sibling axis: the finest group
        // column of the topmost aggregate, if it survived to the output.
        // The aggregate's measure outputs must not be part of the
        // sibling-family key.
        let (detail_col, measure_cols): (Option<String>, Vec<String>) =
            if config.complementary_guard {
                match topmost_aggregate(&report.plan) {
                    Some((group_by, aggs)) => (
                        group_by
                            .last()
                            .filter(|c| table.schema().contains(c))
                            .cloned(),
                        aggs.iter()
                            .map(|a| a.name.clone())
                            .filter(|n| table.schema().contains(n))
                            .collect(),
                    ),
                    None => (None, Vec::new()),
                }
            } else {
                (None, Vec::new())
            };
        let measure_refs: Vec<&str> = measure_cols.iter().map(String::as_str).collect();
        let decision = bi_warehouse::authz::guard_decision(
            &table,
            K_GUARD,
            k_required,
            detail_col.as_deref(),
            &measure_refs,
        )
        .map_err(|e| {
            ReportError::Query(QueryError::BadAggregate {
                reason: format!("k-threshold guarding failed: {e}"),
            })
        })?;
        suppressed_groups = decision.suppressed_small + decision.suppressed_complementary;
        if decision.suppressed_complementary > 0 {
            applied.push(format!(
                "complementary suppression hid {} additional group(s) against differencing",
                decision.suppressed_complementary
            ));
        }
        table = drop_guard(&table, &decision.keep)?;
    }

    // 5. Post-anonymization of output columns derived from obligated
    //    attributes.
    let mut generalized_cols: Vec<String> = Vec::new();
    if !post_anon.is_empty() {
        let o = origins::origins(&report.plan, cat)?;
        for (attr, method) in &post_anon {
            let origin = (attr.table.clone(), attr.column.clone());
            let targets: Vec<String> = o
                .outputs
                .iter()
                .filter(|(name, origins)| {
                    origins.contains(&origin) && table.schema().contains(name)
                })
                .map(|(name, _)| name.clone())
                .collect();
            for col_name in targets {
                table = apply_anon(table, &col_name, attr, method, config)?;
                if matches!(method, AnonMethod::Generalize { .. }) {
                    generalized_cols.push(col_name);
                }
            }
        }
    }

    // 6. Generalizing a grouping column can make previously distinct
    //    groups coincide; left as-is their multiplicities leak the finer
    //    grain. Re-merge such groups when the aggregates permit it.
    if !generalized_cols.is_empty() {
        if let Some((merged, note)) =
            regroup_generalized(&table, &report.plan, &generalized_cols, &config.exec)?
        {
            table = merged;
            applied.push(note);
        }
    }

    config.exec.obs.add(
        bi_exec::Counter::ReportSuppressedGroups,
        suppressed_groups as u64,
    );

    Ok(EnforcedReport {
        table,
        applied: applied.into(),
        suppressed_groups,
    })
}

/// The rows of `table` that `keep` marks, without the guard column: one
/// copy of each surviving row, the guard's cell left out.
fn drop_guard(table: &Table, keep: &[bool]) -> Result<Table, ReportError> {
    let g = table.schema().index_of(K_GUARD)?;
    let names: Vec<&str> = table
        .schema()
        .names()
        .into_iter()
        .filter(|n| *n != K_GUARD)
        .collect();
    let schema = table.schema().project(&names)?;
    let rows = table
        .rows()
        .iter()
        .zip(keep)
        .filter(|(_, &k)| k)
        .map(|(row, _)| {
            let mut out = Vec::with_capacity(row.len() - 1);
            out.extend_from_slice(&row[..g]);
            out.extend_from_slice(&row[g + 1..]);
            out
        })
        .collect();
    // Kept cells of an already-validated table, under their own columns.
    Ok(Table::from_rows_trusted(table.name(), schema, rows))
}

/// Adds the hidden `COUNT(*)` guard to the topmost aggregate, threading
/// it through any projections/distinct/sort/limit above it. Returns
/// `None` when the plan has no aggregate or an unsupported shape above
/// it.
fn augment_with_guard(plan: &Plan) -> Option<Plan> {
    match plan {
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let mut aggs = aggs.clone();
            aggs.push(AggItem::count_star(K_GUARD));
            Some(Plan::Aggregate {
                input: input.clone(),
                group_by: group_by.clone(),
                aggs,
            })
        }
        Plan::Project { input, items } => {
            let inner = augment_with_guard(input)?;
            let mut items = items.clone();
            items.push((K_GUARD.to_string(), bi_relation::expr::col(K_GUARD)));
            Some(Plan::Project {
                input: Box::new(inner),
                items,
            })
        }
        Plan::Filter { input, pred } => {
            let inner = augment_with_guard(input)?;
            Some(Plan::Filter {
                input: Box::new(inner),
                pred: pred.clone(),
            })
        }
        Plan::Sort { input, keys } => {
            let inner = augment_with_guard(input)?;
            Some(Plan::Sort {
                input: Box::new(inner),
                keys: keys.clone(),
            })
        }
        Plan::Limit { input, n } => {
            let inner = augment_with_guard(input)?;
            Some(Plan::Limit {
                input: Box::new(inner),
                n: *n,
            })
        }
        // Distinct above an aggregate would see the guard column and
        // could change semantics; unions and the rest are out of scope.
        _ => None,
    }
}

/// After generalization coarsened one or more group-by columns,
/// re-aggregate rows whose (generalized) group keys now coincide.
///
/// Applies only when the delivered schema is exactly the topmost
/// aggregate's outputs (group columns + aggregate columns, un-renamed)
/// and every aggregate is mergeable from its own output: Count/Sum
/// re-sum, Min/Max re-min / re-max. Avg and CountDistinct cannot be
/// merged that way, nor can a count or sum that anonymization turned
/// into text; in that case the table is left as-is (the duplicated
/// generalized labels are visible but each row still satisfies its own
/// k-threshold). The merge is a `Plan::Aggregate` over the delivered
/// table on the configured engine, so NULL handling, int/float
/// promotion and sum overflow are the query engine's; it runs only when
/// some groups coincided. Returns `None` when no re-grouping applies or
/// nothing coincided.
fn regroup_generalized(
    table: &Table,
    plan: &Plan,
    generalized: &[String],
    exec: &ExecConfig,
) -> Result<Option<(Table, String)>, ReportError> {
    let Some((group_by, aggs)) = topmost_aggregate(plan) else {
        return Ok(None);
    };
    if !generalized.iter().any(|g| group_by.contains(g)) {
        return Ok(None);
    }
    // Schema must be exactly group_by ++ agg names (no renames above).
    let expected: Vec<&str> = group_by
        .iter()
        .map(String::as_str)
        .chain(aggs.iter().map(|a| a.name.as_str()))
        .collect();
    if table.schema().names() != expected {
        return Ok(None);
    }
    let measures = &table.schema().columns()[group_by.len()..];
    let mut merge = Vec::with_capacity(aggs.len());
    for (a, measure) in aggs.iter().zip(measures) {
        let func = match a.func {
            AggFunc::Count | AggFunc::Sum
                if matches!(measure.dtype, DataType::Int | DataType::Float) =>
            {
                AggFunc::Sum
            }
            AggFunc::Min | AggFunc::Max => a.func,
            _ => return Ok(None),
        };
        merge.push(AggItem::new(a.name.as_str(), func, a.name.as_str()));
    }
    let keys: Vec<&str> = group_by.iter().map(String::as_str).collect();
    if table.group_indices(&keys)?.len() == table.len() {
        return Ok(None); // nothing coincided
    }

    let mut delivered = Catalog::new();
    delivered.put_table(table.clone());
    let merge = scan(table.name()).aggregate(group_by.clone(), merge);
    let merged = bi_query::execute_with(&merge, &delivered, exec)?;
    let note = format!(
        "re-merged {} generalized group(s) into {}",
        table.len(),
        merged.len()
    );
    // The delivery keeps its own name and schema (types, nullability).
    let merged = Table::from_rows_trusted(
        table.name().to_string(),
        table.schema_shared(),
        merged.rows().to_vec(),
    );
    Ok(Some((merged, note)))
}

/// Applies one post-anonymization method to one output column.
fn apply_anon(
    table: Table,
    column: &str,
    attr: &bi_pla::AttrRef,
    method: &AnonMethod,
    config: &EngineConfig,
) -> Result<Table, ReportError> {
    match method {
        AnonMethod::Pseudonymize => {
            let p = Pseudonymizer::new(config.pseudo_key, attr.column.clone());
            Ok(p.apply(&table, column)?)
        }
        AnonMethod::Generalize { level } => {
            let key = format!("{}.{}", attr.table, attr.column);
            let h = config
                .hierarchies
                .get(&key)
                .ok_or_else(|| ReportError::MissingHierarchy {
                    attribute: key.clone(),
                })?;
            let c = table.schema().index_of(column)?;
            if *level == 0 {
                // Level 0 is the identity (`Hierarchy::apply`): the cells
                // keep their values, so the column keeps its type.
                return Ok(table);
            }
            let cols: Vec<Column> = table
                .schema()
                .columns()
                .iter()
                .enumerate()
                .map(|(i, col)| {
                    if i == c {
                        Column::nullable(col.name.clone(), DataType::Text)
                    } else {
                        col.clone()
                    }
                })
                .collect();
            let schema = Schema::new(cols)?;
            // Hierarchy output is Text-or-NULL and the column is now
            // nullable Text, so the rebuilt rows need no re-validation.
            let mut rows = Vec::with_capacity(table.len());
            for row in table.rows() {
                let mut r = row.clone();
                r[c] = h.apply(&row[c], *level)?;
                rows.push(r);
            }
            Ok(Table::from_rows_trusted(
                table.name().to_string(),
                schema,
                rows,
            ))
        }
        AnonMethod::Noise { scale } => {
            let c = table.schema().index_of(column)?;
            // Seed per attribute: reusing one seed across several noised
            // columns would give them identical per-row noise vectors,
            // letting a consumer cancel the noise by differencing.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in attr.table.bytes().chain(attr.column.bytes()) {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            let mut rng = StdRng::seed_from_u64(config.noise_seed ^ h);
            // Noise keeps each cell's type (Int→Int, Float→Float), so
            // the perturbed rows stay valid under the original schema.
            let mut rows = Vec::with_capacity(table.len());
            for row in table.rows() {
                let mut r = row.clone();
                match &row[c] {
                    Value::Int(i) => {
                        r[c] = Value::Int((*i as f64 + laplace(&mut rng, *scale)).round() as i64)
                    }
                    Value::Float(f) => r[c] = Value::Float(f + laplace(&mut rng, *scale)),
                    _ => {}
                }
                rows.push(r);
            }
            Ok(Table::from_rows_trusted(
                table.name().to_string(),
                table.schema_shared(),
                rows,
            ))
        }
        AnonMethod::Suppress => unreachable!("suppress handled at scan level"),
    }
}

use bi_anonymize::perturb::laplace;

#[cfg(test)]
mod tests {
    use super::*;
    use bi_pla::{PlaDocument, PlaLevel, PlaRule};
    use bi_query::plan::scan;
    use bi_relation::expr::{col, lit};
    use bi_types::RoleId;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(
            Table::from_rows(
                "FactPrescriptions",
                Schema::new(vec![
                    Column::new("Patient", DataType::Text),
                    Column::new("Doctor", DataType::Text),
                    Column::new("Drug", DataType::Text),
                    Column::new("Disease", DataType::Text),
                ])
                .unwrap(),
                vec![
                    vec!["Alice".into(), "Luis".into(), "DH".into(), "HIV".into()],
                    vec!["Chris".into(), "Anne".into(), "DV".into(), "HIV".into()],
                    vec!["Bob".into(), "Anne".into(), "DR".into(), "asthma".into()],
                    vec!["Math".into(), "Mark".into(), "DR".into(), "asthma".into()],
                    vec!["Eve".into(), "Mark".into(), "DR".into(), "asthma".into()],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        cat
    }

    fn table_source() -> BTreeMap<String, SourceId> {
        [("FactPrescriptions".to_string(), SourceId::new("hospital"))]
            .into_iter()
            .collect()
    }

    fn today() -> Date {
        Date::new(2008, 6, 1).unwrap()
    }

    fn policy(rules: Vec<PlaRule>) -> CombinedPolicy {
        let mut doc = PlaDocument::new("d", "hospital", PlaLevel::MetaReport);
        doc.rules = rules;
        CombinedPolicy::combine(&[doc])
    }

    #[test]
    fn k_threshold_suppresses_small_groups() {
        let report = ReportSpec::new(
            "r",
            "Drug counts",
            scan("FactPrescriptions")
                .aggregate(vec!["Drug".into()], vec![AggItem::count_star("n")]),
            [RoleId::new("analyst")],
        );
        let p = policy(vec![PlaRule::AggregationThreshold {
            table: "FactPrescriptions".into(),
            min_group_size: 2,
        }]);
        let out = render_enforced(
            &report,
            &catalog(),
            &p,
            &table_source(),
            &EngineConfig::default(),
            today(),
        )
        .unwrap();
        // DH(1) and DV(1) suppressed; DR(3) survives.
        assert_eq!(out.table.len(), 1);
        assert_eq!(out.table.rows()[0][0], Value::from("DR"));
        assert_eq!(out.suppressed_groups, 2);
        assert!(!out.table.schema().contains(K_GUARD));
        // Raw report refused outright.
        let raw = ReportSpec::new(
            "raw",
            "Rows",
            scan("FactPrescriptions").project_cols(&["Drug"]),
            [RoleId::new("analyst")],
        );
        assert!(matches!(
            render_enforced(
                &raw,
                &catalog(),
                &p,
                &table_source(),
                &EngineConfig::default(),
                today()
            ),
            Err(ReportError::NonCompliant { .. })
        ));
    }

    /// Columnar execution threads through `EngineConfig::exec` into the
    /// VPD-rewritten plan — including the `Plan::Filter` node that the
    /// PLA row restriction becomes — and must deliver a byte-identical
    /// report.
    #[test]
    fn columnar_exec_config_renders_identical_reports() {
        let report = ReportSpec::new(
            "r",
            "Drug counts",
            scan("FactPrescriptions")
                .aggregate(vec!["Drug".into()], vec![AggItem::count_star("n")]),
            [RoleId::new("analyst")],
        );
        let p = policy(vec![PlaRule::RowRestriction {
            table: "FactPrescriptions".into(),
            condition: col("Disease").ne(lit("HIV")),
        }]);
        let oracle = EngineConfig {
            exec: ExecConfig::serial(),
            ..Default::default()
        };
        let serial =
            render_enforced(&report, &catalog(), &p, &table_source(), &oracle, today()).unwrap();
        for threads in [1, 2, 8] {
            let config = EngineConfig {
                exec: ExecConfig::with_threads(threads).with_columnar(true),
                ..Default::default()
            };
            let columnar =
                render_enforced(&report, &catalog(), &p, &table_source(), &config, today())
                    .unwrap();
            assert_eq!(
                columnar.table.rows(),
                serial.table.rows(),
                "threads={threads}"
            );
            assert_eq!(columnar.table.schema(), serial.table.schema());
            assert_eq!(columnar.suppressed_groups, serial.suppressed_groups);
        }
    }

    #[test]
    fn guard_threads_through_projection_and_sort() {
        let report = ReportSpec::new(
            "r",
            "Top drugs",
            scan("FactPrescriptions")
                .aggregate(vec!["Drug".into()], vec![AggItem::count_star("n")])
                .project_cols(&["Drug"])
                .sort(vec![bi_query::SortKey::asc("Drug")]),
            [RoleId::new("analyst")],
        );
        let p = policy(vec![PlaRule::AggregationThreshold {
            table: "FactPrescriptions".into(),
            min_group_size: 3,
        }]);
        let out = render_enforced(
            &report,
            &catalog(),
            &p,
            &table_source(),
            &EngineConfig::default(),
            today(),
        )
        .unwrap();
        assert_eq!(out.table.schema().names(), vec!["Drug"]);
        assert_eq!(out.table.len(), 1);
        assert_eq!(out.suppressed_groups, 2);
    }

    #[test]
    fn intensional_mask_applied() {
        let report = ReportSpec::new(
            "r",
            "Doctors",
            scan("FactPrescriptions").project_cols(&["Doctor", "Disease"]),
            [RoleId::new("auditor")],
        );
        let p = policy(vec![PlaRule::AttributeAccess {
            attribute: bi_pla::AttrRef::new("FactPrescriptions", "Doctor"),
            allowed_roles: [RoleId::new("auditor")].into_iter().collect(),
            condition: Some(col("Disease").ne(lit("HIV"))),
        }]);
        let out = render_enforced(
            &report,
            &catalog(),
            &p,
            &table_source(),
            &EngineConfig::default(),
            today(),
        )
        .unwrap();
        for r in out.table.rows() {
            if r[1] == Value::from("HIV") {
                assert!(r[0].is_null(), "doctor hidden on HIV rows");
            } else {
                assert!(!r[0].is_null());
            }
        }
        assert!(out.applied.iter().any(|a| a.contains("mask")));
    }

    #[test]
    fn pseudonymization_of_derived_output() {
        let report = ReportSpec::new(
            "r",
            "Per patient",
            scan("FactPrescriptions")
                .aggregate(vec!["Patient".into()], vec![AggItem::count_star("n")]),
            [RoleId::new("analyst")],
        );
        let p = policy(vec![PlaRule::Anonymize {
            attribute: bi_pla::AttrRef::new("FactPrescriptions", "Patient"),
            method: AnonMethod::Pseudonymize,
        }]);
        let out = render_enforced(
            &report,
            &catalog(),
            &p,
            &table_source(),
            &EngineConfig::default(),
            today(),
        )
        .unwrap();
        for r in out.table.rows() {
            assert!(r[0].as_text().unwrap().starts_with("Patient-"));
        }
        // Same key ⇒ stable pseudonyms across renders.
        let out2 = render_enforced(
            &report,
            &catalog(),
            &p,
            &table_source(),
            &EngineConfig::default(),
            today(),
        )
        .unwrap();
        assert_eq!(out.table, out2.table);
    }

    #[test]
    fn generalization_needs_hierarchy() {
        let report = ReportSpec::new(
            "r",
            "Diseases",
            scan("FactPrescriptions")
                .aggregate(vec!["Disease".into()], vec![AggItem::count_star("n")]),
            [RoleId::new("analyst")],
        );
        let p = policy(vec![PlaRule::Anonymize {
            attribute: bi_pla::AttrRef::new("FactPrescriptions", "Disease"),
            method: AnonMethod::Generalize { level: 1 },
        }]);
        // Without a hierarchy: error.
        assert!(matches!(
            render_enforced(
                &report,
                &catalog(),
                &p,
                &table_source(),
                &EngineConfig::default(),
                today()
            ),
            Err(ReportError::MissingHierarchy { .. })
        ));
        // With one: values generalize.
        let mut config = EngineConfig::default();
        config.hierarchies.insert(
            "FactPrescriptions.Disease".to_string(),
            bi_anonymize::hierarchy::CategoricalBuilder::new()
                .edge("HIV", "infectious")
                .edge("asthma", "respiratory")
                .build("Disease")
                .unwrap(),
        );
        let out =
            render_enforced(&report, &catalog(), &p, &table_source(), &config, today()).unwrap();
        let vals = out.table.column_values("Disease").unwrap();
        assert!(vals.contains(&Value::from("infectious")));
        assert!(vals.contains(&Value::from("respiratory")));
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let report = ReportSpec::new(
            "r",
            "Counts",
            scan("FactPrescriptions")
                .aggregate(vec!["Drug".into()], vec![AggItem::count_star("n")]),
            [RoleId::new("analyst")],
        );
        let p = policy(vec![PlaRule::Anonymize {
            attribute: bi_pla::AttrRef::new("FactPrescriptions", "Drug"),
            method: AnonMethod::Noise { scale: 2.0 },
        }]);
        // Noise targets the Drug-derived *group* column here (Text) — a
        // no-op for text, so instead target the count via... counts have
        // no origin. Use a numeric-origin example: noise on Drug affects
        // the Text group column and leaves it unchanged.
        let out = render_enforced(
            &report,
            &catalog(),
            &p,
            &table_source(),
            &EngineConfig::default(),
            today(),
        )
        .unwrap();
        assert_eq!(
            out.table.len(),
            3,
            "text columns pass through noise unchanged"
        );
    }

    #[test]
    fn row_filter_obligation_enforced() {
        let report = ReportSpec::new(
            "r",
            "Counts",
            scan("FactPrescriptions").aggregate(vec![], vec![AggItem::count_star("n")]),
            [RoleId::new("analyst")],
        );
        let p = policy(vec![PlaRule::RowRestriction {
            table: "FactPrescriptions".into(),
            condition: col("Disease").ne(lit("HIV")),
        }]);
        let out = render_enforced(
            &report,
            &catalog(),
            &p,
            &table_source(),
            &EngineConfig::default(),
            today(),
        )
        .unwrap();
        assert_eq!(
            out.table.rows()[0][0],
            Value::Int(3),
            "HIV rows never counted"
        );
    }
}

#[cfg(test)]
mod regroup_tests {
    use super::*;
    use bi_pla::{PlaDocument, PlaLevel, PlaRule};
    use bi_relation::RelationError;
    use bi_types::RoleId;

    /// `Fact(Disease, Cost)` with the given cost type (nullable).
    fn fact(cost: DataType, rows: Vec<(&str, Value)>) -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(
            Table::from_rows(
                "Fact",
                Schema::new(vec![
                    Column::new("Disease", DataType::Text),
                    Column::nullable("Cost", cost),
                ])
                .unwrap(),
                rows.into_iter()
                    .map(|(disease, cost)| vec![disease.into(), cost])
                    .collect(),
            )
            .unwrap(),
        )
        .unwrap();
        cat
    }

    fn catalog() -> Catalog {
        fact(
            DataType::Int,
            vec![
                ("HIV", 60.into()),
                ("hepatitis", 30.into()),
                ("asthma", 10.into()),
                ("bronchitis", 25.into()),
                ("bronchitis", 5.into()),
            ],
        )
    }

    fn config() -> EngineConfig {
        let mut config = EngineConfig::default();
        config.hierarchies.insert(
            "Fact.Disease".to_string(),
            bi_anonymize::hierarchy::CategoricalBuilder::new()
                .edge("HIV", "infectious")
                .edge("hepatitis", "infectious")
                .edge("asthma", "respiratory")
                .edge("bronchitis", "respiratory")
                .edge("flu", "respiratory")
                .build("Disease")
                .unwrap(),
        );
        config
    }

    fn policy() -> CombinedPolicy {
        CombinedPolicy::combine(
            &[
                PlaDocument::new("d", "s", PlaLevel::MetaReport).with_rule(PlaRule::Anonymize {
                    attribute: bi_pla::AttrRef::new("Fact", "Disease"),
                    method: AnonMethod::Generalize { level: 1 },
                }),
            ],
        )
    }

    /// The row oracle, then the fused engine at 1, 2 and 8 threads.
    fn engines() -> Vec<ExecConfig> {
        let mut engines = vec![ExecConfig::serial()];
        for t in [1, 2, 8] {
            engines.push(
                ExecConfig::with_threads(t)
                    .with_pinned_threads(true)
                    .with_columnar(true),
            );
        }
        engines
    }

    /// Renders `aggs` by Disease on every engine of [`engines`]; each
    /// must deliver the oracle's table (name, schema, rows in order)
    /// and notes, or fail with its error. Returns the oracle's result.
    fn render(cat: &Catalog, aggs: Vec<AggItem>) -> Result<EnforcedReport, ReportError> {
        let report = ReportSpec::new(
            "r",
            "r",
            scan("Fact").aggregate(vec!["Disease".into()], aggs),
            [RoleId::new("analyst")],
        );
        let mut runs = engines().into_iter().map(|exec| {
            let config = EngineConfig { exec, ..config() };
            let out = render_enforced(
                &report,
                cat,
                &policy(),
                &BTreeMap::new(),
                &config,
                Date::new(2008, 7, 1).unwrap(),
            );
            (config.exec, out)
        });
        let (_, oracle) = runs.next().unwrap();
        for (exec, run) in runs {
            match (&oracle, &run) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.table.name(), b.table.name(), "{exec:?}");
                    assert_eq!(a.table.schema(), b.table.schema(), "{exec:?}");
                    // Debug text tells -0.0 from 0.0, which `==` does not.
                    assert_eq!(
                        format!("{:?}", a.table.rows()),
                        format!("{:?}", b.table.rows()),
                        "{exec:?}"
                    );
                    assert_eq!(a.applied, b.applied, "{exec:?}");
                }
                (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{exec:?}"),
                _ => panic!("{exec:?} disagrees with the oracle: {run:?} vs {oracle:?}"),
            }
        }
        oracle
    }

    fn deliver(aggs: Vec<AggItem>) -> EnforcedReport {
        render(&catalog(), aggs).unwrap()
    }

    fn merged(out: &EnforcedReport) -> bool {
        out.applied.iter().any(|a| a.contains("re-merged"))
    }

    #[test]
    fn counts_sums_min_max_merge() {
        let out = deliver(vec![
            AggItem::count_star("n"),
            AggItem::new("spend", AggFunc::Sum, "Cost"),
            AggItem::new("lo", AggFunc::Min, "Cost"),
            AggItem::new("hi", AggFunc::Max, "Cost"),
        ]);
        assert_eq!(out.table.len(), 2, "two families");
        let inf = out
            .table
            .rows()
            .iter()
            .find(|r| r[0] == Value::from("infectious"))
            .unwrap();
        assert_eq!(inf[1], Value::Int(2));
        assert_eq!(inf[2], Value::Int(90));
        assert_eq!(inf[3], Value::Int(30));
        assert_eq!(inf[4], Value::Int(60));
        let resp = out
            .table
            .rows()
            .iter()
            .find(|r| r[0] == Value::from("respiratory"))
            .unwrap();
        assert_eq!(resp[1], Value::Int(3));
        assert_eq!(resp[2], Value::Int(40));
        assert!(out
            .applied
            .iter()
            .any(|a| a == "re-merged 4 generalized group(s) into 2"));
    }

    /// Two `i64::MAX` costs whose diseases generalize into one family:
    /// re-merging their sums overflows, and the delivery fails with the
    /// oracle's `sum` error instead of wrapping (or panicking).
    #[test]
    fn merged_sum_overflow_is_the_oracles_error() {
        let cat = fact(
            DataType::Int,
            vec![("HIV", i64::MAX.into()), ("hepatitis", i64::MAX.into())],
        );
        let err = render(&cat, vec![AggItem::new("spend", AggFunc::Sum, "Cost")]).unwrap_err();
        assert!(
            matches!(
                err,
                ReportError::Query(QueryError::Relation(RelationError::Overflow { op: "sum" }))
            ),
            "{err:?}"
        );
    }

    #[test]
    fn avg_blocks_the_merge_but_still_generalizes() {
        let out = deliver(vec![AggItem::new("mean", AggFunc::Avg, "Cost")]);
        // Labels generalized, but rows not merged (avg is not mergeable
        // from its own output).
        assert_eq!(out.table.len(), 4);
        assert!(out
            .table
            .column_values("Disease")
            .unwrap()
            .iter()
            .all(|v| v == &Value::from("infectious") || v == &Value::from("respiratory")));
        assert!(!merged(&out));
    }

    /// Groups whose every cost is NULL merge to NULL mins, maxes and
    /// sums and a zero count, next to a family with a value.
    #[test]
    fn all_null_members_merge_to_null() {
        let cat = fact(
            DataType::Int,
            vec![
                ("asthma", Value::Null),
                ("HIV", 60.into()),
                ("bronchitis", Value::Null),
            ],
        );
        let out = render(
            &cat,
            vec![
                AggItem::new("lo", AggFunc::Min, "Cost"),
                AggItem::new("hi", AggFunc::Max, "Cost"),
                AggItem::new("spend", AggFunc::Sum, "Cost"),
                AggItem::new("n", AggFunc::Count, "Cost"),
            ],
        )
        .unwrap();
        let rows = out.table.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            vec![
                "respiratory".into(),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Int(0)
            ],
            "first-appearance order"
        );
        assert_eq!(
            rows[1],
            vec![
                "infectious".into(),
                60.into(),
                60.into(),
                60.into(),
                Value::Int(1)
            ]
        );
        assert!(merged(&out));
    }

    /// Float sums re-sum group by group, in first-appearance order.
    #[test]
    fn float_sums_merge() {
        let cat = fact(
            DataType::Float,
            vec![
                ("HIV", Value::Float(0.1)),
                ("asthma", Value::Float(1.5)),
                ("hepatitis", Value::Float(0.2)),
            ],
        );
        let out = render(&cat, vec![AggItem::new("spend", AggFunc::Sum, "Cost")]).unwrap();
        assert_eq!(
            out.table.schema().column("spend").unwrap().dtype,
            DataType::Float
        );
        assert_eq!(
            out.table.rows(),
            [
                vec!["infectious".into(), Value::Float(0.1 + 0.2)],
                vec!["respiratory".into(), Value::Float(1.5)],
            ]
        );
    }

    #[test]
    fn three_groups_collapse_into_one() {
        let cat = fact(
            DataType::Int,
            vec![
                ("asthma", 1.into()),
                ("flu", 2.into()),
                ("bronchitis", 4.into()),
                ("flu", 8.into()),
            ],
        );
        let out = render(
            &cat,
            vec![
                AggItem::count_star("n"),
                AggItem::new("spend", AggFunc::Sum, "Cost"),
            ],
        )
        .unwrap();
        assert_eq!(
            out.table.rows(),
            [vec!["respiratory".into(), Value::Int(4), Value::Int(15)]]
        );
        assert!(out
            .applied
            .iter()
            .any(|a| a == "re-merged 3 generalized group(s) into 1"));
    }

    /// When generalization makes no groups coincide, the generalized
    /// table is delivered as it is and no re-merge is noted.
    #[test]
    fn no_coincidence_leaves_the_table_alone() {
        let cat = fact(
            DataType::Int,
            vec![("HIV", 60.into()), ("asthma", 10.into())],
        );
        let out = render(&cat, vec![AggItem::new("spend", AggFunc::Sum, "Cost")]).unwrap();
        assert_eq!(
            out.table.rows(),
            [
                vec!["infectious".into(), Value::Int(60)],
                vec!["respiratory".into(), Value::Int(10)],
            ]
        );
        assert!(!merged(&out));
        let plan = scan("Fact").aggregate(
            vec!["Disease".into()],
            vec![AggItem::new("spend", AggFunc::Sum, "Cost")],
        );
        for exec in engines() {
            assert!(
                regroup_generalized(&out.table, &plan, &["Disease".into()], &exec)
                    .unwrap()
                    .is_none(),
                "{exec:?}"
            );
        }
    }
}

#[cfg(test)]
mod differencing_tests {
    use super::*;
    use bi_pla::{PlaDocument, PlaLevel, PlaRule};
    use bi_query::plan::scan;
    use bi_types::RoleId;

    /// Quarter × Drug facts where (Q1, DM) is a singleton.
    fn catalog() -> Catalog {
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let mut add = |q: &str, d: &str, n: usize| {
            for _ in 0..n {
                rows.push(vec![q.into(), d.into()]);
            }
        };
        add("Q1", "DH", 8);
        add("Q1", "DR", 5);
        add("Q1", "DM", 1);
        add("Q2", "DH", 6);
        add("Q2", "DR", 7);
        let mut cat = Catalog::new();
        cat.add_table(
            Table::from_rows(
                "Fact",
                Schema::new(vec![
                    Column::new("Quarter", DataType::Text),
                    Column::new("Drug", DataType::Text),
                ])
                .unwrap(),
                rows,
            )
            .unwrap(),
        )
        .unwrap();
        cat
    }

    fn deliver(complementary: bool) -> EnforcedReport {
        let report = ReportSpec::new(
            "r",
            "Quarter × Drug",
            scan("Fact").aggregate(
                vec!["Quarter".into(), "Drug".into()],
                vec![AggItem::count_star("n")],
            ),
            [RoleId::new("analyst")],
        );
        let policy = CombinedPolicy::combine(&[PlaDocument::new("d", "s", PlaLevel::MetaReport)
            .with_rule(PlaRule::AggregationThreshold {
                table: "Fact".into(),
                min_group_size: 3,
            })]);
        let config = EngineConfig {
            complementary_guard: complementary,
            ..Default::default()
        };
        render_enforced(
            &report,
            &catalog(),
            &policy,
            &BTreeMap::new(),
            &config,
            Date::new(2008, 7, 1).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn plain_k_leaves_one_differencable_cell() {
        let out = deliver(false);
        assert_eq!(out.suppressed_groups, 1, "only the (Q1, DM) singleton");
        let q1: Vec<_> = out
            .table
            .rows()
            .iter()
            .filter(|r| r[0] == Value::from("Q1"))
            .collect();
        assert_eq!(
            q1.len(),
            2,
            "DH and DR both published — Q1 total differencing finds DM"
        );
    }

    #[test]
    fn complementary_guard_hides_the_sibling_too() {
        let out = deliver(true);
        assert_eq!(out.suppressed_groups, 2, "singleton + the smallest sibling");
        let q1: Vec<_> = out
            .table
            .rows()
            .iter()
            .filter(|r| r[0] == Value::from("Q1"))
            .collect();
        assert_eq!(q1.len(), 1);
        assert_eq!(
            q1[0][1],
            Value::from("DH"),
            "only the largest Q1 cell survives"
        );
        assert!(out.applied.iter().any(|a| a.contains("complementary")));
        // Q2 (nothing suppressed there) stays intact.
        assert_eq!(
            out.table
                .rows()
                .iter()
                .filter(|r| r[0] == Value::from("Q2"))
                .count(),
            2
        );
    }
}
