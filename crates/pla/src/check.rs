//! Static compliance checking of query plans against a combined policy.
//!
//! This is the "testable" in the paper's *precise, testable, auditable*:
//! before a report/ETL plan ever runs, [`check_plan`] decides which
//! requirements it **violates** outright and which it can satisfy only
//! through run-time [`Obligation`]s the enforcement engine must apply
//! (masks, k-suppression, anonymization, retention filters). A plan with
//! no violations + discharged obligations is compliant.
//!
//! Checking is split into two phases. [`CheckProgram::compile`] resolves
//! everything that depends only on the *plan, catalog, and policy* —
//! origin analysis, view inlining, join-permission pairs, aggregation
//! shape — into a flat list of ops. [`CheckProgram::run`] then evaluates
//! the per-consumer inputs (roles, purpose, date) against those ops.
//! A program is immutable and `Send + Sync` behind `Arc`, so one compile
//! serves every consumer and delivery of the same report under the same
//! policy epoch.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bi_query::{origins, Catalog, Plan, QueryError};
use bi_relation::expr::Expr;
use bi_types::{Date, RoleId, SourceId};

use crate::combine::CombinedPolicy;
use crate::rule::{AnonMethod, AttrRef};

/// A hard compliance failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule kind tag (`attribute-access`, `join-permission`, …).
    pub kind: String,
    /// What was violated, human-readable.
    pub description: String,
    /// Where (attribute, table pair, …).
    pub subject: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.kind, self.subject, self.description)
    }
}

/// A requirement the plan can only satisfy at run time; the enforcement
/// engine (bi-report) must apply it, and the auditor re-checks it.
#[derive(Debug, Clone, PartialEq)]
pub enum Obligation {
    /// Show `attribute` only on rows satisfying `condition` (intensional
    /// attribute access); mask elsewhere.
    MaskAttribute { attribute: AttrRef, condition: Expr },
    /// Filter rows of `table` by `condition` before any use.
    FilterRows { table: String, condition: Expr },
    /// Suppress aggregate groups with fewer than `k` base rows of
    /// `table`.
    EnforceMinGroup { table: String, k: usize },
    /// Anonymize `attribute` with `method` before exposure.
    Anonymize {
        attribute: AttrRef,
        method: AnonMethod,
    },
}

/// The outcome of a static check.
#[derive(Debug, Clone, Default)]
pub struct CheckOutcome {
    pub violations: Vec<Violation>,
    pub obligations: Vec<Obligation>,
}

impl CheckOutcome {
    /// No violations (obligations may remain — they are dischargeable).
    pub fn is_compliant(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Does every `Scan` of `table` in this (view-inlined) plan have an
/// `Aggregate` ancestor? Subtrees not touching the table are vacuously
/// covered.
fn every_scan_aggregated(plan: &Plan, table: &str) -> bool {
    match plan {
        Plan::Scan { table: t } => t != table,
        // Anything below an aggregate leaves only in aggregated form.
        Plan::Aggregate { .. } => true,
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Distinct { input }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. } => every_scan_aggregated(input, table),
        Plan::Join { left, right, .. } | Plan::Union { left, right } => {
            every_scan_aggregated(left, table) && every_scan_aggregated(right, table)
        }
    }
}

/// One precompiled check step. Ops either fire unconditionally (the
/// plan/policy analysis already decided the outcome) or gate on the
/// run-time inputs: roles, purpose, evaluation date.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    /// Compile-time analysis already proved this violation.
    Violate(Violation),
    /// Compile-time analysis already produced this obligation.
    Obligate(Obligation),
    /// Reject any run whose declared purpose is outside `allowed`
    /// (`None` = unconstrained; runs without a purpose always pass).
    PurposeGate { allowed: Option<BTreeSet<String>> },
    /// Role-gated attribute access: disjoint roles violate; permitted
    /// roles incur one intensional mask obligation per condition.
    AttributeGate {
        attribute: AttrRef,
        allowed_roles: BTreeSet<RoleId>,
        conditions: Vec<Expr>,
    },
    /// Retention limit: at run time, filter `table` to rows whose
    /// `attribute` is within `max_age_days` of the evaluation date.
    RetentionFilter {
        table: String,
        attribute: String,
        max_age_days: i64,
    },
}

/// A compiled compliance check: the plan-, catalog-, and policy-dependent
/// analysis of [`check_plan`] frozen into an immutable op list.
///
/// Compile once per (plan, policy) epoch with [`CheckProgram::compile`],
/// then evaluate per consumer/delivery with [`CheckProgram::run`] — the
/// run phase touches no catalog and allocates only the outcome. Programs
/// are cheaply clonable (`Arc`-shared) and `Send + Sync`.
#[derive(Debug, Clone)]
pub struct CheckProgram {
    ops: Arc<Vec<Op>>,
}

impl CheckProgram {
    /// Analyzes `plan` against `policy`, resolving origins, view
    /// inlining, join permissions, and aggregation shape into ops.
    /// `table_source` maps base tables to their owning sources (for
    /// join-permission checks).
    ///
    /// Tables missing from `table_source` take no part in
    /// join-permission checking — keep the attribution map complete
    /// (BiSystem maintains it for registered sources and ETL loads, and
    /// additionally checks the full multi-source attribution of combined
    /// warehouse tables).
    pub fn compile(
        plan: &Plan,
        cat: &Catalog,
        policy: &CombinedPolicy,
        table_source: &BTreeMap<String, SourceId>,
    ) -> Result<CheckProgram, QueryError> {
        let mut ops = Vec::new();

        // Purpose limitation: resolved against the run's purpose later.
        ops.push(Op::PurposeGate {
            allowed: policy.allowed_purposes().cloned(),
        });

        let o = origins::origins(plan, cat)?;

        // Join permissions: any pair of distinct sources whose tables
        // are combined by this plan.
        let sources: BTreeSet<&SourceId> = o
            .tables
            .iter()
            .filter_map(|t| table_source.get(t))
            .collect();
        let srcs: Vec<&SourceId> = sources.into_iter().collect();
        for i in 0..srcs.len() {
            for j in i + 1..srcs.len() {
                if !policy.may_join(srcs[i], srcs[j]) {
                    ops.push(Op::Violate(Violation {
                        kind: "join-permission".into(),
                        description: "plan combines data of sources whose join is prohibited"
                            .into(),
                        subject: format!("{} ⋈ {}", srcs[i], srcs[j]),
                    }));
                }
            }
        }

        // Attribute access over everything the plan touches (outputs and
        // conditions both reveal data). Role resolution happens at run.
        // Conditions are constant-folded here: the obligation predicate
        // is evaluated per row at enforcement time, so shrinking it once
        // at compile time pays off on every delivery.
        for (t, c) in o.all_origins() {
            let attr = AttrRef::new(t, c);
            if let Some(r) = policy.attribute_restriction(&attr) {
                ops.push(Op::AttributeGate {
                    attribute: attr,
                    allowed_roles: r.allowed_roles.clone(),
                    conditions: r.conditions.iter().map(bi_relation::fold).collect(),
                });
            }
        }

        // Aggregation thresholds: a plan exposing a thresholded table's
        // rows *unaggregated* is a violation; an aggregated exposure
        // incurs a run-time group-size obligation. "Aggregated" must
        // hold per table: every scan of the thresholded table needs an
        // Aggregate ancestor — an unrelated aggregate elsewhere in the
        // plan (the other branch of a join or union) must not launder
        // raw rows through the check.
        let inlined = cat.inline_views(plan)?;
        for (table, k) in policy.thresholded_tables() {
            if !o.tables.contains(table) || k <= 1 {
                continue;
            }
            if every_scan_aggregated(&inlined, table) {
                ops.push(Op::Obligate(Obligation::EnforceMinGroup {
                    table: table.to_string(),
                    k,
                }));
            } else {
                ops.push(Op::Violate(Violation {
                    kind: "aggregation-threshold".into(),
                    description: format!(
                        "table requires aggregation with groups of at least {k}, but the plan exposes raw rows"
                    ),
                    subject: table.to_string(),
                }));
            }
        }

        // Row restrictions and retention limits per touched table; the
        // retention cutoff depends on the evaluation date, so it stays a
        // run-time op. Row-restriction predicates combined from several
        // PLAs often carry constant subtrees (e.g. a vacuous `TRUE AND`
        // leg from a permissive document) — fold them once here rather
        // than on every row of every delivery.
        for t in &o.tables {
            if let Some(f) = policy.row_filter(t) {
                ops.push(Op::Obligate(Obligation::FilterRows {
                    table: t.clone(),
                    condition: bi_relation::fold(&f),
                }));
            }
            for (attr, days) in policy.retentions(t) {
                ops.push(Op::RetentionFilter {
                    table: t.clone(),
                    attribute: attr.to_string(),
                    max_age_days: days,
                });
            }
        }
        for (attr, method) in policy.anonymized_attributes() {
            let touched = o
                .all_origins()
                .contains(&(attr.table.clone(), attr.column.clone()));
            if touched {
                ops.push(Op::Obligate(Obligation::Anonymize {
                    attribute: attr.clone(),
                    method: method.clone(),
                }));
            }
        }

        Ok(CheckProgram { ops: Arc::new(ops) })
    }

    /// Number of compiled ops (diagnostics).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the program performs no checks at all.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Evaluates the compiled ops for a consumer holding `roles`,
    /// running for `purpose` on `today`'s date.
    pub fn run(
        &self,
        roles: &BTreeSet<RoleId>,
        purpose: Option<&str>,
        today: Date,
    ) -> Result<CheckOutcome, QueryError> {
        let mut out = CheckOutcome::default();
        for op in self.ops.iter() {
            match op {
                Op::Violate(v) => out.violations.push(v.clone()),
                Op::Obligate(o) => out.obligations.push(o.clone()),
                Op::PurposeGate { allowed } => {
                    if let Some(p) = purpose {
                        let ok = match allowed {
                            None => true,
                            Some(set) => set.contains(p),
                        };
                        if !ok {
                            out.violations.push(Violation {
                                kind: "purpose".into(),
                                description: format!(
                                    "purpose {p:?} is not among the allowed purposes"
                                ),
                                subject: p.to_string(),
                            });
                        }
                    }
                }
                Op::AttributeGate {
                    attribute,
                    allowed_roles,
                    conditions,
                } => {
                    if allowed_roles.is_disjoint(roles) {
                        out.violations.push(Violation {
                            kind: "attribute-access".into(),
                            description: format!(
                                "consumer roles {:?} not in allowed set {:?}",
                                roles.iter().map(|r| r.as_str()).collect::<Vec<_>>(),
                                allowed_roles.iter().map(|r| r.as_str()).collect::<Vec<_>>()
                            ),
                            subject: attribute.to_string(),
                        });
                    } else {
                        for cond in conditions {
                            out.obligations.push(Obligation::MaskAttribute {
                                attribute: attribute.clone(),
                                condition: cond.clone(),
                            });
                        }
                    }
                }
                Op::RetentionFilter {
                    table,
                    attribute,
                    max_age_days,
                } => {
                    let cutoff = today
                        .plus_days(-max_age_days)
                        .map_err(|e| QueryError::Relation(e.into()))?;
                    out.obligations.push(Obligation::FilterRows {
                        table: table.clone(),
                        condition: bi_relation::expr::col(attribute).ge(Expr::Lit(cutoff.into())),
                    });
                }
            }
        }
        Ok(out)
    }
}

/// Checks `plan` against `policy` for a consumer holding `roles`, run
/// for `purpose` on `today`'s date: one-shot compile + run.
///
/// Callers that check the same plan repeatedly (BiSystem's
/// `check`/`deliver`) should compile a [`CheckProgram`] once and `run`
/// it per consumer instead.
pub fn check_plan(
    plan: &Plan,
    cat: &Catalog,
    policy: &CombinedPolicy,
    roles: &BTreeSet<RoleId>,
    table_source: &BTreeMap<String, SourceId>,
    purpose: Option<&str>,
    today: Date,
) -> Result<CheckOutcome, QueryError> {
    CheckProgram::compile(plan, cat, policy, table_source)?.run(roles, purpose, today)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::{PlaDocument, PlaLevel};
    use crate::rule::PlaRule;
    use bi_query::plan::{scan, AggItem};
    use bi_relation::expr::{col, lit};
    use bi_relation::Table;
    use bi_types::{Column, DataType, Schema, Value};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(
            Table::from_rows(
                "Prescriptions",
                Schema::new(vec![
                    Column::new("Patient", DataType::Text),
                    Column::new("Doctor", DataType::Text),
                    Column::new("Drug", DataType::Text),
                    Column::new("Disease", DataType::Text),
                    Column::new("Date", DataType::Date),
                ])
                .unwrap(),
                vec![vec![
                    "Alice".into(),
                    "Luis".into(),
                    "DH".into(),
                    "HIV".into(),
                    Value::date("2007-02-12").unwrap(),
                ]],
            )
            .unwrap(),
        )
        .unwrap();
        cat.add_table(
            Table::from_rows(
                "LabResults",
                Schema::new(vec![
                    Column::new("Patient", DataType::Text),
                    Column::new("Test", DataType::Text),
                ])
                .unwrap(),
                vec![vec!["Alice".into(), "CD4".into()]],
            )
            .unwrap(),
        )
        .unwrap();
        cat
    }

    fn sources() -> BTreeMap<String, SourceId> {
        [
            ("Prescriptions".to_string(), SourceId::new("hospital")),
            ("LabResults".to_string(), SourceId::new("laboratory")),
        ]
        .into_iter()
        .collect()
    }

    fn policy() -> CombinedPolicy {
        let doc = PlaDocument::new("h1", "hospital", PlaLevel::Report)
            .with_rule(PlaRule::AttributeAccess {
                attribute: AttrRef::new("Prescriptions", "Doctor"),
                allowed_roles: [RoleId::new("auditor")].into_iter().collect(),
                condition: Some(col("Disease").ne(lit("HIV"))),
            })
            .with_rule(PlaRule::AggregationThreshold {
                table: "Prescriptions".into(),
                min_group_size: 3,
            })
            .with_rule(PlaRule::JoinPermission {
                left_source: "hospital".into(),
                right_source: "laboratory".into(),
                allowed: false,
            })
            .with_rule(PlaRule::Purpose {
                allowed: ["quality".to_string()].into_iter().collect(),
            });
        CombinedPolicy::combine(&[doc])
    }

    fn today() -> Date {
        Date::new(2008, 6, 1).unwrap()
    }

    fn roles(names: &[&str]) -> BTreeSet<RoleId> {
        names.iter().map(|n| RoleId::new(*n)).collect()
    }

    #[test]
    fn attribute_access_by_role() {
        let cat = catalog();
        let p = scan("Prescriptions").project_cols(&["Doctor", "Drug"]);
        // Analyst may not see Doctor.
        let out = check_plan(
            &p,
            &cat,
            &policy(),
            &roles(&["analyst"]),
            &sources(),
            None,
            today(),
        )
        .unwrap();
        assert!(out.violations.iter().any(|v| v.kind == "attribute-access"));
        // Auditor may — but gets the intensional mask obligation.
        let out = check_plan(
            &p,
            &cat,
            &policy(),
            &roles(&["auditor"]),
            &sources(),
            None,
            today(),
        )
        .unwrap();
        assert!(out.violations.iter().all(|v| v.kind != "attribute-access"));
        assert!(out
            .obligations
            .iter()
            .any(|o| matches!(o, Obligation::MaskAttribute { attribute, .. } if attribute.column == "Doctor")));
    }

    #[test]
    fn filters_reveal_attributes_too() {
        let cat = catalog();
        // Doctor only appears in the WHERE clause — still checked.
        let p = scan("Prescriptions")
            .filter(col("Doctor").eq(lit("Luis")))
            .project_cols(&["Drug"]);
        let out = check_plan(
            &p,
            &cat,
            &policy(),
            &roles(&["analyst"]),
            &sources(),
            None,
            today(),
        )
        .unwrap();
        assert!(out
            .violations
            .iter()
            .any(|v| v.kind == "attribute-access" && v.subject.contains("Doctor")));
    }

    #[test]
    fn join_prohibition_detected() {
        let cat = catalog();
        let p = scan("Prescriptions").join(
            scan("LabResults"),
            vec![("Patient".into(), "Patient".into())],
            "lab",
        );
        let out = check_plan(
            &p,
            &cat,
            &policy(),
            &roles(&["auditor"]),
            &sources(),
            None,
            today(),
        )
        .unwrap();
        assert!(out.violations.iter().any(|v| v.kind == "join-permission"));
        // A plan over one source alone is fine.
        let p = scan("LabResults");
        let out = check_plan(
            &p,
            &cat,
            &policy(),
            &roles(&["auditor"]),
            &sources(),
            None,
            today(),
        )
        .unwrap();
        assert!(out.violations.iter().all(|v| v.kind != "join-permission"));
    }

    #[test]
    fn aggregation_threshold_raw_vs_aggregated() {
        let cat = catalog();
        let raw = scan("Prescriptions").project_cols(&["Drug"]);
        let out = check_plan(
            &raw,
            &cat,
            &policy(),
            &roles(&["analyst"]),
            &sources(),
            None,
            today(),
        )
        .unwrap();
        assert!(out
            .violations
            .iter()
            .any(|v| v.kind == "aggregation-threshold"));

        let agg =
            scan("Prescriptions").aggregate(vec!["Drug".into()], vec![AggItem::count_star("n")]);
        let out = check_plan(
            &agg,
            &cat,
            &policy(),
            &roles(&["analyst"]),
            &sources(),
            None,
            today(),
        )
        .unwrap();
        assert!(out
            .violations
            .iter()
            .all(|v| v.kind != "aggregation-threshold"));
        assert!(out
            .obligations
            .iter()
            .any(|o| matches!(o, Obligation::EnforceMinGroup { k: 3, .. })));
    }

    #[test]
    fn purpose_limitation() {
        let cat = catalog();
        let p = scan("Prescriptions").aggregate(vec![], vec![AggItem::count_star("n")]);
        let ok = check_plan(
            &p,
            &cat,
            &policy(),
            &roles(&[]),
            &sources(),
            Some("quality"),
            today(),
        )
        .unwrap();
        assert!(ok.violations.iter().all(|v| v.kind != "purpose"));
        let bad = check_plan(
            &p,
            &cat,
            &policy(),
            &roles(&[]),
            &sources(),
            Some("marketing"),
            today(),
        )
        .unwrap();
        assert!(bad.violations.iter().any(|v| v.kind == "purpose"));
    }

    #[test]
    fn retention_and_row_restrictions_become_filters() {
        let doc = PlaDocument::new("h2", "hospital", PlaLevel::Source)
            .with_rule(PlaRule::Retention {
                table: "Prescriptions".into(),
                date_attribute: "Date".into(),
                max_age_days: 365,
            })
            .with_rule(PlaRule::RowRestriction {
                table: "Prescriptions".into(),
                condition: col("Patient").ne(lit("Math")),
            });
        let policy = CombinedPolicy::combine(&[doc]);
        let cat = catalog();
        let p = scan("Prescriptions").aggregate(vec![], vec![AggItem::count_star("n")]);
        let out = check_plan(&p, &cat, &policy, &roles(&[]), &sources(), None, today()).unwrap();
        assert!(out.is_compliant());
        let filters: Vec<&Obligation> = out
            .obligations
            .iter()
            .filter(|o| matches!(o, Obligation::FilterRows { .. }))
            .collect();
        assert_eq!(filters.len(), 2, "row restriction + retention");
        assert!(filters.iter().any(|o| matches!(
            o,
            Obligation::FilterRows { condition, .. } if condition.to_string().contains("2007-06-02")
        )));
    }

    /// Every `FilterRows` condition the checker emits — row restrictions
    /// verbatim and retention cutoffs synthesized as `attr >= date` —
    /// must resolve against the table it filters and compile to a
    /// columnar kernel there.
    /// The report engine pushes these obligations into the plan as
    /// `Plan::Filter` nodes, so this is what guarantees PLA enforcement
    /// runs on the vectorized path (never silently falling back to the
    /// row engine) whenever the execution config asks for columnar.
    #[test]
    fn emitted_filter_conditions_compile_to_columnar_kernels() {
        let doc = PlaDocument::new("h2", "hospital", PlaLevel::Source)
            .with_rule(PlaRule::Retention {
                table: "Prescriptions".into(),
                date_attribute: "Date".into(),
                max_age_days: 365,
            })
            .with_rule(PlaRule::RowRestriction {
                table: "Prescriptions".into(),
                condition: col("Patient")
                    .ne(lit("Math"))
                    .and(col("Disease").ne(lit("HIV"))),
            });
        let policy = CombinedPolicy::combine(&[doc]);
        let cat = catalog();
        let p = scan("Prescriptions").aggregate(vec![], vec![AggItem::count_star("n")]);
        let out = check_plan(&p, &cat, &policy, &roles(&[]), &sources(), None, today()).unwrap();
        let mut filters = 0;
        for o in &out.obligations {
            if let Obligation::FilterRows { table, condition } = o {
                filters += 1;
                let schema = cat.table(table).unwrap().schema();
                assert!(
                    bi_relation::CompiledPredicate::compile(condition, schema).is_some(),
                    "PLA condition must vectorize: {condition}"
                );
                assert!(
                    condition.infer_type(schema).is_ok(),
                    "PLA condition must resolve against its table: {condition}"
                );
            }
        }
        assert_eq!(filters, 2, "row restriction + retention cutoff");
    }

    /// Obligation predicates are constant-folded when the check program
    /// is compiled, so per-delivery enforcement evaluates the smallest
    /// equivalent expression — the folded form, not the authored one.
    #[test]
    fn obligation_predicates_are_folded_at_compile_time() {
        let doc = PlaDocument::new("h4", "hospital", PlaLevel::Source)
            .with_rule(PlaRule::RowRestriction {
                table: "Prescriptions".into(),
                // `1 < 2` is decidable now; only the column test survives.
                condition: col("Patient").ne(lit("Math")).and(lit(1).lt(lit(2))),
            })
            .with_rule(PlaRule::AttributeAccess {
                attribute: AttrRef::new("Prescriptions", "Doctor"),
                allowed_roles: [RoleId::new("auditor")].into_iter().collect(),
                condition: Some(col("Disease").ne(lit("HIV")).or(lit(2).lt(lit(1)))),
            });
        let policy = CombinedPolicy::combine(&[doc]);
        let cat = catalog();
        let p = scan("Prescriptions").project_cols(&["Doctor", "Drug"]);
        let out = check_plan(
            &p,
            &cat,
            &policy,
            &roles(&["auditor"]),
            &sources(),
            None,
            today(),
        )
        .unwrap();
        assert!(out.obligations.iter().any(|o| matches!(
            o,
            Obligation::FilterRows { condition, .. }
                if *condition == col("Patient").ne(lit("Math")).and(lit(true))
        )));
        assert!(out.obligations.iter().any(|o| matches!(
            o,
            Obligation::MaskAttribute { condition, .. }
                if *condition == col("Disease").ne(lit("HIV")).or(lit(false))
        )));
    }

    #[test]
    fn anonymization_obligation_only_when_touched() {
        let doc =
            PlaDocument::new("h3", "hospital", PlaLevel::Source).with_rule(PlaRule::Anonymize {
                attribute: AttrRef::new("Prescriptions", "Patient"),
                method: AnonMethod::Pseudonymize,
            });
        let policy = CombinedPolicy::combine(&[doc]);
        let cat = catalog();
        let touching = scan("Prescriptions").project_cols(&["Patient"]);
        let out = check_plan(
            &touching,
            &cat,
            &policy,
            &roles(&[]),
            &sources(),
            None,
            today(),
        )
        .unwrap();
        assert!(out
            .obligations
            .iter()
            .any(|o| matches!(o, Obligation::Anonymize { .. })));
        let not_touching = scan("Prescriptions").project_cols(&["Drug"]);
        let out = check_plan(
            &not_touching,
            &cat,
            &policy,
            &roles(&[]),
            &sources(),
            None,
            today(),
        )
        .unwrap();
        assert!(out
            .obligations
            .iter()
            .all(|o| !matches!(o, Obligation::Anonymize { .. })));
    }
}

#[cfg(test)]
mod aggregation_laundering_tests {
    use super::*;
    use crate::document::{PlaDocument, PlaLevel};
    use crate::rule::PlaRule;
    use bi_query::plan::{scan, AggItem};
    use bi_relation::Table;
    use bi_types::{Column, DataType, Schema};

    #[test]
    fn unrelated_aggregates_do_not_launder_raw_rows() {
        // The plan joins RAW thresholded rows with an aggregate of
        // another table: the mere presence of an Aggregate node must not
        // satisfy the threshold.
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "Protected",
            Schema::new(vec![
                Column::new("Patient", DataType::Text),
                Column::new("Key", DataType::Text),
            ])
            .unwrap(),
        ))
        .unwrap();
        cat.add_table(Table::new(
            "Other",
            Schema::new(vec![Column::new("Key", DataType::Text)]).unwrap(),
        ))
        .unwrap();
        let doc = PlaDocument::new("d", "s", PlaLevel::MetaReport).with_rule(
            PlaRule::AggregationThreshold {
                table: "Protected".into(),
                min_group_size: 5,
            },
        );
        let policy = CombinedPolicy::combine(&[doc]);
        let laundered = scan("Protected").join(
            scan("Other").aggregate(vec!["Key".into()], vec![AggItem::count_star("n")]),
            vec![("Key".into(), "Key".into())],
            "agg",
        );
        let out = check_plan(
            &laundered,
            &cat,
            &policy,
            &BTreeSet::new(),
            &BTreeMap::new(),
            None,
            Date::new(2008, 7, 1).unwrap(),
        )
        .unwrap();
        assert!(
            out.violations
                .iter()
                .any(|v| v.kind == "aggregation-threshold"),
            "raw Protected rows leak through the join"
        );
        // Aggregating the protected side itself is fine.
        let proper =
            scan("Protected").aggregate(vec!["Key".into()], vec![AggItem::count_star("n")]);
        let out = check_plan(
            &proper,
            &cat,
            &policy,
            &BTreeSet::new(),
            &BTreeMap::new(),
            None,
            Date::new(2008, 7, 1).unwrap(),
        )
        .unwrap();
        assert!(out.violations.is_empty());
        assert!(out
            .obligations
            .iter()
            .any(|o| matches!(o, Obligation::EnforceMinGroup { .. })));
    }
}
