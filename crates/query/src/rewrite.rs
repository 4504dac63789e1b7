//! Privacy enforcement by query rewriting (paper §3).
//!
//! The paper lists "automatic query rewriting techniques, such as those
//! found in commercial databases like Oracle Virtual Private Database
//! (VPD) or in the Hippocratic Database" as source-level enforcement
//! mechanisms. This module is that mechanism over our algebra: a
//! [`ScanPolicy`] attaches a row restriction and column masks to a base
//! table, and [`apply`] pushes them into every scan of that table, so any
//! plan — however written — sees only permitted data.
//!
//! Masks are *type-preserving*: a masked column keeps its declared type
//! (via `if(cond, col, NULL)`), so downstream aggregates still type-check.
//! They also stay columnar: when `cond` compiles to a predicate kernel,
//! the fused pipeline runs the mask projection as slots over source rows
//! (each mask evaluated once per run, a hidden cell read as NULL), so a
//! masked report keeps late materialization and the typed aggregate
//! kernels.

use bi_relation::expr::{col, Expr, Func};
use bi_types::Value;

use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::plan::Plan;

/// What a masked column shows instead of the real value.
#[derive(Debug, Clone, PartialEq)]
pub enum MaskAction {
    /// Replace with NULL (type-preserving).
    Nullify,
    /// Replace with a fixed value (must be admissible for the column).
    Constant(Value),
    /// Show the real value only where `visible_when` holds, NULL
    /// elsewhere — the paper's *intensional*, instance-specific rule
    /// ("show examination results only for non-HIV patients").
    ShowWhen(Expr),
}

/// A per-table enforcement policy, VPD-style.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanPolicy {
    /// The protected base table.
    pub table: String,
    /// Row-level restriction over the base schema (rows failing it are
    /// invisible), if any.
    pub row_restriction: Option<Expr>,
    /// Column masks: `(column, action)`.
    pub masks: Vec<(String, MaskAction)>,
}

impl ScanPolicy {
    /// A policy with no restrictions (useful as a builder seed).
    pub fn for_table(table: impl Into<String>) -> Self {
        ScanPolicy {
            table: table.into(),
            row_restriction: None,
            masks: Vec::new(),
        }
    }

    /// Adds a row restriction (AND-ed with any existing one).
    pub fn restrict_rows(mut self, pred: Expr) -> Self {
        self.row_restriction = Some(match self.row_restriction {
            Some(p) => p.and(pred),
            None => pred,
        });
        self
    }

    /// Adds a column mask.
    pub fn mask(mut self, column: impl Into<String>, action: MaskAction) -> Self {
        self.masks.push((column.into(), action));
        self
    }

    /// True when the policy actually constrains something.
    pub fn is_restrictive(&self) -> bool {
        self.row_restriction.is_some() || !self.masks.is_empty()
    }
}

/// Rewrites `plan` so that every scan of a policed table goes through the
/// policy's row restriction and masks. Scans of views are inlined first
/// so policies reach the base tables underneath.
pub fn apply(plan: &Plan, policies: &[ScanPolicy], cat: &Catalog) -> Result<Plan, QueryError> {
    // A policy naming a view (or a non-existent relation) would never
    // match a scan after view inlining — a privacy policy that silently
    // enforces nothing. Refuse loudly instead: policies must name base
    // tables.
    for pol in policies {
        if cat.table(&pol.table).is_none() {
            return Err(QueryError::UnknownRelation {
                name: format!("{} (scan policies must name base tables)", pol.table),
            });
        }
    }
    let inlined = cat.inline_views(plan)?;
    rewrite(&inlined, policies, cat)
}

fn rewrite(plan: &Plan, policies: &[ScanPolicy], cat: &Catalog) -> Result<Plan, QueryError> {
    Ok(match plan {
        Plan::Scan { table } => {
            let mut p = plan.clone();
            for pol in policies.iter().filter(|pol| &pol.table == table) {
                p = enforce_at_scan(p, pol, cat, table)?;
            }
            p
        }
        Plan::Filter { input, pred } => Plan::Filter {
            input: Box::new(rewrite(input, policies, cat)?),
            pred: pred.clone(),
        },
        Plan::Project { input, items } => Plan::Project {
            input: Box::new(rewrite(input, policies, cat)?),
            items: items.clone(),
        },
        Plan::Join {
            left,
            right,
            kind,
            on,
            right_prefix,
        } => Plan::Join {
            left: Box::new(rewrite(left, policies, cat)?),
            right: Box::new(rewrite(right, policies, cat)?),
            kind: *kind,
            on: on.clone(),
            right_prefix: right_prefix.clone(),
        },
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => Plan::Aggregate {
            input: Box::new(rewrite(input, policies, cat)?),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
        Plan::Union { left, right } => Plan::Union {
            left: Box::new(rewrite(left, policies, cat)?),
            right: Box::new(rewrite(right, policies, cat)?),
        },
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(rewrite(input, policies, cat)?),
        },
        Plan::Sort { input, keys } => Plan::Sort {
            input: Box::new(rewrite(input, policies, cat)?),
            keys: keys.clone(),
        },
        Plan::Limit { input, n } => Plan::Limit {
            input: Box::new(rewrite(input, policies, cat)?),
            n: *n,
        },
    })
}

fn enforce_at_scan(
    scan_plan: Plan,
    pol: &ScanPolicy,
    cat: &Catalog,
    table: &str,
) -> Result<Plan, QueryError> {
    let schema = cat.schema_of(table)?;
    // Validate policy references early: a typo in a policy must fail
    // loudly at rewrite time, not silently at run time.
    if let Some(pred) = &pol.row_restriction {
        for c in pred.columns_used() {
            schema.index_of(&c)?;
        }
    }
    for (c, action) in &pol.masks {
        let column = schema.column(c)?;
        match action {
            MaskAction::Nullify => {}
            // A typo'd column inside a ShowWhen condition would
            // otherwise only surface mid-execution.
            MaskAction::ShowWhen(cond) => {
                for used in cond.columns_used() {
                    schema.index_of(&used)?;
                }
            }
            // The documented contract: the constant must be admissible
            // for the masked column's type.
            MaskAction::Constant(v) => {
                if !column.admits(v) {
                    return Err(bi_types::TypeError::SchemaMismatch {
                        reason: format!(
                            "mask constant {v:?} is not admissible for column {c:?} ({})",
                            column.dtype
                        ),
                    }
                    .into());
                }
            }
        }
    }

    let mut p = scan_plan;
    if let Some(pred) = &pol.row_restriction {
        p = p.filter(pred.clone());
    }
    if !pol.masks.is_empty() {
        let items: Vec<(String, Expr)> = schema
            .columns()
            .iter()
            .map(|c| {
                let actions: Vec<&MaskAction> = pol
                    .masks
                    .iter()
                    .filter(|(m, _)| m == &c.name)
                    .map(|(_, a)| a)
                    .collect();
                (c.name.clone(), compose_masks(&c.name, &actions))
            })
            .collect();
        p = p.project(items);
    }
    Ok(p)
}

/// Composes every mask registered for one column into a single
/// expression — ALL masks apply (most restrictive combination):
/// any `Nullify` hides the value outright; `ShowWhen` conditions are
/// AND-ed; a `Constant` replaces the shown value (still subject to the
/// conjoined conditions).
fn compose_masks(column: &str, actions: &[&MaskAction]) -> Expr {
    if actions.is_empty() {
        return col(column);
    }
    if actions.iter().any(|a| matches!(a, MaskAction::Nullify)) {
        return Expr::Func(
            Func::If,
            vec![
                Expr::Lit(Value::Bool(false)),
                col(column),
                Expr::Lit(Value::Null),
            ],
        );
    }
    let shown = actions
        .iter()
        .find_map(|a| match a {
            MaskAction::Constant(v) => Some(Expr::Lit(v.clone())),
            _ => None,
        })
        .unwrap_or_else(|| col(column));
    let conditions: Vec<Expr> = actions
        .iter()
        .filter_map(|a| match a {
            MaskAction::ShowWhen(cond) => Some(cond.clone()),
            _ => None,
        })
        .collect();
    if conditions.is_empty() {
        shown
    } else {
        Expr::Func(
            Func::If,
            vec![Expr::conjoin(conditions), shown, Expr::Lit(Value::Null)],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::tests::paper_catalog;
    use crate::exec::execute;
    use crate::plan::{scan, AggItem};
    use bi_relation::expr::lit;

    #[test]
    fn row_restriction_hides_rows() {
        let cat = paper_catalog();
        // Fig. 2(b)'s Policies: Math has ShowName = no — model it as a
        // row restriction dropping Math entirely.
        let pol =
            ScanPolicy::for_table("Prescriptions").restrict_rows(col("Patient").ne(lit("Math")));
        let p = apply(&scan("Prescriptions"), &[pol], &cat).unwrap();
        let t = execute(&p, &cat).unwrap();
        assert_eq!(t.len(), 4);
        assert!(t.rows().iter().all(|r| r[0] != Value::from("Math")));
    }

    #[test]
    fn nullify_mask_preserves_type() {
        let cat = paper_catalog();
        let pol = ScanPolicy::for_table("DrugCost").mask("Cost", MaskAction::Nullify);
        let p = apply(
            &scan("DrugCost").aggregate(
                vec![],
                vec![AggItem::new("total", crate::plan::AggFunc::Sum, "Cost")],
            ),
            &[pol],
            &cat,
        )
        .unwrap();
        // Sum over an all-NULL Int column still type-checks and yields NULL.
        let t = execute(&p, &cat).unwrap();
        assert_eq!(t.rows()[0][0], Value::Null);
    }

    #[test]
    fn show_when_is_the_papers_intensional_rule() {
        let cat = paper_catalog();
        // §5: show the Doctor only for patients that are not HIV positive.
        let pol = ScanPolicy::for_table("Prescriptions").mask(
            "Doctor",
            MaskAction::ShowWhen(col("Disease").ne(lit("HIV"))),
        );
        let p = apply(&scan("Prescriptions"), &[pol], &cat).unwrap();
        let t = execute(&p, &cat).unwrap();
        assert_eq!(t.len(), 5, "rows stay; cells are masked");
        for r in t.rows() {
            if r[3] == Value::from("HIV") {
                assert!(r[1].is_null(), "HIV rows lose the doctor");
            }
        }
        let bob = t
            .rows()
            .iter()
            .find(|r| r[0] == Value::from("Bob"))
            .unwrap();
        assert_eq!(bob[1], Value::from("Anne"), "non-HIV rows keep it");
    }

    #[test]
    fn constant_mask_and_policy_stacking() {
        let cat = paper_catalog();
        let pol = ScanPolicy::for_table("Prescriptions")
            .restrict_rows(col("Disease").ne(lit("HIV")))
            .mask("Patient", MaskAction::Constant("***".into()));
        assert!(pol.is_restrictive());
        let p = apply(&scan("Prescriptions"), &[pol], &cat).unwrap();
        let t = execute(&p, &cat).unwrap();
        assert_eq!(t.len(), 3);
        assert!(t.rows().iter().all(|r| r[0] == Value::from("***")));
    }

    #[test]
    fn policies_reach_scans_under_views_and_joins() {
        let mut cat = paper_catalog();
        cat.add_view(
            "CostView",
            scan("Prescriptions").join(
                scan("DrugCost"),
                vec![("Drug".into(), "Drug".into())],
                "dc",
            ),
        )
        .unwrap();
        let pol =
            ScanPolicy::for_table("Prescriptions").restrict_rows(col("Disease").ne(lit("HIV")));
        let p = apply(&scan("CostView"), &[pol], &cat).unwrap();
        let t = execute(&p, &cat).unwrap();
        assert_eq!(
            t.len(),
            3,
            "HIV prescriptions filtered even under view+join"
        );
    }

    #[test]
    fn bad_policy_columns_fail_at_rewrite_time() {
        let cat = paper_catalog();
        let pol = ScanPolicy::for_table("Prescriptions").mask("NoSuch", MaskAction::Nullify);
        assert!(apply(&scan("Prescriptions"), &[pol], &cat).is_err());
        let pol = ScanPolicy::for_table("Prescriptions").restrict_rows(col("Ghost").eq(lit(1)));
        assert!(apply(&scan("Prescriptions"), &[pol], &cat).is_err());
    }

    #[test]
    fn unrelated_tables_untouched() {
        let cat = paper_catalog();
        let pol =
            ScanPolicy::for_table("Familydoctor").restrict_rows(col("Patient").ne(lit("Alice")));
        let before = execute(&scan("DrugCost"), &cat).unwrap();
        let p = apply(&scan("DrugCost"), &[pol], &cat).unwrap();
        let after = execute(&p, &cat).unwrap();
        assert_eq!(before, after);
    }
}

#[cfg(test)]
mod review_fix_tests {
    use super::*;
    use crate::catalog::tests::paper_catalog;
    use crate::plan::scan;
    use bi_relation::expr::{col, lit};

    #[test]
    fn policies_naming_views_or_ghosts_are_refused() {
        // A policy on a view would silently enforce nothing after view
        // inlining — it must be a loud error instead.
        let mut cat = paper_catalog();
        cat.add_view(
            "CostView",
            scan("Prescriptions").filter(col("Disease").ne(lit("HIV"))),
        )
        .unwrap();
        let pol = ScanPolicy::for_table("CostView").restrict_rows(col("Disease").ne(lit("HIV")));
        let err = apply(&scan("CostView"), &[pol], &cat).unwrap_err();
        assert!(err.to_string().contains("base tables"), "{err}");
        let pol = ScanPolicy::for_table("Ghost").restrict_rows(col("x").eq(lit(1)));
        assert!(apply(&scan("Prescriptions"), &[pol], &cat).is_err());
    }
}

#[cfg(test)]
mod review_fix_tests_2 {
    use super::*;
    use crate::catalog::tests::paper_catalog;
    use crate::plan::scan;
    use bi_relation::expr::{col, lit};

    #[test]
    fn show_when_conditions_validate_at_rewrite_time() {
        let cat = paper_catalog();
        // Typo'd column inside the intensional condition: loud failure.
        let pol = ScanPolicy::for_table("Prescriptions").mask(
            "Doctor",
            MaskAction::ShowWhen(col("Desease").ne(lit("HIV"))),
        );
        assert!(apply(&scan("Prescriptions"), &[pol], &cat).is_err());
    }

    #[test]
    fn inadmissible_mask_constants_refused() {
        let cat = paper_catalog();
        // Text constant on the Int Cost column: loud failure.
        let pol =
            ScanPolicy::for_table("DrugCost").mask("Cost", MaskAction::Constant("***".into()));
        assert!(apply(&scan("DrugCost"), &[pol], &cat).is_err());
        // Admissible constant still works.
        let pol =
            ScanPolicy::for_table("DrugCost").mask("Cost", MaskAction::Constant(Value::Int(0)));
        let p = apply(&scan("DrugCost"), &[pol], &cat).unwrap();
        let t = crate::exec::execute(&p, &cat).unwrap();
        assert!(t.rows().iter().all(|r| r[1] == Value::Int(0)));
    }
}

#[cfg(test)]
mod mask_composition_tests {
    use super::*;
    use crate::catalog::tests::paper_catalog;
    use crate::exec::execute;
    use crate::plan::scan;
    use bi_relation::expr::lit;

    #[test]
    fn multiple_show_when_masks_conjoin() {
        // Two intensional conditions on the same column: BOTH must hold
        // for the value to show (most restrictive combination).
        let cat = paper_catalog();
        let pol = ScanPolicy::for_table("Prescriptions")
            .mask(
                "Doctor",
                MaskAction::ShowWhen(col("Disease").ne(lit("HIV"))),
            )
            .mask(
                "Doctor",
                MaskAction::ShowWhen(col("Patient").ne(lit("Bob"))),
            );
        let p = apply(&scan("Prescriptions"), &[pol], &cat).unwrap();
        let t = execute(&p, &cat).unwrap();
        for r in t.rows() {
            let hiv = r[3] == Value::from("HIV");
            let bob = r[0] == Value::from("Bob");
            assert_eq!(
                r[1].is_null() || hiv || bob,
                r[1].is_null(),
                "masked iff either condition fails"
            );
            if hiv || bob {
                assert!(r[1].is_null(), "row {r:?} must be masked");
            }
        }
        // Math's row (diabetes, not Bob) keeps the doctor.
        let math = t
            .rows()
            .iter()
            .find(|r| r[0] == Value::from("Math"))
            .unwrap();
        assert_eq!(math[1], Value::from("Mark"));
    }

    #[test]
    fn nullify_dominates_other_masks() {
        let cat = paper_catalog();
        let pol = ScanPolicy::for_table("Prescriptions")
            .mask(
                "Doctor",
                MaskAction::ShowWhen(col("Disease").ne(lit("HIV"))),
            )
            .mask("Doctor", MaskAction::Nullify);
        let p = apply(&scan("Prescriptions"), &[pol], &cat).unwrap();
        let t = execute(&p, &cat).unwrap();
        assert!(t.rows().iter().all(|r| r[1].is_null()));
    }

    #[test]
    fn constant_with_condition_shows_constant_or_null() {
        let cat = paper_catalog();
        let pol = ScanPolicy::for_table("Prescriptions")
            .mask("Patient", MaskAction::Constant("***".into()))
            .mask(
                "Patient",
                MaskAction::ShowWhen(col("Disease").ne(lit("HIV"))),
            );
        let p = apply(&scan("Prescriptions"), &[pol], &cat).unwrap();
        let t = execute(&p, &cat).unwrap();
        for r in t.rows() {
            if r[3] == Value::from("HIV") {
                assert!(r[0].is_null());
            } else {
                assert_eq!(r[0], Value::from("***"));
            }
        }
    }
}
