//! Schema-level lineage: which base-table columns feed a plan.
//!
//! PLA rules name *source attributes* ("who can access a certain
//! attribute", paper §5 annotation kind i). Reports, however, are plans
//! full of renames, computed columns, joins and aggregates. This module
//! statically maps every output column of a plan to the set of
//! `(base table, column)` **origins** it derives from, and separately
//! records the origins consulted by predicates — a filter on `Disease`
//! leaks disease information even when `Disease` is not projected.

use std::collections::BTreeSet;

use bi_relation::expr::Expr;

use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::plan::Plan;

/// A base-table column: `(table, column)`.
pub type Origin = (String, String);

/// The origin analysis of one plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnOrigins {
    /// Per output column (parallel to the output schema): its name and
    /// the set of base-table columns it derives from. Computed columns
    /// union the origins of every column they mention; `COUNT(*)` has an
    /// empty origin set.
    pub outputs: Vec<(String, BTreeSet<Origin>)>,
    /// Every base table scanned anywhere in the plan.
    pub tables: BTreeSet<String>,
    /// Origins consulted by filters and join conditions — data that
    /// influences *which* rows appear even if never shown.
    pub condition_origins: BTreeSet<Origin>,
}

impl ColumnOrigins {
    /// Origins of the named output column.
    pub fn of(&self, output: &str) -> Option<&BTreeSet<Origin>> {
        self.outputs
            .iter()
            .find(|(n, _)| n == output)
            .map(|(_, o)| o)
    }

    /// Union of all output origins (not including condition origins).
    pub fn all_output_origins(&self) -> BTreeSet<Origin> {
        self.outputs
            .iter()
            .flat_map(|(_, o)| o.iter().cloned())
            .collect()
    }

    /// Union of output and condition origins: everything the plan
    /// *touches* in a way visible to a consumer.
    pub fn all_origins(&self) -> BTreeSet<Origin> {
        let mut s = self.all_output_origins();
        s.extend(self.condition_origins.iter().cloned());
        s
    }
}

/// Computes the origin analysis of `plan` against `cat`.
///
/// Views are expanded, so origins always bottom out at base tables.
pub fn origins(plan: &Plan, cat: &Catalog) -> Result<ColumnOrigins, QueryError> {
    let inlined = cat.inline_views(plan)?;
    analyze(&inlined, cat)
}

fn expr_origins(e: &Expr, input: &ColumnOrigins) -> BTreeSet<Origin> {
    let mut out = BTreeSet::new();
    for c in e.columns_used() {
        if let Some(o) = input.of(&c) {
            out.extend(o.iter().cloned());
        }
    }
    out
}

fn analyze(plan: &Plan, cat: &Catalog) -> Result<ColumnOrigins, QueryError> {
    Ok(match plan {
        Plan::Scan { table } => {
            let schema = cat.schema_of(table)?;
            let outputs = schema
                .columns()
                .iter()
                .map(|c| {
                    let mut s = BTreeSet::new();
                    s.insert((table.clone(), c.name.clone()));
                    (c.name.clone(), s)
                })
                .collect();
            ColumnOrigins {
                outputs,
                tables: std::iter::once(table.clone()).collect(),
                condition_origins: BTreeSet::new(),
            }
        }
        Plan::Filter { input, pred } => {
            let mut o = analyze(input, cat)?;
            o.condition_origins.extend(expr_origins(pred, &o));
            o
        }
        Plan::Project { input, items } => {
            let inner = analyze(input, cat)?;
            let outputs = items
                .iter()
                .map(|(name, e)| (name.clone(), expr_origins(e, &inner)))
                .collect();
            ColumnOrigins {
                outputs,
                tables: inner.tables,
                condition_origins: inner.condition_origins,
            }
        }
        Plan::Join {
            left,
            right,
            on,
            right_prefix,
            ..
        } => {
            let l = analyze(left, cat)?;
            let r = analyze(right, cat)?;
            let left_names: BTreeSet<&String> = l.outputs.iter().map(|(n, _)| n).collect();
            let mut outputs = l.outputs.clone();
            for (name, o) in &r.outputs {
                let name = if left_names.contains(name) {
                    format!("{right_prefix}.{name}")
                } else {
                    name.clone()
                };
                outputs.push((name, o.clone()));
            }
            let mut tables = l.tables;
            tables.extend(r.tables);
            let mut condition_origins = l.condition_origins;
            condition_origins.extend(r.condition_origins);
            for (lc, rc) in on {
                if let Some(o) = l.outputs.iter().find(|(n, _)| n == lc).map(|(_, o)| o) {
                    condition_origins.extend(o.iter().cloned());
                }
                if let Some(o) = r.outputs.iter().find(|(n, _)| n == rc).map(|(_, o)| o) {
                    condition_origins.extend(o.iter().cloned());
                }
            }
            ColumnOrigins {
                outputs,
                tables,
                condition_origins,
            }
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let inner = analyze(input, cat)?;
            let mut outputs = Vec::with_capacity(group_by.len() + aggs.len());
            for g in group_by {
                let o = inner.of(g).cloned().unwrap_or_default();
                outputs.push((g.clone(), o));
            }
            for a in aggs {
                let o = match &a.arg {
                    Some(c) => inner.of(c).cloned().unwrap_or_default(),
                    None => BTreeSet::new(),
                };
                outputs.push((a.name.clone(), o));
            }
            ColumnOrigins {
                outputs,
                tables: inner.tables,
                condition_origins: inner.condition_origins,
            }
        }
        Plan::Union { left, right } => {
            let l = analyze(left, cat)?;
            let r = analyze(right, cat)?;
            let outputs = l
                .outputs
                .iter()
                .zip(r.outputs.iter())
                .map(|((n, lo), (_, ro))| {
                    let mut o = lo.clone();
                    o.extend(ro.iter().cloned());
                    (n.clone(), o)
                })
                .collect();
            let mut tables = l.tables;
            tables.extend(r.tables);
            let mut condition_origins = l.condition_origins;
            condition_origins.extend(r.condition_origins);
            ColumnOrigins {
                outputs,
                tables,
                condition_origins,
            }
        }
        Plan::Distinct { input } | Plan::Limit { input, .. } => analyze(input, cat)?,
        Plan::Sort { input, keys } => {
            // ORDER BY reveals the ordering of the key columns even when
            // they are not projected — they are condition origins.
            let mut o = analyze(input, cat)?;
            for k in keys {
                if let Some(ko) = o.of(&k.column) {
                    let ko = ko.clone();
                    o.condition_origins.extend(ko);
                }
            }
            o
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::tests::paper_catalog;
    use crate::plan::{scan, AggItem};
    use bi_relation::expr::{col, lit, Func};

    fn origin(t: &str, c: &str) -> Origin {
        (t.to_string(), c.to_string())
    }

    #[test]
    fn scan_origins_are_identity() {
        let cat = paper_catalog();
        let o = origins(&scan("DrugCost"), &cat).unwrap();
        assert_eq!(
            o.of("Cost").unwrap().iter().next().unwrap(),
            &origin("DrugCost", "Cost")
        );
        assert!(o.tables.contains("DrugCost"));
        assert!(o.condition_origins.is_empty());
    }

    #[test]
    fn renames_and_computed_columns_tracked() {
        let cat = paper_catalog();
        let p = scan("Prescriptions").project(vec![
            ("who".to_string(), col("Patient")),
            (
                "tag".to_string(),
                bi_relation::Expr::Func(Func::Concat, vec![col("Drug"), col("Disease")]),
            ),
        ]);
        let o = origins(&p, &cat).unwrap();
        assert_eq!(o.of("who").unwrap().len(), 1);
        assert!(o
            .of("who")
            .unwrap()
            .contains(&origin("Prescriptions", "Patient")));
        let tag = o.of("tag").unwrap();
        assert!(tag.contains(&origin("Prescriptions", "Drug")));
        assert!(tag.contains(&origin("Prescriptions", "Disease")));
    }

    #[test]
    fn filters_contribute_condition_origins() {
        let cat = paper_catalog();
        // Paper §5: the HIV column used "only for purposes of defining
        // PLAs" still influences visibility — it must show up as a
        // condition origin.
        let p = scan("Prescriptions")
            .filter(col("Disease").ne(lit("HIV")))
            .project_cols(&["Patient", "Drug"]);
        let o = origins(&p, &cat).unwrap();
        assert!(o
            .all_output_origins()
            .contains(&origin("Prescriptions", "Patient")));
        assert!(!o
            .all_output_origins()
            .contains(&origin("Prescriptions", "Disease")));
        assert!(o
            .condition_origins
            .contains(&origin("Prescriptions", "Disease")));
        assert!(o
            .all_origins()
            .contains(&origin("Prescriptions", "Disease")));
    }

    #[test]
    fn joins_merge_and_prefix() {
        let cat = paper_catalog();
        let p = scan("Prescriptions").join(
            scan("DrugCost"),
            vec![("Drug".into(), "Drug".into())],
            "dc",
        );
        let o = origins(&p, &cat).unwrap();
        assert!(o
            .of("dc.Drug")
            .unwrap()
            .contains(&origin("DrugCost", "Drug")));
        assert!(o.of("Cost").unwrap().contains(&origin("DrugCost", "Cost")));
        // Join keys are condition origins from both sides.
        assert!(o
            .condition_origins
            .contains(&origin("Prescriptions", "Drug")));
        assert!(o.condition_origins.contains(&origin("DrugCost", "Drug")));
        assert_eq!(o.tables.len(), 2);
    }

    #[test]
    fn aggregates_and_count_star() {
        let cat = paper_catalog();
        let p = scan("Prescriptions").aggregate(
            vec!["Drug".into()],
            vec![AggItem::count_star("Consumption")],
        );
        let o = origins(&p, &cat).unwrap();
        assert!(o
            .of("Drug")
            .unwrap()
            .contains(&origin("Prescriptions", "Drug")));
        assert!(
            o.of("Consumption").unwrap().is_empty(),
            "count(*) reveals no attribute"
        );
    }

    #[test]
    fn views_expand_to_base_tables() {
        let mut cat = paper_catalog();
        cat.add_view(
            "NonHiv",
            scan("Prescriptions").filter(col("Disease").ne(lit("HIV"))),
        )
        .unwrap();
        let o = origins(&scan("NonHiv").project_cols(&["Patient"]), &cat).unwrap();
        assert!(o.tables.contains("Prescriptions"));
        assert!(!o.tables.contains("NonHiv"));
        assert!(o
            .condition_origins
            .contains(&origin("Prescriptions", "Disease")));
    }

    #[test]
    fn union_merges_positionally() {
        let cat = paper_catalog();
        let a = scan("Prescriptions").project_cols(&["Drug"]);
        let b = scan("DrugCost").project_cols(&["Drug"]);
        let o = origins(&a.union(b), &cat).unwrap();
        let d = o.of("Drug").unwrap();
        assert!(d.contains(&origin("Prescriptions", "Drug")));
        assert!(d.contains(&origin("DrugCost", "Drug")));
    }
}
