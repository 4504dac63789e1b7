//! Plan execution with provenance propagation.
//!
//! [`pexecute`] mirrors `bi-query`'s evaluator but every row carries its
//! annotation vector. Propagation rules (where-provenance):
//!
//! * **filter/sort/limit** — annotations travel with their rows;
//! * **project** — an output cell collects the annotations of every
//!   input column its expression mentions (literals contribute nothing);
//! * **join** — output rows concatenate both sides' annotations;
//! * **aggregate** — a group column keeps the union of that column's
//!   annotations over the group; an aggregate cell collects its argument
//!   column over the group (`COUNT(*)` collects the whole group — every
//!   source row witnesses the count);
//! * **distinct** — surviving rows absorb the annotations of the
//!   duplicates they eliminated (all of them justify the value);
//! * **union** — rows keep their own annotations.

use std::collections::HashMap;

use bi_query::{Catalog, Plan, QueryError};
use bi_relation::Table;
use bi_types::{Schema, Value};

use crate::annotated::{AnnSet, AnnotatedTable};

/// A catalog plus pre-annotated intermediate tables.
///
/// ETL stages chain: the staging area's tables are themselves outputs of
/// annotated extraction, so their cells already carry source tokens.
/// `ProvCatalog` lets a scan of such a table pick up the existing
/// annotations instead of minting fresh ones.
pub struct ProvCatalog<'a> {
    catalog: &'a Catalog,
    pre_annotated: HashMap<String, &'a AnnotatedTable>,
}

impl<'a> ProvCatalog<'a> {
    /// A provenance catalog where every base table is self-annotated.
    pub fn new(catalog: &'a Catalog) -> Self {
        ProvCatalog {
            catalog,
            pre_annotated: HashMap::new(),
        }
    }

    /// Registers an already-annotated table under its name; scans of that
    /// name reuse its annotations.
    pub fn with_annotated(mut self, at: &'a AnnotatedTable) -> Self {
        self.pre_annotated.insert(at.table().name().to_string(), at);
        self
    }

    /// The underlying plain catalog.
    pub fn catalog(&self) -> &Catalog {
        self.catalog
    }
}

struct PGrid {
    table: Table,
    anns: Vec<Vec<AnnSet>>,
}

impl PGrid {
    fn from_annotated(at: &AnnotatedTable) -> Self {
        PGrid {
            table: at.table().clone(),
            anns: at.annotations().to_vec(),
        }
    }
}

/// Executes `plan` with provenance propagation.
pub fn pexecute(plan: &Plan, pcat: &ProvCatalog<'_>) -> Result<AnnotatedTable, QueryError> {
    let g = walk(plan, pcat)?;
    AnnotatedTable::from_parts(g.table, g.anns).map_err(|m| QueryError::BadAggregate {
        reason: format!("internal provenance shape error: {m}"),
    })
}

fn walk(plan: &Plan, pcat: &ProvCatalog<'_>) -> Result<PGrid, QueryError> {
    match plan {
        Plan::Scan { table } => {
            if let Some(at) = pcat.pre_annotated.get(table) {
                return Ok(PGrid::from_annotated(at));
            }
            if let Some(t) = pcat.catalog.table(table) {
                return Ok(PGrid::from_annotated(&AnnotatedTable::annotate_base(
                    t.clone(),
                )));
            }
            // Views: propagate through the body.
            let Some(body) = pcat.catalog.view(table) else {
                return Err(QueryError::UnknownRelation {
                    name: table.clone(),
                });
            };
            let mut g = walk(body, pcat)?;
            g.table.set_name(table.clone());
            Ok(g)
        }
        Plan::Filter { input, pred } => {
            let g = walk(input, pcat)?;
            let schema = g.table.schema().clone();
            // Compile the predicate once for the whole pass.
            let program = bi_relation::Program::compile(pred, &schema);
            let mut vm = bi_relation::Vm::new();
            let mut table = Table::new(g.table.name().to_string(), schema.clone());
            let mut anns = Vec::new();
            for (row, ann) in g.table.rows().iter().zip(g.anns.iter()) {
                let v = vm.run(&program, row);
                let keep = v.map_err(QueryError::from)?.as_bool().unwrap_or(false);
                if keep {
                    table.push_row(row.clone())?;
                    anns.push(ann.clone());
                }
            }
            Ok(PGrid { table, anns })
        }
        Plan::Project { input, items } => {
            let g = walk(input, pcat)?;
            let in_schema = g.table.schema().clone();
            let table = g.table.map_rows(items)?;
            // Pre-resolve which input columns each item depends on.
            let deps: Vec<Vec<usize>> = items
                .iter()
                .map(|(_, e)| {
                    e.columns_used()
                        .into_iter()
                        .filter_map(|c| in_schema.index_of(&c).ok())
                        .collect()
                })
                .collect();
            let anns = g
                .anns
                .iter()
                .map(|row_ann| {
                    deps.iter()
                        .map(|cols| {
                            let mut s = AnnSet::new();
                            for &c in cols {
                                s.extend(row_ann[c].iter().cloned());
                            }
                            s
                        })
                        .collect()
                })
                .collect();
            Ok(PGrid { table, anns })
        }
        Plan::Join {
            left,
            right,
            kind,
            on,
            right_prefix,
        } => {
            let l = walk(left, pcat)?;
            let r = walk(right, pcat)?;
            pjoin(&l, &r, *kind, on, right_prefix)
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let g = walk(input, pcat)?;
            paggregate(&g, group_by, aggs, pcat)
        }
        Plan::Union { left, right } => {
            let l = walk(left, pcat)?;
            let r = walk(right, pcat)?;
            let table = l.table.union_all(&r.table)?;
            let mut anns = l.anns;
            anns.extend(r.anns);
            Ok(PGrid { table, anns })
        }
        Plan::Distinct { input } => {
            let g = walk(input, pcat)?;
            let mut seen: HashMap<Vec<Value>, usize> = HashMap::new();
            let mut table = Table::new(g.table.name().to_string(), g.table.schema().clone());
            let mut anns: Vec<Vec<AnnSet>> = Vec::new();
            for (row, ann) in g.table.rows().iter().zip(g.anns.iter()) {
                match seen.get(row) {
                    Some(&i) => {
                        // Merge the duplicate's annotations into the keeper.
                        for (dst, src) in anns[i].iter_mut().zip(ann.iter()) {
                            dst.extend(src.iter().cloned());
                        }
                    }
                    None => {
                        seen.insert(row.clone(), anns.len());
                        table.push_row(row.clone())?;
                        anns.push(ann.clone());
                    }
                }
            }
            Ok(PGrid { table, anns })
        }
        Plan::Sort { input, keys } => {
            let g = walk(input, pcat)?;
            let idxs: Vec<usize> = keys
                .iter()
                .map(|k| g.table.schema().index_of(&k.column))
                .collect::<Result<_, _>>()
                .map_err(QueryError::from)?;
            let mut order: Vec<usize> = (0..g.table.len()).collect();
            order.sort_by(|&a, &b| {
                for (ki, &c) in idxs.iter().enumerate() {
                    let ord = g.table.rows()[a][c].cmp(&g.table.rows()[b][c]);
                    let ord = if keys[ki].descending {
                        ord.reverse()
                    } else {
                        ord
                    };
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            let mut table = Table::new(g.table.name().to_string(), g.table.schema().clone());
            let mut anns = Vec::with_capacity(order.len());
            for &i in &order {
                table.push_row(g.table.rows()[i].clone())?;
                anns.push(g.anns[i].clone());
            }
            Ok(PGrid { table, anns })
        }
        Plan::Limit { input, n } => {
            let g = walk(input, pcat)?;
            let rows: Vec<_> = g.table.rows().iter().take(*n).cloned().collect();
            let table =
                Table::from_rows(g.table.name().to_string(), g.table.schema().clone(), rows)?;
            let anns = g.anns.into_iter().take(*n).collect();
            Ok(PGrid { table, anns })
        }
    }
}

fn pjoin(
    l: &PGrid,
    r: &PGrid,
    kind: bi_query::JoinKind,
    on: &[(String, String)],
    right_prefix: &str,
) -> Result<PGrid, QueryError> {
    // Reuse the plain executor for values by embedding both sides as
    // fresh tables, then recompute matches for annotations. Simpler and
    // safer: re-implement the (small) join here so values and annotations
    // stay in lock-step.
    let mut schema = l.table.schema().join(r.table.schema(), right_prefix)?;
    if kind == bi_query::JoinKind::Left {
        let mut cols = schema.columns().to_vec();
        for c in cols.iter_mut().skip(l.table.schema().len()) {
            c.nullable = true;
        }
        schema = Schema::new(cols)?;
    }
    let lk: Vec<usize> = on
        .iter()
        .map(|(a, _)| l.table.schema().index_of(a))
        .collect::<Result<_, _>>()
        .map_err(QueryError::from)?;
    let rk: Vec<usize> = on
        .iter()
        .map(|(_, b)| r.table.schema().index_of(b))
        .collect::<Result<_, _>>()
        .map_err(QueryError::from)?;
    let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (i, row) in r.table.rows().iter().enumerate() {
        let key: Vec<Value> = rk.iter().map(|&c| row[c].clone()).collect();
        if !key.iter().any(Value::is_null) {
            index.entry(key).or_default().push(i);
        }
    }
    let right_width = r.table.schema().len();
    // Same naming rule as the plain executor: `A⋈A` must not collide
    // with `A` in downstream catalogs.
    let mut table = Table::new(bi_query::exec::join_output_name(&l.table, &r.table), schema);
    let mut anns = Vec::new();
    for (li, lrow) in l.table.rows().iter().enumerate() {
        let key: Vec<Value> = lk.iter().map(|&c| lrow[c].clone()).collect();
        let matches: &[usize] = if key.iter().any(Value::is_null) {
            &[]
        } else {
            index.get(&key).map(Vec::as_slice).unwrap_or(&[])
        };
        if matches.is_empty() {
            if kind == bi_query::JoinKind::Left {
                let mut row = lrow.clone();
                row.extend(std::iter::repeat_n(Value::Null, right_width));
                table.push_row(row)?;
                let mut a = l.anns[li].clone();
                a.extend(std::iter::repeat_n(AnnSet::new(), right_width));
                anns.push(a);
            }
            continue;
        }
        for &ri in matches {
            let mut row = lrow.clone();
            row.extend(r.table.rows()[ri].iter().cloned());
            table.push_row(row)?;
            let mut a = l.anns[li].clone();
            a.extend(r.anns[ri].iter().cloned());
            anns.push(a);
        }
    }
    Ok(PGrid { table, anns })
}

fn paggregate(
    g: &PGrid,
    group_by: &[String],
    aggs: &[bi_query::AggItem],
    pcat: &ProvCatalog<'_>,
) -> Result<PGrid, QueryError> {
    // Values: delegate to the plain executor over a throwaway catalog so
    // aggregate semantics stay identical.
    let mut tmp = Catalog::new();
    let mut input = g.table.clone();
    input.set_name("__prov_agg_input".to_string());
    tmp.add_table(input)?;
    let plan = bi_query::plan::scan("__prov_agg_input").aggregate(group_by.to_vec(), aggs.to_vec());
    let result = bi_query::execute(&plan, &tmp)?;
    let _ = pcat;

    // Annotations: recompute groups with the same deterministic grouping.
    let keys: Vec<&str> = group_by.iter().map(String::as_str).collect();
    let groups: Vec<(Vec<&Value>, Vec<usize>)> = if group_by.is_empty() {
        vec![(Vec::new(), (0..g.table.len()).collect())]
    } else {
        g.table.group_indices(&keys).map_err(QueryError::from)?
    };
    let gcols: Vec<usize> = group_by
        .iter()
        .map(|c| g.table.schema().index_of(c))
        .collect::<Result<_, _>>()
        .map_err(QueryError::from)?;
    let acols: Vec<Option<usize>> = aggs
        .iter()
        .map(|a| {
            a.arg
                .as_deref()
                .map(|c| g.table.schema().index_of(c))
                .transpose()
        })
        .collect::<Result<_, _>>()
        .map_err(QueryError::from)?;

    let mut anns = Vec::with_capacity(groups.len());
    for (_, rows) in &groups {
        let mut row_ann: Vec<AnnSet> = Vec::with_capacity(gcols.len() + aggs.len());
        for &c in &gcols {
            let mut s = AnnSet::new();
            for &r in rows {
                s.extend(g.anns[r][c].iter().cloned());
            }
            row_ann.push(s);
        }
        for arg in &acols {
            let mut s = AnnSet::new();
            match arg {
                Some(c) => {
                    for &r in rows {
                        s.extend(g.anns[r][*c].iter().cloned());
                    }
                }
                None => {
                    // COUNT(*): every cell of every group row witnesses.
                    for &r in rows {
                        for cell in &g.anns[r] {
                            s.extend(cell.iter().cloned());
                        }
                    }
                }
            }
            row_ann.push(s);
        }
        anns.push(row_ann);
    }
    let mut out = result;
    out.set_name(g.table.name().to_string());
    Ok(PGrid { table: out, anns })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::ProvToken;
    use bi_query::plan::{scan, AggItem};
    use bi_relation::expr::{col, lit};
    use bi_types::{Column, DataType};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(
            Table::from_rows(
                "Prescriptions",
                Schema::new(vec![
                    Column::new("Patient", DataType::Text),
                    Column::new("Drug", DataType::Text),
                    Column::new("Disease", DataType::Text),
                ])
                .unwrap(),
                vec![
                    vec!["Alice".into(), "DH".into(), "HIV".into()],
                    vec!["Bob".into(), "DR".into(), "asthma".into()],
                    vec!["Alice".into(), "DR".into(), "asthma".into()],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        cat.add_table(
            Table::from_rows(
                "DrugCost",
                Schema::new(vec![
                    Column::new("Drug", DataType::Text),
                    Column::new("Cost", DataType::Int),
                ])
                .unwrap(),
                vec![
                    vec!["DH".into(), Value::Int(60)],
                    vec!["DR".into(), Value::Int(10)],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        cat
    }

    #[test]
    fn filter_and_project_propagate() {
        let cat = catalog();
        let pcat = ProvCatalog::new(&cat);
        let p = scan("Prescriptions")
            .filter(col("Disease").eq(lit("asthma")))
            .project_cols(&["Patient"]);
        let at = pexecute(&p, &pcat).unwrap();
        assert_eq!(at.table().len(), 2);
        // First asthma row is source row 1 (Bob).
        let ann = at.cell_annotation(0, "Patient").unwrap();
        assert_eq!(ann.len(), 1);
        assert!(ann.contains(&ProvToken::new("Prescriptions", 1, "Patient")));
    }

    #[test]
    fn computed_projection_unions_dependencies() {
        let cat = catalog();
        let pcat = ProvCatalog::new(&cat);
        let p = scan("Prescriptions").project(vec![(
            "tag".to_string(),
            bi_relation::Expr::Func(bi_relation::Func::Concat, vec![col("Drug"), col("Disease")]),
        )]);
        let at = pexecute(&p, &pcat).unwrap();
        let ann = at.cell_annotation(0, "tag").unwrap();
        assert!(ann.contains(&ProvToken::new("Prescriptions", 0, "Drug")));
        assert!(ann.contains(&ProvToken::new("Prescriptions", 0, "Disease")));
        assert_eq!(ann.len(), 2);
    }

    #[test]
    fn join_concatenates_annotations() {
        let cat = catalog();
        let pcat = ProvCatalog::new(&cat);
        let p = scan("Prescriptions").join(
            scan("DrugCost"),
            vec![("Drug".into(), "Drug".into())],
            "dc",
        );
        let at = pexecute(&p, &pcat).unwrap();
        assert_eq!(at.table().len(), 3);
        let cost_ann = at.cell_annotation(0, "Cost").unwrap();
        assert!(cost_ann.contains(&ProvToken::new("DrugCost", 0, "Cost")));
        let pat_ann = at.cell_annotation(0, "Patient").unwrap();
        assert!(pat_ann.contains(&ProvToken::new("Prescriptions", 0, "Patient")));
    }

    /// Regression: the join output used to be named after the left input,
    /// so a self-join's provenance grid collided with its own base table.
    /// The name must match the plain executor's `left⋈right`.
    #[test]
    fn join_output_name_matches_plain_executor() {
        let cat = catalog();
        let pcat = ProvCatalog::new(&cat);
        let p = scan("Prescriptions").join(
            scan("Prescriptions"),
            vec![("Drug".into(), "Drug".into())],
            "r",
        );
        let at = pexecute(&p, &pcat).unwrap();
        let plain = bi_query::execute(&p, &cat).unwrap();
        assert_eq!(at.table().name(), "Prescriptions⋈Prescriptions");
        assert_eq!(at.table().name(), plain.name());
        assert_eq!(at.table().rows(), plain.rows());
    }

    #[test]
    fn aggregate_collects_group_provenance() {
        let cat = catalog();
        let pcat = ProvCatalog::new(&cat);
        let p =
            scan("Prescriptions").aggregate(vec!["Drug".into()], vec![AggItem::count_star("n")]);
        let at = pexecute(&p, &pcat).unwrap();
        // DR group contains source rows 1 and 2.
        let dr_row = at
            .table()
            .rows()
            .iter()
            .position(|r| r[0] == Value::from("DR"))
            .unwrap();
        let drug_ann = at.cell_annotation(dr_row, "Drug").unwrap();
        assert!(drug_ann.contains(&ProvToken::new("Prescriptions", 1, "Drug")));
        assert!(drug_ann.contains(&ProvToken::new("Prescriptions", 2, "Drug")));
        // count(*) witnesses every cell of the group's rows.
        let n_ann = at.cell_annotation(dr_row, "n").unwrap();
        assert!(n_ann.contains(&ProvToken::new("Prescriptions", 1, "Disease")));
        assert!(n_ann.contains(&ProvToken::new("Prescriptions", 2, "Patient")));
    }

    #[test]
    fn distinct_merges_duplicate_annotations() {
        let cat = catalog();
        let pcat = ProvCatalog::new(&cat);
        let p = scan("Prescriptions").project_cols(&["Patient"]).distinct();
        let at = pexecute(&p, &pcat).unwrap();
        assert_eq!(at.table().len(), 2);
        let alice = at
            .table()
            .rows()
            .iter()
            .position(|r| r[0] == Value::from("Alice"))
            .unwrap();
        let ann = at.cell_annotation(alice, "Patient").unwrap();
        assert!(ann.contains(&ProvToken::new("Prescriptions", 0, "Patient")));
        assert!(ann.contains(&ProvToken::new("Prescriptions", 2, "Patient")));
    }

    #[test]
    fn values_agree_with_plain_execution() {
        let cat = catalog();
        let pcat = ProvCatalog::new(&cat);
        let p = scan("Prescriptions")
            .join(scan("DrugCost"), vec![("Drug".into(), "Drug".into())], "dc")
            .aggregate(
                vec!["Patient".into()],
                vec![AggItem::new("spend", bi_query::AggFunc::Sum, "Cost")],
            )
            .sort(vec![bi_query::SortKey::asc("Patient")]);
        let plain = bi_query::execute(&p, &cat).unwrap();
        let annotated = pexecute(&p, &pcat).unwrap();
        assert_eq!(plain.rows(), annotated.table().rows());
    }

    #[test]
    fn pre_annotated_tables_chain() {
        let cat = catalog();
        let pcat = ProvCatalog::new(&cat);
        // Stage 1: staging extract.
        let stage1 = pexecute(
            &scan("Prescriptions").project_cols(&["Patient", "Drug"]),
            &pcat,
        )
        .unwrap();
        let mut staged = stage1.table().clone();
        staged.set_name("Staged".to_string());
        let stage1 = AnnotatedTable::from_parts(staged, stage1.annotations().to_vec()).unwrap();
        // Stage 2: query over the staging table, with annotations chained.
        let mut cat2 = cat.clone();
        cat2.add_table(stage1.table().clone()).unwrap();
        let pcat2 = ProvCatalog::new(&cat2).with_annotated(&stage1);
        let at = pexecute(
            &scan("Staged").filter(col("Patient").eq(lit("Bob"))),
            &pcat2,
        )
        .unwrap();
        let ann = at.cell_annotation(0, "Drug").unwrap();
        assert!(
            ann.contains(&ProvToken::new("Prescriptions", 1, "Drug")),
            "tokens still point at the original source, not the staging table"
        );
    }
}
