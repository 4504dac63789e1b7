//! Report-evolution workloads (experiment E5 / Fig. 5 driver).
//!
//! "BI reports are in constant evolution. It is very common to add new
//! reports or modify existing ones, especially in the period after the
//! initial deployment." This module generates seeded random report
//! portfolios and evolution streams (add / modify / remove) over a
//! declared *report universe* — which tables exist, which columns can
//! group/filter/measure, which joins are available.

use bi_query::plan::{scan, AggFunc, AggItem, Plan};
use bi_relation::expr::{col, Expr};
use bi_types::{ReportId, RoleId, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::spec::ReportSpec;

/// What random reports may be built from.
#[derive(Debug, Clone)]
pub struct ReportUniverse {
    pub tables: Vec<TableDesc>,
    /// Available joins: `(left table, left col, right table, right col)`.
    pub joins: Vec<(String, String, String, String)>,
    /// Roles reports get assigned to.
    pub roles: Vec<RoleId>,
}

/// One table's report-relevant columns.
#[derive(Debug, Clone)]
pub struct TableDesc {
    pub name: String,
    /// Columns suitable for grouping / projecting.
    pub group_cols: Vec<String>,
    /// Numeric measure columns (sum/avg/min/max).
    pub measure_cols: Vec<String>,
    /// Filterable columns with sample value pools.
    pub filter_cols: Vec<(String, Vec<Value>)>,
}

/// One portfolio change.
#[derive(Debug, Clone)]
pub enum EvolutionEvent {
    Add(ReportSpec),
    /// Replace the plan of an existing report.
    Modify(ReportId, Plan),
    Remove(ReportId),
}

/// Workload shape parameters.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadParams {
    pub seed: u64,
    pub initial_reports: usize,
    pub epochs: usize,
    pub events_per_epoch: usize,
    /// Relative weights of add / modify / remove.
    pub w_add: u32,
    pub w_modify: u32,
    pub w_remove: u32,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            seed: 42,
            initial_reports: 10,
            epochs: 10,
            events_per_epoch: 3,
            w_add: 4,
            w_modify: 4,
            w_remove: 1,
        }
    }
}

/// A generated workload: the initial portfolio and per-epoch events.
#[derive(Debug, Clone)]
pub struct EvolutionWorkload {
    pub initial: Vec<ReportSpec>,
    pub epochs: Vec<Vec<EvolutionEvent>>,
}

impl EvolutionWorkload {
    /// Generates a workload over the universe.
    pub fn generate(params: WorkloadParams, universe: &ReportUniverse) -> Self {
        assert!(
            !universe.tables.is_empty(),
            "universe needs at least one table"
        );
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut next_id = 0usize;
        let fresh_id = |next_id: &mut usize| {
            let id = ReportId::new(format!("r{:04}", *next_id));
            *next_id += 1;
            id
        };

        let mut live: Vec<ReportId> = Vec::new();
        let mut initial = Vec::new();
        // The universe has tables, so every random report below exists.
        for _ in 0..params.initial_reports {
            let id = fresh_id(&mut next_id);
            live.push(id.clone());
            initial.extend(random_report(id, universe, &mut rng));
        }

        let total_w = params.w_add + params.w_modify + params.w_remove;
        assert!(total_w > 0, "at least one event weight must be positive");
        let mut epochs = Vec::with_capacity(params.epochs);
        for _ in 0..params.epochs {
            let mut events = Vec::with_capacity(params.events_per_epoch);
            for _ in 0..params.events_per_epoch {
                let roll = rng.gen_range(0..total_w);
                if roll < params.w_add || live.is_empty() {
                    let id = fresh_id(&mut next_id);
                    live.push(id.clone());
                    events.extend(random_report(id, universe, &mut rng).map(EvolutionEvent::Add));
                } else if roll < params.w_add + params.w_modify {
                    // `live` is non-empty here: an empty one adds instead.
                    let id = live.choose(&mut rng).cloned();
                    if let (Some(id), Some(plan)) = (id, random_plan(universe, &mut rng)) {
                        events.push(EvolutionEvent::Modify(id, plan));
                    }
                } else {
                    let i = rng.gen_range(0..live.len());
                    let id = live.remove(i);
                    events.push(EvolutionEvent::Remove(id));
                }
            }
            epochs.push(events);
        }
        EvolutionWorkload { initial, epochs }
    }

    /// Total number of events.
    pub fn event_count(&self) -> usize {
        self.epochs.iter().map(Vec::len).sum()
    }
}

/// A random report; `None` only for a universe without tables.
fn random_report(id: ReportId, universe: &ReportUniverse, rng: &mut StdRng) -> Option<ReportSpec> {
    let plan = random_plan(universe, rng)?;
    let role = universe
        .roles
        .choose(rng)
        .cloned()
        .unwrap_or_else(|| RoleId::new("analyst"));
    let title = format!("Report {}", id.as_str());
    Some(ReportSpec::new(id, title, plan, [role]))
}

/// Builds a random SPJA plan: 1–2 tables (joined when 2), 0–2 filters,
/// an aggregation over 1–2 group columns with count + optional
/// sum/avg/min/max of a measure. Always aggregated — the paper's BI
/// reports are aggregate views, and raw row dumps would trip every
/// aggregation-threshold PLA. `None` only for a universe without tables.
fn random_plan(universe: &ReportUniverse, rng: &mut StdRng) -> Option<Plan> {
    // Pick the base table, possibly extended by one available join.
    let base = universe.tables.choose(rng)?;
    let join = if rng.gen_bool(0.4) {
        universe
            .joins
            .iter()
            .filter(|(lt, _, rt, _)| lt == &base.name || rt == &base.name)
            .collect::<Vec<_>>()
            .choose(rng)
            .copied()
            .cloned()
    } else {
        None
    };

    let mut plan = scan(&base.name);
    let mut joined_table: Option<&TableDesc> = None;
    if let Some((lt, lc, rt, rc)) = &join {
        // Orient so the scan of `base` is on the left.
        let (other_name, left_col, right_col) = if lt == &base.name {
            (rt.clone(), lc.clone(), rc.clone())
        } else {
            (lt.clone(), rc.clone(), lc.clone())
        };
        if let Some(other) = universe.tables.iter().find(|t| t.name == other_name) {
            plan = plan.join(scan(&other.name), vec![(left_col, right_col)], "j");
            joined_table = Some(other);
        }
    }

    // Filters.
    let n_filters = rng.gen_range(0..=2usize);
    for _ in 0..n_filters {
        let pool: Vec<&(String, Vec<Value>)> = base
            .filter_cols
            .iter()
            .chain(joined_table.iter().flat_map(|t| t.filter_cols.iter()))
            .collect();
        if let Some((c, vals)) = pool.choose(rng) {
            // An empty value pool draws nothing and adds no filter.
            let pred: Option<Expr> = if vals.len() > 1 && rng.gen_bool(0.5) {
                let k = rng.gen_range(1..=vals.len().min(3));
                let mut chosen: Vec<Value> = vals.clone();
                chosen.shuffle(rng);
                chosen.truncate(k);
                Some(Expr::InList(Box::new(col(c.clone())), chosen))
            } else {
                vals.choose(rng)
                    .map(|v| col(c.clone()).eq(Expr::Lit(v.clone())))
            };
            if let Some(pred) = pred {
                plan = plan.filter(pred);
            }
        }
    }

    // Aggregation.
    let group_pool: Vec<&String> = base
        .group_cols
        .iter()
        .chain(joined_table.iter().flat_map(|t| t.group_cols.iter()))
        .collect();
    let n_groups = rng.gen_range(1..=2usize.min(group_pool.len().max(1)));
    let mut groups: Vec<String> = Vec::new();
    let mut pool = group_pool.clone();
    pool.shuffle(rng);
    for g in pool.into_iter().take(n_groups) {
        if !groups.contains(g) {
            groups.push(g.clone());
        }
    }
    let mut aggs = vec![AggItem::count_star("n")];
    let measure_pool: Vec<&String> = base
        .measure_cols
        .iter()
        .chain(joined_table.iter().flat_map(|t| t.measure_cols.iter()))
        .collect();
    if !measure_pool.is_empty() && rng.gen_bool(0.6) {
        const FUNCS: [AggFunc; 4] = [AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max];
        if let (Some(m), Some(&func)) = (measure_pool.choose(rng), FUNCS.choose(rng)) {
            aggs.push(AggItem::new(
                format!("{}_{}", func.name(), m),
                func,
                m.as_str(),
            ));
        }
    }
    Some(plan.aggregate(groups, aggs))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bi_query::Catalog;
    use bi_relation::Table;
    use bi_types::{Column, DataType, Schema};

    pub(crate) fn universe() -> ReportUniverse {
        ReportUniverse {
            tables: vec![
                TableDesc {
                    name: "Fact".into(),
                    group_cols: vec!["Drug".into(), "Disease".into()],
                    measure_cols: vec!["Cost".into()],
                    filter_cols: vec![
                        (
                            "Disease".into(),
                            vec!["HIV".into(), "asthma".into(), "diabetes".into()],
                        ),
                        (
                            "Drug".into(),
                            vec!["DH".into(), "DR".into(), "DM".into(), "DV".into()],
                        ),
                    ],
                },
                TableDesc {
                    name: "DimDrug".into(),
                    group_cols: vec!["Family".into()],
                    measure_cols: vec![],
                    filter_cols: vec![(
                        "Family".into(),
                        vec!["antiviral".into(), "respiratory".into()],
                    )],
                },
            ],
            joins: vec![("Fact".into(), "Drug".into(), "DimDrug".into(), "Key".into())],
            roles: vec![RoleId::new("analyst"), RoleId::new("auditor")],
        }
    }

    pub(crate) fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(
            Table::from_rows(
                "Fact",
                Schema::new(vec![
                    Column::new("Patient", DataType::Text),
                    Column::new("Drug", DataType::Text),
                    Column::new("Disease", DataType::Text),
                    Column::new("Cost", DataType::Int),
                ])
                .unwrap(),
                vec![
                    vec!["Alice".into(), "DH".into(), "HIV".into(), 60.into()],
                    vec!["Bob".into(), "DR".into(), "asthma".into(), 10.into()],
                    vec!["Math".into(), "DM".into(), "diabetes".into(), 10.into()],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        cat.add_table(
            Table::from_rows(
                "DimDrug",
                Schema::new(vec![
                    Column::new("Key", DataType::Text),
                    Column::new("Family", DataType::Text),
                ])
                .unwrap(),
                vec![
                    vec!["DH".into(), "antiviral".into()],
                    vec!["DR".into(), "respiratory".into()],
                    vec!["DM".into(), "metabolic".into()],
                    vec!["DV".into(), "antiviral".into()],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        cat
    }

    #[test]
    fn deterministic_per_seed() {
        let params = WorkloadParams::default();
        let a = EvolutionWorkload::generate(params, &universe());
        let b = EvolutionWorkload::generate(params, &universe());
        assert_eq!(a.initial.len(), b.initial.len());
        assert_eq!(format!("{:?}", a.epochs), format!("{:?}", b.epochs));
        let c = EvolutionWorkload::generate(WorkloadParams { seed: 7, ..params }, &universe());
        assert_ne!(
            format!("{:?}", a.epochs),
            format!("{:?}", c.epochs),
            "seeds differ"
        );
    }

    #[test]
    fn all_generated_plans_execute() {
        let cat = catalog();
        let w = EvolutionWorkload::generate(
            WorkloadParams {
                initial_reports: 20,
                epochs: 5,
                events_per_epoch: 5,
                ..Default::default()
            },
            &universe(),
        );
        for r in &w.initial {
            bi_query::execute(&r.plan, &cat).expect("initial plan executes");
        }
        for ev in w.epochs.iter().flatten() {
            match ev {
                EvolutionEvent::Add(r) => {
                    bi_query::execute(&r.plan, &cat).expect("added plan executes");
                }
                EvolutionEvent::Modify(_, p) => {
                    bi_query::execute(p, &cat).expect("modified plan executes");
                }
                EvolutionEvent::Remove(_) => {}
            }
        }
    }

    #[test]
    fn all_generated_plans_normalize() {
        // Containment must be able to reason about every generated plan —
        // otherwise E5's coverage measurements would be vacuous.
        let cat = catalog();
        let w = EvolutionWorkload::generate(
            WorkloadParams {
                initial_reports: 30,
                epochs: 3,
                events_per_epoch: 4,
                ..Default::default()
            },
            &universe(),
        );
        for r in &w.initial {
            bi_query::contain::normalize(&r.plan, &cat).expect("normalizable");
        }
    }

    #[test]
    fn ids_unique_and_removals_consistent() {
        let w = EvolutionWorkload::generate(
            WorkloadParams {
                initial_reports: 5,
                epochs: 10,
                events_per_epoch: 4,
                w_remove: 3,
                ..Default::default()
            },
            &universe(),
        );
        let mut seen = std::collections::HashSet::new();
        let mut live = std::collections::HashSet::new();
        for r in &w.initial {
            assert!(seen.insert(r.id.clone()), "duplicate id");
            live.insert(r.id.clone());
        }
        for ev in w.epochs.iter().flatten() {
            match ev {
                EvolutionEvent::Add(r) => {
                    assert!(seen.insert(r.id.clone()), "duplicate id");
                    live.insert(r.id.clone());
                }
                EvolutionEvent::Modify(id, _) => {
                    assert!(live.contains(id), "modify of a dead report");
                }
                EvolutionEvent::Remove(id) => {
                    assert!(live.remove(id), "remove of a dead report");
                }
            }
        }
        assert_eq!(w.event_count(), 40);
    }
}
