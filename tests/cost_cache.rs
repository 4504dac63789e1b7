//! Engine-selection and chunk-cache properties.
//!
//! Three contracts from the adaptive-execution work:
//!
//! * **Engine identity** — for random tables, every engine a plan can
//!   be routed to (row or columnar, at 1/2/8 pinned threads) produces
//!   byte-identical output for the widened kernel set: multi-key
//!   joins, multi-column group-bys, and sort/top-k.
//! * **Cache freshness** — a chunk cached for one storage version is
//!   never served after the table mutates: renders interleaved with
//!   mutations always match the serial oracle on the current rows, and
//!   the hit/miss counters track version changes exactly.
//! * **Engine pinning** — a join or grouped aggregate runs the columnar
//!   kernel or the serial row engine and nothing else, so known
//!   workloads pin known choices (asserted via `plan.choice.*`
//!   counters).

use plabi::exec::{ExecConfig, Obs};
use plabi::prelude::*;
use plabi::query::{execute, execute_with};
use plabi::types::{Column, DataType, Schema};
use proptest::prelude::*;

use plabi::core::relation::column::cache;

/// Fact rows: nullable Int join key, low-cardinality text, Int value.
fn fact_rows() -> impl Strategy<Value = Vec<(Option<i64>, u8, i64)>> {
    prop::collection::vec(
        (
            (0i64..50).prop_map(|k| if k >= 40 { None } else { Some(k) }),
            0u8..6,
            -50i64..50,
        ),
        0..120,
    )
}

fn fact_table(rows: &[(Option<i64>, u8, i64)]) -> Table {
    let schema = Schema::new(vec![
        Column::nullable("K", DataType::Int),
        Column::new("G", DataType::Text),
        Column::new("V", DataType::Int),
    ])
    .unwrap();
    let data = rows
        .iter()
        .map(|&(k, g, v)| {
            vec![
                k.map(Value::Int).unwrap_or(Value::Null),
                Value::text(format!("g{g}")),
                Value::Int(v),
            ]
        })
        .collect();
    Table::from_rows("Fact", schema, data).unwrap()
}

/// Fact plus a two-column-keyed dimension, so joins can use composite
/// keys of mixed types (Int + Text).
fn fact_catalog(rows: &[(Option<i64>, u8, i64)]) -> Catalog {
    let dim_schema = Schema::new(vec![
        Column::new("K", DataType::Int),
        Column::new("G", DataType::Text),
        Column::new("W", DataType::Int),
    ])
    .unwrap();
    let dim = (0..40i64)
        .flat_map(|k| {
            (0..3u8).map(move |g| {
                vec![
                    Value::Int(k),
                    Value::text(format!("g{g}")),
                    Value::Int(k * 3),
                ]
            })
        })
        .collect();
    let mut cat = Catalog::new();
    cat.add_table(fact_table(rows)).unwrap();
    cat.add_table(Table::from_rows("Dim", dim_schema, dim).unwrap())
        .unwrap();
    cat
}

/// Every engine configuration a plan can be routed to.
fn engine_sweep() -> Vec<ExecConfig> {
    let mut cfgs = Vec::new();
    for threads in [1usize, 2, 8] {
        // Pinned: exercise the morsel workers even on a 1-core CI host,
        // where the host clamp would otherwise run every loop inline.
        let base = ExecConfig::with_threads(threads).with_pinned_threads(true);
        cfgs.push(base.clone().with_columnar(false));
        cfgs.push(base.with_columnar(true));
    }
    cfgs
}

fn assert_identical(plan: &Plan, cat: &Catalog) {
    let oracle = execute(plan, cat).unwrap();
    for cfg in engine_sweep() {
        let got = execute_with(plan, cat, &cfg).unwrap();
        assert_eq!(oracle.rows(), got.rows(), "cfg={cfg:?}");
        assert_eq!(oracle.schema(), got.schema(), "cfg={cfg:?}");
        assert_eq!(oracle.name(), got.name(), "cfg={cfg:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Multi-key join (Int + Text composite): byte-identical across the
    /// row and columnar engines at every swept thread count.
    #[test]
    fn prop_multi_key_join_engines_agree(rows in fact_rows()) {
        let cat = fact_catalog(&rows);
        let plan = scan("Fact")
            .join(scan("Dim"), vec![("K".into(), "K".into()), ("G".into(), "G".into())], "d");
        assert_identical(&plan, &cat);
    }

    /// Multi-column group-by with the full aggregate kernel set.
    #[test]
    fn prop_multi_column_group_by_engines_agree(rows in fact_rows()) {
        let cat = fact_catalog(&rows);
        let plan = scan("Fact").aggregate(
            vec!["G".into(), "K".into()],
            vec![
                AggItem::count_star("n"),
                AggItem::new("nv", AggFunc::Count, "K"),
                AggItem::new("total", AggFunc::Sum, "V"),
                AggItem::new("mean", AggFunc::Avg, "V"),
                AggItem::new("lo", AggFunc::Min, "V"),
                AggItem::new("hi", AggFunc::Max, "V"),
                AggItem::new("kinds", AggFunc::CountDistinct, "V"),
            ],
        );
        assert_identical(&plan, &cat);
    }

    /// Sort and top-k: the columnar permutation kernel preserves the
    /// serial engine's exact order, including the stability tiebreak.
    #[test]
    fn prop_sort_top_k_engines_agree(rows in fact_rows(), limit in 0usize..150) {
        let cat = fact_catalog(&rows);
        let sorted = scan("Fact").sort(vec![SortKey::desc("V"), SortKey::asc("G")]);
        assert_identical(&sorted, &cat);
        let topk = scan("Fact")
            .sort(vec![SortKey::asc("K"), SortKey::desc("G")])
            .limit(limit);
        assert_identical(&topk, &cat);
    }

    /// Cache freshness under interleaved renders and mutations: a
    /// columnar render after any mutation sequence equals the serial
    /// oracle on the *current* rows — a stale chunk would surface as a
    /// divergence here.
    #[test]
    fn prop_cache_never_serves_stale_rows(
        rows in fact_rows(),
        steps in prop::collection::vec(any::<bool>(), 1..12),
    ) {
        let mut cat = fact_catalog(&rows);
        let plan = scan("Fact").aggregate(
            vec!["G".into()],
            vec![AggItem::count_star("n"), AggItem::new("total", AggFunc::Sum, "V")],
        );
        let columnar = ExecConfig::columnar();
        let mut next = 0i64;
        for mutate in steps {
            if mutate {
                let mut t = cat.table("Fact").unwrap().clone();
                t.push_row(vec![Value::Int(next), Value::text(format!("g{}", next % 6)), Value::Int(next)])
                    .unwrap();
                next += 1;
                cat.put_table(t);
            }
            let oracle = execute(&plan, &cat).unwrap();
            let got = execute_with(&plan, &cat, &columnar).unwrap();
            prop_assert_eq!(oracle.rows(), got.rows());
        }
    }
}

/// The counter-level form of cache freshness: a repeated render of an
/// unchanged table hits (never misses), and the first render after a
/// mutation misses (never hits) because the storage version moved.
#[test]
fn cache_hits_never_outlive_mutation() {
    let rows: Vec<(Option<i64>, u8, i64)> =
        (0..500).map(|i| (Some(i % 40), (i % 6) as u8, i)).collect();
    let mut cat = Catalog::new();
    cat.add_table(fact_table(&rows)).unwrap();
    let plan = scan("Fact").aggregate(
        vec!["G".into()],
        vec![
            AggItem::count_star("n"),
            AggItem::new("total", AggFunc::Sum, "V"),
        ],
    );
    let observe = |cat: &Catalog| {
        let obs = Obs::enabled();
        let cfg = ExecConfig::columnar().with_obs(obs.clone());
        let out = execute_with(&plan, cat, &cfg).unwrap();
        let snap = obs.snapshot();
        (
            out,
            snap.counters.get("chunk.cache.hit").copied().unwrap_or(0),
            snap.counters.get("chunk.cache.miss").copied().unwrap_or(0),
        )
    };

    // Fresh version: every chunk is a miss.
    let (_, hits, misses) = observe(&cat);
    assert_eq!(hits, 0, "fresh version cannot hit");
    assert!(misses > 0, "columnar render converts chunks");

    // Unchanged version: every chunk is a hit.
    let (_, hits, misses) = observe(&cat);
    assert!(hits > 0, "unchanged version must hit");
    assert_eq!(misses, 0, "unchanged version cannot miss");

    // Mutation moves the storage version: back to all-miss, and the
    // render sees the new row (the serial oracle agrees).
    let mut t = cat.table("Fact").unwrap().clone();
    t.push_row(vec![Value::Int(7), Value::text("g-new"), Value::Int(1_000)])
        .unwrap();
    cat.put_table(t);
    let (out, hits, misses) = observe(&cat);
    assert_eq!(hits, 0, "mutated version must not reuse cached chunks");
    assert!(misses > 0);
    assert_eq!(out.rows(), execute(&plan, &cat).unwrap().rows());
    assert!(
        out.rows().iter().any(|r| r[0] == Value::text("g-new")),
        "render reflects the mutation"
    );

    // The cache itself is bounded state, not a leak: entries exist.
    assert!(cache::len() > 0);
}

/// The `plan.choice.*` counters of one grouped aggregation over
/// `T(Id Int, V Int, F Float)`, keyed by `key`, after checking the
/// result against the serial oracle. `F` holds `Int` values — legal,
/// but it declines columnar conversion (`MixedNumeric`).
fn plan_choices(
    key: &str,
    rows: usize,
    distinct_keys: bool,
    threads: usize,
    columnar: bool,
) -> Vec<(&'static str, u64)> {
    let schema = Schema::new(vec![
        Column::new("Id", DataType::Int),
        Column::new("V", DataType::Int),
        Column::new("F", DataType::Float),
    ])
    .unwrap();
    let data = (0..rows as i64)
        .map(|i| {
            let k = if distinct_keys { i } else { i % 8 };
            vec![Value::Int(k), Value::Int(i), Value::Int(k)]
        })
        .collect();
    let mut cat = Catalog::new();
    cat.add_table(Table::from_rows("T", schema, data).unwrap())
        .unwrap();
    let plan = scan("T").aggregate(
        vec![key.into()],
        vec![AggItem::new("total", AggFunc::Sum, "V")],
    );
    let obs = Obs::enabled();
    let cfg = ExecConfig::with_threads(threads)
        .with_pinned_threads(true)
        .with_columnar(columnar)
        .with_obs(obs.clone());
    let got = execute_with(&plan, &cat, &cfg).unwrap();
    assert_eq!(got.rows(), execute(&plan, &cat).unwrap().rows());
    obs.snapshot()
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("plan.choice."))
        .map(|(name, n)| (*name, *n))
        .collect()
}

/// Engine selection has two rungs, pinned per workload: a grouped
/// aggregate runs the columnar kernel when the config allows and the
/// key converts, and the serial row engine otherwise — at any row
/// count, key cardinality or thread count.
#[test]
fn planner_choices_are_pinned_per_workload() {
    let serial = vec![("plan.choice.serial", 1)];
    let columnar = vec![("plan.choice.columnar", 1)];
    for threads in [1, 8] {
        for distinct_keys in [false, true] {
            for rows in [1_000, 10_000] {
                let case = format!("threads={threads} distinct={distinct_keys} rows={rows}");
                assert_eq!(
                    plan_choices("Id", rows, distinct_keys, threads, false),
                    serial,
                    "{case}"
                );
                assert_eq!(
                    plan_choices("Id", rows, distinct_keys, threads, true),
                    columnar,
                    "{case}"
                );
                // A key that declines conversion falls to the row engine.
                assert_eq!(
                    plan_choices("F", rows, distinct_keys, threads, true),
                    serial,
                    "{case}"
                );
            }
        }
    }
}
