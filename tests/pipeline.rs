//! Pipelined-executor equivalence properties.
//!
//! The fused morsel pipeline (`bi-query::pipeline`) carries a stronger
//! contract than "same answer": for every plan it intercepts (every
//! Filter/Project/Join/Aggregate root, lone operators included) it must
//! be **byte-identical** to the operator-at-a-time engine — same rows,
//! same order, same schema, same name, and the same typed error when the plan
//! errors — at 1, 2 and 8 threads. These properties drive random
//! Filter/Project chains under Materialize, Limit and Aggregate sinks
//! (with NULLs, Dates, Floats and dictionary text) through both engines,
//! stream random inner and left joins (text, Int, Int⋈Float and
//! two-column keys, NULL and duplicate build keys) into the same sinks,
//! pin the aggregate sink's edge cases, and pin that PLA `FilterRows`
//! obligations and the PLA-rewritten star-join report over a synthesized
//! scenario actually execute through a fused pipeline rather than
//! quietly falling back. Projections include enforcement's column masks
//! `if(p, col, NULL)` (and `if(false, col, NULL)`), which the pipeline
//! runs as masked slots; an auditor's masked Doctor reports pin the same
//! end to end.

use plabi::exec::{ExecConfig, Obs};
use plabi::prelude::*;
use plabi::query::{execute, execute_with, QueryError};
use plabi::relation::expr::{col, lit, Expr, Func};
use plabi::relation::BinOp;
use plabi::types::{Column, DataType, Schema};
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];

// ---------- strategies ----------

/// One random row of the mixed-type table: every column nullable.
type MixedRow = (
    Option<i64>,
    Option<i64>,
    Option<u8>,
    Option<(i16, u8, u8)>,
    Option<bool>,
);

fn mixed_rows() -> impl Strategy<Value = Vec<MixedRow>> {
    prop::collection::vec(
        (
            prop::option::of(-40i64..40),
            // Stored as Float: halves, so Int/Float cross-type compares hit.
            prop::option::of(-60i64..60),
            prop::option::of(0u8..6),
            prop::option::of((2000i16..2012, 1u8..13, 1u8..28)),
            prop::option::of(any::<bool>()),
        ),
        0..90,
    )
}

fn mixed_table(rows: &[MixedRow]) -> Table {
    let schema = Schema::new(vec![
        Column::nullable("Age", DataType::Int),
        Column::nullable("Score", DataType::Float),
        Column::nullable("Ward", DataType::Text),
        Column::nullable("Admitted", DataType::Date),
        Column::nullable("Chronic", DataType::Bool),
    ])
    .unwrap();
    let data = rows
        .iter()
        .map(|&(a, s, w, d, b)| {
            vec![
                a.map(Value::Int).unwrap_or(Value::Null),
                s.map(|v| Value::Float(v as f64 / 2.0))
                    .unwrap_or(Value::Null),
                w.map(|v| Value::text(format!("w{v}")))
                    .unwrap_or(Value::Null),
                d.map(|(y, m, dd)| Value::Date(Date::new(y, m, dd).unwrap()))
                    .unwrap_or(Value::Null),
                b.map(Value::Bool).unwrap_or(Value::Null),
            ]
        })
        .collect();
    Table::from_rows("Mixed", schema, data).unwrap()
}

fn mixed_catalog(rows: &[MixedRow]) -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table(mixed_table(rows)).unwrap();
    cat
}

/// Random predicates over the mixed table: typed comparisons (incl.
/// Int-vs-Float cross-type), dictionary text compares, Date ordering,
/// IS NULL, IN lists, BETWEEN, and Kleene AND/OR/NOT over all of it.
/// Some leaves compile to columnar kernels, some only to the VM (an
/// integer division, which fails on a zero divisor), so the fused chains
/// exercise both stage kinds and the mixed case.
fn predicate() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0i64..4).prop_map(|n| {
            Expr::Bin(BinOp::Div, Box::new(col("Age")), Box::new(lit(n))).ge(lit(1))
        }),
        (-40i64..40).prop_map(|n| col("Age").ge(lit(n))),
        (-40i64..40).prop_map(|n| col("Age").eq(lit(n))),
        (-120i64..120).prop_map(|n| col("Score").lt(lit(n as f64 / 4.0))),
        (-120i64..120).prop_map(|n| col("Age").le(lit(n as f64 / 4.0))),
        (0u8..7).prop_map(|w| col("Ward").eq(lit(format!("w{w}")))),
        (0u8..7).prop_map(|w| col("Ward").ne(lit(format!("w{w}")))),
        (2000i16..2012, 1u8..13).prop_map(|(y, m)| {
            col("Admitted").ge(lit(Value::Date(Date::new(y, m, 15).unwrap())))
        }),
        Just(col("Chronic")),
        Just(col("Age").is_null()),
        Just(col("Ward").is_null().not()),
        prop::collection::vec(-40i64..40, 0..4).prop_map(|ns| {
            Expr::InList(
                Box::new(col("Age")),
                ns.into_iter().map(Value::Int).collect(),
            )
        }),
        (-40i64..0, 0i64..40).prop_map(|(lo, hi)| {
            Expr::Between(Box::new(col("Age")), Box::new(lit(lo)), Box::new(lit(hi)))
        }),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.not()),
        ]
    })
}

/// `col`, shown only where `p` is TRUE: enforcement's column mask.
fn mask(p: Expr, column: &str) -> Expr {
    Expr::Func(Func::If, vec![p, col(column), Expr::Lit(Value::Null)])
}

/// One projected column: bare, masked by a random predicate (a kernel
/// or a VM-only condition), or nullified as `if(false, col, NULL)`.
fn maybe_masked(column: &'static str) -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just(col(column)),
        Just(col(column)),
        predicate().prop_map(move |p| mask(p, column)),
        predicate().prop_map(move |p| mask(p, column)),
        Just(mask(lit(false), column)),
    ]
}

/// Enforcement's projection shape: every column, some of them masked.
fn masked_projection() -> impl Strategy<Value = Vec<(String, Expr)>> {
    (
        maybe_masked("Age"),
        maybe_masked("Ward"),
        maybe_masked("Admitted"),
    )
        .prop_map(|(age, ward, admitted)| {
            vec![
                ("Age".to_string(), age),
                ("Score".to_string(), col("Score")),
                ("Ward".to_string(), ward),
                ("Admitted".to_string(), admitted),
                ("Chronic".to_string(), col("Chronic")),
            ]
        })
}

/// A projection that keeps the column names downstream operators use.
/// Identity columns keep late materialization honest; masked columns
/// (half the draws) stay slots over source rows while their conditions
/// are kernels; the computed variant forces every following stage onto
/// the VM path.
fn projection() -> impl Strategy<Value = Vec<(String, Expr)>> {
    prop_oneof![
        masked_projection(),
        masked_projection(),
        Just(vec![
            ("Age".to_string(), col("Age")),
            ("Score".to_string(), col("Score")),
            ("Ward".to_string(), col("Ward")),
            ("Admitted".to_string(), col("Admitted")),
            ("Chronic".to_string(), col("Chronic")),
        ]),
        (-5i64..5).prop_map(|n| {
            vec![
                (
                    "Age".to_string(),
                    Expr::Bin(BinOp::Add, Box::new(col("Age")), Box::new(lit(n))),
                ),
                ("Score".to_string(), col("Score")),
                ("Ward".to_string(), col("Ward")),
                ("Admitted".to_string(), col("Admitted")),
                (
                    "Chronic".to_string(),
                    col("Chronic").and(col("Age").is_null().not()),
                ),
            ]
        }),
    ]
}

/// One non-breaking chain operator.
#[derive(Debug, Clone)]
enum Op {
    Filter(Expr),
    Project(Vec<(String, Expr)>),
}

fn chain_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        predicate().prop_map(Op::Filter),
        predicate().prop_map(Op::Filter),
        predicate().prop_map(Op::Filter),
        projection().prop_map(Op::Project),
    ]
}

/// The pipeline sink: plain materialize, a limit, or a full aggregation
/// (the breaker). `sum(Ward)` is deliberately ill-typed so error plans
/// are generated too, and `avg(Score)`/`sum(Score)` exercise row-order
/// float accumulation.
#[derive(Debug, Clone)]
enum SinkSpec {
    Materialize,
    Limit(usize),
    Aggregate(Vec<String>, Vec<AggItem>),
}

fn sink() -> impl Strategy<Value = SinkSpec> {
    let agg_item = prop_oneof![
        Just(AggItem::count_star("n")),
        Just(AggItem::new("c", AggFunc::Count, "Age")),
        Just(AggItem::new("cd", AggFunc::CountDistinct, "Ward")),
        Just(AggItem::new("s", AggFunc::Sum, "Age")),
        Just(AggItem::new("sf", AggFunc::Sum, "Score")),
        Just(AggItem::new("a", AggFunc::Avg, "Score")),
        Just(AggItem::new("mn", AggFunc::Min, "Age")),
        Just(AggItem::new("mx", AggFunc::Max, "Admitted")),
        Just(AggItem::new("mw", AggFunc::Min, "Ward")),
        Just(AggItem::new("bad", AggFunc::Sum, "Ward")),
    ];
    let group_by = prop_oneof![
        Just(Vec::<String>::new()),
        Just(vec!["Ward".to_string()]),
        Just(vec!["Ward".to_string(), "Chronic".to_string()]),
    ];
    let aggregate = (group_by, prop::collection::vec(agg_item, 1..4))
        .prop_map(|(g, a)| SinkSpec::Aggregate(g, a));
    prop_oneof![
        Just(SinkSpec::Materialize),
        (0usize..120).prop_map(SinkSpec::Limit),
        aggregate.clone(),
        aggregate,
    ]
}

fn build_plan(ops: &[Op], sink: &SinkSpec) -> Plan {
    let mut plan = scan("Mixed");
    for op in ops {
        plan = match op {
            Op::Filter(pred) => plan.filter(pred.clone()),
            Op::Project(items) => plan.project(items.clone()),
        };
    }
    match sink {
        SinkSpec::Materialize => plan,
        SinkSpec::Limit(n) => plan.limit(*n),
        SinkSpec::Aggregate(g, a) => plan.aggregate(g.clone(), a.clone()),
    }
}

fn pipeline_cfg(threads: usize) -> ExecConfig {
    ExecConfig::with_threads(threads)
        .with_pinned_threads(true)
        .with_columnar(true)
}

// ---------- byte-identity vs the operator-at-a-time oracle ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random Filter/Project chains under every sink kind: the pipelined
    /// engine matches the serial operator-at-a-time oracle byte for byte
    /// — values, schema, row order, name, and typed errors — at every
    /// thread count.
    #[test]
    fn fused_pipeline_identical_to_oracle(
        rows in mixed_rows(),
        ops in prop::collection::vec(chain_op(), 1..4),
        sink in sink(),
    ) {
        let cat = mixed_catalog(&rows);
        let plan = build_plan(&ops, &sink);
        let oracle = execute(&plan, &cat);
        for threads in THREADS {
            let fused = execute_with(&plan, &cat, &pipeline_cfg(threads));
            match (&oracle, &fused) {
                (Ok(expect), Ok(got)) => {
                    prop_assert_eq!(expect.rows(), got.rows(), "threads: {}", threads);
                    prop_assert_eq!(expect.schema(), got.schema(), "threads: {}", threads);
                    prop_assert_eq!(expect.name(), got.name(), "threads: {}", threads);
                }
                (Err(expect), Err(got)) => {
                    prop_assert_eq!(expect, got, "threads: {}", threads);
                }
                (expect, got) => {
                    return Err(TestCaseError::fail(format!(
                        "threads {threads}: oracle {expect:?} vs pipeline {got:?}"
                    )));
                }
            }
        }
    }

    /// Turning the pipeline off (columnar operator-at-a-time) changes
    /// nothing observable: both configurations match the serial oracle.
    #[test]
    fn pipeline_toggle_is_unobservable(
        rows in mixed_rows(),
        ops in prop::collection::vec(chain_op(), 1..3),
        sink in sink(),
    ) {
        let cat = mixed_catalog(&rows);
        let plan = build_plan(&ops, &sink);
        let on = execute_with(&plan, &cat, &pipeline_cfg(2));
        let off = execute_with(&plan, &cat, &pipeline_cfg(2).with_pipeline(false));
        match (&on, &off) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.rows(), b.rows());
                prop_assert_eq!(a.schema(), b.schema());
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => {
                return Err(TestCaseError::fail(format!("pipeline on {a:?} vs off {b:?}")));
            }
        }
    }
}

// ---------- streamed joins ----------

/// One random row of the dimension table: (Ward, Level, Weight (halves;
/// the flag turns a zero into `-0.0`), Opened, Label, Flag).
type DimRow = (
    Option<u8>,
    Option<i64>,
    Option<(i8, bool)>,
    Option<(i16, u8)>,
    Option<u8>,
    Option<bool>,
);

fn dim_rows() -> impl Strategy<Value = Vec<DimRow>> {
    prop::collection::vec(
        (
            // w6/w7 never occur on the probe side: unmatched build keys.
            prop::option::of(0u8..8),
            prop::option::of(-6i64..6),
            prop::option::of((-8i8..8, any::<bool>())),
            prop::option::of((2000i16..2004, 1u8..13)),
            prop::option::of(0u8..4),
            prop::option::of(any::<bool>()),
        ),
        0..24,
    )
}

/// `Dim` shares the column name `Ward` with `Mixed`, so the joined
/// schema prefixes it (`d.Ward`).
fn dim_table(rows: &[DimRow]) -> Table {
    let schema = Schema::new(vec![
        Column::nullable("Ward", DataType::Text),
        Column::nullable("Level", DataType::Int),
        Column::nullable("Weight", DataType::Float),
        Column::nullable("Opened", DataType::Date),
        Column::nullable("Label", DataType::Text),
        Column::nullable("Flag", DataType::Bool),
    ])
    .unwrap();
    let data = rows
        .iter()
        .map(|&(w, l, wt, o, lb, f)| {
            vec![
                w.map(|v| Value::text(format!("w{v}")))
                    .unwrap_or(Value::Null),
                l.map(Value::Int).unwrap_or(Value::Null),
                wt.map(|(v, neg)| {
                    Value::Float(if v == 0 && neg {
                        -0.0
                    } else {
                        f64::from(v) / 2.0
                    })
                })
                .unwrap_or(Value::Null),
                o.map(|(y, m)| Value::Date(Date::new(y, m, 1).unwrap()))
                    .unwrap_or(Value::Null),
                lb.map(|v| Value::text(format!("l{v}")))
                    .unwrap_or(Value::Null),
                f.map(Value::Bool).unwrap_or(Value::Null),
            ]
        })
        .collect();
    Table::from_rows("Dim", schema, data).unwrap()
}

/// Join keys: text, Int, Int⋈Float (compared in `f64` space), Float,
/// and a two-column key.
fn join_keys() -> impl Strategy<Value = Vec<(String, String)>> {
    let pair = |l: &str, r: &str| (l.to_string(), r.to_string());
    prop_oneof![
        Just(vec![pair("Ward", "Ward")]),
        Just(vec![pair("Age", "Level")]),
        Just(vec![pair("Age", "Weight")]),
        Just(vec![pair("Score", "Weight")]),
        Just(vec![pair("Ward", "Ward"), pair("Age", "Level")]),
    ]
}

/// Sinks over the joined schema: group keys from the probe side, the
/// build side, or both (NULL, Date, Bool and Float ±0.0 keys included),
/// aggregate arguments from either side, `sum(Label)` as the typed
/// error.
fn join_sink() -> impl Strategy<Value = SinkSpec> {
    let agg_item = prop_oneof![
        Just(AggItem::count_star("n")),
        Just(AggItem::new("cl", AggFunc::Count, "Label")),
        Just(AggItem::new("sl", AggFunc::Sum, "Level")),
        Just(AggItem::new("sw", AggFunc::Sum, "Weight")),
        Just(AggItem::new("as", AggFunc::Avg, "Score")),
        Just(AggItem::new("ml", AggFunc::Min, "Label")),
        Just(AggItem::new("mo", AggFunc::Max, "Opened")),
        Just(AggItem::new("dw", AggFunc::CountDistinct, "Weight")),
        Just(AggItem::new("bad", AggFunc::Sum, "Label")),
    ];
    let group_by = prop_oneof![
        Just(Vec::<String>::new()),
        Just(vec!["Ward".to_string()]),
        Just(vec!["Label".to_string()]),
        Just(vec!["d.Ward".to_string()]),
        Just(vec!["Weight".to_string()]),
        Just(vec!["Opened".to_string(), "Chronic".to_string()]),
        Just(vec![
            "Flag".to_string(),
            "Label".to_string(),
            "Admitted".to_string()
        ]),
    ];
    let aggregate = (group_by, prop::collection::vec(agg_item, 1..4))
        .prop_map(|(g, a)| SinkSpec::Aggregate(g, a));
    prop_oneof![
        Just(SinkSpec::Materialize),
        (0usize..150).prop_map(SinkSpec::Limit),
        aggregate.clone(),
        aggregate,
    ]
}

fn join_plan(
    ops: &[Op],
    left: bool,
    build_filter: bool,
    on: &[(String, String)],
    sink: &SinkSpec,
) -> Plan {
    let probe = build_plan(ops, &SinkSpec::Materialize);
    let build = if build_filter {
        scan("Dim").filter(col("Label").is_null().not())
    } else {
        scan("Dim")
    };
    let joined = if left {
        probe.left_join(build, on.to_vec(), "d")
    } else {
        probe.join(build, on.to_vec(), "d")
    };
    match sink {
        SinkSpec::Materialize => joined,
        SinkSpec::Limit(n) => joined.limit(*n),
        SinkSpec::Aggregate(g, a) => joined.aggregate(g.clone(), a.clone()),
    }
}

/// Asserts `got` is byte-identical to `expect`: rows, schema and name,
/// or the same typed error. Rows compare by their debug rendering too,
/// since `Value` equality cannot tell `-0.0` from `0.0`.
fn assert_identical(
    expect: &Result<Table, QueryError>,
    got: &Result<Table, QueryError>,
    what: &str,
) -> Result<(), TestCaseError> {
    match (expect, got) {
        (Ok(e), Ok(g)) => {
            prop_assert_eq!(e.rows(), g.rows(), "{}", what);
            prop_assert_eq!(
                format!("{:?}", e.rows()),
                format!("{:?}", g.rows()),
                "{}",
                what
            );
            prop_assert_eq!(e.schema(), g.schema(), "{}", what);
            prop_assert_eq!(e.name(), g.name(), "{}", what);
        }
        (Err(e), Err(g)) => prop_assert_eq!(e, g, "{}", what),
        (e, g) => {
            return Err(TestCaseError::fail(format!(
                "{what}: oracle {e:?} vs pipeline {g:?}"
            )));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random probe chains streamed through inner and left joins into
    /// aggregate, materialize and limit sinks: byte-identical to the
    /// serial oracle — values, schema, row and group order, name, and
    /// typed errors — at every thread count.
    #[test]
    fn streamed_join_identical_to_oracle(
        rows in mixed_rows(),
        dims in dim_rows(),
        ops in prop::collection::vec(chain_op(), 0..3),
        left in any::<bool>(),
        build_filter in any::<bool>(),
        on in join_keys(),
        sink in join_sink(),
    ) {
        let mut cat = mixed_catalog(&rows);
        cat.add_table(dim_table(&dims)).unwrap();
        let plan = join_plan(&ops, left, build_filter, &on, &sink);
        let oracle = execute(&plan, &cat);
        for threads in THREADS {
            let fused = execute_with(&plan, &cat, &pipeline_cfg(threads));
            assert_identical(&oracle, &fused, &format!("threads {threads}"))?;
        }
    }
}

/// Many morsels: rows slot into groups by code across morsels, in row
/// order. A 9k-row probe side, grouped by build-side Float (±0.0, NULL
/// from left-join padding), Date and text keys and by a probe Int key,
/// at 1/2/8 threads — every result through the code-slotted sink. The
/// `0.0` group opens with `+0.0` in the first morsel and meets `-0.0`
/// in the later ones, so the group must keep the first morsel's key
/// cell.
#[test]
fn multi_morsel_join_aggregates_match_oracle() {
    let morsel = plabi::exec::MORSEL_ROWS as i64;
    let rows: Vec<MixedRow> = (0..9_000i64)
        .map(|i| {
            (
                (i % 13 != 0).then_some(i % 9 - 4),
                Some(i % 7),
                (i % 11 != 5).then_some(((i + if i < morsel { 7 } else { 1 }) % 8) as u8),
                Some((
                    2000 + (i % 5) as i16,
                    1 + (i % 12) as u8,
                    1 + (i % 27) as u8,
                )),
                (i % 3 != 0).then_some(i % 2 == 0),
            )
        })
        .collect();
    // Ward w0 weighs +0.0 and w1 -0.0; every other weight is non-zero.
    let dims: Vec<DimRow> = (0..40i64)
        .map(|i| {
            let weight = match i % 7 {
                0 => (0, false),
                1 => (0, true),
                _ => ((i % 5) as i8 + 1, false),
            };
            (
                Some((i % 7) as u8),
                (i % 5 != 0).then_some(i % 6 - 3),
                Some(weight),
                (i % 4 != 0).then_some((2001, 1 + (i % 12) as u8)),
                Some((i % 3) as u8),
                Some(i % 2 == 0),
            )
        })
        .collect();
    let mut cat = mixed_catalog(&rows);
    cat.add_table(dim_table(&dims)).unwrap();
    let aggs = vec![
        AggItem::count_star("n"),
        AggItem::new("s", AggFunc::Sum, "Level"),
        AggItem::new("a", AggFunc::Avg, "Score"),
        AggItem::new("mx", AggFunc::Max, "Admitted"),
    ];
    for group_by in [
        vec!["Weight"],
        vec!["Opened", "Label"],
        vec!["d.Ward", "Age"],
        vec!["Age"],
    ] {
        for left in [false, true] {
            let on = vec![("Ward".to_string(), "Ward".to_string())];
            let probe = scan("Mixed").filter(col("Age").ge(lit(-3)));
            let joined = if left {
                probe.left_join(scan("Dim"), on, "d")
            } else {
                probe.join(scan("Dim"), on, "d")
            };
            let plan = joined.aggregate(
                group_by.iter().map(|g| g.to_string()).collect(),
                aggs.clone(),
            );
            let oracle = execute(&plan, &cat);
            assert!(oracle.is_ok(), "{group_by:?}: {oracle:?}");
            for threads in THREADS {
                let obs = Obs::enabled();
                let cfg = pipeline_cfg(threads).with_obs(obs.clone());
                let got = execute_with(&plan, &cat, &cfg);
                assert_identical(
                    &oracle,
                    &got,
                    &format!("{group_by:?} left={left} threads={threads}"),
                )
                .unwrap();
                let snap = obs.snapshot();
                assert_eq!(snap.counters.get("plan.choice.pipeline"), Some(&1));
                assert_eq!(snap.counters.get("pipeline.fallback.error"), None);
            }
        }
    }
}

/// A first group-key column wider than the direct-indexed slot table:
/// `Age` takes 66,000 values plus NULL, so the code-slotted sink finds
/// first-column ids in its hashed map, then folds the second key `Ward`
/// (text, with NULLs) into them. Grouped with `count(*)` and a `sum`,
/// over the whole table (one untouched range) and behind a kernel
/// filter (selections across many morsels): byte-identical to the
/// serial oracle at 1/2/8 threads, and fused.
#[test]
fn wide_first_key_slots_by_hash_and_matches_oracle() {
    let rows: Vec<MixedRow> = (0..90_000i64)
        .map(|i| {
            (
                (i % 97 != 0).then_some(i % 66_000),
                Some(i % 120 - 60),
                (i % 13 != 0).then_some((i % 5) as u8),
                None,
                None,
            )
        })
        .collect();
    let ages: std::collections::HashSet<_> = rows.iter().map(|r| r.0).collect();
    assert!(ages.len() > 1 << 16, "{} codes", ages.len());
    let cat = mixed_catalog(&rows);
    let aggs = vec![
        AggItem::count_star("n"),
        AggItem::new("s", AggFunc::Sum, "Score"),
    ];
    let group_by = vec!["Age".to_string(), "Ward".to_string()];
    for input in [
        scan("Mixed"),
        scan("Mixed").filter(col("Score").ge(lit(-25))),
    ] {
        let plan = input.aggregate(group_by.clone(), aggs.clone());
        let oracle = execute_with(&plan, &cat, &ExecConfig::serial());
        assert!(oracle.is_ok(), "{oracle:?}");
        for threads in THREADS {
            let obs = Obs::enabled();
            let cfg = pipeline_cfg(threads).with_obs(obs.clone());
            let got = execute_with(&plan, &cat, &cfg);
            assert_identical(&oracle, &got, &format!("{plan} threads={threads}")).unwrap();
            let snap = obs.snapshot();
            assert_eq!(snap.counters.get("plan.choice.pipeline"), Some(&1));
            assert_eq!(snap.counters.get("pipeline.fallback.error"), None);
        }
    }
}

// ---------- targeted behaviors ----------

/// A keep-everything filter under a materialize sink shares row storage
/// with the source table, exactly like the operator-at-a-time fast path:
/// fusion must not cost a copy when nothing was dropped.
#[test]
fn keep_all_filter_shares_storage() {
    let rows: Vec<MixedRow> = (0..500)
        .map(|i| (Some(i % 40), Some(i % 50), Some((i % 6) as u8), None, None))
        .collect();
    let cat = mixed_catalog(&rows);
    let plan = scan("Mixed").filter(col("Age").is_null().or(col("Age").is_null().not()));
    let out = execute_with(&plan, &cat, &pipeline_cfg(2)).unwrap();
    let base = cat.table("Mixed").unwrap();
    assert_eq!(out.rows(), base.rows());
    assert!(
        out.shares_rows_with(base),
        "keep-all fused filter must share storage"
    );
}

/// An aggregate header the oracle rejects (here a sum over a Text
/// column) is a *counted* shape decline — the chain still runs
/// operator-at-a-time and errors exactly like the oracle.
#[test]
fn unreproducible_aggregate_declines_and_matches_oracle() {
    let rows: Vec<MixedRow> = vec![(Some(1), None, Some(2), None, Some(true))];
    let cat = mixed_catalog(&rows);
    let plan = scan("Mixed").filter(col("Age").ge(lit(0))).aggregate(
        vec!["Ward".into()],
        vec![AggItem::new("bad", AggFunc::Sum, "Ward")],
    );
    let obs = Obs::enabled();
    let cfg = pipeline_cfg(2).with_obs(obs.clone());
    let got = execute_with(&plan, &cat, &cfg);
    let expect = execute(&plan, &cat);
    assert_eq!(expect.unwrap_err(), got.unwrap_err());
    let snap = obs.snapshot();
    assert!(
        snap.counters
            .get("pipeline.decline.shape")
            .copied()
            .unwrap_or(0)
            >= 1,
        "shape decline must be counted, got {:?}",
        snap.counters
    );
    assert_eq!(
        snap.counters.get("plan.choice.pipeline"),
        None,
        "declined plans are not fused"
    );
}

/// A filter naming a column the table lacks still fuses: every
/// expression compiles, and the unknown column fails only on rows whose
/// evaluation reaches it. When no row does, the fused result is the
/// oracle's; when every row does, the oracle's error comes back.
#[test]
fn unresolvable_columns_fuse_and_fail_like_the_oracle() {
    let rows: Vec<MixedRow> = (0..9000)
        .map(|i| (Some(i % 40), None, Some((i % 6) as u8), None, None))
        .collect();
    let cat = mixed_catalog(&rows);
    let plan = |guard: Expr| {
        scan("Mixed")
            .filter(guard.or(col("Ghost").eq(lit(1))))
            .aggregate(vec!["Ward".into()], vec![AggItem::count_star("n")])
    };
    // `Age >= 0` holds on every row, so no row reaches `Ghost`.
    let kept = plan(col("Age").ge(lit(0)));
    let expect = execute(&kept, &cat).unwrap();
    for threads in THREADS {
        let obs = Obs::enabled();
        let got = execute_with(&kept, &cat, &pipeline_cfg(threads).with_obs(obs.clone())).unwrap();
        assert_eq!(got.rows(), expect.rows(), "threads: {threads}");
        assert_eq!(got.schema(), expect.schema());
        let snap = obs.snapshot();
        assert_eq!(snap.counters.get("plan.choice.pipeline"), Some(&1));
        assert_eq!(snap.counters.get("pipeline.decline.compile"), None);
    }
    // `Age < 0` holds on no row, so every row reaches `Ghost`.
    let failing = plan(col("Age").lt(lit(0)));
    let expect = execute(&failing, &cat).unwrap_err();
    assert!(
        expect.to_string().contains("Ghost"),
        "the oracle names the unknown column: {expect}"
    );
    for threads in THREADS {
        let obs = Obs::enabled();
        let got = execute_with(&failing, &cat, &pipeline_cfg(threads).with_obs(obs.clone()));
        assert_eq!(got.unwrap_err(), expect, "threads: {threads}");
        let snap = obs.snapshot();
        assert_eq!(snap.counters.get("pipeline.decline.compile"), None);
        assert_eq!(snap.counters.get("pipeline.fallback.error"), Some(&1));
    }
}

/// `Limit 0` over a stage that can fail still evaluates every row, as
/// the oracle's Limit does over its fully materialized input: a
/// division by zero surfaces as the same typed error, not as an empty
/// table.
#[test]
fn limit_zero_still_surfaces_stage_errors() {
    let rows: Vec<MixedRow> = (0..20).map(|i| (Some(i), None, None, None, None)).collect();
    let cat = mixed_catalog(&rows);
    let plan = scan("Mixed")
        .filter(Expr::Bin(BinOp::Div, Box::new(col("Age")), Box::new(lit(0))).ge(lit(1)))
        .limit(0);
    let expect = execute(&plan, &cat).unwrap_err();
    for threads in THREADS {
        assert_eq!(
            execute_with(&plan, &cat, &pipeline_cfg(threads)).unwrap_err(),
            expect,
            "threads: {threads}"
        );
    }
}

/// Global aggregation over an empty (fully filtered) input still yields
/// the oracle's single default group.
#[test]
fn empty_input_global_aggregate_matches_oracle() {
    let cat = mixed_catalog(&[]);
    let plan = scan("Mixed").filter(col("Chronic")).aggregate(
        vec![],
        vec![
            AggItem::count_star("n"),
            AggItem::new("s", AggFunc::Sum, "Age"),
            AggItem::new("mn", AggFunc::Min, "Score"),
        ],
    );
    let expect = execute(&plan, &cat).unwrap();
    let got = execute_with(&plan, &cat, &pipeline_cfg(8)).unwrap();
    assert_eq!(expect.rows(), got.rows());
    assert_eq!(expect.schema(), got.schema());
    assert_eq!(
        got.rows().len(),
        1,
        "global aggregate over empty input is one default group"
    );
}

/// Lone operators fuse: a single Filter, Project or grouped Aggregate
/// is served by the pipeline — the one columnar executor for them —
/// never by an operator-at-a-time columnar kernel, and equals the
/// oracle.
#[test]
fn single_op_plans_fuse() {
    let rows: Vec<MixedRow> = (0..50)
        .map(|i| (Some(i), None, Some((i % 4) as u8), None, None))
        .collect();
    let cat = mixed_catalog(&rows);
    let plans = [
        scan("Mixed").filter(col("Age").ge(lit(25))),
        scan("Mixed").project(vec![(
            "Age".to_string(),
            Expr::Bin(BinOp::Add, Box::new(col("Age")), Box::new(lit(1))),
        )]),
        scan("Mixed").aggregate(
            vec!["Ward".into()],
            vec![
                AggItem::count_star("n"),
                AggItem::new("s", AggFunc::Sum, "Age"),
            ],
        ),
    ];
    for plan in &plans {
        let obs = Obs::enabled();
        let got = execute_with(plan, &cat, &pipeline_cfg(1).with_obs(obs.clone()));
        assert_identical(&execute(plan, &cat), &got, &plan.to_string()).unwrap();
        let snap = obs.snapshot();
        assert_eq!(
            snap.counters.get("plan.choice.pipeline"),
            Some(&1),
            "{plan}: {:?}",
            snap.counters
        );
        assert_eq!(snap.counters.get("plan.choice.columnar"), None, "{plan}");
    }
    let filtered = execute_with(&plans[0], &cat, &pipeline_cfg(1)).unwrap();
    assert_eq!(filtered.rows().len(), 25);
}

/// The aggregate sink's edge cases, end to end: an integer `sum` that
/// overflows at a prefix but not in total (`[i64::MAX, 1, -1]`) beside
/// one that never overflows (`[i64::MAX, -1, 1]`), both in a group that
/// straddles the first morsel boundary; `min`/`max` over `0.0`/`-0.0`
/// ties and a `0.0`/`-0.0` group key; `avg` over text; and
/// `count_distinct`/`avg` without an argument. Each runs grouped and
/// global, lone, behind a kernel filter and behind a computed
/// projection, over empty and non-empty input at 1/2/8 threads: every
/// result or typed error is the oracle's, no aggregate is refused with a
/// shape decline, and every plan the oracle runs is fused.
#[test]
fn aggregate_sink_edge_cases_match_oracle() {
    let morsel = plabi::exec::MORSEL_ROWS;
    let schema = Schema::new(vec![
        Column::nullable("G", DataType::Text),
        Column::nullable("I", DataType::Int),
        Column::nullable("J", DataType::Int),
        Column::nullable("F", DataType::Float),
        Column::nullable("T", DataType::Text),
    ])
    .unwrap();
    // Rows morsel-1, morsel and morsel+1 hold the only I and J values,
    // all in group "edge": the first morsel ends after the first.
    let sums = |i: usize| match i.checked_sub(morsel - 1)? {
        0 => Some((i64::MAX, i64::MAX)),
        1 => Some((1, -1)),
        2 => Some((-1, 1)),
        _ => None,
    };
    let rows: Vec<Vec<Value>> = (0..morsel + 200)
        .map(|i| {
            let sum = sums(i);
            let g = match (sum, i % 11) {
                (Some(_), _) => Value::text("edge"),
                (None, 0) => Value::Null,
                (None, k) => Value::text(format!("g{}", k % 3)),
            };
            let f = match i % 4 {
                0 => Value::Float(-0.0),
                2 => Value::Null,
                _ => Value::Float(0.0),
            };
            let t = if i % 5 == 0 {
                Value::Null
            } else {
                Value::text(format!("t{}", i % 4))
            };
            vec![
                g,
                sum.map_or(Value::Null, |(v, _)| Value::Int(v)),
                sum.map_or(Value::Null, |(_, v)| Value::Int(v)),
                f,
                t,
            ]
        })
        .collect();
    let no_arg = |name: &str, func: AggFunc| AggItem {
        name: name.into(),
        func,
        arg: None,
    };
    let agg_sets = [
        vec![
            AggItem::count_star("n"),
            AggItem::new("si", AggFunc::Sum, "I"),
        ],
        vec![
            AggItem::count_star("n"),
            AggItem::new("sj", AggFunc::Sum, "J"),
            AggItem::new("lo", AggFunc::Min, "F"),
            AggItem::new("hi", AggFunc::Max, "F"),
            AggItem::new("af", AggFunc::Avg, "F"),
            AggItem::new("df", AggFunc::CountDistinct, "F"),
            AggItem::new("ct", AggFunc::Count, "T"),
        ],
        vec![AggItem::new("at", AggFunc::Avg, "T")],
        vec![no_arg("cd", AggFunc::CountDistinct)],
        vec![no_arg("av", AggFunc::Avg)],
    ];
    let computed = vec![
        ("G".to_string(), col("G")),
        (
            "I".to_string(),
            Expr::Bin(BinOp::Add, Box::new(col("I")), Box::new(lit(0))),
        ),
        ("J".to_string(), col("J")),
        ("F".to_string(), col("F")),
        ("T".to_string(), col("T")),
    ];
    for data in [rows, Vec::new()] {
        let empty = data.is_empty();
        let mut cat = Catalog::new();
        cat.add_table(Table::from_rows("Edge", schema.clone(), data).unwrap())
            .unwrap();
        if !empty {
            // The fixture does what the cases need: the prefix overflow
            // errors, its mirror sums to `i64::MAX`.
            let by_g = |aggs: &[AggItem]| {
                execute(
                    &scan("Edge").aggregate(vec!["G".into()], aggs.to_vec()),
                    &cat,
                )
            };
            let err = by_g(&agg_sets[0]).unwrap_err();
            assert!(err.to_string().contains("overflow"), "{err}");
            let ok = by_g(&agg_sets[1]).unwrap();
            assert!(ok.rows().iter().any(|r| r[2] == Value::Int(i64::MAX)));
        }
        let inputs = [
            scan("Edge"),
            scan("Edge").filter(col("G").ne(lit("g1"))),
            scan("Edge").project(computed.clone()),
        ];
        for input in &inputs {
            for group_by in [vec![], vec!["G".to_string()], vec!["F".to_string()]] {
                for aggs in &agg_sets {
                    let plan = input.clone().aggregate(group_by.clone(), aggs.clone());
                    let oracle = execute(&plan, &cat);
                    for threads in THREADS {
                        let obs = Obs::enabled();
                        let cfg = pipeline_cfg(threads).with_obs(obs.clone());
                        let got = execute_with(&plan, &cat, &cfg);
                        assert_identical(&oracle, &got, &format!("{plan} threads={threads}"))
                            .unwrap();
                        let snap = obs.snapshot();
                        assert_eq!(snap.counters.get("pipeline.decline.shape"), None, "{plan}");
                        if oracle.is_ok() {
                            assert_eq!(
                                snap.counters.get("plan.choice.pipeline"),
                                Some(&1),
                                "{plan} threads={threads}"
                            );
                        }
                    }
                }
            }
        }
    }
}

// ---------- PLA obligations run through the fused pipeline ----------

/// The enforcement path the paper cares about — VPD row restrictions and
/// retention cutoffs rewritten into the report plan — must execute
/// through a fused pipeline when the engine is columnar: the rewritten
/// plan is Aggregate over stacked `FilterRows` obligations, exactly the
/// shape the decomposer captures. Counter-asserted, and the delivered
/// table is byte-identical to a serial operator-at-a-time render.
#[test]
fn pla_obligations_execute_through_fused_pipeline() {
    let scenario = Scenario::generate(ScenarioConfig {
        patients: 20,
        prescriptions: 80,
        lab_tests: 20,
        ..Default::default()
    });
    let mut sys = BiSystem::new(Date::new(2008, 7, 1).unwrap());
    for (sid, cat) in &scenario.sources {
        sys.register_source(sid.clone(), cat.clone());
    }
    sys.add_pla(
        PlaDocument::new("vpd", "hospital", PlaLevel::Source)
            .with_rule(PlaRule::RowRestriction {
                table: "FactPrescriptions".into(),
                condition: col("Disease").ne(lit("HIV")),
            })
            .with_rule(PlaRule::Retention {
                table: "FactPrescriptions".into(),
                date_attribute: "Date".into(),
                max_age_days: 3650,
            }),
    );
    let pipeline = Pipeline::new("nightly")
        .step(
            "e",
            EtlOp::Extract {
                source: "hospital".into(),
                table: "Prescriptions".into(),
                as_name: "s".into(),
            },
        )
        .step(
            "l",
            EtlOp::Load {
                table: "s".into(),
                warehouse_table: "FactPrescriptions".into(),
            },
        );
    sys.run_etl(&pipeline, None).unwrap();
    sys.add_meta_report(
        MetaReport::new(
            "m",
            "Prescription universe",
            scan("FactPrescriptions").project_cols(&["Patient", "Drug", "Disease", "Date"]),
        )
        .approved("hospital"),
    );
    sys.define_report(ReportSpec::new(
        "r",
        "Per-disease volume",
        scan("FactPrescriptions").aggregate(vec!["Disease".into()], vec![AggItem::count_star("n")]),
        [RoleId::new("analyst")],
    ));
    sys.subjects_mut().grant("alice@agency", "analyst");

    // Serial operator-at-a-time reference render.
    sys.engine_mut().exec = ExecConfig::with_threads(1);
    let reference = sys
        .deliver(&ReportId::new("r"), &ConsumerId::new("alice@agency"))
        .unwrap()
        .table;
    assert!(
        !reference.rows().is_empty(),
        "scenario must produce a non-trivial report"
    );

    for threads in THREADS {
        let obs = Obs::enabled();
        sys.engine_mut().exec = ExecConfig::with_threads(threads)
            .with_pinned_threads(true)
            .with_columnar(true)
            .with_obs(obs.clone());
        let delivered = sys
            .deliver(&ReportId::new("r"), &ConsumerId::new("alice@agency"))
            .unwrap()
            .table;
        assert_eq!(reference.rows(), delivered.rows(), "threads: {threads}");
        assert_eq!(reference.schema(), delivered.schema(), "threads: {threads}");
        let snap = obs.snapshot();
        assert!(
            snap.counters
                .get("plan.choice.pipeline")
                .copied()
                .unwrap_or(0)
                >= 1,
            "threads {threads}: obligation chain must fuse, got {:?}",
            snap.counters
        );
        assert_eq!(
            snap.counters.get("pipeline.fallback.error"),
            None,
            "threads {threads}: enforcement render must not need the error fallback"
        );
    }
}

/// The paper's intensional attribute rule, end to end: an auditor sees
/// `FactPrescriptions.Doctor` only on prescriptions from 2007 on, a
/// condition the row restriction (`Disease <> 'HIV'`) does not imply, so
/// enforcement's `if(Date >= 2007-01-01, Doctor, NULL)` mask really hides
/// cells and a NULL Doctor group appears. The auditor's Doctor reports —
/// a grouped count, the same behind a date filter of the report's own
/// (above the mask), and a top-k — render through a fused pipeline,
/// byte-identical to the serial render at every thread count, without
/// the error fallback.
#[test]
fn masked_reports_execute_through_fused_pipeline() {
    let scenario = Scenario::generate(ScenarioConfig {
        patients: 40,
        prescriptions: 600,
        lab_tests: 20,
        ..Default::default()
    });
    let mut sys = BiSystem::new(Date::new(2008, 7, 1).unwrap());
    for (sid, cat) in &scenario.sources {
        sys.register_source(sid.clone(), cat.clone());
    }
    let day = |y, m, d| lit(Value::Date(Date::new(y, m, d).unwrap()));
    sys.add_pla(
        PlaDocument::new("vpd", "hospital", PlaLevel::Source)
            .with_rule(PlaRule::RowRestriction {
                table: "FactPrescriptions".into(),
                condition: col("Disease").ne(lit("HIV")),
            })
            .with_rule(PlaRule::AttributeAccess {
                attribute: AttrRef::new("FactPrescriptions", "Doctor"),
                allowed_roles: [RoleId::new("auditor")].into(),
                condition: Some(col("Date").ge(day(2007, 1, 1))),
            })
            .with_rule(PlaRule::AggregationThreshold {
                table: "FactPrescriptions".into(),
                min_group_size: 2,
            }),
    );
    let pipeline = Pipeline::new("nightly")
        .step(
            "e",
            EtlOp::Extract {
                source: "hospital".into(),
                table: "Prescriptions".into(),
                as_name: "s".into(),
            },
        )
        .step(
            "l",
            EtlOp::Load {
                table: "s".into(),
                warehouse_table: "FactPrescriptions".into(),
            },
        );
    sys.run_etl(&pipeline, None).unwrap();
    sys.add_meta_report(
        MetaReport::new(
            "m",
            "Prescription universe",
            scan("FactPrescriptions")
                .project_cols(&["Patient", "Doctor", "Drug", "Disease", "Date"]),
        )
        .approved("hospital"),
    );
    let by_doctor =
        |plan: Plan| plan.aggregate(vec!["Doctor".into()], vec![AggItem::count_star("N")]);
    let reports = [
        ("agg", by_doctor(scan("FactPrescriptions"))),
        (
            "filter_agg",
            by_doctor(scan("FactPrescriptions").filter(col("Date").ge(day(2006, 7, 1)))),
        ),
        (
            "topk",
            by_doctor(scan("FactPrescriptions"))
                .sort(vec![SortKey::desc("N")])
                .limit(4),
        ),
    ];
    for (id, plan) in &reports {
        sys.define_report(ReportSpec::new(
            *id,
            "Prescriptions by doctor",
            plan.clone(),
            [RoleId::new("auditor")],
        ));
    }
    sys.subjects_mut().grant("carol@agency", "auditor");
    let deliver = |sys: &mut BiSystem, id: &str| {
        sys.deliver(&ReportId::new(id), &ConsumerId::new("carol@agency"))
            .unwrap()
            .table
    };

    for (id, _) in &reports {
        // Serial operator-at-a-time reference render.
        sys.engine_mut().exec = ExecConfig::with_threads(1);
        let reference = deliver(&mut sys, id);
        if *id == "agg" {
            assert!(
                reference.rows().iter().any(|r| r[0].is_null()),
                "the mask must hide some Doctor cells: {:?}",
                reference.rows()
            );
        }
        for threads in THREADS {
            let obs = Obs::enabled();
            sys.engine_mut().exec = pipeline_cfg(threads).with_obs(obs.clone());
            let delivered = deliver(&mut sys, id);
            assert_eq!(
                reference.rows(),
                delivered.rows(),
                "{id}, threads: {threads}"
            );
            assert_eq!(
                reference.schema(),
                delivered.schema(),
                "{id}, threads: {threads}"
            );
            let snap = obs.snapshot();
            assert!(
                snap.counters
                    .get("plan.choice.pipeline")
                    .copied()
                    .unwrap_or(0)
                    >= 1,
                "{id}, threads {threads}: the masked chain must fuse, got {:?}",
                snap.counters
            );
            assert_eq!(
                snap.counters.get("pipeline.fallback.error"),
                None,
                "{id}, threads {threads}: a masked render must not need the error fallback"
            );
        }
    }
}

/// The paper's star-join report — drug consumption by family over
/// `FactPrescriptions ⋈ DimDrug`, PLA-rewritten with the hospital's row
/// restriction, pseudonym and k-threshold — streams its join through
/// the pipeline, matches a serial render byte for byte, and a warm
/// repeat converts nothing: every column it reads (the fact table's
/// filter and key columns, the dimension's key and family columns)
/// comes from the chunk cache.
#[test]
fn pla_star_join_report_streams_through_the_pipeline() {
    let scenario = Scenario::generate(ScenarioConfig {
        patients: 30,
        prescriptions: 300,
        lab_tests: 20,
        ..Default::default()
    });
    let mut sys = BiSystem::new(Date::new(2008, 7, 1).unwrap());
    for (sid, cat) in &scenario.sources {
        sys.register_source(sid.clone(), cat.clone());
    }
    sys.add_pla_text(
        r#"
pla "hospital-2008" source hospital version 2 level meta-report {
  require aggregation FactPrescriptions min 2;
  anonymize FactPrescriptions.Patient with pseudonym;
  restrict rows FactPrescriptions when Disease <> 'HIV';
  purpose quality;
}
"#,
    )
    .unwrap();
    let extract = |source: &str, table: &str, as_name: &str| EtlOp::Extract {
        source: source.into(),
        table: table.into(),
        as_name: as_name.into(),
    };
    let load = |table: &str, warehouse_table: &str| EtlOp::Load {
        table: table.into(),
        warehouse_table: warehouse_table.into(),
    };
    let pipeline = Pipeline::new("initial")
        .step("e-presc", extract("hospital", "Prescriptions", "p"))
        .step("l-presc", load("p", "FactPrescriptions"))
        .step("e-reg", extract("health-agency", "DrugRegistry", "r"))
        .step("l-reg", load("r", "DimDrug"));
    sys.run_etl(&pipeline, Some("quality")).unwrap();
    sys.add_meta_report(
        MetaReport::new(
            "m",
            "Prescription universe",
            scan("FactPrescriptions").project_cols(&["Patient", "Drug", "Disease", "Date"]),
        )
        .approved("hospital"),
    );
    sys.define_report(
        ReportSpec::new(
            "by-family",
            "Drug consumption by family",
            scan("FactPrescriptions")
                .join(scan("DimDrug"), vec![("Drug".into(), "Drug".into())], "dim")
                .aggregate(vec!["Family".into()], vec![AggItem::count_star("N")]),
            [RoleId::new("analyst")],
        )
        .for_purpose("quality"),
    );
    sys.subjects_mut().grant("alice@agency", "analyst");
    let deliver = |sys: &mut BiSystem| {
        sys.deliver(
            &ReportId::new("by-family"),
            &ConsumerId::new("alice@agency"),
        )
        .unwrap()
        .table
    };

    sys.engine_mut().exec = ExecConfig::serial();
    let reference = deliver(&mut sys);
    assert!(!reference.rows().is_empty(), "families must survive k = 2");

    for threads in THREADS {
        let cfg = pipeline_cfg(threads);
        sys.engine_mut().exec = cfg.clone();
        // Cold (or already warm) render first; the repeat is measured.
        assert_eq!(deliver(&mut sys).rows(), reference.rows());
        let obs = Obs::enabled();
        sys.engine_mut().exec = cfg.with_obs(obs.clone());
        let warm = deliver(&mut sys);
        assert_eq!(warm.rows(), reference.rows(), "threads: {threads}");
        assert_eq!(warm.schema(), reference.schema(), "threads: {threads}");
        let snap = obs.snapshot();
        assert_eq!(
            snap.counters.get("plan.choice.pipeline"),
            Some(&1),
            "threads {threads}: the star join must stream, got {:?}",
            snap.counters
        );
        assert_eq!(snap.counters.get("query.op.join"), Some(&1));
        assert_eq!(
            snap.counters.get("chunk.cache.miss"),
            None,
            "threads {threads}: a warm render converts nothing, got {:?}",
            snap.counters
        );
        assert!(snap.counters.get("chunk.cache.hit").copied().unwrap_or(0) >= 4);
    }
}
