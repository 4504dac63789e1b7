//! Property tests pitting the expression bytecode VM against the
//! recursive `Expr::eval` oracle — the walker is retained exactly so
//! these tests have an independent reference implementation:
//!
//! * the VM is byte-identical to the oracle (same values AND same typed
//!   errors), row by row, over random schemas, rows, and expression
//!   trees — including unknown columns and wrong-arity calls, which
//!   compile to ops that fail only where the oracle's evaluation
//!   reaches them;
//! * constant folding never changes what an expression evaluates to;
//! * table-level filtering through the VM (`filter_scalar`) matches the
//!   hand-rolled oracle filter at 1, 2, and 8 threads;
//! * every `FilterRows` obligation a PLA check emits over a synthesized
//!   scenario resolves against its table's schema.

use plabi::exec::ExecConfig;
use plabi::pla::Obligation;
use plabi::prelude::*;
use plabi::relation::expr::{Expr, Program, Vm};
use plabi::relation::{filter_scalar, fold, BinOp, Func, Table};
use plabi::types::{Column, DataType, Schema};
use proptest::prelude::*;

// ---------- strategies ----------

fn literal_strategy() -> impl Strategy<Value = Value> {
    // IN-list members must be non-null literals.
    prop_oneof![
        (-10_000i64..10_000).prop_map(Value::Int),
        "[a-z]{1,6}".prop_map(Value::text),
    ]
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-10_000i64..10_000).prop_map(Value::Int),
        (-1000i64..1000).prop_map(|i| Value::Float(i as f64 / 8.0)),
        "[a-zA-Z' ]{0,8}".prop_map(Value::text),
        (1990i16..2030, 1u8..13, 1u8..29)
            .prop_map(|(y, m, d)| Value::Date(Date::new(y, m, d).expect("day < 29 always valid"))),
    ]
}

/// The four schema columns, plus `zz`, which no schema has.
fn col_name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("t".to_string()),
        Just("d".to_string()),
        Just("zz".to_string()),
    ]
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        col_name().prop_map(Expr::Col),
        value_strategy().prop_map(Expr::Lit),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            (
                inner.clone(),
                inner.clone(),
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Mul),
                    Just(BinOp::Div),
                    Just(BinOp::Eq),
                    Just(BinOp::Ne),
                    Just(BinOp::Lt),
                    Just(BinOp::Le),
                    Just(BinOp::Gt),
                    Just(BinOp::Ge),
                    Just(BinOp::And),
                    Just(BinOp::Or),
                ]
            )
                .prop_map(|(l, r, op)| Expr::Bin(op, Box::new(l), Box::new(r))),
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            inner.clone().prop_map(|e| Expr::Neg(Box::new(e))),
            inner.clone().prop_map(|e| Expr::IsNull(Box::new(e))),
            (
                inner.clone(),
                prop::collection::vec(literal_strategy(), 1..4)
            )
                .prop_map(|(e, vs)| Expr::InList(Box::new(e), vs)),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(e, lo, hi)| Expr::Between(
                Box::new(e),
                Box::new(lo),
                Box::new(hi)
            )),
            (
                prop_oneof![
                    Just(Func::Year),
                    Just(Func::Lower),
                    Just(Func::Length),
                    Just(Func::Abs)
                ],
                inner.clone()
            )
                .prop_map(|(f, e)| Expr::Func(f, vec![e])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Func(Func::NullIf, vec![a, b])),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(c, a, b)| Expr::Func(Func::If, vec![c, a, b])),
            // Wrong argument counts (0–2 where `substr`/`if` take 3,
            // `coalesce` at least 1 and `upper` exactly 1), mixed with
            // the right ones for `coalesce` and `upper`.
            (
                prop_oneof![
                    Just(Func::Substr),
                    Just(Func::If),
                    Just(Func::Coalesce),
                    Just(Func::Upper)
                ],
                prop::collection::vec(inner, 0..3)
            )
                .prop_map(|(f, args)| Expr::Func(f, args)),
        ]
    })
}

fn dtype_strategy() -> impl Strategy<Value = DataType> {
    prop_oneof![
        Just(DataType::Int),
        Just(DataType::Float),
        Just(DataType::Text),
        Just(DataType::Date),
        Just(DataType::Bool),
    ]
}

/// Deterministically derives a cell of the given type from a seed
/// (`None` = NULL), so random seeds yield schema-conforming rows.
fn cell_value(dt: DataType, seed: Option<i64>) -> Value {
    let Some(s) = seed else { return Value::Null };
    match dt {
        DataType::Int => Value::Int(s),
        DataType::Float => Value::Float(s as f64 / 8.0),
        DataType::Text => {
            Value::text(["", "a", "ab", "hiv", "x y", "zed"][s.rem_euclid(6) as usize])
        }
        DataType::Date => Value::Date(
            Date::new(
                1990 + s.rem_euclid(40) as i16,
                1 + s.rem_euclid(12) as u8,
                1 + s.rem_euclid(28) as u8,
            )
            .expect("derived day <= 28 always valid"),
        ),
        DataType::Bool => Value::Bool(s % 2 == 0),
    }
}

/// A random 4-column nullable schema over the names the expression
/// strategy references, plus rows of matching (or NULL) cells built
/// from the seed grid.
fn make_schema_rows(dts: &[DataType], seeds: &[Vec<Option<i64>>]) -> (Schema, Vec<Vec<Value>>) {
    let schema = Schema::new(
        ["a", "b", "t", "d"]
            .iter()
            .zip(dts)
            .map(|(n, &dt)| Column::nullable(*n, dt))
            .collect(),
    )
    .expect("distinct names, valid schema");
    let rows = seeds
        .iter()
        .map(|row| {
            dts.iter()
                .zip(row)
                .map(|(&dt, &s)| cell_value(dt, s))
                .collect()
        })
        .collect();
    (schema, rows)
}

fn dtypes_strategy() -> impl Strategy<Value = Vec<DataType>> {
    prop::collection::vec(dtype_strategy(), 4..5)
}

fn seeds_strategy(max_rows: usize) -> impl Strategy<Value = Vec<Vec<Option<i64>>>> {
    prop::collection::vec(
        prop::collection::vec(prop::option::of(-100i64..100), 4..5),
        0..max_rows,
    )
}

// ---------- VM vs oracle ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every expression compiles, and running the program is
    /// byte-identical to the recursive oracle: the same values and the
    /// same typed errors, row by row.
    #[test]
    fn vm_is_byte_identical_to_the_oracle(
        dts in dtypes_strategy(),
        seeds in seeds_strategy(12),
        e in expr_strategy(),
    ) {
        let (schema, rows) = make_schema_rows(&dts, &seeds);
        let p = Program::compile(&e, &schema);
        let mut vm = Vm::new();
        for row in &rows {
            prop_assert_eq!(vm.run(&p, row), e.eval(&schema, row), "expr: {}", e);
        }
    }

    /// Constant folding is invisible to evaluation: the folded tree
    /// produces exactly the oracle's value or error on every row.
    #[test]
    fn fold_preserves_evaluation(
        dts in dtypes_strategy(),
        seeds in seeds_strategy(8),
        e in expr_strategy(),
    ) {
        let (schema, rows) = make_schema_rows(&dts, &seeds);
        let folded = fold(&e);
        for row in &rows {
            prop_assert_eq!(folded.eval(&schema, row), e.eval(&schema, row), "expr: {}", e);
        }
    }

    /// Table-level filtering through the VM matches a hand-rolled
    /// oracle filter — same kept rows or same first error — at every
    /// thread count.
    #[test]
    fn filter_scalar_matches_the_oracle_at_1_2_and_8_threads(
        dts in dtypes_strategy(),
        seeds in seeds_strategy(48),
        e in expr_strategy(),
    ) {
        let (schema, rows) = make_schema_rows(&dts, &seeds);
        let t = Table::from_rows("T", schema, rows).expect("cells match the schema");
        // The oracle: recursive eval per row, first error wins.
        let mut kept: Vec<Vec<Value>> = Vec::new();
        let mut first_err = None;
        for row in t.rows() {
            match e.eval(t.schema(), row) {
                Ok(v) => {
                    if v.as_bool().unwrap_or(false) {
                        kept.push(row.clone());
                    }
                }
                Err(err) => {
                    first_err = Some(err);
                    break;
                }
            }
        }
        for threads in [1usize, 2, 8] {
            let cfg = ExecConfig::with_threads(threads).with_pinned_threads(true);
            let got = filter_scalar(&t, &e, &cfg);
            match (&first_err, got) {
                (Some(expected), Err(actual)) => prop_assert_eq!(expected, &actual, "threads: {}", threads),
                (None, Ok(out)) => prop_assert_eq!(out.rows(), kept.as_slice(), "threads: {}", threads),
                (expected, actual) => {
                    return Err(TestCaseError::fail(format!(
                        "threads {threads}: oracle {expected:?} vs engine {actual:?} for expr {e}"
                    )));
                }
            }
        }
    }
}

// ---------- PLA obligations compile to the VM ----------

/// Every `FilterRows` obligation the checker emits over a synthesized
/// scenario — VPD row restrictions verbatim and retention cutoffs
/// synthesized as `attr >= date` — must resolve against the schema of
/// the table it filters: every column it names exists there, so the
/// compiled program never reaches a failing op.
#[test]
fn pla_filter_rows_obligations_compile_to_vm_programs() {
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
    let out = sys.check(&"r".into()).unwrap();
    let mut filter_rows = 0;
    for o in &out.obligations {
        if let Obligation::FilterRows { table, condition } = o {
            filter_rows += 1;
            let schema = sys.warehouse().catalog().table(table).unwrap().schema();
            assert!(
                condition.infer_type(schema).is_ok(),
                "FilterRows obligation must resolve against its table: {condition}"
            );
        }
    }
    assert_eq!(filter_rows, 2, "row restriction + retention cutoff");
}
