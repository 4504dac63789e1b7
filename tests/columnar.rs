//! Columnar/row equivalence properties.
//!
//! The vectorized columnar layer's contract mirrors the parallel one
//! but is stricter about *how* it may differ: a columnar plan either
//! produces output **byte-identical** to the row engine (same rows, same
//! order, same schema, same name) or declines and the row engine runs.
//! These properties drive random tables — with NULLs, Dates, Floats and
//! dictionary-encoded text — through the columnar engine's one executor
//! for filters, joins and group-bys (the fused pipeline: vectorized
//! filter kernels, the dictionary-code join, the code-slotted group-by)
//! and the columnar QI-grouping in both anonymizers, at 1, 2 and 8
//! threads. Error cases must error identically.

use plabi::anonymize::{kanon, mondrian, Hierarchy};
use plabi::exec::ExecConfig;
use plabi::prelude::*;
use plabi::query::{execute, execute_with};
use plabi::relation::expr::{col, lit, Expr};
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

/// Random predicates over the mixed table, covering every kernel: typed
/// comparisons (incl. Int-vs-Float cross-type), dictionary text compares,
/// Date ordering, IS NULL, IN lists with and without NULL members,
/// BETWEEN (also with NULL bounds), and Kleene AND/OR/NOT over all of it.
fn predicate() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-40i64..40).prop_map(|n| col("Age").ge(lit(n))),
        (-40i64..40).prop_map(|n| col("Age").eq(lit(n))),
        (-120i64..120).prop_map(|n| col("Score").lt(lit(n as f64 / 4.0))),
        // Cross-type: Int column vs Float literal and vice versa.
        (-120i64..120).prop_map(|n| col("Age").le(lit(n as f64 / 4.0))),
        (-60i64..60).prop_map(|n| col("Score").gt(lit(n))),
        (0u8..7).prop_map(|w| col("Ward").eq(lit(format!("w{w}")))),
        (0u8..7).prop_map(|w| col("Ward").ne(lit(format!("w{w}")))),
        (0u8..7).prop_map(|w| col("Ward").le(lit(format!("w{w}")))),
        (2000i16..2012, 1u8..13).prop_map(|(y, m)| {
            col("Admitted").ge(lit(Value::Date(Date::new(y, m, 15).unwrap())))
        }),
        Just(col("Chronic")),
        Just(col("Age").is_null()),
        Just(col("Ward").is_null()),
        prop::collection::vec(-40i64..40, 0..4).prop_map(|ns| {
            Expr::InList(
                Box::new(col("Age")),
                ns.into_iter().map(Value::Int).collect(),
            )
        }),
        (prop::collection::vec(0u8..7, 1..3), any::<bool>()).prop_map(|(ws, with_null)| {
            let mut list: Vec<Value> = ws
                .into_iter()
                .map(|w| Value::text(format!("w{w}")))
                .collect();
            if with_null {
                list.push(Value::Null);
            }
            Expr::InList(Box::new(col("Ward")), list)
        }),
        (-40i64..0, 0i64..40).prop_map(|(lo, hi)| {
            Expr::Between(Box::new(col("Age")), Box::new(lit(lo)), Box::new(lit(hi)))
        }),
        (-40i64..40).prop_map(|lo| {
            Expr::Between(
                Box::new(col("Age")),
                Box::new(lit(lo)),
                Box::new(Expr::Lit(Value::Null)),
            )
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

// ---------- filter ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A columnar `ExecConfig` never changes what a filter plan returns:
    /// the fused pipeline runs every predicate that compiles on the
    /// vectorized kernels (the rest on the scalar VM) and matches the
    /// row filter byte for byte — rows, order, schema, name — at every
    /// thread count.
    #[test]
    fn columnar_engine_filter_identical(rows in mixed_rows(), pred in predicate()) {
        let t = mixed_table(&rows);
        let mut cat = Catalog::new();
        cat.add_table(t).unwrap();
        let plan = scan("Mixed").filter(pred);
        let serial = execute(&plan, &cat).unwrap();
        for threads in THREADS {
            let cfg = ExecConfig::with_threads(threads).with_pinned_threads(true).with_columnar(true);
            let out = execute_with(&plan, &cat, &cfg).unwrap();
            prop_assert_eq!(serial.rows(), out.rows(), "threads={}", threads);
            prop_assert_eq!(serial.schema(), out.schema());
            prop_assert_eq!(serial.name(), out.name());
        }
    }
}

// ---------- join and group-by ----------

fn fact_catalog(rows: &[MixedRow]) -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table(mixed_table(rows)).unwrap();
    let dim_schema = Schema::new(vec![
        Column::new("Ward", DataType::Text),
        Column::new("Beds", DataType::Int),
    ])
    .unwrap();
    // Only some wards resolve, so inner joins drop rows and left joins pad.
    let dim = (0..4i64)
        .map(|w| vec![Value::text(format!("w{w}")), Value::Int(w * 9)])
        .collect();
    cat.add_table(Table::from_rows("Wards", dim_schema, dim).unwrap())
        .unwrap();
    cat
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dictionary-code joins (inner and left, NULL keys never matching)
    /// are identical to the row-engine hash join at every thread count.
    #[test]
    fn columnar_join_identical_to_row(rows in mixed_rows()) {
        let cat = fact_catalog(&rows);
        let inner = scan("Mixed").join(scan("Wards"), vec![("Ward".into(), "Ward".into())], "d");
        let left = scan("Mixed").left_join(scan("Wards"), vec![("Ward".into(), "Ward".into())], "d");
        for plan in [&inner, &left] {
            let serial = execute(plan, &cat).unwrap();
            for threads in THREADS {
                let cfg = ExecConfig::with_threads(threads).with_pinned_threads(true).with_columnar(true);
                let out = execute_with(plan, &cat, &cfg).unwrap();
                prop_assert_eq!(serial.rows(), out.rows(), "threads={}", threads);
                prop_assert_eq!(serial.schema(), out.schema());
                prop_assert_eq!(serial.name(), out.name());
            }
        }
    }

    /// Dense-code group-by keeps the serial first-appearance group order
    /// and the exact key bytes (NULL groups included).
    #[test]
    fn columnar_aggregate_identical_to_row(rows in mixed_rows()) {
        let cat = fact_catalog(&rows);
        let agg = scan("Mixed").aggregate(
            vec!["Ward".into()],
            vec![
                AggItem::count_star("n"),
                AggItem::new("total", AggFunc::Sum, "Age"),
                AggItem::new("lo", AggFunc::Min, "Score"),
                AggItem::new("last", AggFunc::Max, "Admitted"),
            ],
        );
        let serial = execute(&agg, &cat).unwrap();
        for threads in THREADS {
            let cfg = ExecConfig::with_threads(threads).with_pinned_threads(true).with_columnar(true);
            let out = execute_with(&agg, &cat, &cfg).unwrap();
            prop_assert_eq!(serial.rows(), out.rows(), "threads={}", threads);
            prop_assert_eq!(serial.schema(), out.schema());
        }
    }
}

// ---------- anonymization ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Columnar QI grouping gives the lattice search, the k-anonymity
    /// check and Mondrian exactly the row-wise results — Date QI columns
    /// and NULLs included.
    #[test]
    fn columnar_anonymization_identical_to_row(rows in mixed_rows(), k in 2usize..5) {
        let t = mixed_table(&rows);
        let hiers = vec![Hierarchy::numeric("Age", vec![10.0, 40.0]).unwrap()];
        let serial = kanon::kanonymize(&t, &hiers, k, 1);
        for threads in THREADS {
            let cfg = ExecConfig::with_threads(threads).with_pinned_threads(true).with_columnar(true);
            match (&serial, &kanon::kanonymize_with(&t, &hiers, k, 1, &cfg)) {
                (Ok(s), Ok(c)) => {
                    prop_assert_eq!(&s.levels, &c.levels, "threads={}", threads);
                    prop_assert_eq!(s.nodes_examined, c.nodes_examined);
                    prop_assert_eq!(s.table.rows(), c.table.rows());
                }
                (Err(se), Err(ce)) => prop_assert_eq!(se, ce),
                other => prop_assert!(false, "row/columnar disagree: {:?}", other),
            }
        }

        let qi = ["Age", "Admitted"];
        let serial_ok = kanon::is_k_anonymous(&t, &qi, k).unwrap();
        for threads in THREADS {
            let cfg = ExecConfig::with_threads(threads).with_pinned_threads(true).with_columnar(true);
            prop_assert_eq!(serial_ok, kanon::is_k_anonymous_with(&t, &qi, k, &cfg).unwrap());
        }

        let serial_m = mondrian::mondrian(&t, &["Age", "Admitted"], k);
        for threads in THREADS {
            let cfg = ExecConfig::with_threads(threads).with_pinned_threads(true).with_columnar(true);
            match (&serial_m, &mondrian::mondrian_with(&t, &["Age", "Admitted"], k, &cfg)) {
                (Ok(s), Ok(c)) => prop_assert_eq!(s.rows(), c.rows(), "threads={}", threads),
                (Err(se), Err(ce)) => prop_assert_eq!(se, ce),
                other => prop_assert!(false, "row/columnar disagree: {:?}", other),
            }
        }
    }
}

// ---------- edge cases ----------

/// Empty tables round-trip through every columnar operator.
#[test]
fn empty_table_is_identical_everywhere() {
    let cat = fact_catalog(&[]);
    let plans = [
        scan("Mixed").filter(col("Age").ge(lit(0)).and(col("Ward").eq(lit("w1")))),
        scan("Mixed").join(scan("Wards"), vec![("Ward".into(), "Ward".into())], "d"),
        scan("Mixed").aggregate(vec!["Ward".into()], vec![AggItem::count_star("n")]),
    ];
    for plan in &plans {
        let serial = execute(plan, &cat).unwrap();
        let out = execute_with(plan, &cat, &ExecConfig::columnar()).unwrap();
        assert_eq!(serial.rows(), out.rows());
        assert_eq!(serial.schema(), out.schema());
    }
}

/// Plans that error on the row engine error identically under a columnar
/// configuration: the vectorized layer declines anything that could
/// diverge, so the row engine reproduces the exact error.
#[test]
fn errors_match_row_engine() {
    let cat = fact_catalog(&[(Some(1), None, Some(2), None, Some(true))]);
    let bad_agg = scan("Mixed").aggregate(
        vec!["Ward".into()],
        vec![AggItem::new("s", AggFunc::Sum, "Ward")],
    );
    let bad_filter = scan("Mixed").filter(col("NoSuchCol").ge(lit(1)));
    for plan in [&bad_agg, &bad_filter] {
        let serial = execute(plan, &cat).unwrap_err();
        let out = execute_with(plan, &cat, &ExecConfig::columnar()).unwrap_err();
        assert_eq!(serial.to_string(), out.to_string());
    }
}
