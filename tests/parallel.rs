//! Parallel execution equivalence properties.
//!
//! The morsel-driven executor's contract is stronger than "same rows":
//! for every thread count it must produce **identical** output — same
//! rows, same order, same schema, same table name — as the serial
//! engine. These properties drive random tables through join,
//! aggregate, k-anonymization and Mondrian at 1, 2 and 8 threads, and
//! check that batch delivery is deterministic end to end.

use plabi::anonymize::{kanon, mondrian, Hierarchy};
use plabi::exec::ExecConfig;
use plabi::prelude::*;
use plabi::query::{execute, execute_with};
use plabi::types::{Column, DataType, Schema};
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];

/// Fact(K, G, V) rows; K is nullable to exercise NULL join keys.
fn fact_rows() -> impl Strategy<Value = Vec<(Option<i64>, u8, i64)>> {
    prop::collection::vec(
        (
            // ~1 in 5 join keys NULL, the rest hit Dim's 0..40 domain.
            (0i64..50).prop_map(|k| if k >= 40 { None } else { Some(k) }),
            0u8..6,
            -50i64..50,
        ),
        0..120,
    )
}

fn fact_catalog(rows: &[(Option<i64>, u8, i64)]) -> Catalog {
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
    let dim_schema = Schema::new(vec![
        Column::new("K", DataType::Int),
        Column::new("W", DataType::Int),
    ])
    .unwrap();
    let dim = (0..40i64)
        .map(|k| vec![Value::Int(k), Value::Int(k * 3)])
        .collect();
    let mut cat = Catalog::new();
    cat.add_table(Table::from_rows("Fact", schema, data).unwrap())
        .unwrap();
    cat.add_table(Table::from_rows("Dim", dim_schema, dim).unwrap())
        .unwrap();
    cat
}

/// Serial vs parallel equality for a plan: rows, order, schema, name.
fn assert_plan_parallel_identical(plan: &Plan, cat: &Catalog) {
    let serial = execute(plan, cat).unwrap();
    for threads in THREADS {
        let par = execute_with(
            plan,
            cat,
            &ExecConfig::with_threads(threads).with_pinned_threads(true),
        )
        .unwrap();
        assert_eq!(serial.rows(), par.rows(), "threads={threads}");
        assert_eq!(serial.schema(), par.schema(), "threads={threads}");
        assert_eq!(serial.name(), par.name(), "threads={threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Inner and left hash joins are thread-count-invariant.
    #[test]
    fn parallel_join_identical_to_serial(rows in fact_rows()) {
        let cat = fact_catalog(&rows);
        let inner = scan("Fact").join(scan("Dim"), vec![("K".into(), "K".into())], "d");
        assert_plan_parallel_identical(&inner, &cat);
        let left = scan("Fact").left_join(scan("Dim"), vec![("K".into(), "K".into())], "d");
        assert_plan_parallel_identical(&left, &cat);
    }

    /// Grouped aggregation (count, sum, min/max) is thread-count-invariant,
    /// including the first-appearance group order of the serial engine.
    #[test]
    fn parallel_aggregate_identical_to_serial(rows in fact_rows()) {
        let cat = fact_catalog(&rows);
        let agg = scan("Fact").aggregate(
            vec!["G".into()],
            vec![
                AggItem::count_star("n"),
                AggItem::new("total", AggFunc::Sum, "V"),
                AggItem::new("lo", AggFunc::Min, "V"),
                AggItem::new("hi", AggFunc::Max, "V"),
            ],
        );
        assert_plan_parallel_identical(&agg, &cat);
    }
}

// ---------- anonymization ----------

fn patient_table(rows: &[(i64, u8)]) -> Table {
    let schema = Schema::new(vec![
        Column::new("Age", DataType::Int),
        Column::new("Zip", DataType::Int),
        Column::new("Disease", DataType::Text),
    ])
    .unwrap();
    let data = rows
        .iter()
        .map(|&(age, z)| {
            vec![
                Value::Int(20 + age.rem_euclid(60)),
                Value::Int(38100 + i64::from(z % 4)),
                Value::text(format!("d{}", z % 3)),
            ]
        })
        .collect();
    Table::from_rows("P", schema, data).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Full-domain lattice k-anonymization picks the same node and
    /// produces the same table at every thread count, and Mondrian's
    /// wave-parallel partitioning reproduces the serial recursion.
    #[test]
    fn parallel_anonymization_identical_to_serial(
        rows in prop::collection::vec((0i64..100, 0u8..8), 2..60),
        k in 2usize..5,
    ) {
        let t = patient_table(&rows);
        let hiers = vec![
            Hierarchy::numeric("Age", vec![10.0, 30.0]).unwrap(),
            Hierarchy::numeric("Zip", vec![2.0, 10.0]).unwrap(),
        ];
        let serial = kanon::kanonymize(&t, &hiers, k, 1);
        for threads in THREADS {
            let cfg = ExecConfig::with_threads(threads).with_pinned_threads(true);
            match (&serial, &kanon::kanonymize_with(&t, &hiers, k, 1, &cfg)) {
                (Ok(s), Ok(p)) => {
                    prop_assert_eq!(&s.levels, &p.levels, "threads={}", threads);
                    prop_assert_eq!(s.nodes_examined, p.nodes_examined);
                    prop_assert_eq!(s.table.rows(), p.table.rows());
                }
                (Err(se), Err(pe)) => prop_assert_eq!(se, pe),
                other => prop_assert!(false, "serial/parallel disagree: {:?}", other),
            }
        }

        let serial_m = mondrian::mondrian(&t, &["Age"], k);
        for threads in THREADS {
            let cfg = ExecConfig::with_threads(threads).with_pinned_threads(true);
            match (&serial_m, &mondrian::mondrian_with(&t, &["Age"], k, &cfg)) {
                (Ok(s), Ok(p)) => prop_assert_eq!(s.rows(), p.rows(), "threads={}", threads),
                (Err(se), Err(pe)) => prop_assert_eq!(se, pe),
                other => prop_assert!(false, "serial/parallel disagree: {:?}", other),
            }
        }
    }
}

// ---------- batch delivery determinism ----------

/// `deliver_batch` output ordering is stable: results line up with the
/// request order and repeated runs agree, at every thread count.
#[test]
fn deliver_batch_ordering_is_deterministic() {
    let build = || {
        let scenario = Scenario::generate(ScenarioConfig {
            patients: 30,
            prescriptions: 150,
            lab_tests: 0,
            ..Default::default()
        });
        let mut sys = BiSystem::new(Date::new(2008, 7, 1).unwrap());
        for (sid, cat) in scenario.sources {
            sys.register_source(sid, cat);
        }
        sys.add_pla_text(
            r#"pla "hospital-1" source hospital version 1 level meta-report {
  require aggregation FactPrescriptions min 2;
}"#,
        )
        .unwrap();
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
        sys.run_etl(&pipeline, Some("quality")).unwrap();
        sys.add_meta_report(
            MetaReport::new(
                "m1",
                "Prescription universe",
                scan("FactPrescriptions").project_cols(&["Patient", "Drug", "Disease", "Date"]),
            )
            .approved("hospital"),
        );
        sys.subjects_mut().grant("alice@agency", "analyst");
        sys.define_report(ReportSpec::new(
            "drug-consumption",
            "Drug consumption",
            scan("FactPrescriptions").aggregate(
                vec!["Drug".into()],
                vec![AggItem::count_star("Consumption")],
            ),
            [RoleId::new("analyst")],
        ));
        sys.define_report(ReportSpec::new(
            "disease-count",
            "Disease counts",
            scan("FactPrescriptions")
                .aggregate(vec!["Disease".into()], vec![AggItem::count_star("N")]),
            [RoleId::new("analyst")],
        ));
        sys
    };

    let requests: Vec<(ReportId, ConsumerId)> = vec![
        (
            ReportId::new("drug-consumption"),
            ConsumerId::new("alice@agency"),
        ),
        (
            ReportId::new("disease-count"),
            ConsumerId::new("alice@agency"),
        ),
        (
            ReportId::new("drug-consumption"),
            ConsumerId::new("stranger@x"),
        ),
        (
            ReportId::new("disease-count"),
            ConsumerId::new("alice@agency"),
        ),
    ];

    let reference: Vec<String> = {
        let mut sys = build();
        sys.engine_mut().exec = ExecConfig::serial();
        sys.deliver_batch(&requests)
            .iter()
            .map(|r| match r {
                Ok(e) => format!("ok:{}rows", e.table.len()),
                Err(e) => format!("err:{e}"),
            })
            .collect()
    };
    assert!(reference[0].starts_with("ok:"));
    assert!(reference[2].starts_with("err:"));

    for threads in THREADS {
        for _run in 0..2 {
            let mut sys = build();
            sys.engine_mut().exec = ExecConfig::with_threads(threads).with_pinned_threads(true);
            let got: Vec<String> = sys
                .deliver_batch(&requests)
                .iter()
                .map(|r| match r {
                    Ok(e) => format!("ok:{}rows", e.table.len()),
                    Err(e) => format!("err:{e}"),
                })
                .collect();
            assert_eq!(got, reference, "threads={threads}");
            // The journal sequence follows request order, not completion
            // order (the stranger's refusal is journaled but is not a
            // delivery).
            let journal: Vec<String> = sys
                .audit_log()
                .deliveries()
                .map(|e| e.report.to_string())
                .collect();
            assert_eq!(
                journal,
                vec!["drug-consumption", "disease-count", "disease-count"],
                "threads={threads}"
            );
            assert_eq!(sys.audit_log().refusal_count(), 1, "threads={threads}");
        }
    }
}
