//! Property-based tests over the core invariants (proptest).
//!
//! * expression printer/parser round-trip;
//! * VPD rewrite soundness (enforced results are sub-multisets);
//! * k-anonymity post-conditions (lattice and Mondrian);
//! * containment soundness: every synthesized meta-report covers its
//!   portfolio, and every accepted derivation really recomputes the
//!   report;
//! * provenance conservation (tokens never invented, values unchanged);
//! * PLA DSL round-trip over random documents.

use std::collections::BTreeSet;

use plabi::anonymize::{kanon, ldiv, mondrian, Hierarchy};
use plabi::pla::{self, AnonMethod, AttrRef, PlaDocument, PlaLevel, PlaRule};
use plabi::prelude::*;
use plabi::query::contain::{derive, validate_derivation, RefIntegrity};
use plabi::query::rewrite::{MaskAction, ScanPolicy};
use plabi::relation::expr::{self, Expr};
use plabi::relation::{BinOp, Func};
use plabi::report::evolve::{EvolutionWorkload, ReportUniverse, TableDesc, WorkloadParams};
use plabi::report::generate::{synthesize_meta_reports, GranularityKnob};
use plabi::types::{Column, DataType, Schema};
use proptest::prelude::*;

// ---------- strategies ----------

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

fn literal_strategy() -> impl Strategy<Value = Value> {
    // IN-list members must be non-null literals.
    prop_oneof![
        (-10_000i64..10_000).prop_map(Value::Int),
        "[a-z]{1,6}".prop_map(Value::text),
    ]
}

fn col_name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("t".to_string()),
        Just("d".to_string())
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
            (inner.clone(), inner.clone(), inner)
                .prop_map(|(c, a, b)| Expr::Func(Func::If, vec![c, a, b])),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `print ∘ parse` reaches a fixpoint after one round: the printed
    /// form always parses, and the parsed tree re-prints to itself.
    /// (Full identity cannot hold: `-1` is printable from both the
    /// literal -1 and the negation of 1; the parser canonicalizes.)
    #[test]
    fn expr_print_parse_roundtrip(e in expr_strategy()) {
        let printed = e.to_string();
        let parsed = expr::parse(&printed)
            .unwrap_or_else(|err| panic!("printed form must parse: {printed:?}: {err}"));
        let reprinted = parsed.to_string();
        let reparsed = expr::parse(&reprinted)
            .unwrap_or_else(|err| panic!("reprinted form must parse: {reprinted:?}: {err}"));
        prop_assert_eq!(&reparsed, &parsed, "printed: {} reprinted: {}", printed, reprinted);
        prop_assert_eq!(reprinted.clone(), reparsed.to_string());
    }
}

// ---------- evaluation totality ----------

fn eval_schema() -> Schema {
    Schema::new(vec![
        Column::nullable("a", DataType::Int),
        Column::nullable("b", DataType::Float),
        Column::nullable("t", DataType::Text),
        Column::nullable("d", DataType::Date),
    ])
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Evaluation never panics; it returns a value or a typed error.
    #[test]
    fn eval_is_total(
        e in expr_strategy(),
        a in prop_oneof![Just(Value::Null), (-100i64..100).prop_map(Value::Int)],
        t in "[a-z]{0,5}",
    ) {
        let row = vec![a, Value::Float(1.5), Value::text(t), Value::Date(Date::new(2007, 6, 15).unwrap())];
        let _ = e.eval(&eval_schema(), &row);
    }
}

// ---------- rewrite soundness ----------

fn fixture_catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table(plabi::synth::fixtures::prescriptions())
        .unwrap();
    cat.add_table(plabi::synth::fixtures::drug_cost()).unwrap();
    cat
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A rewritten (policy-enforced) scan yields a sub-multiset of the
    /// unrestricted rows (masked cells excepted — we check row counts and
    /// unmasked columns).
    #[test]
    fn rewrite_restricts_rows(patient in "[A-Z][a-z]{2,6}", hide_doctor in any::<bool>()) {
        let cat = fixture_catalog();
        let mut policy = ScanPolicy::for_table("Prescriptions")
            .restrict_rows(expr::col("Patient").ne(expr::lit(patient)));
        if hide_doctor {
            policy = policy.mask("Doctor", MaskAction::Nullify);
        }
        let plan = scan("Prescriptions");
        let rewritten = plabi::query::rewrite::apply(&plan, &[policy], &cat).unwrap();
        let original = plabi::query::execute(&plan, &cat).unwrap();
        let restricted = plabi::query::execute(&rewritten, &cat).unwrap();
        prop_assert!(restricted.len() <= original.len());
        // Every restricted row appears in the original, ignoring the
        // (possibly masked) Doctor column.
        let strip = |t: &Table| -> Vec<Vec<Value>> {
            t.rows().iter().map(|r| {
                r.iter().enumerate().filter(|(i, _)| *i != 1).map(|(_, v)| v.clone()).collect()
            }).collect()
        };
        let orig_rows = strip(&original);
        for row in strip(&restricted) {
            prop_assert!(orig_rows.contains(&row));
        }
    }
}

// ---------- anonymization post-conditions ----------

fn patients_table(ages: &[i64], zips: &[i64]) -> Table {
    let schema = Schema::new(vec![
        Column::new("Age", DataType::Int),
        Column::new("Zip", DataType::Int),
        Column::new("Disease", DataType::Text),
    ])
    .unwrap();
    let diseases = ["HIV", "asthma", "flu", "diabetes"];
    let rows = ages
        .iter()
        .zip(zips)
        .enumerate()
        .map(|(i, (&a, &z))| {
            vec![
                Value::Int(a),
                Value::Int(z),
                diseases[i % diseases.len()].into(),
            ]
        })
        .collect();
    Table::from_rows("P", schema, rows).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mondrian_satisfies_k(
        ages in prop::collection::vec(0i64..100, 4..40),
        k in 2usize..5,
    ) {
        let zips: Vec<i64> = ages.iter().map(|a| 38000 + (a % 7) * 13).collect();
        let t = patients_table(&ages, &zips);
        match mondrian(&t, &["Age", "Zip"], k) {
            Ok(anon) => {
                prop_assert_eq!(anon.len(), t.len());
                prop_assert!(kanon::is_k_anonymous(&anon, &["Age", "Zip"], k).unwrap());
            }
            Err(plabi::anonymize::AnonError::Unsatisfiable { .. }) => {
                prop_assert!(ages.len() < k);
            }
            Err(other) => return Err(TestCaseError::fail(format!("unexpected error: {other}"))),
        }
    }

    #[test]
    fn full_domain_satisfies_k_and_budget(
        ages in prop::collection::vec(0i64..100, 6..30),
        k in 2usize..4,
        budget in 0usize..3,
    ) {
        let zips: Vec<i64> = ages.iter().map(|a| a % 5).collect();
        let t = patients_table(&ages, &zips);
        let hiers = vec![
            Hierarchy::numeric("Age", vec![10.0, 50.0]).unwrap(),
            Hierarchy::numeric("Zip", vec![2.0]).unwrap(),
        ];
        match kanon::kanonymize(&t, &hiers, k, budget) {
            Ok(res) => {
                prop_assert!(res.suppressed <= budget);
                prop_assert!(kanon::is_k_anonymous(&res.table, &["Age", "Zip"], k).unwrap());
            }
            Err(plabi::anonymize::AnonError::Unsatisfiable { .. }) => {
                // Legal when even full suppression-budget generalization fails.
            }
            Err(other) => return Err(TestCaseError::fail(format!("unexpected error: {other}"))),
        }
    }

    #[test]
    fn l_diversity_enforcement_postcondition(
        ages in prop::collection::vec(0i64..50, 6..30),
        l in 2usize..4,
    ) {
        let zips: Vec<i64> = ages.iter().map(|a| a % 3).collect();
        let t = patients_table(&ages, &zips);
        // First 2-anonymize coarsely, then enforce l-diversity.
        let anon = mondrian(&t, &["Age"], 2).unwrap_or(t);
        let (out, _) = ldiv::enforce_l_diversity(&anon, &["Age"], "Disease", l).unwrap();
        prop_assert!(ldiv::is_l_diverse(&out, &["Age"], "Disease", l).unwrap() || out.is_empty());
    }
}

// ---------- containment soundness over random portfolios ----------

fn small_universe() -> (Catalog, ReportUniverse, RefIntegrity) {
    let scenario = Scenario::generate(ScenarioConfig {
        patients: 25,
        prescriptions: 120,
        lab_tests: 0,
        ..Default::default()
    });
    let mut cat = Catalog::new();
    cat.add_table(
        scenario
            .source("hospital")
            .unwrap()
            .table("Prescriptions")
            .unwrap()
            .clone(),
    )
    .unwrap();
    cat.add_table(
        scenario
            .source("health-agency")
            .unwrap()
            .table("DrugRegistry")
            .unwrap()
            .clone(),
    )
    .unwrap();
    let mut refs = RefIntegrity::new();
    refs.add_fk("Prescriptions", "Drug", "DrugRegistry", "Drug");
    let universe = ReportUniverse {
        tables: vec![
            TableDesc {
                name: "Prescriptions".into(),
                group_cols: vec!["Drug".into(), "Disease".into()],
                measure_cols: vec![],
                filter_cols: vec![(
                    "Disease".into(),
                    vec!["HIV".into(), "asthma".into(), "hypertension".into()],
                )],
            },
            TableDesc {
                name: "DrugRegistry".into(),
                group_cols: vec!["Family".into()],
                measure_cols: vec![],
                filter_cols: vec![],
            },
        ],
        joins: vec![(
            "Prescriptions".into(),
            "Drug".into(),
            "DrugRegistry".into(),
            "Drug".into(),
        )],
        roles: vec![RoleId::new("analyst")],
    };
    (cat, universe, refs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Synthesized meta-reports cover their portfolio, and every
    /// accepted derivation empirically recomputes the report.
    #[test]
    fn synthesis_covers_and_derivations_are_sound(seed in 0u64..5000, overlap in 0.0f64..=1.0) {
        let (cat, universe, refs) = small_universe();
        let w = EvolutionWorkload::generate(
            WorkloadParams { seed, initial_reports: 6, epochs: 0, events_per_epoch: 0, ..Default::default() },
            &universe,
        );
        let out = synthesize_meta_reports(&w.initial, &cat, &refs, GranularityKnob { merge_overlap: overlap })
            .unwrap();
        prop_assert!(out.unsupported.is_empty());
        for r in &w.initial {
            let mut covered = false;
            for m in &out.metas {
                if let Ok(d) = derive(&r.plan, &m.plan, &cat, &refs) {
                    covered = true;
                    prop_assert!(
                        validate_derivation(&r.plan, &m.plan, &d, &cat).unwrap(),
                        "derivation failed to recompute {} over {}", r.id, m.id
                    );
                    break;
                }
            }
            prop_assert!(covered, "report {} not covered (overlap {overlap})", r.id);
        }
    }
}

// ---------- provenance conservation ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn provenance_conserves_tokens_and_values(seed in 0u64..5000) {
        use plabi::provenance::{pexecute, ProvCatalog};
        let (cat, universe, _) = small_universe();
        let w = EvolutionWorkload::generate(
            WorkloadParams { seed, initial_reports: 3, epochs: 0, events_per_epoch: 0, ..Default::default() },
            &universe,
        );
        // Base token universe.
        let mut base: BTreeSet<(String, String)> = BTreeSet::new();
        for t in cat.table_names() {
            for c in cat.schema_of(t).unwrap().columns() {
                base.insert((t.to_string(), c.name.clone()));
            }
        }
        for r in &w.initial {
            let pcat = ProvCatalog::new(&cat);
            let annotated = pexecute(&r.plan, &pcat).unwrap();
            let plain = plabi::query::execute(&r.plan, &cat).unwrap();
            prop_assert_eq!(plain.rows(), annotated.table().rows(), "values must agree");
            for tok in annotated.all_tokens() {
                prop_assert!(
                    base.contains(&(tok.table.clone(), tok.column.clone())),
                    "invented token {tok}"
                );
            }
        }
    }
}

// ---------- PLA DSL round-trip ----------

fn rule_strategy() -> impl Strategy<Value = PlaRule> {
    let attr = ("[A-Z][a-z]{2,8}", "[A-Z][a-z]{2,8}").prop_map(|(t, c)| AttrRef::new(t, c));
    let roles = prop::collection::btree_set("[a-z]{3,8}".prop_map(RoleId::new), 1..4);
    prop_oneof![
        (
            attr.clone(),
            roles,
            prop::option::of(Just(expr::col("Disease").ne(expr::lit("HIV"))))
        )
            .prop_map(
                |(attribute, allowed_roles, condition)| PlaRule::AttributeAccess {
                    attribute,
                    allowed_roles,
                    condition,
                }
            ),
        ("[A-Z][a-z]{2,8}", 1usize..99).prop_map(|(table, min_group_size)| {
            PlaRule::AggregationThreshold {
                table,
                min_group_size,
            }
        }),
        (
            attr.clone(),
            prop_oneof![
                Just(AnonMethod::Suppress),
                Just(AnonMethod::Pseudonymize),
                (0usize..5).prop_map(|level| AnonMethod::Generalize { level }),
                (1i64..100).prop_map(|s| AnonMethod::Noise { scale: s as f64 }),
            ]
        )
            .prop_map(|(attribute, method)| PlaRule::Anonymize { attribute, method }),
        ("[a-z]{3,8}", "[a-z]{3,8}", any::<bool>()).prop_map(|(a, b, allowed)| {
            PlaRule::JoinPermission {
                left_source: a.into(),
                right_source: b.into(),
                allowed,
            }
        }),
        ("[a-z]{3,8}", any::<bool>()).prop_map(|(s, allowed)| PlaRule::IntegrationPermission {
            source: s.into(),
            allowed,
        }),
        (attr, 1i64..2000).prop_map(|(a, max_age_days)| PlaRule::Retention {
            table: a.table,
            date_attribute: a.column,
            max_age_days,
        }),
        prop::collection::btree_set("[a-z]{3,8}".prop_map(String::from), 1..4)
            .prop_map(|allowed| PlaRule::Purpose { allowed }),
        ("[A-Z][a-z]{2,8}",).prop_map(|(table,)| PlaRule::RowRestriction {
            table,
            condition: expr::col("Patient").ne(expr::lit("Math")),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pla_dsl_roundtrip(
        id in "[a-z][a-z0-9-]{0,12}",
        source in "[a-z]{3,10}",
        version in 1u32..50,
        level in prop_oneof![
            Just(PlaLevel::Source), Just(PlaLevel::Warehouse),
            Just(PlaLevel::MetaReport), Just(PlaLevel::Report)
        ],
        rules in prop::collection::vec(rule_strategy(), 0..8),
    ) {
        let mut doc = PlaDocument::new(id, source, level);
        doc.version = version;
        doc.rules = rules;
        let printed = doc.to_string();
        let parsed = pla::dsl::parse_document(&printed)
            .unwrap_or_else(|e| panic!("printed doc must parse: {e}\n{printed}"));
        prop_assert_eq!(parsed, doc);
    }
}

// ---------- calendar and CSV round-trips ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Date ↔ epoch-day round-trip over the whole supported range, and
    /// ordering agreement.
    #[test]
    fn date_epoch_roundtrip(days in 0i64..3_652_058) {
        let d = Date::from_days_from_epoch(days).unwrap();
        prop_assert_eq!(d.days_from_epoch(), days);
        let text = d.to_string();
        let back: Date = text.parse().unwrap();
        prop_assert_eq!(back, d);
    }

    /// plus_days is the group action of ℤ on dates.
    #[test]
    fn date_arithmetic_is_consistent(days in 100_000i64..3_000_000, delta in -50_000i64..50_000) {
        let d = Date::from_days_from_epoch(days).unwrap();
        let e = d.plus_days(delta).unwrap();
        prop_assert_eq!(e.days_since(&d), delta);
        prop_assert_eq!(e.plus_days(-delta).unwrap(), d);
    }

    /// CSV round-trips typed tables (NULL for nullable columns,
    /// separators/quotes/newlines in text).
    #[test]
    fn csv_roundtrip(
        rows in prop::collection::vec(
            ("[a-zA-Z ,\"\n]{0,12}", prop::option::of(-1_000i64..1_000), 0i64..3_000_000),
            0..20,
        )
    ) {
        use plabi::relation::csv::{from_csv, to_csv};
        use plabi::types::{Column, DataType, Schema};
        let schema = Schema::new(vec![
            Column::new("name", DataType::Text),
            Column::nullable("amount", DataType::Int),
            Column::new("when", DataType::Date),
        ]).unwrap();
        let table_rows: Vec<Vec<Value>> = rows
            .iter()
            .map(|(name, amount, day)| vec![
                Value::text(name.clone()),
                amount.map(Value::Int).unwrap_or(Value::Null),
                Value::Date(Date::from_days_from_epoch(*day).unwrap()),
            ])
            .collect();
        let t = Table::from_rows("T", schema.clone(), table_rows).unwrap();
        let csv = to_csv(&t);
        let back = from_csv("T", schema, &csv).unwrap();
        // Non-text cells round-trip exactly. Text cells round-trip except
        // that an *empty* text in a non-nullable column re-imports as an
        // unquoted empty field; to_csv writes empty text unquoted, so we
        // normalize that case.
        prop_assert_eq!(back.len(), t.len());
        for (a, b) in t.rows().iter().zip(back.rows()) {
            prop_assert_eq!(&a[1], &b[1]);
            prop_assert_eq!(&a[2], &b[2]);
            prop_assert_eq!(a[0].to_string(), b[0].to_string());
        }
    }
}

// ---------- cube-guard invariant ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After guarding, no sibling family is left with *exactly one*
    /// suppressed member — the differencing invariant.
    #[test]
    fn guard_leaves_no_singleton_suppression(
        counts in prop::collection::vec((0usize..6, 0usize..6, 1i64..20), 1..40),
        k in 2i64..10,
    ) {
        use plabi::types::{Column, DataType, Schema};
        use plabi::warehouse::authz::guard_cube;
        let schema = Schema::new(vec![
            Column::new("Family", DataType::Text),
            Column::new("Detail", DataType::Text),
            Column::new("n", DataType::Int),
        ]).unwrap();
        // Deduplicate (family, detail) pairs — a cube has unique cells.
        let mut seen = std::collections::HashSet::new();
        let rows: Vec<Vec<Value>> = counts
            .iter()
            .filter(|(f, d, _)| seen.insert((*f, *d)))
            .map(|(f, d, n)| vec![
                Value::text(format!("F{f}")),
                Value::text(format!("D{d}")),
                Value::Int(*n),
            ])
            .collect();
        let cube = Table::from_rows("cube", schema, rows).unwrap();
        let guarded = guard_cube(&cube, "n", k as usize, Some("Detail")).unwrap();

        // Reconstruct per-family suppression counts.
        let mut family_total: std::collections::BTreeMap<String, usize> = Default::default();
        for row in cube.rows() {
            *family_total.entry(row[0].to_string()).or_default() += 1;
        }
        let mut family_kept: std::collections::BTreeMap<String, usize> = Default::default();
        for row in guarded.table.rows() {
            *family_kept.entry(row[0].to_string()).or_default() += 1;
        }
        for (family, total) in family_total {
            let kept = family_kept.get(&family).copied().unwrap_or(0);
            let suppressed = total - kept;
            prop_assert!(
                suppressed != 1 || total == 1,
                "family {family} has exactly one suppressed cell out of {total}"
            );
        }
        // Nothing below k is ever published.
        for row in guarded.table.rows() {
            prop_assert!(row[2].as_int().unwrap() >= k);
        }
    }
}

// ---------- shared-ownership data layer (Arc rows + CoW) ----------

fn small_table_strategy() -> impl Strategy<Value = Table> {
    prop::collection::vec(
        (
            -20i64..20,
            "[a-c]{0,2}",
            prop_oneof![Just(Value::Null), (-5i64..5).prop_map(Value::Int)],
        ),
        0..24,
    )
    .prop_map(|rows| {
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("t", DataType::Text),
            Column::nullable("n", DataType::Int),
        ])
        .unwrap();
        let rows: Vec<Vec<Value>> = rows
            .into_iter()
            .map(|(a, t, n)| vec![Value::Int(a), Value::text(t), n])
            .collect();
        Table::from_rows("T", schema, rows).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `filter` keeps exactly the rows whose predicate evaluates to TRUE
    /// (SQL semantics: NULL excluded) — bit-identical to a row-by-row
    /// re-evaluation — and shares the parent's storage when nothing was
    /// filtered out.
    #[test]
    fn filter_matches_rowwise_semantics(t in small_table_strategy(), th in -25i64..25) {
        let pred = expr::col("a").ge(expr::lit(th));
        let out = t.filter(&pred).unwrap();
        let expected: Vec<Vec<Value>> = t
            .rows()
            .iter()
            .filter(|r| pred.eval(t.schema(), r).unwrap().as_bool().unwrap_or(false))
            .cloned()
            .collect();
        prop_assert_eq!(out.rows(), expected.as_slice());
        prop_assert_eq!(out.schema().names(), t.schema().names());
        if out.len() == t.len() {
            prop_assert!(out.shares_rows_with(&t), "a full keep must share storage");
        } else {
            prop_assert!(!out.shares_rows_with(&t));
        }
        // An always-true predicate always takes the sharing fast path.
        let all = t.filter(&expr::lit(true)).unwrap();
        prop_assert!(all.shares_rows_with(&t));
    }

    /// `project` is exactly column-wise extraction, in the asked order.
    #[test]
    fn project_matches_columnwise_extraction(t in small_table_strategy()) {
        let out = t.project(&["t", "a"]).unwrap();
        let expected: Vec<Vec<Value>> = t
            .rows()
            .iter()
            .map(|r| vec![r[1].clone(), r[0].clone()])
            .collect();
        prop_assert_eq!(out.rows(), expected.as_slice());
        prop_assert_eq!(out.schema().names(), vec!["t", "a"]);
    }

    /// `distinct` keeps first occurrences in order; a duplicate-free
    /// table shares its parent's storage instead of copying it. The
    /// coded path, through the chunk cache and with it bypassed, keeps
    /// the same rows in the same order, shares storage and version
    /// exactly when `distinct` does, and leaves its copies the room
    /// asked for.
    #[test]
    fn distinct_keeps_first_occurrences(t in small_table_strategy()) {
        let out = t.distinct();
        let mut seen = std::collections::HashSet::new();
        let expected: Vec<Vec<Value>> = t
            .rows()
            .iter()
            .filter(|r| seen.insert((*r).clone()))
            .cloned()
            .collect();
        prop_assert_eq!(out.rows(), expected.as_slice());
        if out.len() == t.len() {
            prop_assert!(out.shares_rows_with(&t), "no duplicates: storage is shared");
        } else {
            prop_assert!(!out.shares_rows_with(&t));
        }
        let same_version = |u: &Table| u.storage_version() == t.storage_version();
        for capacity in [plabi::exec::DEFAULT_CHUNK_CACHE_CAPACITY, 0] {
            let mut cfg = plabi::exec::ExecConfig::serial();
            cfg.chunk_cache_capacity = capacity;
            let coded = plabi::relation::column::distinct_by_codes(&t, 2, &cfg).unwrap();
            prop_assert_eq!(coded.rows(), out.rows());
            prop_assert_eq!(coded.shares_rows_with(&t), out.shares_rows_with(&t));
            prop_assert_eq!(same_version(&coded), same_version(&out));
            if !coded.shares_rows_with(&t) {
                prop_assert!(coded.rows().iter().all(|r| r.capacity() == r.len() + 2));
            }
        }
    }

    /// `union_all` is concatenation, left rows first.
    #[test]
    fn union_all_is_concatenation(t in small_table_strategy(), u in small_table_strategy()) {
        let out = t.union_all(&u).unwrap();
        let mut expected = t.rows().to_vec();
        expected.extend(u.rows().iter().cloned());
        prop_assert_eq!(out.rows(), expected.as_slice());
        prop_assert_eq!(out.schema().names(), t.schema().names());
    }

    /// Copy-on-write aliasing: mutating a derived table (a clone or a
    /// storage-sharing filter result) never mutates the parent.
    #[test]
    fn cow_mutation_never_touches_parent(t in small_table_strategy()) {
        let snapshot = t.rows().to_vec();
        // A plain clone shares storage until one side mutates.
        let mut copy = t.clone();
        prop_assert!(copy.shares_rows_with(&t));
        copy.push_row(vec![Value::Int(99), Value::text("zz"), Value::Null]).unwrap();
        prop_assert!(!copy.shares_rows_with(&t), "mutation must unshare");
        prop_assert_eq!(t.rows(), snapshot.as_slice());
        prop_assert_eq!(copy.len(), t.len() + 1);
        // Same through a derived table that took the sharing fast path.
        let mut derived = t.filter(&expr::lit(true)).unwrap();
        prop_assert!(derived.shares_rows_with(&t));
        derived.push_row(vec![Value::Int(-99), Value::text("q"), Value::Null]).unwrap();
        prop_assert!(!derived.shares_rows_with(&t));
        prop_assert_eq!(t.rows(), snapshot.as_slice(), "parent rows never change");
    }
}
