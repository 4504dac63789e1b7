//! Cross-crate anonymization flow: PLA anonymization rules (suppress /
//! pseudonymize / generalize / noise) flowing from the DSL through the
//! combined policy into the enforcement engine, with hierarchies built
//! from the synthetic scenario's taxonomies.

use plabi::anonymize::hierarchy::CategoricalBuilder;
use plabi::anonymize::Hierarchy;
use plabi::prelude::*;
use plabi::synth::names;

fn today() -> Date {
    Date::new(2008, 7, 1).unwrap()
}

fn system_with(pla_rules: &str) -> BiSystem {
    let scenario = Scenario::generate(ScenarioConfig {
        patients: 50,
        prescriptions: 400,
        lab_tests: 0,
        ..Default::default()
    });
    let mut sys = BiSystem::new(today());
    for (sid, cat) in &scenario.sources {
        sys.register_source(sid.clone(), cat.clone());
    }
    sys.add_pla_text(&format!(
        "pla \"hospital\" source hospital version 1 level meta-report {{\n{pla_rules}\n}}"
    ))
    .unwrap();
    let pipeline = Pipeline::new("p")
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
                warehouse_table: "Fact".into(),
            },
        );
    sys.run_etl(&pipeline, None).unwrap();
    sys.add_meta_report(
        MetaReport::new(
            "m",
            "universe",
            scan("Fact").project_cols(&["Patient", "Doctor", "Drug", "Disease", "Date"]),
        )
        .approved("hospital"),
    );
    sys.subjects_mut().grant("ada", "analyst");

    // Generalization hierarchy for diseases, straight from the synth
    // taxonomy edges.
    let mut builder = CategoricalBuilder::new();
    for (child, parent) in names::disease_hierarchy_edges() {
        builder = builder.edge(child, parent);
    }
    sys.engine_mut().hierarchies.insert(
        "Fact.Disease".to_string(),
        builder.build("Disease").unwrap(),
    );
    sys.engine_mut().pseudo_key = 0xfeed;
    sys
}

#[test]
fn generalization_flows_from_dsl_to_delivered_cells() {
    let mut sys = system_with("anonymize Fact.Disease with generalize 1;");
    sys.define_report(ReportSpec::new(
        "r",
        "By disease",
        scan("Fact").aggregate(vec!["Disease".into()], vec![AggItem::count_star("n")]),
        [RoleId::new("analyst")],
    ));
    let out = sys.deliver(&"r".into(), &"ada".into()).unwrap();
    let families: Vec<String> = out
        .table
        .column_values("Disease")
        .unwrap()
        .iter()
        .map(|v| v.to_string())
        .collect();
    let known_families: std::collections::HashSet<&str> =
        names::DISEASES.iter().map(|(_, f, _)| *f).collect();
    for f in &families {
        assert!(
            known_families.contains(f.as_str()),
            "{f} is not a disease family"
        );
    }
    // The engine re-merged coinciding generalized groups: one row per
    // family, counts summed to the grand total.
    let distinct: std::collections::BTreeSet<&String> = families.iter().collect();
    assert_eq!(distinct.len(), families.len(), "no duplicate family rows");
    let total: i64 = out
        .table
        .column_values("n")
        .unwrap()
        .iter()
        .map(|v| v.as_int().unwrap())
        .sum();
    assert_eq!(total, 400, "counts conserved through the merge");
    assert!(out.applied.iter().any(|a| a.contains("re-merged")));
}

/// Level 0 is the identity: generalizing a non-text column at level 0
/// delivers the same schema and rows as the report without the rule.
#[test]
fn generalize_level_zero_delivers_the_report_unchanged() {
    let deliver = |rules: &str| {
        let mut sys = system_with(rules);
        sys.engine_mut()
            .hierarchies
            .insert("Fact.Date".to_string(), Hierarchy::date("Date"));
        sys.define_report(ReportSpec::new(
            "r",
            "By date",
            scan("Fact").aggregate(vec!["Date".into()], vec![AggItem::count_star("n")]),
            [RoleId::new("analyst")],
        ));
        sys.deliver(&"r".into(), &"ada".into()).unwrap().table
    };
    let generalized = deliver("anonymize Fact.Date with generalize 0;");
    let plain = deliver("");
    assert_eq!(generalized.schema(), plain.schema());
    assert_eq!(generalized.rows(), plain.rows());
}

#[test]
fn pseudonyms_are_stable_but_unlinkable_across_keys() {
    let mut sys = system_with("anonymize Fact.Patient with pseudonym;");
    sys.define_report(ReportSpec::new(
        "r",
        "Per patient",
        scan("Fact").aggregate(vec!["Patient".into()], vec![AggItem::count_star("n")]),
        [RoleId::new("analyst")],
    ));
    let a = sys.deliver(&"r".into(), &"ada".into()).unwrap();
    let b = sys.deliver(&"r".into(), &"ada".into()).unwrap();
    assert_eq!(a.table, b.table, "same key ⇒ stable pseudonyms");
    assert!(a
        .table
        .column_values("Patient")
        .unwrap()
        .iter()
        .all(|v| v.as_text().unwrap().starts_with("Patient-")));

    // A different key produces a different (unlinkable) mapping.
    let mut sys2 = system_with("anonymize Fact.Patient with pseudonym;");
    sys2.engine_mut().pseudo_key = 0xdead;
    sys2.define_report(ReportSpec::new(
        "r",
        "Per patient",
        scan("Fact").aggregate(vec!["Patient".into()], vec![AggItem::count_star("n")]),
        [RoleId::new("analyst")],
    ));
    let c = sys2.deliver(&"r".into(), &"ada".into()).unwrap();
    let names_a: std::collections::BTreeSet<String> = a
        .table
        .column_values("Patient")
        .unwrap()
        .iter()
        .map(|v| v.to_string())
        .collect();
    let names_c: std::collections::BTreeSet<String> = c
        .table
        .column_values("Patient")
        .unwrap()
        .iter()
        .map(|v| v.to_string())
        .collect();
    assert!(
        names_a.is_disjoint(&names_c),
        "different keys must not share pseudonyms"
    );
}

#[test]
fn suppression_nulls_the_attribute_at_the_scan() {
    let mut sys =
        system_with("anonymize Fact.Doctor with suppress;\n  require aggregation Fact min 2;");
    sys.define_report(ReportSpec::new(
        "r",
        "By doctor",
        scan("Fact").aggregate(vec!["Doctor".into()], vec![AggItem::count_star("n")]),
        [RoleId::new("analyst")],
    ));
    let out = sys.deliver(&"r".into(), &"ada".into()).unwrap();
    // Every doctor value was suppressed before grouping: one NULL group.
    assert_eq!(out.table.len(), 1);
    assert!(out.table.rows()[0][0].is_null());
}

#[test]
fn noise_perturbs_numeric_outputs_deterministically() {
    // Noise on the Date-derived year column is a no-op (text); noise on
    // counts has no origin. Exercise noise through a numeric source
    // column instead: load DrugCost and perturb Cost.
    let scenario = Scenario::generate(ScenarioConfig::default());
    let mut sys = BiSystem::new(today());
    for (sid, cat) in &scenario.sources {
        sys.register_source(sid.clone(), cat.clone());
    }
    sys.add_pla_text(
        "pla \"agency\" source health-agency version 1 level meta-report {\n  anonymize Costs.Cost with noise 3.0;\n}",
    )
    .unwrap();
    let pipeline = Pipeline::new("p")
        .step(
            "e",
            EtlOp::Extract {
                source: "health-agency".into(),
                table: "DrugCost".into(),
                as_name: "s".into(),
            },
        )
        .step(
            "l",
            EtlOp::Load {
                table: "s".into(),
                warehouse_table: "Costs".into(),
            },
        );
    sys.run_etl(&pipeline, None).unwrap();
    sys.add_meta_report(
        MetaReport::new("m", "costs", scan("Costs").project_cols(&["Drug", "Cost"]))
            .approved("health-agency"),
    );
    sys.subjects_mut().grant("ada", "analyst");
    sys.define_report(ReportSpec::new(
        "r",
        "Costs",
        scan("Costs").aggregate(
            vec!["Drug".into()],
            vec![AggItem::new("c", AggFunc::Max, "Cost")],
        ),
        [RoleId::new("analyst")],
    ));
    let a = sys.deliver(&"r".into(), &"ada".into()).unwrap();
    let b = sys.deliver(&"r".into(), &"ada".into()).unwrap();
    assert_eq!(a.table, b.table, "seeded noise is reproducible");
    // Values differ from the true maxima for at least some drugs.
    let truth = plabi::query::execute(
        &scan("Costs").aggregate(
            vec!["Drug".into()],
            vec![AggItem::new("c", AggFunc::Max, "Cost")],
        ),
        sys.warehouse().catalog(),
    )
    .unwrap();
    let mut differs = 0;
    for (x, y) in truth.rows().iter().zip(a.table.rows()) {
        if x != y {
            differs += 1;
        }
    }
    assert!(differs > 0, "noise must actually perturb something");
}
