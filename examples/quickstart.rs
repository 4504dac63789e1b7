//! Quickstart: the smallest end-to-end run of the `plabi` stack.
//!
//! One source (the hospital), one PLA document in the textual DSL, one
//! ETL pipeline, one meta-report, one report — delivered with full
//! enforcement and audited.
//!
//! Run with: `cargo run --example quickstart`

use plabi::prelude::*;

fn main() {
    // 1. The outsourced-BI deployment at a business date.
    let mut system = BiSystem::new(Date::new(2008, 7, 1).expect("valid date"));

    // 2. Register the Fig. 1 sources (synthetic, seeded).
    let scenario = Scenario::generate(ScenarioConfig {
        patients: 50,
        prescriptions: 400,
        lab_tests: 0,
        ..Default::default()
    });
    for (sid, cat) in &scenario.sources {
        system.register_source(sid.clone(), cat.clone());
    }

    // 3. The hospital's privacy level agreement, as the owners signed it.
    system
        .add_pla_text(
            r#"
# Elicited with the hospital on the prescription meta-report.
pla "hospital-2008" source hospital version 1 level meta-report {
  require aggregation FactPrescriptions min 3;
  restrict rows FactPrescriptions when Disease <> 'HIV';
  purpose quality, reimbursement;
}
"#,
        )
        .expect("PLA parses");

    // 4. Nightly ETL: extract prescriptions, load the fact table.
    let pipeline = Pipeline::new("nightly")
        .step(
            "extract",
            EtlOp::Extract {
                source: "hospital".into(),
                table: "Prescriptions".into(),
                as_name: "stg_prescriptions".into(),
            },
        )
        .step(
            "load",
            EtlOp::Load {
                table: "stg_prescriptions".into(),
                warehouse_table: "FactPrescriptions".into(),
            },
        );
    let etl = system
        .run_etl(&pipeline, Some("quality"))
        .expect("pipeline is PLA-compliant");
    println!("ETL loaded {} table(s); steps:", etl.loaded.len());
    for s in &etl.steps {
        println!("  {:10} {:18} -> {} rows", s.step_id, s.op, s.rows_out);
    }

    // 5. The approved meta-report and a report derived from it.
    system.add_meta_report(
        MetaReport::new(
            "m-prescriptions",
            "Prescription universe",
            scan("FactPrescriptions").project_cols(&["Patient", "Drug", "Disease", "Date"]),
        )
        .approved("hospital"),
    );
    system.define_report(
        ReportSpec::new(
            "drug-consumption",
            "Drug consumption",
            scan("FactPrescriptions")
                .aggregate(
                    vec!["Drug".into()],
                    vec![AggItem::count_star("Consumption")],
                )
                .sort(vec![SortKey::desc("Consumption")]),
            [RoleId::new("analyst")],
        )
        .for_purpose("quality"),
    );

    // 6. Compliance gate, then enforced delivery.
    let gate = system
        .check(&"drug-consumption".into())
        .expect("check runs");
    println!(
        "\ncompliance: covered={} violations={} obligations={}",
        gate.coverage.is_covered(),
        gate.violations.len(),
        gate.obligations.len()
    );

    system.subjects_mut().grant("alice@agency", "analyst");
    let delivered = system
        .deliver(&"drug-consumption".into(), &"alice@agency".into())
        .expect("report is compliant");
    println!("\nenforcement applied:");
    for a in delivered.applied.iter() {
        println!("  - {a}");
    }
    println!(
        "\n{}",
        plabi::relation::pretty::render_titled("Drug consumption", &delivered.table)
    );
    println!(
        "(groups suppressed by the k-threshold: {})",
        delivered.suppressed_groups
    );

    // 7. The journal recorded everything an auditor needs.
    println!(
        "\naudit journal: {} delivery(ies)",
        system.audit_log().deliveries().count()
    );
}
