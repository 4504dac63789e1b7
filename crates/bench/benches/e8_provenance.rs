//! E8 — provenance for auditing (paper §4).
//!
//! (a) Where-provenance propagation overhead vs. plain execution across
//! plan shapes; (b) dispute-resolution lookup latency over a populated
//! audit journal. Expected shape: propagation costs a constant factor
//! (annotation sets ride along each operator); dispute lookups are
//! re-executions plus an index probe, independent of journal size for
//! one entry and linear for the whole journal.

use bi_core::audit::{responsible_deliveries, AuditLog, Outcome, Provenance};
use bi_core::provenance::{pexecute, Lineage, ProvCatalog};
use bi_core::query::plan::{scan, AggItem};
use bi_core::query::{execute, Catalog};
use bi_core::types::{ConsumerId, Date, ReportId, RoleId};
use bi_synth::{Scenario, ScenarioConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn catalog(prescriptions: usize) -> Catalog {
    let scenario = Scenario::generate(ScenarioConfig {
        patients: prescriptions / 5,
        prescriptions,
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
            .table("DrugCost")
            .unwrap()
            .clone(),
    )
    .unwrap();
    cat
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_provenance");
    group.sample_size(10);
    eprintln!("\nE8: provenance propagation overhead (vs plain execution)");
    for &n in &[500usize, 2_000, 8_000] {
        let cat = catalog(n);
        let plan = scan("Prescriptions")
            .join(scan("DrugCost"), vec![("Drug".into(), "Drug".into())], "dc")
            .aggregate(vec!["Disease".into()], vec![AggItem::count_star("cnt")]);
        group.bench_with_input(
            BenchmarkId::new("plain_execute", n),
            &(&plan, &cat),
            |b, (p, cat)| b.iter(|| execute(p, cat).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("provenance_execute", n),
            &(&plan, &cat),
            |b, (p, cat)| {
                b.iter(|| {
                    let pcat = ProvCatalog::new(cat);
                    pexecute(p, &pcat).unwrap()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("lineage_index", n),
            &(&plan, &cat),
            |b, (p, cat)| {
                let pcat = ProvCatalog::new(cat);
                let at = pexecute(p, &pcat).unwrap();
                b.iter(|| Lineage::build(&at))
            },
        );
    }

    // Dispute resolution over a journal of 20 deliveries.
    let cat = catalog(1_000);
    let mut log = AuditLog::new();
    for i in 0..20 {
        let plan = if i % 2 == 0 {
            scan("Prescriptions").aggregate(vec!["Drug".into()], vec![AggItem::count_star("n")])
        } else {
            scan("Prescriptions")
                .project_cols(&["Patient", "Drug"])
                .distinct()
        };
        log.record(
            Date::new(2008, 7, 1).unwrap(),
            ConsumerId::new("ada"),
            [RoleId::new("analyst")]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>(),
            ReportId::new(format!("r{i}")),
            plan,
            None,
            vec![],
            Outcome::Delivered {
                rows: 10,
                suppressed_groups: 0,
            },
            Provenance::default(),
        );
    }
    let exposures = responsible_deliveries(&log, &cat, "Prescriptions", "Patient").unwrap();
    eprintln!(
        "  dispute over 20-entry journal: {} delivery(ies) exposed Prescriptions.Patient",
        exposures.len()
    );
    group.bench_function("dispute_20_entry_journal", |b| {
        b.iter(|| responsible_deliveries(&log, &cat, "Prescriptions", "Patient").unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
