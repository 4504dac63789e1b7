//! Provenance-backed dispute resolution.
//!
//! §2: PLAs must be precise enough "to audit and to resolve possible
//! disputes". When a source owner claims "my patients' diagnoses leaked",
//! the auditor must answer *which deliveries exposed that attribute, in
//! which cells*. Where-provenance makes the answer exact: re-execute the
//! logged plan with annotation propagation and look the attribute up in
//! the lineage index.
//!
//! The replay runs the *pre-enforcement* plan against the *current*
//! catalog, so the result is a deliberate **upper bound**: cells the
//! enforcement engine masked or suppressed at delivery time still count
//! as exposures, and data changes since delivery shift row numbering.
//! For a dispute that is the safe direction — the auditor over-triages,
//! never misses — but an exposure here is a lead, not a verdict.

use bi_provenance::{pexecute, Lineage, ProvCatalog};
use bi_query::{Catalog, Plan, QueryError};

use crate::log::{AuditLog, Outcome};

/// Report cells (row, column) of one delivery exposing the attribute.
#[derive(Debug, Clone)]
pub struct Exposure {
    pub seq: u64,
    pub report: bi_types::ReportId,
    pub cells: Vec<(usize, String)>,
}

/// Which cells of a single plan's output expose `table.column`?
/// Includes condition-only influence when the column shaped the rows
/// (the lineage index only tracks cell derivation; filters are checked
/// statically by `bi-pla` — both sides of the paper's "used only for
/// purposes of defining PLAs" subtlety).
pub fn exposures_of_attribute(
    plan: &Plan,
    cat: &Catalog,
    table: &str,
    column: &str,
) -> Result<Vec<(usize, String)>, QueryError> {
    let pcat = ProvCatalog::new(cat);
    let annotated = pexecute(plan, &pcat)?;
    let lineage = Lineage::build(&annotated);
    Ok(lineage
        .cells_from_column(table, column)
        .into_iter()
        .collect())
}

/// Scans the whole journal: every delivered entry whose output exposed
/// `table.column`, with the witnessing cells.
pub fn responsible_deliveries(
    log: &AuditLog,
    cat: &Catalog,
    table: &str,
    column: &str,
) -> Result<Vec<Exposure>, QueryError> {
    let mut out = Vec::new();
    for e in log.entries() {
        if !matches!(e.outcome, Outcome::Delivered { .. }) {
            continue;
        }
        let cells = exposures_of_attribute(&e.plan, cat, table, column)?;
        if !cells.is_empty() {
            out.push(Exposure {
                seq: e.seq,
                report: e.report.clone(),
                cells,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::AuditLog;
    use bi_query::plan::{scan, AggItem};
    use bi_relation::Table;
    use bi_types::{Column, ConsumerId, DataType, Date, ReportId, RoleId, Schema};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(
            Table::from_rows(
                "Prescriptions",
                Schema::new(vec![
                    Column::new("Patient", DataType::Text),
                    Column::new("Drug", DataType::Text),
                    Column::new("Disease", DataType::Text),
                ])
                .unwrap(),
                vec![
                    vec!["Alice".into(), "DH".into(), "HIV".into()],
                    vec!["Bob".into(), "DR".into(), "asthma".into()],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        cat
    }

    fn log_with(plans: Vec<(&str, Plan)>) -> AuditLog {
        let mut log = AuditLog::new();
        for (id, plan) in plans {
            log.record(
                Date::new(2008, 6, 1).unwrap(),
                ConsumerId::new("alice"),
                [RoleId::new("analyst")]
                    .into_iter()
                    .collect::<std::collections::BTreeSet<_>>(),
                ReportId::new(id),
                plan,
                None,
                vec![],
                Outcome::Delivered {
                    rows: 1,
                    suppressed_groups: 0,
                },
                crate::log::Provenance::default(),
            );
        }
        log
    }

    #[test]
    fn finds_the_exposing_delivery() {
        let cat = catalog();
        let log = log_with(vec![
            ("r-drugs", scan("Prescriptions").project_cols(&["Drug"])),
            (
                "r-patients",
                scan("Prescriptions").project_cols(&["Patient", "Drug"]),
            ),
        ]);
        let exposures = responsible_deliveries(&log, &cat, "Prescriptions", "Patient").unwrap();
        assert_eq!(exposures.len(), 1);
        assert_eq!(exposures[0].report.as_str(), "r-patients");
        assert_eq!(exposures[0].cells.len(), 2, "both patient cells witnessed");
        assert!(exposures[0].cells.iter().all(|(_, c)| c == "Patient"));
    }

    #[test]
    fn aggregates_expose_their_group_columns() {
        let cat = catalog();
        let log = log_with(vec![(
            "r-agg",
            scan("Prescriptions").aggregate(vec!["Disease".into()], vec![AggItem::count_star("n")]),
        )]);
        let exposures = responsible_deliveries(&log, &cat, "Prescriptions", "Disease").unwrap();
        assert_eq!(exposures.len(), 1);
        assert!(exposures[0].cells.iter().any(|(_, c)| c == "Disease"));
        // COUNT(*) carries conservative (why-)provenance: it witnesses
        // every cell of its group rows, so Drug shows up — but only
        // through the count column, never as a Drug value.
        let via_count = responsible_deliveries(&log, &cat, "Prescriptions", "Drug").unwrap();
        assert_eq!(via_count.len(), 1);
        assert!(via_count[0].cells.iter().all(|(_, c)| c == "n"));
    }

    #[test]
    fn single_plan_helper() {
        let cat = catalog();
        let cells = exposures_of_attribute(
            &scan("Prescriptions").project_cols(&["Drug"]),
            &cat,
            "Prescriptions",
            "Drug",
        )
        .unwrap();
        assert_eq!(cells.len(), 2);
        let cells = exposures_of_attribute(
            &scan("Prescriptions").project_cols(&["Drug"]),
            &cat,
            "Prescriptions",
            "Patient",
        )
        .unwrap();
        assert!(cells.is_empty());
    }
}
