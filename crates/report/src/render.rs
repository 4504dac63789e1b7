//! Delivery documents: the rendered form handed to information
//! consumers.
//!
//! Delivered reports are not bare tables: the paper's auditability
//! requirement means every delivery states *who* received it, *when*,
//! under *which agreements*, and what enforcement did. This module
//! renders an [`crate::engine::EnforcedReport`] into a self-describing
//! text document, and an owner-facing variant of the same for
//! elicitation sessions (plan tree + PLA annotations).

use bi_types::{ConsumerId, Date, PlaId};

use crate::engine::EnforcedReport;
use crate::meta::MetaReport;
use crate::spec::ReportSpec;

/// Renders the consumer-facing delivery document.
pub fn delivery_document(
    spec: &ReportSpec,
    enforced: &EnforcedReport,
    consumer: &ConsumerId,
    when: Date,
    binding_plas: &[PlaId],
) -> String {
    let mut out = String::new();
    out.push_str(&format!("REPORT  {} — {}\n", spec.id, spec.title));
    out.push_str(&format!("FOR     {consumer} on {when}\n"));
    if let Some(p) = &spec.purpose {
        out.push_str(&format!("PURPOSE {p}\n"));
    }
    if !binding_plas.is_empty() {
        let ids: Vec<&str> = binding_plas.iter().map(|p| p.as_str()).collect();
        out.push_str(&format!("UNDER   {}\n", ids.join(", ")));
    }
    if !enforced.applied.is_empty() {
        out.push_str("ENFORCED\n");
        for a in enforced.applied.iter() {
            out.push_str(&format!("  - {a}\n"));
        }
    }
    if enforced.suppressed_groups > 0 {
        out.push_str(&format!(
            "NOTE    {} group(s) suppressed below the agreed minimum size\n",
            enforced.suppressed_groups
        ));
    }
    out.push('\n');
    out.push_str(&bi_relation::pretty::render(&enforced.table));
    out
}

/// Renders the owner-facing elicitation sheet for a meta-report: what it
/// computes (the plan tree) and which agreements already annotate it.
/// This is the textual stand-in for the paper's elicitation GUI (§5).
pub fn elicitation_sheet(meta: &MetaReport, cat: &bi_query::Catalog) -> String {
    let mut out = String::new();
    out.push_str(&format!("META-REPORT {} — {}\n", meta.id, meta.title));
    let approved: Vec<&str> = meta.approved_by.iter().map(|s| s.as_str()).collect();
    out.push_str(&format!(
        "APPROVALS  [{}]\n",
        if approved.is_empty() {
            "pending".to_string()
        } else {
            approved.join(", ")
        }
    ));
    out.push_str("COMPUTES\n");
    match bi_query::explain(&meta.plan, Some(cat)) {
        Ok(tree) => {
            for line in tree.lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        Err(e) => out.push_str(&format!("  <unresolvable: {e}>\n")),
    }
    if meta.annotations.is_empty() {
        out.push_str("AGREEMENTS (none yet)\n");
    } else {
        out.push_str("AGREEMENTS\n");
        for doc in &meta.annotations {
            for line in doc.to_string().lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bi_pla::{PlaDocument, PlaLevel, PlaRule};
    use bi_query::plan::{scan, AggItem};
    use bi_query::Catalog;
    use bi_relation::Table;
    use bi_types::{Column, DataType, RoleId, Schema};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(
            Table::from_rows(
                "Fact",
                Schema::new(vec![
                    Column::new("Drug", DataType::Text),
                    Column::new("Disease", DataType::Text),
                ])
                .unwrap(),
                vec![
                    vec!["DH".into(), "HIV".into()],
                    vec!["DR".into(), "asthma".into()],
                    vec!["DR".into(), "asthma".into()],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        cat
    }

    #[test]
    fn delivery_document_carries_the_audit_context() {
        let cat = catalog();
        let spec = ReportSpec::new(
            "r1",
            "Drug counts",
            scan("Fact").aggregate(vec!["Drug".into()], vec![AggItem::count_star("n")]),
            [RoleId::new("analyst")],
        )
        .for_purpose("quality");
        let policy = bi_pla::CombinedPolicy::combine(&[PlaDocument::new(
            "h1",
            "hospital",
            PlaLevel::MetaReport,
        )
        .with_rule(PlaRule::AggregationThreshold {
            table: "Fact".into(),
            min_group_size: 2,
        })]);
        let enforced = crate::engine::render_enforced(
            &spec,
            &cat,
            &policy,
            &Default::default(),
            &crate::engine::EngineConfig::default(),
            Date::new(2008, 7, 1).unwrap(),
        )
        .unwrap();
        let doc = delivery_document(
            &spec,
            &enforced,
            &ConsumerId::new("ada@agency"),
            Date::new(2008, 7, 1).unwrap(),
            &[bi_types::PlaId::new("h1")],
        );
        assert!(doc.contains("REPORT  r1 — Drug counts"));
        assert!(doc.contains("FOR     ada@agency on 2008-07-01"));
        assert!(doc.contains("PURPOSE quality"));
        assert!(doc.contains("UNDER   h1"));
        assert!(doc.contains("suppress groups of Fact smaller than 2"));
        assert!(doc.contains("1 group(s) suppressed"));
        assert!(doc.contains("Drug | n"));
        assert!(doc.contains("DR"));
        assert!(
            !doc.contains("DH"),
            "the suppressed singleton must not appear"
        );
    }

    #[test]
    fn elicitation_sheet_shows_plan_and_agreements() {
        let cat = catalog();
        let meta = MetaReport::new(
            "m1",
            "Fact universe",
            scan("Fact").project_cols(&["Drug", "Disease"]),
        )
        .with_annotation(
            PlaDocument::new("h1", "hospital", PlaLevel::MetaReport).with_rule(
                PlaRule::AggregationThreshold {
                    table: "Fact".into(),
                    min_group_size: 3,
                },
            ),
        );
        let sheet = elicitation_sheet(&meta, &cat);
        assert!(sheet.contains("META-REPORT m1 — Fact universe"));
        assert!(sheet.contains("APPROVALS  [pending]"));
        assert!(sheet.contains("Project [Drug, Disease]"));
        assert!(sheet.contains("Scan Fact"));
        assert!(sheet.contains("require aggregation Fact min 3;"));
        let approved = meta.approved("hospital");
        let sheet2 = elicitation_sheet(&approved, &cat);
        assert!(sheet2.contains("APPROVALS  [hospital]"));
    }
}
