//! The audit recheck against an oracle. `recheck_log_at_versions`
//! shares one overlay catalog and one compiled check per distinct plan
//! among the entries journaled under the same policy epoch and data
//! versions. The oracle is the direct fold it replaces: resolve the
//! catalog and run `check_plan` for every delivered entry on its own.
//! Findings must agree field by field and in order, and so must the
//! first error.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use plabi::audit::{
    catalog_at_versions, recheck_log_at_versions, recheck_log_with_snapshots, AuditLog, Outcome,
    Provenance, SnapshotFidelity, TraceId, VersionResolver,
};
use plabi::pla::{check_plan, Violation};
use plabi::prelude::*;
use plabi::query::QueryError;
use plabi::types::{Column, DataType, Schema};
use proptest::prelude::*;

/// A finding's fields, comparable as one value.
type Row = (
    u64,
    ReportId,
    TraceId,
    u64,
    Vec<Violation>,
    SnapshotFidelity,
    SnapshotFidelity,
);

fn rows(findings: Vec<plabi::audit::AuditFinding>) -> Vec<Row> {
    findings
        .into_iter()
        .map(|f| {
            (
                f.seq,
                f.report,
                f.trace,
                f.policy_epoch,
                f.violations,
                f.policy_snapshot,
                f.data_snapshot,
            )
        })
        .collect()
}

fn table(name: &str, cols: &[(&str, DataType)], data: Vec<Vec<Value>>) -> Table {
    let schema = Schema::new(cols.iter().map(|(c, t)| Column::new(*c, *t)).collect()).unwrap();
    Table::from_rows(name, schema, data).unwrap()
}

fn day(n: i64) -> Date {
    Date::new(2008, 1, 1).unwrap().plus_days(n).unwrap()
}

/// Prescriptions as they are now: no `Disease` column.
fn live_t() -> Table {
    table(
        "T",
        &[
            ("Patient", DataType::Text),
            ("Drug", DataType::Text),
            ("Cost", DataType::Int),
            ("Day", DataType::Date),
        ],
        vec![
            vec![
                Value::text("ann"),
                Value::text("DH"),
                Value::Int(12),
                Value::Date(day(3)),
            ],
            vec![
                Value::text("bob"),
                Value::text("AZT"),
                Value::Int(7),
                Value::Date(day(40)),
            ],
        ],
    )
}

/// Prescriptions at data version 2: a `Disease` column ETL later
/// dropped, so only this version can serve a plan that reads it.
fn old_t() -> Table {
    table(
        "T",
        &[
            ("Patient", DataType::Text),
            ("Drug", DataType::Text),
            ("Cost", DataType::Int),
            ("Day", DataType::Date),
            ("Disease", DataType::Text),
        ],
        vec![vec![
            Value::text("ann"),
            Value::text("DH"),
            Value::Int(12),
            Value::Date(day(3)),
            Value::text("HIV"),
        ]],
    )
}

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table(live_t()).unwrap();
    cat.add_table(table(
        "U",
        &[("Patient", DataType::Text), ("Test", DataType::Text)],
        vec![vec![Value::text("ann"), Value::text("CD4")]],
    ))
    .unwrap();
    cat
}

fn table_source() -> BTreeMap<String, SourceId> {
    [
        ("T".to_string(), SourceId::new("hospital")),
        ("U".to_string(), SourceId::new("laboratory")),
    ]
    .into_iter()
    .collect()
}

fn roles(names: &[&str]) -> BTreeSet<RoleId> {
    names.iter().map(|r| RoleId::new(*r)).collect()
}

/// Patient and Disease for auditors only; no hospital ⋈ laboratory.
fn access_policy() -> PlaDocument {
    PlaDocument::new("h-access", "hospital", PlaLevel::MetaReport)
        .with_rule(PlaRule::AttributeAccess {
            attribute: AttrRef::new("T", "Patient"),
            allowed_roles: roles(&["auditor"]),
            condition: None,
        })
        .with_rule(PlaRule::AttributeAccess {
            attribute: AttrRef::new("T", "Disease"),
            allowed_roles: roles(&["auditor"]),
            condition: None,
        })
        .with_rule(PlaRule::JoinPermission {
            left_source: SourceId::new("hospital"),
            right_source: SourceId::new("laboratory"),
            allowed: false,
        })
}

/// Groups of at least 3, for quality work only, rows under a year old.
fn threshold_policy() -> PlaDocument {
    PlaDocument::new("h-agg", "hospital", PlaLevel::MetaReport)
        .with_rule(PlaRule::AggregationThreshold {
            table: "T".into(),
            min_group_size: 3,
        })
        .with_rule(PlaRule::Purpose {
            allowed: ["quality".to_string()].into_iter().collect(),
        })
        .with_rule(PlaRule::Retention {
            table: "T".into(),
            date_attribute: "Day".into(),
            max_age_days: 365,
        })
}

/// Snapshots for epochs 1–3; epochs 0 and 4 are missing and fall back
/// to the current policy, which is the strictest.
fn policies() -> (CombinedPolicy, BTreeMap<u64, Arc<CombinedPolicy>>) {
    let current = CombinedPolicy::combine(&[access_policy(), threshold_policy()]);
    let snapshots = [
        (1, CombinedPolicy::combine(&[])),
        (2, CombinedPolicy::combine(&[access_policy()])),
        (3, CombinedPolicy::combine(&[threshold_policy()])),
    ]
    .into_iter()
    .map(|(e, p)| (e, Arc::new(p)))
    .collect();
    (current, snapshots)
}

/// Plans valid against every version of T and U.
fn plan(i: u64) -> Plan {
    match i % 6 {
        0 => scan("T").project_cols(&["Patient"]),
        1 => scan("T").project_cols(&["Drug"]),
        2 => scan("T").aggregate(vec!["Drug".into()], vec![AggItem::count_star("n")]),
        3 => scan("T").join(scan("U"), vec![("Patient".into(), "Patient".into())], "u_"),
        4 => scan("U").project_cols(&["Test"]),
        _ => scan("T")
            .filter(col("Cost").gt(lit(10)))
            .project_cols(&["Drug", "Cost"]),
    }
}

/// Journaled data versions: empty, live, unresolvable, and version 2
/// of T (which differs from live storage, so it is overlaid).
fn versions(i: u64) -> Vec<(String, u64)> {
    let v = |t: &str, n: u64| (t.to_string(), n);
    match i % 7 {
        0 => vec![],
        1 => vec![v("T", 1)],
        2 => vec![v("T", 1), v("U", 1)],
        3 => vec![v("T", 3)],
        4 => vec![v("T", 2)],
        5 => vec![v("T", 2), v("U", 9)],
        _ => vec![v("U", 1)],
    }
}

/// One journal entry per seed: report, plan, roles, purpose, date,
/// epoch, versions and outcome all drawn from its bits. Report ids are
/// drawn apart from plans, so one report is journaled under several
/// plans. Plans reading `Disease` journal version 2 of T.
fn journal(seeds: &[u64], unknown_at: Option<usize>) -> AuditLog {
    let mut log = AuditLog::new();
    for (i, &s) in seeds.iter().enumerate() {
        let bits = |shift: u32, m: u64| (s >> shift) % m;
        let disease = bits(40, 5) == 0;
        let plan = if unknown_at == Some(i) {
            scan("Nope")
        } else if disease {
            scan("T").project_cols(&["Drug", "Disease"])
        } else {
            plan(bits(0, 64))
        };
        let vs = if disease {
            versions(4 + bits(44, 2))
        } else {
            versions(bits(24, 64))
        };
        let who = ["analyst", "auditor", "clerk"];
        let held: Vec<&str> = (0..3)
            .filter(|r| (s >> (8 + r)) & 1 == 1)
            .map(|r| who[r as usize])
            .collect();
        let purpose = match bits(12, 3) {
            0 => None,
            1 => Some("quality".to_string()),
            _ => Some("marketing".to_string()),
        };
        let outcome = if bits(16, 6) == 0 {
            Outcome::Refused { violations: vec![] }
        } else {
            Outcome::Delivered {
                rows: 1,
                suppressed_groups: 0,
            }
        };
        log.record(
            day(bits(32, 700) as i64),
            ConsumerId::new(format!("c{}", bits(20, 3))),
            roles(&held),
            ReportId::new(format!("r{}", bits(6, 3))),
            plan,
            purpose,
            vec![],
            outcome,
            Provenance::new(bits(48, 5), TraceId::new(100 + i as u64)).with_sources(vs),
        );
    }
    log
}

/// The direct fold: every delivered entry resolves its own catalog and
/// compiles its own check.
fn oracle(
    log: &AuditLog,
    cat: &Catalog,
    current: &CombinedPolicy,
    snapshots: &BTreeMap<u64, Arc<CombinedPolicy>>,
    resolve: &VersionResolver<'_>,
) -> Result<Vec<Row>, QueryError> {
    let sources = table_source();
    log.deliveries().try_fold(Vec::new(), |mut out, e| {
        let (policy, policy_snapshot) = match snapshots.get(&e.provenance.policy_epoch) {
            Some(p) => (&**p, SnapshotFidelity::Exact),
            None => (current, SnapshotFidelity::FellBackToCurrent),
        };
        let (versioned, data_snapshot) =
            catalog_at_versions(cat, &e.provenance.source_versions, resolve);
        let outcome = check_plan(
            &e.plan,
            versioned.as_ref().unwrap_or(cat),
            policy,
            &e.roles,
            &sources,
            e.purpose.as_deref(),
            e.when,
        )?;
        if !outcome.violations.is_empty() {
            out.push((
                e.seq,
                e.report.clone(),
                e.provenance.trace,
                e.provenance.policy_epoch,
                outcome.violations,
                policy_snapshot,
                data_snapshot,
            ));
        }
        Ok(out)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random journals: the grouped recheck returns exactly the oracle's
    /// findings (or its first error), resolves each table once per
    /// (epoch, versions) group, and the snapshot-only entry point agrees
    /// with the oracle under a resolver that knows no versions.
    #[test]
    fn prop_grouped_recheck_matches_the_per_entry_oracle(
        seeds in prop::collection::vec(any::<u64>(), 0..48),
        unknown in 0usize..96,
    ) {
        let cat = catalog();
        let (current, snapshots) = policies();
        let (live, old) = (cat.table("T").unwrap().clone(), old_t());
        let u = cat.table("U").unwrap().clone();
        let calls = Cell::new(0usize);
        let resolve = |name: &str, v: u64| {
            calls.set(calls.get() + 1);
            match (name, v) {
                ("T", 1) => Some(live.clone()),
                ("T", 2) => Some(old.clone()),
                ("U", 1) => Some(u.clone()),
                _ => None,
            }
        };
        // Half the journals carry one plan over an unknown table.
        let unknown_at = (unknown < seeds.len()).then_some(unknown);
        let log = journal(&seeds, unknown_at);

        let expected = oracle(&log, &cat, &current, &snapshots, &resolve);
        calls.set(0);
        let got = recheck_log_at_versions(&log, &cat, &current, &snapshots, &table_source(), &resolve)
            .map(rows);
        prop_assert_eq!(&got, &expected);
        if let Some(i) = unknown_at {
            if log.entries()[i].outcome != (Outcome::Refused { violations: vec![] }) {
                prop_assert!(got.is_err(), "a delivered unknown-table plan must fail the recheck");
            }
        }
        if got.is_ok() {
            let groups: BTreeSet<(u64, &[(String, u64)])> = log
                .deliveries()
                .map(|e| (e.provenance.policy_epoch, &*e.provenance.source_versions))
                .collect();
            let tables: usize = groups.iter().map(|(_, vs)| vs.len()).sum();
            prop_assert_eq!(calls.get(), tables, "one resolver call per group and table");
        }

        let none = |_: &str, _: u64| None;
        let snapshots_only = recheck_log_with_snapshots(&log, &cat, &current, &snapshots, &table_source())
            .map(rows);
        prop_assert_eq!(snapshots_only, oracle(&log, &cat, &current, &snapshots, &none));
    }
}

/// The journal shapes the generator is meant to reach do occur: one
/// report under two plans, findings of several kinds, exact and
/// fallen-back fidelity on both sides.
#[test]
fn generated_journals_cover_the_interesting_cases() {
    let cat = catalog();
    let (current, snapshots) = policies();
    let (live, old) = (cat.table("T").unwrap().clone(), old_t());
    let resolve = |name: &str, v: u64| match (name, v) {
        ("T", 1) => Some(live.clone()),
        ("T", 2) => Some(old.clone()),
        _ => None,
    };
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let seeds: Vec<u64> = (0..400)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        })
        .collect();
    let log = journal(&seeds, None);
    let findings = rows(
        recheck_log_at_versions(&log, &cat, &current, &snapshots, &table_source(), &resolve)
            .unwrap(),
    );
    let kinds: BTreeSet<&str> = findings
        .iter()
        .flat_map(|f| f.4.iter().map(|v| v.kind.as_str()))
        .collect();
    for kind in [
        "attribute-access",
        "aggregation-threshold",
        "join-permission",
        "purpose",
    ] {
        assert!(kinds.contains(kind), "no {kind} finding in {kinds:?}");
    }
    for fidelity in [SnapshotFidelity::Exact, SnapshotFidelity::FellBackToCurrent] {
        assert!(findings.iter().any(|f| f.5 == fidelity));
        assert!(findings.iter().any(|f| f.6 == fidelity));
    }
    let mut plans_by_report: BTreeMap<&ReportId, BTreeSet<String>> = BTreeMap::new();
    for e in log.deliveries() {
        plans_by_report
            .entry(&e.report)
            .or_default()
            .insert(format!("{:?}", e.plan));
    }
    assert!(plans_by_report.values().any(|plans| plans.len() >= 2));
    assert!(
        log.entries().len() > log.deliveries().count(),
        "refusals interleave"
    );
}

/// A plan over an unknown table fails the recheck with the error the
/// per-entry check gives, even after other entries of its group were
/// checked.
#[test]
fn unknown_tables_fail_like_the_oracle() {
    let cat = catalog();
    let (current, snapshots) = policies();
    let mut log = AuditLog::new();
    for (i, plan) in [plan(1), plan(0), scan("Nope"), plan(2)]
        .into_iter()
        .enumerate()
    {
        log.record(
            day(i as i64),
            ConsumerId::new("c"),
            roles(&["analyst"]),
            ReportId::new("r"),
            plan,
            None,
            vec![],
            Outcome::Delivered {
                rows: 1,
                suppressed_groups: 0,
            },
            Provenance::new(2, TraceId::new(i as u64)),
        );
    }
    let none = |_: &str, _: u64| None;
    let got = recheck_log_at_versions(&log, &cat, &current, &snapshots, &table_source(), &none);
    let expected = oracle(&log, &cat, &current, &snapshots, &none);
    assert!(expected.is_err());
    assert_eq!(got.map(rows), expected);
}
