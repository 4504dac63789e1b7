//! Post-hoc third-party re-checking.
//!
//! "Errors in capturing the intentions of the source owners … are
//! discovered only when the system is released and it is too late" (§6).
//! Re-checking shrinks that window: an auditor replays every *delivered*
//! entry of the journal against the current combined policy and reports
//! any that would violate it today — catching enforcement bugs and
//! agreements that tightened after delivery.
//!
//! Faithful replay needs the *conditions of delivery*, and both halves
//! are journaled in the entry's [`crate::log::Provenance`]: the policy
//! epoch (resolved against the engine's epoch-keyed snapshot history)
//! and the source data versions (resolved against an MVCC table
//! history). Either snapshot can age out of its bounded history; the
//! recheck then falls back to current state and **flags** the fallback
//! ([`SnapshotFidelity::FellBackToCurrent`]) so an enforcement bug is
//! never misattributed as drift — or vice versa — silently.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use bi_obs::TraceId;
use bi_pla::{CheckProgram, CombinedPolicy, Violation};
use bi_query::{Catalog, Plan, QueryError};
use bi_relation::Table;
use bi_types::SourceId;

use crate::log::{AuditEntry, AuditLog};

/// How faithfully a recheck reproduced one side (policy or data) of the
/// conditions that served a delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotFidelity {
    /// The journaled snapshot was available and used.
    Exact,
    /// The snapshot aged out of its bounded history (or was never
    /// journaled); the recheck used current state instead. Findings
    /// carrying this flag may be drift rather than enforcement bugs.
    FellBackToCurrent,
}

/// A resolver from `(table, data version)` to the rows the table
/// held at that version — typically the warehouse MVCC history.
/// `None` means the version aged out (the recheck falls back, flagged).
pub type VersionResolver<'a> = dyn Fn(&str, u64) -> Option<Table> + 'a;

/// One delivered entry that fails the policy it was replayed against.
#[derive(Debug, Clone)]
pub struct AuditFinding {
    pub seq: u64,
    pub report: bi_types::ReportId,
    /// Engine trace of the offending delivery (links back to the
    /// journal entry and the execution spans recorded for it).
    pub trace: TraceId,
    /// Policy epoch the entry was journaled under.
    pub policy_epoch: u64,
    pub violations: Vec<Violation>,
    /// Whether the policy used was the journaled epoch's snapshot.
    pub policy_snapshot: SnapshotFidelity,
    /// Whether every source table resolved at its journaled version.
    pub data_snapshot: SnapshotFidelity,
}

/// Replays all deliveries in the journal against `policy`.
pub fn recheck_log(
    log: &AuditLog,
    cat: &Catalog,
    policy: &CombinedPolicy,
    table_source: &BTreeMap<String, SourceId>,
) -> Result<Vec<AuditFinding>, QueryError> {
    recheck_log_with_snapshots(log, cat, policy, &BTreeMap::new(), table_source)
}

/// Replays all deliveries, checking each against the policy snapshot
/// whose epoch the entry was journaled under.
///
/// `snapshots` maps policy epochs to the combined policy that was
/// live at that epoch (the engine facade keeps this history,
/// Arc-shared — no policies are copied). Entries whose epoch has no
/// snapshot fall back to `current`, flagged
/// [`SnapshotFidelity::FellBackToCurrent`] — that is also how
/// [`recheck_log`] gets its "does yesterday's delivery still pass
/// today?" drift semantics, with an empty snapshot map.
///
/// A finding against a *snapshot* means the engine mis-enforced at
/// delivery time (an enforcement bug); a finding against `current` only
/// means the policy tightened since (drift). Recording the epoch in the
/// journal is what lets an auditor tell the two apart.
pub fn recheck_log_with_snapshots(
    log: &AuditLog,
    cat: &Catalog,
    current: &CombinedPolicy,
    snapshots: &BTreeMap<u64, Arc<CombinedPolicy>>,
    table_source: &BTreeMap<String, SourceId>,
) -> Result<Vec<AuditFinding>, QueryError> {
    recheck_log_at_versions(log, cat, current, snapshots, table_source, &|_, _| None)
}

/// Builds the catalog a journaled entry should be rechecked against:
/// the current catalog with every journaled `(table, version)` that no
/// longer matches live storage overlaid from `resolve`. Every version
/// goes through the resolver (data versions are warehouse-assigned, so
/// only the resolver knows which one is live); a resolved table whose
/// row storage is the live table's needs no overlay. Returns `None` for
/// the catalog when current state already matches (no clone), and the
/// data-side fidelity: [`SnapshotFidelity::FellBackToCurrent`] when the
/// entry journaled no versions or any version was unresolvable.
pub fn catalog_at_versions(
    cat: &Catalog,
    versions: &[(String, u64)],
    resolve: &VersionResolver<'_>,
) -> (Option<Catalog>, SnapshotFidelity) {
    if versions.is_empty() {
        return (None, SnapshotFidelity::FellBackToCurrent);
    }
    let mut overlay: Vec<Table> = Vec::new();
    let mut fidelity = SnapshotFidelity::Exact;
    for (name, version) in versions {
        match resolve(name, *version) {
            // Storage versions identify row storage within this
            // process: equal means the live catalog already serves the
            // journaled rows, so overlaying would only force a clone.
            Some(t)
                if cat
                    .table(name)
                    .is_some_and(|live| live.storage_version() == t.storage_version()) => {}
            Some(t) => overlay.push(t),
            None => fidelity = SnapshotFidelity::FellBackToCurrent,
        }
    }
    if overlay.is_empty() {
        (None, fidelity)
    } else {
        let mut versioned = cat.clone();
        for t in overlay {
            versioned.put_table(t);
        }
        (Some(versioned), fidelity)
    }
}

/// The conditions an entry was journaled under: its policy epoch and
/// its sorted `(table, data version)` pairs.
type ConditionsKey<'e> = (u64, &'e [(String, u64)]);

/// What every entry journaled under one [`ConditionsKey`] shares: the
/// overlay catalog, its data fidelity, and each distinct plan's
/// compiled check (or its compile error).
struct Conditions<'e> {
    catalog: Option<Catalog>,
    data_snapshot: SnapshotFidelity,
    programs: Vec<(&'e Plan, Result<CheckProgram, QueryError>)>,
}

/// The conditions that served every delivered journal entry, rebuilt
/// by [`conditions_at_delivery`]. [`DeliveryConditions::iter`] walks
/// the entries in journal order.
pub struct DeliveryConditions<'e> {
    live: &'e Catalog,
    groups: Vec<Conditions<'e>>,
    /// Per delivered entry: the entry, its policy fidelity, and the
    /// indices of its group and of its plan's program in that group.
    entries: Vec<(&'e AuditEntry, SnapshotFidelity, usize, usize)>,
}

/// One delivered journal entry with the conditions that served it.
#[derive(Debug)]
pub struct AtDelivery<'a> {
    pub entry: &'a AuditEntry,
    /// The catalog at the entry's data versions: an overlay, or the
    /// live catalog when that already serves them.
    pub catalog: &'a Catalog,
    /// The entry's plan compiled against its policy and catalog, or the
    /// compile error that entry would raise on its own.
    pub program: Result<&'a CheckProgram, &'a QueryError>,
    /// Whether the policy was the journaled epoch's snapshot.
    pub policy_snapshot: SnapshotFidelity,
    /// Whether every source table resolved at its journaled version.
    pub data_snapshot: SnapshotFidelity,
}

impl DeliveryConditions<'_> {
    /// The delivered entries with their conditions, in journal order.
    pub fn iter(&self) -> impl Iterator<Item = AtDelivery<'_>> {
        self.entries
            .iter()
            .map(|&(entry, policy_snapshot, group, program)| {
                let group = &self.groups[group];
                AtDelivery {
                    entry,
                    catalog: group.catalog.as_ref().unwrap_or(self.live),
                    program: group.programs[program].1.as_ref(),
                    policy_snapshot,
                    data_snapshot: group.data_snapshot,
                }
            })
    }
}

/// Rebuilds, for every delivered journal entry, the conditions that
/// served it: the policy epoch's snapshot (or `current`, flagged
/// [`SnapshotFidelity::FellBackToCurrent`]), the catalog at its data
/// versions ([`catalog_at_versions`] over `resolve`), and its plan's
/// compiled [`CheckProgram`].
///
/// The one time-travel pass behind [`recheck_log_at_versions`] and the
/// engine's full replay. Entries journaled under the same policy epoch
/// and data versions share one overlay catalog (one resolver call per
/// table), and each distinct plan among them compiles once. A compile
/// error is kept for every entry it concerns, so a caller that walks
/// the entries in order meets each entry's error where checking that
/// entry on its own would.
pub fn conditions_at_delivery<'e>(
    log: &'e AuditLog,
    cat: &'e Catalog,
    current: &CombinedPolicy,
    snapshots: &BTreeMap<u64, Arc<CombinedPolicy>>,
    table_source: &BTreeMap<String, SourceId>,
    resolve: &VersionResolver<'_>,
) -> DeliveryConditions<'e> {
    let mut index: HashMap<ConditionsKey<'e>, usize> = HashMap::new();
    let mut groups: Vec<Conditions<'e>> = Vec::new();
    let mut entries = Vec::new();
    for e in log.deliveries() {
        let (policy, policy_snapshot) = match snapshots.get(&e.provenance.policy_epoch) {
            Some(p) => (&**p, SnapshotFidelity::Exact),
            None => (current, SnapshotFidelity::FellBackToCurrent),
        };
        let versions = &e.provenance.source_versions[..];
        let g = *index
            .entry((e.provenance.policy_epoch, versions))
            .or_insert_with(|| {
                let (catalog, data_snapshot) = catalog_at_versions(cat, versions, resolve);
                groups.push(Conditions {
                    catalog,
                    data_snapshot,
                    programs: Vec::new(),
                });
                groups.len() - 1
            });
        let group = &mut groups[g];
        let plan: &Plan = &e.plan;
        // Entries served by one render share their plan, so pointer
        // equality settles most lookups before a structural compare.
        let p = match group
            .programs
            .iter()
            .position(|(p, _)| std::ptr::eq(*p, plan) || **p == *plan)
        {
            Some(p) => p,
            None => {
                let entry_cat = group.catalog.as_ref().unwrap_or(cat);
                let program = CheckProgram::compile(plan, entry_cat, policy, table_source);
                group.programs.push((plan, program));
                group.programs.len() - 1
            }
        };
        entries.push((e, policy_snapshot, g, p));
    }
    DeliveryConditions {
        live: cat,
        groups,
        entries,
    }
}

/// Replays all deliveries against the policy epoch *and the data
/// versions* each entry was journaled under: full time travel.
///
/// `resolve(table, version)` returns the table's rows as of `version`
/// (typically `Warehouse::table_at` backed by the MVCC history), or
/// `None` when that version has aged out of the retention bound. Per
/// entry, any table whose journaled version no longer matches live
/// storage is overlaid from the resolver; unresolvable versions (and
/// entries journaled without versions) fall back to current data,
/// flagged on the finding's `data_snapshot`.
///
/// One [`conditions_at_delivery`] pass rebuilds each entry's
/// conditions (one overlay per policy epoch and data versions, one
/// compile per distinct plan among them); each entry's program then
/// runs with that entry's roles, purpose and date. Nothing is kept
/// between calls. Findings, and the first error, are those of checking
/// every entry on its own in journal order.
pub fn recheck_log_at_versions(
    log: &AuditLog,
    cat: &Catalog,
    current: &CombinedPolicy,
    snapshots: &BTreeMap<u64, Arc<CombinedPolicy>>,
    table_source: &BTreeMap<String, SourceId>,
    resolve: &VersionResolver<'_>,
) -> Result<Vec<AuditFinding>, QueryError> {
    let conditions = conditions_at_delivery(log, cat, current, snapshots, table_source, resolve);
    let mut findings = Vec::new();
    for at in conditions.iter() {
        let e = at.entry;
        let program = at.program.map_err(QueryError::clone)?;
        let outcome = program.run(&e.roles, e.purpose.as_deref(), e.when)?;
        if !outcome.violations.is_empty() {
            findings.push(AuditFinding {
                seq: e.seq,
                report: e.report.clone(),
                trace: e.provenance.trace,
                policy_epoch: e.provenance.policy_epoch,
                violations: outcome.violations,
                policy_snapshot: at.policy_snapshot,
                data_snapshot: at.data_snapshot,
            });
        }
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{Outcome, Provenance};
    use bi_pla::{PlaDocument, PlaLevel, PlaRule};
    use bi_query::plan::scan;
    use bi_types::{Column, ConsumerId, DataType, Date, ReportId, RoleId, Schema};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "T",
            Schema::new(vec![
                Column::new("Patient", DataType::Text),
                Column::new("Drug", DataType::Text),
            ])
            .unwrap(),
        ))
        .unwrap();
        cat
    }

    fn delivered_log() -> AuditLog {
        let mut log = AuditLog::new();
        log.record(
            Date::new(2008, 1, 1).unwrap(),
            ConsumerId::new("alice"),
            [RoleId::new("analyst")]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>(),
            ReportId::new("r1"),
            scan("T").project_cols(&["Patient"]),
            None,
            vec![],
            Outcome::Delivered {
                rows: 3,
                suppressed_groups: 0,
            },
            Provenance::new(1, TraceId::new(11)),
        );
        log.record(
            Date::new(2008, 1, 2).unwrap(),
            ConsumerId::new("alice"),
            [RoleId::new("analyst")]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>(),
            ReportId::new("r2"),
            scan("T").project_cols(&["Drug"]),
            None,
            vec![],
            Outcome::Delivered {
                rows: 3,
                suppressed_groups: 0,
            },
            Provenance::new(2, TraceId::new(12)),
        );
        log
    }

    fn restrictive_policy() -> CombinedPolicy {
        CombinedPolicy::combine(&[PlaDocument::new("h2", "hospital", PlaLevel::MetaReport)
            .with_rule(PlaRule::AttributeAccess {
                attribute: bi_pla::AttrRef::new("T", "Patient"),
                allowed_roles: [RoleId::new("auditor")].into_iter().collect(),
                condition: None,
            })])
    }

    #[test]
    fn policy_drift_detected() {
        let log = delivered_log();
        let cat = catalog();
        let sources: BTreeMap<String, SourceId> = [("T".to_string(), SourceId::new("hospital"))]
            .into_iter()
            .collect();
        // Under the empty policy nothing fails.
        let clean = recheck_log(&log, &cat, &CombinedPolicy::combine(&[]), &sources).unwrap();
        assert!(clean.is_empty());
        // The hospital later restricts Patient to auditors only.
        let findings = recheck_log(&log, &cat, &restrictive_policy(), &sources).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].report.as_str(), "r1");
        assert_eq!(findings[0].seq, 0);
        assert_eq!(
            findings[0].trace,
            TraceId::new(11),
            "finding carries the delivery trace"
        );
        assert_eq!(findings[0].policy_epoch, 1);
        assert!(findings[0]
            .violations
            .iter()
            .any(|v| v.kind == "attribute-access"));
        // The trace resolves back to the journal entry it came from.
        let entry = log.find_trace(findings[0].trace).unwrap();
        assert_eq!(entry.seq, findings[0].seq);
    }

    #[test]
    fn snapshot_epoch_distinguishes_bug_from_drift() {
        let log = delivered_log();
        let cat = catalog();
        let sources: BTreeMap<String, SourceId> = [("T".to_string(), SourceId::new("hospital"))]
            .into_iter()
            .collect();
        let tightened = restrictive_policy();
        // Replayed against the (empty) policies that actually served the
        // entries, nothing fails: the policy merely tightened since —
        // drift, not an enforcement bug.
        let snapshots: BTreeMap<u64, Arc<CombinedPolicy>> = [
            (1, Arc::new(CombinedPolicy::combine(&[]))),
            (2, Arc::new(CombinedPolicy::combine(&[]))),
        ]
        .into_iter()
        .collect();
        let at_delivery =
            recheck_log_with_snapshots(&log, &cat, &tightened, &snapshots, &sources).unwrap();
        assert!(at_delivery.is_empty(), "served-policy replay is clean");
        // Entries whose epoch has no snapshot fall back to the current
        // policy and surface the drift — FLAGGED, so the auditor knows
        // the finding may be drift rather than an enforcement bug.
        let drifted =
            recheck_log_with_snapshots(&log, &cat, &tightened, &BTreeMap::new(), &sources).unwrap();
        assert_eq!(drifted.len(), 1);
        assert_eq!(drifted[0].policy_epoch, 1);
        assert_eq!(
            drifted[0].policy_snapshot,
            SnapshotFidelity::FellBackToCurrent
        );
        // With the snapshot present the same finding would be Exact.
        let partial: BTreeMap<u64, Arc<CombinedPolicy>> =
            [(1, Arc::new(tightened.clone()))].into_iter().collect();
        let exact = recheck_log_with_snapshots(&log, &cat, &tightened, &partial, &sources).unwrap();
        assert_eq!(exact[0].policy_snapshot, SnapshotFidelity::Exact);
    }

    #[test]
    fn data_versions_resolve_through_the_resolver() {
        let mut log = AuditLog::new();
        // Journaled against version 7 of T — whose schema at the time
        // had a Patient column the current table no longer has.
        log.record(
            Date::new(2008, 1, 1).unwrap(),
            ConsumerId::new("alice"),
            [RoleId::new("analyst")]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>(),
            ReportId::new("r1"),
            scan("T").project_cols(&["Patient"]),
            None,
            vec![],
            Outcome::Delivered {
                rows: 3,
                suppressed_groups: 0,
            },
            Provenance::new(1, TraceId::new(11)).with_sources(vec![("T".into(), 7)]),
        );
        // Current catalog: T was reloaded without the Patient column —
        // replaying against it would error (unknown column).
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "T",
            Schema::new(vec![Column::new("Drug", DataType::Text)]).unwrap(),
        ))
        .unwrap();
        let sources: BTreeMap<String, SourceId> = [("T".to_string(), SourceId::new("hospital"))]
            .into_iter()
            .collect();
        let old = Table::new(
            "T",
            Schema::new(vec![
                Column::new("Patient", DataType::Text),
                Column::new("Drug", DataType::Text),
            ])
            .unwrap(),
        );
        // With the resolver supplying version 7, the recheck replays the
        // historical schema: the restrictive policy fires, Exact on the
        // data side.
        let findings = recheck_log_at_versions(
            &log,
            &cat,
            &restrictive_policy(),
            &BTreeMap::new(),
            &sources,
            &|name, v| (name == "T" && v == 7).then(|| old.clone()),
        )
        .unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].data_snapshot, SnapshotFidelity::Exact);
        // Version aged out → replay falls back to current data, where
        // the Patient column no longer exists — and the verdict silently
        // flips to clean. This is exactly the post-ETL replay bug the
        // journaled versions exist to prevent.
        let fallback = recheck_log_at_versions(
            &log,
            &cat,
            &restrictive_policy(),
            &BTreeMap::new(),
            &sources,
            &|_, _| None,
        )
        .unwrap();
        assert!(
            fallback.is_empty(),
            "current-data replay misses the historical exposure"
        );
    }

    #[test]
    fn entries_without_versions_flag_data_fallback() {
        let log = delivered_log(); // journaled with no source versions
        let cat = catalog();
        let sources: BTreeMap<String, SourceId> = [("T".to_string(), SourceId::new("hospital"))]
            .into_iter()
            .collect();
        let findings = recheck_log_at_versions(
            &log,
            &cat,
            &restrictive_policy(),
            &BTreeMap::new(),
            &sources,
            &|_, _| None,
        )
        .unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].data_snapshot,
            SnapshotFidelity::FellBackToCurrent
        );
    }

    #[test]
    fn matching_live_versions_are_exact_without_cloning() {
        let cat = catalog();
        // The resolver serves data version 1 from the same row storage
        // the live catalog holds (the MVCC history Arc-shares it) — the
        // recheck recognizes that and skips the overlay clone.
        let live = cat.table("T").unwrap().clone();
        let (versioned, fidelity) =
            catalog_at_versions(&cat, &[("T".into(), 1)], &|_, _| Some(live.clone()));
        assert!(versioned.is_none(), "live match needs no overlay catalog");
        assert_eq!(fidelity, SnapshotFidelity::Exact);
    }

    #[test]
    fn refusals_are_not_rechecked() {
        let mut log = AuditLog::new();
        log.record(
            Date::new(2008, 1, 1).unwrap(),
            ConsumerId::new("bob"),
            [RoleId::new("analyst")]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>(),
            ReportId::new("r3"),
            scan("T"),
            None,
            vec![],
            Outcome::Refused { violations: vec![] },
            Provenance::default(),
        );
        let cat = catalog();
        let sources = BTreeMap::new();
        let findings = recheck_log(&log, &cat, &CombinedPolicy::combine(&[]), &sources).unwrap();
        assert!(findings.is_empty());
    }
}
