//! The append-only audit journal.

use std::collections::BTreeSet;
use std::sync::Arc;

use bi_obs::TraceId;
use bi_pla::Violation;
use bi_query::Plan;
use bi_types::{ConsumerId, Date, ReportId, RoleId};

/// What happened to a report request.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Rendered and handed to the consumer.
    Delivered {
        rows: usize,
        suppressed_groups: usize,
    },
    /// Refused by the compliance gate.
    Refused { violations: Vec<Violation> },
}

/// Where a journal entry came from: which compiled-policy snapshot
/// served the request, which table data versions its plan read, and
/// the engine-assigned trace identifier. The epoch and version vector
/// let [`crate::recheck`] replay an entry against the policy *and the
/// data* that actually served it (not just today's); the trace links
/// the entry to the execution spans the engine recorded for the
/// delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Policy-cache epoch at the time of delivery.
    pub policy_epoch: u64,
    /// Engine trace identifier for this request.
    pub trace: TraceId,
    /// Sorted `(base table, data version)` pairs of every table the
    /// plan read at render time — the data half of the provenance.
    /// Data versions are warehouse-assigned and deterministic per
    /// workload (first load = 1), so the vector is byte-comparable
    /// across processes and survives WAL recovery. Empty for entries
    /// journaled outside a live engine. Shared: every entry served by
    /// one render points at that render's vector.
    pub source_versions: Arc<[(String, u64)]>,
}

impl Provenance {
    pub fn new(policy_epoch: u64, trace: TraceId) -> Self {
        Self {
            policy_epoch,
            trace,
            source_versions: Arc::default(),
        }
    }

    /// Attaches the source data versions the render read
    /// (canonicalized: sorted by table name, deduped).
    pub fn with_sources(mut self, mut source_versions: Vec<(String, u64)>) -> Self {
        source_versions.sort();
        source_versions.dedup();
        self.source_versions = source_versions.into();
        self
    }
}

impl Default for Provenance {
    /// Epoch 0, trace 0, no versions — for callers (tests, offline
    /// tooling) that journal outside a live engine.
    fn default() -> Self {
        Self::new(0, TraceId::new(0))
    }
}

/// One journal entry.
///
/// The facts a render decided — the effective roles, the plan, the
/// enforcement actions and the source versions — are shared by `Arc`:
/// every entry journaled from one render (a batch group, or a cached
/// render served again) points at the same allocations, so an entry
/// costs what belongs to its consumer. Equality compares by value.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEntry {
    /// Monotone sequence number (assigned by the log).
    pub seq: u64,
    /// Business date of the delivery.
    pub when: Date,
    pub consumer: ConsumerId,
    pub roles: Arc<BTreeSet<RoleId>>,
    pub report: ReportId,
    /// The exact plan that ran (auditors re-check it later).
    pub plan: Arc<Plan>,
    pub purpose: Option<String>,
    /// Enforcement actions applied by the engine.
    pub actions: Arc<[String]>,
    pub outcome: Outcome,
    /// Policy epoch + trace id of the serving engine.
    pub provenance: Provenance,
}

/// Append-only journal.
#[derive(Debug, Clone, Default)]
pub struct AuditLog {
    entries: Vec<AuditEntry>,
    next_seq: u64,
}

impl AuditLog {
    /// Empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry, assigning its sequence number. The shared
    /// fields take owned values or the `Arc`s of a render that serves
    /// several entries.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        when: Date,
        consumer: ConsumerId,
        roles: impl Into<Arc<BTreeSet<RoleId>>>,
        report: ReportId,
        plan: impl Into<Arc<Plan>>,
        purpose: Option<String>,
        actions: impl Into<Arc<[String]>>,
        outcome: Outcome,
        provenance: Provenance,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(AuditEntry {
            seq,
            when,
            consumer,
            roles: roles.into(),
            report,
            plan: plan.into(),
            purpose,
            actions: actions.into(),
            outcome,
            provenance,
        });
        seq
    }

    /// All entries, oldest first.
    pub fn entries(&self) -> &[AuditEntry] {
        &self.entries
    }

    /// Entries about one report.
    pub fn for_report<'a>(&'a self, report: &'a ReportId) -> impl Iterator<Item = &'a AuditEntry> {
        self.entries.iter().filter(move |e| &e.report == report)
    }

    /// Entries by one consumer.
    pub fn for_consumer<'a>(
        &'a self,
        consumer: &'a ConsumerId,
    ) -> impl Iterator<Item = &'a AuditEntry> {
        self.entries.iter().filter(move |e| &e.consumer == consumer)
    }

    /// Delivered entries only.
    pub fn deliveries(&self) -> impl Iterator<Item = &AuditEntry> {
        self.entries
            .iter()
            .filter(|e| matches!(e.outcome, Outcome::Delivered { .. }))
    }

    /// The entry journaled under `trace`, if any. Trace ids are
    /// engine-unique per process, so at most one entry matches.
    pub fn find_trace(&self, trace: TraceId) -> Option<&AuditEntry> {
        self.entries.iter().find(|e| e.provenance.trace == trace)
    }

    /// Number of refusals (a cheap health signal for monitoring).
    pub fn refusal_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.outcome, Outcome::Refused { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bi_query::plan::scan;

    fn entry(log: &mut AuditLog, report: &str, consumer: &str, delivered: bool) -> u64 {
        log.record(
            Date::new(2008, 6, 1).unwrap(),
            ConsumerId::new(consumer),
            [RoleId::new("analyst")]
                .into_iter()
                .collect::<BTreeSet<_>>(),
            ReportId::new(report),
            scan("T"),
            Some("quality".into()),
            vec!["filter rows of T: x > 0".into()],
            if delivered {
                Outcome::Delivered {
                    rows: 10,
                    suppressed_groups: 1,
                }
            } else {
                Outcome::Refused {
                    violations: vec![Violation {
                        kind: "attribute-access".into(),
                        description: "d".into(),
                        subject: "T.c".into(),
                    }],
                }
            },
            Provenance::new(3, TraceId::new(100 + log.entries().len() as u64)),
        )
    }

    #[test]
    fn sequence_and_queries() {
        let mut log = AuditLog::new();
        let a = entry(&mut log, "r1", "alice", true);
        let b = entry(&mut log, "r2", "bob", false);
        let c = entry(&mut log, "r1", "alice", true);
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(log.entries().len(), 3);
        assert_eq!(log.for_report(&ReportId::new("r1")).count(), 2);
        assert_eq!(log.for_consumer(&ConsumerId::new("bob")).count(), 1);
        assert_eq!(log.deliveries().count(), 2);
        assert_eq!(log.refusal_count(), 1);
    }

    #[test]
    fn traces_resolve_to_their_entry() {
        let mut log = AuditLog::new();
        entry(&mut log, "r1", "alice", true);
        entry(&mut log, "r2", "bob", false);
        let hit = log
            .find_trace(TraceId::new(101))
            .expect("journaled trace resolves");
        assert_eq!(hit.seq, 1);
        assert_eq!(hit.provenance.policy_epoch, 3);
        assert!(log.find_trace(TraceId::new(999)).is_none());
    }
}
