//! Batch delivery scheduling: fold a request list into
//! enforcement-equivalence groups.
//!
//! `deliver_batch` used to render every `(report, consumer)` pair from
//! scratch. But within one batch (one system revision) the gate and the
//! report engine never look at the consumer identity — only at the
//! report and the *effective role set* (consumer roles ∩ report
//! distribution list). Most of a real batch's consumers share a handful
//! of role profiles, so their renders are byte-identical. The scheduler
//! groups requests by [`EnforcementKey`] **before** the parallel
//! fan-out: one representative render (or one cross-batch cache hit)
//! serves every member, and the per-consumer journal entries are
//! appended afterwards in request order, exactly as a serial loop would
//! have.
//!
//! Grouping works on borrowed state: a request is first looked up by
//! its report id and the consumer's held role set, both borrowed, and
//! only the first sighting of such a pair computes an effective set and
//! a key. A warm request therefore costs a slot and a member index.
//!
//! Grouping is pure bookkeeping over resolved state — it takes closures
//! for resolution and role lookup so it stays unit-testable without a
//! full [`crate::system::BiSystem`].

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use bi_pla::EnforcementKey;
use bi_query::Plan;
use bi_report::{RenderOutcome, ReportSpec};
use bi_types::{ConsumerId, ReportId, RoleId};

/// One gate-and-enforce outcome, rendered but not yet journaled.
/// Produced under `&self`, shareable across every request in its
/// equivalence group (and across batches via the render cache), and
/// consumed — by reference — by the serialized journal append.
///
/// The facts a journal entry records about the render are built here,
/// once, and every member's entry shares them by `Arc`.
pub(crate) struct RenderedDelivery {
    pub report: Arc<ReportSpec>,
    pub effective: Arc<BTreeSet<RoleId>>,
    pub outcome: RenderOutcome,
    /// The report's plan, as journaled.
    pub plan: Arc<Plan>,
    /// Enforcement actions: the delivered report's `applied` list (the
    /// same allocation), empty for a refusal.
    pub actions: Arc<[String]>,
    /// `(base table, warehouse data version)` pairs the render read,
    /// sorted by table — journaled as the data half of each member's
    /// provenance.
    pub source_versions: Arc<[(String, u64)]>,
}

impl RenderedDelivery {
    pub fn new(
        report: Arc<ReportSpec>,
        effective: Arc<BTreeSet<RoleId>>,
        outcome: RenderOutcome,
        source_versions: Vec<(String, u64)>,
    ) -> Self {
        let actions = match &outcome {
            RenderOutcome::Delivered(enforced) => Arc::clone(&enforced.applied),
            RenderOutcome::Refused(_) => Arc::default(),
        };
        RenderedDelivery {
            plan: Arc::new(report.plan.clone()),
            report,
            effective,
            outcome,
            actions,
            source_versions: source_versions.into(),
        }
    }
}

/// The effective role set the gate sees: the consumer's held roles
/// intersected with the report's declared distribution list. The whole
/// enforcement pipeline depends on the consumer only through this set —
/// which is what makes renders shareable.
pub(crate) fn effective_roles(held: &BTreeSet<RoleId>, report: &ReportSpec) -> BTreeSet<RoleId> {
    held.intersection(&report.consumers).cloned().collect()
}

/// Where a request landed after grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// The report id resolved to nothing; the request errors without a
    /// render.
    Unknown,
    /// Index into [`GroupedBatch::groups`].
    Group(usize),
}

/// One enforcement-equivalence class of a batch: every member request
/// shares the same render.
pub(crate) struct Group {
    pub report: Arc<ReportSpec>,
    pub effective: Arc<BTreeSet<RoleId>>,
    pub key: EnforcementKey,
    /// Request indices served by this group, in request order.
    pub members: Vec<usize>,
}

/// The scheduling decision for one batch: a per-request slot vector
/// (parallel to `requests`) plus the groups to render.
pub(crate) struct GroupedBatch {
    pub slots: Vec<Slot>,
    pub groups: Vec<Group>,
}

/// Folds `requests` into enforcement-equivalence groups.
///
/// * `resolve` — report id → spec (`None` = unknown report);
/// * `roles_of` — consumer → held roles, borrowed (the effective set is
///   the intersection with the report's declared consumers, computed
///   here so every caller agrees with the gate).
///
/// Requests for the same report by consumers holding equal role sets
/// join one group without recomputing anything. A first sighting whose
/// key equals an existing group's key joins that group too, so held
/// sets that differ but meet the distribution list alike still share.
pub(crate) fn group_requests<'r, R, L>(
    requests: &[(ReportId, ConsumerId)],
    mut resolve: R,
    mut roles_of: L,
) -> GroupedBatch
where
    R: FnMut(&ReportId) -> Option<Arc<ReportSpec>>,
    L: FnMut(&ConsumerId) -> &'r BTreeSet<RoleId>,
{
    let mut slots = Vec::with_capacity(requests.len());
    let mut groups: Vec<Group> = Vec::new();
    let mut seen: HashMap<(&ReportId, &BTreeSet<RoleId>), usize> = HashMap::new();
    let mut by_key: BTreeMap<EnforcementKey, usize> = BTreeMap::new();
    for (i, (id, consumer)) in requests.iter().enumerate() {
        let held = roles_of(consumer);
        if let Some(&gi) = seen.get(&(id, held)) {
            groups[gi].members.push(i);
            slots.push(Slot::Group(gi));
            continue;
        }
        let Some(report) = resolve(id) else {
            slots.push(Slot::Unknown);
            continue;
        };
        let effective = effective_roles(held, &report);
        let key = EnforcementKey::new(report.id.clone(), &effective);
        let gi = match by_key.get(&key) {
            Some(&gi) => {
                groups[gi].members.push(i);
                gi
            }
            None => {
                let gi = groups.len();
                by_key.insert(key.clone(), gi);
                groups.push(Group {
                    report,
                    effective: Arc::new(effective),
                    key,
                    members: vec![i],
                });
                gi
            }
        };
        seen.insert((id, held), gi);
        slots.push(Slot::Group(gi));
    }
    GroupedBatch { slots, groups }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bi_pla::SubjectRegistry;
    use bi_query::plan::scan;

    fn spec(id: &str, roles: &[&str]) -> Arc<ReportSpec> {
        Arc::new(ReportSpec::new(
            id,
            id,
            scan("T"),
            roles.iter().map(|r| RoleId::new(*r)).collect::<Vec<_>>(),
        ))
    }

    /// Consumers hold the roles their name spells (`analyst+manager-1`
    /// holds analyst and manager); `nobody-*` and `x` are unknown.
    fn registry(requests: &[(ReportId, ConsumerId)]) -> SubjectRegistry {
        let mut reg = SubjectRegistry::new();
        for (_, c) in requests {
            for role in ["analyst", "auditor", "manager"] {
                if c.as_str().contains(role) {
                    reg.grant(c.as_str(), role);
                }
            }
        }
        reg
    }

    fn run(requests: &[(ReportId, ConsumerId)]) -> GroupedBatch {
        let specs = [spec("a", &["analyst"]), spec("b", &["analyst", "auditor"])];
        let reg = registry(requests);
        group_requests(
            requests,
            |id| specs.iter().find(|s| &s.id == id).map(Arc::clone),
            |c| reg.roles_of(c),
        )
    }

    fn req(id: &str, c: &str) -> (ReportId, ConsumerId) {
        (ReportId::new(id), ConsumerId::new(c))
    }

    #[test]
    fn equivalent_requests_collapse_and_slots_stay_aligned() {
        let requests = [
            req("a", "analyst-1"),
            req("ghost", "x"),
            req("a", "analyst-2"),
            req("b", "analyst-1"),
        ];
        let g = run(&requests);
        assert_eq!(g.slots.len(), 4);
        assert_eq!(g.slots[0], Slot::Group(0));
        assert_eq!(g.slots[1], Slot::Unknown);
        assert_eq!(
            g.slots[2],
            Slot::Group(0),
            "same report + same effective roles share"
        );
        assert_eq!(
            g.slots[3],
            Slot::Group(1),
            "different report renders separately"
        );
        assert_eq!(g.groups.len(), 2);
        assert_eq!(g.groups[0].members, vec![0, 2]);
        assert_eq!(g.groups[1].members, vec![3]);
    }

    #[test]
    fn different_effective_roles_split_groups() {
        // Same report, but auditor-1 intersects to a different role set
        // than analyst-1 — the gate may decide differently, no sharing.
        let requests = [req("b", "analyst-1"), req("b", "auditor-1")];
        let g = run(&requests);
        assert_eq!(g.groups.len(), 2);
        // A roleless stranger refuses under an empty effective set —
        // shared with other strangers, split from the members.
        let g = run(&[
            req("b", "nobody-1"),
            req("b", "nobody-2"),
            req("b", "analyst-1"),
        ]);
        assert_eq!(g.groups.len(), 2);
        assert_eq!(g.groups[0].members, vec![0, 1]);
        assert!(g.groups[0].effective.is_empty());
    }

    #[test]
    fn different_held_roles_with_equal_effective_roles_share() {
        // Report "a" goes to analysts only: holding manager or auditor
        // as well changes nothing the gate sees.
        let requests = [
            req("a", "analyst-1"),
            req("a", "analyst+manager-1"),
            req("a", "analyst+auditor-1"),
            req("a", "analyst+manager-2"),
        ];
        let g = run(&requests);
        assert_eq!(g.groups.len(), 1);
        assert_eq!(g.groups[0].members, vec![0, 1, 2, 3]);
        assert_eq!(
            *g.groups[0].effective,
            [RoleId::new("analyst")]
                .into_iter()
                .collect::<BTreeSet<_>>()
        );
    }

    #[test]
    fn unknown_consumers_share_one_group() {
        let requests = [req("a", "nobody-1"), req("a", "nobody-2")];
        let g = run(&requests);
        assert_eq!(g.groups.len(), 1);
        assert_eq!(g.groups[0].members, vec![0, 1]);
        assert!(g.groups[0].effective.is_empty());
    }

    #[test]
    fn empty_batch_produces_nothing() {
        let g = run(&[]);
        assert!(g.slots.is_empty());
        assert!(g.groups.is_empty());
    }
}
