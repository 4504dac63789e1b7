//! Enforcement-equivalence fingerprints.
//!
//! Two delivery requests are *enforcement-equivalent* when every input
//! the compliance gate and the report engine consult is identical. At
//! one system revision the policy, the data, the source attribution,
//! the report definitions and the engine are fixed, so what can still
//! differ between two requests is:
//!
//! * the **report** — fixes the plan, the purpose it is delivered for
//!   and the declared role scope;
//! * the **effective role set** — the intersection of the consumer's
//!   roles with the report's declared consumers. The gate never looks
//!   at the consumer identity itself, only at this set (and the
//!   journal, which is per-consumer, is written outside the render).
//!
//! Requests sharing an [`EnforcementKey`] at one revision therefore
//! produce the same gate outcome and byte-identical enforced tables —
//! render once, share the result (refusals share under the same key).
//! A cache of renders must hold one revision's renders only. The key is
//! a **structured exact value**, not a hash: a fingerprint collision in
//! a privacy gate would deliver someone else's report, so we spend a
//! few allocations on full comparison instead.

use std::collections::BTreeSet;

use bi_types::{ReportId, RoleId};

/// Canonical fingerprint of what one delivery request asks enforcement
/// for. `Ord`/`Hash` so it can key group maps and the cross-batch
/// render cache.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EnforcementKey {
    report: ReportId,
    /// Effective roles, sorted (canonical: built from a `BTreeSet`).
    roles: Vec<RoleId>,
}

impl EnforcementKey {
    /// Builds the canonical key. `effective` is the consumer's roles
    /// intersected with the report's declared consumers.
    pub fn new(report: ReportId, effective: &BTreeSet<RoleId>) -> Self {
        EnforcementKey {
            report,
            roles: effective.iter().cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roles(names: &[&str]) -> BTreeSet<RoleId> {
        names.iter().map(|n| RoleId::new(*n)).collect()
    }

    #[test]
    fn key_is_canonical_in_role_order() {
        let a = EnforcementKey::new(ReportId::new("r"), &roles(&["analyst", "auditor"]));
        let b = EnforcementKey::new(
            ReportId::new("r"),
            &roles(&["auditor", "analyst", "auditor"]),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn every_component_distinguishes() {
        let key =
            |report: &str, role: &str| EnforcementKey::new(ReportId::new(report), &roles(&[role]));
        let k = key("r", "analyst");
        assert_ne!(k, key("r", "auditor"));
        assert_ne!(k, key("r2", "analyst"));
    }
}
