//! Information consumers and their roles.
//!
//! PLA attribute-access rules grant visibility to *roles* (analyst,
//! auditor, reimbursement officer, …); consumers — the paper's
//! "information consumers" — hold role sets.

use std::collections::{BTreeMap, BTreeSet};

use bi_types::{ConsumerId, RoleId};

/// The role set of a consumer the registry does not know.
static NO_ROLES: BTreeSet<RoleId> = BTreeSet::new();

/// Registry of consumers and role memberships.
#[derive(Debug, Clone, Default)]
pub struct SubjectRegistry {
    roles: BTreeMap<ConsumerId, BTreeSet<RoleId>>,
}

impl SubjectRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grants `role` to `consumer` (creating the consumer if new).
    pub fn grant(&mut self, consumer: impl Into<ConsumerId>, role: impl Into<RoleId>) {
        self.roles
            .entry(consumer.into())
            .or_default()
            .insert(role.into());
    }

    /// Revokes a role; true if it was held.
    pub fn revoke(&mut self, consumer: &ConsumerId, role: &RoleId) -> bool {
        self.roles
            .get_mut(consumer)
            .map(|s| s.remove(role))
            .unwrap_or(false)
    }

    /// The consumer's roles, borrowed (empty if unknown).
    pub fn roles_of(&self, consumer: &ConsumerId) -> &BTreeSet<RoleId> {
        self.roles.get(consumer).unwrap_or(&NO_ROLES)
    }

    /// Does the consumer hold the role?
    pub fn has_role(&self, consumer: &ConsumerId, role: &RoleId) -> bool {
        self.roles.get(consumer).is_some_and(|s| s.contains(role))
    }

    /// All known consumers.
    pub fn consumers(&self) -> impl Iterator<Item = &ConsumerId> {
        self.roles.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_revoke_query() {
        let mut reg = SubjectRegistry::new();
        let alice = ConsumerId::new("alice@agency");
        reg.grant(alice.clone(), "analyst");
        reg.grant(alice.clone(), "auditor");
        assert!(reg.has_role(&alice, &RoleId::new("analyst")));
        assert_eq!(reg.roles_of(&alice).len(), 2);
        assert!(reg.revoke(&alice, &RoleId::new("auditor")));
        assert!(!reg.revoke(&alice, &RoleId::new("auditor")));
        assert_eq!(reg.roles_of(&alice).len(), 1);
        assert!(reg.roles_of(&ConsumerId::new("ghost")).is_empty());
        assert_eq!(reg.consumers().count(), 1);
    }
}
