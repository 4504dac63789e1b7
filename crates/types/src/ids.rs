//! Identifier newtypes for the actors and artifacts of the outsourced-BI
//! scenario (paper Fig. 1).
//!
//! Stringly-typed identifiers are an easy way to hand a report id where a
//! source id was meant; each actor kind gets its own newtype. All ids are
//! hashable, ordered, and display as their inner text. The text lives in
//! an `Arc<str>`, so a clone is a reference-count bump: journal entries,
//! enforcement keys and group maps copy ids freely without allocating.

use std::fmt;
use std::sync::Arc;

macro_rules! string_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(Arc<str>);

        impl $name {
            /// Wraps the given text as an identifier.
            pub fn new(id: impl Into<String>) -> Self {
                $name(Arc::from(id.into()))
            }

            /// The identifier text.
            pub fn as_str(&self) -> &str {
                &self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl From<&str> for $name {
            /// Copies the text straight into its shared allocation.
            fn from(s: &str) -> Self {
                $name(Arc::from(s))
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> Self {
                $name::new(s)
            }
        }
    };
}

string_id! {
    /// A data source / data provider (hospital, medical laboratory, family
    /// doctor, municipality, health agency in the paper's Fig. 1).
    SourceId
}

string_id! {
    /// A role of a report consumer (analyst, auditor, manager, …).
    /// PLA attribute-access rules are granted to roles.
    RoleId
}

string_id! {
    /// An individual information consumer (a BI user); belongs to roles.
    ConsumerId
}

string_id! {
    /// A report or meta-report definition.
    ReportId
}

string_id! {
    /// A privacy level agreement document.
    PlaId
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_roundtrip_and_hash() {
        let s = SourceId::new("hospital");
        assert_eq!(s.as_str(), "hospital");
        assert_eq!(s.to_string(), "hospital");
        assert_eq!(SourceId::from("hospital"), s);
        let mut set = HashSet::new();
        set.insert(s.clone());
        assert!(set.contains(&SourceId::from(String::from("hospital"))));
    }

    #[test]
    fn ids_order_lexicographically() {
        assert!(RoleId::new("analyst") < RoleId::new("auditor"));
    }

    #[test]
    fn clones_share_their_text() {
        let r = ReportId::new("r-consumption");
        let c = r.clone();
        assert_eq!(r, c);
        assert!(std::ptr::eq(r.as_str(), c.as_str()));
        assert_eq!(format!("{r:?}"), "ReportId(\"r-consumption\")");
    }
}
