//! The staging area (paper §4): extracted tables with source attribution.

use std::collections::BTreeMap;

use bi_relation::Table;
use bi_types::SourceId;

use crate::error::EtlError;

/// Named staged tables, each remembering which source owns its data.
/// Tables produced by combining sources carry every contributing source.
#[derive(Debug, Clone, Default)]
pub struct Staging {
    tables: BTreeMap<String, Table>,
    sources: BTreeMap<String, Vec<SourceId>>,
}

impl Staging {
    /// Empty staging area.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores (or replaces) a staged table with its owning sources.
    pub fn put(&mut self, table: Table, sources: Vec<SourceId>) {
        let name = table.name().to_string();
        self.sources.insert(name.clone(), sources);
        self.tables.insert(name, table);
    }

    /// The staged table named `name`.
    pub fn get(&self, name: &str, step: &str) -> Result<&Table, EtlError> {
        self.tables
            .get(name)
            .ok_or_else(|| EtlError::NoSuchStagingTable {
                name: name.to_string(),
                step: step.to_string(),
            })
    }

    /// Removes the staged table `name`, with its owning sources, so a
    /// step can transform it and [`Staging::put`] its output back.
    /// Holding the only handle lets copy-on-write operations update the
    /// rows in place; storage still shared with a source catalog (right
    /// after `Extract`) or the warehouse (after `Load`) is copied, never
    /// mutated.
    pub fn take(&mut self, name: &str, step: &str) -> Result<(Table, Vec<SourceId>), EtlError> {
        let table = self
            .tables
            .remove(name)
            .ok_or_else(|| EtlError::NoSuchStagingTable {
                name: name.to_string(),
                step: step.to_string(),
            })?;
        let sources = self.sources.remove(name).unwrap_or_default();
        Ok((table, sources))
    }

    /// Owning sources of a staged table (empty when unknown).
    pub fn sources_of(&self, name: &str) -> &[SourceId] {
        self.sources.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All staged table names.
    pub fn names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Number of staged tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the staging area is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bi_types::{Column, DataType, Schema};

    #[test]
    fn put_get_sources() {
        let mut s = Staging::new();
        let t = Table::new(
            "X",
            Schema::new(vec![Column::new("a", DataType::Int)]).unwrap(),
        );
        s.put(t, vec![SourceId::new("hospital")]);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        assert!(s.get("X", "step").is_ok());
        assert!(matches!(
            s.get("Y", "step"),
            Err(EtlError::NoSuchStagingTable { .. })
        ));
        assert_eq!(s.sources_of("X"), &[SourceId::new("hospital")]);
        assert!(s.sources_of("Y").is_empty());
        assert_eq!(s.names(), vec!["X"]);
        let (t, srcs) = s.take("X", "step").unwrap();
        assert_eq!(t.name(), "X");
        assert_eq!(srcs, vec![SourceId::new("hospital")]);
        assert!(s.is_empty() && s.sources_of("X").is_empty());
        assert!(matches!(
            s.take("X", "step"),
            Err(EtlError::NoSuchStagingTable { .. })
        ));
        s.put(t, srcs);
        assert_eq!(s.sources_of("X"), &[SourceId::new("hospital")]);
    }
}
