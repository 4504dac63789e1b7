//! Star-schema modeling.

use std::collections::BTreeMap;

use bi_query::contain::RefIntegrity;
use bi_query::{Catalog, QueryError};
use bi_relation::Table;

use crate::error::WarehouseError;

/// One level of a dimension hierarchy, finest first (e.g. the Time
/// dimension: Date → Month → Quarter → Year).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimLevel {
    /// Level name used in cube queries (`"Month"`).
    pub name: String,
    /// The dimension-table column holding this level's value.
    pub column: String,
}

/// A dimension: a table with a unique key and a ladder of levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dimension {
    pub name: String,
    /// Backing dimension table in the warehouse catalog.
    pub table: String,
    /// Unique key column joined from facts.
    pub key: String,
    /// Levels, finest first.
    pub levels: Vec<DimLevel>,
}

impl Dimension {
    /// The column for a named level.
    pub fn level_column(&self, level: &str) -> Result<&str, WarehouseError> {
        self.levels
            .iter()
            .find(|l| l.name == level)
            .map(|l| l.column.as_str())
            .ok_or_else(|| WarehouseError::UnknownElement {
                kind: "level",
                name: level.to_string(),
            })
    }

    /// Position of a level (0 = finest).
    pub fn level_index(&self, level: &str) -> Result<usize, WarehouseError> {
        self.levels
            .iter()
            .position(|l| l.name == level)
            .ok_or_else(|| WarehouseError::UnknownElement {
                kind: "level",
                name: level.to_string(),
            })
    }
}

/// A numeric measure on a fact table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Measure {
    pub name: String,
    /// Backing fact-table column.
    pub column: String,
}

/// A fact table and its dimension bindings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactTable {
    pub name: String,
    /// Backing table in the warehouse catalog.
    pub table: String,
    /// `(dimension name, fact foreign-key column)` pairs.
    pub dims: Vec<(String, String)>,
    pub measures: Vec<Measure>,
}

impl FactTable {
    /// The foreign-key column binding a dimension.
    pub fn fk_for(&self, dimension: &str) -> Result<&str, WarehouseError> {
        self.dims
            .iter()
            .find(|(d, _)| d == dimension)
            .map(|(_, fk)| fk.as_str())
            .ok_or_else(|| WarehouseError::UnknownElement {
                kind: "dimension binding",
                name: dimension.to_string(),
            })
    }

    /// The column of a named measure.
    pub fn measure_column(&self, measure: &str) -> Result<&str, WarehouseError> {
        self.measures
            .iter()
            .find(|m| m.name == measure)
            .map(|m| m.column.as_str())
            .ok_or_else(|| WarehouseError::UnknownElement {
                kind: "measure",
                name: measure.to_string(),
            })
    }
}

/// The warehouse: loaded tables + star schema + declared FKs + a
/// bounded multi-version history of loaded table storage.
#[derive(Debug, Clone, Default)]
pub struct Warehouse {
    catalog: Catalog,
    dimensions: Vec<Dimension>,
    facts: Vec<FactTable>,
    refs: RefIntegrity,
    history: crate::mvcc::VersionHistory,
    /// Per table: `(data version, storage version it was assigned to)`.
    /// The data version is warehouse-local and deterministic (first load
    /// = 1, +1 per commit whose row storage actually differs), so the
    /// same ETL workload journals the same provenance in any process —
    /// unlike the process-unique storage-allocation ids, which stay
    /// internal (chunk-cache keys and the reload check in `load_table`).
    versions: BTreeMap<String, (u64, u64)>,
}

/// A pinned, consistent view of the warehouse at one instant: the
/// catalog (tables Arc-share their row storage, so the clone is cheap)
/// plus the data version each table carried. Delivery pins one snapshot
/// per request/batch so renders and journaled provenance cannot tear
/// across a concurrent ETL commit.
#[derive(Debug, Clone)]
pub struct WarehouseSnapshot {
    catalog: Catalog,
    versions: BTreeMap<String, u64>,
}

impl WarehouseSnapshot {
    /// The pinned catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The pinned data version of `name`; `0` for tables that never
    /// went through [`Warehouse::load_table`] (views, direct catalog
    /// writes) — version 0 is never retained, so a recheck of such an
    /// entry falls back, flagged, to current data.
    pub fn data_version(&self, name: &str) -> u64 {
        self.versions.get(name).copied().unwrap_or(0)
    }
}

impl Warehouse {
    /// An empty warehouse.
    pub fn new() -> Self {
        Self::default()
    }

    /// The query catalog over loaded tables (and registered views).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable catalog access (meta-report views are registered here).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Declared referential integrity (fed to the containment checker).
    pub fn refs(&self) -> &RefIntegrity {
        &self.refs
    }

    /// Loads (or reloads) a table produced by ETL, assigning it a
    /// deterministic warehouse-local *data version*: `1` on first load,
    /// `+1` on every commit whose row storage differs from the live
    /// table, unchanged when an identity reload carries the same
    /// storage through. The committed version is retained in the MVCC
    /// history (bounded; see [`crate::mvcc::VersionHistory`]) so audit
    /// replays can resolve it after later reloads. Returns the number
    /// of older versions evicted to stay within the retention bound.
    pub fn load_table(&mut self, table: Table) -> usize {
        let name = table.name().to_string();
        let storage = table.storage_version();
        let version = match self.versions.get(&name) {
            Some(&(v, prev_storage)) if prev_storage == storage => v,
            Some(&(v, _)) => v + 1,
            None => 1,
        };
        self.versions.insert(name, (version, storage));
        let evicted = self.history.record(version, table.clone());
        self.catalog.put_table(table);
        evicted
    }

    /// The live data version of `name`, if it was loaded through
    /// [`Warehouse::load_table`].
    pub fn data_version(&self, name: &str) -> Option<u64> {
        self.versions.get(name).map(|&(v, _)| v)
    }

    /// The table's rows as of data `version`, if that version has not
    /// aged out of the retention bound (the live version is always
    /// retained). `None` also covers tables that never went through
    /// [`Warehouse::load_table`].
    pub fn table_at(&self, name: &str, version: u64) -> Option<&Table> {
        self.history.resolve(name, version)
    }

    /// The MVCC version history (retained snapshots, retention bound).
    pub fn version_history(&self) -> &crate::mvcc::VersionHistory {
        &self.history
    }

    /// Bounds the MVCC history, in versions per table (min 1); returns
    /// the number of snapshots evicted if the new bound is tighter.
    pub fn set_version_retention(&mut self, retain: usize) -> usize {
        self.history.set_retention(retain)
    }

    /// A pinned snapshot of the current catalog and its data versions:
    /// tables are Arc-shared, so the clone is cheap and the snapshot
    /// keeps serving the same row storage while later loads commit new
    /// versions on top.
    pub fn snapshot(&self) -> WarehouseSnapshot {
        WarehouseSnapshot {
            catalog: self.catalog.clone(),
            versions: self
                .versions
                .iter()
                .map(|(n, &(v, _))| (n.clone(), v))
                .collect(),
        }
    }

    /// Registers a dimension; declares nothing about data presence yet.
    pub fn add_dimension(&mut self, dim: Dimension) {
        self.dimensions.push(dim);
    }

    /// Registers a fact table and its FK declarations (each binding adds
    /// an FK fact-fk → dimension key into [`Warehouse::refs`]).
    pub fn add_fact(&mut self, fact: FactTable) -> Result<(), WarehouseError> {
        for (dname, fk) in &fact.dims {
            let dim = self.dimension(dname)?;
            self.refs.add_fk(
                fact.table.clone(),
                fk.clone(),
                dim.table.clone(),
                dim.key.clone(),
            );
        }
        self.facts.push(fact);
        Ok(())
    }

    /// The named dimension.
    pub fn dimension(&self, name: &str) -> Result<&Dimension, WarehouseError> {
        self.dimensions
            .iter()
            .find(|d| d.name == name)
            .ok_or_else(|| WarehouseError::UnknownElement {
                kind: "dimension",
                name: name.to_string(),
            })
    }

    /// The named fact table.
    pub fn fact(&self, name: &str) -> Result<&FactTable, WarehouseError> {
        self.facts
            .iter()
            .find(|f| f.name == name)
            .ok_or_else(|| WarehouseError::UnknownElement {
                kind: "fact",
                name: name.to_string(),
            })
    }

    /// All registered dimensions.
    pub fn dimensions(&self) -> &[Dimension] {
        &self.dimensions
    }

    /// All registered facts.
    pub fn facts(&self) -> &[FactTable] {
        &self.facts
    }

    /// Executes any plan against the warehouse catalog.
    pub fn execute(&self, plan: &bi_query::Plan) -> Result<Table, QueryError> {
        bi_query::execute(plan, &self.catalog)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bi_types::{Column, DataType, Schema, Value};

    /// A small star: FactPrescriptions ⋈ DimDrug ⋈ DimTime.
    pub(crate) fn small_star() -> Warehouse {
        let mut w = Warehouse::new();
        w.load_table(
            Table::from_rows(
                "DimDrug",
                Schema::new(vec![
                    Column::new("DrugKey", DataType::Text),
                    Column::new("DrugName", DataType::Text),
                    Column::new("DrugFamily", DataType::Text),
                ])
                .unwrap(),
                vec![
                    vec!["DH".into(), "Haldrix".into(), "antiviral".into()],
                    vec!["DV".into(), "Virex".into(), "antiviral".into()],
                    vec!["DR".into(), "Respira".into(), "respiratory".into()],
                    vec!["DM".into(), "Metfor".into(), "metabolic".into()],
                ],
            )
            .unwrap(),
        );
        w.load_table(
            Table::from_rows(
                "DimTime",
                Schema::new(vec![
                    Column::new("DateKey", DataType::Date),
                    Column::new("Month", DataType::Text),
                    Column::new("Quarter", DataType::Text),
                    Column::new("Year", DataType::Int),
                ])
                .unwrap(),
                vec![
                    vec![
                        Value::date("2007-02-12").unwrap(),
                        "2007-02".into(),
                        "2007-Q1".into(),
                        2007.into(),
                    ],
                    vec![
                        Value::date("2007-03-10").unwrap(),
                        "2007-03".into(),
                        "2007-Q1".into(),
                        2007.into(),
                    ],
                    vec![
                        Value::date("2007-08-10").unwrap(),
                        "2007-08".into(),
                        "2007-Q3".into(),
                        2007.into(),
                    ],
                    vec![
                        Value::date("2007-10-15").unwrap(),
                        "2007-10".into(),
                        "2007-Q4".into(),
                        2007.into(),
                    ],
                    vec![
                        Value::date("2008-04-15").unwrap(),
                        "2008-04".into(),
                        "2008-Q2".into(),
                        2008.into(),
                    ],
                ],
            )
            .unwrap(),
        );
        w.load_table(
            Table::from_rows(
                "FactPrescriptions",
                Schema::new(vec![
                    Column::new("Patient", DataType::Text),
                    Column::new("Drug", DataType::Text),
                    Column::new("Date", DataType::Date),
                    Column::new("Cost", DataType::Int),
                ])
                .unwrap(),
                vec![
                    vec![
                        "Alice".into(),
                        "DH".into(),
                        Value::date("2007-02-12").unwrap(),
                        60.into(),
                    ],
                    vec![
                        "Chris".into(),
                        "DV".into(),
                        Value::date("2007-03-10").unwrap(),
                        30.into(),
                    ],
                    vec![
                        "Bob".into(),
                        "DR".into(),
                        Value::date("2007-08-10").unwrap(),
                        10.into(),
                    ],
                    vec![
                        "Math".into(),
                        "DM".into(),
                        Value::date("2007-10-15").unwrap(),
                        10.into(),
                    ],
                    vec![
                        "Alice".into(),
                        "DR".into(),
                        Value::date("2008-04-15").unwrap(),
                        10.into(),
                    ],
                ],
            )
            .unwrap(),
        );
        w.add_dimension(Dimension {
            name: "Drug".into(),
            table: "DimDrug".into(),
            key: "DrugKey".into(),
            levels: vec![
                DimLevel {
                    name: "Drug".into(),
                    column: "DrugName".into(),
                },
                DimLevel {
                    name: "Family".into(),
                    column: "DrugFamily".into(),
                },
            ],
        });
        w.add_dimension(Dimension {
            name: "Time".into(),
            table: "DimTime".into(),
            key: "DateKey".into(),
            levels: vec![
                DimLevel {
                    name: "Month".into(),
                    column: "Month".into(),
                },
                DimLevel {
                    name: "Quarter".into(),
                    column: "Quarter".into(),
                },
                DimLevel {
                    name: "Year".into(),
                    column: "Year".into(),
                },
            ],
        });
        w.add_fact(FactTable {
            name: "Prescriptions".into(),
            table: "FactPrescriptions".into(),
            dims: vec![
                ("Drug".into(), "Drug".into()),
                ("Time".into(), "Date".into()),
            ],
            measures: vec![Measure {
                name: "Cost".into(),
                column: "Cost".into(),
            }],
        })
        .unwrap();
        w
    }

    #[test]
    fn registration_and_lookup() {
        let w = small_star();
        assert_eq!(w.dimensions().len(), 2);
        assert_eq!(w.facts().len(), 1);
        let d = w.dimension("Time").unwrap();
        assert_eq!(d.level_column("Quarter").unwrap(), "Quarter");
        assert_eq!(d.level_index("Year").unwrap(), 2);
        assert!(d.level_column("Week").is_err());
        let f = w.fact("Prescriptions").unwrap();
        assert_eq!(f.fk_for("Drug").unwrap(), "Drug");
        assert_eq!(f.measure_column("Cost").unwrap(), "Cost");
        assert!(f.measure_column("Price").is_err());
        assert!(w.dimension("Ghost").is_err());
        assert!(w.fact("Ghost").is_err());
    }

    #[test]
    fn fact_registration_declares_fks() {
        let w = small_star();
        assert!(w
            .refs()
            .is_fk(("FactPrescriptions", "Drug"), ("DimDrug", "DrugKey")));
        assert!(w
            .refs()
            .is_fk(("FactPrescriptions", "Date"), ("DimTime", "DateKey")));
        assert!(!w
            .refs()
            .is_fk(("FactPrescriptions", "Cost"), ("DimDrug", "DrugKey")));
    }

    #[test]
    fn data_versions_are_deterministic_and_resolve_history() {
        fn t(rows: &[i64]) -> Table {
            Table::from_rows(
                "F",
                Schema::new(vec![Column::new("x", DataType::Int)]).unwrap(),
                rows.iter().map(|&v| vec![Value::Int(v)]).collect(),
            )
            .unwrap()
        }
        let mut w = Warehouse::new();
        assert_eq!(w.data_version("F"), None);
        let first = t(&[1, 2]);
        w.load_table(first.clone());
        assert_eq!(w.data_version("F"), Some(1), "first load is version 1");
        // Identity reload: same storage, same version, no history churn.
        w.load_table(first.clone());
        assert_eq!(w.data_version("F"), Some(1));
        assert_eq!(w.version_history().retained(), 1);
        // A real change bumps the version; the old rows stay resolvable.
        w.load_table(t(&[9]));
        assert_eq!(w.data_version("F"), Some(2));
        assert_eq!(w.table_at("F", 1).unwrap().rows(), first.rows());
        assert_eq!(w.table_at("F", 2).unwrap().len(), 1);
        assert!(w.table_at("F", 3).is_none());
        // A second warehouse replaying the same loads assigns the same
        // versions — provenance journaled against one process resolves
        // identically in another (the WAL-recovery contract).
        let mut other = Warehouse::new();
        other.load_table(first);
        other.load_table(t(&[9]));
        assert_eq!(other.data_version("F"), Some(2));
        // The pinned snapshot carries versions; unknown tables are 0.
        let snap = w.snapshot();
        assert_eq!(snap.data_version("F"), 2);
        assert_eq!(snap.data_version("Ghost"), 0);
        assert!(snap.catalog().table("F").is_some());
    }

    #[test]
    fn binding_unknown_dimension_fails() {
        let mut w = Warehouse::new();
        let err = w.add_fact(FactTable {
            name: "F".into(),
            table: "F".into(),
            dims: vec![("Nope".into(), "x".into())],
            measures: vec![],
        });
        assert!(err.is_err());
    }
}

/// Builds a standard time-dimension table covering `[from, to]`
/// inclusive: one row per day with `DateKey`, `Month` (YYYY-MM),
/// `Quarter` (YYYY-Qn) and `Year` columns — the ladder the paper's
/// drug-consumption reports roll up along.
pub fn time_dimension(
    name: &str,
    from: bi_types::Date,
    to: bi_types::Date,
) -> Result<Table, WarehouseError> {
    use bi_types::{Column, DataType, Schema, Value};
    if to < from {
        return Err(WarehouseError::BadParams {
            reason: format!("time dimension range is empty ({from} > {to})"),
        });
    }
    let schema = Schema::new(vec![
        Column::new("DateKey", DataType::Date),
        Column::new("Month", DataType::Text),
        Column::new("Quarter", DataType::Text),
        Column::new("Year", DataType::Int),
    ])?;
    let mut t = Table::new(name, schema);
    let mut day = from;
    loop {
        t.push_row(vec![
            Value::Date(day),
            Value::text(format!("{:04}-{:02}", day.year(), day.month())),
            Value::text(format!("{:04}-Q{}", day.year(), day.quarter())),
            Value::Int(day.year() as i64),
        ])?;
        if day == to {
            break;
        }
        day = day.plus_days(1).map_err(|e| WarehouseError::BadParams {
            reason: e.to_string(),
        })?;
    }
    Ok(t)
}

/// The conventional [`Dimension`] registration for a table produced by
/// [`time_dimension`].
pub fn time_dimension_spec(dimension_name: &str, table: &str) -> Dimension {
    Dimension {
        name: dimension_name.to_string(),
        table: table.to_string(),
        key: "DateKey".to_string(),
        levels: vec![
            DimLevel {
                name: "Day".into(),
                column: "DateKey".into(),
            },
            DimLevel {
                name: "Month".into(),
                column: "Month".into(),
            },
            DimLevel {
                name: "Quarter".into(),
                column: "Quarter".into(),
            },
            DimLevel {
                name: "Year".into(),
                column: "Year".into(),
            },
        ],
    }
}

#[cfg(test)]
mod time_dim_tests {
    use super::*;
    use bi_types::{Date, Value};

    #[test]
    fn covers_the_range_inclusive() {
        let t = time_dimension(
            "DimTime",
            Date::new(2007, 12, 30).unwrap(),
            Date::new(2008, 1, 2).unwrap(),
        )
        .unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.cell(0, "Quarter").unwrap(), &Value::from("2007-Q4"));
        assert_eq!(t.cell(3, "Month").unwrap(), &Value::from("2008-01"));
        assert_eq!(t.cell(3, "Year").unwrap(), &Value::Int(2008));
        // Keys are unique (a valid dimension key).
        assert_eq!(t.project(&["DateKey"]).unwrap().distinct().len(), 4);
    }

    #[test]
    fn single_day_and_empty_ranges() {
        let d = Date::new(2008, 2, 29).unwrap();
        let t = time_dimension("T", d, d).unwrap();
        assert_eq!(t.len(), 1);
        assert!(time_dimension("T", d, Date::new(2008, 2, 28).unwrap()).is_err());
    }

    #[test]
    fn spec_matches_builder_columns() {
        let spec = time_dimension_spec("Time", "DimTime");
        assert_eq!(spec.key, "DateKey");
        assert_eq!(spec.levels.len(), 4);
        assert_eq!(spec.level_column("Quarter").unwrap(), "Quarter");
    }
}
