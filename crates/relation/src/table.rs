//! Named, schema-checked tables.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bi_exec::ExecConfig;
use bi_types::{Schema, Value};

use crate::error::RelationError;
use crate::expr::Expr;

/// A row is an ordered list of cell values matching a [`Schema`].
pub type Row = Vec<Value>;

/// A named relation: schema plus rows.
///
/// Every row admitted by [`Table::push_row`] is checked against the schema
/// (arity, types, nullability), so a `Table` is well-typed by
/// construction.
///
/// Both the schema and the row storage live behind `Arc`, so cloning a
/// table — which the warehouse, ETL staging, and report delivery all do —
/// is two reference-count bumps, not a deep copy. Mutation goes through
/// [`Arc::make_mut`], giving copy-on-write semantics: a derived clone that
/// is later mutated detaches without disturbing its parent.
/// Each distinct row-storage *content* gets a process-unique version
/// number: fresh storage draws a new one, CoW mutation draws a new one,
/// and the storage-sharing fast paths (filter that keeps everything,
/// distinct with no duplicates, plain clones) carry the version along
/// with the `Arc`. `version A == version B ⇒ identical rows`, which is
/// exactly the invariant the column-chunk cache needs as a key.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Arc<Schema>,
    rows: Arc<Vec<Row>>,
    version: u64,
}

/// Semantic equality: name, schema and row contents. The storage
/// version is an identity stamp, not data — two independently built
/// tables with identical rows compare equal despite distinct versions.
impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.schema == other.schema && self.rows == other.rows
    }
}

/// Allocates the next storage version. Relaxed is enough: the counter
/// only needs uniqueness, and the `Arc` handoff of the rows it stamps
/// already orders the contents.
fn next_version() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// The debug-build check behind the constructors that trust their rows
/// ([`Table::from_rows_trusted`], [`Table::append_column`]).
fn debug_check_rows(schema: &Schema, rows: &[Row]) {
    if cfg!(debug_assertions) {
        for r in rows {
            let checked = schema.check_row(r);
            debug_assert!(
                checked.is_ok(),
                "trusted rows include an ill-typed one: {checked:?}"
            );
        }
    }
}

/// Tables are shared by reference across `bi-exec` worker threads
/// (partitioned joins, batch delivery), so thread-safety is part of the
/// type's contract, not an accident of its current fields.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<Table>();
};

impl Table {
    /// An empty table. Accepts either a bare [`Schema`] or a shared
    /// `Arc<Schema>`; pass the latter to reuse an existing allocation.
    pub fn new(name: impl Into<String>, schema: impl Into<Arc<Schema>>) -> Self {
        Table {
            name: name.into(),
            schema: schema.into(),
            rows: Arc::new(Vec::new()),
            version: next_version(),
        }
    }

    /// Builds a table from pre-assembled rows, validating each.
    pub fn from_rows(
        name: impl Into<String>,
        schema: impl Into<Arc<Schema>>,
        rows: Vec<Row>,
    ) -> Result<Self, RelationError> {
        let schema = schema.into();
        for r in &rows {
            schema.check_row(r)?;
        }
        Ok(Table {
            name: name.into(),
            schema,
            rows: Arc::new(rows),
            version: next_version(),
        })
    }

    /// Builds a table from rows that are well-typed *by construction* —
    /// e.g. survivors of a filter over an already-validated table, or
    /// join outputs assembled from two validated inputs — skipping the
    /// O(rows × cols) re-validation of [`Table::from_rows`].
    ///
    /// Debug builds still check every row, so a caller that feeds this
    /// unvalidated data fails loudly under `cargo test` rather than
    /// corrupting the well-typed-by-construction invariant silently.
    pub fn from_rows_trusted(
        name: impl Into<String>,
        schema: impl Into<Arc<Schema>>,
        rows: Vec<Row>,
    ) -> Self {
        let schema = schema.into();
        debug_check_rows(&schema, &rows);
        Table {
            name: name.into(),
            schema,
            rows: Arc::new(rows),
            version: next_version(),
        }
    }

    /// Table name (used by catalogs and provenance tokens).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the table (ETL staging gives extracts fresh names).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The schema, sharing the existing allocation.
    pub fn schema_shared(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// All rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// True when `self` and `other` share the same row storage (no copy
    /// has happened between them). Diagnostic aid for the CoW layer.
    pub fn shares_rows_with(&self, other: &Table) -> bool {
        Arc::ptr_eq(&self.rows, &other.rows)
    }

    /// The storage version stamp: process-unique per distinct row
    /// content. Equal versions imply identical rows (the converse need
    /// not hold), which makes the version a sound cache key for derived
    /// artifacts like column chunks.
    pub fn storage_version(&self) -> u64 {
        self.version
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row after validating it against the schema.
    ///
    /// Copy-on-write: when the row storage is shared with another table,
    /// this detaches a private copy first.
    pub fn push_row(&mut self, row: Row) -> Result<(), RelationError> {
        self.schema.check_row(&row)?;
        Arc::make_mut(&mut self.rows).push(row);
        // The storage content changed: any cached per-version artifact
        // (column chunks) must stop matching this table.
        self.version = next_version();
        Ok(())
    }

    /// Appends `cells[i]` to row `i` and gives the table `schema`: this
    /// table's columns (nullability may widen) plus one trailing column.
    /// The cells are trusted like [`Table::from_rows_trusted`]'s rows;
    /// debug builds check every row.
    ///
    /// Copy-on-write like [`Table::push_row`]: when the row storage is
    /// shared with another table, each row is copied once, with its new
    /// cell; otherwise each cell is pushed onto its row in place,
    /// reallocating only a row without room ([`Table::distinct_spare`]
    /// leaves room). Either way the result draws a new storage version,
    /// and a copied or reallocated row has exact capacity (retained MVCC
    /// versions would otherwise carry the slack).
    pub(crate) fn append_column(
        mut self,
        schema: Arc<Schema>,
        cells: Vec<Value>,
    ) -> Result<Table, RelationError> {
        if schema.len() != self.schema.len() + 1 || cells.len() != self.rows.len() {
            return Err(RelationError::Internal {
                message: "appended column does not fit the table",
            });
        }
        match Arc::get_mut(&mut self.rows) {
            Some(rows) => {
                for (row, cell) in rows.iter_mut().zip(cells) {
                    row.reserve_exact(1);
                    row.push(cell);
                }
            }
            None => {
                let rows = self
                    .rows
                    .iter()
                    .zip(cells)
                    .map(|(row, cell)| {
                        let mut out = Vec::with_capacity(row.len() + 1);
                        out.extend_from_slice(row);
                        out.push(cell);
                        out
                    })
                    .collect();
                self.rows = Arc::new(rows);
            }
        }
        debug_check_rows(&schema, &self.rows);
        self.schema = schema;
        self.version = next_version();
        Ok(self)
    }

    /// The cell at (`row`, column `name`).
    pub fn cell(&self, row: usize, name: &str) -> Result<&Value, RelationError> {
        let c = self.schema.index_of(name)?;
        Ok(&self.rows[row][c])
    }

    /// All values of one column, in row order.
    pub fn column_values(&self, name: &str) -> Result<Vec<Value>, RelationError> {
        let c = self.schema.index_of(name)?;
        Ok(self.rows.iter().map(|r| r[c].clone()).collect())
    }

    /// Rows satisfying `pred` (SQL semantics: NULL ⇒ excluded): a
    /// one-thread [`crate::filter_scalar`]. When every row survives, the
    /// result shares this table's row storage and version.
    pub fn filter(&self, pred: &Expr) -> Result<Table, RelationError> {
        crate::scalar::filter_scalar(self, pred, &ExecConfig::serial())
    }

    /// Keeps only the named columns, in order.
    pub fn project(&self, names: &[&str]) -> Result<Table, RelationError> {
        let schema = self.schema.project(names)?;
        let idxs: Vec<usize> = names
            .iter()
            .map(|n| self.schema.index_of(n))
            .collect::<Result<_, _>>()?;
        let rows = self
            .rows
            .iter()
            .map(|r| idxs.iter().map(|&i| r[i].clone()).collect())
            .collect();
        Ok(Table {
            name: self.name.clone(),
            schema: Arc::new(schema),
            rows: Arc::new(rows),
            version: next_version(),
        })
    }

    /// Sorts by the named columns (all ascending when `desc` is empty;
    /// otherwise `desc[i]` flips key `i`). Stable.
    pub fn sort_by(&self, keys: &[&str], desc: &[bool]) -> Result<Table, RelationError> {
        let idxs: Vec<usize> = keys
            .iter()
            .map(|n| self.schema.index_of(n))
            .collect::<Result<_, _>>()?;
        let mut rows = (*self.rows).clone();
        rows.sort_by(|a, b| {
            for (k, &i) in idxs.iter().enumerate() {
                let ord = a[i].cmp(&b[i]);
                let ord = if desc.get(k).copied().unwrap_or(false) {
                    ord.reverse()
                } else {
                    ord
                };
                if !ord.is_eq() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        Ok(Table {
            name: self.name.clone(),
            schema: Arc::clone(&self.schema),
            rows: Arc::new(rows),
            version: next_version(),
        })
    }

    /// Removes duplicate rows, keeping first occurrences.
    ///
    /// Rows are hashed as borrowed slices; only the survivors are
    /// copied, once, and only when something was dropped — a
    /// duplicate-free table shares its parent's storage.
    pub fn distinct(&self) -> Table {
        self.distinct_spare(0)
    }

    /// [`Table::distinct`] whose copied survivors have room for `spare`
    /// more cells each, so as many derived columns can be appended
    /// without reallocating a row. The caller fills that room: rows are
    /// kept at exact capacity everywhere else.
    pub fn distinct_spare(&self, spare: usize) -> Table {
        let mut seen: HashSet<&[Value]> = HashSet::with_capacity(self.rows.len());
        self.keep_rows(spare, |i| seen.insert(self.rows[i].as_slice()))
    }

    /// The rows at the indices `keep` admits, asked in order: this
    /// table's storage and version when it admits every row, otherwise
    /// each survivor copied once into a row with room for `spare` more
    /// cells. Both distinct paths end here (the coded one is
    /// [`crate::column::distinct_by_codes`]).
    pub(crate) fn keep_rows(&self, spare: usize, mut keep: impl FnMut(usize) -> bool) -> Table {
        let survivors: Vec<&Row> = (0..self.rows.len())
            .filter(|&i| keep(i))
            .map(|i| &self.rows[i])
            .collect();
        let (rows, version) = if survivors.len() == self.rows.len() {
            (Arc::clone(&self.rows), self.version)
        } else {
            let rows = survivors
                .into_iter()
                .map(|r| {
                    let mut row = Vec::with_capacity(r.len() + spare);
                    row.extend_from_slice(r);
                    row
                })
                .collect();
            (Arc::new(rows), next_version())
        };
        Table {
            name: self.name.clone(),
            schema: Arc::clone(&self.schema),
            rows,
            version,
        }
    }

    /// Groups row indices by the values of the named columns.
    ///
    /// Keys are borrowed from the table rather than cloned; callers that
    /// need owned key rows clone the (cheap, `Arc`-interned) values. The
    /// returned pairs are ordered by first appearance of each key, making
    /// downstream aggregation deterministic.
    #[allow(clippy::type_complexity)]
    pub fn group_indices(
        &self,
        keys: &[&str],
    ) -> Result<Vec<(Vec<&Value>, Vec<usize>)>, RelationError> {
        let idxs: Vec<usize> = keys
            .iter()
            .map(|n| self.schema.index_of(n))
            .collect::<Result<_, _>>()?;
        let mut slots: HashMap<Vec<&Value>, usize> = HashMap::new();
        let mut out: Vec<(Vec<&Value>, Vec<usize>)> = Vec::new();
        for (i, row) in self.rows.iter().enumerate() {
            let key: Vec<&Value> = idxs.iter().map(|&c| &row[c]).collect();
            let slot = *slots.entry(key.clone()).or_insert_with(|| {
                out.push((key, Vec::new()));
                out.len() - 1
            });
            out[slot].1.push(i);
        }
        Ok(out)
    }

    /// Appends all rows of `other` (must be union-compatible).
    pub fn union_all(&self, other: &Table) -> Result<Table, RelationError> {
        if !self.schema.union_compatible(other.schema()) {
            return Err(bi_types::TypeError::SchemaMismatch {
                reason: format!(
                    "union of incompatible schemas [{}] and [{}]",
                    self.schema,
                    other.schema()
                ),
            }
            .into());
        }
        let mut rows = (*self.rows).clone();
        rows.extend(other.rows.iter().cloned());
        // A column of the union is nullable when EITHER input's is —
        // keeping the left schema verbatim would produce a table whose
        // own schema rejects its right-side rows on re-validation.
        let cols = self
            .schema
            .columns()
            .iter()
            .zip(other.schema().columns())
            .map(|(l, r)| bi_types::Column {
                name: l.name.clone(),
                dtype: l.dtype,
                nullable: l.nullable || r.nullable,
            })
            .collect();
        let schema = Schema::new(cols)?;
        Ok(Table {
            name: self.name.clone(),
            schema: Arc::new(schema),
            rows: Arc::new(rows),
            version: next_version(),
        })
    }

    /// Evaluates `items` per row into a new table with the given column
    /// names (a computed projection: SELECT e1 AS n1, …): a one-thread
    /// [`crate::project_scalar`].
    pub fn map_rows(&self, items: &[(String, Expr)]) -> Result<Table, RelationError> {
        crate::scalar::project_scalar(self, items, &ExecConfig::serial())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use bi_types::{Column, DataType};

    /// The paper's Fig. 2 `Prescriptions` relation, verbatim.
    pub(crate) fn prescriptions() -> Table {
        let schema = Schema::new(vec![
            Column::new("Patient", DataType::Text),
            Column::nullable("Doctor", DataType::Text),
            Column::new("Drug", DataType::Text),
            Column::new("Disease", DataType::Text),
            Column::new("Date", DataType::Date),
        ])
        .unwrap();
        Table::from_rows(
            "Prescriptions",
            schema,
            vec![
                vec![
                    "Alice".into(),
                    "Luis".into(),
                    "DH".into(),
                    "HIV".into(),
                    Value::date("12/02/2007").unwrap(),
                ],
                vec![
                    "Chris".into(),
                    Value::Null,
                    "DV".into(),
                    "HIV".into(),
                    Value::date("10/03/2007").unwrap(),
                ],
                vec![
                    "Bob".into(),
                    "Anne".into(),
                    "DR".into(),
                    "asthma".into(),
                    Value::date("10/08/2007").unwrap(),
                ],
                vec![
                    "Math".into(),
                    "Mark".into(),
                    "DM".into(),
                    "diabetes".into(),
                    Value::date("15/10/2007").unwrap(),
                ],
                vec![
                    "Alice".into(),
                    "Luis".into(),
                    "DR".into(),
                    "asthma".into(),
                    Value::date("15/04/2008").unwrap(),
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn push_row_validates() {
        let mut t = prescriptions();
        assert_eq!(t.len(), 5);
        assert!(t.push_row(vec!["Eve".into()]).is_err());
        assert!(t
            .push_row(vec![
                Value::Null,
                Value::Null,
                "D".into(),
                "flu".into(),
                Value::date("2008-01-01").unwrap()
            ])
            .is_err());
    }

    #[test]
    fn filter_by_disease() {
        let t = prescriptions();
        let hiv = t.filter(&col("Disease").eq(lit("HIV"))).unwrap();
        assert_eq!(hiv.len(), 2);
        assert_eq!(hiv.cell(0, "Patient").unwrap(), &Value::from("Alice"));
    }

    #[test]
    fn filter_null_predicate_excludes() {
        let t = prescriptions();
        // Doctor = 'Luis' is NULL for Chris's row; NULL must exclude.
        let luis = t.filter(&col("Doctor").eq(lit("Luis"))).unwrap();
        assert_eq!(luis.len(), 2);
    }

    #[test]
    fn project_and_cell() {
        let t = prescriptions().project(&["Drug", "Patient"]).unwrap();
        assert_eq!(t.schema().names(), vec!["Drug", "Patient"]);
        assert_eq!(t.cell(1, "Drug").unwrap(), &Value::from("DV"));
        assert!(t.cell(0, "Disease").is_err());
    }

    #[test]
    fn sort_multi_key() {
        let t = prescriptions()
            .sort_by(&["Patient", "Date"], &[false, true])
            .unwrap();
        assert_eq!(t.cell(0, "Patient").unwrap(), &Value::from("Alice"));
        // Alice's later prescription first (Date descending).
        assert_eq!(t.cell(0, "Drug").unwrap(), &Value::from("DR"));
    }

    #[test]
    fn distinct_removes_duplicates() {
        let t = prescriptions().project(&["Disease"]).unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(t.distinct().len(), 3);
    }

    #[test]
    fn grouping_is_deterministic() {
        let t = prescriptions();
        let groups = t.group_indices(&["Disease"]).unwrap();
        let keys: Vec<String> = groups.iter().map(|(k, _)| k[0].to_string()).collect();
        assert_eq!(keys, vec!["HIV", "asthma", "diabetes"]);
        assert_eq!(groups[0].1, vec![0, 1]);
    }

    #[test]
    fn storage_versions_track_content() {
        let t = prescriptions();
        // Clones and storage-sharing derivations keep the version …
        let clone = t.clone();
        assert_eq!(t.storage_version(), clone.storage_version());
        let all = t.filter(&lit(true)).unwrap();
        assert!(all.shares_rows_with(&t));
        assert_eq!(all.storage_version(), t.storage_version());
        let distinct = t.distinct();
        assert!(distinct.shares_rows_with(&t));
        assert_eq!(distinct.storage_version(), t.storage_version());
        // … new storage gets a new version …
        let sorted = t.sort_by(&["Patient"], &[]).unwrap();
        assert_ne!(sorted.storage_version(), t.storage_version());
        let some = t.filter(&col("Disease").eq(lit("HIV"))).unwrap();
        assert_ne!(some.storage_version(), t.storage_version());
        // … and CoW mutation bumps it while the parent keeps its own.
        let before = t.storage_version();
        let mut mutated = t.clone();
        mutated
            .push_row(vec![
                "Eve".into(),
                Value::Null,
                "DX".into(),
                "flu".into(),
                Value::date("01/01/2008").unwrap(),
            ])
            .unwrap();
        assert_ne!(mutated.storage_version(), before);
        assert_eq!(t.storage_version(), before);
        // Equality is semantic: identical content, distinct versions.
        let rebuilt = prescriptions();
        assert_ne!(rebuilt.storage_version(), t.storage_version());
        assert_eq!(rebuilt, t);
    }

    #[test]
    fn append_column_is_copy_on_write() {
        let schema = |t: &Table| {
            let mut cols = t.schema().columns().to_vec();
            cols.push(Column::nullable("n", DataType::Int));
            Arc::new(Schema::new(cols).unwrap())
        };
        let cells = |t: &Table| (0..t.len() as i64).map(Value::Int).collect::<Vec<_>>();
        // Shared storage is copied: the parent keeps its rows.
        let t = prescriptions().distinct();
        let parent = t.clone();
        let out = t.append_column(schema(&parent), cells(&parent)).unwrap();
        assert!(!out.shares_rows_with(&parent));
        assert_eq!(parent, prescriptions());
        // Sole ownership appends in place; both paths agree.
        let own = prescriptions();
        let (before, storage) = (own.storage_version(), own.rows().as_ptr());
        let in_place = own.append_column(schema(&parent), cells(&parent)).unwrap();
        assert_eq!(in_place.rows().as_ptr(), storage, "appended in place");
        assert_ne!(in_place.storage_version(), before);
        assert_ne!(out.storage_version(), parent.storage_version());
        assert_eq!(in_place, out);
        for t in [&in_place, &out] {
            assert_eq!(t.cell(4, "n").unwrap(), &Value::Int(4));
            assert!(t.rows().iter().all(|r| r.capacity() == 6), "exact capacity");
        }
        // A misfit is an error, not a panic.
        let short = prescriptions().append_column(schema(&parent), vec![Value::Int(0)]);
        assert!(matches!(short, Err(RelationError::Internal { .. })));
    }

    #[test]
    fn union_all_checks_compatibility() {
        let t = prescriptions();
        let u = t.union_all(&t).unwrap();
        assert_eq!(u.len(), 10);
        let p = t.project(&["Patient"]).unwrap();
        assert!(t.union_all(&p).is_err());
    }

    #[test]
    fn map_rows_computes() {
        let t = prescriptions();
        let out = t
            .map_rows(&[
                ("who".to_string(), col("Patient")),
                (
                    "year".to_string(),
                    crate::expr::Expr::Func(crate::expr::Func::Year, vec![col("Date")]),
                ),
            ])
            .unwrap();
        assert_eq!(out.schema().names(), vec!["who", "year"]);
        assert_eq!(out.cell(0, "year").unwrap(), &Value::Int(2007));
        assert_eq!(out.cell(4, "year").unwrap(), &Value::Int(2008));
    }
}

#[cfg(test)]
mod union_nullability_tests {
    use super::*;
    use bi_types::{Column, DataType, Schema};

    #[test]
    fn union_all_merges_nullability_so_result_revalidates() {
        let left = Table::from_rows(
            "L",
            Schema::new(vec![Column::new("a", DataType::Text)]).unwrap(),
            vec![vec!["x".into()]],
        )
        .unwrap();
        let right = Table::from_rows(
            "R",
            Schema::new(vec![Column::nullable("a", DataType::Text)]).unwrap(),
            vec![vec![Value::Null]],
        )
        .unwrap();
        let u = left.union_all(&right).unwrap();
        assert!(u.schema().column("a").unwrap().nullable);
        // The union's own schema must accept every row it contains.
        Table::from_rows("U", u.schema().clone(), u.rows().to_vec()).unwrap();
    }
}
