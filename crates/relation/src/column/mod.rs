//! Columnar chunks: typed column vectors with validity bitmaps and
//! dictionary-encoded text.
//!
//! The row engine stores a table as `Vec<Vec<Value>>` — one enum tag,
//! one heap indirection, and one `Arc` bump per cell touched. For the
//! wide warehouse-view scans the paper's report-level PLAs are enforced
//! on (§5, Figs 4–5), that layout is the bottleneck: every predicate
//! evaluation re-dispatches on `Value`, and every join or group-by
//! hashes `Arc<str>` payloads. A [`ColumnChunk`] transposes the same
//! rows into typed vectors (`Vec<i64>`, `Vec<f64>`, dictionary codes
//! for text) so the kernels in [`kernel`] can sweep a whole morsel per
//! call.
//!
//! Invariants:
//!
//! * A chunk is a *view* of a well-typed [`Table`](crate::Table):
//!   conversion never reinterprets values, and `to_table` materializes
//!   rows byte-identical to the source (text cells share the same
//!   interned `Arc<str>` allocations through the dictionary).
//! * Conversion is total over clean columns and **declines** otherwise
//!   ([`ColumnarError`]): a `Float` column that actually holds `Int`
//!   values (legal — `Int` widens to `Float`) or a dictionary overflow
//!   makes the caller fall back to the row engine rather than risk a
//!   divergent answer.

pub mod cache;
pub mod kernel;
pub mod sort;

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use bi_types::{DataType, Date, Schema, Value};

use crate::table::Table;

/// Why a table (or column) could not be converted to columnar form.
/// Every variant is a *decline*, not a failure: callers fall back to the
/// row-at-a-time engine, which handles all of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnarError {
    /// A `Float`-typed column holds `Int` values; a typed `f64` vector
    /// cannot reproduce the original `Value` variants byte-for-byte.
    MixedNumeric { column: String },
    /// The text dictionary hit its code limit (`u32` space, or the
    /// smaller cap injected by tests).
    DictOverflow { column: String },
    /// The requested column index is out of range.
    NoSuchColumn { index: usize },
    /// Chunks address rows with `u32` selection vectors.
    TooManyRows { rows: usize },
}

impl std::fmt::Display for ColumnarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColumnarError::MixedNumeric { column } => {
                write!(f, "column {column:?} mixes Int values into a Float column")
            }
            ColumnarError::DictOverflow { column } => {
                write!(
                    f,
                    "dictionary for column {column:?} overflowed its code space"
                )
            }
            ColumnarError::NoSuchColumn { index } => write!(f, "no column at index {index}"),
            ColumnarError::TooManyRows { rows } => {
                write!(f, "{rows} rows exceed the u32 selection-vector space")
            }
        }
    }
}

impl std::error::Error for ColumnarError {}

impl ColumnarError {
    /// The obs counter recording this decline reason, so fallbacks are
    /// visible instead of silent (every caller that swallows a decline
    /// with `.ok()?` should `cfg.obs.count(err.counter())` first).
    pub fn counter(&self) -> bi_exec::Counter {
        match self {
            ColumnarError::MixedNumeric { .. } => bi_exec::Counter::ColumnarDeclineMixedNumeric,
            ColumnarError::DictOverflow { .. } => bi_exec::Counter::ColumnarDeclineDictOverflow,
            ColumnarError::NoSuchColumn { .. } => bi_exec::Counter::ColumnarDeclineNoSuchColumn,
            ColumnarError::TooManyRows { .. } => bi_exec::Counter::ColumnarDeclineTooManyRows,
        }
    }
}

/// Null positions of one column: a bitmap allocated lazily, so the
/// common all-valid column costs one `Option` check per access.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Validity {
    /// Bit set ⇒ the row is NULL. `None` ⇒ no NULLs at all.
    nulls: Option<Vec<u64>>,
    len: usize,
}

impl Validity {
    /// All-valid validity for `len` rows.
    pub fn all_valid(len: usize) -> Self {
        Validity { nulls: None, len }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no rows are covered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks row `i` as NULL.
    pub fn set_null(&mut self, i: usize) {
        debug_assert!(i < self.len);
        let words = self
            .nulls
            .get_or_insert_with(|| vec![0u64; self.len.div_ceil(64)]);
        words[i / 64] |= 1u64 << (i % 64);
    }

    /// True when row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match &self.nulls {
            None => false,
            Some(words) => words[i / 64] >> (i % 64) & 1 == 1,
        }
    }

    /// True when the column has no NULLs (fast-path marker).
    pub fn all_valid_hint(&self) -> bool {
        self.nulls.is_none()
    }

    /// Count of NULL rows.
    pub fn null_count(&self) -> usize {
        match &self.nulls {
            None => 0,
            Some(words) => words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }
}

/// An append-only string dictionary: dense `u32` codes in
/// first-appearance order over interned `Arc<str>` payloads.
///
/// Lifecycle: a dictionary is built per text column during
/// `Table → ColumnChunk` conversion, shared behind `Arc` by everything
/// derived from that chunk, and dropped with it — codes are chunk-local
/// and never persisted. Joins between two chunks translate codes
/// through the strings (see `query`'s dictionary-code join), never by
/// comparing raw codes across dictionaries.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    strings: Vec<Arc<str>>,
    lookup: HashMap<Arc<str>, u32>,
    limit: u32,
}

impl Dictionary {
    /// An empty dictionary with the full `u32` code space.
    pub fn new() -> Self {
        Self::with_limit(u32::MAX)
    }

    /// An empty dictionary holding at most `limit` distinct strings.
    /// Production code uses the full space; tests inject tiny limits to
    /// exercise the >`u32::MAX`-distinct-strings fallback without
    /// materializing four billion strings.
    pub fn with_limit(limit: u32) -> Self {
        Dictionary {
            strings: Vec::new(),
            lookup: HashMap::new(),
            limit,
        }
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Interns `s`, returning its (existing or fresh) code, or `None`
    /// when the code space is exhausted.
    pub fn intern(&mut self, s: &Arc<str>) -> Option<u32> {
        if let Some(&c) = self.lookup.get(s) {
            return Some(c);
        }
        if self.strings.len() >= self.limit as usize {
            return None;
        }
        let c = self.strings.len() as u32;
        self.strings.push(Arc::clone(s));
        self.lookup.insert(Arc::clone(s), c);
        Some(c)
    }

    /// The code of `s` if it is interned (no insertion).
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.lookup.get(s).copied()
    }

    /// The interned string behind `code`.
    #[inline]
    pub fn get(&self, code: u32) -> &Arc<str> {
        &self.strings[code as usize]
    }
}

/// Typed values of one column; NULL slots hold an arbitrary placeholder
/// and are masked by the accompanying [`Validity`].
#[derive(Debug, Clone)]
pub enum ColumnData {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Float(Vec<f64>),
    /// Dictionary-encoded text: `codes[i]` indexes into `dict`.
    Text {
        codes: Vec<u32>,
        dict: Arc<Dictionary>,
    },
    Date(Vec<Date>),
}

/// One materialized column: typed data plus null positions.
#[derive(Debug, Clone)]
pub struct Column {
    pub data: ColumnData,
    pub validity: Validity,
    /// Dense equivalence codes, built on first use and kept with the
    /// column, so a cached column computes them once per storage
    /// version: `(codes, cardinality, NULL's code if any row is NULL)`.
    dense: OnceLock<(Vec<u32>, u32, Option<u32>)>,
}

/// Per-row grouping codes of one column: two rows share a code exactly
/// when their `Value`s are equal, NULL being a class of its own. Every
/// code, NULL's included, lies below [`GroupCodes::cardinality`].
#[derive(Debug, Clone, Copy)]
pub struct GroupCodes<'a> {
    codes: &'a [u32],
    /// Text columns read their dictionary codes, whose NULL slots hold a
    /// placeholder: rows NULL here take `null` instead.
    nulls: Option<&'a Validity>,
    null: u32,
    card: u32,
}

impl GroupCodes<'_> {
    /// The code of row `i`.
    #[inline]
    pub fn code(&self, i: usize) -> u32 {
        match self.nulls {
            Some(v) if v.is_null(i) => self.null,
            _ => self.codes[i],
        }
    }

    /// The code a NULL cell takes (also for rows no other row shares,
    /// such as a left join's padding).
    pub fn null_code(&self) -> u32 {
        self.null
    }

    /// Size of the code domain.
    pub fn cardinality(&self) -> u32 {
        self.card
    }
}

impl Column {
    /// The row's cell as a `Value` (rebuilding the original variant).
    pub fn value(&self, i: usize) -> Value {
        if self.validity.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Text { codes, dict } => Value::Text(Arc::clone(dict.get(codes[i]))),
            ColumnData::Date(v) => Value::Date(v[i]),
        }
    }

    /// Wraps typed data and its validity.
    pub fn new(data: ColumnData, validity: Validity) -> Self {
        Column {
            data,
            validity,
            dense: OnceLock::new(),
        }
    }

    /// Dense first-appearance equivalence codes for this column: two
    /// rows get the same code exactly when their `Value`s are equal
    /// (NULLs form their own class, as `Value::Null == Value::Null`).
    /// Returns `(codes, cardinality)`. Computed once per column and
    /// kept with it. This is the columnar quasi-identifier grouping
    /// primitive used by `anonymize`.
    pub fn dense_codes(&self) -> (&[u32], u32) {
        let (codes, card, _) = self.dense.get_or_init(|| self.build_dense_codes());
        (codes, *card)
    }

    /// Grouping codes for this column: a text column's dictionary codes
    /// as they are (its dictionary is already dense and first-appearance
    /// ordered), the cached [`Column::dense_codes`] for every other type.
    pub fn group_codes(&self) -> GroupCodes<'_> {
        if let ColumnData::Text { codes, dict } = &self.data {
            let null = dict.len() as u32;
            return GroupCodes {
                codes,
                nulls: (!self.validity.all_valid_hint()).then_some(&self.validity),
                null,
                card: null.saturating_add(1),
            };
        }
        let (codes, card, null) = self.dense.get_or_init(|| self.build_dense_codes());
        GroupCodes {
            codes,
            nulls: None,
            null: null.unwrap_or(*card),
            card: if null.is_some() {
                *card
            } else {
                card.saturating_add(1)
            },
        }
    }

    fn build_dense_codes(&self) -> (Vec<u32>, u32, Option<u32>) {
        let n = self.validity.len();
        let mut codes = vec![0u32; n];
        let mut next = 0u32;
        let mut null_code: Option<u32> = None;
        macro_rules! assign {
            ($data:expr, $key:expr) => {{
                let mut map: HashMap<_, u32> = HashMap::new();
                for (i, v) in $data.iter().enumerate() {
                    codes[i] = if self.validity.is_null(i) {
                        *null_code.get_or_insert_with(|| {
                            let c = next;
                            next += 1;
                            c
                        })
                    } else {
                        *map.entry($key(v)).or_insert_with(|| {
                            let c = next;
                            next += 1;
                            c
                        })
                    };
                }
            }};
        }
        match &self.data {
            ColumnData::Bool(v) => assign!(v, |b: &bool| *b),
            ColumnData::Int(v) => assign!(v, |i: &i64| *i),
            // float_key replicates Value equality over floats (NaN and
            // -0.0 normalized).
            ColumnData::Float(v) => assign!(v, |f: &f64| Value::float_key(*f)),
            ColumnData::Date(v) => assign!(v, |d: &Date| *d),
            ColumnData::Text {
                codes: dict_codes,
                dict: _,
            } => {
                // Dictionary codes are already dense equivalence codes;
                // re-map to keep first-appearance order uniform with the
                // other branches (a dictionary shared across chunks may
                // contain codes this column never uses).
                assign!(dict_codes, |c: &u32| *c)
            }
        }
        (codes, next, null_code)
    }
}

/// A columnar view of (some columns of) a table.
///
/// `cols[i]` is `Some` for every column requested at conversion time
/// and `None` for the rest, so kernels can convert exactly the columns
/// a predicate touches and skip the others.
#[derive(Debug, Clone)]
pub struct ColumnChunk {
    name: String,
    schema: Arc<Schema>,
    cols: Vec<Option<Arc<Column>>>,
    len: usize,
}

impl ColumnChunk {
    /// Converts every column of `table`.
    pub fn from_table(table: &Table) -> Result<Self, ColumnarError> {
        let all: Vec<usize> = (0..table.schema().len()).collect();
        Self::from_table_cols(table, &all)
    }

    /// Converts only the columns at `wanted` (schema positions).
    pub fn from_table_cols(table: &Table, wanted: &[usize]) -> Result<Self, ColumnarError> {
        Self::from_table_cols_with_dict_limit(table, wanted, u32::MAX)
    }

    /// [`ColumnChunk::from_table_cols`] with a dictionary code cap, so
    /// tests can exercise the overflow decline path cheaply.
    pub fn from_table_cols_with_dict_limit(
        table: &Table,
        wanted: &[usize],
        dict_limit: u32,
    ) -> Result<Self, ColumnarError> {
        if table.len() > u32::MAX as usize {
            return Err(ColumnarError::TooManyRows { rows: table.len() });
        }
        let schema = table.schema_shared();
        let mut cols: Vec<Option<Arc<Column>>> = vec![None; schema.len()];
        for &c in wanted {
            let Some(col) = schema.columns().get(c) else {
                return Err(ColumnarError::NoSuchColumn { index: c });
            };
            cols[c] = Some(Arc::new(build_column(
                table, c, col.dtype, &col.name, dict_limit,
            )?));
        }
        Ok(ColumnChunk {
            name: table.name().to_string(),
            schema,
            cols,
            len: table.len(),
        })
    }

    /// [`ColumnChunk::from_table_cols`] through the process-wide
    /// version-keyed column cache (see [`cache`]): columns already
    /// converted for this table's storage version are shared, not
    /// rebuilt. Hits and misses are reported per column on `cfg.obs`
    /// (`chunk.cache.hit` / `chunk.cache.miss`); the cache bound comes
    /// from `cfg.chunk_cache_capacity` (`0` bypasses the cache). Only
    /// the default (unlimited) dictionary configuration is cacheable;
    /// callers that inject test dictionary limits must use the uncached
    /// path.
    pub fn from_table_cols_cached(
        table: &Table,
        wanted: &[usize],
        cfg: &bi_exec::ExecConfig,
    ) -> Result<Self, ColumnarError> {
        if cfg.chunk_cache_capacity == 0 {
            return Self::from_table_cols(table, wanted);
        }
        if table.len() > u32::MAX as usize {
            return Err(ColumnarError::TooManyRows { rows: table.len() });
        }
        let schema = table.schema_shared();
        let mut cols: Vec<Option<Arc<Column>>> = vec![None; schema.len()];
        for &c in wanted {
            if schema.columns().get(c).is_none() {
                return Err(ColumnarError::NoSuchColumn { index: c });
            }
            cols[c] = Some(cache::cached_column(
                table,
                c,
                &cfg.obs,
                cfg.chunk_cache_capacity,
            )?);
        }
        Ok(ColumnChunk {
            name: table.name().to_string(),
            schema,
            cols,
            len: table.len(),
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the chunk has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The source table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The materialized column at schema position `c`, if it was
    /// requested at conversion time.
    pub fn column(&self, c: usize) -> Option<&Column> {
        self.cols.get(c).and_then(|o| o.as_deref())
    }

    /// Like [`ColumnChunk::column`], but sharing ownership — aggregate
    /// kernels hold columns across morsel boundaries this way.
    pub fn column_shared(&self, c: usize) -> Option<Arc<Column>> {
        self.cols.get(c).and_then(|o| o.as_ref().map(Arc::clone))
    }

    /// Materializes the chunk back into a row table (requires a full
    /// conversion). Rows come back byte-identical to the source table:
    /// same variants, same interned text allocations.
    pub fn to_table(&self) -> Table {
        let cols: Vec<&Column> = self
            .cols
            .iter()
            .map(|c| {
                c.as_deref()
                    .unwrap_or_else(|| unreachable!("to_table requires a full chunk"))
            })
            .collect();
        let rows: Vec<Vec<Value>> = (0..self.len)
            .map(|i| cols.iter().map(|c| c.value(i)).collect())
            .collect();
        Table::from_rows_trusted(self.name.clone(), Arc::clone(&self.schema), rows)
    }
}

/// Transposes one column of a row table into typed storage.
pub(crate) fn build_column(
    table: &Table,
    c: usize,
    dtype: DataType,
    name: &str,
    dict_limit: u32,
) -> Result<Column, ColumnarError> {
    let n = table.len();
    let mut validity = Validity::all_valid(n);
    let data = match dtype {
        DataType::Bool => {
            let mut v = vec![false; n];
            for (i, row) in table.rows().iter().enumerate() {
                match &row[c] {
                    Value::Bool(b) => v[i] = *b,
                    _ => validity.set_null(i),
                }
            }
            ColumnData::Bool(v)
        }
        DataType::Int => {
            let mut v = vec![0i64; n];
            for (i, row) in table.rows().iter().enumerate() {
                match &row[c] {
                    Value::Int(x) => v[i] = *x,
                    _ => validity.set_null(i),
                }
            }
            ColumnData::Int(v)
        }
        DataType::Float => {
            let mut v = vec![0f64; n];
            for (i, row) in table.rows().iter().enumerate() {
                match &row[c] {
                    Value::Float(x) => v[i] = *x,
                    // An Int stored in a Float column is legal in the row
                    // engine; widening it here would change the variant
                    // a round-trip (or a group-by key) reproduces.
                    Value::Int(_) => {
                        return Err(ColumnarError::MixedNumeric {
                            column: name.to_string(),
                        })
                    }
                    _ => validity.set_null(i),
                }
            }
            ColumnData::Float(v)
        }
        DataType::Text => {
            let mut dict = Dictionary::with_limit(dict_limit);
            let mut codes = vec![0u32; n];
            for (i, row) in table.rows().iter().enumerate() {
                match &row[c] {
                    Value::Text(s) => match dict.intern(s) {
                        Some(code) => codes[i] = code,
                        None => {
                            return Err(ColumnarError::DictOverflow {
                                column: name.to_string(),
                            })
                        }
                    },
                    _ => validity.set_null(i),
                }
            }
            ColumnData::Text {
                codes,
                dict: Arc::new(dict),
            }
        }
        DataType::Date => {
            let mut v = vec![
                Date::from_days_from_epoch(0)
                    .unwrap_or_else(|_| unreachable!("epoch is a valid date"));
                n
            ];
            for (i, row) in table.rows().iter().enumerate() {
                match &row[c] {
                    Value::Date(d) => v[i] = *d,
                    _ => validity.set_null(i),
                }
            }
            ColumnData::Date(v)
        }
    };
    Ok(Column::new(data, validity))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bi_types::Column as SchemaColumn;

    fn mixed_table() -> Table {
        let schema = Schema::new(vec![
            SchemaColumn::new("t", DataType::Text),
            SchemaColumn::nullable("i", DataType::Int),
            SchemaColumn::nullable("f", DataType::Float),
            SchemaColumn::new("d", DataType::Date),
        ])
        .unwrap();
        Table::from_rows(
            "M",
            schema,
            vec![
                vec![
                    "a".into(),
                    Value::Int(1),
                    Value::Float(0.5),
                    Value::date("2007-02-12").unwrap(),
                ],
                vec![
                    "b".into(),
                    Value::Null,
                    Value::Null,
                    Value::date("2008-04-15").unwrap(),
                ],
                vec![
                    "a".into(),
                    Value::Int(-3),
                    Value::Float(-0.0),
                    Value::date("2007-02-12").unwrap(),
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let t = mixed_table();
        let chunk = ColumnChunk::from_table(&t).unwrap();
        let back = chunk.to_table();
        assert_eq!(back.rows(), t.rows());
        assert_eq!(back.schema(), t.schema());
        assert_eq!(back.name(), t.name());
        // Text payloads come back as the same interned allocation.
        let (Value::Text(orig), Value::Text(round)) = (&t.rows()[0][0], &back.rows()[0][0]) else {
            panic!("expected text cells");
        };
        assert!(Arc::ptr_eq(orig, round));
    }

    #[test]
    fn dictionary_encodes_first_appearance_order() {
        let t = mixed_table();
        let chunk = ColumnChunk::from_table_cols(&t, &[0]).unwrap();
        let Some(Column {
            data: ColumnData::Text { codes, dict },
            ..
        }) = chunk.column(0)
        else {
            panic!("expected a text column");
        };
        assert_eq!(codes, &[0, 1, 0]);
        assert_eq!(dict.len(), 2);
        assert_eq!(dict.get(0).as_ref(), "a");
        assert_eq!(dict.code_of("b"), Some(1));
        assert_eq!(dict.code_of("zzz"), None);
    }

    #[test]
    fn validity_tracks_nulls() {
        let t = mixed_table();
        let chunk = ColumnChunk::from_table(&t).unwrap();
        let col = chunk.column(1).unwrap();
        assert!(!col.validity.is_null(0));
        assert!(col.validity.is_null(1));
        assert_eq!(col.validity.null_count(), 1);
        assert!(chunk.column(3).unwrap().validity.all_valid_hint());
        assert_eq!(col.value(1), Value::Null);
        assert_eq!(col.value(2), Value::Int(-3));
    }

    #[test]
    fn dict_overflow_declines() {
        let schema = Schema::new(vec![SchemaColumn::new("t", DataType::Text)]).unwrap();
        let rows: Vec<Vec<Value>> = (0..5).map(|i| vec![Value::text(format!("s{i}"))]).collect();
        let t = Table::from_rows("T", schema, rows).unwrap();
        let err = ColumnChunk::from_table_cols_with_dict_limit(&t, &[0], 3).unwrap_err();
        assert_eq!(err, ColumnarError::DictOverflow { column: "t".into() });
        // At the limit exactly, conversion still succeeds (3 distinct fit).
        let t3 = Table::from_rows(
            "T",
            t.schema().clone(),
            vec![
                vec!["a".into()],
                vec!["b".into()],
                vec!["c".into()],
                vec!["a".into()],
            ],
        )
        .unwrap();
        assert!(ColumnChunk::from_table_cols_with_dict_limit(&t3, &[0], 3).is_ok());
    }

    #[test]
    fn mixed_numeric_declines() {
        let schema = Schema::new(vec![SchemaColumn::new("f", DataType::Float)]).unwrap();
        let t = Table::from_rows(
            "T",
            schema,
            vec![vec![Value::Float(1.5)], vec![Value::Int(2)]],
        )
        .unwrap();
        assert_eq!(
            ColumnChunk::from_table(&t).unwrap_err(),
            ColumnarError::MixedNumeric { column: "f".into() }
        );
    }

    #[test]
    fn dense_codes_group_by_value_equality() {
        let schema = Schema::new(vec![SchemaColumn::nullable("f", DataType::Float)]).unwrap();
        let t = Table::from_rows(
            "T",
            schema,
            vec![
                vec![Value::Float(0.0)],
                vec![Value::Float(-0.0)], // Value-equal to 0.0
                vec![Value::Null],
                vec![Value::Float(f64::NAN)],
                vec![Value::Float(-f64::NAN)], // Value-equal to NAN
                vec![Value::Null],
            ],
        )
        .unwrap();
        let chunk = ColumnChunk::from_table(&t).unwrap();
        let col = chunk.column(0).unwrap();
        let (codes, card) = col.dense_codes();
        assert_eq!(codes, &[0, 0, 1, 2, 2, 1]);
        assert_eq!(card, 3);
        // Grouping codes reuse them; NULL keeps its first-appearance code.
        let g = col.group_codes();
        assert_eq!((g.code(4), g.null_code(), g.cardinality()), (2, 1, 3));
    }

    #[test]
    fn group_codes_give_null_its_own_class() {
        let t = mixed_table();
        let chunk = ColumnChunk::from_table(&t).unwrap();
        // Text: dictionary codes, NULL one past the dictionary.
        let text = chunk.column(0).unwrap().group_codes();
        assert_eq!((text.code(0), text.code(1), text.code(2)), (0, 1, 0));
        assert_eq!((text.null_code(), text.cardinality()), (2, 3));
        // Int with a NULL row: the dense NULL class.
        let int = chunk.column(1).unwrap().group_codes();
        assert_eq!((int.code(0), int.code(1), int.code(2)), (0, 1, 2));
        assert_eq!((int.null_code(), int.cardinality()), (1, 3));
        // No NULL row: NULL still gets a code of its own, past the rest.
        let date = chunk.column(3).unwrap().group_codes();
        assert_eq!((date.code(0), date.code(1), date.code(2)), (0, 1, 0));
        assert_eq!((date.null_code(), date.cardinality()), (2, 3));
    }
}
