//! Columnar sort and top-k: order a chunk's rows without touching row
//! storage until materialization.
//!
//! The row engine's `Table::sort_by` compares `Value` enums — a tag
//! dispatch and possible `Arc<str>` deref per comparison. Here each key
//! column is compared in its typed vector, and text keys collapse to a
//! precomputed *rank* per dictionary code, so a comparison is two array
//! loads and an integer compare regardless of string length.
//!
//! The permutation reproduces `Table::sort_by` exactly:
//!
//! * per-key ordering matches [`bi_types::Value::cmp`] — within a
//!   well-typed column only same-variant (or NULL) comparisons occur,
//!   and NULL sorts below every valid value (type rank 0);
//! * `desc` flips individual keys, never the tiebreak;
//! * ties preserve original row order (the row engine uses a stable
//!   sort; we append the row index as the final key).
//!
//! Top-k (`limit`) partitions with `select_nth_unstable_by` first, so a
//! `Limit(Sort(…))` plan pays O(n + k log k) instead of O(n log n).

use bi_types::Value;

use super::{Column, ColumnChunk, ColumnData, Validity};

/// One sort key resolved against a chunk: typed data + direction.
struct SortKeyCol<'a> {
    data: KeyData<'a>,
    validity: &'a Validity,
    desc: bool,
}

enum KeyData<'a> {
    Bool(&'a [bool]),
    Int(&'a [i64]),
    Float(&'a [f64]),
    /// `rank[code]` is the code's position in lexicographic order of
    /// the dictionary, so comparing ranks compares strings.
    TextRank {
        codes: &'a [u32],
        rank: Vec<u32>,
    },
    Date(&'a [bi_types::Date]),
}

fn key_col(col: &Column, desc: bool) -> SortKeyCol<'_> {
    let data = match &col.data {
        ColumnData::Bool(v) => KeyData::Bool(v),
        ColumnData::Int(v) => KeyData::Int(v),
        ColumnData::Float(v) => KeyData::Float(v),
        ColumnData::Date(v) => KeyData::Date(v),
        ColumnData::Text { codes, dict } => {
            let mut order: Vec<u32> = (0..dict.len() as u32).collect();
            order.sort_unstable_by(|&a, &b| dict.get(a).cmp(dict.get(b)));
            let mut rank = vec![0u32; dict.len()];
            for (r, &code) in order.iter().enumerate() {
                rank[code as usize] = r as u32;
            }
            KeyData::TextRank { codes, rank }
        }
    };
    SortKeyCol {
        data,
        validity: &col.validity,
        desc,
    }
}

impl SortKeyCol<'_> {
    /// `Value::cmp` of rows `i` and `j` in this column, before the
    /// direction flip.
    #[inline]
    fn cmp_rows(&self, i: usize, j: usize) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self.validity.is_null(i), self.validity.is_null(j)) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            (false, false) => {}
        }
        match &self.data {
            KeyData::Bool(v) => v[i].cmp(&v[j]),
            KeyData::Int(v) => v[i].cmp(&v[j]),
            KeyData::Float(v) => Value::norm_float(v[i]).total_cmp(&Value::norm_float(v[j])),
            KeyData::TextRank { codes, rank } => {
                rank[codes[i] as usize].cmp(&rank[codes[j] as usize])
            }
            KeyData::Date(v) => v[i].cmp(&v[j]),
        }
    }
}

/// The row permutation that sorts `chunk` by `keys` (schema position,
/// descending?), truncated to `limit` rows when given. Returns `None`
/// when a key column was not materialized in the chunk (caller falls
/// back to the row engine).
pub fn sort_permutation(
    chunk: &ColumnChunk,
    keys: &[(usize, bool)],
    limit: Option<usize>,
) -> Option<Vec<u32>> {
    let key_cols: Vec<SortKeyCol<'_>> = keys
        .iter()
        .map(|&(c, desc)| chunk.column(c).map(|col| key_col(col, desc)))
        .collect::<Option<_>>()?;
    let n = chunk.len();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let cmp = |a: &u32, b: &u32| {
        let (i, j) = (*a as usize, *b as usize);
        for k in &key_cols {
            let ord = k.cmp_rows(i, j);
            let ord = if k.desc { ord.reverse() } else { ord };
            if !ord.is_eq() {
                return ord;
            }
        }
        // Stability: equal keys keep original row order, even under desc.
        i.cmp(&j)
    };
    match limit {
        Some(0) => perm.clear(),
        Some(l) if l < n => {
            // The comparator is a total order (index tiebreak), so the
            // k smallest are exactly the stable sort's first k.
            perm.select_nth_unstable_by(l - 1, cmp);
            perm.truncate(l);
            perm.sort_unstable_by(cmp);
        }
        _ => perm.sort_unstable_by(cmp),
    }
    Some(perm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;
    use bi_types::{Column as SchemaColumn, DataType, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            SchemaColumn::nullable("t", DataType::Text),
            SchemaColumn::nullable("x", DataType::Int),
            SchemaColumn::nullable("f", DataType::Float),
        ])
        .unwrap();
        Table::from_rows(
            "S",
            schema,
            vec![
                vec!["bravo".into(), Value::Int(2), Value::Float(0.5)],
                vec![Value::Null, Value::Int(9), Value::Float(-0.0)],
                vec!["alpha".into(), Value::Null, Value::Float(f64::NAN)],
                vec!["bravo".into(), Value::Int(1), Value::Float(0.0)],
                vec!["alpha".into(), Value::Int(2), Value::Null],
            ],
        )
        .unwrap()
    }

    fn oracle(keys: &[&str], desc: &[bool], limit: Option<usize>) -> Vec<Vec<Value>> {
        let sorted = table().sort_by(keys, desc).unwrap();
        let mut rows = sorted.rows().to_vec();
        if let Some(l) = limit {
            rows.truncate(l);
        }
        rows
    }

    fn kernel(keys: &[(usize, bool)], limit: Option<usize>) -> Vec<Vec<Value>> {
        let t = table();
        let chunk = ColumnChunk::from_table(&t).unwrap();
        let perm = sort_permutation(&chunk, keys, limit).unwrap();
        perm.iter().map(|&i| t.rows()[i as usize].clone()).collect()
    }

    #[test]
    fn matches_row_sort_on_every_key_shape() {
        assert_eq!(kernel(&[(0, false)], None), oracle(&["t"], &[false], None));
        assert_eq!(kernel(&[(0, true)], None), oracle(&["t"], &[true], None));
        assert_eq!(
            kernel(&[(1, false), (2, true)], None),
            oracle(&["x", "f"], &[false, true], None)
        );
        assert_eq!(
            kernel(&[(2, false), (0, false)], None),
            oracle(&["f", "t"], &[false, false], None)
        );
    }

    #[test]
    fn top_k_equals_sort_then_truncate() {
        for l in 0..=6 {
            assert_eq!(
                kernel(&[(0, false), (1, true)], Some(l)),
                oracle(&["t", "x"], &[false, true], Some(l)),
                "limit {l}"
            );
        }
    }

    #[test]
    fn missing_key_column_declines() {
        let t = table();
        let chunk = ColumnChunk::from_table_cols(&t, &[0]).unwrap();
        assert!(sort_permutation(&chunk, &[(1, false)], None).is_none());
    }
}
