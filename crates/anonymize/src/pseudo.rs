//! Deterministic keyed pseudonymization.
//!
//! Patient names in the paper's scenario must often be replaced by stable
//! pseudonyms: the same patient maps to the same opaque token across
//! extractions (so entity resolution and grouping still work) but the
//! mapping is not invertible without the key. Implemented as keyed
//! FNV-1a — not cryptographic, but honest about it: this mirrors the
//! "scrambling" the paper cites for privacy-preserving mining, and the
//! key never leaves the source.

use std::fmt::Write;

use bi_relation::Table;
use bi_types::{Column, DataType, Schema, Value};

use crate::error::AnonError;

/// A keyed pseudonym generator.
#[derive(Debug, Clone)]
pub struct Pseudonymizer {
    key: u64,
    prefix: String,
}

impl Pseudonymizer {
    /// A pseudonymizer with the given secret key and token prefix.
    pub fn new(key: u64, prefix: impl Into<String>) -> Self {
        Pseudonymizer {
            key,
            prefix: prefix.into(),
        }
    }

    /// The stable pseudonym of one value (NULL stays NULL).
    pub fn pseudonym(&self, v: &Value) -> Value {
        self.token(v, &mut String::new())
    }

    /// [`Pseudonymizer::pseudonym`] with a reusable buffer: a text
    /// value is hashed in place (its `Display` is the string itself),
    /// any other value is formatted into `buf` first, and the token is
    /// built in `buf`, so the token's cell is the only allocation.
    fn token(&self, v: &Value, buf: &mut String) -> Value {
        let h = match v {
            Value::Null => return Value::Null,
            Value::Text(s) => self.hash(s.as_bytes()),
            other => {
                buf.clear();
                // Writing into a `String` cannot fail.
                let _ = write!(buf, "{other}");
                self.hash(buf.as_bytes())
            }
        };
        buf.clear();
        let _ = write!(buf, "{}-{h:016x}", self.prefix);
        Value::text(buf.as_str())
    }

    /// FNV-1a, keyed by folding the key in first.
    fn hash(&self, bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.key;
        for b in bytes {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Replaces the named column by pseudonyms (column becomes Text).
    pub fn apply(&self, table: &Table, column: &str) -> Result<Table, AnonError> {
        let c = table
            .schema()
            .index_of(column)
            .map_err(|e| AnonError::Relation(e.into()))?;
        let cols: Vec<Column> = table
            .schema()
            .columns()
            .iter()
            .enumerate()
            .map(|(i, col)| {
                if i == c {
                    Column {
                        name: col.name.clone(),
                        dtype: DataType::Text,
                        nullable: col.nullable,
                    }
                } else {
                    col.clone()
                }
            })
            .collect();
        let schema = Schema::new(cols).map_err(AnonError::from)?;
        let mut buf = String::new();
        let rows = table
            .rows()
            .iter()
            .map(|row| {
                let mut r = row.clone();
                r[c] = self.token(&row[c], &mut buf);
                r
            })
            .collect();
        // Well-typed by construction: column `c` now holds Text or, where
        // it held NULL, NULL under the same nullability; the rest is the
        // validated input.
        Ok(Table::from_rows_trusted(table.name(), schema, rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patients() -> Table {
        let schema = Schema::new(vec![
            Column::new("Patient", DataType::Text),
            Column::new("Drug", DataType::Text),
        ])
        .unwrap();
        Table::from_rows(
            "P",
            schema,
            vec![
                vec!["Alice".into(), "DH".into()],
                vec!["Bob".into(), "DR".into()],
                vec!["Alice".into(), "DR".into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn stable_and_collision_free_here() {
        let p = Pseudonymizer::new(42, "PAT");
        let t = p.apply(&patients(), "Patient").unwrap();
        let vals = t.column_values("Patient").unwrap();
        assert_eq!(vals[0], vals[2], "same patient, same pseudonym");
        assert_ne!(vals[0], vals[1]);
        assert!(vals[0].as_text().unwrap().starts_with("PAT-"));
    }

    #[test]
    fn different_keys_give_different_pseudonyms() {
        let a = Pseudonymizer::new(1, "P");
        let b = Pseudonymizer::new(2, "P");
        assert_ne!(a.pseudonym(&"Alice".into()), b.pseudonym(&"Alice".into()));
    }

    #[test]
    fn nulls_survive() {
        let p = Pseudonymizer::new(9, "X");
        assert_eq!(p.pseudonym(&Value::Null), Value::Null);
    }

    #[test]
    fn non_text_values_pseudonymize_via_display() {
        let p = Pseudonymizer::new(9, "N");
        let x = p.pseudonym(&Value::Int(12345));
        assert!(x.as_text().unwrap().starts_with("N-"));
    }

    #[test]
    fn tokens_are_pinned_for_every_type() {
        let p = Pseudonymizer::new(42, "PAT");
        let date = Value::Date(bi_types::Date::new(2007, 3, 1).unwrap());
        for (v, token) in [
            (Value::text("Alice"), "PAT-a330faa5c1021879"),
            (Value::Int(12345), "PAT-5b258b733b9673be"),
            (Value::Int(-7), "PAT-08288107b4e30f83"),
            (Value::Float(2.5), "PAT-a8cad918e178c79a"),
            (Value::Float(3.0), "PAT-af63d44c8601def4"),
            (date, "PAT-e0183698a07d7f2a"),
            (Value::Bool(true), "PAT-e5ceb64ec24d1f83"),
            (Value::Bool(false), "PAT-fec268f7b2ecfcce"),
        ] {
            assert_eq!(p.pseudonym(&v), Value::text(token), "{v:?}");
        }
        assert_eq!(p.pseudonym(&Value::Null), Value::Null);
        // `apply` writes the same tokens, NULLs included.
        let schema = Schema::new(vec![
            Column::nullable("Patient", DataType::Text),
            Column::new("Cost", DataType::Int),
        ])
        .unwrap();
        let t = Table::from_rows(
            "P",
            schema,
            vec![
                vec!["Alice".into(), Value::Int(12345)],
                vec![Value::Null, Value::Int(-7)],
            ],
        )
        .unwrap();
        let by_name = p.apply(&t, "Patient").unwrap();
        assert_eq!(
            by_name.column_values("Patient").unwrap(),
            vec![Value::text("PAT-a330faa5c1021879"), Value::Null]
        );
        let by_cost = p.apply(&t, "Cost").unwrap();
        assert_eq!(by_cost.schema().columns()[1].dtype, DataType::Text);
        assert_eq!(
            by_cost.column_values("Cost").unwrap(),
            vec![
                Value::text("PAT-5b258b733b9673be"),
                Value::text("PAT-08288107b4e30f83")
            ]
        );
    }

    #[test]
    fn unknown_column_errors() {
        let p = Pseudonymizer::new(1, "P");
        assert!(p.apply(&patients(), "Ghost").is_err());
    }
}
