//! Cube-cell authorization (paper §4, citing Wang/Jajodia/Wijesekera).
//!
//! Two complementary mechanisms over a materialized cube result that
//! carries a base-row count column:
//!
//! * **minimum-count suppression** — cells aggregating fewer than `k`
//!   base rows are removed (the PLA aggregation-threshold rule, §5.ii);
//! * **complementary suppression** — if, within a sibling family (rows
//!   agreeing on all group columns except one), exactly one cell was
//!   suppressed, an attacker who knows the family's rollup total can
//!   difference it back. The smallest surviving sibling is suppressed
//!   too, restoring ≥2 unknowns per family.

use bi_relation::Table;
use bi_types::Value;

use crate::error::WarehouseError;

/// Result of guarding a cube.
#[derive(Debug, Clone)]
pub struct GuardedCube {
    pub table: Table,
    /// Cells removed for being under the threshold.
    pub suppressed_small: usize,
    /// Cells additionally removed to block differencing.
    pub suppressed_complementary: usize,
    /// Sibling families whose ONLY member was suppressed: within this
    /// cube nothing more can be hidden, but an attacker who knows the
    /// family's rollup total learns the cell directly (total = cell).
    /// A non-zero count means the corresponding rollup must be guarded
    /// at the coarser level too.
    pub inferable_singletons: usize,
}

/// Which cells of a cube survive the guard, with the counts
/// [`GuardedCube`] reports. A caller that reshapes the surviving rows
/// (say, drops the count column) copies each of them once, itself.
#[derive(Debug, Clone)]
pub struct GuardDecision {
    /// One flag per cube row, in row order: `true` keeps the cell.
    pub keep: Vec<bool>,
    pub suppressed_small: usize,
    pub suppressed_complementary: usize,
    pub inferable_singletons: usize,
}

/// Decides minimum-count suppression (and optionally complementary
/// suppression over `detail_col`) for a cube result, without building
/// the guarded table.
///
/// * `count_col` — the column holding each cell's base-row count;
/// * `k` — minimum allowed count;
/// * `detail_col` — the group column along which differencing is
///   possible (siblings agree on every other group column). Pass `None`
///   to skip complementary suppression.
/// * `measure_cols` — non-grouping output columns (other measures) to
///   exclude from the sibling-family key; the count column and the
///   detail column are excluded automatically.
pub fn guard_decision(
    cube: &Table,
    count_col: &str,
    k: usize,
    detail_col: Option<&str>,
    measure_cols: &[&str],
) -> Result<GuardDecision, WarehouseError> {
    if k == 0 {
        return Err(WarehouseError::BadParams {
            reason: "k must be at least 1".into(),
        });
    }
    let cidx = cube.schema().index_of(count_col)?;
    let mut keep: Vec<bool> = Vec::with_capacity(cube.len());
    let mut suppressed_small = 0usize;
    for row in cube.rows() {
        let n = row[cidx].as_int().map_err(|e| {
            WarehouseError::Query(bi_query::QueryError::Relation(
                bi_relation::RelationError::Type(e),
            ))
        })?;
        let ok = n >= k as i64;
        if !ok {
            suppressed_small += 1;
        }
        keep.push(ok);
    }

    let mut suppressed_complementary = 0usize;
    let mut inferable_singletons = 0usize;
    if let Some(detail) = detail_col {
        let didx = cube.schema().index_of(detail)?;
        let measure_idx: Vec<usize> = measure_cols
            .iter()
            .map(|c| cube.schema().index_of(c))
            .collect::<Result<_, _>>()?;
        // Family key: every grouping column except the detail axis.
        let family_cols: Vec<usize> = (0..cube.schema().len())
            .filter(|&i| i != didx && i != cidx && !measure_idx.contains(&i))
            .collect();
        use std::collections::HashMap;
        let mut families: HashMap<Vec<&Value>, Vec<usize>> = HashMap::new();
        for (i, row) in cube.rows().iter().enumerate() {
            let key: Vec<&Value> = family_cols.iter().map(|&c| &row[c]).collect();
            families.entry(key).or_default().push(i);
        }
        for members in families.values() {
            let hidden: Vec<usize> = members.iter().copied().filter(|&i| !keep[i]).collect();
            if hidden.len() == 1 {
                // One unknown in the family: differencing recovers it.
                // Hide the smallest surviving sibling as well.
                let victim = members
                    .iter()
                    .copied()
                    .filter(|&i| keep[i])
                    .min_by_key(|&i| cube.rows()[i][cidx].as_int().unwrap_or(i64::MAX));
                match victim {
                    Some(v) => {
                        keep[v] = false;
                        suppressed_complementary += 1;
                    }
                    // No surviving sibling: the family rollup IS the
                    // hidden cell. Report it so the caller can guard the
                    // coarser level.
                    None => inferable_singletons += 1,
                }
            }
        }
    }
    Ok(GuardDecision {
        keep,
        suppressed_small,
        suppressed_complementary,
        inferable_singletons,
    })
}

/// Applies minimum-count suppression (and optionally complementary
/// suppression over `detail_col`) to a cube result: the cells
/// [`guard_decision`] keeps, copied into a table of the cube's name and
/// schema.
pub fn guard_cube_with_measures(
    cube: &Table,
    count_col: &str,
    k: usize,
    detail_col: Option<&str>,
    measure_cols: &[&str],
) -> Result<GuardedCube, WarehouseError> {
    let decision = guard_decision(cube, count_col, k, detail_col, measure_cols)?;
    let rows = cube
        .rows()
        .iter()
        .zip(&decision.keep)
        .filter(|(_, &k)| k)
        .map(|(r, _)| r.clone())
        .collect();
    // Survivors of an already-validated table are well-typed.
    let table = Table::from_rows_trusted(cube.name(), cube.schema_shared(), rows);
    Ok(GuardedCube {
        table,
        suppressed_small: decision.suppressed_small,
        suppressed_complementary: decision.suppressed_complementary,
        inferable_singletons: decision.inferable_singletons,
    })
}

/// [`guard_cube_with_measures`] with no extra measure columns — the
/// common pure-cube case (group columns + one count).
pub fn guard_cube(
    cube: &Table,
    count_col: &str,
    k: usize,
    detail_col: Option<&str>,
) -> Result<GuardedCube, WarehouseError> {
    guard_cube_with_measures(cube, count_col, k, detail_col, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use bi_types::{Column, DataType, Schema};

    /// Quarter × Drug counts; (Q1, DM) is a singleton.
    fn cube() -> Table {
        let schema = Schema::new(vec![
            Column::new("Quarter", DataType::Text),
            Column::new("Drug", DataType::Text),
            Column::new("n", DataType::Int),
        ])
        .unwrap();
        Table::from_rows(
            "cube",
            schema,
            vec![
                vec!["Q1".into(), "DH".into(), 8.into()],
                vec!["Q1".into(), "DR".into(), 5.into()],
                vec!["Q1".into(), "DM".into(), 1.into()],
                vec!["Q2".into(), "DH".into(), 6.into()],
                vec!["Q2".into(), "DR".into(), 7.into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn small_cells_suppressed() {
        let g = guard_cube(&cube(), "n", 3, None).unwrap();
        assert_eq!(g.suppressed_small, 1);
        assert_eq!(g.suppressed_complementary, 0);
        assert_eq!(g.table.len(), 4);
        assert!(g.table.rows().iter().all(|r| r[1] != Value::from("DM")));
    }

    #[test]
    fn complementary_suppression_blocks_differencing() {
        // Within Q1, only DM is hidden: knowing the Q1 total (14) and the
        // published DH+DR (13) reveals DM = 1. The guard must hide the
        // smallest surviving sibling (DR, 5) too.
        let g = guard_cube(&cube(), "n", 3, Some("Drug")).unwrap();
        assert_eq!(g.suppressed_small, 1);
        assert_eq!(g.suppressed_complementary, 1);
        let q1: Vec<_> = g
            .table
            .rows()
            .iter()
            .filter(|r| r[0] == Value::from("Q1"))
            .collect();
        assert_eq!(q1.len(), 1);
        assert_eq!(q1[0][1], Value::from("DH"));
        // Q2 untouched (nothing hidden there).
        assert_eq!(
            g.table
                .rows()
                .iter()
                .filter(|r| r[0] == Value::from("Q2"))
                .count(),
            2
        );
    }

    #[test]
    fn no_hidden_cells_no_complementary() {
        let g = guard_cube(&cube(), "n", 1, Some("Drug")).unwrap();
        assert_eq!(g.suppressed_small, 0);
        assert_eq!(g.suppressed_complementary, 0);
        assert_eq!(g.table.len(), 5);
    }

    #[test]
    fn two_hidden_cells_need_no_extra() {
        let schema = cube().schema().clone();
        let t = Table::from_rows(
            "c",
            schema,
            vec![
                vec!["Q1".into(), "A".into(), 1.into()],
                vec!["Q1".into(), "B".into(), 2.into()],
                vec!["Q1".into(), "C".into(), 9.into()],
            ],
        )
        .unwrap();
        let g = guard_cube(&t, "n", 3, Some("Drug")).unwrap();
        assert_eq!(g.suppressed_small, 2);
        assert_eq!(g.suppressed_complementary, 0, "two unknowns already");
        assert_eq!(g.table.len(), 1);
    }

    #[test]
    fn bad_params() {
        assert!(guard_cube(&cube(), "n", 0, None).is_err());
        assert!(guard_cube(&cube(), "ghost", 3, None).is_err());
        assert!(
            guard_cube(&cube(), "Drug", 3, None).is_err(),
            "count must be Int"
        );
    }
}
