//! Greedy Mondrian multidimensional k-anonymization.
//!
//! Instead of generalizing whole columns uniformly (full-domain), Mondrian
//! recursively partitions the *rows*: pick the ordered quasi-identifier
//! with the widest normalized range, split the partition at the median,
//! and recurse while both halves keep at least `k` rows. Each final
//! partition reports its QI values as `[lo..hi]` ranges. Information loss
//! is typically far lower than full-domain generalization — experiment E7
//! measures exactly that.

use bi_exec::ExecConfig;
use bi_relation::Table;
use bi_types::{Column, DataType, Schema, Value};

use crate::error::AnonError;

/// Orders a QI value on a numeric axis (dates map to epoch days).
fn axis(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        Value::Date(d) => Some(d.days_from_epoch() as f64),
        _ => None,
    }
}

/// Renders the range of a partition on one axis.
fn range_label(vals: &[f64], is_date: bool) -> String {
    let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if lo == hi {
        if is_date {
            bi_types::Date::from_days_from_epoch(lo as i64)
                .map(|d| d.to_string())
                .unwrap_or_else(|_| format!("{lo}"))
        } else {
            format!("{lo}")
        }
    } else if is_date {
        let l = bi_types::Date::from_days_from_epoch(lo as i64)
            .map(|d| d.to_string())
            .unwrap_or_else(|_| format!("{lo}"));
        let h = bi_types::Date::from_days_from_epoch(hi as i64)
            .map(|d| d.to_string())
            .unwrap_or_else(|_| format!("{hi}"));
        format!("[{l}..{h}]")
    } else {
        format!("[{lo}..{hi}]")
    }
}

/// Mondrian k-anonymization over the named ordered QI columns.
///
/// Rows with NULL in any QI column are suppressed up-front (they have no
/// position on the axis). QI columns become Text range labels; all other
/// columns pass through unchanged.
pub fn mondrian(table: &Table, qi: &[&str], k: usize) -> Result<Table, AnonError> {
    mondrian_with(table, qi, k, &ExecConfig::serial())
}

/// [`mondrian`] with an execution configuration. The recursive median-cut
/// tree is evaluated wave by wave: every open partition of the current
/// frontier is cut concurrently, and each split replaces its parent
/// *in place* in the ordered frontier — so the final leaf order is
/// exactly the serial depth-first order, and `threads = 1` reproduces
/// the serial engine byte for byte.
pub fn mondrian_with(
    table: &Table,
    qi: &[&str],
    k: usize,
    cfg: &ExecConfig,
) -> Result<Table, AnonError> {
    if k == 0 {
        return Err(AnonError::BadParams {
            reason: "k must be at least 1".into(),
        });
    }
    if qi.is_empty() {
        return Err(AnonError::BadParams {
            reason: "at least one quasi-identifier required".into(),
        });
    }
    let qi_idx: Vec<usize> = qi
        .iter()
        .map(|c| table.schema().index_of(c))
        .collect::<Result<_, _>>()
        .map_err(|e| AnonError::Relation(e.into()))?;
    let is_date: Vec<bool> = qi_idx
        .iter()
        .map(|&c| table.schema().columns()[c].dtype == DataType::Date)
        .collect();
    for (&c, name) in qi_idx.iter().zip(qi) {
        let dt = table.schema().columns()[c].dtype;
        if !matches!(dt, DataType::Int | DataType::Float | DataType::Date) {
            return Err(AnonError::NotOrdered {
                column: name.to_string(),
            });
        }
    }

    let _span = cfg.obs.span(bi_exec::SpanKind::AnonMondrian);
    // Row positions with complete QI values.
    let columnar_coords = if cfg.columnar {
        coords_columnar(table, &qi_idx)
    } else {
        None
    };
    cfg.obs.count(if columnar_coords.is_some() {
        bi_exec::Counter::AnonQiColumnar
    } else {
        bi_exec::Counter::AnonQiRow
    });
    let (live, coords) = columnar_coords.unwrap_or_else(|| coords_rowwise(table, &qi_idx));
    if live.len() < k && !live.is_empty() {
        return Err(AnonError::Unsatisfiable {
            k,
            best_violations: live.len(),
        });
    }

    // Recursive median cuts over index ranges into `coords`.
    let all: Vec<usize> = (0..live.len()).collect();
    let partitions: Vec<Vec<usize>> = if cfg.is_serial() {
        let mut partitions = Vec::new(); // indices into `live`
        split(&all, &coords, k, &mut partitions);
        partitions
    } else {
        split_parallel(all, &coords, k, cfg)
    };
    // Each committed cut splits one partition in two, so starting from
    // one open partition: cuts = partitions − 1. Deriving the count
    // from the result keeps it identical at any thread count.
    cfg.obs.add(
        bi_exec::Counter::AnonMondrianPartitions,
        partitions.len() as u64,
    );
    cfg.obs.add(
        bi_exec::Counter::AnonMondrianCuts,
        partitions.len().saturating_sub(1) as u64,
    );

    // Emit: QI columns become Text labels per partition.
    let cols: Vec<Column> = table
        .schema()
        .columns()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            if qi_idx.contains(&i) {
                Column::nullable(c.name.clone(), DataType::Text)
            } else {
                c.clone()
            }
        })
        .collect();
    let schema = Schema::new(cols).map_err(AnonError::from)?;
    let mut out = Table::new(table.name().to_string(), schema);
    for part in &partitions {
        let labels: Vec<String> = (0..qi_idx.len())
            .map(|axis_i| {
                let vals: Vec<f64> = part.iter().map(|&p| coords[p][axis_i]).collect();
                range_label(&vals, is_date[axis_i])
            })
            .collect();
        for &p in part {
            let src = &table.rows()[live[p]];
            let mut row = src.clone();
            for (axis_i, &q) in qi_idx.iter().enumerate() {
                row[q] = Value::text(labels[axis_i].clone());
            }
            out.push_row(row).map_err(AnonError::from)?;
        }
    }
    Ok(out)
}

/// Row-at-a-time extraction of QI axis coordinates: `(live row
/// positions, per-live-row coordinate vectors)`; rows with any NULL QI
/// cell are dropped (no position on the axis).
fn coords_rowwise(table: &Table, qi_idx: &[usize]) -> (Vec<usize>, Vec<Vec<f64>>) {
    let mut live: Vec<usize> = Vec::new();
    let mut coords: Vec<Vec<f64>> = Vec::new();
    for (i, row) in table.rows().iter().enumerate() {
        let c: Option<Vec<f64>> = qi_idx.iter().map(|&q| axis(&row[q])).collect();
        if let Some(c) = c {
            live.push(i);
            coords.push(c);
        }
    }
    (live, coords)
}

/// Columnar twin of [`coords_rowwise`]: each QI column converts to one
/// typed vector and maps to its axis in a single pass (no per-cell
/// `Value` match), with NULL-row suppression driven by the validity
/// bitmaps. Produces exactly the per-row results of [`axis`] — raw
/// `f64`s for Float columns, `as f64` for Int, epoch days for Date.
/// Returns `None` when the table declines columnar conversion.
fn coords_columnar(table: &Table, qi_idx: &[usize]) -> Option<(Vec<usize>, Vec<Vec<f64>>)> {
    use bi_relation::{ColumnChunk, ColumnData};
    let chunk = ColumnChunk::from_table_cols(table, qi_idx).ok()?;
    let mut axis_vals: Vec<Vec<f64>> = Vec::with_capacity(qi_idx.len());
    let mut validities = Vec::with_capacity(qi_idx.len());
    for &c in qi_idx {
        // Conversion materialized exactly these columns; fall back to
        // the row path rather than abort if that invariant ever breaks.
        let col = chunk.column(c)?;
        let vals: Vec<f64> = match &col.data {
            ColumnData::Int(d) => d.iter().map(|&i| i as f64).collect(),
            ColumnData::Float(d) => d.clone(),
            ColumnData::Date(d) => d.iter().map(|x| x.days_from_epoch() as f64).collect(),
            // Text/Bool QI columns were already rejected as NotOrdered.
            _ => return None,
        };
        axis_vals.push(vals);
        validities.push(&col.validity);
    }
    let mut live: Vec<usize> = Vec::new();
    let mut coords: Vec<Vec<f64>> = Vec::new();
    for i in 0..table.len() {
        if validities.iter().any(|v| v.is_null(i)) {
            continue;
        }
        live.push(i);
        coords.push(axis_vals.iter().map(|a| a[i]).collect());
    }
    Some((live, coords))
}

/// Finds an allowable median cut of `part`, trying the widest normalized
/// axis first. Returns the (left, right) halves, or `None` when no
/// dimension admits a cut that keeps both halves at `k` rows or more.
fn try_cut(part: &[usize], coords: &[Vec<f64>], k: usize) -> Option<(Vec<usize>, Vec<usize>)> {
    let dims = coords.first().map(Vec::len).unwrap_or(0);
    let mut order: Vec<usize> = (0..dims).collect();
    let width = |d: usize| {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &p in part {
            lo = lo.min(coords[p][d]);
            hi = hi.max(coords[p][d]);
        }
        hi - lo
    };
    order.sort_by(|&a, &b| width(b).total_cmp(&width(a)));

    for &d in &order {
        let mut sorted: Vec<usize> = part.to_vec();
        sorted.sort_by(|&a, &b| coords[a][d].total_cmp(&coords[b][d]));
        let median = coords[sorted[sorted.len() / 2]][d];
        // Strict split: left < median ≤ right keeps duplicates together.
        let lhs: Vec<usize> = sorted
            .iter()
            .copied()
            .filter(|&p| coords[p][d] < median)
            .collect();
        let rhs: Vec<usize> = sorted
            .iter()
            .copied()
            .filter(|&p| coords[p][d] >= median)
            .collect();
        if lhs.len() >= k && rhs.len() >= k {
            return Some((lhs, rhs));
        }
    }
    None
}

fn split(part: &[usize], coords: &[Vec<f64>], k: usize, out: &mut Vec<Vec<usize>>) {
    if part.len() < 2 * k {
        if !part.is_empty() {
            out.push(part.to_vec());
        }
        return;
    }
    match try_cut(part, coords, k) {
        Some((lhs, rhs)) => {
            split(&lhs, coords, k, out);
            split(&rhs, coords, k, out);
        }
        // No allowable cut on any dimension: this is a final partition.
        None => out.push(part.to_vec()),
    }
}

/// Wave-based evaluation of the cut tree. The frontier is an ordered
/// list of partitions; one wave cuts every still-open partition in
/// parallel and splices each (left, right) pair into its parent's slot.
/// In-place expansion of an ordered frontier yields leaves in exactly
/// the depth-first order of [`split`].
fn split_parallel(
    all: Vec<usize>,
    coords: &[Vec<f64>],
    k: usize,
    cfg: &ExecConfig,
) -> Vec<Vec<usize>> {
    enum Slot {
        Done(Vec<usize>),
        Open(Vec<usize>),
    }
    let mut frontier: Vec<Slot> = vec![Slot::Open(all)];
    loop {
        let open: Vec<Vec<usize>> = frontier
            .iter()
            .filter_map(|s| match s {
                Slot::Open(p) => Some(p.clone()),
                Slot::Done(_) => None,
            })
            .collect();
        if open.is_empty() {
            break;
        }
        let cuts = bi_exec::par_map(cfg, &open, |p| {
            if p.len() < 2 * k {
                None
            } else {
                try_cut(p, coords, k)
            }
        });
        // One cut per open slot, in frontier order.
        let mut cut_iter = cuts.into_iter();
        let mut next = Vec::with_capacity(frontier.len() + 1);
        for slot in frontier {
            match slot {
                Slot::Done(p) => next.push(Slot::Done(p)),
                Slot::Open(p) => match cut_iter.next().flatten() {
                    Some((lhs, rhs)) => {
                        next.push(Slot::Open(lhs));
                        next.push(Slot::Open(rhs));
                    }
                    None => next.push(Slot::Done(p)),
                },
            }
        }
        frontier = next;
    }
    frontier
        .into_iter()
        .map(|s| match s {
            Slot::Done(p) | Slot::Open(p) => p,
        })
        .filter(|p| !p.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kanon::is_k_anonymous;

    fn ages() -> Table {
        let schema = Schema::new(vec![
            Column::new("Age", DataType::Int),
            Column::new("Zip", DataType::Int),
            Column::new("Disease", DataType::Text),
        ])
        .unwrap();
        let data = [
            (25, 38100, "flu"),
            (27, 38100, "flu"),
            (29, 38121, "HIV"),
            (31, 38121, "asthma"),
            (44, 38050, "asthma"),
            (46, 38050, "diabetes"),
            (52, 38068, "flu"),
            (58, 38068, "HIV"),
        ];
        let rows = data
            .iter()
            .map(|&(a, z, d)| vec![Value::Int(a), Value::Int(z), d.into()])
            .collect();
        Table::from_rows("T", schema, rows).unwrap()
    }

    #[test]
    fn partitions_satisfy_k() {
        let t = ages();
        for k in [2, 3, 4] {
            let anon = mondrian(&t, &["Age", "Zip"], k).unwrap();
            assert_eq!(anon.len(), 8, "no suppression needed");
            assert!(is_k_anonymous(&anon, &["Age", "Zip"], k).unwrap(), "k={k}");
        }
    }

    #[test]
    fn k2_produces_finer_ranges_than_k4() {
        let t = ages();
        let count_classes = |t: &Table| t.project(&["Age", "Zip"]).unwrap().distinct().len();
        let a2 = mondrian(&t, &["Age", "Zip"], 2).unwrap();
        let a4 = mondrian(&t, &["Age", "Zip"], 4).unwrap();
        assert!(count_classes(&a2) >= count_classes(&a4));
    }

    #[test]
    fn sensitive_column_preserved() {
        let t = ages();
        let anon = mondrian(&t, &["Age"], 2).unwrap();
        let mut diseases = anon.column_values("Disease").unwrap();
        let mut orig = t.column_values("Disease").unwrap();
        diseases.sort();
        orig.sort();
        assert_eq!(diseases, orig);
    }

    #[test]
    fn date_axes_render_ranges() {
        let schema = Schema::new(vec![
            Column::new("When", DataType::Date),
            Column::new("X", DataType::Int),
        ])
        .unwrap();
        let rows = vec![
            vec![Value::date("2007-01-10").unwrap(), 1.into()],
            vec![Value::date("2007-02-20").unwrap(), 2.into()],
            vec![Value::date("2007-08-01").unwrap(), 3.into()],
            vec![Value::date("2007-09-15").unwrap(), 4.into()],
        ];
        let t = Table::from_rows("D", schema, rows).unwrap();
        let anon = mondrian(&t, &["When"], 2).unwrap();
        let labels = anon.column_values("When").unwrap();
        assert!(labels.iter().all(|v| v.as_text().unwrap().contains("2007")));
    }

    #[test]
    fn text_qi_rejected_and_bad_params() {
        let t = ages();
        assert!(matches!(
            mondrian(&t, &["Disease"], 2),
            Err(AnonError::NotOrdered { .. })
        ));
        assert!(mondrian(&t, &["Age"], 0).is_err());
        assert!(mondrian(&t, &[], 2).is_err());
    }

    #[test]
    fn too_few_rows_unsatisfiable() {
        let t = ages();
        assert!(matches!(
            mondrian(&t, &["Age"], 9),
            Err(AnonError::Unsatisfiable { .. })
        ));
    }

    /// Columnar coordinate extraction must reproduce the row path —
    /// including NULL-row suppression and Date/Float axes — so the whole
    /// anonymization is byte-identical under a columnar config.
    #[test]
    fn columnar_coords_match_rowwise() {
        let schema = Schema::new(vec![
            Column::nullable("Age", DataType::Int),
            Column::new("Score", DataType::Float),
            Column::new("When", DataType::Date),
            Column::new("Disease", DataType::Text),
        ])
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..60)
            .map(|i: i64| {
                let age = if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Int(20 + (i * 7) % 50)
                };
                vec![
                    age,
                    Value::Float((i % 11) as f64 / 2.0),
                    Value::Date(
                        bi_types::Date::from_days_from_epoch(13_000 + (i * 3) % 400).unwrap(),
                    ),
                    Value::text(format!("d{}", i % 4)),
                ]
            })
            .collect();
        let t = Table::from_rows("M", schema, rows).unwrap();
        let qi = ["Age", "Score", "When"];
        let qi_idx: Vec<usize> = qi.iter().map(|c| t.schema().index_of(c).unwrap()).collect();
        assert_eq!(
            coords_columnar(&t, &qi_idx).unwrap(),
            coords_rowwise(&t, &qi_idx)
        );
        let serial = mondrian(&t, &qi, 3).unwrap();
        for threads in [1, 2, 8] {
            let cfg = ExecConfig::with_threads(threads).with_columnar(true);
            let columnar = mondrian_with(&t, &qi, 3, &cfg).unwrap();
            assert_eq!(columnar.rows(), serial.rows(), "threads={threads}");
            assert_eq!(columnar.schema(), serial.schema());
        }
    }

    /// Wave-parallel partitioning must reproduce the serial recursion's
    /// partitions — same rows, same labels, same output order.
    #[test]
    fn parallel_partitioning_matches_serial() {
        let schema = Schema::new(vec![
            Column::new("Age", DataType::Int),
            Column::new("Zip", DataType::Int),
            Column::new("Disease", DataType::Text),
        ])
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..500)
            .map(|i: i64| {
                vec![
                    Value::Int(20 + (i * 7) % 60),
                    Value::Int(38000 + (i * 13) % 200),
                    Value::text(format!("d{}", i % 5)),
                ]
            })
            .collect();
        let t = Table::from_rows("T", schema, rows).unwrap();
        for k in [2, 5, 25] {
            let serial = mondrian(&t, &["Age", "Zip"], k).unwrap();
            for threads in [2, 8] {
                let cfg = ExecConfig::with_threads(threads);
                let par = mondrian_with(&t, &["Age", "Zip"], k, &cfg).unwrap();
                assert_eq!(serial.rows(), par.rows(), "k={k} threads={threads}");
            }
        }
    }
}
