//! k-anonymity by full-domain generalization (Samarati/Sweeney).
//!
//! Quasi-identifier columns are generalized uniformly — the same level
//! per column everywhere — searching the generalization lattice
//! breadth-first by total height and returning the first (minimal-height)
//! node that makes every equivalence class of QI values contain at least
//! `k` rows, after suppressing at most `max_suppress` outlier rows.

use std::collections::HashMap;

use bi_exec::ExecConfig;
use bi_relation::Table;
use bi_types::{Column, DataType, Schema, Value};

use crate::error::AnonError;
use crate::hierarchy::Hierarchy;

/// The outcome of a k-anonymization.
#[derive(Debug, Clone)]
pub struct AnonResult {
    /// The anonymized table (QI columns become Text at generalized
    /// levels; suppressed rows removed).
    pub table: Table,
    /// Chosen generalization level per QI column (parallel to the
    /// hierarchies passed in).
    pub levels: Vec<usize>,
    /// Number of suppressed rows.
    pub suppressed: usize,
    /// Number of lattice nodes examined (search effort, used by E7).
    pub nodes_examined: usize,
}

/// Generalizes the QI columns of `table` to `levels` (parallel to
/// `hierarchies`). Generalized columns (level > 0) become Text.
pub fn generalize_table(
    table: &Table,
    hierarchies: &[Hierarchy],
    levels: &[usize],
) -> Result<Table, AnonError> {
    generalize_table_with(table, hierarchies, levels, &ExecConfig::serial())
}

/// [`generalize_table`] with a parallelism configuration: rows are
/// generalized in morsels and reassembled in row order, so the result
/// is identical at any thread count.
pub fn generalize_table_with(
    table: &Table,
    hierarchies: &[Hierarchy],
    levels: &[usize],
    cfg: &ExecConfig,
) -> Result<Table, AnonError> {
    if hierarchies.len() != levels.len() {
        return Err(AnonError::BadParams {
            reason: format!(
                "levels must be parallel to hierarchies: {} levels for {} hierarchies",
                levels.len(),
                hierarchies.len()
            ),
        });
    }
    let qi_idx: Vec<usize> = hierarchies
        .iter()
        .map(|h| table.schema().index_of(h.name()))
        .collect::<Result<_, _>>()
        .map_err(|e| AnonError::Relation(e.into()))?;
    // New schema: generalized QI columns turn into nullable Text.
    let cols: Vec<Column> = table
        .schema()
        .columns()
        .iter()
        .enumerate()
        .map(|(i, c)| match qi_idx.iter().position(|&q| q == i) {
            Some(hi) if levels[hi] > 0 => Column::nullable(c.name.clone(), DataType::Text),
            _ => c.clone(),
        })
        .collect();
    let schema = Schema::new(cols).map_err(AnonError::from)?;
    let generalize_row = |row: &Vec<Value>| -> Result<Vec<Value>, AnonError> {
        let mut r = row.clone();
        for (hi, &ci) in qi_idx.iter().enumerate() {
            r[ci] = hierarchies[hi].apply(&row[ci], levels[hi])?;
        }
        Ok(r)
    };
    if cfg.is_serial() {
        let mut out = Table::new(table.name().to_string(), schema);
        for row in table.rows() {
            out.push_row(generalize_row(row)?)
                .map_err(AnonError::from)?;
        }
        return Ok(out);
    }
    let rows = bi_exec::try_par_map(cfg, table.rows(), generalize_row)?;
    Table::from_rows(table.name().to_string(), schema, rows).map_err(AnonError::from)
}

/// Partitions row indices into QI-equivalence classes.
fn equivalence_classes(table: &Table, qi_idx: &[usize]) -> HashMap<Vec<Value>, Vec<usize>> {
    let mut classes: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (i, row) in table.rows().iter().enumerate() {
        let key: Vec<Value> = qi_idx.iter().map(|&c| row[c].clone()).collect();
        classes.entry(key).or_default().push(i);
    }
    classes
}

/// Columnar QI classing: each QI column collapses to dense `u32`
/// equivalence codes (`Value`-equality classes; NULLs form one class),
/// and per-row code tuples pack mixed-radix into a single `u64` key when
/// the cardinality product fits — class assignment becomes integer
/// hashing instead of `Vec<Value>` clone-and-hash per row. Returns
/// `None` when the table declines columnar conversion; callers then use
/// [`equivalence_classes`]. Class membership is identical either way
/// (all consumers are order-independent: they only look at sizes and
/// row-index membership).
fn equivalence_classes_columnar(table: &Table, qi_idx: &[usize]) -> Option<Vec<Vec<usize>>> {
    use bi_relation::ColumnChunk;
    let chunk = ColumnChunk::from_table_cols(table, qi_idx).ok()?;
    let mut coded: Vec<(&[u32], u32)> = Vec::with_capacity(qi_idx.len());
    for &c in qi_idx {
        // Conversion materialized exactly these columns; decline to the
        // row path rather than abort if that invariant ever breaks.
        coded.push(chunk.column(c)?.dense_codes());
    }
    let mut product: u128 = 1;
    for (_, card) in &coded {
        product = product.saturating_mul((*card).max(1) as u128);
    }
    let mut classes: Vec<Vec<usize>> = Vec::new();
    if product <= u64::MAX as u128 {
        let mut slots: HashMap<u64, usize> = HashMap::new();
        for i in 0..table.len() {
            let mut key: u64 = 0;
            for (codes, card) in &coded {
                key = key * (*card).max(1) as u64 + codes[i] as u64;
            }
            let slot = *slots.entry(key).or_insert_with(|| {
                classes.push(Vec::new());
                classes.len() - 1
            });
            classes[slot].push(i);
        }
    } else {
        let mut slots: HashMap<Vec<u32>, usize> = HashMap::new();
        for i in 0..table.len() {
            let key: Vec<u32> = coded.iter().map(|(codes, _)| codes[i]).collect();
            let slot = *slots.entry(key).or_insert_with(|| {
                classes.push(Vec::new());
                classes.len() - 1
            });
            classes[slot].push(i);
        }
    }
    Some(classes)
}

/// QI-equivalence classes as plain index groups — columnar when the
/// config asks for it and the table converts — plus whether dense
/// columnar codes served the classing, so callers on deterministic
/// paths can count it (the speculative lattice evaluations must not, or
/// snapshot counters would depend on the thread count).
fn classed_groups(table: &Table, qi_idx: &[usize], cfg: &ExecConfig) -> (Vec<Vec<usize>>, bool) {
    if cfg.columnar {
        if let Some(classes) = equivalence_classes_columnar(table, qi_idx) {
            return (classes, true);
        }
    }
    (
        equivalence_classes(table, qi_idx).into_values().collect(),
        false,
    )
}

/// Enumerates lattice nodes in ascending total height (BFS by sum).
fn nodes_by_height(maxima: &[usize]) -> Vec<Vec<usize>> {
    let total: usize = maxima.iter().sum();
    let mut out = Vec::new();
    for h in 0..=total {
        push_nodes_with_sum(maxima, h, &mut Vec::new(), &mut out);
    }
    out
}

fn push_nodes_with_sum(
    maxima: &[usize],
    remaining: usize,
    prefix: &mut Vec<usize>,
    out: &mut Vec<Vec<usize>>,
) {
    if prefix.len() == maxima.len() {
        if remaining == 0 {
            out.push(prefix.clone());
        }
        return;
    }
    let i = prefix.len();
    let rest_max: usize = maxima[i + 1..].iter().sum();
    let lo = remaining.saturating_sub(rest_max);
    let hi = maxima[i].min(remaining);
    for l in lo..=hi {
        prefix.push(l);
        push_nodes_with_sum(maxima, remaining - l, prefix, out);
        prefix.pop();
    }
}

/// Full-domain k-anonymization.
///
/// * `hierarchies` — one per quasi-identifier column (by name);
/// * `k` — minimum equivalence-class size;
/// * `max_suppress` — rows that may be dropped instead of generalizing
///   further (Sweeney's suppression threshold).
pub fn kanonymize(
    table: &Table,
    hierarchies: &[Hierarchy],
    k: usize,
    max_suppress: usize,
) -> Result<AnonResult, AnonError> {
    kanonymize_with(table, hierarchies, k, max_suppress, &ExecConfig::serial())
}

/// [`kanonymize`] with a parallelism configuration.
///
/// The lattice is still searched breadth-first by total height, but all
/// nodes *of the same height* are evaluated concurrently; the winner is
/// the first satisfying node in enumeration order, so the chosen levels,
/// the anonymized table, and `nodes_examined` are identical to the
/// serial search at any thread count.
pub fn kanonymize_with(
    table: &Table,
    hierarchies: &[Hierarchy],
    k: usize,
    max_suppress: usize,
    cfg: &ExecConfig,
) -> Result<AnonResult, AnonError> {
    if k == 0 {
        return Err(AnonError::BadParams {
            reason: "k must be at least 1".into(),
        });
    }
    if hierarchies.is_empty() {
        return Err(AnonError::BadParams {
            reason: "at least one quasi-identifier required".into(),
        });
    }
    let _span = cfg.obs.span(bi_exec::SpanKind::AnonKanonymize);
    let maxima: Vec<usize> = hierarchies.iter().map(Hierarchy::max_level).collect();

    // Evaluates one lattice node: generalize, class, count rows in
    // undersized classes. A node that fits the suppression budget also
    // returns its generalized table and classes, so `accept` reuses
    // them instead of re-generalizing and re-converting the winning
    // node to chunks a second time.
    type Satisfying = (Table, Vec<Vec<usize>>, bool);
    let evaluate = |node: &Vec<usize>| -> Result<(usize, Option<Satisfying>), AnonError> {
        let gen = generalize_table(table, hierarchies, node)?;
        let qi_idx: Vec<usize> = hierarchies
            .iter()
            .map(|h| gen.schema().index_of(h.name()))
            .collect::<Result<_, _>>()
            .map_err(|e| AnonError::Relation(e.into()))?;
        let (classes, columnar) = classed_groups(&gen, &qi_idx, cfg);
        let violating = classes
            .iter()
            .filter(|rows| rows.len() < k)
            .map(|rows| rows.len())
            .sum::<usize>();
        let payload = (violating <= max_suppress).then_some((gen, classes, columnar));
        Ok((violating, payload))
    };

    // Builds the winning result (suppressing undersized classes) from
    // the winning node's own evaluation.
    let accept = |(gen, classes, columnar): Satisfying,
                  node: Vec<usize>,
                  violating: usize,
                  nodes_examined: usize| {
        let keep: std::collections::HashSet<usize> = classes
            .iter()
            .filter(|rows| rows.len() >= k)
            .flat_map(|rows| rows.iter().copied())
            .collect();
        let rows: Vec<_> = gen
            .rows()
            .iter()
            .enumerate()
            .filter(|(i, _)| keep.contains(i))
            .map(|(_, r)| r.clone())
            .collect();
        let out = Table::from_rows(gen.name().to_string(), gen.schema().clone(), rows)
            .map_err(AnonError::from)?;
        // Counters derive from the accepted result only — the parallel
        // waves evaluate speculative nodes the serial search never
        // reaches, so per-evaluation counting would vary by thread
        // count. Waves visited = heights 0..=chosen height.
        let obs = &cfg.obs;
        obs.add(bi_exec::Counter::AnonLatticeNodes, nodes_examined as u64);
        obs.add(
            bi_exec::Counter::AnonLatticeWaves,
            node.iter().sum::<usize>() as u64 + 1,
        );
        obs.add(bi_exec::Counter::AnonSuppressedRows, violating as u64);
        obs.count(if columnar {
            bi_exec::Counter::AnonQiColumnar
        } else {
            bi_exec::Counter::AnonQiRow
        });
        Ok(AnonResult {
            table: out,
            levels: node,
            suppressed: violating,
            nodes_examined,
        })
    };

    let mut best_violations = usize::MAX;
    if cfg.is_serial() {
        for (node_idx, node) in nodes_by_height(&maxima).into_iter().enumerate() {
            let (violating, payload) = evaluate(&node)?;
            best_violations = best_violations.min(violating);
            if let Some(sat) = payload {
                return accept(sat, node, violating, node_idx + 1);
            }
        }
        return Err(AnonError::Unsatisfiable { k, best_violations });
    }

    // Parallel: one wave of workers per lattice height.
    let total: usize = maxima.iter().sum();
    let mut examined_before = 0usize;
    for h in 0..=total {
        let mut nodes: Vec<Vec<usize>> = Vec::new();
        push_nodes_with_sum(&maxima, h, &mut Vec::new(), &mut nodes);
        let evals: Vec<(usize, Option<Satisfying>)> = bi_exec::try_par_map(cfg, &nodes, evaluate)?;
        for (idx, (violating, payload)) in evals.into_iter().enumerate() {
            best_violations = best_violations.min(violating);
            if let Some(sat) = payload {
                return accept(
                    sat,
                    nodes.swap_remove(idx),
                    violating,
                    examined_before + idx + 1,
                );
            }
        }
        examined_before += nodes.len();
    }
    Err(AnonError::Unsatisfiable { k, best_violations })
}

/// Checks k-anonymity of a table over the given QI columns.
pub fn is_k_anonymous(table: &Table, qi: &[&str], k: usize) -> Result<bool, AnonError> {
    is_k_anonymous_with(table, qi, k, &ExecConfig::serial())
}

/// [`is_k_anonymous`] with an execution configuration: a columnar
/// config classes rows by dense QI codes instead of `Vec<Value>` keys.
pub fn is_k_anonymous_with(
    table: &Table,
    qi: &[&str],
    k: usize,
    cfg: &ExecConfig,
) -> Result<bool, AnonError> {
    let qi_idx: Vec<usize> = qi
        .iter()
        .map(|c| table.schema().index_of(c))
        .collect::<Result<_, _>>()
        .map_err(|e| AnonError::Relation(e.into()))?;
    let (classes, columnar) = classed_groups(table, &qi_idx, cfg);
    cfg.obs.count(if columnar {
        bi_exec::Counter::AnonQiColumnar
    } else {
        bi_exec::Counter::AnonQiRow
    });
    Ok(classes.iter().all(|rows| rows.len() >= k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::CategoricalBuilder;

    fn patients() -> Table {
        // Disease + rough age; the identifying combination must blur.
        let schema = Schema::new(vec![
            Column::new("Disease", DataType::Text),
            Column::new("Age", DataType::Int),
            Column::new("Drug", DataType::Text),
        ])
        .unwrap();
        let rows: Vec<Vec<Value>> = vec![
            vec!["HIV".into(), 34.into(), "DH".into()],
            vec!["HIV".into(), 36.into(), "DV".into()],
            vec!["asthma".into(), 33.into(), "DR".into()],
            vec!["asthma".into(), 52.into(), "DR".into()],
            vec!["diabetes".into(), 51.into(), "DM".into()],
            vec!["diabetes".into(), 58.into(), "DM".into()],
        ];
        Table::from_rows("P", schema, rows).unwrap()
    }

    fn hiers() -> Vec<Hierarchy> {
        vec![
            CategoricalBuilder::new()
                .edge("HIV", "infectious")
                .edge("asthma", "chronic")
                .edge("diabetes", "chronic")
                .build("Disease")
                .unwrap(),
            Hierarchy::numeric("Age", vec![10.0, 50.0]).unwrap(),
        ]
    }

    #[test]
    fn finds_minimal_generalization() {
        let t = patients();
        let res = kanonymize(&t, &hiers(), 2, 0).unwrap();
        assert_eq!(res.suppressed, 0);
        assert!(is_k_anonymous(&res.table, &["Disease", "Age"], 2).unwrap());
        // Non-QI column untouched.
        assert_eq!(res.table.column_values("Drug").unwrap().len(), 6);
        // Some generalization happened but not total suppression.
        assert!(res.levels.iter().sum::<usize>() >= 1);
        assert!(res
            .levels
            .iter()
            .zip(hiers().iter())
            .any(|(l, h)| *l < h.max_level()));
        assert!(res.nodes_examined >= 1);
    }

    #[test]
    fn minimality_vs_exhaustive() {
        // The returned node's height equals the minimum height over all
        // satisfying nodes (BFS by height guarantees it).
        let t = patients();
        let hs = hiers();
        let res = kanonymize(&t, &hs, 2, 0).unwrap();
        let got: usize = res.levels.iter().sum();
        let maxima: Vec<usize> = hs.iter().map(Hierarchy::max_level).collect();
        let mut best = usize::MAX;
        for node in nodes_by_height(&maxima) {
            let gen = generalize_table(&t, &hs, &node).unwrap();
            if is_k_anonymous(&gen, &["Disease", "Age"], 2).unwrap() {
                best = best.min(node.iter().sum());
            }
        }
        assert_eq!(got, best);
    }

    #[test]
    fn suppression_budget_reduces_generalization() {
        let mut t = patients();
        // One outlier that would force heavy generalization.
        t.push_row(vec!["HIV".into(), 99.into(), "DH".into()])
            .unwrap();
        let no_budget = kanonymize(&t, &hiers(), 2, 0).unwrap();
        let with_budget = kanonymize(&t, &hiers(), 2, 1).unwrap();
        assert!(with_budget.suppressed <= 1);
        let h_no: usize = no_budget.levels.iter().sum();
        let h_with: usize = with_budget.levels.iter().sum();
        assert!(
            h_with <= h_no,
            "budget must not increase generalization height"
        );
    }

    #[test]
    fn unsatisfiable_when_k_exceeds_rows() {
        let t = patients();
        let err = kanonymize(&t, &hiers(), 7, 0).unwrap_err();
        assert!(matches!(err, AnonError::Unsatisfiable { .. }));
        // A big enough suppression budget always "succeeds" (suppressing
        // everything) — semantics worth pinning.
        let res = kanonymize(&t, &hiers(), 7, 6).unwrap();
        assert_eq!(res.table.len(), 0);
        assert_eq!(res.suppressed, 6);
    }

    #[test]
    fn k1_is_identity() {
        let t = patients();
        let res = kanonymize(&t, &hiers(), 1, 0).unwrap();
        assert_eq!(res.levels, vec![0, 0]);
        assert_eq!(res.table.len(), 6);
    }

    #[test]
    fn bad_params_rejected() {
        let t = patients();
        assert!(matches!(
            kanonymize(&t, &hiers(), 0, 0),
            Err(AnonError::BadParams { .. })
        ));
        assert!(matches!(
            kanonymize(&t, &[], 2, 0),
            Err(AnonError::BadParams { .. })
        ));
    }

    /// Mismatched `levels`/`hierarchies` used to `assert_eq!`-panic;
    /// library paths must return typed errors instead.
    #[test]
    fn mismatched_levels_are_a_typed_error_not_a_panic() {
        let t = patients();
        let err = generalize_table(&t, &hiers(), &[0]).unwrap_err();
        assert!(matches!(err, AnonError::BadParams { .. }));
        assert!(err.to_string().contains("parallel to hierarchies"));
        let err = generalize_table(&t, &hiers(), &[0, 0, 0]).unwrap_err();
        assert!(matches!(err, AnonError::BadParams { .. }));
    }

    /// The parallel lattice search picks the same node, produces the
    /// same table, and reports the same search effort as the serial one.
    #[test]
    fn parallel_lattice_search_matches_serial() {
        let mut t = patients();
        t.push_row(vec!["HIV".into(), 99.into(), "DH".into()])
            .unwrap();
        for (k, sup) in [(2, 0), (2, 1), (3, 0), (1, 0)] {
            let serial = kanonymize(&t, &hiers(), k, sup);
            for threads in [2, 8] {
                let cfg = ExecConfig::with_threads(threads);
                let par = kanonymize_with(&t, &hiers(), k, sup, &cfg);
                match (&serial, &par) {
                    (Ok(s), Ok(p)) => {
                        assert_eq!(s.levels, p.levels, "k={k} threads={threads}");
                        assert_eq!(s.suppressed, p.suppressed);
                        assert_eq!(s.nodes_examined, p.nodes_examined);
                        assert_eq!(s.table.rows(), p.table.rows());
                    }
                    (Err(se), Err(pe)) => assert_eq!(se, pe),
                    other => panic!("serial/parallel disagree: {other:?}"),
                }
            }
        }
        // Unsatisfiable cases agree too (same best_violations).
        let se = kanonymize(&t, &hiers(), 8, 0).unwrap_err();
        let pe = kanonymize_with(&t, &hiers(), 8, 0, &ExecConfig::with_threads(4)).unwrap_err();
        assert_eq!(se, pe);
    }

    #[test]
    fn parallel_generalize_matches_serial() {
        let t = patients();
        let serial = generalize_table(&t, &hiers(), &[1, 1]).unwrap();
        let par =
            generalize_table_with(&t, &hiers(), &[1, 1], &ExecConfig::with_threads(8)).unwrap();
        assert_eq!(serial.rows(), par.rows());
        assert_eq!(serial.schema(), par.schema());
    }

    /// Dense-code classing must produce the same class partition as
    /// `Vec<Value>` keying — same sizes, same member sets — and the
    /// whole k-anonymization must return an identical result under a
    /// columnar config.
    #[test]
    fn columnar_classes_match_row_classes() {
        let mut t = patients();
        t.push_row(vec!["HIV".into(), 34.into(), "DH".into()])
            .unwrap();
        let qi_idx = vec![0usize, 1];
        let mut row_classes: Vec<Vec<usize>> =
            equivalence_classes(&t, &qi_idx).into_values().collect();
        let mut col_classes = equivalence_classes_columnar(&t, &qi_idx).unwrap();
        for c in row_classes.iter_mut().chain(col_classes.iter_mut()) {
            c.sort_unstable();
        }
        row_classes.sort();
        col_classes.sort();
        assert_eq!(row_classes, col_classes);

        let serial = kanonymize(&t, &hiers(), 2, 1).unwrap();
        for threads in [1, 2, 8] {
            let cfg = ExecConfig::with_threads(threads).with_columnar(true);
            let columnar = kanonymize_with(&t, &hiers(), 2, 1, &cfg).unwrap();
            assert_eq!(columnar.levels, serial.levels, "threads={threads}");
            assert_eq!(columnar.suppressed, serial.suppressed);
            assert_eq!(columnar.nodes_examined, serial.nodes_examined);
            assert_eq!(columnar.table.rows(), serial.table.rows());
        }
        assert!(is_k_anonymous_with(
            &serial.table,
            &["Disease", "Age"],
            2,
            &ExecConfig::columnar()
        )
        .unwrap());
    }

    #[test]
    fn lattice_enumeration_is_complete_and_ordered() {
        let nodes = nodes_by_height(&[2, 1]);
        assert_eq!(nodes.len(), 6);
        assert_eq!(nodes[0], vec![0, 0]);
        // Heights never decrease.
        let heights: Vec<usize> = nodes.iter().map(|n| n.iter().sum()).collect();
        assert!(heights.windows(2).all(|w| w[0] <= w[1]));
    }
}
