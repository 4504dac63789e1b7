//! Morsel-parallel scalar evaluation over compiled [`Program`]s.
//!
//! The scalar VM's executor-facing entry points: compile once, run per
//! row — and never decline: every expression compiles, and one the
//! recursive walker would fail on fails on the same row with the same
//! error (see [`Program::compile`]). Work is split into
//! [`bi_exec::MORSEL_ROWS`] morsels under `cfg.threads`; each worker
//! runs its own [`Vm`] over the shared program, and error discipline
//! matches the serial walk exactly (the lowest-indexed morsel's error
//! wins, which is the serial first error). [`Table::filter`] and
//! [`Table::map_rows`] are these entry points on one thread.
//!
//! Counters (when `cfg.obs` is enabled): `vm.compile` per program
//! compiled, `vm.exec` per operator run over a table.

use std::sync::Arc;

use bi_exec::{Counter, ExecConfig};
use bi_types::{Schema, Value};

use crate::error::RelationError;
use crate::expr::{Expr, Program, Vm};
use crate::table::{Row, Table};

/// The output schema of a projection over `schema`: every derived
/// column is nullable at its statically inferred type. This is the
/// schema [`project_scalar`] (and so [`Table::map_rows`]) produces; the
/// pipeline executor uses it to compile later stages against a
/// projection's output without materializing the intermediate table.
pub fn project_schema(schema: &Schema, items: &[(String, Expr)]) -> Result<Schema, RelationError> {
    use bi_types::Column;
    let mut cols = Vec::with_capacity(items.len());
    for (name, e) in items {
        let dtype = e.infer_type(schema)?;
        cols.push(Column::nullable(name.clone(), dtype));
    }
    Ok(Schema::new(cols)?)
}

/// Rows of `table` satisfying `pred` (SQL semantics: NULL ⇒ excluded):
/// compile once, run the scalar VM over row morsels in parallel.
/// Results are byte-identical at any thread count. When every row
/// survives, the result shares `table`'s row storage and version.
pub fn filter_scalar(table: &Table, pred: &Expr, cfg: &ExecConfig) -> Result<Table, RelationError> {
    let program = Program::compile(pred, table.schema());
    cfg.obs.count(Counter::VmCompile);
    cfg.obs.count(Counter::VmExec);
    let kept: Vec<Vec<Row>> =
        bi_exec::try_par_chunks(cfg, table.rows(), bi_exec::MORSEL_ROWS, |_, rows| {
            let mut vm = Vm::new();
            let mut out = Vec::new();
            for row in rows {
                if vm.run(&program, row)?.as_bool().unwrap_or(false) {
                    out.push(row.clone());
                }
            }
            Ok::<_, RelationError>(out)
        })?;
    let n: usize = kept.iter().map(Vec::len).sum();
    if n == table.len() {
        // Nothing dropped: share the storage instead of copying it.
        return Ok(table.clone());
    }
    let mut rows = Vec::with_capacity(n);
    for chunk in kept {
        rows.extend(chunk);
    }
    Ok(Table::from_rows_trusted(
        table.name().to_string(),
        table.schema_shared(),
        rows,
    ))
}

/// Evaluates `items` per row into a new table with the given column
/// names (a computed projection: SELECT e1 AS n1, …): every item
/// compiles once, then all items evaluate per row, in item order,
/// across parallel morsels.
pub fn project_scalar(
    table: &Table,
    items: &[(String, Expr)],
    cfg: &ExecConfig,
) -> Result<Table, RelationError> {
    let schema = project_schema(table.schema(), items)?;
    let exprs: Vec<&Expr> = items.iter().map(|(_, e)| e).collect();
    let rows = eval_rows(table, &exprs, cfg, |cell| {
        let mut out = Vec::with_capacity(exprs.len());
        for i in 0..exprs.len() {
            out.push(cell(i)?);
        }
        Ok(out)
    })?;
    Ok(Table::from_rows_trusted(
        table.name().to_string(),
        Arc::new(schema),
        rows,
    ))
}

/// Adds the computed column `column` := `expr` to `table`. The result
/// equals [`project_scalar`] over every column of `table` followed by
/// `(column, expr)`: the same schema (every column nullable), rows,
/// name and first error. Only `expr` is compiled and evaluated, though,
/// and its cells are appended copy-on-write — in place when `table`
/// holds the only reference to its row storage.
pub fn derive_scalar(
    table: Table,
    column: &str,
    expr: &Expr,
    cfg: &ExecConfig,
) -> Result<Table, RelationError> {
    let mut items: Vec<(String, Expr)> = table
        .schema()
        .columns()
        .iter()
        .map(|c| (c.name.clone(), crate::expr::col(&c.name)))
        .collect();
    items.push((column.to_string(), expr.clone()));
    let schema = project_schema(table.schema(), &items)?;
    let cells = eval_rows(&table, &[expr], cfg, |cell| cell(0))?;
    table.append_column(Arc::new(schema), cells)
}

/// One row's evaluator: `cell(i)` evaluates expression `i` on the row.
type Cells<'a> = dyn FnMut(usize) -> Result<Value, RelationError> + 'a;

/// Shared body of the projection paths: evaluates `exprs` on every row
/// of `table`, and `emit` builds one output item per row from its
/// cells. Each expression compiles once and runs on the scalar VM over
/// parallel morsels. Rows are visited in order and `emit` asks for
/// cells in expression order, so the error returned is the serial
/// walk's first (the lowest-indexed morsel's error wins).
fn eval_rows<T: Send>(
    table: &Table,
    exprs: &[&Expr],
    cfg: &ExecConfig,
    emit: impl Fn(&mut Cells<'_>) -> Result<T, RelationError> + Sync,
) -> Result<Vec<T>, RelationError> {
    let programs: Vec<Program> = exprs
        .iter()
        .map(|e| Program::compile(e, table.schema()))
        .collect();
    cfg.obs.add(Counter::VmCompile, programs.len() as u64);
    cfg.obs.count(Counter::VmExec);
    let chunks: Vec<Vec<T>> =
        bi_exec::try_par_chunks(cfg, table.rows(), bi_exec::MORSEL_ROWS, |_, rows| {
            let mut vm = Vm::new();
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                out.push(emit(&mut |i| vm.run(&programs[i], row))?);
            }
            Ok::<_, RelationError>(out)
        })?;
    let mut out = Vec::with_capacity(table.len());
    for chunk in chunks {
        out.extend(chunk);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use bi_types::{Column, DataType, Schema, Value};

    fn table(n: i64) -> Table {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::nullable("g", DataType::Text),
        ])
        .unwrap();
        let rows = (0..n)
            .map(|i| {
                vec![
                    Value::Int(i),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::text(format!("g{}", i % 3))
                    },
                ]
            })
            .collect();
        Table::from_rows("T", schema, rows).unwrap()
    }

    #[test]
    fn parallel_filter_matches_serial_at_any_thread_count() {
        let t = table(10_000);
        let pred = col("k")
            .ge(lit(100))
            .and(col("g").eq(lit("g1")).or(col("g").is_null()));
        let serial = t.filter(&pred).unwrap();
        for threads in [1, 2, 8] {
            let cfg = ExecConfig::with_threads(threads);
            let got = filter_scalar(&t, &pred, &cfg).unwrap();
            assert_eq!(got.rows(), serial.rows(), "threads={threads}");
        }
    }

    #[test]
    fn keep_all_shares_storage() {
        let t = table(5000);
        let cfg = ExecConfig::with_threads(4);
        let got = filter_scalar(&t, &col("k").ge(lit(-1)), &cfg).unwrap();
        assert!(got.shares_rows_with(&t));
    }

    #[test]
    fn parallel_error_is_the_serial_first_error() {
        let t = table(9000);
        // Divides by zero only at k = 8191 — deep in a later morsel.
        let boom = Expr::Bin(crate::expr::BinOp::Div, Box::new(lit(1)), Box::new(lit(0)));
        let pred = Expr::Func(
            crate::expr::Func::If,
            vec![col("k").eq(lit(8191)), boom.gt(lit(0)), lit(false)],
        );
        let serial = t.filter(&pred).unwrap_err();
        for threads in [2, 8] {
            let cfg = ExecConfig::with_threads(threads);
            assert_eq!(filter_scalar(&t, &pred, &cfg).unwrap_err(), serial);
        }
    }

    #[test]
    fn unknown_columns_fail_only_where_evaluation_reaches_them() {
        let t = table(64);
        let cfg = ExecConfig::serial().with_obs(bi_exec::Obs::enabled());
        // `k >= 0` holds on every row, so evaluation never reaches
        // `nope` and the filter keeps every row, compiled as usual.
        let pred = col("k").ge(lit(0)).or(col("nope").eq(lit(1)));
        let got = filter_scalar(&t, &pred, &cfg).unwrap();
        assert_eq!(got.len(), t.len());
        assert_eq!(cfg.obs.snapshot().counters.get("vm.compile"), Some(&1));
        // `k < 0` never holds: every row reaches `nope`, and the first
        // row raises the walker's error.
        let pred = col("k").lt(lit(0)).or(col("nope").eq(lit(1)));
        let want = pred.eval(t.schema(), &t.rows()[0]).unwrap_err();
        assert!(matches!(want, RelationError::Type(_)));
        for threads in [1, 2, 8] {
            let cfg = ExecConfig::with_threads(threads);
            assert_eq!(filter_scalar(&t, &pred, &cfg).unwrap_err(), want);
        }
        // An empty table never evaluates the predicate at all.
        let empty = Table::new("E", t.schema().clone());
        assert!(filter_scalar(&empty, &pred, &cfg).unwrap().is_empty());
    }

    /// `derive_scalar` is the projection of every column plus the new
    /// one: same rows, schema, name and first error at any thread
    /// count, with one program compiled instead of one per column.
    #[test]
    fn derive_matches_the_full_projection() {
        let t = table(9000);
        let items_for = |e: &Expr| {
            let mut items: Vec<(String, Expr)> = ["k", "g"]
                .iter()
                .map(|c| (c.to_string(), col(*c)))
                .collect();
            items.push(("x".to_string(), e.clone()));
            items
        };
        let double = Expr::Bin(
            crate::expr::BinOp::Mul,
            Box::new(col("k")),
            Box::new(lit(2)),
        );
        // Divides by zero only at k = 8191 — deep in a later morsel.
        let boom = Expr::Func(
            crate::expr::Func::If,
            vec![
                col("k").eq(lit(8191)),
                Expr::Bin(crate::expr::BinOp::Div, Box::new(lit(1)), Box::new(lit(0))),
                lit(0.5),
            ],
        );
        for threads in [1, 2, 8] {
            let cfg = ExecConfig::with_threads(threads).with_obs(bi_exec::Obs::enabled());
            let want = project_scalar(&t, &items_for(&double), &ExecConfig::serial()).unwrap();
            let got = derive_scalar(t.clone(), "x", &double, &cfg).unwrap();
            assert_eq!(got, want, "threads={threads}");
            assert_eq!(got.schema(), want.schema());
            assert!(!got.shares_rows_with(&t));
            assert_eq!(cfg.obs.snapshot().counters.get("vm.compile"), Some(&1));
            // A table it owns alone gets the cells in place.
            let own = table(9000);
            let storage = own.rows().as_ptr();
            let got = derive_scalar(own, "x", &double, &cfg).unwrap();
            assert_eq!(got.rows().as_ptr(), storage, "threads={threads}");
            assert_eq!(got, want);
            let want = project_scalar(&t, &items_for(&boom), &ExecConfig::serial()).unwrap_err();
            assert_eq!(
                derive_scalar(t.clone(), "x", &boom, &cfg).unwrap_err(),
                want
            );
            // A taken name fails on the schema, as the projection does.
            let dup = derive_scalar(t.clone(), "g", &double, &cfg).unwrap_err();
            let mut items = items_for(&double);
            items[2].0 = "g".to_string();
            assert_eq!(project_scalar(&t, &items, &cfg).unwrap_err(), dup);
        }
    }

    #[test]
    fn parallel_project_matches_serial() {
        let t = table(10_000);
        let items = vec![
            (
                "k2".to_string(),
                Expr::Bin(
                    crate::expr::BinOp::Mul,
                    Box::new(col("k")),
                    Box::new(lit(2)),
                ),
            ),
            (
                "tag".to_string(),
                Expr::Func(crate::expr::Func::Coalesce, vec![col("g"), lit("?")]),
            ),
        ];
        let serial = t.map_rows(&items).unwrap();
        for threads in [1, 2, 8] {
            let cfg = ExecConfig::with_threads(threads);
            let got = project_scalar(&t, &items, &cfg).unwrap();
            assert_eq!(got.rows(), serial.rows(), "threads={threads}");
            assert_eq!(got.schema(), serial.schema());
        }
    }
}
