//! AST-walk vs bytecode-VM vs columnar expression evaluation.
//!
//! Every scalar evaluation path now routes through the expression
//! bytecode VM (`Program` + `Vm`), keeping the recursive `Expr::eval`
//! walker only as the property-test oracle. This bench pins
//! the payoff: on filter, projection and PLA-obligation workloads it
//! times the recursive walker (per-row `Expr::eval`), the VM
//! (`filter_scalar` / `project_scalar`, single thread so the speedup is
//! purely algorithmic) and — where the predicate vectorizes — the
//! columnar engine's filter plan (the fused pipeline's selection-vector
//! kernels, through `execute_with`), verifying all backends produce
//! identical output and writing `BENCH_vm.json` for
//! `scripts/bench_smoke.sh`.
//!
//! Walker and VM are timed in alternating back-to-back pairs (as
//! `bench_wal` times WAL off/on): each op's `speedup` is the median of
//! the per-pair ratios and `ast_ms`/`vm_ms` are medians, so host drift
//! between samples moves both sides instead of the ratio. The columnar
//! time is best-of-N.
//!
//! Usage: `cargo run --release -p bi-bench --bin bench_vm --
//! [--full] [--out PATH]`. `--full` adds a 1M-row size.

use std::time::Instant;

use bi_core::exec::ExecConfig;
use bi_core::query::plan::scan;
use bi_core::query::{execute_with, Catalog};
use bi_core::relation::expr::{col, lit};
use bi_core::relation::{filter_scalar, project_scalar, BinOp, CompiledPredicate, Expr, Table};
use bi_core::types::{Column, DataType, Date, Schema, Value};

/// Fact(Patient, Disease, Cost, Date) shaped like the warehouse tables
/// PLA obligations filter: a quasi-identifier text column, a sensitive
/// low-cardinality text column with NULLs, a numeric measure and an
/// event date for retention cutoffs.
fn fact(rows: usize) -> Table {
    let schema = Schema::new(vec![
        Column::new("Patient", DataType::Text),
        Column::nullable("Disease", DataType::Text),
        Column::new("Cost", DataType::Int),
        Column::new("Date", DataType::Date),
    ])
    .expect("distinct names, valid schema");
    let diseases = ["Flu", "HIV", "Diabetes", "Asthma", "Measles"];
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            let disease = if i % 101 == 0 {
                Value::Null
            } else {
                Value::text(diseases[i % diseases.len()])
            };
            let date = Date::new(
                1998 + (i % 12) as i16,
                1 + (i % 12) as u8,
                1 + (i % 28) as u8,
            )
            .expect("day <= 28 always valid");
            vec![
                Value::text(format!("p{}", i % 997)),
                disease,
                Value::Int((i as i64 * 37) % 1000),
                Value::Date(date),
            ]
        })
        .collect();
    Table::from_rows("Fact", schema, data).expect("rows match the schema")
}

/// Best-of-N wall time in milliseconds for `f`, plus its last output.
fn time_best<T>(iters: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut out = f(); // untimed warm-up
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        out = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (best, out)
}

/// Wall time in milliseconds of one call of `f`, plus its output.
fn time_ms<T>(f: &mut impl FnMut() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64() * 1e3, out)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median walker and VM times, the median of the per-pair ratios, and
/// the last output of each side.
struct Paired<A, B> {
    ast_ms: f64,
    vm_ms: f64,
    speedup: f64,
    ast_out: A,
    vm_out: B,
}

/// Times walker and VM in `pairs` back-to-back pairs, alternating which
/// side runs first, so host drift hits both sides alike instead of
/// landing between two blocks of samples.
fn time_pairs<A, B>(
    pairs: usize,
    mut ast: impl FnMut() -> A,
    mut vm: impl FnMut() -> B,
) -> Paired<A, B> {
    let (mut ast_out, mut vm_out) = (ast(), vm()); // untimed warm-up
    let (mut ast_ms, mut vm_ms, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..pairs.max(1) {
        let (a, v) = if pair % 2 == 0 {
            let a = time_ms(&mut ast);
            (a, time_ms(&mut vm))
        } else {
            let v = time_ms(&mut vm);
            (time_ms(&mut ast), v)
        };
        ast_ms.push(a.0);
        vm_ms.push(v.0);
        ratios.push(a.0 / v.0);
        (ast_out, vm_out) = (a.1, v.1);
    }
    Paired {
        ast_ms: median(ast_ms),
        vm_ms: median(vm_ms),
        speedup: median(ratios),
        ast_out,
        vm_out,
    }
}

/// The retained recursive walker, run row by row — the legacy path
/// every filter took before the VM, kept as the baseline and oracle.
fn ast_filter(t: &Table, pred: &Expr) -> Table {
    let kept: Vec<Vec<Value>> = t
        .rows()
        .iter()
        .filter(|row| {
            pred.eval(t.schema(), row)
                .map(|v| v.as_bool().unwrap_or(false))
                .unwrap_or(false)
        })
        .cloned()
        .collect();
    Table::from_rows(t.name(), t.schema().clone(), kept).expect("filter preserves the schema")
}

/// Recursive-walker projection: one `Expr::eval` per item per row.
fn ast_project(t: &Table, items: &[(String, Expr)]) -> Vec<Vec<Value>> {
    t.rows()
        .iter()
        .map(|row| {
            items
                .iter()
                .map(|(_, e)| {
                    e.eval(t.schema(), row)
                        .expect("bench expressions are well-typed")
                })
                .collect()
        })
        .collect()
}

struct OpResult {
    op: &'static str,
    ast_ms: f64,
    vm_ms: f64,
    /// Median of the per-pair walker/VM ratios.
    speedup: f64,
    columnar_ms: Option<f64>,
}

/// Walker/VM pairs per op at sizes below 1M rows (3 at 1M). Odd, so the
/// median is one measured pair.
const PAIRS: usize = 9;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_vm.json".to_string());

    let sizes: &[usize] = if full {
        &[10_000, 100_000, 1_000_000]
    } else {
        &[10_000, 100_000]
    };
    let cfg = ExecConfig::serial();
    let col_cfg = ExecConfig::columnar();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Report-style filter: measure threshold plus sensitive-value guard.
    let filter_pred = col("Cost")
        .ge(lit(250))
        .and(col("Disease").ne(lit("Measles")));
    // Report-style derivation: a passthrough, an adjusted measure and a
    // threshold flag. (Text-producing functions like `lower()` are
    // allocation-bound — every backend pays the same per-row string
    // build — so they would only dilute what this bench isolates: the
    // cost of *evaluating* expressions.)
    let project_items: Vec<(String, Expr)> = vec![
        ("Patient".into(), col("Patient")),
        (
            // (Cost * 3 + 10) * 2 - Cost: a copay-style formula.
            "CostAdj".into(),
            Expr::Bin(
                BinOp::Sub,
                Box::new(Expr::Bin(
                    BinOp::Mul,
                    Box::new(Expr::Bin(
                        BinOp::Add,
                        Box::new(Expr::Bin(
                            BinOp::Mul,
                            Box::new(col("Cost")),
                            Box::new(lit(3)),
                        )),
                        Box::new(lit(10)),
                    )),
                    Box::new(lit(2)),
                )),
                Box::new(col("Cost")),
            ),
        ),
        (
            "High".into(),
            col("Cost").ge(lit(500)).and(col("Disease").ne(lit("HIV"))),
        ),
    ];
    // What a PLA check emits for a VPD row restriction plus a retention
    // cutoff (`attr >= today - max_age`), conjoined.
    let obligation_pred = col("Disease")
        .ne(lit("HIV"))
        .and(col("Date").ge(lit(Value::Date(Date::new(2000, 1, 1).expect("valid date")))));

    let mut size_entries = Vec::new();
    for &rows in sizes {
        let t = fact(rows);
        let mut cat = Catalog::new();
        cat.put_table(t.clone());
        let iters = if rows >= 1_000_000 { 2 } else { 5 };
        let pairs = if rows >= 1_000_000 { 3 } else { PAIRS };
        let mut op_entries = Vec::new();

        let mut results: Vec<OpResult> = Vec::new();
        for (op, pred) in [("filter", &filter_pred), ("obligation", &obligation_pred)] {
            let p = time_pairs(
                pairs,
                || ast_filter(&t, pred),
                || filter_scalar(&t, pred, &cfg).expect("bench filter executes"),
            );
            let ast_out = p.ast_out;
            assert_eq!(
                ast_out.rows(),
                p.vm_out.rows(),
                "{op}@{rows}: VM diverges from the walker"
            );
            let vectorizes = CompiledPredicate::compile(pred, t.schema()).is_some();
            let columnar_ms = vectorizes.then(|| {
                let plan = scan("Fact").filter(pred.clone());
                let (ms, out) = time_best(iters, || {
                    execute_with(&plan, &cat, &col_cfg).expect("bench filter executes")
                });
                assert_eq!(
                    ast_out.rows(),
                    out.rows(),
                    "{op}@{rows}: columnar diverges from the walker"
                );
                ms
            });
            results.push(OpResult {
                op,
                ast_ms: p.ast_ms,
                vm_ms: p.vm_ms,
                speedup: p.speedup,
                columnar_ms,
            });
        }
        {
            let p = time_pairs(
                pairs,
                || ast_project(&t, &project_items),
                || project_scalar(&t, &project_items, &cfg).expect("bench projection executes"),
            );
            assert_eq!(
                p.ast_out.as_slice(),
                p.vm_out.rows(),
                "project@{rows}: VM diverges from the walker"
            );
            results.push(OpResult {
                op: "project",
                ast_ms: p.ast_ms,
                vm_ms: p.vm_ms,
                speedup: p.speedup,
                columnar_ms: None,
            });
        }

        for r in results {
            let col_txt = r
                .columnar_ms
                .map(|ms| format!("  columnar {ms:8.2} ms"))
                .unwrap_or_default();
            eprintln!(
                "{rows:>8} rows  {op:<10} ast {ast:8.2} ms  vm {vm:8.2} ms  x{speedup:.2}{col_txt}",
                op = r.op,
                ast = r.ast_ms,
                vm = r.vm_ms,
                speedup = r.speedup,
            );
            let col_json = r
                .columnar_ms
                .map(|ms| format!("{ms:.3}"))
                .unwrap_or_else(|| "null".into());
            op_entries.push(format!(
                r#"{{"op":"{op}","ast_ms":{ast:.3},"vm_ms":{vm:.3},"speedup":{speedup:.3},"columnar_ms":{col_json}}}"#,
                op = r.op,
                ast = r.ast_ms,
                vm = r.vm_ms,
                speedup = r.speedup,
            ));
        }
        size_entries.push(format!(
            r#"{{"rows":{rows},"pairs":{pairs},"ops":[{}]}}"#,
            op_entries.join(",")
        ));
    }

    let json = format!(
        "{{\"threads\":1,\"cores\":{cores},\"full\":{full},\"sizes\":[{}]}}\n",
        size_entries.join(",")
    );
    std::fs::write(&out_path, &json).expect("write BENCH_vm.json");
    eprintln!("wrote {out_path} (cores={cores})");
}
