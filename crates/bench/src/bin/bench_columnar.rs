//! Row-at-a-time vs vectorized columnar executor timings.
//!
//! Times three lone operators, each a one-operator plan the columnar
//! engine runs through its one executor, the fused pipeline — predicate
//! filter (selection-vector kernels into a materialize sink), equality
//! join (the streamed probe over dictionary codes) and grouped
//! aggregation (code-slotted groups, typed aggregate kernels) — at
//! several table sizes, all on a single thread so the speedup is purely
//! algorithmic. Verifies the columnar output is *identical* to the
//! row-engine one and writes `BENCH_columnar.json` for
//! `scripts/bench_smoke.sh`. Each columnar timing is taken in several
//! rounds, each followed by the host-speed [`Control`]; the op records
//! the median of both, so the smoke's obs-disabled gate can compare
//! `columnar_ms / control_ms` across runs and hosts.
//!
//! Usage: `cargo run --release -p bi-bench --bin bench_columnar --
//! [--full] [--out PATH]`. `--full` adds a 1M-row size.

use std::time::Instant;

use bi_bench::{median, Control};
use bi_core::exec::ExecConfig;
use bi_core::query::plan::{scan, AggItem};
use bi_core::query::{execute_with, Catalog};
use bi_core::relation::expr::{col, lit};
use bi_core::relation::Table;
use bi_core::types::{Column, DataType, Schema, Value};

/// Control passes after each columnar round; the median is that
/// round's control time.
const CONTROL_SAMPLES: usize = 20;

/// Columnar rounds per op. The recorded `columnar_ms` and `control_ms`
/// are medians over rounds, so one round disturbed by a neighbour on a
/// shared host does not move the obs gate's ratio.
const ROUNDS: usize = 5;

/// Fact(K, G, V) with NULLs sprinkled in, plus DimG(G, W) keyed by the
/// low-cardinality text column so the join exercises dictionary codes.
/// DimG keeps only every fourth group, making the join selective: most
/// probes miss, which is where code-comparison beats re-hashing keys.
fn catalog(rows: usize) -> Catalog {
    let fact_schema = Schema::new(vec![
        Column::nullable("K", DataType::Int),
        Column::nullable("G", DataType::Text),
        Column::new("V", DataType::Int),
    ])
    .unwrap();
    let fact_rows: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            let k = if i % 97 == 0 {
                Value::Null
            } else {
                Value::Int((i as i64 * 31) % 400)
            };
            let g = if i % 113 == 0 {
                Value::Null
            } else {
                Value::text(format!("g{}", i % 64))
            };
            vec![k, g, Value::Int(i as i64 % 1000)]
        })
        .collect();
    let dim_schema = Schema::new(vec![
        Column::new("G", DataType::Text),
        Column::new("W", DataType::Int),
    ])
    .unwrap();
    let dim_rows: Vec<Vec<Value>> = (0..64i64)
        .step_by(4)
        .map(|g| vec![Value::text(format!("g{g}")), Value::Int(g * 7)])
        .collect();
    let mut cat = Catalog::new();
    cat.add_table(Table::from_rows("Fact", fact_schema, fact_rows).unwrap())
        .unwrap();
    cat.add_table(Table::from_rows("DimG", dim_schema, dim_rows).unwrap())
        .unwrap();
    cat
}

/// Best-of-N wall time in milliseconds, plus the output for comparison.
fn time_plan(
    plan: &bi_core::query::Plan,
    cat: &Catalog,
    cfg: &ExecConfig,
    iters: usize,
) -> (f64, Table) {
    let mut best = f64::INFINITY;
    // Untimed warm-up so the first configuration measured does not pay
    // the allocator's first-touch cost for the output table.
    let mut out = execute_with(plan, cat, cfg).expect("bench plan executes");
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        let table = execute_with(plan, cat, cfg).expect("bench plan executes");
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        out = table;
    }
    (best, out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_columnar.json".to_string());

    let sizes: &[usize] = if full {
        &[10_000, 100_000, 1_000_000]
    } else {
        &[10_000, 100_000]
    };
    let row_cfg = ExecConfig::serial();
    let col_cfg = ExecConfig::columnar();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let filter_plan = scan("Fact").filter(col("V").ge(lit(250)).and(col("G").ne(lit("g7"))));
    let join_plan = scan("Fact").join(scan("DimG"), vec![("G".into(), "G".into())], "d");
    let agg_plan = scan("Fact").aggregate(
        vec!["G".into()],
        vec![
            AggItem::count_star("n"),
            AggItem::new("total", bi_core::query::AggFunc::Sum, "V"),
        ],
    );
    let ops: [(&str, &bi_core::query::Plan); 3] = [
        ("filter", &filter_plan),
        ("join", &join_plan),
        ("aggregate", &agg_plan),
    ];

    let mut control = Control::new();
    let mut size_entries = Vec::new();
    for &rows in sizes {
        let cat = catalog(rows);
        let iters = if rows >= 1_000_000 { 2 } else { 5 };
        let mut op_entries = Vec::new();
        for (name, plan) in ops {
            let (r_ms, r_out) = time_plan(plan, &cat, &row_cfg, iters);
            let (first_ms, c_out) = time_plan(plan, &cat, &col_cfg, iters);
            let mut c_times = vec![first_ms];
            let mut controls = vec![control.median_ms(CONTROL_SAMPLES)];
            for _ in 1..ROUNDS {
                c_times.push(time_plan(plan, &cat, &col_cfg, iters).0);
                controls.push(control.median_ms(CONTROL_SAMPLES));
            }
            let (c_ms, control_ms) = (median(&mut c_times), median(&mut controls));
            assert_eq!(r_out.rows(), c_out.rows(), "{name}@{rows}: outputs diverge");
            assert_eq!(r_out.name(), c_out.name(), "{name}@{rows}: names diverge");
            assert_eq!(
                r_out.schema(),
                c_out.schema(),
                "{name}@{rows}: schemas diverge"
            );
            eprintln!(
                "{rows:>8} rows  {name:<9} row {r_ms:8.2} ms  columnar {c_ms:8.2} ms  x{:.2}  \
                 control {control_ms:.3} ms",
                r_ms / c_ms
            );
            op_entries.push(format!(
                r#"{{"op":"{name}","row_ms":{r_ms:.3},"columnar_ms":{c_ms:.3},"speedup":{:.3},"control_ms":{control_ms:.4}}}"#,
                r_ms / c_ms
            ));
        }
        size_entries.push(format!(
            r#"{{"rows":{rows},"ops":[{}]}}"#,
            op_entries.join(",")
        ));
    }

    let json = format!(
        "{{\"threads\":1,\"cores\":{cores},\"full\":{full},\"sizes\":[{}]}}\n",
        size_entries.join(",")
    );
    std::fs::write(&out_path, &json).expect("write BENCH_columnar.json");
    eprintln!("wrote {out_path} (cores={cores})");
}
