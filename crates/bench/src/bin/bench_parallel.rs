//! Serial vs multi-threaded executor timings on synthetic tables.
//!
//! Sweeps thread counts {1, 2, 4, 8} over the row-engine predicate
//! filter — the operator whose row path fans out over morsels (joins
//! and group-bys run the fused pipeline or the serial row engine) —
//! at several table sizes, verifies every output is *identical* to the
//! serial one, and writes `BENCH_parallel.json` for
//! `scripts/bench_smoke.sh`.
//!
//! Two things make the numbers honest:
//!
//! * every measurement batches executions until the batch clears
//!   [`MIN_BATCH_MS`], so sub-millisecond operators report real per-op
//!   times and throughput instead of 0.000 ms;
//! * a point whose effective thread count is 1 (the host's cores clamp
//!   the request) runs the very serial code just measured, so it is
//!   reported as speedup 1.000 rather than re-measured noise. Each
//!   point also records which engine served it (`plan.choice.*`).
//!
//! A deep-plan section times the obligation-shaped Filter → Project →
//! GroupBy chain fused against its three operators run as lone plans
//! over materialized intermediates. A separate repeated-render section
//! measures the version-keyed chunk cache: the same columnar report
//! plan rendered cold (cache cleared) and warm, with hit/miss counts
//! from the obs layer.
//!
//! Usage: `cargo run --release -p bi-bench --bin bench_parallel --
//! [--quick] [--out PATH]`. `--quick` drops the 1M-row size so the
//! smoke script stays fast.

use std::time::Instant;

use bi_core::exec::{ExecConfig, Obs};
use bi_core::query::plan::{scan, AggItem, SortKey};
use bi_core::query::{execute_with, Catalog};
use bi_core::relation::column::cache;
use bi_core::relation::expr::{col, lit};
use bi_core::relation::Table;
use bi_core::types::{Column, DataType, Schema, Value};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A timing batch must take at least this long; per-op time is the
/// batch time divided by the iteration count.
const MIN_BATCH_MS: f64 = 5.0;

/// Fact(K, G, V) with a NULL `K` every 97th row.
fn catalog(rows: usize) -> Catalog {
    let fact_schema = Schema::new(vec![
        Column::nullable("K", DataType::Int),
        Column::new("G", DataType::Text),
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
            vec![
                k,
                Value::text(format!("segment-{:03}", i % 64)),
                Value::Int(i as i64 % 1000),
            ]
        })
        .collect();
    let mut cat = Catalog::new();
    cat.add_table(Table::from_rows("Fact", fact_schema, fact_rows).unwrap())
        .unwrap();
    cat
}

/// Per-call wall time of `run` in milliseconds (best of three batches,
/// each batched to clear [`MIN_BATCH_MS`]), plus one output table.
fn time_best(mut run: impl FnMut() -> Table) -> (f64, Table) {
    // Untimed warm-up: first-touch allocator costs are not steady-state
    // per-op time.
    let out = run();
    let mut iters = 1usize;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            let _ = run();
        }
        if t0.elapsed().as_secs_f64() * 1e3 >= MIN_BATCH_MS {
            break;
        }
        iters *= 2;
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..iters {
            let _ = run();
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e3 / iters as f64);
    }
    (best, out)
}

/// [`time_best`] of one plan execution.
fn time_plan(plan: &bi_core::query::Plan, cat: &Catalog, cfg: &ExecConfig) -> (f64, Table) {
    time_best(|| execute_with(plan, cat, cfg).expect("bench plan executes"))
}

/// Which engine the planner chose for the plan's interesting operator,
/// read back from the `plan.choice.*` counters of an observed run.
fn plan_choice(plan: &bi_core::query::Plan, cat: &Catalog, cfg: &ExecConfig) -> &'static str {
    let obs = Obs::enabled();
    let observed = cfg.clone().with_obs(obs.clone());
    execute_with(plan, cat, &observed).expect("bench plan executes");
    let snap = obs.snapshot();
    for (counter, label) in [
        ("plan.choice.pipeline", "pipeline"),
        ("plan.choice.columnar", "columnar"),
        ("plan.choice.serial", "serial"),
    ] {
        if snap.counters.contains_key(counter) {
            return label;
        }
    }
    "none"
}

fn throughput(rows: usize, ms: f64) -> f64 {
    rows as f64 / (ms * 1e-3)
}

/// Cold-vs-warm repeated render of a columnar dashboard over an
/// unchanged warehouse, with chunk-cache hit/miss counts.
///
/// The "dashboard" is three widgets over the *base* fact table — two
/// grouped aggregates and a top-k — because that is where the
/// version-keyed cache earns its keep: base storage versions are stable
/// across renders, so every dictionary encode and column conversion is
/// paid once and shared across widgets. (Intermediate tables get fresh
/// versions per render and are deliberately never cached.)
fn repeated_render(rows: usize) -> String {
    let cat = catalog(rows);
    let widgets = [
        scan("Fact").aggregate(
            vec!["G".into()],
            vec![
                AggItem::count_star("n"),
                AggItem::new("total", bi_core::query::AggFunc::Sum, "V"),
                AggItem::new("peak", bi_core::query::AggFunc::Max, "K"),
            ],
        ),
        scan("Fact").aggregate(
            vec!["G".into(), "K".into()],
            vec![AggItem::new("spread", bi_core::query::AggFunc::Min, "V")],
        ),
        scan("Fact")
            .sort(vec![SortKey::desc("V"), SortKey::asc("G")])
            .limit(50),
    ];
    let cfg = ExecConfig::columnar();
    let render = |cfg: &ExecConfig| {
        for plan in &widgets {
            let _ = execute_with(plan, &cat, cfg).expect("bench plan executes");
        }
    };

    // Cold: every render starts from an empty cache — the pre-cache
    // behaviour, one full conversion per operator input per render.
    let mut cold = f64::INFINITY;
    for _ in 0..5 {
        cache::clear();
        let t0 = Instant::now();
        render(&cfg);
        cold = cold.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    // Warm: the cache holds this storage version's columns.
    cache::clear();
    render(&cfg);
    let mut warm = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        render(&cfg);
        warm = warm.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    // Hit/miss counts for one warm render.
    let obs = Obs::enabled();
    let observed = cfg.clone().with_obs(obs.clone());
    render(&observed);
    let snap = obs.snapshot();
    let hits = snap.counters.get("chunk.cache.hit").copied().unwrap_or(0);
    let misses = snap.counters.get("chunk.cache.miss").copied().unwrap_or(0);

    let speedup = cold / warm;
    eprintln!(
        "{rows:>8} rows  repeated render: cold {cold:8.2} ms  warm {warm:8.2} ms  x{speedup:.2}  \
         ({hits} hits / {misses} misses per warm render)"
    );
    format!(
        r#"{{"rows":{rows},"cold_ms":{cold:.3},"warm_ms":{warm:.3},"speedup":{speedup:.3},"warm_hits":{hits},"warm_misses":{misses}}}"#
    )
}

/// Obligation-shaped deep plan — Filter → Project → GroupBy, the chain
/// PLA row restrictions and retention cutoffs rewrite reports into —
/// timed at one thread so the speedup isolates fusion, not parallelism:
/// the fused morsel pipeline versus the same columnar engine run
/// operator-at-a-time — the plan's three operators as three lone plans
/// (each fused on its own), every one over the previous one's
/// materialized table — outputs verified identical.
fn deep_plan_bench(rows: usize) -> String {
    let cat = catalog(rows);
    let filter = col("V").ge(lit(250)).and(col("K").is_null().not());
    let items = vec![("G".to_string(), col("G")), ("V".to_string(), col("V"))];
    let aggs = vec![
        AggItem::count_star("n"),
        AggItem::new("total", bi_core::query::AggFunc::Sum, "V"),
    ];
    let plan = scan("Fact")
        .filter(filter.clone())
        .project(items.clone())
        .aggregate(vec!["G".into()], aggs.clone());
    let fused = ExecConfig::with_threads(1).with_columnar(true);
    let steps = [
        scan("Fact").filter(filter),
        scan("Fact").project(items),
        scan("Fact").aggregate(vec!["G".into()], aggs),
    ];
    let lone = || {
        let mut t = cat.table("Fact").expect("fact table").clone();
        for step in &steps {
            let mut input = Catalog::new();
            input.put_table(t);
            t = execute_with(step, &input, &fused).expect("bench plan executes");
        }
        t
    };
    let (c_ms, c_out) = time_best(lone);
    let (p_ms, p_out) = time_plan(&plan, &cat, &fused);
    assert_eq!(
        c_out.rows(),
        p_out.rows(),
        "deep plan @{rows}: outputs diverge"
    );
    assert_eq!(
        c_out.schema(),
        p_out.schema(),
        "deep plan @{rows}: schemas diverge"
    );
    let choice = plan_choice(&plan, &cat, &fused);
    let speedup = c_ms / p_ms;
    eprintln!(
        "{rows:>8} rows  deep plan: lone operators {c_ms:8.3} ms  pipeline {p_ms:8.3} ms  \
         x{speedup:.2}  [{choice}]"
    );
    format!(
        r#"{{"rows":{rows},"columnar_ms":{c_ms:.4},"pipeline_ms":{p_ms:.4},"speedup":{speedup:.3},"choice":"{choice}"}}"#
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_parallel.json".to_string());

    let sizes: &[usize] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let serial = ExecConfig::serial();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let filter_plan =
        scan("Fact").filter(col("V").ge(lit(250)).and(col("G").ne(lit("segment-007"))));
    let ops: [(&str, &bi_core::query::Plan); 1] = [("filter", &filter_plan)];

    let mut size_entries = Vec::new();
    for &rows in sizes {
        let cat = catalog(rows);
        let mut op_entries = Vec::new();
        for (name, plan) in ops {
            let (s_ms, s_out) = time_plan(plan, &cat, &serial);
            let mut thread_entries = Vec::new();
            for n in THREAD_COUNTS {
                let cfg = ExecConfig::with_threads(n);
                let choice = plan_choice(plan, &cat, &cfg);
                // One effective thread runs the very serial code just
                // measured; re-timing it would only report noise.
                let (p_ms, speedup) = if cfg.effective_threads() > 1 {
                    let (p_ms, p_out) = time_plan(plan, &cat, &cfg);
                    assert_eq!(
                        s_out.rows(),
                        p_out.rows(),
                        "{name}@{rows}x{n}: outputs diverge"
                    );
                    assert_eq!(
                        s_out.name(),
                        p_out.name(),
                        "{name}@{rows}x{n}: names diverge"
                    );
                    (p_ms, s_ms / p_ms)
                } else {
                    (s_ms, 1.0)
                };
                eprintln!(
                    "{rows:>8} rows  {name:<9} serial {s_ms:8.3} ms  {n} thread(s) {p_ms:8.3} ms  \
                     x{speedup:.2}  [{choice}]"
                );
                thread_entries.push(format!(
                    r#"{{"threads":{n},"ms":{p_ms:.4},"rows_per_s":{:.0},"speedup":{speedup:.3},"choice":"{choice}"}}"#,
                    throughput(rows, p_ms)
                ));
            }
            op_entries.push(format!(
                r#"{{"op":"{name}","serial_ms":{s_ms:.4},"serial_rows_per_s":{:.0},"by_threads":[{}]}}"#,
                throughput(rows, s_ms),
                thread_entries.join(",")
            ));
        }
        size_entries.push(format!(
            r#"{{"rows":{rows},"ops":[{}]}}"#,
            op_entries.join(",")
        ));
    }

    let deep_entries: Vec<String> = sizes.iter().map(|&rows| deep_plan_bench(rows)).collect();
    let render = repeated_render(if quick { 100_000 } else { 1_000_000 });

    let json = format!(
        "{{\"thread_counts\":[1,2,4,8],\"cores\":{cores},\"quick\":{quick},\"sizes\":[{}],\"deep_plan\":[{}],\"repeated_render\":{render}}}\n",
        size_entries.join(","),
        deep_entries.join(",")
    );
    std::fs::write(&out_path, &json).expect("write BENCH_parallel.json");
    eprintln!("wrote {out_path} (cores={cores})");
}
