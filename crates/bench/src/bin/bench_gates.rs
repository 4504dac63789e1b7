//! The gated micro-bench: it times production paths only, each in
//! host-speed controls, and writes `BENCH_gates.json` for
//! `scripts/bench_smoke.sh`. Each section runs at the one size its
//! gates read:
//!
//! * `query` (100k rows): the fused engine's filter, join and aggregate
//!   under `ExecConfig::columnar()`;
//! * `vm` (100k rows): `filter_scalar` with a PLA obligation predicate,
//!   which ETL Extract and FilterRows run, and `derive_scalar` with a
//!   copay formula, which ETL Derive runs;
//! * `fusion` (100k rows): an obligation-shaped Filter → Project →
//!   Aggregate plan, fused and as three lone plans over materialized
//!   intermediates;
//! * `cache` (100k rows): a three-widget render, cold and warm. Cold
//!   means the same rows in fresh storage, which is what a render pays
//!   after an ETL commit;
//! * `batch` (2,000 requests over 20 profiles): `deliver_batch` cold and
//!   warm, and the same requests through a loop of `BiSystem::deliver`;
//! * `wal` (1,000 deliveries): the delivery loop with the WAL off and
//!   on, and `BiSystem::recover` of a 2,000-entry journal.
//!
//! Every timing goes through [`Control::time`]. Every output is checked,
//! untimed, against the row oracle `ExecConfig::serial()`, and the batch
//! against serial `deliver` calls; the oracle itself is never timed.
//!
//! Usage: `cargo run --release -p bi-bench --bin bench_gates --
//! [--out PATH]` (default `BENCH_gates.json`).

use std::fmt::Write as _;
use std::path::Path;

use bi_bench::{Control, Spread, Timing};
use bi_core::etl::{EtlOp, Pipeline};
use bi_core::exec::{ExecConfig, Obs};
use bi_core::query::plan::{scan, AggItem, SortKey};
use bi_core::query::{execute_with, AggFunc, Catalog, Plan};
use bi_core::relation::expr::{col, lit};
use bi_core::relation::{derive_scalar, filter_scalar, BinOp, Expr, Table};
use bi_core::report::{EnforcedReport, ReportSpec};
use bi_core::types::{Column, ConsumerId, DataType, Date, ReportId, RoleId, Schema, Value};
use bi_core::{BiSystem, SystemError};
use bi_synth::{Scenario, ScenarioConfig};

/// Rows behind the query, VM, fusion and cache sections.
const ROWS: usize = 100_000;

/// Timed rounds per path; the deliver loop, at 150–300 ms a round,
/// takes [`LONG_ROUNDS`].
const ROUNDS: usize = 9;
const LONG_ROUNDS: usize = 5;

/// Batch section: requests, and the role profiles they spread over.
const REQUESTS: usize = 2_000;
const PROFILES: usize = 20;

/// WAL section: deliveries per timed loop, reports they cycle through,
/// and the journal `recover` replays.
const DELIVERIES: usize = 1_000;
const WAL_REPORTS: usize = 8;
const RECOVER_ENTRIES: usize = 2_000;

/// One timed path, with the `plan.choice.{pipeline,serial}` counts of
/// an untimed observed run when the path executes plans.
struct Entry {
    name: &'static str,
    timing: Timing,
    choices: Option<(u64, u64)>,
}

/// Everything a run records: the timings and the facts the property
/// gates read, as JSON values.
#[derive(Default)]
struct Record {
    entries: Vec<Entry>,
    facts: Vec<(&'static str, String)>,
}

impl Record {
    fn timing(&mut self, name: &'static str, timing: Timing, choices: Option<(u64, u64)>) {
        let (ms, ratio) = (timing.ms, timing.ratio);
        eprintln!(
            "{name:<16} {:9.3} ms [{:.3}, {:.3}]  {ratio:7.2} controls{}",
            ms.median,
            ms.q1,
            ms.q3,
            choices
                .map(|(p, s)| format!("  (plan.choice pipeline {p}, serial {s})"))
                .unwrap_or_default()
        );
        self.entries.push(Entry {
            name,
            timing,
            choices,
        });
    }

    fn fact(&mut self, name: &'static str, value: impl ToString) {
        let value = value.to_string();
        eprintln!("{name:<28} {value}");
        self.facts.push((name, value));
    }

    fn ratio(&self, name: &str) -> f64 {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map_or(f64::NAN, |e| e.timing.ratio)
    }

    fn to_json(&self) -> String {
        let spread = |s: Spread| format!("[{:.4},{:.4},{:.4}]", s.q1, s.median, s.q3);
        let mut json = format!(
            "{{\"cores\":{},\"timings\":[",
            bi_core::exec::effective_parallelism()
        );
        for (i, e) in self.entries.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                json,
                "{sep}\n{{\"name\":\"{}\",\"ms\":{},\"control_ms\":{},\"ratio\":{:.3}",
                e.name,
                spread(e.timing.ms),
                spread(e.timing.control_ms),
                e.timing.ratio
            );
            if let Some((pipeline, serial)) = e.choices {
                let _ = write!(json, ",\"pipeline\":{pipeline},\"serial\":{serial}");
            }
            json.push('}');
        }
        json.push_str("],\n\"facts\":{");
        for (i, (name, value)) in self.facts.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(json, "{sep}\"{name}\":{value}");
        }
        json.push_str("}}\n");
        json
    }
}

/// Panics unless each of `got` equals the oracle's table in name,
/// schema and rows.
fn check(what: &str, got: &[Table], want: &[Table]) {
    assert_eq!(got.len(), want.len(), "{what}: output count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.name(), w.name(), "{what}: name differs from the oracle");
        assert_eq!(
            g.schema(),
            w.schema(),
            "{what}: schema differs from the oracle"
        );
        assert_eq!(g.rows(), w.rows(), "{what}: rows differ from the oracle");
    }
}

fn run_plans(plans: &[Plan], cat: &Catalog, cfg: &ExecConfig) -> Vec<Table> {
    plans
        .iter()
        .map(|p| execute_with(p, cat, cfg).expect("bench plan executes"))
        .collect()
}

/// The counters of one observed, untimed run of `run` on the fused
/// engine, as a lookup that reads an absent counter as 0.
fn observe(run: impl FnOnce(&ExecConfig)) -> impl Fn(&str) -> u64 {
    let obs = Obs::enabled();
    run(&ExecConfig::columnar().with_obs(obs.clone()));
    let counters = obs.snapshot().counters;
    move |k| counters.get(k).copied().unwrap_or(0)
}

/// The `plan.choice.{pipeline,serial}` counts of an observed run.
fn choices(count: impl Fn(&str) -> u64) -> Option<(u64, u64)> {
    Some((count("plan.choice.pipeline"), count("plan.choice.serial")))
}

/// Times `plans` over `cat` on the fused engine, checks them against
/// the oracle and records their planner choices.
fn time_plans(
    rec: &mut Record,
    control: &mut Control,
    name: &'static str,
    plans: &[Plan],
    cat: &Catalog,
) {
    let cfg = ExecConfig::columnar();
    let [(timing, out)] = control.time(ROUNDS, |_| (), |()| run_plans(plans, cat, &cfg));
    check(name, &out, &run_plans(plans, cat, &ExecConfig::serial()));
    let count = observe(|cfg| drop(run_plans(plans, cat, cfg)));
    rec.timing(name, timing, choices(count));
}

/// Fact(K, G, V) with NULLs sprinkled in, plus DimG(G, W) keyed by the
/// low-cardinality text column. DimG keeps every fourth group, so most
/// join probes miss.
fn fact_catalog(rows: usize) -> Catalog {
    let fact_schema = Schema::new(vec![
        Column::nullable("K", DataType::Int),
        Column::nullable("G", DataType::Text),
        Column::new("V", DataType::Int),
    ])
    .expect("distinct names");
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
    .expect("distinct names");
    let dim_rows: Vec<Vec<Value>> = (0..64i64)
        .step_by(4)
        .map(|g| vec![Value::text(format!("g{g}")), Value::Int(g * 7)])
        .collect();
    let mut cat = Catalog::new();
    cat.put_table(Table::from_rows("Fact", fact_schema, fact_rows).expect("rows match"));
    cat.put_table(Table::from_rows("DimG", dim_schema, dim_rows).expect("rows match"));
    cat
}

fn query(rec: &mut Record, control: &mut Control, cat: &Catalog) {
    let filter = scan("Fact").filter(col("V").ge(lit(250)).and(col("G").ne(lit("g7"))));
    let join = scan("Fact").join(scan("DimG"), vec![("G".into(), "G".into())], "d");
    let aggregate = scan("Fact").aggregate(
        vec!["G".into()],
        vec![
            AggItem::count_star("n"),
            AggItem::new("total", AggFunc::Sum, "V"),
        ],
    );
    time_plans(rec, control, "query.filter", &[filter], cat);
    time_plans(rec, control, "query.join", &[join], cat);
    time_plans(rec, control, "query.aggregate", &[aggregate], cat);
}

/// Fact(Patient, Disease, Cost, Date) shaped like the staged tables PLA
/// obligations filter: a quasi-identifier, a sensitive low-cardinality
/// column with NULLs, a measure and an event date.
fn patient_facts(rows: usize) -> Table {
    let schema = Schema::new(vec![
        Column::new("Patient", DataType::Text),
        Column::nullable("Disease", DataType::Text),
        Column::new("Cost", DataType::Int),
        Column::new("Date", DataType::Date),
    ])
    .expect("distinct names");
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
    Table::from_rows("Fact", schema, data).expect("rows match")
}

fn vm(rec: &mut Record, control: &mut Control) {
    let t = patient_facts(ROWS);
    let cfg = ExecConfig::columnar();
    let mut cat = Catalog::new();
    cat.put_table(t.clone());
    let oracle = |plan: Plan| run_plans(&[plan], &cat, &ExecConfig::serial());

    // A row restriction plus a retention cutoff, conjoined: what a PLA
    // check hands ETL Extract and FilterRows.
    let obligation = col("Disease")
        .ne(lit("HIV"))
        .and(col("Date").ge(lit(Value::Date(Date::new(2000, 1, 1).expect("valid date")))));
    let [(timing, out)] = control.time(
        ROUNDS,
        |_| (),
        |()| filter_scalar(&t, &obligation, &cfg).expect("bench filter runs"),
    );
    check(
        "vm.filter",
        &[out],
        &oracle(scan("Fact").filter(obligation)),
    );
    rec.timing("vm.filter", timing, None);

    // (Cost * 3 + 10) * 2 - Cost, appended in place to a staged table
    // the derive owns, as ETL Derive does.
    let bin = |op, a: Expr, b: Expr| Expr::Bin(op, Box::new(a), Box::new(b));
    let copay = bin(
        BinOp::Sub,
        bin(
            BinOp::Mul,
            bin(BinOp::Add, bin(BinOp::Mul, col("Cost"), lit(3)), lit(10)),
            lit(2),
        ),
        col("Cost"),
    );
    let staged = |_| Table::from_rows_trusted(t.name(), t.schema_shared(), t.rows().to_vec());
    let [(timing, out)] = control.time(ROUNDS, staged, |s| {
        derive_scalar(s, "Copay", &copay, &cfg).expect("bench derive runs")
    });
    let mut items: Vec<(String, Expr)> = t
        .schema()
        .columns()
        .iter()
        .map(|c| (c.name.clone(), col(&c.name)))
        .collect();
    items.push(("Copay".into(), copay));
    check("vm.derive", &[out], &oracle(scan("Fact").project(items)));
    rec.timing("vm.derive", timing, None);
}

fn fusion(rec: &mut Record, control: &mut Control, cat: &Catalog) {
    let filter = col("V").ge(lit(250)).and(col("K").is_null().not());
    let items = vec![("G".to_string(), col("G")), ("V".to_string(), col("V"))];
    let aggs = vec![
        AggItem::count_star("n"),
        AggItem::new("total", AggFunc::Sum, "V"),
    ];
    let deep = scan("Fact")
        .filter(filter.clone())
        .project(items.clone())
        .aggregate(vec!["G".into()], aggs.clone());
    time_plans(
        rec,
        control,
        "fusion.fused",
        std::slice::from_ref(&deep),
        cat,
    );

    // The same three operators as lone plans, each over the previous
    // one's materialized output.
    let steps = [
        scan("Fact").filter(filter),
        scan("Fact").project(items),
        scan("Fact").aggregate(vec!["G".into()], aggs),
    ];
    let fact = cat.table("Fact").expect("fact table");
    let lone = |cfg: &ExecConfig| {
        let mut t = fact.clone();
        for step in &steps {
            let mut input = Catalog::new();
            input.put_table(t);
            t = execute_with(step, &input, cfg).expect("bench plan executes");
        }
        t
    };
    let cfg = ExecConfig::columnar();
    let [(timing, out)] = control.time(ROUNDS, |_| (), |()| lone(&cfg));
    check(
        "fusion.lone",
        &[out],
        &run_plans(&[deep], cat, &ExecConfig::serial()),
    );
    rec.timing(
        "fusion.lone",
        timing,
        choices(observe(|cfg| drop(lone(cfg)))),
    );
    rec.fact(
        "fusion.speedup",
        format!(
            "{:.3}",
            rec.ratio("fusion.lone") / rec.ratio("fusion.fused")
        ),
    );
}

fn cache(rec: &mut Record, control: &mut Control, cat: &Catalog) {
    // Three dashboard widgets over the base fact table: two grouped
    // aggregates and a top-k. Base storage versions hold across renders,
    // so the chunk cache converts each column once for all three.
    let widgets = [
        scan("Fact").aggregate(
            vec!["G".into()],
            vec![
                AggItem::count_star("n"),
                AggItem::new("total", AggFunc::Sum, "V"),
                AggItem::new("peak", AggFunc::Max, "K"),
            ],
        ),
        scan("Fact").aggregate(
            vec!["G".into(), "K".into()],
            vec![AggItem::new("spread", AggFunc::Min, "V")],
        ),
        scan("Fact")
            .sort(vec![SortKey::desc("V"), SortKey::asc("G")])
            .limit(50),
    ];
    // Cold renders the same rows in fresh storage, as after an ETL
    // commit; warm renders the base table again.
    let fact = cat.table("Fact").expect("fact table");
    let catalog = |cold: bool| {
        let mut c = Catalog::new();
        c.put_table(if cold {
            Table::from_rows_trusted(fact.name(), fact.schema_shared(), fact.rows().to_vec())
        } else {
            fact.clone()
        });
        c
    };
    let cfg = ExecConfig::columnar();
    let [(cold, (_, cold_out)), (warm, (_, warm_out))] = control.time(
        ROUNDS,
        |v| catalog(v == 0),
        |c| {
            let out = run_plans(&widgets, &c, &cfg);
            (c, out)
        },
    );
    let want = run_plans(&widgets, cat, &ExecConfig::serial());
    check("cache.cold", &cold_out, &want);
    check("cache.warm", &warm_out, &want);
    let fresh = catalog(true);
    let cold_count = observe(|cfg| drop(run_plans(&widgets, &fresh, cfg)));
    rec.timing("cache.cold", cold, choices(cold_count));
    let warm_count = observe(|cfg| drop(run_plans(&widgets, cat, cfg)));
    rec.timing("cache.warm", warm, choices(&warm_count));
    rec.fact("cache.warm_hits", warm_count("chunk.cache.hit"));
    rec.fact("cache.warm_misses", warm_count("chunk.cache.miss"));
    rec.fact(
        "cache.speedup",
        format!("{:.3}", rec.ratio("cache.cold") / rec.ratio("cache.warm")),
    );
}

fn hospital(prescriptions: usize) -> Scenario {
    Scenario::generate(ScenarioConfig {
        patients: 200,
        prescriptions,
        lab_tests: 0,
        ..Default::default()
    })
}

fn etl(name: &str, derive: bool) -> Pipeline {
    let mut p = Pipeline::new(name).step(
        "e",
        EtlOp::Extract {
            source: "hospital".into(),
            table: "Prescriptions".into(),
            as_name: "s".into(),
        },
    );
    if derive {
        // Rebuilds the row storage, so every storage version the
        // enforcement key fingerprints changes.
        p = p.step(
            "d",
            EtlOp::Derive {
                table: "s".into(),
                column: "Loaded".into(),
                expr: lit(1),
            },
        );
    }
    p.step(
        "l",
        EtlOp::Load {
            table: "s".into(),
            warehouse_table: "FactPrescriptions".into(),
        },
    )
}

/// One hospital source ETL'd into the warehouse under an aggregation
/// PLA, `reports` single-role reports with distinct plans, and
/// `consumers` consumers spread round-robin over the roles. The engine
/// is the one `BiSystem::new` ships. With `wal`, the log is attached
/// first, so the setup is journaled too.
fn deployment(
    scenario: &Scenario,
    reports: usize,
    consumers: usize,
    wal: Option<&Path>,
) -> BiSystem {
    let mut sys = BiSystem::new(Date::new(2008, 7, 1).expect("valid date"));
    if let Some(path) = wal {
        let _ = std::fs::remove_file(path);
        sys.enable_wal(path).expect("bench WAL opens");
    }
    for (sid, cat) in scenario.sources.clone() {
        sys.register_source(sid, cat);
    }
    sys.add_pla_text(
        r#"pla "hospital-1" source hospital version 1 level meta-report {
  require aggregation FactPrescriptions min 2;
}"#,
    )
    .expect("bench PLA parses");
    sys.run_etl(&etl("nightly", false), Some("quality"))
        .expect("bench ETL loads");
    let groups = ["Drug", "Disease", "Date", "Patient"];
    for i in 0..reports {
        // A distinct vacuous filter per report, so every unique render
        // pays a real scan, and a rotating group column.
        let plan = scan("FactPrescriptions")
            .filter(col("Disease").ne(lit(format!("no-such-disease-{i:02}"))))
            .aggregate(
                vec![groups[i % groups.len()].into()],
                vec![AggItem::count_star("N")],
            );
        sys.define_report(ReportSpec::new(
            format!("rep-{i:02}"),
            format!("Profile {i:02} rollup"),
            plan,
            [RoleId::new(format!("role-{i:02}"))],
        ));
    }
    for c in 0..consumers {
        sys.grant(format!("consumer-{c}"), format!("role-{:02}", c % reports));
    }
    sys
}

/// `n` requests, consumer `c` asking for its role's report.
fn requests(n: usize, reports: usize) -> Vec<(ReportId, ConsumerId)> {
    (0..n)
        .map(|c| {
            (
                ReportId::new(format!("rep-{:02}", c % reports)),
                ConsumerId::new(format!("consumer-{c}")),
            )
        })
        .collect()
}

type Delivered = Result<EnforcedReport, SystemError>;

fn fingerprints(results: &[Delivered]) -> Vec<String> {
    results
        .iter()
        .map(|r| match r {
            Ok(e) => format!(
                "ok:{:?}:{:?}:{:?}",
                e.table.schema(),
                e.table.rows(),
                e.applied
            ),
            Err(e) => format!("err:{e}"),
        })
        .collect()
}

/// Serial `deliver` calls of `reqs` on `sys` with the row oracle.
fn oracle_deliveries(mut sys: BiSystem, reqs: &[(ReportId, ConsumerId)]) -> Vec<String> {
    sys.engine_mut().exec = ExecConfig::serial();
    let out: Vec<Delivered> = reqs.iter().map(|(id, c)| sys.deliver(id, c)).collect();
    fingerprints(&out)
}

fn batch(rec: &mut Record, control: &mut Control) {
    let scenario = hospital(1_000);
    let build = || deployment(&scenario, PROFILES, REQUESTS, None);
    let reqs = requests(REQUESTS, PROFILES);

    // Every round starts from a fresh system, so no round pays for the
    // journal its predecessors grew.
    let batch = |mut sys: BiSystem| {
        let out = sys.deliver_batch(&reqs);
        (sys, out)
    };
    let [(timing, (_, cold))] = control.time(ROUNDS, |_| build(), batch);
    rec.timing("batch.cold", timing, None);
    let warmed = |_| batch(build()).0;
    let [(timing, (_, warm))] = control.time(ROUNDS, warmed, batch);
    rec.timing("batch.warm", timing, None);
    let [(timing, (_, serial))] = control.time(
        LONG_ROUNDS,
        |_| build(),
        |mut sys| {
            let out: Vec<Delivered> = reqs.iter().map(|(id, c)| sys.deliver(id, c)).collect();
            (sys, out)
        },
    );
    rec.timing("batch.loop", timing, None);
    let want = fingerprints(&serial);
    assert_eq!(
        fingerprints(&cold),
        want,
        "cold batch differs from the deliver loop"
    );
    assert_eq!(
        fingerprints(&warm),
        want,
        "warm batch differs from the deliver loop"
    );
    assert_eq!(
        want[..PROFILES],
        oracle_deliveries(build(), &reqs[..PROFILES]),
        "the deliver loop differs from the row oracle"
    );
    rec.fact("batch.profiles", PROFILES);
    rec.fact(
        "batch.speedup",
        format!("{:.3}", rec.ratio("batch.loop") / rec.ratio("batch.cold")),
    );

    // Counters on an observed system (untimed): a cold batch, a warm
    // one, then a storage-rebuilding ETL commit and a batch that must
    // not be served from the cache.
    let obs = Obs::enabled();
    let mut sys = build();
    sys.engine_mut().exec = sys.engine_mut().exec.clone().with_obs(obs.clone());
    let count = |k: &str| obs.snapshot().counters.get(k).copied().unwrap_or(0);
    sys.deliver_batch(&reqs);
    rec.fact("batch.render_unique", count("deliver.render.unique"));
    rec.fact("batch.render_shared", count("deliver.render.shared"));
    let before = count("render.cache.hit");
    sys.deliver_batch(&reqs);
    rec.fact("batch.warm_cache_hits", count("render.cache.hit") - before);
    sys.run_etl(&etl("nightly-rebuild", true), Some("quality"))
        .expect("bench ETL reloads");
    let before = count("render.cache.hit");
    let post_etl = fingerprints(&sys.deliver_batch(&reqs));
    rec.fact(
        "batch.post_etl_cache_hits",
        count("render.cache.hit") - before,
    );
    let fresh: Vec<String> = reqs[..PROFILES]
        .iter()
        .map(|(id, c)| fingerprints(&[sys.deliver(id, c)]).remove(0))
        .collect();
    rec.fact("batch.post_etl_stale", post_etl[..PROFILES] != fresh[..]);
}

/// `n` deliveries cycling through the reports, each journaled.
fn deliveries(sys: &mut BiSystem, reqs: &[(ReportId, ConsumerId)], n: usize) {
    for (id, c) in reqs.iter().cycle().take(n) {
        sys.deliver(id, c).expect("bench delivery succeeds");
    }
}

fn wal(rec: &mut Record, control: &mut Control) {
    let scenario = hospital(500);
    let reqs = requests(WAL_REPORTS, WAL_REPORTS);
    let dir = std::env::temp_dir();
    let log = dir.join(format!("plabi-bench-gates-{}.wal", std::process::id()));
    let deep = dir.join(format!("plabi-bench-gates-{}-deep.wal", std::process::id()));
    let build = |wal: Option<&Path>| deployment(&scenario, WAL_REPORTS, WAL_REPORTS, wal);
    let run = |mut sys: BiSystem| {
        deliveries(&mut sys, &reqs, DELIVERIES);
        sys
    };

    let [(off, off_sys), (on, on_sys)] =
        control.time(ROUNDS, |v| build((v == 1).then_some(&*log)), run);
    // The median of the rounds' on/off quotients: each round runs both
    // loops back to back, on the same host.
    let mut quotients: Vec<f64> = (on.rounds_ms.iter().zip(&off.rounds_ms))
        .map(|(on, off)| on / off)
        .collect();
    rec.fact(
        "wal.overhead",
        format!("{:.4}", Spread::of(&mut quotients).median),
    );
    rec.timing("wal.off", off, None);
    rec.timing("wal.on", on, None);
    assert!(
        on_sys.wal_enabled(),
        "the WAL must stay healthy through the loop"
    );
    assert_eq!(
        off_sys.audit_log().entries(),
        on_sys.audit_log().entries(),
        "the WAL changed what was journaled"
    );
    let mut sys = build(None);
    let got: Vec<Delivered> = reqs.iter().map(|(id, c)| sys.deliver(id, c)).collect();
    assert_eq!(
        fingerprints(&got),
        oracle_deliveries(build(None), &reqs),
        "deliveries differ from the row oracle"
    );

    let mut journaled = build(Some(&deep));
    deliveries(&mut journaled, &reqs, RECOVER_ENTRIES);
    let [(timing, recovered)] = control.time(
        ROUNDS,
        |_| (),
        |()| BiSystem::recover(&deep).expect("bench WAL recovers"),
    );
    rec.fact("wal.recover_ms", format!("{:.3}", timing.ms.median));
    rec.timing("wal.recover", timing, None);
    let (got, want) = (recovered.audit_log(), journaled.audit_log());
    rec.fact("wal.recover_entries", got.entries().len());
    rec.fact("wal.recover_expected", want.entries().len());
    rec.fact("wal.recover_exact", got.entries() == want.entries());
    let _ = std::fs::remove_file(&log);
    let _ = std::fs::remove_file(&deep);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = match args.as_slice() {
        [] => "BENCH_gates.json".to_string(),
        [flag, path] if flag == "--out" => path.clone(),
        _ => {
            eprintln!("usage: bench_gates [--out PATH]");
            std::process::exit(2);
        }
    };

    let mut rec = Record::default();
    let mut control = Control::new();
    let cat = fact_catalog(ROWS);
    query(&mut rec, &mut control, &cat);
    vm(&mut rec, &mut control);
    fusion(&mut rec, &mut control, &cat);
    cache(&mut rec, &mut control, &cat);
    batch(&mut rec, &mut control);
    wal(&mut rec, &mut control);

    std::fs::write(&out_path, rec.to_json()).expect("write the bench JSON");
    eprintln!("wrote {out_path}");
}
