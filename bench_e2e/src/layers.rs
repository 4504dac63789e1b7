//! Per-layer attribution, measured from outside the program.
//!
//! Two sources feed it. The obs recorder the engine already carries
//! gives counts and span time inside the timed calls of traced
//! repetitions. Direct calls into each layer's public functions, made
//! on the first traced deployment after its timed calls, give that
//! layer's own latency on the workload's data. Untraced and traced
//! repetitions alternate, and the ratio of their call latencies is the
//! tracing overhead.
//!
//! Ratios named `*_ratio` over span or phase time divide by the summed
//! latency of the traced calls. Span time is thread time, so a layer
//! that runs on W workers at once can reach W.

use std::convert::Infallible;
use std::path::Path;
use std::time::{Duration, Instant};

use bi_core::etl::{check_pipeline, run_pipeline_with};
use bi_core::exec::{Obs, ObsSnapshot};
use bi_core::pla::{dsl::parse_documents, CheckProgram, CombinedPolicy};
use bi_core::query::execute_with;
use bi_core::report::render_checked;
use bi_core::types::RoleId;
use bi_core::wal::{WalRecord, WalWriter};

use crate::deploy::{engine, fact_pipeline, Deployment, PLAS, PURPOSE, ROLES};
use crate::harness::{median, ms_since, percentile, ratio, repeat, Metric, Tally};
use crate::workloads::{Phases, Window, Workload};

/// Journal entries re-appended to a scratch WAL to time appends.
const WAL_PROBE_ENTRIES: usize = 500;

/// The traced run: per-layer metrics plus the checked-operation tally.
pub fn run(
    workload: Workload,
    seed: u64,
    quick: bool,
    budget: Duration,
    scratch: &Path,
) -> (Vec<Metric>, Tally) {
    let mut tally = Tally::default();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut generate_ms = Vec::new();
    let mut window = Window::default();
    let mut whole = Window::default();
    let mut phases = Phases::default();
    let mut replay_us = Vec::new();
    let mut traced_reps = 0.0;
    let mut probes = None;
    // One traced and one untraced repetition per round; the two sides
    // alternate which runs first, so neither always meets the colder
    // process.
    let Ok(_) = repeat(budget, 1, || -> Result<(), Infallible> {
        let traced_first = traced_reps as usize % 2 == 1;
        for traced in [traced_first, !traced_first] {
            let obs = if traced {
                Obs::enabled()
            } else {
                Obs::disabled()
            };
            let (mut d, rep) = workload.run(seed, quick, &obs, scratch);
            tally.add(rep.tally);
            if !traced {
                untraced_ms.extend(rep.calls_ms);
                continue;
            }
            traced_ms.extend(&rep.calls_ms);
            generate_ms.push(rep.generate_ms);
            window.merge(&rep.window);
            whole.add(&ObsSnapshot::default(), &rep.after);
            phases.commit_ms += rep.phases.commit_ms;
            phases.recheck_ms += rep.phases.recheck_ms;
            phases.recover_ms += rep.phases.recover_ms;
            replay_us.push(ratio(rep.phases.replay_ms * 1e3, rep.entries as f64));
            traced_reps += 1.0;
            if probes.is_none() {
                probes = Some(probe(&mut d, scratch, &mut tally));
            }
        }
        Ok(())
    });
    let probes = probes.expect("at least one traced repetition");

    let wall_ms: f64 = traced_ms.iter().sum();
    let share = |ms: f64| ratio(ms, wall_ms);
    let per_rep = |name: &str| window.count(name) / traced_reps;
    let choices: f64 = ["serial", "parallel", "columnar", "pipeline"]
        .iter()
        .map(|c| window.count(&format!("plan.choice.{c}")))
        .sum();
    let declines: f64 = ["compile", "convert", "shape"]
        .iter()
        .map(|r| window.count(&format!("pipeline.decline.{r}")))
        .sum();
    let mvcc_exact = window.count("mvcc.resolve.exact");

    let metrics = vec![
        Metric::new("core.call_ms", median(&traced_ms), "ms"),
        Metric::new("core.call_p90_ms", percentile(&traced_ms, 0.9), "ms"),
        Metric::new(
            "core.render_ratio",
            share(window.span_ms("deliver.render")),
            "ratio",
        ),
        Metric::new(
            "core.render_cache_hit_ratio",
            window.hit_ratio("render.cache"),
            "ratio",
        ),
        Metric::new(
            "core.render_shared_ratio",
            ratio(
                window.count("deliver.render.shared"),
                window.count("deliver.requests"),
            ),
            "ratio",
        ),
        Metric::new(
            "core.etl_self_ratio",
            share(phases.commit_ms - window.span_ms("etl.pipeline")),
            "ratio",
        ),
        Metric::new(
            "report.render_ratio",
            share(window.span_ms("report.render")),
            "ratio",
        ),
        Metric::new("report.renders", per_rep("report.renders"), "count"),
        Metric::new("report.render_ms", probes.render_ms, "ms"),
        Metric::new("report.self_ms", probes.render_self_ms, "ms"),
        Metric::new(
            "query.execute_ratio",
            share(window.span_ms("query.execute")),
            "ratio",
        ),
        Metric::new(
            "query.execute_ms",
            median(&probes.execute_ms.concat()),
            "ms",
        ),
        Metric::new("query.agg_ms", median(&probes.execute_ms[0]), "ms"),
        Metric::new("query.filter_agg_ms", median(&probes.execute_ms[1]), "ms"),
        Metric::new("query.topk_ms", median(&probes.execute_ms[2]), "ms"),
        Metric::new("query.join_agg_ms", median(&probes.execute_ms[3]), "ms"),
        Metric::new(
            "query.columnar_share",
            ratio(
                window.count("plan.choice.columnar") + window.count("plan.choice.pipeline"),
                choices,
            ),
            "ratio",
        ),
        Metric::new(
            "query.chunk_cache_hit_ratio",
            window.hit_ratio("chunk.cache"),
            "ratio",
        ),
        Metric::new("query.pipeline_declines", declines / traced_reps, "count"),
        Metric::new("relation.vm_fallbacks", per_rep("vm.fallback"), "count"),
        Metric::new("pla.combine_us", probes.combine_us, "us"),
        Metric::new("pla.compile_us", probes.compile_us, "us"),
        Metric::new("pla.run_us", probes.run_us, "us"),
        Metric::new(
            "pla.check_cache_hit_ratio",
            window.hit_ratio("check.program.cache"),
            "ratio",
        ),
        Metric::new(
            "pla.policy_cache_hit_ratio",
            window.hit_ratio("policy.cache"),
            "ratio",
        ),
        Metric::new("etl.commit_ratio", share(phases.commit_ms), "ratio"),
        Metric::new(
            "etl.pipeline_ratio",
            share(window.span_ms("etl.pipeline")),
            "ratio",
        ),
        Metric::new("etl.check_us", probes.etl_check_us, "us"),
        Metric::new("etl.run_ms", probes.etl_run_ms, "ms"),
        Metric::new("etl.rows_out", per_rep("etl.rows-out"), "count"),
        Metric::new("warehouse.snapshot_us", probes.snapshot_us, "us"),
        Metric::new(
            "warehouse.versions_evicted",
            per_rep("mvcc.versions.evicted"),
            "count",
        ),
        Metric::new("wal.append_us", probes.wal_append_us, "us"),
        Metric::new(
            "wal.appends",
            whole.count("wal.appends") / traced_reps,
            "count",
        ),
        Metric::new("wal.bytes_per_delivery", probes.wal_bytes_per_delivery, "B"),
        Metric::new("wal.recover_ratio", share(phases.recover_ms), "ratio"),
        Metric::new("audit.recheck_ratio", share(phases.recheck_ms), "ratio"),
        Metric::new("audit.replay_us", median(&replay_us), "us"),
        Metric::new("audit.recheck_us", probes.recheck_us, "us"),
        Metric::new(
            "audit.mvcc_exact_ratio",
            ratio(
                mvcc_exact,
                mvcc_exact + window.count("mvcc.resolve.fallback"),
            ),
            "ratio",
        ),
        Metric::new("synth.generate_ms", median(&generate_ms), "ms"),
        Metric::new(
            "obs.overhead_ratio",
            ratio(median(&traced_ms), median(&untraced_ms)),
            "ratio",
        ),
    ];
    (metrics, tally)
}

/// Latencies of direct calls into each layer.
struct Probes {
    /// Per plan shape, indexed by `Shape as usize`.
    execute_ms: [Vec<f64>; 4],
    render_ms: f64,
    render_self_ms: f64,
    combine_us: f64,
    compile_us: f64,
    run_us: f64,
    etl_check_us: f64,
    etl_run_ms: f64,
    snapshot_us: f64,
    wal_append_us: f64,
    wal_bytes_per_delivery: f64,
    recheck_us: f64,
}

/// Median of `n` timings of `f`, in microseconds.
fn time_us<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            ms_since(t) * 1e3
        })
        .collect();
    median(&samples)
}

fn probe(d: &mut Deployment, scratch: &Path, tally: &mut Tally) -> Probes {
    let cfg = engine(&Obs::disabled());
    let cat = d.sys.warehouse().catalog().clone();

    // query: each report's plan, unrewritten, on the pinned engine.
    let mut execute_ms: [Vec<f64>; 4] = Default::default();
    for def in &d.defs {
        let us = time_us(3, || {
            execute_with(&def.plan, &cat, &cfg).expect("report plan runs")
        });
        execute_ms[def.shape as usize].push(us / 1e3);
    }

    // pla + report: combine the PLAs, compile each report's check
    // program, run it per role, and render what it lets through. The
    // render's self time excludes the query span recorded inside it.
    let docs = parse_documents(PLAS).expect("benchmark PLAs parse");
    let combine_us = time_us(20, || CombinedPolicy::combine(&docs));
    let policy = d.sys.policy();
    let table_source = d.sys.table_source().clone();
    let obs = Obs::enabled();
    let mut render_engine = d.sys.engine_mut().clone();
    render_engine.exec = engine(&obs);
    let specs: Vec<_> = d.sys.reports().cloned().collect();
    let (mut compile, mut run, mut render, mut render_self) = (vec![], vec![], vec![], vec![]);
    for spec in &specs {
        compile.push(time_us(3, || {
            CheckProgram::compile(&spec.plan, &cat, &policy, &table_source)
                .expect("report compiles")
        }));
        let program = CheckProgram::compile(&spec.plan, &cat, &policy, &table_source)
            .expect("report compiles");
        for role in ROLES {
            let roles = [RoleId::new(role)].into_iter().collect();
            run.push(time_us(3, || {
                program
                    .run(&roles, Some(PURPOSE), d.today)
                    .expect("check runs")
            }));
            let outcome = program
                .run(&roles, Some(PURPOSE), d.today)
                .expect("check runs");
            if !outcome.violations.is_empty() {
                continue;
            }
            obs.reset();
            let t = Instant::now();
            let out = render_checked(spec, &cat, outcome, &render_engine);
            let ms = ms_since(t);
            tally.check(out.is_ok());
            let query_ms = obs
                .snapshot()
                .spans
                .get("query.execute")
                .map_or(0, |s| s.nanos) as f64
                / 1e6;
            render.push(ms);
            render_self.push(ms - query_ms);
        }
    }

    // etl + warehouse: the fact-table commit's check and run, without
    // the load; a snapshot of the live warehouse.
    let micro = fact_pipeline(0);
    let etl_check_us = time_us(20, || check_pipeline(&micro, &policy, Some(PURPOSE)));
    let etl_run_ms = time_us(3, || {
        run_pipeline_with(&micro, &d.sources, Some(&*policy), d.today, &cfg)
            .expect("fact pipeline runs")
    }) / 1e3;
    let snapshot_us = time_us(200, || d.sys.warehouse().snapshot());

    // wal: the journal's latest deliveries appended to a scratch log.
    let path = scratch.join("probe.wal");
    let mut writer = WalWriter::create(&path).expect("scratch WAL opens");
    let entries = d.sys.audit_log().entries();
    let (mut appends, mut bytes) = (Vec::new(), 0);
    for e in &entries[entries.len().saturating_sub(WAL_PROBE_ENTRIES)..] {
        let rec = WalRecord::Delivery { entry: e.clone() };
        let t = Instant::now();
        bytes += writer.append(&rec).expect("scratch WAL appends");
        appends.push(ms_since(t) * 1e3);
    }
    drop(writer);
    let _ = std::fs::remove_file(&path);

    // audit: one recheck of the whole journal, per entry.
    let t = Instant::now();
    let findings = d.sys.recheck_at_delivery();
    let recheck_us = ms_since(t) * 1e3 / entries.len().max(1) as f64;
    tally.check(findings.is_ok_and(|f| f.is_empty()));

    Probes {
        execute_ms,
        render_ms: median(&render),
        render_self_ms: median(&render_self),
        combine_us,
        compile_us: median(&compile),
        run_us: median(&run),
        etl_check_us,
        etl_run_ms,
        snapshot_us,
        wal_append_us: median(&appends),
        wal_bytes_per_delivery: ratio(bytes as f64, appends.len() as f64),
        recheck_us,
    }
}
