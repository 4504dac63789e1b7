//! `bench_e2e` — the end-to-end benchmark of the Fig 1 flow: seeded
//! sources → PLA-checked ETL → warehouse → gated, enforced report
//! delivery → audit, driven through four workloads (see
//! `workloads.rs`), with every output checked against an oracle.
//!
//! Usage, from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     [--workload adhoc|dashboard|nightly|audit|all] [--seed N] \
//!     [--seconds S] [--trace 0|1] [--quick]
//! ```
//!
//! For one workload, the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` the per-layer ones
//! (`layers.rs`). `all` runs each workload in a process of its own, so
//! it prints one such line per workload, in turn. The exit code is 0
//! only when every check passed.

mod deploy;
mod harness;
mod layers;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use bi_core::exec::{effective_parallelism, Obs};

use harness::{median, percentile, repeat, result_json, Metric, Tally, CONTROL_REF_MS};
use workloads::Workload;

const USAGE: &str = "usage: bench_e2e [--workload adhoc|dashboard|nightly|audit|all] \
[--seed N] [--seconds S] [--trace 0|1] [--quick]
A single workload ends its standard output with one JSON result line; \
`all` prints one such line per workload.";

/// Set-ups per run: `setup_s` is the median of at least this many.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    /// Internal: run one end-to-end repetition and print its [`RepLine`].
    repetition: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 42,
        seconds: 10,
        trace: false,
        quick: false,
        repetition: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--quick" => args.quick = true,
            "--repetition" => args.repetition = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// A per-process scratch directory under the working directory, for
/// WAL files; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        let dir = PathBuf::from(".bench_scratch").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Fails, harmlessly, while another run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One end-to-end repetition as its process reports it: `rep <setup_s>
/// <requests> <attempted> <failed> <peak_rss_mb> <control_ms>
/// <call_ms>:<call_control_ms>...`.
struct RepLine {
    setup_s: f64,
    requests: u64,
    tally: Tally,
    peak_rss_mb: f64,
    /// Median of every control sample of the repetition.
    control_ms: f64,
    /// Each timed call with the control sample taken right after it.
    calls: Vec<(f64, f64)>,
}

impl RepLine {
    fn format(&self) -> String {
        let calls: Vec<String> = self
            .calls
            .iter()
            .map(|(ms, control)| format!("{ms}:{control}"))
            .collect();
        format!(
            "rep {} {} {} {} {} {} {}",
            self.setup_s,
            self.requests,
            self.tally.attempted,
            self.tally.failed,
            self.peak_rss_mb,
            self.control_ms,
            calls.join(" ")
        )
    }

    fn parse(line: &str) -> Option<RepLine> {
        let mut it = line.strip_prefix("rep ")?.split_whitespace();
        let mut next = || it.next();
        let setup_s = next()?.parse().ok()?;
        let requests = next()?.parse().ok()?;
        let tally = Tally {
            attempted: next()?.parse().ok()?,
            failed: next()?.parse().ok()?,
        };
        let peak_rss_mb = next()?.parse().ok()?;
        let control_ms = next()?.parse().ok()?;
        let calls = it
            .map(|pair| {
                let (ms, control) = pair.split_once(':')?;
                Some((ms.parse().ok()?, control.parse().ok()?))
            })
            .collect::<Option<Vec<(f64, f64)>>>()?;
        Some(RepLine {
            setup_s,
            requests,
            tally,
            peak_rss_mb,
            control_ms,
            calls,
        })
    }

    /// Every timed call, as measured.
    fn calls_ms(&self) -> Vec<f64> {
        self.calls.iter().map(|&(ms, _)| ms).collect()
    }

    /// Every timed call scaled to the reference host by the control
    /// sample taken right after it.
    fn scaled_calls_ms(&self) -> Vec<f64> {
        self.calls
            .iter()
            .map(|&(ms, control)| ms * CONTROL_REF_MS / control)
            .collect()
    }

    /// Requests per second over `calls_ms`.
    fn requests_per_s(&self, calls_ms: &[f64]) -> f64 {
        self.requests as f64 / (calls_ms.iter().sum::<f64>() / 1e3)
    }
}

/// Runs one repetition in this process and prints its [`RepLine`].
fn repetition(workload: Workload, seed: u64, quick: bool, scratch: &Path) -> Result<(), String> {
    let (d, rep) = workload.run(seed, quick, &Obs::disabled(), scratch);
    drop(d);
    let line = RepLine {
        setup_s: rep.setup_s,
        requests: rep.requests,
        tally: rep.tally,
        peak_rss_mb: rep
            .peak_rss_mb
            .ok_or("peak RSS unreadable: /proc/self/status has no VmHWM")?,
        control_ms: rep.control.median_ms(),
        calls: rep.calls_ms.into_iter().zip(rep.call_controls_ms).collect(),
    };
    println!("{}", line.format());
    Ok(())
}

/// Runs one repetition in a fresh process of this binary.
fn spawn_repetition(
    exe: &Path,
    workload: Workload,
    seed: u64,
    quick: bool,
) -> Result<RepLine, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .arg("--repetition")
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start a repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!("a repetition exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(RepLine::parse)
        .ok_or_else(|| "a repetition printed no result".into())
}

/// The end-to-end run: repetitions until the budget is spent, each in a
/// fresh process, so each starts from the same empty heap and chunk
/// cache. Every metric is the median over the repetitions.
fn end_to_end(
    workload: Workload,
    seed: u64,
    quick: bool,
    budget: Duration,
) -> Result<(Vec<Metric>, Tally), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let reps = repeat(budget, MIN_REPS, || {
        spawn_repetition(&exe, workload, seed, quick)
    })?;
    // Per-repetition statistics, then their median over the
    // repetitions: a repetition that lands on a contended core moves
    // the median far less than it moves pooled samples.
    for (i, r) in reps.iter().enumerate() {
        let calls = r.calls_ms();
        eprintln!(
            "bench_e2e: repetition {i}: setup {:.4} s, {} calls, p50 {:.4} ms, p90 {:.4} ms, \
             {:.1} requests/s, peak {:.1} MB, control {:.4} ms (as measured)",
            r.setup_s,
            calls.len(),
            percentile(&calls, 0.5),
            percentile(&calls, 0.9),
            r.requests_per_s(&calls),
            r.peak_rss_mb,
            r.control_ms,
        );
    }
    let of_reps = |f: &dyn Fn(&RepLine) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    // The raw medians, before the host-speed scale. The tail carries no
    // bound: on a shared host the 90th percentile follows the
    // neighbours' load more than the program.
    eprintln!(
        "bench_e2e: as measured (median over repetitions): call_p50_ms {} call_p90_ms {} \
         requests_per_s {} setup_s {} control_ms {}",
        of_reps(&|r| percentile(&r.calls_ms(), 0.5)),
        of_reps(&|r| percentile(&r.calls_ms(), 0.9)),
        of_reps(&|r| r.requests_per_s(&r.calls_ms())),
        of_reps(&|r| r.setup_s),
        of_reps(&|r| r.control_ms),
    );
    let metrics = vec![
        Metric::new(
            "call_p50_ms",
            of_reps(&|r| percentile(&r.scaled_calls_ms(), 0.5)),
            "ms",
        ),
        Metric::new(
            "requests_per_s",
            of_reps(&|r| r.requests_per_s(&r.scaled_calls_ms())),
            "1/s",
        ),
        Metric::new(
            "setup_s",
            of_reps(&|r| r.setup_s * CONTROL_REF_MS / r.control_ms),
            "s",
        ),
        Metric::new("peak_rss_mb", of_reps(&|r| r.peak_rss_mb), "MB"),
    ];
    let mut tally = Tally::default();
    for r in &reps {
        tally.add(r.tally);
    }
    Ok((metrics, tally))
}

/// Runs every workload in its own process of this binary; each prints
/// its own result line.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("bench_e2e: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        match cmd.status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("bench_e2e: cannot run {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("bench_e2e: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let scratch = || Scratch::new().map_err(|e| format!("cannot create scratch directory: {e}"));
    if args.repetition {
        let run = scratch().and_then(|s| repetition(workload, args.seed, args.quick, &s.0));
        return match run {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bench_e2e: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let cfg = deploy::engine(&Obs::disabled());
    eprintln!(
        "bench_e2e: workload={} seed={} seconds={} trace={} quick={} cores={} \
         engine: threads={} columnar={} pipeline={} chunk_cache={} render_cache=default",
        workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        args.quick,
        effective_parallelism(),
        cfg.threads,
        cfg.columnar,
        cfg.pipeline,
        cfg.chunk_cache_capacity,
    );
    let budget = Duration::from_secs(args.seconds);
    let result = if args.trace {
        scratch().map(|s| layers::run(workload, args.seed, args.quick, budget, &s.0))
    } else {
        end_to_end(workload, args.seed, args.quick, budget)
    };
    let (metrics, tally) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", result_json(tally, &metrics));
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench_e2e: {} of {} checked operations failed",
            tally.failed, tally.attempted
        );
        ExitCode::FAILURE
    }
}
