//! The four workloads. Each puts most of its time on a different layer,
//! so an optimisation of one layer moves one workload and leaves the
//! others flat (the traced run measures the shares; see the README):
//!
//! * `adhoc` — serial `deliver` calls; every call renders, so `query`,
//!   `report` and `pla` carry the time and `core`'s scheduler and
//!   render cache sit idle;
//! * `dashboard` — warm `deliver_batch` calls whose profiles all fit
//!   the render cache, so no query runs: what is left is `core`'s
//!   grouping, cache probes and journal appends;
//! * `nightly` — a fact-table ETL commit, then a refresh batch for one
//!   profile: the commit makes a new data version, so the refresh
//!   re-renders, but the `etl` and `warehouse` write path carries most
//!   of the time;
//! * `audit` — passes of `recheck_at_delivery` and `BiSystem::recover`
//!   over a WAL-logged journal: the `audit`, `wal` and MVCC paths idle
//!   everywhere else. `replay_at_delivery` re-renders every entry, so it
//!   would put `query` and `report` back in charge; it runs once per
//!   repetition as a check, outside the timed calls.
//!
//! One client drives each workload in a closed loop: it issues the next
//! call only after the previous one returned. Every repetition starts
//! from a freshly built deployment, so the journal stays bounded.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use bi_core::audit::SnapshotFidelity;
use bi_core::exec::{ExecConfig, Obs, ObsSnapshot};
use bi_core::report::EnforcedReport;
use bi_core::types::{ConsumerId, ReportId};
use bi_core::{BiSystem, SystemError};

use crate::deploy::{
    all_profiles, batch, build, engine, expect_refused, fact_pipeline, outcome_ok, request,
    same_result, Deployment, ReportDef, PROFILES, PURPOSE,
};
use crate::harness::{ms_since, peak_rss_mb, ratio, Control, Tally};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Adhoc,
    Dashboard,
    Nightly,
    Audit,
}

/// Sizes of one repetition.
struct Params {
    /// Prescriptions in the fact table.
    facts: usize,
    /// Timed calls.
    calls: usize,
    /// Requests per `deliver_batch`.
    batch: usize,
}

/// `audit`: batches (each followed by a fact-table commit) that build
/// the journal the timed passes audit.
const JOURNAL_CYCLES: usize = 4;
/// `audit`: rechecks and recoveries in one timed pass.
const RECHECKS: usize = 10;
const RECOVERIES: usize = 5;
/// Host-speed control samples taken between set-up and the timed calls,
/// for scaling the set-up time; one more follows every timed call.
const CONTROL_SAMPLES: usize = 20;

/// Time spent in the phases of the timed calls that the bench times on
/// its own, in milliseconds; `replay_ms` is the untimed replay check.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phases {
    pub commit_ms: f64,
    pub recheck_ms: f64,
    pub replay_ms: f64,
    pub recover_ms: f64,
}

/// Counter and span totals over a set of recorder intervals.
#[derive(Default)]
pub struct Window {
    counters: BTreeMap<&'static str, f64>,
    span_ns: BTreeMap<&'static str, f64>,
}

impl Window {
    /// Adds what the recorder saw between `before` and `after`.
    pub fn add(&mut self, before: &ObsSnapshot, after: &ObsSnapshot) {
        for (name, v) in &after.counters {
            let b = before.counters.get(name).copied().unwrap_or(0);
            *self.counters.entry(name).or_default() += (v - b) as f64;
        }
        for (name, s) in &after.spans {
            let b = before.spans.get(name).map_or(0, |s| s.nanos);
            *self.span_ns.entry(name).or_default() += (s.nanos - b) as f64;
        }
    }

    /// Adds every total of `other`.
    pub fn merge(&mut self, other: &Window) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_default() += v;
        }
        for (name, v) in &other.span_ns {
            *self.span_ns.entry(name).or_default() += v;
        }
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    pub fn span_ms(&self, name: &str) -> f64 {
        self.span_ns.get(name).copied().unwrap_or(0.0) / 1e6
    }

    /// `hit / (hit + miss)` for a `<prefix>.hit` / `<prefix>.miss` pair.
    pub fn hit_ratio(&self, prefix: &str) -> f64 {
        let hit = self.count(&format!("{prefix}.hit"));
        ratio(hit, hit + self.count(&format!("{prefix}.miss")))
    }
}

/// What one repetition measured and checked.
pub struct Rep {
    pub setup_s: f64,
    pub generate_ms: f64,
    /// Latency of every timed call.
    pub calls_ms: Vec<f64>,
    /// The control sample taken right after each timed call.
    pub call_controls_ms: Vec<f64>,
    /// Requests the timed calls served (journal entries audited, for
    /// `audit`).
    pub requests: u64,
    pub tally: Tally,
    pub phases: Phases,
    /// Journal entries, for per-entry audit costs.
    pub entries: usize,
    /// The host-speed control, sampled between the timed calls so it
    /// sees the host they ran on.
    pub control: Control,
    /// What the recorder saw during the timed calls, and nothing else.
    pub window: Window,
    /// The recorder at the end of the timed calls.
    pub after: ObsSnapshot,
    /// Peak RSS of the process at the end of the timed calls, before
    /// the checks, in MB.
    pub peak_rss_mb: Option<f64>,
}

impl Rep {
    fn new(d: &Deployment, setup: Instant) -> Rep {
        let setup_s = setup.elapsed().as_secs_f64();
        let mut control = Control::new();
        for _ in 0..CONTROL_SAMPLES {
            control.sample();
        }
        Rep {
            setup_s,
            generate_ms: d.generate_ms,
            calls_ms: Vec::new(),
            call_controls_ms: Vec::new(),
            requests: 0,
            tally: Tally::default(),
            phases: Phases::default(),
            entries: d.sys.audit_log().entries().len(),
            control,
            window: Window::default(),
            after: ObsSnapshot::default(),
            peak_rss_mb: None,
        }
    }

    /// Runs `f`, all or part of a timed call: returns its result and
    /// its time, and adds what the recorder saw during it to the window.
    fn timed<T>(&mut self, obs: &Obs, f: impl FnOnce() -> T) -> (T, f64) {
        let before = obs.snapshot();
        let t = Instant::now();
        let out = f();
        let ms = ms_since(t);
        self.window.add(&before, &obs.snapshot());
        (out, ms)
    }

    /// Records one timed call, then samples the control, so each call
    /// has a measure of the host it ran on.
    fn call_done(&mut self, ms: f64) {
        self.calls_ms.push(ms);
        self.call_controls_ms.push(self.control.sample());
    }

    /// Marks the end of the timed calls.
    fn calls_end(&mut self, obs: &Obs) {
        self.after = obs.snapshot();
        self.peak_rss_mb = peak_rss_mb();
    }
}

/// Checks every result of a batch built by `batch(defs, profiles, ..)`
/// against its profile's outcome.
fn check_batch(
    tally: &mut Tally,
    defs: &[ReportDef],
    profiles: &[usize],
    out: &[Result<EnforcedReport, SystemError>],
) {
    for (j, res) in out.iter().enumerate() {
        let prof = profiles[j % profiles.len()];
        tally.check(outcome_ok(res, expect_refused(defs, prof)));
    }
}

/// The no-stale-serve check: serial `deliver` never consults the render
/// cache, so one serial delivery per profile of `batch(defs, profiles,
/// ..)` must equal the batch's result for it.
fn check_against_serial(
    tally: &mut Tally,
    d: &mut Deployment,
    profiles: &[usize],
    reqs: &[(ReportId, ConsumerId)],
    out: &[Result<EnforcedReport, SystemError>],
) {
    for (j, (id, consumer)) in reqs.iter().enumerate().take(profiles.len()) {
        let serial = d.sys.deliver(id, consumer);
        tally.check(same_result(&out[j], &serial));
    }
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Adhoc,
        Workload::Dashboard,
        Workload::Nightly,
        Workload::Audit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Adhoc => "adhoc",
            Workload::Dashboard => "dashboard",
            Workload::Nightly => "nightly",
            Workload::Audit => "audit",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn params(self, quick: bool) -> Params {
        let (facts, calls, batch) = match (self, quick) {
            (Workload::Adhoc, false) => (20_000, 6 * PROFILES, 1),
            (Workload::Dashboard, false) => (5_000, 96, 500),
            (Workload::Nightly, false) => (5_000, 2 * PROFILES, 96),
            (Workload::Audit, false) => (2_000, 24, PROFILES),
            (Workload::Adhoc, true) => (2_000, 8, 1),
            (Workload::Dashboard, true) => (2_000, 2, 200),
            (Workload::Nightly, true) => (2_000, 2, 12),
            (Workload::Audit, true) => (2_000, 1, 80),
        };
        Params {
            facts,
            calls,
            batch,
        }
    }

    /// Builds a deployment from `seed`, runs one repetition on it and
    /// hands both back. `scratch` holds the WAL of `audit`.
    pub fn run(self, seed: u64, quick: bool, obs: &Obs, scratch: &Path) -> (Deployment, Rep) {
        let p = self.params(quick);
        match self {
            Workload::Adhoc => adhoc(&p, seed, obs),
            Workload::Dashboard => dashboard(&p, seed, obs),
            Workload::Nightly => nightly(&p, seed, obs),
            Workload::Audit => audit(&p, seed, obs, &scratch.join("audit.wal")),
        }
    }
}

fn adhoc(p: &Params, seed: u64, obs: &Obs) -> (Deployment, Rep) {
    let setup = Instant::now();
    let mut d = build(seed, p.facts, obs, None);
    // Warm-up: one delivery per profile fills the policy, program and
    // column caches.
    for prof in 0..PROFILES {
        let (id, consumer) = request(&d.defs, prof, 0);
        let _ = d.sys.deliver(&id, &consumer);
    }
    let mut rep = Rep::new(&d, setup);
    let mut first: Vec<Option<Result<EnforcedReport, SystemError>>> =
        (0..PROFILES).map(|_| None).collect();
    for i in 0..p.calls {
        let prof = i % PROFILES;
        let (id, consumer) = request(&d.defs, prof, 1 + i / PROFILES);
        let (res, ms) = rep.timed(obs, || d.sys.deliver(&id, &consumer));
        rep.call_done(ms);
        rep.requests += 1;
        rep.tally
            .check(outcome_ok(&res, expect_refused(&d.defs, prof)));
        first[prof].get_or_insert(res);
    }
    rep.calls_end(obs);
    // Oracle: the serial row engine renders each profile seen once more.
    d.sys.engine_mut().exec = ExecConfig::serial();
    for (prof, seen) in first.iter().enumerate() {
        if let Some(seen) = seen {
            let (id, consumer) = request(&d.defs, prof, 0);
            let oracle = d.sys.deliver(&id, &consumer);
            rep.tally.check(same_result(seen, &oracle));
        }
    }
    d.sys.engine_mut().exec = engine(obs);
    (d, rep)
}

fn dashboard(p: &Params, seed: u64, obs: &Obs) -> (Deployment, Rep) {
    let setup = Instant::now();
    let mut d = build(seed, p.facts, obs, None);
    let profiles = all_profiles();
    // Consumers rotate between batches; the profiles, and so the render
    // cache keys, stay the same.
    let variants: Vec<Vec<(ReportId, ConsumerId)>> = (0..4)
        .map(|v| batch(&d.defs, &profiles, p.batch, 7 * v))
        .collect();
    // Warm-up: one cold batch renders every profile into the cache.
    let _ = d.sys.deliver_batch(&variants[0]);
    let mut rep = Rep::new(&d, setup);
    let mut last = Vec::new();
    for b in 0..p.calls {
        let reqs = &variants[b % variants.len()];
        let (out, ms) = rep.timed(obs, || d.sys.deliver_batch(reqs));
        rep.call_done(ms);
        rep.requests += reqs.len() as u64;
        check_batch(&mut rep.tally, &d.defs, &profiles, &out);
        last = out;
    }
    rep.calls_end(obs);
    let reqs = &variants[(p.calls - 1) % variants.len()];
    check_against_serial(&mut rep.tally, &mut d, &profiles, reqs, &last);
    (d, rep)
}

fn nightly(p: &Params, seed: u64, obs: &Obs) -> (Deployment, Rep) {
    let setup = Instant::now();
    let mut d = build(seed, p.facts, obs, None);
    // Warm-up: one cold batch over every profile.
    let _ = d
        .sys
        .deliver_batch(&batch(&d.defs, &all_profiles(), PROFILES, 0));
    let mut rep = Rep::new(&d, setup);
    // Each cycle refreshes the next profile for its consumers, so every
    // shape, grouping and role comes round equally often. One render
    // per commit keeps the write path the larger part of a call.
    let refreshes: Vec<_> = (0..PROFILES)
        .map(|prof| {
            let profiles = vec![prof];
            let reqs = batch(&d.defs, &profiles, p.batch, 0);
            (profiles, reqs)
        })
        .collect();
    for cycle in 1..=p.calls {
        let (profiles, reqs) = &refreshes[cycle % PROFILES];
        let pipeline = fact_pipeline(cycle as i64);
        let (etl, commit_ms) = rep.timed(obs, || d.sys.run_etl(&pipeline, Some(PURPOSE)));
        let (out, refresh_ms) = rep.timed(obs, || d.sys.deliver_batch(reqs));
        rep.phases.commit_ms += commit_ms;
        rep.call_done(commit_ms + refresh_ms);
        rep.requests += reqs.len() as u64;
        rep.tally.check(etl.is_ok());
        check_batch(&mut rep.tally, &d.defs, profiles, &out);
        // After every commit: the refresh must not serve a render of
        // the previous data version.
        check_against_serial(&mut rep.tally, &mut d, profiles, reqs, &out);
    }
    rep.calls_end(obs);
    (d, rep)
}

fn audit(p: &Params, seed: u64, obs: &Obs, wal: &Path) -> (Deployment, Rep) {
    let setup = Instant::now();
    let mut d = build(seed, p.facts, obs, Some(wal));
    // The journal: WAL-logged batches, each followed by a fact-table
    // commit, so entries reference several data versions. Only the
    // changed fact table is reloaded: recovery of a log holding an
    // identical reload of an unchanged table fails its data-version
    // check.
    let profiles = all_profiles();
    let reqs = batch(&d.defs, &profiles, p.batch, 0);
    let mut journal = Tally::default();
    for cycle in 1..=JOURNAL_CYCLES {
        let out = d.sys.deliver_batch(&reqs);
        check_batch(&mut journal, &d.defs, &profiles, &out);
        let etl = d.sys.run_etl(&fact_pipeline(cycle as i64), Some(PURPOSE));
        journal.check(etl.is_ok() && d.sys.wal_enabled());
    }
    let mut rep = Rep::new(&d, setup);
    rep.tally.add(journal);
    // One timed pass: the journal rechecked RECHECKS times and the
    // system recovered from its WAL RECOVERIES times. Recheck finds
    // nothing; recovery rebuilds the journal entry for entry.
    for _ in 0..p.calls {
        let mut pass_ms = 0.0;
        for _ in 0..RECHECKS {
            let (findings, ms) = rep.timed(obs, || d.sys.recheck_at_delivery());
            rep.phases.recheck_ms += ms;
            pass_ms += ms;
            rep.tally.check(findings.is_ok_and(|f| f.is_empty()));
        }
        for _ in 0..RECOVERIES {
            let (recovered, ms) = rep.timed(obs, || BiSystem::recover(wal));
            rep.phases.recover_ms += ms;
            pass_ms += ms;
            rep.tally.check(
                recovered.is_ok_and(|s| s.audit_log().entries() == d.sys.audit_log().entries()),
            );
        }
        rep.call_done(pass_ms);
        rep.requests += (rep.entries * (RECHECKS + RECOVERIES)) as u64;
    }
    rep.calls_end(obs);
    // Replay reproduces every journaled verdict from exact policy and
    // data snapshots.
    let delivered = d.sys.audit_log().deliveries().count();
    let t = Instant::now();
    let replays = d.sys.replay_at_delivery();
    rep.phases.replay_ms = ms_since(t);
    rep.tally.check(replays.is_ok_and(|r| {
        r.len() == delivered
            && r.iter().all(|x| {
                x.matches_journal
                    && x.policy_snapshot == SnapshotFidelity::Exact
                    && x.data_snapshot == SnapshotFidelity::Exact
            })
    }));
    (d, rep)
}
