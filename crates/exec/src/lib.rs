//! # bi-exec — std-only morsel-driven parallel execution substrate
//!
//! The crate registry is unreachable in this build environment, so there
//! is no `rayon`; this is the minimal parallel substrate the rest of the
//! stack shares. The design follows the morsel-driven parallelism of
//! Leis et al.: inputs are split into contiguous *morsels*
//! (cache-friendly chunks), idle workers claim the next morsel from an
//! atomic counter, and per-morsel outputs are reassembled **in morsel
//! order**, so a parallel run produces exactly the same output as the
//! serial left-to-right loop it replaces.
//!
//! The workers are one process-wide pool of parked helper threads,
//! started by the first call that wants helpers and grown only when a
//! call asks for more. The calling thread claims morsels alongside
//! them, so a call on `n` workers wakes `n − 1` helpers. A call made
//! from inside a running job, or while another thread's job holds the
//! pool, runs inline on its own thread: nested fan-out never multiplies
//! threads past the host's cores.
//!
//! Everything shared between workers is borrowed (`&[T]`, `&F`); the
//! data layer's `Arc`-backed tables and `Arc<CombinedPolicy>` snapshots
//! make those borrows cheap and `Sync`. Lending a borrowed job to the
//! long-lived helpers erases its lifetime in the crate's one `unsafe`
//! block, inside the private `pool` module, whose protocol keeps every
//! helper out of the job before the call returns.
//!
//! Invariants every helper upholds:
//!
//! * **Determinism** — outputs are ordered by morsel index, never by
//!   completion order. `threads = 1` (the default) runs inline on the
//!   caller's thread and never starts the pool, byte-identical to a
//!   plain loop.
//! * **Error discipline** — the `try_*` variants cancel outstanding
//!   morsels and return the error of the *lowest-indexed* failing morsel,
//!   matching what the serial loop would have reported first.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

pub use bi_obs::{Counter, Obs, ObsSnapshot, Span, SpanKind, SpanStat, TraceId};

/// Default rows per morsel for row-level data-parallel loops. Large
/// enough that the claim counter is uncontended, small enough that a
/// dozen workers stay busy on mid-size tables.
pub const MORSEL_ROWS: usize = 4096;

/// How work is spread across threads, and which operator
/// implementations run. The single gate for every parallel code path in
/// the workspace: `threads = 1` reproduces the serial engine exactly
/// (no pool, no reordering), `threads = 0` asks for one worker per
/// available core. Threads drive morsel loops (scalar filters and
/// projections, fused pipelines, anonymization, batch delivery); the
/// row engine's joins and group-bys always run serially.
/// `columnar = true` lets plans run vectorized: filters, projections,
/// joins and group-bys through the fused pipeline (filter kernels,
/// dictionary-code joins, code-slotted groups), sorts through the typed
/// sort kernel; the row-at-a-time engine remains the oracle, and every
/// columnar path is required to produce byte-identical output or
/// decline and fall back to it.
///
/// The config also carries the [`Obs`] recorder handle every operator
/// reports into. The handle is an `Option<Arc<_>>` internally, so the
/// default (disabled) config stays trivially cheap to clone and the
/// recorder never influences what the engine computes — equality
/// deliberately compares only the execution *shape* (`threads`,
/// `columnar`, `pipeline`, `pinned`), never the recorder or cache
/// bounds.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Number of worker threads. `1` = serial inline execution.
    pub threads: usize,
    /// Allow vectorized columnar operators. `false` = row engine only.
    pub columnar: bool,
    /// Allow fused pipeline execution (requires `columnar`): every
    /// Filter/Project/Join/Aggregate root, lone operators included, is
    /// the pipeline's. `false` pins operator-at-a-time execution — row
    /// filters, projections, joins and group-bys plus the columnar sort,
    /// the pipeline's decline target.
    pub pipeline: bool,
    /// Treat `threads` as exact rather than a cap: skip the
    /// [`effective_parallelism`] clamp in [`ExecConfig::effective_threads`].
    /// Oracle tests and benches use this to exercise the morsel workers
    /// deterministically on any host, including a 1-core CI box where
    /// the clamp would otherwise run every loop inline; the helper pool
    /// grows to serve a pinned request.
    pub pinned: bool,
    /// Bound on the process-wide version-keyed column chunk cache, in
    /// cached columns. `0` disables caching entirely (every conversion
    /// rebuilds). Like `obs`, this is a strategy knob — it can change
    /// which counters fire, never what the engine computes — so it is
    /// excluded from equality.
    pub chunk_cache_capacity: usize,
    /// Observability recorder; [`Obs::disabled`] (the default) is a
    /// true no-op on every hot path.
    pub obs: Obs,
}

/// Default bound on the version-keyed column chunk cache (in cached
/// columns) — the value `ExecConfig::serial()`/`columnar()` start from.
pub const DEFAULT_CHUNK_CACHE_CAPACITY: usize = 512;

impl PartialEq for ExecConfig {
    fn eq(&self, other: &Self) -> bool {
        self.threads == other.threads
            && self.columnar == other.columnar
            && self.pipeline == other.pipeline
            && self.pinned == other.pinned
    }
}

/// Worker threads the host can actually run at once, read once per
/// process. `available_parallelism` can fail (unsupported platform,
/// restricted cgroup introspection); fall back to 1 — claiming *less*
/// parallelism than exists only costs speed, claiming more re-creates
/// the oversubscription regression this clamp removes.
pub fn effective_parallelism() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

impl Eq for ExecConfig {}

impl ExecConfig {
    /// Serial row-at-a-time execution on the caller's thread: the
    /// oracle every other configuration must match.
    pub const fn serial() -> Self {
        ExecConfig {
            threads: 1,
            columnar: false,
            pipeline: true,
            pinned: false,
            chunk_cache_capacity: DEFAULT_CHUNK_CACHE_CAPACITY,
            obs: Obs::disabled(),
        }
    }

    /// One worker per available core (falls back to serial when the
    /// parallelism cannot be determined).
    pub fn auto() -> Self {
        ExecConfig {
            threads: effective_parallelism(),
            ..Self::serial()
        }
    }

    /// A fixed thread count; `0` means [`ExecConfig::auto`].
    pub fn with_threads(threads: usize) -> Self {
        if threads == 0 {
            Self::auto()
        } else {
            ExecConfig {
                threads,
                ..Self::serial()
            }
        }
    }

    /// Single-threaded execution with columnar operators enabled: the
    /// fused engine at one thread, and the [`Default`].
    pub const fn columnar() -> Self {
        ExecConfig {
            threads: 1,
            columnar: true,
            pipeline: true,
            pinned: false,
            chunk_cache_capacity: DEFAULT_CHUNK_CACHE_CAPACITY,
            obs: Obs::disabled(),
        }
    }

    /// Builder: the same configuration with fused pipeline execution
    /// switched on or off. Off = operator-at-a-time only (the pipeline
    /// executor's decline target).
    pub fn with_pipeline(self, pipeline: bool) -> Self {
        ExecConfig { pipeline, ..self }
    }

    /// Builder: treat the thread count as exact, bypassing the
    /// host-core clamp (see the `pinned` field). For tests and benches.
    pub fn with_pinned_threads(self, pinned: bool) -> Self {
        ExecConfig { pinned, ..self }
    }

    /// Workers a morsel loop actually runs on: the requested count
    /// clamped by what the host can run in parallel
    /// ([`effective_parallelism`]), unless `pinned`. A request for 8
    /// threads on a 1-core host runs inline — fanning out past the
    /// hardware buys contention, not concurrency.
    pub fn effective_threads(&self) -> usize {
        let t = self.threads.max(1);
        if self.pinned {
            t
        } else {
            t.min(effective_parallelism())
        }
    }

    /// Builder: the same thread configuration with columnar operators
    /// switched on or off.
    pub fn with_columnar(self, columnar: bool) -> Self {
        ExecConfig { columnar, ..self }
    }

    /// Builder: the same execution shape reporting into `obs`. Pass
    /// [`Obs::enabled`] to record, [`Obs::disabled`] to stop.
    pub fn with_obs(self, obs: Obs) -> Self {
        ExecConfig { obs, ..self }
    }

    /// True when this configuration runs everything inline.
    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }

    /// Workers actually worth running for `tasks` units of work:
    /// effective threads (host-clamped unless pinned), never more than
    /// the tasks. Fanning out past the hardware buys contention, not
    /// concurrency — the morsel helpers run inline at one worker.
    fn workers_for(&self, tasks: usize) -> usize {
        self.effective_threads().min(tasks).max(1)
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self::columnar()
    }
}

/// Applies `f` to contiguous morsels of `items`, returning one output
/// per morsel **in morsel order**. `f` receives the offset of the morsel
/// within `items` and the morsel slice. Workers claim morsels from a
/// shared counter, so a slow morsel never stalls the others.
pub fn par_chunks<T, U, F>(cfg: &ExecConfig, items: &[T], morsel: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &[T]) -> U + Sync,
{
    par_ranges(cfg, items.len(), morsel, |start, end| {
        f(start, &items[start..end])
    })
}

/// Fallible [`par_chunks`]: the first error (by morsel index, matching
/// the serial loop) cancels the remaining morsels and is returned.
pub fn try_par_chunks<T, U, E, F>(
    cfg: &ExecConfig,
    items: &[T],
    morsel: usize,
    f: F,
) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(usize, &[T]) -> Result<U, E> + Sync,
{
    try_par_ranges(cfg, items.len(), morsel, |start, end| {
        f(start, &items[start..end])
    })
}

/// Applies `f` to contiguous index ranges `[start, end)` of a
/// `len`-element domain, returning one output per range **in range
/// order**. The columnar twin of [`par_chunks`]: when the data lives in
/// column vectors rather than a row slice, morsels are ranges into the
/// chunk, not sub-slices of rows. Scheduled by [`try_par_ranges`], so
/// determinism and ordering guarantees are identical.
pub fn par_ranges<U, F>(cfg: &ExecConfig, len: usize, morsel: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize, usize) -> U + Sync,
{
    let Ok(out) = try_par_ranges(cfg, len, morsel, |start, end| {
        Ok::<U, Infallible>(f(start, end))
    });
    out
}

/// Fallible [`par_ranges`]: the first error (by range index, matching
/// the serial loop) cancels the remaining ranges and is returned. The
/// pipeline executor drives fused operator chains through this — each
/// range is one morsel pushed through every chained operator, and the
/// lowest-index error discipline keeps fused errors deterministic at
/// any thread count.
///
/// This is the crate's one scheduler; every other helper is a view of
/// it. Workers — the calling thread and up to `workers − 1` pool
/// helpers — claim range indices from a shared counter in increasing
/// order, so when range `m` fails every lower range has been claimed and
/// runs to completion: the lowest failing index is always observed. A
/// worker panic is re-raised on the caller's thread with its original
/// payload once every worker has left the job.
pub fn try_par_ranges<U, E, F>(
    cfg: &ExecConfig,
    len: usize,
    morsel: usize,
    f: F,
) -> Result<Vec<U>, E>
where
    U: Send,
    E: Send,
    F: Fn(usize, usize) -> Result<U, E> + Sync,
{
    let morsel = morsel.max(1);
    let n_morsels = len.div_ceil(morsel);
    let range = |m: usize| (m * morsel, ((m + 1) * morsel).min(len));
    let workers = cfg.workers_for(n_morsels);
    if workers > 1 {
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        // Every completed `(morsel, output)` pair, and the lowest-indexed
        // failure seen.
        let outcome = Mutex::new((
            Vec::<(usize, U)>::with_capacity(n_morsels),
            None::<(usize, E)>,
        ));
        let work = || {
            let mut local: Vec<(usize, U)> = Vec::new();
            let mut err: Option<(usize, E)> = None;
            while !failed.load(Ordering::Relaxed) {
                let m = next.fetch_add(1, Ordering::Relaxed);
                if m >= n_morsels {
                    break;
                }
                let (start, end) = range(m);
                match f(start, end) {
                    Ok(u) => local.push((m, u)),
                    Err(e) => {
                        err = Some((m, e));
                        failed.store(true, Ordering::Relaxed);
                        break;
                    }
                }
            }
            let mut out = outcome.lock().unwrap_or_else(PoisonError::into_inner);
            out.0.extend(local);
            if let Some((m, e)) = err {
                if out.1.as_ref().is_none_or(|(fm, _)| m < *fm) {
                    out.1 = Some((m, e));
                }
            }
        };
        if pool::run(workers - 1, &work) {
            let (mut done, first_err) =
                outcome.into_inner().unwrap_or_else(PoisonError::into_inner);
            if let Some((_, e)) = first_err {
                return Err(e);
            }
            // No error, so every range completed exactly once.
            done.sort_unstable_by_key(|(m, _)| *m);
            return Ok(done.into_iter().map(|(_, u)| u).collect());
        }
    }
    (0..n_morsels)
        .map(|m| {
            let (start, end) = range(m);
            f(start, end)
        })
        .collect()
}

/// The process-wide helper pool behind [`try_par_ranges`].
///
/// One job runs at a time. The caller *holds* the pool from publishing
/// its job until the last helper has left it; a call that finds the
/// pool held — nested inside a running job, or concurrent with another
/// thread's — gets `false` from [`run`] and runs its morsels inline.
/// Helpers are started lazily, never more than one call has asked for
/// (unpinned calls ask for at most `effective_parallelism() − 1`), and
/// park on a condition variable between jobs.
mod pool {
    use std::any::Any;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
    use std::thread;

    /// A published job as the helpers see it: the caller's borrowed
    /// worker loop with its lifetime erased (see [`run`]).
    type Job = &'static (dyn Fn() + Sync);

    struct Pool {
        /// Set while one caller's job holds the pool.
        held: AtomicBool,
        state: Mutex<State>,
        /// Signalled when a job is published; parked helpers wait on it.
        published: Condvar,
        /// Signalled when the last helper leaves a job; the caller
        /// waits on it.
        drained: Condvar,
    }

    struct State {
        /// The published job; `None` once the caller retracts it.
        job: Option<Job>,
        /// Helpers that may still join the published job.
        wanted: usize,
        /// Helpers inside the job right now.
        active: usize,
        /// Helper threads started so far.
        helpers: usize,
        /// The payload of a panic that escaped the job on a helper.
        panic: Option<Box<dyn Any + Send>>,
    }

    static POOL: Pool = Pool {
        held: AtomicBool::new(false),
        state: Mutex::new(State {
            job: None,
            wanted: 0,
            active: 0,
            helpers: 0,
            panic: None,
        }),
        published: Condvar::new(),
        drained: Condvar::new(),
    };

    /// Runs `job` on the calling thread alongside up to `helpers` pool
    /// helpers and returns `true` once every one of them has left it,
    /// re-raising a panic that escaped the job on any of them. Returns
    /// `false` without running `job` when the pool is held: the caller
    /// then does the work inline. `job` is a worker loop: any number of
    /// threads may run it at once, each returning when no work is left.
    pub(super) fn run(helpers: usize, job: &(dyn Fn() + Sync)) -> bool {
        // Acquire pairs with the Release that ends the previous holder's
        // job, so this holder starts after that one finished.
        if POOL.held.swap(true, Ordering::Acquire) {
            return false;
        }
        // SAFETY: `erased` is the same reference with its lifetime
        // widened to `'static`; it is dereferenced only by helpers, and
        // only while `job` is still borrowed by this call:
        // - the job is published under the lock, below;
        // - a helper joins only while the job is published, under the
        //   lock, counting itself in `active`, and counts itself out
        //   under the lock once it has returned from the job;
        // - this call retracts the job under the lock and then waits
        //   until `active` is zero before it returns;
        // - it does so also when its own share of the job panicked:
        //   `catch_unwind` holds that panic until the helpers are out,
        //   and only then resumes it.
        // So every use of `erased` happens before `run` returns, and the
        // borrow it came from outlives all of them.
        let erased: Job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync + '_), Job>(job) };
        {
            let mut st = lock();
            while st.helpers < helpers {
                // A helper that fails to start is simply absent; the
                // other workers run its morsels.
                if thread::Builder::new()
                    .name("bi-exec-helper".into())
                    .spawn(help)
                    .is_err()
                {
                    break;
                }
                st.helpers += 1;
            }
            st.job = Some(erased);
            st.wanted = helpers.min(st.helpers);
            for _ in 0..st.wanted {
                POOL.published.notify_one();
            }
        }
        let own = panic::catch_unwind(AssertUnwindSafe(job));
        let escaped = {
            let mut st = lock();
            st.job = None;
            st.wanted = 0;
            while st.active > 0 {
                st = POOL
                    .drained
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            st.panic.take()
        };
        POOL.held.store(false, Ordering::Release);
        if let Err(payload) = own {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = escaped {
            panic::resume_unwind(payload);
        }
        true
    }

    /// A helper thread's life: park until a job is published with room
    /// for it, run it, report out, repeat. A helper that rejoins the job
    /// it just left finds no morsel left and leaves at once. Helpers live
    /// as long as the process and catch whatever their job raises, so
    /// nothing is lost by never joining them.
    fn help() {
        let mut st = lock();
        loop {
            match st.job {
                Some(job) if st.wanted > 0 => {
                    st.wanted -= 1;
                    st.active += 1;
                    drop(st);
                    let ran = panic::catch_unwind(AssertUnwindSafe(job));
                    st = lock();
                    if let Err(payload) = ran {
                        st.panic.get_or_insert(payload);
                    }
                    st.active -= 1;
                    if st.active == 0 {
                        POOL.drained.notify_one();
                    }
                }
                _ => {
                    st = POOL
                        .published
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner)
                }
            }
        }
    }

    /// The pool state. No code panics while holding the lock, and every
    /// update leaves the state valid, so a poisoned lock is recovered.
    fn lock() -> MutexGuard<'static, State> {
        POOL.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Morsel width that keeps `workers × 8` morsels in flight for
/// element-wise maps — enough slack that uneven task costs balance out.
fn auto_morsel(cfg: &ExecConfig, len: usize) -> usize {
    len.div_ceil(cfg.workers_for(len).max(1) * 8).max(1)
}

/// Applies `f` to each element, returning outputs in input order.
pub fn par_map<T, U, F>(cfg: &ExecConfig, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let morsel = auto_morsel(cfg, items.len());
    par_chunks(cfg, items, morsel, |_, chunk| {
        chunk.iter().map(&f).collect::<Vec<U>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Fallible [`par_map`]; error discipline as in [`try_par_chunks`].
pub fn try_par_map<T, U, E, F>(cfg: &ExecConfig, items: &[T], f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(&T) -> Result<U, E> + Sync,
{
    let morsel = auto_morsel(cfg, items.len());
    Ok(try_par_chunks(cfg, items, morsel, |_, chunk| {
        chunk.iter().map(&f).collect::<Result<Vec<U>, E>>()
    })?
    .into_iter()
    .flatten()
    .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_to_the_fused_engine_at_one_thread() {
        assert_eq!(ExecConfig::default(), ExecConfig::columnar());
        assert!(ExecConfig::default().is_serial());
        assert!(ExecConfig::serial().is_serial());
        assert!(ExecConfig::with_threads(1).is_serial());
        assert!(ExecConfig::with_threads(0).threads >= 1);
        assert_eq!(ExecConfig::with_threads(8).threads, 8);
    }

    #[test]
    fn par_chunks_preserves_morsel_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 8] {
            // Pinned: exercise real workers even on single-core hosts.
            let cfg = ExecConfig::with_threads(threads).with_pinned_threads(true);
            let sums = par_chunks(&cfg, &items, 7, |off, chunk| {
                (off, chunk.iter().sum::<usize>())
            });
            let serial: Vec<(usize, usize)> = items
                .chunks(7)
                .enumerate()
                .map(|(i, c)| (i * 7, c.iter().sum()))
                .collect();
            assert_eq!(sums, serial, "threads={threads}");
        }
    }

    #[test]
    fn columnar_flag_composes_with_thread_counts() {
        assert!(!ExecConfig::serial().columnar);
        assert!(ExecConfig::columnar().columnar);
        assert!(ExecConfig::columnar().is_serial());
        let cfg = ExecConfig::with_threads(4).with_columnar(true);
        assert_eq!(cfg.threads, 4);
        assert!(cfg.columnar);
        assert!(!cfg.with_columnar(false).columnar);
    }

    #[test]
    fn par_ranges_covers_domain_in_order() {
        for threads in [1, 2, 8] {
            // Pinned: exercise real workers even on single-core hosts.
            let cfg = ExecConfig::with_threads(threads).with_pinned_threads(true);
            let ranges = par_ranges(&cfg, 1000, 64, |s, e| (s, e));
            let serial: Vec<(usize, usize)> = (0..1000usize.div_ceil(64))
                .map(|m| (m * 64, ((m + 1) * 64).min(1000)))
                .collect();
            assert_eq!(ranges, serial, "threads={threads}");
            assert!(par_ranges(&cfg, 0, 64, |s, e| (s, e)).is_empty());
        }
    }

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<i64> = (-500..500).collect();
        let serial: Vec<i64> = items.iter().map(|x| x * x - 1).collect();
        for threads in [1, 2, 8] {
            // Pinned: exercise real workers even on single-core hosts.
            let cfg = ExecConfig::with_threads(threads).with_pinned_threads(true);
            assert_eq!(par_map(&cfg, &items, |x| x * x - 1), serial);
        }
    }

    #[test]
    fn try_par_map_reports_first_error() {
        let items: Vec<i64> = (0..10_000).collect();
        for threads in [1, 2, 8] {
            // Pinned: exercise real workers even on single-core hosts.
            let cfg = ExecConfig::with_threads(threads).with_pinned_threads(true);
            let r: Result<Vec<i64>, String> = try_par_map(&cfg, &items, |&x| {
                if x >= 137 {
                    Err(format!("boom at {x}"))
                } else {
                    Ok(x)
                }
            });
            // With morsels claimed in order and the lowest-indexed failure
            // reported, the error is stable across thread counts.
            assert_eq!(r.unwrap_err(), "boom at 137", "threads={threads}");
            let ok: Result<Vec<i64>, String> = try_par_map(&cfg, &items, |&x| Ok(x + 1));
            assert_eq!(ok.unwrap(), (1..=10_000).collect::<Vec<i64>>());
        }
    }

    #[test]
    fn try_par_ranges_reports_lowest_index_error() {
        for threads in [1, 2, 8] {
            // Pinned: exercise real workers even on single-core hosts.
            let cfg = ExecConfig::with_threads(threads).with_pinned_threads(true);
            let r: Result<Vec<usize>, String> = try_par_ranges(&cfg, 10_000, 64, |s, e| {
                if s >= 4096 {
                    Err(format!("boom at {s}"))
                } else {
                    Ok(e - s)
                }
            });
            assert_eq!(r.unwrap_err(), "boom at 4096", "threads={threads}");
            let ok: Result<Vec<(usize, usize)>, ()> =
                try_par_ranges(&cfg, 1000, 64, |s, e| Ok((s, e)));
            let serial: Vec<(usize, usize)> = (0..1000usize.div_ceil(64))
                .map(|m| (m * 64, ((m + 1) * 64).min(1000)))
                .collect();
            assert_eq!(ok.unwrap(), serial, "threads={threads}");
            let none: Result<Vec<usize>, ()> = try_par_ranges(&cfg, 0, 64, |s, _| Ok(s));
            assert!(none.unwrap().is_empty());
        }
    }

    #[test]
    fn worker_panics_keep_their_payload() {
        for threads in [1, 2, 8] {
            // Pinned: exercise real workers even on single-core hosts.
            let cfg = ExecConfig::with_threads(threads).with_pinned_threads(true);
            let caught = std::panic::catch_unwind(|| {
                par_ranges(&cfg, 1000, 64, |s, _| {
                    if s == 512 {
                        std::panic::panic_any(s);
                    }
                    s
                })
            });
            let payload = caught.unwrap_err();
            assert_eq!(
                payload.downcast_ref::<usize>(),
                Some(&512),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn pipeline_flag_defaults_on_and_composes() {
        assert!(ExecConfig::serial().pipeline);
        assert!(ExecConfig::columnar().pipeline);
        let cfg = ExecConfig::columnar().with_pipeline(false);
        assert!(!cfg.pipeline);
        assert!(cfg.columnar);
        // The flag participates in config equality (it changes which
        // engine runs, even though results are byte-identical).
        assert_ne!(
            ExecConfig::columnar(),
            ExecConfig::columnar().with_pipeline(false)
        );
    }

    #[test]
    fn empty_inputs_are_fine() {
        let none: Vec<u32> = Vec::new();
        let cfg = ExecConfig::with_threads(4);
        assert!(par_map(&cfg, &none, |x| *x).is_empty());
        assert!(par_chunks(&cfg, &none, 16, |_, c| c.len()).is_empty());
        let r: Result<Vec<u32>, ()> = try_par_map(&cfg, &none, |x| Ok(*x));
        assert!(r.unwrap().is_empty());
    }

    #[test]
    fn nested_fan_out_stays_within_the_host_cores() {
        // Unpinned, as production runs it: a batch whose every render
        // fans out again. Inner calls run inline on the outer call's
        // workers, so no more bodies run at once than the host has
        // cores, however deep the calls nest.
        let cfg = ExecConfig::auto();
        let running = AtomicUsize::new(0);
        let high = AtomicUsize::new(0);
        let out = par_ranges(&cfg, 8, 1, |outer, _| {
            par_ranges(&cfg, 8, 1, |inner, _| {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                high.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(1));
                running.fetch_sub(1, Ordering::SeqCst);
                outer * 8 + inner
            })
        });
        let serial: Vec<Vec<usize>> = (0..8)
            .map(|outer| (0..8).map(|inner| outer * 8 + inner).collect())
            .collect();
        assert_eq!(out, serial);
        let high = high.load(Ordering::SeqCst);
        assert!(
            high <= effective_parallelism(),
            "{high} inner bodies ran at once on {} cores",
            effective_parallelism()
        );
    }

    #[test]
    fn effective_threads_clamps_by_host_cores() {
        let cores = effective_parallelism();
        assert!(cores >= 1);
        // Unpinned: the host clamp applies.
        assert_eq!(ExecConfig::with_threads(1).effective_threads(), 1);
        assert_eq!(
            ExecConfig::with_threads(usize::MAX).effective_threads(),
            cores
        );
        // Pinned: the request is exact, regardless of hardware.
        let pinned = ExecConfig::with_threads(8).with_pinned_threads(true);
        assert_eq!(pinned.effective_threads(), 8);
    }
}
