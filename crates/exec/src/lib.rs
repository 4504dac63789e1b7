//! # bi-exec — std-only morsel-driven parallel execution substrate
//!
//! The crate registry is unreachable in this build environment, so there
//! is no `rayon`; this is the minimal scoped-thread-pool substrate the
//! rest of the stack shares. The design follows the morsel-driven
//! parallelism of Leis et al.: inputs are split into contiguous *morsels*
//! (cache-friendly chunks), idle workers claim the next morsel from an
//! atomic counter, and per-morsel outputs are reassembled **in morsel
//! order**, so a parallel run produces exactly the same output as the
//! serial left-to-right loop it replaces.
//!
//! Everything shared between workers is borrowed (`&[T]`, `&F`) under
//! [`std::thread::scope`]; the data layer's `Arc`-backed tables and
//! `Arc<CombinedPolicy>` snapshots make those borrows cheap and `Sync`.
//!
//! Invariants every helper upholds:
//!
//! * **Determinism** — outputs are ordered by morsel index, never by
//!   completion order. `threads = 1` (the default) runs inline on the
//!   caller's thread with no pool at all, byte-identical to a plain loop.
//! * **Error discipline** — the `try_*` variants cancel outstanding
//!   morsels and return the error of the *lowest-indexed* failing morsel,
//!   matching what the serial loop would have reported first.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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
    /// the clamp would otherwise run every loop inline.
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

    /// Threads the morsel helpers actually spawn: the requested count
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

    /// Builder: the same execution shape with a different bound on the
    /// version-keyed column chunk cache. `0` disables caching.
    pub fn with_chunk_cache_capacity(self, chunk_cache_capacity: usize) -> Self {
        ExecConfig {
            chunk_cache_capacity,
            ..self
        }
    }

    /// True when this configuration runs everything inline.
    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }

    /// Workers actually worth spawning for `tasks` units of work:
    /// effective threads (host-clamped unless pinned), never more than
    /// the tasks. Spawning past the hardware buys contention, not
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
/// it. Workers claim range indices from a shared counter in increasing
/// order, so when range `m` fails every lower range has been claimed and
/// runs to completion: the lowest failing index is always observed. A
/// worker panic is re-raised on the caller's thread with its original
/// payload once every worker has stopped.
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
    if workers <= 1 {
        return (0..n_morsels)
            .map(|m| {
                let (start, end) = range(m);
                f(start, end)
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let mut done: Vec<(usize, U)> = Vec::with_capacity(n_morsels);
    let mut first_err: Option<(usize, E)> = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
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
                    (local, err)
                })
            })
            .collect();
        for h in handles {
            // A worker fails only by panicking inside `f`; the scope
            // joins the others before the panic leaves it.
            let (local, err) = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            done.extend(local);
            if let Some((m, e)) = err {
                if first_err.as_ref().is_none_or(|(fm, _)| m < *fm) {
                    first_err = Some((m, e));
                }
            }
        }
    });
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    // No error, so every range completed exactly once.
    done.sort_unstable_by_key(|(m, _)| *m);
    Ok(done.into_iter().map(|(_, u)| u).collect())
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
