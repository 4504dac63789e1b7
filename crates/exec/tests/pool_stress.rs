//! Stress tests for the persistent helper pool behind `try_par_ranges`.
//!
//! Every output is compared with the serial left-to-right loop. The
//! tests in this file take turns (`TURN`), so a test that needs the
//! pool's helpers finds the pool free; only the concurrency test shares
//! it, on purpose. No configuration asks for more than 8 workers.

use std::any::Any;
use std::collections::HashSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use bi_exec::{par_ranges, try_par_ranges, ExecConfig};

static TURN: Mutex<()> = Mutex::new(());

fn take_turn() -> std::sync::MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

fn pinned(threads: usize) -> ExecConfig {
    ExecConfig::with_threads(threads).with_pinned_threads(true)
}

/// xorshift64: the tests' reproducible randomness.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

fn serial_ranges(len: usize, morsel: usize) -> Vec<(usize, usize)> {
    (0..len.div_ceil(morsel))
        .map(|m| (m * morsel, ((m + 1) * morsel).min(len)))
        .collect()
}

/// Spins until `done` holds, failing the test after 10 s: a barrier
/// that cannot hang the suite when a worker never arrives.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::yield_now();
    }
}

/// One round of every call shape on `cfg`, each checked against the
/// serial loop: plain ranges, an error at a random morsel, and a
/// fan-out nested inside each morsel.
fn one_round(cfg: &ExecConfig, rng: &mut Rng) {
    let len = rng.below(5_000);
    let morsel = 1 + rng.below(400);
    let serial = serial_ranges(len, morsel);

    let got = par_ranges(cfg, len, morsel, |s, e| (s, e));
    assert_eq!(got, serial, "ranges len={len} morsel={morsel}");

    if !serial.is_empty() {
        let bad = rng.below(serial.len());
        let r: Result<Vec<usize>, usize> = try_par_ranges(cfg, len, morsel, |s, e| {
            if s / morsel >= bad && (s / morsel - bad).is_multiple_of(3) {
                Err(s / morsel)
            } else {
                Ok(e - s)
            }
        });
        assert_eq!(
            r,
            Err(bad),
            "lowest failing morsel len={len} morsel={morsel}"
        );
    }

    let inner_len = rng.below(600);
    let nested = par_ranges(cfg, 8, 1, |outer, _| {
        par_ranges(cfg, inner_len, 16, |s, e| outer * 1_000_000 + s * 1_000 + e)
    });
    let expect: Vec<Vec<usize>> = (0..8)
        .map(|outer| {
            serial_ranges(inner_len, 16)
                .into_iter()
                .map(|(s, e)| outer * 1_000_000 + s * 1_000 + e)
                .collect()
        })
        .collect();
    assert_eq!(nested, expect, "nested inner_len={inner_len}");
}

#[test]
fn concurrent_callers_match_the_serial_loop() {
    let _turn = take_turn();
    // Four callers share the pool: one holds it, the rest run inline,
    // and every call still matches the serial loop. No call asks for
    // more than 3 helpers, so at most 4 + 3 threads run morsels at once.
    let configs = [
        ExecConfig::with_threads(4),
        pinned(2),
        pinned(4),
        ExecConfig::serial(),
    ];
    thread::scope(|s| {
        for caller in 0..4u64 {
            let configs = &configs;
            s.spawn(move || {
                let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ (caller + 1));
                for _ in 0..1_000 {
                    let cfg = &configs[rng.below(configs.len())];
                    one_round(cfg, &mut rng);
                }
            });
        }
    });
}

#[test]
fn pinned_eight_runs_eight_workers_on_any_host() {
    let _turn = take_turn();
    let cfg = pinned(8);
    let mut rng = Rng(8);
    for _ in 0..200 {
        one_round(&cfg, &mut rng);
    }
    // The first eight morsels wait for one another, so they can only
    // finish on eight distinct threads: the caller and seven helpers.
    let arrived = AtomicUsize::new(0);
    let ids: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
    let got = par_ranges(&cfg, 64, 1, |s, _| {
        if s < 8 {
            ids.lock().unwrap().push(thread::current().id());
            arrived.fetch_add(1, Ordering::SeqCst);
            wait_until("eight workers", || arrived.load(Ordering::SeqCst) >= 8);
        }
        s
    });
    assert_eq!(got, (0..64).collect::<Vec<_>>());
    let distinct: HashSet<ThreadId> = ids.into_inner().unwrap().into_iter().collect();
    assert_eq!(distinct.len(), 8);
}

#[derive(Debug, PartialEq)]
struct Payload(&'static str);

fn payload_of(caught: Box<dyn Any + Send>) -> Payload {
    match caught.downcast::<Payload>() {
        Ok(p) => *p,
        Err(other) => panic::resume_unwind(other),
    }
}

#[test]
fn a_helper_panic_keeps_its_payload() {
    let _turn = take_turn();
    let cfg = pinned(2);
    let caller = thread::current().id();
    let helper_in = AtomicUsize::new(0);
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        par_ranges(&cfg, 16, 1, |s, _| {
            if thread::current().id() == caller {
                // Hold the caller here until the helper has a morsel.
                wait_until("the helper", || helper_in.load(Ordering::SeqCst) > 0);
            } else if helper_in.fetch_add(1, Ordering::SeqCst) == 0 {
                panic::panic_any(Payload("helper"));
            }
            s
        })
    }));
    assert_eq!(payload_of(caught.unwrap_err()), Payload("helper"));
    // The pool is free and whole again afterwards.
    assert_eq!(
        par_ranges(&cfg, 100, 7, |s, e| (s, e)),
        serial_ranges(100, 7)
    );
}

#[test]
fn a_caller_panic_surfaces_only_after_every_helper_finished() {
    let _turn = take_turn();
    let cfg = pinned(8);
    let caller = thread::current().id();
    let started = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        par_ranges(&cfg, 32, 1, |s, _| {
            if thread::current().id() == caller {
                wait_until("a helper", || started.load(Ordering::SeqCst) > 0);
                panic::panic_any(Payload("caller"));
            }
            started.fetch_add(1, Ordering::SeqCst);
            thread::sleep(Duration::from_millis(5));
            // Borrowed from the test's frame: the caller must not leave
            // `par_ranges` while a helper can still reach it.
            finished.fetch_add(1, Ordering::SeqCst);
            s
        })
    }));
    // Read right after the panic arrives, before anything could wait.
    let (started, finished) = (
        started.load(Ordering::SeqCst),
        finished.load(Ordering::SeqCst),
    );
    assert_eq!(payload_of(caught.unwrap_err()), Payload("caller"));
    assert!(started > 0);
    assert_eq!(finished, started, "a helper was still inside the job");
    assert_eq!(
        par_ranges(&cfg, 100, 7, |s, e| (s, e)),
        serial_ranges(100, 7)
    );
}
