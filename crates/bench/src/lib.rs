//! Criterion targets live in `benches/`, the gated micro-bench
//! `bench_gates` in `src/bin/`. This library holds its timing routine:
//! the host-speed [`Control`] and [`Control::time`], which every timing
//! of the binary goes through.

#![forbid(unsafe_code)]

use std::time::Instant;

/// Elements the host-speed control sorts.
const CONTROL_LEN: usize = 10_000;

/// Control passes after each timed round; their median is that round's
/// control time.
const CONTROL_SAMPLES: usize = 20;

/// The host-speed control: fill a fixed buffer with the same
/// pseudo-random values and sort it. The work depends on nothing in the
/// repository and allocates nothing once built, so only the host's
/// speed moves its time. A bench records it next to each timing, and a
/// gate compares `time / control` across runs instead of raw times, so
/// a slower or busier host does not read as a slower program.
pub struct Control {
    buf: Vec<u64>,
}

impl Control {
    pub fn new() -> Control {
        let mut c = Control {
            buf: vec![0; CONTROL_LEN],
        };
        // Untimed: the first pass faults the buffer's pages in.
        c.run();
        c
    }

    fn run(&mut self) {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for v in &mut self.buf {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = x;
        }
        self.buf.sort_unstable();
        std::hint::black_box(&self.buf);
    }

    /// The median time of `samples` passes, in milliseconds.
    pub fn median_ms(&mut self, samples: usize) -> f64 {
        let mut ms: Vec<f64> = (0..samples.max(1))
            .map(|_| {
                let t = Instant::now();
                self.run();
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        Spread::of(&mut ms).median
    }

    /// Times `N` variants of a path over `rounds` rounds, after one
    /// untimed warm-up round. Each round runs every variant once, on a
    /// fresh `prepare(variant)` input and in an order that rotates from
    /// round to round, and is followed by the control; so variants that
    /// a gate compares see the same host. Only `run` is on the clock:
    /// building its input and dropping what it returns are not. Returns
    /// each variant's timing and its last output, for the caller to
    /// check.
    pub fn time<const N: usize, S, T>(
        &mut self,
        rounds: usize,
        mut prepare: impl FnMut(usize) -> S,
        mut run: impl FnMut(S) -> T,
    ) -> [(Timing, T); N] {
        let mut outs: [Option<T>; N] = std::array::from_fn(|v| Some(run(prepare(v))));
        let mut ms = vec![Vec::new(); N];
        let (mut control_ms, mut ratios) = (Vec::new(), vec![Vec::new(); N]);
        for round in 0..rounds.max(1) {
            let mut round_ms = [0.0; N];
            for v in (0..N).map(|i| (round + i) % N) {
                let input = prepare(v);
                let t = Instant::now();
                let out = std::hint::black_box(run(input));
                round_ms[v] = t.elapsed().as_secs_f64() * 1e3;
                outs[v] = Some(out);
            }
            let control = self.median_ms(CONTROL_SAMPLES);
            control_ms.push(control);
            for v in 0..N {
                ms[v].push(round_ms[v]);
                ratios[v].push(round_ms[v] / control);
            }
        }
        let control_ms = Spread::of(&mut control_ms);
        std::array::from_fn(|v| {
            let timing = Timing {
                rounds_ms: ms[v].clone(),
                ms: Spread::of(&mut ms[v]),
                control_ms,
                ratio: Spread::of(&mut ratios[v]).median,
            };
            (timing, outs[v].take().expect("every variant ran"))
        })
    }
}

impl Default for Control {
    fn default() -> Self {
        Self::new()
    }
}

/// One path's rounds: its time and the control's, and the path's time
/// in host-speed units.
#[derive(Clone, Debug)]
pub struct Timing {
    /// Each round's time, in round order: variants timed together can
    /// be compared round by round.
    pub rounds_ms: Vec<f64>,
    pub ms: Spread,
    pub control_ms: Spread,
    /// The median over rounds of the round's time divided by the
    /// control right after it. Gates compare this across runs.
    pub ratio: f64,
}

/// Median and quartiles of a sample.
#[derive(Clone, Copy, Debug)]
pub struct Spread {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Spread {
    /// Sorts `xs` and reads its quartiles at ranks n/4, n/2 (the upper
    /// median for an even count) and 3n/4; NaN when `xs` is empty.
    pub fn of(xs: &mut [f64]) -> Spread {
        xs.sort_by(f64::total_cmp);
        let at = |i: usize| xs.get(i).copied().unwrap_or(f64::NAN);
        let n = xs.len();
        Spread {
            q1: at(n / 4),
            median: at(n / 2),
            q3: at(3 * n / 4),
        }
    }
}
