//! Criterion targets live in `benches/`, the gated micro-bench binaries
//! in `src/bin/`. This library holds what the binaries share: the
//! host-speed [`Control`].

use std::time::Instant;

/// Elements the host-speed control sorts.
const CONTROL_LEN: usize = 10_000;

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
        median(&mut ms)
    }
}

impl Default for Control {
    fn default() -> Self {
        Self::new()
    }
}

/// The median of `xs` (the upper one for an even count); NaN when
/// `xs` is empty.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs.get(xs.len() / 2).copied().unwrap_or(f64::NAN)
}
