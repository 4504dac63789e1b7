//! Measurement helpers shared by every workload: the repetition loop,
//! order statistics, peak RSS and the one-line JSON result the
//! benchmark ends with.

use std::time::{Duration, Instant};

/// Runs `rep` until `budget` has elapsed and at least `min_reps`
/// repetitions are done, stopping at the first error. Every repetition
/// does a fixed amount of work, so memory per repetition does not
/// depend on how fast the host is; only the number of repetitions does.
pub fn repeat<T, E>(
    budget: Duration,
    min_reps: usize,
    mut rep: impl FnMut() -> Result<T, E>,
) -> Result<Vec<T>, E> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || start.elapsed() < budget {
        out.push(rep()?);
    }
    Ok(out)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Elements the host-speed control sorts.
const CONTROL_LEN: usize = 10_000;

/// The control's median on the reference host, an idle 2-vCPU Xeon VM
/// at 2.1 GHz. An end-to-end time is scaled by this over the control
/// sample taken right after it, so it reads as that host's time and a
/// slower or busier host does not show as a slower program.
pub const CONTROL_REF_MS: f64 = 0.14;

/// The host-speed control: fill a fixed buffer with the same
/// pseudo-random values and sort it. The work depends on nothing in the
/// repository and allocates nothing once built, so only the host's
/// speed moves its time.
pub struct Control {
    buf: Vec<u64>,
    samples_ms: Vec<f64>,
}

impl Control {
    pub fn new() -> Control {
        let mut c = Control {
            buf: vec![0; CONTROL_LEN],
            samples_ms: Vec::new(),
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

    /// Times one more pass and returns its time.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        self.run();
        let ms = ms_since(t);
        self.samples_ms.push(ms);
        ms
    }

    /// Median time of one pass over every sample taken.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples_ms)
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of `xs`; 0 for no samples.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Checked operations, and how many failed their check.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), when the
/// platform exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}`, correct when no check
/// failed. Values keep every digit `f64` formatting gives; a non-finite
/// value is a bug in the benchmark and panics rather than printing
/// invalid JSON.
pub fn result_json(tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&xs), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&xs, 0.5), 5.0);
        assert_eq!(percentile(&xs, 0.9), 9.0);
        assert_eq!(percentile(&xs, 1.0), 10.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn repeat_meets_minimum_and_budget() {
        let mut n = 0;
        let reps = repeat(Duration::ZERO, 3, || -> Result<i32, ()> {
            n += 1;
            Ok(n)
        });
        assert_eq!(reps, Ok(vec![1, 2, 3]));
        let reps = repeat(Duration::from_millis(5), 1, || -> Result<(), ()> {
            std::thread::sleep(Duration::from_millis(1));
            Ok(())
        });
        assert!(reps.unwrap().len() >= 2);
        assert_eq!(
            repeat(Duration::ZERO, 3, || Err::<(), _>("boom")),
            Err("boom")
        );
    }

    #[test]
    fn json_line_shape() {
        let mut tally = Tally::default();
        tally.check(true);
        let line = result_json(tally, &[Metric::new("setup_s", 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
