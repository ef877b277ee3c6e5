//! Small shared pieces: the seeded generator, percentiles, process memory
//! and CPU readings, and the metric list a workload hands back.

use std::time::{Duration, Instant};

/// xorshift64* seeded through splitmix64: the same seed gives the same
/// stream on every host, and the engine never sees the generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `0..n` as an `i64`.
    pub fn int(&mut self, n: i64) -> i64 {
        self.below(n as u64) as i64
    }
}

/// Nearest-rank percentile of an unsorted sample, in the sample's unit.
/// Failed operations enter a sample as infinity: they miss every limit.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The tail percentile a sample of `n` supports: the highest of p99, p95,
/// p90, p75 with at least ten samples beyond it (the median below that).
pub fn tail_percentile(n: usize) -> f64 {
    [0.99, 0.95, 0.9, 0.75]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p) >= 10.0)
        .unwrap_or(0.5)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The median, or 0 for an empty sample: a layer the run did not exercise.
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds between two instants (0 when `b` precedes `a`).
pub fn us_between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e6
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time (user + system, all threads, exited ones included) this
/// process has used, in seconds, in nanosecond resolution. Time the host
/// gives to other tenants does not count, so per-operation CPU cost is
/// steadier than wall time.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call to fill.
    match unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } {
        0 => ts.sec as f64 + ts.nsec as f64 / 1e9,
        _ => f64::NAN,
    }
}

/// CPU time of the calling thread in seconds, in nanosecond resolution.
pub fn thread_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |ns| ns / 1e9)
}

/// Set-up repetitions: thread CPU time and wall time of each.
#[derive(Default)]
pub struct SetupTimes {
    cpu: Vec<f64>,
    wall: Vec<f64>,
}

impl SetupTimes {
    /// Run `setup` `times` times and return the last result. Earlier
    /// results are dropped before the next run starts, so only one set-up
    /// is alive at a time. Set-up runs on the calling thread, so its CPU
    /// time is that thread's.
    pub fn run<T>(&mut self, times: usize, mut setup: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..times {
            drop(last.take());
            let (c0, t0) = (thread_cpu_seconds(), Instant::now());
            last = Some(setup());
            self.cpu.push(thread_cpu_seconds() - c0);
            self.wall.push(t0.elapsed().as_secs_f64());
        }
        last.expect("times > 0")
    }

    /// The smallest CPU time, in seconds: the set-up's cost on a quiet
    /// host. A busy host (other tenants, cache and frequency contention)
    /// can only make a repetition slower, and its slow spells last
    /// seconds, so workloads repeat set-up both before and after the
    /// measured phase.
    pub fn cpu_s(&self) -> f64 {
        self.cpu.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The median wall time, in seconds.
    pub fn wall_s(&self) -> f64 {
        median(&self.wall)
    }
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness gates that failed, with the reason.
    pub violations: Vec<String>,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable report lines, printed before the result line.
    pub report: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    pub fn line(&mut self, text: String) {
        self.report.push(text);
    }

    /// Record a correctness gate: `ok` or the failure message.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}
