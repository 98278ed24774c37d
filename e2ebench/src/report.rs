//! Correctness checks and metrics of one run, and the JSON line that ends
//! the benchmark's standard output.

use std::fmt::Write as _;

/// Checks attempted and failed, and the metrics measured so far.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    /// Description of every failed check, in order.
    pub failures: Vec<String>,
    /// (name, value, unit), in the order measured.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Counts one check; a false `ok` records `what` as a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Checks `a == b`, naming both in the failure.
    pub fn check_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, a: T, b: T) {
        let ok = a == b;
        self.check(ok, || format!("{what}: {a:?} != {b:?}"));
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
    /// Non-finite values are written as `null`, which fails any consumer
    /// that expects a number, rather than as an invented value.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len()
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let v = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Median of `xs` (mean of the middle two for an even count); NaN if empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1, nearest rank) of `xs`, sorting it in place;
/// NaN if empty.
pub fn quantile(xs: &mut [u32], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len()) - 1;
    let (_, v, _) = xs.select_nth_unstable(rank);
    f64::from(*v)
}

/// CPU time used so far by this process, in seconds.
///
/// On a shared host this is the clock the throughput and set-up metrics
/// use: unlike wall time it leaves out the time the kernel ran other
/// processes on this CPU, and (with paravirtual steal-time accounting, as
/// on KVM guests) the time the hypervisor gave this virtual CPU to other
/// guests. Cache and memory-bandwidth contention still show, as they slow
/// the process while it runs. Elsewhere than 64-bit Linux it falls back to
/// wall time since the first call.
pub fn cpu_seconds() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable timespec with the C layout of
        // 64-bit Linux; clock_gettime writes only through that pointer.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        if rc != 0 {
            return f64::NAN;
        }
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
        START
            .get_or_init(std::time::Instant::now)
            .elapsed()
            .as_secs_f64()
    }
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.check(false, || "boom".into());
        r.metric("a_s", 1.5, "s");
        let j = r.to_json();
        assert_eq!(
            j,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut xs: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile(&mut xs, 0.5), 50.0);
        assert_eq!(quantile(&mut xs, 0.99), 99.0);
    }
}
