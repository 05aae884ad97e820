//! Small statistics and process-introspection helpers shared by the
//! workloads.

use std::time::Instant;

/// Nearest-rank percentile of an ascending-sorted sample; 0 on an empty one
/// (the same definition `DriverSummary` and `SimReport` use).
pub(crate) fn percentile(sorted: &[f64], p: u64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() as u64 * p)
        .div_ceil(100)
        .clamp(1, sorted.len() as u64);
    sorted[rank as usize - 1]
}

/// Sorts a sample and returns its nearest-rank percentile.
pub(crate) fn percentile_of(mut sample: Vec<f64>, p: u64) -> f64 {
    sample.sort_by(f64::total_cmp);
    percentile(&sample, p)
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of a non-empty sample after dropping its lowest and highest
/// quarter (`len / 4` values from each end). Uses every middle value, so it
/// settles faster than the median on the few timed repetitions a run fits,
/// while one run slowed by other work on the host still cannot move it far.
pub(crate) fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Quartiles `[q1, q2, q3]` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them. Needs at least two values.
pub(crate) fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// `num / den`, 0 on an empty denominator.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// CPU time (user + system) in milliseconds that the process's live
/// threads have used, summed from `/proc/self/task/*/schedstat`
/// (nanosecond resolution). Threads that already exited are not counted,
/// so callers take both readings of an interval while every thread that
/// ran in it is still alive.
pub(crate) fn cpu_ms() -> f64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task is readable");
    let mut nanos: u64 = 0;
    for task in tasks.flatten() {
        // A thread may exit between listing and reading: skip it.
        if let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) {
            let on_cpu = stat
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok());
            nanos += on_cpu.expect("schedstat starts with the on-CPU nanoseconds");
        }
    }
    nanos as f64 / 1e6
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub(crate) fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .expect("VmHWM line in /proc/self/status")
}

/// Wall time and CPU time of one measured phase.
pub(crate) struct Stopwatch {
    wall: Instant,
    cpu_ms: f64,
}

impl Stopwatch {
    pub(crate) fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu_ms: cpu_ms(),
        }
    }

    /// `(wall seconds, CPU milliseconds)` since [`Stopwatch::start`].
    pub(crate) fn read(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), cpu_ms() - self.cpu_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[9.0, 1.0, 2.0, 3.0, 100.0]), 14.0 / 3.0);
        assert_eq!(interquartile_mean(&[4.0, 2.0, 3.0]), 3.0);
        assert_eq!(interquartile_mean(&[5.0]), 5.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&[], 99), 0.0);
    }
}
