//! Order statistics, and what the host was doing during a run, so a
//! noisy run can be told apart from a regression.

/// The `q`-quantile (`0..=1`) of `values` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of p99, p95, p90, p75 and p50 that has at least
/// ten samples beyond it, as `(percentile, value)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let p = [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (p, quantile(values, p / 100.0))
}

/// Aggregate CPU time counters from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    total: u64,
    idle: u64,
    steal: u64,
    /// This process's user plus system time, in clock ticks.
    process: u64,
}

impl CpuTimes {
    /// Reads `/proc/stat` (all zero where it is unavailable).
    pub fn read() -> CpuTimes {
        let Ok(text) = std::fs::read_to_string("/proc/stat") else {
            return CpuTimes::default();
        };
        let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTimes::default();
        };
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already counted in user.
        let f: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|x| x.parse().ok())
            .collect();
        let at = |i: usize| f.get(i).copied().unwrap_or(0);
        CpuTimes {
            total: (0..8).map(at).sum(),
            idle: at(3) + at(4),
            steal: at(7),
            process: process_ticks(),
        }
    }

    /// CPU seconds this process used between `earlier` and `self`
    /// (assuming the usual 100 clock ticks per second).
    pub fn process_s_since(&self, earlier: &CpuTimes) -> f64 {
        self.process.saturating_sub(earlier.process) as f64 / 100.0
    }

    /// Shares of host CPU time that were stolen by the hypervisor and
    /// idle between `earlier` and `self`, as `(steal, idle)`.
    pub fn shares_since(&self, earlier: &CpuTimes) -> (f64, f64) {
        let total = self.total.saturating_sub(earlier.total).max(1) as f64;
        (
            self.steal.saturating_sub(earlier.steal) as f64 / total,
            self.idle.saturating_sub(earlier.idle) as f64 / total,
        )
    }
}

/// User plus system clock ticks of this process (`/proc/self/stat`
/// fields 14 and 15; 0 where unavailable).
fn process_ticks() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The command name (field 2) may hold spaces; count from its `)`.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let f: Vec<u64> = after
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v).0, 99.0);
        assert_eq!(tail(&v[..200]).0, 95.0);
        assert_eq!(tail(&v[..15]).0, 50.0);
    }
}
