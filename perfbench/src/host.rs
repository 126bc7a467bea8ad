//! Host readings from `/proc`: memory high-water mark, the CPU time the
//! hypervisor steals, which the end-to-end timings are taken net of, and
//! the noise diagnostics printed beside each run (CPU steal share, load
//! average), which let a run on a contended host be spotted.

use std::time::Instant;

/// Clock ticks per second of the `/proc/stat` counters (Linux's `USER_HZ`).
const USER_HZ: f64 = 100.0;

/// Aggregate CPU time counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Read the counters now, or `None` where `/proc/stat` is unavailable.
    pub fn read() -> Option<CpuTimes> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        parse_cpu_line(stat.lines().next()?)
    }

    /// Share of CPU time stolen by the hypervisor between `self` and the
    /// later reading `end`.
    pub fn steal_share(self, end: CpuTimes) -> f64 {
        let total = end.total.saturating_sub(self.total);
        if total == 0 {
            0.0
        } else {
            end.steal.saturating_sub(self.steal) as f64 / total as f64
        }
    }
}

/// CPU time the hypervisor has stolen from all CPUs since boot, in
/// seconds, or 0 where `/proc/stat` is unavailable.
pub fn stolen_s() -> f64 {
    CpuTimes::read().map_or(0.0, |t| t.steal as f64 / USER_HZ)
}

/// Run `f` and return its result, its wall time and the CPU time the
/// hypervisor stole from all CPUs meanwhile, both in seconds. The counter
/// ticks every 10 ms of stolen time, so one sample's figure is off by up
/// to a tick per CPU, and the error does not accumulate across samples.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let stolen = stolen_s();
    let began = Instant::now();
    let out = f();
    let wall_s = began.elapsed().as_secs_f64();
    (out, wall_s, stolen_s() - stolen)
}

/// Parse `cpu  user nice system idle iowait irq softirq steal ...`. Guest
/// time is already counted in user time, so only the first eight fields
/// add up to the total.
fn parse_cpu_line(line: &str) -> Option<CpuTimes> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let values: Vec<u64> = fields.take(8).map(str::parse).collect::<Result<_, _>>().ok()?;
    (values.len() == 8).then(|| CpuTimes { total: values.iter().sum(), steal: values[7] })
}

/// One-minute load average.
pub fn loadavg_1m() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg").ok()?.split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_uses_the_eighth_counter() {
        let a = parse_cpu_line("cpu  100 0 50 800 10 0 0 40 0 0").unwrap();
        let b = parse_cpu_line("cpu  200 0 100 1600 20 0 0 80 30 0").unwrap();
        assert!((a.steal_share(b) - 40.0 / 1000.0).abs() < 1e-12);
        assert!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8").is_none());
        assert!(parse_cpu_line("cpu 1 2 3").is_none());
    }

    #[test]
    fn host_readings_are_available_on_linux() {
        assert!(CpuTimes::read().is_some());
        let (out, wall_s, stolen_s) = timed(|| 7);
        assert_eq!(out, 7);
        assert!(wall_s >= 0.0 && stolen_s >= 0.0);
        assert!(loadavg_1m().is_some_and(|l| l >= 0.0));
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
