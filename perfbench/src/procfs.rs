//! Process CPU time and peak memory from `/proc`, with no dependencies.
//!
//! `/proc/self/stat` counts the CPU time of every thread the process ever
//! ran, including threads already joined — summing per-task counters
//! under `/proc/self/task` would miss those.

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every Linux ABI).
const TICKS_PER_SEC: f64 = 100.0;

/// User plus system CPU seconds of this process, all threads included.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime") as f64 / TICKS_PER_SEC
}

/// utime + stime in ticks: fields 14 and 15, counted after the `(comm)`
/// field, which may itself hold spaces.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident memory (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_kib(&status).expect("/proc/self/status has VmHWM") as f64 / 1024.0
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_and_status() {
        let stat = "42 (a (b) c) S 1 2 3 4 5 6 7 8 9 10 250 31 0 0 20 0 3 0 9";
        assert_eq!(parse_cpu_ticks(stat), Some(281));
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2_048));
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
