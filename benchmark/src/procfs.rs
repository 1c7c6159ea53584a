//! CPU time and peak memory of this process, read from `/proc`.

use std::fs;

/// `/proc/<pid>/stat` reports times in clock ticks of `USER_HZ`, which
/// Linux fixes at 100 for every architecture it exposes to user space.
pub const NS_PER_TICK: f64 = 1e9 / 100.0;

/// `utime + stime + cutime + cstime` of a `/proc/<pid>/stat` line, in
/// clock ticks: this process plus every child it has reaped.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    // The command name (field 2) may itself hold spaces and parentheses;
    // the fixed fields start after its *last* closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime..cstime are fields 14..17.
    let mut fields = rest.split_ascii_whitespace().skip(14 - 3);
    let mut sum = 0u64;
    for _ in 0..4 {
        sum = sum.checked_add(fields.next()?.parse().ok()?)?;
    }
    Some(sum)
}

/// `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

pub fn cpu_ticks() -> Result<u64, String> {
    let text =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_stat_cpu_ticks(&text).ok_or_else(|| "/proc/self/stat: unexpected format".to_owned())
}

pub fn peak_rss_mib() -> Result<f64, String> {
    let text =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib =
        parse_vm_hwm_kib(&text).ok_or_else(|| "/proc/self/status: no VmHWM line".to_owned())?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_sums_own_and_reaped_child_times() {
        let stat = "4242 (bench mark) (x)) R 1 4242 4242 0 -1 4194304 1500 0 0 0 \
                    651 12 30 4 20 0 1 0 100000 12345678 900 18446744073709551615 1 1 0 0 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(651 + 12 + 30 + 4));
    }

    #[test]
    fn stat_rejects_truncated_or_garbled_lines() {
        assert_eq!(parse_stat_cpu_ticks(""), None);
        assert_eq!(parse_stat_cpu_ticks("1 (a) R 1 2 3"), None);
        assert_eq!(
            parse_stat_cpu_ticks("1 (a) R 1 2 3 4 5 6 7 8 9 10 x 12 13 14"),
            None
        );
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  204800 kB\nVmHWM:\t   23456 kB\nVmRSS:\t   20000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(23456));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots\n"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(cpu_ticks().is_ok());
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
