//! CPU time and peak memory of a process, read from Linux `/proc`.
//!
//! The harness has no libc binding, so `getrusage`/`wait4` are out of
//! reach; `/proc/<pid>/stat` and `/proc/<pid>/status` carry the same
//! numbers and can be read for any process of the run's tree while it is
//! alive.

/// Kernel clock ticks per second (`getconf CLK_TCK`); 100 on every Linux
/// configuration this benchmark targets.
const CLK_TCK: f64 = 100.0;

/// `utime + stime` of a `/proc/<pid>/stat` line, in clock ticks. The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Value in kB of a `Key:   123 kB` line of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// User + system CPU seconds consumed so far by `pid` (all its threads,
/// including ones that already exited); `None` once the process is gone.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_stat_ticks(&stat).map(|t| t as f64 / CLK_TCK)
}

/// Peak resident set (`VmHWM`) of `pid` in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_status_kb(&status, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Whether `pid` still runs (a zombie waiting to be reaped has ended).
pub fn is_running(pid: u32) -> bool {
    match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        Ok(stat) => stat
            .rfind(')')
            .and_then(|i| stat[i + 1..].split_ascii_whitespace().next())
            .is_some_and(|state| state != "Z" && state != "X"),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_survive_hostile_command_names() {
        let plain = "1234 (ls3df-benchmark) S 1 1234 1234 0 -1 4194304 500 0 0 0 \
                     731 42 0 0 20 0 3 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_ticks(plain), Some(773));
        let hostile = "77 (a b) c) (d) R 1 77 77 0 -1 0 1 2 3 4 10 5 0 0 20 0 1 0 9 9 9 9";
        assert_eq!(parse_stat_ticks(hostile), Some(15));
        assert_eq!(parse_stat_ticks("no parens here"), None);
        assert_eq!(parse_stat_ticks("1 (x) S 1 2 3"), None);
    }

    #[test]
    fn status_key_lookup() {
        let status = "Name:\tx\nVmPeak:\t  200 kB\nVmHWM:\t    4096 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(4096));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(100));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        // A key that is a prefix of another must not match it.
        assert_eq!(parse_status_kb("VmHWMx:\t1 kB\n", "VmHWM"), None);
    }

    #[test]
    fn own_process_is_measurable() {
        let me = std::process::id();
        assert!(cpu_seconds(me).is_some());
        assert!(peak_rss_mib(me).is_some_and(|m| m > 0.0));
        assert!(is_running(me));
        assert!(!is_running(u32::MAX));
    }
}
