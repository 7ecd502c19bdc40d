//! CPU time and peak memory of a process, read from Linux `/proc`.

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`). Linux
/// fixes it at 100 on every architecture this benchmark runs on.
pub const USER_HZ: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`. The
/// command name (field 2) is parenthesised and may itself contain spaces
/// or parentheses, so fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set (`VmHWM`) in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// CPU seconds consumed so far by process `pid` ("self" for this process).
pub fn cpu_secs(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_cpu_ticks(&stat).map(|t| t as f64 / USER_HZ)
}

/// Peak resident set of process `pid` in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vmhwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_skip_a_command_name_with_spaces_and_parens() {
        let stat = "4242 (xt (bench) 1) S 1 4242 4242 0 -1 4194304 812 0 0 0 \
                    250 37 0 0 20 0 3 0 123456 1000000 500 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(287));
        assert_eq!(parse_cpu_ticks("1 (x) S 1"), None);
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vmhwm_is_read_in_kib() {
        let status =
            "Name:\txtbench\nVmPeak:\t  90000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(51234));
        assert_eq!(parse_vmhwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn own_process_is_readable() {
        assert!(cpu_secs("self").is_some_and(|s| s >= 0.0));
        assert!(peak_rss_mb("self").is_some_and(|m| m > 0.0));
    }
}
