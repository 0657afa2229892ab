//! Outside-in CPU and memory readers over procfs.
//!
//! The benchmark attributes CPU to the program under test without any
//! hook inside it: process CPU from `/proc/self/stat` minus the generator
//! thread's own CPU from `/proc/thread-self/stat`. Memory comes from
//! `/proc/self/status`. The parsers are written by hand so the benchmark
//! adds no crates.

use std::io;

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`). The
/// kernel exports these fields in `USER_HZ` units, which is 100 on every
/// Linux architecture the workspace targets.
pub const TICKS_PER_S: f64 = 100.0;

/// User and system CPU time, in clock ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// Time spent in user mode.
    pub user: u64,
    /// Time spent in kernel mode.
    pub system: u64,
}

impl CpuTicks {
    /// User plus system ticks.
    pub fn total(self) -> u64 {
        self.user + self.system
    }

    /// Component-wise `self - earlier`, saturating at zero.
    pub fn since(self, earlier: CpuTicks) -> CpuTicks {
        CpuTicks {
            user: self.user.saturating_sub(earlier.user),
            system: self.system.saturating_sub(earlier.system),
        }
    }

    /// Component-wise sum.
    pub fn plus(self, other: CpuTicks) -> CpuTicks {
        CpuTicks {
            user: self.user + other.user,
            system: self.system + other.system,
        }
    }

    /// Total CPU time in seconds.
    pub fn seconds(self) -> f64 {
        self.total() as f64 / TICKS_PER_S
    }
}

/// Parses `utime` and `stime` (fields 14 and 15) out of a `stat` line.
///
/// Field 2 is the command name in parentheses and may itself contain
/// spaces and parentheses, so the fields are counted from the *last*
/// closing parenthesis: the token after it is field 3 (`state`).
pub fn parse_stat(text: &str) -> Option<CpuTicks> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // Skip fields 3..=13, then read 14 (utime) and 15 (stime).
    let user = fields.nth(11)?.parse().ok()?;
    let system = fields.next()?.parse().ok()?;
    Some(CpuTicks { user, system })
}

/// Parses one `<key> <value> kB` line of a `status` file, in kB.
pub fn parse_status_kb(text: &str, key: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with(key))?;
    let mut parts = line[key.len()..].split_ascii_whitespace();
    let value = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

fn read_stat(path: &str) -> io::Result<CpuTicks> {
    let text = std::fs::read_to_string(path)?;
    parse_stat(&text)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("unparsable {path}")))
}

/// CPU consumed so far by the whole process, every thread included (the
/// kernel folds exited threads into the process totals).
pub fn process_cpu() -> io::Result<CpuTicks> {
    read_stat("/proc/self/stat")
}

/// CPU consumed so far by the calling thread alone.
pub fn thread_cpu() -> io::Result<CpuTicks> {
    read_stat("/proc/thread-self/stat")
}

/// The process's current resident set size (`VmRSS`), in MiB.
pub fn rss_mb() -> io::Result<f64> {
    let text = std::fs::read_to_string("/proc/self/status")?;
    parse_status_kb(&text, "VmRSS:")
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmRSS in /proc/self/status"))
}

/// Machine-wide CPU time from the `cpu` line of `/proc/stat`, in clock
/// ticks: `(steal, total)`, where total sums the first eight fields
/// (user through steal).
pub fn parse_host_steal(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_ascii_whitespace()
        .skip(1)
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// Machine-wide `(steal, total)` CPU ticks so far: time the hypervisor
/// gave this machine's virtual CPUs to someone else.
pub fn host_steal() -> io::Result<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat")?;
    parse_host_steal(&text)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unparsable /proc/stat"))
}

/// The CPU model name from `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, name)| name.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_parenthesis() {
        let line = "4242 (a (b) c) S 1 4242 4242 0 -1 4194560 2048 0 0 0 731 52 0 0 20 0 5 0 \
                    123 456 789";
        assert_eq!(
            parse_stat(line),
            Some(CpuTicks {
                user: 731,
                system: 52
            })
        );
        assert_eq!(parse_stat("4242 (short) S 1 2"), None);
        assert_eq!(parse_stat("no parenthesis"), None);
    }

    #[test]
    fn status_lines_are_read_in_kb() {
        let status = "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(20480));
        assert_eq!(parse_status_kb(status, "VmRSS:"), Some(100));
        assert_eq!(parse_status_kb("VmRSS:\t12 MB\n", "VmRSS:"), None);
        assert_eq!(parse_status_kb("VmHWM:\t12 kB\n", "VmRSS:"), None);
    }

    #[test]
    fn host_steal_is_the_eighth_field_of_the_cpu_line() {
        let stat = "cpu  100 2 30 4000 5 0 1 60 0 0\ncpu0 50 1 15 2000 2 0 0 30 0 0\n";
        assert_eq!(parse_host_steal(stat), Some((60, 4198)));
        assert_eq!(parse_host_steal("cpu  1 2 3\n"), None);
        assert_eq!(parse_host_steal("cpu0 1 2 3 4 5 6 7 8\n"), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        let before = process_cpu().expect("process stat");
        let thread = thread_cpu().expect("thread stat");
        assert!(thread.total() <= before.total() + 1);
        assert!(rss_mb().expect("status") > 0.0);
    }
}
