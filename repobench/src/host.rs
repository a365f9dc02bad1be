//! What `/proc` says about a process and the host, read with `std`
//! alone.

use std::path::PathBuf;

fn proc_dir(pid: Option<u32>) -> PathBuf {
    match pid {
        Some(pid) => PathBuf::from(format!("/proc/{pid}")),
        None => PathBuf::from("/proc/self"),
    }
}

/// A `Key:   value kB` field of `/proc/<pid>/status`.
fn status_field(pid: Option<u32>, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(proc_dir(pid).join("status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    status_field(pid, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Live thread count (`Threads:`).
pub fn threads(pid: Option<u32>) -> Option<u64> {
    status_field(pid, "Threads")
}

/// User + system CPU time of the whole process, in clock ticks
/// (fields 14 and 15 of `/proc/<pid>/stat`). Linux reports these at
/// `USER_HZ`, which is 100 on every mainstream build.
pub fn cpu_ticks(pid: Option<u32>) -> Option<u64> {
    let text = std::fs::read_to_string(proc_dir(pid).join("stat")).ok()?;
    // The command name (field 2) may hold spaces; fields restart after
    // its closing parenthesis, at field 3.
    let rest = &text[text.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
}

pub const USER_HZ: f64 = 100.0;

/// The 1-minute load average.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
