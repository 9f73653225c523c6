//! Process and host facts the rows record: CPU time, peak memory, cores,
//! commit. Linux only (`/proc`).

use std::process::Command;

/// `/proc` reports CPU time in USER_HZ ticks, which Linux fixes at 100.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds of this process so far, every thread
/// included (exited ones too).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("/proc/self/stat: no command field")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / TICKS_PER_SECOND)
            .ok_or_else(|| "/proc/self/stat: malformed cpu times".to_string())
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM".to_string())
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, or `unknown` outside a git work tree.
pub fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_parse() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(cores() >= 1);
    }
}
