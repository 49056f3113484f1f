//! Host measurements read from `/proc`: thread and process CPU time and
//! peak resident memory. Every reader returns an error rather than a zero,
//! so a host without these files stops the benchmark instead of reporting
//! an attribution that was never measured.

use std::fs;

/// `/proc/<pid>/stat` reports CPU time in `USER_HZ` ticks, which the
/// kernel fixes at 100 per second for user space on every architecture
/// this benchmark builds for.
const USER_HZ: f64 = 100.0;

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// CPU seconds the calling thread has run (`/proc/thread-self/schedstat`,
/// nanosecond resolution). The engine runs on the harness thread, so this
/// is the engine's CPU while a simulation runs.
pub fn thread_cpu_s() -> Result<f64, String> {
    let text = read("/proc/thread-self/schedstat")?;
    parse_schedstat(&text).ok_or_else(|| format!("unparseable schedstat: {text:?}"))
}

/// CPU seconds the whole process has used, user plus system, counting
/// threads that have already exited (`/proc/self/stat`, 10 ms resolution).
pub fn process_cpu_s() -> Result<f64, String> {
    let text = read("/proc/self/stat")?;
    parse_stat(&text).ok_or_else(|| format!("unparseable stat: {text:?}"))
}

/// Reset this process's peak resident set size to its current size, so
/// the next [`peak_rss_mb`] covers only what ran since.
pub fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("cannot reset VmHWM: {e}"))
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let text = read("/proc/self/status")?;
    parse_vmhwm_kb(&text)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn parse_schedstat(text: &str) -> Option<f64> {
    let ns: u64 = text.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 / 1e9)
}

fn parse_stat(text: &str) -> Option<f64> {
    // The command name (field 2) is parenthesised and may hold spaces or
    // parentheses itself, so fields are counted from the last ')'.
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name, index 0 is field 3 (state); utime and stime are
    // fields 14 and 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

fn parse_vmhwm_kb(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_a_hostile_command_name() {
        let line = "42 (a) b (c)) R 1 2 3 4 5 6 7 8 9 10 250 30 0 0 20 0 3 0";
        assert_eq!(parse_stat(line), Some(2.8));
    }

    #[test]
    fn parses_schedstat_and_status() {
        assert_eq!(parse_schedstat("1500000000 20 3\n"), Some(1.5));
        let status = "Name:\tx\nVmPeak:\t  10 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(2048));
    }

    #[test]
    fn live_readings_are_available_and_nonzero() {
        // The scheduler folds a thread's run time into schedstat at its
        // ticks, so burn long enough to cross several of them.
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 50 {
            std::hint::black_box((0..1000u64).fold(0, |a, x| a ^ x.wrapping_mul(31)));
        }
        assert!(thread_cpu_s().unwrap() > 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
        process_cpu_s().unwrap();
    }
}
