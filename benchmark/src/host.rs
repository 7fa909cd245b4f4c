//! The host stamp every result carries, and the process counters the
//! `host.*` metrics read. All from `/proc` and `.git`; nothing is run.

use crate::json::Json;
use std::fs;

/// Bumped when a result file's layout changes.
pub const SCHEMA_VERSION: u32 = 1;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Generator threads or connections a workload uses.
pub fn generator_threads() -> usize {
    nproc().min(2)
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// `HEAD` of the repository the benchmark runs in, read from `.git`
/// without running git; "unknown" in a checkout that is not a clone.
fn git_revision() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn stamp() -> Vec<(String, Json)> {
    let fields = [
        ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
        ("git_revision", Json::Str(git_revision())),
        ("nproc", Json::Num(nproc() as f64)),
        ("generator_threads", Json::Num(generator_threads() as f64)),
        ("cpu_model", Json::Str(cpu_model())),
        ("kernel", Json::Str(kernel())),
    ];
    fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// User plus system CPU time of this process so far, in nanoseconds,
/// from `/proc/self/stat` (fields 14 and 15, in 100 Hz ticks).
pub fn cpu_ns() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; count from its ')'.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 =
        after.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<u64>().ok()).sum();
    ticks * 10_000_000
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_something_on_linux() {
        let before = cpu_ns();
        let mut x = 0u64;
        while cpu_ns() == before {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_ns() > before);
        assert!(peak_rss_mib() > 0.0);
        assert!(generator_threads() >= 1 && generator_threads() <= 2);
    }

    #[test]
    fn the_stamp_has_every_field() {
        let s = Json::Obj(stamp());
        for key in
            ["schema_version", "git_revision", "nproc", "generator_threads", "cpu_model", "kernel"]
        {
            assert!(s.get(key).is_some(), "{key} missing");
        }
    }
}
