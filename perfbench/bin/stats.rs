//! Order statistics, the hypervisor's steal time and the run's context
//! (process memory, commit).

use std::path::Path;
use std::process::{Command, Stdio};

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty. Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` in (0, 1] of sorted `values`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Indices of the samples the hypervisor disturbed least: those whose
/// steal share is at most the lower median share, so at least half of
/// them, and all of them when none was disturbed.
pub fn least_stolen(steal: &[f64]) -> Vec<usize> {
    let mut sorted = steal.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(&cut) = sorted.get(steal.len().saturating_sub(1) / 2) else {
        return Vec::new();
    };
    (0..steal.len()).filter(|&i| steal[i] <= cut).collect()
}

/// CPU time taken from this machine by the hypervisor ("steal": a virtual
/// CPU wanted to run and another guest had the core) and CPU time in all,
/// in clock ticks summed over CPUs, from `/proc/stat`. `None` where the
/// file is missing or unreadable.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|field| field.parse().ok())
        .collect::<Option<_>>()?;
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().sum()))
}

/// Measures the share of CPU time stolen by the hypervisor over an
/// interval. On a shared host it is the largest measured cause of a run
/// slowing from one minute to the next, and the program's own work does
/// not change it.
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter(cpu_ticks())
    }

    /// Stolen ticks over all ticks since `start`; 0 when unknown.
    pub fn share(&self) -> f64 {
        match (self.0, cpu_ticks()) {
            (Some((steal0, total0)), Some((steal1, total1))) if total1 > total0 => {
                steal1.saturating_sub(steal0) as f64 / (total1 - total0) as f64
            }
            _ => 0.0,
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| format!("cannot read /proc/self/status: {err}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|err| format!("bad VmHWM line '{line}': {err}"))?;
    Ok(kib / 1024.0)
}

/// The commit being measured, and whether the working tree matches it.
pub struct Commit {
    /// The `HEAD` commit, `"unknown"` outside a git checkout.
    pub sha: String,
    /// `"clean"` or `"dirty"` as `git status` reports the tracked files;
    /// `"unconfirmed"` when git cannot tell, `"unknown"` without a commit.
    pub tree: &'static str,
}

/// Reads `HEAD` from `.git` in the working directory, following a branch
/// to its loose ref or its line in `packed-refs`.
pub fn git_commit() -> Commit {
    let git = Path::new(".git");
    let read = |name: &str| std::fs::read_to_string(git.join(name)).ok();
    let sha = read("HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(branch) => read(branch).map(|sha| sha.trim().to_string()).or_else(|| {
            read("packed-refs")?.lines().find_map(|line| {
                let (sha, name) = line.split_once(' ')?;
                (name == branch).then(|| sha.to_string())
            })
        }),
    });
    let Some(sha) = sha else {
        return Commit { sha: "unknown".into(), tree: "unknown" };
    };
    let status = Command::new("git")
        .args(["--no-optional-locks", "status", "--porcelain", "--untracked-files=no"])
        .stderr(Stdio::null())
        .output();
    let tree = match status {
        Ok(out) if out.status.success() && out.stdout.is_empty() => "clean",
        Ok(out) if out.status.success() => "dirty",
        _ => "unconfirmed",
    };
    Commit { sha, tree }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.9), 90.0);
    }

    #[test]
    fn least_stolen_keeps_the_calmer_half() {
        assert_eq!(least_stolen(&[0.3, 0.0, 0.2, 0.1]), vec![1, 3]);
        assert_eq!(least_stolen(&[0.3, 0.0, 0.2, 0.1, 0.4]), vec![1, 2, 3]);
        assert_eq!(least_stolen(&[0.0; 3]), vec![0, 1, 2]);
        assert!(least_stolen(&[]).is_empty());
        assert!(StealMeter::start().share() >= 0.0);
    }
}
