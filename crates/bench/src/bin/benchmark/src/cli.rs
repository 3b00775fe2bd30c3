//! Runs the `thrifty-barrier` CLI as a subprocess, samples the peak memory
//! of its process tree from `/proc`, and parses the lines the benchmark
//! reads from its output.

use std::collections::HashMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How often the process tree's memory is sampled while the CLI runs.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// One finished CLI invocation.
#[derive(Debug)]
pub struct CliRun {
    /// Wall seconds from spawn to exit.
    pub wall: f64,
    pub success: bool,
    pub stdout: String,
    pub stderr: String,
    /// Summed `VmHWM` of the CLI process and every descendant seen, KiB.
    pub peak_rss_kib: u64,
}

/// Runs `cli args…` to completion.
pub fn run(cli: &Path, args: &[String]) -> Result<CliRun, String> {
    let start = Instant::now();
    let child = Command::new(cli)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", cli.display()))?;
    let root = child.id();
    let done = AtomicBool::new(false);
    let (output, peaks) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peaks: HashMap<u32, u64> = HashMap::new();
            // Sample once more after the exit flag so short runs still get
            // a reading (a reaped process simply has no entry any more).
            loop {
                let stop = done.load(Ordering::SeqCst);
                for pid in process_tree(root) {
                    if let Some(kib) = vm_hwm_kib(pid) {
                        let e = peaks.entry(pid).or_default();
                        *e = (*e).max(kib);
                    }
                }
                if stop {
                    break peaks;
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
        });
        let output = child.wait_with_output();
        done.store(true, Ordering::SeqCst);
        let peaks = sampler.join().expect("the memory sampler does not panic");
        (output, peaks)
    });
    let output = output.map_err(|e| format!("waiting for {}: {e}", cli.display()))?;
    Ok(CliRun {
        wall: start.elapsed().as_secs_f64(),
        success: output.status.success(),
        stdout: String::from_utf8_lossy(&output.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
        peak_rss_kib: peaks.values().sum(),
    })
}

/// `VmHWM` (peak resident set) of a process, KiB.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm(&status)
}

/// `VmHWM` of this process, KiB (0 where `/proc` is unavailable).
pub fn self_vm_hwm_kib() -> u64 {
    vm_hwm_kib(std::process::id()).unwrap_or(0)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `root` and all of its live descendants, found by scanning `/proc/*/stat`
/// for parent ids.
fn process_tree(root: u32) -> Vec<u32> {
    let mut parent_of: Vec<(u32, u32)> = Vec::new();
    if let Ok(dir) = std::fs::read_dir("/proc") {
        for entry in dir.flatten() {
            let Some(pid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u32>().ok())
            else {
                continue;
            };
            if let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) {
                if let Some(ppid) = parse_ppid(&stat) {
                    parent_of.push((pid, ppid));
                }
            }
        }
    }
    let mut tree = vec![root];
    let mut i = 0;
    while i < tree.len() {
        let p = tree[i];
        tree.extend(
            parent_of
                .iter()
                .filter(|&&(_, pp)| pp == p)
                .map(|&(c, _)| c),
        );
        i += 1;
    }
    tree
}

/// The parent pid from a `/proc/<pid>/stat` line. The command name is in
/// parentheses and may itself contain spaces or parentheses, so fields are
/// counted from the last `)`.
fn parse_ppid(stat: &str) -> Option<u32> {
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(1)?.parse().ok()
}

/// The totals line a fault sweep prints last, e.g.
/// `storm: 264802 faults injected, 73405 guard recoveries, 33 quarantine
/// entries, 0 failed cells`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTotals {
    pub injected: u64,
    pub guard_recoveries: u64,
    pub quarantine_entries: u64,
    pub failed_cells: u64,
}

pub fn parse_fault_totals(stdout: &str, scenario: &str) -> Option<FaultTotals> {
    let prefix = format!("{scenario}: ");
    let line = stdout.lines().rev().find(|l| l.starts_with(&prefix))?;
    let mut found: HashMap<&str, u64> = HashMap::new();
    for part in line[prefix.len()..].split(", ") {
        let (count, what) = part.split_once(' ')?;
        found.insert(what, count.parse().ok()?);
    }
    Some(FaultTotals {
        injected: *found.get("faults injected")?,
        guard_recoveries: *found.get("guard recoveries")?,
        quarantine_entries: *found.get("quarantine entries")?,
        failed_cells: *found.get("failed cells")?,
    })
}

/// Worker deaths and respawns from a fleet sweep's stderr. The fleet
/// prints `fleet: N worker death(s), M respawn(s); …` only when something
/// died, so no such line means (0, 0).
pub fn parse_fleet_health(stderr: &str) -> Result<(u64, u64), String> {
    let Some(line) = stderr.lines().find(|l| l.starts_with("fleet: ")) else {
        return Ok((0, 0));
    };
    let bad = || format!("unreadable fleet health line: {line:?}");
    let body = line["fleet: ".len()..].split(';').next().ok_or_else(bad)?;
    let mut parts = body.split(", ");
    let mut count = |suffix: &str| -> Result<u64, String> {
        let part = parts.next().ok_or_else(bad)?;
        part.strip_suffix(suffix)
            .and_then(|n| n.trim().parse().ok())
            .ok_or_else(bad)
    };
    let deaths = count(" worker death(s)")?;
    let respawns = count(" respawn(s)")?;
    Ok((deaths, respawns))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_fault_totals_line() {
        let out = "fault sweep: scenario \"storm\", 8 nodes, 1 seed(s)\n\
                   Radiosity     18246    4701      0 |    99.4%   +1.05% |      0\n\
                   storm: 264802 faults injected, 73405 guard recoveries, 33 quarantine entries, 0 failed cells\n";
        assert_eq!(
            parse_fault_totals(out, "storm"),
            Some(FaultTotals {
                injected: 264802,
                guard_recoveries: 73405,
                quarantine_entries: 33,
                failed_cells: 0,
            })
        );
        assert_eq!(parse_fault_totals(out, "hang"), None);
        assert_eq!(
            parse_fault_totals("storm: 1 faults injected, x guard recoveries", "storm"),
            None
        );
    }

    #[test]
    fn parses_the_fleet_health_line() {
        assert_eq!(parse_fleet_health(""), Ok((0, 0)));
        assert_eq!(parse_fleet_health("resume: note\n"), Ok((0, 0)));
        let line =
            "fleet: 2 worker death(s), 3 respawn(s); 150/150 cells completed, 2 reassigned\n";
        assert_eq!(parse_fleet_health(line), Ok((2, 3)));
        assert!(parse_fleet_health("fleet: two worker death(s), 3 respawn(s); x").is_err());
        assert!(parse_fleet_health("fleet: 2 worker death(s)").is_err());
    }

    #[test]
    fn parses_proc_fields() {
        assert_eq!(
            parse_vm_hwm("Name:\tx\nVmPeak:\t  9 kB\nVmHWM:\t    1756 kB\n"),
            Some(1756)
        );
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert_eq!(
            parse_ppid("11275 (odd) name)) R 11270 11275 0"),
            Some(11270)
        );
        assert_eq!(parse_ppid("garbage"), None);
    }

    #[test]
    fn this_process_reports_its_peak_memory() {
        assert!(self_vm_hwm_kib() > 0);
        assert!(process_tree(std::process::id()).contains(&std::process::id()));
    }
}
