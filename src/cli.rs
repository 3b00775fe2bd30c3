//! Command-line option parsing for the `thrifty-barrier` binary.
//!
//! Lives in the library (rather than `main.rs`) so the rejection rules are
//! unit-testable and integration tests can build the exact option sets the
//! binary would.

use tb_core::{FaultPlan, SystemConfig};
use tb_machine::run::PAPER_SEED;
use tb_workloads::AppSpec;

/// Parsed command options: the union of every subcommand's flags (see
/// [`parse_options`] for which subcommand takes which).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// Machine size (power of two in `2..=64`).
    pub nodes: u16,
    /// Base workload seed.
    pub seed: u64,
    /// Number of replicated seeds (`seed, seed+1, …`).
    pub seeds: u64,
    /// Worker-pool size; `0` means one worker per hardware thread.
    pub jobs: usize,
    /// Configuration name for `run`/`trace`.
    pub config: Option<String>,
    /// Emit machine-readable JSON instead of the human tables.
    pub json: bool,
    /// Output file for `trace`.
    pub out: Option<String>,
    /// Trace export format (`perfetto` or `jsonl`).
    pub format: String,
    /// Per-thread trace ring capacity (events).
    pub ring: usize,
    /// Fault scenario name for `sweep --faults` (validated against
    /// [`FaultPlan::scenario_names`] at parse time).
    pub faults: Option<String>,
    /// Transient-failure retry budget per cell for supervised sweeps
    /// (`--retries`, at most [`MAX_RETRIES`]).
    pub retries: u32,
    /// Per-attempt wall-clock deadline in milliseconds (`--timeout-ms`);
    /// `None` waits indefinitely.
    pub timeout_ms: Option<u64>,
    /// Write a crash-consistent sweep journal to this path (`--journal`).
    pub journal: Option<String>,
    /// Resume a sweep from an existing journal (`--resume`); mutually
    /// exclusive with `--journal` (resume appends to the journal it
    /// reads).
    pub resume: Option<String>,
    /// Worker *processes* for a multi-process sweep (`--workers`); `0`
    /// (the default) runs in-process. `serve` defaults this to
    /// [`DEFAULT_SERVE_WORKERS`]. Deliberately excluded from journal
    /// params, like `--jobs`: a journal resumes at any worker count.
    pub workers: usize,
    /// Fleet heartbeat period in milliseconds (`--heartbeat-ms`); a
    /// worker silent for three periods is killed. Requires `--workers`.
    pub heartbeat_ms: u64,
}

/// Cap on `--retries`: backoff doubles per attempt, so anything deeper
/// than this spends more time sleeping than simulating.
pub const MAX_RETRIES: u32 = 10;

/// Cap on `--workers`: the coordinator polls every worker's pipes from
/// one thread, and cells are coarse enough that more processes than this
/// only adds scheduling noise.
pub const MAX_WORKERS: usize = 64;

/// Fleet size `serve` uses when `--workers` is not given.
pub const DEFAULT_SERVE_WORKERS: usize = 4;

/// Default `--heartbeat-ms`: the executor's own default.
pub use tb_serve::DEFAULT_HEARTBEAT_MS;

/// The subcommands that run cells through the journaled executor, and so
/// take its flags.
const EXECUTES: &[&str] = &["run", "sweep", "serve", "reproduce"];

/// Every flag, with the subcommands that take it.
const FLAGS: [(&str, &[&str]); 16] = [
    ("--nodes", &["run", "sweep", "serve", "reproduce", "trace"]),
    ("--seed", &["run", "sweep", "serve", "reproduce", "trace"]),
    ("--seeds", &["run", "sweep", "serve"]),
    ("--config", &["run", "trace"]),
    ("--json", &["run", "sweep", "serve"]),
    ("--out", &["trace"]),
    ("--format", &["trace"]),
    ("--ring", &["trace"]),
    ("--faults", &["sweep", "serve"]),
    ("--jobs", EXECUTES),
    ("--retries", EXECUTES),
    ("--timeout-ms", EXECUTES),
    ("--journal", EXECUTES),
    ("--resume", EXECUTES),
    ("--workers", EXECUTES),
    ("--heartbeat-ms", EXECUTES),
];

impl Default for Options {
    fn default() -> Self {
        Options {
            nodes: 64,
            seed: PAPER_SEED,
            seeds: 1,
            jobs: 0,
            config: None,
            json: false,
            out: None,
            format: "perfetto".to_string(),
            ring: 1 << 16,
            faults: None,
            retries: 0,
            timeout_ms: None,
            journal: None,
            resume: None,
            workers: 0,
            heartbeat_ms: DEFAULT_HEARTBEAT_MS,
        }
    }
}

impl Options {
    /// The replication seed list: `seeds` consecutive seeds starting at
    /// `seed`.
    pub fn seed_list(&self) -> Vec<u64> {
        (0..self.seeds).map(|i| self.seed.wrapping_add(i)).collect()
    }
}

/// Resolves an application by name (case-insensitive).
///
/// # Errors
///
/// Unknown names are rejected with the list of valid application names.
pub fn app_by_name(name: &str) -> Result<AppSpec, String> {
    AppSpec::splash2()
        .into_iter()
        .find(|a| a.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let options: Vec<String> = AppSpec::splash2().into_iter().map(|a| a.name).collect();
            format!(
                "unknown application {name:?} (options: {})",
                options.join(", ")
            )
        })
}

/// Resolves a system configuration by name or single-letter code
/// (case-insensitive on names).
///
/// # Errors
///
/// Unknown names are rejected with the list of valid configuration names.
pub fn config_by_name(name: &str) -> Result<SystemConfig, String> {
    SystemConfig::ALL
        .into_iter()
        .find(|c| c.name().eq_ignore_ascii_case(name) || c.letter().to_string() == name)
        .ok_or_else(|| {
            let options: Vec<&str> = SystemConfig::ALL.iter().map(|c| c.name()).collect();
            format!("unknown config {name:?} (options: {})", options.join(", "))
        })
}

/// Parses the option tail of `command` (`run`, `sweep`, `serve`,
/// `reproduce` or `trace`).
///
/// # Errors
///
/// Returns a human-readable message on unknown flags, flags `command` does
/// not take, missing values, or out-of-range values (non-power-of-two
/// `--nodes`, zero `--seeds` or `--ring`, unknown `--format`).
pub fn parse_options(command: &str, args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let (mut workers_given, mut heartbeat_given) = (false, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let takers = FLAGS.iter().find(|(flag, _)| flag == arg).map(|(_, t)| t);
        if takers.is_some_and(|t| !t.contains(&command)) {
            return Err(format!("{arg} does not apply to {command}"));
        }
        match arg.as_str() {
            "--nodes" => {
                let v = it.next().ok_or("--nodes needs a value")?;
                opts.nodes = v.parse().map_err(|_| format!("bad node count {v:?}"))?;
                if !opts.nodes.is_power_of_two() || !(2..=64).contains(&opts.nodes) {
                    return Err(format!(
                        "node count must be a power of two in 2..=64, got {}",
                        opts.nodes
                    ));
                }
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--seeds" => {
                let v = it.next().ok_or("--seeds needs a value")?;
                opts.seeds = v.parse().map_err(|_| format!("bad seed count {v:?}"))?;
                if opts.seeds == 0 {
                    return Err("--seeds must be at least 1".to_string());
                }
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                opts.jobs = v.parse().map_err(|_| format!("bad job count {v:?}"))?;
                if opts.jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "--config" => {
                opts.config = Some(it.next().ok_or("--config needs a value")?.clone());
            }
            "--json" => opts.json = true,
            "--out" => {
                opts.out = Some(it.next().ok_or("--out needs a value")?.clone());
            }
            "--format" => {
                let v = it.next().ok_or("--format needs a value")?;
                if v != "perfetto" && v != "jsonl" {
                    return Err(format!("--format must be perfetto or jsonl, got {v:?}"));
                }
                opts.format = v.clone();
            }
            "--ring" => {
                let v = it.next().ok_or("--ring needs a value")?;
                opts.ring = v.parse().map_err(|_| format!("bad ring capacity {v:?}"))?;
                if opts.ring == 0 {
                    return Err("ring capacity must be positive".to_string());
                }
            }
            "--faults" => {
                let v = it.next().ok_or("--faults needs a value")?;
                if FaultPlan::by_name(v, 0).is_none() {
                    return Err(format!(
                        "unknown fault scenario {v:?} (options: {})",
                        FaultPlan::scenario_names().join(", ")
                    ));
                }
                opts.faults = Some(v.clone());
            }
            "--retries" => {
                let v = it.next().ok_or("--retries needs a value")?;
                opts.retries = v.parse().map_err(|_| format!("bad retry count {v:?}"))?;
                if opts.retries > MAX_RETRIES {
                    return Err(format!(
                        "--retries must be at most {MAX_RETRIES}, got {}",
                        opts.retries
                    ));
                }
            }
            "--timeout-ms" => {
                let v = it.next().ok_or("--timeout-ms needs a value")?;
                opts.timeout_ms = Some(v.parse().map_err(|_| format!("bad timeout {v:?}"))?);
                if opts.timeout_ms == Some(0) {
                    return Err("--timeout-ms must be positive".to_string());
                }
            }
            "--journal" => {
                opts.journal = Some(it.next().ok_or("--journal needs a value")?.clone());
            }
            "--resume" => {
                opts.resume = Some(it.next().ok_or("--resume needs a value")?.clone());
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                opts.workers = v.parse().map_err(|_| format!("bad worker count {v:?}"))?;
                workers_given = true;
                if opts.workers == 0 {
                    return Err(
                        "--workers must be at least 1 (omit the flag for an in-process sweep)"
                            .to_string(),
                    );
                }
                if opts.workers > MAX_WORKERS {
                    return Err(format!(
                        "--workers must be at most {MAX_WORKERS}, got {}",
                        opts.workers
                    ));
                }
            }
            "--heartbeat-ms" => {
                let v = it.next().ok_or("--heartbeat-ms needs a value")?;
                opts.heartbeat_ms = v
                    .parse()
                    .map_err(|_| format!("bad heartbeat period {v:?}"))?;
                heartbeat_given = true;
                if opts.heartbeat_ms == 0 {
                    return Err("--heartbeat-ms must be positive".to_string());
                }
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if opts.journal.is_some() && opts.resume.is_some() {
        return Err(
            "--journal and --resume are mutually exclusive (resume appends to the journal \
             it reads)"
                .to_string(),
        );
    }
    if heartbeat_given && !workers_given {
        return Err(
            "--heartbeat-ms requires --workers (it tunes the fleet's liveness deadline)"
                .to_string(),
        );
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_as(command: &str, args: &[&str]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_options(command, &owned)
    }

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_as("sweep", args)
    }

    #[test]
    fn defaults_without_flags() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts, Options::default());
        assert_eq!(opts.nodes, 64);
        assert_eq!(opts.seed, PAPER_SEED);
        assert_eq!(opts.seeds, 1);
        assert_eq!(opts.jobs, 0, "0 = one worker per hardware thread");
        assert_eq!(opts.seed_list(), vec![PAPER_SEED]);
    }

    #[test]
    fn full_flag_set_round_trips() {
        let opts = parse_as(
            "run",
            &[
                "--nodes", "16", "--seed", "9", "--seeds", "3", "--jobs", "4", "--config",
                "Thrifty", "--json",
            ],
        )
        .unwrap();
        assert_eq!(opts.nodes, 16);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.seeds, 3);
        assert_eq!(opts.seed_list(), vec![9, 10, 11]);
        assert_eq!(opts.jobs, 4);
        assert_eq!(opts.config.as_deref(), Some("Thrifty"));
        assert!(opts.json);
        let trace = ["--out", "x.json", "--format", "jsonl", "--ring", "1024"];
        let opts = parse_as("trace", &trace).unwrap();
        assert_eq!(opts.out.as_deref(), Some("x.json"));
        assert_eq!(opts.format, "jsonl");
        assert_eq!(opts.ring, 1024);
    }

    #[test]
    fn rejects_non_power_of_two_nodes() {
        let err = parse(&["--nodes", "12"]).unwrap_err();
        assert!(err.contains("power of two"), "{err}");
        assert!(parse(&["--nodes", "128"]).is_err(), "above the 64 cap");
        assert!(parse(&["--nodes", "1"]).is_err(), "below the 2 floor");
        assert!(parse(&["--nodes", "banana"]).is_err());
        assert!(parse(&["--nodes"]).is_err(), "missing value");
    }

    #[test]
    fn rejects_zero_ring() {
        let err = parse_as("trace", &["--ring", "0"]).unwrap_err();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn rejects_bad_format() {
        let err = parse_as("trace", &["--format", "csv"]).unwrap_err();
        assert!(err.contains("perfetto or jsonl"), "{err}");
        assert!(parse_as("trace", &["--format", "perfetto"]).is_ok());
        assert!(parse_as("trace", &["--format", "jsonl"]).is_ok());
    }

    #[test]
    fn rejects_unknown_flags() {
        let err = parse(&["--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown option"), "{err}");
        assert!(err.contains("--frobnicate"), "{err}");
        // Bare positional words are unknown options too.
        assert!(parse(&["fast"]).is_err());
    }

    #[test]
    fn rejects_zero_jobs_and_zero_seeds() {
        assert!(parse(&["--jobs", "0"]).unwrap_err().contains("at least 1"));
        assert!(parse(&["--seeds", "0"]).unwrap_err().contains("at least 1"));
        assert!(parse(&["--jobs", "-1"]).is_err());
        assert!(parse(&["--seeds"]).is_err(), "missing value");
    }

    #[test]
    fn accepts_every_named_fault_scenario() {
        for name in FaultPlan::scenario_names() {
            let opts = parse(&["--faults", name]).unwrap();
            assert_eq!(opts.faults.as_deref(), Some(*name));
        }
        // Case-insensitive, like the other name lookups.
        assert!(parse(&["--faults", "STORM"]).is_ok());
    }

    #[test]
    fn rejects_unknown_fault_scenario_listing_options() {
        let err = parse(&["--faults", "meteor"]).unwrap_err();
        assert!(err.contains("unknown fault scenario"), "{err}");
        for name in FaultPlan::scenario_names() {
            assert!(err.contains(name), "error lists {name:?}: {err}");
        }
        assert!(parse(&["--faults"]).is_err(), "missing value");
    }

    #[test]
    fn supervision_flags_round_trip() {
        let opts = parse(&[
            "--retries",
            "3",
            "--timeout-ms",
            "5000",
            "--journal",
            "sweep.jsonl",
        ])
        .unwrap();
        assert_eq!(opts.retries, 3);
        assert_eq!(opts.timeout_ms, Some(5000));
        assert_eq!(opts.journal.as_deref(), Some("sweep.jsonl"));
        assert_eq!(opts.resume, None);
        let opts = parse(&["--resume", "sweep.jsonl"]).unwrap();
        assert_eq!(opts.resume.as_deref(), Some("sweep.jsonl"));
        assert_eq!(opts.journal, None);
    }

    #[test]
    fn rejects_bad_retries() {
        let err = parse(&["--retries", "11"]).unwrap_err();
        assert!(err.contains("at most 10"), "{err}");
        assert!(
            parse(&["--retries", "10"]).is_ok(),
            "the cap itself is fine"
        );
        assert!(parse(&["--retries", "many"]).is_err());
        assert!(parse(&["--retries", "-1"]).is_err());
        assert!(parse(&["--retries"]).is_err(), "missing value");
    }

    #[test]
    fn rejects_bad_timeout() {
        let err = parse(&["--timeout-ms", "0"]).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        assert!(parse(&["--timeout-ms", "soon"]).is_err());
        assert!(parse(&["--timeout-ms"]).is_err(), "missing value");
        assert_eq!(
            parse(&["--timeout-ms", "250"]).unwrap().timeout_ms,
            Some(250)
        );
    }

    #[test]
    fn rejects_journal_resume_conflict() {
        let err = parse(&["--journal", "a.jsonl", "--resume", "b.jsonl"]).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        // Order-independent.
        let err = parse(&["--resume", "b.jsonl", "--journal", "a.jsonl"]).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        assert!(parse(&["--journal"]).is_err(), "missing value");
        assert!(parse(&["--resume"]).is_err(), "missing value");
    }

    #[test]
    fn worker_flags_round_trip() {
        let opts = parse(&["--workers", "4", "--heartbeat-ms", "250"]).unwrap();
        assert_eq!(opts.workers, 4);
        assert_eq!(opts.heartbeat_ms, 250);
        let opts = parse(&["--workers", "1"]).unwrap();
        assert_eq!(opts.heartbeat_ms, DEFAULT_HEARTBEAT_MS);
    }

    #[test]
    fn rejects_bad_worker_count() {
        let err = parse(&["--workers", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(&["--workers", "65"]).unwrap_err();
        assert!(err.contains("at most 64"), "{err}");
        assert!(parse(&["--workers", "64"]).is_ok(), "the cap itself");
        assert!(parse(&["--workers", "lots"]).is_err());
        assert!(parse(&["--workers", "-1"]).is_err());
        assert!(parse(&["--workers"]).is_err(), "missing value");
    }

    #[test]
    fn fleet_tuning_flags_require_workers() {
        let err = parse(&["--heartbeat-ms", "250"]).unwrap_err();
        assert!(err.contains("requires --workers"), "{err}");
        // Order-independent: the flag may precede --workers.
        assert!(parse(&["--heartbeat-ms", "250", "--workers", "2"]).is_ok());
    }

    #[test]
    fn rejects_bad_heartbeat() {
        let err = parse(&["--workers", "2", "--heartbeat-ms", "0"]).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        assert!(parse(&["--workers", "2", "--heartbeat-ms", "soon"]).is_err());
        assert!(parse(&["--workers", "2", "--heartbeat-ms"]).is_err());
    }

    #[test]
    fn workers_compose_with_supervision_and_journal_flags() {
        let opts = parse(&[
            "--workers",
            "4",
            "--retries",
            "2",
            "--timeout-ms",
            "5000",
            "--journal",
            "s.jsonl",
            "--faults",
            "storm",
        ])
        .unwrap();
        assert_eq!(opts.workers, 4);
        assert_eq!(opts.retries, 2);
        assert_eq!(opts.journal.as_deref(), Some("s.jsonl"));
        // The journal/resume exclusivity still applies under --workers.
        assert!(parse(&["--workers", "4", "--journal", "a", "--resume", "b"]).is_err());
    }

    #[test]
    fn unknown_app_error_lists_every_application() {
        let err = app_by_name("Raytrace").unwrap_err();
        assert!(err.contains("unknown application"), "{err}");
        for app in AppSpec::splash2() {
            assert!(err.contains(&app.name), "error lists {:?}: {err}", app.name);
        }
        assert_eq!(app_by_name("ocean").unwrap().name, "Ocean", "case folded");
    }

    #[test]
    fn unknown_config_error_lists_every_configuration() {
        let err = config_by_name("Frugal").unwrap_err();
        assert!(err.contains("unknown config"), "{err}");
        for config in SystemConfig::ALL {
            assert!(err.contains(config.name()), "error lists {}", config.name());
        }
        assert_eq!(
            config_by_name("thrifty").unwrap(),
            SystemConfig::Thrifty,
            "case folded"
        );
        assert_eq!(
            config_by_name(&SystemConfig::Ideal.letter().to_string()).unwrap(),
            SystemConfig::Ideal,
            "single-letter code"
        );
    }
}
