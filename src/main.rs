//! `thrifty-barrier` — command-line front end to the simulator.
//!
//! ```text
//! thrifty-barrier list
//! thrifty-barrier run <app> [--nodes N] [--seed S] [--seeds K] [--jobs J] [--config NAME] [--json]
//! thrifty-barrier sweep [--nodes N] [--seed S] [--seeds K] [--jobs J] [--json] [--faults SCENARIO]
//!                       [--retries N] [--timeout-ms MS] [--journal PATH | --resume PATH]
//!                       [--workers W] [--heartbeat-ms MS] [--poison-strikes K]
//! thrifty-barrier serve [same flags as sweep; --workers defaults to 4]
//! thrifty-barrier cutoff [--nodes N] [--seed S]
//! thrifty-barrier trace <app> --out FILE [--format perfetto|jsonl] [--config NAME]
//! ```
//!
//! `run` and `sweep` fan their (app × config × seed) cells out across a
//! [`Harness`] worker pool: `--jobs J` sets the pool size (default: one
//! worker per hardware thread) and `--seeds K` replicates every cell over
//! K consecutive seeds, reporting mean ± σ. Each (app, nodes, seed)
//! generates its trace once and simulates Baseline exactly once, no matter
//! how many configurations consume it; results are emitted in matrix
//! order, so output is byte-identical at every `--jobs` level.
//!
//! `sweep --workers W` (or the `serve` alias) shards the same cells
//! across W spawned worker *processes* instead of threads: the `tb-serve`
//! coordinator leases cells over pipes, heartbeats the fleet, reassigns
//! the leases of dead workers (`kill -9` included), and quarantines cells
//! that kill two workers in a row as poison. Output stays byte-identical
//! at every worker count; there is also a hidden `__worker` subcommand
//! the coordinator spawns, which is not part of the CLI surface.
//!
//! The full table/figure reproduction lives in the bench targets
//! (`cargo bench`); this binary is the interactive entry point.
//!
//! Exit status: 0 on success, 1 for rejected options or a failed run, and
//! 2 for a usage error or a Table 2 imbalance the machine size cannot
//! reach (Volrend at 2 nodes), which `run` and `sweep` check before any
//! cell runs, whichever executor runs the cells.

use std::collections::HashMap;
use std::time::Duration;
use thrifty_barrier::cli::{
    app_by_name, config_by_name, parse_options, Options, DEFAULT_SERVE_WORKERS,
};
use thrifty_barrier::core::{FaultPlan, SystemConfig};
use thrifty_barrier::machine::harness::{
    check_reachable, AppMatrix, Cell, Harness, SupervisionPolicy,
};
use thrifty_barrier::machine::journal::{CellKey, StoredOutcome, SweepJournal};
use thrifty_barrier::machine::run::{run_trace_recording, run_trace_with};
use thrifty_barrier::machine::{AggregateReport, CellCoverage, CellOutcome, RunReport};
use thrifty_barrier::trace::PredictionAccuracyReport;
use thrifty_barrier::workloads::calibrate::Unreachable;
use thrifty_barrier::workloads::AppSpec;

/// Why a command failed, with the exit status that says so.
struct Failure {
    message: String,
    status: i32,
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure { message, status: 1 }
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Self {
        Failure::from(message.to_string())
    }
}

impl From<Unreachable> for Failure {
    fn from(e: Unreachable) -> Self {
        Failure {
            message: e.to_string(),
            status: 2,
        }
    }
}

/// The short column label used in the sweep table (derived from the
/// config, never from a position).
fn short_label(config: SystemConfig) -> &'static str {
    match config {
        SystemConfig::Baseline => "Base",
        SystemConfig::ThriftyHalt => "Halt",
        SystemConfig::OracleHalt => "Orac",
        SystemConfig::Thrifty => "Thr",
        SystemConfig::Ideal => "Ideal",
    }
}

fn print_report(r: &RunReport, base: &RunReport) {
    println!("{r}");
    println!(
        "  vs baseline: energy {:+.1}%, time {:+.2}%",
        -r.energy_savings_vs(base) * 100.0,
        r.slowdown_vs(base) * 100.0
    );
    let c = &r.counts;
    println!(
        "  {} episodes, {} sleeps ({} int / {} ext wake-ups, {} early), {} spins, \
         {} flushes, {} cut-off disables",
        c.episodes,
        c.total_sleeps(),
        c.internal_wakeups,
        c.external_wakeups,
        c.early_wakeups,
        c.spins,
        c.flushes,
        c.cutoff_disables
    );
}

fn print_aggregate(a: &AggregateReport) {
    println!(
        "{}/{} over {} seeds: wall {:.0}±{:.0} cycles, energy {:.3}±{:.3}J",
        a.app,
        a.config,
        a.runs(),
        a.wall_time.mean(),
        a.wall_time.std_dev(),
        a.total_energy.mean(),
        a.total_energy.std_dev(),
    );
    println!(
        "  vs baseline: energy {:+.1}±{:.1}%, time {:+.2}±{:.2}%",
        (a.energy_vs_baseline.mean() - 1.0) * 100.0,
        a.energy_vs_baseline.std_dev() * 100.0,
        a.slowdown_vs_baseline.mean() * 100.0,
        a.slowdown_vs_baseline.std_dev() * 100.0,
    );
}

fn cmd_list() {
    println!(
        "{:<11} {:<36} {:>10} {:>8}",
        "app", "problem size", "imbalance", "target"
    );
    for app in AppSpec::splash2() {
        println!(
            "{:<11} {:<36} {:>9.2}% {:>8}",
            app.name,
            app.problem_size,
            app.target_imbalance * 100.0,
            if app.is_target() { "yes" } else { "no" }
        );
    }
}

fn cmd_run(app_name: &str, opts: &Options) -> Result<(), Failure> {
    let app = app_by_name(app_name)?;
    let harness = Harness::new(opts.jobs);
    let seeds = opts.seed_list();
    // Every configuration runs the same traces, so checking Baseline's
    // cells checks them all.
    let baseline_cells = Cell::matrix(
        std::slice::from_ref(&app),
        &[SystemConfig::Baseline],
        opts.nodes,
        &seeds,
    );
    check_reachable(&baseline_cells)?;
    match &opts.config {
        Some(name) => {
            let sys = config_by_name(name)?;
            let cells = Cell::matrix(std::slice::from_ref(&app), &[sys], opts.nodes, &seeds);
            // One pass: the harness caches the Baseline run each oracle
            // configuration needs, and the comparison row below reuses
            // that same cached run instead of simulating Baseline again.
            let reports = harness
                .run_cells(&cells)
                .map_err(|e| format!("cell failed: {e}"))?;
            if opts.json {
                if seeds.len() == 1 {
                    println!("{}", serde::json::to_string(&reports[0]));
                } else {
                    println!("{}", serde::json::to_string(&reports));
                }
            } else if seeds.len() == 1 {
                let base = harness.baseline(&app, opts.nodes, seeds[0]);
                print_report(&reports[0], &base.report);
            } else {
                let mut agg = AggregateReport::new(&app.name, sys.name(), opts.nodes as usize);
                for (r, &s) in reports.iter().zip(&seeds) {
                    agg.push(r, &harness.baseline(&app, opts.nodes, s).report);
                }
                print_aggregate(&agg);
            }
        }
        None => {
            let matrix = harness
                .run_matrix(&[app], &SystemConfig::ALL, opts.nodes, &seeds)
                .map_err(|e| format!("cell failed: {e}"))?
                .remove(0);
            if opts.json {
                println!("{}", serde::json::to_string(&matrix.into_flat_reports()));
            } else if seeds.len() == 1 {
                let base = &matrix.config_reports(SystemConfig::Baseline)[0];
                for row in &matrix.reports {
                    print_report(&row[0], base);
                }
            } else {
                for agg in matrix.aggregates() {
                    print_aggregate(&agg);
                }
            }
        }
    }
    Ok(())
}

/// The sweep: every (app × config × seed) cell runs as an isolated
/// [`CellOutcome`], optionally under a named fault scenario, a retry
/// budget, a wall-clock deadline, and a crash-consistent journal, on the
/// in-process harness or (`--workers`) a process fleet. A disabled scenario
/// ("none") — or no scenario at all — renders the ordinary sweep table,
/// byte-for-byte, so the zero-cost-when-disabled guarantee is directly
/// observable.
fn cmd_sweep(opts: &Options) -> Result<(), Failure> {
    let configs = SystemConfig::ALL;
    let seeds = opts.seed_list();
    let apps = AppSpec::splash2();
    let scenario = opts.faults.as_deref();
    // Each cell's fault streams are seeded by its workload seed.
    let cells: Vec<Cell> = Cell::matrix(&apps, &configs, opts.nodes, &seeds)
        .into_iter()
        .map(|cell| match scenario {
            Some(name) => {
                let plan = FaultPlan::by_name(name, cell.seed).expect("validated at parse");
                cell.with_faults(plan)
            }
            None => cell,
        })
        .collect();

    // The journal's params line pins everything that changes the cell
    // matrix or its results. `--jobs`, `--retries`, and `--timeout-ms`
    // are deliberately excluded: a sweep may be resumed at a different
    // parallelism or patience level and still produce identical output.
    let params = format!(
        "sweep nodes={} seed={} seeds={} faults={}",
        opts.nodes,
        opts.seed,
        opts.seeds,
        scenario.unwrap_or("-")
    );
    // (`--journal` with `--resume` is rejected at parse.)
    let mut replayed = HashMap::new();
    let mut journal = match (&opts.journal, &opts.resume) {
        (Some(path), _) => Some(
            SweepJournal::create(path, &params).map_err(|e| format!("--journal {path:?}: {e}"))?,
        ),
        (None, Some(path)) => {
            let (journal, records) = SweepJournal::resume(path, &params)
                .map_err(|e| format!("--resume {path:?}: {e}"))?;
            replayed = records;
            Some(journal)
        }
        (None, None) => None,
    };
    let keys: Vec<CellKey> = match journal {
        Some(_) => cells.iter().map(CellKey::of).collect(),
        None => Vec::new(),
    };

    // Cells whose outcome the journal already holds are replayed
    // verbatim; the rest run fresh. The resume note goes to stderr so
    // resumed stdout stays byte-identical to an uninterrupted sweep.
    let mut outcomes: Vec<Option<CellOutcome>> = cells.iter().map(|_| None).collect();
    for (slot, key) in outcomes.iter_mut().zip(&keys) {
        *slot = replayed
            .remove(&key.canonical())
            .and_then(StoredOutcome::into_outcome);
    }
    let todo: Vec<usize> = (0..cells.len())
        .filter(|&i| outcomes[i].is_none())
        .collect();
    if opts.resume.is_some() {
        eprintln!(
            "resume: {} of {} cells replayed from journal, {} left to run",
            cells.len() - todo.len(),
            cells.len(),
            todo.len()
        );
    }

    // Both executors call `on_complete` on this thread as each cell
    // finishes, so the journal needs no locking.
    let todo_cells: Vec<Cell> = todo.iter().map(|&i| cells[i].clone()).collect();
    let mut append_err: Option<String> = None;
    let on_complete = |t: usize, outcome: &CellOutcome| {
        if let Some(journal) = journal.as_mut() {
            if let Err(e) = journal.append(&keys[todo[t]], outcome) {
                append_err.get_or_insert(format!("journal append failed: {e}"));
            }
        }
    };
    check_reachable(&todo_cells)?;
    let fresh = if opts.workers > 0 {
        // Fleet health goes to stderr — stdout must stay byte-identical
        // to an in-process sweep.
        let fleet_cfg = tb_serve::FleetConfig {
            workers: opts.workers,
            retries: opts.retries,
            timeout_ms: opts.timeout_ms,
            heartbeat_ms: opts.heartbeat_ms,
            poison_strikes: opts.poison_strikes,
            ..tb_serve::FleetConfig::default()
        };
        let (fresh, summary) = tb_serve::run_fleet(&todo_cells, &fleet_cfg, on_complete)
            .map_err(|e| format!("sweep fleet failed: {e}"))?;
        if summary.worker_deaths > 0 || summary.respawns > 0 {
            eprintln!(
                "fleet: {} worker death(s), {} respawn(s); {}",
                summary.worker_deaths, summary.respawns, summary.coverage
            );
        }
        fresh
    } else {
        let policy = SupervisionPolicy::default()
            .with_retries(opts.retries)
            .with_timeout(opts.timeout_ms.map(Duration::from_millis));
        Harness::new(opts.jobs)
            .with_policy(policy)
            .run_cells_with(&todo_cells, on_complete)
    };
    if let Some(e) = append_err {
        return Err(e.into());
    }
    for (t, outcome) in fresh.into_iter().enumerate() {
        outcomes[todo[t]] = Some(outcome);
    }
    let outcomes: Vec<CellOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every cell is either replayed or run"))
        .collect();

    let faulted = scenario.filter(|name| {
        FaultPlan::by_name(name, 0)
            .expect("validated at parse")
            .enabled()
    });
    match faulted {
        Some(scenario) => render_fault_sweep(scenario, opts, &apps, &configs, &seeds, &outcomes),
        None => {
            // Fault-free sweep: a failed cell (a timeout that exhausted its
            // retries, say) has no row to render, so it aborts the sweep
            // with a typed message instead of fabricating a table.
            let reports = outcomes
                .into_iter()
                .zip(&cells)
                .map(|(outcome, cell)| {
                    let attempts = outcome.attempts();
                    outcome.report.map_err(|err| {
                        format!(
                            "{}/{} seed {} failed after {attempts} attempt(s): {err}",
                            cell.app.name,
                            cell.config.name(),
                            cell.seed
                        )
                    })
                })
                .collect::<Result<Vec<RunReport>, String>>()?;
            if opts.json {
                println!("{}", serde::json::to_string(&reports));
            } else {
                let matrix = AppMatrix::from_flat_reports(&apps, &configs, &seeds, reports);
                render_sweep(&matrix, &configs, &seeds);
            }
        }
    }
    Ok(())
}

/// Renders the fault-free sweep table, one row per application.
fn render_sweep(matrix: &[AppMatrix], configs: &[SystemConfig], seeds: &[u64]) {
    // Column order is derived from the configuration list, so reordering
    // it (or `SystemConfig::ALL`) reorders the table instead of silently
    // printing one configuration's numbers under another's header.
    let energy_cols: Vec<usize> = (0..configs.len())
        .filter(|&i| configs[i] != SystemConfig::Baseline)
        .collect();
    let slow_col = configs
        .iter()
        .position(|&c| c == SystemConfig::Thrifty)
        .expect("sweep table quotes the Thrifty slowdown");
    let replicated = seeds.len() > 1;
    let mut header = format!("{:<11} {:>9} |", "app", "imbal");
    for &i in &energy_cols {
        let label = format!("E:{}", short_label(configs[i]));
        if replicated {
            header.push_str(&format!(" {label:>13}"));
        } else {
            header.push_str(&format!(" {label:>8}"));
        }
    }
    header.push_str(&format!(" | {:>8}", "slowdn"));
    println!("{header}");
    for m in matrix {
        let aggs = m.aggregates();
        let base = &aggs[configs
            .iter()
            .position(|&c| c == SystemConfig::Baseline)
            .expect("sweep normalizes to Baseline")];
        let mut row = format!(
            "{:<11} {:>8.2}% |",
            m.app.name,
            base.imbalance.mean() * 100.0
        );
        for &i in &energy_cols {
            let e = &aggs[i].energy_vs_baseline;
            if replicated {
                row.push_str(&format!(
                    " {:>6.1}±{:>4.1}%",
                    e.mean() * 100.0,
                    e.std_dev() * 100.0
                ));
            } else {
                row.push_str(&format!(" {:>7.1}%", e.mean() * 100.0));
            }
        }
        row.push_str(&format!(
            " | {:>+7.2}%",
            aggs[slow_col].slowdown_vs_baseline.mean() * 100.0
        ));
        println!("{row}");
    }
}

/// Renders the fault-matrix sweep: per (app, config), metrics normalized
/// to the same-seed *faulted* Baseline, fault tallies merged, and failed
/// cells recorded instead of aborting the sweep.
fn render_fault_sweep(
    scenario: &str,
    opts: &Options,
    apps: &[AppSpec],
    configs: &[SystemConfig],
    seeds: &[u64],
    outcomes: &[CellOutcome],
) {
    let idx = |a: usize, c: usize, s: usize| (a * configs.len() + c) * seeds.len() + s;
    let base_col = configs
        .iter()
        .position(|&c| c == SystemConfig::Baseline)
        .expect("fault sweep normalizes to Baseline");
    let thr_col = configs
        .iter()
        .position(|&c| c == SystemConfig::Thrifty)
        .expect("fault sweep quotes the Thrifty columns");
    let mut aggs: Vec<AggregateReport> = Vec::with_capacity(apps.len() * configs.len());
    for (a, app) in apps.iter().enumerate() {
        for (c, &config) in configs.iter().enumerate() {
            let mut agg = AggregateReport::new(&app.name, config.name(), opts.nodes as usize);
            for s in 0..seeds.len() {
                let outcome = &outcomes[idx(a, c, s)];
                agg.merge_faults(&outcome.faults);
                agg.record_retries(outcome.retries.len() as u64);
                match (&outcome.report, &outcomes[idx(a, base_col, s)].report) {
                    (Ok(report), Ok(baseline)) => agg.push(report, baseline),
                    (Err(err), _) => agg.record_error(err),
                    (Ok(_), Err(_)) => agg.record_failure("baseline cell failed"),
                }
            }
            aggs.push(agg);
        }
    }
    if opts.json {
        println!("{}", serde::json::to_string(&aggs));
        return;
    }

    println!(
        "fault sweep: scenario {scenario:?}, {} nodes, {} seed(s)",
        opts.nodes,
        seeds.len()
    );
    println!(
        "{:<11} {:>7} {:>7} {:>6} | {:>8} {:>8} | {:>6}",
        "app", "inject", "recov", "quar", "E:Thr", "slowdn", "failed"
    );
    let mut totals = (0u64, 0u64, 0u64, 0u64);
    for (a, app) in apps.iter().enumerate() {
        let rows = &aggs[a * configs.len()..(a + 1) * configs.len()];
        let injected: u64 = rows.iter().map(|r| r.faults.injected()).sum();
        let recovered: u64 = rows.iter().map(|r| r.faults.guard_recoveries).sum();
        let quarantined: u64 = rows.iter().map(|r| r.faults.quarantine_entries).sum();
        let failed: u64 = rows.iter().map(|r| r.failed_cells).sum();
        let thrifty = &rows[thr_col];
        println!(
            "{:<11} {:>7} {:>7} {:>6} | {:>7.1}% {:>+7.2}% | {:>6}",
            app.name,
            injected,
            recovered,
            quarantined,
            thrifty.energy_vs_baseline.mean() * 100.0,
            thrifty.slowdown_vs_baseline.mean() * 100.0,
            failed
        );
        totals.0 += injected;
        totals.1 += recovered;
        totals.2 += quarantined;
        totals.3 += failed;
    }
    println!(
        "{scenario}: {} faults injected, {} guard recoveries, {} quarantine entries, \
         {} failed cells",
        totals.0, totals.1, totals.2, totals.3
    );
    // Coverage accounting only appears when supervision had something to
    // say — a fully clean sweep prints the historical output unchanged.
    let mut coverage = CellCoverage::default();
    for agg in &aggs {
        coverage.merge(&agg.coverage);
    }
    if coverage.retried > 0 || !coverage.is_complete() {
        println!("coverage: {coverage}");
    }
}

fn cmd_cutoff(opts: &Options) -> Result<(), Failure> {
    use thrifty_barrier::core::AlgorithmConfig;
    let app = app_by_name("Ocean")?;
    let harness = Harness::new(opts.jobs);
    // The cached Baseline bundle: one trace generation, one Baseline
    // simulation, shared with any other command using this harness.
    let trace = harness.try_trace(&app, opts.nodes, opts.seed)?;
    let base = harness.baseline(&app, opts.nodes, opts.seed);
    for (label, th) in [("cut-off off", None), ("cut-off 10%", Some(0.10))] {
        let cfg = AlgorithmConfig::thrifty().with_overprediction_threshold(th);
        let r = run_trace_with(&trace, opts.nodes, label, cfg, None);
        println!(
            "{label:<13} energy {:>6.1}%  slowdown {:>+6.2}%  disables {}",
            r.energy_normalized_to(&base.report).total() * 100.0,
            r.slowdown_vs(&base.report) * 100.0,
            r.counts.cutoff_disables
        );
    }
    Ok(())
}

fn cmd_trace(app_name: &str, opts: &Options) -> Result<(), Failure> {
    let app = app_by_name(app_name)?;
    let out = opts
        .out
        .as_deref()
        .ok_or("trace needs --out FILE (the export destination)")?;
    let sys = match &opts.config {
        Some(name) => config_by_name(name)?,
        None => SystemConfig::Thrifty,
    };
    let app_trace = app.try_generate(opts.nodes as usize, opts.seed)?;
    let traced = run_trace_recording(&app_trace, opts.nodes, sys, opts.ring);
    let body = match opts.format.as_str() {
        "jsonl" => thrifty_barrier::trace::to_jsonl(&traced.events),
        _ => {
            let name = format!("{} / {} / {} nodes", app.name, sys.name(), opts.nodes);
            thrifty_barrier::trace::to_perfetto(&traced.events, &name)
        }
    };
    std::fs::write(out, &body).map_err(|e| format!("writing {out:?}: {e}"))?;

    let summary = traced.report.trace.as_ref().expect("recording run");
    println!(
        "wrote {} ({}: {} events, {} dropped)",
        out, opts.format, summary.events, summary.dropped
    );
    let wl = &summary.wake_latency;
    println!(
        "wake-up latency over {} sleeper departures: p50 {:.0} p95 {:.0} p99 {:.0} max {} cycles",
        wl.samples, wl.p50, wl.p95, wl.p99, wl.max
    );
    print!("{}", PredictionAccuracyReport::from_events(&traced.events));
    Ok(())
}

fn usage() -> ! {
    eprintln!(
        "usage: thrifty-barrier <command> [options]\n\
         commands:\n  \
         list                      the ten Table 2 applications\n  \
         run <app> [--config C]    run one app (all five configs by default)\n  \
         sweep [--faults SC]       all apps x all configs (Figures 5/6 data);\n  \
         \x20                          --faults runs the fault-matrix sweep\n  \
         serve                     sweep across worker processes (--workers, default 4)\n  \
         cutoff                    the Ocean overprediction cut-off story\n  \
         trace <app> --out FILE    record per-episode events to a trace file\n\
         options: --nodes N (power of two <= 64), --seed S, --seeds K, --jobs J,\n\
         \x20        --json, --format perfetto|jsonl, --ring EVENTS_PER_THREAD, --config C\n\
         sweep supervision: --retries N (re-run transient failures, max 10),\n\
         \x20        --timeout-ms MS (per-cell wall-clock deadline),\n\
         \x20        --journal PATH (checkpoint completed cells to a JSONL journal),\n\
         \x20        --resume PATH (replay a journal, run only what is missing)\n\
         multi-process sweeps: --workers W (worker processes, max 64),\n\
         \x20        --heartbeat-ms MS (liveness period; silent workers are killed),\n\
         \x20        --poison-strikes K (worker deaths that quarantine a cell, max 10)"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    let result = match command.as_str() {
        "list" => {
            cmd_list();
            Ok(())
        }
        "run" => {
            let Some(app) = args.get(1) else { usage() };
            match parse_options(&args[2..]) {
                Ok(opts) => cmd_run(app, &opts),
                Err(e) => Err(e.into()),
            }
        }
        "sweep" => parse_options(&args[1..])
            .map_err(Failure::from)
            .and_then(|o| cmd_sweep(&o)),
        "serve" => {
            // `serve` is `sweep` with a worker fleet by default. The
            // default is injected *before* parsing so fleet-only tuning
            // flags (--heartbeat-ms, --poison-strikes) validate without
            // an explicit --workers.
            let mut argv: Vec<String> = args[1..].to_vec();
            if !argv.iter().any(|a| a == "--workers") {
                argv.insert(0, "--workers".into());
                argv.insert(1, DEFAULT_SERVE_WORKERS.to_string());
            }
            parse_options(&argv)
                .map_err(Failure::from)
                .and_then(|o| cmd_sweep(&o))
        }
        // Hidden: the worker half of `sweep --workers` / `serve`. Spawned
        // by the coordinator with pipes on stdin/stdout; never typed by a
        // person.
        "__worker" => std::process::exit(tb_serve::worker_main()),
        "cutoff" => parse_options(&args[1..])
            .map_err(Failure::from)
            .and_then(|o| cmd_cutoff(&o)),
        "trace" => {
            let Some(app) = args.get(1) else { usage() };
            match parse_options(&args[2..]) {
                Ok(opts) => cmd_trace(app, &opts),
                Err(e) => Err(e.into()),
            }
        }
        _ => {
            usage();
        }
    };
    if let Err(Failure { message, status }) = result {
        eprintln!("error: {message}");
        std::process::exit(status);
    }
}
