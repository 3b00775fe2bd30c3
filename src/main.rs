//! `thrifty-barrier` — command-line front end to the simulator.
//!
//! ```text
//! thrifty-barrier list
//! thrifty-barrier run <app> [--nodes N] [--seed S] [--seeds K] [--config NAME] [--json] [EXECUTOR]
//! thrifty-barrier sweep [--nodes N] [--seed S] [--seeds K] [--json] [--faults SCENARIO] [EXECUTOR]
//! thrifty-barrier serve [same flags as sweep; --workers defaults to 4]
//! thrifty-barrier reproduce <ID> [--nodes N] [--seed S] [EXECUTOR]
//! thrifty-barrier trace <app> --out FILE [--nodes N] [--seed S] [--format perfetto|jsonl]
//!                       [--config NAME] [--ring EVENTS]
//!
//! EXECUTOR: [--jobs J] [--retries N] [--timeout-ms MS] [--journal PATH | --resume PATH]
//!           [--workers W] [--heartbeat-ms MS]
//! ```
//!
//! Each subcommand takes only the flags listed for it; any other is
//! refused with "does not apply to <command>".
//!
//! Every subcommand that runs cells — `run`, `sweep`, `serve`,
//! `reproduce` and `trace` — maps its options to an [`ExecConfig`] and
//! runs them through the library's one journaled executor,
//! [`tb_serve::execute`], then renders. In process it fans the cells out
//! across a harness worker pool: `--jobs J` sets the pool size (default:
//! one worker per hardware thread). `--seeds K` replicates every cell over K
//! consecutive seeds, reporting mean ± σ. Each (app, nodes, seed)
//! generates its trace once and simulates Baseline exactly once, no matter
//! how many configurations consume it; results are emitted in matrix
//! order, so output is byte-identical at every `--jobs` level. `run`'s
//! replicated lines and both sweep tables pair each cell with the same
//! seed's Baseline through one aggregation, [`aggregate`].
//!
//! `--workers W` (and `serve`, which is `sweep` with four workers) shards
//! the same cells across W spawned worker *processes* instead of threads:
//! the `tb-serve` coordinator leases cells over pipes, heartbeats the
//! fleet, reassigns the leases of dead workers (`kill -9` included), and
//! quarantines cells that kill two workers in a row as poison. Output
//! stays byte-identical at every worker count; there is also a hidden
//! `__worker` subcommand the coordinator spawns, which is not part of the
//! CLI surface.
//!
//! `reproduce <ID>` prints one of the paper's artifacts (Tables 1–3,
//! Figures 3/5/6, the Ocean cut-off, the ablations A1–A6 and the
//! extensions X1/X2; see EXPERIMENTS.md). Its cells run through the same
//! journaled executor, so the executor flags mean the same thing for
//! every experiment.
//!
//! `trace` runs its one cell through the same executor, recorded
//! (`ExecConfig::record`, the `--ring` capacity).
//!
//! Exit status: 0 on success, 1 for rejected options or a failed run, and
//! 2 for a usage error or a Table 2 imbalance the machine size cannot
//! reach (Volrend at 2 nodes), which the executor checks before any cell
//! runs, whichever subcommand and executor run the cells.

use std::time::Duration;
use thrifty_barrier::cli::{
    app_by_name, config_by_name, parse_options, Options, DEFAULT_SERVE_WORKERS,
};
use thrifty_barrier::core::{FaultPlan, SystemConfig};
use thrifty_barrier::machine::harness::{Cell, SupervisionPolicy};
use thrifty_barrier::machine::{aggregate, AggregateReport, CellCoverage, CellOutcome, RunReport};
use thrifty_barrier::reproduce;
use thrifty_barrier::serve::{execute, ExecConfig, ExecError, JournalMode};
use thrifty_barrier::trace::PredictionAccuracyReport;
use thrifty_barrier::workloads::AppSpec;

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

/// One application under every configuration, or under Baseline and the
/// `--config` choice: its cells run through the journaled executor, and
/// each row is normalized to the same seed's Baseline.
fn cmd_run(app_name: &str, opts: &Options) -> Result<(), ExecError> {
    let app = app_by_name(app_name)?;
    let chosen = opts.config.as_deref().map(config_by_name).transpose()?;
    let configs = match chosen {
        None => SystemConfig::ALL.to_vec(),
        Some(SystemConfig::Baseline) => vec![SystemConfig::Baseline],
        Some(config) => vec![SystemConfig::Baseline, config],
    };
    let shown = |config: &str| chosen.is_none_or(|c| c.name() == config);
    let seeds = opts.seed_list();
    let cells = Cell::matrix(std::slice::from_ref(&app), &configs, opts.nodes, &seeds);
    let params = format!(
        "run {} nodes={} seed={} seeds={} config={}",
        app.name,
        opts.nodes,
        opts.seed,
        opts.seeds,
        chosen.map_or("-", SystemConfig::name)
    );
    let outcomes = execute(&cells, &exec_config(opts, params))?;
    let reports = reports_of(&outcomes, &cells)?;
    let rows: Vec<&RunReport> = (cells.iter().zip(&reports))
        .filter(|(cell, _)| shown(cell.config.name()))
        .map(|(_, &report)| report)
        .collect();
    if opts.json {
        match (chosen, &rows[..]) {
            (Some(_), [report]) => println!("{}", serde::json::to_string(report)),
            _ => println!("{}", serde::json::to_string(&rows)),
        }
    } else if seeds.len() == 1 {
        // Baseline is the first configuration.
        for report in rows {
            print_report(report, reports[0]);
        }
    } else {
        for agg in aggregate(&cells, &outcomes) {
            if shown(&agg.config) {
                print_aggregate(&agg);
            }
        }
    }
    Ok(())
}

/// The sweep: every (app × config × seed) cell runs as an isolated
/// [`CellOutcome`], optionally under a named fault scenario, through the
/// journaled executor. A disabled scenario ("none") — or no
/// scenario at all — renders the ordinary sweep table, byte-for-byte, so
/// the zero-cost-when-disabled guarantee is directly observable.
fn cmd_sweep(opts: &Options) -> Result<(), ExecError> {
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
    let params = format!(
        "sweep nodes={} seed={} seeds={} faults={}",
        opts.nodes,
        opts.seed,
        opts.seeds,
        scenario.unwrap_or("-")
    );
    let outcomes = execute(&cells, &exec_config(opts, params))?;
    let aggs = aggregate(&cells, &outcomes);

    let faulted = scenario.filter(|name| {
        FaultPlan::by_name(name, 0)
            .expect("validated at parse")
            .enabled()
    });
    match faulted {
        Some(scenario) => render_fault_sweep(scenario, opts, &aggs, &configs),
        None => {
            let reports = reports_of(&outcomes, &cells)?;
            if opts.json {
                println!("{}", serde::json::to_string(&reports));
            } else {
                render_sweep(&aggs, &configs, seeds.len() > 1);
            }
        }
    }
    Ok(())
}

/// One paper artifact ([`reproduce::EXPERIMENTS`]): its cells run through
/// the same journaled executor as `sweep`, and [`reproduce::render`]
/// prints the result.
fn cmd_reproduce(id: &str, opts: &Options) -> Result<(), ExecError> {
    let exp = reproduce::by_id(id).ok_or_else(|| {
        let ids: Vec<&str> = reproduce::EXPERIMENTS.iter().map(|e| e.id).collect();
        format!("unknown experiment {id:?} (options: {})", ids.join(", "))
    })?;
    let cells = (exp.cells)(opts.nodes, opts.seed);
    let params = format!(
        "reproduce {} nodes={} seed={}",
        exp.id, opts.nodes, opts.seed
    );
    let outcomes = execute(&cells, &exec_config(opts, params))?;
    let reports = reports_of(&outcomes, &cells)?;
    let run = reproduce::Run {
        nodes: opts.nodes,
        seed: opts.seed,
        cells: &cells,
        reports: &reports,
    };
    print!("{}", reproduce::render(exp, &run));
    Ok(())
}

/// The executor settings `opts` asks for. `params` pins everything that
/// changes the cells or their results, so a journal resumes only under
/// the command that wrote it.
fn exec_config(opts: &Options, params: String) -> ExecConfig {
    // (`--journal` with `--resume` is rejected at parse.)
    let journal = match (&opts.journal, &opts.resume) {
        (Some(path), _) => JournalMode::Create(path.clone()),
        (None, Some(path)) => JournalMode::Resume(path.clone()),
        (None, None) => JournalMode::Off,
    };
    ExecConfig {
        jobs: opts.jobs,
        workers: opts.workers,
        heartbeat_ms: opts.heartbeat_ms,
        policy: SupervisionPolicy {
            retries: opts.retries,
            timeout: opts.timeout_ms.map(Duration::from_millis),
            ..SupervisionPolicy::default()
        },
        journal,
        params,
        record: None,
    }
}

/// The reports of fault-free cells. A failed cell (a timeout that
/// exhausted its retries, say) has no row to render, so it aborts the
/// command with a typed message instead of fabricating a table.
fn reports_of<'a>(
    outcomes: &'a [CellOutcome],
    cells: &[Cell],
) -> Result<Vec<&'a RunReport>, String> {
    outcomes
        .iter()
        .zip(cells)
        .map(|(outcome, cell)| {
            let attempts = outcome.attempts();
            outcome.report.as_ref().map_err(|err| {
                format!(
                    "{}/{} seed {} failed after {attempts} attempt(s): {err}",
                    cell.app.name,
                    cell.config.name(),
                    cell.seed
                )
            })
        })
        .collect()
}

/// Renders the fault-free sweep table, one row per application, from the
/// per-(app, config) aggregates in `configs` order.
fn render_sweep(aggs: &[AggregateReport], configs: &[SystemConfig], replicated: bool) {
    // Column order is derived from the configuration list, so reordering
    // it (or `SystemConfig::ALL`) reorders the table instead of silently
    // printing one configuration's numbers under another's header.
    let col = |config: SystemConfig| configs.iter().position(|&c| c == config);
    let energy_cols: Vec<usize> = (0..configs.len())
        .filter(|&i| configs[i] != SystemConfig::Baseline)
        .collect();
    let base_col = col(SystemConfig::Baseline).expect("sweep normalizes to Baseline");
    let slow_col = col(SystemConfig::Thrifty).expect("sweep table quotes the Thrifty slowdown");
    let mut header = format!("{:<11} {:>9} |", "app", "imbal");
    let width = if replicated { 13 } else { 8 };
    for &i in &energy_cols {
        let label = format!("E:{}", short_label(configs[i]));
        header.push_str(&format!(" {label:>width$}"));
    }
    header.push_str(&format!(" | {:>8}", "slowdn"));
    println!("{header}");
    for aggs in aggs.chunks(configs.len()) {
        let base = &aggs[base_col];
        let mut row = format!("{:<11} {:>8.2}% |", base.app, base.imbalance.mean() * 100.0);
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

/// Renders the fault-matrix sweep from the per-(app, config) aggregates
/// in `configs` order: metrics normalized to the same-seed *faulted*
/// Baseline, fault tallies merged, and failed cells recorded instead of
/// aborting the sweep.
fn render_fault_sweep(
    scenario: &str,
    opts: &Options,
    aggs: &[AggregateReport],
    configs: &[SystemConfig],
) {
    if opts.json {
        println!("{}", serde::json::to_string(&aggs));
        return;
    }
    let thr_col = configs
        .iter()
        .position(|&c| c == SystemConfig::Thrifty)
        .expect("fault sweep quotes the Thrifty columns");

    println!(
        "fault sweep: scenario {scenario:?}, {} nodes, {} seed(s)",
        opts.nodes, opts.seeds
    );
    println!(
        "{:<11} {:>7} {:>7} {:>6} | {:>8} {:>8} | {:>6}",
        "app", "inject", "recov", "quar", "E:Thr", "slowdn", "failed"
    );
    // Injected, recovered, quarantined and failed, summed over `rows`.
    let tally = |rows: &[AggregateReport]| {
        let sum = |f: fn(&AggregateReport) -> u64| rows.iter().map(f).sum::<u64>();
        [
            sum(|r| r.faults.injected()),
            sum(|r| r.faults.guard_recoveries),
            sum(|r| r.faults.quarantine_entries),
            sum(|r| r.failed_cells),
        ]
    };
    for rows in aggs.chunks(configs.len()) {
        let [injected, recovered, quarantined, failed] = tally(rows);
        let thrifty = &rows[thr_col];
        println!(
            "{:<11} {:>7} {:>7} {:>6} | {:>7.1}% {:>+7.2}% | {:>6}",
            thrifty.app,
            injected,
            recovered,
            quarantined,
            thrifty.energy_vs_baseline.mean() * 100.0,
            thrifty.slowdown_vs_baseline.mean() * 100.0,
            failed
        );
    }
    let [injected, recovered, quarantined, failed] = tally(aggs);
    println!(
        "{scenario}: {injected} faults injected, {recovered} guard recoveries, \
         {quarantined} quarantine entries, {failed} failed cells"
    );
    // Coverage accounting only appears when supervision had something to
    // say — a fully clean sweep prints the historical output unchanged.
    let mut coverage = CellCoverage::default();
    for agg in aggs {
        coverage.merge(&agg.coverage);
    }
    if coverage.retried > 0 || !coverage.is_complete() {
        println!("coverage: {coverage}");
    }
}

/// One cell, recorded: its events go to `--out` as Perfetto or JSONL, and
/// stdout gets the wake-up latency and prediction-accuracy summaries.
fn cmd_trace(app_name: &str, opts: &Options) -> Result<(), ExecError> {
    let app = app_by_name(app_name)?;
    let out = opts.out.as_deref().ok_or(ExecError::Failed(
        "trace needs --out FILE (the export destination)".into(),
    ))?;
    let sys = match &opts.config {
        Some(name) => config_by_name(name)?,
        None => SystemConfig::Thrifty,
    };
    let cells = [Cell::new(app, opts.nodes, opts.seed, sys)];
    let cfg = ExecConfig {
        record: Some(opts.ring),
        ..exec_config(opts, String::new())
    };
    let outcomes = execute(&cells, &cfg)?;
    let report = reports_of(&outcomes, &cells)?[0];
    let events = &outcomes[0].events;
    let body = match opts.format.as_str() {
        "jsonl" => thrifty_barrier::trace::to_jsonl(events),
        _ => {
            let name = format!("{} / {} / {} nodes", report.app, sys.name(), opts.nodes);
            thrifty_barrier::trace::to_perfetto(events, &name)
        }
    };
    std::fs::write(out, &body).map_err(|e| format!("writing {out:?}: {e}"))?;

    let summary = report.trace.as_ref().expect("recording run");
    println!(
        "wrote {} ({}: {} events, {} dropped)",
        out, opts.format, summary.events, summary.dropped
    );
    let wl = &summary.wake_latency;
    println!(
        "wake-up latency over {} sleeper departures: p50 {:.0} p95 {:.0} p99 {:.0} max {} cycles",
        wl.samples, wl.p50, wl.p95, wl.p99, wl.max
    );
    print!("{}", PredictionAccuracyReport::from_events(events));
    Ok(())
}

fn usage() -> ! {
    eprintln!(
        "usage: thrifty-barrier <command> [options]\n\
         commands:\n  \
         list                      the ten Table 2 applications\n  \
         run <app>                 run one app (all five configs by default);\n  \
         \x20                          --seeds K, --config C, --json\n  \
         sweep                     all apps x all configs (Figures 5/6 data);\n  \
         \x20                          --seeds K, --json, --faults SC (fault-matrix sweep)\n  \
         serve                     sweep across worker processes (--workers, default 4)\n  \
         reproduce <ID>            one paper artifact: E1-E6, E8, A1-A6, X1, X2\n  \
         trace <app> --out FILE    record per-episode events to a trace file;\n  \
         \x20                          --format perfetto|jsonl, --ring EVENTS_PER_THREAD, --config C\n\
         every command: --nodes N (power of two <= 64), --seed S\n\
         run, sweep, serve and reproduce (the cell executor): --jobs J,\n\
         \x20        --retries N (re-run transient failures, max 10),\n\
         \x20        --timeout-ms MS (per-cell wall-clock deadline),\n\
         \x20        --journal PATH (checkpoint completed cells to a JSONL journal),\n\
         \x20        --resume PATH (replay a journal, run only what is missing),\n\
         \x20        --workers W (worker processes, max 64),\n\
         \x20        --heartbeat-ms MS (with --workers: liveness period; silent workers are killed)"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    // The application or experiment `run`, `reproduce` and `trace` name.
    let target = || args.get(1).unwrap_or_else(|| usage());
    let parse = |skip: usize| {
        parse_options(command, args.get(skip..).unwrap_or_default()).map_err(ExecError::from)
    };
    let result = match command.as_str() {
        "list" => {
            cmd_list();
            Ok(())
        }
        "run" => parse(2).and_then(|o| cmd_run(target(), &o)),
        "sweep" => parse(1).and_then(|o| cmd_sweep(&o)),
        "serve" => {
            // `serve` is `sweep` with a worker fleet by default. The
            // default is injected *before* parsing so the fleet-only
            // --heartbeat-ms validates without an explicit --workers.
            let mut argv: Vec<String> = args[1..].to_vec();
            if !argv.iter().any(|a| a == "--workers") {
                argv.insert(0, "--workers".into());
                argv.insert(1, DEFAULT_SERVE_WORKERS.to_string());
            }
            parse_options("serve", &argv)
                .map_err(ExecError::from)
                .and_then(|o| cmd_sweep(&o))
        }
        // Hidden: the worker half of `sweep --workers` / `serve`. Spawned
        // by the coordinator with pipes on stdin/stdout; never typed by a
        // person.
        "__worker" => std::process::exit(tb_serve::worker_main()),
        "reproduce" => parse(2).and_then(|o| cmd_reproduce(target(), &o)),
        "trace" => parse(2).and_then(|o| cmd_trace(target(), &o)),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        let unreachable = matches!(e, ExecError::Unreachable(_));
        std::process::exit(if unreachable { 2 } else { 1 });
    }
}
