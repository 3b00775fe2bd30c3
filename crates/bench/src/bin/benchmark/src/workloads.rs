//! The four workloads, their output gates, and the runs that measure them.

use crate::cli::{self, CliRun, FaultTotals};
use crate::metrics::{self, median, percentile, tail_percentile, Values, Verdict};
use crate::probes::{self, ProbeReport};
use crate::rounds::{run_round, set_up_only, Round, RoundSpec};
use crate::spans::{self, Ctx, Span, Tracer, PID_CLI, PID_PROBES, PID_ROUND};
use std::path::PathBuf;
use std::time::Instant;
use tb_core::SystemConfig;
use tb_machine::run::PAPER_SEED;
use tb_machine::RunReport;
use tb_sim::digest::fnv1a64_hex;
use tb_workloads::AppSpec;

/// Every workload runs at least this many timed rounds, however short
/// `--seconds` is, so a median exists.
const MIN_ROUNDS: usize = 3;
/// Untraced in-process rounds a traced CLI workload adds, to compare its
/// traced in-process round against.
const REFERENCE_ROUNDS: usize = 3;
/// In-process `--jobs 2` CLI sweeps a traced fleet run takes (the gate's
/// included), to compare the fleet against.
const JOBS_TWO_RUNS: usize = 3;

#[derive(Debug)]
pub enum Kind {
    /// `Harness::run_matrix` on `jobs` threads, in this process.
    InProcess {
        configs: &'static [SystemConfig],
        jobs: usize,
    },
    /// `thrifty-barrier sweep --workers N`: the `tb-serve` process fleet.
    Fleet { workers: usize },
    /// `thrifty-barrier sweep --faults storm --jobs N`: the supervised
    /// path under fault injection.
    Storm { jobs: usize },
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub nodes: u16,
    /// Seeds per round (`S..S+K-1`).
    pub seeds: u64,
    pub kind: Kind,
}

impl Workload {
    fn configs(&self) -> &'static [SystemConfig] {
        match self.kind {
            Kind::InProcess { configs, .. } => configs,
            Kind::Fleet { .. } | Kind::Storm { .. } => &SystemConfig::ALL,
        }
    }

    /// Threads (or worker processes) the workload runs on.
    fn jobs(&self) -> usize {
        match self.kind {
            Kind::InProcess { jobs, .. } | Kind::Storm { jobs } => jobs,
            Kind::Fleet { workers } => workers,
        }
    }

    fn is_cli(&self) -> bool {
        !matches!(self.kind, Kind::InProcess { .. })
    }

    /// The in-process round that does this workload's work: the workload
    /// itself, or the in-process equivalent of a CLI workload.
    fn round_spec(&self, seeds: &[u64]) -> RoundSpec {
        RoundSpec {
            nodes: self.nodes,
            configs: self.configs(),
            seeds: seeds.to_vec(),
            jobs: self.jobs(),
            faults: matches!(self.kind, Kind::Storm { .. }).then_some("storm"),
        }
    }

    fn cells_per_round(&self) -> u64 {
        AppSpec::splash2().len() as u64 * self.configs().len() as u64 * self.seeds
    }

    /// Barrier episodes one round simulates over every cell.
    fn episodes_per_round(&self) -> u64 {
        let per_seed: u64 = AppSpec::splash2()
            .iter()
            .map(|a| a.total_instances() as u64)
            .sum();
        per_seed * self.configs().len() as u64 * self.seeds
    }

    /// The CLI arguments of one sweep of this workload.
    fn sweep_args(&self, seed: u64) -> Vec<String> {
        let mut a = strings(&["sweep", "--nodes", &self.nodes.to_string()]);
        a.extend(strings(&[
            "--seed",
            &seed.to_string(),
            "--seeds",
            &self.seeds.to_string(),
        ]));
        match self.kind {
            Kind::Fleet { workers } => a.extend(strings(&["--workers", &workers.to_string()])),
            Kind::Storm { jobs } => {
                a.extend(strings(&["--faults", "storm", "--jobs", &jobs.to_string()]))
            }
            Kind::InProcess { .. } => unreachable!("in-process workloads spawn no CLI"),
        }
        a
    }
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "sweep-n64",
        nodes: 64,
        seeds: 3,
        kind: Kind::InProcess {
            configs: &SystemConfig::ALL,
            jobs: 1,
        },
    },
    Workload {
        name: "halt-n8",
        nodes: 8,
        seeds: 120,
        kind: Kind::InProcess {
            configs: &[SystemConfig::Baseline, SystemConfig::ThriftyHalt],
            jobs: 2,
        },
    },
    Workload {
        name: "fleet-n64",
        nodes: 64,
        seeds: 4,
        kind: Kind::Fleet { workers: 2 },
    },
    Workload {
        name: "storm-n64",
        nodes: 64,
        seeds: 3,
        kind: Kind::Storm { jobs: 1 },
    },
];

/// Command-line options.
#[derive(Debug)]
pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    pub cli: PathBuf,
}

/// Cargo's target directory: `$CARGO_TARGET_DIR`, or `target`.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

fn strings(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn fixture(name: &str) -> Result<String, String> {
    let path = format!("tests/golden/{name}");
    std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {path} ({e}); run from the repository root"))
}

/// Cells attempted and failed, and every check that did not hold.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn cells(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// An output gate over `cells` cells: a failed gate fails them all.
    fn gate(&mut self, what: &str, cells: u64, ok: bool) {
        self.cells(cells, if ok { 0 } else { cells });
        eprintln!("gate {}: {what}", if ok { "ok" } else { "FAILED" });
        self.check(ok, || format!("gate failed: {what}"));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Counts an in-process round's cells and checks its harness counters
    /// and (given the first round's fingerprint) its determinism.
    fn round(&mut self, round: &Round, spec: &RoundSpec, first: Option<u64>) {
        let pairs = AppSpec::splash2().len() as u64 * spec.seeds.len() as u64;
        self.cells(round.reports.len() as u64, round.failed());
        self.check(
            round.trace_generations == pairs && round.baseline_runs == pairs,
            || {
                format!(
                    "harness counters: {} trace generations and {} Baseline runs, want {pairs} each",
                    round.trace_generations, round.baseline_runs
                )
            },
        );
        if let Some(first) = first {
            self.check(round.fingerprint() == first, || {
                "rounds of identical work produced different results".into()
            });
        }
    }
}

/// Runs `round` back to back until `seconds` have passed, and at least
/// `MIN_ROUNDS` times.
fn timed<R>(seconds: f64, mut round: impl FnMut() -> Result<R, String>) -> Result<Vec<R>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        out.push(round()?);
    }
    Ok(out)
}

/// One timed round as the end-to-end metrics see it.
#[derive(Debug)]
struct Timed {
    wall_s: f64,
    setup_s: f64,
    peak_rss_kib: u64,
}

/// What the CLI runs reported besides their timings.
#[derive(Debug, Default)]
struct CliSide {
    /// Output every round of the workload must reproduce.
    reference: String,
    /// Walls of in-process `--jobs 2` sweeps (fleet only).
    jobs_two_walls: Vec<f64>,
    fleet_deaths: u64,
    fleet_respawns: u64,
    storm: Option<FaultTotals>,
}

impl CliSide {
    /// Reads one finished workload sweep: returns how many cells it failed
    /// (all of them if its output differs from the reference).
    fn read(&mut self, w: &Workload, run: &CliRun) -> Result<u64, String> {
        let cells = w.cells_per_round();
        let mut failed = if run.success && run.stdout == self.reference {
            0
        } else {
            cells
        };
        match w.kind {
            Kind::Storm { .. } => match cli::parse_fault_totals(&run.stdout, "storm") {
                Some(t) => {
                    failed = failed.max(t.failed_cells);
                    self.storm = Some(t);
                }
                None => failed = cells,
            },
            _ => {
                let (deaths, respawns) = cli::parse_fleet_health(&run.stderr)?;
                self.fleet_deaths += deaths;
                self.fleet_respawns += respawns;
            }
        }
        Ok(failed)
    }
}

fn run_cli(opts: &Options, argv: &[String]) -> Result<CliRun, String> {
    let run = cli::run(&opts.cli, argv)?;
    if !run.success {
        eprintln!("thrifty-barrier {} failed:\n{}", argv.join(" "), run.stderr);
    }
    Ok(run)
}

/// The paper-seed sweeps every workload gates on: the 8- and 64-node JSON
/// report streams must hash to the committed digests. Returns the paper
/// gap of the 64-node sweep.
fn paper_seed_gates(w: &Workload, tally: &mut Tally) -> Result<f64, String> {
    let apps = AppSpec::splash2();
    let mut gap = None;
    for (nodes, digest) in [
        (8u16, "sweep_n8_json.digest"),
        (64, "sweep_n64_json.digest"),
    ] {
        let spec = RoundSpec {
            nodes,
            configs: &SystemConfig::ALL,
            seeds: vec![PAPER_SEED],
            jobs: w.jobs(),
            faults: None,
        };
        let want = fixture(digest)?;
        let round = run_round(&spec, None);
        let matrix = round.matrix(&apps, &spec);
        let ok = matrix.as_ref().is_some_and(|m| {
            let flat: Vec<RunReport> = m
                .iter()
                .cloned()
                .flat_map(|a| a.into_flat_reports())
                .collect();
            fnv1a64_hex(serde::json::to_string(&flat).as_bytes()) == want.trim()
        });
        tally.gate(
            &format!("{nodes}-node paper-seed sweep JSON digest matches tests/golden/{digest}"),
            round.reports.len() as u64,
            ok,
        );
        if let (64, Some(m)) = (nodes, &matrix) {
            let (thrifty, halt, slowdown) = metrics::headline(m);
            eprintln!(
                "§5.1 headline at the paper seed: Thrifty saves {thrifty:.2}% (paper 17), \
                 Thrifty-Halt {halt:.2}% (paper 11), Thrifty slowdown {slowdown:+.2}% (paper 2)"
            );
            gap = Some(metrics::paper_gap_pp(m));
        }
    }
    // Without the sweep there is no gap to report; the failed gate
    // already marks the run incorrect.
    Ok(gap.unwrap_or(f64::NAN))
}

/// The CLI workloads' own gates. They also record, in `side`, the output
/// every timed round must reproduce.
fn cli_gates(
    opts: &Options,
    w: &Workload,
    tally: &mut Tally,
    side: &mut CliSide,
) -> Result<(), String> {
    let sweep = w.sweep_args(opts.seed);
    let cells = w.cells_per_round();
    match w.kind {
        Kind::Fleet { .. } => {
            let jobs_two = run_cli(opts, &jobs_two_args(&sweep))?;
            let fleet = run_cli(opts, &sweep)?;
            tally.gate(
                "fleet stdout is byte-identical to the in-process --jobs 2 sweep",
                2 * cells,
                jobs_two.success && fleet.success && fleet.stdout == jobs_two.stdout,
            );
            side.jobs_two_walls.push(jobs_two.wall);
            side.reference = jobs_two.stdout;
            side.read(w, &fleet)?;
        }
        Kind::Storm { .. } => {
            let small = strings(&["sweep", "--nodes", "8", "--faults", "storm", "--jobs", "1"]);
            let storm8 = run_cli(opts, &small)?;
            tally.gate(
                "8-node storm sweep matches tests/golden/fault_sweep_n8.txt",
                50,
                storm8.success && storm8.stdout == fixture("fault_sweep_n8.txt")?,
            );
            // The first sweep of the workload's own seeds sets the output
            // every timed round must reproduce.
            let first = run_cli(opts, &sweep)?;
            side.reference = first.stdout.clone();
            let failed = side.read(w, &first)?;
            tally.cells(cells, failed);
            tally.check(failed == 0, || {
                format!("the storm sweep failed {failed} cell(s)")
            });
        }
        Kind::InProcess { .. } => unreachable!("in-process workloads spawn no CLI"),
    }
    Ok(())
}

/// The fleet sweep's arguments with the fleet replaced by `--jobs 2`.
fn jobs_two_args(fleet: &[String]) -> Vec<String> {
    let mut plain = fleet.to_vec();
    let at = plain
        .iter()
        .position(|a| a == "--workers")
        .expect("a fleet sweep names its workers");
    plain.splice(at..at + 2, strings(&["--jobs", "2"]));
    plain
}

/// Runs the workload and returns its verdict and metrics.
pub fn run(opts: &Options) -> Result<(Verdict, Values), String> {
    let w = opts.workload;
    let seeds: Vec<u64> = (0..w.seeds).map(|i| opts.seed.wrapping_add(i)).collect();
    let spec = w.round_spec(&seeds);
    let mut tally = Tally::default();
    let mut side = CliSide::default();
    let mut values = Values::default();
    eprintln!(
        "workload {}: {} nodes, seeds {}..{}, {} cells per round",
        w.name,
        w.nodes,
        opts.seed,
        opts.seed.wrapping_add(w.seeds - 1),
        w.cells_per_round()
    );

    let paper_gap = paper_seed_gates(w, &mut tally)?;
    let mut first = None;
    let rounds: Vec<Timed> = if w.is_cli() {
        cli_gates(opts, w, &mut tally, &mut side)?;
        let sweep = w.sweep_args(opts.seed);
        timed(opts.seconds, || {
            let setup_s = set_up_only(&spec);
            let run = run_cli(opts, &sweep)?;
            let failed = side.read(w, &run)?;
            tally.cells(w.cells_per_round(), failed);
            tally.check(failed == 0, || {
                format!("a CLI round failed {failed} cell(s) or changed its output")
            });
            Ok(Timed {
                wall_s: run.wall,
                setup_s,
                peak_rss_kib: run.peak_rss_kib,
            })
        })?
    } else {
        let mut rounds = timed(opts.seconds, || {
            let r = run_round(&spec, None);
            tally.round(&r, &spec, first);
            first.get_or_insert(r.fingerprint());
            tally.check(r.episodes() == w.episodes_per_round(), || {
                format!(
                    "a round ran {} episodes, want {}",
                    r.episodes(),
                    w.episodes_per_round()
                )
            });
            Ok(Timed {
                wall_s: r.wall_s,
                setup_s: r.setup_s,
                peak_rss_kib: 0,
            })
        })?;
        // Every round ran in this process: its peak is the process's.
        let hwm = cli::self_vm_hwm_kib();
        rounds.iter_mut().for_each(|r| r.peak_rss_kib = hwm);
        rounds
    };
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let listed: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    eprintln!(
        "{} timed rounds, wall median {:.4} s: {}",
        walls.len(),
        median(&walls),
        listed.join(" ")
    );

    if opts.trace {
        traced(
            opts,
            w,
            &spec,
            &rounds,
            first,
            &mut side,
            &mut tally,
            &mut values,
        )?;
    } else {
        let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
        let peaks: Vec<f64> = rounds.iter().map(|r| r.peak_rss_kib as f64).collect();
        // Throughput from the fastest round: interference from the shared
        // host only ever slows a round down, and over ten-run sets the
        // fastest round varied about half as much as the median one (see
        // README.md, "Why these bounds").
        let fastest = walls.iter().copied().fold(f64::INFINITY, f64::min);
        values.set("episodes_per_s", w.episodes_per_round() as f64 / fastest);
        values.set("setup_s", median(&setups));
        values.set("peak_rss_mb", median(&peaks) / 1024.0);
        values.set("paper_gap_pp", paper_gap);
    }

    for p in &tally.problems {
        eprintln!("problem: {p}");
    }
    let verdict = Verdict {
        correct: tally.problems.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
    };
    Ok((verdict, values))
}

/// The traced run: one traced in-process round, the CLI round in a span,
/// the layer probes, and the span file.
#[allow(clippy::too_many_arguments)]
fn traced(
    opts: &Options,
    w: &Workload,
    spec: &RoundSpec,
    rounds: &[Timed],
    mut first: Option<u64>,
    side: &mut CliSide,
    tally: &mut Tally,
    values: &mut Values,
) -> Result<(), String> {
    let tracer = Tracer::default();
    // Untraced walls of the in-process work the traced round repeats: the
    // rounds just timed, or fresh rounds of a CLI workload's equivalent.
    let (round_walls, sim_walls): (Vec<f64>, Vec<f64>) = if w.is_cli() {
        (0..REFERENCE_ROUNDS)
            .map(|_| {
                let r = run_round(spec, None);
                tally.round(&r, spec, first);
                first.get_or_insert(r.fingerprint());
                (r.wall_s, r.wall_s - r.setup_s)
            })
            .unzip()
    } else {
        rounds
            .iter()
            .map(|r| (r.wall_s, r.wall_s - r.setup_s))
            .unzip()
    };
    let round = run_round(spec, Some(&tracer));
    tally.round(&round, spec, first);

    let mut serve_overhead_pct = 0.0;
    if w.is_cli() {
        let name = if matches!(w.kind, Kind::Fleet { .. }) {
            "serve.fleet_sweep"
        } else {
            "cli.storm_sweep"
        };
        let run = tracer.span(Ctx::root(PID_CLI), name, "cli", None, |_| {
            run_cli(opts, &w.sweep_args(opts.seed))
        })?;
        let failed = side.read(w, &run)?;
        tally.cells(w.cells_per_round(), failed);
        tally.check(failed == 0, || {
            format!("the traced CLI round failed {failed} cell(s)")
        });
        if let Kind::Fleet { .. } = w.kind {
            while side.jobs_two_walls.len() < JOBS_TWO_RUNS {
                let plain = run_cli(opts, &jobs_two_args(&w.sweep_args(opts.seed)))?;
                tally.check(plain.success && plain.stdout == side.reference, || {
                    "an in-process --jobs 2 sweep changed its output".into()
                });
                side.jobs_two_walls.push(plain.wall);
            }
            let fleet = median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>());
            serve_overhead_pct = (fleet / median(&side.jobs_two_walls) - 1.0) * 100.0;
        }
        if let (Kind::Storm { .. }, Some(cli)) = (&w.kind, side.storm) {
            // The CLI's totals cover the same cells, none of which failed.
            let ours = round.faults;
            tally.check(
                ours == FaultTotals {
                    failed_cells: 0,
                    ..cli
                },
                || format!("in-process fault totals {ours:?} differ from the CLI's {cli:?}"),
            );
        }
    }
    values.set("serve.overhead_pct", serve_overhead_pct);
    values.set("serve.worker_deaths", side.fleet_deaths as f64);
    values.set("serve.respawns", side.fleet_respawns as f64);
    let faults = side.storm.unwrap_or(round.faults);
    values.set("faults.injected", faults.injected as f64);
    values.set("faults.guard_recoveries", faults.guard_recoveries as f64);
    values.set(
        "faults.quarantine_entries",
        faults.quarantine_entries as f64,
    );

    let spans = tracer.spans();
    round_metrics(
        &round,
        &spans,
        spec,
        median(&round_walls),
        median(&sim_walls),
        values,
    );

    eprintln!("probes: replaying every cell of the paper-seed 64-node sweep");
    let report = probes::run(&tracer)?;
    for u in &report.unfaithful {
        tally.check(false, || format!("unfaithful replay: {u}"));
    }
    probe_metrics(&report, values);

    let path = opts.trace_out.clone().unwrap_or_else(|| {
        target_dir()
            .join("benchmark")
            .join(format!("trace-{}-{}.json", w.name, opts.seed))
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let doc = spans::to_chrome_trace(
        &tracer.spans(),
        &[
            (PID_ROUND, "traced round"),
            (PID_CLI, "CLI round"),
            (PID_PROBES, "layer probes"),
        ],
    );
    std::fs::write(&path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "span file (open in https://ui.perfetto.dev): {}",
        path.display()
    );
    Ok(())
}

/// The traced round's layer breakdown.
fn round_metrics(
    round: &Round,
    spans: &[Span],
    spec: &RoundSpec,
    round_wall: f64,
    sim_wall: f64,
    values: &mut Values,
) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let ours: Vec<&Span> = spans.iter().filter(|s| s.pid == PID_ROUND).collect();

    let generate: Vec<f64> = ours
        .iter()
        .filter(|s| s.name == "workloads.generate")
        .map(|s| ms(s.duration_ns()))
        .collect();
    values.set("workloads.generate_ms", mean(&generate));
    values.set("harness.trace_generations", round.trace_generations as f64);
    values.set("harness.baseline_runs", round.baseline_runs as f64);
    values.set("harness.cache_hits", round.cache_hits as f64);

    // Host time per simulated (thread × episode), per configuration.
    let cells: Vec<(usize, u64)> = ours
        .iter()
        .filter_map(|s| s.cell.map(|i| (i, s.duration_ns())))
        .collect();
    let by_config = |config: SystemConfig| -> (u64, u64) {
        cells
            .iter()
            .filter(|&&(i, _)| round.configs[i] == config)
            .fold((0, 0), |(ns, te), &(i, d)| {
                let work = round.reports[i]
                    .as_ref()
                    .map_or(0, |r| r.threads as u64 * r.counts.episodes);
                (ns + d, te + work)
            })
    };
    for (config, name) in [
        (SystemConfig::Baseline, "sim.ns_per_thread_episode.baseline"),
        (
            SystemConfig::ThriftyHalt,
            "sim.ns_per_thread_episode.thrifty-halt",
        ),
        (
            SystemConfig::OracleHalt,
            "sim.ns_per_thread_episode.oracle-halt",
        ),
        (SystemConfig::Thrifty, "sim.ns_per_thread_episode.thrifty"),
        (SystemConfig::Ideal, "sim.ns_per_thread_episode.ideal"),
    ] {
        let (ns, te) = by_config(config);
        values.set(name, if te == 0 { 0.0 } else { ns as f64 / te as f64 });
    }
    let cell_ms: Vec<f64> = cells.iter().map(|&(_, d)| ms(d)).collect();
    let tail = tail_percentile(cell_ms.len());
    values.set("sim.cell_ms.p50", median(&cell_ms));
    values.set("sim.cell_ms.tail", percentile(&cell_ms, tail));
    values.set("sim.cell_ms.tail_pct", tail);
    values.set("sim.cells", cell_ms.len() as f64);
    let total_ns: u64 = cells.iter().map(|&(_, d)| d).sum();
    let (thrifty, ideal) = (
        by_config(SystemConfig::Thrifty).0,
        by_config(SystemConfig::Ideal).0,
    );
    values.set(
        "sim.flush_refill_share",
        if thrifty == 0 || ideal == 0 {
            0.0
        } else {
            (thrifty as f64 - ideal as f64) / total_ns as f64
        },
    );
    values.set(
        "harness.overhead_pct",
        (sim_wall * spec.jobs as f64 / (total_ns as f64 / 1e9) - 1.0) * 100.0,
    );

    let reports: Vec<&RunReport> = round.reports.iter().flatten().collect();
    let sum = |f: fn(&RunReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    values.set("sim.episodes", sum(|r| r.counts.episodes));
    values.set("sim.spins", sum(|r| r.counts.spins));
    values.set("sim.sleeps", sum(|r| r.counts.total_sleeps()));
    values.set("sim.flushes", sum(|r| r.counts.flushes));
    values.set("sim.flushed_lines", sum(|r| r.counts.flushed_lines));
    values.set("sim.external_wakeups", sum(|r| r.counts.external_wakeups));
    values.set("sim.internal_wakeups", sum(|r| r.counts.internal_wakeups));

    let by_layer = spans::layer_self_ns(spans, PID_ROUND);
    for (layer, name) in [
        ("workloads", "self_ms.workloads"),
        ("harness", "self_ms.harness"),
        ("sim", "self_ms.sim"),
    ] {
        values.set(name, ms(by_layer.get(layer).copied().unwrap_or(0)));
    }
    // Time on the driving thread that no layer span explains.
    let own = spans::self_times_ns(spans);
    let root_ns = ours
        .iter()
        .find(|s| s.name == "round")
        .map_or(0, |s| s.duration_ns());
    let unattributed: u64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.pid == PID_ROUND && s.track == 0 && s.layer == "bench")
        .map(|(_, &ns)| ns)
        .sum();
    values.set(
        "bench.unattributed_pct",
        unattributed as f64 / root_ns as f64 * 100.0,
    );
    values.set(
        "bench.trace_overhead_pct",
        (round.wall_s / round_wall - 1.0) * 100.0,
    );
}

fn probe_metrics(p: &ProbeReport, values: &mut Values) {
    for &(name, value) in &p.timings {
        values.set(name, value);
    }
    values.set("mem.writes", p.mem.writes as f64);
    values.set("mem.dir_transactions", p.mem.dir_transactions as f64);
    values.set("mem.invalidations_sent", p.mem.invalidations_sent as f64);
    values.set("mem.writebacks", p.mem.writebacks as f64);
    values.set("trace.overhead_pct", p.trace_overhead_pct);
    // A faithful replay flushes exactly where the recording did, so its
    // memory counters are the sweep's flushes.
    values.set("sec9.flushes", p.mem.flushes as f64);
    values.set("sec9.flushed_lines", p.mem.flushed_lines as f64);
    values.set("sec9.rewrite_writes", p.rewrite_writes as f64);
    eprintln!("DESIGN.md §9 from outside (64-node paper-seed sweep, all 50 cells):");
    eprintln!(
        "  flushes                      {:>12}   quoted ~27K ({} counted incl. Ideal's free ones)",
        p.mem.flushes, p.counted_flushes
    );
    eprintln!("  flushed lines                {:>12}", p.mem.flushed_lines);
    eprintln!(
        "  working-set rewrite writes   {:>12}   quoted ~23M cache writes (replayed total {})",
        p.rewrite_writes, p.mem.writes
    );
    eprintln!(
        "  directory transactions       {:>12}   quoted ~3.3M (replay)",
        p.mem.dir_transactions
    );
    eprintln!("  event deliveries             needs an in-program counter   quoted ~3.7M");
}
