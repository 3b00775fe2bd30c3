//! In-process rounds. A round is one closed batch: the whole (app × config
//! × seed) matrix submitted to a fresh `Harness`, set-up included, waited
//! on by a single client. Untraced rounds go through the harness's own
//! matrix entry points; a traced round schedules the same cells in the
//! same order itself, so it can put a span around every public call.

use crate::cli::FaultTotals;
use crate::spans::{span, Ctx, Tracer, PID_ROUND};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;
use tb_core::{FaultPlan, SystemConfig};
use tb_faults::FaultSummary;
use tb_machine::{AppMatrix, Cell, Harness, RunReport};
use tb_sim::digest::fnv1a64;
use tb_workloads::AppSpec;

/// What one round runs.
#[derive(Debug, Clone)]
pub struct RoundSpec {
    pub nodes: u16,
    pub configs: &'static [SystemConfig],
    pub seeds: Vec<u64>,
    /// Harness worker threads (set-up uses as many).
    pub jobs: usize,
    /// Named fault scenario injected into every cell, if any.
    pub faults: Option<&'static str>,
}

impl RoundSpec {
    /// The cells in `Harness::run_matrix` order: app-major, then
    /// configuration, then seed.
    pub fn cells(&self, apps: &[AppSpec]) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(apps.len() * self.configs.len() * self.seeds.len());
        for app in apps {
            for &config in self.configs {
                for &seed in &self.seeds {
                    let mut cell = Cell::new(app.clone(), self.nodes, seed, config);
                    if let Some(name) = self.faults {
                        let plan = FaultPlan::by_name(name, seed).expect("known fault scenario");
                        cell = cell.with_faults(plan);
                    }
                    cells.push(cell);
                }
            }
        }
        cells
    }
}

/// The result of one round.
#[derive(Debug)]
pub struct Round {
    /// Wall seconds of the whole round, set-up included.
    pub wall_s: f64,
    /// Wall seconds of the set-up phase (every trace generated).
    pub setup_s: f64,
    /// Each cell's report (or error), in cell order.
    pub reports: Vec<Result<RunReport, String>>,
    /// The configuration of each cell, in cell order.
    pub configs: Vec<SystemConfig>,
    pub faults: FaultTotals,
    pub trace_generations: u64,
    pub baseline_runs: u64,
    pub cache_hits: u64,
}

impl Round {
    pub fn failed(&self) -> u64 {
        self.reports.iter().filter(|r| r.is_err()).count() as u64
    }

    pub fn episodes(&self) -> u64 {
        self.reports
            .iter()
            .flatten()
            .map(|r| r.counts.episodes)
            .sum()
    }

    /// A digest of every cell's simulated results: rounds of identical
    /// work must agree on it exactly.
    pub fn fingerprint(&self) -> u64 {
        let mut s = String::new();
        for r in &self.reports {
            match r {
                Ok(r) => {
                    let c = &r.counts;
                    let _ = write!(
                        s,
                        "{}/{}:{}:{:x}:{}:{}:{}:{}:{}|",
                        r.app,
                        r.config,
                        r.wall_time.as_u64(),
                        r.total_energy().to_bits(),
                        c.episodes,
                        c.spins,
                        c.total_sleeps(),
                        c.flushes,
                        c.flushed_lines
                    );
                }
                Err(e) => {
                    let _ = write!(s, "error:{e}|");
                }
            }
        }
        let f = &self.faults;
        let _ = write!(
            s,
            "{}:{}:{}",
            f.injected, f.guard_recoveries, f.quarantine_entries
        );
        fnv1a64(s.as_bytes())
    }

    /// The reports reshaped per application, as `run_matrix` returns them;
    /// `None` if any cell failed.
    pub fn matrix(&self, apps: &[AppSpec], spec: &RoundSpec) -> Option<Vec<AppMatrix>> {
        let mut reports = self.reports.iter();
        let mut out = Vec::with_capacity(apps.len());
        for app in apps {
            let mut rows = Vec::with_capacity(spec.configs.len());
            for _ in spec.configs {
                let row: Option<Vec<RunReport>> = (&mut reports)
                    .take(spec.seeds.len())
                    .map(|r| r.as_ref().ok().cloned())
                    .collect();
                rows.push(row?);
            }
            out.push(AppMatrix {
                app: app.clone(),
                configs: spec.configs.to_vec(),
                seeds: spec.seeds.clone(),
                reports: rows,
            });
        }
        Some(out)
    }
}

/// Runs `f` on every item with `jobs` threads (the calling thread is
/// worker 0), pulling indices from a shared counter the way the harness
/// pool does. Results come back in item order.
fn parallel<T: Sync, R: Send + Sync>(
    jobs: usize,
    items: &[T],
    tracer: Option<&Tracer>,
    ctx: Ctx,
    worker: (&'static str, &'static str),
    f: impl Fn(Ctx, usize, &T) -> R + Sync,
) -> Vec<R> {
    let workers = jobs.clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    let work = |track: u32| {
        span(
            tracer,
            ctx.on_track(track),
            worker.0,
            worker.1,
            None,
            |wctx| {
                // Indices only partition the work; results are published
                // through the slots, which the scope join synchronizes.
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    if slots[i].set(f(wctx, i, item)).is_err() {
                        unreachable!("each index is claimed once");
                    }
                }
            },
        )
    };
    std::thread::scope(|s| {
        for track in 1..workers {
            let work = &work;
            s.spawn(move || work(track as u32));
        }
        work(0);
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every index was run"))
        .collect()
}

/// The set-up phase: generates every (app, seed) trace through
/// `Harness::trace` with `spec.jobs` threads. Returns its wall seconds.
fn set_up(
    harness: &Harness,
    spec: &RoundSpec,
    apps: &[AppSpec],
    tracer: Option<&Tracer>,
    ctx: Ctx,
) -> f64 {
    let pairs: Vec<(&AppSpec, u64)> = apps
        .iter()
        .flat_map(|a| spec.seeds.iter().map(move |&s| (a, s)))
        .collect();
    let start = Instant::now();
    span(tracer, ctx, "setup", "bench", None, |ctx| {
        parallel(
            spec.jobs,
            &pairs,
            tracer,
            ctx,
            ("setup.worker", "bench"),
            |ctx, _, &(app, seed)| {
                span(tracer, ctx, "workloads.generate", "workloads", None, |_| {
                    harness.trace(app, spec.nodes, seed);
                })
            },
        );
    });
    start.elapsed().as_secs_f64()
}

/// Times the set-up phase alone on a fresh harness: the trace generation
/// a CLI sweep of `spec` performs inside its own process.
pub fn set_up_only(spec: &RoundSpec) -> f64 {
    let harness = Harness::new(spec.jobs);
    set_up(
        &harness,
        spec,
        &AppSpec::splash2(),
        None,
        Ctx::root(PID_ROUND),
    )
}

/// Runs one round on a fresh harness. With a tracer, every trace
/// generation and every cell runs inside its own span.
pub fn run_round(spec: &RoundSpec, tracer: Option<&Tracer>) -> Round {
    let apps = AppSpec::splash2();
    let cells = spec.cells(&apps);
    let harness = Harness::new(spec.jobs);
    let start = Instant::now();
    let (setup_s, reports, faults) = span(
        tracer,
        Ctx::root(PID_ROUND),
        "round",
        "bench",
        None,
        |ctx| {
            let setup_s = set_up(&harness, spec, &apps, tracer, ctx);
            let (reports, faults) = match tracer {
                None => run_untraced(&harness, spec, &apps, &cells),
                Some(_) => span(tracer, ctx, "harness.run_cells", "harness", None, |ctx| {
                    run_traced(&harness, spec, &cells, tracer, ctx)
                }),
            };
            (setup_s, reports, faults)
        },
    );
    Round {
        wall_s: start.elapsed().as_secs_f64(),
        setup_s,
        reports,
        configs: cells.iter().map(|c| c.config).collect(),
        faults,
        trace_generations: harness.trace_generations(),
        baseline_runs: harness.baseline_runs(),
        cache_hits: harness.cache_hits(),
    }
}

type CellResults = (Vec<Result<RunReport, String>>, FaultTotals);

fn add_faults(totals: &mut FaultTotals, f: &FaultSummary) {
    totals.injected += f.injected();
    totals.guard_recoveries += f.guard_recoveries;
    totals.quarantine_entries += f.quarantine_entries;
}

/// The harness's own entry points: `run_matrix` for clean matrices, the
/// panic-isolated `run_cells_isolated` (the CLI's supervised path) under
/// faults.
fn run_untraced(
    harness: &Harness,
    spec: &RoundSpec,
    apps: &[AppSpec],
    cells: &[Cell],
) -> CellResults {
    let mut totals = FaultTotals::default();
    if spec.faults.is_none() {
        let reports = match harness.run_matrix(apps, spec.configs, spec.nodes, &spec.seeds) {
            Ok(matrix) => matrix
                .into_iter()
                .flat_map(|m| m.into_flat_reports())
                .map(Ok)
                .collect(),
            Err(e) => cells.iter().map(|_| Err(e.to_string())).collect(),
        };
        return (reports, totals);
    }
    let reports = harness
        .run_cells_isolated(cells)
        .into_iter()
        .map(|o| {
            add_faults(&mut totals, &o.faults);
            o.report.map_err(|e| e.to_string())
        })
        .collect();
    (reports, totals)
}

/// The same cells scheduled by the benchmark, each inside a span around
/// `Harness::baseline` (clean Baseline cells, which the harness serves from
/// that cache) or `Harness::try_run_cell_faulted` (every other cell).
fn run_traced(
    harness: &Harness,
    spec: &RoundSpec,
    cells: &[Cell],
    tracer: Option<&Tracer>,
    ctx: Ctx,
) -> CellResults {
    let results = parallel(
        spec.jobs,
        cells,
        tracer,
        ctx,
        ("harness.worker", "harness"),
        |ctx, i, cell| {
            if cell.faults.is_none() && cell.config == SystemConfig::Baseline {
                span(tracer, ctx, "sim.baseline", "sim", Some(i), |_| {
                    let bundle = harness.baseline(&cell.app, cell.nodes, cell.seed);
                    Ok((bundle.report.clone(), FaultSummary::default()))
                })
            } else {
                span(tracer, ctx, "sim.cell", "sim", Some(i), |_| {
                    harness.try_run_cell_faulted(cell)
                })
            }
        },
    );
    let mut totals = FaultTotals::default();
    let reports = results
        .into_iter()
        .map(|r| {
            r.map(|(report, f)| {
                add_faults(&mut totals, &f);
                report
            })
            .map_err(|diag| diag.to_string())
        })
        .collect();
    (reports, totals)
}
