//! The parallel harness must be a pure speed-up: identical results to the
//! serial path, with the shared caches making Baseline exactly-once.

use tb_core::{AlgorithmConfig, FaultPlan, PredictorChoice, SystemConfig};
use tb_machine::cluster::{ClusterConfig, MsgSimulator};
use tb_machine::harness::{Cell, Harness, Knob, Substrate, Variant, PREEMPTIONS};
use tb_machine::run::{oracle_from_baseline, run_trace};
use tb_machine::sim::{simulate, SimulatorConfig, TimeSharing};
use tb_machine::{aggregate, AggregateReport, CellError, RunReport};
use tb_mem::MachineConfig;
use tb_sim::Cycles;
use tb_trace::SinkHandle;
use tb_workloads::AppSpec;

const NODES: u16 = 8;
const SEED: u64 = 3;

fn apps(n: usize) -> Vec<AppSpec> {
    AppSpec::splash2().into_iter().take(n).collect()
}

fn all_cells(apps: &[AppSpec], seeds: &[u64]) -> Vec<Cell> {
    Cell::matrix(apps, &SystemConfig::ALL, NODES, seeds)
}

/// The reports of fault-free cells, in cell order.
fn run_all(harness: &Harness, cells: &[Cell]) -> Vec<RunReport> {
    harness
        .run_cells_isolated(cells)
        .into_iter()
        .map(|outcome| outcome.report.expect("fault-free cell"))
        .collect()
}

#[test]
fn parallel_reports_match_serial_byte_for_byte() {
    let apps = apps(3);
    let cells = all_cells(&apps, &[SEED]);
    let serial = run_all(&Harness::new(1), &cells);
    let parallel = run_all(&Harness::new(8), &cells);
    assert_eq!(serial.len(), parallel.len());
    // RunReport has float fields, so compare the canonical JSON encoding:
    // deterministic simulation must make parallel output *identical*, not
    // merely close.
    assert_eq!(
        serde::json::to_string(&serial),
        serde::json::to_string(&parallel)
    );
}

/// Harness cells reproduce the single-run reference, `run_trace`, exactly:
/// the cached Baseline feeds the oracle configurations the same oracle
/// `run_trace`'s own pre-run records.
#[test]
fn harness_matches_run_trace() {
    let app = AppSpec::by_name("Radiosity").unwrap();
    let trace = app.generate(NODES as usize, SEED);
    let reference: Vec<RunReport> = SystemConfig::ALL
        .into_iter()
        .map(|c| run_trace(&trace, NODES, c))
        .collect();
    let harness = Harness::new(4);
    let cells: Vec<Cell> = SystemConfig::ALL
        .into_iter()
        .map(|c| Cell::new(app.clone(), NODES, SEED, c))
        .collect();
    let via_harness = run_all(&harness, &cells);
    assert_eq!(
        serde::json::to_string(&reference),
        serde::json::to_string(&via_harness)
    );
}

fn json(report: &RunReport) -> String {
    serde::json::to_string(report)
}

fn with(variant: Variant, cell: Cell) -> Cell {
    cell.with_variant(variant)
}

/// Recording a cell adds its trace summary and changes nothing else its
/// report serializes.
#[test]
fn recorded_report_equals_unrecorded_apart_from_its_trace() {
    let app = AppSpec::by_name("Ocean").unwrap();
    let cells = [SystemConfig::Baseline, SystemConfig::Thrifty]
        .map(|c| Cell::new(app.clone(), NODES, SEED, c));
    let recorded = run_all(&Harness::serial().with_record(Some(1 << 16)), &cells);
    let plain = run_all(&Harness::serial(), &cells);
    assert!(plain[1].counts.total_sleeps() > 0, "Thrifty transitions");
    for (mut report, unrecorded) in recorded.into_iter().zip(&plain) {
        assert!(
            report.trace.take().is_some(),
            "{} was recorded",
            report.config
        );
        assert_eq!(json(&report), json(unrecorded), "{}", report.config);
    }
}

/// A time-sharing Baseline cell runs its own simulation: it is neither
/// served from nor stored in the plain Baseline cache.
#[test]
fn time_sharing_baseline_is_not_the_cached_baseline() {
    let app = AppSpec::by_name("FMM").unwrap();
    let ts = TimeSharing {
        spin_before_yield: Cycles::from_micros(50),
        quantum: Cycles::from_millis(1),
    };
    let variant = Variant {
        time_sharing: Some(ts),
        ..Variant::default()
    };
    let plain = Cell::new(app.clone(), NODES, SEED, SystemConfig::Baseline);
    let cells = [plain.clone(), with(variant, plain)];
    let harness = Harness::serial();
    let reports = run_all(&harness, &cells);
    assert_eq!(
        harness.baseline_runs(),
        1,
        "only the plain Baseline is cached"
    );

    let trace = app.generate(NODES as usize, SEED);
    let mut cfg = SimulatorConfig::paper_with_nodes("Baseline", NODES);
    cfg.time_sharing = Some(ts);
    let reference = simulate(cfg, &trace, AlgorithmConfig::baseline(), None);
    assert_eq!(json(&reports[1]), json(&reference));
    assert_ne!(reports[0].wall_time, reports[1].wall_time);
}

/// On the bus, Baseline and the oracle both come from the bus Baseline:
/// one triple, one trace, two cached Baselines.
#[test]
fn bus_cells_use_the_bus_baseline() {
    let app = AppSpec::by_name("Volrend").unwrap();
    let bus = Variant {
        substrate: Substrate::Bus,
        ..Variant::default()
    };
    let cell = |c| Cell::new(app.clone(), NODES, SEED, c);
    let cells = [
        cell(SystemConfig::Baseline),
        with(bus.clone(), cell(SystemConfig::Baseline)),
        with(bus.clone(), cell(SystemConfig::OracleHalt)),
        with(bus, cell(SystemConfig::Ideal)),
    ];
    let harness = Harness::new(2);
    let reports = run_all(&harness, &cells);
    assert_eq!(harness.trace_generations(), 1);
    assert_eq!(harness.baseline_runs(), 2);

    let trace = app.generate(NODES as usize, SEED);
    let bus_cfg = |name: &str| {
        let mut cfg = SimulatorConfig::paper_with_nodes(name, NODES);
        cfg.machine = MachineConfig::bus_smp(NODES);
        cfg
    };
    let base = simulate(
        bus_cfg("Baseline"),
        &trace,
        AlgorithmConfig::baseline(),
        None,
    );
    assert_eq!(json(&reports[1]), json(&base));
    assert_ne!(reports[0].wall_time, reports[1].wall_time);
    for (report, sys) in reports[2..]
        .iter()
        .zip([SystemConfig::OracleHalt, SystemConfig::Ideal])
    {
        let oracle = Some(oracle_from_baseline(&base));
        let reference = simulate(bus_cfg(sys.name()), &trace, sys.algorithm_config(), oracle);
        assert_eq!(json(report), json(&reference), "{sys}");
    }
}

/// Cluster cells run the message-passing simulator on the cached trace,
/// with a Baseline cached apart from the directory machine's. A fault
/// plan, time-sharing or an oracle, which that simulator does not model,
/// fails the cell.
#[test]
fn cluster_cells_run_the_message_passing_simulator() {
    let app = AppSpec::by_name("FMM").unwrap();
    let cluster = Variant {
        substrate: Substrate::Cluster,
        ..Variant::default()
    };
    let cell = |c| Cell::new(app.clone(), NODES, SEED, c);
    let cells = [
        cell(SystemConfig::Baseline),
        with(cluster.clone(), cell(SystemConfig::Baseline)),
        with(cluster.clone(), cell(SystemConfig::Thrifty)),
    ];
    let harness = Harness::serial();
    let reports = run_all(&harness, &cells);
    assert_eq!(harness.trace_generations(), 1);
    assert_eq!(harness.baseline_runs(), 2);

    let trace = app.generate(NODES as usize, SEED);
    let direct = |name, algo| {
        MsgSimulator::new(
            ClusterConfig::default_cluster(NODES),
            trace.clone(),
            name,
            algo,
            SinkHandle::disabled(),
        )
        .run(None)
        .expect("no deadline")
    };
    let base = direct("Baseline", AlgorithmConfig::baseline());
    assert_eq!(json(&reports[1]), json(&base));
    assert_eq!(
        json(&reports[2]),
        json(&direct("Thrifty", AlgorithmConfig::thrifty()))
    );
    assert_ne!(reports[0].wall_time, reports[1].wall_time);

    let time_sharing = Variant {
        time_sharing: Some(TimeSharing {
            spin_before_yield: Cycles::from_micros(50),
            quantum: Cycles::from_millis(1),
        }),
        ..cluster.clone()
    };
    let storm = FaultPlan::by_name("storm", SEED).unwrap();
    let unsupported = [
        with(cluster.clone(), cell(SystemConfig::OracleHalt)),
        with(cluster, cell(SystemConfig::Thrifty)).with_faults(storm),
        with(time_sharing, cell(SystemConfig::Baseline)),
    ];
    for outcome in harness.run_cells_isolated(&unsupported) {
        match outcome.report {
            Err(CellError::Panic(msg)) => assert!(msg.contains("cluster cell"), "{msg}"),
            other => panic!("expected the cluster assertion, got {other:?}"),
        }
    }
}

/// A disturbed trace is derived once, cached apart from the clean one,
/// and has its own Baseline.
#[test]
fn disturbed_trace_is_generated_once_and_cached_apart() {
    let app = AppSpec::by_name("FMM").unwrap();
    let disturbed = |knob| Variant {
        knob,
        disturbed: true,
        ..Variant::default()
    };
    let cell = |c| Cell::new(app.clone(), NODES, SEED, c);
    let cells = [
        cell(SystemConfig::Baseline),
        cell(SystemConfig::Thrifty),
        with(disturbed(None), cell(SystemConfig::Baseline)),
        with(
            disturbed(Some(Knob::Underprediction(Some(8.0)))),
            cell(SystemConfig::Thrifty),
        ),
        with(
            disturbed(Some(Knob::Underprediction(None))),
            cell(SystemConfig::Thrifty),
        ),
    ];
    let harness = Harness::new(2);
    let reports = run_all(&harness, &cells);
    assert_eq!(harness.trace_generations(), 2, "clean + disturbed");
    assert_eq!(harness.baseline_runs(), 2);

    let (salt, prob, delay) = PREEMPTIONS;
    let trace = app
        .generate(NODES as usize, SEED)
        .with_disturbance(SEED ^ salt, prob, delay);
    let cfg = || SimulatorConfig::paper_with_nodes("Baseline", NODES);
    let base = simulate(cfg(), &trace, AlgorithmConfig::baseline(), None);
    assert_eq!(json(&reports[2]), json(&base));
    assert_ne!(reports[0].wall_time, reports[2].wall_time);
    let unfiltered = AlgorithmConfig {
        underprediction_factor: None,
        ..AlgorithmConfig::thrifty()
    };
    let mut cfg = cfg();
    cfg.config_name = "Thrifty".into();
    assert_eq!(
        json(&reports[4]),
        json(&simulate(cfg, &trace, unfiltered, None))
    );
}

/// Whether a cell needs an oracle follows the algorithm it runs: Thrifty
/// with the oracle predictor gets the cached Baseline's oracle.
#[test]
fn oracle_predictor_knob_gets_the_baseline_oracle() {
    let app = AppSpec::by_name("Barnes").unwrap();
    let oracle = Variant {
        knob: Some(Knob::Predictor(PredictorChoice::Oracle)),
        ..Variant::default()
    };
    let cells = [with(
        oracle,
        Cell::new(app.clone(), NODES, SEED, SystemConfig::Thrifty),
    )];
    let harness = Harness::serial();
    let report = run_all(&harness, &cells).remove(0);
    assert_eq!(harness.baseline_runs(), 1);

    let trace = app.generate(NODES as usize, SEED);
    let base = run_trace(&trace, NODES, SystemConfig::Baseline);
    let algo = AlgorithmConfig::thrifty().with_predictor(PredictorChoice::Oracle);
    let cfg = SimulatorConfig::paper_with_nodes("Thrifty", NODES);
    let reference = simulate(cfg, &trace, algo, Some(oracle_from_baseline(&base)));
    assert_eq!(json(&report), json(&reference));
}

#[test]
fn baseline_runs_exactly_once_per_triple_under_contention() {
    let apps = apps(2);
    let seeds = [SEED, SEED + 1];
    let harness = Harness::new(8);
    let reports = run_all(&harness, &all_cells(&apps, &seeds));
    assert_eq!(reports.len(), 2 * 5 * 2);
    // 2 apps × 2 seeds = 4 triples; each generates one trace and runs
    // Baseline once even though 8 workers race for them and three configs
    // (Baseline, Oracle-Halt, Ideal) consume each Baseline.
    assert_eq!(harness.trace_generations(), 4);
    assert_eq!(harness.baseline_runs(), 4);
    // Every cell beyond the first consumer of each triple was served from
    // a cache.
    let hits_after_first = harness.cache_hits();
    assert!(hits_after_first >= 20 - 4, "got {hits_after_first} hits");
    // Re-running the same cells is all hits, no new simulations.
    let again = run_all(&harness, &all_cells(&apps, &seeds));
    assert_eq!(harness.baseline_runs(), 4);
    assert_eq!(harness.trace_generations(), 4);
    assert!(harness.cache_hits() > hits_after_first);
    assert_eq!(
        serde::json::to_string(&reports),
        serde::json::to_string(&again)
    );
}

#[test]
fn results_come_back_in_cell_order() {
    let app = AppSpec::by_name("FFT").unwrap();
    // Deliberately scrambled, duplicated config order.
    let order = [
        SystemConfig::Ideal,
        SystemConfig::Baseline,
        SystemConfig::Thrifty,
        SystemConfig::Baseline,
        SystemConfig::OracleHalt,
    ];
    let cells: Vec<Cell> = order
        .into_iter()
        .map(|c| Cell::new(app.clone(), NODES, SEED, c))
        .collect();
    let harness = Harness::new(4);
    let names: Vec<String> = harness
        .run_cells_isolated(&cells)
        .into_iter()
        .map(|outcome| outcome.report.unwrap())
        .map(|r| r.config)
        .collect();
    assert_eq!(
        names,
        vec!["Ideal", "Baseline", "Thrifty", "Baseline", "Oracle-Halt"]
    );
    assert_eq!(harness.baseline_runs(), 1, "duplicate cells also share");
}

#[test]
fn matrix_reshape_and_aggregates() {
    let apps = apps(2);
    let seeds = [SEED, SEED + 1, SEED + 2];
    let harness = Harness::new(8);
    let matrix = harness
        .run_matrix(&apps, &SystemConfig::ALL, NODES, &seeds)
        .unwrap();
    assert_eq!(matrix.len(), 2);
    for (m, app) in matrix.iter().zip(&apps) {
        assert_eq!(m.app.name, app.name);
        assert_eq!(m.reports.len(), 5);
        for (row, config) in m.reports.iter().zip(SystemConfig::ALL) {
            assert_eq!(row.len(), 3);
            for (report, &seed) in row.iter().zip(&seeds) {
                assert_eq!(report.config, config.name());
                // Per-seed traces differ, so episode counts may not; but
                // the report must come from the right app.
                assert_eq!(report.app, app.name);
                let _ = seed;
            }
        }
        let aggs = m.aggregates();
        assert_eq!(aggs.len(), 5);
        assert!(aggs.iter().all(|a| a.runs() == 3));
        let base = &aggs[0];
        assert!((base.energy_vs_baseline.mean() - 1.0).abs() < 1e-12);
        assert!(base.slowdown_vs_baseline.std_dev() < 1e-12);
        // Thrifty (index 3) saves energy on every seed.
        assert!(aggs[3].energy_vs_baseline.max().unwrap() < 1.0);
    }
    // 2 apps × 3 seeds triples.
    assert_eq!(harness.baseline_runs(), 6);
}

/// `aggregate` finds each cell's Baseline by app, nodes and seed, not by
/// position, and a failed Baseline marks its seed's cells.
#[test]
fn aggregate_pairs_each_cell_with_its_baseline_by_identity() {
    let configs = [SystemConfig::Baseline, SystemConfig::Thrifty];
    let cells = Cell::matrix(&apps(1), &configs, NODES, &[SEED, SEED + 1]);
    let mut outcomes = Harness::serial().run_cells_isolated(&cells);
    let json = |aggs: &[AggregateReport]| serde::json::to_string(&aggs);
    let forward = aggregate(&cells, &outcomes);
    // Thrifty's cells first: the aggregates come in the other order.
    let order = [2, 3, 0, 1];
    let swapped = aggregate(
        &order.map(|i| cells[i].clone()),
        &order.map(|i| outcomes[i].clone()),
    );
    assert_eq!(
        json(&forward),
        json(&[swapped[1].clone(), swapped[0].clone()])
    );

    outcomes[0].report = Err(CellError::Panic("boom".into()));
    let aggs = aggregate(&cells, &outcomes);
    assert_eq!(aggs[0].failures, vec!["panic: boom"]);
    assert_eq!(aggs[1].failures, vec!["baseline cell failed"]);
    assert_eq!((aggs[0].runs(), aggs[1].runs()), (1, 1));
}
