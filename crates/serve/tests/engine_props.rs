//! Property tests of the fleet engine's crash transparency: ANY
//! interleaving of worker deaths and lease reassignments must yield the
//! same `AggregateReport` bytes as an uninterrupted in-process run — and
//! the in-process reference itself must be byte-identical at `--jobs`
//! 1, 2, and 4.
//!
//! The test drives the real [`Engine`] state machine with a
//! proptest-generated death schedule over real simulator cells (run
//! through the real [`Harness`]), then aggregates with the function the
//! CLI's tables print from and compares the serialized report bytes.

use proptest::prelude::*;
use serde::json;
use std::collections::{HashMap, VecDeque};
use tb_core::SystemConfig;
use tb_machine::aggregate;
use tb_machine::harness::{Cell, CellOutcome, Harness};
use tb_serve::{execute, Action, Engine, EngineConfig, ExecConfig, WorkerId};
use tb_workloads::AppSpec;

const NODES: u16 = 4;
const SEEDS: [u64; 2] = [11, 12];
const CONFIGS: [SystemConfig; 2] = [SystemConfig::Baseline, SystemConfig::Thrifty];

/// The cell matrix in sweep order: config-major, seed-minor.
fn cells() -> Vec<Cell> {
    let app = AppSpec::by_name("FMM").expect("FMM is a stock workload");
    Cell::matrix(&[app], &CONFIGS, NODES, &SEEDS)
}

/// Aggregates outcomes with the CLI's own pairing ([`aggregate`]: per
/// config, normalized to the same-seed Baseline) and serializes. The
/// bytes of this string are the property under test. Note the
/// aggregation never reads `outcome.reassigned`: fleet bookkeeping is
/// stderr-only by design, so reassignment counts must not leak here.
fn aggregate_bytes(outcomes: &[CellOutcome]) -> String {
    json::to_string(&aggregate(&cells(), outcomes))
}

/// The uninterrupted reference at a given harness parallelism, run by
/// the executor the CLI uses.
fn reference_bytes(jobs: usize) -> String {
    let cfg = ExecConfig {
        jobs,
        ..ExecConfig::default()
    };
    aggregate_bytes(&execute(&cells(), &cfg).expect("reachable targets"))
}

/// Drives the engine + a simulated fleet through `deaths`: each `true`
/// kills the worker about to run its leased cell (before any result is
/// produced), each `false` lets it complete. Extra schedule entries
/// beyond the work available are ignored; exhausted schedules default to
/// clean completion. Returns the outcomes in sweep order.
fn run_with_deaths(workers: usize, deaths: &[bool]) -> Vec<CellOutcome> {
    let cells = cells();
    let harness = Harness::serial();
    // Strike/respawn budgets far above anything the schedule can spend,
    // so no cell poisons and no Abort fires — every cell must complete.
    let cfg = EngineConfig {
        workers,
        poison_strikes: u32::MAX,
        max_respawns: deaths.len() as u32 + 1,
    };
    let mut engine = Engine::new(cells.len(), cfg);
    let mut outcomes: Vec<Option<CellOutcome>> = (0..cells.len()).map(|_| None).collect();
    let mut leases: HashMap<WorkerId, (usize, u64)> = HashMap::new();
    let mut busy: VecDeque<WorkerId> = VecDeque::new();
    let mut next_id: WorkerId = 0;
    let mut schedule = deaths.iter().copied();

    // Inline action pump: mutates the fleet-side mirrors above. A closure
    // can't borrow everything mutably at once, so it's a fn-style loop.
    fn pump(
        actions: Vec<Action>,
        engine: &mut Engine,
        leases: &mut HashMap<WorkerId, (usize, u64)>,
        busy: &mut VecDeque<WorkerId>,
        next_id: &mut WorkerId,
    ) {
        let mut queue: VecDeque<Action> = actions.into();
        while let Some(action) = queue.pop_front() {
            match action {
                Action::Assign {
                    worker,
                    cell,
                    lease,
                    ..
                } => {
                    leases.insert(worker, (cell, lease));
                    busy.push_back(worker);
                }
                Action::Respawn => {
                    let id = *next_id;
                    *next_id += 1;
                    engine.worker_spawned(id);
                    queue.extend(engine.worker_ready(id));
                }
                Action::Retire { .. } => {}
                Action::Poison { cell, .. } => {
                    panic!("cell {cell} poisoned under an unbounded strike budget")
                }
                Action::Abort { reason } => panic!("engine aborted: {reason}"),
            }
        }
    }

    for _ in 0..workers {
        let id = next_id;
        next_id += 1;
        engine.worker_spawned(id);
        let actions = engine.worker_ready(id);
        pump(actions, &mut engine, &mut leases, &mut busy, &mut next_id);
    }
    while !engine.finished() {
        let worker = busy
            .pop_front()
            .expect("engine must keep at least one lease outstanding until finished");
        let Some(&(cell, lease)) = leases.get(&worker) else {
            continue; // lease already revoked (worker was killed while queued)
        };
        if schedule.next().unwrap_or(false) {
            leases.remove(&worker);
            let actions = engine.worker_dead(worker);
            pump(actions, &mut engine, &mut leases, &mut busy, &mut next_id);
            continue;
        }
        let mut outcome = harness.run_cells_isolated(&cells[cell..=cell]).remove(0);
        assert!(
            engine.done(worker, lease, cell),
            "a live worker's Done under its own lease must be accepted"
        );
        // Mirror the real fleet: the stored outcome carries the cell's
        // reassignment count. The property below proves this count never
        // reaches the aggregate bytes.
        outcome.reassigned = engine.cell_reassigned(cell);
        outcomes[cell] = Some(outcome);
        leases.remove(&worker);
        let actions = engine.worker_ready(worker);
        pump(actions, &mut engine, &mut leases, &mut busy, &mut next_id);
    }
    assert_eq!(
        engine.deficit(),
        0,
        "termination requires a drained deficit"
    );
    outcomes
        .into_iter()
        .map(|o| o.expect("finished() implies every cell finalized"))
        .collect()
}

#[test]
fn reference_is_byte_identical_at_jobs_1_2_4() {
    let j1 = reference_bytes(1);
    assert_eq!(j1, reference_bytes(2), "--jobs 2 must byte-match --jobs 1");
    assert_eq!(j1, reference_bytes(4), "--jobs 4 must byte-match --jobs 1");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole property: worker deaths at arbitrary points of the
    /// schedule, under any fleet width, never change the report bytes.
    #[test]
    fn death_interleavings_preserve_aggregate_report_bytes(
        workers in 1usize..=4,
        deaths in proptest::collection::vec(any::<bool>(), 0..12),
    ) {
        let reference = reference_bytes(1);
        let outcomes = run_with_deaths(workers, &deaths);
        prop_assert_eq!(
            aggregate_bytes(&outcomes),
            reference,
            "workers={} deaths={:?}",
            workers,
            deaths
        );
    }
}
