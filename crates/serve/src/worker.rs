//! The worker process: `tb __worker` reads assignments on stdin, runs
//! each cell under the in-process supervision policy it was handed in
//! `Hello`, and writes outcomes (and heartbeats) on stdout.
//!
//! The heartbeat runs on a dedicated thread so it keeps flowing while a
//! long simulation occupies the main thread — a *wedged* worker (stuck
//! syscall, pathological cell) stops beating and is killed by the
//! coordinator, while a merely *slow* one is left alone. Both threads
//! share stdout through a mutex; frames are written atomically under it,
//! so a heartbeat can never interleave bytes into the middle of a `Done`.
//!
//! The worker trusts its pipes for lifecycle: EOF on stdin (or any write
//! failure on stdout) means the coordinator is gone, and the only correct
//! move is a quiet `exit(0)` — results it could compute after that have
//! nowhere to go, and the lease has already been revoked.

use crate::proto::{read_frame, send_from_worker, FromWorker, HelloInfo, ToWorker};
use serde::json;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tb_core::SystemConfig;
use tb_machine::journal::{CellKey, StoredOutcome};
use tb_machine::{Cell, Harness, SupervisionPolicy};
use tb_workloads::AppSpec;

/// Env var holding a latch-file path: the first assignment across the
/// whole fleet to observe the file absent creates it and `abort()`s,
/// simulating a `kill -9` mid-cell exactly once. Test hook.
pub const CHAOS_ABORT_ONCE_ENV: &str = "TB_SERVE_CHAOS_ABORT_ONCE";

/// Env var holding a substring: any assignment whose canonical cell key
/// contains it `abort()`s, every time — the deterministic poison cell.
/// Test hook.
pub const CHAOS_POISON_ENV: &str = "TB_SERVE_CHAOS_POISON";

/// Rebuilds a runnable cell from its content key. `None` means the key
/// names an app or configuration this binary does not know — version skew
/// between coordinator and worker, which is fatal for the worker.
pub fn cell_from_key(key: &CellKey) -> Option<Cell> {
    let app = AppSpec::by_name(&key.app)?;
    let config = SystemConfig::ALL
        .into_iter()
        .find(|c| c.name() == key.config)?;
    let mut cell = Cell::new(app, key.nodes, key.seed, config).with_variant(key.variant.clone());
    cell.faults = key.faults.clone();
    Some(cell)
}

fn chaos_hooks(canonical_key: &str) {
    if let Ok(path) = std::env::var(CHAOS_ABORT_ONCE_ENV) {
        if !path.is_empty() {
            // create_new is the cross-process latch: exactly one worker
            // in the fleet's lifetime wins the creation race and dies.
            if std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
                .is_ok()
            {
                std::process::abort();
            }
        }
    }
    if let Ok(needle) = std::env::var(CHAOS_POISON_ENV) {
        if !needle.is_empty() && canonical_key.contains(&needle) {
            std::process::abort();
        }
    }
}

fn spawn_heartbeat(out: Arc<Mutex<io::Stdout>>, worker: u64, heartbeat_ms: u64) {
    // Beat at twice the expected rate so one delayed beat never looks
    // like three missed ones.
    let period = Duration::from_millis((heartbeat_ms / 2).max(1));
    std::thread::spawn(move || loop {
        std::thread::sleep(period);
        let mut out = match out.lock() {
            Ok(out) => out,
            Err(_) => std::process::exit(0),
        };
        if send_from_worker(&mut *out, &FromWorker::Heartbeat { worker }).is_err() {
            // Coordinator gone; nothing we compute can be delivered.
            std::process::exit(0);
        }
    });
}

/// The `__worker` entry point. Returns the process exit code: `0` for
/// every orderly path (shutdown frame, coordinator EOF), `2` for protocol
/// violations (bad handshake, unknown cell key).
pub fn worker_main() -> i32 {
    let stdin = io::stdin();
    let mut input = stdin.lock();
    let hello: HelloInfo = match read_frame(&mut input) {
        Ok(Some(text)) => match json::from_str::<ToWorker>(&text) {
            Ok(ToWorker::Hello { info }) => info,
            _ => {
                eprintln!("tb __worker: first frame was not Hello");
                return 2;
            }
        },
        Ok(None) => return 0,
        Err(e) => {
            eprintln!("tb __worker: handshake read failed: {e}");
            return 2;
        }
    };

    let out = Arc::new(Mutex::new(io::stdout()));
    {
        let mut locked = out.lock().expect("stdout mutex");
        if send_from_worker(
            &mut *locked,
            &FromWorker::Ready {
                worker: hello.worker,
            },
        )
        .is_err()
        {
            return 0;
        }
    }
    spawn_heartbeat(Arc::clone(&out), hello.worker, hello.heartbeat_ms);

    // One harness for the worker's whole life: its content-keyed caches
    // amortize trace generation and Baseline runs across assignments,
    // exactly as the in-process sweep's shared harness does. A timed-out
    // attempt stops inside the simulator, so its retry never shares the
    // worker's CPU with it.
    let harness = Harness::serial().with_policy(SupervisionPolicy {
        retries: hello.retries,
        timeout: (hello.timeout_ms > 0).then(|| Duration::from_millis(hello.timeout_ms)),
        ..SupervisionPolicy::default()
    });

    loop {
        let msg = match read_frame(&mut input) {
            Ok(Some(text)) => match json::from_str::<ToWorker>(&text) {
                Ok(msg) => msg,
                Err(e) => {
                    eprintln!("tb __worker: unparseable frame: {e:?}");
                    return 2;
                }
            },
            // EOF: the coordinator closed our stdin (orderly teardown) or
            // died (its end of the pipe collapsed). Either way, leave.
            Ok(None) => return 0,
            Err(_) => return 0,
        };
        match msg {
            ToWorker::Assign { work } => {
                chaos_hooks(&work.key.canonical());
                let Some(cell) = cell_from_key(&work.key) else {
                    eprintln!(
                        "tb __worker: unknown cell key {} (coordinator/worker version skew?)",
                        work.key.canonical()
                    );
                    return 2;
                };
                let outcome = harness.run_cells_isolated(&[cell]).remove(0);
                let done = FromWorker::Done {
                    worker: hello.worker,
                    lease: work.lease,
                    cell: work.cell,
                    outcome: StoredOutcome::from_outcome(&outcome),
                };
                let mut locked = out.lock().expect("stdout mutex");
                if send_from_worker(&mut *locked, &done).is_err() {
                    return 0;
                }
            }
            ToWorker::Shutdown { .. } => return 0,
            ToWorker::Hello { .. } => {
                eprintln!("tb __worker: duplicate Hello");
                return 2;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_core::{PredictorChoice, WakeupMode};
    use tb_machine::sim::TimeSharing;
    use tb_machine::{Knob, Substrate, Variant};
    use tb_sim::Cycles;

    #[test]
    fn cell_round_trips_through_its_key() {
        let app = AppSpec::by_name("FMM").unwrap();
        let mut cell = Cell::new(app, 8, 3, SystemConfig::Thrifty);
        cell.faults = tb_core::FaultPlan::by_name("storm", 3);
        let key = CellKey::of(&cell);
        let back = cell_from_key(&key).expect("known app and config");
        assert_eq!(CellKey::of(&back), key, "key → cell → key is identity");
    }

    /// Every kind of variant survives the trip to a worker: key → JSON →
    /// key → cell → key.
    #[test]
    fn variant_cells_round_trip_through_their_keys() {
        let knob = |k| Variant {
            knob: Some(k),
            ..Variant::default()
        };
        let variants = [
            knob(Knob::Cutoff(None)),
            knob(Knob::Cutoff(Some(0.02))),
            knob(Knob::Wakeup(WakeupMode::InternalOnly)),
            knob(Knob::Predictor(PredictorChoice::Averaging(0.5))),
            knob(Knob::Predictor(PredictorChoice::Oracle)),
            knob(Knob::Anticipation(Cycles::from_micros(50))),
            knob(Knob::Underprediction(None)),
            Variant {
                substrate: Substrate::Bus,
                ..Variant::default()
            },
            Variant {
                substrate: Substrate::Cluster,
                ..Variant::default()
            },
            Variant {
                time_sharing: Some(TimeSharing {
                    spin_before_yield: Cycles::from_micros(50),
                    quantum: Cycles::from_millis(10),
                }),
                ..Variant::default()
            },
            Variant {
                knob: Some(Knob::Underprediction(Some(8.0))),
                disturbed: true,
                ..Variant::default()
            },
        ];
        for variant in variants {
            let app = AppSpec::by_name("Ocean").unwrap();
            let cell = Cell::new(app, 8, 3, SystemConfig::Thrifty).with_variant(variant.clone());
            let key = CellKey::of(&cell);
            let wire: CellKey = json::from_str(&key.canonical()).expect("key parses");
            assert_eq!(wire, key, "{variant:?}");
            let back = cell_from_key(&wire).expect("known app and config");
            assert_eq!(back.variant, variant);
            assert_eq!(CellKey::of(&back), key, "{variant:?}");
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        let bogus = CellKey {
            app: "NoSuchApp".into(),
            config: "Thrifty".into(),
            nodes: 8,
            seed: 1,
            faults: None,
            variant: Variant::default(),
        };
        assert!(cell_from_key(&bogus).is_none());
        let bogus = CellKey {
            app: "FMM".into(),
            config: "NoSuchConfig".into(),
            nodes: 8,
            seed: 1,
            faults: None,
            variant: Variant::default(),
        };
        assert!(cell_from_key(&bogus).is_none());
    }
}
