//! Probes of the layers below the harness, measured from outside on every
//! cell of the paper-seed 64-node sweep.
//!
//! Each cell is simulated twice through `tb_machine::simulate`: once plain
//! and once recording its trace events into a `MemorySink` (the work
//! `run_trace_recording` does), which gives the tracing overhead. The
//! recorded events are then *replayed*: the cell's memory, event-queue and
//! barrier-algorithm call sequence is rebuilt from them and timed call by
//! call directly against `CoherentMemory::directory`, `EventQueue` and
//! `BarrierAlgorithm`. A replay is faithful only if its `MemStats` flushes
//! and flushed lines equal the recorded report's counts, and if the
//! algorithm makes the recorded spin/sleep decision at every arrival.
//!
//! The replay mirrors the simulator's handlers (`tb-machine/src/sim.rs`):
//! a compute phase ends by rewriting the thread's dirty lines and checking
//! in on the count line; an early arrival asks the algorithm, flushes if
//! the chosen state needs it, and reads the flag; the last arrival writes
//! the flag; every other thread reads the flag again when it departs.

use crate::metrics::median;
use crate::spans::{Ctx, Tracer, PID_PROBES};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tb_core::{
    BarrierAlgorithm, BarrierPc, RecordedBitOracle, SleepChoice, SystemConfig, ThreadId,
};
use tb_machine::run::{oracle_from_baseline, run_trace, PAPER_SEED};
use tb_machine::{simulate, RunReport, SimulatorConfig};
use tb_mem::{CoherentMemory, MachineConfig, MemStats, NodeId};
use tb_sim::{Cycles, EventId, EventQueue};
use tb_trace::{MemorySink, SinkHandle, TraceEvent, TraceEventKind, TraceSummary};
use tb_workloads::{AppSpec, AppTrace};

/// The simulator's barrier layout and timing constants (`sim.rs`): the
/// count and flag lines live on shared pages 2 and 3, and each thread's
/// dirty working set starts at shared page 64 + 8 × thread.
const COUNT_PAGE: u64 = 2;
const FLAG_PAGE: u64 = 3;
const DIRTY_BASE_PAGE: u64 = 64;
const DIRTY_PAGES_PER_THREAD: u64 = 8;
const LOCK_HANDOFF: Cycles = Cycles::from_nanos(40);

/// Host time of one kind of call: raw nanoseconds and the number of calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpTime {
    raw_ns: u64,
    calls: u64,
}

/// Times calls with `Instant`, removing the timer's own cost.
struct Clock {
    overhead_ns: f64,
}

impl Clock {
    /// Calibrates the cost of an empty timed region (median of many).
    fn calibrate() -> Clock {
        let samples: Vec<f64> = (0..20_001)
            .map(|_| {
                let t = Instant::now();
                black_box(());
                t.elapsed().as_nanos() as f64
            })
            .collect();
        Clock {
            overhead_ns: median(&samples),
        }
    }

    fn time<T>(&self, acc: &mut OpTime, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        acc.raw_ns += t.elapsed().as_nanos() as u64;
        acc.calls += 1;
        out
    }

    /// Mean nanoseconds per call, net of timer overhead.
    fn mean_ns(&self, op: OpTime) -> f64 {
        if op.calls == 0 {
            return 0.0;
        }
        (op.raw_ns as f64 / op.calls as f64 - self.overhead_ns).max(0.0)
    }
}

#[derive(Debug, Default)]
struct MachineOps {
    rewrite: OpTime,
    checkin_write: OpTime,
    flag_read: OpTime,
    release_write: OpTime,
    flush: OpTime,
    early_arrival: OpTime,
    last_arrival: OpTime,
    finish: OpTime,
}

#[derive(Debug, Default)]
struct EventOps {
    schedule: OpTime,
    pop: OpTime,
    cancel: OpTime,
}

/// Everything the probes measured.
#[derive(Debug, Default)]
pub struct ProbeReport {
    /// Host timings by metric name: mean ns per replayed call, and the
    /// node-scaling row.
    pub timings: Vec<(&'static str, f64)>,
    /// Replayed memory counters summed over every cell.
    pub mem: MemStats,
    /// Cells whose replay disagreed with the recording, with the reason.
    pub unfaithful: Vec<String>,
    /// Flushes the recorded reports count, including the Ideal
    /// configuration's, which cost nothing and never reach memory.
    pub counted_flushes: u64,
    /// Working-set rewrite writes: Σ dirty lines × threads over every
    /// cell's steps.
    pub rewrite_writes: u64,
    /// Recording vs plain simulation of the same cells, percent.
    pub trace_overhead_pct: f64,
}

/// Runs every probe. Spans go to the probes lane of `tracer`.
pub fn run(tracer: &Tracer) -> Result<ProbeReport, String> {
    let clock = Clock::calibrate();
    let nodes = 64u16;
    let mut machine = MachineOps::default();
    let mut events = EventOps::default();
    let mut out = ProbeReport::default();
    let (mut plain_ns, mut recorded_ns) = (0u128, 0u128);
    let root = Ctx::root(PID_PROBES);
    tracer.span(root, "probes.replay_sweep", "probes", None, |ctx| {
        for app in AppSpec::splash2() {
            let trace = app.generate(nodes as usize, PAPER_SEED);
            out.rewrite_writes += SystemConfig::ALL.len() as u64
                * trace
                    .steps
                    .iter()
                    .map(|s| s.dirty_lines as u64 * trace.threads as u64)
                    .sum::<u64>();
            let mut oracle: Option<RecordedBitOracle> = None;
            for config in SystemConfig::ALL {
                let cell = format!("{}/{}", app.name, config.name());
                let oracle_in = if config.needs_oracle() {
                    oracle.clone()
                } else {
                    None
                };
                let rec = tracer.span(ctx, "probes.record", "probes", None, |_| {
                    record(&trace, nodes, config, oracle_in.clone())
                })?;
                plain_ns += rec.plain_ns;
                recorded_ns += rec.recorded_ns;
                if config == SystemConfig::Baseline {
                    oracle = Some(oracle_from_baseline(&rec.report));
                }
                out.counted_flushes += rec.report.counts.flushes;
                let visits = visits(&trace, &rec.events).map_err(|e| format!("{cell}: {e}"))?;
                let check = tracer.span(ctx, "probes.replay_machine", "probes", None, |_| {
                    replay_machine(&trace, config, oracle_in, &visits, &clock, &mut machine)
                });
                tracer.span(ctx, "probes.replay_events", "probes", None, |_| {
                    replay_events(&trace, config, &visits, &clock, &mut events)
                });
                let c = &rec.report.counts;
                let want_flushes = if config.algorithm_config().flush_overhead {
                    c.flushes
                } else {
                    0
                };
                if check.stats.flushes != want_flushes
                    || check.stats.flushed_lines != c.flushed_lines
                    || check.decision_mismatches > 0
                {
                    out.unfaithful.push(format!(
                        "{cell}: replay flushes {} / lines {} vs recorded {want_flushes} / {}, \
                         {} decision mismatch(es)",
                        check.stats.flushes,
                        check.stats.flushed_lines,
                        c.flushed_lines,
                        check.decision_mismatches
                    ));
                }
                add_stats(&mut out.mem, &check.stats);
            }
        }
        Ok::<(), String>(())
    })?;
    out.trace_overhead_pct = (recorded_ns as f64 / plain_ns as f64 - 1.0) * 100.0;
    out.timings = vec![
        ("mem.rewrite_ns", clock.mean_ns(machine.rewrite)),
        ("mem.checkin_write_ns", clock.mean_ns(machine.checkin_write)),
        ("mem.flag_read_ns", clock.mean_ns(machine.flag_read)),
        ("mem.release_write_ns", clock.mean_ns(machine.release_write)),
        ("mem.flush_ns", clock.mean_ns(machine.flush)),
        (
            "core.early_arrival_ns",
            clock.mean_ns(machine.early_arrival),
        ),
        ("core.last_arrival_ns", clock.mean_ns(machine.last_arrival)),
        ("core.finish_ns", clock.mean_ns(machine.finish)),
        ("event.schedule_ns", clock.mean_ns(events.schedule)),
        ("event.pop_ns", clock.mean_ns(events.pop)),
        ("event.cancel_ns", clock.mean_ns(events.cancel)),
    ];
    let scaling = tracer.span(root, "probes.node_scaling", "probes", None, |_| {
        node_scaling()
    });
    out.timings.extend(scaling);
    Ok(out)
}

fn add_stats(sum: &mut MemStats, s: &MemStats) {
    sum.reads += s.reads;
    sum.writes += s.writes;
    sum.l1_hits += s.l1_hits;
    sum.l2_hits += s.l2_hits;
    sum.dir_transactions += s.dir_transactions;
    sum.invalidations_sent += s.invalidations_sent;
    sum.writebacks += s.writebacks;
    sum.cache_to_cache += s.cache_to_cache;
    sum.flushes += s.flushes;
    sum.flushed_lines += s.flushed_lines;
}

struct Recording {
    report: RunReport,
    events: Vec<TraceEvent>,
    plain_ns: u128,
    recorded_ns: u128,
}

/// Simulates one cell plainly, then again with a `MemorySink` attached
/// (draining and summarizing it, as `run_trace_recording` does).
fn record(
    trace: &AppTrace,
    nodes: u16,
    config: SystemConfig,
    oracle: Option<RecordedBitOracle>,
) -> Result<Recording, String> {
    let cfg = SimulatorConfig::paper_with_nodes(config.name(), nodes);
    let t = Instant::now();
    let plain = simulate(
        cfg.clone(),
        trace,
        config.algorithm_config(),
        oracle.clone(),
    );
    let plain_ns = t.elapsed().as_nanos();

    // A thread emits at most ~8 events per episode; leave headroom.
    let capacity = trace.steps.len() * 12 + 64;
    let t = Instant::now();
    let sink = Arc::new(MemorySink::new(nodes as usize, capacity));
    let mut traced_cfg = cfg;
    traced_cfg.trace = SinkHandle::new(sink.clone());
    let mut report = simulate(traced_cfg, trace, config.algorithm_config(), oracle);
    let events = sink.drain_sorted();
    report.trace = Some(TraceSummary::from_events(&events, sink.dropped()));
    let recorded_ns = t.elapsed().as_nanos();

    if sink.dropped() > 0 {
        return Err(format!("{}: trace ring dropped events", config.name()));
    }
    if report.wall_time != plain.wall_time || report.counts != plain.counts {
        return Err(format!(
            "{}: recording changed the simulation",
            config.name()
        ));
    }
    Ok(Recording {
        report,
        events,
        plain_ns,
        recorded_ns,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Choice {
    /// The releasing (last) arrival makes no choice.
    Release,
    Spin,
    Sleep {
        state: usize,
        needs_flush: bool,
    },
}

/// One thread's pass through one barrier episode, from its trace events.
#[derive(Debug, Clone, Copy)]
struct Visit {
    arrive: Cycles,
    last: bool,
    choice: Choice,
    flush_duration: Cycles,
    internal_wake: Option<Cycles>,
    external_wake: Option<Cycles>,
    residual: Option<Cycles>,
    depart: Cycles,
    /// `wake_ts − release`, as the simulator passes to `finish_barrier`.
    wake_latency: Cycles,
}

/// Groups a cell's physical events into visits, indexed
/// `step × threads + thread`.
fn visits(trace: &AppTrace, events: &[TraceEvent]) -> Result<Vec<Visit>, String> {
    let threads = trace.threads;
    let n = trace.steps.len() * threads;
    let mut arrive = vec![None; n];
    let mut depart = vec![None; n];
    let mut v: Vec<Visit> = (0..n)
        .map(|_| Visit {
            arrive: Cycles::ZERO,
            last: false,
            choice: Choice::Release,
            flush_duration: Cycles::ZERO,
            internal_wake: None,
            external_wake: None,
            residual: None,
            depart: Cycles::ZERO,
            wake_latency: Cycles::ZERO,
        })
        .collect();
    for ev in events {
        let i = ev.kind.episode() as usize * threads + ev.thread as usize;
        // Semantic events number episodes per site, not per step.
        let per_step = !matches!(
            ev.kind,
            TraceEventKind::Prediction { .. }
                | TraceEventKind::Release { .. }
                | TraceEventKind::CutoffDisable { .. }
                | TraceEventKind::Quarantine { .. }
        );
        if !per_step {
            continue;
        }
        let visit = v
            .get_mut(i)
            .ok_or_else(|| format!("event beyond the trace: {ev:?}"))?;
        match ev.kind {
            TraceEventKind::Arrival { last, .. } => {
                arrive[i] = Some(ev.at);
                visit.arrive = ev.at;
                visit.last = last;
            }
            TraceEventKind::SpinStart { .. } => visit.choice = Choice::Spin,
            TraceEventKind::SleepStart {
                state, needs_flush, ..
            } => {
                visit.choice = Choice::Sleep {
                    state: state as usize,
                    needs_flush,
                }
            }
            TraceEventKind::Flush { duration, .. } => {
                visit.flush_duration = duration;
            }
            TraceEventKind::InternalWake { .. } => visit.internal_wake = Some(ev.at),
            TraceEventKind::ExternalWake { .. } => visit.external_wake = Some(ev.at),
            TraceEventKind::ResidualSpin { .. } => visit.residual = Some(ev.at),
            TraceEventKind::Depart { wake_latency, .. } => {
                depart[i] = Some(ev.at);
                visit.depart = ev.at;
                visit.wake_latency = wake_latency;
            }
            _ => {}
        }
    }
    if arrive.iter().chain(&depart).any(Option::is_none) {
        return Err("a thread is missing an arrival or departure".into());
    }
    Ok(v)
}

/// The time the releasing thread checked in, per step.
fn releases(trace: &AppTrace, visits: &[Visit]) -> Vec<Cycles> {
    let t = trace.threads;
    (0..trace.steps.len())
        .map(|s| {
            visits[s * t..(s + 1) * t]
                .iter()
                .find(|v| v.last)
                .map(|v| v.arrive)
                .expect("every step has a releaser")
        })
        .collect()
}

/// When thread `tid`'s compute phase of step `s` ends.
fn compute_done(trace: &AppTrace, visits: &[Visit], s: usize, tid: usize) -> Cycles {
    let start = if s == 0 {
        Cycles::ZERO
    } else {
        visits[(s - 1) * trace.threads + tid].depart
    };
    start + trace.steps[s].compute[tid]
}

struct MachineCheck {
    stats: MemStats,
    decision_mismatches: u64,
}

/// Replays a cell's memory and algorithm calls in handler order.
fn replay_machine(
    trace: &AppTrace,
    config: SystemConfig,
    oracle: Option<RecordedBitOracle>,
    visits: &[Visit],
    clock: &Clock,
    ops: &mut MachineOps,
) -> MachineCheck {
    let threads = trace.threads;
    let mut mem = CoherentMemory::directory(MachineConfig::table1_with_nodes(threads as u16));
    let count = mem.layout().shared_addr(COUNT_PAGE, 0);
    let flag = mem.layout().shared_addr(FLAG_PAGE, 0);
    let dirty: Vec<_> = (0..threads as u64)
        .map(|t| {
            mem.layout()
                .shared_addr(DIRTY_BASE_PAGE + t * DIRTY_PAGES_PER_THREAD, 0)
        })
        .collect();
    let mut algo = BarrierAlgorithm::new(config.algorithm_config(), threads);
    if let Some(oracle) = oracle {
        algo.install_oracle(oracle);
    }
    let flush_overhead = algo.config().flush_overhead;
    let release = releases(trace, visits);

    // (handler time, order, thread, step); order 0 = departure read,
    // 1 = early check-in, 2 = the releasing check-in (which the simulator
    // reaches last among same-time check-ins of its step).
    let mut order: Vec<(Cycles, u8, usize, usize)> = Vec::with_capacity(visits.len() * 2);
    for s in 0..trace.steps.len() {
        for tid in 0..threads {
            let v = &visits[s * threads + tid];
            let tc = compute_done(trace, visits, s, tid);
            order.push((tc, if v.last { 2 } else { 1 }, tid, s));
            if !v.last {
                order.push((release[s] + v.wake_latency, 0, tid, s));
            }
        }
    }
    order.sort_unstable();

    let mut lock_free_at = Cycles::ZERO;
    let mut decision_mismatches = 0;
    for (at, kind, tid, s) in order {
        let v = &visits[s * threads + tid];
        let node = NodeId::new(tid as u16);
        let thread = ThreadId::new(tid);
        let pc = BarrierPc::new(trace.steps[s].pc);
        if kind == 0 {
            clock.time(&mut ops.flag_read, || mem.read(node, flag, at));
            clock.time(&mut ops.finish, || algo.finish_barrier(thread, pc, at));
            continue;
        }
        let lines = trace.steps[s].dirty_lines;
        let mut t = at;
        if lines > 0 {
            t = clock.time(&mut ops.rewrite, || {
                mem.write_line_run(node, dirty[tid], lines, at)
            });
        }
        let grant = t.max(lock_free_at);
        let checkin = clock.time(&mut ops.checkin_write, || mem.write(node, count, grant));
        lock_free_at = checkin.completion + LOCK_HANDOFF;
        // The algorithm sees the recorded check-in time, so its state
        // follows the recording exactly.
        let now = v.arrive;
        if kind == 2 {
            clock.time(&mut ops.last_arrival, || {
                algo.on_last_arrival(thread, pc, now)
            });
            clock.time(&mut ops.release_write, || mem.write(node, flag, now));
            clock.time(&mut ops.finish, || {
                algo.finish_barrier(thread, pc, v.depart)
            });
            continue;
        }
        let decision = clock.time(&mut ops.early_arrival, || {
            algo.on_early_arrival(thread, pc, now)
        });
        let chose = match decision.choice {
            SleepChoice::Spin => Choice::Spin,
            SleepChoice::Sleep { state, needs_flush } => Choice::Sleep {
                state: state.index(),
                needs_flush,
            },
        };
        if chose != v.choice {
            decision_mismatches += 1;
        }
        let mut t = now;
        if let Choice::Sleep {
            needs_flush: true, ..
        } = v.choice
        {
            if flush_overhead {
                let f = clock.time(&mut ops.flush, || mem.flush_dirty_shared(node, t));
                t += f.duration;
            }
        }
        clock.time(&mut ops.flag_read, || mem.read(node, flag, t));
    }
    MachineCheck {
        stats: mem.stats().clone(),
        decision_mismatches,
    }
}

/// One event the simulator would queue: when it is scheduled, when it is
/// due, and when (if ever) it is cancelled instead of delivered.
struct Queued {
    scheduled: Cycles,
    due: Cycles,
    cancelled: Option<Cycles>,
}

/// Replays a cell's event-queue traffic: compute-done events, sleep entry
/// and exit transitions, internal timers (cancelled when an external wake
/// wins), and spin observations.
fn replay_events(
    trace: &AppTrace,
    config: SystemConfig,
    visits: &[Visit],
    clock: &Clock,
    ops: &mut EventOps,
) {
    let threads = trace.threads;
    let table = config.algorithm_config().sleep_table;
    let latency = |state: usize| {
        table
            .iter()
            .nth(state)
            .expect("recorded state is in the table")
            .transition_latency()
    };
    let release = releases(trace, visits);
    let mut queued: Vec<Queued> = Vec::with_capacity(visits.len() * 3);
    let mut push = |scheduled: Cycles, due: Cycles, cancelled: Option<Cycles>| {
        queued.push(Queued {
            scheduled,
            due: due.max(scheduled),
            cancelled,
        })
    };
    for s in 0..trace.steps.len() {
        for tid in 0..threads {
            let v = &visits[s * threads + tid];
            let scheduled = if s == 0 {
                Cycles::ZERO
            } else {
                visits[(s - 1) * threads + tid].depart
            };
            push(scheduled, compute_done(trace, visits, s, tid), None);
            let woke = release[s] + v.wake_latency;
            match v.choice {
                Choice::Release => {}
                Choice::Spin => push(release[s], woke, None),
                Choice::Sleep { state, .. } => {
                    let entry_done = v.arrive + v.flush_duration + latency(state);
                    push(v.arrive, entry_done, None);
                    match v.internal_wake {
                        Some(fired) => push(v.arrive, fired, None),
                        None => {
                            let cancel = v.external_wake.unwrap_or(woke).max(v.arrive);
                            push(v.arrive, cancel + Cycles::from_micros(1), Some(cancel));
                        }
                    }
                    let wake = v.internal_wake.or(v.external_wake).unwrap_or(woke);
                    let exit = wake.max(entry_done);
                    push(exit, exit + latency(state), None);
                    if let Some(r) = v.residual {
                        push(r, woke, None);
                    }
                }
            }
        }
    }
    // (time, 0 = schedule / 1 = cancel, index), replayed in time order.
    let mut order: Vec<(Cycles, u8, usize)> = Vec::with_capacity(queued.len() * 2);
    for (i, q) in queued.iter().enumerate() {
        order.push((q.scheduled, 0, i));
        if let Some(c) = q.cancelled {
            order.push((c, 1, i));
        }
    }
    order.sort_unstable();
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut ids: Vec<Option<EventId>> = vec![None; queued.len()];
    for (at, kind, i) in order {
        while queue.peek_time().is_some_and(|due| due <= at) {
            clock.time(&mut ops.pop, || black_box(queue.pop()));
        }
        if kind == 0 {
            let due = queued[i].due.max(at);
            ids[i] = Some(clock.time(&mut ops.schedule, || queue.schedule(due, i as u32)));
        } else {
            let id = ids[i].expect("scheduled before cancelled");
            clock.time(&mut ops.cancel, || black_box(queue.cancel(id)));
        }
    }
    while !queue.is_empty() {
        clock.time(&mut ops.pop, || black_box(queue.pop()));
    }
}

/// Host ns per (thread × episode) of the Thrifty configuration over all
/// ten applications at the paper seed, for 8, 16, 32 and 64 nodes: the
/// median of at least three repetitions (more until 0.3 s is spent).
fn node_scaling() -> Vec<(&'static str, f64)> {
    let apps = AppSpec::splash2();
    [
        (8u16, "sim.ns_per_thread_episode.thrifty.n8"),
        (16, "sim.ns_per_thread_episode.thrifty.n16"),
        (32, "sim.ns_per_thread_episode.thrifty.n32"),
        (64, "sim.ns_per_thread_episode.thrifty.n64"),
    ]
    .into_iter()
    .map(|(n, name)| {
        let traces: Vec<AppTrace> = apps
            .iter()
            .map(|a| a.generate(n as usize, PAPER_SEED))
            .collect();
        let thread_episodes: u64 = traces
            .iter()
            .map(|t| (t.threads * t.steps.len()) as u64)
            .sum();
        let start = Instant::now();
        let mut reps = Vec::new();
        while reps.len() < 3 || (start.elapsed() < Duration::from_millis(300) && reps.len() < 50) {
            let t = Instant::now();
            for trace in &traces {
                black_box(run_trace(trace, n, SystemConfig::Thrifty));
            }
            reps.push(t.elapsed().as_nanos() as f64);
        }
        (name, median(&reps) / thread_episodes as f64)
    })
    .collect()
}
