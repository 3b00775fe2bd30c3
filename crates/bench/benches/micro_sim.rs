//! Criterion micro-benchmarks of the simulation substrates: event-queue
//! throughput, coherent-access latency, and a small end-to-end machine
//! run, so substrate regressions are caught independently of the paper
//! figures.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tb_core::{AlgorithmConfig, BarrierAlgorithm};
use tb_machine::{Simulator, SimulatorConfig};
use tb_mem::{CoherentMemory, MachineConfig, NodeId};
use tb_sim::{Cycles, EventQueue};
use tb_workloads::{AppSpec, PhaseSpec, Variability};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_schedule_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1_000u64 {
                q.schedule(Cycles::new((i * 7919) % 10_000 + 10_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum += v;
            }
            black_box(sum)
        });
    });
}

fn bench_memory_system(c: &mut Criterion) {
    c.bench_function("coherent_read_write_mix", |b| {
        let mut mem = CoherentMemory::directory(MachineConfig::table1_with_nodes(16));
        let mut t = Cycles::ZERO;
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            t += Cycles::from_nanos(100);
            let node = NodeId::new((i % 16) as u16);
            let addr = mem.layout().shared_addr(10 + (i % 32), (i % 64) * 64);
            if i.is_multiple_of(3) {
                black_box(mem.write(node, addr, t).completion)
            } else {
                black_box(mem.read(node, addr, t).completion)
            }
        });
    });
}

fn bench_machine_run(c: &mut Criterion) {
    let app = AppSpec {
        name: "Bench".into(),
        problem_size: "micro".into(),
        target_imbalance: 0.20,
        setup_phases: vec![],
        loop_phases: vec![PhaseSpec::new(
            0x77,
            Cycles::from_millis(2),
            32,
            Variability::Stable { jitter: 0.02 },
        )],
        iterations: 10,
        skew: 2.0,
    };
    let trace = app.generate(16, 1);
    c.bench_function("machine_run_16p_10_barriers", |b| {
        b.iter(|| {
            let cfg = SimulatorConfig {
                machine: MachineConfig::table1_with_nodes(16),
                observed_thread: 0,
                ..SimulatorConfig::paper("Thrifty")
            };
            let algo = BarrierAlgorithm::new(AlgorithmConfig::thrifty(), 16);
            let (report, _) = Simulator::new(cfg, trace.clone(), algo)
                .run(None)
                .expect("run completes");
            black_box(report.wall_time)
        });
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_memory_system,
    bench_machine_run
);
criterion_main!(benches);
