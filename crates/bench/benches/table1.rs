//! End-to-end simulated executions per protocol — the Criterion counterpart
//! of the Table 1 experiment binaries. Each benchmark runs a short fixed
//! scenario (benign and worst-case) for one protocol and number of
//! processors, so regressions in protocol efficiency show up as wall-clock
//! regressions of the simulation (which is dominated by the number of
//! messages processed).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lumiere_sim::scenario::{ProtocolKind, SimConfig};
use lumiere_sim::StrategyKind;
use lumiere_types::{Duration, Time};

fn benign_run(protocol: ProtocolKind, n: usize) -> usize {
    SimConfig::new(protocol, n)
        .with_delta(Duration::from_millis(10))
        .with_actual_delay(Duration::from_millis(1))
        .with_horizon(Duration::from_secs(2))
        .with_max_honest_qcs(50)
        .run()
        .total_messages()
}

fn worst_case_run(protocol: ProtocolKind, n: usize) -> usize {
    let f = (n - 1) / 3;
    SimConfig::new(protocol, n)
        .with_delta(Duration::from_millis(10))
        .with_adversarial_delay()
        .with_gst(Time::from_millis(100))
        .with_faults(f, StrategyKind::SilentLeader)
        .with_horizon(Duration::from_secs(6))
        .with_max_honest_qcs(3)
        .run()
        .total_messages()
}

fn bench_benign(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/benign_50_decisions");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(1));
    for protocol in ProtocolKind::table1() {
        for n in [4usize, 16] {
            group.bench_with_input(
                BenchmarkId::new(protocol.name(), n),
                &(protocol, n),
                |b, &(p, n)| b.iter(|| benign_run(p, n)),
            );
        }
    }
    group.finish();
}

fn bench_worst_case(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/worst_case_first_decision");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(1));
    for protocol in ProtocolKind::table1() {
        for n in [4usize, 16] {
            group.bench_with_input(
                BenchmarkId::new(protocol.name(), n),
                &(protocol, n),
                |b, &(p, n)| b.iter(|| worst_case_run(p, n)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_benign, bench_worst_case);
criterion_main!(benches);
