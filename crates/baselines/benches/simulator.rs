//! Criterion microbenchmark: congestion-aware simulator event throughput
//! on the Ring All-Reduce (2n(n-1) dependent, routed messages) and on the
//! planned replay of a TACOS All-Reduce schedule (one message per
//! transfer, served in planned order).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tacos_baselines::{BaselineAlgorithm, BaselineKind};
use tacos_collective::{Collective, CollectivePattern};
use tacos_core::{Synthesizer, SynthesizerConfig};
use tacos_sim::Simulator;
use tacos_topology::{ByteSize, RingOrientation, Topology};

/// The paper's default link: alpha = 0.5 us, 1/beta = 50 GB/s.
fn default_spec() -> tacos_topology::LinkSpec {
    tacos_topology::LinkSpec::new(
        tacos_topology::Time::from_micros(0.5),
        tacos_topology::Bandwidth::gbps(50.0),
    )
}

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    for n in [16usize, 64, 128] {
        let topo = Topology::ring(n, default_spec(), RingOrientation::Bidirectional).unwrap();
        let coll = Collective::all_reduce(n, ByteSize::gb(1)).unwrap();
        let algo = BaselineAlgorithm::new(BaselineKind::Ring)
            .generate(&topo, &coll)
            .unwrap();
        group.bench_with_input(BenchmarkId::new("ring_all_reduce", n), &n, |b, _| {
            let sim = Simulator::new();
            b.iter(|| sim.simulate(&topo, &algo).unwrap().collective_time())
        });
    }
    // A 64-NPU mesh All-Reduce at 4 chunks per NPU: 32,256 scheduled
    // transfers whose dependencies follow the chunk-arrival rule.
    let mesh = Topology::mesh_2d(8, 8, default_spec()).unwrap();
    let coll =
        Collective::with_chunking(CollectivePattern::AllReduce, 64, 4, ByteSize::gb(1)).unwrap();
    let algo = Synthesizer::new(SynthesizerConfig::default().with_seed(1))
        .synthesize(&mesh, &coll)
        .unwrap()
        .into_algorithm();
    let id = BenchmarkId::new("tacos_replay_mesh_all_reduce_c4", 64);
    group.bench_with_input(id, &64, |b, _| {
        let sim = Simulator::new();
        b.iter(|| sim.simulate(&mesh, &algo).unwrap().collective_time())
    });
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
