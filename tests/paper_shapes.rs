//! Headline paper results as regression tests: these assert the *shape* of
//! every major claim (who wins, roughly by how much) so the reproduction
//! cannot silently drift. EXPERIMENTS.md records the measured values.

use tacos::baselines::{BaselineAlgorithm, BaselineKind, IdealBound, TacclConfig};
use tacos::prelude::*;
use tacos_collective::CollectivePattern;
use tacos_topology::{Bandwidth, RingOrientation};

fn spec() -> LinkSpec {
    LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0))
}

fn sim_time(topo: &Topology, kind: BaselineKind, coll: &Collective) -> Time {
    let algo = BaselineAlgorithm::new(kind).generate(topo, coll).unwrap();
    Simulator::new()
        .simulate(topo, &algo)
        .unwrap()
        .collective_time()
}

fn tacos_time(topo: &Topology, coll: &Collective) -> Time {
    Synthesizer::new(SynthesizerConfig::default().with_seed(42).with_attempts(8))
        .synthesize(topo, coll)
        .unwrap()
        .collective_time()
}

/// Fig. 2(a): on a physical Ring, the Ring algorithm crushes Direct
/// (paper: 16.71x); on FullyConnected, Direct crushes Ring (paper: 62.6x;
/// ours is about half that because our Ring is bidirectional throughout).
#[test]
fn fig2a_ring_vs_direct_shapes() {
    let size = ByteSize::gb(1);
    let ring_topo = Topology::ring(64, spec(), RingOrientation::Bidirectional).unwrap();
    let coll = Collective::all_reduce(64, size).unwrap();
    let ring_on_ring = sim_time(&ring_topo, BaselineKind::Ring, &coll);
    let direct_on_ring = sim_time(&ring_topo, BaselineKind::Direct, &coll);
    let ratio = direct_on_ring.as_secs_f64() / ring_on_ring.as_secs_f64();
    assert!(
        ratio > 10.0,
        "Ring should beat Direct on a ring by >10x, got {ratio:.1}x"
    );

    let fc = Topology::fully_connected(64, spec()).unwrap();
    let ring_on_fc = sim_time(&fc, BaselineKind::Ring, &coll);
    let direct_on_fc = sim_time(&fc, BaselineKind::Direct, &coll);
    let ratio = ring_on_fc.as_secs_f64() / direct_on_fc.as_secs_f64();
    assert!(
        ratio > 20.0,
        "Direct should beat Ring on FC by >20x, got {ratio:.1}x"
    );
}

/// Fig. 2(b): the optimal algorithm flips with collective size on a
/// 128-NPU ring — Ring loses at 1 KB (latency-bound) and wins at 1 GB.
#[test]
fn fig2b_size_crossover() {
    let topo = Topology::ring(
        128,
        LinkSpec::new(Time::from_nanos(30.0), Bandwidth::gbps(150.0)),
        RingOrientation::Bidirectional,
    )
    .unwrap();
    let small = Collective::all_reduce(128, ByteSize::kb(1)).unwrap();
    let large = Collective::all_reduce(128, ByteSize::gb(1)).unwrap();
    let ring_small = sim_time(&topo, BaselineKind::Ring, &small);
    let rhd_small = sim_time(&topo, BaselineKind::Rhd, &small);
    assert!(
        rhd_small < ring_small,
        "RHD should win the latency-bound 1 KB case"
    );
    let ring_large = sim_time(&topo, BaselineKind::Ring, &large);
    let rhd_large = sim_time(&topo, BaselineKind::Rhd, &large);
    assert!(
        ring_large < rhd_large,
        "Ring should win the bandwidth-bound 1 GB case"
    );
}

/// Fig. 15 / Table V: TACOS beats Ring, Direct, and the TACCL-like
/// baseline on the heterogeneous 3D-RFS.
#[test]
fn fig15_tacos_wins_on_heterogeneous() {
    let topo = Topology::rfs_3d(2, 4, 4, Time::from_micros(0.5), [200.0, 100.0, 50.0]).unwrap();
    let coll = Collective::all_reduce(32, ByteSize::mb(256)).unwrap();
    let tacos = tacos_time(&topo, &coll);
    for kind in [
        BaselineKind::Ring,
        BaselineKind::Direct,
        BaselineKind::TacclLike(TacclConfig {
            node_budget: 2_000,
            ..Default::default()
        }),
    ] {
        let name = kind.name();
        let t = sim_time(&topo, kind, &coll);
        assert!(tacos <= t, "{name} ({t}) should not beat tacos ({tacos})");
    }
}

/// Fig. 16: Themis collapses on the asymmetric 3D grid relative to the
/// torus, while TACOS barely degrades (paper: 49% vs 98% of ideal).
#[test]
fn fig16_themis_asymmetry_penalty() {
    let link = LinkSpec::new(Time::from_micros(0.7), Bandwidth::gbps(25.0));
    let torus = Topology::torus_3d(4, 4, 4, link).unwrap();
    let grid = Topology::hypercube_3d(4, 4, 4, link).unwrap();
    let size = ByteSize::gb(1);
    let coll = Collective::all_reduce(64, size).unwrap();

    let bw = |t: Time| size.as_u64() as f64 / t.as_secs_f64();
    let themis_torus = bw(sim_time(&torus, BaselineKind::Themis { chunks: 4 }, &coll));
    let themis_grid_time = sim_time(&grid, BaselineKind::Themis { chunks: 4 }, &coll);
    let themis_grid = bw(themis_grid_time);
    let chunked = Collective::with_chunking(CollectivePattern::AllReduce, 64, 4, size).unwrap();
    let tacos_grid_time = tacos_time(&grid, &chunked);
    // Themis cannot re-route around the missing wraparound links, so its
    // absolute bandwidth drops on the grid...
    assert!(
        themis_grid < themis_torus * 0.8,
        "Themis should lose bandwidth on the grid ({themis_grid:.2e} vs {themis_torus:.2e})"
    );
    // ...while TACOS stays near the (corner-limited) ideal bound there.
    let ideal = IdealBound::new(&grid).collective_time(CollectivePattern::AllReduce, size);
    let tacos_eff = ideal.as_secs_f64() / tacos_grid_time.as_secs_f64();
    assert!(
        tacos_eff > 0.9,
        "TACOS should stay near-ideal on the grid, got {tacos_eff:.2}"
    );
    assert!(
        tacos_grid_time < themis_grid_time,
        "TACOS should beat Themis on the grid"
    );
}

/// Fig. 17(a): MultiTree saturates with collective size; TACOS keeps
/// scaling (paper: 1.32x average, growing with size).
#[test]
fn fig17a_multitree_saturation() {
    let link = LinkSpec::new(Time::from_micros(0.15), Bandwidth::gbps(16.0));
    let torus = Topology::torus_2d(4, 4, link).unwrap();
    let small = Collective::all_reduce(16, ByteSize::mb(1)).unwrap();
    let large = Collective::all_reduce(16, ByteSize::mb(32)).unwrap();
    let large_chunked =
        Collective::with_chunking(CollectivePattern::AllReduce, 16, 4, ByteSize::mb(32)).unwrap();

    let bw = |size: ByteSize, t: Time| size.as_u64() as f64 / t.as_secs_f64();
    let mt_small = bw(
        ByteSize::mb(1),
        sim_time(&torus, BaselineKind::MultiTree, &small),
    );
    let mt_large = bw(
        ByteSize::mb(32),
        sim_time(&torus, BaselineKind::MultiTree, &large),
    );
    let tacos_large = bw(ByteSize::mb(32), tacos_time(&torus, &large_chunked));
    // MultiTree's bandwidth saturates...
    assert!(mt_large < mt_small * 1.5, "MultiTree should saturate");
    // ...and TACOS overtakes it for large collectives.
    assert!(
        tacos_large > mt_large * 1.2,
        "TACOS ({tacos_large:.2e}) should beat MultiTree ({mt_large:.2e}) by >1.2x"
    );
}

/// Fig. 17(b): C-Cube reaches only ~a third of ideal on DGX-1 (paper:
/// 32.6%); TACOS roughly doubles it (paper: 2.86x).
#[test]
fn fig17b_ccube_inefficiency() {
    let topo =
        Topology::dgx1(LinkSpec::new(Time::from_micros(0.7), Bandwidth::gbps(25.0))).unwrap();
    let size = ByteSize::gb(1);
    let coll = Collective::all_reduce(8, size).unwrap();
    let ideal = IdealBound::new(&topo).collective_time(CollectivePattern::AllReduce, size);
    let ccube = sim_time(&topo, BaselineKind::CCube { pipeline: 4 }, &coll);
    let ccube_eff = ideal.as_secs_f64() / ccube.as_secs_f64();
    assert!(
        (0.25..0.45).contains(&ccube_eff),
        "C-Cube should land near a third of ideal, got {ccube_eff:.2}"
    );
    let tacos = tacos_time(&topo, &coll);
    let speedup = ccube.as_secs_f64() / tacos.as_secs_f64();
    assert!(
        speedup > 1.5,
        "TACOS should beat C-Cube by >1.5x, got {speedup:.2}x"
    );
}

/// Fig. 19: synthesis work follows the O(n²) trend with high R².
///
/// The fit is to the number of links probed, a deterministic work
/// counter, so parallel test load cannot break it. Wall time is printed
/// next to it but does not gate the test.
#[test]
fn fig19_quadratic_scaling() {
    use tacos::report::fit_power;
    let mut ns = Vec::new();
    let mut probes = Vec::new();
    for side in [4usize, 6, 8, 12, 16] {
        let topo = Topology::mesh_2d(side, side, spec()).unwrap();
        let n = topo.num_npus();
        let coll = Collective::all_gather(n, ByteSize::mb(64)).unwrap();
        let config = SynthesizerConfig::default().with_record_transfers(false);
        // Medians over 3 seeds.
        let mut runs: Vec<(u64, f64)> = (0..3)
            .map(|s| {
                let started = std::time::Instant::now();
                let r = Synthesizer::new(config.clone().with_seed(s))
                    .synthesize(&topo, &coll)
                    .unwrap();
                (r.probes(), started.elapsed().as_secs_f64())
            })
            .collect();
        runs.sort_by_key(|r| r.0);
        let median_probes = runs[1].0;
        runs.sort_by(|a, b| a.1.total_cmp(&b.1));
        println!(
            "fig19: {n} NPUs: {median_probes} probes, {:.4} s",
            runs[1].1
        );
        ns.push(n as f64);
        probes.push(median_probes as f64);
    }
    let quad = fit_power(&ns, &probes, 2.0);
    assert!(
        quad.r_squared > 0.85,
        "quadratic fit should explain the trend, R² = {:.3}",
        quad.r_squared
    );
}

/// §VI-B.6 / Fig. 18: on the symmetric torus TACOS achieves near-ideal
/// efficiency (paper: 98%+).
#[test]
fn fig18_torus_near_ideal() {
    let topo = Topology::torus_3d(3, 3, 3, spec()).unwrap();
    let size = ByteSize::gb(1);
    let chunked = Collective::with_chunking(CollectivePattern::AllReduce, 27, 4, size).unwrap();
    let tacos = tacos_time(&topo, &chunked);
    let ideal = IdealBound::new(&topo).collective_time(CollectivePattern::AllReduce, size);
    let eff = ideal.as_secs_f64() / tacos.as_secs_f64();
    assert!(
        eff > 0.85,
        "TACOS on a torus should be near-ideal, got {eff:.2}"
    );
}
