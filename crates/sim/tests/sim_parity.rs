//! Simulator parity: the reports of seeded TACOS replays and routed
//! baselines are pinned by collective time, message count, and FNV-1a
//! digests of the per-link bytes, the per-link busy time, and the busy
//! intervals in recording order. Intervals are recorded in service order,
//! so a change to the event engine that reorders a single service at one
//! instant, or routes one hop differently, fails here.

use tacos_baselines::{BaselineAlgorithm, BaselineKind};
use tacos_collective::algorithm::CollectiveAlgorithm;
use tacos_collective::{Collective, CollectivePattern};
use tacos_core::{Synthesizer, SynthesizerConfig};
use tacos_sim::{RouteModel, SimConfig, SimReport, Simulator};
use tacos_topology::{Bandwidth, ByteSize, LinkSpec, RingOrientation, Time, Topology};

/// `(collective_time_ps, messages, link_bytes, link_busy, intervals)`,
/// the last three as FNV-1a digests.
type Pin = (u64, u64, u64, u64, u64);

fn link() -> LinkSpec {
    LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0))
}

fn topology(name: &str) -> Topology {
    let l = link();
    match name {
        "mesh:4x4" => Topology::mesh_2d(4, 4, l),
        "mesh:8x8" => Topology::mesh_2d(8, 8, l),
        "switch:32" => Topology::switch(32, l, 1),
        "ring:8" => Topology::ring(8, l, RingOrientation::Bidirectional),
        "ring-uni:8" => Topology::ring(8, l, RingOrientation::Unidirectional),
        "rfs:4x4x8" => Topology::rfs_3d(4, 4, 8, l.alpha(), [200.0, 100.0, 50.0]),
        _ => unreachable!("unknown topology {name}"),
    }
    .unwrap()
}

fn tacos(topo: &Topology, pattern: CollectivePattern, chunks: usize) -> CollectiveAlgorithm {
    let n = topo.num_npus();
    let coll = Collective::with_chunking(pattern, n, chunks, ByteSize::gb(1)).unwrap();
    Synthesizer::new(SynthesizerConfig::default().with_seed(1))
        .synthesize(topo, &coll)
        .unwrap()
        .into_algorithm()
}

fn baseline(
    topo: &Topology,
    kind: BaselineKind,
    pattern: CollectivePattern,
) -> CollectiveAlgorithm {
    let coll = Collective::with_chunking(pattern, topo.num_npus(), 1, ByteSize::gb(1)).unwrap();
    BaselineAlgorithm::new(kind).generate(topo, &coll).unwrap()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn pin(report: &SimReport) -> Pin {
    let mut bytes = Fnv::new();
    report.link_bytes().iter().for_each(|&b| bytes.word(b));
    let mut busy = Fnv::new();
    report.link_busy().iter().for_each(|t| busy.word(t.as_ps()));
    let mut intervals = Fnv::new();
    for i in report.intervals() {
        intervals.word(u64::from(i.link.raw()));
        intervals.word(i.start.as_ps());
        intervals.word(i.duration.as_ps());
        intervals.word(i.bytes);
    }
    (
        report.collective_time().as_ps(),
        report.messages(),
        bytes.0,
        busy.0,
        intervals.0,
    )
}

/// One pinned case: a label, how to build the algorithm, the simulator
/// configuration, and the pinned report.
struct Case {
    label: &'static str,
    topology: &'static str,
    algo: fn(&Topology) -> CollectiveAlgorithm,
    config: fn() -> SimConfig,
    expect: Pin,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            label: "tacos mesh:4x4 all-gather c4 (planned replay)",
            topology: "mesh:4x4",
            algo: |t| tacos(t, CollectivePattern::AllGather, 4),
            config: SimConfig::default,
            expect: (
                9390000000,
                960,
                4320597731706983766,
                7569791667172151583,
                15294450238189729348,
            ),
        },
        Case {
            label: "tacos rfs:4x4x8 all-reduce c4 (planned replay)",
            topology: "rfs:4x4x8",
            algo: |t| tacos(t, CollectivePattern::AllReduce, 4),
            config: SimConfig::default,
            expect: (
                6083359375,
                130048,
                215457746019534218,
                6480893357150379878,
                3771131776410368978,
            ),
        },
        Case {
            label: "tacos mesh:4x4 all-reduce c2 (FCFS, plan ignored)",
            topology: "mesh:4x4",
            algo: |t| tacos(t, CollectivePattern::AllReduce, 2),
            config: || SimConfig::default().with_respect_planned_order(false),
            expect: (
                20016000000,
                960,
                5397647385012406452,
                726160444376470730,
                5540261666917465362,
            ),
        },
        Case {
            label: "ring mesh:8x8 all-reduce (routed)",
            topology: "mesh:8x8",
            algo: |t| baseline(t, BaselineKind::Ring, CollectivePattern::AllReduce),
            config: SimConfig::default,
            expect: (
                43249000000,
                31752,
                10936148250118032965,
                13023710919284581669,
                13169642562082823540,
            ),
        },
        Case {
            label: "ring switch:32 all-reduce (routed)",
            topology: "switch:32",
            algo: |t| baseline(t, BaselineKind::Ring, CollectivePattern::AllReduce),
            config: SimConfig::default,
            expect: (
                620062000000,
                63488,
                5281242479860943589,
                18129645710524189477,
                7688044530888281477,
            ),
        },
        Case {
            label: "ring rfs:4x4x8 all-reduce (routed)",
            topology: "rfs:4x4x8",
            algo: |t| baseline(t, BaselineKind::Ring, CollectivePattern::AllReduce),
            config: SimConfig::default,
            expect: (
                138965343750,
                97536,
                11631102464509133941,
                6613788221299791733,
                7199971078698216285,
            ),
        },
        Case {
            label: "multitree rfs:4x4x8 all-reduce",
            topology: "rfs:4x4x8",
            algo: |t| baseline(t, BaselineKind::MultiTree, CollectivePattern::AllReduce),
            config: SimConfig::default,
            expect: (
                27953687500,
                48772,
                15913733588262424917,
                2346629684347489563,
                11732695348665643623,
            ),
        },
        Case {
            label: "multitree mesh:4x4 all-gather",
            topology: "mesh:4x4",
            algo: |t| baseline(t, BaselineKind::MultiTree, CollectivePattern::AllGather),
            config: SimConfig::default,
            expect: (
                11254500000,
                240,
                13263625603624568228,
                10974728854639547191,
                5747110952175249783,
            ),
        },
        Case {
            label: "direct ring-uni:8 all-reduce (store-and-forward)",
            topology: "ring-uni:8",
            algo: |t| baseline(t, BaselineKind::Direct, CollectivePattern::AllReduce),
            config: || SimConfig::default().with_route_model(RouteModel::StoreAndForward),
            expect: (
                140028000000,
                448,
                12108614375462636885,
                1989198652286733269,
                15698594776566288389,
            ),
        },
        Case {
            label: "rhd ring:8 all-reduce",
            topology: "ring:8",
            algo: |t| baseline(t, BaselineKind::Rhd, CollectivePattern::AllReduce),
            config: SimConfig::default,
            expect: (
                60003000000,
                112,
                2184176273458037040,
                10492733821004086365,
                18266285553367679361,
            ),
        },
    ]
}

#[test]
fn reports_match_pinned_digests() {
    let mut mismatches = Vec::new();
    for case in cases() {
        let topo = topology(case.topology);
        let algo = (case.algo)(&topo);
        let report = Simulator::with_config((case.config)())
            .simulate(&topo, &algo)
            .unwrap();
        let got = pin(&report);
        if got != case.expect {
            mismatches.push(format!("{}: {got:?}", case.label));
        }
    }
    assert!(
        mismatches.is_empty(),
        "simulator reports changed; got:\n{}",
        mismatches.join("\n")
    );
}

/// Turning interval recording off changes nothing but the intervals.
#[test]
fn unrecorded_runs_match_recorded_ones() {
    for case in cases() {
        let topo = topology(case.topology);
        let algo = (case.algo)(&topo);
        let recorded = Simulator::with_config((case.config)())
            .simulate(&topo, &algo)
            .unwrap();
        let bare = Simulator::with_config((case.config)().with_record_intervals(false))
            .simulate(&topo, &algo)
            .unwrap();
        assert!(bare.intervals().is_empty(), "{}", case.label);
        let (time, messages, bytes, busy, _) = pin(&bare);
        let (r_time, r_messages, r_bytes, r_busy, _) = pin(&recorded);
        assert_eq!(
            (time, messages, bytes, busy),
            (r_time, r_messages, r_bytes, r_busy),
            "{}",
            case.label
        );
    }
}
