//! Export parity: the `.tacos` and JSON encodings of seeded TACOS
//! schedules are pinned by length and FNV-1a digest. Every dependency
//! edge appears in both encodings, so a change to how dependencies are
//! stored or derived that alters a single edge, or its order, fails here.

use tacos::prelude::*;
use tacos::scenario::{parse_pattern, parse_topology};
use tacos_collective::algorithm::Transfer;
use tacos_collective::export::{to_compact, to_json};
use tacos_topology::Bandwidth;

/// `(topology, collective, chunks per NPU, transfers, to_compact (bytes,
/// digest), to_json (bytes, digest))` at seed 1.
type Case = (
    &'static str,
    &'static str,
    usize,
    usize,
    (usize, u64),
    (usize, u64),
);

const CASES: [Case; 12] = [
    (
        "mesh:4x4",
        "all-gather",
        4,
        960,
        (36783, 12733901321616173521),
        (116360, 10941550814405077369),
    ),
    (
        "mesh:4x4",
        "reduce-scatter",
        4,
        960,
        (37672, 1082738959564157296),
        (118974, 1058581256360081375),
    ),
    (
        "mesh:4x4",
        "all-reduce",
        4,
        1920,
        (78228, 11160149366364290217),
        (239210, 177162915869948690),
    ),
    (
        "ring:16",
        "all-reduce",
        2,
        960,
        (38181, 18245254419389285225),
        (118822, 5088417977771554185),
    ),
    (
        "switch:16",
        "all-reduce",
        4,
        1920,
        (76709, 5948077559727887126),
        (237990, 5455407962870236668),
    ),
    (
        "hypercube:4x4x4",
        "all-to-all",
        4,
        170240,
        (7617636, 5013987364830673545),
        (21710757, 5099008461668289181),
    ),
    (
        "mesh:8x8",
        "all-to-all",
        1,
        49728,
        (2241413, 12899121160319141605),
        (6361734, 11745534725234967909),
    ),
    (
        "mesh:4x4",
        "reduce:0",
        2,
        30,
        (1254, 18362149254478214844),
        (3859, 10640114001455579350),
    ),
    (
        "mesh:4x4",
        "broadcast:3",
        2,
        30,
        (1228, 10420597547493998661),
        (3779, 7961929390524768767),
    ),
    (
        "mesh:4x4",
        "gather:5",
        2,
        96,
        (3412, 7106445894099949903),
        (11397, 8646935188756517049),
    ),
    (
        "mesh:4x4",
        "scatter:5",
        2,
        96,
        (3602, 10794557972904838595),
        (11587, 5103557964821585331),
    ),
    (
        "rfs:4x4x8",
        "all-reduce",
        16,
        520192,
        (23425542, 5317199323397098419),
        (66986536, 12773067013134309046),
    ),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn exports_match_pinned_digests() {
    let link = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
    let synth = Synthesizer::new(SynthesizerConfig::default().with_seed(1));
    let mut mismatches = Vec::new();
    for (topology, collective, chunks, transfers, compact, json) in CASES {
        let topo = parse_topology(topology, link).unwrap();
        let n = topo.num_npus();
        let pattern = parse_pattern(collective, n).unwrap();
        let coll = Collective::with_chunking(pattern, n, chunks, ByteSize::gb(1)).unwrap();
        let algo = synth.synthesize(&topo, &coll).unwrap().into_algorithm();
        let text = to_compact(&algo);
        let got_compact = (text.len(), fnv1a(text.as_bytes()));
        drop(text);
        let text = to_json(&algo);
        let got_json = (text.len(), fnv1a(text.as_bytes()));
        let got = (algo.len(), got_compact, got_json);
        if got != (transfers, compact, json) {
            mismatches.push(format!(
                "(\"{topology}\", \"{collective}\", {chunks}, {}, {:?}, {:?}),",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "export digests changed; got:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn transfer_is_at_most_40_bytes() {
    assert!(std::mem::size_of::<Transfer>() <= 40);
}
