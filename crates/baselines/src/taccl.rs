//! TACCL-like bounded-optimal collective synthesis (Shah et al., NSDI '23;
//! paper §V-A footnote 7: "we implemented a TACCL-like baseline by
//! integrating its ILP formulation over our TEN representation").
//!
//! The baseline searches for a **minimum-round** TEN schedule by
//! branch-and-bound over per-round matchings, reproducing TACCL's two
//! defining properties as the paper characterizes them (Table II):
//!
//! * **Congestion-oblivious**: the formulation lets up to
//!   [`TacclConfig::link_cap`] chunks share a link per round — fine in the
//!   model, serialized by the congestion-aware simulator at evaluation
//!   time, which is exactly why TACOS beats it (Fig. 15, Table V).
//! * **Not scalable**: the search tree is `width^rounds`; the node budget
//!   caps the explosion but synthesis time still grows steeply with NPU
//!   count (Fig. 19, Table V synthesis-time columns).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use tacos_collective::algorithm::{
    AlgorithmBuilder, CollectiveAlgorithm, TransferId, TransferKind,
};
use tacos_collective::{ChunkId, ChunkSet, Collective, CollectivePattern};
use tacos_topology::{LinkId, Topology};

use crate::error::BaselineError;

/// Tunables of the TACCL-like search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TacclConfig {
    /// Branching factor: candidate matchings explored per round.
    pub width: usize,
    /// Search-node budget; exploration beyond it completes greedily.
    pub node_budget: u64,
    /// Chunks allowed per link per round (congestion-obliviousness; 1
    /// would be congestion-free, the default 8 is effectively unbounded).
    pub link_cap: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TacclConfig {
    fn default() -> Self {
        TacclConfig {
            width: 3,
            node_budget: 20_000,
            // The real TACCL ILP has no congestion constraints at all; 8
            // chunks per link per round is effectively unbounded at the
            // paper's scales.
            link_cap: 8,
            seed: 0x7ACC1,
        }
    }
}

/// Outcome of the TACCL-like search.
#[derive(Debug, Clone)]
pub struct TacclResult {
    /// The synthesized algorithm (dependency-driven IR with pinned links).
    pub algorithm: CollectiveAlgorithm,
    /// TEN rounds of the best schedule found.
    pub rounds: usize,
    /// Search nodes (candidate matchings) explored.
    pub nodes_explored: u64,
}

/// One round of the schedule: `(link, chunk)` matches.
type Round = Vec<(LinkId, ChunkId)>;

/// Synthesizes a TACCL-like collective algorithm.
///
/// All-Gather searches directly; Reduce-Scatter searches the dual
/// All-Gather on the reversed topology and inverts it; All-Reduce chains
/// both phases.
///
/// # Errors
/// * [`BaselineError::NpuCountMismatch`] if sizes disagree.
/// * [`BaselineError::UnsupportedPattern`] for rooted patterns.
pub fn taccl_like(
    topo: &Topology,
    collective: &Collective,
    config: &TacclConfig,
) -> Result<TacclResult, BaselineError> {
    if topo.num_npus() != collective.num_npus() {
        return Err(BaselineError::NpuCountMismatch {
            topology: topo.num_npus(),
            collective: collective.num_npus(),
        });
    }
    match collective.pattern() {
        CollectivePattern::AllGather => {
            let (rounds, nodes) = search(topo, collective, config);
            let algorithm = emit_gather(topo, collective, &rounds, "taccl", false);
            Ok(TacclResult {
                algorithm,
                rounds: rounds.len(),
                nodes_explored: nodes,
            })
        }
        CollectivePattern::ReduceScatter => {
            let reversed = topo.reversed();
            let dual = collective.dual().expect("reduce-scatter has a dual");
            let (rounds, nodes) = search(&reversed, &dual, config);
            let algorithm = emit_gather(&reversed, &dual, &rounds, "taccl", true);
            Ok(TacclResult {
                algorithm,
                rounds: rounds.len(),
                nodes_explored: nodes,
            })
        }
        CollectivePattern::AllReduce => {
            let rs_coll = Collective::with_chunking(
                CollectivePattern::ReduceScatter,
                collective.num_npus(),
                collective.chunks_per_npu(),
                collective.total_size(),
            )?;
            let ag_coll = Collective::with_chunking(
                CollectivePattern::AllGather,
                collective.num_npus(),
                collective.chunks_per_npu(),
                collective.total_size(),
            )?;
            let rs = taccl_like(topo, &rs_coll, config)?;
            let mut ag_config = config.clone();
            ag_config.seed = config.seed.wrapping_add(1);
            let ag = taccl_like(topo, &ag_coll, &ag_config)?;
            let algorithm = compose_all_reduce(collective, rs.algorithm, ag.algorithm);
            Ok(TacclResult {
                algorithm,
                rounds: rs.rounds + ag.rounds,
                nodes_explored: rs.nodes_explored + ag.nodes_explored,
            })
        }
        CollectivePattern::Broadcast { .. }
        | CollectivePattern::Reduce { .. }
        | CollectivePattern::AllToAll
        | CollectivePattern::Gather { .. }
        | CollectivePattern::Scatter { .. } => Err(BaselineError::UnsupportedPattern {
            baseline: "taccl",
            pattern: collective.pattern().short_name(),
        }),
    }
}

/// Branch-and-bound over per-round matchings; returns the best round
/// sequence and the node count.
fn search(topo: &Topology, collective: &Collective, config: &TacclConfig) -> (Vec<Round>, u64) {
    let n = topo.num_npus();
    let holds: Vec<ChunkSet> = topo.npus().map(|v| collective.precondition(v)).collect();
    let needs: Vec<ChunkSet> = topo
        .npus()
        .map(|v| {
            let mut need = collective.postcondition(v);
            need.subtract(&collective.precondition(v));
            need
        })
        .collect();
    let unsatisfied: usize = needs.iter().map(ChunkSet::len).sum();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut best: Option<Vec<Round>> = None;
    let mut nodes = 0u64;
    let mut stack_rounds: Vec<Round> = Vec::new();
    let _ = n;
    dfs(
        topo,
        config,
        &mut rng,
        holds,
        needs,
        unsatisfied,
        &mut stack_rounds,
        &mut best,
        &mut nodes,
    );
    (best.unwrap_or_default(), nodes)
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    topo: &Topology,
    config: &TacclConfig,
    rng: &mut StdRng,
    holds: Vec<ChunkSet>,
    needs: Vec<ChunkSet>,
    unsatisfied: usize,
    rounds: &mut Vec<Round>,
    best: &mut Option<Vec<Round>>,
    nodes: &mut u64,
) {
    if unsatisfied == 0 {
        if best.as_ref().is_none_or(|b| rounds.len() < b.len()) {
            *best = Some(rounds.clone());
        }
        return;
    }
    // Bound: cannot beat the incumbent.
    if let Some(b) = best {
        if rounds.len() + 1 >= b.len() {
            return;
        }
    }
    let width = if *nodes >= config.node_budget {
        1
    } else {
        config.width
    };
    for _ in 0..width {
        *nodes += 1;
        let round = random_matching(topo, config, rng, &holds, &needs);
        if round.is_empty() {
            return; // disconnected: no progress possible
        }
        let mut holds2 = holds.clone();
        let mut needs2 = needs.clone();
        let mut satisfied = 0usize;
        for &(link, chunk) in &round {
            let dst = topo.link(link).dst();
            if needs2[dst.index()].remove(chunk) {
                satisfied += 1;
            }
            holds2[dst.index()].insert(chunk);
        }
        rounds.push(round);
        dfs(
            topo,
            config,
            rng,
            holds2,
            needs2,
            unsatisfied - satisfied,
            rounds,
            best,
            nodes,
        );
        rounds.pop();
    }
}

/// One congestion-oblivious matching: every link may carry up to
/// `link_cap` distinct needed chunks this round.
fn random_matching(
    topo: &Topology,
    config: &TacclConfig,
    rng: &mut StdRng,
    holds: &[ChunkSet],
    needs: &[ChunkSet],
) -> Round {
    let mut links: Vec<LinkId> = (0..topo.num_links() as u32).map(LinkId::new).collect();
    links.shuffle(rng);
    let mut round = Vec::new();
    // Track per-destination chunks already claimed this round so two links
    // do not deliver the same chunk twice.
    let mut claimed: Vec<ChunkSet> = needs.to_vec();
    for link in links {
        let l = topo.link(link);
        let (src, dst) = (l.src().index(), l.dst().index());
        for _ in 0..config.link_cap {
            match holds[src].pick_intersection(&claimed[dst], rng.gen::<usize>()) {
                Some(chunk) => {
                    claimed[dst].remove(chunk);
                    round.push((link, chunk));
                }
                None => break,
            }
        }
    }
    round
}

/// Converts a round schedule into the dependency-driven IR. With
/// `invert`, the gather becomes its reduction dual: directions flip,
/// rounds reverse, copies become reduces (paper Fig. 11 applied to an
/// unscheduled schedule).
fn emit_gather(
    topo: &Topology,
    collective: &Collective,
    rounds: &[Round],
    name: &str,
    invert: bool,
) -> CollectiveAlgorithm {
    let n = topo.num_npus();
    let num_chunks = collective.num_chunks();
    let chunk_size = collective.chunk_size();
    let mut b = AlgorithmBuilder::new(name, n, chunk_size, collective.total_size());

    if !invert {
        // provider[npu][chunk] = transfer that delivered chunk to npu.
        let mut provider: Vec<Option<TransferId>> = vec![None; n * num_chunks];
        for round in rounds {
            for &(link, chunk) in round {
                let l = topo.link(link);
                let deps: Vec<TransferId> = provider[l.src().index() * num_chunks + chunk.index()]
                    .into_iter()
                    .collect();
                let id = b.push_on_link(chunk, 1, l.src(), l.dst(), TransferKind::Copy, link, deps);
                provider[l.dst().index() * num_chunks + chunk.index()] = Some(id);
            }
        }
    } else {
        // Reverse rounds and flip directions: the transfer that *received*
        // chunk c at v in the forward gather becomes the reduce that v
        // emits, and it must wait for all reduces into v (its forward
        // "sends") to finish. Build in reverse round order so dependencies
        // reference earlier pushes.
        // forward sends from v of chunk c (in forward round order) become
        // reduces INTO v; collect their ids as we emit in reverse.
        let mut into: Vec<Vec<TransferId>> = vec![Vec::new(); n * num_chunks];
        for round in rounds.iter().rev() {
            for &(link, chunk) in round {
                let l = topo.link(link);
                // Forward: src -> dst on reversed topo. Inverted: dst -> src
                // in the original topology, which is link `link` of the
                // original (Topology::reversed preserves link order).
                let deps = into[l.dst().index() * num_chunks + chunk.index()].clone();
                let id =
                    b.push_on_link(chunk, 1, l.dst(), l.src(), TransferKind::Reduce, link, deps);
                into[l.src().index() * num_chunks + chunk.index()].push(id);
            }
        }
    }
    b.build()
}

/// Chains a Reduce-Scatter and an All-Gather into an All-Reduce, gating
/// each chunk's gather sends on its reduction completing at the owner.
fn compose_all_reduce(
    collective: &Collective,
    rs: CollectiveAlgorithm,
    ag: CollectiveAlgorithm,
) -> CollectiveAlgorithm {
    let mut b = AlgorithmBuilder::new(
        "taccl",
        collective.num_npus(),
        collective.chunk_size(),
        collective.total_size(),
    );
    let mut rs_finishers: Vec<Vec<TransferId>> = vec![Vec::new(); collective.num_chunks()];
    let (rs_deps, ag_deps) = (rs.dependencies(), ag.dependencies());
    for (t, deps) in rs.transfers().iter().zip(rs_deps.iter()) {
        let id = b.push_on_link(
            t.chunk(),
            t.count(),
            t.src(),
            t.dst(),
            t.kind(),
            t.link().expect("taccl transfers carry pinned links"),
            deps,
        );
        if t.dst() == collective.owner(t.chunk()) {
            rs_finishers[t.chunk().index()].push(id);
        }
    }
    let offset = rs.len() as u32;
    for (t, ag_deps) in ag.transfers().iter().zip(ag_deps.iter()) {
        let mut deps: Vec<TransferId> = ag_deps
            .iter()
            .map(|d| TransferId::new(d.index() as u32 + offset))
            .collect();
        if ag_deps.is_empty() {
            deps.extend(rs_finishers[t.chunk().index()].iter().copied());
        }
        b.push_on_link(
            t.chunk(),
            t.count(),
            t.src(),
            t.dst(),
            t.kind(),
            t.link().expect("taccl transfers carry pinned links"),
            deps,
        );
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacos_sim::Simulator;
    use tacos_topology::{Bandwidth, ByteSize, LinkSpec, NpuId, RingOrientation, Time};

    fn spec() -> LinkSpec {
        LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0))
    }

    #[test]
    fn all_gather_on_fc_is_one_round() {
        let topo = Topology::fully_connected(4, spec()).unwrap();
        let coll = Collective::all_gather(4, ByteSize::mb(4)).unwrap();
        let result = taccl_like(&topo, &coll, &TacclConfig::default()).unwrap();
        assert_eq!(result.rounds, 1);
        assert_eq!(result.algorithm.len(), 12);
        assert!(result.nodes_explored > 0);
    }

    #[test]
    fn all_gather_on_uni_ring_is_n_minus_one_rounds() {
        let topo = Topology::ring(4, spec(), RingOrientation::Unidirectional).unwrap();
        let coll = Collective::all_gather(4, ByteSize::mb(4)).unwrap();
        let result = taccl_like(&topo, &coll, &TacclConfig::default()).unwrap();
        assert_eq!(result.rounds, 3);
    }

    #[test]
    fn postconditions_satisfied() {
        let topo = Topology::mesh_2d(3, 3, spec()).unwrap();
        let coll = Collective::all_gather(9, ByteSize::mb(9)).unwrap();
        let result = taccl_like(&topo, &coll, &TacclConfig::default()).unwrap();
        // Replay: every NPU ends with all 9 chunks.
        let mut holds: Vec<std::collections::HashSet<u32>> = (0..9)
            .map(|i| std::collections::HashSet::from([i as u32]))
            .collect();
        for t in result.algorithm.transfers() {
            holds[t.dst().index()].insert(t.chunk().raw());
        }
        for h in &holds {
            assert_eq!(h.len(), 9);
        }
    }

    #[test]
    fn reduce_scatter_inverts() {
        let topo = Topology::mesh_2d(2, 2, spec()).unwrap();
        let coll = Collective::reduce_scatter(4, ByteSize::mb(4)).unwrap();
        let result = taccl_like(&topo, &coll, &TacclConfig::default()).unwrap();
        for t in result.algorithm.transfers() {
            assert_eq!(t.kind(), TransferKind::Reduce);
        }
        // Each chunk reduces over an in-tree: n-1 = 3 reduce hops.
        for chunk in 0..4u32 {
            let hops = result
                .algorithm
                .transfers()
                .iter()
                .filter(|t| t.chunk() == ChunkId::new(chunk))
                .count();
            assert_eq!(hops, 3);
        }
        assert!(Simulator::new().simulate(&topo, &result.algorithm).is_ok());
    }

    #[test]
    fn all_reduce_simulates() {
        let topo = Topology::mesh_2d(2, 2, spec()).unwrap();
        let coll = Collective::all_reduce(4, ByteSize::mb(4)).unwrap();
        let result = taccl_like(&topo, &coll, &TacclConfig::default()).unwrap();
        let report = Simulator::new().simulate(&topo, &result.algorithm).unwrap();
        assert!(report.collective_time() > Time::ZERO);
    }

    #[test]
    fn congestion_obliviousness_hurts() {
        // With link_cap>1 the schedule packs several chunks per link-round; the
        // simulator serializes them, so TACOS (congestion-free) should win
        // on the same topology.
        use tacos_core::{Synthesizer, SynthesizerConfig};
        let topo = Topology::mesh_2d(3, 3, spec()).unwrap();
        let coll = Collective::all_reduce(9, ByteSize::mb(9)).unwrap();
        let taccl = taccl_like(&topo, &coll, &TacclConfig::default()).unwrap();
        let taccl_time = Simulator::new()
            .simulate(&topo, &taccl.algorithm)
            .unwrap()
            .collective_time();
        let tacos = Synthesizer::new(SynthesizerConfig::default().with_attempts(8))
            .synthesize(&topo, &coll)
            .unwrap();
        assert!(
            tacos.collective_time() <= taccl_time,
            "tacos {} vs taccl {}",
            tacos.collective_time(),
            taccl_time
        );
    }

    #[test]
    fn rooted_patterns_unsupported() {
        let topo = Topology::mesh_2d(2, 2, spec()).unwrap();
        let coll = Collective::broadcast(4, NpuId::new(0), ByteSize::mb(1)).unwrap();
        assert!(matches!(
            taccl_like(&topo, &coll, &TacclConfig::default()),
            Err(BaselineError::UnsupportedPattern { .. })
        ));
    }
}
