//! The congestion-aware analytical network simulator (paper §V-C).
//!
//! Models exactly what the paper's ASTRA-sim backend models, at first
//! order: every link has a message queue and processes **one message at a
//! time** (`α + β·size` each), first-come-first-served; contending messages
//! therefore serialize — the mechanism behind the oversubscription heat
//! maps of Figs. 1 and 15b. Transfers between NPUs that share no physical
//! link are routed over static α–β-shortest paths (store-and-forward per
//! hop), which is how topology-unaware baselines like Direct-on-a-Ring pay
//! for their assumptions.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tacos_collective::algorithm::CollectiveAlgorithm;
use tacos_topology::routing::{route_path, RoutingTable};
use tacos_topology::{LinkId, Time, Topology};

use crate::error::SimError;
use crate::report::{BusyInterval, SimReport};

/// How multi-hop routed messages pay the per-message latency α.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouteModel {
    /// α is charged once (on the first hop); later hops cost only the
    /// serialization delay β·size. This matches the paper's analytical
    /// backend, where Direct on a 128-NPU Ring *wins* for 1 KB collectives
    /// (Fig. 2b) — long paths are latency-cheap but still occupy every
    /// link they cross.
    #[default]
    CutThrough,
    /// Every hop pays the full `α + β·size` (store-and-forward).
    StoreAndForward,
}

/// Simulator options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    respect_planned_order: bool,
    record_intervals: bool,
    route_model: RouteModel,
}

impl SimConfig {
    /// When `true` (default), messages contending for a link are served in
    /// planned-start order if the algorithm carries a schedule; this makes
    /// replaying a TACOS schedule reproduce its planned times exactly.
    /// Unscheduled (baseline) algorithms always use FCFS.
    pub fn respect_planned_order(&self) -> bool {
        self.respect_planned_order
    }

    /// Whether per-message busy intervals are recorded (needed for
    /// utilization timelines; costs memory on very large runs).
    pub fn record_intervals(&self) -> bool {
        self.record_intervals
    }

    /// Returns the config with planned-order service toggled.
    #[must_use]
    pub fn with_respect_planned_order(mut self, on: bool) -> Self {
        self.respect_planned_order = on;
        self
    }

    /// Returns the config with busy-interval recording toggled.
    #[must_use]
    pub fn with_record_intervals(mut self, on: bool) -> Self {
        self.record_intervals = on;
        self
    }

    /// How routed multi-hop messages pay α.
    pub fn route_model(&self) -> RouteModel {
        self.route_model
    }

    /// Returns the config with a different multi-hop cost model.
    #[must_use]
    pub fn with_route_model(mut self, model: RouteModel) -> Self {
        self.route_model = model;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            respect_planned_order: true,
            record_intervals: true,
            route_model: RouteModel::default(),
        }
    }
}

/// Discrete-event, link-granularity network simulator.
///
/// ```
/// use tacos_sim::Simulator;
/// use tacos_core::{Synthesizer, SynthesizerConfig};
/// use tacos_collective::Collective;
/// use tacos_topology::{Bandwidth, ByteSize, LinkSpec, Time, Topology};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
/// let mesh = Topology::mesh_2d(3, 3, spec)?;
/// let coll = Collective::all_gather(9, ByteSize::mb(9))?;
/// let algo = Synthesizer::default().synthesize(&mesh, &coll)?.into_algorithm();
/// let report = Simulator::new().simulate(&mesh, &algo)?;
/// // Simulating a TACOS schedule reproduces its planned time exactly.
/// assert_eq!(report.collective_time(), algo.collective_time());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Simulator {
    config: SimConfig,
}

/// One hop of one transfer, queued at a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Message {
    transfer: u32,
    hop: u32,
}

/// Queue priority: planned start (or MAX), ready time, sequence.
type Priority = (u64, u64, u64);

/// Simulation events: a message becomes eligible at a link, or a link
/// finishes transmitting a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Release(Message),
    Complete(Message, LinkId),
}

#[derive(Debug)]
struct LinkState {
    busy_until: Time,
    pending: BinaryHeap<Reverse<(Priority, Message)>>,
}

impl Simulator {
    /// A simulator with default configuration.
    pub fn new() -> Self {
        Simulator::default()
    }

    /// A simulator with explicit configuration.
    pub fn with_config(config: SimConfig) -> Self {
        Simulator { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Simulates `algo` on `topo` and reports completion time, per-link
    /// traffic, and utilization.
    ///
    /// # Errors
    /// * [`SimError::NpuCountMismatch`] if the algorithm was generated for
    ///   a different NPU count.
    /// * [`SimError::Unroutable`] if an unscheduled transfer's destination
    ///   is unreachable.
    /// * [`SimError::BadLink`] if a scheduled transfer's link does not
    ///   match its endpoints.
    pub fn simulate(
        &self,
        topo: &Topology,
        algo: &CollectiveAlgorithm,
    ) -> Result<SimReport, SimError> {
        if topo.num_npus() != algo.num_npus() {
            return Err(SimError::NpuCountMismatch {
                topology: topo.num_npus(),
                algorithm: algo.num_npus(),
            });
        }
        let chunk_size = algo.chunk_size();
        let transfers = algo.transfers();

        // Resolve each transfer into its hop sequence.
        let needs_routing = transfers.iter().any(|t| t.link().is_none());
        let table = needs_routing.then(|| RoutingTable::new(topo, chunk_size));
        let mut hops: Vec<Vec<LinkId>> = Vec::with_capacity(transfers.len());
        for (i, t) in transfers.iter().enumerate() {
            match t.link() {
                Some(link_id) => {
                    if link_id.index() >= topo.num_links() {
                        return Err(SimError::BadLink {
                            transfer: i,
                            reason: format!("link {link_id} does not exist"),
                        });
                    }
                    let link = topo.link(link_id);
                    if link.src() != t.src() || link.dst() != t.dst() {
                        return Err(SimError::BadLink {
                            transfer: i,
                            reason: format!(
                                "endpoints {} -> {} do not match link {} -> {}",
                                t.src(),
                                t.dst(),
                                link.src(),
                                link.dst()
                            ),
                        });
                    }
                    hops.push(vec![link_id]);
                }
                None => {
                    let table = table.as_ref().expect("built when needed");
                    let path =
                        route_path(topo, table, t.src(), t.dst()).ok_or(SimError::Unroutable {
                            src: t.src().index(),
                            dst: t.dst().index(),
                        })?;
                    debug_assert!(!path.is_empty());
                    hops.push(path);
                }
            }
        }

        // Dependency bookkeeping: each transfer's outstanding count, and
        // the reverse edges as one CSR — transfer `t` releases
        // `dependents[dependents_at[t]..dependents_at[t + 1]]`, ascending.
        let (mut deps_remaining, dependents_at, dependents) = {
            let deps = algo.dependencies();
            let remaining: Vec<u32> = deps.iter().map(|d| d.len() as u32).collect();
            let mut at = vec![0u32; transfers.len() + 1];
            for d in deps.iter().flatten() {
                at[d.index() + 1] += 1;
            }
            for i in 0..transfers.len() {
                at[i + 1] += at[i];
            }
            let mut fill = at.clone();
            let mut dependents = vec![0u32; deps.num_edges()];
            for (i, list) in deps.iter().enumerate() {
                for d in list {
                    dependents[fill[d.index()] as usize] = i as u32;
                    fill[d.index()] += 1;
                }
            }
            (remaining, at, dependents)
        };

        // Planned starts double as release times and as queue priorities:
        // a scheduled transfer is never served before (or out of order
        // with) its plan, which makes replaying a contention-free schedule
        // exact. Unscheduled transfers run eagerly, FCFS.
        let planned: Vec<Option<Time>> = transfers
            .iter()
            .map(|t| {
                if self.config.respect_planned_order {
                    t.start()
                } else {
                    None
                }
            })
            .collect();

        let mut clock = Time::ZERO;
        let mut completed_transfers = 0usize;

        struct EngineState {
            links: Vec<LinkState>,
            link_bytes: Vec<u64>,
            link_busy: Vec<Time>,
            intervals: Vec<BusyInterval>,
            events: BinaryHeap<Reverse<(Time, u64, Event)>>,
            seq: u64,
            messages: u64,
            record_intervals: bool,
        }

        impl EngineState {
            /// Serve the highest-priority queued message if the link is
            /// idle.
            fn try_start(
                &mut self,
                link_id: LinkId,
                now: Time,
                cost_of: impl Fn(Message, LinkId) -> (Time, u64),
            ) {
                let ls = &mut self.links[link_id.index()];
                if ls.busy_until <= now {
                    if let Some(Reverse((_, msg))) = ls.pending.pop() {
                        let (cost, bytes) = cost_of(msg, link_id);
                        let done = now + cost;
                        ls.busy_until = done;
                        self.link_busy[link_id.index()] += cost;
                        if self.record_intervals {
                            self.intervals.push(BusyInterval {
                                link: link_id,
                                start: now,
                                duration: cost,
                                bytes,
                            });
                        }
                        self.seq += 1;
                        self.events
                            .push(Reverse((done, self.seq, Event::Complete(msg, link_id))));
                        self.messages += 1;
                    }
                }
            }

            fn push_event(&mut self, time: Time, event: Event) {
                self.seq += 1;
                self.events.push(Reverse((time, self.seq, event)));
            }
        }

        let release_time = |msg: Message, ready: Time| -> Time {
            if msg.hop == 0 {
                planned[msg.transfer as usize].map_or(ready, |p| p.max(ready))
            } else {
                ready
            }
        };

        // Per-message transmission cost: α + β·(count · chunk_size); under
        // cut-through routing, hops after the first skip α.
        let cut_through = self.config.route_model == RouteModel::CutThrough;
        let cost_of = |msg: Message, link_id: LinkId| -> (Time, u64) {
            let link = topo.link(link_id);
            let payload = transfers[msg.transfer as usize].payload(chunk_size);
            let full = link.cost(payload);
            let cost = if cut_through && msg.hop > 0 {
                full - link.spec().alpha()
            } else {
                full
            };
            (cost, payload.as_u64())
        };

        let mut engine = EngineState {
            links: (0..topo.num_links())
                .map(|_| LinkState {
                    busy_until: Time::ZERO,
                    pending: BinaryHeap::new(),
                })
                .collect(),
            link_bytes: vec![0u64; topo.num_links()],
            link_busy: vec![Time::ZERO; topo.num_links()],
            intervals: Vec::new(),
            events: BinaryHeap::new(),
            seq: 0,
            messages: 0,
            record_intervals: self.config.record_intervals,
        };

        // Kick off every transfer whose dependencies are already satisfied.
        for (i, &remaining) in deps_remaining.iter().enumerate() {
            if remaining == 0 && !hops[i].is_empty() {
                let msg = Message {
                    transfer: i as u32,
                    hop: 0,
                };
                engine.push_event(release_time(msg, Time::ZERO), Event::Release(msg));
            }
        }

        while let Some(Reverse((time, _, event))) = engine.events.pop() {
            clock = clock.max(time);
            match event {
                Event::Release(msg) => {
                    let link_id = hops[msg.transfer as usize][msg.hop as usize];
                    engine.seq += 1;
                    let prio: Priority = (
                        planned[msg.transfer as usize].map_or(u64::MAX, Time::as_ps),
                        time.as_ps(),
                        engine.seq,
                    );
                    engine.links[link_id.index()]
                        .pending
                        .push(Reverse((prio, msg)));
                    let payload = transfers[msg.transfer as usize].payload(chunk_size);
                    engine.link_bytes[link_id.index()] += payload.as_u64();
                    engine.try_start(link_id, time, cost_of);
                }
                Event::Complete(msg, link_id) => {
                    let t_idx = msg.transfer as usize;
                    if (msg.hop as usize) + 1 < hops[t_idx].len() {
                        // Store-and-forward: next hop becomes ready now.
                        let next = Message {
                            transfer: msg.transfer,
                            hop: msg.hop + 1,
                        };
                        engine.push_event(time, Event::Release(next));
                    } else {
                        // Transfer complete; release dependents.
                        completed_transfers += 1;
                        let released =
                            dependents_at[t_idx] as usize..dependents_at[t_idx + 1] as usize;
                        for &d in &dependents[released] {
                            deps_remaining[d as usize] -= 1;
                            if deps_remaining[d as usize] == 0 {
                                let msg = Message {
                                    transfer: d,
                                    hop: 0,
                                };
                                engine.push_event(release_time(msg, time), Event::Release(msg));
                            }
                        }
                    }
                    // The link just freed up; serve the next queued message.
                    engine.try_start(link_id, time, cost_of);
                }
            }
        }

        debug_assert_eq!(
            completed_transfers,
            transfers.len(),
            "dependency deadlock: {} of {} transfers completed",
            completed_transfers,
            transfers.len()
        );

        Ok(SimReport::new(
            clock,
            engine.link_bytes,
            engine.link_busy,
            engine.intervals,
            engine.messages,
            algo.total_size(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacos_collective::algorithm::{AlgorithmBuilder, TransferKind};
    use tacos_collective::ChunkId;
    use tacos_topology::{Bandwidth, ByteSize, LinkSpec, NpuId, RingOrientation};

    fn spec() -> LinkSpec {
        LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0))
    }

    #[test]
    fn single_transfer_costs_alpha_beta() {
        let topo = Topology::ring(2, spec(), RingOrientation::Bidirectional).unwrap();
        let mut b = AlgorithmBuilder::new("one", 2, ByteSize::mb(1), ByteSize::mb(1));
        b.push(
            ChunkId::new(0),
            NpuId::new(0),
            NpuId::new(1),
            TransferKind::Copy,
            vec![],
        );
        let report = Simulator::new().simulate(&topo, &b.build()).unwrap();
        assert_eq!(report.collective_time(), Time::from_micros(20.5));
        assert_eq!(report.messages(), 1);
        assert_eq!(report.link_bytes().iter().sum::<u64>(), 1_000_000);
    }

    #[test]
    fn contention_serializes_fcfs() {
        // Two chunks want the same link at t=0: the second waits.
        let topo = Topology::ring(2, spec(), RingOrientation::Bidirectional).unwrap();
        let mut b = AlgorithmBuilder::new("two", 2, ByteSize::mb(1), ByteSize::mb(2));
        for c in 0..2u32 {
            b.push(
                ChunkId::new(c),
                NpuId::new(0),
                NpuId::new(1),
                TransferKind::Copy,
                vec![],
            );
        }
        let report = Simulator::new().simulate(&topo, &b.build()).unwrap();
        assert_eq!(report.collective_time(), Time::from_micros(41.0));
    }

    #[test]
    fn multi_hop_routing_cost_models() {
        // Unidirectional 4-ring: 0 -> 2 must take two hops.
        let topo = Topology::ring(4, spec(), RingOrientation::Unidirectional).unwrap();
        let mut b = AlgorithmBuilder::new("hop", 4, ByteSize::mb(1), ByteSize::mb(1));
        b.push(
            ChunkId::new(0),
            NpuId::new(0),
            NpuId::new(2),
            TransferKind::Copy,
            vec![],
        );
        let algo = b.build();
        // Cut-through (default): alpha once + 2x serialization.
        let report = Simulator::new().simulate(&topo, &algo).unwrap();
        assert_eq!(report.collective_time(), Time::from_micros(40.5));
        assert_eq!(report.messages(), 2);
        // Store-and-forward: full cost per hop.
        let snf = Simulator::with_config(
            SimConfig::default().with_route_model(RouteModel::StoreAndForward),
        )
        .simulate(&topo, &algo)
        .unwrap();
        assert_eq!(snf.collective_time(), Time::from_micros(41.0));
    }

    #[test]
    fn dependencies_sequence_transfers() {
        let topo = Topology::ring(4, spec(), RingOrientation::Bidirectional).unwrap();
        let mut b = AlgorithmBuilder::new("dep", 4, ByteSize::mb(1), ByteSize::mb(1));
        let first = b.push(
            ChunkId::new(0),
            NpuId::new(0),
            NpuId::new(1),
            TransferKind::Copy,
            vec![],
        );
        // Different link, but must wait for `first`.
        b.push(
            ChunkId::new(0),
            NpuId::new(1),
            NpuId::new(2),
            TransferKind::Copy,
            vec![first],
        );
        let report = Simulator::new().simulate(&topo, &b.build()).unwrap();
        assert_eq!(report.collective_time(), Time::from_micros(41.0));
    }

    #[test]
    fn unroutable_is_detected() {
        let mut tb = tacos_topology::TopologyBuilder::new("oneway");
        tb.npus(2);
        tb.link(NpuId::new(0), NpuId::new(1), spec());
        let topo = tb.build().unwrap();
        let mut b = AlgorithmBuilder::new("bad", 2, ByteSize::mb(1), ByteSize::mb(1));
        b.push(
            ChunkId::new(0),
            NpuId::new(1),
            NpuId::new(0),
            TransferKind::Copy,
            vec![],
        );
        assert!(matches!(
            Simulator::new().simulate(&topo, &b.build()),
            Err(SimError::Unroutable { src: 1, dst: 0 })
        ));
    }

    #[test]
    fn bad_link_is_detected() {
        let topo = Topology::ring(4, spec(), RingOrientation::Unidirectional).unwrap();
        let mut b = AlgorithmBuilder::new("bad", 4, ByteSize::mb(1), ByteSize::mb(1));
        // Link 1 is 1 -> 2, not 0 -> 1.
        b.push_scheduled(
            ChunkId::new(0),
            NpuId::new(0),
            NpuId::new(1),
            TransferKind::Copy,
            tacos_topology::LinkId::new(1),
            Time::ZERO,
            Time::from_micros(20.5),
            vec![],
        );
        assert!(matches!(
            Simulator::new().simulate(&topo, &b.build()),
            Err(SimError::BadLink { transfer: 0, .. })
        ));
    }

    #[test]
    fn mismatched_npus_rejected() {
        let topo = Topology::ring(4, spec(), RingOrientation::Unidirectional).unwrap();
        let b = AlgorithmBuilder::new("empty", 8, ByteSize::mb(1), ByteSize::mb(1));
        assert!(matches!(
            Simulator::new().simulate(&topo, &b.build()),
            Err(SimError::NpuCountMismatch {
                topology: 4,
                algorithm: 8
            })
        ));
    }

    #[test]
    fn empty_algorithm_is_instant() {
        let topo = Topology::ring(4, spec(), RingOrientation::Unidirectional).unwrap();
        let b = AlgorithmBuilder::new("empty", 4, ByteSize::mb(1), ByteSize::mb(1));
        let report = Simulator::new().simulate(&topo, &b.build()).unwrap();
        assert_eq!(report.collective_time(), Time::ZERO);
    }

    /// Invariant 5 of DESIGN.md: simulating a TACOS schedule reproduces the
    /// planned collective time exactly.
    #[test]
    fn tacos_schedule_replays_exactly() {
        use tacos_core::{Synthesizer, SynthesizerConfig};
        let topo = Topology::mesh_2d(3, 3, spec()).unwrap();
        for seed in [1u64, 7, 42] {
            let coll = tacos_collective::Collective::all_reduce(9, ByteSize::mb(9)).unwrap();
            let result = Synthesizer::new(SynthesizerConfig::default().with_seed(seed))
                .synthesize(&topo, &coll)
                .unwrap();
            let report = Simulator::new()
                .simulate(&topo, result.algorithm())
                .unwrap();
            assert_eq!(
                report.collective_time(),
                result.collective_time(),
                "seed {seed}"
            );
        }
    }
}
