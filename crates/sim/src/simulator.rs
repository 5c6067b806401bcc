//! The congestion-aware analytical network simulator (paper §V-C).
//!
//! # Model
//!
//! Models exactly what the paper's ASTRA-sim backend models, at first
//! order: every link has a message queue and processes **one message at a
//! time** (`α + β·size` each); contending messages therefore serialize —
//! the mechanism behind the oversubscription heat maps of Figs. 1 and 15b.
//! Transfers between NPUs that share no physical link are routed over
//! static α–β-shortest paths, hop by hop, which is how topology-unaware
//! baselines like Direct-on-a-Ring pay for their assumptions.
//!
//! A link serves its queue first-come-first-served, unless the algorithm
//! carries a schedule: then messages are served in planned-start order and
//! none starts before its plan, so replaying a TACOS schedule reproduces
//! its planned times exactly. Ties go to the earlier arrival.
//!
//! # Engine
//!
//! A discrete-event loop over two events per hop: *release* (the message
//! joins its link's queue) and *complete* (the link finishes sending it,
//! which releases the next hop or, on the last hop, the transfer's
//! dependents). Three flat structures carry it:
//!
//! * the event list is a monotone radix queue (`queue.rs`) keyed by
//!   picosecond time. Events at one instant are handled in the order they
//!   were scheduled, exactly as a binary heap keyed `(time, sequence)`
//!   would handle them, at a fraction of the cost;
//! * the hop table resolves every transfer to a range of one shared link
//!   array: a scheduled transfer's range is its own link, and each routed
//!   `(src, dst)` pair is walked through the [`RoutingTable`] once, however
//!   many transfers take it;
//! * dependents are one CSR of reverse dependency edges, and planned starts
//!   are read from the transfers themselves.
//!
//! Each link's queue is a binary heap keyed `(planned start, ready time,
//! arrival sequence)`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tacos_collective::algorithm::{CollectiveAlgorithm, Transfer};
use tacos_topology::routing::{append_route, RoutingTable};
use tacos_topology::{ByteSize, LinkId, Time, Topology};

use crate::error::SimError;
use crate::queue::RadixQueue;
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

/// Link queue priority: planned start (or MAX), ready time, arrival
/// sequence.
type Priority = (u64, u64, u64);

/// A simulation event: a message becomes eligible at its hop's link, or
/// that link finishes transmitting it.
#[derive(Debug, Clone, Copy)]
enum Event {
    Release(Message),
    Complete(Message),
}

/// Every transfer's hop sequence: transfer `t` crosses
/// `links[spans[t].0 as usize..][..spans[t].1 as usize]`. `links` opens
/// with every topology link in id order, which is where a scheduled
/// transfer's one hop points; each distinct routed path follows once.
struct HopTable {
    spans: Vec<(u32, u32)>,
    links: Vec<LinkId>,
}

impl HopTable {
    /// Resolves every transfer, checking scheduled links against the
    /// topology and routing the rest over shortest paths.
    fn new(
        topo: &Topology,
        transfers: &[Transfer],
        chunk_size: ByteSize,
    ) -> Result<Self, SimError> {
        let n = topo.num_npus();
        let mut links: Vec<LinkId> = (0..topo.num_links() as u32).map(LinkId::new).collect();
        let mut spans = Vec::with_capacity(transfers.len());
        let mut table = None;
        // Span of each routed path, by `dst * n + src`; length 0 = not yet
        // resolved (every path has a hop, since endpoints differ).
        let mut routed: Vec<(u32, u32)> = Vec::new();
        for (i, t) in transfers.iter().enumerate() {
            let span = match t.link() {
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
                    (link_id.raw(), 1)
                }
                None => {
                    let table = table.get_or_insert_with(|| {
                        routed = vec![(0, 0); n * n];
                        RoutingTable::new(topo, chunk_size)
                    });
                    let slot = &mut routed[t.dst().index() * n + t.src().index()];
                    if slot.1 == 0 {
                        let start = links.len();
                        if !append_route(topo, table, t.src(), t.dst(), &mut links) {
                            return Err(SimError::Unroutable {
                                src: t.src().index(),
                                dst: t.dst().index(),
                            });
                        }
                        *slot = (start as u32, (links.len() - start) as u32);
                    }
                    *slot
                }
            };
            spans.push(span);
        }
        Ok(HopTable { spans, links })
    }

    /// The link hop `hop` of `transfer` crosses.
    fn link(&self, msg: Message) -> LinkId {
        let (start, _) = self.spans[msg.transfer as usize];
        self.links[(start + msg.hop) as usize]
    }

    /// Number of hops of `transfer`.
    fn len(&self, transfer: u32) -> u32 {
        self.spans[transfer as usize].1
    }

    /// Total hops over all transfers: one served message each.
    fn total(&self) -> usize {
        self.spans.iter().map(|&(_, len)| len as usize).sum()
    }
}

/// Per-link queue and occupancy.
#[derive(Debug)]
struct LinkState {
    busy_until: Time,
    pending: BinaryHeap<Reverse<(Priority, Message)>>,
}

/// Everything the event loop mutates.
struct Engine<'a> {
    topo: &'a Topology,
    transfers: &'a [Transfer],
    chunk_size: ByteSize,
    hops: HopTable,
    respect_planned_order: bool,
    cut_through: bool,
    events: RadixQueue<Event>,
    links: Vec<LinkState>,
    /// Queue arrivals so far: the tie-break among equal priorities.
    arrivals: u64,
    link_bytes: Vec<u64>,
    link_busy: Vec<Time>,
    intervals: Option<Vec<BusyInterval>>,
    messages: u64,
}

impl Engine<'_> {
    /// Planned start of `transfer`, if it has one and plans are honored.
    fn planned(&self, transfer: u32) -> Option<Time> {
        if self.respect_planned_order {
            self.transfers[transfer as usize].start()
        } else {
            None
        }
    }

    /// Schedules `msg` to join its link's queue once it is ready at
    /// `ready`. Planned starts double as release times: a scheduled
    /// transfer is never served before its plan.
    fn release(&mut self, msg: Message, ready: Time) {
        let at = match self.planned(msg.transfer) {
            Some(plan) if msg.hop == 0 => plan.max(ready),
            _ => ready,
        };
        self.events.push(at.as_ps(), Event::Release(msg));
    }

    /// `msg` joins its link's queue at `now`.
    fn arrive(&mut self, msg: Message, now: Time) {
        let link_id = self.hops.link(msg);
        self.arrivals += 1;
        let prio: Priority = (
            self.planned(msg.transfer).map_or(u64::MAX, Time::as_ps),
            now.as_ps(),
            self.arrivals,
        );
        let payload = self.transfers[msg.transfer as usize].payload(self.chunk_size);
        self.link_bytes[link_id.index()] += payload.as_u64();
        self.links[link_id.index()]
            .pending
            .push(Reverse((prio, msg)));
        self.try_start(link_id, now);
    }

    /// Serves the highest-priority queued message if the link is idle.
    /// Its cost is `α + β·(count · chunk_size)`; under cut-through routing,
    /// hops after the first skip α.
    fn try_start(&mut self, link_id: LinkId, now: Time) {
        let ls = &mut self.links[link_id.index()];
        if ls.busy_until > now {
            return;
        }
        let Some(Reverse((_, msg))) = ls.pending.pop() else {
            return;
        };
        let link = self.topo.link(link_id);
        let payload = self.transfers[msg.transfer as usize].payload(self.chunk_size);
        let full = link.cost(payload);
        let cost = if self.cut_through && msg.hop > 0 {
            full - link.spec().alpha()
        } else {
            full
        };
        let done = now + cost;
        ls.busy_until = done;
        self.link_busy[link_id.index()] += cost;
        if let Some(intervals) = &mut self.intervals {
            intervals.push(BusyInterval {
                link: link_id,
                start: now,
                duration: cost,
                bytes: payload.as_u64(),
            });
        }
        self.events.push(done.as_ps(), Event::Complete(msg));
        self.messages += 1;
    }
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
        let transfers = algo.transfers();
        let hops = HopTable::new(topo, transfers, algo.chunk_size())?;

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

        let intervals = self
            .config
            .record_intervals
            .then(|| Vec::with_capacity(hops.total()));
        let mut engine = Engine {
            topo,
            transfers,
            chunk_size: algo.chunk_size(),
            hops,
            respect_planned_order: self.config.respect_planned_order,
            cut_through: self.config.route_model == RouteModel::CutThrough,
            events: RadixQueue::new(),
            links: (0..topo.num_links())
                .map(|_| LinkState {
                    busy_until: Time::ZERO,
                    pending: BinaryHeap::new(),
                })
                .collect(),
            arrivals: 0,
            link_bytes: vec![0u64; topo.num_links()],
            link_busy: vec![Time::ZERO; topo.num_links()],
            intervals,
            messages: 0,
        };

        // Kick off every transfer whose dependencies are already satisfied.
        for (i, &remaining) in deps_remaining.iter().enumerate() {
            if remaining == 0 {
                let msg = Message {
                    transfer: i as u32,
                    hop: 0,
                };
                engine.release(msg, Time::ZERO);
            }
        }

        let mut clock = Time::ZERO;
        let mut completed_transfers = 0usize;
        while let Some((time, event)) = engine.events.pop() {
            clock = Time::from_ps(time);
            match event {
                Event::Release(msg) => engine.arrive(msg, clock),
                Event::Complete(msg) => {
                    if msg.hop + 1 < engine.hops.len(msg.transfer) {
                        // The next hop becomes ready now.
                        let next = Message {
                            transfer: msg.transfer,
                            hop: msg.hop + 1,
                        };
                        engine.events.push(time, Event::Release(next));
                    } else {
                        // Transfer complete; release dependents.
                        completed_transfers += 1;
                        let t = msg.transfer as usize;
                        let released = dependents_at[t] as usize..dependents_at[t + 1] as usize;
                        for &d in &dependents[released] {
                            deps_remaining[d as usize] -= 1;
                            if deps_remaining[d as usize] == 0 {
                                let msg = Message {
                                    transfer: d,
                                    hop: 0,
                                };
                                engine.release(msg, clock);
                            }
                        }
                    }
                    // The link just freed up; serve the next queued message.
                    engine.try_start(engine.hops.link(msg), clock);
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
            engine.intervals.unwrap_or_default(),
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
