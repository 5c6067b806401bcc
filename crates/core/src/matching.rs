//! The Network Utilization Maximizing Matching algorithm (paper Alg. 1,
//! Fig. 8).
//!
//! Per time span, the paper iterates unsatisfied postconditions `(d, c)` in
//! random order, backtracks `d`'s incoming TEN links, and randomly picks a
//! source that already holds `c` (preferring lower-cost links on
//! heterogeneous networks, §IV-F). This module implements the
//! **link-centric equivalent**: iterate the free links in random
//! (cost-prioritized) order and pick a random chunk from
//! `holds(src) ∩ needs(dst)`. Both produce maximal matchings — within one
//! time span `holds` never grows and each processed link either matches or
//! can never match this span — but the link-centric form runs each probe as
//! a word-wise bitset AND, which is what keeps end-to-end synthesis on the
//! O(n²) trend of paper Fig. 19.
//!
//! # The event-driven, allocation-free hot path
//!
//! Matching semantics feed the persisted warm cache's fingerprint: any
//! behavioral change here (pick order, tie-breaking, cost priority) must
//! bump `MATCHER_VERSION` in `crate::cache` so stale snapshots are
//! rejected rather than silently served. `tacos lint` enforces that this
//! file at least mentions the constant.
//!
//! Three structural choices keep [`MatchState::run_round`] off the heap
//! *and* off the full link population:
//!
//! * **SoA chunk state** — `holds`, `needs`, and the relay `seen` sets
//!   live as rows of one [`ChunkMatrix`], so a probe ANDs two slices of
//!   the same flat buffer instead of chasing per-NPU `ChunkSet`
//!   allocations.
//! * **Event-driven wake index** — every link is in exactly one of three
//!   states: *awake* (in this round's worklist), *stale* (threaded onto
//!   its source NPU's intrusive stale list), or *occupied* (in flight).
//!   A round drains the awake list; each processed link either matches
//!   (occupied — its own arrival wakes it) or probes empty (stale). An
//!   arrival wakes its carrying link plus the destination NPU's entire
//!   stale list — exactly the links whose probe result could have
//!   changed. No per-round pass over the full link population exists.
//! * **Span-local staleness** — the wake index is sound because
//!   `holds(src)` only grows at arrival events and `needs(dst)` /
//!   `seen(dst)` only shrink/grow monotonically in ways that cannot
//!   create new candidates, so a link whose probe came back empty stays
//!   empty until a chunk *arrives at its source*
//!   ([`MatchState::apply_arrival`]).
//!
//! Skipping stale links must not perturb the random stream (otherwise
//! the wake index would change schedules): a round draws exactly **one**
//! RNG salt, orders its worklist by the salted per-link hash
//! (`probe_hash`, with link cost as the leading key on heterogeneous
//! prioritized fabrics), and derives each link's probe offset from the
//! same hash. Because sorting preserves subset order, the awake list
//! probes in the identical relative order the full free-link list would,
//! and an absent (stale) link consumes nothing from the stream.
//! [`MatchState::run_round_reference`] keeps the straightforward
//! scan-every-free-link form (probing through [`ChunkSet`], the pre-SoA
//! representation) as an oracle: for any seed it must produce
//! byte-identical schedules, and it additionally asserts the wake-set
//! invariant (awake == free ∧ non-stale) every round; the determinism
//! proptests drive both.

use rand::rngs::StdRng;
use rand::Rng;

use tacos_collective::algorithm::{AlgorithmBuilder, TransferKind};
use tacos_collective::{ChunkId, ChunkMatrix, Collective};
use tacos_ten::{Arrival, ExpandingTen};
use tacos_topology::{LinkId, NpuId, Topology};

/// Sentinel link index terminating an intrusive stale list.
const NO_LINK: u32 = u32::MAX;

/// Sentinel for "this NPU is nobody's relay target" in
/// [`RelayInfo::row_of`].
const ROW_NONE: u32 = u32::MAX;

/// Provisional mark used while counting distinct targets in
/// [`RelayInfo::new`], before rows are assigned.
const ROW_MARK: u32 = u32::MAX - 1;

/// Derives a link's probe hash from the round salt without consuming
/// per-probe RNG (SplitMix64-style mix). Pruned probes must not shift the
/// random stream, so probes cannot draw from the RNG directly. Kept as a
/// full `u64` — reducing through `usize` would make schedules differ
/// between 32- and 64-bit targets.
fn probe_hash(salt: u64, link: LinkId) -> u64 {
    let mut z = salt ^ (u64::from(link.raw())).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Platform-independent probe offset: reduces the 64-bit hash into the
/// row's bit domain `[0, bits)` with a multiply-shift (Lemire's fastrange)
/// instead of a hardware divide — this runs once per probed link per
/// round, and 64-bit division is the single most expensive scalar op on
/// the hot path. The u128 arithmetic is exact on 32- and 64-bit targets
/// alike, so schedules stay platform-independent.
fn probe_bit(hash: u64, bits: u64) -> u32 {
    ((u128::from(hash) * u128::from(bits)) >> 64) as u32
}

/// Relay routing support for collectives with **sparse postconditions**
/// (All-to-All, Gather, Scatter) — an extension beyond the paper, whose
/// matching only moves chunks toward NPUs that want them and therefore
/// cannot route through disinterested intermediates. Relay matching lets a
/// link carry a chunk to an intermediate whenever doing so strictly
/// decreases the hop distance to the chunk's (unique) final destination,
/// which guarantees progress and termination.
pub(crate) struct RelayInfo {
    /// `target[chunk]` = the final destination NPU.
    target: Vec<u32>,
    /// `row_of[npu]` = index of that NPU's row in `dist` when it is some
    /// chunk's final destination, [`ROW_NONE`] otherwise. Rows exist only
    /// for **distinct** targets: a Gather allocates one row, not `n`.
    row_of: Vec<u32>,
    /// Row-compact distance table in one contiguous buffer, one
    /// `num_npus`-wide row per distinct target (ascending target id):
    /// `dist[row * num_npus + v]` = directed hop distance from `v` to the
    /// row's target (`u16::MAX` if unreachable), computed by reverse BFS.
    dist: Vec<u16>,
    num_npus: usize,
    /// Fingerprint of the topology the distances were computed on, so a
    /// cached `RelayInfo` is only reused for the identical network
    /// (best-of-N attempts re-synthesize the same problem).
    topo_fingerprint: u64,
}

/// A cheap structural fingerprint of a topology's directed link list.
pub(crate) fn topo_fingerprint(topo: &Topology) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ topo.num_npus() as u64;
    for l in topo.links() {
        h ^= (u64::from(l.src().raw()) << 32) | u64::from(l.dst().raw());
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl RelayInfo {
    /// Builds relay metadata from per-chunk destinations. The distance
    /// table is sized by the number of **distinct** targets, not `n²`: a
    /// Gather fills one row; All-Gather-shaped patterns never get here at
    /// all (dense postconditions synthesize without relay metadata).
    pub(crate) fn new(topo: &Topology, target: Vec<u32>) -> Self {
        let n = topo.num_npus();
        let mut row_of = vec![ROW_NONE; n];
        let mut rows = 0usize;
        for &t in &target {
            if row_of[t as usize] == ROW_NONE {
                row_of[t as usize] = ROW_MARK;
                rows += 1;
            }
        }
        // Assign rows in ascending target order (deterministic layout,
        // shared by the scratch BFS cache key), then fill each row in
        // place by reverse BFS from its target.
        let mut dist = vec![u16::MAX; rows * n];
        let mut queue = std::collections::VecDeque::new();
        let mut row = 0usize;
        for t in 0..n {
            if row_of[t] != ROW_MARK {
                continue;
            }
            row_of[t] = row as u32;
            let d = &mut dist[row * n..(row + 1) * n];
            d[t] = 0;
            queue.clear();
            queue.push_back(t);
            while let Some(v) = queue.pop_front() {
                for &lid in topo.in_links(NpuId::new(v as u32)) {
                    let u = topo.link(lid).src().index();
                    if d[u] == u16::MAX {
                        d[u] = d[v] + 1;
                        queue.push_back(u);
                    }
                }
            }
            row += 1;
        }
        RelayInfo {
            target,
            row_of,
            dist,
            num_npus: n,
            topo_fingerprint: topo_fingerprint(topo),
        }
    }

    /// `true` if this relay metadata was built for exactly this topology
    /// and chunk-destination map (cache validity check).
    pub(crate) fn matches(&self, topo: &Topology, target: &[u32]) -> bool {
        self.topo_fingerprint == topo_fingerprint(topo) && self.target == target
    }

    fn moves_closer(&self, chunk: usize, src: NpuId, dst: NpuId) -> bool {
        let row = self.row_of[self.target[chunk] as usize] as usize;
        let d = &self.dist[row * self.num_npus..(row + 1) * self.num_npus];
        d[dst.index()] < d[src.index()]
    }
}

/// Mutable matching state: who holds what, who still needs what, and
/// which links may match in the next round.
///
/// All buffers live for the lifetime of the surrounding
/// [`crate::SynthesisScratch`] and are rebuilt in place by
/// [`MatchState::reset`], so repeated syntheses (best-of-N attempts,
/// scenario grid points) do not reallocate.
#[derive(Default)]
pub(crate) struct MatchState {
    num_npus: usize,
    /// SoA chunk state, one flat buffer: rows `0..n` are per-NPU `holds`
    /// (chunks physically arrived), rows `n..2n` are `needs`
    /// (postcondition chunks not yet arrived or in flight), rows `2n..3n`
    /// (relay mode only) are `seen` (arrived or in flight, for duplicate
    /// suppression).
    matrix: ChunkMatrix,
    unsatisfied: usize,
    /// Links probed since the last reset (one per worklist entry per
    /// round): the deterministic work counter behind
    /// `SynthesisResult::probes`.
    probes: u64,
    /// The event-driven worklist: links whose probe result could have
    /// changed since they last probed empty. A round drains this list;
    /// arrivals push re-freshened links back ([`MatchState::wake`]).
    awake: Vec<LinkId>,
    /// Membership flag per link, guaranteeing `awake` never holds
    /// duplicates (a zero-cost link's arrival fires in the same span it
    /// was occupied, and an arrival wakes both the carrying link and the
    /// destination's stale list, which may overlap).
    in_awake: Vec<bool>,
    /// Head of each NPU's intrusive stale list ([`NO_LINK`] when empty):
    /// the outgoing links of that NPU whose last probe came back empty.
    /// An arrival at the NPU drains the whole list back into `awake` —
    /// exactly the links the arrival could have re-enabled.
    stale_head: Vec<u32>,
    /// Intrusive list links: `stale_next[link]` = next stale link out of
    /// the same source NPU ([`NO_LINK`] terminates).
    stale_next: Vec<u32>,
    /// Reference-mode (oracle) bookkeeping only — maintained when
    /// `reference` is set, otherwise untouched after reset:
    /// links free at the TEN's current time (occupied links leave at the
    /// end-of-round sweep, arrivals re-add theirs).
    free: Vec<LinkId>,
    /// Worklist membership flag per link, guaranteeing `free` never holds
    /// duplicates. Membership cannot be inferred from `ten.is_free` alone:
    /// a zero-cost link is "free" again the instant it is occupied, which
    /// would let the end-of-round sweep keep it *and* its arrival re-add
    /// it.
    in_free: Vec<bool>,
    /// `false` once a link's probe came back empty: it cannot match again
    /// until an arrival at its source grows `holds(src)`. Redundant with
    /// stale-list membership in the optimized path; the reference round
    /// uses it to assert the wake-set invariant (`awake` == free ∧ fresh).
    fresh: Vec<bool>,
    /// `true` when the oracle free-list/fresh bookkeeping is maintained
    /// and [`MatchState::run_round_reference`] may run. Kept off on the
    /// hot path: without the end-of-round sweep the legacy `free` list
    /// would accumulate duplicates unboundedly.
    reference: bool,
    /// Scratch: this round's sorted worklist, each link paired with its
    /// probe start bit (derived from the same salted hash as the sort
    /// key, so the probe loop never re-hashes).
    order: Vec<(LinkId, u32)>,
    /// Scratch: packed sort keys for the round order. The salted hash is
    /// computed once per link and packed next to the tie-breaking raw id
    /// (plus the link cost on heterogeneous fabrics), so the sort never
    /// re-derives a key inside a comparison.
    order_keys: Vec<u128>,
    /// Relay routing for sparse-postcondition patterns.
    relay: Option<RelayInfo>,
}

impl MatchState {
    /// Rebuilds the state in place for one synthesis over
    /// `topo`/`collective`, reusing every allocation from prior runs.
    pub(crate) fn reset(
        &mut self,
        topo: &Topology,
        collective: &Collective,
        with_relay: bool,
        reference: bool,
    ) {
        let n = topo.num_npus();
        self.num_npus = n;
        self.relay = None;
        self.reference = reference;
        self.matrix.reset(
            if with_relay { 3 * n } else { 2 * n },
            collective.num_chunks(),
        );
        self.unsatisfied = 0;
        self.probes = 0;
        for npu in topo.npus() {
            let pre = collective.precondition(npu);
            let post = collective.postcondition(npu);
            self.matrix.load_row(npu.index(), &pre);
            self.matrix.load_row(n + npu.index(), &post);
            self.matrix.subtract_rows(n + npu.index(), npu.index());
            self.unsatisfied += self.matrix.row_len(n + npu.index());
        }
        let links = topo.num_links();
        // Every link starts awake with an empty stale list.
        self.awake.clear();
        self.awake.extend((0..links as u32).map(LinkId::new));
        self.in_awake.clear();
        self.in_awake.resize(links, true);
        self.stale_head.clear();
        self.stale_head.resize(n, NO_LINK);
        self.stale_next.clear();
        self.stale_next.resize(links, NO_LINK);
        self.free.clear();
        self.in_free.clear();
        self.fresh.clear();
        if reference {
            self.free.extend((0..links as u32).map(LinkId::new));
            self.in_free.resize(links, true);
            self.fresh.resize(links, true);
        }
        self.order.clear();
        self.order.reserve(links);
        self.order_keys.clear();
        self.order_keys.reserve(links);
    }

    /// Test constructor from explicit per-NPU pre/postconditions.
    #[cfg(test)]
    pub(crate) fn new(
        preconditions: Vec<tacos_collective::ChunkSet>,
        postconditions: Vec<tacos_collective::ChunkSet>,
        num_links: usize,
    ) -> Self {
        assert_eq!(preconditions.len(), postconditions.len());
        let num_chunks = preconditions
            .first()
            .map_or(0, tacos_collective::ChunkSet::capacity);
        let n = preconditions.len();
        let mut state = MatchState {
            num_npus: n,
            matrix: ChunkMatrix::new(2 * n, num_chunks),
            ..MatchState::default()
        };
        for (i, (pre, post)) in preconditions.iter().zip(&postconditions).enumerate() {
            state.matrix.load_row(i, pre);
            state.matrix.load_row(n + i, post);
            state.matrix.subtract_rows(n + i, i);
            state.unsatisfied += state.matrix.row_len(n + i);
        }
        state.awake.extend((0..num_links as u32).map(LinkId::new));
        state.in_awake.resize(num_links, true);
        state.stale_head.resize(n, NO_LINK);
        state.stale_next.resize(num_links, NO_LINK);
        // Unit tests exercise both the optimized and the oracle round.
        state.reference = true;
        state.free.extend((0..num_links as u32).map(LinkId::new));
        state.in_free.resize(num_links, true);
        state.fresh.resize(num_links, true);
        state
    }

    /// Enables relay routing (sparse-postcondition patterns): initializes
    /// per-NPU "seen" rows to the current holdings. The state must have
    /// been [`MatchState::reset`] with `with_relay = true`.
    pub(crate) fn enable_relay(&mut self, relay: RelayInfo) {
        assert_eq!(
            self.matrix.rows(),
            3 * self.num_npus,
            "reset without relay rows"
        );
        for v in 0..self.num_npus {
            self.matrix.copy_rows(2 * self.num_npus + v, v);
        }
        self.relay = Some(relay);
    }

    /// Hands the relay metadata back for caching across attempts.
    pub(crate) fn take_relay(&mut self) -> Option<RelayInfo> {
        self.relay.take()
    }

    /// Number of unsatisfied `(NPU, chunk)` postconditions (in-flight
    /// chunks already count as satisfied, as in paper Alg. 1 which marks
    /// the precondition at match time).
    pub(crate) fn unsatisfied(&self) -> usize {
        self.unsatisfied
    }

    /// The chunks that have arrived at `npu` so far.
    #[cfg(test)]
    pub(crate) fn held(&self, npu: NpuId) -> tacos_collective::ChunkSet {
        self.matrix.row_to_set(npu.index())
    }

    /// Links probed since the last reset.
    pub(crate) fn probes(&self) -> u64 {
        self.probes
    }

    /// Registers a chunk arrival: the destination now *holds* the chunk and
    /// may forward it in subsequent time spans, the carrying link is free
    /// again, and the destination's outgoing stale links may match anew.
    ///
    /// This is the event side of the wake index: the arrival wakes exactly
    /// the carrying link (free again) plus the destination NPU's stale
    /// list (`holds(dst)` grew, so their probes may be non-empty now).
    /// Every other link's probe result is provably unchanged.
    pub(crate) fn apply_arrival(&mut self, topo: &Topology, arrival: &Arrival) {
        self.matrix.insert(arrival.dst.index(), arrival.chunk);
        self.wake(arrival.link);
        self.drain_stale(arrival.dst);
        if self.reference {
            // Oracle bookkeeping: the scan-everything round re-derives
            // what the wake index tracks incrementally.
            if !self.in_free[arrival.link.index()] {
                self.in_free[arrival.link.index()] = true;
                self.free.push(arrival.link);
            }
            for &out in topo.out_links(arrival.dst) {
                self.fresh[out.index()] = true;
            }
        }
    }

    /// Puts `link` on the next round's worklist (idempotent).
    fn wake(&mut self, link: LinkId) {
        if !self.in_awake[link.index()] {
            self.in_awake[link.index()] = true;
            self.awake.push(link);
        }
    }

    /// Threads `link` onto its source NPU's stale list after an empty
    /// probe. The link stays off the worklist until an arrival at `src`
    /// drains the list.
    fn push_stale(&mut self, link: LinkId, src: NpuId) {
        self.stale_next[link.index()] = self.stale_head[src.index()];
        self.stale_head[src.index()] = link.raw();
    }

    /// Wakes every stale link out of `npu` (an arrival there grew
    /// `holds(npu)`, re-enabling exactly these probes).
    fn drain_stale(&mut self, npu: NpuId) {
        let mut head = self.stale_head[npu.index()];
        self.stale_head[npu.index()] = NO_LINK;
        while head != NO_LINK {
            let link = LinkId::new(head);
            head = self.stale_next[link.index()];
            self.stale_next[link.index()] = NO_LINK;
            self.wake(link);
        }
    }

    /// Draws the round's probe salt and sorts the round's worklist (the
    /// awake list, or the full free list in the oracle) into `self.order`.
    /// Shared by the optimized and reference rounds so both consume the
    /// identical RNG stream: exactly **one** draw per round, independent
    /// of worklist size.
    ///
    /// Ordering by the salted per-link hash gives the paper's random
    /// fairness across links; on heterogeneous fabrics with
    /// prioritization, cheaper links go first with ties broken by the
    /// same hash (§IV-F). The sort key is a total order (cost, salted
    /// hash, link id), so the allocation-free unstable sort is
    /// deterministic across sort-algorithm and toolchain changes — and,
    /// critically, sorting preserves subset order: the awake list probes
    /// in the identical relative order the full free list would, which is
    /// what makes the wake index schedule-invisible.
    fn begin_round(
        &mut self,
        ten: &ExpandingTen,
        rng: &mut StdRng,
        prefer_cheap: bool,
        from_free: bool,
    ) {
        let salt: u64 = rng.gen();
        let bits = (self.matrix.stride() * 64).max(1) as u64;
        let source = if from_free { &self.free } else { &self.awake };
        // Pack each link's sort key into one integer up front: the round
        // sorts thousands of links every span, and a by-key sort would
        // re-hash inside every comparison. Uniform fabrics order by
        // `(hash, raw)` — `hash` in the high 64 bits, the tie-breaking
        // raw id in the next 32, and the precomputed probe start bit
        // riding in the low 32 (a pure function of the hash, so it never
        // influences the order). Heterogeneous fabrics prepend the link
        // cost and keep the hash's high 32 bits: `(cost, hash>>32, raw)`.
        let mut keys = std::mem::take(&mut self.order_keys);
        keys.clear();
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        if prefer_cheap && !ten.uniform_cost() {
            keys.extend(source.iter().map(|&l| {
                ((ten.link_cost(l).as_ps() as u128) << 64)
                    | (((probe_hash(salt, l) >> 32) as u128) << 32)
                    | l.raw() as u128
            }));
            keys.sort_unstable();
            order.extend(keys.iter().map(|&k| {
                let link = LinkId::new(k as u32);
                (link, probe_bit(probe_hash(salt, link), bits))
            }));
        } else {
            keys.extend(source.iter().map(|&l| {
                let hash = probe_hash(salt, l);
                ((hash as u128) << 64) | ((l.raw() as u128) << 32) | probe_bit(hash, bits) as u128
            }));
            keys.sort_unstable();
            order.extend(
                keys.iter()
                    .map(|&k| (LinkId::new((k >> 32) as u32), k as u32)),
            );
        }
        self.probes += order.len() as u64;
        self.order = order;
        self.order_keys = keys;
    }

    /// Empties the awake list (links re-enter via [`MatchState::wake`]).
    /// Called once per round after `self.order` snapshots the list.
    fn clear_awake(&mut self) {
        for &l in &self.awake {
            self.in_awake[l.index()] = false;
        }
        self.awake.clear();
    }

    /// Records one link–chunk match: postcondition bookkeeping, TEN
    /// occupancy, and (when recording) the scheduled transfer. The
    /// transfer carries no dependency list: the algorithm derives its
    /// edges from chunk arrivals afterwards.
    #[allow(clippy::too_many_arguments)]
    fn commit_match(
        &mut self,
        link: LinkId,
        chunk: ChunkId,
        src: NpuId,
        dst: NpuId,
        ten: &mut ExpandingTen,
        builder: &mut Option<&mut AlgorithmBuilder>,
        transfers_out: &mut u64,
    ) {
        let n = self.num_npus;
        if self.reference {
            // The link leaves the oracle free list at the end-of-round
            // sweep; its arrival event re-adds it.
            self.in_free[link.index()] = false;
        }
        // Mark the postcondition satisfied and put the chunk in flight
        // (paper Fig. 8c).
        if self.matrix.remove(n + dst.index(), chunk) {
            self.unsatisfied -= 1;
        }
        if self.relay.is_some() {
            self.matrix.insert(2 * n + dst.index(), chunk);
        }
        let start = ten.now();
        let arrive = ten.occupy(link, chunk);
        *transfers_out += 1;
        if let Some(b) = builder.as_deref_mut() {
            b.push_scheduled(
                chunk,
                src,
                dst,
                TransferKind::Copy,
                link,
                start,
                arrive - start,
                [],
            );
        }
    }

    /// Runs one utilization-maximizing matching round at the TEN's current
    /// time (paper Alg. 1). Returns the number of link–chunk matches made.
    ///
    /// When `builder` is `Some`, each match is recorded as a scheduled
    /// transfer.
    ///
    /// This is the event-driven, zero-allocation form: the round iterates
    /// only the awake links (see the module docs), and with recording
    /// disabled it touches the heap only through pre-reserved buffers
    /// (asserted by the `zero_alloc` integration test).
    pub(crate) fn run_round(
        &mut self,
        topo: &Topology,
        ten: &mut ExpandingTen,
        rng: &mut StdRng,
        prefer_cheap_links: bool,
        mut builder: Option<&mut AlgorithmBuilder>,
        transfers_out: &mut u64,
    ) -> usize {
        self.begin_round(ten, rng, prefer_cheap_links, false);
        self.clear_awake();
        let n = self.num_npus;
        let mut matches = 0;
        let order = std::mem::take(&mut self.order);
        for (i, &(link, start_bit)) in order.iter().enumerate() {
            // The probe is latency-bound on cache misses into the chunk
            // matrix (rows are picked by a salted hash, so the access
            // pattern is deliberately random). Hint the next link's rows
            // while this one's probe is in flight.
            if let Some(&(next, next_bit)) = order.get(i + 1) {
                let l = topo.link(next);
                self.matrix
                    .prefetch_probe(l.src().index(), n + l.dst().index(), next_bit as usize);
            }
            let l = topo.link(link);
            let (src, dst) = (l.src(), l.dst());
            let start_bit = start_bit as usize;
            // Direct match first: a chunk the destination itself needs.
            let mut chunk = self
                .matrix
                .pick_intersection(src.index(), n + dst.index(), start_bit);
            if chunk.is_none() {
                // Relay match: a chunk that strictly approaches its final
                // destination through this link (extension, see RelayInfo).
                if let Some(relay) = &self.relay {
                    chunk = self.matrix.pick_excluding_where(
                        src.index(),
                        2 * n + dst.index(),
                        start_bit,
                        |c| relay.moves_closer(c.index(), src, dst),
                    );
                }
            }
            let Some(chunk) = chunk else {
                // Empty probe: stale until an arrival at `src`. The link
                // leaves the worklist entirely — no future round looks at
                // it — and `apply_arrival` wakes it back.
                if self.reference {
                    self.fresh[link.index()] = false;
                }
                self.push_stale(link, src);
                continue;
            };
            // Matched: the link is occupied; its own arrival wakes it.
            self.commit_match(link, chunk, src, dst, ten, &mut builder, transfers_out);
            matches += 1;
        }
        self.order = order;
        if self.reference {
            self.sweep_worklist();
        }
        matches
    }

    /// The straightforward reference round: probes **every** free link
    /// (no wake index) through per-row [`ChunkSet`] extractions — the
    /// pre-SoA scan kept as a determinism oracle. Must produce
    /// byte-identical matches to [`MatchState::run_round`] for any seed;
    /// the proptests assert this.
    ///
    /// Beyond the match sequence itself, the oracle asserts the two facts
    /// the event-driven round's correctness rests on, every round:
    ///
    /// 1. **Wake-set invariant** — the incremental awake list equals
    ///    `{free ∧ fresh}`, the set a full scan-and-skip pass would probe.
    /// 2. **Span-local staleness** — a link whose last probe came back
    ///    empty (and whose source saw no arrival since) never matches.
    pub(crate) fn run_round_reference(
        &mut self,
        topo: &Topology,
        ten: &mut ExpandingTen,
        rng: &mut StdRng,
        prefer_cheap_links: bool,
        mut builder: Option<&mut AlgorithmBuilder>,
        transfers_out: &mut u64,
    ) -> usize {
        assert!(
            self.reference,
            "reference round requires reset(.., reference = true)"
        );
        // Cross-check the incremental free list against ground truth (the
        // TEN's busy state) before using it: the oracle must not inherit
        // a hypothetical bookkeeping bug from the optimized path.
        {
            let mut expected: Vec<LinkId> = (0..topo.num_links() as u32)
                .map(LinkId::new)
                .filter(|&l| ten.is_free(l))
                .collect();
            let mut got = self.free.clone();
            expected.sort_unstable_by_key(|l| l.raw());
            got.sort_unstable_by_key(|l| l.raw());
            assert_eq!(got, expected, "worklist diverged from TEN free state");
        }
        // Wake-set invariant: the event-driven worklist is exactly the
        // links a scan-and-skip pass over the free list would probe.
        {
            let mut expected: Vec<LinkId> = self
                .free
                .iter()
                .copied()
                .filter(|&l| self.fresh[l.index()])
                .collect();
            let mut got = self.awake.clone();
            expected.sort_unstable_by_key(|l| l.raw());
            got.sort_unstable_by_key(|l| l.raw());
            assert_eq!(got, expected, "awake list diverged from free ∧ fresh");
        }
        self.begin_round(ten, rng, prefer_cheap_links, true);
        self.clear_awake();
        let n = self.num_npus;
        let mut matches = 0;
        let order = std::mem::take(&mut self.order);
        for &(link, start_bit) in &order {
            let l = topo.link(link);
            let (src, dst) = (l.src(), l.dst());
            let start_bit = start_bit as usize;
            let holds = self.matrix.row_to_set(src.index());
            let needs = self.matrix.row_to_set(n + dst.index());
            let mut chunk = holds.pick_intersection(&needs, start_bit);
            if chunk.is_none() {
                if let Some(relay) = &self.relay {
                    let seen = self.matrix.row_to_set(2 * n + dst.index());
                    chunk = holds.pick_excluding_where(&seen, start_bit, |c| {
                        relay.moves_closer(c.index(), src, dst)
                    });
                }
            }
            let Some(chunk) = chunk else {
                // Mirror the wake-index transition, but only on the
                // fresh→stale edge: an already-stale link is on its stale
                // list and must not be threaded twice.
                if self.fresh[link.index()] {
                    self.fresh[link.index()] = false;
                    self.push_stale(link, src);
                }
                continue;
            };
            assert!(
                self.fresh[link.index()],
                "stale link matched — span-local staleness invariant violated"
            );
            self.commit_match(link, chunk, src, dst, ten, &mut builder, transfers_out);
            matches += 1;
        }
        self.order = order;
        self.sweep_worklist();
        matches
    }

    /// End-of-round sweep: links occupied this round leave the worklist
    /// (their arrival events re-add them). Membership comes from the
    /// `in_free` flags, not `ten.is_free` — a zero-cost link reads as free
    /// the instant it is occupied, which would duplicate it.
    fn sweep_worklist(&mut self) {
        let in_free = &self.in_free;
        self.free.retain(|&l| in_free[l.index()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tacos_topology::{Bandwidth, ByteSize, LinkSpec, RingOrientation, Time};

    fn ring4() -> Topology {
        let spec = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
        Topology::ring(4, spec, RingOrientation::Unidirectional).unwrap()
    }

    fn all_gather_state(topo: &Topology) -> MatchState {
        let coll = Collective::all_gather(topo.num_npus(), ByteSize::mb(4)).unwrap();
        let pre = topo.npus().map(|n| coll.precondition(n)).collect();
        let post = topo.npus().map(|n| coll.postcondition(n)).collect();
        MatchState::new(pre, post, topo.num_links())
    }

    #[test]
    fn initial_unsatisfied_count() {
        let topo = ring4();
        let state = all_gather_state(&topo);
        // Each of 4 NPUs needs the 3 chunks it does not own.
        assert_eq!(state.unsatisfied(), 12);
    }

    #[test]
    fn first_round_saturates_the_ring() {
        let topo = ring4();
        let mut state = all_gather_state(&topo);
        let mut ten = ExpandingTen::new(&topo, ByteSize::mb(1));
        let mut rng = StdRng::seed_from_u64(1);
        let mut count = 0u64;
        let matches = state.run_round(&topo, &mut ten, &mut rng, true, None, &mut count);
        // Every NPU has exactly one outgoing link whose destination needs
        // its chunk: all 4 links match.
        assert_eq!(matches, 4);
        assert_eq!(count, 4);
        assert_eq!(state.unsatisfied(), 8);
        // Second round at the same time: all links busy, nothing matches.
        let matches = state.run_round(&topo, &mut ten, &mut rng, true, None, &mut count);
        assert_eq!(matches, 0);
    }

    #[test]
    fn arrivals_enable_forwarding() {
        let topo = ring4();
        let mut state = all_gather_state(&topo);
        let mut ten = ExpandingTen::new(&topo, ByteSize::mb(1));
        let mut rng = StdRng::seed_from_u64(1);
        let mut count = 0u64;
        state.run_round(&topo, &mut ten, &mut rng, true, None, &mut count);
        for arrival in ten.advance() {
            state.apply_arrival(&topo, &arrival);
        }
        // NPU1 now holds chunk 0 and can forward it to NPU2.
        assert!(state.held(NpuId::new(1)).contains(ChunkId::new(0)));
        let matches = state.run_round(&topo, &mut ten, &mut rng, true, None, &mut count);
        assert_eq!(matches, 4);
    }

    #[test]
    fn recorded_transfers_derive_their_dependencies() {
        let topo = ring4();
        let coll = Collective::all_gather(4, ByteSize::mb(4)).unwrap();
        let mut state = all_gather_state(&topo);
        let mut ten = ExpandingTen::new(&topo, ByteSize::mb(1));
        let mut rng = StdRng::seed_from_u64(1);
        let mut builder =
            AlgorithmBuilder::chunk_arrivals("t", 4, coll.chunk_size(), coll.total_size());
        let mut count = 0u64;
        loop {
            state.run_round(
                &topo,
                &mut ten,
                &mut rng,
                true,
                Some(&mut builder),
                &mut count,
            );
            if state.unsatisfied() == 0 && ten.pending() == 0 {
                break;
            }
            let events = ten.advance();
            assert!(!events.is_empty(), "stuck");
            for a in &events {
                state.apply_arrival(&topo, a);
            }
        }
        let algo = builder.build();
        // 4 NPUs x 3 missing chunks = 12 transfers.
        assert_eq!(algo.len(), 12);
        // Forwarded chunks depend on the transfer that delivered them.
        let deps = algo.dependencies();
        assert_eq!(deps.iter().filter(|d| !d.is_empty()).count(), 8); // rounds 2 and 3
        for (t, d) in algo.transfers().iter().zip(deps.iter()) {
            for dep in d {
                let delivered = algo.transfer(*dep);
                assert_eq!((delivered.chunk(), delivered.dst()), (t.chunk(), t.src()));
            }
        }
        assert!(algo.validate_causal().is_ok());
        assert!(algo.validate_contention_free().is_ok());
        // One probe per worklist entry: 4 links in round one, then the
        // links each arrival woke.
        assert!(state.probes() >= 12, "{} probes", state.probes());
    }

    /// Zero-cost links read as free (`busy_until == now`) the instant they
    /// are occupied; the worklist's explicit membership flags must still
    /// keep them unique so a round never occupies one link twice
    /// (regression: duplicate entries made `occupy` overwrite the
    /// in-flight chunk and a later `advance` panic).
    #[test]
    fn zero_cost_links_do_not_duplicate_in_the_worklist() {
        let spec = LinkSpec::new(Time::ZERO, Bandwidth::gbps(1e18));
        let topo = Topology::ring(4, spec, RingOrientation::Unidirectional).unwrap();
        assert_eq!(
            topo.link(LinkId::new(0)).cost(ByteSize::bytes(1)),
            Time::ZERO,
            "test premise: the link cost rounds to zero"
        );
        let mut state = all_gather_state(&topo);
        let mut ten = ExpandingTen::new(&topo, ByteSize::bytes(1));
        let mut rng = StdRng::seed_from_u64(5);
        let mut count = 0u64;
        while state.unsatisfied() > 0 || ten.pending() > 0 {
            state.run_round(&topo, &mut ten, &mut rng, true, None, &mut count);
            for arrival in ten.advance() {
                state.apply_arrival(&topo, &arrival);
            }
            assert!(
                state.awake.len() <= topo.num_links(),
                "awake list duplicated"
            );
            assert!(state.free.len() <= topo.num_links(), "worklist duplicated");
        }
        assert_eq!(count, 12);
    }

    /// The pruned round and the reference round must emit identical match
    /// sequences from identical states and seeds (the core parity claim;
    /// the proptests extend this to full syntheses on random topologies).
    #[test]
    fn pruned_and_reference_rounds_agree() {
        let topo = ring4();
        for seed in 0..16 {
            let mut a = all_gather_state(&topo);
            let mut b = all_gather_state(&topo);
            let mut ten_a = ExpandingTen::new(&topo, ByteSize::mb(1));
            let mut ten_b = ExpandingTen::new(&topo, ByteSize::mb(1));
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let (mut ca, mut cb) = (0u64, 0u64);
            loop {
                let ma = a.run_round(&topo, &mut ten_a, &mut rng_a, true, None, &mut ca);
                let mb = b.run_round_reference(&topo, &mut ten_b, &mut rng_b, true, None, &mut cb);
                assert_eq!(ma, mb, "seed {seed}");
                assert_eq!(a.unsatisfied(), b.unsatisfied(), "seed {seed}");
                if a.unsatisfied() == 0 && ten_a.pending() == 0 {
                    break;
                }
                let ev_a = ten_a.advance();
                let ev_b = ten_b.advance();
                assert_eq!(ev_a, ev_b, "seed {seed}");
                for arrival in &ev_a {
                    a.apply_arrival(&topo, arrival);
                }
                for arrival in &ev_b {
                    b.apply_arrival(&topo, arrival);
                }
            }
            assert_eq!(ca, cb);
        }
    }
}
