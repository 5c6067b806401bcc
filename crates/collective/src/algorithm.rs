//! The collective-algorithm intermediate representation (IR).
//!
//! A [`CollectiveAlgorithm`] is the common output format of the TACOS
//! synthesizer and of every baseline generator, and the common input format
//! of the congestion-aware simulator. It is a DAG of [`Transfer`]s:
//!
//! * **Scheduled** transfers (TACOS output) carry a `start`/`duration` and a
//!   concrete physical [`LinkId`]; by construction they are contention-free
//!   ([`CollectiveAlgorithm::validate_contention_free`]).
//! * **Dependency-driven** transfers (baseline output) carry only
//!   dependencies; the simulator resolves link contention (FCFS) and routes
//!   multi-hop sends — that is how a topology-unaware algorithm exhibits the
//!   over/undersubscription of paper Figs. 1–2.
//!
//! # Dependencies
//!
//! An algorithm's dependency edges take one of two forms, and
//! [`CollectiveAlgorithm::dependencies`] reads both as the same
//! [`Dependencies`] view:
//!
//! * **Explicit lists**, stored as one CSR (an offsets array plus an ids
//!   array). Baselines and [`crate::export::from_compact`] produce this
//!   form.
//! * **The chunk-arrival rule**, for TACOS output. The paper's output is
//!   the static path of each chunk (Fig. 3), and a chunk leaves an NPU only
//!   after it has arrived there, so every edge is implied by the
//!   `(chunk, src, dst, kind)` sequence:
//!   - a **Copy** of chunk *c* out of NPU *s* depends on the Copy that
//!     delivered *c* to *s*, if there is one; otherwise on every Reduce of
//!     *c* into *s*, in ascending id order. That second case is the
//!     All-Reduce barrier; for a precondition holder the list is empty.
//!   - a **Reduce** of *c* out of *s* depends on every Reduce of *c* into
//!     *s*, in descending id order: the Copy rule run backwards in time
//!     (Fig. 11).
//!
//!   Nothing is stored per transfer. Consumers derive the lists once, in
//!   one O(T) pass over the transfers grouped by chunk.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

use tacos_topology::{ByteSize, LinkId, NpuId, Time, Topology};

use crate::chunk::ChunkId;

/// Identifies a transfer within one [`CollectiveAlgorithm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransferId(u32);

impl TransferId {
    /// Creates a transfer id from its dense index.
    pub const fn new(index: u32) -> Self {
        TransferId(index)
    }

    /// The dense index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TransferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Whether a transfer copies data or combines it into the destination's
/// accumulator (the red vs. blue arrows of paper Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferKind {
    /// Forwarding: the destination stores the chunk as-is.
    Copy,
    /// Reduction: the destination adds the incoming partial to its local
    /// partial of the same chunk.
    Reduce,
}

/// One message moving across one (logical) hop: `count` consecutive base
/// chunks starting at `chunk`.
///
/// TACOS always moves single chunks (`count == 1`); baseline algorithms
/// like RHD or BlueConnect aggregate many base chunks into one message per
/// step, which the simulator costs as `α + β·(count · chunk_size)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    chunk: ChunkId,
    count: u32,
    src: NpuId,
    dst: NpuId,
    kind: TransferKind,
    // Compact schedule encoding: `Option<Time>` costs 16 bytes per field
    // and `Option<LinkId>` 8, but mesh-scale syntheses record tens of
    // millions of transfers, so the unscheduled case is a sentinel
    // instead (`u32::MAX` link / `u64::MAX` picoseconds — over 200 days,
    // unreachable for a schedule). With dependencies kept out of the
    // record (module docs) this makes `Transfer` 40 bytes; the accessors
    // below still speak `Option`.
    link: u32,
    start_ps: u64,
    duration_ps: u64,
}

/// Sentinel for "no physical link chosen" in [`Transfer::link`].
const NO_LINK_RAW: u32 = u32::MAX;
/// Sentinel for "unscheduled" in [`Transfer::start`]/[`Transfer::duration`].
const NO_TIME_PS: u64 = u64::MAX;

impl Transfer {
    /// The first base chunk of the message.
    pub fn chunk(&self) -> ChunkId {
        self.chunk
    }

    /// Number of base chunks aggregated into this message.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Message payload given the algorithm's base chunk size.
    pub fn payload(&self, chunk_size: ByteSize) -> ByteSize {
        chunk_size * u64::from(self.count)
    }

    /// Sending NPU.
    pub fn src(&self) -> NpuId {
        self.src
    }

    /// Receiving NPU.
    pub fn dst(&self) -> NpuId {
        self.dst
    }

    /// Copy or reduce.
    pub fn kind(&self) -> TransferKind {
        self.kind
    }

    /// The physical link this transfer was scheduled on, if the generator
    /// chose one (TACOS always does; baselines leave routing to the
    /// simulator).
    pub fn link(&self) -> Option<LinkId> {
        (self.link != NO_LINK_RAW).then(|| LinkId::new(self.link))
    }

    /// Scheduled start time, if any.
    pub fn start(&self) -> Option<Time> {
        (self.start_ps != NO_TIME_PS).then(|| Time::from_ps(self.start_ps))
    }

    /// Scheduled duration, if any.
    pub fn duration(&self) -> Option<Time> {
        (self.duration_ps != NO_TIME_PS).then(|| Time::from_ps(self.duration_ps))
    }

    /// Scheduled completion time, if scheduled.
    pub fn end(&self) -> Option<Time> {
        match (self.start(), self.duration()) {
            (Some(s), Some(d)) => Some(s + d),
            _ => None,
        }
    }
}

/// Every transfer's dependency list, in one CSR: transfer `i` depends on
/// `ids[offsets[i]..offsets[i + 1]]`.
///
/// Borrowed from an algorithm that stores explicit lists; derived, once
/// per [`CollectiveAlgorithm::dependencies`] call, for one that follows
/// the chunk-arrival rule (module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Dependencies<'a> {
    offsets: Cow<'a, [u32]>,
    ids: Cow<'a, [TransferId]>,
}

impl Dependencies<'_> {
    /// Transfers that must complete before `id` may begin.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn of(&self, id: TransferId) -> &[TransferId] {
        let i = id.index();
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Every transfer's list, in transfer id order.
    pub fn iter(&self) -> impl Iterator<Item = &[TransferId]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.ids[w[0] as usize..w[1] as usize])
    }

    /// Total number of dependency edges.
    pub fn num_edges(&self) -> usize {
        self.ids.len()
    }
}

/// How a [`CollectiveAlgorithm`] holds its dependency edges (module docs).
#[derive(Debug, Clone)]
enum DepForm {
    /// Stored lists: transfer `i` depends on `ids[offsets[i]..offsets[i + 1]]`.
    Explicit {
        offsets: Vec<u32>,
        ids: Vec<TransferId>,
    },
    /// Derived from the chunk-arrival rule.
    ChunkArrivals,
}

impl DepForm {
    fn explicit() -> Self {
        DepForm::Explicit {
            offsets: vec![0],
            ids: Vec::new(),
        }
    }
}

/// Sentinel ending an intrusive list in [`ChunkArrivals::for_each`].
const NO_POS: u32 = u32::MAX;

/// Marks a Reduce in [`Arrival::dst_kind`]; NPU ids stay below it.
const REDUCE_BIT: u32 = 1 << 31;

/// What the chunk-arrival rule reads of one transfer, packed so that a
/// chunk's group is one sequential run instead of a gather from the
/// transfer list.
#[derive(Debug, Clone, Copy, Default)]
struct Arrival {
    id: u32,
    src: u32,
    /// Destination NPU, with [`REDUCE_BIT`] set for a Reduce.
    dst_kind: u32,
}

/// Transfers grouped by chunk, the index the chunk-arrival rule is
/// evaluated over: chunk `c`'s transfers, ascending by id, are
/// `arrivals[starts[c]..starts[c + 1]]`. Memory is proportional to the
/// transfer count plus the chunk count, never their product.
struct ChunkArrivals {
    num_npus: usize,
    starts: Vec<u32>,
    arrivals: Vec<Arrival>,
}

impl ChunkArrivals {
    /// Groups `transfers` by chunk with one counting sort.
    fn new(transfers: &[Transfer], num_npus: usize) -> Self {
        assert!(num_npus <= REDUCE_BIT as usize, "NPU ids must fit 31 bits");
        let num_chunks = transfers
            .iter()
            .map(|t| t.chunk.index() + 1)
            .max()
            .unwrap_or(0);
        let mut starts = vec![0u32; num_chunks + 1];
        for t in transfers {
            starts[t.chunk.index() + 1] += 1;
        }
        for c in 0..num_chunks {
            starts[c + 1] += starts[c];
        }
        let mut cursor = starts.clone();
        let mut arrivals = vec![Arrival::default(); transfers.len()];
        for (i, t) in transfers.iter().enumerate() {
            let slot = &mut cursor[t.chunk.index()];
            let kind = match t.kind {
                TransferKind::Copy => 0,
                TransferKind::Reduce => REDUCE_BIT,
            };
            arrivals[*slot as usize] = Arrival {
                id: i as u32,
                src: t.src.raw(),
                dst_kind: t.dst.raw() | kind,
            };
            *slot += 1;
        }
        ChunkArrivals {
            num_npus,
            starts,
            arrivals,
        }
    }

    /// Calls `visit(id, deps)` once per transfer, chunk by chunk, with the
    /// list the rule gives it. Returns the first pair of Copies that
    /// deliver the same chunk to the same NPU, if any: the rule then makes
    /// a Copy out of that NPU wait for both rather than pick one, and
    /// [`CollectiveAlgorithm::validate_causal`] reports the pair.
    fn for_each(
        &self,
        mut visit: impl FnMut(TransferId, &[TransferId]),
    ) -> Option<(TransferId, TransferId)> {
        // Per chunk, the Copies and the Reduces into each NPU as intrusive
        // lists threaded through `next`, newest (largest id) first; list
        // entries are positions in the chunk's group.
        let mut copies_into = vec![NO_POS; self.num_npus];
        let mut reduces_into = vec![NO_POS; self.num_npus];
        let mut next: Vec<u32> = Vec::new();
        let mut deps: Vec<TransferId> = Vec::new();
        let mut duplicate = None;
        for range in self.starts.windows(2) {
            let group = &self.arrivals[range[0] as usize..range[1] as usize];
            next.clear();
            for (pos, a) in group.iter().enumerate() {
                let dst = (a.dst_kind & !REDUCE_BIT) as usize;
                let head = if a.dst_kind & REDUCE_BIT == 0 {
                    if copies_into[dst] != NO_POS && duplicate.is_none() {
                        let first = group[copies_into[dst] as usize].id;
                        duplicate = Some((TransferId::new(first), TransferId::new(a.id)));
                    }
                    &mut copies_into[dst]
                } else {
                    &mut reduces_into[dst]
                };
                next.push(*head);
                *head = pos as u32;
            }
            for a in group {
                let src = a.src as usize;
                let (mut pos, ascending) = if a.dst_kind & REDUCE_BIT != 0 {
                    (reduces_into[src], false)
                } else if copies_into[src] != NO_POS {
                    (copies_into[src], true)
                } else {
                    (reduces_into[src], true)
                };
                deps.clear();
                while pos != NO_POS {
                    deps.push(TransferId::new(group[pos as usize].id));
                    pos = next[pos as usize];
                }
                if ascending {
                    deps.reverse();
                }
                visit(TransferId::new(a.id), &deps);
            }
            for a in group {
                let dst = (a.dst_kind & !REDUCE_BIT) as usize;
                copies_into[dst] = NO_POS;
                reduces_into[dst] = NO_POS;
            }
        }
        duplicate
    }

    /// The rule's lists as one CSR.
    fn csr(&self) -> (Vec<u32>, Vec<TransferId>) {
        let len = self.arrivals.len();
        let mut offsets = vec![0u32; len + 1];
        self.for_each(|id, deps| offsets[id.index() + 1] = deps.len() as u32);
        for i in 0..len {
            offsets[i + 1] += offsets[i];
        }
        let mut ids = vec![TransferId::new(0); offsets[len] as usize];
        self.for_each(|id, deps| {
            let at = offsets[id.index()] as usize;
            ids[at..at + deps.len()].copy_from_slice(deps);
        });
        (offsets, ids)
    }
}

/// A synthesized or hand-written collective algorithm: the static path of
/// each chunk (paper Fig. 3 output).
#[derive(Debug, Clone)]
pub struct CollectiveAlgorithm {
    name: String,
    num_npus: usize,
    chunk_size: ByteSize,
    total_size: ByteSize,
    transfers: Vec<Transfer>,
    deps: DepForm,
    planned_time: Option<Time>,
}

impl CollectiveAlgorithm {
    /// Algorithm name (e.g. `"tacos"`, `"ring"`, `"direct"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of participating NPUs.
    pub fn num_npus(&self) -> usize {
        self.num_npus
    }

    /// Size of each chunk moved by the transfers.
    pub fn chunk_size(&self) -> ByteSize {
        self.chunk_size
    }

    /// The collective's full per-NPU payload size.
    pub fn total_size(&self) -> ByteSize {
        self.total_size
    }

    /// All transfers, indexed by [`TransferId`].
    pub fn transfers(&self) -> &[Transfer] {
        &self.transfers
    }

    /// The transfer with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn transfer(&self, id: TransferId) -> &Transfer {
        &self.transfers[id.index()]
    }

    /// Every transfer's dependency list. Explicit lists are borrowed; the
    /// chunk-arrival rule is evaluated here, in one O(T) pass, so callers
    /// take the view once and index it.
    pub fn dependencies(&self) -> Dependencies<'_> {
        match &self.deps {
            DepForm::Explicit { offsets, ids } => Dependencies {
                offsets: Cow::Borrowed(offsets),
                ids: Cow::Borrowed(ids),
            },
            DepForm::ChunkArrivals => {
                let (offsets, ids) = ChunkArrivals::new(&self.transfers, self.num_npus).csr();
                Dependencies {
                    offsets: Cow::Owned(offsets),
                    ids: Cow::Owned(ids),
                }
            }
        }
    }

    /// Number of transfers.
    pub fn len(&self) -> usize {
        self.transfers.len()
    }

    /// `true` if the algorithm contains no transfers.
    pub fn is_empty(&self) -> bool {
        self.transfers.is_empty()
    }

    /// Bytes the name, the transfer records and any stored dependency
    /// lists occupy; derived dependencies cost nothing.
    pub fn heap_bytes(&self) -> usize {
        let deps = match &self.deps {
            DepForm::Explicit { offsets, ids } => {
                offsets.len() * std::mem::size_of::<u32>()
                    + ids.len() * std::mem::size_of::<TransferId>()
            }
            DepForm::ChunkArrivals => 0,
        };
        self.name.len() + self.transfers.len() * std::mem::size_of::<Transfer>() + deps
    }

    /// Collective completion time the generator planned for, if any.
    /// TACOS schedules always carry one; the simulator independently
    /// confirms it.
    pub fn planned_time(&self) -> Option<Time> {
        self.planned_time
    }

    /// Planned completion time, falling back to the latest scheduled
    /// transfer end.
    pub fn collective_time(&self) -> Time {
        self.planned_time
            .or_else(|| self.transfers.iter().filter_map(Transfer::end).max())
            .unwrap_or(Time::ZERO)
    }

    /// `true` if every transfer carries a schedule (start, duration, link).
    pub fn is_fully_scheduled(&self) -> bool {
        self.transfers
            .iter()
            .all(|t| t.start().is_some() && t.duration().is_some() && t.link().is_some())
    }

    /// Groups scheduled transfers per physical link, ordered by start time.
    ///
    /// Unscheduled transfers are ignored.
    pub fn per_link_schedule(&self) -> HashMap<LinkId, Vec<TransferId>> {
        let mut map: HashMap<LinkId, Vec<TransferId>> = HashMap::new();
        for (i, t) in self.transfers.iter().enumerate() {
            if let (Some(link), Some(_)) = (t.link(), t.start()) {
                map.entry(link).or_default().push(TransferId::new(i as u32));
            }
        }
        for ids in map.values_mut() {
            ids.sort_by_key(|id| self.transfers[id.index()].start());
        }
        map
    }

    /// Checks that no two scheduled transfers overlap in time on the same
    /// physical link — the paper's congestion-freedom invariant (§IV-D:
    /// "only one chunk can be matched over a link").
    ///
    /// # Errors
    /// Returns a human-readable description of the first violation.
    pub fn validate_contention_free(&self) -> Result<(), String> {
        for (link, ids) in self.per_link_schedule() {
            let mut prev_end = Time::ZERO;
            let mut prev_id = None;
            for id in ids {
                let t = &self.transfers[id.index()];
                let start = t.start().expect("scheduled by construction");
                if start < prev_end {
                    return Err(format!(
                        "link {link}: transfer {id} starts at {start} before {} ends at {prev_end}",
                        prev_id
                            .map(|p: TransferId| p.to_string())
                            .unwrap_or_default(),
                    ));
                }
                prev_end = t.end().expect("scheduled by construction");
                prev_id = Some(id);
            }
        }
        Ok(())
    }

    /// Checks dependency causality: every dependency is an earlier
    /// transfer, and every scheduled transfer starts at or after all of
    /// its dependencies end. Under the chunk-arrival rule it also rejects
    /// two Copies of one chunk into one NPU.
    ///
    /// # Errors
    /// Returns a human-readable description of the first violation.
    pub fn validate_causal(&self) -> Result<(), String> {
        let check = |id: TransferId, deps: &[TransferId]| -> Result<(), String> {
            let start = self.transfers[id.index()].start();
            for &dep in deps {
                if dep >= id {
                    return Err(format!("{id} depends on {dep}, which is not earlier"));
                }
                let Some(start) = start else { continue };
                let dep_end = self.transfers[dep.index()]
                    .end()
                    .ok_or_else(|| format!("{id} depends on unscheduled {dep}"))?;
                if dep_end > start {
                    return Err(format!(
                        "{id} starts at {start} before its dependency {dep} ends at {dep_end}"
                    ));
                }
            }
            Ok(())
        };
        match &self.deps {
            DepForm::Explicit { .. } => {
                let deps = self.dependencies();
                for (i, list) in deps.iter().enumerate() {
                    check(TransferId::new(i as u32), list)?;
                }
                Ok(())
            }
            DepForm::ChunkArrivals => {
                let mut result = Ok(());
                let duplicate =
                    ChunkArrivals::new(&self.transfers, self.num_npus).for_each(|id, deps| {
                        if result.is_ok() {
                            result = check(id, deps);
                        }
                    });
                if let Some((a, b)) = duplicate {
                    let t = &self.transfers[b.index()];
                    return Err(format!(
                        "{a} and {b} both copy chunk {} into NPU {}",
                        t.chunk.raw(),
                        t.dst
                    ));
                }
                result
            }
        }
    }

    /// The hop sequence of `chunk` as `(src, dst)` pairs in schedule order
    /// (falling back to insertion order for unscheduled algorithms).
    pub fn chunk_path(&self, chunk: ChunkId) -> Vec<(NpuId, NpuId)> {
        let mut hops: Vec<&Transfer> = self.transfers.iter().filter(|t| t.chunk == chunk).collect();
        hops.sort_by_key(|t| t.start().unwrap_or(Time::ZERO));
        hops.iter().map(|t| (t.src, t.dst)).collect()
    }

    /// Produces the **time-reversed** algorithm used for combining
    /// collectives (paper Fig. 11): the transfer order reverses, every
    /// transfer's direction flips, its kind becomes
    /// [`TransferKind::Reduce`], and its window `[s, e]` maps to
    /// `[T - e, T - s]`.
    ///
    /// The result follows the chunk-arrival rule: a Reduce out of an NPU
    /// waits for every Reduce into it. For a Copy schedule whose own
    /// dependencies are its chunk arrivals, as every TACOS schedule's are,
    /// that is exactly the inverted edge set.
    ///
    /// The caller provides the matching reversed topology implicitly: link
    /// ids are preserved because [`Topology::reversed`] keeps link order.
    ///
    /// # Panics
    /// Panics if any transfer is unscheduled (reversal is only meaningful
    /// for synthesized, scheduled algorithms).
    pub fn time_reversed(&self, name: impl Into<String>) -> CollectiveAlgorithm {
        let total = self.collective_time();
        let transfers = self
            .transfers
            .iter()
            .rev()
            .map(|t| {
                let start = t.start().expect("time reversal requires a schedule");
                let end = t.end().expect("time reversal requires a schedule");
                Transfer {
                    src: t.dst,
                    dst: t.src,
                    kind: TransferKind::Reduce,
                    start_ps: (total - end).as_ps(),
                    duration_ps: (end - start).as_ps(),
                    ..*t
                }
            })
            .collect();
        CollectiveAlgorithm {
            name: name.into(),
            num_npus: self.num_npus,
            chunk_size: self.chunk_size,
            total_size: self.total_size,
            transfers,
            deps: DepForm::ChunkArrivals,
            planned_time: Some(total),
        }
    }

    /// Appends `next` after this algorithm: its transfers take the ids
    /// after this algorithm's and start once this one completes. Both
    /// must follow the chunk-arrival rule, which then gates each chunk's
    /// first Copy out of an NPU on every Reduce of that chunk into it —
    /// the barrier between the phases of a TACOS All-Reduce (§IV-E).
    ///
    /// # Panics
    /// Panics if either algorithm stores explicit dependencies, the NPU
    /// counts differ, or a transfer of `next` is unscheduled.
    pub fn followed_by(mut self, next: &CollectiveAlgorithm) -> CollectiveAlgorithm {
        assert!(
            matches!(
                (&self.deps, &next.deps),
                (DepForm::ChunkArrivals, DepForm::ChunkArrivals)
            ),
            "only chunk-arrival algorithms concatenate"
        );
        assert_eq!(self.num_npus, next.num_npus, "NPU counts differ");
        let shift = self.collective_time();
        self.transfers
            .extend(next.transfers.iter().map(|t| Transfer {
                start_ps: (t.start().expect("concatenation requires a schedule") + shift).as_ps(),
                ..*t
            }));
        self.planned_time = Some(shift + next.collective_time());
        self
    }

    /// Achieved collective bandwidth for a completion time: `total_size /
    /// time` (the paper's "All-Reduce bandwidth" metric, §III-A).
    pub fn bandwidth_for(total_size: ByteSize, time: Time) -> f64 {
        if time.is_zero() {
            f64::INFINITY
        } else {
            total_size.as_u64() as f64 / time.as_secs_f64()
        }
    }
}

/// Equal when everything, including every dependency list, is equal,
/// whichever form each side stores its dependencies in.
impl PartialEq for CollectiveAlgorithm {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.num_npus == other.num_npus
            && self.chunk_size == other.chunk_size
            && self.total_size == other.total_size
            && self.planned_time == other.planned_time
            && self.transfers == other.transfers
            && match (&self.deps, &other.deps) {
                (DepForm::ChunkArrivals, DepForm::ChunkArrivals) => true,
                _ => self.dependencies() == other.dependencies(),
            }
    }
}

impl fmt::Display for CollectiveAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} NPUs, {} transfers, {})",
            self.name,
            self.num_npus,
            self.transfers.len(),
            self.collective_time()
        )
    }
}

/// Incremental builder for [`CollectiveAlgorithm`] (C-BUILDER).
///
/// Dependencies may only reference transfers that were already pushed, which
/// makes the result acyclic by construction.
#[derive(Debug, Clone)]
pub struct AlgorithmBuilder {
    name: String,
    num_npus: usize,
    chunk_size: ByteSize,
    total_size: ByteSize,
    transfers: Vec<Transfer>,
    deps: DepForm,
    planned_time: Option<Time>,
}

impl AlgorithmBuilder {
    /// Starts building an algorithm for `num_npus` NPUs moving chunks of
    /// `chunk_size` out of a `total_size` payload, with explicit
    /// dependency lists.
    pub fn new(
        name: impl Into<String>,
        num_npus: usize,
        chunk_size: ByteSize,
        total_size: ByteSize,
    ) -> Self {
        AlgorithmBuilder {
            name: name.into(),
            num_npus,
            chunk_size,
            total_size,
            transfers: Vec::new(),
            deps: DepForm::explicit(),
            planned_time: None,
        }
    }

    /// Like [`AlgorithmBuilder::new`], but the algorithm's dependencies
    /// follow the chunk-arrival rule (module docs), so every push passes
    /// an empty list and nothing is stored per transfer.
    pub fn chunk_arrivals(
        name: impl Into<String>,
        num_npus: usize,
        chunk_size: ByteSize,
        total_size: ByteSize,
    ) -> Self {
        AlgorithmBuilder {
            deps: DepForm::ChunkArrivals,
            ..AlgorithmBuilder::new(name, num_npus, chunk_size, total_size)
        }
    }

    /// Pre-allocates room for `additional` more transfers. Generators
    /// that know the schedule size up front (or a lower bound, e.g. the
    /// number of unsatisfied postconditions) reserve once instead of
    /// growing the transfer list through repeated doubling.
    pub fn reserve_transfers(&mut self, additional: usize) {
        self.transfers.reserve(additional);
    }

    /// Number of transfers pushed so far.
    pub fn len(&self) -> usize {
        self.transfers.len()
    }

    /// `true` if nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.transfers.is_empty()
    }

    /// Pushes a dependency-driven transfer (no schedule; the simulator
    /// resolves contention and routing).
    ///
    /// # Panics
    /// Panics if an endpoint is out of range, `src == dst`, or a dependency
    /// references a not-yet-pushed transfer.
    pub fn push(
        &mut self,
        chunk: ChunkId,
        src: NpuId,
        dst: NpuId,
        kind: TransferKind,
        deps: impl AsRef<[TransferId]>,
    ) -> TransferId {
        self.push_transfer(chunk, 1, src, dst, kind, None, None, None, deps.as_ref())
    }

    /// Pushes a dependency-driven *aggregated* message of `count`
    /// consecutive base chunks (baseline algorithms with step-dependent
    /// message sizes, e.g. RHD).
    ///
    /// # Panics
    /// Same conditions as [`AlgorithmBuilder::push`], plus `count == 0`.
    pub fn push_counted(
        &mut self,
        chunk: ChunkId,
        count: u32,
        src: NpuId,
        dst: NpuId,
        kind: TransferKind,
        deps: impl AsRef<[TransferId]>,
    ) -> TransferId {
        assert!(count > 0, "message must carry at least one chunk");
        self.push_transfer(
            chunk,
            count,
            src,
            dst,
            kind,
            None,
            None,
            None,
            deps.as_ref(),
        )
    }

    /// Pushes a dependency-driven message pinned to a specific physical
    /// link (no schedule). Used by baselines that manually lay routes over
    /// parallel links (e.g. C-Cube on DGX-1's doubled NVLinks).
    ///
    /// # Panics
    /// Same conditions as [`AlgorithmBuilder::push`], plus `count == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn push_on_link(
        &mut self,
        chunk: ChunkId,
        count: u32,
        src: NpuId,
        dst: NpuId,
        kind: TransferKind,
        link: LinkId,
        deps: impl AsRef<[TransferId]>,
    ) -> TransferId {
        assert!(count > 0, "message must carry at least one chunk");
        self.push_transfer(
            chunk,
            count,
            src,
            dst,
            kind,
            Some(link),
            None,
            None,
            deps.as_ref(),
        )
    }

    /// Pushes a fully scheduled transfer (TACOS output).
    ///
    /// # Panics
    /// Same conditions as [`AlgorithmBuilder::push`].
    #[allow(clippy::too_many_arguments)]
    pub fn push_scheduled(
        &mut self,
        chunk: ChunkId,
        src: NpuId,
        dst: NpuId,
        kind: TransferKind,
        link: LinkId,
        start: Time,
        duration: Time,
        deps: impl AsRef<[TransferId]>,
    ) -> TransferId {
        self.push_transfer(
            chunk,
            1,
            src,
            dst,
            kind,
            Some(link),
            Some(start),
            Some(duration),
            deps.as_ref(),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn push_transfer(
        &mut self,
        chunk: ChunkId,
        count: u32,
        src: NpuId,
        dst: NpuId,
        kind: TransferKind,
        link: Option<LinkId>,
        start: Option<Time>,
        duration: Option<Time>,
        deps: &[TransferId],
    ) -> TransferId {
        assert!(src.index() < self.num_npus, "src {src} out of range");
        assert!(dst.index() < self.num_npus, "dst {dst} out of range");
        assert_ne!(src, dst, "transfer endpoints must differ");
        let id = TransferId::new(self.transfers.len() as u32);
        match &mut self.deps {
            DepForm::Explicit { offsets, ids } => {
                for dep in deps {
                    assert!(dep.index() < id.index(), "dependency {dep} not yet pushed");
                }
                ids.extend_from_slice(deps);
                offsets.push(u32::try_from(ids.len()).expect("dependency count fits u32"));
            }
            DepForm::ChunkArrivals => assert!(
                deps.is_empty(),
                "dependencies are derived from chunk arrivals"
            ),
        }
        debug_assert!(
            start.is_none_or(|t| t.as_ps() != NO_TIME_PS)
                && duration.is_none_or(|t| t.as_ps() != NO_TIME_PS)
                && link.is_none_or(|l| l.raw() != NO_LINK_RAW),
            "schedule value collides with the unscheduled sentinel"
        );
        self.transfers.push(Transfer {
            chunk,
            count,
            src,
            dst,
            kind,
            link: link.map_or(NO_LINK_RAW, LinkId::raw),
            start_ps: start.map_or(NO_TIME_PS, Time::as_ps),
            duration_ps: duration.map_or(NO_TIME_PS, Time::as_ps),
        });
        id
    }

    /// Records the completion time the generator planned for.
    pub fn planned_time(&mut self, time: Time) -> &mut Self {
        self.planned_time = Some(time);
        self
    }

    /// Finalizes the algorithm.
    pub fn build(self) -> CollectiveAlgorithm {
        CollectiveAlgorithm {
            name: self.name,
            num_npus: self.num_npus,
            chunk_size: self.chunk_size,
            total_size: self.total_size,
            transfers: self.transfers,
            deps: self.deps,
            planned_time: self.planned_time,
        }
    }
}

/// Validates that a scheduled algorithm only uses links that exist in
/// `topo` and whose endpoints match the transfer's.
///
/// # Errors
/// Returns a description of the first mismatch.
pub fn validate_links(algo: &CollectiveAlgorithm, topo: &Topology) -> Result<(), String> {
    for (i, t) in algo.transfers().iter().enumerate() {
        if let Some(link_id) = t.link() {
            if link_id.index() >= topo.num_links() {
                return Err(format!("T{i} uses nonexistent link {link_id}"));
            }
            let link = topo.link(link_id);
            if link.src() != t.src() || link.dst() != t.dst() {
                return Err(format!(
                    "T{i} ({} -> {}) scheduled on mismatching link {link_id} ({} -> {})",
                    t.src(),
                    t.dst(),
                    link.src(),
                    link.dst()
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheduled_pair() -> CollectiveAlgorithm {
        // Chunk 0: NPU0 -> NPU1 at [0, 10), then NPU1 -> NPU2 at [10, 20).
        let mut b = AlgorithmBuilder::new("test", 3, ByteSize::mb(1), ByteSize::mb(3));
        let first = b.push_scheduled(
            ChunkId::new(0),
            NpuId::new(0),
            NpuId::new(1),
            TransferKind::Copy,
            LinkId::new(0),
            Time::ZERO,
            Time::from_ps(10),
            vec![],
        );
        b.push_scheduled(
            ChunkId::new(0),
            NpuId::new(1),
            NpuId::new(2),
            TransferKind::Copy,
            LinkId::new(1),
            Time::from_ps(10),
            Time::from_ps(10),
            vec![first],
        );
        b.planned_time(Time::from_ps(20));
        b.build()
    }

    #[test]
    fn builder_and_accessors() {
        let a = scheduled_pair();
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert!(a.is_fully_scheduled());
        assert_eq!(a.collective_time(), Time::from_ps(20));
        assert_eq!(a.planned_time(), Some(Time::from_ps(20)));
        let t = a.transfer(TransferId::new(1));
        assert_eq!(t.src(), NpuId::new(1));
        assert_eq!(t.end(), Some(Time::from_ps(20)));
        assert_eq!(
            a.dependencies().of(TransferId::new(1)),
            &[TransferId::new(0)]
        );
        assert_eq!(
            a.chunk_path(ChunkId::new(0)),
            vec![
                (NpuId::new(0), NpuId::new(1)),
                (NpuId::new(1), NpuId::new(2))
            ]
        );
        assert!(format!("{a}").contains("2 transfers"));
    }

    #[test]
    fn contention_detection() {
        let a = scheduled_pair();
        assert!(a.validate_contention_free().is_ok());
        assert!(a.validate_causal().is_ok());

        // Two overlapping transfers on the same link.
        let mut b = AlgorithmBuilder::new("bad", 2, ByteSize::mb(1), ByteSize::mb(2));
        for chunk in 0..2u32 {
            b.push_scheduled(
                ChunkId::new(chunk),
                NpuId::new(0),
                NpuId::new(1),
                TransferKind::Copy,
                LinkId::new(0),
                Time::from_ps(0),
                Time::from_ps(10),
                vec![],
            );
        }
        let bad = b.build();
        assert!(bad.validate_contention_free().is_err());
    }

    #[test]
    fn causality_detection() {
        let mut b = AlgorithmBuilder::new("bad", 3, ByteSize::mb(1), ByteSize::mb(3));
        let first = b.push_scheduled(
            ChunkId::new(0),
            NpuId::new(0),
            NpuId::new(1),
            TransferKind::Copy,
            LinkId::new(0),
            Time::ZERO,
            Time::from_ps(10),
            vec![],
        );
        // Starts before its dependency finishes.
        b.push_scheduled(
            ChunkId::new(0),
            NpuId::new(1),
            NpuId::new(2),
            TransferKind::Copy,
            LinkId::new(1),
            Time::from_ps(5),
            Time::from_ps(10),
            vec![first],
        );
        assert!(b.build().validate_causal().is_err());
    }

    #[test]
    fn time_reversal_flips_everything() {
        let a = scheduled_pair();
        let r = a.time_reversed("reduce");
        assert_eq!(r.len(), 2);
        assert_eq!(r.collective_time(), Time::from_ps(20));
        // The last forward transfer becomes the first reversed transfer.
        let t0 = r.transfer(TransferId::new(0));
        assert_eq!(t0.src(), NpuId::new(2));
        assert_eq!(t0.dst(), NpuId::new(1));
        assert_eq!(t0.kind(), TransferKind::Reduce);
        assert_eq!(t0.start(), Some(Time::ZERO));
        let t1 = r.transfer(TransferId::new(1));
        assert_eq!(t1.src(), NpuId::new(1));
        assert_eq!(t1.dst(), NpuId::new(0));
        assert_eq!(t1.start(), Some(Time::from_ps(10)));
        // Dependency edge inverted: the second reversed transfer depends on
        // the first.
        assert_eq!(
            r.dependencies().of(TransferId::new(1)),
            &[TransferId::new(0)]
        );
        assert!(r.validate_causal().is_ok());
        assert!(r.validate_contention_free().is_ok());
    }

    /// Pushes a scheduled one-chunk transfer over `[start, start + 10)`
    /// on its own link.
    fn hop(
        b: &mut AlgorithmBuilder,
        chunk: u32,
        (src, dst): (u32, u32),
        kind: TransferKind,
        start: u64,
        deps: &[u32],
    ) {
        let deps: Vec<TransferId> = deps.iter().map(|&d| TransferId::new(d)).collect();
        let link = LinkId::new(b.len() as u32);
        b.push_scheduled(
            ChunkId::new(chunk),
            NpuId::new(src),
            NpuId::new(dst),
            kind,
            link,
            Time::from_ps(start),
            Time::from_ps(10),
            deps,
        );
    }

    /// A small All-Reduce-shaped schedule, as `(chunk, (src, dst), kind,
    /// start, the dependencies the chunk-arrival rule gives it)`.
    #[allow(clippy::type_complexity)]
    fn all_reduce_shape() -> Vec<(u32, (u32, u32), TransferKind, u64, &'static [u32])> {
        use TransferKind::{Copy, Reduce};
        vec![
            // Chunk 0 reduces into NPU 0 (NPUs 3 and 4 via 1) ...
            (0, (3, 1), Reduce, 0, &[]),
            (1, (3, 2), Copy, 0, &[]),
            (0, (4, 1), Reduce, 0, &[]),
            (0, (2, 0), Reduce, 0, &[]),
            // ... a Reduce waits for every Reduce into its source,
            // newest first ...
            (0, (1, 0), Reduce, 10, &[2, 0]),
            (1, (2, 0), Copy, 10, &[1]),
            // ... the owner's Copies wait for every Reduce into it, oldest
            // first (the All-Reduce barrier) ...
            (0, (0, 1), Copy, 20, &[3, 4]),
            (0, (0, 2), Copy, 20, &[3, 4]),
            // ... and a forwarded Copy waits for the Copy that delivered it.
            (0, (1, 3), Copy, 30, &[6]),
            (0, (1, 4), Copy, 30, &[6]),
        ]
    }

    #[test]
    fn chunk_arrival_rule_derives_the_explicit_edges() {
        let mut rule = AlgorithmBuilder::chunk_arrivals("r", 5, ByteSize::mb(1), ByteSize::mb(2));
        let mut explicit = AlgorithmBuilder::new("r", 5, ByteSize::mb(1), ByteSize::mb(2));
        for &(chunk, ends, kind, start, deps) in &all_reduce_shape() {
            hop(&mut rule, chunk, ends, kind, start, &[]);
            hop(&mut explicit, chunk, ends, kind, start, deps);
        }
        let (rule, explicit) = (rule.build(), explicit.build());
        let derived = rule.dependencies();
        for (i, &(.., deps)) in all_reduce_shape().iter().enumerate() {
            let want: Vec<TransferId> = deps.iter().map(|&d| TransferId::new(d)).collect();
            assert_eq!(derived.of(TransferId::new(i as u32)), &want[..], "T{i}");
        }
        assert_eq!(derived, explicit.dependencies());
        assert_eq!(derived.num_edges(), 9);
        assert_eq!(rule, explicit, "equality compares edges, not storage");
        assert!(rule.validate_causal().is_ok());
        assert!(rule.heap_bytes() < explicit.heap_bytes());
    }

    #[test]
    fn chunk_arrival_rule_rejects_ambiguous_and_forward_edges() {
        use TransferKind::Copy;
        // Two Copies of chunk 0 into NPU 1: a Copy out of NPU 1 waits for
        // both, and validation reports the pair.
        let mut b = AlgorithmBuilder::chunk_arrivals("dup", 3, ByteSize::mb(1), ByteSize::mb(1));
        hop(&mut b, 0, (0, 1), Copy, 0, &[]);
        hop(&mut b, 0, (2, 1), Copy, 0, &[]);
        hop(&mut b, 0, (1, 2), Copy, 10, &[]);
        let dup = b.build();
        let deps = dup.dependencies();
        assert_eq!(
            deps.of(TransferId::new(2)),
            &[TransferId::new(0), TransferId::new(1)]
        );
        let err = dup.validate_causal().unwrap_err();
        assert!(err.contains("T0 and T1 both copy chunk 0"), "{err}");

        // A chunk forwarded before the Copy that delivers it.
        let mut b = AlgorithmBuilder::chunk_arrivals("fwd", 3, ByteSize::mb(1), ByteSize::mb(1));
        hop(&mut b, 0, (1, 2), Copy, 10, &[]);
        hop(&mut b, 0, (0, 1), Copy, 0, &[]);
        let err = b.build().validate_causal().unwrap_err();
        assert!(err.contains("not earlier"), "{err}");
    }

    #[test]
    fn concatenation_shifts_starts_and_derives_the_barrier() {
        let mut rs = AlgorithmBuilder::chunk_arrivals("rs", 2, ByteSize::mb(1), ByteSize::mb(1));
        hop(&mut rs, 0, (1, 0), TransferKind::Reduce, 0, &[]);
        rs.planned_time(Time::from_ps(10));
        let mut ag = AlgorithmBuilder::chunk_arrivals("ag", 2, ByteSize::mb(1), ByteSize::mb(1));
        hop(&mut ag, 0, (0, 1), TransferKind::Copy, 0, &[]);
        ag.planned_time(Time::from_ps(10));
        let ar = rs.build().followed_by(&ag.build());
        assert_eq!(ar.name(), "rs");
        assert_eq!(ar.len(), 2);
        assert_eq!(ar.planned_time(), Some(Time::from_ps(20)));
        assert_eq!(
            ar.transfer(TransferId::new(1)).start(),
            Some(Time::from_ps(10))
        );
        assert_eq!(
            ar.dependencies().of(TransferId::new(1)),
            &[TransferId::new(0)]
        );
        assert!(ar.validate_causal().is_ok());
    }

    #[test]
    #[should_panic(expected = "derived from chunk arrivals")]
    fn chunk_arrival_builders_take_no_lists() {
        let mut b = AlgorithmBuilder::chunk_arrivals("bad", 3, ByteSize::mb(1), ByteSize::mb(1));
        hop(&mut b, 0, (0, 1), TransferKind::Copy, 0, &[]);
        hop(&mut b, 0, (1, 2), TransferKind::Copy, 10, &[0]);
    }

    #[test]
    #[should_panic(expected = "not yet pushed")]
    fn forward_dependency_rejected() {
        let mut b = AlgorithmBuilder::new("bad", 2, ByteSize::mb(1), ByteSize::mb(2));
        b.push(
            ChunkId::new(0),
            NpuId::new(0),
            NpuId::new(1),
            TransferKind::Copy,
            vec![TransferId::new(5)],
        );
    }

    #[test]
    #[should_panic(expected = "endpoints must differ")]
    fn self_transfer_rejected() {
        let mut b = AlgorithmBuilder::new("bad", 2, ByteSize::mb(1), ByteSize::mb(2));
        b.push(
            ChunkId::new(0),
            NpuId::new(1),
            NpuId::new(1),
            TransferKind::Copy,
            vec![],
        );
    }

    #[test]
    fn bandwidth_metric() {
        let bw = CollectiveAlgorithm::bandwidth_for(ByteSize::gb(1), Time::from_millis(20.0));
        assert!((bw - 50e9).abs() < 1.0);
        assert!(CollectiveAlgorithm::bandwidth_for(ByteSize::gb(1), Time::ZERO).is_infinite());
    }
}
