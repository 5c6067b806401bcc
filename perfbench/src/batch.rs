//! The two batch workloads: `mesh-allgather` and `hetero-allreduce`. Each is a fixed list of calls into the crates'
//! public functions, run back to back in this process on one reused
//! `SynthesisScratch`.

use std::path::PathBuf;
use std::time::Instant;

use tacos_baselines::{BaselineAlgorithm, BaselineKind};
use tacos_collective::algorithm::CollectiveAlgorithm;
use tacos_collective::{export, Collective};
use tacos_core::{
    AlgorithmCache, SynthesisResult, SynthesisScratch, Synthesizer, SynthesizerConfig,
};
use tacos_scenario::{parse_pattern, parse_size, parse_topology};
use tacos_sim::Simulator;
use tacos_topology::{Bandwidth, LinkSpec, Time, Topology};

use crate::stats::median;
use crate::trace::{self_time_ns, total_s, SpanId, Tracer};
use crate::{floats, Options, Outcome};

/// Fresh set-ups per run, the first `SETUP_REPS_BEFORE` of them before
/// the passes; `setup_s` is their median.
const SETUP_REPS: u32 = 5;
const SETUP_REPS_BEFORE: u32 = 2;
/// Timed passes an untraced run makes at least.
const MIN_PASSES: usize = 3;
/// Pass numbers of set-up spans start here; probe spans use `PROBE`.
const SETUP_PASS: u32 = 1_000;
const PROBE: u32 = 2_000;
/// Pass number of the untimed pass of [`Batch::final_checks`].
const FINAL: u32 = 3_000;
/// Synthesis seed of every TACOS call.
const SEED: u64 = 1;

/// One synthesis problem and the schedule it must produce.
#[derive(Debug)]
struct Problem {
    topology: &'static str,
    collective: &'static str,
    chunks: usize,
    /// Expected `(collective_time_ps, transfers)` at `SEED`.
    expect: (u64, u64),
}

/// `mesh-allgather`: BENCH_PR10's 16×16 points at 16 and 64 chunks.
const MESH_ALLGATHER: [Problem; 2] = [
    Problem {
        topology: "mesh:16x16",
        collective: "all-gather",
        chunks: 16,
        expect: (10_980_952_800, 1_044_480),
    },
    Problem {
        topology: "mesh:16x16",
        collective: "all-gather",
        chunks: 64,
        expect: (14_041_075_200, 4_177_920),
    },
];

/// `hetero-allreduce`: the paper's heterogeneous 128-NPU system. At 16
/// chunks a pass takes about 1.2 s on a 2-core x86 box; at 64 chunks it
/// takes about 6.5 s, too long for several passes per run.
const HETERO: Problem = Problem {
    topology: "rfs:4x4x8",
    collective: "all-reduce",
    chunks: 16,
    expect: (4_711_928_760, 520_192),
};

/// Best-of-N attempts of the `hetero-allreduce` TACOS call.
const HETERO_ATTEMPTS: usize = 2;

fn link() -> LinkSpec {
    LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0))
}

/// Builds a problem's topology and collective; the baselines of
/// `hetero-allreduce` use `chunks_override` of 1.
fn build(
    p: &Problem,
    chunks: usize,
    tr: &mut Tracer,
    parent: SpanId,
    pass: u32,
) -> Result<(Topology, Collective), String> {
    let topo = tr.time("topology.build", parent, pass, || {
        parse_topology(p.topology, link())
    })?;
    let coll = tr.time("collective.build", parent, pass, || {
        let n = topo.num_npus();
        let pattern = parse_pattern(p.collective, n)?;
        Collective::with_chunking(pattern, n, chunks, parse_size("1GB")?).map_err(|e| e.to_string())
    })?;
    Ok((topo, coll))
}

/// Validates one generated schedule and, for TACOS, its pinned figures.
fn check_algorithm(out: &mut Outcome, what: &str, algo: &CollectiveAlgorithm) {
    if let Err(e) = algo.validate_contention_free() {
        out.fail(format!("{what}: not contention-free: {e}"));
    }
    if let Err(e) = algo.validate_causal() {
        out.fail(format!("{what}: not causal: {e}"));
    }
}

/// `from_compact(to_compact(a)) == a`.
fn check_round_trip(out: &mut Outcome, what: &str, algo: &CollectiveAlgorithm) {
    if export::from_compact(&export::to_compact(algo)).as_ref() != Ok(algo) {
        out.fail(format!("{what}: from_compact(to_compact(a)) != a"));
    }
}

fn check_pinned(out: &mut Outcome, p: &Problem, r: &SynthesisResult) {
    let got = (r.collective_time().as_ps(), r.num_transfers());
    if got != p.expect {
        out.fail(format!(
            "{} {} c{}: (collective_time_ps, transfers) = {got:?}, expected {:?}",
            p.topology, p.collective, p.chunks, p.expect
        ));
    }
}

/// A value that must read the same on every pass of a run.
fn same_every_pass(out: &mut Outcome, slot: &mut Option<u64>, value: u64, what: &str) {
    match *slot {
        None => *slot = Some(value),
        Some(first) if first != value => out.fail(format!(
            "{what} changed between passes: {first} then {value}"
        )),
        Some(_) => {}
    }
}

/// What a batch workload implements; [`drive`] runs the common loop.
trait Batch: Sized {
    /// Builds the inputs and makes the first synthesis on a fresh
    /// scratch (timed as one set-up).
    fn setup(tr: &mut Tracer, span: SpanId, pass: u32, opts: &Options) -> Result<Self, String>;
    /// Checks the set-up's synthesis.
    fn check_setup(&mut self, out: &mut Outcome);
    /// One pass over the workload's call list; returns the call count.
    fn pass(&mut self, tr: &mut Tracer, span: SpanId, pass: u32) -> Result<u64, String>;
    /// Checks and drops the last pass's outputs.
    fn check(&mut self, out: &mut Outcome);
    /// Calls made only in traced runs, on the warm-up pass's outputs.
    fn probes(&mut self, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String>;
    /// Per-layer metrics from the spans of `passes`.
    fn layers(&self, tr: &Tracer, passes: &[u32], out: &mut Outcome);
    /// Checks whose memory would distort `peak_rss_mb`, made on a
    /// set-up after it is read.
    fn final_checks(&mut self, _tr: &mut Tracer, _out: &mut Outcome) -> Result<(), String> {
        Ok(())
    }
    /// Removes scratch files.
    fn cleanup(&mut self) {}
}

fn drive<B: Batch>(opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(opts.trace, Instant::now());
    let mut setup_s = Vec::new();
    let mut setup = |rep: u32, tr: &mut Tracer, out: &mut Outcome| -> Result<B, String> {
        let span = tr.open("setup", SpanId::ROOT, SETUP_PASS + rep);
        let started = Instant::now();
        let mut w = B::setup(tr, span, SETUP_PASS + rep, opts)?;
        setup_s.push(started.elapsed().as_secs_f64());
        tr.close(span);
        w.check_setup(out);
        Ok(w)
    };
    // Set-ups before and after the passes, so their median spans the
    // machine's state over the whole run.
    let mut w = setup(0, &mut tr, &mut out)?;
    for rep in 1..SETUP_REPS_BEFORE {
        // The previous set-up's buffers are released before timing.
        drop(w);
        w = setup(rep, &mut tr, &mut out)?;
    }
    let result = timed_passes(&mut w, &mut tr, &mut out, opts);
    w.cleanup();
    let (untraced, traced) = result?;
    let mut last: Option<B> = None;
    for rep in SETUP_REPS_BEFORE..SETUP_REPS {
        if let Some(mut prev) = last.take() {
            prev.cleanup();
        }
        last = Some(setup(rep, &mut tr, &mut out)?);
    }

    out.set("setup_s", median(&setup_s), setup_s.len());
    out.set("pass_s", median(&untraced), untraced.len());
    out.info.push(("setup_s_samples", floats(&setup_s)));
    out.info.push(("pass_s_samples", floats(&untraced)));
    out.set("peak_rss_mb", crate::peak_rss_mb("self")?, 1);
    let mut last = last.expect("set-ups follow the passes");
    tr.set_enabled(false);
    let checked = last.final_checks(&mut tr, &mut out);
    last.cleanup();
    checked?;
    tr.set_enabled(opts.trace);
    if opts.trace {
        let spans = tr.spans();
        let traced_ids: Vec<u32> = spans
            .iter()
            .filter(|s| s.name == "pass")
            .map(|s| s.pass)
            .collect();
        out.set(
            "topology.build_s",
            median_over(spans, "topology.build", &setup_passes()),
            SETUP_REPS as usize,
        );
        let self_s: Vec<f64> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "pass")
            .map(|(i, _)| self_time_ns(spans, i) as f64 * 1e-9)
            .collect();
        out.set("pass.self_s", median(&self_s), self_s.len());
        out.set(
            "trace.overhead_s",
            median(&traced) - median(&untraced),
            traced.len(),
        );
        w.layers(&tr, &traced_ids, &mut out);
        out.info.push(("spans", (spans.len() as u64).into()));
        out.tracer = Some(tr);
    }
    Ok(out)
}

/// The warm-up pass, traced-run probes, then timed passes until
/// `opts.seconds` is used up. Returns untraced and traced pass times.
fn timed_passes<B: Batch>(
    w: &mut B,
    tr: &mut Tracer,
    out: &mut Outcome,
    opts: &Options,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    // Warm-up: lets the scratch grow to every problem's size.
    tr.set_enabled(false);
    w.pass(tr, SpanId::ROOT, u32::MAX)?;
    if opts.trace {
        tr.set_enabled(true);
        w.probes(tr, out)?;
    }
    w.check(out);

    let started = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for pass in 0u32.. {
        // A traced run alternates untraced and traced passes, so the
        // difference of their medians is the tracing overhead.
        let tracing = opts.trace && pass % 2 == 1;
        tr.set_enabled(tracing);
        let span = tr.open("pass", SpanId::ROOT, pass);
        let t0 = Instant::now();
        out.attempted += w.pass(tr, span, pass)?;
        let dt = t0.elapsed().as_secs_f64();
        tr.close(span);
        if tracing {
            traced.push(dt);
        } else {
            untraced.push(dt);
        }
        w.check(out);
        let enough = if opts.trace {
            untraced.len() >= 2 && traced.len() >= 2
        } else {
            untraced.len() >= MIN_PASSES
        };
        if enough && started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    tr.set_enabled(opts.trace);
    Ok((untraced, traced))
}

/// Pass numbers of the set-up spans.
fn setup_passes() -> Vec<u32> {
    (0..SETUP_REPS).map(|r| SETUP_PASS + r).collect()
}

/// Median over `passes` of the per-pass total time of spans `name`.
fn median_over(spans: &[crate::trace::Span], name: &str, passes: &[u32]) -> f64 {
    let per_pass: Vec<f64> = passes.iter().map(|&p| total_s(spans, name, p)).collect();
    if per_pass.is_empty() {
        0.0
    } else {
        median(&per_pass)
    }
}

pub fn run_gather(opts: &Options) -> Result<Outcome, String> {
    drive::<Gather>(opts)
}

/// `mesh-allgather`: seeded single-attempt TACOS synthesis with transfer
/// recording, no simulator.
struct Gather {
    inputs: Vec<(Topology, Collective)>,
    synth: Synthesizer,
    scratch: SynthesisScratch,
    results: Vec<SynthesisResult>,
    rounds: Option<u64>,
    transfers: u64,
    collective_time_ps: u64,
}

impl Batch for Gather {
    fn setup(tr: &mut Tracer, span: SpanId, pass: u32, _: &Options) -> Result<Self, String> {
        let inputs = MESH_ALLGATHER
            .iter()
            .map(|p| build(p, p.chunks, tr, span, pass))
            .collect::<Result<Vec<_>, _>>()?;
        let synth = Synthesizer::new(SynthesizerConfig::default().with_seed(SEED));
        let mut scratch = SynthesisScratch::new();
        let (topo, coll) = &inputs[0];
        let first = tr
            .time("core.first_call", span, pass, || {
                synth.synthesize_seeded_with(topo, coll, SEED, &mut scratch)
            })
            .map_err(|e| e.to_string())?;
        Ok(Gather {
            inputs,
            synth,
            scratch,
            results: vec![first],
            rounds: None,
            transfers: 0,
            collective_time_ps: 0,
        })
    }

    fn check_setup(&mut self, out: &mut Outcome) {
        for r in self.results.drain(..) {
            check_algorithm(out, "set-up synthesis", r.algorithm());
            check_pinned(out, &MESH_ALLGATHER[0], &r);
        }
    }

    fn pass(&mut self, tr: &mut Tracer, span: SpanId, pass: u32) -> Result<u64, String> {
        for (topo, coll) in &self.inputs {
            let (synth, scratch) = (&self.synth, &mut self.scratch);
            let r = tr
                .time("core.synthesize", span, pass, || {
                    synth.synthesize_seeded_with(topo, coll, SEED, scratch)
                })
                .map_err(|e| e.to_string())?;
            self.results.push(r);
        }
        Ok(self.inputs.len() as u64)
    }

    fn check(&mut self, out: &mut Outcome) {
        let (mut rounds, mut transfers, mut time) = (0, 0, 0);
        for (p, r) in MESH_ALLGATHER.iter().zip(self.results.drain(..)) {
            let what = format!("{} {} c{}", p.topology, p.collective, p.chunks);
            check_algorithm(out, &what, r.algorithm());
            check_pinned(out, p, &r);
            rounds += r.rounds() as u64;
            transfers += r.num_transfers();
            time += r.collective_time().as_ps();
        }
        same_every_pass(out, &mut self.rounds, rounds, "core.rounds");
        self.transfers = transfers;
        self.collective_time_ps = time;
    }

    /// One more pass, whose schedules also go through the compact round
    /// trip: its text and parsed copy would double the memory of the
    /// largest schedules if made while `peak_rss_mb` is measured.
    fn final_checks(&mut self, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
        self.pass(tr, SpanId::ROOT, FINAL)?;
        for (p, r) in MESH_ALLGATHER.iter().zip(&self.results) {
            let what = format!("{} {} c{}", p.topology, p.collective, p.chunks);
            check_round_trip(out, &what, r.algorithm());
        }
        self.check(out);
        Ok(())
    }

    fn probes(&mut self, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
        let config = self.synth.config().clone().with_record_transfers(false);
        let norecord = Synthesizer::new(config);
        for (p, (topo, coll)) in MESH_ALLGATHER.iter().zip(&self.inputs) {
            let r = tr
                .time("core.norecord", SpanId::ROOT, PROBE, || {
                    norecord.synthesize_seeded_with(topo, coll, SEED, &mut self.scratch)
                })
                .map_err(|e| e.to_string())?;
            if r.collective_time().as_ps() != p.expect.0 {
                out.fail(format!(
                    "{} {} c{}: unrecorded synthesis ends at {} ps, recorded at {} ps",
                    p.topology,
                    p.collective,
                    p.chunks,
                    r.collective_time().as_ps(),
                    p.expect.0
                ));
            }
        }
        Ok(())
    }

    fn layers(&self, tr: &Tracer, passes: &[u32], out: &mut Outcome) {
        let spans = tr.spans();
        let synth_s = median_over(spans, "core.synthesize", passes);
        let norecord_s = total_s(spans, "core.norecord", PROBE);
        out.set("core.synth_s", synth_s, passes.len());
        out.set(
            "core.first_call_s",
            median_over(spans, "core.first_call", &setup_passes()),
            SETUP_REPS as usize,
        );
        out.set("core.norecord_s", norecord_s, 1);
        out.set("core.record_share", 1.0 - norecord_s / synth_s, 1);
        out.set("core.rounds", self.rounds.unwrap_or(0) as f64, 1);
        out.set("core.transfers", self.transfers as f64, 1);
        out.set(
            "core.transfers_per_s",
            self.transfers as f64 / synth_s,
            passes.len(),
        );
        out.set("core.collective_time_ps", self.collective_time_ps as f64, 1);
    }
}

pub fn run_hetero(opts: &Options) -> Result<Outcome, String> {
    drive::<Hetero>(opts)
}

/// Outputs of one `hetero-allreduce` pass, checked after it.
#[derive(Default)]
struct HeteroPass {
    tacos: Option<SynthesisResult>,
    /// Ring, then multitree.
    baselines: Vec<CollectiveAlgorithm>,
    /// Simulated (collective_time_ps, messages) per algorithm.
    simulated: Vec<(u64, u64)>,
    loaded: Vec<Option<CollectiveAlgorithm>>,
}

impl HeteroPass {
    /// TACOS, ring, multitree, in that order (the order of `keys`).
    fn algos(&self) -> impl Iterator<Item = &CollectiveAlgorithm> {
        self.tacos
            .iter()
            .map(SynthesisResult::algorithm)
            .chain(&self.baselines)
    }
}

/// `hetero-allreduce`: TACOS best-of-2, ring and multitree on the
/// 128-NPU 3D-RFS; each stored, simulated, and reloaded.
struct Hetero {
    topo: Topology,
    tacos_coll: Collective,
    baseline_coll: Collective,
    synth: Synthesizer,
    scratch: SynthesisScratch,
    cache: AlgorithmCache,
    cache_dir: PathBuf,
    keys: Vec<String>,
    sim: Simulator,
    last: HeteroPass,
    rounds: Option<u64>,
    sim_time: Option<u64>,
    messages: Option<u64>,
    loads: (u64, u64),
    compact_bytes: u64,
}

const BASELINES: [BaselineKind; 2] = [BaselineKind::Ring, BaselineKind::MultiTree];

impl Batch for Hetero {
    fn setup(tr: &mut Tracer, span: SpanId, pass: u32, opts: &Options) -> Result<Self, String> {
        let (topo, tacos_coll) = build(&HETERO, HETERO.chunks, tr, span, pass)?;
        let (_, baseline_coll) = build(&HETERO, 1, tr, span, pass)?;
        let synth = Synthesizer::new(
            SynthesizerConfig::default()
                .with_seed(SEED)
                .with_attempts(HETERO_ATTEMPTS),
        );
        let cache_dir = opts
            .out
            .join(format!("hetero-cache-{}", std::process::id()));
        let cache = AlgorithmCache::new(&cache_dir)
            .map_err(|e| format!("cannot create {}: {e}", cache_dir.display()))?;
        let mut keys = vec![AlgorithmCache::key(&synth, &topo, &tacos_coll)];
        for kind in &BASELINES {
            keys.push(AlgorithmCache::key_for_generator(
                kind.name(),
                &topo,
                &baseline_coll,
                0,
            ));
        }
        let mut scratch = SynthesisScratch::new();
        let first = tr
            .time("core.first_call", span, pass, || {
                synth.synthesize_with(&topo, &tacos_coll, &mut scratch)
            })
            .map_err(|e| e.to_string())?;
        Ok(Hetero {
            topo,
            tacos_coll,
            baseline_coll,
            synth,
            scratch,
            cache,
            cache_dir,
            keys,
            sim: Simulator::new(),
            last: HeteroPass {
                tacos: Some(first),
                ..HeteroPass::default()
            },
            rounds: None,
            sim_time: None,
            messages: None,
            loads: (0, 0),
            compact_bytes: 0,
        })
    }

    fn check_setup(&mut self, out: &mut Outcome) {
        if let Some(r) = self.last.tacos.take() {
            check_algorithm(out, "set-up synthesis", r.algorithm());
            check_pinned(out, &HETERO, &r);
        }
    }

    fn pass(&mut self, tr: &mut Tracer, span: SpanId, pass: u32) -> Result<u64, String> {
        let mut calls = 0;
        tr.time("cache.clear", span, pass, || clear_dir(&self.cache_dir))?;
        let mut out = HeteroPass::default();
        let (synth, scratch) = (&self.synth, &mut self.scratch);
        let r = tr
            .time("core.best_of", span, pass, || {
                synth.synthesize_with(&self.topo, &self.tacos_coll, scratch)
            })
            .map_err(|e| e.to_string())?;
        out.tacos = Some(r);
        calls += 1;
        for kind in &BASELINES {
            let algo = tr
                .time("baselines.generate", span, pass, || {
                    BaselineAlgorithm::new(kind.clone()).generate(&self.topo, &self.baseline_coll)
                })
                .map_err(|e| format!("{}: {e}", kind.name()))?;
            out.baselines.push(algo);
            calls += 1;
        }
        let mut simulated = Vec::new();
        for (algo, key) in out.algos().zip(&self.keys) {
            tr.time("cache.store", span, pass, || self.cache.store(key, algo))
                .map_err(|e| format!("cache store {key}: {e}"))?;
            let report = tr
                .time("sim.simulate", span, pass, || {
                    self.sim.simulate(&self.topo, algo)
                })
                .map_err(|e| format!("simulate {key}: {e}"))?;
            simulated.push((report.collective_time().as_ps(), report.messages()));
            calls += 2;
        }
        out.simulated = simulated;
        // Resume: read every stored schedule back.
        for key in &self.keys {
            out.loaded
                .push(tr.time("cache.load", span, pass, || self.cache.load(key)));
            calls += 1;
        }
        self.last = out;
        Ok(calls)
    }

    fn check(&mut self, out: &mut Outcome) {
        let last = std::mem::take(&mut self.last);
        if let Some(r) = &last.tacos {
            check_pinned(out, &HETERO, r);
            same_every_pass(out, &mut self.rounds, r.rounds() as u64, "core.rounds");
        }
        for (algo, key) in last.algos().zip(&self.keys) {
            check_algorithm(out, key, algo);
        }
        for ((algo, loaded), key) in last.algos().zip(&last.loaded).zip(&self.keys) {
            self.loads.1 += 1;
            match loaded {
                Some(l) if l == algo => self.loads.0 += 1,
                Some(_) => out.fail(format!(
                    "{key}: cache load differs from the stored schedule"
                )),
                None => out.fail(format!("{key}: stored schedule did not load")),
            }
        }
        let sim_time = last.simulated.iter().map(|s| s.0).sum();
        let messages = last.simulated.iter().map(|s| s.1).sum();
        same_every_pass(out, &mut self.sim_time, sim_time, "sim.collective_time_ps");
        same_every_pass(out, &mut self.messages, messages, "sim.messages");
    }

    fn probes(&mut self, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
        // One attempt on the warm scratch (the best-of call's unit of
        // work), with and without transfer recording.
        let single = self.synth.config().clone().with_attempts(1);
        for (name, config) in [
            ("core.synthesize", single.clone()),
            ("core.norecord", single.with_record_transfers(false)),
        ] {
            let synth = Synthesizer::new(config);
            tr.time(name, SpanId::ROOT, PROBE, || {
                synth.synthesize_seeded_with(&self.topo, &self.tacos_coll, SEED, &mut self.scratch)
            })
            .map_err(|e| e.to_string())?;
        }
        // The compact export round trip behind the cache files and the
        // daemon's `include_algorithm` payloads.
        self.compact_bytes = 0;
        for (algo, key) in self.last.algos().zip(&self.keys) {
            let text = tr.time("collective.to_compact", SpanId::ROOT, PROBE, || {
                export::to_compact(algo)
            });
            let back = tr.time("collective.from_compact", SpanId::ROOT, PROBE, || {
                export::from_compact(&text)
            });
            self.compact_bytes += text.len() as u64;
            if back.as_ref() != Ok(algo) {
                out.fail(format!("{key}: from_compact(to_compact(a)) != a"));
            }
        }
        Ok(())
    }

    fn layers(&self, tr: &Tracer, passes: &[u32], out: &mut Outcome) {
        let spans = tr.spans();
        let n = passes.len();
        let single_s = total_s(spans, "core.synthesize", PROBE);
        let norecord_s = total_s(spans, "core.norecord", PROBE);
        let best_of_s = median_over(spans, "core.best_of", passes);
        out.set("core.synth_s", single_s, 1);
        out.set(
            "core.first_call_s",
            median_over(spans, "core.first_call", &setup_passes()),
            SETUP_REPS as usize,
        );
        out.set("core.norecord_s", norecord_s, 1);
        out.set("core.record_share", 1.0 - norecord_s / single_s, 1);
        out.set("core.rounds", self.rounds.unwrap_or(0) as f64, 1);
        out.set("core.transfers", HETERO.expect.1 as f64, 1);
        out.set("core.transfers_per_s", HETERO.expect.1 as f64 / single_s, 1);
        out.set("core.best_of_s", best_of_s, n);
        out.set(
            "core.best_of_speedup",
            HETERO_ATTEMPTS as f64 * single_s / best_of_s,
            n,
        );
        out.set("core.collective_time_ps", HETERO.expect.0 as f64, 1);
        out.set(
            "baselines.generate_s",
            median_over(spans, "baselines.generate", passes),
            n,
        );
        out.set(
            "sim.simulate_s",
            median_over(spans, "sim.simulate", passes),
            n,
        );
        out.set("sim.messages", self.messages.unwrap_or(0) as f64, 1);
        out.set(
            "sim.collective_time_ps",
            self.sim_time.unwrap_or(0) as f64,
            1,
        );
        out.set(
            "collective.to_compact_s",
            total_s(spans, "collective.to_compact", PROBE),
            1,
        );
        out.set(
            "collective.from_compact_s",
            total_s(spans, "collective.from_compact", PROBE),
            1,
        );
        out.set("collective.compact_bytes", self.compact_bytes as f64, 1);
        out.set(
            "cache.store_s",
            median_over(spans, "cache.store", passes),
            n,
        );
        out.set("cache.load_s", median_over(spans, "cache.load", passes), n);
        out.set(
            "cache.hit_ratio",
            self.loads.0 as f64 / self.loads.1.max(1) as f64,
            self.loads.1 as usize,
        );
    }

    fn cleanup(&mut self) {
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

fn clear_dir(dir: &std::path::Path) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}
