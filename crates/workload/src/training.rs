//! End-to-end training-iteration evaluation (paper §VI-D, Figs. 20–21).
//!
//! For data-parallel models, gradient communication is exposed at the end
//! of each iteration (paper: "communication becomes exposed at the end of
//! each training iteration"), so
//! `iteration = forward + backward + exposed collectives`, where each
//! collective's time comes from the congestion-aware simulator running the
//! chosen algorithm (or from the theoretical ideal bound). The evaluator
//! also models two knobs the scenario engine's `[workload]` section
//! exposes: the parallelization's communication pattern
//! ([`Parallelism`]: pure data-parallel vs. hybrid with exposed
//! input-gradient collectives) and a compute-overlap fraction hiding part
//! of each collective behind compute.

use std::fmt;

use tacos_baselines::{BaselineAlgorithm, IdealBound};
use tacos_collective::{Collective, CollectivePattern};
use tacos_core::Synthesizer;
use tacos_sim::{SimConfig, Simulator};
use tacos_topology::{ByteSize, Time, Topology};

use crate::error::WorkloadError;
use crate::mechanism::Mechanism;
use crate::models::Workload;

/// The parallelization's communication pattern: which gradient
/// collectives a training iteration exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Pure data parallelism: only the weight-gradient All-Reduce is
    /// exposed; any input-gradient volume the model defines is ignored.
    Data,
    /// Hybrid (data + model) parallelism: both the weight-gradient and
    /// the model's input-gradient collectives are exposed (models
    /// without an input-gradient volume contribute zero). This is the
    /// default — it exposes exactly what the model defines.
    #[default]
    Hybrid,
}

impl Parallelism {
    /// Parses a `[workload] parallelism` value.
    ///
    /// # Errors
    /// Returns a message listing the accepted names.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "data" => Ok(Parallelism::Data),
            "hybrid" => Ok(Parallelism::Hybrid),
            other => Err(format!(
                "unknown parallelism '{other}' (expected data | hybrid)"
            )),
        }
    }

    /// The `[workload] parallelism` name.
    pub fn name(self) -> &'static str {
        match self {
            Parallelism::Data => "data",
            Parallelism::Hybrid => "hybrid",
        }
    }
}

/// Per-iteration timing breakdown (the bars of paper Fig. 21).
///
/// `weight_grad_comm` / `input_grad_comm` are the *exposed* collective
/// times (after compute overlap); the `raw_*` fields keep the full
/// collective times so overlap accounting stays auditable
/// (`exposed <= raw` always holds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainingReport {
    /// Forward-pass compute.
    pub forward: Time,
    /// Backward-pass compute.
    pub backward: Time,
    /// Exposed weight-gradient collective time.
    pub weight_grad_comm: Time,
    /// Exposed input-gradient collective time (zero for pure DP).
    pub input_grad_comm: Time,
    /// Full (pre-overlap) weight-gradient collective time.
    pub raw_weight_grad: Time,
    /// Full (pre-overlap) input-gradient collective time.
    pub raw_input_grad: Time,
}

impl TrainingReport {
    /// Total iteration time.
    pub fn total(&self) -> Time {
        self.forward + self.backward + self.weight_grad_comm + self.input_grad_comm
    }

    /// Total exposed communication.
    pub fn comm(&self) -> Time {
        self.weight_grad_comm + self.input_grad_comm
    }

    /// Total raw (pre-overlap) communication.
    pub fn raw_comm(&self) -> Time {
        self.raw_weight_grad + self.raw_input_grad
    }

    /// Total compute.
    pub fn compute(&self) -> Time {
        self.forward + self.backward
    }
}

impl fmt::Display for TrainingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fwd {} + bwd {} + wg {} + ig {} = {}",
            self.forward,
            self.backward,
            self.weight_grad_comm,
            self.input_grad_comm,
            self.total()
        )
    }
}

/// Evaluates training iterations of a [`Workload`] on a topology under a
/// chosen communication [`Mechanism`].
///
/// ```no_run
/// use tacos_workload::{Mechanism, TrainingEvaluator, Workload};
/// use tacos_baselines::BaselineKind;
/// use tacos_topology::{Time, Topology};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topo = Topology::rfs_3d(2, 4, 8, Time::from_micros(0.5), [200.0, 100.0, 50.0])?;
/// let eval = TrainingEvaluator::new(&topo);
/// let report = eval.evaluate(&Workload::gnmt(), &Mechanism::Baseline(BaselineKind::Ring))?;
/// println!("iteration: {}", report.total());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TrainingEvaluator<'a> {
    topo: &'a Topology,
    chunks: usize,
    parallelism: Parallelism,
    overlap: f64,
}

impl<'a> TrainingEvaluator<'a> {
    /// Creates an evaluator for `topo` with the default chunking factor
    /// (4, matching the paper's "TACOS (4 chunks)"), hybrid parallelism
    /// (expose exactly what the model defines), and no compute overlap.
    pub fn new(topo: &'a Topology) -> Self {
        TrainingEvaluator {
            topo,
            chunks: 4,
            parallelism: Parallelism::Hybrid,
            overlap: 0.0,
        }
    }

    /// Overrides the chunking factor used for synthesized collectives.
    #[must_use]
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        self.chunks = chunks.max(1);
        self
    }

    /// Sets the communication pattern of the parallelization.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Sets the fraction of each gradient collective hidden under
    /// compute (clamped to `[0, 1]`; `0.0` = fully exposed, the paper's
    /// Figs. 20–21 assumption).
    #[must_use]
    pub fn with_overlap(mut self, overlap: f64) -> Self {
        self.overlap = if overlap.is_finite() {
            overlap.clamp(0.0, 1.0)
        } else {
            0.0
        };
        self
    }

    /// Time for one All-Reduce of `size` under `mechanism`.
    ///
    /// # Errors
    /// Propagates synthesis / generation / simulation failures.
    pub fn all_reduce_time(
        &self,
        size: ByteSize,
        mechanism: &Mechanism,
    ) -> Result<Time, WorkloadError> {
        let n = self.topo.num_npus();
        match mechanism {
            Mechanism::Ideal => {
                let ideal = IdealBound::new(self.topo);
                Ok(ideal.collective_time(CollectivePattern::AllReduce, size))
            }
            Mechanism::Baseline(kind) => {
                let coll = Collective::all_reduce(n, size)?;
                let algo = BaselineAlgorithm::new(kind.clone()).generate(self.topo, &coll)?;
                // Only the time is read: skip recording busy intervals.
                let sim = SimConfig::default().with_record_intervals(false);
                let report = Simulator::with_config(sim).simulate(self.topo, &algo)?;
                Ok(report.collective_time())
            }
            Mechanism::Tacos(m) => {
                let chunks = m.chunks.unwrap_or(self.chunks);
                let coll =
                    Collective::with_chunking(CollectivePattern::AllReduce, n, chunks, size)?;
                let result = Synthesizer::new(m.config.clone()).synthesize(self.topo, &coll)?;
                Ok(result.collective_time())
            }
        }
    }

    /// Evaluates one training iteration of `workload`.
    ///
    /// # Errors
    /// Propagates synthesis / generation / simulation failures.
    pub fn evaluate(
        &self,
        workload: &Workload,
        mechanism: &Mechanism,
    ) -> Result<TrainingReport, WorkloadError> {
        self.evaluate_with_times(workload, |size| self.all_reduce_time(size, mechanism))
    }

    /// Evaluates one training iteration with a caller-supplied
    /// collective-time resolver — the hook that lets the scenario runner
    /// route gradient collectives through its algorithm cache while the
    /// breakdown accounting (parallelism pattern, compute overlap) stays
    /// here, in one place.
    ///
    /// `all_reduce` is called once per exposed gradient collective with
    /// its payload size and must return the full (pre-overlap)
    /// collective time.
    ///
    /// # Errors
    /// Propagates the resolver's failures.
    pub fn evaluate_with_times(
        &self,
        workload: &Workload,
        mut all_reduce: impl FnMut(ByteSize) -> Result<Time, WorkloadError>,
    ) -> Result<TrainingReport, WorkloadError> {
        let raw_weight_grad = all_reduce(workload.weight_grad())?;
        let raw_input_grad = match (self.parallelism, workload.input_grad()) {
            (Parallelism::Hybrid, Some(size)) => all_reduce(size)?,
            _ => Time::ZERO,
        };
        Ok(TrainingReport {
            forward: workload.forward(),
            backward: workload.backward(),
            weight_grad_comm: self.expose(raw_weight_grad),
            input_grad_comm: self.expose(raw_input_grad),
            raw_weight_grad,
            raw_input_grad,
        })
    }

    /// The exposed share of a collective after compute overlap. Rounds
    /// down in picoseconds, so exposure never exceeds the raw time.
    fn expose(&self, raw: Time) -> Time {
        if self.overlap == 0.0 {
            return raw;
        }
        Time::from_ps((raw.as_ps() as f64 * (1.0 - self.overlap)) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::SynthMechanism;
    use tacos_baselines::BaselineKind;
    use tacos_core::SynthesizerConfig;
    use tacos_topology::{Bandwidth, LinkSpec};

    fn small_torus() -> Topology {
        let spec = LinkSpec::new(Time::from_micros(0.7), Bandwidth::gbps(25.0));
        Topology::torus_3d(2, 2, 2, spec).unwrap()
    }

    fn tacos(config: SynthesizerConfig) -> Mechanism {
        Mechanism::Tacos(SynthMechanism {
            config,
            chunks: None,
        })
    }

    #[test]
    fn ideal_is_fastest() {
        let topo = small_torus();
        let eval = TrainingEvaluator::new(&topo);
        let w = Workload::resnet50();
        let ideal = eval.evaluate(&w, &Mechanism::Ideal).unwrap();
        let ring = eval
            .evaluate(&w, &Mechanism::Baseline(BaselineKind::Ring))
            .unwrap();
        let tacos = eval
            .evaluate(&w, &tacos(SynthesizerConfig::default()))
            .unwrap();
        assert!(ideal.comm() <= tacos.comm());
        assert!(ideal.comm() <= ring.comm());
        assert!(ideal.total() < ring.total());
    }

    #[test]
    fn tacos_beats_ring_on_torus() {
        let topo = small_torus();
        let eval = TrainingEvaluator::new(&topo);
        let w = Workload::resnet50();
        let ring = eval
            .evaluate(&w, &Mechanism::Baseline(BaselineKind::Ring))
            .unwrap();
        let best = eval
            .evaluate(&w, &tacos(SynthesizerConfig::default().with_attempts(4)))
            .unwrap();
        assert!(
            best.comm() <= ring.comm(),
            "tacos {} vs ring {}",
            best.comm(),
            ring.comm()
        );
        // Compute is mechanism-independent.
        assert_eq!(best.compute(), ring.compute());
    }

    #[test]
    fn breakdown_accounts_input_grads() {
        let topo = small_torus();
        let eval = TrainingEvaluator::new(&topo);
        let msft = eval
            .evaluate(&Workload::msft_1t(), &Mechanism::Ideal)
            .unwrap();
        assert!(msft.input_grad_comm > Time::ZERO);
        assert_eq!(
            msft.total(),
            msft.forward + msft.backward + msft.weight_grad_comm + msft.input_grad_comm
        );
        let resnet = eval
            .evaluate(&Workload::resnet50(), &Mechanism::Ideal)
            .unwrap();
        assert_eq!(resnet.input_grad_comm, Time::ZERO);
    }

    #[test]
    fn data_parallelism_drops_input_grad_collectives() {
        let topo = small_torus();
        let hybrid = TrainingEvaluator::new(&topo)
            .evaluate(&Workload::msft_1t(), &Mechanism::Ideal)
            .unwrap();
        let dp = TrainingEvaluator::new(&topo)
            .with_parallelism(Parallelism::Data)
            .evaluate(&Workload::msft_1t(), &Mechanism::Ideal)
            .unwrap();
        assert!(hybrid.input_grad_comm > Time::ZERO);
        assert_eq!(dp.input_grad_comm, Time::ZERO);
        assert_eq!(dp.raw_input_grad, Time::ZERO);
        // The weight-gradient collective is identical either way.
        assert_eq!(dp.weight_grad_comm, hybrid.weight_grad_comm);
        assert!(dp.total() < hybrid.total());
    }

    #[test]
    fn overlap_hides_communication_without_inventing_any() {
        let topo = small_torus();
        let w = Workload::msft_1t();
        let exposed = TrainingEvaluator::new(&topo)
            .evaluate(&w, &Mechanism::Ideal)
            .unwrap();
        let half = TrainingEvaluator::new(&topo)
            .with_overlap(0.5)
            .evaluate(&w, &Mechanism::Ideal)
            .unwrap();
        let full = TrainingEvaluator::new(&topo)
            .with_overlap(1.0)
            .evaluate(&w, &Mechanism::Ideal)
            .unwrap();
        // Raw collective times are overlap-independent.
        assert_eq!(half.raw_comm(), exposed.raw_comm());
        assert_eq!(full.raw_comm(), exposed.raw_comm());
        // Exposure shrinks monotonically and never exceeds raw.
        assert!(half.comm() < exposed.comm());
        assert_eq!(full.comm(), Time::ZERO);
        assert!(half.comm() <= half.raw_comm());
        assert_eq!(exposed.comm(), exposed.raw_comm());
        // Out-of-range values clamp instead of corrupting the breakdown.
        let clamped = TrainingEvaluator::new(&topo)
            .with_overlap(7.5)
            .evaluate(&w, &Mechanism::Ideal)
            .unwrap();
        assert_eq!(clamped.comm(), Time::ZERO);
    }

    #[test]
    fn mechanism_names() {
        assert_eq!(Mechanism::Ideal.name(), "ideal");
        assert_eq!(Mechanism::Baseline(BaselineKind::Ring).name(), "ring");
        assert_eq!(tacos(SynthesizerConfig::default()).name(), "tacos");
    }

    #[test]
    fn evaluate_with_times_feeds_the_model_volumes() {
        let topo = small_torus();
        let eval = TrainingEvaluator::new(&topo);
        let mut sizes = Vec::new();
        let report = eval
            .evaluate_with_times(&Workload::msft_1t(), |size| {
                sizes.push(size);
                Ok(Time::from_micros(10.0))
            })
            .unwrap();
        assert_eq!(
            sizes,
            [
                Workload::msft_1t().weight_grad(),
                Workload::msft_1t().input_grad().unwrap()
            ]
        );
        assert_eq!(report.weight_grad_comm, Time::from_micros(10.0));
        assert_eq!(report.raw_input_grad, Time::from_micros(10.0));
    }
}
