//! # tacos-sim
//!
//! The congestion-aware analytical network simulator used to evaluate
//! collective algorithms (paper §V-C, "Network Simulation Backend").
//!
//! Every link carries a FIFO message queue and serves **one message at a
//! time** at `α + β·size`; contending messages serialize, which is the
//! first-order congestion model behind the paper's heat maps (Figs. 1, 15b)
//! and utilization timelines (Figs. 16b, 18). Transfers without an assigned
//! physical link are routed over static α–β-shortest paths with
//! store-and-forward hops.
//!
//! The simulator consumes the same
//! [`CollectiveAlgorithm`](tacos_collective::algorithm::CollectiveAlgorithm)
//! IR the synthesizer and all baselines produce, so every algorithm in the
//! workspace is evaluated under identical network assumptions.

#![warn(missing_docs)]

mod error;
mod queue;
mod report;
mod simulator;

pub use error::SimError;
pub use report::{BusyInterval, LinkLoadStats, SimReport, TimelineSegment};
pub use simulator::{RouteModel, SimConfig, Simulator};
