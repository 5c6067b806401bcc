//! # tacos-serve
//!
//! Synthesis-as-a-service: the paper's synthesizer wrapped in a
//! long-lived daemon (`tacos serve`) so repeated collective-algorithm
//! requests — the pattern a training-cluster scheduler produces —
//! amortize synthesis cost across clients and process restarts.
//!
//! The daemon is plain std: a blocking accept loop, a bounded
//! synthesis worker pool with admission control and a panic-respawning
//! supervisor, single-flight deduplication of concurrent identical
//! requests (one synthesis, N responses), per-request deadlines,
//! overload protection (bounded request lines, idle timeouts, a
//! connection cap with `retry_after_ms` hints), and a crash-safe warm
//! cache persisted to disk with per-entry checksums and periodic
//! checkpoints. The wire protocol is one JSON object per line in each
//! direction; see [`protocol`].
//!
//! [`bench`] implements `tacos serve-bench`, which replays a scenario
//! grid as a request trace at several concurrency levels and reports
//! throughput, latency percentiles, and per-outcome-class counts.
//! [`faults`] and [`chaos`] implement `tacos chaos`: deterministic
//! fault injection plus the harness that asserts the daemon's
//! operational invariants under it.

#![warn(missing_docs)]

pub mod bench;
pub mod chaos;
mod client;
mod daemon;
pub mod faults;
pub mod protocol;

pub use bench::{build_trace, BenchConfig};
pub use chaos::{ChaosOptions, ChaosReport};
pub use client::{Client, RetriedCall, RetryPolicy};
pub use daemon::{Daemon, DaemonConfig, DaemonHandle, SNAPSHOT_FILE};
pub use faults::FaultPlan;
pub use protocol::{OkBody, Op, Request, Response, StatsBody};
