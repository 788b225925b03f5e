//! # er-mapreduce — one MapReduce driver over threads or worker processes
//!
//! §II of the ICDE 2017 tutorial covers MapReduce parallelizations of
//! blocking (Dedoop \[18\], parallel meta-blocking \[10\]/\[11\]). The real systems
//! run on Hadoop clusters we cannot ship, so this crate substitutes one
//! driver, [`run_dist`], with the same programming model — `map →
//! partition/shuffle → reduce` over named string jobs — and two transports
//! for its tasks: scoped threads in this process, or supervised worker
//! processes. "Cluster nodes" become worker threads or processes. The crate
//! depends on `er-core` alone.
//!
//! The stages themselves are not re-implemented here: Dedoop-style blocking
//! is the `token-blocking` [`DistJob`] that `Pipeline`'s subprocess backend
//! runs over any blocking family's key rows, in-process parallel token
//! blocking is `er_blocking::TokenBlocking::par_build`, and parallel
//! meta-blocking is the entity-based node scan of `er_metablocking::scan`
//! (`par_meta_block`).
//!
//! * [`engine`] — the in-process task scheduler (`execute_tasks`) under
//!   [`InProcessTransport`] and the typed [`ExecError`]
//!   every stage fails with.
//! * `ledger` (private) — the attempt ledger: the one statement of the
//!   retry / backoff / speculation / reassignment / injection rules, driven
//!   by the engine's threads and by the process coordinator alike.
//! * [`proto`] — the length-prefixed framed worker protocol (handshake,
//!   task envelopes, heartbeats, typed result/error frames).
//! * [`transport`] — the [`Transport`] seam: in-process threads (the
//!   bit-exactness oracle) or supervised worker processes.
//! * [`dist`] — transport-agnostic named jobs, the spill-file data plane
//!   (the bounded shuffle, `DistOptions::spill_bound`), and the [`run_dist`]
//!   driver.
//! * [`coordinator`] — the multi-process backend: spawning, heartbeat
//!   liveness, crash reassignment, restart budgets, zombie reaping.
//! * [`worker`] — the `er --worker` child-process entry point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod dist;
pub mod engine;
mod ledger;
pub mod proto;
pub mod transport;
pub mod worker;

pub use coordinator::{PoolMonitor, SubprocessConfig, SubprocessTransport};
pub use dist::{
    default_registry, run_dist, DistJob, DistOptions, DistOutput, DistStats, TaskRegistry,
};
pub use engine::ExecError;
pub use transport::{InProcessTransport, StageOutput, Transport};
pub use worker::{maybe_worker_entry, worker_main};
