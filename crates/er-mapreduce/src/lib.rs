//! # er-mapreduce — in-process MapReduce engine and parallel ER jobs
//!
//! §II of the ICDE 2017 tutorial covers MapReduce parallelizations of
//! blocking (Dedoop \[18\], parallel meta-blocking \[10\]/\[11\]). The real systems
//! run on Hadoop clusters we cannot ship, so this crate substitutes an
//! **in-process MapReduce engine** with the same programming model — `map →
//! combine → partition/shuffle → reduce` — executing over scoped
//! threads. "Cluster nodes" become worker threads; job decompositions are
//! taken from the surveyed papers, so speedup-vs-workers experiments keep
//! their shape at laptop scale.
//!
//! * [`engine`] — the generic engine, deterministic for any worker count.
//! * `ledger` (private) — the attempt ledger: the one statement of the
//!   retry / backoff / speculation / reassignment / injection rules, driven
//!   by the engine's threads and by the process coordinator alike.
//! * [`spill`] — bounded shuffle buffers: codecs and byte bounds for
//!   spilling oversized partitions to fingerprinted segment files.
//! * [`proto`] — the length-prefixed framed worker protocol (handshake,
//!   task envelopes, heartbeats, typed result/error frames).
//! * [`transport`] — the [`Transport`] seam: in-process threads (the
//!   bit-exactness oracle) or supervised worker processes.
//! * [`dist`] — transport-agnostic named jobs, the spill-file data plane,
//!   and the [`run_dist`] driver.
//! * [`coordinator`] — the multi-process backend: spawning, heartbeat
//!   liveness, crash reassignment, restart budgets, zombie reaping.
//! * [`worker`] — the `er --worker` child-process entry point.
//! * [`blocking`] — Dedoop-style parallel token blocking.
//! * [`metablocking`] — the three-stage parallel meta-blocking of \[10\]/\[11\].
//! * [`sorted_neighborhood`] — range-partitioned sorted neighborhood with
//!   boundary replication (RepSN).
//! * [`balance`] — BlockSplit-style load balancing for skewed blocks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod blocking;
pub mod coordinator;
pub mod dist;
pub mod engine;
mod ledger;
pub mod metablocking;
pub mod proto;
pub mod sorted_neighborhood;
pub mod spill;
pub mod transport;
pub mod worker;

pub use coordinator::{PoolMonitor, SubprocessConfig, SubprocessTransport};
pub use dist::{
    default_registry, run_dist, DistJob, DistOptions, DistOutput, DistStats, TaskRegistry,
};
pub use engine::MapReduce;
pub use spill::{ShuffleBounds, SpillCodec};
pub use transport::{InProcessTransport, StageOutput, Transport};
pub use worker::{maybe_worker_entry, worker_main};
