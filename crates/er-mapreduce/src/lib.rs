//! # er-mapreduce — one MapReduce driver over threads or worker processes
//!
//! §II of the ICDE 2017 tutorial covers MapReduce parallelizations of
//! blocking (Dedoop \[18\], parallel meta-blocking \[10\]/\[11\]). The real systems
//! run on Hadoop clusters we cannot ship, so this crate substitutes one
//! job walk with the same programming model — `map → partition/shuffle →
//! reduce` over named jobs — and two transports for its tasks: scoped threads
//! in this process, or supervised worker processes. "Cluster nodes" become
//! worker threads or processes. The crate depends on `er-core` alone.
//!
//! Two drivers share that walk. [`run_dist`] runs named string jobs
//! ([`DistJob`]: `wordcount`, `token-blocking`). [`run_key_transpose`] runs
//! the `key-transpose` job, Dedoop-style blocking over `er-core` types: it
//! ships any blocking family's [`KeyRows`](er_core::profiles::KeyRows) as
//! `u32` symbols, shuffles `(symbol, entity)` postings by symbol range, and
//! counting-sorts each range into blocks; `Pipeline`'s subprocess backend
//! builds its blocks with it. The other stages are not re-implemented here:
//! in-process parallel token blocking is
//! `er_blocking::TokenBlocking::par_build`, and parallel meta-blocking is the
//! entity-based node scan of `er_metablocking::scan` (`par_meta_block`).
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
//!   and [`run_key_transpose`] drivers.
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
    default_registry, run_dist, run_key_transpose, DistJob, DistOptions, DistOutput, DistStats,
    TaskRegistry, TransposeOutput, KEY_TRANSPOSE,
};
pub use engine::ExecError;
pub use transport::{InProcessTransport, StageOutput, Transport};
pub use worker::{maybe_worker_entry, worker_main};
