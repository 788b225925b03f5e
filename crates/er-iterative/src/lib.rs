//! # er-iterative — iterative entity resolution (§III of the tutorial)
//!
//! Iterative ER exploits partial results — merged descriptions or resolved
//! relationships — to surface candidate pairs that no single pass over the
//! initial evidence would consider:
//!
//! * [`framework`] — the general two-phase skeleton of \[16\]: an
//!   *initialization* phase builds a (prioritized) queue of pairs, an
//!   *iterative* phase pops, compares, and — on a match — updates the queue.
//!   The iteration is Fig. 1's one scheduling → matching → update loop,
//!   `er_progressive::run`, with the queue as its scheduler: one loop, N
//!   schedulers (the method × stop table is in `er-progressive`'s crate
//!   docs), so it stops under any budget or stopping rule.
//! * [`swoosh`] — merging-based iteration: R-Swoosh (optimal under the ICAR
//!   properties) and G-Swoosh (no assumptions) from Benjelloun et al. \[2\].
//! * [`collective`] — relationship-based iteration: matches between related
//!   descriptions raise the matching evidence of their neighbors'
//!   pairs (Bhattacharya & Getoor \[3\]).
//! * [`iterative_blocking`] — Whang et al. \[27\]: ER results of one block are
//!   propagated into all others, repeating until fixpoint.
//! * [`incremental`] — the evolving-KB setting: descriptions arrive one at a
//!   time and are integrated against the maintained resolution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collective;
pub mod framework;
pub mod incremental;
pub mod iterative_blocking;
pub mod swoosh;

pub use framework::{IterativeResolver, PairQueue};
pub use swoosh::{g_swoosh, r_swoosh, SwooshOutput};
