//! # er-metablocking — block-collection restructuring (Papadakis et al. \[22\])
//!
//! Meta-blocking transforms a redundancy-positive blocking collection into a
//! **blocking graph**: nodes are descriptions, an undirected edge connects
//! every pair co-occurring in at least one block. Because parallel edges are
//! collapsed, all redundant comparisons disappear; because edges carry
//! co-occurrence **weights**, comparisons between unlikely-to-match
//! descriptions can be **pruned**.
//!
//! * [`scan`] — meta-blocking without the graph: each node's neighbourhood
//!   is accumulated from the entity→blocks index, weighed and pruned on the
//!   spot. This is what [`meta_block`] and `er-pipeline` run.
//! * [`graph::BlockingGraph`] — the materialised graph, built in one pass
//!   over the blocks: the reference the scan is bit-identical to, and the
//!   structure behind incremental maintenance, supervised pruning and DOT
//!   export.
//! * [`incremental::IncrementalGraph`] — the graph maintained under
//!   streaming entity arrivals: integer statistics exact per batch, ARCS
//!   restored bit-exactly by a refresh. A library primitive: no pipeline or
//!   streaming session reads it.
//! * [`weights::WeightingScheme`] — CBS, ECBS, JS, EJS and ARCS edge weights.
//! * [`pruning`] — weight-based and cardinality-based, edge-centric and
//!   node-centric pruning: WEP, CEP, WNP, CNP plus reciprocal variants.
//! * [`supervised`] — supervised pruning: edge features + an averaged
//!   perceptron learned from a labeled edge sample.
//! * [`pipeline`] — the end-to-end convenience API.
//! * [`ooc`] — out-of-core graph construction: edge contributions spilled
//!   as pair-sorted segment runs and merged streaming, bit-identical to
//!   the in-memory build (ARCS bits included). The scan has nothing to
//!   spill, so no pipeline path builds the graph this way any more.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod incremental;
pub mod ooc;
pub mod pipeline;
pub mod pruning;
pub mod scan;
pub mod supervised;
pub mod weights;

pub use graph::BlockingGraph;
pub use incremental::IncrementalGraph;
pub use pipeline::{meta_block, par_meta_block};
pub use pruning::PruningScheme;
pub use scan::{node_scan, Pruned};
pub use weights::WeightingScheme;
