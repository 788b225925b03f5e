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
//!   spot. This is what `er-pipeline` runs.
//! * [`graph::BlockingGraph`] — the materialised graph: what the scan's
//!   walk emits when it keeps every edge, so the scan is bit-identical to
//!   it; the structure behind supervised pruning and DOT export. Its
//!   out-of-core builder is the in-memory one: the walk has nothing to
//!   spill.
//! * [`incremental::IncrementalGraph`] — the graph of an incremental token
//!   index, rebuilt over the index's snapshot at every batch. An adapter:
//!   no pipeline or streaming session reads it.
//! * [`weights::WeightingScheme`] — CBS, ECBS, JS, EJS and ARCS edge weights.
//! * [`pruning`] — weight-based and cardinality-based, edge-centric and
//!   node-centric pruning: WEP, CEP, WNP, CNP plus reciprocal variants.
//! * [`supervised`] — supervised pruning: edge features + an averaged
//!   perceptron learned from a labeled edge sample.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod incremental;
pub mod pruning;
pub mod scan;
pub mod supervised;
pub mod weights;

pub use graph::BlockingGraph;
pub use incremental::IncrementalGraph;
pub use pruning::PruningScheme;
pub use scan::{node_scan, Pruned};
pub use weights::WeightingScheme;
