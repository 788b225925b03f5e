//! # er-blocking — blocking algorithms for entity resolution
//!
//! Blocking (§II of the ICDE 2017 tutorial) prunes the quadratic comparison
//! space by grouping descriptions into (possibly overlapping) blocks and only
//! comparing within blocks. This crate implements the families the tutorial
//! surveys:
//!
//! * **Schema-agnostic inverted-index blocking** for the Web of data:
//!   [`token::TokenBlocking`] and
//!   [`attribute_clustering::AttributeClusteringBlocking`] (Papadakis et al.
//!   \[20\], \[21\]).
//! * **Traditional relational blocking** (Christen's survey \[7\]):
//!   [`standard::StandardBlocking`], [`sorted_neighborhood`],
//!   [`qgrams::QGramsBlocking`], [`suffix::SuffixBlocking`],
//!   [`canopy::CanopyBlocking`].
//! * **String-similarity joins** as blocking (\[5\], \[28\]):
//!   [`simjoin`] with AllPairs and PPJoin; [`minhash`] LSH blocking as the
//!   sketch-based approximation of a similarity join.
//! * **Multidimensional overlapping blocks** (MultiBlock, Isele et al. \[17\]):
//!   [`multiblock`].
//! * **Block cleaning**: purging of oversized blocks and per-entity block
//!   filtering (\[20\], \[22\]): [`cleaning`].
//! * **Memory-governed admission**: charging the token index against a byte
//!   budget and shedding oversized blocks largest-first on a breach, with
//!   the recall loss reported instead of aborting: [`governance`].
//! * **Out-of-core blocking**: any family's key postings spilled as sorted
//!   segment runs and grouped from a streaming k-way merge, bit-identical to
//!   the in-memory build at a reported slowdown instead of shedding: [`ooc`].
//! * **Frequent token-set blocking** (keys on co-occurring token pairs,
//!   the frequent-itemset view of \[19\]): [`frequent_sets`].
//! * **Comparison propagation**: redundancy-free iteration over a blocking
//!   collection without materializing the pair set: [`propagation`].
//! * **Incremental index maintenance**: the token-blocking posting vectors
//!   maintained under streaming entity arrivals (sorted-run insertion +
//!   periodic compaction), bit-identical to a full rebuild at every
//!   snapshot: [`incremental`].
//!
//! All methods produce a [`block::BlockCollection`] (or directly a candidate
//! pair list) whose quality is measured with `er_core::metrics`. Every
//! key-based family — token, attribute clustering, standard, q-grams,
//! suffix, MinHash, frequent sets — is an `er_core::profiles::KeyScheme`,
//! and its blocks are the one transpose of its key rows,
//! [`block::blocks_from_profiles`] (out of core:
//! [`ooc::blocks_from_profiles_ooc`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribute_clustering;
pub mod block;
pub mod canopy;
pub mod cleaning;
pub mod frequent_sets;
pub mod governance;
pub mod incremental;
pub mod minhash;
pub mod multiblock;
pub mod ooc;
pub mod propagation;
pub mod qgrams;
pub mod simjoin;
pub mod sorted_neighborhood;
pub mod standard;
pub mod suffix;
pub mod token;

pub use block::{Block, BlockCollection};
pub use incremental::{IncrementalTokenIndex, IndexDelta};
pub use token::TokenBlocking;
