//! Incremental blocking-graph maintenance under streaming entity arrivals.
//!
//! The batch builder ([`BlockingGraph::par_build`]) scans every block; under
//! a stream of arrivals that cost grows with the whole history on every
//! batch. [`IncrementalGraph`] instead consumes the
//! [`IndexDelta`] the incremental
//! token index emits per batch and patches the graph in place: only blocks
//! that actually *grew* are touched, and within them only the pairs that
//! involve a newly arrived entity.
//!
//! ## Exactness contract
//!
//! The **integer** state of the graph — edge set, per-edge `common_blocks`,
//! node degrees, per-entity block counts, `total_blocks`,
//! `total_assignments` — is maintained *exactly*: after any sequence of
//! deltas it equals the batch build over the same blocking collection,
//! field for field. The tests lock this.
//!
//! The **ARCS** accumulator (`Σ 1/‖b‖` over shared blocks) is maintained
//! exactly *in value* — when a block grows its cardinality changes, so new
//! pairs are weighted at the current `1/‖b‖` and the block's old pairs are
//! re-weighted by the difference `1/‖b‖_new − 1/‖b‖_old` — but not exactly
//! *in bits*: the incremental addition order differs from the batch
//! builder's chunked left-to-right `f64` fold (`CHUNK_BLOCKS` sums),
//! so the accumulators agree only up to floating-point rounding between
//! refreshes. [`IncrementalGraph::refresh`] — a full
//! [`BlockingGraph::par_build`], bit-identical to the batch path at every
//! thread count — restores bit-exact agreement before a weight-consuming
//! read. The batch builder thus remains the retained A/B oracle, exactly as
//! `docs/data_layout.md` prescribes for the compact layouts.
//!
//! No pipeline or streaming session reads this graph: it is a library
//! primitive, locked by `tests/streaming_equivalence.rs`, which drives it
//! directly.

use crate::graph::{merge_runs, BlockingGraph, EdgeInfo};
use er_blocking::block::{Block, BlockCollection};
use er_blocking::incremental::{IncrementalTokenIndex, IndexDelta};
use er_core::collection::EntityCollection;
use er_core::pair::Pair;
use er_core::parallel::Parallelism;

/// A blocking graph maintained under entity arrivals: exact integers every
/// batch, exact ARCS after every [`refresh`](IncrementalGraph::refresh).
#[derive(Clone)]
pub struct IncrementalGraph {
    graph: BlockingGraph,
}

impl Default for IncrementalGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalGraph {
    /// Creates an empty graph (no entities, no edges).
    pub fn new() -> Self {
        IncrementalGraph {
            graph: BlockingGraph {
                edges: Vec::new(),
                entity_block_counts: Vec::new(),
                degrees: Vec::new(),
                total_blocks: 0,
                total_assignments: 0,
                n_entities: 0,
                edge_sort_bytes: 0,
            },
        }
    }

    /// The current graph. Integer statistics are always exact; ARCS weights
    /// are exact only since the last [`refresh`](IncrementalGraph::refresh)
    /// (see the module docs).
    pub fn graph(&self) -> &BlockingGraph {
        &self.graph
    }

    /// Applies one batch's delta: patches grown blocks' statistics and edges
    /// in place. `index` must be the post-batch index that produced `delta`,
    /// and `collection` must contain every entity the index has seen.
    pub fn apply_delta(
        &mut self,
        index: &IncrementalTokenIndex,
        delta: &IndexDelta,
        collection: &EntityCollection,
    ) {
        let n = collection.len();
        if self.graph.n_entities < n {
            self.graph.entity_block_counts.resize(n, 0);
            self.graph.degrees.resize(n, 0);
            self.graph.n_entities = n;
        }
        let mut contribs: Vec<(Pair, EdgeInfo)> = Vec::new();
        for &(sym, old_count) in &delta.grown {
            let members = index.members(sym);
            let k = old_count as usize;
            debug_assert!(members[k..].iter().all(|&e| e >= delta.batch_start));
            if members.len() < 2 {
                // Still a singleton: `BlockCollection::new` would drop it, so
                // it contributes nothing yet.
                continue;
            }
            if k >= 2 {
                // The block already existed; only its tail is new.
                self.graph.total_assignments += (members.len() - k) as u64;
                for &e in &members[k..] {
                    self.graph.entity_block_counts[e.index()] += 1;
                }
            } else {
                // Crossing the two-member threshold brings the block into
                // existence: all members are assigned now.
                self.graph.total_blocks += 1;
                self.graph.total_assignments += members.len() as u64;
                for &e in &members {
                    self.graph.entity_block_counts[e.index()] += 1;
                }
            }
            // The block's cardinality grew, so its ARCS weight `1/‖b‖`
            // changed for every pair it contains. New admissible pairs all
            // touch a new member (canonical pairs put the larger id second,
            // and arriving ids exceed all old ids): they contribute the new
            // weight plus a co-occurrence. Old pairs keep their count but
            // get re-weighted by the difference `1/‖b‖_new − 1/‖b‖_old`.
            let old_block = Block::new(String::new(), members[..k].to_vec());
            let old_card = old_block.comparisons(collection);
            let block = Block::new(String::new(), members);
            let card = block.comparisons(collection);
            if card == 0 {
                continue;
            }
            let w = 1.0 / card as f64;
            // `old_card == 0` ⇒ no admissible old pairs exist, so the zero
            // reweight is never emitted anyway.
            let reweight = if old_card > 0 {
                w - 1.0 / old_card as f64
            } else {
                0.0
            };
            contribs.extend(block.pairs(collection).map(|p| {
                if p.second() >= delta.batch_start {
                    (
                        p,
                        EdgeInfo {
                            common_blocks: 1,
                            arcs: w,
                        },
                    )
                } else {
                    (
                        p,
                        EdgeInfo {
                            common_blocks: 0,
                            arcs: reweight,
                        },
                    )
                }
            }));
        }
        // Same aggregation shape as the batch builder: stable sort keeps a
        // pair's contributions in block order, merge_runs adds left-to-right.
        contribs.sort_by_key(|&(p, _)| p);
        let fresh = merge_runs(contribs);
        if !fresh.is_empty() {
            self.merge_fresh_edges(fresh);
        }
    }

    /// Merges pair-sorted fresh contributions into the pair-sorted edge
    /// vector, bumping degrees for pairs seen for the first time.
    fn merge_fresh_edges(&mut self, fresh: Vec<(Pair, EdgeInfo)>) {
        let old = std::mem::take(&mut self.graph.edges);
        let mut merged = Vec::with_capacity(old.len() + fresh.len());
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < fresh.len() {
            match old[i].0.cmp(&fresh[j].0) {
                std::cmp::Ordering::Less => {
                    merged.push(old[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    let (p, info) = fresh[j];
                    self.graph.degrees[p.first().index()] += 1;
                    self.graph.degrees[p.second().index()] += 1;
                    merged.push((p, info));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let (p, mut info) = old[i];
                    info.common_blocks += fresh[j].1.common_blocks;
                    info.arcs += fresh[j].1.arcs;
                    merged.push((p, info));
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&old[i..]);
        for &(p, info) in &fresh[j..] {
            self.graph.degrees[p.first().index()] += 1;
            self.graph.degrees[p.second().index()] += 1;
            merged.push((p, info));
        }
        self.graph.edges = merged;
    }

    /// Rebuilds the graph from scratch with the batch builder, restoring
    /// **bit-exact** agreement (ARCS included) with
    /// [`BlockingGraph::par_build`] — the A/B oracle.
    pub fn refresh(
        &mut self,
        collection: &EntityCollection,
        blocks: &BlockCollection,
        par: Parallelism,
    ) {
        self.graph = BlockingGraph::par_build(collection, blocks, par);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::collection::ResolutionMode;
    use er_core::entity::{EntityBuilder, KbId};

    const VALUES: &[&str] = &[
        "alan turing machine",
        "turing alan m",
        "grace hopper compiler",
        "rear admiral hopper",
        "zeta function riemann",
        "machine learning compiler",
        "alan kay smalltalk",
        "turing award hopper",
    ];

    fn collection(values: &[&str]) -> EntityCollection {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for v in values {
            c.push_entity(KbId(0), EntityBuilder::new().attr("n", *v));
        }
        c
    }

    fn cc_collection(values: &[&str]) -> EntityCollection {
        let mut c = EntityCollection::new(ResolutionMode::CleanClean);
        for (i, v) in values.iter().enumerate() {
            c.push_entity(KbId((i % 2) as u16), EntityBuilder::new().attr("n", *v));
        }
        c
    }

    /// Asserts every integer field of the incremental graph equals the batch
    /// build, and ARCS agrees within float tolerance.
    fn assert_integers_exact(inc: &BlockingGraph, oracle: &BlockingGraph) {
        assert_eq!(inc.n_entities(), oracle.n_entities());
        assert_eq!(inc.n_edges(), oracle.n_edges());
        assert_eq!(inc.total_blocks(), oracle.total_blocks());
        assert_eq!(inc.total_assignments(), oracle.total_assignments());
        for (a, b) in inc.edges().zip(oracle.edges()) {
            assert_eq!(a.0, b.0, "edge sets must match");
            assert_eq!(a.1.common_blocks, b.1.common_blocks, "CBS at {:?}", a.0);
            assert!(
                (a.1.arcs - b.1.arcs).abs() <= 1e-9 * b.1.arcs.max(1.0),
                "ARCS drift beyond tolerance at {:?}: {} vs {}",
                a.0,
                a.1.arcs,
                b.1.arcs
            );
        }
        for e in 0..inc.n_entities() as u32 {
            let id = er_core::entity::EntityId(e);
            assert_eq!(inc.block_count(id), oracle.block_count(id), "counts e{e}");
            assert_eq!(inc.degree(id), oracle.degree(id), "degree e{e}");
        }
    }

    fn stream(c: &EntityCollection, batch: usize) -> (IncrementalTokenIndex, IncrementalGraph) {
        let mut idx = IncrementalTokenIndex::new().with_compact_threshold(4);
        let mut g = IncrementalGraph::new();
        let entities: Vec<_> = c.iter().collect();
        for chunk in entities.chunks(batch) {
            let delta = idx.insert_batch(chunk.iter().copied());
            g.apply_delta(&idx, &delta, c);
        }
        (idx, g)
    }

    #[test]
    fn integers_exact_at_every_batch_size() {
        let c = collection(VALUES);
        for batch in [1, 2, 3, 8] {
            let (idx, g) = stream(&c, batch);
            let oracle = BlockingGraph::build(&c, &idx.snapshot_blocks());
            assert!(oracle.n_edges() > 0);
            assert_integers_exact(g.graph(), &oracle);
        }
    }

    #[test]
    fn integers_exact_at_every_prefix() {
        let all: Vec<_> = VALUES.to_vec();
        let mut idx = IncrementalTokenIndex::new().with_compact_threshold(2);
        let mut g = IncrementalGraph::new();
        for i in 0..all.len() {
            let prefix = collection(&all[..=i]);
            let delta = idx.insert_batch(std::iter::once(prefix.iter().last().unwrap()));
            g.apply_delta(&idx, &delta, &prefix);
            let oracle = BlockingGraph::build(&prefix, &idx.snapshot_blocks());
            assert_integers_exact(g.graph(), &oracle);
        }
    }

    #[test]
    fn clean_clean_admissibility_respected() {
        let c = cc_collection(VALUES);
        let (idx, g) = stream(&c, 2);
        let oracle = BlockingGraph::build(&c, &idx.snapshot_blocks());
        assert_integers_exact(g.graph(), &oracle);
    }

    #[test]
    fn refresh_restores_bit_identity() {
        let c = collection(VALUES);
        let (idx, g) = stream(&c, 3);
        let blocks = idx.snapshot_blocks();
        for n in [1, 4] {
            let oracle = BlockingGraph::par_build(&c, &blocks, Parallelism::threads(n));
            let mut refreshed = g.clone();
            refreshed.refresh(&c, &blocks, Parallelism::threads(n));
            assert_eq!(refreshed.graph(), &oracle, "threads {n}");
            for (a, b) in refreshed.graph().edges().zip(oracle.edges()) {
                assert_eq!(
                    a.1.arcs.to_bits(),
                    b.1.arcs.to_bits(),
                    "ARCS bits {:?}",
                    a.0
                );
            }
        }
    }

    #[test]
    fn singleton_to_pair_transition_creates_the_block() {
        // "zeta" appears once (no block), then a second arrival shares it.
        let c = collection(&["zeta alone", "other words", "zeta again"]);
        let entities: Vec<_> = c.iter().collect();
        let mut idx = IncrementalTokenIndex::new();
        let mut g = IncrementalGraph::new();
        for e in &entities {
            let delta = idx.insert_batch(std::iter::once(*e));
            g.apply_delta(&idx, &delta, &c);
        }
        let oracle = BlockingGraph::build(&c, &idx.snapshot_blocks());
        assert_integers_exact(g.graph(), &oracle);
        assert_eq!(g.graph().total_blocks(), 1, "only the zeta block exists");
    }

    #[test]
    fn empty_graph_is_empty() {
        let g = IncrementalGraph::new();
        assert_eq!(g.graph().n_edges(), 0);
        assert_eq!(g.graph().n_entities(), 0);
    }
}
