//! The blocking graph under streaming entity arrivals.
//!
//! [`IncrementalGraph`] keeps the graph of an
//! [`IncrementalTokenIndex`]'s blocks current: each
//! [`apply_delta`](IncrementalGraph::apply_delta) rebuilds it with
//! [`BlockingGraph::build`] over the index's snapshot, so after every batch
//! it equals the batch build over the same entities bit for bit, ARCS
//! included.
//!
//! No pipeline or streaming session reads this graph: `StreamingSession`
//! resolves without a blocking graph, and the type stays as a thin adapter
//! for callers that maintain one alongside a stream.

use crate::graph::BlockingGraph;
use er_blocking::block::BlockCollection;
use er_blocking::incremental::{IncrementalTokenIndex, IndexDelta};
use er_core::collection::EntityCollection;
use er_core::parallel::Parallelism;

/// A blocking graph kept equal to the batch build of an incremental index's
/// blocks after every batch.
#[derive(Clone, Default)]
pub struct IncrementalGraph {
    graph: BlockingGraph,
}

impl IncrementalGraph {
    /// Creates an empty graph (no entities, no edges).
    pub fn new() -> Self {
        Self::default()
    }

    /// The current graph.
    pub fn graph(&self) -> &BlockingGraph {
        &self.graph
    }

    /// Applies one batch: rebuilds the graph over `index`'s current blocks.
    /// `index` must be the post-batch index that produced `_delta`, and
    /// `collection` must contain every entity the index has seen.
    pub fn apply_delta(
        &mut self,
        index: &IncrementalTokenIndex,
        _delta: &IndexDelta,
        collection: &EntityCollection,
    ) {
        self.graph = BlockingGraph::build(collection, &index.snapshot_blocks());
    }

    /// Rebuilds the graph from `blocks` with [`BlockingGraph::par_build`],
    /// bit-identical at every thread count.
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
    use er_core::entity::{EntityBuilder, EntityId, KbId};
    use er_core::pair::Pair;

    #[test]
    fn singleton_to_pair_transition_creates_the_block() {
        // "zeta" appears once (no block), then a second arrival shares it.
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for v in ["zeta alone", "other words", "zeta again"] {
            c.push_entity(KbId(0), EntityBuilder::new().attr("n", v));
        }
        let mut idx = IncrementalTokenIndex::new();
        let mut g = IncrementalGraph::new();
        for (i, e) in c.iter().enumerate() {
            let delta = idx.insert_batch(std::iter::once(e));
            g.apply_delta(&idx, &delta, &c);
            let blocks = if i < 2 { 0 } else { 1 };
            assert_eq!(g.graph().total_blocks(), blocks, "after arrival {i}");
        }
        let zeta = g.graph().edge(Pair::new(EntityId(0), EntityId(2)));
        assert_eq!(zeta.map(|e| (e.common_blocks, e.arcs)), Some((1, 1.0)));
        assert_eq!(g.graph().n_edges(), 1, "only the zeta block exists");
    }

    #[test]
    fn empty_graph_is_empty() {
        let g = IncrementalGraph::new();
        assert_eq!(g.graph().n_edges(), 0);
        assert_eq!(g.graph().n_entities(), 0);
    }
}
