//! The blocking graph.
//!
//! Stored compactly: edges live in one flat `Vec<(Pair, EdgeInfo)>` sorted by
//! pair. [`BlockingGraph::par_build`] fills it with the node scan's walk
//! keeping every edge (`scan::graph_edges`), so a pair's ARCS is the plain
//! block-order sum the scan weighs — see `docs/data_layout.md`. The
//! tree-map fold over the blocks in order survives as
//! [`BlockingGraph::build_reference`], the oracle of the equivalence tests.

use crate::scan::graph_edges;
use er_blocking::block::BlockCollection;
use er_core::collection::EntityCollection;
use er_core::colstore::{OocConfig, SegmentError};
use er_core::pair::Pair;
use er_core::parallel::Parallelism;
use std::collections::BTreeMap;

/// Per-edge co-occurrence statistics gathered while scanning the blocks.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EdgeInfo {
    /// Number of blocks shared by the two endpoints (the CBS weight).
    pub common_blocks: u32,
    /// `Σ 1/‖b‖` over the shared blocks (the ARCS weight): co-occurring in a
    /// small block is strong evidence, in a huge block almost none.
    pub arcs: f64,
}

/// The blocking graph of a blocking collection: one node per description,
/// one undirected edge per co-occurring admissible pair, plus the node-level
/// statistics the weighting schemes need.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BlockingGraph {
    /// All edges, sorted by pair — lookups are a binary search, iteration is
    /// a cache-friendly linear scan.
    pub(crate) edges: Vec<(Pair, EdgeInfo)>,
    /// Blocks containing each entity.
    entity_block_counts: Vec<u32>,
    /// Distinct neighbors of each entity (node degree).
    degrees: Vec<u32>,
    total_blocks: u64,
    /// Total entity–block assignments (`BC`), used by cardinality pruning.
    total_assignments: u64,
    n_entities: usize,
}

impl BlockingGraph {
    /// Builds the graph in one pass over the blocks.
    pub fn build(collection: &EntityCollection, blocks: &BlockCollection) -> Self {
        Self::par_build(collection, blocks, Parallelism::serial())
    }

    /// Parallel [`build`]: the node scan's walk over contiguous node ranges,
    /// keeping every edge. A pair's ARCS is folded inside one node's walk,
    /// so the output is bit-identical to the serial path at every thread
    /// count.
    ///
    /// [`build`]: BlockingGraph::build
    pub fn par_build(
        collection: &EntityCollection,
        blocks: &BlockCollection,
        par: Parallelism,
    ) -> Self {
        Self::from_edges(collection, blocks, graph_edges(collection, blocks, par))
    }

    /// [`par_build`](BlockingGraph::par_build) under an out-of-core
    /// configuration. `cfg` is not read: the graph is the build's in-memory
    /// output either way, and the scan's walk holds no contribution stream
    /// to spill, so nothing reaches `cfg.segment_dir` and no error arises.
    pub fn par_build_ooc(
        collection: &EntityCollection,
        blocks: &BlockCollection,
        par: Parallelism,
        _cfg: &OocConfig,
    ) -> Result<Self, SegmentError> {
        Ok(Self::par_build(collection, blocks, par))
    }

    /// The graph of pair-sorted `edges`, the one finisher of every builder:
    /// degrees from the edges, block counts and totals from `blocks`.
    fn from_edges(
        collection: &EntityCollection,
        blocks: &BlockCollection,
        edges: Vec<(Pair, EdgeInfo)>,
    ) -> Self {
        let n = collection.len();
        let mut degrees = vec![0u32; n];
        for &(p, _) in &edges {
            degrees[p.first().index()] += 1;
            degrees[p.second().index()] += 1;
        }
        let mut entity_block_counts = vec![0u32; n];
        for e in blocks.blocks().iter().flat_map(|b| b.entities()) {
            entity_block_counts[e.index()] += 1;
        }
        BlockingGraph {
            edges,
            entity_block_counts,
            degrees,
            total_blocks: blocks.len() as u64,
            total_assignments: blocks.assignments(),
            n_entities: n,
        }
    }

    /// The reference builder: one `BTreeMap` fold over the blocks in order,
    /// each block adding `1/‖b‖` to every pair it holds — ARCS by its
    /// definition. The oracle of the equivalence tests; bit-identical to
    /// [`par_build`](BlockingGraph::par_build) at every thread count.
    pub fn build_reference(collection: &EntityCollection, blocks: &BlockCollection) -> Self {
        let mut edges: BTreeMap<Pair, EdgeInfo> = BTreeMap::new();
        for b in blocks.blocks() {
            let card = b.comparisons(collection);
            if card == 0 {
                continue;
            }
            let w = 1.0 / card as f64;
            for p in b.pairs(collection) {
                let info = edges.entry(p).or_default();
                info.common_blocks += 1;
                info.arcs += w;
            }
        }
        Self::from_edges(collection, blocks, edges.into_iter().collect())
    }

    /// Number of nodes (all collection entities, including isolated ones).
    pub fn n_entities(&self) -> usize {
        self.n_entities
    }

    /// Number of edges = distinct comparisons of the input collection.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over edges with their co-occurrence info, in pair order.
    pub fn edges(&self) -> impl Iterator<Item = (Pair, EdgeInfo)> + '_ {
        self.edges.iter().copied()
    }

    /// Co-occurrence info of one edge, if present — a binary search over the
    /// pair-sorted edge vector.
    pub fn edge(&self, pair: Pair) -> Option<EdgeInfo> {
        self.edges
            .binary_search_by_key(&pair, |&(p, _)| p)
            .ok()
            .map(|i| self.edges[i].1)
    }

    /// Bytes of edge contributions the build sorted: always 0, since no
    /// builder sorts contributions (the walk folds each pair inside one
    /// node's neighbourhood). Kept as the `metablocking.edge_sort_bytes`
    /// statistic's source.
    pub fn edge_sort_bytes(&self) -> u64 {
        0
    }

    /// Number of blocks containing `entity`.
    pub fn block_count(&self, entity: er_core::entity::EntityId) -> u32 {
        self.entity_block_counts[entity.index()]
    }

    /// Distinct neighbors of `entity`.
    pub fn degree(&self, entity: er_core::entity::EntityId) -> u32 {
        self.degrees[entity.index()]
    }

    /// Total number of blocks in the input collection.
    pub fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    /// Total entity–block assignments of the input collection.
    pub fn total_assignments(&self) -> u64 {
        self.total_assignments
    }

    /// Renders the graph in Graphviz DOT format with edges labeled by a
    /// weighting scheme — a debugging/teaching aid for small graphs. Graphs
    /// above `max_edges` are truncated to their heaviest edges (noted in a
    /// graph comment), since DOT rendering beyond a few hundred edges is
    /// unreadable anyway.
    pub fn to_dot(&self, weighting: crate::weights::WeightingScheme, max_edges: usize) -> String {
        let mut weighted: Vec<(Pair, f64)> = self
            .edges()
            .filter_map(|(p, _)| weighting.weight(self, p).map(|w| (p, w)))
            .collect();
        weighted.sort_by(|a, b| b.1.total_cmp(&a.1));
        let truncated = weighted.len() > max_edges;
        weighted.truncate(max_edges);
        let mut out = String::from("graph blocking {\n");
        if truncated {
            out.push_str(&format!(
                "  // truncated to the {max_edges} heaviest of {} edges\n",
                self.n_edges()
            ));
        }
        out.push_str(&format!("  // weighting: {}\n", weighting.name()));
        for (p, w) in weighted {
            out.push_str(&format!(
                "  e{} -- e{} [label=\"{:.3}\"];\n",
                p.first().0,
                p.second().0,
                w
            ));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_blocking::block::Block;
    use er_core::collection::ResolutionMode;
    use er_core::entity::{EntityId, KbId};

    fn id(n: u32) -> EntityId {
        EntityId(n)
    }

    fn setup() -> (EntityCollection, BlockCollection) {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for _ in 0..4 {
            c.push(KbId(0), vec![]);
        }
        let blocks = BlockCollection::new(vec![
            Block::new("a", vec![id(0), id(1)]),
            Block::new("b", vec![id(0), id(1), id(2)]),
            Block::new("c", vec![id(2), id(3)]),
        ]);
        (c, blocks)
    }

    #[test]
    fn edges_collapse_redundancy() {
        let (c, blocks) = setup();
        let g = BlockingGraph::build(&c, &blocks);
        // Distinct pairs: (0,1) ×2 blocks, (0,2), (1,2), (2,3).
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.edge(Pair::new(id(0), id(1))).unwrap().common_blocks, 2);
        assert_eq!(g.edge(Pair::new(id(0), id(2))).unwrap().common_blocks, 1);
        assert!(g.edge(Pair::new(id(0), id(3))).is_none());
    }

    #[test]
    fn arcs_accumulates_inverse_cardinality() {
        let (c, blocks) = setup();
        let g = BlockingGraph::build(&c, &blocks);
        // (0,1): block a (1 comparison) + block b (3 comparisons).
        let e = g.edge(Pair::new(id(0), id(1))).unwrap();
        assert!((e.arcs - (1.0 + 1.0 / 3.0)).abs() < 1e-12);
        // (2,3): block c only.
        let e2 = g.edge(Pair::new(id(2), id(3))).unwrap();
        assert!((e2.arcs - 1.0).abs() < 1e-12);
    }

    #[test]
    fn node_statistics() {
        let (c, blocks) = setup();
        let g = BlockingGraph::build(&c, &blocks);
        assert_eq!(g.block_count(id(0)), 2);
        assert_eq!(g.block_count(id(3)), 1);
        assert_eq!(g.degree(id(0)), 2); // neighbors 1, 2
        assert_eq!(g.degree(id(2)), 3); // neighbors 0, 1, 3
        assert_eq!(g.total_blocks(), 3);
        assert_eq!(g.total_assignments(), 7);
        assert_eq!(g.n_entities(), 4);
    }

    #[test]
    fn clean_clean_graph_omits_same_kb_edges() {
        let mut c = EntityCollection::new(ResolutionMode::CleanClean);
        c.push(KbId(0), vec![]);
        c.push(KbId(0), vec![]);
        c.push(KbId(1), vec![]);
        let blocks = BlockCollection::new(vec![Block::new("a", vec![id(0), id(1), id(2)])]);
        let g = BlockingGraph::build(&c, &blocks);
        assert_eq!(g.n_edges(), 2);
        assert!(g.edge(Pair::new(id(0), id(1))).is_none());
    }

    #[test]
    fn dot_export_renders_and_truncates() {
        let (c, blocks) = setup();
        let g = BlockingGraph::build(&c, &blocks);
        let dot = g.to_dot(crate::weights::WeightingScheme::Cbs, 100);
        assert!(dot.starts_with("graph blocking {"));
        assert!(dot.contains("e0 -- e1"));
        assert!(dot.trim_end().ends_with('}'));
        let truncated = g.to_dot(crate::weights::WeightingScheme::Cbs, 2);
        assert!(truncated.contains("truncated to the 2 heaviest of 4 edges"));
        // The heaviest CBS edge (two shared blocks) survives truncation.
        assert!(truncated.contains("e0 -- e1"));
        assert_eq!(truncated.matches(" -- ").count(), 2);
    }

    #[test]
    fn empty_blocks_give_empty_graph() {
        let c = EntityCollection::new(ResolutionMode::Dirty);
        let g = BlockingGraph::build(&c, &BlockCollection::default());
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.n_entities(), 0);
    }

    /// A collection + blocking with many overlapping blocks, with skew.
    fn chunk_spanning() -> (EntityCollection, BlockCollection) {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for _ in 0..60 {
            c.push(KbId(0), vec![]);
        }
        let mut blocks = Vec::new();
        for b in 0..150u32 {
            // Overlapping, varying-cardinality blocks: entity e joins block b
            // when they agree modulo a small prime — pairs recur across many
            // blocks, exercising long ARCS sums.
            let members: Vec<EntityId> = (0..60u32)
                .filter(|e| (e + b) % (2 + b % 5) == 0)
                .map(id)
                .collect();
            blocks.push(Block::new(format!("k{b}"), members));
        }
        (c, BlockCollection::new(blocks))
    }

    #[test]
    fn compact_build_matches_reference_bitwise_at_all_thread_counts() {
        let (c, blocks) = chunk_spanning();
        let reference = BlockingGraph::build_reference(&c, &blocks);
        assert!(reference.n_edges() > 100, "needs a non-trivial graph");
        for n in [1, 2, 4] {
            let compact = BlockingGraph::par_build(&c, &blocks, Parallelism::threads(n));
            assert_eq!(compact, reference, "thread count {n}");
            // PartialEq covers f64 ==, but make the bitwise claim explicit.
            for ((p1, i1), (p2, i2)) in compact.edges().zip(reference.edges()) {
                assert_eq!(p1, p2);
                assert_eq!(i1.arcs.to_bits(), i2.arcs.to_bits(), "ARCS bits at {p1:?}");
            }
        }
    }

    #[test]
    fn edge_lookup_binary_search_agrees_with_iteration() {
        let (c, blocks) = chunk_spanning();
        let g = BlockingGraph::build(&c, &blocks);
        for (p, info) in g.edges() {
            assert_eq!(g.edge(p), Some(info));
        }
        assert_eq!(g.edge(Pair::new(id(0), id(59))).is_some(), {
            g.edges().any(|(p, _)| p == Pair::new(id(0), id(59)))
        });
    }
}
