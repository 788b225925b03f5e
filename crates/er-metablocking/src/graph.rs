//! The blocking graph.
//!
//! Stored compactly: edges live in one flat `Vec<(Pair, EdgeInfo)>` sorted by
//! pair, built by **sort-based aggregation** (per-chunk contribution vectors,
//! stable sort, run merge) instead of `BTreeMap` accumulation — see
//! `docs/data_layout.md` for the layout and the bit-identity argument. The
//! pre-compact tree-map builder survives as
//! [`BlockingGraph::build_reference`] for the equivalence tests.

use er_blocking::block::{Block, BlockCollection};
use er_core::collection::EntityCollection;
use er_core::pair::Pair;
use er_core::parallel::{par_map_chunks, Parallelism};
use std::collections::BTreeMap;
use std::convert::Infallible;

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
#[derive(Clone, Debug)]
pub struct BlockingGraph {
    /// All edges, sorted by pair — lookups are a binary search, iteration is
    /// a cache-friendly linear scan. `pub(crate)` so the incremental
    /// maintainer ([`crate::incremental`]) can patch the graph in place.
    pub(crate) edges: Vec<(Pair, EdgeInfo)>,
    /// Blocks containing each entity.
    pub(crate) entity_block_counts: Vec<u32>,
    /// Distinct neighbors of each entity (node degree).
    pub(crate) degrees: Vec<u32>,
    pub(crate) total_blocks: u64,
    /// Total entity–block assignments (`BC`), used by cardinality pruning.
    pub(crate) total_assignments: u64,
    pub(crate) n_entities: usize,
    /// Bytes that flowed through the sort-based aggregation buffers (raw
    /// contributions + concatenated partials) — a build-path statistic, not
    /// part of the graph's value (excluded from `PartialEq`; 0 on the
    /// reference builder).
    pub(crate) edge_sort_bytes: u64,
}

/// Equality is over the graph's *value* — edges, node statistics, totals —
/// not over build-path diagnostics like
/// [`edge_sort_bytes`](BlockingGraph::edge_sort_bytes), so the compact and
/// reference builders compare equal when (and only when) their outputs are
/// bit-identical.
impl PartialEq for BlockingGraph {
    fn eq(&self, other: &Self) -> bool {
        self.edges == other.edges
            && self.entity_block_counts == other.entity_block_counts
            && self.degrees == other.degrees
            && self.total_blocks == other.total_blocks
            && self.total_assignments == other.total_assignments
            && self.n_entities == other.n_entities
    }
}

/// Blocks per accumulation chunk of [`chunk_partials`].
///
/// Fixed (never derived from the thread count or the batch length) so that
/// the left-to-right merge of per-chunk partials performs the exact same
/// sequence of `f64` additions on the ARCS accumulator at every parallelism
/// level, in memory and out of core — all builds are bit-identical by
/// construction.
pub(crate) const CHUNK_BLOCKS: usize = 32;

/// Per-chunk partial aggregation of the block scan: edge partials sorted by
/// pair, block counts sorted by entity index — both produced by sort +
/// run-length merge over flat contribution vectors.
pub(crate) struct ChunkPartial {
    edges: Vec<(Pair, EdgeInfo)>,
    block_counts: Vec<(u32, u32)>,
    /// Raw contribution entries emitted before run-merging (for the
    /// `edge_sort_bytes` statistic).
    raw_entries: u64,
}

/// Adds one contribution to a pair-sorted edge vector under construction:
/// **in place, left to right**. Fed a *stably* pair-sorted sequence, entries
/// of an equal pair arrive in emission order, so the accumulation performs
/// the exact `f64` addition sequence the `BTreeMap` reference path performs
/// (`or_default()` seeds 0.0, and `0.0 + x == x` bitwise for the strictly
/// positive ARCS contributions).
pub(crate) fn accumulate(out: &mut Vec<(Pair, EdgeInfo)>, (p, info): (Pair, EdgeInfo)) {
    match out.last_mut() {
        Some((last, acc)) if *last == p => {
            acc.common_blocks += info.common_blocks;
            acc.arcs += info.arcs;
        }
        _ => out.push((p, info)),
    }
}

/// Merges runs of equal pairs in a pair-sorted contribution vector
/// ([`accumulate`] over every entry).
pub(crate) fn merge_runs(sorted: Vec<(Pair, EdgeInfo)>) -> Vec<(Pair, EdgeInfo)> {
    let mut out: Vec<(Pair, EdgeInfo)> = Vec::new();
    for entry in sorted {
        accumulate(&mut out, entry);
    }
    out
}

/// The one chunk-partial producer: scans `blocks` in fixed [`CHUNK_BLOCKS`]
/// chunks and hands the partials to `sink` in chunk order, one vector per
/// `batch_blocks` blocks. Each chunk emits one flat `(Pair, EdgeInfo)`
/// contribution per block-pair occurrence, stable-sorts it by pair and
/// merges runs into a sorted partial. `batch_blocks` bounds how many
/// partials exist at once and must be a multiple of [`CHUNK_BLOCKS`] (or
/// `usize::MAX`: one batch) so it never moves a chunk boundary.
pub(crate) fn chunk_partials<E>(
    collection: &EntityCollection,
    blocks: &[Block],
    par: Parallelism,
    batch_blocks: usize,
    mut sink: impl FnMut(Vec<ChunkPartial>) -> Result<(), E>,
) -> Result<(), E> {
    assert!(batch_blocks == usize::MAX || batch_blocks.is_multiple_of(CHUNK_BLOCKS));
    for batch in blocks.chunks(batch_blocks) {
        sink(par_map_chunks(par, batch, CHUNK_BLOCKS, |chunk| {
            let mut contribs: Vec<(Pair, EdgeInfo)> = Vec::new();
            let mut counted: Vec<u32> = Vec::new();
            for b in chunk {
                let card = b.comparisons(collection);
                counted.extend(b.entities().iter().map(|e| e.index() as u32));
                if card == 0 {
                    continue;
                }
                let w = 1.0 / card as f64;
                contribs.extend(b.pairs(collection).map(|p| {
                    (
                        p,
                        EdgeInfo {
                            common_blocks: 1,
                            arcs: w,
                        },
                    )
                }));
            }
            let raw_entries = contribs.len() as u64;
            // Stable: equal pairs keep block order within the chunk.
            contribs.sort_by_key(|&(p, _)| p);
            let mut block_counts: Vec<(u32, u32)> = Vec::new();
            counted.sort_unstable();
            for idx in counted {
                match block_counts.last_mut() {
                    Some((last, c)) if *last == idx => *c += 1,
                    _ => block_counts.push((idx, 1)),
                }
            }
            ChunkPartial {
                edges: merge_runs(contribs),
                block_counts,
                raw_entries,
            }
        }))?;
    }
    Ok(())
}

/// The node-level side of a build: what the partials contribute besides
/// their edges.
pub(crate) struct PartialTally {
    entity_block_counts: Vec<u32>,
    /// Entries that flowed through the aggregation buffers: raw
    /// contributions plus partial edges.
    sort_entries: u64,
}

impl PartialTally {
    pub(crate) fn new(n_entities: usize) -> PartialTally {
        PartialTally {
            entity_block_counts: vec![0; n_entities],
            sort_entries: 0,
        }
    }

    /// Books a partial's block counts and entry counts; returns its edges.
    pub(crate) fn take(&mut self, partial: ChunkPartial) -> Vec<(Pair, EdgeInfo)> {
        for (idx, count) in partial.block_counts {
            self.entity_block_counts[idx as usize] += count;
        }
        self.sort_entries += partial.raw_entries + partial.edges.len() as u64;
        partial.edges
    }
}

impl BlockingGraph {
    /// Builds the graph in one pass over the blocks.
    pub fn build(collection: &EntityCollection, blocks: &BlockCollection) -> Self {
        Self::build_impl(collection, blocks, Parallelism::serial())
    }

    /// Parallel [`build`]: blocks are aggregated in fixed-size chunks across
    /// worker threads and the partials merged in chunk order, so the output
    /// (including the non-associative `f64` ARCS sums) is bit-identical to
    /// the serial path at every thread count.
    ///
    /// [`build`]: BlockingGraph::build
    pub fn par_build(
        collection: &EntityCollection,
        blocks: &BlockCollection,
        par: Parallelism,
    ) -> Self {
        Self::build_impl(collection, blocks, par)
    }

    /// Sort-based aggregation. The partials of [`chunk_partials`] are
    /// concatenated **in chunk order**, stable-sorted by pair and merged.
    /// The two-level grouping — within-chunk sums first, then partial sums
    /// in chunk order — performs the exact `f64` addition sequence of the
    /// reference `BTreeMap` fold, so serial, parallel and reference builds
    /// are all bit-identical.
    fn build_impl(
        collection: &EntityCollection,
        blocks: &BlockCollection,
        par: Parallelism,
    ) -> Self {
        let mut tally = PartialTally::new(collection.len());
        let mut flat: Vec<(Pair, EdgeInfo)> = Vec::new();
        let Ok(()) = chunk_partials(collection, blocks.blocks(), par, usize::MAX, |partials| {
            flat.reserve(partials.iter().map(|c| c.edges.len()).sum());
            for partial in partials {
                flat.extend(tally.take(partial));
            }
            Ok::<(), Infallible>(())
        });
        // A stable sort keeps each pair's partial sums in chunk order, and
        // the run merge adds them left-to-right — the same grouping as the
        // reference fold.
        flat.sort_by_key(|&(p, _)| p);
        Self::finish(collection, blocks, merge_runs(flat), tally)
    }

    /// The one graph finisher: degrees from the merged edges, node counts
    /// and `edge_sort_bytes` from the tally.
    pub(crate) fn finish(
        collection: &EntityCollection,
        blocks: &BlockCollection,
        edges: Vec<(Pair, EdgeInfo)>,
        tally: PartialTally,
    ) -> Self {
        let n = collection.len();
        let mut degrees = vec![0u32; n];
        for &(p, _) in &edges {
            degrees[p.first().index()] += 1;
            degrees[p.second().index()] += 1;
        }
        BlockingGraph {
            edges,
            entity_block_counts: tally.entity_block_counts,
            degrees,
            total_blocks: blocks.len() as u64,
            total_assignments: blocks.assignments(),
            n_entities: n,
            edge_sort_bytes: tally.sort_entries * std::mem::size_of::<(Pair, EdgeInfo)>() as u64,
        }
    }

    /// The pre-compact builder: per-chunk `BTreeMap` accumulation merged
    /// left-to-right into a global `BTreeMap`, exactly as shipped before the
    /// flat layout. Kept as the reference for the layout-equivalence tests;
    /// bit-identical to
    /// [`par_build`](BlockingGraph::par_build) at every thread count.
    pub fn build_reference(collection: &EntityCollection, blocks: &BlockCollection) -> Self {
        Self::par_build_reference(collection, blocks, Parallelism::serial())
    }

    /// Parallel [`build_reference`](BlockingGraph::build_reference).
    pub fn par_build_reference(
        collection: &EntityCollection,
        blocks: &BlockCollection,
        par: Parallelism,
    ) -> Self {
        let n = collection.len();
        let partials = par_map_chunks(par, blocks.blocks(), CHUNK_BLOCKS, |chunk: &[Block]| {
            let mut edges: BTreeMap<Pair, EdgeInfo> = BTreeMap::new();
            let mut block_counts: BTreeMap<usize, u32> = BTreeMap::new();
            for b in chunk {
                let card = b.comparisons(collection);
                for &e in b.entities() {
                    *block_counts.entry(e.index()).or_insert(0) += 1;
                }
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
            (edges, block_counts)
        });
        // Merge partials left-to-right (chunk order): each edge's ARCS
        // contributions are added in the same grouping regardless of how
        // many threads produced the partials.
        let mut edges: BTreeMap<Pair, EdgeInfo> = BTreeMap::new();
        let mut entity_block_counts = vec![0u32; n];
        for (chunk_edges, chunk_counts) in partials {
            for (p, part) in chunk_edges {
                let info = edges.entry(p).or_default();
                info.common_blocks += part.common_blocks;
                info.arcs += part.arcs;
            }
            for (idx, count) in chunk_counts {
                entity_block_counts[idx] += count;
            }
        }
        let mut degrees = vec![0u32; n];
        for p in edges.keys() {
            degrees[p.first().index()] += 1;
            degrees[p.second().index()] += 1;
        }
        BlockingGraph {
            edges: edges.into_iter().collect(),
            entity_block_counts,
            degrees,
            total_blocks: blocks.len() as u64,
            total_assignments: blocks.assignments(),
            n_entities: n,
            edge_sort_bytes: 0,
        }
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

    /// Bytes that flowed through the sort-based edge-aggregation buffers
    /// during the build (0 for [`build_reference`]-built graphs) — the
    /// `metablocking.edge_sort_bytes` observability statistic and a memory
    /// column of the layout experiment.
    ///
    /// [`build_reference`]: BlockingGraph::build_reference
    pub fn edge_sort_bytes(&self) -> u64 {
        self.edge_sort_bytes
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

    /// A collection + blocking large enough to span many chunks, with skew.
    fn chunk_spanning() -> (EntityCollection, BlockCollection) {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for _ in 0..60 {
            c.push(KbId(0), vec![]);
        }
        let mut blocks = Vec::new();
        for b in 0..150u32 {
            // Overlapping, varying-cardinality blocks: entity e joins block b
            // when they agree modulo a small prime — pairs recur across many
            // blocks, exercising the multi-chunk ARCS accumulation.
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
    fn edge_sort_bytes_is_a_build_statistic_not_graph_value() {
        let (c, blocks) = chunk_spanning();
        let compact = BlockingGraph::build(&c, &blocks);
        let reference = BlockingGraph::build_reference(&c, &blocks);
        assert!(compact.edge_sort_bytes() > 0);
        assert_eq!(reference.edge_sort_bytes(), 0);
        assert_eq!(compact, reference, "stat must not affect equality");
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
