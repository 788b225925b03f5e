//! Edge weighting schemes of meta-blocking \[22\].
//!
//! Each scheme estimates, from co-occurrence patterns alone (no similarity
//! computation), how likely an edge's endpoints are to match:
//!
//! * **CBS** — Common Blocks Scheme: raw count of shared blocks.
//! * **ECBS** — Enhanced CBS: CBS discounted for entities that appear in many
//!   blocks (`CBS · log(B/|Bᵢ|) · log(B/|Bⱼ|)`).
//! * **JS** — Jaccard Scheme: shared blocks over union of blocks.
//! * **EJS** — Enhanced JS: JS discounted for high-degree nodes
//!   (`JS · log(E/|vᵢ|) · log(E/|vⱼ|)`).
//! * **ARCS** — Aggregate Reciprocal Comparisons: `Σ 1/‖b‖` over shared
//!   blocks, crediting co-occurrence in small (discriminative) blocks.

use crate::graph::{BlockingGraph, EdgeInfo};
use er_core::pair::Pair;
use er_core::parallel::{par_map, Parallelism};

/// The five weighting schemes of \[22\].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WeightingScheme {
    /// Common Blocks Scheme.
    Cbs,
    /// Enhanced Common Blocks Scheme.
    Ecbs,
    /// Jaccard Scheme.
    Js,
    /// Enhanced Jaccard Scheme.
    Ejs,
    /// Aggregate Reciprocal Comparisons Scheme.
    Arcs,
}

/// What an edge weight reads of one endpoint.
#[derive(Clone, Copy)]
pub(crate) struct NodeStats {
    /// Blocks containing the node.
    pub(crate) blocks: u32,
    /// [`WeightingScheme::node_discount`] of the node under ECBS / EJS
    /// (unread by the other schemes).
    pub(crate) discount: f64,
}

impl WeightingScheme {
    /// All schemes, for experiment grids.
    pub const ALL: [WeightingScheme; 5] = [
        WeightingScheme::Cbs,
        WeightingScheme::Ecbs,
        WeightingScheme::Js,
        WeightingScheme::Ejs,
        WeightingScheme::Arcs,
    ];

    /// Name for experiment output.
    pub fn name(self) -> &'static str {
        match self {
            WeightingScheme::Cbs => "CBS",
            WeightingScheme::Ecbs => "ECBS",
            WeightingScheme::Js => "JS",
            WeightingScheme::Ejs => "EJS",
            WeightingScheme::Arcs => "ARCS",
        }
    }

    /// Weight of one edge of the graph, or `None` when `pair` is not an
    /// edge. Probing a non-co-occurring pair is an ordinary query (the graph
    /// is sparse by construction), not a programming error — so it yields
    /// `None`, never a panic.
    pub fn weight(self, graph: &BlockingGraph, pair: Pair) -> Option<f64> {
        graph
            .edge(pair)
            .map(|info| self.weight_of(graph, pair, info))
    }

    /// The factor ECBS and EJS multiply into every edge incident to a node:
    /// `ln(total / count)`, with `total` the number of blocks (ECBS) or edges
    /// (EJS) and `count` the node's block count or degree. `max(…, 0)`: an
    /// entity can be in every block, making the log 0.
    pub(crate) fn node_discount(total: f64, count: u32) -> f64 {
        (total / count.max(1) as f64).ln().max(0.0)
    }

    /// The weight formulas, written once for the graph and for the
    /// node-centric scan ([`crate::scan`]). `ends` yields the statistics of
    /// the smaller and the larger endpoint; it is called only by the schemes
    /// that read them, so CBS and ARCS never touch a node table.
    pub(crate) fn edge_weight(
        self,
        info: EdgeInfo,
        ends: impl FnOnce() -> (NodeStats, NodeStats),
    ) -> f64 {
        let common = info.common_blocks as f64;
        let js = |a: NodeStats, b: NodeStats| {
            let union = a.blocks as f64 + b.blocks as f64 - common;
            if union == 0.0 {
                0.0
            } else {
                common / union
            }
        };
        match self {
            WeightingScheme::Cbs => common,
            WeightingScheme::Ecbs => {
                let (a, b) = ends();
                common * a.discount * b.discount
            }
            WeightingScheme::Js => {
                let (a, b) = ends();
                js(a, b)
            }
            WeightingScheme::Ejs => {
                let (a, b) = ends();
                js(a, b) * a.discount * b.discount
            }
            WeightingScheme::Arcs => info.arcs,
        }
    }

    /// Weight of a known edge given its co-occurrence info — the infallible
    /// hot path behind [`weight`](WeightingScheme::weight) and
    /// [`par_weigh_all`](WeightingScheme::par_weigh_all).
    fn weight_of(self, graph: &BlockingGraph, pair: Pair, info: EdgeInfo) -> f64 {
        let stats = |e| NodeStats {
            blocks: graph.block_count(e),
            discount: match self {
                WeightingScheme::Ecbs => {
                    Self::node_discount(graph.total_blocks() as f64, graph.block_count(e))
                }
                WeightingScheme::Ejs => {
                    Self::node_discount(graph.n_edges().max(1) as f64, graph.degree(e))
                }
                _ => 1.0,
            },
        };
        self.edge_weight(info, || (stats(pair.first()), stats(pair.second())))
    }

    /// Materializes all edge weights, in edge order.
    pub fn weigh_all(self, graph: &BlockingGraph) -> Vec<(Pair, f64)> {
        self.par_weigh_all(graph, Parallelism::serial())
    }

    /// Parallel [`weigh_all`]: every weight is a pure per-edge function of
    /// the (immutable) graph, so an order-preserving parallel map yields the
    /// exact same vector as the serial path at every thread count.
    ///
    /// [`weigh_all`]: WeightingScheme::weigh_all
    pub fn par_weigh_all(self, graph: &BlockingGraph, par: Parallelism) -> Vec<(Pair, f64)> {
        par_map(par, &graph.edges, |&(p, info)| {
            (p, self.weight_of(graph, p, info))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_blocking::block::{Block, BlockCollection};
    use er_core::collection::{EntityCollection, ResolutionMode};
    use er_core::entity::{EntityId, KbId};

    fn id(n: u32) -> EntityId {
        EntityId(n)
    }

    /// Entities 0,1 share two small blocks; 2 co-occurs with everyone once in
    /// one big block. A good scheme scores (0,1) above (0,2).
    fn graph() -> BlockingGraph {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for _ in 0..5 {
            c.push(KbId(0), vec![]);
        }
        let blocks = BlockCollection::new(vec![
            Block::new("s1", vec![id(0), id(1)]),
            Block::new("s2", vec![id(0), id(1)]),
            Block::new("big", vec![id(0), id(1), id(2), id(3), id(4)]),
            // Distractor blocks keep the graph non-degenerate: without them
            // entities 0/1 would sit in *every* block and ECBS's
            // log(B/|Bᵢ|) discount would zero out their edges.
            Block::new("d1", vec![id(2), id(4)]),
            Block::new("d2", vec![id(3), id(4)]),
            Block::new("d3", vec![id(2), id(4)]),
            Block::new("d4", vec![id(3), id(4)]),
        ]);
        BlockingGraph::build(&c, &blocks)
    }

    #[test]
    fn cbs_counts_common_blocks() {
        let g = graph();
        assert_eq!(
            WeightingScheme::Cbs.weight(&g, Pair::new(id(0), id(1))),
            Some(3.0)
        );
        assert_eq!(
            WeightingScheme::Cbs.weight(&g, Pair::new(id(0), id(2))),
            Some(1.0)
        );
    }

    #[test]
    fn js_normalizes_by_union() {
        let g = graph();
        // (0,1): common 3, |B0|=3, |B1|=3 → 3/(3+3-3)=1.
        let w01 = WeightingScheme::Js
            .weight(&g, Pair::new(id(0), id(1)))
            .unwrap();
        assert!((w01 - 1.0).abs() < 1e-12);
        // (0,2): common 1, |B0|=3, |B2|=3 (big, d1, d3) → 1/5.
        let w02 = WeightingScheme::Js
            .weight(&g, Pair::new(id(0), id(2)))
            .unwrap();
        assert!((w02 - 1.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn arcs_favors_small_blocks() {
        let g = graph();
        let strong = WeightingScheme::Arcs
            .weight(&g, Pair::new(id(0), id(1)))
            .unwrap();
        let weak = WeightingScheme::Arcs
            .weight(&g, Pair::new(id(2), id(3)))
            .unwrap();
        // strong = 1 + 1 + 1/10; weak = 1/10.
        assert!((strong - 2.1).abs() < 1e-12);
        assert!((weak - 0.1).abs() < 1e-12);
    }

    #[test]
    fn every_scheme_ranks_true_pair_highest() {
        let g = graph();
        let good = Pair::new(id(0), id(1));
        for scheme in WeightingScheme::ALL {
            let w_good = scheme.weight(&g, good).unwrap();
            for (p, _) in g.edges() {
                if p != good {
                    assert!(
                        w_good >= scheme.weight(&g, p).unwrap(),
                        "{} ranked {:?} above the double-co-occurring pair",
                        scheme.name(),
                        p
                    );
                }
            }
        }
    }

    #[test]
    fn weights_are_nonnegative_and_finite() {
        let g = graph();
        for scheme in WeightingScheme::ALL {
            for (p, w) in scheme.weigh_all(&g) {
                assert!(
                    w.is_finite() && w >= 0.0,
                    "{} on {:?} = {}",
                    scheme.name(),
                    p,
                    w
                );
            }
        }
    }

    #[test]
    fn weighting_non_edge_is_none_not_a_panic() {
        let g = graph();
        // 5 entities: ids 0..5; pair (0, 9) has a node outside any block,
        // and (2, 3) minus a shared block would be an edge — probe both a
        // wild id and a plausible-but-absent pair under every scheme.
        for scheme in WeightingScheme::ALL {
            assert_eq!(scheme.weight(&g, Pair::new(id(0), id(9))), None);
        }
        // Sanity: a real edge still weighs in under the Option signature.
        assert!(WeightingScheme::Ejs
            .weight(&g, Pair::new(id(0), id(1)))
            .is_some());
    }
}
