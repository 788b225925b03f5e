//! Pruning schemes of meta-blocking \[22\].
//!
//! Pruning discards low-weighted edges of the blocking graph. The design
//! space is *weight-based* (a threshold) vs *cardinality-based* (a budget),
//! crossed with *edge-centric* (one global criterion) vs *node-centric* (a
//! criterion per node neighborhood):
//!
//! |               | weight threshold | cardinality budget |
//! |---------------|------------------|--------------------|
//! | edge-centric  | **WEP**: keep `w ≥` global mean | **CEP**: keep global top-`⌊BC/2⌋` |
//! | node-centric  | **WNP**: keep `w ≥` neighborhood mean | **CNP**: keep top-`⌊BC/|V|⌋` per node |
//!
//! Node-centric schemes emit an edge if it survives in *either* endpoint's
//! neighborhood; the *reciprocal* variants require *both*, trading recall for
//! precision.

use crate::graph::BlockingGraph;
use crate::weights::WeightingScheme;
use er_core::entity::EntityId;
use er_core::pair::Pair;
use er_core::parallel::{par_map, Parallelism};
use std::ops::Range;

/// The pruning schemes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PruningScheme {
    /// Weight Edge Pruning: global mean-weight threshold.
    Wep,
    /// Cardinality Edge Pruning: global top-`⌊BC/2⌋` edges.
    Cep,
    /// Weighted Node Pruning: per-neighborhood mean threshold (union).
    Wnp,
    /// Cardinality Node Pruning: per-node top-`k`, `k = ⌊BC/|V|⌋` (union).
    Cnp,
    /// Reciprocal WNP: edge must pass in both neighborhoods.
    ReciprocalWnp,
    /// Reciprocal CNP: edge must be in both endpoints' top-`k`.
    ReciprocalCnp,
}

impl PruningScheme {
    /// The four canonical schemes of \[22\], for experiment grids.
    pub const CANONICAL: [PruningScheme; 4] = [
        PruningScheme::Wep,
        PruningScheme::Cep,
        PruningScheme::Wnp,
        PruningScheme::Cnp,
    ];

    /// All six schemes: the canonical four and the reciprocal variants.
    pub const ALL: [PruningScheme; 6] = [
        PruningScheme::Wep,
        PruningScheme::Cep,
        PruningScheme::Wnp,
        PruningScheme::Cnp,
        PruningScheme::ReciprocalWnp,
        PruningScheme::ReciprocalCnp,
    ];

    /// Name for experiment output.
    pub fn name(self) -> &'static str {
        match self {
            PruningScheme::Wep => "WEP",
            PruningScheme::Cep => "CEP",
            PruningScheme::Wnp => "WNP",
            PruningScheme::Cnp => "CNP",
            PruningScheme::ReciprocalWnp => "rWNP",
            PruningScheme::ReciprocalCnp => "rCNP",
        }
    }

    /// Whether a node-centric scheme needs an edge to survive in *both*
    /// endpoints' neighbourhoods.
    pub(crate) fn is_reciprocal(self) -> bool {
        matches!(
            self,
            PruningScheme::ReciprocalWnp | PruningScheme::ReciprocalCnp
        )
    }

    /// CEP's global budget `⌊BC/2⌋` (at least 1).
    pub(crate) fn edge_budget(total_assignments: u64) -> usize {
        ((total_assignments / 2) as usize).max(1)
    }

    /// Applies the scheme to a graph under a weighting scheme, returning the
    /// retained comparisons in canonical pair order.
    pub fn prune(self, graph: &BlockingGraph, weighting: WeightingScheme) -> Vec<Pair> {
        self.prune_impl(graph, weighting, Parallelism::serial())
    }

    /// Parallel [`prune`]: edge weighting and the per-node survivor
    /// computation of the node-centric schemes run across worker threads;
    /// thresholds, sorts and survivor merging stay serial over
    /// deterministically ordered vectors. Output is bit-identical to the
    /// serial path at every thread count.
    ///
    /// [`prune`]: PruningScheme::prune
    pub fn par_prune(
        self,
        graph: &BlockingGraph,
        weighting: WeightingScheme,
        par: Parallelism,
    ) -> Vec<Pair> {
        self.prune_impl(graph, weighting, par)
    }

    fn prune_impl(
        self,
        graph: &BlockingGraph,
        weighting: WeightingScheme,
        par: Parallelism,
    ) -> Vec<Pair> {
        let weighted = weighting.par_weigh_all(graph, par);
        if weighted.is_empty() {
            return Vec::new();
        }
        if let Some(rule) = NodeRule::of(self, graph.total_assignments(), graph.n_entities()) {
            return self.node_centric(graph, &weighted, rule, par);
        }
        match self {
            PruningScheme::Cep => {
                let k = Self::edge_budget(graph.total_assignments());
                let mut sorted = weighted;
                sorted.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                let mut kept: Vec<Pair> = sorted.into_iter().take(k).map(|(p, _)| p).collect();
                kept.sort();
                kept
            }
            _ => {
                // WEP. Serial sum in edge order: the mean is identical at
                // every thread count because `weighted` is.
                let mean: f64 =
                    weighted.iter().map(|(_, w)| w).sum::<f64>() / weighted.len() as f64;
                weighted
                    .into_iter()
                    .filter(|(_, w)| *w >= mean)
                    .map(|(p, _)| p)
                    .collect()
            }
        }
    }

    fn node_centric(
        self,
        graph: &BlockingGraph,
        weighted: &[(Pair, f64)],
        rule: NodeRule,
        par: Parallelism,
    ) -> Vec<Pair> {
        // Adjacency as a CSR over the pair-sorted edges: every edge lands in
        // both endpoints' rows, and because the edges arrive in pair order
        // each row holds its neighbours in ascending id order.
        let n = graph.n_entities();
        let ends = weighted.iter().flat_map(|(p, _)| [p.first(), p.second()]);
        let offsets = csr_offsets(n, ends.map(EntityId::index));
        let mut cursor = offsets.clone();
        let mut neighbours = vec![EntityId(0); offsets[n]];
        let mut weights = vec![0.0f64; offsets[n]];
        for &(p, w) in weighted {
            for (u, v) in [(p.first(), p.second()), (p.second(), p.first())] {
                let at = &mut cursor[u.index()];
                neighbours[*at] = v;
                weights[*at] = w;
                *at += 1;
            }
        }
        // Each neighbourhood's decision is a pure function of its own row,
        // so node ranges run independently and only the survivors meet.
        let ranges = balanced_ranges(&offsets, par.effective());
        let survivors = par_map(par, &ranges, |nodes| {
            let mut out: Vec<Pair> = Vec::new();
            let mut order = Vec::new();
            for u in nodes.clone() {
                let row = offsets[u]..offsets[u + 1];
                let ids = &neighbours[row.clone()];
                let weights = &weights[row];
                rule.survivors(weights, weights.iter().sum(), &mut order, |i| {
                    out.push(Pair::new(EntityId(u as u32), ids[i]))
                });
            }
            out
        });
        merge_survivors(survivors.concat(), self.is_reciprocal())
    }
}

/// The per-neighbourhood criterion of the node-centric schemes.
#[derive(Clone, Copy)]
pub(crate) enum NodeRule {
    /// WNP / rWNP: keep edges at or above the neighbourhood's mean weight.
    MeanThreshold,
    /// CNP / rCNP: keep the `k` heaviest edges of the neighbourhood.
    TopK(usize),
}

impl NodeRule {
    /// The rule of a node-centric scheme (`k = ⌊BC/|V|⌋`, at least 1, for
    /// the cardinality ones); `None` for the edge-centric WEP and CEP.
    pub(crate) fn of(
        scheme: PruningScheme,
        total_assignments: u64,
        n_entities: usize,
    ) -> Option<NodeRule> {
        match scheme {
            PruningScheme::Wnp | PruningScheme::ReciprocalWnp => Some(NodeRule::MeanThreshold),
            PruningScheme::Cnp | PruningScheme::ReciprocalCnp => Some(NodeRule::TopK(
                (total_assignments as usize / n_entities.max(1)).max(1),
            )),
            PruningScheme::Wep | PruningScheme::Cep => None,
        }
    }

    /// Judges one neighbourhood: `weights` holds its edge weights with the
    /// neighbours in **ascending id order**, `sum` is
    /// `weights.iter().sum::<f64>()` (the scan folds it while it emits the
    /// weights), and `keep(i)` is called for every surviving position, in
    /// ascending order. The order is part of the contract twice over: the
    /// mean's sum runs left to right (`f64` addition does not associate),
    /// and top-`k` breaks weight ties towards the smaller neighbour id —
    /// which is the canonical pair order of the node's edges. `order` is
    /// selection scratch, reused across calls.
    pub(crate) fn survivors(
        self,
        weights: &[f64],
        sum: f64,
        order: &mut Vec<u32>,
        mut keep: impl FnMut(usize),
    ) {
        match self {
            NodeRule::TopK(k) if k < weights.len() => {
                order.clear();
                order.extend(0..weights.len() as u32);
                let heaviest_first = |&a: &u32, &b: &u32| {
                    weights[b as usize]
                        .total_cmp(&weights[a as usize])
                        .then(a.cmp(&b))
                };
                // The `k` heaviest are exactly the positions that rank no
                // later than the `k`-th; reading them off in position order
                // keeps the output ascending.
                let (_, &mut kth, _) =
                    order.select_nth_unstable_by(k.saturating_sub(1), heaviest_first);
                (0..weights.len() as u32)
                    .filter(|i| heaviest_first(i, &kth).is_le())
                    .for_each(|i| keep(i as usize));
            }
            NodeRule::TopK(_) => (0..weights.len()).for_each(keep),
            NodeRule::MeanThreshold => {
                let mean = sum / weights.len() as f64;
                (0..weights.len())
                    .filter(|&i| weights[i] >= mean)
                    .for_each(keep);
            }
        }
    }
}

/// The graph oracle's survivor merge: every node has pushed the pairs that
/// survive in its neighbourhood, so a pair occurs once per endpoint that
/// kept it. One sort, then a run-length read: any occurrence keeps the pair,
/// or both must when `reciprocal`. (The scan merges in linear time instead.)
fn merge_survivors(mut survivors: Vec<Pair>, reciprocal: bool) -> Vec<Pair> {
    survivors.sort_unstable();
    if reciprocal {
        survivors
            .windows(2)
            .filter(|w| w[0] == w[1])
            .map(|w| w[0])
            .collect()
    } else {
        survivors.dedup();
        survivors
    }
}

/// Row offsets of a CSR with `n` rows holding one entry per item of `rows`
/// (each item names its row): `n + 1` entries, row `r` owning
/// `offsets[r]..offsets[r + 1]`.
pub(crate) fn csr_offsets(n: usize, rows: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut offsets = vec![0usize; n + 1];
    for row in rows {
        offsets[row + 1] += 1;
    }
    for r in 0..n {
        offsets[r + 1] += offsets[r];
    }
    offsets
}

/// Splits the nodes `0..n` of a CSR (or any `n + 1` non-decreasing
/// cumulative costs starting at 0) into at most `parts` contiguous ranges
/// of near-equal cost — the unit of node-parallel work. Per-node results
/// never depend on where the boundaries fall.
pub(crate) fn balanced_ranges(cumulative: &[usize], parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    let n = cumulative.len().saturating_sub(1);
    let total = cumulative.last().copied().unwrap_or(0);
    let mut ranges = Vec::new();
    let mut start = 0;
    for part in 1..=parts {
        let end = if part == parts {
            n
        } else {
            let target = total / parts * part;
            cumulative.partition_point(|&c| c < target).clamp(start, n)
        };
        if end > start {
            ranges.push(start..end);
            start = end;
        }
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_blocking::block::{Block, BlockCollection};
    use er_core::collection::{EntityCollection, ResolutionMode};
    use er_core::entity::{EntityId, KbId};
    use std::collections::BTreeSet;

    fn id(n: u32) -> EntityId {
        EntityId(n)
    }

    /// Pairs (0,1) and (2,3) co-occur in dedicated blocks plus one big block
    /// containing everyone; cross pairs only share the big block.
    fn graph() -> BlockingGraph {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for _ in 0..4 {
            c.push(KbId(0), vec![]);
        }
        let blocks = BlockCollection::new(vec![
            Block::new("p01", vec![id(0), id(1)]),
            Block::new("p01b", vec![id(0), id(1)]),
            Block::new("p23", vec![id(2), id(3)]),
            Block::new("p23b", vec![id(2), id(3)]),
            Block::new("big", vec![id(0), id(1), id(2), id(3)]),
        ]);
        BlockingGraph::build(&c, &blocks)
    }

    fn good_pairs() -> [Pair; 2] {
        [Pair::new(id(0), id(1)), Pair::new(id(2), id(3))]
    }

    #[test]
    fn top_k_survivors_come_in_ascending_position_order() {
        // Ties at the cut (positions 1, 4 and 6 weigh 3.0) go to the smaller
        // positions.
        let weights = [1.0, 3.0, 5.0, 0.5, 3.0, 5.0, 3.0];
        let mut order = Vec::new();
        for (k, expected) in [
            (1, vec![2]),
            (3, vec![1, 2, 5]),
            (4, vec![1, 2, 4, 5]),
            (6, vec![0, 1, 2, 4, 5, 6]),
            (7, (0..7).collect()),
            (9, (0..7).collect()),
        ] {
            let mut kept = Vec::new();
            NodeRule::TopK(k).survivors(&weights, 0.0, &mut order, |i| kept.push(i));
            assert_eq!(kept, expected, "k={k}");
        }
    }

    #[test]
    fn wep_keeps_above_mean() {
        let g = graph();
        let kept = PruningScheme::Wep.prune(&g, WeightingScheme::Cbs);
        assert_eq!(kept, good_pairs().to_vec());
    }

    #[test]
    fn cep_budget_keeps_top_edges() {
        let g = graph();
        // BC = 2+2+2+2+4 = 12 → k = 6 ≥ all 6 edges: everything kept.
        let kept = PruningScheme::Cep.prune(&g, WeightingScheme::Cbs);
        assert_eq!(kept.len(), 6);
        // With ARCS the ordering is strict; verify top-2 are the good pairs
        // by shrinking the budget via a tiny graph instead.
    }

    #[test]
    fn wnp_is_per_neighborhood() {
        let g = graph();
        let kept = PruningScheme::Wnp.prune(&g, WeightingScheme::Cbs);
        for p in good_pairs() {
            assert!(kept.contains(&p));
        }
        // Every node's weak edges (weight 1 < its mean) are dropped.
        assert_eq!(kept, good_pairs().to_vec());
    }

    #[test]
    fn cnp_keeps_top_k_per_node() {
        let g = graph();
        // k = ⌊12/4⌋ = 3 per node: keeps everything here (degree 3).
        let kept = PruningScheme::Cnp.prune(&g, WeightingScheme::Cbs);
        assert_eq!(kept.len(), 6);
    }

    #[test]
    fn reciprocal_is_subset_of_union_variant() {
        let g = graph();
        for weighting in WeightingScheme::ALL {
            let wnp: BTreeSet<Pair> = PruningScheme::Wnp
                .prune(&g, weighting)
                .into_iter()
                .collect();
            let rwnp: BTreeSet<Pair> = PruningScheme::ReciprocalWnp
                .prune(&g, weighting)
                .into_iter()
                .collect();
            assert!(rwnp.is_subset(&wnp), "{}", weighting.name());
            let cnp: BTreeSet<Pair> = PruningScheme::Cnp
                .prune(&g, weighting)
                .into_iter()
                .collect();
            let rcnp: BTreeSet<Pair> = PruningScheme::ReciprocalCnp
                .prune(&g, weighting)
                .into_iter()
                .collect();
            assert!(rcnp.is_subset(&cnp), "{}", weighting.name());
        }
    }

    #[test]
    fn pruned_edges_are_graph_edges() {
        let g = graph();
        for pruning in PruningScheme::ALL {
            for weighting in WeightingScheme::ALL {
                for p in pruning.prune(&g, weighting) {
                    assert!(g.edge(p).is_some());
                }
            }
        }
    }

    #[test]
    fn empty_graph_prunes_to_nothing() {
        let c = EntityCollection::new(ResolutionMode::Dirty);
        let g = BlockingGraph::build(&c, &BlockCollection::default());
        assert!(PruningScheme::Wep
            .prune(&g, WeightingScheme::Cbs)
            .is_empty());
        assert!(PruningScheme::Cnp
            .prune(&g, WeightingScheme::Arcs)
            .is_empty());
    }

    #[test]
    fn good_pairs_survive_every_scheme_combination() {
        let g = graph();
        for pruning in PruningScheme::CANONICAL {
            for weighting in WeightingScheme::ALL {
                let kept = pruning.prune(&g, weighting);
                for p in good_pairs() {
                    assert!(
                        kept.contains(&p),
                        "{}/{} dropped a strongly co-occurring pair",
                        pruning.name(),
                        weighting.name()
                    );
                }
            }
        }
    }
}
