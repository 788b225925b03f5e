//! End-to-end meta-blocking convenience API.

use crate::graph::BlockingGraph;
use crate::pruning::PruningScheme;
use crate::weights::WeightingScheme;
use er_blocking::block::BlockCollection;
use er_core::collection::EntityCollection;
use er_core::colstore::{OocConfig, SegmentError};
use er_core::obs::Obs;
use er_core::pair::Pair;
use er_core::parallel::Parallelism;

/// Restructures a blocking collection into a pruned comparison list:
/// build graph → weigh edges → prune.
pub fn meta_block(
    collection: &EntityCollection,
    blocks: &BlockCollection,
    weighting: WeightingScheme,
    pruning: PruningScheme,
) -> Vec<Pair> {
    par_meta_block(
        collection,
        blocks,
        weighting,
        pruning,
        Parallelism::serial(),
    )
}

/// Parallel [`meta_block`]: graph construction, edge weighting and pruning
/// all run under the given [`Parallelism`], with output bit-identical to
/// the serial path at every thread count.
pub fn par_meta_block(
    collection: &EntityCollection,
    blocks: &BlockCollection,
    weighting: WeightingScheme,
    pruning: PruningScheme,
    par: Parallelism,
) -> Vec<Pair> {
    let graph = BlockingGraph::par_build(collection, blocks, par);
    prune_and_record(&graph, weighting, pruning, par, &Obs::disabled())
}

/// Out-of-core [`par_meta_block`] with observability: the graph is built
/// through [`BlockingGraph::par_build_ooc`], then weighted and pruned in
/// memory by [`prune_and_record`], which records the `meta_blocking.*`
/// series into `obs`.
pub fn par_meta_block_ooc_obs(
    collection: &EntityCollection,
    blocks: &BlockCollection,
    weighting: WeightingScheme,
    pruning: PruningScheme,
    par: Parallelism,
    obs: &Obs,
    cfg: &OocConfig,
) -> Result<Vec<Pair>, SegmentError> {
    let graph = BlockingGraph::par_build_ooc(collection, blocks, par, cfg)?;
    Ok(prune_and_record(&graph, weighting, pruning, par, obs))
}

/// Weighs and prunes a built graph — the step after the graph build, for
/// callers that also read the graph (its edge count is the number of
/// distinct blocked comparisons) — and records the number of weighted graph
/// edges (`meta_blocking.edges_weighted`), comparisons before and after
/// pruning (`meta_blocking.comparisons_{before,after}` — before is the edge
/// count, i.e. the distinct candidate pairs entering the graph), the
/// comparisons discarded (`meta_blocking.comparisons_pruned`), the pruning
/// ratio gauge (`meta_blocking.pruning_ratio` = pruned / before), and the
/// bytes moved through the sort-based edge aggregation
/// (`metablocking.edge_sort_bytes` — the compact-layout build statistic).
pub fn prune_and_record(
    graph: &BlockingGraph,
    weighting: WeightingScheme,
    pruning: PruningScheme,
    par: Parallelism,
    obs: &Obs,
) -> Vec<Pair> {
    let kept = pruning.par_prune(graph, weighting, par);
    if obs.is_enabled() {
        let before = graph.n_edges() as u64;
        let after = kept.len() as u64;
        obs.counter("meta_blocking.edges_weighted").add(before);
        obs.counter("meta_blocking.comparisons_before").add(before);
        obs.counter("meta_blocking.comparisons_after").add(after);
        obs.counter("meta_blocking.comparisons_pruned")
            .add(before.saturating_sub(after));
        obs.counter("metablocking.edge_sort_bytes")
            .add(graph.edge_sort_bytes());
        let ratio = if before == 0 {
            0.0
        } else {
            (before.saturating_sub(after)) as f64 / before as f64
        };
        obs.gauge("meta_blocking.pruning_ratio").set(ratio);
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_blocking::TokenBlocking;
    use er_core::collection::ResolutionMode;
    use er_core::entity::{EntityBuilder, KbId};

    #[test]
    fn pipeline_reduces_comparisons_and_keeps_duplicates() {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        // Two duplicate pairs plus noise entities sharing a common token.
        c.push_entity(
            KbId(0),
            EntityBuilder::new().attr("n", "alan turing common"),
        );
        c.push_entity(
            KbId(0),
            EntityBuilder::new().attr("n", "alan turing common"),
        );
        c.push_entity(
            KbId(0),
            EntityBuilder::new().attr("n", "grace hopper common"),
        );
        c.push_entity(
            KbId(0),
            EntityBuilder::new().attr("n", "grace hopper common"),
        );
        for i in 0..6 {
            c.push_entity(
                KbId(0),
                EntityBuilder::new().attr("n", format!("noise{i} common")),
            );
        }
        let blocks = TokenBlocking::new().build(&c);
        let all = blocks.distinct_pairs(&c).len();
        let kept = meta_block(&c, &blocks, WeightingScheme::Arcs, PruningScheme::Wep);
        assert!(kept.len() < all, "pruning must discard comparisons");
        let p01 = Pair::new(er_core::entity::EntityId(0), er_core::entity::EntityId(1));
        let p23 = Pair::new(er_core::entity::EntityId(2), er_core::entity::EntityId(3));
        assert!(kept.contains(&p01));
        assert!(kept.contains(&p23));
    }
}
