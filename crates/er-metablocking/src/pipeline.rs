//! End-to-end meta-blocking convenience API.

use crate::pruning::PruningScheme;
use crate::scan::node_scan;
use crate::weights::WeightingScheme;
use er_blocking::block::BlockCollection;
use er_core::collection::EntityCollection;
use er_core::obs::Obs;
use er_core::pair::Pair;
use er_core::parallel::Parallelism;

/// Restructures a blocking collection into a pruned comparison list: the
/// node-centric scan ([`node_scan`]) on the calling thread.
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

/// Parallel [`meta_block`]: node ranges are scanned under the given
/// [`Parallelism`], with output bit-identical to the serial path at every
/// thread count. Callers that want the blocked-comparison count or the
/// `meta_blocking.*` metrics call [`node_scan`] directly.
pub fn par_meta_block(
    collection: &EntityCollection,
    blocks: &BlockCollection,
    weighting: WeightingScheme,
    pruning: PruningScheme,
    par: Parallelism,
) -> Vec<Pair> {
    node_scan(
        collection,
        blocks,
        weighting,
        pruning,
        par,
        &Obs::disabled(),
    )
    .kept
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
