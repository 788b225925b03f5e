//! Dataset-level properties of meta-blocking: pruning never invents pairs,
//! cuts comparisons substantially, and retains most of the recall — the
//! headline result of \[22\] — and, over random micro block collections, the
//! node-centric scan is the materialised graph's equal for every scheme pair.

use er_blocking::block::{Block, BlockCollection};
use er_blocking::TokenBlocking;
use er_core::collection::{EntityCollection, ResolutionMode};
use er_core::entity::{EntityId, KbId};
use er_core::metrics::BlockingQuality;
use er_core::obs::Obs;
use er_core::pair::Pair;
use er_core::parallel::Parallelism;
use er_datagen::{CleanCleanConfig, CleanCleanDataset, DirtyConfig, DirtyDataset, NoiseModel};
use er_metablocking::{meta_block, node_scan, BlockingGraph, PruningScheme, WeightingScheme};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn dirty() -> DirtyDataset {
    DirtyDataset::generate(&DirtyConfig::sized(400, NoiseModel::moderate(), 7))
}

#[test]
fn pruned_pairs_are_subset_of_blocking_pairs() {
    let ds = dirty();
    let blocks = TokenBlocking::new().build(&ds.collection);
    let all: BTreeSet<Pair> = blocks.distinct_pairs(&ds.collection).into_iter().collect();
    for weighting in WeightingScheme::ALL {
        for pruning in PruningScheme::CANONICAL {
            let kept = meta_block(&ds.collection, &blocks, weighting, pruning);
            for p in &kept {
                assert!(all.contains(p), "{}/{}", weighting.name(), pruning.name());
            }
            assert!(
                kept.len() < all.len(),
                "{}/{} should prune something on skewed data",
                weighting.name(),
                pruning.name()
            );
        }
    }
}

#[test]
fn graph_edge_count_equals_distinct_comparisons() {
    let ds = dirty();
    let blocks = TokenBlocking::new().build(&ds.collection);
    let graph = BlockingGraph::build(&ds.collection, &blocks);
    assert_eq!(graph.n_edges(), blocks.distinct_pairs(&ds.collection).len());
}

#[test]
fn weight_pruning_retains_most_recall() {
    let ds = dirty();
    let blocks = TokenBlocking::new().build(&ds.collection);
    let brute = ds.collection.total_possible_comparisons();
    let base = BlockingQuality::measure(&blocks.distinct_pairs(&ds.collection), &ds.truth, brute);
    for weighting in [
        WeightingScheme::Arcs,
        WeightingScheme::Ecbs,
        WeightingScheme::Js,
    ] {
        let kept = meta_block(&ds.collection, &blocks, weighting, PruningScheme::Wnp);
        let q = BlockingQuality::measure(&kept, &ds.truth, brute);
        assert!(
            q.pc() >= 0.80 * base.pc(),
            "{}: WNP lost too much recall ({} vs {})",
            weighting.name(),
            q.pc(),
            base.pc()
        );
        assert!(
            (q.comparisons as f64) < 0.7 * base.comparisons as f64,
            "{}: WNP should cut ≥30% of comparisons ({} of {})",
            weighting.name(),
            q.comparisons,
            base.comparisons
        );
        // Precision (PQ) must improve: that is the point of meta-blocking.
        assert!(
            q.pq() > base.pq(),
            "{}: PQ should improve",
            weighting.name()
        );
    }
}

#[test]
fn cardinality_pruning_is_more_aggressive_than_weight_pruning() {
    let ds = dirty();
    let blocks = TokenBlocking::new().build(&ds.collection);
    let wep = meta_block(
        &ds.collection,
        &blocks,
        WeightingScheme::Arcs,
        PruningScheme::Wep,
    );
    let cep = meta_block(
        &ds.collection,
        &blocks,
        WeightingScheme::Arcs,
        PruningScheme::Cep,
    );
    // CEP's budget is ⌊BC/2⌋ — on redundancy-light collections this is far
    // below what a mean-weight threshold keeps.
    assert!(
        cep.len() <= wep.len() * 2,
        "sanity: same order of magnitude"
    );
    let graph = BlockingGraph::build(&ds.collection, &blocks);
    assert!(cep.len() as u64 <= graph.total_assignments() / 2);
}

#[test]
fn clean_clean_metablocking_respects_kb_boundaries() {
    let ds = CleanCleanDataset::generate(&CleanCleanConfig {
        shared_entities: 100,
        only_first: 50,
        only_second: 50,
        seed: 9,
        ..Default::default()
    });
    let blocks = TokenBlocking::new().build(&ds.collection);
    for pruning in PruningScheme::CANONICAL {
        let kept = meta_block(&ds.collection, &blocks, WeightingScheme::Js, pruning);
        for p in kept {
            assert_ne!(
                ds.collection.entity(p.first()).kb(),
                ds.collection.entity(p.second()).kb(),
                "{}: same-KB comparison leaked through",
                pruning.name()
            );
        }
    }
}

#[test]
fn reciprocal_variants_nest_inside_union_variants() {
    let ds = dirty();
    let blocks = TokenBlocking::new().build(&ds.collection);
    let graph = BlockingGraph::build(&ds.collection, &blocks);
    for weighting in WeightingScheme::ALL {
        let wnp: BTreeSet<Pair> = PruningScheme::Wnp
            .prune(&graph, weighting)
            .into_iter()
            .collect();
        let rwnp: BTreeSet<Pair> = PruningScheme::ReciprocalWnp
            .prune(&graph, weighting)
            .into_iter()
            .collect();
        assert!(rwnp.is_subset(&wnp), "{}", weighting.name());
        let cnp: BTreeSet<Pair> = PruningScheme::Cnp
            .prune(&graph, weighting)
            .into_iter()
            .collect();
        let rcnp: BTreeSet<Pair> = PruningScheme::ReciprocalCnp
            .prune(&graph, weighting)
            .into_iter()
            .collect();
        assert!(rcnp.is_subset(&cnp), "{}", weighting.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The scan equals reference graph + prune — kept pairs and blocked
    /// count — on arbitrary small block collections: dirty and clean–clean,
    /// no entities or no blocks at all, a clean–clean collection that is one
    /// KB (every block has cardinality 0), blocks drawn from a single KB
    /// among cross-KB ones, and enough blocks to cross a 32-block chunk.
    #[test]
    fn prop_scan_equals_graph_and_prune(
        n in 0usize..14,
        clean_clean in any::<bool>(),
        kbs in 1u16..3,
        members in proptest::collection::vec(proptest::collection::vec(0usize..14, 0..7), 0..80),
    ) {
        let mode = if clean_clean { ResolutionMode::CleanClean } else { ResolutionMode::Dirty };
        let mut c = EntityCollection::new(mode);
        for e in 0..n {
            c.push(KbId(((e * 7) % 3) as u16 % kbs), vec![]);
        }
        // Members out of range are dropped; `BlockCollection::new` then
        // drops the blocks left with fewer than two of them.
        let blocks: BlockCollection = members
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let ids = m.iter().filter(|&&e| e < n).map(|&e| EntityId(e as u32));
                Block::new(format!("b{i}"), ids.collect())
            })
            .collect();
        let graph = BlockingGraph::build_reference(&c, &blocks);
        for weighting in WeightingScheme::ALL {
            for pruning in PruningScheme::ALL {
                let expected = pruning.prune(&graph, weighting);
                for threads in [1, 3] {
                    let got = node_scan(
                        &c, &blocks, weighting, pruning, Parallelism::threads(threads), &Obs::disabled(),
                    );
                    prop_assert_eq!(
                        got.blocked_comparisons, graph.n_edges() as u64,
                        "{}/{} threads={}", weighting.name(), pruning.name(), threads
                    );
                    prop_assert_eq!(
                        &got.kept, &expected,
                        "{}/{} threads={}", weighting.name(), pruning.name(), threads
                    );
                }
            }
        }
    }
}
