//! Layout-equivalence harness for the compact data paths.
//!
//! The compact layouts — interned-symbol token postings grouped by sort +
//! run-length (`er_blocking`), and the flat sort-aggregated blocking graph
//! (`er_metablocking`) — promise output **bit-identical** to the string-keyed
//! / `BTreeMap`-backed reference implementations they replaced. The reference
//! paths are kept alive as `build_reference` / `par_build_reference` exactly
//! so this suite can hold the promise to account:
//!
//! 1. `TokenBlocking::par_build` (compact) vs `build_reference`,
//! 2. `AttributeClusteringBlocking::par_build` (compact) vs `build_reference`,
//! 3. `BlockingGraph::build`/`par_build` (flat, sort-based) vs the
//!    `BTreeMap` reference — ARCS weights compared via `f64::to_bits`, so
//!    "close enough" is measurably not the contract,
//!
//! across generator seeds × noise levels × worker counts {1, 4}, plus
//! property tests over random micro-collections.

use er_blocking::attribute_clustering::AttributeClusteringBlocking;
use er_blocking::TokenBlocking;
use er_core::collection::{EntityCollection, ResolutionMode};
use er_core::entity::KbId;
use er_core::parallel::Parallelism;
use er_datagen::{DirtyConfig, DirtyDataset, NoiseModel};
use er_metablocking::BlockingGraph;
use proptest::prelude::*;

/// Worker counts the compact paths are checked at. 1 exercises the serial
/// fast path (single global interner / single chunk partial); 4 exercises
/// per-chunk interners absorbed in chunk order and the partial-merge fold.
const THREAD_COUNTS: [usize; 2] = [1, 4];

fn dataset(entities: usize, noise: NoiseModel, seed: u64) -> DirtyDataset {
    DirtyDataset::generate(&DirtyConfig::sized(entities, noise, seed))
}

fn collection_from_values(values: &[String]) -> EntityCollection {
    let mut c = EntityCollection::new(ResolutionMode::Dirty);
    for v in values {
        c.push(KbId(0), vec![("v".to_string(), v.clone())]);
    }
    c
}

fn values_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-e]{1,3}( [a-e]{1,3}){0,5}", 0..25)
}

/// Asserts two graphs carry the same edges with bitwise-equal ARCS weights
/// (PartialEq on f64 would already fail on any drift, but `to_bits` makes the
/// bit-identity claim explicit and catches a hypothetical -0.0 vs 0.0 split).
fn assert_graphs_bitwise_equal(compact: &BlockingGraph, reference: &BlockingGraph, ctx: &str) {
    assert_eq!(compact, reference, "graph diverged: {ctx}");
    let c: Vec<_> = compact.edges().collect();
    let r: Vec<_> = reference.edges().collect();
    assert_eq!(c.len(), r.len(), "edge count diverged: {ctx}");
    for ((cp, ce), (rp, re)) in c.iter().zip(&r) {
        assert_eq!(cp, rp, "edge order diverged: {ctx}");
        assert_eq!(ce.common_blocks, re.common_blocks, "CBS diverged: {ctx}");
        assert_eq!(
            ce.arcs.to_bits(),
            re.arcs.to_bits(),
            "ARCS not bit-identical at {cp:?}: {ctx}"
        );
    }
}

// ----------------------------------------------------------- token blocking

#[test]
fn compact_token_blocking_equals_reference_across_seeds_and_noise() {
    for (noise_name, noise) in NoiseModel::sweep() {
        for seed in [7u64, 1234, 0xBE9C] {
            let ds = dataset(220, noise, seed);
            let tb = TokenBlocking::new();
            let reference = tb.build_reference(&ds.collection, Parallelism::serial());
            for threads in THREAD_COUNTS {
                let compact = tb.par_build(&ds.collection, Parallelism::threads(threads));
                assert_eq!(
                    compact, reference,
                    "token blocking diverged: noise={noise_name} seed={seed} threads={threads}"
                );
            }
        }
    }
}

// ---------------------------------------------------- attribute clustering

#[test]
fn compact_attribute_clustering_equals_reference() {
    for seed in [11u64, 4242] {
        let ds = dataset(200, NoiseModel::moderate(), seed);
        let acb = AttributeClusteringBlocking::new().with_link_threshold(0.1);
        let reference = acb.build_reference(&ds.collection, Parallelism::serial());
        for threads in THREAD_COUNTS {
            let compact = acb.par_build(&ds.collection, Parallelism::threads(threads));
            assert_eq!(
                compact, reference,
                "attribute clustering diverged: seed={seed} threads={threads}"
            );
        }
    }
}

// ------------------------------------------------------------ graph layout

#[test]
fn flat_graph_equals_btreemap_reference_bitwise() {
    for (noise_name, noise) in NoiseModel::sweep() {
        for seed in [99u64, 0xD1CE] {
            let ds = dataset(250, noise, seed);
            let blocks = TokenBlocking::new().build(&ds.collection);
            let reference = BlockingGraph::build_reference(&ds.collection, &blocks);
            let serial = BlockingGraph::build(&ds.collection, &blocks);
            assert_graphs_bitwise_equal(
                &serial,
                &reference,
                &format!("noise={noise_name} seed={seed} serial"),
            );
            for threads in THREAD_COUNTS {
                let par = Parallelism::threads(threads);
                let compact = BlockingGraph::par_build(&ds.collection, &blocks, par);
                let par_ref = BlockingGraph::par_build_reference(&ds.collection, &blocks, par);
                let ctx = format!("noise={noise_name} seed={seed} threads={threads}");
                assert_graphs_bitwise_equal(&compact, &reference, &ctx);
                assert_graphs_bitwise_equal(&par_ref, &reference, &format!("{ctx} (par ref)"));
            }
        }
    }
}

#[test]
fn flat_graph_lookup_agrees_with_reference_lookup() {
    let ds = dataset(200, NoiseModel::moderate(), 55);
    let blocks = TokenBlocking::new().build(&ds.collection);
    let compact = BlockingGraph::build(&ds.collection, &blocks);
    let reference = BlockingGraph::build_reference(&ds.collection, &blocks);
    for (pair, _) in reference.edges() {
        let c = compact.edge(pair).expect("edge present in compact graph");
        let r = reference.edge(pair).unwrap();
        assert_eq!(c.common_blocks, r.common_blocks);
        assert_eq!(c.arcs.to_bits(), r.arcs.to_bits());
    }
}

// ---------------------------------------------------------- property tests

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Compact token blocking == string-keyed reference on arbitrary
    /// micro-collections at every thread count.
    #[test]
    fn prop_compact_token_blocking_equals_reference(values in values_strategy()) {
        let c = collection_from_values(&values);
        let tb = TokenBlocking::new();
        let reference = tb.build_reference(&c, Parallelism::serial());
        for threads in THREAD_COUNTS {
            let compact = tb.par_build(&c, Parallelism::threads(threads));
            prop_assert_eq!(&compact, &reference, "threads={}", threads);
        }
    }

    /// Flat sort-aggregated graph == BTreeMap reference on arbitrary
    /// micro-collections, exercising the two-level f64 grouping on irregular
    /// block-size distributions.
    #[test]
    fn prop_flat_graph_equals_reference(values in values_strategy()) {
        let c = collection_from_values(&values);
        let blocks = TokenBlocking::new().build(&c);
        let reference = BlockingGraph::build_reference(&c, &blocks);
        for threads in THREAD_COUNTS {
            let compact = BlockingGraph::par_build(&c, &blocks, Parallelism::threads(threads));
            prop_assert_eq!(&compact, &reference, "threads={}", threads);
            for (pair, e) in compact.edges() {
                let r = reference.edge(pair).unwrap();
                prop_assert_eq!(e.arcs.to_bits(), r.arcs.to_bits(),
                    "ARCS not bit-identical at {:?}", pair);
            }
        }
    }
}
