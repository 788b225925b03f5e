//! Layout rows of the product oracle: the compact paths — interned-symbol
//! postings grouped by sort + run length (`er_blocking`) and the flat
//! blocking graph the node scan fills (`er_metablocking`) — against the
//! string-keyed / `BTreeMap` reference implementations, kept alive as
//! `build_reference` to be this oracle. Compact builds run serially and at
//! threads {1, 2, 4, 8}; graphs compare bitwise, ARCS weights by
//! `f64::to_bits`.

use er_blocking::attribute_clustering::AttributeClusteringBlocking;
use er_blocking::TokenBlocking;
use er_core::collection::EntityCollection;
use er_core::parallel::Parallelism;
use er_datagen::NoiseModel;
use er_integration_tests::{
    collection_from_values, dataset, graph_row, noise_sweep, row, threaded, values_strategy,
};
use er_metablocking::BlockingGraph;
use proptest::prelude::*;

/// The string-keyed reference against the compact build, serial and at
/// every thread count.
fn token_blocking_cells(c: &EntityCollection, ctx: &str) {
    let tb = TokenBlocking::new();
    let mut variants = threaded("compact", |par| tb.par_build(c, par));
    variants.push(("compact serial".into(), tb.build(c)));
    row(&tb.build_reference(c, Parallelism::serial()), ctx, variants);
}

/// The `BTreeMap` block-order fold against the flat build, serial and at
/// every thread count.
fn graph_cells(c: &EntityCollection, ctx: &str) {
    let blocks = TokenBlocking::new().build(c);
    let mut variants = threaded("flat", |par| BlockingGraph::par_build(c, &blocks, par));
    variants.push(("flat serial".into(), BlockingGraph::build(c, &blocks)));
    graph_row(&BlockingGraph::build_reference(c, &blocks), ctx, variants);
}

#[test]
fn compact_token_blocking_equals_reference_across_seeds_and_noise() {
    for seed in [7u64, 1234, 0xBE9C] {
        for (ctx, ds) in noise_sweep(220, seed) {
            token_blocking_cells(&ds.collection, &ctx);
        }
    }
}

#[test]
fn compact_attribute_clustering_equals_reference() {
    for seed in [11u64, 4242] {
        let c = &dataset(200, NoiseModel::moderate(), seed).collection;
        let acb = AttributeClusteringBlocking::new().with_link_threshold(0.1);
        let mut variants = threaded("compact", |par| acb.par_build(c, par));
        variants.push(("compact serial".into(), acb.build(c)));
        let reference = acb.build_reference(c, Parallelism::serial());
        row(&reference, &format!("seed={seed}"), variants);
    }
}

#[test]
fn flat_graph_equals_btreemap_reference_bitwise() {
    for seed in [99u64, 0xD1CE] {
        for (ctx, ds) in noise_sweep(250, seed) {
            graph_cells(&ds.collection, &ctx);
        }
    }
}

#[test]
fn flat_graph_lookup_agrees_with_reference_lookup() {
    let c = &dataset(200, NoiseModel::moderate(), 55).collection;
    let blocks = TokenBlocking::new().build(c);
    let compact = BlockingGraph::build(c, &blocks);
    for (pair, want) in BlockingGraph::build_reference(c, &blocks).edges() {
        let got = compact
            .edge(pair)
            .map(|e| (e.common_blocks, e.arcs.to_bits()));
        assert_eq!(
            got,
            Some((want.common_blocks, want.arcs.to_bits())),
            "{pair:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_compact_token_blocking_equals_reference(values in values_strategy()) {
        token_blocking_cells(&collection_from_values(&values), &format!("values={values:?}"));
    }

    /// The block-order f64 fold on irregular block-size distributions.
    #[test]
    fn prop_flat_graph_equals_reference(values in values_strategy()) {
        graph_cells(&collection_from_values(&values), &format!("values={values:?}"));
    }
}
