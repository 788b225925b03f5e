//! Quickstart: resolve a small dirty collection end-to-end.
//!
//! Demonstrates the core workflow of the library in ~60 lines:
//! build a collection → token blocking → meta-blocking → matching →
//! clustering → evaluation.
//!
//! Run with: `cargo run -p er-examples --bin quickstart`

use er_blocking::TokenBlocking;
use er_core::clusters::components_from_matches;
use er_core::collection::{EntityCollection, ResolutionMode};
use er_core::entity::{EntityBuilder, KbId};
use er_core::matching::{resolve_candidates, ThresholdMatcher};
use er_core::obs::Obs;
use er_core::parallel::Parallelism;
use er_core::similarity::SetMeasure;
use er_metablocking::{node_scan, PruningScheme, WeightingScheme};

fn main() {
    // 1. A hand-built collection of entity descriptions. Note the schema
    //    heterogeneity: the same person is described under different
    //    attribute names, exactly like on the Web of data.
    let mut collection = EntityCollection::new(ResolutionMode::Dirty);
    let descriptions = [
        vec![("name", "Alan Turing"), ("born", "1912 London")],
        vec![("fullName", "Alan M. Turing"), ("birthPlace", "London")],
        vec![("name", "Grace Hopper"), ("born", "1906 New York")],
        vec![("label", "Grace Brewster Hopper"), ("city", "New York")],
        vec![("name", "Ada Lovelace"), ("born", "1815 London")],
    ];
    for attrs in descriptions {
        let mut b = EntityBuilder::new();
        for (a, v) in attrs {
            b = b.attr(a, v);
        }
        collection.push_entity(KbId(0), b);
    }

    // 2. Blocking: schema-agnostic token blocking — two descriptions become
    //    candidates iff they share any token in any attribute value.
    let blocks = TokenBlocking::new().build(&collection);
    println!("token blocking produced {} blocks", blocks.len());
    for b in blocks.blocks() {
        println!("  [{}] -> {:?}", b.key(), b.entities());
    }

    // 3. Meta-blocking: weigh co-occurrence evidence and prune weak edges,
    //    one node neighbourhood at a time on the calling thread.
    let candidates = node_scan(
        &collection,
        &blocks,
        WeightingScheme::Arcs,
        PruningScheme::Wnp,
        Parallelism::serial(),
        &Obs::disabled(),
    )
    .kept;
    println!(
        "\nmeta-blocking kept {} candidate comparisons:",
        candidates.len()
    );
    for p in &candidates {
        println!("  {:?}", p);
    }

    // 4. Matching: a Jaccard threshold matcher over whole descriptions.
    let matcher = ThresholdMatcher::new(SetMeasure::Jaccard, 0.25);
    let matches = resolve_candidates(&collection, &matcher, &candidates);
    println!("\nmatcher accepted {} pairs:", matches.len());
    for p in &matches {
        let a = collection.entity(p.first());
        let b = collection.entity(p.second());
        println!(
            "  {:?} ({}) == {:?} ({})",
            p.first(),
            a.attributes()[0].1,
            p.second(),
            b.attributes()[0].1
        );
    }

    // 5. Clustering: pairwise decisions → resolved entities.
    println!("\nresolved entities:");
    for cluster in components_from_matches(collection.len(), &matches) {
        let names: Vec<&str> = cluster
            .iter()
            .map(|id| collection.entity(*id).attributes()[0].1.as_str())
            .collect();
        println!("  {names:?}");
    }
}
