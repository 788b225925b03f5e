//! Cross-method properties of the blocking algorithms, checked on generated
//! datasets and random micro-collections.

use er_blocking::cleaning;
use er_blocking::qgrams::QGramsBlocking;
use er_blocking::simjoin::{JoinAlgorithm, JoinOutput, SimilarityJoin};
use er_blocking::sorted_neighborhood::{SortKey, SortedNeighborhood};
use er_blocking::token::{blocks_from_profiles, TokenBlocking};
use er_core::collection::{EntityCollection, ResolutionMode};
use er_core::entity::KbId;
use er_core::metrics::BlockingQuality;
use er_core::obs::Obs;
use er_core::pair::Pair;
use er_core::parallel::Parallelism;
use er_core::profiles::TokenProfiles;
use er_core::tokenize::Tokenizer;
use er_datagen::{DirtyConfig, DirtyDataset, NoiseModel};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn collection_from_values(values: &[String]) -> EntityCollection {
    let mut c = EntityCollection::new(ResolutionMode::Dirty);
    for v in values {
        c.push(KbId(0), vec![("v".to_string(), v.clone())]);
    }
    c
}

fn values_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-d]{1,3}( [a-d]{1,3}){0,4}", 0..20)
}

/// The words the transpose property draws values from: stop words, a
/// spelling that normalizes onto another word, and tokens on both sides of
/// a four-character length floor.
const WORDS: [&str; 9] = [
    "the", "of", "alan", "Alan!", "turing", "ab", "grace", "hopper", "x",
];

/// One description: its KB (clean–clean only), up to three values of up to
/// four words each — so empty descriptions, empty values and stop-word-only
/// values all occur — and whether its first value repeats under a second
/// attribute.
type Description = (u16, Vec<Vec<usize>>, bool);

fn descriptions_strategy() -> impl Strategy<Value = Vec<Description>> {
    let value = proptest::collection::vec(0..WORDS.len(), 0..5);
    let description = (
        0u16..2,
        proptest::collection::vec(value, 0..4),
        any::<bool>(),
    );
    // Up to 160 descriptions: parallel builds span several interning chunks.
    proptest::collection::vec(description, 0..160)
}

fn collection_of(clean_clean: bool, descriptions: &[Description]) -> EntityCollection {
    let mode = if clean_clean {
        ResolutionMode::CleanClean
    } else {
        ResolutionMode::Dirty
    };
    let mut c = EntityCollection::new(mode);
    for (kb, values, repeat) in descriptions {
        let mut attributes: Vec<(String, String)> = values
            .iter()
            .enumerate()
            .map(|(i, words)| {
                let value: Vec<&str> = words.iter().map(|&w| WORDS[w]).collect();
                (format!("a{i}"), value.join(" "))
            })
            .collect();
        if let (true, Some((_, first))) = (*repeat, attributes.first().cloned()) {
            attributes.push(("again".to_string(), first));
        }
        c.push(KbId(if clean_clean { *kb } else { 0 }), attributes);
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Token blocks as the transpose of the token profiles are the
    /// string-keyed reference build — block order, keys and members — for
    /// every tokenizer, at every thread count, in both resolution modes.
    #[test]
    fn token_blocks_from_profiles_equal_the_reference_build(
        clean_clean in any::<bool>(),
        descriptions in descriptions_strategy(),
    ) {
        let c = collection_of(clean_clean, &descriptions);
        for tokenizer in [
            Tokenizer::default(),
            Tokenizer::raw(),
            Tokenizer::raw().with_stopwords(["alan", "x"]),
            Tokenizer::default().with_min_len(4),
        ] {
            let reference = TokenBlocking::new()
                .with_tokenizer(tokenizer.clone())
                .build_reference(&c, Parallelism::serial());
            for threads in [1, 2, 4] {
                let profiles = TokenProfiles::build(&c, &tokenizer, Parallelism::threads(threads));
                let blocks = blocks_from_profiles(&profiles, &Obs::disabled());
                prop_assert_eq!(&blocks, &reference, "{:?} threads={}", tokenizer, threads);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// PPJoin and AllPairs must return exactly the naive join's result set —
    /// the filters are lossless by construction.
    #[test]
    fn simjoin_filters_are_lossless(values in values_strategy(), tq in 1u32..10) {
        let t = tq as f64 / 10.0;
        let c = collection_from_values(&values);
        let key = |o: &JoinOutput| o.pairs.iter().map(|(p, _)| *p).collect::<Vec<Pair>>();
        let naive = SimilarityJoin::new(t, JoinAlgorithm::Naive).run(&c);
        let ap = SimilarityJoin::new(t, JoinAlgorithm::AllPairs).run(&c);
        let pp = SimilarityJoin::new(t, JoinAlgorithm::PPJoin).run(&c);
        prop_assert_eq!(key(&naive), key(&ap));
        prop_assert_eq!(key(&naive), key(&pp));
        prop_assert!(ap.candidates_verified <= naive.candidates_verified);
        prop_assert!(pp.candidates_verified <= ap.candidates_verified);
    }

    /// Token blocking's candidate set contains every pair any Jaccard join
    /// (threshold > 0) can return: a positive Jaccard needs a shared token,
    /// which puts the pair in a common block.
    #[test]
    fn token_blocking_covers_jaccard_joins(values in values_strategy(), tq in 1u32..10) {
        let t = tq as f64 / 10.0;
        let c = collection_from_values(&values);
        let blocked: BTreeSet<Pair> =
            TokenBlocking::new().build(&c).distinct_pairs(&c).into_iter().collect();
        let join = SimilarityJoin::new(t, JoinAlgorithm::PPJoin).run(&c);
        for (p, _) in &join.pairs {
            prop_assert!(blocked.contains(p), "join pair {:?} missing from token blocking", p);
        }
    }

    /// Purging and filtering only remove comparisons — they never invent new
    /// candidate pairs.
    #[test]
    fn cleaning_is_monotone_decreasing(values in values_strategy(), ratio_q in 1u32..=10) {
        let c = collection_from_values(&values);
        let blocks = TokenBlocking::new().build(&c);
        let all: BTreeSet<Pair> = blocks.distinct_pairs(&c).into_iter().collect();
        let purged = cleaning::auto_purge(&blocks, &c);
        for p in purged.distinct_pairs(&c) {
            prop_assert!(all.contains(&p));
        }
        let filtered = cleaning::filter_blocks(&blocks, &c, ratio_q as f64 / 10.0);
        for p in filtered.distinct_pairs(&c) {
            prop_assert!(all.contains(&p));
        }
        prop_assert!(filtered.assignments() <= blocks.assignments());
    }

    /// Sorted-neighborhood candidates grow monotonically with the window.
    #[test]
    fn sn_window_monotone(values in values_strategy(), w in 2usize..5) {
        let c = collection_from_values(&values);
        let small: BTreeSet<Pair> = SortedNeighborhood::new(SortKey::FlattenedValue, w)
            .candidate_pairs(&c).into_iter().collect();
        let large: BTreeSet<Pair> = SortedNeighborhood::new(SortKey::FlattenedValue, w + 1)
            .candidate_pairs(&c).into_iter().collect();
        prop_assert!(small.is_subset(&large));
    }

    /// Q-grams blocking with smaller q is at least as complete as larger q
    /// on the same data (more, shorter grams → more shared keys).
    #[test]
    fn qgram_candidates_superset_for_smaller_q(values in values_strategy()) {
        let c = collection_from_values(&values);
        let q2: BTreeSet<Pair> =
            QGramsBlocking::new(2).build(&c).distinct_pairs(&c).into_iter().collect();
        let q3: BTreeSet<Pair> =
            QGramsBlocking::new(3).build(&c).distinct_pairs(&c).into_iter().collect();
        prop_assert!(q3.is_subset(&q2));
    }
}

// ---------------------------------------------------------------------------
// Dataset-level sanity on the generators
// ---------------------------------------------------------------------------

#[test]
fn token_blocking_recall_on_clean_data_is_total() {
    let ds = DirtyDataset::generate(&DirtyConfig::sized(300, NoiseModel::clean(), 1));
    let blocks = TokenBlocking::new().build(&ds.collection);
    let q = BlockingQuality::measure(
        &blocks.distinct_pairs(&ds.collection),
        &ds.truth,
        ds.collection.total_possible_comparisons(),
    );
    assert_eq!(q.pc(), 1.0, "identical descriptions always share tokens");
}

#[test]
fn token_blocking_recall_degrades_gracefully_with_noise() {
    let mut last_pc = 1.1;
    for (name, noise) in NoiseModel::sweep() {
        let ds = DirtyDataset::generate(&DirtyConfig::sized(300, noise, 2));
        let blocks = TokenBlocking::new().build(&ds.collection);
        let q = BlockingQuality::measure(
            &blocks.distinct_pairs(&ds.collection),
            &ds.truth,
            ds.collection.total_possible_comparisons(),
        );
        // Heavy noise drops whole values on both sides, so even token
        // blocking loses pairs; the bound reflects that regime.
        assert!(
            q.pc() > 0.6,
            "{name}: token blocking PC too low, got {}",
            q.pc()
        );
        assert!(
            q.pc() <= last_pc + 0.05,
            "{name}: PC should not grow with noise"
        );
        last_pc = q.pc();
    }
}

#[test]
fn purging_keeps_most_recall_while_cutting_comparisons() {
    let ds = DirtyDataset::generate(&DirtyConfig::sized(500, NoiseModel::moderate(), 3));
    let blocks = TokenBlocking::new().build(&ds.collection);
    // Purge everything above the 90th-percentile block cardinality: removes
    // the frequent-token blocks on Zipf-skewed data while keeping the rare
    // (name-token) blocks that carry the matches.
    let mut cards: Vec<u64> = blocks
        .blocks()
        .iter()
        .map(|b| b.comparisons(&ds.collection))
        .collect();
    cards.sort_unstable();
    let limit = cards[cards.len() * 9 / 10];
    assert!(
        limit < *cards.last().unwrap(),
        "generated data should be skewed"
    );
    let purged = cleaning::purge_above(&blocks, &ds.collection, limit);
    let brute = ds.collection.total_possible_comparisons();
    let q0 = BlockingQuality::measure(&blocks.distinct_pairs(&ds.collection), &ds.truth, brute);
    let q1 = BlockingQuality::measure(&purged.distinct_pairs(&ds.collection), &ds.truth, brute);
    assert!(
        q1.comparisons < q0.comparisons,
        "purging must remove comparisons"
    );
    assert!(
        q1.pc() > 0.7 * q0.pc(),
        "purging should lose only a minority of recall"
    );
}
