//! Property-based tests for er-core invariants: similarity-function axioms,
//! merge ICAR properties, union–find/closure laws, metric ranges.

use er_core::clusters::{transitive_closure, UnionFind};
use er_core::collection::{EntityCollection, ResolutionMode};
use er_core::entity::{Entity, EntityId, KbId};
use er_core::ground_truth::GroundTruth;
use er_core::matching::{
    compare_pair, par_decide_candidates, Matcher, TfIdfMatcher, ThresholdMatcher,
};
use er_core::merge::Profile;
use er_core::metrics::{BlockingQuality, ProgressiveCurve};
use er_core::pair::Pair;
use er_core::parallel::Parallelism;
use er_core::profiles::{KeyRows, KeySink, TokenProfiles};
use er_core::similarity::*;
use er_core::tokenize::{normalize, qgrams, Tokenizer};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn token_set() -> impl Strategy<Value = BTreeSet<String>> {
    proptest::collection::btree_set("[a-e]{1,3}", 0..8)
}

fn word() -> impl Strategy<Value = String> {
    "[a-z]{0,8}"
}

/// Descriptions with few distinct tokens (so pairs overlap), mixed case and
/// punctuation, stop words, repeated and empty values — up to 150 of them,
/// so a parallel profile build splits them into several entity ranges.
fn descriptions() -> impl Strategy<Value = Vec<Vec<(String, String)>>> {
    let value = "([a-eA-E]{1,2}[ ,-]?){0,5}( the)?( OF)?";
    proptest::collection::vec(proptest::collection::vec(("[p-r]", value), 0..4), 0..150)
}

fn collection_of(descriptions: Vec<Vec<(String, String)>>) -> EntityCollection {
    let mut c = EntityCollection::new(ResolutionMode::Dirty);
    for attributes in descriptions {
        c.push(KbId(0), attributes);
    }
    c
}

/// The batch path at threads {1, 2, 4} against the per-pair `compare_pair`
/// map: same pairs in candidate order, same decision, same score bits.
fn batch_equals_per_pair<M: Matcher + Sync>(
    c: &EntityCollection,
    m: &M,
    candidates: &[Pair],
    what: &str,
) -> Result<(), TestCaseError> {
    let want: Vec<_> = candidates
        .iter()
        .map(|&p| (p, compare_pair(c, m, p)))
        .collect();
    for threads in [1, 2, 4] {
        let got = par_decide_candidates(c, m, candidates, Parallelism::threads(threads));
        prop_assert_eq!(got.len(), want.len());
        for ((p, d), (q, w)) in got.iter().zip(&want) {
            prop_assert_eq!(p, q, "{}: candidate order", what);
            prop_assert_eq!(
                d.is_match,
                w.is_match,
                "{} at {} threads: {:?}",
                what,
                threads,
                p
            );
            prop_assert_eq!(
                d.score.to_bits(),
                w.score.to_bits(),
                "{} at {} threads: {:?} scored {} vs {}",
                what,
                threads,
                p,
                d.score,
                w.score
            );
        }
    }
    Ok(())
}

proptest! {
    // ---------------- similarity axioms ----------------

    #[test]
    fn set_measures_are_bounded_and_symmetric(a in token_set(), b in token_set()) {
        for m in [SetMeasure::Jaccard, SetMeasure::Dice, SetMeasure::Cosine, SetMeasure::Overlap] {
            let s = m.eval(&a, &b);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&s), "{} out of range: {}", m.name(), s);
            prop_assert!((s - m.eval(&b, &a)).abs() < 1e-12, "{} asymmetric", m.name());
        }
    }

    #[test]
    fn set_measures_identity(a in token_set()) {
        prop_assume!(!a.is_empty());
        for m in [SetMeasure::Jaccard, SetMeasure::Dice, SetMeasure::Cosine, SetMeasure::Overlap] {
            prop_assert!((m.eval(&a, &a) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn jaccard_le_dice_le_overlap(a in token_set(), b in token_set()) {
        // Standard ordering: jaccard <= dice <= overlap coefficient.
        let j = jaccard(&a, &b);
        let d = dice(&a, &b);
        let o = overlap_coefficient(&a, &b);
        prop_assert!(j <= d + 1e-12);
        prop_assert!(d <= o + 1e-12);
    }

    #[test]
    fn levenshtein_is_a_metric(a in word(), b in word(), c in word()) {
        let dab = levenshtein_distance(&a, &b);
        let dba = levenshtein_distance(&b, &a);
        prop_assert_eq!(dab, dba);
        prop_assert_eq!(levenshtein_distance(&a, &a), 0);
        // Triangle inequality.
        let dac = levenshtein_distance(&a, &c);
        let dcb = levenshtein_distance(&c, &b);
        prop_assert!(dab <= dac + dcb);
        // Bounded by longer string length.
        prop_assert!(dab <= a.chars().count().max(b.chars().count()));
    }

    #[test]
    fn string_similarities_bounded(a in word(), b in word()) {
        for f in [levenshtein, jaro, jaro_winkler] {
            let s = f(&a, &b);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&s), "out of range: {}", s);
            prop_assert!((s - f(&b, &a)).abs() < 1e-9, "asymmetric on {:?} {:?}", a, b);
        }
    }

    #[test]
    fn jaro_winkler_dominates_jaro(a in word(), b in word()) {
        prop_assert!(jaro_winkler(&a, &b) + 1e-12 >= jaro(&a, &b));
    }

    #[test]
    fn tfidf_cosine_bounded(a in token_set(), b in token_set(), docs in proptest::collection::vec(token_set(), 1..6)) {
        let stats = CorpusStats::from_documents(docs.iter());
        let s = stats.tfidf_cosine(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&s));
        prop_assert!((s - stats.tfidf_cosine(&b, &a)).abs() < 1e-12);
    }

    // ---------------- token profiles and the matching kernel ----------------

    #[test]
    fn token_profiles_are_the_token_sets_at_every_thread_count(descriptions in descriptions()) {
        let c = collection_of(descriptions);
        for tokenizer in [Tokenizer::default(), Tokenizer::raw()] {
            for threads in [1, 2, 4] {
                let p = TokenProfiles::build(&c, &tokenizer, Parallelism::threads(threads));
                prop_assert_eq!(p.len(), c.len());
                for e in c.iter() {
                    let resolved: Vec<&str> = p.symbols(e.id()).iter()
                        .map(|s| p.vocabulary()[s.index()].as_str()).collect();
                    let set = e.token_set(&tokenizer);
                    let want: Vec<&str> = set.iter().map(String::as_str).collect();
                    prop_assert_eq!(resolved, want, "{:?} at {} threads", e.id(), threads);
                }
            }
        }
    }

    #[test]
    fn batch_decisions_are_bit_identical_to_per_pair_compare(
        descriptions in descriptions(),
        raw in proptest::collection::vec((0u32..150, 0u32..150), 0..200),
    ) {
        let c = collection_of(descriptions);
        let n = c.len() as u32;
        let candidates: Vec<Pair> = raw.into_iter()
            .filter(|(a, b)| a != b && *a < n && *b < n)
            .map(|(a, b)| Pair::new(EntityId(a), EntityId(b)))
            .collect();
        for measure in [SetMeasure::Jaccard, SetMeasure::Dice, SetMeasure::Cosine, SetMeasure::Overlap] {
            let m = ThresholdMatcher::new(measure, 0.3);
            batch_equals_per_pair(&c, &m, &candidates, measure.name())?;
        }
        let tfidf = TfIdfMatcher::from_collection(&c, 0.3);
        batch_equals_per_pair(&c, &tfidf, &candidates, "tfidf")?;
    }

    // ---------------- tokenization ----------------

    #[test]
    fn normalize_is_idempotent(s in ".{0,40}") {
        let once = normalize(&s);
        prop_assert_eq!(normalize(&once), once);
    }

    #[test]
    fn normalized_output_is_lower_alnum_and_single_spaced(s in ".{0,40}") {
        let n = normalize(&s);
        prop_assert!(!n.starts_with(' ') && !n.ends_with(' '));
        prop_assert!(!n.contains("  "));
        for c in n.chars() {
            prop_assert!(c.is_alphanumeric() || c == ' ');
            // Characters with a lowercase mapping must be lowercased; exotic
            // code points like 🄰 are Other_Uppercase with no mapping and
            // pass through unchanged.
            prop_assert!(c.to_lowercase().next() == Some(c));
        }
    }

    #[test]
    fn qgram_count_formula(s in "[a-z]{1,20}", q in 1usize..5) {
        let g = qgrams(&s, q);
        prop_assert_eq!(g.len(), s.len() + q - 1);
        for gram in &g {
            prop_assert_eq!(gram.chars().count(), q);
        }
    }

    #[test]
    fn tokens_are_subset_of_raw_tokens(s in ".{0,60}") {
        let raw: BTreeSet<String> = Tokenizer::raw().tokens(&s).into_iter().collect();
        let filtered: BTreeSet<String> = Tokenizer::default().tokens(&s).into_iter().collect();
        prop_assert!(filtered.is_subset(&raw));
    }

    // ---------------- merge ICAR ----------------

    #[test]
    fn profile_merge_icar(
        attrs_a in proptest::collection::vec(("[a-c]", "[a-d]{1,4}"), 0..5),
        attrs_b in proptest::collection::vec(("[a-c]", "[a-d]{1,4}"), 0..5),
        attrs_c in proptest::collection::vec(("[a-c]", "[a-d]{1,4}"), 0..5),
    ) {
        let mk = |id: u32, attrs: &Vec<(String, String)>| {
            Profile::from_entity(&Entity::new(EntityId(id), KbId(0), attrs.clone()))
        };
        let a = mk(0, &attrs_a);
        let b = mk(1, &attrs_b);
        let c = mk(2, &attrs_c);
        // Idempotence, commutativity, associativity.
        prop_assert_eq!(a.merge(&a), a.clone());
        prop_assert_eq!(a.merge(&b), b.merge(&a));
        prop_assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        // The consuming merge is the same function.
        prop_assert_eq!(a.clone().absorb(b.clone()), a.merge(&b));
        prop_assert_eq!(
            a.clone().absorb(b.clone()).absorb(c.clone()),
            a.merge(&b).merge(&c)
        );
        // Merge only grows token sets (representativity precondition).
        let t = Tokenizer::default();
        prop_assert!(a.token_set(&t).is_subset(&a.merge(&b).token_set(&t)));
    }

    // ---------------- clustering ----------------

    #[test]
    fn union_find_component_accounting(n in 1usize..40, edges in proptest::collection::vec((0usize..40, 0usize..40), 0..60)) {
        let mut uf = UnionFind::new(n);
        let mut merges = 0;
        for (a, b) in edges {
            if a < n && b < n && uf.union(a, b) {
                merges += 1;
            }
        }
        prop_assert_eq!(uf.component_count(), n - merges);
        let clusters = uf.clusters();
        prop_assert_eq!(clusters.len(), n - merges);
        let total: usize = clusters.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, n);
    }

    #[test]
    fn transitive_closure_is_closed_and_contains_input(
        n in 2usize..25,
        raw in proptest::collection::vec((0u32..25, 0u32..25), 0..30),
    ) {
        let pairs: Vec<Pair> = raw.into_iter()
            .filter(|(a, b)| a != b && (*a as usize) < n && (*b as usize) < n)
            .map(|(a, b)| Pair::new(EntityId(a), EntityId(b)))
            .collect();
        let closed = transitive_closure(n, &pairs);
        for p in &pairs {
            prop_assert!(closed.contains(p));
        }
        // Closure property: a~b and b~c implies a~c.
        let v: Vec<Pair> = closed.iter().copied().collect();
        for p in &v {
            for q in &v {
                let shared = [p.first(), p.second()].iter()
                    .find(|x| q.contains(**x)).copied();
                if let Some(s) = shared {
                    let (x, y) = (p.other(s), q.other(s));
                    if x != y {
                        prop_assert!(closed.contains(&Pair::new(x, y)));
                    }
                }
            }
        }
    }

    // ---------------- metrics ----------------

    #[test]
    fn blocking_quality_ranges(
        cands in proptest::collection::vec((0u32..30, 0u32..30), 0..50),
        truth_pairs in proptest::collection::vec((0u32..30, 0u32..30), 0..20),
    ) {
        let cands: Vec<Pair> = cands.into_iter().filter(|(a, b)| a != b)
            .map(|(a, b)| Pair::new(EntityId(a), EntityId(b))).collect();
        let truth = GroundTruth::from_pairs(
            truth_pairs.into_iter().filter(|(a, b)| a != b)
                .map(|(a, b)| Pair::new(EntityId(a), EntityId(b))));
        let q = BlockingQuality::measure(&cands, &truth, 435);
        prop_assert!((0.0..=1.0).contains(&q.pc()));
        prop_assert!((0.0..=1.0).contains(&q.pq()));
        prop_assert!((0.0..=1.0).contains(&q.rr()));
        prop_assert!(q.detected_matches <= q.comparisons);
        prop_assert!(q.detected_matches <= q.total_matches);
    }

    #[test]
    fn progressive_curve_monotone(outcomes in proptest::collection::vec(any::<bool>(), 0..60)) {
        let total = outcomes.iter().filter(|b| **b).count() as u64;
        let mut c = ProgressiveCurve::new(total.max(1));
        for o in &outcomes {
            c.record(*o);
        }
        let mut prev = 0.0;
        for k in 1..=c.comparisons() {
            let r = c.recall_at(k);
            prop_assert!(r + 1e-12 >= prev, "recall decreased at {}", k);
            prev = r;
        }
        prop_assert!((0.0..=1.0).contains(&c.auc(c.comparisons().max(1))));
    }

    #[test]
    fn ground_truth_closure_invariant(raw in proptest::collection::vec((0u32..20, 0u32..20), 0..25)) {
        let pairs: Vec<Pair> = raw.into_iter().filter(|(a, b)| a != b)
            .map(|(a, b)| Pair::new(EntityId(a), EntityId(b))).collect();
        let gt = GroundTruth::from_pairs(pairs.clone());
        for p in &pairs {
            prop_assert!(gt.contains(*p));
        }
        // Rebuilding from the closed set is a fixpoint.
        let gt2 = GroundTruth::from_pairs(gt.iter());
        prop_assert_eq!(gt.len(), gt2.len());
    }
}

/// 4 500 descriptions over a few thousand distinct words, a quarter of the
/// values non-ASCII (so both normalizer paths run), drawn by a fixed LCG.
fn mixed_script_collection() -> EntityCollection {
    const SYLLABLES: [&str; 16] = [
        "ka", "Lo", "mi", "ST", "ra", "ße", "İs", "ΣΊ", "é", "ný", "٣", "Zu", "qo", "pe", "an",
        "th",
    ];
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = |n: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % n
    };
    let mut c = EntityCollection::new(ResolutionMode::Dirty);
    for _ in 0..4_500 {
        let attributes = (0..1 + next(3))
            .map(|a| {
                let ascii_only = next(4) != 0;
                let words: Vec<String> = (0..1 + next(5))
                    .map(|_| {
                        (0..1 + next(3))
                            .map(|_| loop {
                                let s = SYLLABLES[next(16) as usize];
                                if !ascii_only || s.is_ascii() {
                                    break s;
                                }
                            })
                            .collect()
                    })
                    .collect();
                (
                    format!("a{a}"),
                    words.join(if next(2) == 0 { " " } else { ", the " }),
                )
            })
            .collect();
        c.push(KbId(0), attributes);
    }
    c
}

/// Hash-sharded key rows are one result at every thread count: the token
/// scheme (checked against each description's token set) and a tagged
/// closure scheme through both sink entry points.
#[test]
fn key_rows_are_thread_count_independent_on_mixed_script_values() {
    let c = mixed_script_collection();
    assert!(c
        .iter()
        .any(|e| e.attributes().iter().any(|(_, v)| !v.is_ascii())));
    let tokenizer = Tokenizer::default();
    let tagged = |entity: &Entity, sink: &mut KeySink<'_>| {
        for (attribute, value) in entity.attributes() {
            sink.push_tokens(&tokenizer, attribute, value);
        }
        sink.push(&format!("n{}", entity.attributes().len()));
    };
    let serial = TokenProfiles::build(&c, &tokenizer, Parallelism::serial());
    assert!(
        serial.vocabulary().len() > 1_000,
        "{}",
        serial.vocabulary().len()
    );
    for e in c.iter() {
        let want = e.token_set(&tokenizer);
        let got: Vec<&str> = serial
            .symbols(e.id())
            .iter()
            .map(|s| serial.vocabulary()[s.index()].as_str())
            .collect();
        assert_eq!(
            got,
            want.iter().map(String::as_str).collect::<Vec<_>>(),
            "{:?}",
            e.id()
        );
    }
    let tagged_serial = KeyRows::build(&c, &tagged, Parallelism::serial());
    for threads in [2, 3, 8] {
        let par = Parallelism::threads(threads);
        assert_eq!(
            TokenProfiles::build(&c, &tokenizer, par),
            serial,
            "{threads} threads"
        );
        assert_eq!(
            KeyRows::build(&c, &tagged, par),
            tagged_serial,
            "tagged, {threads} threads"
        );
    }
}
