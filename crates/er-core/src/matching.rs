//! Matching: deciding whether two descriptions refer to the same entity.
//!
//! The tutorial treats matching as a black box invoked on candidate pairs
//! produced by blocking/scheduling, so the abstractions here focus on what
//! the surrounding machinery needs: a uniform [`Matcher`] trait, standard
//! threshold implementations, an oracle backed by ground truth (used by the
//! surveyed evaluations to isolate blocking quality from matcher quality),
//! and *comparison accounting*, since every efficiency metric in the area
//! (RR, PQ, progressive recall) is expressed in number of comparisons.

use crate::collection::EntityCollection;
use crate::entity::Entity;
use crate::ground_truth::GroundTruth;
use crate::pair::Pair;
use crate::parallel::{par_map, par_map_chunks, Parallelism};
use crate::profiles::{shared, shared_count, TokenProfiles};
use crate::similarity::{CorpusStats, SetMeasure};
use crate::tokenize::Tokenizer;
use std::borrow::Cow;
use std::cell::Cell;

/// A pairwise match decision with its evidence score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Decision {
    /// Similarity evidence in `[0, 1]`.
    pub score: f64,
    /// Whether the pair is declared a match.
    pub is_match: bool,
}

/// Decides whether two entity descriptions match.
///
/// Implementations must be symmetric (`compare(a, b) == compare(b, a)`).
pub trait Matcher {
    /// Compares two descriptions and returns the decision with its score.
    fn compare(&self, a: &Entity, b: &Entity) -> Decision;

    /// Convenience: just the boolean outcome.
    fn is_match(&self, a: &Entity, b: &Entity) -> bool {
        self.compare(a, b).is_match
    }

    /// The batch hook behind [`par_decide_candidates`]: the decision of
    /// every candidate, in candidate order, equal to [`compare`] pair by
    /// pair. The default is that per-pair loop; a matcher that can decide
    /// from data prepared once per batch overrides it (the token-set
    /// matchers do, see [`PreparedMatcher`]).
    ///
    /// [`compare`]: Matcher::compare
    fn decide_batch(
        &self,
        collection: &EntityCollection,
        candidates: &[Pair],
        par: Parallelism,
    ) -> Vec<(Pair, Decision)>
    where
        Self: Sized + Sync,
    {
        par_map(par, candidates, |&p| (p, compare_pair(collection, self, p)))
    }
}

/// Declares a match when a token-set measure over whole descriptions meets a
/// threshold — the standard schema-agnostic matcher for web data.
#[derive(Clone, Debug)]
pub struct ThresholdMatcher {
    measure: SetMeasure,
    threshold: f64,
    tokenizer: Tokenizer,
}

impl ThresholdMatcher {
    /// Creates a matcher with the given measure and threshold in `[0, 1]`.
    pub fn new(measure: SetMeasure, threshold: f64) -> Self {
        ThresholdMatcher {
            measure,
            threshold,
            tokenizer: Tokenizer::default(),
        }
    }

    /// Replaces the tokenizer.
    pub fn with_tokenizer(mut self, tokenizer: Tokenizer) -> Self {
        self.tokenizer = tokenizer;
        self
    }

    /// The configured threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Tokenizes `collection` once (with this matcher's tokenizer) for
    /// deciding many of its pairs.
    pub fn prepare(
        &self,
        collection: &EntityCollection,
        par: Parallelism,
    ) -> PreparedMatcher<'static> {
        let profiles = TokenProfiles::build(collection, &self.tokenizer, par);
        self.prepared(Cow::Owned(profiles))
    }

    /// [`prepare`](ThresholdMatcher::prepare) on profiles built elsewhere —
    /// the pipeline walk's one tokenization. They must have been built with
    /// this matcher's tokenizer.
    pub fn prepare_on<'p>(&self, profiles: &'p TokenProfiles) -> PreparedMatcher<'p> {
        self.prepared(Cow::Borrowed(profiles))
    }

    fn prepared<'p>(&self, profiles: Cow<'p, TokenProfiles>) -> PreparedMatcher<'p> {
        PreparedMatcher {
            profiles,
            kernel: Kernel::Set(self.measure),
            threshold: self.threshold,
        }
    }
}

impl Matcher for ThresholdMatcher {
    fn compare(&self, a: &Entity, b: &Entity) -> Decision {
        let sa = a.token_set(&self.tokenizer);
        let sb = b.token_set(&self.tokenizer);
        let score = self.measure.eval(&sa, &sb);
        Decision {
            score,
            is_match: score >= self.threshold,
        }
    }

    fn decide_batch(
        &self,
        collection: &EntityCollection,
        candidates: &[Pair],
        par: Parallelism,
    ) -> Vec<(Pair, Decision)> {
        self.prepare(collection, par).decide_batch(candidates, par)
    }
}

/// TF-IDF cosine matcher: like [`ThresholdMatcher`] but weights tokens by
/// corpus rarity, so agreeing on rare tokens counts for more — the behaviour
/// needed for the "somehow similar" periphery descriptions the tutorial
/// highlights, where few but discriminative tokens are shared.
#[derive(Clone, Debug)]
pub struct TfIdfMatcher {
    stats: CorpusStats,
    threshold: f64,
    tokenizer: Tokenizer,
}

impl TfIdfMatcher {
    /// Builds the matcher, deriving corpus statistics from `collection`.
    pub fn from_collection(collection: &EntityCollection, threshold: f64) -> Self {
        let tokenizer = Tokenizer::default();
        let profiles = TokenProfiles::build(collection, &tokenizer, Parallelism::serial());
        Self::from_profiles(&profiles, threshold)
    }

    /// Builds the matcher from the collection's default-tokenizer profiles
    /// (the pipeline walk's), without tokenizing again.
    pub fn from_profiles(profiles: &TokenProfiles, threshold: f64) -> Self {
        TfIdfMatcher {
            stats: CorpusStats::from_profiles(profiles),
            threshold,
            tokenizer: Tokenizer::default(),
        }
    }

    /// Tokenizes `collection` once for deciding many of its pairs; see
    /// [`prepare_on`](TfIdfMatcher::prepare_on).
    pub fn prepare(
        &self,
        collection: &EntityCollection,
        par: Parallelism,
    ) -> PreparedMatcher<'static> {
        let profiles = TokenProfiles::build(collection, &self.tokenizer, par);
        self.prepared(Cow::Owned(profiles))
    }

    /// Decides on profiles built elsewhere (with this matcher's tokenizer),
    /// looking every token's weight up once: a squared-idf table over the
    /// vocabulary and each description's norm.
    pub fn prepare_on<'p>(&self, profiles: &'p TokenProfiles) -> PreparedMatcher<'p> {
        self.prepared(Cow::Borrowed(profiles))
    }

    fn prepared<'p>(&self, profiles: Cow<'p, TokenProfiles>) -> PreparedMatcher<'p> {
        let idf2: Vec<f64> = profiles
            .vocabulary()
            .iter()
            .map(|t| self.stats.idf(t).powi(2))
            .collect();
        let norms = profiles
            .iter()
            .map(|row| row.iter().map(|s| idf2[s.index()]).sum::<f64>().sqrt())
            .collect();
        PreparedMatcher {
            profiles,
            kernel: Kernel::TfIdf { idf2, norms },
            threshold: self.threshold,
        }
    }
}

impl Matcher for TfIdfMatcher {
    fn compare(&self, a: &Entity, b: &Entity) -> Decision {
        let sa = a.token_set(&self.tokenizer);
        let sb = b.token_set(&self.tokenizer);
        let score = self.stats.tfidf_cosine(&sa, &sb);
        Decision {
            score,
            is_match: score >= self.threshold,
        }
    }

    fn decide_batch(
        &self,
        collection: &EntityCollection,
        candidates: &[Pair],
        par: Parallelism,
    ) -> Vec<(Pair, Decision)> {
        self.prepare(collection, par).decide_batch(candidates, par)
    }
}

/// How a [`PreparedMatcher`] scores a pair of profiles.
#[derive(Clone, Debug)]
enum Kernel {
    /// A set measure of `|A|`, `|B|` and `|A∩B|` ([`SetMeasure::score`]);
    /// `|A∩B|` is the branch-free [`shared_count`].
    Set(SetMeasure),
    /// TF-IDF cosine: squared idf per symbol, norm per entity. Every sum
    /// runs in symbol (= token) order, the order
    /// [`CorpusStats::tfidf_cosine`] adds in, so the dot product walks the
    /// shared symbols one by one ([`shared`]).
    TfIdf { idf2: Vec<f64>, norms: Vec<f64> },
}

/// A token-set matcher bound to one collection: the collection's
/// [`TokenProfiles`] (its own, or borrowed for `'p`) plus the matcher's
/// measure and threshold, built by [`ThresholdMatcher::prepare`] /
/// [`TfIdfMatcher::prepare`] or their `prepare_on` twins.
///
/// [`decide`](PreparedMatcher::decide) returns the decision
/// [`Matcher::compare`] returns for the same pair — the same score to the
/// last bit — from a merge of two integer slices instead of two
/// tokenizations.
#[derive(Clone, Debug)]
pub struct PreparedMatcher<'p> {
    profiles: Cow<'p, TokenProfiles>,
    kernel: Kernel,
    threshold: f64,
}

impl PreparedMatcher<'_> {
    /// Decides one pair of the prepared collection.
    pub fn decide(&self, pair: Pair) -> Decision {
        let a = self.profiles.symbols(pair.first());
        let b = self.profiles.symbols(pair.second());
        let score = match &self.kernel {
            Kernel::Set(measure) => measure.score(a.len(), b.len(), shared_count(a, b)),
            Kernel::TfIdf { idf2, norms } => {
                let dot: f64 = shared(a, b).map(|s| idf2[s.index()]).sum();
                let denom = norms[pair.first().index()] * norms[pair.second().index()];
                if dot == 0.0 || denom == 0.0 {
                    0.0
                } else {
                    dot / denom
                }
            }
        };
        Decision {
            score,
            is_match: score >= self.threshold,
        }
    }

    /// Decides every candidate, in candidate order.
    pub fn decide_batch(&self, candidates: &[Pair], par: Parallelism) -> Vec<(Pair, Decision)> {
        par_map(par, candidates, |&p| (p, self.decide(p)))
    }

    /// The accepted candidates with their scores, in candidate order: the
    /// matches of [`decide_batch`](Self::decide_batch), without its
    /// decision per candidate. Each worker decides one contiguous chunk and
    /// keeps only its matches.
    pub fn accepted(&self, candidates: &[Pair], par: Parallelism) -> Vec<(Pair, f64)> {
        let chunk = candidates.len().div_ceil(par.effective()).max(1);
        par_map_chunks(par, candidates, chunk, |pairs| {
            pairs
                .iter()
                .filter_map(|&p| {
                    let d = self.decide(p);
                    d.is_match.then_some((p, d.score))
                })
                .collect::<Vec<_>>()
        })
        .concat()
    }
}

/// A rule over one attribute: match when `measure(tokens(a.attr), tokens(b.attr))`
/// meets the threshold. Several rules compose into an [`AttributeRuleMatcher`].
#[derive(Clone, Debug)]
pub struct AttributeRule {
    /// Attribute name inspected on both sides.
    pub attribute: String,
    /// Token-set measure applied to the attribute's values.
    pub measure: SetMeasure,
    /// Match threshold for this rule.
    pub threshold: f64,
}

/// Conjunctive/disjunctive combination of attribute rules, modelling the
/// expert-authored matchers of relational ER systems.
#[derive(Clone, Debug)]
pub struct AttributeRuleMatcher {
    rules: Vec<AttributeRule>,
    /// If `true`, all rules must fire (conjunction); otherwise any one
    /// suffices (disjunction).
    conjunctive: bool,
    tokenizer: Tokenizer,
}

impl AttributeRuleMatcher {
    /// Creates a matcher from rules; `conjunctive` selects AND vs OR
    /// semantics.
    pub fn new(rules: Vec<AttributeRule>, conjunctive: bool) -> Self {
        AttributeRuleMatcher {
            rules,
            conjunctive,
            tokenizer: Tokenizer::default(),
        }
    }
}

impl Matcher for AttributeRuleMatcher {
    fn compare(&self, a: &Entity, b: &Entity) -> Decision {
        let mut fired = 0usize;
        let mut score_sum = 0.0;
        for rule in &self.rules {
            let sa = a.attribute_token_set(&rule.attribute, &self.tokenizer);
            let sb = b.attribute_token_set(&rule.attribute, &self.tokenizer);
            let s = rule.measure.eval(&sa, &sb);
            score_sum += s;
            if s >= rule.threshold {
                fired += 1;
            }
        }
        let n = self.rules.len();
        let is_match = if n == 0 {
            false
        } else if self.conjunctive {
            fired == n
        } else {
            fired > 0
        };
        Decision {
            score: if n == 0 { 0.0 } else { score_sum / n as f64 },
            is_match,
        }
    }
}

/// Edit-distance matcher over a single attribute: match when the
/// Jaro–Winkler similarity of the two values reaches the threshold — the
/// classic record-linkage matcher for name-like fields. Descriptions missing
/// the attribute never match.
#[derive(Clone, Debug)]
pub struct JaroWinklerMatcher {
    attribute: String,
    threshold: f64,
}

impl JaroWinklerMatcher {
    /// Creates the matcher over `attribute` with a threshold in `[0, 1]`.
    pub fn new(attribute: impl Into<String>, threshold: f64) -> Self {
        JaroWinklerMatcher {
            attribute: attribute.into(),
            threshold,
        }
    }
}

impl Matcher for JaroWinklerMatcher {
    fn compare(&self, a: &Entity, b: &Entity) -> Decision {
        let score = match (a.value_of(&self.attribute), b.value_of(&self.attribute)) {
            (Some(x), Some(y)) => crate::similarity::jaro_winkler(
                &crate::tokenize::normalize(x),
                &crate::tokenize::normalize(y),
            ),
            _ => 0.0,
        };
        Decision {
            score,
            is_match: score >= self.threshold,
        }
    }
}

/// Hybrid matcher: symmetric Monge–Elkan over the tokens of all values —
/// token-order-insensitive and robust to per-token typos, at edit-distance
/// cost per token pair.
#[derive(Clone, Debug)]
pub struct MongeElkanMatcher {
    threshold: f64,
    tokenizer: Tokenizer,
}

impl MongeElkanMatcher {
    /// Creates the matcher with a threshold in `[0, 1]`.
    pub fn new(threshold: f64) -> Self {
        MongeElkanMatcher {
            threshold,
            tokenizer: Tokenizer::default(),
        }
    }
}

impl Matcher for MongeElkanMatcher {
    fn compare(&self, a: &Entity, b: &Entity) -> Decision {
        let ta: Vec<String> = a.token_set(&self.tokenizer).into_iter().collect();
        let tb: Vec<String> = b.token_set(&self.tokenizer).into_iter().collect();
        let score = crate::similarity::monge_elkan_sym(&ta, &tb);
        Decision {
            score,
            is_match: score >= self.threshold,
        }
    }
}

/// Perfect matcher backed by ground truth — the device the surveyed
/// evaluations (e.g. meta-blocking \[22\], pay-as-you-go \[26\]) use to measure
/// blocking/scheduling quality independent of matcher errors: every executed
/// comparison resolves correctly, so recall curves reflect *which* pairs were
/// compared, not how well.
#[derive(Clone, Debug)]
pub struct OracleMatcher<'a> {
    truth: &'a GroundTruth,
}

impl<'a> OracleMatcher<'a> {
    /// Creates the oracle over a ground-truth pair set.
    pub fn new(truth: &'a GroundTruth) -> Self {
        OracleMatcher { truth }
    }
}

impl Matcher for OracleMatcher<'_> {
    fn compare(&self, a: &Entity, b: &Entity) -> Decision {
        let is_match = Pair::try_new(a.id(), b.id())
            .map(|p| self.truth.contains(p))
            .unwrap_or(false);
        Decision {
            score: if is_match { 1.0 } else { 0.0 },
            is_match,
        }
    }
}

/// Wraps any matcher and counts the comparisons it executes.
///
/// Comparison counts are the x-axis of every efficiency result in the
/// surveyed literature, so the wrapper is used by all experiment harnesses.
pub struct CountingMatcher<M> {
    inner: M,
    count: Cell<u64>,
}

impl<M: Matcher> CountingMatcher<M> {
    /// Wraps `inner` with a zeroed counter.
    pub fn new(inner: M) -> Self {
        CountingMatcher {
            inner,
            count: Cell::new(0),
        }
    }

    /// Comparisons executed so far.
    pub fn comparisons(&self) -> u64 {
        self.count.get()
    }

    /// Resets the counter to zero.
    pub fn reset(&self) {
        self.count.set(0);
    }

    /// Unwraps the inner matcher.
    pub fn into_inner(self) -> M {
        self.inner
    }
}

impl<M: Matcher> Matcher for CountingMatcher<M> {
    fn compare(&self, a: &Entity, b: &Entity) -> Decision {
        self.count.set(self.count.get() + 1);
        self.inner.compare(a, b)
    }
}

/// Compares a specific pair from a collection.
pub fn compare_pair<M: Matcher>(
    collection: &EntityCollection,
    matcher: &M,
    pair: Pair,
) -> Decision {
    matcher.compare(
        collection.entity(pair.first()),
        collection.entity(pair.second()),
    )
}

/// Runs a matcher over a list of candidate pairs, returning the pairs
/// declared matches — the batch "entity matching" phase of Fig. 1.
pub fn resolve_candidates<M: Matcher>(
    collection: &EntityCollection,
    matcher: &M,
    candidates: &[Pair],
) -> Vec<Pair> {
    candidates
        .iter()
        .copied()
        .filter(|&p| compare_pair(collection, matcher, p).is_match)
        .collect()
}

/// Parallel [`resolve_candidates`]: compares candidates across worker
/// threads and returns the matching pairs **in candidate order**, making the
/// output bit-identical to the serial path at every thread count.
///
/// Requires `M: Sync` — matchers with interior mutability (notably
/// [`CountingMatcher`], which tallies through a `Cell`) must use the serial
/// path for exact comparison accounting.
pub fn par_resolve_candidates<M: Matcher + Sync>(
    collection: &EntityCollection,
    matcher: &M,
    candidates: &[Pair],
    par: Parallelism,
) -> Vec<Pair> {
    matcher
        .decide_batch(collection, candidates, par)
        .into_iter()
        .filter_map(|(p, d)| d.is_match.then_some(p))
        .collect()
}

/// Parallel batch scoring: compares every candidate and returns the full
/// decision per pair, in candidate order. Used by rankers and progressive
/// schedulers that need scores for non-matches too.
///
/// This is [`Matcher::decide_batch`]: the token-set matchers tokenize the
/// whole collection once per call and decide from the profiles, so it pays
/// off on schedules that touch most of the collection.
pub fn par_decide_candidates<M: Matcher + Sync>(
    collection: &EntityCollection,
    matcher: &M,
    candidates: &[Pair],
    par: Parallelism,
) -> Vec<(Pair, Decision)> {
    matcher.decide_batch(collection, candidates, par)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::ResolutionMode;
    use crate::entity::{EntityBuilder, EntityId, KbId};

    fn collection() -> EntityCollection {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        c.push_entity(
            KbId(0),
            EntityBuilder::new()
                .attr("name", "Alan Turing")
                .attr("born", "1912"),
        );
        c.push_entity(
            KbId(0),
            EntityBuilder::new()
                .attr("fullName", "Alan M Turing")
                .attr("birth", "1912"),
        );
        c.push_entity(
            KbId(0),
            EntityBuilder::new()
                .attr("name", "Grace Hopper")
                .attr("born", "1906"),
        );
        c
    }

    #[test]
    fn threshold_matcher_matches_similar() {
        let c = collection();
        let m = ThresholdMatcher::new(SetMeasure::Jaccard, 0.5);
        let d = compare_pair(&c, &m, Pair::new(EntityId(0), EntityId(1)));
        assert!(d.is_match, "score = {}", d.score);
        let d2 = compare_pair(&c, &m, Pair::new(EntityId(0), EntityId(2)));
        assert!(!d2.is_match);
        assert!(d.score > d2.score);
    }

    #[test]
    fn threshold_matcher_is_symmetric() {
        let c = collection();
        let m = ThresholdMatcher::new(SetMeasure::Dice, 0.3);
        let a = c.entity(EntityId(0));
        let b = c.entity(EntityId(1));
        assert_eq!(m.compare(a, b), m.compare(b, a));
    }

    #[test]
    fn tfidf_matcher_weighting() {
        let c = collection();
        let m = TfIdfMatcher::from_collection(&c, 0.4);
        assert!(m.is_match(c.entity(EntityId(0)), c.entity(EntityId(1))));
        assert!(!m.is_match(c.entity(EntityId(0)), c.entity(EntityId(2))));
    }

    #[test]
    fn attribute_rule_matcher_conjunction_vs_disjunction() {
        let c = collection();
        let rules = vec![
            AttributeRule {
                attribute: "name".into(),
                measure: SetMeasure::Jaccard,
                threshold: 0.5,
            },
            AttributeRule {
                attribute: "born".into(),
                measure: SetMeasure::Jaccard,
                threshold: 0.99,
            },
        ];
        // Entity 1 uses different attribute *names*, so rules see empty sets.
        let and = AttributeRuleMatcher::new(rules.clone(), true);
        let or = AttributeRuleMatcher::new(rules, false);
        let a = c.entity(EntityId(0));
        let b = c.entity(EntityId(1));
        assert!(!and.is_match(a, b));
        assert!(!or.is_match(a, b));
        // Same-schema entities 0 and 2: names differ, birth years differ.
        let e2 = c.entity(EntityId(2));
        assert!(!or.is_match(a, e2));
    }

    #[test]
    fn attribute_rule_matcher_empty_rules_never_match() {
        let c = collection();
        let m = AttributeRuleMatcher::new(vec![], true);
        assert!(!m.is_match(c.entity(EntityId(0)), c.entity(EntityId(1))));
    }

    #[test]
    fn oracle_follows_ground_truth() {
        let c = collection();
        let truth = GroundTruth::from_pairs(vec![Pair::new(EntityId(0), EntityId(1))]);
        let m = OracleMatcher::new(&truth);
        assert!(m.is_match(c.entity(EntityId(0)), c.entity(EntityId(1))));
        assert!(!m.is_match(c.entity(EntityId(0)), c.entity(EntityId(2))));
    }

    #[test]
    fn jaro_winkler_matcher_tolerates_typos() {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        c.push_entity(
            KbId(0),
            EntityBuilder::new().attr("name", "Katherine Johnson"),
        );
        c.push_entity(
            KbId(0),
            EntityBuilder::new().attr("name", "Kathrine Jonson"),
        );
        c.push_entity(
            KbId(0),
            EntityBuilder::new().attr("name", "Dorothy Vaughan"),
        );
        c.push_entity(
            KbId(0),
            EntityBuilder::new().attr("other", "Katherine Johnson"),
        );
        let m = JaroWinklerMatcher::new("name", 0.9);
        assert!(m.is_match(c.entity(EntityId(0)), c.entity(EntityId(1))));
        assert!(!m.is_match(c.entity(EntityId(0)), c.entity(EntityId(2))));
        // Missing attribute never matches.
        assert!(!m.is_match(c.entity(EntityId(0)), c.entity(EntityId(3))));
    }

    #[test]
    fn monge_elkan_matcher_handles_token_reordering_and_typos() {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        c.push_entity(KbId(0), EntityBuilder::new().attr("n", "Johnson Katherine"));
        c.push_entity(KbId(0), EntityBuilder::new().attr("n", "Kathrine Johnson"));
        c.push_entity(
            KbId(0),
            EntityBuilder::new().attr("n", "completely different"),
        );
        let m = MongeElkanMatcher::new(0.85);
        assert!(m.is_match(c.entity(EntityId(0)), c.entity(EntityId(1))));
        assert!(!m.is_match(c.entity(EntityId(0)), c.entity(EntityId(2))));
    }

    const MEASURES: [SetMeasure; 4] = [
        SetMeasure::Jaccard,
        SetMeasure::Dice,
        SetMeasure::Cosine,
        SetMeasure::Overlap,
    ];

    /// The batch path must return `compare_pair`'s decision for every pair,
    /// score bits included.
    fn assert_batch_is_per_pair<M: Matcher + Sync>(c: &EntityCollection, m: &M, what: &str) {
        let pairs = c.all_pairs();
        for threads in [1, 2] {
            let batch = par_decide_candidates(c, m, &pairs, Parallelism::threads(threads));
            assert_eq!(batch.len(), pairs.len());
            for (&p, (q, d)) in pairs.iter().zip(batch) {
                let want = compare_pair(c, m, p);
                assert_eq!(q, p, "{what}: candidate order");
                assert_eq!(d.score.to_bits(), want.score.to_bits(), "{what}: {p:?}");
                assert_eq!(d.is_match, want.is_match, "{what}: {p:?}");
            }
        }
    }

    #[test]
    fn batch_path_tokenizes_with_the_matchers_tokenizer() {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        c.push_entity(KbId(0), EntityBuilder::new().attr("t", "the cat of a"));
        c.push_entity(KbId(0), EntityBuilder::new().attr("t", "the dog of a"));
        c.push_entity(KbId(0), EntityBuilder::new().attr("t", "cat sat"));
        let stops = Tokenizer::raw().with_stopwords(["cat"]);
        for tokenizer in [
            Tokenizer::raw(),
            stops,
            Tokenizer::default().with_min_len(4),
        ] {
            for measure in MEASURES {
                let m = ThresholdMatcher::new(measure, 0.3).with_tokenizer(tokenizer.clone());
                assert_batch_is_per_pair(&c, &m, measure.name());
            }
        }
        // The tokenizers really disagree: only the raw one sees "the of a".
        let pair = Pair::new(EntityId(0), EntityId(1));
        let raw = ThresholdMatcher::new(SetMeasure::Jaccard, 0.3).with_tokenizer(Tokenizer::raw());
        let default = ThresholdMatcher::new(SetMeasure::Jaccard, 0.3);
        let decide =
            |m: &ThresholdMatcher| par_decide_candidates(&c, m, &[pair], Parallelism::serial());
        assert_eq!(decide(&raw)[0].1.score, 0.6);
        assert_eq!(decide(&default)[0].1.score, 0.0);
    }

    #[test]
    fn batch_path_keeps_the_degenerate_scores() {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        c.push_entity(KbId(0), EntityBuilder::new()); // no attributes
        c.push_entity(KbId(0), EntityBuilder::new().attr("a", "")); // empty value
        c.push_entity(KbId(0), EntityBuilder::new().attr("a", "the of")); // stop words only
        c.push_entity(
            KbId(0),
            EntityBuilder::new().attr("a", "x y").attr("b", "x y"),
        );
        c.push_entity(KbId(0), EntityBuilder::new().attr("a", "x y z"));
        let empty_pair = Pair::new(EntityId(0), EntityId(1));
        for measure in MEASURES {
            let m = ThresholdMatcher::new(measure, 0.0);
            assert_batch_is_per_pair(&c, &m, measure.name());
            let d = m.prepare(&c, Parallelism::serial()).decide(empty_pair);
            assert_eq!(
                d.score.to_bits(),
                0.0f64.to_bits(),
                "empty vs empty is 0, not NaN"
            );
        }
        let tfidf = TfIdfMatcher::from_collection(&c, 0.0);
        assert_batch_is_per_pair(&c, &tfidf, "tfidf");
        let d = tfidf.prepare(&c, Parallelism::serial()).decide(empty_pair);
        assert_eq!(d.score.to_bits(), 0.0f64.to_bits());
        // A value repeated across attributes counts once.
        let repeated = Pair::new(EntityId(3), EntityId(4));
        let jaccard = ThresholdMatcher::new(SetMeasure::Jaccard, 0.0);
        assert_eq!(
            jaccard
                .prepare(&c, Parallelism::serial())
                .decide(repeated)
                .score,
            2.0 / 3.0
        );
    }

    /// `accepted` is `decide_batch` filtered to its matches — same pairs,
    /// same order, same score bits — at every thread count, for a set
    /// measure and for TF-IDF.
    #[test]
    fn accepted_is_the_filtered_batch() {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for e in 0..40u32 {
            let name = format!("w{} w{} w{} x{}", e % 7, e % 5, e % 3, e);
            c.push_entity(KbId(0), EntityBuilder::new().attr("name", name));
        }
        let pairs = c.all_pairs();
        let matchers = [
            ThresholdMatcher::new(SetMeasure::Jaccard, 0.3).prepare(&c, Parallelism::serial()),
            TfIdfMatcher::from_collection(&c, 0.2).prepare(&c, Parallelism::serial()),
        ];
        for (m, what) in matchers.iter().zip(["jaccard", "tfidf"]) {
            let bits = |v: Vec<(Pair, f64)>| -> Vec<(Pair, u64)> {
                v.into_iter().map(|(p, s)| (p, s.to_bits())).collect()
            };
            let want = bits(
                m.decide_batch(&pairs, Parallelism::serial())
                    .into_iter()
                    .filter_map(|(p, d)| d.is_match.then_some((p, d.score)))
                    .collect(),
            );
            assert!(
                want.len() > 10 && want.len() < pairs.len(),
                "{what}: {}",
                want.len()
            );
            for threads in [1, 2, 4] {
                let got = bits(m.accepted(&pairs, Parallelism::threads(threads)));
                assert_eq!(got, want, "{what} threads={threads}");
            }
            assert!(m.accepted(&[], Parallelism::threads(2)).is_empty());
        }
    }

    #[test]
    fn tfidf_statistics_from_profiles_equal_the_document_statistics() {
        let c = collection();
        let t = Tokenizer::default();
        let docs: Vec<_> = c.iter().map(|e| e.token_set(&t)).collect();
        let reference = CorpusStats::from_documents(docs.iter());
        let stats = TfIdfMatcher::from_collection(&c, 0.4).stats;
        assert_eq!(stats.doc_count(), reference.doc_count());
        for token in docs.iter().flatten() {
            assert_eq!(stats.doc_freq(token), reference.doc_freq(token), "{token}");
        }
        assert_eq!(stats.doc_freq("absent"), 0);
    }

    #[test]
    fn counting_matcher_counts_and_resets() {
        let c = collection();
        let m = CountingMatcher::new(ThresholdMatcher::new(SetMeasure::Jaccard, 0.5));
        let pairs = c.all_pairs();
        let matches = resolve_candidates(&c, &m, &pairs);
        assert_eq!(m.comparisons(), 3);
        assert_eq!(matches, vec![Pair::new(EntityId(0), EntityId(1))]);
        m.reset();
        assert_eq!(m.comparisons(), 0);
    }
}
