//! Merging matched descriptions into consolidated profiles.
//!
//! Merging-based iterative ER (§III of the tutorial; the Swoosh family \[2\])
//! requires a *match–merge* pair satisfying the **ICAR** properties —
//! Idempotence, Commutativity, Associativity and Representativity — for
//! R-Swoosh to be correct and comparison-optimal. The [`Profile`] type here
//! implements the canonical union-based merge, for which ICAR holds by
//! construction, and [`ProfileMatcher`] abstracts the match side.

use crate::entity::{Entity, EntityId};
use crate::similarity::SetMeasure;
use crate::tokenize::Tokenizer;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

/// A (possibly merged) entity profile: the set of base descriptions it
/// consolidates and the union of their attribute–value pairs.
///
/// Because both members are sets, `merge` is idempotent, commutative and
/// associative; and since the merged profile contains every attribute–value
/// of its sources, any token-overlap matcher is *representative*: whatever
/// matched a source still matches the merge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Profile {
    ids: BTreeSet<EntityId>,
    attributes: BTreeSet<(String, String)>,
}

impl Profile {
    /// Lifts a base description into a singleton profile.
    pub fn from_entity(e: &Entity) -> Self {
        Profile {
            ids: std::iter::once(e.id()).collect(),
            attributes: e.attributes().iter().cloned().collect(),
        }
    }

    /// The base description ids consolidated by this profile.
    pub fn ids(&self) -> &BTreeSet<EntityId> {
        &self.ids
    }

    /// The union of attribute–value pairs.
    pub fn attributes(&self) -> &BTreeSet<(String, String)> {
        &self.attributes
    }

    /// Canonical representative: the smallest consolidated id.
    ///
    /// # Panics
    /// Panics on a profile with no ids (not constructible via the public API).
    pub fn representative(&self) -> EntityId {
        *self
            .ids
            .iter()
            .next()
            .expect("profile consolidates at least one entity")
    }

    /// Whether this profile consolidates the given base description.
    pub fn contains(&self, id: EntityId) -> bool {
        self.ids.contains(&id)
    }

    /// Union-based merge of two profiles.
    pub fn merge(&self, other: &Profile) -> Profile {
        Profile {
            ids: self.ids.union(&other.ids).copied().collect(),
            attributes: self.attributes.union(&other.attributes).cloned().collect(),
        }
    }

    /// [`merge`](Profile::merge) by move: the smaller id set and the smaller
    /// attribute set are moved into the larger, so no string is cloned. The
    /// result equals `self.merge(&other)`.
    pub fn absorb(self, other: Profile) -> Profile {
        fn union<T: Ord>(a: BTreeSet<T>, b: BTreeSet<T>) -> BTreeSet<T> {
            let (mut large, small) = if a.len() >= b.len() { (a, b) } else { (b, a) };
            large.extend(small);
            large
        }
        Profile {
            ids: union(self.ids, other.ids),
            attributes: union(self.attributes, other.attributes),
        }
    }

    /// Normalized tokens over all attribute values of the profile.
    pub fn token_set(&self, tokenizer: &Tokenizer) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for (_, v) in &self.attributes {
            out.extend(tokenizer.tokens(v));
        }
        out
    }
}

/// Match predicate over (possibly merged) profiles, the counterpart of
/// [`crate::matching::Matcher`] for merging-based iterative ER.
pub trait ProfileMatcher {
    /// Whether two profiles describe the same real-world entity.
    fn profiles_match(&self, a: &Profile, b: &Profile) -> bool;

    /// The same decision from the three integers a token-set matcher depends
    /// on — `|A|`, `|B|` and `|A∩B|` over the profiles' distinct
    /// [`Tokenizer::default`] tokens — or `None` when the matcher needs the
    /// profiles themselves (the default).
    ///
    /// A caller that already holds the counts — `IncrementalResolver`'s index
    /// probe yields `|A∩B|` for every candidate it finds — asks here first and
    /// falls back to [`profiles_match`](ProfileMatcher::profiles_match) on
    /// `None`. An implementation must answer exactly what `profiles_match`
    /// would. [`SharedTokenMatcher`] and [`ProfileThresholdMatcher`] can:
    /// neither can be built with a non-default tokenizer, so counts taken
    /// under `Tokenizer::default()` are the matcher's own.
    fn match_counts(&self, _a_len: usize, _b_len: usize, _shared: usize) -> Option<bool> {
        None
    }
}

/// Token sets memoized per consolidated-id set, for the matchers'
/// [`ProfileMatcher::profiles_match`]: within one resolution run two profiles
/// with identical id sets are identical (merge is a pure function of the
/// sources), so each distinct profile is tokenized once — this turns the
/// Swoosh inner loop from `O(tokenize)` to `O(set intersection)` per
/// comparison.
///
/// The cache grows with every distinct merged profile it is shown and is
/// never evicted; it lives as long as its matcher. R-Swoosh and iterative
/// blocking feed it; `IncrementalResolver` decides through
/// [`ProfileMatcher::match_counts`] and no longer touches it.
#[derive(Clone, Debug, Default)]
struct TokenCache {
    tokenizer: Tokenizer,
    sets: RefCell<HashMap<Vec<EntityId>, Rc<BTreeSet<String>>>>,
}

impl TokenCache {
    fn tokens_of(&self, p: &Profile) -> Rc<BTreeSet<String>> {
        let key: Vec<EntityId> = p.ids().iter().copied().collect();
        if let Some(t) = self.sets.borrow().get(&key) {
            return t.clone();
        }
        let t = Rc::new(p.token_set(&self.tokenizer));
        self.sets.borrow_mut().insert(key, t.clone());
        t
    }

    fn overlap(&self, a: &Profile, b: &Profile) -> (usize, usize, usize) {
        let (sa, sb) = (self.tokens_of(a), self.tokens_of(b));
        (
            sa.len(),
            sb.len(),
            crate::similarity::overlap_size(&sa, &sb),
        )
    }
}

/// Token-overlap threshold matcher over profiles. With union-based merges
/// and the *overlap coefficient* this matcher is monotone under merging
/// (merging can only grow the token set, and overlap against the smaller set
/// cannot shrink the score below either source's), giving the
/// representativity ICAR needs in practice.
///
/// Token sets are memoized per consolidated-id set (`TokenCache`).
#[derive(Clone, Debug)]
pub struct ProfileThresholdMatcher {
    measure: SetMeasure,
    threshold: f64,
    cache: TokenCache,
}

impl ProfileThresholdMatcher {
    /// Creates the matcher.
    pub fn new(measure: SetMeasure, threshold: f64) -> Self {
        ProfileThresholdMatcher {
            measure,
            threshold,
            cache: TokenCache::default(),
        }
    }

    fn decide(&self, a_len: usize, b_len: usize, shared: usize) -> bool {
        self.measure.score(a_len, b_len, shared) >= self.threshold
    }
}

impl ProfileMatcher for ProfileThresholdMatcher {
    fn profiles_match(&self, a: &Profile, b: &Profile) -> bool {
        let (a_len, b_len, shared) = self.cache.overlap(a, b);
        self.decide(a_len, b_len, shared)
    }

    fn match_counts(&self, a_len: usize, b_len: usize, shared: usize) -> Option<bool> {
        Some(self.decide(a_len, b_len, shared))
    }
}

/// Matches two profiles when they share at least `k` normalized tokens.
///
/// This matcher is **monotone under union merges** — merging only grows a
/// profile's token set, so `match(a, b)` implies `match(a, merge(b, c))` —
/// which is exactly the representativity condition of ICAR. Together with
/// the union [`Profile::merge`] (idempotent, commutative, associative) it
/// forms a strictly ICAR match/merge pair, under which R-Swoosh provably
/// computes the same resolution as any fixpoint order.
#[derive(Clone, Debug)]
pub struct SharedTokenMatcher {
    min_shared: usize,
    cache: TokenCache,
}

impl SharedTokenMatcher {
    /// Creates the matcher requiring at least `min_shared ≥ 1` common tokens.
    pub fn new(min_shared: usize) -> Self {
        assert!(min_shared >= 1, "zero shared tokens would match everything");
        SharedTokenMatcher {
            min_shared,
            cache: TokenCache::default(),
        }
    }
}

impl ProfileMatcher for SharedTokenMatcher {
    fn profiles_match(&self, a: &Profile, b: &Profile) -> bool {
        self.cache.overlap(a, b).2 >= self.min_shared
    }

    fn match_counts(&self, _a_len: usize, _b_len: usize, shared: usize) -> Option<bool> {
        Some(shared >= self.min_shared)
    }
}

/// A [`ProfileMatcher`] defined by an arbitrary closure — convenient in tests
/// and for oracle-style matchers over profiles.
pub struct FnProfileMatcher<F>(pub F);

impl<F: Fn(&Profile, &Profile) -> bool> ProfileMatcher for FnProfileMatcher<F> {
    fn profiles_match(&self, a: &Profile, b: &Profile) -> bool {
        (self.0)(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::{EntityBuilder, KbId};

    fn entity(id: u32, pairs: &[(&str, &str)]) -> Entity {
        let mut b = EntityBuilder::new();
        for (a, v) in pairs {
            b = b.attr(*a, *v);
        }
        b.build(EntityId(id), KbId(0))
    }

    #[test]
    fn singleton_profile() {
        let e = entity(3, &[("name", "Ada")]);
        let p = Profile::from_entity(&e);
        assert_eq!(p.representative(), EntityId(3));
        assert!(p.contains(EntityId(3)));
        assert!(!p.contains(EntityId(4)));
        assert_eq!(p.attributes().len(), 1);
    }

    #[test]
    fn merge_is_idempotent() {
        let p = Profile::from_entity(&entity(0, &[("n", "x"), ("m", "y")]));
        assert_eq!(p.merge(&p), p);
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let a = Profile::from_entity(&entity(0, &[("n", "x")]));
        let b = Profile::from_entity(&entity(1, &[("n", "y")]));
        let c = Profile::from_entity(&entity(2, &[("n", "z")]));
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
    }

    #[test]
    fn merge_unions_ids_and_attributes() {
        let a = Profile::from_entity(&entity(0, &[("n", "x")]));
        let b = Profile::from_entity(&entity(5, &[("n", "x"), ("m", "y")]));
        let m = a.merge(&b);
        assert_eq!(m.ids().len(), 2);
        assert_eq!(m.attributes().len(), 2, "duplicate attr-value collapses");
        assert_eq!(m.representative(), EntityId(0));
    }

    #[test]
    fn absorb_equals_merge_whichever_side_is_larger() {
        let small = Profile::from_entity(&entity(4, &[("n", "x")]));
        let large = Profile::from_entity(&entity(1, &[("n", "x"), ("m", "y"), ("k", "z")]));
        let both = large.merge(&Profile::from_entity(&entity(7, &[("q", "w")])));
        for (a, b) in [
            (&small, &large),
            (&large, &small),
            (&both, &small),
            (&small, &small),
        ] {
            // `Profile` equality is ids and attributes.
            assert_eq!(a.clone().absorb(b.clone()), a.merge(b));
        }
    }

    #[test]
    fn match_counts_answers_what_profiles_match_answers() {
        let t = Tokenizer::default();
        let profiles: Vec<Profile> = [
            "alan turing logic",
            "alan turing enigma machine",
            "alan hopper cobol",
            "the of",
            "grace hopper",
        ]
        .iter()
        .enumerate()
        .map(|(i, v)| Profile::from_entity(&entity(i as u32, &[("n", v)])))
        .collect();
        let mut matchers: Vec<Box<dyn ProfileMatcher>> = vec![
            Box::new(SharedTokenMatcher::new(1)),
            Box::new(SharedTokenMatcher::new(2)),
        ];
        for measure in [
            SetMeasure::Jaccard,
            SetMeasure::Dice,
            SetMeasure::Cosine,
            SetMeasure::Overlap,
        ] {
            matchers.push(Box::new(ProfileThresholdMatcher::new(measure, 0.5)));
        }
        for m in &matchers {
            for a in &profiles {
                for b in &profiles {
                    let (sa, sb) = (a.token_set(&t), b.token_set(&t));
                    let shared = crate::similarity::overlap_size(&sa, &sb);
                    assert_eq!(
                        m.match_counts(sa.len(), sb.len(), shared),
                        Some(m.profiles_match(a, b))
                    );
                }
            }
        }
        let by_closure = FnProfileMatcher(|_: &Profile, _: &Profile| true);
        assert_eq!(by_closure.match_counts(1, 1, 1), None, "needs the profiles");
    }

    #[test]
    fn threshold_matcher_on_profiles() {
        let m = ProfileThresholdMatcher::new(SetMeasure::Jaccard, 0.5);
        let a = Profile::from_entity(&entity(0, &[("n", "alan turing")]));
        let b = Profile::from_entity(&entity(1, &[("n", "alan m turing")]));
        let c = Profile::from_entity(&entity(2, &[("n", "grace hopper")]));
        assert!(m.profiles_match(&a, &b));
        assert!(!m.profiles_match(&a, &c));
    }

    #[test]
    fn representativity_of_overlap_matcher() {
        // If a matches b, then merge(b, c) still matches a under overlap.
        let m = ProfileThresholdMatcher::new(SetMeasure::Overlap, 0.6);
        let a = Profile::from_entity(&entity(0, &[("n", "alan turing")]));
        let b = Profile::from_entity(&entity(1, &[("n", "alan turing 1912")]));
        let c = Profile::from_entity(&entity(2, &[("n", "bletchley park enigma")]));
        assert!(m.profiles_match(&a, &b));
        let bc = b.merge(&c);
        assert!(m.profiles_match(&a, &bc), "merge must not lose the match");
    }

    #[test]
    fn shared_token_matcher_counts_overlap() {
        let m = SharedTokenMatcher::new(2);
        let a = Profile::from_entity(&entity(0, &[("n", "alan turing logic")]));
        let b = Profile::from_entity(&entity(1, &[("n", "alan turing enigma")]));
        let c = Profile::from_entity(&entity(2, &[("n", "alan hopper cobol")]));
        assert!(m.profiles_match(&a, &b), "two shared tokens");
        assert!(!m.profiles_match(&a, &c), "only one shared token");
    }

    #[test]
    fn shared_token_matcher_is_monotone_under_merge() {
        // The ICAR representativity property: a match survives any merge of
        // either side.
        let m = SharedTokenMatcher::new(2);
        let a = Profile::from_entity(&entity(0, &[("n", "alpha beta")]));
        let b = Profile::from_entity(&entity(1, &[("n", "alpha beta gamma")]));
        let c = Profile::from_entity(&entity(2, &[("n", "unrelated tokens entirely")]));
        assert!(m.profiles_match(&a, &b));
        assert!(
            m.profiles_match(&a, &b.merge(&c)),
            "merge cannot lose the match"
        );
    }

    #[test]
    #[should_panic(expected = "zero shared tokens")]
    fn shared_token_matcher_rejects_zero() {
        let _ = SharedTokenMatcher::new(0);
    }

    #[test]
    fn fn_matcher_delegates() {
        let m = FnProfileMatcher(|a: &Profile, b: &Profile| {
            a.representative() == EntityId(0) || b.representative() == EntityId(0)
        });
        let a = Profile::from_entity(&entity(0, &[]));
        let b = Profile::from_entity(&entity(1, &[]));
        let c = Profile::from_entity(&entity(2, &[]));
        assert!(m.profiles_match(&a, &b));
        assert!(!m.profiles_match(&b, &c));
    }
}
