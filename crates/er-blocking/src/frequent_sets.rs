//! Frequent token-set blocking.
//!
//! §II of the tutorial: *"A method to reduce the number of compared
//! descriptions consists of building blocks for sets of tokens that appear
//! together in many entity descriptions"* (the frequent-itemset view of
//! blocking keys, scaled up in \[19\]). Keying a block on a *pair* of tokens
//! instead of a single token demands more agreement before two descriptions
//! co-occur — blocks are far smaller and more precise than token blocking's,
//! at some recall cost for descriptions that share only one token.
//!
//! This implementation mines frequent token pairs with an Apriori-style
//! candidate generation (a 2-itemset pass suffices for blocking keys — the
//! technique's discriminative power comes from co-occurrence, and longer
//! itemsets only shrink recall further):
//!
//! 1. count token supports; keep tokens with support ≥ `min_support`;
//! 2. count co-occurrences of frequent-token pairs per description;
//! 3. every pair with support ≥ `min_support` becomes a block key.

use crate::block::{blocks_from_scheme, BlockCollection};
use er_core::collection::EntityCollection;
use er_core::entity::Entity;
use er_core::profiles::KeySink;
use er_core::tokenize::Tokenizer;
use std::collections::{BTreeSet, HashMap};

/// Frequent token-pair blocking.
#[derive(Clone, Debug)]
pub struct FrequentSetBlocking {
    /// Minimum number of descriptions a token (and token pair) must appear
    /// in to key a block.
    min_support: usize,
    /// Cap on frequent tokens per description considered for pairing —
    /// guards the quadratic pair enumeration on long descriptions.
    max_tokens_per_description: usize,
    tokenizer: Tokenizer,
}

impl FrequentSetBlocking {
    /// Creates the method.
    ///
    /// # Panics
    /// Panics if `min_support < 2` (support 1 pairs never produce a
    /// comparison, and support 0 is meaningless).
    pub fn new(min_support: usize) -> Self {
        assert!(min_support >= 2, "support below 2 cannot block anything");
        FrequentSetBlocking {
            min_support,
            max_tokens_per_description: 24,
            tokenizer: Tokenizer::default(),
        }
    }

    /// Overrides the per-description token cap.
    pub fn with_max_tokens(mut self, cap: usize) -> Self {
        self.max_tokens_per_description = cap.max(2);
        self
    }

    /// Mines the frequent token pairs with their supports.
    pub fn frequent_pairs(
        &self,
        collection: &EntityCollection,
    ) -> HashMap<(String, String), usize> {
        // Pass 1: token supports.
        let token_sets: Vec<BTreeSet<String>> = collection
            .iter()
            .map(|e| e.token_set(&self.tokenizer))
            .collect();
        let mut support: HashMap<&str, usize> = HashMap::new();
        for ts in &token_sets {
            for t in ts {
                *support.entry(t.as_str()).or_insert(0) += 1;
            }
        }
        // Pass 2: pair supports over frequent tokens only (Apriori pruning:
        // a pair can only be frequent if both members are). Counted on
        // borrowed keys — the quadratic co-occurrence loop allocates nothing;
        // only the (few) pairs that survive the support threshold are cloned
        // into the owned result.
        let mut pair_support: HashMap<(&str, &str), usize> = HashMap::new();
        for ts in &token_sets {
            let frequent: Vec<&str> = ts
                .iter()
                .map(String::as_str)
                .filter(|t| support[t] >= self.min_support)
                .take(self.max_tokens_per_description)
                .collect();
            for i in 0..frequent.len() {
                for j in (i + 1)..frequent.len() {
                    *pair_support.entry((frequent[i], frequent[j])).or_insert(0) += 1;
                }
            }
        }
        pair_support
            .into_iter()
            .filter(|(_, s)| *s >= self.min_support)
            .map(|((a, b), s)| ((a.to_string(), b.to_string()), s))
            .collect()
    }

    /// Builds the blocking collection: one block per frequent token pair,
    /// keyed `{a}+{b}`, of the descriptions with both tokens.
    pub fn build(&self, collection: &EntityCollection) -> BlockCollection {
        let pairs: BTreeSet<(String, String)> =
            self.frequent_pairs(collection).into_keys().collect();
        blocks_from_scheme(collection, &|entity: &Entity, sink: &mut KeySink<'_>| {
            let tokens = entity.token_set(&self.tokenizer);
            for (a, b) in &pairs {
                if tokens.contains(a) && tokens.contains(b) {
                    sink.push(&format!("{a}+{b}"));
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TokenBlocking;
    use er_core::collection::ResolutionMode;
    use er_core::entity::{EntityBuilder, EntityId, KbId};
    use er_core::pair::Pair;

    fn collection(values: &[&str]) -> EntityCollection {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for v in values {
            c.push_entity(KbId(0), EntityBuilder::new().attr("n", *v));
        }
        c
    }

    #[test]
    fn pairs_require_double_agreement() {
        // "alan turing" co-occurs in three descriptions; "common" appears
        // everywhere but never twice with another frequent token pairing in
        // the distractor.
        let c = collection(&[
            "alan turing logic",
            "alan turing enigma",
            "alan turing computation",
            "alan smith common",
            "grace hopper common",
        ]);
        let fsb = FrequentSetBlocking::new(3);
        let frequent = fsb.frequent_pairs(&c);
        assert!(frequent.contains_key(&("alan".to_string(), "turing".to_string())));
        let bc = fsb.build(&c);
        let pairs = bc.distinct_pairs(&c);
        // The turing trio is fully connected…
        for (i, j) in [(0u32, 1u32), (0, 2), (1, 2)] {
            assert!(pairs.contains(&Pair::new(EntityId(i), EntityId(j))));
        }
        // …while single-token agreement ("alan" alone, "common" alone) no
        // longer blocks.
        assert!(!pairs.iter().any(|p| p.contains(EntityId(4))));
    }

    #[test]
    fn is_strictly_more_precise_than_token_blocking() {
        let ds = er_datagen::DirtyDataset::generate(&er_datagen::DirtyConfig::sized(
            400,
            er_datagen::NoiseModel::light(),
            163,
        ));
        let token = TokenBlocking::new().build(&ds.collection);
        let fsb = FrequentSetBlocking::new(2).build(&ds.collection);
        let token_pairs: std::collections::BTreeSet<Pair> =
            token.distinct_pairs(&ds.collection).into_iter().collect();
        let fsb_pairs = fsb.distinct_pairs(&ds.collection);
        assert!(
            fsb_pairs.len() < token_pairs.len(),
            "must suggest fewer comparisons"
        );
        for p in &fsb_pairs {
            assert!(token_pairs.contains(p), "pair keys imply single-token keys");
        }
        // Quality: PQ improves, PC stays reasonable on light noise (duplicates
        // share name pairs).
        let brute = ds.collection.total_possible_comparisons();
        let qt = er_core::metrics::BlockingQuality::measure(
            &token.distinct_pairs(&ds.collection),
            &ds.truth,
            brute,
        );
        let qf = er_core::metrics::BlockingQuality::measure(&fsb_pairs, &ds.truth, brute);
        assert!(qf.pq() > qt.pq(), "{} vs {}", qf.pq(), qt.pq());
        assert!(qf.pc() > 0.8 * qt.pc(), "{} vs {}", qf.pc(), qt.pc());
    }

    #[test]
    fn support_threshold_prunes() {
        let c = collection(&["a1 b1", "a1 b1", "a2 b2", "a2 b2", "a2 b2"]);
        let lo = FrequentSetBlocking::new(2).frequent_pairs(&c);
        let hi = FrequentSetBlocking::new(3).frequent_pairs(&c);
        assert_eq!(lo.len(), 2);
        assert_eq!(hi.len(), 1, "only the a2+b2 pair reaches support 3");
        assert!(hi.keys().all(|(a, _)| a == "a2"));
    }

    #[test]
    fn empty_and_unique_collections_yield_nothing() {
        let c = collection(&["x y", "p q", "m n"]);
        assert!(FrequentSetBlocking::new(2).build(&c).is_empty());
        let empty = collection(&[]);
        assert!(FrequentSetBlocking::new(2).build(&empty).is_empty());
    }

    #[test]
    #[should_panic(expected = "support")]
    fn support_one_rejected() {
        let _ = FrequentSetBlocking::new(1);
    }
}
