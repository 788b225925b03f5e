//! MinHash-LSH blocking.
//!
//! The locality-sensitive alternative to threshold joins: each description's
//! token set is sketched with `bands × rows` MinHash values; descriptions
//! agreeing on *all rows of any band* share a block. The collision
//! probability of a pair with Jaccard similarity `s` is
//! `1 − (1 − s^rows)^bands` — an S-curve whose threshold is tuned by the
//! band/row split, so LSH blocking approximates a similarity join with
//! constant-time candidate generation per description. A standard tool for
//! web-scale blocking where even PPJoin's index is too expensive.

use crate::block::{blocks_from_scheme, BlockCollection};
use er_core::collection::EntityCollection;
use er_core::entity::Entity;
use er_core::intern::Fnv1a;
use er_core::profiles::{KeyScheme, KeySink};
use er_core::splitmix64;
use er_core::tokenize::Tokenizer;

/// MinHash-LSH blocking with `bands` bands of `rows` rows.
#[derive(Clone, Debug)]
pub struct MinHashBlocking {
    bands: usize,
    rows: usize,
    seed: u64,
    tokenizer: Tokenizer,
}

impl MinHashBlocking {
    /// Creates the method; `bands ≥ 1`, `rows ≥ 1`. The implied Jaccard
    /// threshold is ≈ `(1/bands)^(1/rows)`.
    pub fn new(bands: usize, rows: usize) -> Self {
        assert!(
            bands >= 1 && rows >= 1,
            "need at least one band and one row"
        );
        MinHashBlocking {
            bands,
            rows,
            seed: 0x5EED_CAFE,
            tokenizer: Tokenizer::default(),
        }
    }

    /// Overrides the hash seed (different seeds give independent sketches).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The approximate Jaccard threshold of the S-curve's inflection point.
    pub fn implied_threshold(&self) -> f64 {
        (1.0 / self.bands as f64).powf(1.0 / self.rows as f64)
    }

    /// Collision probability of a pair with Jaccard similarity `s`.
    pub fn collision_probability(&self, s: f64) -> f64 {
        1.0 - (1.0 - s.powi(self.rows as i32)).powi(self.bands as i32)
    }

    /// The MinHash signature of a token set: `bands × rows` 64-bit minima.
    fn signature(&self, tokens: &std::collections::BTreeSet<String>) -> Vec<u64> {
        let n = self.bands * self.rows;
        let mut sig = vec![u64::MAX; n];
        for t in tokens {
            let base = Fnv1a::hash(t.as_bytes());
            for (i, slot) in sig.iter_mut().enumerate() {
                // One cheap independent hash per signature position.
                let h = splitmix64(base ^ self.seed.wrapping_add((i as u64) << 32));
                if h < *slot {
                    *slot = h;
                }
            }
        }
        sig
    }

    /// Builds the blocking collection: one block key per (band, band-hash).
    pub fn build(&self, collection: &EntityCollection) -> BlockCollection {
        blocks_from_scheme(collection, self)
    }
}

/// One key per band, `b{band}:{band-hash}`, for descriptions with a token.
impl KeyScheme for MinHashBlocking {
    fn keys_into(&self, entity: &Entity, sink: &mut KeySink<'_>) {
        let tokens = entity.token_set(&self.tokenizer);
        if tokens.is_empty() {
            return;
        }
        let sig = self.signature(&tokens);
        for (b, band) in sig.chunks(self.rows).enumerate() {
            let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (b as u64);
            for &v in band {
                h = splitmix64(h ^ v);
            }
            sink.push(&format!("b{b}:{h:016x}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn identical_sets_always_collide() {
        let c = collection(&[
            "alpha beta gamma delta",
            "alpha beta gamma delta",
            "x y z w",
        ]);
        let bc = MinHashBlocking::new(4, 2).build(&c);
        let pairs = bc.distinct_pairs(&c);
        assert!(pairs.contains(&Pair::new(EntityId(0), EntityId(1))));
    }

    #[test]
    fn disjoint_sets_never_collide() {
        let c = collection(&["alpha beta gamma", "xx yy zz"]);
        let bc = MinHashBlocking::new(8, 2).build(&c);
        assert!(bc.distinct_pairs(&c).is_empty());
    }

    #[test]
    fn collision_rate_tracks_similarity() {
        // Many pairs at two similarity levels: the high-similarity pairs
        // must collide far more often than the low-similarity ones.
        let mut high = 0;
        let mut low = 0;
        let trials = 40;
        for i in 0..trials {
            let hi = collection(&["t1 t2 t3 t4 t5 t6 t7 t8 t9", "t1 t2 t3 t4 t5 t6 t7 t8 zz"]); // J = 8/10 = 0.8
            let lo = collection(&["t1 t2 a3 a4 a5 a6 a7 a8 a9", "t1 t2 b3 b4 b5 b6 b7 b8 b9"]); // J = 2/16 = 0.125
            let mh = MinHashBlocking::new(6, 3).with_seed(1000 + i);
            if !mh.build(&hi).distinct_pairs(&hi).is_empty() {
                high += 1;
            }
            if !mh.build(&lo).distinct_pairs(&lo).is_empty() {
                low += 1;
            }
        }
        assert!(
            high >= 35,
            "J=0.8 should almost always collide: {high}/{trials}"
        );
        assert!(low <= 10, "J=0.125 should rarely collide: {low}/{trials}");
    }

    #[test]
    fn probability_formula() {
        let mh = MinHashBlocking::new(6, 3);
        assert!((mh.collision_probability(1.0) - 1.0).abs() < 1e-12);
        assert!(mh.collision_probability(0.0) < 1e-12);
        let t = mh.implied_threshold();
        assert!(t > 0.4 && t < 0.7, "threshold {t}");
        // Monotone S-curve.
        let mut prev = 0.0;
        for i in 0..=10 {
            let p = mh.collision_probability(i as f64 / 10.0);
            assert!(p + 1e-12 >= prev);
            prev = p;
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let c = collection(&["a b c", "a b d", "e f g"]);
        let p1 = MinHashBlocking::new(4, 2).build(&c).distinct_pairs(&c);
        let p2 = MinHashBlocking::new(4, 2).build(&c).distinct_pairs(&c);
        assert_eq!(p1, p2);
    }

    #[test]
    fn empty_descriptions_are_skipped() {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        c.push(KbId(0), vec![]);
        c.push(KbId(0), vec![]);
        let bc = MinHashBlocking::new(4, 2).build(&c);
        assert!(bc.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one band")]
    fn zero_bands_rejected() {
        let _ = MinHashBlocking::new(0, 2);
    }
}
