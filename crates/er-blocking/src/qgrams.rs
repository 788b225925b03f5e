//! Q-grams blocking and its extended variant.
//!
//! Q-grams blocking keys a description on every character q-gram of its
//! blocking-key value, so two values sharing any q-gram co-occur — robust to
//! typos but block-happy. *Extended* q-grams blocking (Christen's survey \[7\])
//! instead keys on concatenations of large q-gram subsets, trading some of
//! that recall for far fewer, cleaner blocks.

use crate::block::{blocks_from_scheme, BlockCollection};
use er_core::collection::EntityCollection;
use er_core::entity::Entity;
use er_core::profiles::{KeyScheme, KeySink};
use er_core::tokenize::qgrams;

/// Which text a character-level method keys on.
#[derive(Clone, Debug, Default)]
pub enum KeySource {
    /// All attribute values, concatenated (schema-agnostic).
    #[default]
    AllValues,
    /// The first value of one attribute.
    Attribute(String),
}

impl KeySource {
    /// Extracts the key text (possibly empty) from an entity. Borrows when
    /// the source is a single attribute (no copy); only the concatenated
    /// all-values form is owned.
    pub fn text<'e>(&self, e: &'e Entity) -> std::borrow::Cow<'e, str> {
        match self {
            KeySource::AllValues => std::borrow::Cow::Owned(e.flattened_value()),
            KeySource::Attribute(a) => {
                std::borrow::Cow::Borrowed(e.value_of(a).unwrap_or_default())
            }
        }
    }
}

/// Plain q-grams blocking: one block per distinct q-gram.
#[derive(Clone, Debug)]
pub struct QGramsBlocking {
    q: usize,
    source: KeySource,
}

impl QGramsBlocking {
    /// Creates the method with gram length `q ≥ 1` over all values.
    pub fn new(q: usize) -> Self {
        assert!(q >= 1);
        QGramsBlocking {
            q,
            source: KeySource::AllValues,
        }
    }

    /// Restricts the key source.
    pub fn with_source(mut self, source: KeySource) -> Self {
        self.source = source;
        self
    }

    /// Builds the blocking collection.
    pub fn build(&self, collection: &EntityCollection) -> BlockCollection {
        blocks_from_scheme(collection, self)
    }
}

/// Every q-gram of the key text.
impl KeyScheme for QGramsBlocking {
    fn keys_into(&self, entity: &Entity, sink: &mut KeySink<'_>) {
        for gram in qgrams(&self.source.text(entity), self.q) {
            sink.push(&gram);
        }
    }
}

/// Extended q-grams blocking: keys are concatenations of every subset of at
/// least `⌈T·k⌉` of the value's `k` q-grams (capped for long values, where it
/// degenerates to the full concatenation).
#[derive(Clone, Debug)]
pub struct ExtendedQGramsBlocking {
    q: usize,
    /// Subset-size threshold `T ∈ (0, 1]`.
    threshold: f64,
    source: KeySource,
    /// Values with more q-grams than this use only the full concatenation
    /// (subset enumeration is exponential).
    max_grams: usize,
}

impl ExtendedQGramsBlocking {
    /// Creates the method; `threshold` in `(0, 1]` controls how many q-grams
    /// a subset must retain.
    pub fn new(q: usize, threshold: f64) -> Self {
        assert!(q >= 1);
        assert!(threshold > 0.0 && threshold <= 1.0);
        ExtendedQGramsBlocking {
            q,
            threshold,
            source: KeySource::AllValues,
            max_grams: 10,
        }
    }

    /// Restricts the key source.
    pub fn with_source(mut self, source: KeySource) -> Self {
        self.source = source;
        self
    }

    /// Keys for one entity's text.
    fn keys(&self, text: &str) -> Vec<String> {
        let grams: Vec<String> = {
            let set: std::collections::BTreeSet<String> =
                qgrams(text, self.q).into_iter().collect();
            set.into_iter().collect()
        };
        let k = grams.len();
        if k == 0 {
            return Vec::new();
        }
        let min_size = ((self.threshold * k as f64).ceil() as usize).clamp(1, k);
        if k > self.max_grams {
            return vec![grams.concat()];
        }
        // Enumerate subsets of size ≥ min_size (k ≤ max_grams keeps this small).
        let mut out = Vec::new();
        for mask in 1u32..(1 << k) {
            if (mask.count_ones() as usize) < min_size {
                continue;
            }
            let mut key = String::new();
            for (i, g) in grams.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    key.push_str(g);
                }
            }
            out.push(key);
        }
        out
    }

    /// Builds the blocking collection.
    pub fn build(&self, collection: &EntityCollection) -> BlockCollection {
        blocks_from_scheme(collection, self)
    }
}

/// Every q-gram-subset key of the key text.
impl KeyScheme for ExtendedQGramsBlocking {
    fn keys_into(&self, entity: &Entity, sink: &mut KeySink<'_>) {
        for key in self.keys(&self.source.text(entity)) {
            sink.push(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::collection::ResolutionMode;
    use er_core::entity::{EntityBuilder, EntityId, KbId};
    use er_core::pair::Pair;

    fn collection() -> EntityCollection {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        c.push_entity(KbId(0), EntityBuilder::new().attr("n", "smith"));
        c.push_entity(KbId(0), EntityBuilder::new().attr("n", "smyth"));
        c.push_entity(KbId(0), EntityBuilder::new().attr("n", "jones"));
        c
    }

    #[test]
    fn typo_variants_share_qgram_blocks() {
        let c = collection();
        let bc = QGramsBlocking::new(2).build(&c);
        let pairs = bc.distinct_pairs(&c);
        assert!(
            pairs.contains(&Pair::new(EntityId(0), EntityId(1))),
            "smith~smyth share grams"
        );
        assert!(
            !pairs.contains(&Pair::new(EntityId(0), EntityId(2))),
            "smith/jones share none"
        );
    }

    #[test]
    fn qgram_block_keys_have_length_q() {
        let c = collection();
        let bc = QGramsBlocking::new(3).build(&c);
        for b in bc.blocks() {
            assert_eq!(b.key().chars().count(), 3);
        }
    }

    #[test]
    fn attribute_source_restricts_text() {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        c.push_entity(
            KbId(0),
            EntityBuilder::new().attr("a", "abc").attr("b", "zzz"),
        );
        c.push_entity(
            KbId(0),
            EntityBuilder::new().attr("a", "xyz").attr("b", "zzz"),
        );
        let all = QGramsBlocking::new(2).build(&c);
        let only_a = QGramsBlocking::new(2)
            .with_source(KeySource::Attribute("a".into()))
            .build(&c);
        assert!(!all.is_empty(), "shared zzz grams block them");
        assert!(only_a.is_empty(), "attribute a shares no grams");
    }

    #[test]
    fn extended_qgrams_blocks_near_duplicates() {
        let c = collection();
        // threshold 0.8 on 6 grams → subsets of ≥ 5 grams; smith vs smyth
        // differ in interior grams, so they share no large subset…
        let strict = ExtendedQGramsBlocking::new(2, 0.95).build(&c);
        let loose = ExtendedQGramsBlocking::new(2, 0.5).build(&c);
        let strict_pairs = strict.distinct_pairs(&c);
        let loose_pairs = loose.distinct_pairs(&c);
        assert!(!strict_pairs.contains(&Pair::new(EntityId(0), EntityId(1))));
        assert!(loose_pairs.contains(&Pair::new(EntityId(0), EntityId(1))));
    }

    #[test]
    fn extended_qgrams_subset_count() {
        let m = ExtendedQGramsBlocking::new(2, 0.5);
        // "ab" → grams {#a, ab, b#}: subsets of size ≥ 2 → C(3,2)+C(3,3)=4.
        assert_eq!(m.keys("ab").len(), 4);
        assert!(m.keys("").is_empty());
    }

    #[test]
    fn extended_qgrams_long_value_caps() {
        let m = ExtendedQGramsBlocking::new(2, 0.5);
        let long = "abcdefghijklmnop";
        assert_eq!(m.keys(long).len(), 1, "long values fall back to one key");
    }

    #[test]
    fn identical_values_always_block_in_extended() {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        c.push_entity(
            KbId(0),
            EntityBuilder::new().attr("n", "identical text value"),
        );
        c.push_entity(
            KbId(0),
            EntityBuilder::new().attr("n", "identical text value"),
        );
        let bc = ExtendedQGramsBlocking::new(3, 0.9).build(&c);
        let pairs = bc.distinct_pairs(&c);
        assert!(pairs.contains(&Pair::new(EntityId(0), EntityId(1))));
    }
}
