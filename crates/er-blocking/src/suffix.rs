//! Suffix-array blocking.
//!
//! Keys every description on all suffixes (of length ≥ `min_len`) of its
//! blocking-key value; oversized suffix blocks (short, frequent suffixes) are
//! discarded by `max_block_size`, as in the original method from the record-
//! linkage literature surveyed in \[7\].

use crate::block::{blocks_from_scheme, BlockCollection};
use crate::qgrams::KeySource;
use er_core::collection::EntityCollection;
use er_core::entity::Entity;
use er_core::profiles::{KeyScheme, KeySink};
use er_core::tokenize::suffixes;

/// Suffix-array blocking.
#[derive(Clone, Debug)]
pub struct SuffixBlocking {
    min_len: usize,
    max_block_size: usize,
    source: KeySource,
}

impl SuffixBlocking {
    /// Creates the method: suffixes of at least `min_len` characters; blocks
    /// larger than `max_block_size` are dropped.
    pub fn new(min_len: usize, max_block_size: usize) -> Self {
        assert!(min_len >= 1);
        assert!(max_block_size >= 2);
        SuffixBlocking {
            min_len,
            max_block_size,
            source: KeySource::AllValues,
        }
    }

    /// Restricts the key source.
    pub fn with_source(mut self, source: KeySource) -> Self {
        self.source = source;
        self
    }

    /// Builds the blocking collection: the suffix blocks of at most
    /// `max_block_size` members.
    pub fn build(&self, collection: &EntityCollection) -> BlockCollection {
        blocks_from_scheme(collection, self)
            .into_blocks()
            .into_iter()
            .filter(|b| b.len() <= self.max_block_size)
            .collect()
    }
}

/// Every suffix of the key text of at least `min_len` characters.
impl KeyScheme for SuffixBlocking {
    fn keys_into(&self, entity: &Entity, sink: &mut KeySink<'_>) {
        for suffix in suffixes(&self.source.text(entity), self.min_len) {
            sink.push(&suffix);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::collection::ResolutionMode;
    use er_core::entity::{EntityBuilder, EntityId, KbId};
    use er_core::pair::Pair;

    fn push(c: &mut EntityCollection, v: &str) -> EntityId {
        c.push_entity(KbId(0), EntityBuilder::new().attr("n", v))
    }

    #[test]
    fn shared_suffixes_block() {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        push(&mut c, "katherine");
        push(&mut c, "catherine");
        push(&mut c, "xavier");
        let bc = SuffixBlocking::new(4, 50).build(&c);
        let pairs = bc.distinct_pairs(&c);
        assert!(
            pairs.contains(&Pair::new(EntityId(0), EntityId(1))),
            "share 'atherine'"
        );
        assert!(!pairs.iter().any(|p| p.contains(EntityId(2))));
    }

    #[test]
    fn min_len_limits_keys() {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        push(&mut c, "abc");
        push(&mut c, "xbc");
        // Shared suffix "bc" has length 2 < 3 → no block.
        let bc = SuffixBlocking::new(3, 50).build(&c);
        assert!(bc.is_empty());
        let bc2 = SuffixBlocking::new(2, 50).build(&c);
        assert!(!bc2.is_empty());
    }

    #[test]
    fn oversized_blocks_are_dropped() {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for _ in 0..5 {
            push(&mut c, "samename");
        }
        let capped = SuffixBlocking::new(4, 4).build(&c);
        assert!(
            capped.is_empty(),
            "all suffix blocks have 5 members > cap 4"
        );
        let uncapped = SuffixBlocking::new(4, 10).build(&c);
        assert!(!uncapped.is_empty());
    }

    #[test]
    fn suffix_keys_ignore_whitespace() {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        push(&mut c, "alan turing");
        push(&mut c, "alanturing");
        let bc = SuffixBlocking::new(6, 50).build(&c);
        let pairs = bc.distinct_pairs(&c);
        assert!(pairs.contains(&Pair::new(EntityId(0), EntityId(1))));
    }
}
