//! Sorted neighborhood blocking and its extended (blocked) variant.
//!
//! Descriptions are sorted by a blocking key; a window of fixed size `w`
//! slides over the sorted list and every pair inside the window becomes a
//! candidate. Multi-pass execution with several keys compensates for errors
//! at the front of a key. The sorted order is also the substrate of
//! *progressive* sorted neighborhood (§IV, \[23\]), so [`SortedNeighborhood::sorted_ids`] is public
//! for `er-progressive` to reuse.

use crate::block::{Block, BlockCollection};
use er_core::collection::EntityCollection;
use er_core::entity::{Entity, EntityId};
use er_core::pair::Pair;
use er_core::parallel::{par_map, Parallelism};
use std::collections::BTreeSet;

/// Sort-key extraction for sorted neighborhood.
#[derive(Clone, Debug, Default)]
pub enum SortKey {
    /// The whole normalized description (schema-agnostic).
    #[default]
    FlattenedValue,
    /// Normalized first value of an attribute; entities lacking it sort to
    /// the end under an empty key.
    Attribute(String),
    /// Normalized first value of an attribute with its *tokens sorted* —
    /// robust to token-order variation ("turing alan" vs "alan turing").
    AttributeSortedTokens(String),
}

impl SortKey {
    /// Computes the sort key of an entity.
    pub fn key(&self, e: &Entity) -> String {
        match self {
            SortKey::FlattenedValue => e.flattened_value(),
            SortKey::Attribute(a) => e
                .value_of(a)
                .map(er_core::tokenize::normalize)
                .unwrap_or_default(),
            SortKey::AttributeSortedTokens(a) => {
                let mut toks: Vec<String> = e
                    .value_of(a)
                    .map(|v| {
                        er_core::tokenize::normalize(v)
                            .split_whitespace()
                            .map(str::to_string)
                            .collect()
                    })
                    .unwrap_or_default();
                toks.sort();
                toks.join(" ")
            }
        }
    }
}

/// Classic sorted neighborhood with window size `w ≥ 2`.
#[derive(Clone, Debug)]
pub struct SortedNeighborhood {
    key: SortKey,
    window: usize,
}

impl SortedNeighborhood {
    /// Creates the method.
    ///
    /// # Panics
    /// Panics if `window < 2` (a window of 1 yields no comparisons).
    pub fn new(key: SortKey, window: usize) -> Self {
        assert!(window >= 2, "window must cover at least two entities");
        SortedNeighborhood { key, window }
    }

    /// The entity ids sorted by key (ties broken by id for determinism).
    pub fn sorted_ids(&self, collection: &EntityCollection) -> Vec<EntityId> {
        self.order(collection, Parallelism::serial())
    }

    /// [`sorted_ids`](SortedNeighborhood::sorted_ids) with the keys computed
    /// under `par` — the same order at every thread count.
    fn order(&self, collection: &EntityCollection, par: Parallelism) -> Vec<EntityId> {
        let entities: Vec<&Entity> = collection.iter().collect();
        let mut keyed = par_map(par, &entities, |e| (self.key.key(e), e.id()));
        keyed.sort();
        keyed.into_iter().map(|(_, id)| id).collect()
    }

    /// The distinct admissible candidate pairs of one pass.
    pub fn candidate_pairs(&self, collection: &EntityCollection) -> Vec<Pair> {
        self.pairs(collection, Parallelism::serial())
    }

    /// [`candidate_pairs`](SortedNeighborhood::candidate_pairs), keyed under
    /// `par`.
    fn pairs(&self, collection: &EntityCollection, par: Parallelism) -> Vec<Pair> {
        let order = self.order(collection, par);
        let mut out = BTreeSet::new();
        for i in 0..order.len() {
            for j in (i + 1)..(i + self.window).min(order.len()) {
                if let Some(p) = collection.comparable_pair(order[i], order[j]) {
                    out.insert(p);
                }
            }
        }
        out.into_iter().collect()
    }
}

/// Multi-pass sorted neighborhood: the union of candidates over several keys.
#[derive(Clone, Debug)]
pub struct MultiPassSortedNeighborhood {
    passes: Vec<SortedNeighborhood>,
}

impl MultiPassSortedNeighborhood {
    /// Creates the method from one pass per key, all with the same window.
    pub fn new(keys: Vec<SortKey>, window: usize) -> Self {
        MultiPassSortedNeighborhood {
            passes: keys
                .into_iter()
                .map(|k| SortedNeighborhood::new(k, window))
                .collect(),
        }
    }

    /// Union of all passes' candidate pairs, each pass keying the
    /// descriptions under `par`; identical at every thread count.
    pub fn candidate_pairs(&self, collection: &EntityCollection, par: Parallelism) -> Vec<Pair> {
        let mut out = BTreeSet::new();
        for p in &self.passes {
            out.extend(p.pairs(collection, par));
        }
        out.into_iter().collect()
    }
}

/// Extended (blocked) sorted neighborhood: identical keys form blocks first,
/// then the window slides over *blocks*, pairing every description of the
/// covered blocks — immune to skew from frequent identical keys.
#[derive(Clone, Debug)]
pub struct ExtendedSortedNeighborhood {
    key: SortKey,
    window: usize,
}

impl ExtendedSortedNeighborhood {
    /// Creates the method; `window` counts blocks, not descriptions.
    pub fn new(key: SortKey, window: usize) -> Self {
        assert!(window >= 1);
        ExtendedSortedNeighborhood { key, window }
    }

    /// Builds the window blocks as a [`BlockCollection`].
    pub fn build(&self, collection: &EntityCollection) -> BlockCollection {
        let mut keyed: Vec<(String, EntityId)> = collection
            .iter()
            .map(|e| (self.key.key(e), e.id()))
            .collect();
        keyed.sort();
        // Group runs of equal keys.
        let mut groups: Vec<(String, Vec<EntityId>)> = Vec::new();
        for (k, id) in keyed {
            match groups.last_mut() {
                Some((gk, ids)) if *gk == k => ids.push(id),
                _ => groups.push((k, vec![id])),
            }
        }
        // Slide a window of `window` consecutive groups.
        let mut blocks = Vec::new();
        if groups.is_empty() {
            return BlockCollection::default();
        }
        let upper = groups.len().saturating_sub(self.window - 1).max(1);
        for start in 0..upper {
            let end = (start + self.window).min(groups.len());
            let mut members = Vec::new();
            let mut key = String::new();
            for (k, ids) in &groups[start..end] {
                if !key.is_empty() {
                    key.push('+');
                }
                key.push_str(k);
                members.extend_from_slice(ids);
            }
            blocks.push(Block::new(key, members));
        }
        BlockCollection::new(blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::collection::ResolutionMode;
    use er_core::entity::{EntityBuilder, KbId};

    fn collection(values: &[&str]) -> EntityCollection {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for v in values {
            c.push_entity(KbId(0), EntityBuilder::new().attr("n", *v));
        }
        c
    }

    #[test]
    fn window_pairs_nearby_keys() {
        let c = collection(&["aaa", "aab", "zzz", "aac"]);
        let sn = SortedNeighborhood::new(SortKey::Attribute("n".into()), 2);
        let pairs = sn.candidate_pairs(&c);
        // Sorted order: aaa(0) aab(1) aac(3) zzz(2); window 2 pairs neighbors.
        assert!(pairs.contains(&Pair::new(EntityId(0), EntityId(1))));
        assert!(pairs.contains(&Pair::new(EntityId(1), EntityId(3))));
        assert!(pairs.contains(&Pair::new(EntityId(2), EntityId(3))));
        assert!(!pairs.contains(&Pair::new(EntityId(0), EntityId(2))));
        assert_eq!(pairs.len(), 3);
    }

    #[test]
    fn larger_window_supersets_smaller() {
        let c = collection(&["d", "b", "a", "c", "e"]);
        let small = SortedNeighborhood::new(SortKey::Attribute("n".into()), 2).candidate_pairs(&c);
        let large = SortedNeighborhood::new(SortKey::Attribute("n".into()), 4).candidate_pairs(&c);
        for p in &small {
            assert!(large.contains(p));
        }
        assert!(large.len() > small.len());
    }

    #[test]
    fn window_n_is_quadratic_baseline() {
        let c = collection(&["a", "b", "c", "d"]);
        let sn = SortedNeighborhood::new(SortKey::Attribute("n".into()), 4);
        assert_eq!(sn.candidate_pairs(&c).len(), 6);
    }

    #[test]
    fn sorted_tokens_key_handles_reordering() {
        let c = collection(&["turing alan", "alan turing", "zz top"]);
        let plain = SortedNeighborhood::new(SortKey::Attribute("n".into()), 2).candidate_pairs(&c);
        let sorted_toks = SortedNeighborhood::new(SortKey::AttributeSortedTokens("n".into()), 2)
            .candidate_pairs(&c);
        let want = Pair::new(EntityId(0), EntityId(1));
        assert!(sorted_toks.contains(&want));
        // Under the plain key, "turing alan" sorts far from "alan turing" with
        // "zz top" ahead of it only at the very end; the adjacency that
        // matters is that sorted-token keys make the two identical.
        assert!(plain.len() >= 2 && !sorted_toks.is_empty());
    }

    #[test]
    fn multipass_unions_passes() {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        c.push_entity(
            KbId(0),
            EntityBuilder::new().attr("a", "aaa").attr("b", "yyy"),
        );
        c.push_entity(
            KbId(0),
            EntityBuilder::new().attr("a", "zzz").attr("b", "yyz"),
        );
        c.push_entity(
            KbId(0),
            EntityBuilder::new().attr("a", "aab").attr("b", "qqq"),
        );
        let mp = MultiPassSortedNeighborhood::new(
            vec![
                SortKey::Attribute("a".into()),
                SortKey::Attribute("b".into()),
            ],
            2,
        );
        let pairs = mp.candidate_pairs(&c, Parallelism::serial());
        assert!(
            pairs.contains(&Pair::new(EntityId(0), EntityId(2))),
            "close on a"
        );
        assert!(
            pairs.contains(&Pair::new(EntityId(0), EntityId(1))),
            "close on b"
        );
    }

    #[test]
    fn multipass_is_identical_at_every_thread_count() {
        let values: Vec<String> = (0..300)
            .map(|i| format!("v{} w{}", i % 37, i % 11))
            .collect();
        let c = collection(&values.iter().map(String::as_str).collect::<Vec<_>>());
        let mp = MultiPassSortedNeighborhood::new(
            vec![
                SortKey::FlattenedValue,
                SortKey::AttributeSortedTokens("n".into()),
            ],
            4,
        );
        let serial = mp.candidate_pairs(&c, Parallelism::serial());
        assert!(!serial.is_empty());
        for threads in [2, 4] {
            assert_eq!(
                mp.candidate_pairs(&c, Parallelism::threads(threads)),
                serial
            );
        }
    }

    #[test]
    fn extended_sn_blocks_equal_keys_together() {
        let c = collection(&["x", "x", "x", "y", "z"]);
        let esn = ExtendedSortedNeighborhood::new(SortKey::Attribute("n".into()), 2);
        let bc = esn.build(&c);
        // Window over groups [x],[y],[z]: blocks {x∪y}, {y∪z}.
        assert_eq!(bc.len(), 2);
        let pairs = bc.distinct_pairs(&c);
        // All three x's pair with each other and with y.
        assert!(pairs.contains(&Pair::new(EntityId(0), EntityId(1))));
        assert!(pairs.contains(&Pair::new(EntityId(0), EntityId(3))));
        assert!(pairs.contains(&Pair::new(EntityId(3), EntityId(4))));
        assert!(
            !pairs.contains(&Pair::new(EntityId(0), EntityId(4))),
            "x–z not in one window"
        );
    }

    #[test]
    fn empty_collection_yields_nothing() {
        let c = collection(&[]);
        let sn = SortedNeighborhood::new(SortKey::FlattenedValue, 3);
        assert!(sn.candidate_pairs(&c).is_empty());
        let esn = ExtendedSortedNeighborhood::new(SortKey::FlattenedValue, 2);
        assert!(esn.build(&c).is_empty());
    }

    #[test]
    fn empty_and_singleton_collections() {
        // A window needs two entities: fewer yield no pair on any pass.
        let keys = vec![SortKey::FlattenedValue, SortKey::Attribute("n".into())];
        for values in [&[][..], &["only"][..]] {
            let c = collection(values);
            let sn = SortedNeighborhood::new(SortKey::FlattenedValue, 3);
            assert!(sn.candidate_pairs(&c).is_empty(), "{values:?}");
            let mp = MultiPassSortedNeighborhood::new(keys.clone(), 3);
            assert!(
                mp.candidate_pairs(&c, Parallelism::serial()).is_empty(),
                "{values:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "window")]
    fn window_of_one_rejected() {
        let _ = SortedNeighborhood::new(SortKey::FlattenedValue, 1);
    }
}
