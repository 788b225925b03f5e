//! Blocks and block collections.
//!
//! A *block* is a set of descriptions that share a blocking key; a *blocking
//! collection* is the (overlapping) set of blocks a method produced. The two
//! quantities every §II technique reasons about live here: the **aggregate
//! comparison cardinality** (with redundancy — the cost a naive executor
//! pays) and the **distinct candidate pairs** (what a redundancy-free
//! executor compares).

use er_core::collection::{EntityCollection, ResolutionMode};
use er_core::entity::EntityId;
use er_core::intern::{Interner, Symbol};
use er_core::pair::Pair;

/// One block: a key and the (sorted, deduplicated) descriptions that share it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    key: String,
    entities: Vec<EntityId>,
}

impl Block {
    /// Creates a block, sorting and deduplicating its members.
    pub fn new(key: impl Into<String>, mut entities: Vec<EntityId>) -> Self {
        entities.sort_unstable();
        entities.dedup();
        Block {
            key: key.into(),
            entities,
        }
    }

    /// Creates a block from members already sorted and deduplicated — the
    /// compact grouping path produces them that way, so re-sorting would be
    /// pure overhead. Debug-asserted, not re-checked in release.
    pub(crate) fn from_sorted(key: String, entities: Vec<EntityId>) -> Self {
        debug_assert!(entities.windows(2).all(|w| w[0] < w[1]));
        Block { key, entities }
    }

    /// The blocking key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The member descriptions, sorted by id.
    pub fn entities(&self) -> &[EntityId] {
        &self.entities
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// Whether the block has no members.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Whether the block can yield any comparison under `mode`: at least two
    /// members, and in clean–clean at least two distinct KBs.
    pub fn is_comparable(&self, collection: &EntityCollection) -> bool {
        self.comparisons(collection) > 0
    }

    /// The comparison cardinality `||b||` of this block under the
    /// collection's resolution mode: `n(n−1)/2` for dirty; the product form
    /// over cross-KB pairs for clean–clean.
    pub fn comparisons(&self, collection: &EntityCollection) -> u64 {
        match collection.mode() {
            ResolutionMode::Dirty => {
                let n = self.entities.len() as u64;
                n * n.saturating_sub(1) / 2
            }
            ResolutionMode::CleanClean => {
                let mut counts: std::collections::BTreeMap<u16, u64> =
                    std::collections::BTreeMap::new();
                for &e in &self.entities {
                    *counts.entry(collection.entity(e).kb().0).or_insert(0) += 1;
                }
                let total: u64 = counts.values().sum();
                let sum_sq: u64 = counts.values().map(|c| c * c).sum();
                (total * total - sum_sq) / 2
            }
        }
    }

    /// Enumerates the admissible pairs inside the block (with no cross-block
    /// deduplication).
    pub fn pairs<'a>(
        &'a self,
        collection: &'a EntityCollection,
    ) -> impl Iterator<Item = Pair> + 'a {
        let n = self.entities.len();
        (0..n).flat_map(move |i| {
            let a = self.entities[i];
            self.entities[i + 1..n]
                .iter()
                .filter(move |&&b| collection.is_comparable(a, b))
                .map(move |&b| Pair::new(a, b))
        })
    }
}

/// A collection of blocks as produced by a blocking method.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockCollection {
    blocks: Vec<Block>,
}

impl BlockCollection {
    /// Creates a collection from blocks, dropping those with fewer than two
    /// members (they can never produce a comparison).
    pub fn new(blocks: Vec<Block>) -> Self {
        BlockCollection {
            blocks: blocks.into_iter().filter(|b| b.len() >= 2).collect(),
        }
    }

    /// The blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Consumes the collection, yielding its blocks — lets governance and
    /// other filters rebuild a collection from kept blocks without cloning
    /// every member vector.
    pub fn into_blocks(self) -> Vec<Block> {
        self.blocks
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether there are no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Looks up a block by key (linear scan; keys may repeat across methods
    /// like MultiBlock, in which case the first is returned).
    pub fn by_key(&self, key: &str) -> Option<&Block> {
        self.blocks.iter().find(|b| b.key() == key)
    }

    /// Aggregate comparison cardinality `‖B‖ = Σ_b ‖b‖` *with* redundancy —
    /// what a naive per-block executor pays.
    pub fn aggregate_comparisons(&self, collection: &EntityCollection) -> u64 {
        self.blocks.iter().map(|b| b.comparisons(collection)).sum()
    }

    /// Total entity–block assignments (the `BC` quantity of block purging).
    pub fn assignments(&self) -> u64 {
        self.blocks.iter().map(|b| b.len() as u64).sum()
    }

    /// The distinct admissible candidate pairs across all blocks, sorted —
    /// the redundancy-free comparison set used for quality metrics.
    pub fn distinct_pairs(&self, collection: &EntityCollection) -> Vec<Pair> {
        let mut pairs: Vec<Pair> = self
            .blocks
            .iter()
            .flat_map(|b| b.pairs(collection))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Per-entity index: for each entity, the indexes of the blocks that
    /// contain it — the structure meta-blocking and block filtering build on.
    pub fn entity_index(&self, n_entities: usize) -> Vec<Vec<u32>> {
        let mut idx = vec![Vec::new(); n_entities];
        for (bi, b) in self.blocks.iter().enumerate() {
            for &e in b.entities() {
                idx[e.index()].push(bi as u32);
            }
        }
        idx
    }

    /// Records this collection into an observability registry: the
    /// `blocking.blocks_built` counter and the `blocking.block_size` log2
    /// histogram. No-op on a disabled handle.
    pub fn record_obs(&self, obs: &er_core::obs::Obs) {
        if !obs.is_enabled() {
            return;
        }
        obs.counter("blocking.blocks_built")
            .add(self.blocks.len() as u64);
        let sizes = obs.histogram("blocking.block_size");
        for b in &self.blocks {
            sizes.record(b.len() as u64);
        }
    }

    /// Summary statistics for experiment output.
    pub fn stats(&self, collection: &EntityCollection) -> BlockStats {
        let distinct = self.distinct_pairs(collection).len() as u64;
        let aggregate = self.aggregate_comparisons(collection);
        BlockStats {
            blocks: self.blocks.len() as u64,
            assignments: self.assignments(),
            aggregate_comparisons: aggregate,
            distinct_comparisons: distinct,
            max_block_size: self
                .blocks
                .iter()
                .map(|b| b.len() as u64)
                .max()
                .unwrap_or(0),
        }
    }
}

impl FromIterator<Block> for BlockCollection {
    fn from_iter<T: IntoIterator<Item = Block>>(iter: T) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

/// Size/cost summary of a blocking collection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockStats {
    /// Number of blocks with ≥ 2 members.
    pub blocks: u64,
    /// Entity–block assignments.
    pub assignments: u64,
    /// Comparisons with redundancy.
    pub aggregate_comparisons: u64,
    /// Distinct admissible comparisons.
    pub distinct_comparisons: u64,
    /// Largest block size.
    pub max_block_size: u64,
}

impl BlockStats {
    /// Redundancy factor: aggregate / distinct comparisons (1.0 when the
    /// collection is redundancy-free; 0 when empty).
    pub fn redundancy(&self) -> f64 {
        if self.distinct_comparisons == 0 {
            0.0
        } else {
            self.aggregate_comparisons as f64 / self.distinct_comparisons as f64
        }
    }
}

/// Builds an inverted index `key → entities` and converts it into a
/// [`BlockCollection`] — the shared skeleton of every key-based method.
pub fn blocks_from_keys<I>(entries: I) -> BlockCollection
where
    I: IntoIterator<Item = (String, EntityId)>,
{
    let mut index: std::collections::BTreeMap<String, Vec<EntityId>> =
        std::collections::BTreeMap::new();
    for (key, id) in entries {
        index.entry(key).or_default().push(id);
    }
    index.into_iter().map(|(k, v)| Block::new(k, v)).collect()
}

/// Compact-layout counterpart of [`blocks_from_keys`]: groups flat
/// `(key, entity)` postings by **sort + run-length grouping** instead of a
/// string-keyed tree map. `K` is any cheap ordered key (a [`Symbol`], a
/// `(cluster, Symbol)` pair, …); `key_to_string` renders it to the owned
/// block key — called once per *distinct* key, not per posting.
///
/// Output is identical to `blocks_from_keys` fed the rendered keys, provided
/// `key_to_string` is injective over the distinct keys present:
/// * members: sort by `(K, EntityId)` + dedup ⇔ the per-key push + sort +
///   dedup of [`Block::new`];
/// * block order: distinct keys are ordered by their *rendered string*,
///   reproducing the `BTreeMap<String, _>` lexicographic iteration order
///   (symbol ids are first-encounter order and never leak into output).
pub fn blocks_from_grouped_keys<K>(
    mut entries: Vec<(K, EntityId)>,
    key_to_string: impl Fn(&K) -> String,
) -> BlockCollection
where
    K: Ord + Copy,
{
    entries.sort_unstable();
    entries.dedup();
    blocks_from_sorted_grouped_keys(entries, key_to_string)
}

/// [`blocks_from_grouped_keys`] for entries that are **already sorted and
/// deduplicated** — the incremental index maintains its posting vectors as
/// sorted runs, so re-sorting on every snapshot would be pure overhead.
/// Debug-asserted, not re-checked in release.
pub fn blocks_from_sorted_grouped_keys<K>(
    entries: Vec<(K, EntityId)>,
    key_to_string: impl Fn(&K) -> String,
) -> BlockCollection
where
    K: Ord + Copy,
{
    debug_assert!(entries.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
    // Run-length group: each distinct key owns a contiguous range of entries.
    // The distinct-key count is a cheap scan over already-sorted entries;
    // pre-reserving with it removes every reallocation of the groups vector
    // on the sort path (the output of a web-scale token build has millions
    // of distinct keys, each push otherwise a doubling candidate).
    let distinct = if entries.is_empty() {
        0
    } else {
        1 + entries.windows(2).filter(|w| w[0].0 != w[1].0).count()
    };
    let mut groups: Vec<(String, std::ops::Range<usize>)> = Vec::with_capacity(distinct);
    let mut start = 0;
    for i in 1..=entries.len() {
        if i == entries.len() || entries[i].0 != entries[start].0 {
            groups.push((key_to_string(&entries[start].0), start..i));
            start = i;
        }
    }
    groups.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
    BlockCollection::new(
        groups
            .into_iter()
            .map(|(key, range)| {
                let members = entries[range].iter().map(|&(_, e)| e).collect();
                Block::from_sorted(key, members)
            })
            .collect(),
    )
}

/// [`blocks_from_sorted_grouped_keys`] over interned token keys — the
/// incremental token index's snapshot path.
pub fn blocks_from_sorted_symbols(
    interner: &Interner,
    entries: Vec<(Symbol, EntityId)>,
) -> BlockCollection {
    blocks_from_sorted_grouped_keys(entries, |&s| interner.resolve(s).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::entity::KbId;

    fn id(n: u32) -> EntityId {
        EntityId(n)
    }

    fn dirty_collection(n: usize) -> EntityCollection {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for _ in 0..n {
            c.push(KbId(0), vec![]);
        }
        c
    }

    fn cc_collection(kb0: usize, kb1: usize) -> EntityCollection {
        let mut c = EntityCollection::new(ResolutionMode::CleanClean);
        for _ in 0..kb0 {
            c.push(KbId(0), vec![]);
        }
        for _ in 0..kb1 {
            c.push(KbId(1), vec![]);
        }
        c
    }

    #[test]
    fn block_sorts_and_dedups() {
        let b = Block::new("k", vec![id(3), id(1), id(3), id(2)]);
        assert_eq!(b.entities(), &[id(1), id(2), id(3)]);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn dirty_block_comparisons() {
        let c = dirty_collection(5);
        let b = Block::new("k", vec![id(0), id(1), id(2), id(3)]);
        assert_eq!(b.comparisons(&c), 6);
        assert_eq!(b.pairs(&c).count(), 6);
    }

    #[test]
    fn clean_clean_block_comparisons() {
        let c = cc_collection(2, 2);
        // Block holding both kb0 entities and one kb1 entity: 2×1 = 2.
        let b = Block::new("k", vec![id(0), id(1), id(2)]);
        assert_eq!(b.comparisons(&c), 2);
        let pairs: Vec<Pair> = b.pairs(&c).collect();
        assert_eq!(
            pairs,
            vec![Pair::new(id(0), id(2)), Pair::new(id(1), id(2))]
        );
    }

    #[test]
    fn clean_clean_same_kb_block_yields_nothing() {
        let c = cc_collection(3, 1);
        let b = Block::new("k", vec![id(0), id(1), id(2)]);
        assert_eq!(b.comparisons(&c), 0);
        assert!(!b.is_comparable(&c));
        assert_eq!(b.pairs(&c).count(), 0);
    }

    #[test]
    fn collection_drops_singletons() {
        let bc = BlockCollection::new(vec![
            Block::new("a", vec![id(0)]),
            Block::new("b", vec![id(0), id(1)]),
            Block::new("c", vec![]),
        ]);
        assert_eq!(bc.len(), 1);
        assert_eq!(bc.by_key("b").unwrap().len(), 2);
        assert!(bc.by_key("a").is_none());
    }

    #[test]
    fn distinct_pairs_deduplicate_across_blocks() {
        let c = dirty_collection(3);
        let bc = BlockCollection::new(vec![
            Block::new("x", vec![id(0), id(1)]),
            Block::new("y", vec![id(0), id(1), id(2)]),
        ]);
        assert_eq!(bc.aggregate_comparisons(&c), 1 + 3);
        let distinct = bc.distinct_pairs(&c);
        assert_eq!(distinct.len(), 3);
        let stats = bc.stats(&c);
        assert_eq!(stats.aggregate_comparisons, 4);
        assert_eq!(stats.distinct_comparisons, 3);
        assert!((stats.redundancy() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(stats.max_block_size, 3);
        assert_eq!(stats.assignments, 5);
    }

    #[test]
    fn entity_index_maps_entities_to_blocks() {
        let bc = BlockCollection::new(vec![
            Block::new("x", vec![id(0), id(1)]),
            Block::new("y", vec![id(1), id(2)]),
        ]);
        let idx = bc.entity_index(3);
        assert_eq!(idx[0], vec![0]);
        assert_eq!(idx[1], vec![0, 1]);
        assert_eq!(idx[2], vec![1]);
    }

    #[test]
    fn blocks_from_keys_groups() {
        let bc = blocks_from_keys(vec![
            ("a".to_string(), id(0)),
            ("a".to_string(), id(1)),
            ("b".to_string(), id(2)),
            ("a".to_string(), id(0)), // duplicate assignment collapses
        ]);
        assert_eq!(bc.len(), 1, "singleton block b dropped");
        assert_eq!(bc.by_key("a").unwrap().entities(), &[id(0), id(1)]);
    }

    #[test]
    fn grouped_keys_match_string_keys() {
        // Same postings through both skeletons; symbols interned in an order
        // deliberately different from lexicographic.
        let mut interner = Interner::new();
        let zeta = interner.intern("zeta");
        let alpha = interner.intern("alpha");
        let mid = interner.intern("mid");
        let entries = vec![
            (zeta, id(1)),
            (alpha, id(2)),
            (zeta, id(0)),
            (mid, id(3)),
            (alpha, id(0)),
            (zeta, id(1)), // duplicate posting collapses
            (mid, id(1)),
        ];
        let compact =
            blocks_from_grouped_keys(entries.clone(), |&s| interner.resolve(s).to_string());
        let reference = blocks_from_keys(
            entries
                .into_iter()
                .map(|(s, e)| (interner.resolve(s).to_string(), e)),
        );
        assert_eq!(compact, reference);
        let keys: Vec<&str> = compact.blocks().iter().map(|b| b.key()).collect();
        assert_eq!(keys, vec!["alpha", "mid", "zeta"], "lexicographic order");
    }

    #[test]
    fn grouped_keys_order_by_rendered_string_not_key() {
        // (cluster, symbol) keys render as "c{cid}:{token}"; "c10:a" sorts
        // *before* "c2:a" as a string even though 10 > 2 numerically — the
        // compact path must reproduce the string order.
        let mut interner = Interner::new();
        let a = interner.intern("a");
        let entries: Vec<((usize, Symbol), EntityId)> = vec![
            ((2, a), id(0)),
            ((2, a), id(1)),
            ((10, a), id(2)),
            ((10, a), id(3)),
        ];
        let compact = blocks_from_grouped_keys(entries, |&(cid, s)| {
            format!("c{cid}:{}", interner.resolve(s))
        });
        let keys: Vec<&str> = compact.blocks().iter().map(|b| b.key()).collect();
        assert_eq!(keys, vec!["c10:a", "c2:a"]);
    }

    #[test]
    fn grouped_keys_drop_singletons_and_empty_input() {
        let mut interner = Interner::new();
        let solo = interner.intern("solo");
        let pairk = interner.intern("pair");
        let render = |s: &Symbol| interner.resolve(*s).to_string();
        let bc =
            blocks_from_grouped_keys(vec![(solo, id(0)), (pairk, id(1)), (pairk, id(2))], render);
        assert_eq!(bc.len(), 1);
        assert_eq!(bc.by_key("pair").unwrap().entities(), &[id(1), id(2)]);
        assert!(blocks_from_grouped_keys(Vec::new(), render).is_empty());
    }

    #[test]
    fn into_blocks_round_trips() {
        let bc = BlockCollection::new(vec![
            Block::new("x", vec![id(0), id(1)]),
            Block::new("y", vec![id(1), id(2)]),
        ]);
        let blocks = bc.clone().into_blocks();
        assert_eq!(BlockCollection::new(blocks), bc);
    }

    #[test]
    fn empty_collection_stats() {
        let c = dirty_collection(0);
        let bc = BlockCollection::default();
        let stats = bc.stats(&c);
        assert_eq!(stats.blocks, 0);
        assert_eq!(stats.redundancy(), 0.0);
    }
}
