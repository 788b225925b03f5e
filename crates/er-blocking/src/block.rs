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
use er_core::intern::Symbol;
use er_core::obs::Obs;
use er_core::pair::Pair;
use er_core::parallel::Parallelism;
use er_core::profiles::{KeyRows, KeyScheme};

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

/// Records `blocking.tokens_indexed` (key–entity index entries: the rows'
/// CSR length) and `blocking.interner_symbols` (their vocabulary).
fn record_index_obs(obs: &Obs, rows: &KeyRows) {
    if obs.is_enabled() {
        obs.counter("blocking.tokens_indexed")
            .add(rows.n_symbols() as u64);
        obs.counter("blocking.interner_symbols")
            .add(rows.vocabulary().len() as u64);
    }
}

/// The blocks of a key-row build: one block per key that at least two
/// descriptions share, keyed by the key — the transpose of `rows`, a
/// counting sort by symbol, with the block counters of
/// [`BlockCollection::record_obs`]. Every block-producing family is this
/// over its own key scheme's rows (out of core:
/// [`blocks_from_profiles_ooc`](crate::ooc::blocks_from_profiles_ooc)).
///
/// This is the string-keyed `BTreeMap<String, Vec<EntityId>>` grouping of
/// the same keys bit for bit: symbols are ranks in the sorted vocabulary,
/// so symbol order is the map's lexicographic key order; entities are
/// visited in id order, so members come out ascending; and a row holds
/// distinct keys, so nothing needs deduplicating.
pub fn blocks_from_profiles(rows: &KeyRows, obs: &Obs) -> BlockCollection {
    const NO_BLOCK: u32 = u32::MAX;
    // Every key's block size, then its block's slot: shared keys get one in
    // symbol (= key) order, the rest none.
    let mut slot = vec![0u32; rows.vocabulary().len()];
    for s in rows.iter().flatten() {
        slot[s.index()] += 1;
    }
    let mut blocks: Vec<(Symbol, Vec<EntityId>)> = Vec::new();
    for (symbol, size) in slot.iter_mut().enumerate() {
        if *size >= 2 {
            blocks.push((Symbol(symbol as u32), Vec::with_capacity(*size as usize)));
            *size = (blocks.len() - 1) as u32;
        } else {
            *size = NO_BLOCK;
        }
    }
    for (e, row) in rows.iter().enumerate() {
        for s in row {
            let b = slot[s.index()];
            if b != NO_BLOCK {
                blocks[b as usize].1.push(EntityId(e as u32));
            }
        }
    }
    blocks_from_groups(rows, blocks, obs)
}

/// The blocks of a transpose of `rows` that grouped its postings elsewhere
/// — in memory, through an external sort, or on worker processes: one block
/// per `(symbol, members)` group with ≥ 2 members, keyed by rendering the
/// symbol through the rows' vocabulary once, with the index counters of
/// `rows` and the block counters of [`BlockCollection::record_obs`].
///
/// Groups must come in ascending symbol order, members ascending and
/// distinct, and every symbol must be one of `rows`' vocabulary (it
/// indexes it).
pub fn blocks_from_groups(
    rows: &KeyRows,
    groups: impl IntoIterator<Item = (Symbol, Vec<EntityId>)>,
    obs: &Obs,
) -> BlockCollection {
    record_index_obs(obs, rows);
    let vocabulary = rows.vocabulary();
    let blocks = BlockCollection::new(
        groups
            .into_iter()
            .filter(|(_, members)| members.len() >= 2)
            .map(|(s, members)| Block::from_sorted(vocabulary[s.index()].clone(), members))
            .collect(),
    );
    blocks.record_obs(obs);
    blocks
}

/// The blocks of `scheme` over `collection`: its key rows, built serially,
/// transposed without observability — the `build` of every key-based
/// family.
pub fn blocks_from_scheme<S: KeyScheme + ?Sized>(
    collection: &EntityCollection,
    scheme: &S,
) -> BlockCollection {
    blocks_from_profiles(
        &KeyRows::build(collection, scheme, Parallelism::serial()),
        &Obs::disabled(),
    )
}

/// The string-keyed grouping the key-row transpose replaced: an inverted
/// index `key → entities` in a `BTreeMap`, kept as the equivalence tests'
/// oracle.
#[cfg(any(test, feature = "test-support"))]
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

    /// Key rows over `keys[e]` per entity `e`, interned in first-encounter
    /// order — deliberately not the lexicographic one.
    fn rows(keys: &[&[&str]]) -> KeyRows {
        let mut interner = er_core::intern::Interner::new();
        let mut symbols = Vec::new();
        let mut lens = Vec::new();
        for row in keys {
            let mut row: Vec<_> = row.iter().map(|k| interner.intern(k)).collect();
            row.sort_unstable();
            row.dedup();
            lens.push(row.len());
            symbols.extend(row);
        }
        KeyRows::from_rows(interner.into_strings(), &lens, symbols)
    }

    /// The string-keyed postings of the same rows.
    fn postings(keys: &[&[&str]]) -> Vec<(String, EntityId)> {
        let mut out = Vec::new();
        for (e, row) in keys.iter().enumerate() {
            out.extend(row.iter().map(|k| (k.to_string(), id(e as u32))));
        }
        out
    }

    #[test]
    fn grouped_keys_match_string_keys() {
        let keys: &[&[&str]] = &[
            &["zeta", "alpha"],
            &["zeta", "mid", "zeta"], // repeated key collapses
            &["alpha"],
            &["mid"],
        ];
        let transposed = blocks_from_profiles(&rows(keys), &Obs::disabled());
        assert_eq!(transposed, blocks_from_keys(postings(keys)));
        let keys: Vec<&str> = transposed.blocks().iter().map(|b| b.key()).collect();
        assert_eq!(keys, vec!["alpha", "mid", "zeta"], "lexicographic order");
    }

    #[test]
    fn grouped_keys_order_by_rendered_string_not_key() {
        // Attribute clustering keys render as "c{cid}:{token}"; "c10:a"
        // sorts *before* "c2:a" as a string even though 10 > 2 numerically,
        // and the transpose reproduces the string order.
        let keys: &[&[&str]] = &[&["c2:a"], &["c2:a"], &["c10:a"], &["c10:a"]];
        let transposed = blocks_from_profiles(&rows(keys), &Obs::disabled());
        let keys: Vec<&str> = transposed.blocks().iter().map(|b| b.key()).collect();
        assert_eq!(keys, vec!["c10:a", "c2:a"]);
    }

    #[test]
    fn grouped_keys_drop_singletons_and_empty_input() {
        let keys: &[&[&str]] = &[&["solo"], &["pair"], &["pair"]];
        let bc = blocks_from_profiles(&rows(keys), &Obs::disabled());
        assert_eq!(bc.len(), 1);
        assert_eq!(bc.by_key("pair").unwrap().entities(), &[id(1), id(2)]);
        assert!(blocks_from_profiles(&rows(&[]), &Obs::disabled()).is_empty());
        assert!(blocks_from_profiles(&rows(&[&[], &[]]), &Obs::disabled()).is_empty());
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
