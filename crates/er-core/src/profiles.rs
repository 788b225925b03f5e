//! Key rows: every description's blocking keys as rank-ordered interned
//! symbols in one CSR — the layout every block-producing family transposes
//! and the token-set matchers decide from.
//!
//! Signature-based blocking (the survey of arXiv 1905.06167) has one shape:
//! a [`KeyScheme`] emits each description's keys, and a block is one key's
//! posting list. [`KeyRows::build`] runs a scheme over a collection **once**
//! and stores each description's distinct keys as a sorted `u32` slice; the
//! blocks are then the rows' transpose (`er_blocking::block::blocks_from_profiles`),
//! whatever the family. Under the tokenizer scheme the rows are the run's
//! [`TokenProfiles`], so a token-set comparison is a linear merge of two
//! integer slices ([`shared`]).
//!
//! Symbols are **rank-ordered**: after interning, the vocabulary is sorted
//! and every symbol renumbered to its key's lexicographic rank. Symbol order
//! then *is* key order, which buys two things. The rows are a pure function
//! of the collection and the scheme — identical at every thread count,
//! although the interner underneath numbers keys by first encounter. And the
//! transpose emits blocks in the order a `BTreeMap<String, _>` iterates its
//! keys, while a merge-walk over two token profiles visits the shared tokens
//! in the order a `BTreeSet<String>` does, so a float sum over shared tokens
//! (TF-IDF) adds its terms in the same order as the string-set reference and
//! rounds to the same bits. See `docs/data_layout.md`.

use std::borrow::Cow;

use crate::collection::EntityCollection;
use crate::entity::{Entity, EntityId};
use crate::intern::{Fnv1a, Interner, Symbol};
use crate::parallel::{par_map, Parallelism};
use crate::tokenize::Tokenizer;

/// How a blocking family derives a description's keys. Two descriptions
/// share a block iff they share a key; keys may repeat and come in any
/// order — each row is sorted and deduplicated after the scheme has run.
///
/// ```
/// use er_core::collection::{EntityCollection, ResolutionMode};
/// use er_core::entity::{Entity, EntityBuilder, EntityId, KbId};
/// use er_core::parallel::Parallelism;
/// use er_core::profiles::{KeyRows, KeySink};
///
/// // Keys a description on the first three characters of its name.
/// let name_prefix = |entity: &Entity, sink: &mut KeySink<'_>| {
///     if let Some(name) = entity.value_of("name") {
///         sink.push(&name.chars().take(3).collect::<String>());
///     }
/// };
///
/// let mut c = EntityCollection::new(ResolutionMode::Dirty);
/// for name in ["Turing", "Hopper", "Turin"] {
///     c.push_entity(KbId(0), EntityBuilder::new().attr("name", name));
/// }
/// let rows = KeyRows::build(&c, &name_prefix, Parallelism::serial());
/// assert_eq!(rows.vocabulary(), ["Hop", "Tur"]);
/// assert_eq!(rows.symbols(EntityId(0)), rows.symbols(EntityId(2)));
/// ```
pub trait KeyScheme: Sync {
    /// Emits `entity`'s keys into `sink`.
    fn keys_into(&self, entity: &Entity, sink: &mut KeySink<'_>);
}

/// A closure is a scheme: the families whose keys depend on what they
/// learned from the collection (attribute clusters, frequent token pairs)
/// capture it.
impl<F: Fn(&Entity, &mut KeySink<'_>) + Sync> KeyScheme for F {
    fn keys_into(&self, entity: &Entity, sink: &mut KeySink<'_>) {
        self(entity, sink);
    }
}

/// Token blocking's scheme: every kept token of every attribute value.
impl KeyScheme for Tokenizer {
    fn keys_into(&self, entity: &Entity, sink: &mut KeySink<'_>) {
        for (_, value) in entity.attributes() {
            sink.push_tokens(self, "", value);
        }
    }
}

/// Where a [`KeyScheme`] emits keys: interns each one, reusing its buffers
/// from one description to the next (no per-key allocation beyond a key's
/// first sight).
///
/// A sink over `2^b` shard interners (inside a parallel
/// [`KeyRows::build`]) routes each key to a shard by the top bits of its
/// FNV-1a hash and numbers it `id << b | shard`; over one interner a key's
/// symbol is its interner id.
pub struct KeySink<'a> {
    shards: &'a mut [Interner],
    keys: Vec<Symbol>,
    normalized: String,
    key: String,
}

/// The shard of a key with FNV-1a hash `hash` among `shards`: the top 32
/// bits scaled onto `0..shards`, leaving the low bits, which pick the slot
/// inside a shard's table, uniform.
fn shard_of(hash: u64, shards: usize) -> usize {
    (((hash >> 32) * shards as u64) >> 32) as usize
}

/// Interns `key` into its shard (of a power-of-two count), as a sink
/// symbol (see [`KeySink`]).
fn intern_routed(shards: &mut [Interner], key: &str) -> Symbol {
    let hash = Fnv1a::hash(key.as_bytes());
    if let [interner] = shards {
        return interner.intern_hashed(key, hash);
    }
    let shard = shard_of(hash, shards.len());
    let id = u64::from(shards[shard].intern_hashed(key, hash).0);
    let symbol = u32::try_from(id << shards.len().trailing_zeros() | shard as u64).ok();
    Symbol(symbol.expect("key rows overflow: > u32::MAX sharded symbols"))
}

impl<'a> KeySink<'a> {
    /// A sink interning into `interner`.
    pub fn new(interner: &'a mut Interner) -> Self {
        Self::sharded(std::slice::from_mut(interner))
    }

    /// A sink routing each key to one of `shards` (a power-of-two count)
    /// by hash.
    fn sharded(shards: &'a mut [Interner]) -> Self {
        KeySink {
            shards,
            keys: Vec::new(),
            normalized: String::new(),
            key: String::new(),
        }
    }

    /// Replaces `row` with `entity`'s distinct keys under `scheme`, sorted
    /// by symbol.
    pub fn row_into<S: KeyScheme + ?Sized>(
        &mut self,
        scheme: &S,
        entity: &Entity,
        row: &mut Vec<Symbol>,
    ) {
        std::mem::swap(&mut self.keys, row);
        self.keys.clear();
        scheme.keys_into(entity, self);
        self.keys.sort_unstable();
        self.keys.dedup();
        std::mem::swap(&mut self.keys, row);
    }

    /// Emits one key.
    pub fn push(&mut self, key: &str) {
        let symbol = intern_routed(self.shards, key);
        self.keys.push(symbol);
    }

    /// Emits every token `tokenizer` keeps in `value` as the key
    /// `tag + token` (the bare token when `tag` is empty).
    pub fn push_tokens(&mut self, tokenizer: &Tokenizer, tag: &str, value: &str) {
        let (shards, keys, key) = (&mut *self.shards, &mut self.keys, &mut self.key);
        tokenizer.for_each_token(value, &mut self.normalized, |token| {
            let symbol = if tag.is_empty() {
                intern_routed(shards, token)
            } else {
                key.clear();
                key.push_str(tag);
                key.push_str(token);
                intern_routed(shards, key)
            };
            keys.push(symbol);
        });
    }
}

/// The shared symbols of two sorted distinct symbol slices, ascending — a
/// linear merge.
pub fn shared<'a>(a: &'a [Symbol], b: &'a [Symbol]) -> impl Iterator<Item = Symbol> + 'a {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                    return Some(a[i - 1]);
                }
            }
        }
        None
    })
}

/// Every entity's distinct keys as rank-ordered symbols, in one CSR.
///
/// `symbols[offsets[e] .. offsets[e + 1]]` are the keys of entity `e`,
/// ascending; `vocabulary[s]` is the key of symbol `s`, and the vocabulary
/// is sorted, so comparing symbols compares keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyRows {
    offsets: Vec<u32>,
    symbols: Vec<Symbol>,
    vocabulary: Vec<String>,
}

/// The key rows of the tokenizer scheme: every entity's distinct tokens.
/// Token blocking transposes them; the token-set matchers decide on them.
pub type TokenProfiles = KeyRows;

impl KeyRows {
    /// Runs `scheme` over every entity of `collection` once.
    ///
    /// With `P` workers the entities split into `P` contiguous ranges, and
    /// each range interns its keys into `S` shard interners (`P` rounded up
    /// to a power of two), routed by the top bits of the key's hash, so
    /// shard `s` of every range holds the same slice of the key space.
    /// Shard `s` then merges its per-range interners and sorts its keys; a
    /// k-way merge of the `S` sorted shards ranks every key; and each range
    /// renumbers its rows to the ranks. A serial build is the case
    /// `P = S = 1`. Ranks are the keys' lexicographic order, a function of
    /// the key set alone, so however the keys were ranged and sharded the
    /// result depends on `collection` and `scheme` only.
    pub fn build<S: KeyScheme + ?Sized>(
        collection: &EntityCollection,
        scheme: &S,
        par: Parallelism,
    ) -> Self {
        let entities: Vec<&Entity> = collection.iter().collect();
        let p = par.effective().max(1);
        let shards = p.next_power_of_two();
        let ranges: Vec<(usize, &[&Entity])> = entities
            .chunks(entities.len().div_ceil(p).max(1))
            .enumerate()
            .collect();

        let (keyed, interners): (Vec<_>, Vec<_>) = par_map(par, &ranges, |&(index, range)| {
            RangeRows::key(index, range, scheme, shards)
        })
        .into_iter()
        .unzip();
        // Shard s gets every range's shard-s interner, in range order.
        let mut by_shard: Vec<Vec<Interner>> = (0..shards).map(|_| Vec::new()).collect();
        for range_shards in interners {
            for (s, interner) in range_shards.into_iter().enumerate() {
                by_shard[s].push(interner);
            }
        }
        let (shard_keys, tables): (Vec<_>, Vec<_>) =
            par_map(par, &by_shard, |parts| rank_shard(parts))
                .into_iter()
                .unzip();
        drop(by_shard);
        let (vocabulary, global) = merge_sorted(par, shard_keys);

        let ranked = par_map(par, &keyed, |range| {
            range.ranked(shards, |s, local| {
                global[s][tables[s][range.index][local] as usize]
            })
        });
        let lens: Vec<usize> = keyed
            .iter()
            .flat_map(|range| range.lens.iter().copied())
            .collect();
        let symbols = ranked.concat();
        KeyRows {
            offsets: offsets(&lens, symbols.len()),
            symbols,
            vocabulary,
        }
    }

    /// Key rows from rows of first-encounter symbols: `lens[e]` symbols of
    /// `symbols` per entity, each row's symbols distinct, and
    /// `vocabulary[s]` the key of symbol `s`. Rank-orders the vocabulary and
    /// re-sorts every row.
    ///
    /// # Panics
    /// Panics if the rows hold more than `u32::MAX` symbols.
    pub fn from_rows(
        mut vocabulary: Vec<String>,
        lens: &[usize],
        mut symbols: Vec<Symbol>,
    ) -> Self {
        let offsets = offsets(lens, symbols.len());
        let order = sorted_ids(&vocabulary);
        let mut rank = vec![Symbol(0); order.len()];
        for (r, &id) in order.iter().enumerate() {
            rank[id as usize] = Symbol(r as u32);
        }
        for s in &mut symbols {
            *s = rank[s.index()];
        }
        for row in offsets.windows(2) {
            symbols[row[0] as usize..row[1] as usize].sort_unstable();
        }
        let vocabulary = order
            .iter()
            .map(|&id| std::mem::take(&mut vocabulary[id as usize]))
            .collect();
        KeyRows {
            offsets,
            symbols,
            vocabulary,
        }
    }

    /// Number of entities keyed.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether no entity was keyed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entity's distinct keys as symbols, ascending (= in key order).
    ///
    /// # Panics
    /// Panics if `entity` is not an entity of the keyed collection.
    pub fn symbols(&self, entity: EntityId) -> &[Symbol] {
        let e = entity.index();
        &self.symbols[self.offsets[e] as usize..self.offsets[e + 1] as usize]
    }

    /// Every entity's row, in entity order.
    pub fn iter(&self) -> impl Iterator<Item = &[Symbol]> + '_ {
        self.offsets
            .windows(2)
            .map(|row| &self.symbols[row[0] as usize..row[1] as usize])
    }

    /// Length of the CSR: the sum of all row sizes.
    pub fn n_symbols(&self) -> usize {
        self.symbols.len()
    }

    /// The distinct keys of the collection, sorted; `vocabulary()[s]` is the
    /// key of symbol `s`.
    pub fn vocabulary(&self) -> &[String] {
        &self.vocabulary
    }
}

/// The CSR offsets of rows of `lens` symbols, `n_symbols` in all.
///
/// # Panics
/// Panics if the rows hold more than `u32::MAX` symbols.
fn offsets(lens: &[usize], n_symbols: usize) -> Vec<u32> {
    assert!(
        u32::try_from(n_symbols).is_ok(),
        "key rows overflow: > u32::MAX symbols"
    );
    let mut offsets = Vec::with_capacity(lens.len() + 1);
    let mut end = 0u32;
    offsets.push(end);
    for &len in lens {
        end += len as u32;
        offsets.push(end);
    }
    offsets
}

/// The ids `0..keys.len()` in the order of their keys. Sorts `(prefix,
/// id)` pairs, `prefix` the key's first 8 bytes zero-padded and read
/// big-endian, so most comparisons never leave the pair; equal prefixes
/// fall back to the keys.
fn sorted_ids<K: AsRef<str>>(keys: &[K]) -> Vec<u32> {
    let prefix = |key: &str| {
        let mut bytes = [0u8; 8];
        let n = key.len().min(8);
        bytes[..n].copy_from_slice(&key.as_bytes()[..n]);
        u64::from_be_bytes(bytes)
    };
    let mut order: Vec<(u64, u32)> = keys
        .iter()
        .enumerate()
        .map(|(id, key)| (prefix(key.as_ref()), id as u32))
        .collect();
    order.sort_unstable_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| keys[a.1 as usize].as_ref().cmp(keys[b.1 as usize].as_ref()))
    });
    order.into_iter().map(|(_, id)| id).collect()
}

/// One contiguous entity range of a [`KeyRows::build`]: its rows as
/// [`KeySink`] symbols over its shard interners.
struct RangeRows {
    /// Position of the range among the build's ranges.
    index: usize,
    /// Row length per entity of the range.
    lens: Vec<usize>,
    /// The rows, back to back.
    symbols: Vec<Symbol>,
}

impl RangeRows {
    /// Keys every entity of `range` into `shards` fresh shard interners,
    /// returned beside the rows.
    fn key<S: KeyScheme + ?Sized>(
        index: usize,
        range: &[&Entity],
        scheme: &S,
        shards: usize,
    ) -> (Self, Vec<Interner>) {
        let mut interners = vec![Interner::new(); shards];
        let mut sink = KeySink::sharded(&mut interners);
        let mut row = Vec::new();
        let mut lens = Vec::with_capacity(range.len());
        let mut symbols = Vec::new();
        for e in range {
            sink.row_into(scheme, e, &mut row);
            lens.push(row.len());
            symbols.extend_from_slice(&row);
        }
        let rows = RangeRows {
            index,
            lens,
            symbols,
        };
        (rows, interners)
    }

    /// The rows, keyed over `shards` interners (a power of two), with every
    /// symbol renumbered to `rank(shard, local id)` and each row re-sorted.
    fn ranked(&self, shards: usize, rank: impl Fn(usize, usize) -> u32) -> Vec<Symbol> {
        let bits = shards.trailing_zeros();
        let mut out: Vec<Symbol> = self
            .symbols
            .iter()
            .map(|sym| Symbol(rank(sym.index() & (shards - 1), sym.index() >> bits)))
            .collect();
        let mut start = 0;
        for &len in &self.lens {
            out[start..start + len].sort_unstable();
            start += len;
        }
        out
    }
}

/// k-way merge of sorted, pairwise disjoint key lists: the merged keys
/// and, per list, `ranks[i]` = the merged rank of the list's `i`-th key.
///
/// A key's rank is its index in its own list plus, for every other list,
/// the number of that list's keys that sort before it — one two-pointer
/// walk per pair of lists, parallel over the lists. The keys then move to
/// their ranks.
fn merge_sorted(par: Parallelism, lists: Vec<Vec<String>>) -> (Vec<String>, Vec<Vec<u32>>) {
    let lists = match <[Vec<String>; 1]>::try_from(lists) {
        Ok([keys]) => {
            let ranks = (0..keys.len() as u32).collect();
            return (keys, vec![ranks]);
        }
        Err(lists) => lists,
    };
    let ids: Vec<usize> = (0..lists.len()).collect();
    let ranks = par_map(par, &ids, |&l| {
        let mut ranks: Vec<u32> = (0..lists[l].len() as u32).collect();
        for other in lists.iter().take(l).chain(lists.iter().skip(l + 1)) {
            let mut before = 0;
            for (rank, key) in ranks.iter_mut().zip(&lists[l]) {
                while before < other.len() && other[before] < *key {
                    before += 1;
                }
                *rank += before as u32;
            }
        }
        ranks
    });
    let mut merged = vec![String::new(); lists.iter().map(Vec::len).sum()];
    for (keys, ranks) in lists.into_iter().zip(&ranks) {
        for (key, &rank) in keys.into_iter().zip(ranks) {
            merged[rank as usize] = key;
        }
    }
    (merged, ranks)
}

/// One shard of a parallel [`KeyRows::build`]: merges the shard's
/// per-range interners `parts` (the first is the base the others intern
/// into) and sorts the merged keys. Returns the keys in order and, per
/// part, `table[local id] = rank within the shard`.
fn rank_shard(parts: &[Interner]) -> (Vec<String>, Vec<Vec<u32>>) {
    let Some((first, rest)) = parts.split_first() else {
        return (Vec::new(), Vec::new());
    };
    let mut merged = Cow::Borrowed(first);
    let remaps: Vec<Vec<u32>> = rest
        .iter()
        .map(|part| {
            let merged = merged.to_mut();
            part.strings().map(|key| merged.intern(key).0).collect()
        })
        .collect();
    let texts: Vec<&str> = merged.strings().collect();
    let order = sorted_ids(&texts);
    let mut rank = vec![0u32; order.len()];
    for (r, &id) in order.iter().enumerate() {
        rank[id as usize] = r as u32;
    }
    let keys = order
        .iter()
        .map(|&id| texts[id as usize].to_string())
        .collect();
    let mut tables: Vec<Vec<u32>> = remaps
        .into_iter()
        .map(|remap| remap.into_iter().map(|id| rank[id as usize]).collect())
        .collect();
    // The first part's ids are the merged interner's first ids.
    rank.truncate(first.len());
    tables.insert(0, rank);
    (keys, tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::ResolutionMode;
    use crate::entity::{EntityBuilder, KbId};

    fn collection(n: usize) -> EntityCollection {
        let words = ["delta", "alpha", "the", "charlie", "bravo", "echo", "of"];
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for i in 0..n {
            let a = format!("{} {} x{}", words[i % 7], words[(i * 3) % 7], i % 11);
            let b = format!("{} {}", words[(i + 2) % 7], words[i % 7]);
            c.push_entity(KbId(0), EntityBuilder::new().attr("p", a).attr("q", b));
        }
        c
    }

    fn resolved(p: &KeyRows, e: EntityId) -> Vec<&str> {
        p.symbols(e)
            .iter()
            .map(|s| p.vocabulary()[s.index()].as_str())
            .collect()
    }

    #[test]
    fn profiles_are_the_token_sets_in_token_order_at_every_thread_count() {
        // 200 entities span several 64-entity chunks, each with its own
        // first-encounter numbering.
        let c = collection(200);
        for t in [Tokenizer::default(), Tokenizer::raw()] {
            let serial = TokenProfiles::build(&c, &t, Parallelism::serial());
            assert_eq!(serial.len(), c.len());
            assert!(serial.vocabulary().windows(2).all(|w| w[0] < w[1]));
            for e in c.iter() {
                let want = e.token_set(&t);
                let want: Vec<&str> = want.iter().map(String::as_str).collect();
                assert_eq!(resolved(&serial, e.id()), want, "{:?}", e.id());
            }
            assert_eq!(
                serial.n_symbols(),
                c.iter().map(|e| e.token_set(&t).len()).sum::<usize>()
            );
            for n in [2, 4] {
                let chunked = TokenProfiles::build(&c, &t, Parallelism::threads(n));
                assert_eq!(chunked, serial, "{n} threads");
            }
        }
    }

    /// Keys tagged by attribute, `"{attribute}:"` + token, and two plain
    /// keys: a closure scheme through both sink entry points.
    fn tagged(entity: &Entity, sink: &mut KeySink<'_>) {
        for (attribute, value) in entity.attributes() {
            sink.push_tokens(&Tokenizer::default(), &format!("{attribute}:"), value);
        }
        sink.push(&format!("n{}", entity.attributes().len()));
        sink.push("all");
    }

    #[test]
    fn any_scheme_builds_rank_ordered_rows_at_every_thread_count() {
        let c = collection(150);
        let serial = KeyRows::build(&c, &tagged, Parallelism::serial());
        assert!(serial.vocabulary().windows(2).all(|w| w[0] < w[1]));
        let first = c.iter().next().unwrap();
        assert_eq!(
            resolved(&serial, first.id()),
            vec!["all", "n2", "p:delta", "p:x0", "q:delta"],
            "stop words dropped, repeated keys deduplicated"
        );
        assert_eq!(KeyRows::build(&c, &tagged, Parallelism::threads(3)), serial);
    }

    #[test]
    fn from_rows_rank_orders_any_first_encounter_numbering() {
        let vocabulary = ["zeta", "alpha", "mid"].map(String::from).to_vec();
        let s = |ids: &[u32]| ids.iter().map(|&i| Symbol(i)).collect::<Vec<_>>();
        let rows = KeyRows::from_rows(vocabulary, &[2, 0, 3], s(&[0, 1, 2, 0, 1]));
        assert_eq!(rows.vocabulary(), ["alpha", "mid", "zeta"]);
        assert_eq!(rows.symbols(EntityId(0)), s(&[0, 2]).as_slice());
        assert!(rows.symbols(EntityId(1)).is_empty());
        assert_eq!(rows.symbols(EntityId(2)), s(&[0, 1, 2]).as_slice());
    }

    #[test]
    fn empty_collection_and_empty_descriptions() {
        let empty = EntityCollection::new(ResolutionMode::Dirty);
        let p = TokenProfiles::build(&empty, &Tokenizer::default(), Parallelism::threads(2));
        assert!(p.is_empty());
        assert_eq!(p.n_symbols(), 0);

        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        c.push_entity(KbId(0), EntityBuilder::new());
        c.push_entity(KbId(0), EntityBuilder::new().attr("a", "the of"));
        c.push_entity(KbId(0), EntityBuilder::new().attr("a", "x").attr("b", "x"));
        let p = TokenProfiles::build(&c, &Tokenizer::default(), Parallelism::serial());
        assert!(p.symbols(EntityId(0)).is_empty());
        assert!(p.symbols(EntityId(1)).is_empty(), "stop words only");
        assert_eq!(resolved(&p, EntityId(2)), vec!["x"], "repeated value");
    }

    #[test]
    fn shared_walks_the_intersection_in_order() {
        let s = |ids: &[u32]| ids.iter().map(|&i| Symbol(i)).collect::<Vec<_>>();
        let (a, b) = (s(&[1, 3, 5, 7, 9]), s(&[0, 3, 4, 7, 8, 9, 12]));
        assert_eq!(shared(&a, &b).collect::<Vec<_>>(), s(&[3, 7, 9]));
        assert_eq!(shared(&b, &a).collect::<Vec<_>>(), s(&[3, 7, 9]));
        assert_eq!(shared(&a, &[]).count(), 0);
        assert_eq!(shared(&a, &a).count(), a.len());
    }
}
