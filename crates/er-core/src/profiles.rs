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

use crate::collection::EntityCollection;
use crate::entity::{Entity, EntityId};
use crate::intern::{Interner, Symbol};
use crate::parallel::{par_map_chunks, Parallelism};
use crate::tokenize::Tokenizer;

/// Entities keyed per chunk by a parallel [`KeyRows::build`]. Fixed — never
/// a function of the thread count — so chunk boundaries, and with them the
/// per-chunk interners absorbed left-to-right, are the same at every
/// parallelism level.
pub const CHUNK_ENTITIES: usize = 64;

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
pub struct KeySink<'a> {
    interner: &'a mut Interner,
    keys: Vec<Symbol>,
    normalized: String,
    key: String,
}

impl<'a> KeySink<'a> {
    /// A sink interning into `interner`.
    pub fn new(interner: &'a mut Interner) -> Self {
        KeySink {
            interner,
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
        let symbol = self.interner.intern(key);
        self.keys.push(symbol);
    }

    /// Emits every token `tokenizer` keeps in `value` as the key
    /// `tag + token` (the bare token when `tag` is empty).
    pub fn push_tokens(&mut self, tokenizer: &Tokenizer, tag: &str, value: &str) {
        let (interner, keys, key) = (&mut *self.interner, &mut self.keys, &mut self.key);
        tokenizer.for_each_token(value, &mut self.normalized, |token| {
            let symbol = if tag.is_empty() {
                interner.intern(token)
            } else {
                key.clear();
                key.push_str(tag);
                key.push_str(token);
                interner.intern(key)
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
    /// Serial runs intern into one interner; parallel runs intern fixed
    /// [`CHUNK_ENTITIES`] chunks separately and absorb them left-to-right.
    /// The two number keys differently, and the rank-ordering that follows
    /// erases the difference: the result depends on `collection` and
    /// `scheme` only.
    pub fn build<S: KeyScheme + ?Sized>(
        collection: &EntityCollection,
        scheme: &S,
        par: Parallelism,
    ) -> Self {
        let entities: Vec<&Entity> = collection.iter().collect();
        let chunk = if par.is_serial() {
            entities.len().max(1)
        } else {
            CHUNK_ENTITIES
        };
        let mut chunks = par_map_chunks(par, &entities, chunk, |slice| {
            let mut interner = Interner::new();
            let mut sink = KeySink::new(&mut interner);
            let mut row = Vec::new();
            let mut lens = Vec::with_capacity(slice.len());
            let mut symbols = Vec::new();
            for e in slice {
                sink.row_into(scheme, e, &mut row);
                lens.push(row.len());
                symbols.extend_from_slice(&row);
            }
            (interner, lens, symbols)
        })
        .into_iter();

        // The first chunk's interner is the base the others are absorbed
        // into, so a serial (one-chunk) build never re-hashes its vocabulary.
        let (mut interner, mut lens, mut symbols) = chunks.next().unwrap_or_default();
        for (local, local_lens, local_symbols) in chunks {
            let remap = interner.absorb(local);
            symbols.extend(local_symbols.into_iter().map(|s| remap[s.index()]));
            lens.extend(local_lens);
        }
        Self::from_rows(interner.into_strings(), &lens, symbols)
    }

    /// Key rows from rows of first-encounter symbols: `lens[e]` symbols of
    /// `symbols` per entity, each row's symbols distinct, and
    /// `vocabulary[s]` the key of symbol `s`. Rank-orders the vocabulary and
    /// re-sorts every row.
    ///
    /// # Panics
    /// Panics if the rows hold more than `u32::MAX` symbols.
    pub fn from_rows(vocabulary: Vec<String>, lens: &[usize], mut symbols: Vec<Symbol>) -> Self {
        assert!(
            u32::try_from(symbols.len()).is_ok(),
            "key rows overflow: > u32::MAX symbols"
        );
        let mut offsets = Vec::with_capacity(lens.len() + 1);
        let mut end = 0u32;
        offsets.push(end);
        for &len in lens {
            end += len as u32;
            offsets.push(end);
        }

        // Rank-order: renumber each symbol to its key's position in the
        // sorted vocabulary, then restore the per-entity sort.
        let mut by_key: Vec<(String, usize)> = vocabulary
            .into_iter()
            .enumerate()
            .map(|(id, key)| (key, id))
            .collect();
        by_key.sort_unstable();
        let mut rank = vec![Symbol(0); by_key.len()];
        for (r, (_, id)) in by_key.iter().enumerate() {
            rank[*id] = Symbol(r as u32);
        }
        for s in &mut symbols {
            *s = rank[s.index()];
        }
        for row in offsets.windows(2) {
            symbols[row[0] as usize..row[1] as usize].sort_unstable();
        }
        KeyRows {
            offsets,
            symbols,
            vocabulary: by_key.into_iter().map(|(key, _)| key).collect(),
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
