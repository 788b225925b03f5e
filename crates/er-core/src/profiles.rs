//! Rank-ordered interned token profiles — the compact layout under the
//! matching kernel.
//!
//! A token-set matcher needs, per candidate pair, the two descriptions'
//! token sets. Tokenizing both into fresh `BTreeSet<String>`s per pair makes
//! the cost of a comparison the cost of two tokenizations; [`TokenProfiles`]
//! tokenizes every description **once** and stores the sets as sorted `u32`
//! slices in one CSR, so a comparison is a linear merge of two integer
//! slices ([`shared`]).
//!
//! Symbols are **rank-ordered**: after interning, the vocabulary is sorted
//! and every symbol renumbered to its token's lexicographic rank. Symbol
//! order then *is* token order, which buys two things. The profiles are a
//! pure function of the collection and the tokenizer — identical at every
//! thread count, although the interner underneath numbers tokens by first
//! encounter. And a merge-walk over two profiles visits the shared tokens in
//! the order a `BTreeSet<String>` iterates them, so a float sum over shared
//! tokens (TF-IDF) adds its terms in the same order as the string-set
//! reference and rounds to the same bits. See `docs/data_layout.md`.
//!
//! The profiles are also the pipeline's one tokenization of a run: token
//! blocking is their transpose (`er_blocking::token::blocks_from_profiles`)
//! and the matcher decides on them, so blocking and matching read one
//! inverted index. The module owns the one per-entity "tokenize → sort →
//! dedup" step of the workspace, [`EntityTokens::sorted_keys_into`];
//! attribute-clustering blocking's `(cluster, token)` keys use it too.

use crate::collection::EntityCollection;
use crate::entity::{Entity, EntityId};
use crate::intern::{Interner, Symbol};
use crate::parallel::{par_map_chunks, Parallelism};
use crate::tokenize::Tokenizer;

/// Entities tokenized per chunk by the parallel interned builds
/// ([`TokenProfiles::build`], `er_blocking`'s attribute clustering). Fixed —
/// never a function of the thread count — so chunk boundaries, and with them
/// the per-chunk interners absorbed left-to-right, are the same at every
/// parallelism level.
pub const CHUNK_ENTITIES: usize = 64;

/// Tokenizes entities into interned keys: a tokenizer, the interner its
/// symbols go to, and the buffers reused from one entity to the next (no
/// per-token or per-value allocation).
pub struct EntityTokens<'a> {
    tokenizer: &'a Tokenizer,
    interner: &'a mut Interner,
    normalized: String,
    symbols: Vec<Symbol>,
}

impl<'a> EntityTokens<'a> {
    /// Tokenizes with `tokenizer`, interning into `interner`.
    pub fn new(tokenizer: &'a Tokenizer, interner: &'a mut Interner) -> Self {
        EntityTokens {
            tokenizer,
            interner,
            normalized: String::new(),
            symbols: Vec::new(),
        }
    }

    /// Replaces `keys` with the entity's sorted distinct keys: every token
    /// of every attribute value, interned, turned into a key by
    /// `key(tag(attribute), symbol)` — `tag` runs once per attribute, `key`
    /// once per token. With the identity key this is the interned form of
    /// [`Entity::token_set`].
    pub fn sorted_keys_into<T: Copy, K: Ord>(
        &mut self,
        entity: &Entity,
        tag: impl Fn(&str) -> T,
        key: impl Fn(T, Symbol) -> K,
        keys: &mut Vec<K>,
    ) {
        keys.clear();
        for (attribute, value) in entity.attributes() {
            let tag = tag(attribute);
            self.symbols.clear();
            self.tokenizer.symbols_into(
                value,
                self.interner,
                &mut self.normalized,
                &mut self.symbols,
            );
            keys.extend(self.symbols.iter().map(|&s| key(tag, s)));
        }
        keys.sort_unstable();
        keys.dedup();
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

/// Every entity's distinct tokens as rank-ordered symbols, in one CSR.
///
/// `symbols[offsets[e] .. offsets[e + 1]]` are the tokens of entity `e`,
/// ascending; `vocabulary[s]` is the token of symbol `s`, and the vocabulary
/// is sorted, so comparing symbols compares tokens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TokenProfiles {
    offsets: Vec<u32>,
    symbols: Vec<Symbol>,
    vocabulary: Vec<String>,
}

impl TokenProfiles {
    /// Tokenizes every entity of `collection` once.
    ///
    /// Serial runs intern into one interner; parallel runs intern fixed
    /// [`CHUNK_ENTITIES`] chunks separately and absorb them left-to-right.
    /// The two number tokens differently, and the rank-ordering that follows
    /// erases the difference: the result depends on `collection` and
    /// `tokenizer` only.
    pub fn build(collection: &EntityCollection, tokenizer: &Tokenizer, par: Parallelism) -> Self {
        let entities: Vec<&Entity> = collection.iter().collect();
        let chunk = if par.is_serial() {
            entities.len().max(1)
        } else {
            CHUNK_ENTITIES
        };
        let mut chunks = par_map_chunks(par, &entities, chunk, |slice| {
            let mut interner = Interner::new();
            let mut tokens = EntityTokens::new(tokenizer, &mut interner);
            let mut row = Vec::new();
            let mut lens = Vec::with_capacity(slice.len());
            let mut symbols = Vec::new();
            for e in slice {
                tokens.sorted_keys_into(e, |_| (), |(), s| s, &mut row);
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
        assert!(
            u32::try_from(symbols.len()).is_ok(),
            "token profiles overflow: > u32::MAX symbols"
        );
        let mut offsets = Vec::with_capacity(lens.len() + 1);
        let mut end = 0u32;
        offsets.push(end);
        for len in lens {
            end += len as u32;
            offsets.push(end);
        }

        // Rank-order: renumber each symbol to its token's position in the
        // sorted vocabulary, then restore the per-entity sort.
        let mut by_token: Vec<(String, usize)> = interner
            .into_strings()
            .into_iter()
            .enumerate()
            .map(|(id, token)| (token, id))
            .collect();
        by_token.sort_unstable();
        let mut rank = vec![Symbol(0); by_token.len()];
        for (r, (_, id)) in by_token.iter().enumerate() {
            rank[*id] = Symbol(r as u32);
        }
        for s in &mut symbols {
            *s = rank[s.index()];
        }
        for row in offsets.windows(2) {
            symbols[row[0] as usize..row[1] as usize].sort_unstable();
        }
        TokenProfiles {
            offsets,
            symbols,
            vocabulary: by_token.into_iter().map(|(token, _)| token).collect(),
        }
    }

    /// Number of entities profiled.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether no entity was profiled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entity's distinct tokens as symbols, ascending (= in token
    /// order).
    ///
    /// # Panics
    /// Panics if `entity` is not an entity of the profiled collection.
    pub fn symbols(&self, entity: EntityId) -> &[Symbol] {
        let e = entity.index();
        &self.symbols[self.offsets[e] as usize..self.offsets[e + 1] as usize]
    }

    /// Every entity's profile, in entity order.
    pub fn iter(&self) -> impl Iterator<Item = &[Symbol]> + '_ {
        self.offsets
            .windows(2)
            .map(|row| &self.symbols[row[0] as usize..row[1] as usize])
    }

    /// Length of the CSR: the sum of all profile sizes.
    pub fn n_symbols(&self) -> usize {
        self.symbols.len()
    }

    /// The distinct tokens of the collection, sorted; `vocabulary()[s]` is
    /// the token of symbol `s`.
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

    fn resolved(p: &TokenProfiles, e: EntityId) -> Vec<&str> {
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
