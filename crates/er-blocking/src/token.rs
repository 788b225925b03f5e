//! Token blocking — the schema-agnostic workhorse of Web-of-data ER.
//!
//! Every token appearing in any attribute value becomes a block key; two
//! descriptions co-occur in a block iff they share at least one token
//! (\[20\], \[21\]). This achieves near-total pair completeness on heterogeneous
//! data (no schema knowledge needed) at the price of many redundant and
//! superfluous comparisons — which block cleaning and meta-blocking then
//! remove.

use crate::block::{blocks_from_keys, blocks_from_symbols, BlockCollection};
use er_core::collection::EntityCollection;
use er_core::entity::{Entity, EntityId};
use er_core::intern::{Interner, Symbol};
use er_core::obs::Obs;
use er_core::parallel::{par_map, par_map_chunks, Parallelism};
use er_core::profiles::EntityTokens;
pub(crate) use er_core::profiles::CHUNK_ENTITIES;
use er_core::tokenize::Tokenizer;
use std::convert::Infallible;

/// A block key built from interned tokens: a bare [`Symbol`] (token
/// blocking) or a `(cluster, Symbol)` pair (attribute clustering).
pub(crate) trait PostingKey: Copy + Ord + Send {
    /// What an attribute name contributes to the keys of its tokens.
    type Tag: Copy;
    /// The key of token `symbol` under an attribute tagged `tag`.
    fn new(tag: Self::Tag, symbol: Symbol) -> Self;
    /// The key with its chunk-local symbol renumbered by an
    /// [`Interner::absorb`] table.
    fn remap(self, remap: &[Symbol]) -> Self;
}

impl PostingKey for Symbol {
    type Tag = ();

    fn new(_: (), symbol: Symbol) -> Symbol {
        symbol
    }

    fn remap(self, remap: &[Symbol]) -> Symbol {
        remap[self.index()]
    }
}

/// The one interned-postings producer: tokenizes `entities` straight into
/// interned keys (er-core's [`EntityTokens`]: one shared normalization
/// buffer per chunk, no per-token `String`) and hands the flat
/// `(key, entity)` postings — per-entity key *sets*, in entity order — to
/// `sink`, one vector per `batch_entities` entities. Returns the interner
/// the keys resolve against.
///
/// Serial runs intern into one global interner; parallel runs intern fixed
/// [`CHUNK_ENTITIES`] chunks separately and absorb them left-to-right.
/// Both number symbols differently and build the same blocks, because block
/// order is a function of resolved strings only. `batch_entities` bounds
/// the tokenized-but-not-yet-consumed working set and must be a multiple of
/// [`CHUNK_ENTITIES`] (or `usize::MAX`: one batch) so it never moves a chunk
/// boundary.
pub(crate) fn interned_postings<K: PostingKey, E>(
    tokenizer: &Tokenizer,
    entities: &[&Entity],
    par: Parallelism,
    batch_entities: usize,
    tag: impl Fn(&str) -> K::Tag + Sync,
    mut sink: impl FnMut(Vec<(K, EntityId)>) -> Result<(), E>,
) -> Result<Interner, E> {
    assert!(batch_entities == usize::MAX || batch_entities.is_multiple_of(CHUNK_ENTITIES));
    let tokenize = |slice: &[&Entity], interner: &mut Interner| {
        let mut tokens = EntityTokens::new(tokenizer, interner);
        let mut keys: Vec<K> = Vec::new();
        let mut postings: Vec<(K, EntityId)> = Vec::new();
        for e in slice {
            tokens.sorted_keys_into(e, &tag, K::new, &mut keys);
            postings.extend(keys.iter().map(|&k| (k, e.id())));
        }
        postings
    };
    let mut interner = Interner::new();
    for batch in entities.chunks(batch_entities) {
        let postings = if par.is_serial() {
            tokenize(batch, &mut interner)
        } else {
            let chunks = par_map_chunks(par, batch, CHUNK_ENTITIES, |chunk| {
                let mut local = Interner::new();
                let postings = tokenize(chunk, &mut local);
                (local, postings)
            });
            let mut postings = Vec::with_capacity(chunks.iter().map(|(_, p)| p.len()).sum());
            for (local, local_postings) in chunks {
                let remap = interner.absorb(local);
                postings.extend(
                    local_postings
                        .into_iter()
                        .map(|(k, e)| (k.remap(&remap), e)),
                );
            }
            postings
        };
        sink(postings)?;
    }
    Ok(interner)
}

/// [`interned_postings`] as one batch: the in-memory builds' whole flat
/// posting vector and its interner.
pub(crate) fn all_interned_postings<K: PostingKey>(
    tokenizer: &Tokenizer,
    collection: &EntityCollection,
    par: Parallelism,
    tag: impl Fn(&str) -> K::Tag + Sync,
) -> (Interner, Vec<(K, EntityId)>) {
    let entities: Vec<_> = collection.iter().collect();
    let mut postings = Vec::new();
    let Ok(interner) = interned_postings(tokenizer, &entities, par, usize::MAX, tag, |batch| {
        postings = batch; // the only batch
        Ok::<(), Infallible>(())
    });
    (interner, postings)
}

/// Records `blocking.tokens_indexed` (token–entity index entries before
/// grouping) and `blocking.interner_symbols`.
pub(crate) fn record_index_obs(obs: &Obs, indexed: u64, interner: &Interner) {
    if obs.is_enabled() {
        obs.counter("blocking.tokens_indexed").add(indexed);
        obs.counter("blocking.interner_symbols")
            .add(interner.len() as u64);
    }
}

/// Token blocking over all attribute values.
#[derive(Clone, Debug, Default)]
pub struct TokenBlocking {
    tokenizer: Tokenizer,
}

impl TokenBlocking {
    /// Creates the method with the default tokenizer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the tokenizer.
    pub fn with_tokenizer(mut self, tokenizer: Tokenizer) -> Self {
        self.tokenizer = tokenizer;
        self
    }

    /// The tokenizer — the out-of-core builder (`crate::ooc`) tokenizes with
    /// exactly the same instance to stay bit-identical.
    pub(crate) fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// Builds the blocking collection: one block per distinct token.
    pub fn build(&self, collection: &EntityCollection) -> BlockCollection {
        self.build_impl(collection, Parallelism::serial(), &Obs::disabled())
    }

    /// Parallel [`build`]: tokenizes entities across worker threads.
    ///
    /// Output is bit-identical to the serial path at every thread count:
    /// per-entity key lists are produced independently (tokenization is
    /// pure) and concatenated in entity order, so the inverted index sees
    /// the exact entry sequence the serial path would.
    ///
    /// [`build`]: TokenBlocking::build
    pub fn par_build(&self, collection: &EntityCollection, par: Parallelism) -> BlockCollection {
        self.build_impl(collection, par, &Obs::disabled())
    }

    /// [`par_build`] with observability: records `blocking.tokens_indexed`
    /// (token–entity index entries before grouping) plus the block counters
    /// and block-size histogram of [`BlockCollection::record_obs`].
    ///
    /// [`par_build`]: TokenBlocking::par_build
    pub fn par_build_obs(
        &self,
        collection: &EntityCollection,
        par: Parallelism,
        obs: &Obs,
    ) -> BlockCollection {
        self.build_impl(collection, par, obs)
    }

    /// Compact build: the flat postings of [`interned_postings`], grouped by
    /// a sort + run-length pass instead of a string-keyed tree map.
    ///
    /// Bit-identity with [`build_reference`](TokenBlocking::build_reference)
    /// at every thread count: chunk boundaries are fixed, per-chunk
    /// interners are absorbed left-to-right into one id space, and
    /// `blocks_from_symbols` orders blocks by *resolved string* — so symbol
    /// numbering never reaches the output.
    fn build_impl(
        &self,
        collection: &EntityCollection,
        par: Parallelism,
        obs: &Obs,
    ) -> BlockCollection {
        let (interner, entries) = all_interned_postings(&self.tokenizer, collection, par, |_| ());
        record_index_obs(obs, entries.len() as u64, &interner);
        let blocks = blocks_from_symbols(&interner, entries);
        blocks.record_obs(obs);
        blocks
    }

    /// The pre-compact, string-keyed build: per-entity `BTreeSet<String>`
    /// token sets fed to the `BTreeMap`-backed [`blocks_from_keys`]. Kept as
    /// the **A/B reference** for the layout experiment (E18) and the
    /// layout-equivalence property tests; output is bit-identical to
    /// [`par_build`](TokenBlocking::par_build).
    pub fn build_reference(
        &self,
        collection: &EntityCollection,
        par: Parallelism,
    ) -> BlockCollection {
        let entities: Vec<_> = collection.iter().collect();
        let keys = par_map(par, &entities, |e| {
            e.token_set(&self.tokenizer)
                .into_iter()
                .map(|t| (t, e.id()))
                .collect::<Vec<_>>()
        });
        blocks_from_keys(keys.into_iter().flatten())
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
        c.push_entity(KbId(0), EntityBuilder::new().attr("name", "alan turing"));
        c.push_entity(
            KbId(0),
            EntityBuilder::new().attr("fullname", "turing alan m"),
        );
        c.push_entity(KbId(0), EntityBuilder::new().attr("name", "grace hopper"));
        c.push_entity(
            KbId(0),
            EntityBuilder::new().attr("who", "rear admiral hopper"),
        );
        c
    }

    #[test]
    fn shared_tokens_create_blocks() {
        let c = collection();
        let bc = TokenBlocking::new().build(&c);
        let turing = bc.by_key("turing").expect("turing block");
        assert_eq!(turing.entities(), &[EntityId(0), EntityId(1)]);
        let hopper = bc.by_key("hopper").expect("hopper block");
        assert_eq!(hopper.entities(), &[EntityId(2), EntityId(3)]);
    }

    #[test]
    fn blocking_is_schema_agnostic() {
        // Entities 0/1 and 2/3 use different attribute names yet still block.
        let c = collection();
        let bc = TokenBlocking::new().build(&c);
        let pairs = bc.distinct_pairs(&c);
        assert!(pairs.contains(&Pair::new(EntityId(0), EntityId(1))));
        assert!(pairs.contains(&Pair::new(EntityId(2), EntityId(3))));
    }

    #[test]
    fn singleton_token_blocks_are_dropped() {
        let c = collection();
        let bc = TokenBlocking::new().build(&c);
        assert!(
            bc.by_key("grace").is_none(),
            "grace appears in one entity only"
        );
        for b in bc.blocks() {
            assert!(b.len() >= 2);
        }
    }

    #[test]
    fn shared_token_guarantee() {
        // Completeness: any two entities sharing ≥1 token end up in ≥1 common
        // block — the defining property of token blocking.
        let c = collection();
        let bc = TokenBlocking::new().build(&c);
        let t = Tokenizer::default();
        let pairs = bc.distinct_pairs(&c);
        for i in 0..c.len() as u32 {
            for j in (i + 1)..c.len() as u32 {
                let a = c.entity(EntityId(i)).token_set(&t);
                let b = c.entity(EntityId(j)).token_set(&t);
                let shares = a.intersection(&b).next().is_some();
                let blocked = pairs.contains(&Pair::new(EntityId(i), EntityId(j)));
                assert_eq!(shares, blocked, "entities {i},{j}");
            }
        }
    }

    #[test]
    fn empty_collection_gives_empty_blocking() {
        let c = EntityCollection::new(ResolutionMode::Dirty);
        assert!(TokenBlocking::new().build(&c).is_empty());
    }

    #[test]
    fn compact_build_matches_reference_at_all_thread_counts() {
        let c = collection();
        let tb = TokenBlocking::new();
        let reference = tb.build_reference(&c, Parallelism::serial());
        for n in [1, 2, 4] {
            assert_eq!(
                tb.par_build(&c, Parallelism::threads(n)),
                reference,
                "thread count {n}"
            );
        }
    }
}
