//! Token blocking — the schema-agnostic workhorse of Web-of-data ER.
//!
//! Every token appearing in any attribute value becomes a block key; two
//! descriptions co-occur in a block iff they share at least one token
//! (\[20\], \[21\]). This achieves near-total pair completeness on heterogeneous
//! data (no schema knowledge needed) at the price of many redundant and
//! superfluous comparisons — which block cleaning and meta-blocking then
//! remove.

use crate::block::{blocks_from_keys, Block, BlockCollection};
use er_core::collection::EntityCollection;
use er_core::entity::EntityId;
use er_core::obs::Obs;
use er_core::parallel::{par_map, Parallelism};
use er_core::profiles::TokenProfiles;
use er_core::tokenize::Tokenizer;

/// Records `blocking.tokens_indexed` (token–entity index entries: the
/// profiles' CSR length) and `blocking.interner_symbols` (their vocabulary).
pub(crate) fn record_index_obs(obs: &Obs, profiles: &TokenProfiles) {
    if obs.is_enabled() {
        obs.counter("blocking.tokens_indexed")
            .add(profiles.n_symbols() as u64);
        obs.counter("blocking.interner_symbols")
            .add(profiles.vocabulary().len() as u64);
    }
}

/// Token blocks as the transpose of `profiles`: one block per token that at
/// least two descriptions share, keyed by the token — a counting sort by
/// symbol, with the block counters of [`BlockCollection::record_obs`].
///
/// This is the string-keyed build
/// ([`build_reference`](TokenBlocking::build_reference)) bit for bit, with
/// the profiles' tokenizer: symbols are ranks in the sorted vocabulary, so
/// symbol order is the lexicographic key order of a `BTreeMap<String, _>`;
/// entities are visited in id order, so members come out ascending; and a
/// profile row holds distinct tokens, so nothing needs deduplicating.
pub fn blocks_from_profiles(profiles: &TokenProfiles, obs: &Obs) -> BlockCollection {
    const NO_BLOCK: u32 = u32::MAX;
    record_index_obs(obs, profiles);
    let vocabulary = profiles.vocabulary();
    // Every token's block size, then its block's slot: shared tokens get
    // one in symbol (= key) order, the rest none.
    let mut slot = vec![0u32; vocabulary.len()];
    for s in profiles.iter().flatten() {
        slot[s.index()] += 1;
    }
    let mut blocks: Vec<(usize, Vec<EntityId>)> = Vec::new();
    for (symbol, size) in slot.iter_mut().enumerate() {
        if *size >= 2 {
            blocks.push((symbol, Vec::with_capacity(*size as usize)));
            *size = (blocks.len() - 1) as u32;
        } else {
            *size = NO_BLOCK;
        }
    }
    for (e, row) in profiles.iter().enumerate() {
        for s in row {
            let b = slot[s.index()];
            if b != NO_BLOCK {
                blocks[b as usize].1.push(EntityId(e as u32));
            }
        }
    }
    let blocks = BlockCollection::new(
        blocks
            .into_iter()
            .map(|(symbol, members)| Block::from_sorted(vocabulary[symbol].clone(), members))
            .collect(),
    );
    blocks.record_obs(obs);
    blocks
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

    /// The collection's token profiles under this method's tokenizer — what
    /// the in-memory and out-of-core builds transpose.
    pub(crate) fn profiles(
        &self,
        collection: &EntityCollection,
        par: Parallelism,
    ) -> TokenProfiles {
        TokenProfiles::build(collection, &self.tokenizer, par)
    }

    /// Builds the blocking collection: one block per distinct token.
    pub fn build(&self, collection: &EntityCollection) -> BlockCollection {
        self.par_build(collection, Parallelism::serial())
    }

    /// Parallel [`build`]: tokenizes entities across worker threads.
    ///
    /// Output is bit-identical to the serial path at every thread count:
    /// the token profiles are (rank-ordering erases the per-chunk interning
    /// order), and the blocks are their transpose.
    ///
    /// [`build`]: TokenBlocking::build
    pub fn par_build(&self, collection: &EntityCollection, par: Parallelism) -> BlockCollection {
        self.par_build_obs(collection, par, &Obs::disabled())
    }

    /// [`par_build`] with observability: [`blocks_from_profiles`] over a
    /// fresh tokenization — a pipeline run transposes the profiles it already
    /// holds instead.
    ///
    /// [`par_build`]: TokenBlocking::par_build
    pub fn par_build_obs(
        &self,
        collection: &EntityCollection,
        par: Parallelism,
        obs: &Obs,
    ) -> BlockCollection {
        blocks_from_profiles(&self.profiles(collection, par), obs)
    }

    /// The pre-compact, string-keyed build: per-entity `BTreeSet<String>`
    /// token sets fed to the `BTreeMap`-backed [`blocks_from_keys`]. Kept as
    /// the reference for the layout-equivalence property tests; output is
    /// bit-identical to
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
