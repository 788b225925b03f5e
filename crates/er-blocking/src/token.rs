//! Token blocking — the schema-agnostic workhorse of Web-of-data ER.
//!
//! Every token appearing in any attribute value becomes a block key; two
//! descriptions co-occur in a block iff they share at least one token
//! (\[20\], \[21\]). This achieves near-total pair completeness on heterogeneous
//! data (no schema knowledge needed) at the price of many redundant and
//! superfluous comparisons — which block cleaning and meta-blocking then
//! remove.

pub use crate::block::blocks_from_profiles;
use crate::block::BlockCollection;
use er_core::collection::EntityCollection;
use er_core::colstore::OocConfig;
use er_core::obs::Obs;
use er_core::parallel::Parallelism;
use er_core::profiles::TokenProfiles;
use er_core::tokenize::Tokenizer;

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

    /// The collection's token profiles under this method's tokenizer — the
    /// key rows its in-memory and distributed builds transpose.
    pub fn key_rows(&self, collection: &EntityCollection, par: Parallelism) -> TokenProfiles {
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
        blocks_from_profiles(&self.key_rows(collection, par), obs)
    }

    /// [`par_build_obs`](TokenBlocking::par_build_obs), kept only because
    /// `bench/` names it; delete with ROADMAP direction 1. `cfg` is not
    /// read and the result cannot be an error: the transpose spills nothing.
    pub fn par_build_ooc_obs(
        &self,
        collection: &EntityCollection,
        par: Parallelism,
        obs: &Obs,
        _cfg: &OocConfig,
    ) -> Result<BlockCollection, std::convert::Infallible> {
        Ok(self.par_build_obs(collection, par, obs))
    }

    /// The pre-compact, string-keyed build: per-entity `BTreeSet<String>`
    /// token sets fed to the `BTreeMap`-backed `blocks_from_keys`. Kept as
    /// the oracle of the layout-equivalence tests; output is bit-identical
    /// to [`par_build`](TokenBlocking::par_build).
    #[cfg(any(test, feature = "test-support"))]
    pub fn build_reference(
        &self,
        collection: &EntityCollection,
        par: Parallelism,
    ) -> BlockCollection {
        let entities: Vec<_> = collection.iter().collect();
        let keys = er_core::parallel::par_map(par, &entities, |e| {
            e.token_set(&self.tokenizer)
                .into_iter()
                .map(|t| (t, e.id()))
                .collect::<Vec<_>>()
        });
        crate::block::blocks_from_keys(keys.into_iter().flatten())
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
