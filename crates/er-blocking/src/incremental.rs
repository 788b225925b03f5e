//! Token blocking under entity arrivals.
//!
//! Batch token blocking ([`crate::token::TokenBlocking`]) re-tokenizes the
//! world on every call. The [`IncrementalTokenIndex`] tokenizes each
//! description once, on arrival, into one deduplicated symbol row, and a
//! snapshot hands those rows to the batch path's own transpose.
//!
//! No pipeline or streaming session reads this index: `StreamingSession`
//! resolves without blocks. The equivalence contract — locked by
//! `tests/streaming_equivalence.rs`, which drives the index directly — is
//! that [`snapshot_blocks`](IncrementalTokenIndex::snapshot_blocks) is
//! **bit-identical** to a full [`TokenBlocking::build`] /
//! [`TokenBlocking::par_build`] over the same entities, at every batch size,
//! arrival order and thread count. The argument:
//!
//! * each row is the entity's token *set* (`sort + dedup`), exactly as the
//!   batch path keys it, and entity ids never repeat across batches;
//! * the rows go through [`KeyRows::from_rows`] and [`blocks_from_profiles`],
//!   whose rank-ordering renumbers the interner's first-encounter symbols —
//!   which *do* depend on arrival order — before they can reach the output.
//!
//! [`TokenBlocking::build`]: crate::token::TokenBlocking::build
//! [`TokenBlocking::par_build`]: crate::token::TokenBlocking::par_build

use crate::block::{blocks_from_profiles, BlockCollection};
use er_core::entity::{Entity, EntityId};
use er_core::intern::{Interner, Symbol};
use er_core::obs::Obs;
use er_core::profiles::KeyRows;
use er_core::tokenize::Tokenizer;

/// What one [`insert_batch`](IncrementalTokenIndex::insert_batch) indexed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexDelta {
    /// First entity id of the batch: every id `>= batch_start` is new.
    pub batch_start: EntityId,
}

/// A token-blocking index maintained under entity arrivals: one token row
/// per entity, in id order.
#[derive(Default)]
pub struct IncrementalTokenIndex {
    tokenizer: Tokenizer,
    interner: Interner,
    /// Row length of each entity indexed so far (0 for skipped ids).
    lens: Vec<usize>,
    /// The rows, concatenated: each entity's distinct symbols, sorted.
    symbols: Vec<Symbol>,
}

impl IncrementalTokenIndex {
    /// Creates an empty index with the default tokenizer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the tokenizer (must match the batch oracle's).
    pub fn with_tokenizer(mut self, tokenizer: Tokenizer) -> Self {
        self.tokenizer = tokenizer;
        self
    }

    /// Indexes a batch of newly arrived entities, returning the delta.
    ///
    /// Entities must arrive in increasing-id order (the dense order
    /// `EntityCollection::push` assigns).
    pub fn insert_batch<'a, I>(&mut self, entities: I) -> IndexDelta
    where
        I: IntoIterator<Item = &'a Entity>,
    {
        let batch_start = EntityId(self.lens.len() as u32);
        let mut scratch = String::new();
        let mut row: Vec<Symbol> = Vec::new();
        for e in entities {
            assert!(
                e.id().index() >= self.lens.len(),
                "entities must arrive in increasing id order: got {:?} after {}",
                e.id(),
                self.lens.len()
            );
            self.lens.resize(e.id().index(), 0);
            row.clear();
            for (_, v) in e.attributes() {
                self.tokenizer
                    .symbols_into(v, &mut self.interner, &mut scratch, &mut row);
            }
            // Per-entity token *set*, exactly as the batch path.
            row.sort_unstable();
            row.dedup();
            self.lens.push(row.len());
            self.symbols.extend_from_slice(&row);
        }
        IndexDelta { batch_start }
    }

    /// The current blocking collection — **bit-identical** to
    /// `TokenBlocking::build` over the entities indexed so far.
    pub fn snapshot_blocks(&self) -> BlockCollection {
        let vocabulary = self.interner.clone().into_strings();
        let rows = KeyRows::from_rows(vocabulary, &self.lens, self.symbols.clone());
        blocks_from_profiles(&rows, &Obs::disabled())
    }

    /// The interner mapping symbols to token strings.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Entities indexed so far.
    pub fn n_entities(&self) -> usize {
        self.lens.len()
    }

    /// Total postings: the summed row lengths.
    pub fn postings(&self) -> usize {
        self.symbols.len()
    }

    /// Heap bytes held by the rows.
    pub fn posting_bytes(&self) -> u64 {
        let lens = self.lens.capacity() * std::mem::size_of::<usize>();
        (self.symbols.capacity() * std::mem::size_of::<Symbol>() + lens) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenBlocking;
    use er_core::collection::{EntityCollection, ResolutionMode};
    use er_core::entity::{EntityBuilder, KbId};
    use er_core::parallel::Parallelism;

    fn collection(values: &[&str]) -> EntityCollection {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for v in values {
            c.push_entity(KbId(0), EntityBuilder::new().attr("n", *v));
        }
        c
    }

    fn feed(c: &EntityCollection, batch: usize) -> IncrementalTokenIndex {
        let mut idx = IncrementalTokenIndex::new();
        let entities: Vec<_> = c.iter().collect();
        for chunk in entities.chunks(batch) {
            idx.insert_batch(chunk.iter().copied());
        }
        idx
    }

    const VALUES: &[&str] = &[
        "alan turing machine",
        "turing alan m",
        "grace hopper compiler",
        "rear admiral hopper",
        "zeta function riemann",
        "machine learning compiler",
        "alan kay smalltalk",
    ];

    #[test]
    fn snapshot_matches_full_rebuild_at_every_batch_size() {
        let c = collection(VALUES);
        let full = TokenBlocking::new().build(&c);
        for batch in [1, 2, 3, 7] {
            assert_eq!(feed(&c, batch).snapshot_blocks(), full, "batch {batch}");
        }
    }

    #[test]
    fn snapshot_matches_parallel_rebuild() {
        let c = collection(VALUES);
        let idx = feed(&c, 2);
        for n in [1, 4] {
            assert_eq!(
                idx.snapshot_blocks(),
                TokenBlocking::new().par_build(&c, Parallelism::threads(n)),
                "threads {n}"
            );
        }
    }

    #[test]
    fn mid_stream_snapshots_match_prefix_rebuilds() {
        let c = collection(VALUES);
        let entities: Vec<_> = c.iter().collect();
        let mut idx = IncrementalTokenIndex::new();
        for (i, e) in entities.iter().enumerate() {
            idx.insert_batch(std::iter::once(*e));
            let prefix = collection(&VALUES[..=i]);
            assert_eq!(
                idx.snapshot_blocks(),
                TokenBlocking::new().build(&prefix),
                "prefix {}",
                i + 1
            );
        }
    }

    #[test]
    fn members_and_counts_track_the_postings() {
        let c = collection(VALUES);
        let mut idx = IncrementalTokenIndex::new();
        let entities: Vec<_> = c.iter().collect();
        let members = |idx: &IncrementalTokenIndex, key: &str| {
            let blocks = idx.snapshot_blocks();
            let block = blocks.blocks().iter().find(|b| b.key() == key);
            block.map(|b| b.entities().to_vec())
        };
        let d0 = idx.insert_batch(entities[..2].iter().copied());
        assert_eq!(d0.batch_start, EntityId(0));
        assert_eq!(
            members(&idx, "turing"),
            Some(vec![EntityId(0), EntityId(1)])
        );
        assert_eq!(members(&idx, "machine"), None, "one member is no block");
        let d1 = idx.insert_batch(entities[2..].iter().copied());
        assert_eq!(d1.batch_start, EntityId(2));
        assert_eq!(
            members(&idx, "machine"),
            Some(vec![EntityId(0), EntityId(5)])
        );
        assert_eq!(idx.n_entities(), VALUES.len());
        assert_eq!(idx.postings() as u64, full_postings(&c));
    }

    /// Postings of the batch build, singleton tokens included.
    fn full_postings(c: &EntityCollection) -> u64 {
        let tokenizer = er_core::tokenize::Tokenizer::default();
        c.iter()
            .map(|e| {
                let mut tokens: Vec<String> = e
                    .attributes()
                    .iter()
                    .flat_map(|(_, v)| tokenizer.tokens(v))
                    .collect();
                tokens.sort();
                tokens.dedup();
                tokens.len() as u64
            })
            .sum()
    }

    #[test]
    fn out_of_order_ids_panic() {
        let c = collection(&["a b", "c d"]);
        let mut idx = IncrementalTokenIndex::new();
        let entities: Vec<_> = c.iter().collect();
        idx.insert_batch(std::iter::once(entities[1]));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            idx.insert_batch(std::iter::once(entities[0]))
        }));
        assert!(result.is_err(), "decreasing ids must be rejected");
    }

    #[test]
    fn empty_index_snapshots_empty() {
        let idx = IncrementalTokenIndex::new();
        assert!(idx.snapshot_blocks().is_empty());
        assert_eq!(idx.postings(), 0);
        assert_eq!(idx.n_entities(), 0);
    }

    #[test]
    fn posting_bytes_grow_with_the_stream() {
        let c = collection(VALUES);
        let mut idx = IncrementalTokenIndex::new();
        let before = idx.posting_bytes();
        idx.insert_batch(c.iter());
        assert!(idx.posting_bytes() > before);
    }
}
