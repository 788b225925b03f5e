//! Incremental token-blocking index maintenance.
//!
//! Batch token blocking ([`crate::token::TokenBlocking`]) re-tokenizes and
//! re-groups the world on every call — a non-starter when descriptions
//! arrive as a stream. The [`IncrementalTokenIndex`] maintains the same flat
//! `(Symbol, EntityId)` posting vectors *under updates*: new entities append
//! postings to a **sorted pending run** which is periodically **compacted**
//! (merged) into the sorted main run, the classic LSM-style maintenance the
//! blocking/filtering survey motivates for posting lists under updates.
//!
//! No pipeline or streaming session reads this index: it is a library
//! primitive whose [`IndexDelta`] feeds the incremental blocking graph
//! (`er_metablocking::IncrementalGraph`). The equivalence contract — locked
//! by `tests/streaming_equivalence.rs`, which drives both directly — is
//! that [`snapshot_blocks`](IncrementalTokenIndex::snapshot_blocks) is
//! **bit-identical** to a full [`TokenBlocking::build`] /
//! [`TokenBlocking::par_build`] over the same entities, at every batch size,
//! arrival order and thread count. The argument:
//!
//! * postings are a set: per-entity `sort + dedup` makes `(Symbol, EntityId)`
//!   entries unique, and entity ids never repeat across batches — so the
//!   merged main+pending run is exactly the globally sorted, deduplicated
//!   entry vector the batch path produces;
//! * block order is a function of **rendered key strings** only
//!   ([`blocks_from_sorted_symbols`]), so the interner's first-encounter
//!   symbol numbering — which *does* depend on arrival order — never reaches
//!   the output;
//! * members within a block are sorted by [`EntityId`], which the sorted
//!   runs maintain for free.
//!
//! [`TokenBlocking::build`]: crate::token::TokenBlocking::build
//! [`TokenBlocking::par_build`]: crate::token::TokenBlocking::par_build

use crate::block::{blocks_from_sorted_symbols, BlockCollection};
use er_core::entity::{Entity, EntityId};
use er_core::intern::{Interner, Symbol};
use er_core::tokenize::Tokenizer;

/// Pending postings that trigger a compaction into the main run. Compaction
/// is O(main + pending); amortized maintenance cost stays linear in the
/// stream length.
const DEFAULT_COMPACT_THRESHOLD: usize = 8 * 1024;

/// What one [`insert_batch`](IncrementalTokenIndex::insert_batch) changed —
/// the delta the incremental blocking graph consumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexDelta {
    /// First entity id of the batch: every id `>= batch_start` is new, so a
    /// grown block's new members are exactly its sorted tail from
    /// `partition_point(id >= batch_start)`.
    pub batch_start: EntityId,
    /// Symbols whose posting lists grew, with the posting count *before* the
    /// batch — `(symbol, old_count)`, sorted by symbol.
    pub grown: Vec<(Symbol, u32)>,
}

/// A token-blocking inverted index maintained under entity arrivals.
pub struct IncrementalTokenIndex {
    tokenizer: Tokenizer,
    interner: Interner,
    /// Older postings: sorted by `(Symbol, EntityId)`, deduplicated.
    main: Vec<(Symbol, EntityId)>,
    /// Recent postings, same invariant. Every pending id is greater than
    /// every main id for the same symbol (ids arrive in increasing order),
    /// so per-symbol member lists are `main ++ pending`.
    pending: Vec<(Symbol, EntityId)>,
    compact_threshold: usize,
    /// Postings per symbol (main + pending), indexed by `Symbol::index`.
    symbol_counts: Vec<u32>,
    next_entity: u32,
    compactions: u64,
}

impl Default for IncrementalTokenIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalTokenIndex {
    /// Creates an empty index with the default tokenizer.
    pub fn new() -> Self {
        IncrementalTokenIndex {
            tokenizer: Tokenizer::default(),
            interner: Interner::new(),
            main: Vec::new(),
            pending: Vec::new(),
            compact_threshold: DEFAULT_COMPACT_THRESHOLD,
            symbol_counts: Vec::new(),
            next_entity: 0,
            compactions: 0,
        }
    }

    /// Replaces the tokenizer (must match the batch oracle's).
    pub fn with_tokenizer(mut self, tokenizer: Tokenizer) -> Self {
        self.tokenizer = tokenizer;
        self
    }

    /// Overrides the pending-run compaction threshold (testing knob; the
    /// output is identical at every threshold).
    pub fn with_compact_threshold(mut self, threshold: usize) -> Self {
        self.compact_threshold = threshold.max(1);
        self
    }

    /// Indexes a batch of newly arrived entities, returning the delta.
    ///
    /// Entities must arrive in increasing-id order (the dense order
    /// `EntityCollection::push` assigns) — that monotonicity is what makes a
    /// grown block's new members its sorted tail.
    pub fn insert_batch<'a, I>(&mut self, entities: I) -> IndexDelta
    where
        I: IntoIterator<Item = &'a Entity>,
    {
        let batch_start = EntityId(self.next_entity);
        let mut scratch = String::new();
        let mut buf: Vec<Symbol> = Vec::new();
        let mut batch: Vec<(Symbol, EntityId)> = Vec::new();
        // (symbol, count before this batch) for symbols first touched here.
        let mut grown: Vec<(Symbol, u32)> = Vec::new();
        for e in entities {
            assert!(
                e.id().0 >= self.next_entity,
                "entities must arrive in increasing id order: got {:?} after {}",
                e.id(),
                self.next_entity
            );
            self.next_entity = e.id().0 + 1;
            buf.clear();
            for (_, v) in e.attributes() {
                self.tokenizer
                    .symbols_into(v, &mut self.interner, &mut scratch, &mut buf);
            }
            // Per-entity token *set*, exactly as the batch path.
            buf.sort_unstable();
            buf.dedup();
            if self.symbol_counts.len() < self.interner.len() {
                self.symbol_counts.resize(self.interner.len(), 0);
            }
            for &s in &buf {
                let count = &mut self.symbol_counts[s.index()];
                if *count > 0 && !grown.iter().any(|&(g, _)| g == s) {
                    grown.push((s, *count));
                } else if *count == 0 {
                    grown.push((s, 0));
                }
                *count += 1;
                batch.push((s, e.id()));
            }
        }
        batch.sort_unstable();
        self.pending = merge_sorted_runs(std::mem::take(&mut self.pending), batch);
        if self.pending.len() >= self.compact_threshold {
            self.compact();
        }
        grown.sort_unstable_by_key(|&(s, _)| s);
        grown.dedup_by_key(|&mut (s, _)| s);
        IndexDelta { batch_start, grown }
    }

    /// Merges the pending run into the main run. Called automatically when
    /// the pending run crosses the threshold; snapshots and lookups are
    /// correct whether or not a compaction has happened.
    pub fn compact(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.main = merge_sorted_runs(
            std::mem::take(&mut self.main),
            std::mem::take(&mut self.pending),
        );
        self.compactions += 1;
    }

    /// The current blocking collection — **bit-identical** to
    /// `TokenBlocking::build` over the entities indexed so far.
    pub fn snapshot_blocks(&self) -> BlockCollection {
        let merged = merged_runs(&self.main, &self.pending);
        blocks_from_sorted_symbols(&self.interner, merged)
    }

    /// Member entities of one token block (empty if the symbol has no
    /// postings): the main-run range followed by the pending-run range, both
    /// sorted by id.
    pub fn members(&self, symbol: Symbol) -> Vec<EntityId> {
        let mut out = Vec::new();
        for run in [&self.main, &self.pending] {
            let lo = run.partition_point(|&(s, _)| s < symbol);
            let hi = run.partition_point(|&(s, _)| s <= symbol);
            out.extend(run[lo..hi].iter().map(|&(_, e)| e));
        }
        out
    }

    /// Posting count of one symbol.
    pub fn symbol_count(&self, symbol: Symbol) -> u32 {
        self.symbol_counts.get(symbol.index()).copied().unwrap_or(0)
    }

    /// The interner mapping symbols to token strings.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Entities indexed so far.
    pub fn n_entities(&self) -> usize {
        self.next_entity as usize
    }

    /// Total postings (main + pending).
    pub fn postings(&self) -> usize {
        self.main.len() + self.pending.len()
    }

    /// Postings still in the pending run.
    pub fn pending_postings(&self) -> usize {
        self.pending.len()
    }

    /// Compactions performed so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Heap bytes held by the posting runs and per-symbol counts.
    pub fn posting_bytes(&self) -> u64 {
        let entry = std::mem::size_of::<(Symbol, EntityId)>() as u64;
        (self.main.capacity() + self.pending.capacity()) as u64 * entry
            + self.symbol_counts.capacity() as u64 * 4
    }
}

/// Merges two sorted, deduplicated runs into one. The runs never share an
/// entry (entity ids are unique per batch), so this is a plain merge.
fn merge_sorted_runs(
    a: Vec<(Symbol, EntityId)>,
    b: Vec<(Symbol, EntityId)>,
) -> Vec<(Symbol, EntityId)> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Non-consuming [`merge_sorted_runs`] for snapshots.
fn merged_runs(a: &[(Symbol, EntityId)], b: &[(Symbol, EntityId)]) -> Vec<(Symbol, EntityId)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
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

    fn feed(c: &EntityCollection, batch: usize, threshold: usize) -> IncrementalTokenIndex {
        let mut idx = IncrementalTokenIndex::new().with_compact_threshold(threshold);
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
    fn snapshot_matches_full_rebuild_at_every_batch_size_and_threshold() {
        let c = collection(VALUES);
        let full = TokenBlocking::new().build(&c);
        for batch in [1, 2, 3, 7] {
            for threshold in [1, 4, 1024] {
                let idx = feed(&c, batch, threshold);
                assert_eq!(
                    idx.snapshot_blocks(),
                    full,
                    "batch {batch} threshold {threshold}"
                );
            }
        }
    }

    #[test]
    fn snapshot_matches_parallel_rebuild() {
        let c = collection(VALUES);
        let idx = feed(&c, 2, 4);
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
        let mut idx = IncrementalTokenIndex::new().with_compact_threshold(3);
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
        assert!(idx.compactions() > 0, "threshold 3 must force compactions");
    }

    #[test]
    fn members_and_counts_track_the_postings() {
        let c = collection(VALUES);
        let mut idx = IncrementalTokenIndex::new().with_compact_threshold(4);
        let entities: Vec<_> = c.iter().collect();
        let d0 = idx.insert_batch(entities[..2].iter().copied());
        assert_eq!(d0.batch_start, EntityId(0));
        let turing = idx.interner().lookup("turing").unwrap();
        assert_eq!(idx.members(turing), vec![EntityId(0), EntityId(1)]);
        assert_eq!(idx.symbol_count(turing), 2);
        let d1 = idx.insert_batch(entities[2..].iter().copied());
        assert_eq!(d1.batch_start, EntityId(2));
        let machine = idx.interner().lookup("machine").unwrap();
        assert_eq!(idx.members(machine), vec![EntityId(0), EntityId(5)]);
        // "machine" grew from count 1: the delta reports the old count.
        assert!(d1.grown.contains(&(machine, 1)));
        // "turing" was untouched by the second batch.
        assert!(!d1.grown.iter().any(|&(s, _)| s == turing));
    }

    #[test]
    fn delta_old_count_is_pre_batch_even_when_touched_twice_in_batch() {
        let c = collection(&["x y", "x z", "x w"]);
        let mut idx = IncrementalTokenIndex::new();
        let d = idx.insert_batch(c.iter());
        let x = idx.interner().lookup("x").unwrap();
        assert!(d.grown.contains(&(x, 0)), "first touch this batch: old 0");
        assert_eq!(idx.symbol_count(x), 3);
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
