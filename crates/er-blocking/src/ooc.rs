//! Out-of-core token blocking: the in-memory build with an external sort in
//! place of its posting vector.
//!
//! The in-memory compact build (`TokenBlocking::par_build`) materializes the
//! full flat `(Symbol, EntityId)` posting vector before its sort +
//! run-length grouping pass — the dominant allocation of the blocking stage
//! and, past the memory budget, the reason governance starts shedding
//! blocks. Here the same producer (`token::interned_postings`) hands its
//! postings batch by batch to an [`ExternalSorter`], which spills them as
//! sorted, deduplicated [`er_core::colstore`] runs, and the run-length
//! grouping pass folds over the sorter's merged stream — the full vector
//! never exists in memory.
//!
//! **Bit-identity.** The sorter's merged stream is the stable sort of what
//! was pushed, with equal postings coalesced — exactly the
//! `sort_unstable(); dedup();` the in-memory path applies to the same
//! posting sequence. Interning is not merely equal to the in-memory path's,
//! it *is* the in-memory path's: one producer, the same fixed chunks, the
//! same left-to-right absorb, so symbols resolve to the same strings and the
//! rendered-string block order is unchanged. The in-memory build stays in
//! the tree as the oracle — `tests/out_of_core_equivalence.rs` pins equality
//! across seeds × thread counts × run sizes.
//!
//! The interner itself stays in memory: it is the dictionary that renders
//! block keys and its footprint is charged at admission via
//! [`crate::governance::block_bytes`].

use crate::block::{Block, BlockCollection};
use crate::token::{interned_postings, record_index_obs, TokenBlocking, CHUNK_ENTITIES};
use er_core::collection::EntityCollection;
use er_core::colstore::{ExternalSorter, OocConfig, SegmentError};
use er_core::entity::EntityId;
use er_core::intern::Symbol;
use er_core::obs::Obs;
use er_core::parallel::Parallelism;

/// Entities tokenized per batch handed to the sorter: bounds the
/// tokenized-but-not-yet-spilled working set.
const BATCH_ENTITIES: usize = 64 * CHUNK_ENTITIES;

impl TokenBlocking {
    /// Out-of-core [`par_build_obs`](TokenBlocking::par_build_obs):
    /// bit-identical blocks, bounded posting memory. Postings spill to
    /// sorted run segments under `cfg.segment_dir` and the blocks are
    /// grouped from a streaming k-way merge; the spill files are removed
    /// before returning. Typed errors — budget refusal, watchdog expiry
    /// mid-merge, segment corruption — never partial output.
    pub fn par_build_ooc_obs(
        &self,
        collection: &EntityCollection,
        par: Parallelism,
        obs: &Obs,
        cfg: &OocConfig,
    ) -> Result<BlockCollection, SegmentError> {
        let entities: Vec<_> = collection.iter().collect();
        let mut sorter: ExternalSorter<'_, (Symbol, EntityId)> =
            ExternalSorter::new(cfg, "blocking-ooc")?;
        let mut indexed: u64 = 0;
        let interner = interned_postings(
            self.tokenizer(),
            &entities,
            par,
            BATCH_ENTITIES,
            |_| (),
            |batch| {
                indexed += batch.len() as u64;
                sorter.push_all(batch)
            },
        )?;
        record_index_obs(obs, indexed, &interner);
        // Run-length grouping over the sorted, deduplicated stream — the
        // streaming `blocks_from_sorted_grouped_keys`.
        let mut groups: Vec<(String, Vec<EntityId>)> = Vec::new();
        let mut current: Option<(Symbol, Vec<EntityId>)> = None;
        sorter.merge(|(sym, entity)| match &mut current {
            Some((s, members)) if *s == sym => members.push(entity),
            _ => {
                if let Some((s, members)) = current.replace((sym, vec![entity])) {
                    groups.push((interner.resolve(s).to_string(), members));
                }
            }
        })?;
        if let Some((s, members)) = current {
            groups.push((interner.resolve(s).to_string(), members));
        }
        // Same final ordering pass as the in-memory grouping: distinct keys
        // are ordered by rendered string, members arrive sorted.
        groups.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        let blocks = BlockCollection::new(
            groups
                .into_iter()
                .map(|(key, members)| Block::from_sorted(key, members))
                .collect(),
        );
        blocks.record_obs(obs);
        Ok(blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::collection::ResolutionMode;
    use er_core::colstore::collection_fingerprint;
    use er_core::entity::{EntityBuilder, KbId};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let d =
            std::env::temp_dir().join(format!("er-ooc-blocking-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn synthetic(n: u32) -> EntityCollection {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for i in 0..n {
            c.push_entity(
                KbId(0),
                EntityBuilder::new()
                    .attr("name", format!("person{} shared{} tok{}", i, i % 7, i % 3))
                    .attr("city", format!("city{} common", i % 5)),
            );
        }
        c
    }

    #[test]
    fn ooc_build_matches_in_memory_across_run_sizes() {
        let c = synthetic(300);
        let tb = TokenBlocking::new();
        let oracle = tb.par_build(&c, Parallelism::serial());
        for run_entries in [64, 257, 100_000] {
            let dir = tmp_dir("runsize");
            let cfg = OocConfig::new(&dir)
                .with_run_entries(run_entries)
                .with_fingerprint(collection_fingerprint(&c));
            let got = tb
                .par_build_ooc_obs(&c, Parallelism::serial(), &Obs::disabled(), &cfg)
                .unwrap();
            assert_eq!(got, oracle, "run_entries {run_entries}");
            assert!(
                std::fs::read_dir(&dir).unwrap().next().is_none(),
                "spill files removed"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn ooc_build_matches_in_memory_in_parallel() {
        let c = synthetic(300);
        let tb = TokenBlocking::new();
        for threads in [1, 4] {
            let par = Parallelism::threads(threads);
            let (obs, ooc_obs) = (Obs::enabled(), Obs::enabled());
            let oracle = tb.par_build_obs(&c, par, &obs);
            let dir = tmp_dir("par");
            let cfg = OocConfig::new(&dir).with_run_entries(128);
            let got = tb.par_build_ooc_obs(&c, par, &ooc_obs, &cfg).unwrap();
            assert_eq!(got, oracle, "threads {threads}");
            let (want, got) = (obs.snapshot(), ooc_obs.snapshot());
            for key in ["blocking.tokens_indexed", "blocking.interner_symbols"] {
                assert!(want.counter(key).unwrap() > 0, "{key}");
                assert_eq!(
                    got.counter(key),
                    want.counter(key),
                    "{key} threads {threads}"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn empty_collection_builds_empty_blocks() {
        let c = EntityCollection::new(ResolutionMode::Dirty);
        let dir = tmp_dir("empty");
        let got = TokenBlocking::new()
            .par_build_ooc_obs(
                &c,
                Parallelism::serial(),
                &Obs::disabled(),
                &OocConfig::new(&dir),
            )
            .unwrap();
        assert!(got.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
