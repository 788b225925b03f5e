//! Out-of-core blocking: the transpose of a family's key rows with an
//! external sort in place of the counting sort.
//!
//! The in-memory build
//! ([`blocks_from_profiles`](crate::block::blocks_from_profiles)) groups the
//! rows' postings into blocks in memory. Here every `(symbol, entity)`
//! posting of the rows is handed to an [`ExternalSorter`], which spills them
//! as sorted [`er_core::colstore`] runs, and the blocks are grouped from the
//! sorter's merged stream. Every block-producing family spills this way: its
//! key rows are all the build needs.
//!
//! **Bit-identity.** The merged stream is sorted by `(symbol, entity)`.
//! Row symbols are ranks in the sorted vocabulary, so that is block-key
//! order, then ascending members — the order the in-memory transpose emits,
//! and no final re-sort by rendered key is needed. The in-memory build stays
//! the oracle: `tests/out_of_core_equivalence.rs` pins equality across
//! seeds × thread counts × run sizes.
//!
//! What stays resident is the rows themselves — the CSR at 4 bytes per
//! posting plus the vocabulary that renders block keys; under token
//! blocking the matching stage reads both anyway (see `docs/out_of_core.md`).

use crate::block::{blocks_from_groups, BlockCollection};
use crate::token::TokenBlocking;
use er_core::collection::EntityCollection;
use er_core::colstore::{ExternalSorter, OocConfig, SegmentError};
use er_core::entity::EntityId;
use er_core::intern::Symbol;
use er_core::obs::Obs;
use er_core::parallel::Parallelism;
use er_core::profiles::KeyRows;

impl TokenBlocking {
    /// Out-of-core [`par_build_obs`](TokenBlocking::par_build_obs):
    /// [`blocks_from_profiles_ooc`] over a fresh tokenization.
    pub fn par_build_ooc_obs(
        &self,
        collection: &EntityCollection,
        par: Parallelism,
        obs: &Obs,
        cfg: &OocConfig,
    ) -> Result<BlockCollection, SegmentError> {
        blocks_from_profiles_ooc(&self.key_rows(collection, par), obs, cfg)
    }
}

/// [`blocks_from_profiles`](crate::block::blocks_from_profiles) through an
/// external sort: bit-identical blocks, with the postings spilled to sorted
/// run segments under `cfg.segment_dir` (removed before returning) instead
/// of grouped in memory. Typed errors — budget refusal, watchdog expiry at a
/// spill or mid-merge, segment corruption — never partial output.
pub fn blocks_from_profiles_ooc(
    rows: &KeyRows,
    obs: &Obs,
    cfg: &OocConfig,
) -> Result<BlockCollection, SegmentError> {
    let mut sorter: ExternalSorter<'_, (Symbol, EntityId)> =
        ExternalSorter::new(cfg, "blocking-ooc")?;
    sorter.push_all(rows.iter().enumerate().flat_map(|(e, row)| {
        let entity = EntityId(e as u32);
        row.iter().map(move |&s| (s, entity))
    }))?;
    // Run-length grouping over the sorted stream: one run per symbol.
    let mut runs: Vec<(Symbol, Vec<EntityId>)> = Vec::new();
    sorter.merge(|(symbol, entity)| match runs.last_mut() {
        Some((s, members)) if *s == symbol => members.push(entity),
        _ => runs.push((symbol, vec![entity])),
    })?;
    Ok(blocks_from_groups(rows, runs, obs))
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
        // The pipeline's path: one set of profiles, transposed in memory and
        // through the external sort at every run size.
        let c = synthetic(300);
        let profiles = TokenBlocking::new().key_rows(&c, Parallelism::serial());
        let obs = Obs::enabled();
        let oracle = crate::block::blocks_from_profiles(&profiles, &obs);
        let want = obs.snapshot();
        for run_entries in [64, 257, 100_000] {
            let dir = tmp_dir("runsize");
            let cfg = OocConfig::new(&dir)
                .with_run_entries(run_entries)
                .with_fingerprint(collection_fingerprint(&c));
            let ooc_obs = Obs::enabled();
            let got = blocks_from_profiles_ooc(&profiles, &ooc_obs, &cfg).unwrap();
            assert_eq!(got, oracle, "run_entries {run_entries}");
            let got = ooc_obs.snapshot();
            for key in ["blocking.tokens_indexed", "blocking.interner_symbols"] {
                assert!(want.counter(key).unwrap() > 0, "{key}");
                assert_eq!(got.counter(key), want.counter(key), "{key} {run_entries}");
            }
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
