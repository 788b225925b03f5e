//! Out-of-core blocking-graph construction: the in-memory build with an
//! external sort in place of its contribution vector.
//!
//! The compact in-memory build ([`BlockingGraph::par_build`]) concatenates
//! every per-chunk edge partial into one flat `(Pair, EdgeInfo)` vector,
//! stable-sorts it by pair and merges runs left-to-right — the flat vector
//! (`edge_sort_bytes`) is the dominant allocation of the meta-blocking
//! stage. Here the same producer (`graph::chunk_partials`) hands its
//! partials batch by batch to an [`ExternalSorter`], which spills them as
//! **pair-sorted edge runs** in [`er_core::colstore`] segments, and the same
//! accumulation (`graph::accumulate`) folds over the sorter's merged stream,
//! so the full contribution vector never exists in memory.
//!
//! **Bit-identity, including the non-associative `f64` ARCS sums.** Edge
//! records do not coalesce: each run holds raw partial sums, stable-sorted
//! by pair, and the sorter's merged stream is the stable sort of the pushed
//! sequence — for every pair, its partial sums in global arrival (chunk)
//! order, the same permutation the in-memory stable sort produces. The
//! left-to-right accumulation then performs the identical `f64` addition
//! sequence. Weights travel through disk as raw bits
//! ([`f64::to_bits`]/[`f64::from_bits`]), never reformatted.

use crate::graph::{
    accumulate, chunk_partials, BlockingGraph, EdgeInfo, PartialTally, CHUNK_BLOCKS,
};
use er_blocking::block::BlockCollection;
use er_core::collection::EntityCollection;
use er_core::colstore::{EdgeRecord, ExternalSorter, OocConfig, SegmentError};
use er_core::entity::EntityId;
use er_core::pair::Pair;
use er_core::parallel::Parallelism;

/// Blocks scanned per batch handed to the sorter: bounds how many partials
/// exist at once.
const BATCH_BLOCKS: usize = 64 * CHUNK_BLOCKS;

fn to_record((p, info): (Pair, EdgeInfo)) -> EdgeRecord {
    EdgeRecord {
        a: p.first().0,
        b: p.second().0,
        count: info.common_blocks,
        weight_bits: info.arcs.to_bits(),
    }
}

fn from_record(r: EdgeRecord) -> (Pair, EdgeInfo) {
    (
        Pair::new(EntityId(r.a), EntityId(r.b)),
        EdgeInfo {
            common_blocks: r.count,
            arcs: f64::from_bits(r.weight_bits),
        },
    )
}

impl BlockingGraph {
    /// Out-of-core [`par_build`](BlockingGraph::par_build): bit-identical
    /// graph — ARCS bits included — with the edge-contribution vector
    /// spilled to sorted segment runs under `cfg.segment_dir` instead of
    /// held in memory. Spill files are removed before returning; typed
    /// errors, never partial output.
    pub fn par_build_ooc(
        collection: &EntityCollection,
        blocks: &BlockCollection,
        par: Parallelism,
        cfg: &OocConfig,
    ) -> Result<BlockingGraph, SegmentError> {
        let mut sorter: ExternalSorter<'_, EdgeRecord> =
            ExternalSorter::new(cfg, "metablocking-ooc")?;
        let mut tally = PartialTally::new(collection.len());
        chunk_partials(collection, blocks.blocks(), par, BATCH_BLOCKS, |partials| {
            partials.into_iter().try_for_each(|partial| {
                sorter.push_all(tally.take(partial).into_iter().map(to_record))
            })
        })?;
        let mut edges: Vec<(Pair, EdgeInfo)> = Vec::new();
        sorter.merge(|r| accumulate(&mut edges, from_record(r)))?;
        Ok(Self::finish(collection, blocks, edges, tally))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_blocking::TokenBlocking;
    use er_core::collection::{EntityCollection, ResolutionMode};
    use er_core::entity::{EntityBuilder, KbId};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!(
            "er-ooc-metablocking-{}-{tag}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn fixture() -> (EntityCollection, BlockCollection) {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for i in 0..120u32 {
            c.push_entity(
                KbId(0),
                EntityBuilder::new().attr("n", format!("tok{} shared{} noise{}", i % 11, i % 5, i)),
            );
        }
        let blocks = TokenBlocking::new().build(&c);
        (c, blocks)
    }

    #[test]
    fn ooc_graph_is_bit_identical_across_run_sizes_and_threads() {
        let (c, blocks) = fixture();
        for threads in [1, 4] {
            let par = Parallelism::threads(threads);
            let oracle = BlockingGraph::par_build(&c, &blocks, par);
            for run_entries in [64, 100_000] {
                let dir = tmp_dir("equiv");
                let cfg = OocConfig::new(&dir).with_run_entries(run_entries);
                let got = BlockingGraph::par_build_ooc(&c, &blocks, par, &cfg).unwrap();
                assert_eq!(got, oracle, "threads {threads} run {run_entries}");
                assert!(got.edge_sort_bytes() > 0);
                assert_eq!(got.edge_sort_bytes(), oracle.edge_sort_bytes());
                for ((p1, i1), (p2, i2)) in got.edges().zip(oracle.edges()) {
                    assert_eq!(p1, p2);
                    assert_eq!(i1.arcs.to_bits(), i2.arcs.to_bits(), "ARCS bits at {p1:?}");
                }
                assert!(
                    std::fs::read_dir(&dir).unwrap().next().is_none(),
                    "spill files removed"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn empty_blocks_build_an_empty_graph() {
        let c = EntityCollection::new(ResolutionMode::Dirty);
        let dir = tmp_dir("empty");
        let g = BlockingGraph::par_build_ooc(
            &c,
            &BlockCollection::default(),
            Parallelism::serial(),
            &OocConfig::new(&dir),
        )
        .unwrap();
        assert_eq!(g.n_edges(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
