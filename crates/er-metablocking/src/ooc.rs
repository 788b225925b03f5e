//! Out-of-core blocking-graph construction: the block-order contribution
//! stream, sorted externally.
//!
//! The build pushes one raw `(pair, 1, 1/‖b‖)` [`EdgeRecord`] per
//! block-pair occurrence, blocks in order, into an [`ExternalSorter`], which
//! spills them as **pair-sorted runs** in [`er_core::colstore`] segments,
//! and folds the sorter's merged stream with `graph::accumulate`, so no
//! contribution vector of the whole graph ever exists in memory.
//!
//! **Bit-identity, including the non-associative `f64` ARCS sums.** The
//! sorter's merged stream is the stable sort of the pushed sequence, so
//! each pair's contributions come back in block order, and the
//! left-to-right accumulation is the plain block-order sum the in-memory
//! build ([`BlockingGraph::par_build`]) and the reference fold compute.
//! Weights travel through disk as raw bits
//! ([`f64::to_bits`]/[`f64::from_bits`]), never reformatted.

use crate::graph::{accumulate, BlockingGraph, EdgeInfo};
use er_blocking::block::BlockCollection;
use er_core::collection::EntityCollection;
use er_core::colstore::{EdgeRecord, ExternalSorter, OocConfig, SegmentError};
use er_core::entity::EntityId;
use er_core::pair::Pair;
use er_core::parallel::{par_map_chunks, Parallelism};

/// Blocks whose contributions are generated at once before they reach the
/// sorter: bounds the working set, nothing else.
const BATCH_BLOCKS: usize = 2048;

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
    /// graph — ARCS bits included — with the edge contributions spilled to
    /// sorted segment runs under `cfg.segment_dir` instead of held in
    /// memory. Spill files are removed before returning; typed errors, never
    /// partial output.
    pub fn par_build_ooc(
        collection: &EntityCollection,
        blocks: &BlockCollection,
        par: Parallelism,
        cfg: &OocConfig,
    ) -> Result<BlockingGraph, SegmentError> {
        let mut sorter: ExternalSorter<'_, EdgeRecord> =
            ExternalSorter::new(cfg, "metablocking-ooc")?;
        let mut raw = 0u64;
        for batch in blocks.blocks().chunks(BATCH_BLOCKS) {
            let per_worker = batch.len().div_ceil(par.effective());
            let parts = par_map_chunks(par, batch, per_worker, |part| {
                let mut records = Vec::new();
                for b in part {
                    let card = b.comparisons(collection);
                    if card == 0 {
                        continue;
                    }
                    let weight_bits = (1.0 / card as f64).to_bits();
                    records.extend(b.pairs(collection).map(|p| EdgeRecord {
                        a: p.first().0,
                        b: p.second().0,
                        count: 1,
                        weight_bits,
                    }));
                }
                records
            });
            for records in parts {
                raw += records.len() as u64;
                sorter.push_all(records)?;
            }
        }
        let mut edges: Vec<(Pair, EdgeInfo)> = Vec::new();
        sorter.merge(|r| accumulate(&mut edges, from_record(r)))?;
        let sorted_bytes = raw * std::mem::size_of::<EdgeRecord>() as u64;
        Ok(Self::from_edges(collection, blocks, edges, sorted_bytes))
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
        let contributions: u64 = blocks.blocks().iter().map(|b| b.comparisons(&c)).sum();
        let record = std::mem::size_of::<EdgeRecord>() as u64;
        for threads in [1, 4] {
            let par = Parallelism::threads(threads);
            let oracle = BlockingGraph::par_build(&c, &blocks, par);
            for run_entries in [64, 100_000] {
                let dir = tmp_dir("equiv");
                let cfg = OocConfig::new(&dir).with_run_entries(run_entries);
                let got = BlockingGraph::par_build_ooc(&c, &blocks, par, &cfg).unwrap();
                assert_eq!(got, oracle, "threads {threads} run {run_entries}");
                assert_eq!(got.edge_sort_bytes(), contributions * record);
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
