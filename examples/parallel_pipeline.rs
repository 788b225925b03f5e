//! Parallel blocking + meta-blocking: the Dedoop / parallel-meta-blocking
//! scenario of §II at laptop scale.
//!
//! Generates a larger dirty collection, runs token blocking
//! (`TokenBlocking::par_build`) and meta-blocking (`par_meta_block`, the
//! entity-based node scan) with 1..N threads, verifies the results match the
//! sequential reference, and prints the speedup table. Also demonstrates
//! BlockSplit load balancing on the skewed block sizes.
//!
//! Run with: `cargo run -p er-examples --release --bin parallel_pipeline`

use er_bench::balance::balanced_loads;
use er_blocking::TokenBlocking;
use er_core::parallel::Parallelism;
use er_datagen::{DirtyConfig, DirtyDataset, NoiseModel};
use er_metablocking::{meta_block, par_meta_block, PruningScheme, WeightingScheme};
use std::time::Instant;

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host parallelism: {cores} core(s)");
    if cores == 1 {
        println!(
            "NOTE: single-core host — wall-clock speedup cannot exceed 1x; \
             the load-balancing section shows the scaling signal instead.\n"
        );
    }
    let ds = DirtyDataset::generate(&DirtyConfig {
        entities: 4000,
        noise: NoiseModel::moderate(),
        seed: 777,
        ..Default::default()
    });
    println!("collection: {} descriptions", ds.collection.len());

    // Sequential references.
    let t0 = Instant::now();
    let seq_blocks = TokenBlocking::new().build(&ds.collection);
    let t_seq_blocking = t0.elapsed();
    let t0 = Instant::now();
    let seq_meta = meta_block(
        &ds.collection,
        &seq_blocks,
        WeightingScheme::Arcs,
        PruningScheme::Cnp,
    );
    let t_seq_meta = t0.elapsed();
    println!(
        "sequential: blocking {:?} ({} blocks), meta-blocking {:?} ({} kept pairs)\n",
        t_seq_blocking,
        seq_blocks.len(),
        t_seq_meta,
        seq_meta.len()
    );

    println!(
        "{:>7} {:>14} {:>9} {:>14} {:>9}  results",
        "workers", "blocking", "speedup", "meta-block", "speedup"
    );
    for workers in [1usize, 2, 4, 8] {
        let par = Parallelism::threads(workers);
        let t0 = Instant::now();
        let blocks = TokenBlocking::new().par_build(&ds.collection, par);
        let t_b = t0.elapsed();
        let t0 = Instant::now();
        let meta = par_meta_block(
            &ds.collection,
            &blocks,
            WeightingScheme::Arcs,
            PruningScheme::Cnp,
            par,
        );
        let t_m = t0.elapsed();
        let ok = blocks == seq_blocks && meta == seq_meta;
        println!(
            "{:>7} {:>14?} {:>8.2}x {:>14?} {:>8.2}x  {}",
            workers,
            t_b,
            t_seq_blocking.as_secs_f64() / t_b.as_secs_f64(),
            t_m,
            t_seq_meta.as_secs_f64() / t_m.as_secs_f64(),
            if ok { "== sequential" } else { "MISMATCH" }
        );
    }

    // Load balancing: the largest token blocks dwarf the rest; BlockSplit
    // caps per-task comparisons so worker loads even out.
    println!("\nload balancing (4 workers):");
    for (label, budget) in [("no split", u64::MAX), ("BlockSplit @ 10k", 10_000)] {
        let loads = balanced_loads(seq_blocks.blocks(), budget, 4);
        let max = *loads.iter().max().unwrap() as f64;
        let min = *loads.iter().min().unwrap() as f64;
        let avg = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        println!(
            "  {label:<18} loads {loads:?}  imbalance max/avg = {:.2}, min/avg = {:.2}",
            max / avg,
            min / avg
        );
    }
}
