//! # er-bench — the experiment harness
//!
//! One binary per live experiment of DESIGN.md's index (`src/bin/exp_*.rs`),
//! each regenerating the table/series of an evaluation family surveyed by
//! the ICDE 2017 tutorial. E4, E7 and E9 time the stages every `Pipeline`
//! runs by reading the spans an `Obs::enabled()` handle records around
//! them. `exp_all` runs every experiment in sequence — its output is the
//! data recorded in EXPERIMENTS.md.
//!
//! This module holds the shared plumbing: deterministic dataset presets,
//! plain-text table rendering, and the paired A/B estimator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use er_datagen::{CleanCleanConfig, DirtyConfig, NoiseModel};

/// The dirty-ER preset used by most experiments (moderate noise, skewed
/// tokens), sized by entity count.
pub fn dirty_preset(entities: usize) -> DirtyConfig {
    DirtyConfig {
        entities,
        duplicate_fraction: 0.4,
        max_cluster_size: 3,
        noise: NoiseModel::moderate(),
        keep_attribute_fraction: 0.8,
        seed: 0xBE9C_0017,
        ..Default::default()
    }
}

/// The clean–clean preset used by the meta-blocking experiment.
pub fn clean_clean_preset(shared: usize) -> CleanCleanConfig {
    CleanCleanConfig {
        shared_entities: shared,
        only_first: shared / 2,
        only_second: shared / 2,
        seed: 0xBE9C_0018,
        ..Default::default()
    }
}

/// A fixed-width plain-text table writer: prints a header once, then rows;
/// every experiment prints through this so outputs are uniform and greppable.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Creates the table and prints its header row and a separator.
    pub fn new(columns: &[(&str, usize)]) -> Self {
        let widths: Vec<usize> = columns.iter().map(|(_, w)| *w).collect();
        let mut header = String::new();
        for ((name, w), i) in columns.iter().zip(0..) {
            if i > 0 {
                header.push(' ');
            }
            header.push_str(&format!("{name:>w$}"));
        }
        println!("{header}");
        println!("{}", "-".repeat(header.len()));
        Table { widths }
    }

    /// Prints one row of already-formatted cells, right-aligned per column.
    pub fn row(&self, cells: &[String]) {
        assert_eq!(cells.len(), self.widths.len(), "cell count mismatch");
        let mut line = String::new();
        for (i, (cell, w)) in cells.iter().zip(&self.widths).enumerate() {
            if i > 0 {
                line.push(' ');
            }
            line.push_str(&format!("{cell:>w$}"));
        }
        println!("{line}");
    }
}

/// Formats a float with 3 decimals (metric columns).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 4 decimals (PQ-style small numbers).
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

/// The result of [`paired_ab`].
#[derive(Debug, Clone, Copy)]
pub struct PairedAb {
    /// Fastest timed rep of the A side, in seconds.
    pub a_s: f64,
    /// Fastest timed rep of the B side, in seconds.
    pub b_s: f64,
    /// Median over timed reps of the per-rep ratio B/A, as a percentage
    /// above 1 (`+3.0` means B is 3% slower).
    pub overhead_pct: f64,
    /// Whether `same` held on every rep, warmup included.
    pub identical: bool,
}

/// Times `b` against `a` with a paired estimator: one warmup rep, then
/// `reps` timed reps, each running both sides back-to-back in alternating
/// order so ambient load cancels within the pair. Times are min-of-reps;
/// the overhead is the median of per-rep ratios. `same` compares the two
/// outputs of every rep.
pub fn paired_ab<A, B>(
    reps: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
    mut same: impl FnMut(&A, &B) -> bool,
) -> PairedAb {
    fn timed<T>(f: &mut impl FnMut() -> T) -> (T, f64) {
        let t0 = std::time::Instant::now();
        let out = f();
        (out, t0.elapsed().as_secs_f64())
    }
    let (mut a_s, mut b_s, mut ratios) = (f64::INFINITY, f64::INFINITY, Vec::new());
    let mut identical = true;
    for rep in 0..=reps {
        let ((a_out, ta), (b_out, tb)) = if rep % 2 == 0 {
            let a_run = timed(&mut a);
            (a_run, timed(&mut b))
        } else {
            let b_run = timed(&mut b);
            (timed(&mut a), b_run)
        };
        identical &= same(&a_out, &b_out);
        if rep > 0 {
            // rep 0 is a warmup (allocator + cache state)
            a_s = a_s.min(ta);
            b_s = b_s.min(tb);
            ratios.push(tb / ta);
        }
    }
    ratios.sort_by(f64::total_cmp);
    let overhead_pct = ratios
        .get(ratios.len() / 2)
        .map_or(0.0, |r| 100.0 * (r - 1.0));
    PairedAb {
        a_s,
        b_s,
        overhead_pct,
        identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_deterministic() {
        let a = er_datagen::DirtyDataset::generate(&dirty_preset(100));
        let b = er_datagen::DirtyDataset::generate(&dirty_preset(100));
        assert_eq!(a.truth.len(), b.truth.len());
        let c = er_datagen::CleanCleanDataset::generate(&clean_clean_preset(50));
        assert_eq!(c.truth.len(), 50);
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(f4(0.00012), "0.0001");
    }

    #[test]
    fn paired_ab_runs_warmup_plus_reps_and_checks_every_pair() {
        let mut b_calls = 0;
        let ab = paired_ab(
            4,
            || 1,
            || {
                b_calls += 1;
                b_calls
            },
            |a, b| a == b,
        );
        assert_eq!(b_calls, 5, "one warmup rep plus four timed reps");
        assert!(!ab.identical, "reps after the warmup differ");
        assert!(ab.a_s.is_finite() && ab.b_s.is_finite());
        assert!(paired_ab(3, || 7, || 7, |a, b| a == b).identical);
    }
}

pub mod balance;
pub mod experiments;
pub mod scenarios;
