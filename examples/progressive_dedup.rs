//! Progressive deduplication under a budget: the pay-as-you-go scenario of
//! §IV — "find as many duplicates as possible in the first N comparisons".
//!
//! Builds a noisy product-catalog-like collection, then races four schedules
//! against a random baseline and prints recall at several budget levels plus
//! the normalized area under the progressive-recall curve.
//!
//! Run with: `cargo run -p er-examples --bin progressive_dedup`

use er_blocking::sorted_neighborhood::SortKey;
use er_blocking::TokenBlocking;
use er_core::matching::OracleMatcher;
use er_core::obs::Obs;
use er_core::similarity::SetMeasure;
use er_datagen::{DirtyConfig, DirtyDataset, NoiseModel};
use er_progressive::budget::{random_schedule, Budget};
use er_progressive::hints::{ordered_blocks_schedule, score_pairs, sorted_pair_list};
use er_progressive::psnm::ProgressiveSnm;
use er_progressive::scheduler::{SchedulerConfig, WindowScheduler};
use er_progressive::{ProgressiveOutcome, Scheduler};

fn main() {
    let ds = DirtyDataset::generate(&DirtyConfig {
        entities: 800,
        duplicate_fraction: 0.4,
        noise: NoiseModel::moderate(),
        seed: 404,
        ..Default::default()
    });
    println!(
        "collection: {} descriptions, {} duplicate pairs to find",
        ds.collection.len(),
        ds.truth.len()
    );

    // Candidates come from token blocking; the oracle isolates scheduling
    // quality from matcher quality, as in the surveyed evaluations.
    let blocks = TokenBlocking::new().build(&ds.collection);
    let candidates = blocks.distinct_pairs(&ds.collection);
    let total = candidates.len() as u64;
    println!("{total} candidate comparisons from token blocking\n");

    let budgets = [total / 100, total / 20, total / 10, total / 4, total];
    println!(
        "{:<20} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "schedule", "1%", "5%", "10%", "25%", "100%", "AUC"
    );

    // Every method is a scheduler under the one loop, `er_progressive::run`.
    fn race(ds: &DirtyDataset, schedule: impl Scheduler) -> ProgressiveOutcome {
        let oracle = OracleMatcher::new(&ds.truth);
        let (c, truth) = (&ds.collection, &ds.truth);
        er_progressive::run(
            c,
            &oracle,
            schedule,
            Budget::Unlimited,
            truth,
            &Obs::disabled(),
        )
    }
    let report = |name: &str, outcome: ProgressiveOutcome| {
        print!("{name:<20}");
        for b in budgets {
            print!(" {:>9.3}", outcome.curve.recall_at(b));
        }
        println!(" {:>7.3}", outcome.curve.auc(total));
    };

    // Baseline: random order over the same candidates.
    report(
        "random",
        race(&ds, random_schedule(&candidates, 1).into_iter()),
    );

    // Hint 1: sorted pair list by cheap Jaccard score.
    let scored = score_pairs(&ds.collection, &candidates, SetMeasure::Jaccard);
    report(
        "sorted-pairs",
        race(&ds, sorted_pair_list(&scored).into_iter()),
    );

    // Hint 3: ordered blocks, small (discriminative) blocks first.
    let by_block = ordered_blocks_schedule(&ds.collection, &blocks);
    report("ordered-blocks", race(&ds, by_block.into_iter()));

    // PSNM with local lookahead.
    let psnm = ProgressiveSnm::new(SortKey::FlattenedValue, 25, true);
    report("psnm+lookahead", race(&ds, psnm.schedule(&ds.collection)));

    // Cost-window scheduler with influence propagation.
    let window = SchedulerConfig {
        window_size: 200,
        influence_boost: 0.25,
    };
    let sched = WindowScheduler::new(&ds.collection, &scored, &[], window);
    report("window-scheduler", race(&ds, sched));

    println!(
        "\nReading: every informed schedule dominates random at small budgets. \
         The sorted-pairs and ordered-blocks hints are strongest here because \
         cheap similarity is a good likelihood proxy on this data; PSNM is \
         capped by its maximum rank distance, and the window scheduler pays \
         for exploring whole windows before re-prioritizing."
    );
}
