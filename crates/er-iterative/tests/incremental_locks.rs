//! Locks on [`IncrementalResolver`]'s output.
//!
//! 1. **Pinned runs**: statistics and cluster shape on one fixed corpus, in
//!    generator order, under six matchers — the degenerate `shared ≥ 1`
//!    (everything chains into a few giants), the `shared ≥ 2` regime the
//!    streaming session defaults to, sparser overlaps, and both threshold
//!    measures. The candidate order `(shared desc, slot desc)` and the
//!    one-fresh-slot-per-settle numbering decide `comparisons`, so a layout
//!    change that moves either shows here. Measured on the string-keyed
//!    resolver this one replaced.
//! 2. **Count path ≡ fallback path**: a matcher that answers
//!    [`ProfileMatcher::match_counts`] from the probe's overlap count and the
//!    same matcher hidden behind an [`FnProfileMatcher`] (which cannot, so
//!    the resolver hands it the profiles) resolve identically.

use er_core::merge::{
    FnProfileMatcher, Profile, ProfileMatcher, ProfileThresholdMatcher, SharedTokenMatcher,
};
use er_core::similarity::SetMeasure;
use er_datagen::{DirtyConfig, DirtyDataset, NoiseModel};
use er_iterative::incremental::{IncrementalResolver, IncrementalStats};

fn corpus() -> DirtyDataset {
    DirtyDataset::generate(&DirtyConfig::sized(230, NoiseModel::moderate(), 0xE12_0017))
}

fn resolve<M: ProfileMatcher>(ds: &DirtyDataset, matcher: M) -> IncrementalResolver<M> {
    let mut resolver = IncrementalResolver::new(matcher);
    for e in ds.collection.iter() {
        resolver.insert(e);
    }
    resolver
}

/// `(comparisons, merges, clusters, largest cluster)`.
fn shape<M: ProfileMatcher>(ds: &DirtyDataset, matcher: M) -> (u64, u64, usize, usize) {
    let resolver = resolve(ds, matcher);
    let IncrementalStats {
        inserted,
        comparisons,
        merges,
    } = resolver.stats();
    assert_eq!(inserted, ds.collection.len() as u64);
    let clusters = resolver.clusters();
    let largest = clusters.iter().map(Vec::len).max().unwrap_or(0);
    (comparisons, merges, clusters.len(), largest)
}

#[test]
fn pinned_statistics_and_cluster_shape() {
    let ds = corpus();
    assert_eq!(ds.collection.len(), 351);
    let shared = |k| shape(&ds, SharedTokenMatcher::new(k));
    assert_eq!(shared(1), (343, 343, 8, 344));
    assert_eq!(shared(2), (7_557, 300, 51, 297));
    assert_eq!(shared(3), (12_244, 242, 109, 233));
    assert_eq!(shared(4), (12_743, 79, 272, 3));
    let threshold = |measure, t| shape(&ds, ProfileThresholdMatcher::new(measure, t));
    assert_eq!(threshold(SetMeasure::Jaccard, 0.4), (12_793, 54, 297, 3));
    assert_eq!(threshold(SetMeasure::Overlap, 0.6), (12_921, 81, 270, 3));
}

#[test]
fn count_path_equals_fallback_path() {
    fn check<M: ProfileMatcher + Clone>(ds: &DirtyDataset, matcher: M, name: &str) {
        let hidden = matcher.clone();
        let fallback = resolve(
            ds,
            FnProfileMatcher(move |a: &Profile, b: &Profile| hidden.profiles_match(a, b)),
        );
        let counted = resolve(ds, matcher);
        assert_eq!(counted.stats(), fallback.stats(), "{name}");
        assert_eq!(counted.clusters(), fallback.clusters(), "{name}");
    }
    let ds = corpus();
    for k in 1..=4 {
        check(&ds, SharedTokenMatcher::new(k), &format!("shared >= {k}"));
    }
    for measure in [
        SetMeasure::Jaccard,
        SetMeasure::Dice,
        SetMeasure::Cosine,
        SetMeasure::Overlap,
    ] {
        let matcher = ProfileThresholdMatcher::new(measure, 0.5);
        check(&ds, matcher, measure.name());
    }
}
