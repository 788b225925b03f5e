//! Incremental entity resolution: descriptions arrive one at a time.
//!
//! The tutorial's introduction stresses that Web KB descriptions are
//! *evolving* — new descriptions keep being published, and re-running batch
//! ER from scratch for every arrival is a non-starter. The
//! [`IncrementalResolver`] maintains the resolved state (merged profiles plus
//! a token inverted index over them) and integrates each new description
//! with work proportional to its candidate set:
//!
//! 1. the new description's tokens probe the index for candidate profiles;
//! 2. candidates are compared (most-shared-tokens first) and every match is
//!    merged into the new record, R-Swoosh style — a merged record re-probes,
//!    so chains collapse immediately;
//! 3. the settled record is indexed.
//!
//! Under an ICAR match/merge whose matches imply a shared token (any
//! token-overlap matcher), the final resolution equals batch R-Swoosh over
//! the same descriptions — verified by the tests.
//!
//! The state is interned (`docs/data_layout.md`, layer 5): an arrival is
//! tokenized once into a sorted row of symbols, a merge unions two rows, and
//! the probe that finds a candidate has by then counted the tokens it shares
//! with the record — `|A∩B|`, which with the two row lengths is all a
//! token-set matcher needs ([`ProfileMatcher::match_counts`]).

use er_core::collection::EntityCollection;
use er_core::entity::{Entity, EntityId};
use er_core::intern::{Interner, Symbol};
use er_core::merge::{Profile, ProfileMatcher};
use er_core::profiles::KeySink;
use er_core::resource::{ResourceError, Watchdog};
use er_core::tokenize::Tokenizer;
use std::cmp::Ordering;

/// Statistics of an incremental run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Descriptions integrated.
    pub inserted: u64,
    /// Profile comparisons performed.
    pub comparisons: u64,
    /// Merges performed.
    pub merges: u64,
}

/// A settled profile and its distinct tokens as symbols of the resolver's
/// interner, ascending.
struct Settled {
    profile: Profile,
    row: Vec<Symbol>,
}

/// The maintained resolution state.
pub struct IncrementalResolver<M> {
    matcher: M,
    tokenizer: Tokenizer,
    interner: Interner,
    /// Settled profiles by slot; a settle takes a fresh slot and a merge
    /// empties the slot it absorbed, so slot order is settle order.
    slots: Vec<Option<Settled>>,
    /// `postings[symbol]`: the slots whose row holds the symbol, ascending.
    /// A merge leaves the emptied slot behind; the next probe that walks a
    /// list drops it.
    postings: Vec<Vec<u32>>,
    /// Probe scratch: tokens shared with the probing row, per slot; all zero
    /// between probes (reset through `candidates`, never swept).
    count: Vec<u32>,
    /// Probe output: `(shared tokens, slot)` of every live slot sharing a
    /// token with the probing row, in comparison order.
    candidates: Vec<(u32, u32)>,
    stats: IncrementalStats,
}

impl<M: ProfileMatcher> IncrementalResolver<M> {
    /// Creates an empty resolver.
    pub fn new(matcher: M) -> Self {
        IncrementalResolver {
            matcher,
            tokenizer: Tokenizer::default(),
            interner: Interner::new(),
            slots: Vec::new(),
            postings: Vec::new(),
            count: Vec::new(),
            candidates: Vec::new(),
            stats: IncrementalStats::default(),
        }
    }

    /// Current run statistics.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Live resolved profiles.
    pub fn profiles(&self) -> impl Iterator<Item = &Profile> {
        self.slots.iter().flatten().map(|s| &s.profile)
    }

    /// Current clusters (base-description id sets), sorted.
    pub fn clusters(&self) -> Vec<Vec<EntityId>> {
        let mut out: Vec<Vec<EntityId>> = self
            .profiles()
            .map(|p| p.ids().iter().copied().collect())
            .collect();
        out.sort();
        out
    }

    /// Integrates one new description, returning the profile it settled into.
    pub fn insert(&mut self, entity: &Entity) -> &Profile {
        self.stats.inserted += 1;
        let mut record = Profile::from_entity(entity);
        let mut row = Vec::new();
        KeySink::new(&mut self.interner).row_into(&self.tokenizer, entity, &mut row);
        self.postings.resize_with(self.interner.len(), Vec::new);
        // Compare against the candidates, likeliest first; a match is merged
        // into the record, and the merged record probes again.
        loop {
            self.probe(&row);
            let mut matched = None;
            for &(shared, slot) in &self.candidates {
                // The probe lists live slots only.
                let Some(settled) = &self.slots[slot as usize] else {
                    continue;
                };
                self.stats.comparisons += 1;
                let is_match = self
                    .matcher
                    .match_counts(row.len(), settled.row.len(), shared as usize)
                    .unwrap_or_else(|| self.matcher.profiles_match(&record, &settled.profile));
                if is_match {
                    matched = Some(slot);
                    break;
                }
            }
            let Some(settled) = matched.and_then(|slot| self.slots[slot as usize].take()) else {
                break;
            };
            record = record.absorb(settled.profile);
            row = union(&row, &settled.row);
            self.stats.merges += 1;
        }
        // Settle: index and store.
        let slot = self.slots.len();
        for symbol in &row {
            self.postings[symbol.index()].push(slot as u32);
        }
        self.count.push(0);
        self.slots.push(None);
        &self.slots[slot]
            .insert(Settled {
                profile: record,
                row,
            })
            .profile
    }

    /// Fills `candidates` with every live slot sharing a token with `row`,
    /// ordered `(shared desc, slot desc)`, and drops the emptied slots from
    /// each posting list it walks.
    ///
    /// A slot is in `postings[t]` once iff `t` is in its row, so the number
    /// of `row`'s lists it is met in is the size of the intersection of the
    /// two rows.
    fn probe(&mut self, row: &[Symbol]) {
        self.candidates.clear();
        for symbol in row {
            self.postings[symbol.index()].retain(|&slot| {
                if self.slots[slot as usize].is_none() {
                    return false;
                }
                let count = &mut self.count[slot as usize];
                if *count == 0 {
                    self.candidates.push((0, slot));
                }
                *count += 1;
                true
            });
        }
        for (shared, slot) in &mut self.candidates {
            *shared = std::mem::take(&mut self.count[*slot as usize]);
        }
        self.candidates.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// [`insert`](IncrementalResolver::insert) under watchdog coverage: the
    /// stage clock is checked *before* the integration starts, so a stream
    /// that has exhausted its budget fails with a typed
    /// [`ResourceError::DeadlineExceeded`] instead of running unbounded.
    pub fn insert_guarded(
        &mut self,
        entity: &Entity,
        watchdog: &Watchdog,
    ) -> Result<&Profile, ResourceError> {
        watchdog.check("iterative.incremental")?;
        Ok(self.insert(entity))
    }

    /// Re-resolves a collection prefix from scratch under watchdog coverage
    /// — the checkpoint path of a streaming session: after an incremental
    /// stretch, the resolver is rebuilt over all accepted entities so its
    /// state matches a from-the-start run exactly. The watchdog is consulted
    /// every [`RE_RESOLVE_CHECK_EVERY`] insertions; on expiry the resolver
    /// keeps its *previous* state (the rebuild is discarded), so a timeout
    /// never leaves half-resolved state behind.
    pub fn re_resolve(
        &mut self,
        collection: &EntityCollection,
        watchdog: &Watchdog,
    ) -> Result<IncrementalStats, ResourceError>
    where
        M: Clone,
    {
        let mut fresh = IncrementalResolver::new(self.matcher.clone());
        for (i, e) in collection.iter().enumerate() {
            if i % RE_RESOLVE_CHECK_EVERY == 0 {
                watchdog.check("iterative.re_resolve")?;
            }
            fresh.insert(e);
        }
        *self = fresh;
        Ok(self.stats)
    }
}

/// The union of two sorted distinct symbol rows, sorted and distinct — a
/// linear merge.
fn union(a: &[Symbol], b: &[Symbol]) -> Vec<Symbol> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Insertions between watchdog checks during
/// [`IncrementalResolver::re_resolve`] — frequent enough that a skewed
/// checkpoint is interrupted promptly, rare enough that the clock read never
/// shows up in profiles.
pub const RE_RESOLVE_CHECK_EVERY: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::collection::{EntityCollection, ResolutionMode};
    use er_core::entity::{EntityBuilder, EntityId, KbId};
    use er_core::merge::SharedTokenMatcher;
    use std::collections::BTreeSet;

    fn collection(values: &[&str]) -> EntityCollection {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for v in values {
            c.push_entity(KbId(0), EntityBuilder::new().attr("n", *v));
        }
        c
    }

    fn resolve_all(values: &[&str]) -> IncrementalResolver<SharedTokenMatcher> {
        let c = collection(values);
        let mut r = IncrementalResolver::new(SharedTokenMatcher::new(2));
        for e in c.iter() {
            r.insert(e);
        }
        r
    }

    #[test]
    fn duplicates_merge_on_arrival() {
        let r = resolve_all(&["alan turing", "grace hopper", "alan turing"]);
        assert_eq!(
            r.clusters(),
            vec![vec![EntityId(0), EntityId(2)], vec![EntityId(1)]]
        );
        assert_eq!(r.stats().merges, 1);
    }

    #[test]
    fn chains_collapse_through_the_new_record() {
        // Fragments {x y} and {z w} share nothing; the bridging record
        // {x y z w} merges both the moment it arrives.
        let r = resolve_all(&["x y", "z w", "x y z w"]);
        assert_eq!(
            r.clusters(),
            vec![vec![EntityId(0), EntityId(1), EntityId(2)]]
        );
        assert_eq!(r.stats().merges, 2);
    }

    #[test]
    fn agrees_with_batch_r_swoosh() {
        let ds = er_datagen::DirtyDataset::generate(&er_datagen::DirtyConfig {
            entities: 150,
            duplicate_fraction: 0.5,
            max_cluster_size: 4,
            noise: er_datagen::NoiseModel::light(),
            seed: 71,
            ..Default::default()
        });
        let batch = crate::swoosh::r_swoosh(&ds.collection, &SharedTokenMatcher::new(3));
        let mut inc = IncrementalResolver::new(SharedTokenMatcher::new(3));
        for e in ds.collection.iter() {
            inc.insert(e);
        }
        assert_eq!(inc.clusters(), batch.clusters(), "incremental ≡ batch");
        assert!(
            inc.stats().comparisons < batch.comparisons,
            "index probing ({}) must beat R-Swoosh's output scan ({})",
            inc.stats().comparisons,
            batch.comparisons
        );
    }

    #[test]
    fn arrival_order_does_not_change_resolution() {
        let values = ["x y", "x y z w", "z w", "p q", "p q r", "unrelated thing"];
        let forward = resolve_all(&values);
        let mut rev: Vec<&str> = values.to_vec();
        rev.reverse();
        let backward = resolve_all(&rev);
        // Compare as multisets of cluster sizes + total cluster count (ids
        // differ because arrival order assigns them).
        let sizes = |r: &IncrementalResolver<SharedTokenMatcher>| {
            let mut v: Vec<usize> = r.clusters().iter().map(|c| c.len()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sizes(&forward), sizes(&backward));
    }

    #[test]
    fn stats_track_insertions() {
        let r = resolve_all(&["a b", "c d", "e f"]);
        assert_eq!(r.stats().inserted, 3);
        assert_eq!(r.stats().merges, 0);
        assert_eq!(r.stats().comparisons, 0, "no shared tokens, no comparisons");
        assert_eq!(r.profiles().count(), 3);
    }

    #[test]
    fn guarded_insert_respects_the_watchdog() {
        use er_core::resource::{ResourceError, Watchdog};
        let c = collection(&["alan turing", "grace hopper"]);
        let mut r = IncrementalResolver::new(SharedTokenMatcher::new(2));
        let ok = Watchdog::disarmed();
        for e in c.iter() {
            r.insert_guarded(e, &ok).expect("disarmed watchdog passes");
        }
        assert_eq!(r.stats().inserted, 2);
        let expired = Watchdog::timeout(std::time::Duration::ZERO);
        let err = r.insert_guarded(c.entity(EntityId(0)), &expired);
        assert!(matches!(err, Err(ResourceError::DeadlineExceeded { .. })));
        assert_eq!(r.stats().inserted, 2, "timed-out insert left no trace");
    }

    #[test]
    fn re_resolve_matches_from_scratch_run_and_respects_watchdog() {
        use er_core::resource::Watchdog;
        let values = ["x y", "z w", "x y z w", "p q", "p q r"];
        let c = collection(&values);
        // Drift the resolver: insert in a different order than the collection.
        let mut r = IncrementalResolver::new(SharedTokenMatcher::new(2));
        for e in c.iter().collect::<Vec<_>>().into_iter().rev() {
            r.insert(e);
        }
        let before = r.clusters();
        r.re_resolve(&c, &Watchdog::disarmed()).expect("disarmed");
        assert_eq!(r.clusters(), resolve_all(&values).clusters());
        assert_eq!(r.stats().inserted, values.len() as u64);
        // An expired watchdog aborts the rebuild and preserves prior state.
        let expired = Watchdog::timeout(std::time::Duration::ZERO);
        let mut drifted = IncrementalResolver::new(SharedTokenMatcher::new(2));
        for e in c.iter().collect::<Vec<_>>().into_iter().rev() {
            drifted.insert(e);
        }
        assert!(drifted.re_resolve(&c, &expired).is_err());
        assert_eq!(drifted.clusters(), before, "failed rebuild is discarded");
    }

    /// The layout obligations of `docs/data_layout.md` (layer 5).
    fn check_layout(r: &IncrementalResolver<SharedTokenMatcher>) -> Result<(), String> {
        let live = |slot: u32| r.slots[slot as usize].as_ref();
        for settled in r.slots.iter().flatten() {
            if !settled.row.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("row not sorted distinct: {:?}", settled.row));
            }
            let resolved: BTreeSet<String> = settled
                .row
                .iter()
                .map(|&s| r.interner.resolve(s).to_string())
                .collect();
            if resolved != settled.profile.token_set(&r.tokenizer) {
                return Err(format!("row is not the profile's token set: {resolved:?}"));
            }
        }
        for (symbol, list) in r.postings.iter().enumerate() {
            let symbol = Symbol(symbol as u32);
            let listed: Vec<u32> = list
                .iter()
                .copied()
                .filter(|&s| live(s).is_some())
                .collect();
            let holders: Vec<u32> = (0..r.slots.len() as u32)
                .filter(|&s| live(s).is_some_and(|l| l.row.binary_search(&symbol).is_ok()))
                .collect();
            if listed != holders {
                return Err(format!("{symbol:?} lists {listed:?}, held by {holders:?}"));
            }
        }
        // The settling record's last probe walked every list of its row.
        if let Some(Some(last)) = r.slots.last() {
            for symbol in &last.row {
                if let Some(dead) = r.postings[symbol.index()]
                    .iter()
                    .find(|&&s| live(s).is_none())
                {
                    return Err(format!("{symbol:?} still lists emptied slot {dead}"));
                }
            }
        }
        if r.count.iter().any(|&c| c != 0) {
            return Err("probe scratch not reset".to_string());
        }
        Ok(())
    }

    proptest::proptest! {
        /// Small vocabularies (so descriptions overlap and chains form), stop
        /// words and empty descriptions, arrivals in a random order.
        #[test]
        fn random_streams_agree_with_r_swoosh_and_keep_the_layout(
            arrivals in proptest::collection::vec(
                (proptest::prelude::any::<u16>(),
                 proptest::collection::vec(("[p-q]", "([a-f]{1,2} ?){0,4}( the)?"), 0..3)),
                0..40,
            ),
        ) {
            let mut c = EntityCollection::new(ResolutionMode::Dirty);
            for (_, attributes) in &arrivals {
                c.push(KbId(0), attributes.clone());
            }
            let mut order: Vec<usize> = (0..arrivals.len()).collect();
            order.sort_by_key(|&i| arrivals[i].0);
            for k in 1..=3 {
                let mut r = IncrementalResolver::new(SharedTokenMatcher::new(k));
                for &i in &order {
                    r.insert(c.entity(EntityId(i as u32)));
                    if let Err(broken) = check_layout(&r) {
                        proptest::prop_assert!(false, "k = {}: {}", k, broken);
                    }
                }
                let batch = crate::swoosh::r_swoosh(&c, &SharedTokenMatcher::new(k));
                proptest::prop_assert_eq!(r.clusters(), batch.clusters(), "k = {}", k);
            }
        }
    }

    #[test]
    fn empty_description_creates_singleton() {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        c.push(KbId(0), vec![]);
        let mut r = IncrementalResolver::new(SharedTokenMatcher::new(1));
        let p = r.insert(c.entity(EntityId(0)));
        assert_eq!(p.ids().len(), 1);
        assert_eq!(r.clusters().len(), 1);
    }
}
