//! The five workloads: their corpora, their configuration of the system
//! under test, and the untraced "hand the system its input, get clusters
//! back" operation that `resolve_s` times.
//!
//! Every workload is a `DirtyDataset` with `NoiseModel::moderate()`, default
//! `ProfileConfig`, Jaccard 0.4 matching, ARCS/WNP meta-blocking and
//! connected-components clustering; they differ in size, block cleaning and
//! execution mode only, so a pair of workloads isolates one layer.

use er_core::collection::{EntityCollection, ResolutionMode};
use er_core::entity::EntityId;
use er_core::ground_truth::GroundTruth;
use er_core::ingest::RawRecord;
use er_core::metrics::MatchQuality;
use er_core::pair::Pair;
use er_core::parallel::Parallelism;
use er_core::resource::ResourceLimits;
use er_datagen::{DirtyConfig, DirtyDataset, NoiseModel};
use er_pipeline::streaming::raw_record_from_entity;
use er_pipeline::{Backend, CleaningStage, Pipeline, StreamingConfig, StreamingSession};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// `ooc.dense` runs under this memory budget.
pub const OOC_BUDGET_BYTES: u64 = 16 << 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `Pipeline::run` in this process, in memory.
    Batch,
    /// `Pipeline::run` with `.out_of_core(true)` under [`OOC_BUDGET_BYTES`].
    OutOfCore,
    /// `Pipeline::run` with token blocking on worker processes.
    Subprocess,
    /// Records offered one by one to a default `StreamingSession`.
    Stream,
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Latent real-world entities; descriptions are ~1.6x this.
    pub entities: usize,
    pub purge: bool,
    pub threads: usize,
    pub workers: usize,
    pub mode: Mode,
}

/// Sizes are the issue's shrunk to fit the driver's time cap on a 2-core
/// host (one run = three set-ups + `--seconds` of repetitions).
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "batch.cleaned",
        entities: 10_000,
        purge: true,
        threads: 1,
        workers: 0,
        mode: Mode::Batch,
    },
    Spec {
        name: "batch.dense",
        entities: 2_000,
        purge: false,
        threads: 2,
        workers: 0,
        mode: Mode::Batch,
    },
    Spec {
        name: "ooc.dense",
        entities: 2_000,
        purge: false,
        threads: 2,
        workers: 0,
        mode: Mode::OutOfCore,
    },
    Spec {
        name: "subproc.cleaned",
        entities: 10_000,
        purge: true,
        threads: 1,
        workers: 2,
        mode: Mode::Subprocess,
    },
    Spec {
        name: "stream.replay",
        entities: 230,
        purge: false,
        threads: 1,
        workers: 0,
        mode: Mode::Stream,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The `--smoke` rung: the same workload at about a tenth of the size.
    pub fn smoke(self) -> Spec {
        Spec {
            entities: (self.entities / 10).max(25),
            ..self
        }
    }

    pub fn parallelism(&self) -> Parallelism {
        if self.threads > 1 {
            Parallelism::threads(self.threads)
        } else {
            Parallelism::serial()
        }
    }

    pub fn cleaning(&self) -> CleaningStage {
        if self.purge {
            CleaningStage::AutoPurge
        } else {
            CleaningStage::None
        }
    }

    /// The pipeline this workload measures.
    pub fn pipeline(&self, segment_dir: &Path) -> Pipeline {
        let b = Pipeline::builder()
            .cleaning(self.cleaning())
            .parallelism(self.parallelism());
        match self.mode {
            Mode::Batch | Mode::Stream => b.build(),
            Mode::OutOfCore => b
                .out_of_core(true)
                .segment_dir(segment_dir)
                .resource_limits(ResourceLimits::none().with_memory_bytes(OOC_BUDGET_BYTES))
                .build(),
            Mode::Subprocess => b
                .backend(Backend::Subprocess {
                    workers: self.workers,
                })
                .build(),
        }
    }

    /// The reference configuration on the same corpus: serial, in-process,
    /// in-memory, same cleaning. Its fingerprint is what every execution
    /// mode must reproduce.
    pub fn reference_pipeline(&self, obs: er_core::obs::Obs) -> Pipeline {
        Pipeline::builder()
            .cleaning(self.cleaning())
            .observability(obs)
            .build()
    }
}

/// Seed of the corpus *content*: every `--seed` resolves the same
/// descriptions, and the seed draws the order they arrive in (so every entity
/// id, every block's member order and every tie-break moves with it).
///
/// Re-drawing the content per seed was measured first and is unusable as a
/// yardstick: on the uncleaned graph WNP keeps anything from 1.00e5 to
/// 1.45e5 comparisons when only the noise of the descriptions is re-drawn
/// (ties at a neighbourhood's mean weight flip), which moved `resolve_s` by
/// about 18 % from seed to seed and `f1` between 0.36 and 0.50. Two seeds
/// would not time the same work.
const CORPUS_SEED: u64 = 0xE12_0017;

/// A generated corpus with its ground truth.
pub struct Corpus {
    pub collection: EntityCollection,
    pub truth: GroundTruth,
}

/// The workload's `DirtyDataset` (moderate noise, default profile), in the
/// arrival order `seed` draws.
pub fn generate(entities: usize, seed: u64) -> Corpus {
    let config = DirtyConfig::sized(entities, NoiseModel::moderate(), CORPUS_SEED);
    let base = DirtyDataset::generate(&config);
    let mut order: Vec<EntityId> = base.collection.ids().collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut new_id = vec![EntityId(0); order.len()];
    let mut collection = EntityCollection::new(ResolutionMode::Dirty);
    for old in order {
        let e = base.collection.entity(old);
        new_id[old.index()] = collection.push(e.kb(), e.attributes().to_vec());
    }
    let renumbered = base
        .clusters
        .iter()
        .map(|c| c.iter().map(|e| new_id[e.index()]).collect::<Vec<_>>());
    Corpus {
        collection,
        truth: GroundTruth::from_clusters(renumbered),
    }
}

/// The corpus as bytes (kb, then every attribute name and value, each
/// length-prefixed): equal bytes mean the program under test sees equal
/// inputs.
pub fn corpus_bytes(collection: &EntityCollection) -> Vec<u8> {
    let mut out = Vec::new();
    for e in collection.iter() {
        out.extend_from_slice(&e.kb().0.to_le_bytes());
        out.extend_from_slice(&(e.attributes().len() as u32).to_le_bytes());
        for (name, value) in e.attributes() {
            for field in [name, value] {
                out.extend_from_slice(&(field.len() as u32).to_le_bytes());
                out.extend_from_slice(field.as_bytes());
            }
        }
    }
    out
}

/// Everything a workload's repetitions need, made once per set-up.
pub struct Input {
    pub dataset: Corpus,
    /// Arrival-order records (`stream.replay` only).
    pub records: Vec<RawRecord>,
    pub segment_dir: PathBuf,
    pub pipeline: Pipeline,
}

impl Input {
    pub fn prepare(spec: &Spec, seed: u64, tmp_root: &Path) -> std::io::Result<Input> {
        let dataset = generate(spec.entities, seed);
        let records = if spec.mode == Mode::Stream {
            dataset
                .collection
                .iter()
                .map(raw_record_from_entity)
                .collect()
        } else {
            Vec::new()
        };
        let segment_dir = tmp_root.join("segments");
        std::fs::create_dir_all(&segment_dir)?;
        let pipeline = spec.pipeline(&segment_dir);
        Ok(Input {
            dataset,
            records,
            segment_dir,
            pipeline,
        })
    }
}

/// What one repetition returned, reduced to what the checks need.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub fingerprint: u64,
    pub f1: f64,
    /// Operations in this repetition: 1 for a batch run, one per offered
    /// record for a stream.
    pub operations: u64,
    /// Shed + skipped comparisons + quarantined records: all must be 0 on
    /// these clean corpora.
    pub degraded: u64,
    pub well_formed: bool,
}

/// FNV-1a, fed in pieces.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a over the sorted matches and the sorted clusters (members sorted
/// too), so the value depends on the resolution, not on emission order.
pub fn fingerprint(matches: &[Pair], clusters: &[Vec<EntityId>]) -> u64 {
    let mut h = Fnv::new();
    let mut matches = matches.to_vec();
    matches.sort();
    h.eat(&(matches.len() as u32).to_le_bytes());
    for p in matches {
        h.eat(&p.first().0.to_le_bytes());
        h.eat(&p.second().0.to_le_bytes());
    }
    let mut clusters: Vec<Vec<EntityId>> = clusters.to_vec();
    for c in &mut clusters {
        c.sort();
    }
    clusters.sort();
    h.eat(&(clusters.len() as u32).to_le_bytes());
    for c in clusters {
        h.eat(&(c.len() as u32).to_le_bytes());
        c.iter().for_each(|e| h.eat(&e.0.to_le_bytes()));
    }
    h.0
}

/// Clusters must partition `0..n`, and every match must fall inside one
/// cluster.
fn well_formed(n: usize, matches: &[Pair], clusters: &[Vec<EntityId>]) -> bool {
    let mut cluster_of = vec![usize::MAX; n];
    for (i, c) in clusters.iter().enumerate() {
        for e in c {
            match cluster_of.get_mut(e.index()) {
                Some(slot) if *slot == usize::MAX => *slot = i,
                _ => return false,
            }
        }
    }
    cluster_of.iter().all(|&c| c != usize::MAX)
        && matches
            .iter()
            .all(|p| cluster_of[p.first().index()] == cluster_of[p.second().index()])
}

/// Scores a batch result against the generator's ground truth.
pub fn outcome_of_resolution(
    matches: &[Pair],
    clusters: &[Vec<EntityId>],
    degraded: u64,
    n: usize,
    truth: &GroundTruth,
) -> Outcome {
    Outcome {
        fingerprint: fingerprint(matches, clusters),
        f1: MatchQuality::measure(n, matches, truth).f1(),
        operations: 1,
        degraded,
        well_formed: well_formed(n, matches, clusters),
    }
}

/// Scores stream clusters: the session returns no match list, so the
/// within-cluster pairs stand in for it.
pub fn outcome_of_clusters(
    clusters: &[Vec<EntityId>],
    offered: u64,
    quarantined: u64,
    n: usize,
    truth: &GroundTruth,
) -> Outcome {
    let implied: Vec<Pair> = GroundTruth::from_clusters(clusters.iter()).iter().collect();
    Outcome {
        fingerprint: fingerprint(&[], clusters),
        f1: MatchQuality::measure(n, &implied, truth).f1(),
        operations: offered,
        degraded: quarantined,
        well_formed: well_formed(n, &[], clusters),
    }
}

/// One untraced repetition. Returns the seconds from handing the system its
/// input (the in-memory collection, or the first record offered) to holding
/// the final clusters, plus the scored outcome (scoring is not timed).
pub fn resolve(spec: &Spec, input: &Input) -> Result<(f64, Outcome), String> {
    let n = input.dataset.collection.len();
    let truth = &input.dataset.truth;
    if spec.mode == Mode::Stream {
        let records = input.records.clone();
        let offered = records.len() as u64;
        let t = std::time::Instant::now();
        let mut session = StreamingSession::new(StreamingConfig::default(), ResourceLimits::none());
        for r in records {
            session.offer(r).map_err(|e| e.to_string())?;
        }
        let (report, clusters) = session.finish().map_err(|e| e.to_string())?;
        let seconds = t.elapsed().as_secs_f64();
        let outcome = outcome_of_clusters(&clusters, offered, report.quarantined(), n, truth);
        return Ok((seconds, outcome));
    }
    let t = std::time::Instant::now();
    let res = input.pipeline.run(&input.dataset.collection);
    let seconds = t.elapsed().as_secs_f64();
    let degraded = res.report.shed_comparisons + res.report.skipped_comparisons;
    Ok((
        seconds,
        outcome_of_resolution(&res.matches, &res.clusters, degraded, n, truth),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        let a = corpus_bytes(&generate(200, 7).collection);
        let b = corpus_bytes(&generate(200, 7).collection);
        let c = corpus_bytes(&generate(200, 8).collection);
        assert!(!a.is_empty());
        assert_eq!(a, b, "same seed must give a byte-identical corpus");
        assert_ne!(a, c, "another seed must give another corpus");
    }

    #[test]
    fn fingerprint_ignores_emission_order_but_not_content() {
        let p = |a, b| Pair::new(EntityId(a), EntityId(b));
        let ids = |v: &[u32]| v.iter().map(|&i| EntityId(i)).collect::<Vec<_>>();
        let base = fingerprint(
            &[p(0, 1), p(2, 3)],
            &[ids(&[0, 1]), ids(&[2, 3]), ids(&[4])],
        );
        let shuffled = fingerprint(
            &[p(3, 2), p(1, 0)],
            &[ids(&[4]), ids(&[3, 2]), ids(&[1, 0])],
        );
        assert_eq!(base, shuffled);
        let other = fingerprint(&[p(0, 1)], &[ids(&[0, 1]), ids(&[2]), ids(&[3]), ids(&[4])]);
        assert_ne!(base, other);
        // Moving a member across clusters of equal sizes must show too.
        let moved = fingerprint(
            &[p(0, 1), p(2, 3)],
            &[ids(&[0, 2]), ids(&[1, 3]), ids(&[4])],
        );
        assert_ne!(base, moved);
    }

    #[test]
    fn well_formed_rejects_overlap_gaps_and_split_matches() {
        let ids = |v: &[u32]| v.iter().map(|&i| EntityId(i)).collect::<Vec<_>>();
        let p = Pair::new(EntityId(0), EntityId(1));
        assert!(well_formed(3, &[p], &[ids(&[0, 1]), ids(&[2])]));
        assert!(!well_formed(3, &[p], &[ids(&[0]), ids(&[1]), ids(&[2])]));
        assert!(!well_formed(3, &[], &[ids(&[0, 1])]));
        assert!(!well_formed(3, &[], &[ids(&[0, 1]), ids(&[1, 2])]));
    }

    #[test]
    fn every_mode_reproduces_the_reference_on_a_small_corpus() {
        let tmp = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/tmp.test.{}", std::process::id()));
        for spec in WORKLOADS {
            // The subprocess backend re-execs the current binary as a
            // worker, which a test binary is not; the stream has no batch
            // reference to equal.
            if matches!(spec.mode, Mode::Subprocess | Mode::Stream) {
                continue;
            }
            let spec = Spec {
                entities: 150,
                ..spec
            };
            let input = Input::prepare(&spec, 11, &tmp).unwrap();
            let (_, got) = resolve(&spec, &input).unwrap();
            let reference = spec
                .reference_pipeline(er_core::obs::Obs::disabled())
                .run(&input.dataset.collection);
            assert_eq!(
                got.fingerprint,
                fingerprint(&reference.matches, &reference.clusters),
                "{}",
                spec.name
            );
            assert!(got.well_formed && got.degraded == 0 && got.f1 > 0.5);
        }
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
