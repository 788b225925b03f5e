//! Dirty-ER dataset generator: one collection containing duplicate clusters.

use crate::noise::NoiseModel;
use crate::profile::{describe, EntityFactory, ProfileConfig};
use crate::words::AttributeVocabulary;
use er_core::collection::{EntityCollection, ResolutionMode};
use er_core::entity::{EntityId, KbId};
use er_core::ground_truth::GroundTruth;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Configuration of the dirty-ER generator.
#[derive(Clone, Debug)]
pub struct DirtyConfig {
    /// Number of latent real-world entities.
    pub entities: usize,
    /// Fraction of entities that have more than one description.
    pub duplicate_fraction: f64,
    /// Maximum descriptions per duplicated entity (cluster size is uniform in
    /// `2..=max_cluster_size`).
    pub max_cluster_size: usize,
    /// Perturbation applied to every emitted description.
    pub noise: NoiseModel,
    /// Probability a non-name attribute appears in a description.
    pub keep_attribute_fraction: f64,
    /// Shape of the latent entities.
    pub profile: ProfileConfig,
    /// Master seed; everything is a pure function of this.
    pub seed: u64,
}

impl Default for DirtyConfig {
    fn default() -> Self {
        DirtyConfig {
            entities: 1000,
            duplicate_fraction: 0.4,
            max_cluster_size: 3,
            noise: NoiseModel::moderate(),
            keep_attribute_fraction: 0.8,
            profile: ProfileConfig::default(),
            seed: 0xE12_0017,
        }
    }
}

impl DirtyConfig {
    /// Convenience: a small/medium/large instance with a given entity count
    /// and noise, defaults elsewhere.
    pub fn sized(entities: usize, noise: NoiseModel, seed: u64) -> Self {
        DirtyConfig {
            entities,
            noise,
            seed,
            ..Default::default()
        }
    }
}

/// A generated dirty dataset: the collection, its ground truth and the
/// underlying duplicate clusters.
#[derive(Clone, Debug)]
pub struct DirtyDataset {
    /// The generated descriptions, in shuffled order.
    pub collection: EntityCollection,
    /// All truly-matching description pairs.
    pub truth: GroundTruth,
    /// Ground-truth clusters (only those with ≥ 2 members).
    pub clusters: Vec<Vec<EntityId>>,
}

impl DirtyDataset {
    /// Generates the dataset for a configuration.
    ///
    /// # Panics
    /// Panics on invalid configuration (probabilities out of range,
    /// `max_cluster_size < 2`, zero entities).
    pub fn generate(config: &DirtyConfig) -> Self {
        assert!(config.entities > 0, "need at least one entity");
        assert!(
            (0.0..=1.0).contains(&config.duplicate_fraction),
            "duplicate_fraction must be a probability"
        );
        assert!(
            config.max_cluster_size >= 2,
            "duplicated entities need ≥ 2 descriptions"
        );
        config.noise.validate().expect("invalid noise model");

        let mut rng = StdRng::seed_from_u64(config.seed);
        let factory = EntityFactory::new(config.profile.clone(), config.seed ^ 0x5eed);
        let vocab = AttributeVocabulary::canonical(config.profile.attributes);

        // Emit (true-entity-index, description) pairs, then shuffle so
        // duplicates are not adjacent (sorted-neighborhood realism).
        let mut emitted: Vec<(u64, Vec<(String, String)>)> = Vec::new();
        for idx in 0..config.entities as u64 {
            let entity = factory.generate(idx, &mut rng);
            let copies = if rng.random::<f64>() < config.duplicate_fraction {
                rng.random_range(2..=config.max_cluster_size)
            } else {
                1
            };
            for _ in 0..copies {
                let d = describe(
                    &entity,
                    &vocab,
                    &config.noise,
                    config.keep_attribute_fraction,
                    &mut rng,
                );
                emitted.push((idx, d));
            }
        }
        emitted.shuffle(&mut rng);

        let mut collection = EntityCollection::new(ResolutionMode::Dirty);
        let mut cluster_members: std::collections::BTreeMap<u64, Vec<EntityId>> =
            std::collections::BTreeMap::new();
        for (idx, attrs) in emitted {
            let id = collection.push(KbId(0), attrs);
            cluster_members.entry(idx).or_default().push(id);
        }
        let clusters: Vec<Vec<EntityId>> = cluster_members
            .into_values()
            .filter(|c| c.len() >= 2)
            .collect();
        let truth = GroundTruth::from_clusters(clusters.iter());
        DirtyDataset {
            collection,
            truth,
            clusters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DirtyConfig {
        DirtyConfig {
            entities: 200,
            seed: 11,
            ..Default::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = DirtyDataset::generate(&small());
        let b = DirtyDataset::generate(&small());
        assert_eq!(a.collection.len(), b.collection.len());
        assert_eq!(a.truth.len(), b.truth.len());
        let pa: Vec<_> = a.truth.iter().collect();
        let pb: Vec<_> = b.truth.iter().collect();
        assert_eq!(pa, pb);
        for (x, y) in a.collection.iter().zip(b.collection.iter()) {
            assert_eq!(x.attributes(), y.attributes());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = DirtyDataset::generate(&small());
        let b = DirtyDataset::generate(&DirtyConfig {
            seed: 12,
            ..small()
        });
        let same = a
            .collection
            .iter()
            .zip(b.collection.iter())
            .filter(|(x, y)| x.attributes() == y.attributes())
            .count();
        assert!(same < a.collection.len() / 2);
    }

    #[test]
    fn collection_size_and_duplication_bounds() {
        let cfg = small();
        let d = DirtyDataset::generate(&cfg);
        assert!(d.collection.len() >= cfg.entities);
        assert!(d.collection.len() <= cfg.entities * cfg.max_cluster_size);
        assert!(!d.clusters.is_empty());
        for c in &d.clusters {
            assert!(c.len() >= 2 && c.len() <= cfg.max_cluster_size);
        }
    }

    #[test]
    fn truth_matches_clusters() {
        let d = DirtyDataset::generate(&small());
        let expected: usize = d.clusters.iter().map(|c| c.len() * (c.len() - 1) / 2).sum();
        assert_eq!(d.truth.len(), expected);
    }

    #[test]
    fn no_duplicates_when_fraction_zero() {
        let d = DirtyDataset::generate(&DirtyConfig {
            duplicate_fraction: 0.0,
            ..small()
        });
        assert!(d.truth.is_empty());
        assert_eq!(d.collection.len(), 200);
    }

    #[test]
    fn all_descriptions_nonempty() {
        let d = DirtyDataset::generate(&DirtyConfig {
            noise: NoiseModel::heavy(),
            ..small()
        });
        for e in d.collection.iter() {
            assert!(!e.is_empty());
        }
    }

    #[test]
    fn duplicates_are_shuffled_apart() {
        let d = DirtyDataset::generate(&small());
        // At least some truth pairs should be non-adjacent ids.
        let non_adjacent = d
            .truth
            .iter()
            .filter(|p| p.second().0 - p.first().0 > 1)
            .count();
        assert!(non_adjacent > d.truth.len() / 2);
    }
}
