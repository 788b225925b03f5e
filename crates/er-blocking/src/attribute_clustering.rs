//! Attribute-clustering blocking (Papadakis et al. \[21\]).
//!
//! Token blocking ignores attribute names entirely, which inflates blocks
//! when the same token means different things under different attributes.
//! Attribute-clustering blocking first groups *attribute names* whose value
//! token-sets are similar (so `name` in KB₀ clusters with `kb1_p0` in KB₁
//! even though the names differ), then runs token blocking separately inside
//! each attribute cluster: the block key becomes `(cluster, token)`.
//!
//! Attributes are linked to their most similar attribute when that
//! similarity is positive; clusters are the connected components of these
//! best-match links. Attributes with no similar partner fall into a single
//! *glue* cluster, preserving token blocking's recall for them.

use crate::block::{blocks_from_profiles, BlockCollection};
use er_core::collection::EntityCollection;
use er_core::entity::Entity;
use er_core::obs::Obs;
use er_core::parallel::{par_map, Parallelism};
use er_core::profiles::{KeyRows, KeySink};
use er_core::similarity::SetMeasure;
use er_core::tokenize::Tokenizer;
use std::collections::{BTreeMap, BTreeSet};

/// Attribute-clustering blocking.
#[derive(Clone, Debug)]
pub struct AttributeClusteringBlocking {
    measure: SetMeasure,
    /// Minimum similarity for a best-match link (exclusive).
    link_threshold: f64,
    tokenizer: Tokenizer,
}

impl Default for AttributeClusteringBlocking {
    fn default() -> Self {
        AttributeClusteringBlocking {
            measure: SetMeasure::Jaccard,
            link_threshold: 0.0,
            tokenizer: Tokenizer::default(),
        }
    }
}

impl AttributeClusteringBlocking {
    /// Creates the method with defaults (Jaccard, any positive similarity
    /// links).
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the attribute-similarity measure.
    pub fn with_measure(mut self, measure: SetMeasure) -> Self {
        self.measure = measure;
        self
    }

    /// Overrides the link threshold.
    pub fn with_link_threshold(mut self, threshold: f64) -> Self {
        self.link_threshold = threshold;
        self
    }

    /// Computes the attribute clusters: map from attribute name to cluster
    /// id. Cluster `0` is the glue cluster.
    pub fn attribute_clusters(&self, collection: &EntityCollection) -> BTreeMap<String, usize> {
        self.attribute_clusters_impl(collection, Parallelism::serial())
    }

    fn attribute_clusters_impl(
        &self,
        collection: &EntityCollection,
        par: Parallelism,
    ) -> BTreeMap<String, usize> {
        // Aggregate token set per attribute name.
        let mut attr_tokens: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for e in collection.iter() {
            for (a, v) in e.attributes() {
                attr_tokens
                    .entry(a.clone())
                    .or_default()
                    .extend(self.tokenizer.tokens(v));
            }
        }
        let names: Vec<&String> = attr_tokens.keys().collect();
        let n = names.len();
        // Best-match links. Each attribute's best partner is a pure function
        // of the aggregated token sets, so the O(A²) similarity scan
        // parallelizes over rows; the union-find is then applied serially in
        // row order, keeping cluster ids identical at every thread count.
        let indices: Vec<usize> = (0..n).collect();
        let best_links = par_map(par, &indices, |&i| {
            let mut best: Option<(usize, f64)> = None;
            for j in 0..n {
                if i == j {
                    continue;
                }
                let s = self
                    .measure
                    .eval(&attr_tokens[names[i]], &attr_tokens[names[j]]);
                if s > self.link_threshold && best.map(|(_, bs)| s > bs).unwrap_or(true) {
                    best = Some((j, s));
                }
            }
            best.map(|(j, _)| j)
        });
        let mut uf = er_core::clusters::UnionFind::new(n);
        let mut linked = vec![false; n];
        for (i, best) in best_links.into_iter().enumerate() {
            if let Some(j) = best {
                uf.union(i, j);
                linked[i] = true;
            }
        }
        // Components → cluster ids; unlinked singletons share the glue
        // cluster 0.
        let mut cluster_of_root: BTreeMap<usize, usize> = BTreeMap::new();
        let mut next = 1usize;
        let mut out = BTreeMap::new();
        for i in 0..n {
            let root = uf.find(i);
            let singleton = uf.set_size(i) == 1 && !linked[i];
            let cid = if singleton {
                0
            } else {
                *cluster_of_root.entry(root).or_insert_with(|| {
                    let c = next;
                    next += 1;
                    c
                })
            };
            out.insert(names[i].clone(), cid);
        }
        out
    }

    /// Builds the blocking collection with `(cluster, token)` keys.
    pub fn build(&self, collection: &EntityCollection) -> BlockCollection {
        self.par_build(collection, Parallelism::serial())
    }

    /// Parallel [`build`]: parallelizes the O(A²) attribute-similarity scan
    /// and the per-entity key extraction. Output is bit-identical to the
    /// serial path at every thread count (see `docs/parallelism.md`).
    ///
    /// [`build`]: AttributeClusteringBlocking::build
    pub fn par_build(&self, collection: &EntityCollection, par: Parallelism) -> BlockCollection {
        blocks_from_profiles(&self.key_rows(collection, par), &Obs::disabled())
    }

    /// Every entity's `(cluster, token)` keys, rendered `c{cluster}:{token}`
    /// — the rows every build transposes. Rank order is the rendered
    /// string's, so `"c10:x"` sorts before `"c2:x"` exactly as the
    /// `BTreeMap<String, _>` reference orders them.
    pub fn key_rows(&self, collection: &EntityCollection, par: Parallelism) -> KeyRows {
        let tags: BTreeMap<String, String> = self
            .attribute_clusters_impl(collection, par)
            .into_iter()
            .map(|(attribute, cid)| (attribute, format!("c{cid}:")))
            .collect();
        let scheme = |entity: &Entity, sink: &mut KeySink<'_>| {
            for (attribute, value) in entity.attributes() {
                // An attribute the clustering never saw is in the glue
                // cluster.
                let tag = tags.get(attribute).map_or("c0:", String::as_str);
                sink.push_tokens(&self.tokenizer, tag, value);
            }
        };
        KeyRows::build(collection, &scheme, par)
    }

    /// The pre-compact, string-keyed build (per-entity
    /// `BTreeSet<(usize, String)>`, `format!` per posting, `BTreeMap`
    /// grouping). Kept as the oracle of the layout-equivalence tests;
    /// bit-identical to
    /// [`par_build`](AttributeClusteringBlocking::par_build).
    #[cfg(any(test, feature = "test-support"))]
    pub fn build_reference(
        &self,
        collection: &EntityCollection,
        par: Parallelism,
    ) -> BlockCollection {
        let clusters = self.attribute_clusters_impl(collection, par);
        let entities: Vec<_> = collection.iter().collect();
        let keys = par_map(par, &entities, |e| {
            let mut keys: BTreeSet<(usize, String)> = BTreeSet::new();
            for (a, v) in e.attributes() {
                let cid = clusters.get(a).copied().unwrap_or(0);
                for t in self.tokenizer.tokens(v) {
                    keys.insert((cid, t));
                }
            }
            keys.into_iter()
                .map(|(cid, t)| (format!("c{cid}:{t}"), e.id()))
                .collect::<Vec<_>>()
        });
        crate::block::blocks_from_keys(keys.into_iter().flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::collection::ResolutionMode;
    use er_core::entity::{EntityBuilder, EntityId, KbId};
    use er_core::pair::Pair;

    /// Two KBs describing people with disjoint attribute names but similar
    /// value spaces, plus a `colour` attribute whose token "turing" would
    /// pollute token blocking.
    fn heterogeneous() -> EntityCollection {
        let mut c = EntityCollection::new(ResolutionMode::CleanClean);
        c.push_entity(
            KbId(0),
            EntityBuilder::new()
                .attr("name", "alan turing")
                .attr("hue", "crimson"),
        );
        c.push_entity(
            KbId(0),
            EntityBuilder::new()
                .attr("name", "grace hopper")
                .attr("hue", "teal"),
        );
        c.push_entity(
            KbId(1),
            EntityBuilder::new()
                .attr("p0", "alan turing")
                .attr("shade", "crimson"),
        );
        c.push_entity(
            KbId(1),
            EntityBuilder::new()
                .attr("p0", "grace hopper")
                .attr("shade", "teal"),
        );
        c
    }

    #[test]
    fn similar_attributes_cluster_across_kbs() {
        let c = heterogeneous();
        let clusters = AttributeClusteringBlocking::new().attribute_clusters(&c);
        assert_eq!(clusters["name"], clusters["p0"], "name ~ p0 by values");
        assert_eq!(clusters["hue"], clusters["shade"]);
        assert_ne!(clusters["name"], clusters["hue"]);
    }

    #[test]
    fn blocking_finds_cross_kb_matches() {
        let c = heterogeneous();
        let bc = AttributeClusteringBlocking::new().build(&c);
        let pairs = bc.distinct_pairs(&c);
        assert!(pairs.contains(&Pair::new(EntityId(0), EntityId(2))));
        assert!(pairs.contains(&Pair::new(EntityId(1), EntityId(3))));
    }

    #[test]
    fn clustering_separates_same_token_in_unrelated_attributes() {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        // "mercury" as a planet name vs as an element: attribute value spaces
        // are disjoint, so the attributes land in different clusters and the
        // shared token does NOT create a block.
        c.push_entity(
            KbId(0),
            EntityBuilder::new()
                .attr("planet", "mercury venus mars jupiter saturn")
                .attr("x", "alpha beta"),
        );
        c.push_entity(
            KbId(0),
            EntityBuilder::new()
                .attr("element", "mercury iron zinc copper gold")
                .attr("y", "gamma delta"),
        );
        c.push_entity(
            KbId(0),
            EntityBuilder::new().attr("world", "venus mars neptune uranus pluto"),
        );
        c.push_entity(
            KbId(0),
            EntityBuilder::new().attr("metal", "iron zinc lead silver tin"),
        );
        // A small positive link threshold keeps incidental one-token overlap
        // (planet/element share only "mercury") from chaining the attributes;
        // each attribute's best match is its genuine counterpart.
        let acb = AttributeClusteringBlocking::new().with_link_threshold(0.2);
        let clusters = acb.attribute_clusters(&c);
        assert_eq!(clusters["planet"], clusters["world"]);
        assert_eq!(clusters["element"], clusters["metal"]);
        assert_ne!(clusters["planet"], clusters["element"]);
        let bc = acb.build(&c);
        let pairs = bc.distinct_pairs(&c);
        // Token blocking would pair 0 and 1 via "mercury"; clustering doesn't.
        assert!(!pairs.contains(&Pair::new(EntityId(0), EntityId(1))));
        // Within-cluster token sharing still blocks.
        assert!(pairs.contains(&Pair::new(EntityId(0), EntityId(2))));
        assert!(pairs.contains(&Pair::new(EntityId(1), EntityId(3))));
    }

    #[test]
    fn glue_cluster_collects_unlinked_attributes() {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        c.push_entity(KbId(0), EntityBuilder::new().attr("solo", "unique tokens"));
        c.push_entity(
            KbId(0),
            EntityBuilder::new().attr("other", "different things"),
        );
        let clusters = AttributeClusteringBlocking::new().attribute_clusters(&c);
        assert_eq!(clusters["solo"], 0);
        assert_eq!(clusters["other"], 0);
    }

    #[test]
    fn empty_collection() {
        let c = EntityCollection::new(ResolutionMode::Dirty);
        let acb = AttributeClusteringBlocking::new();
        assert!(acb.attribute_clusters(&c).is_empty());
        assert!(acb.build(&c).is_empty());
    }

    #[test]
    fn compact_build_matches_reference_at_all_thread_counts() {
        let c = heterogeneous();
        let acb = AttributeClusteringBlocking::new();
        let reference = acb.build_reference(&c, Parallelism::serial());
        for n in [1, 2, 4] {
            assert_eq!(
                acb.par_build(&c, Parallelism::threads(n)),
                reference,
                "thread count {n}"
            );
        }
    }
}
