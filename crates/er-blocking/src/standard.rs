//! Standard (key-equality) blocking — the classic relational method.
//!
//! A blocking key is derived from chosen attributes and descriptions with an
//! identical key share a block. Fast and precise on homogeneous, clean data;
//! the tutorial's §II explains why it breaks in the Web of data: it needs
//! schema knowledge (which attributes?) and exact key agreement (noise kills
//! recall). Included both as a baseline and for experiments on the
//! schema-heterogeneity regime.

use crate::block::{blocks_from_scheme, BlockCollection};
use er_core::collection::EntityCollection;
use er_core::entity::Entity;
use er_core::profiles::{KeyScheme, KeySink};
use er_core::tokenize::normalize;

/// How the blocking key is derived from an entity.
#[derive(Clone, Debug)]
pub enum AttributeKey {
    /// The normalized first value of an attribute (empty string if missing).
    Attribute(String),
    /// First `n` characters of the normalized first value of an attribute —
    /// the common "prefix of surname" style key.
    AttributePrefix(String, usize),
    /// Concatenation of several attribute-derived keys.
    Composite(Vec<AttributeKey>),
}

impl AttributeKey {
    /// Computes the key for an entity; `None` when every component is empty
    /// (such descriptions are left unblocked).
    pub fn key(&self, e: &Entity) -> Option<String> {
        let k = self.raw_key(e);
        if k.is_empty() {
            None
        } else {
            Some(k)
        }
    }

    fn raw_key(&self, e: &Entity) -> String {
        match self {
            AttributeKey::Attribute(a) => e.value_of(a).map(normalize).unwrap_or_default(),
            AttributeKey::AttributePrefix(a, n) => {
                let v = e.value_of(a).map(normalize).unwrap_or_default();
                v.chars().take(*n).collect()
            }
            AttributeKey::Composite(parts) => {
                let joined: Vec<String> = parts.iter().map(|p| p.raw_key(e)).collect();
                joined.join("|")
            }
        }
    }
}

/// Standard blocking under an [`AttributeKey`].
#[derive(Clone, Debug)]
pub struct StandardBlocking {
    scheme: AttributeKey,
}

impl StandardBlocking {
    /// Blocks on the normalized value of one attribute.
    pub fn on_attribute(attribute: impl Into<String>) -> Self {
        StandardBlocking {
            scheme: AttributeKey::Attribute(attribute.into()),
        }
    }

    /// Blocks with an arbitrary scheme.
    pub fn new(scheme: AttributeKey) -> Self {
        StandardBlocking { scheme }
    }

    /// Builds the blocking collection: one block per distinct key.
    pub fn build(&self, collection: &EntityCollection) -> BlockCollection {
        blocks_from_scheme(collection, self)
    }
}

/// An entity's one key, if it has one.
impl KeyScheme for StandardBlocking {
    fn keys_into(&self, entity: &Entity, sink: &mut KeySink<'_>) {
        if let Some(key) = self.scheme.key(entity) {
            sink.push(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::collection::ResolutionMode;
    use er_core::entity::{EntityBuilder, EntityId, KbId};

    fn collection() -> EntityCollection {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        c.push_entity(
            KbId(0),
            EntityBuilder::new()
                .attr("name", "Turing")
                .attr("y", "1912"),
        );
        c.push_entity(
            KbId(0),
            EntityBuilder::new()
                .attr("name", "turing!")
                .attr("y", "1912"),
        );
        c.push_entity(
            KbId(0),
            EntityBuilder::new().attr("name", "Turin").attr("y", "1912"),
        );
        c.push_entity(KbId(0), EntityBuilder::new().attr("label", "Turing"));
        c
    }

    #[test]
    fn exact_key_blocks_normalized_equal_values() {
        let c = collection();
        let bc = StandardBlocking::on_attribute("name").build(&c);
        let b = bc.by_key("turing").expect("turing block");
        assert_eq!(b.entities(), &[EntityId(0), EntityId(1)]);
    }

    #[test]
    fn missing_attribute_leaves_entity_unblocked() {
        let c = collection();
        let bc = StandardBlocking::on_attribute("name").build(&c);
        for b in bc.blocks() {
            assert!(
                !b.entities().contains(&EntityId(3)),
                "entity 3 has no `name`"
            );
        }
    }

    #[test]
    fn prefix_key_tolerates_suffix_variation() {
        let c = collection();
        let bc = StandardBlocking::new(AttributeKey::AttributePrefix("name".into(), 5)).build(&c);
        let b = bc.by_key("turin").expect("prefix block");
        assert_eq!(b.entities(), &[EntityId(0), EntityId(1), EntityId(2)]);
    }

    #[test]
    fn composite_key_conjunction() {
        let c = collection();
        let scheme = AttributeKey::Composite(vec![
            AttributeKey::AttributePrefix("name".into(), 5),
            AttributeKey::Attribute("y".into()),
        ]);
        let bc = StandardBlocking::new(scheme).build(&c);
        let b = bc.by_key("turin|1912").expect("composite block");
        assert_eq!(b.entities(), &[EntityId(0), EntityId(1), EntityId(2)]);
        // Entity 3 has neither attribute → empty key components → unblocked.
        assert_eq!(bc.len(), 1);
    }

    #[test]
    fn schema_heterogeneity_defeats_standard_blocking() {
        // Entities 0 and 3 describe the same person under different attribute
        // names; standard blocking cannot see it.
        let c = collection();
        let bc = StandardBlocking::on_attribute("name").build(&c);
        let pairs = bc.distinct_pairs(&c);
        assert!(!pairs.iter().any(|p| p.contains(EntityId(3))));
    }
}
