//! Schema-free entity descriptions.
//!
//! In the Web of data an *entity description* is a set of attribute–value
//! pairs (RDF triples sharing a subject). The tutorial stresses that such
//! descriptions are partial, overlapping and schema-diverse: the same
//! real-world entity may be described with disjoint property vocabularies in
//! different knowledge bases. The model here therefore commits to no schema:
//! an [`Entity`] is a multiset of `(attribute, value)` string pairs plus the
//! identity of the knowledge base it came from.

use crate::tokenize::{self, Tokenizer};
use std::collections::BTreeSet;

/// Identifier of an entity description inside an
/// [`EntityCollection`](crate::collection::EntityCollection).
///
/// Ids are dense indexes assigned by the collection, which makes inverted
/// indexes and union–find structures array-backed and cache-friendly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(pub u32);

impl EntityId {
    /// The id as a usable array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for EntityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Identifier of the knowledge base (source dataset) a description came from.
///
/// Clean–clean ER resolves descriptions *across* KBs (each KB is internally
/// duplicate-free); dirty ER resolves within a single KB. See
/// [`ResolutionMode`](crate::collection::ResolutionMode).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KbId(pub u16);

impl std::fmt::Debug for KbId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "kb{}", self.0)
    }
}

/// A schema-free entity description: attribute–value pairs from one KB.
///
/// Attribute names and values are plain strings; the same attribute may occur
/// multiple times (RDF properties are multi-valued). The optional `uri` holds
/// the external name of the description (e.g. its RDF subject URI) and plays
/// no role in resolution — per the tutorial, multiple URIs may name the same
/// real-world entity, so identity must be established from content.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entity {
    id: EntityId,
    kb: KbId,
    uri: Option<String>,
    attributes: Vec<(String, String)>,
}

impl Entity {
    /// Creates a description. Normally done through
    /// [`EntityCollection::push`](crate::collection::EntityCollection::push),
    /// which assigns the id.
    pub fn new(id: EntityId, kb: KbId, attributes: Vec<(String, String)>) -> Self {
        Entity {
            id,
            kb,
            uri: None,
            attributes,
        }
    }

    /// The collection-assigned identifier.
    pub fn id(&self) -> EntityId {
        self.id
    }

    /// The knowledge base this description belongs to.
    pub fn kb(&self) -> KbId {
        self.kb
    }

    /// The external URI, if any.
    pub fn uri(&self) -> Option<&str> {
        self.uri.as_deref()
    }

    /// All attribute–value pairs, in insertion order.
    pub fn attributes(&self) -> &[(String, String)] {
        &self.attributes
    }

    /// Number of attribute–value pairs.
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// Whether the description carries no attributes at all.
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// Iterator over the distinct attribute names used by the description.
    pub fn attribute_names(&self) -> BTreeSet<&str> {
        self.attributes.iter().map(|(a, _)| a.as_str()).collect()
    }

    /// All values of a given attribute, in insertion order.
    pub fn values_of<'e, 'q>(
        &'e self,
        attribute: &'q str,
    ) -> impl Iterator<Item = &'e str> + use<'e, 'q> {
        self.attributes
            .iter()
            .filter(move |(a, _)| a == attribute)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a given attribute, if present.
    pub fn value_of(&self, attribute: &str) -> Option<&str> {
        self.values_of(attribute).next()
    }

    /// Every value string, regardless of attribute.
    pub fn all_values(&self) -> impl Iterator<Item = &str> + '_ {
        self.attributes.iter().map(|(_, v)| v.as_str())
    }

    /// The set of normalized tokens drawn from **all** attribute values.
    ///
    /// This is the signature used by schema-agnostic *token blocking*
    /// (Papadakis et al., surveyed in §II of the tutorial): two descriptions
    /// co-occur in a block iff they share at least one of these tokens.
    pub fn token_set(&self, tokenizer: &Tokenizer) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for (_, v) in &self.attributes {
            for t in tokenizer.tokens(v) {
                out.insert(t);
            }
        }
        out
    }

    /// Normalized tokens of all values of one attribute.
    pub fn attribute_token_set(&self, attribute: &str, tokenizer: &Tokenizer) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for v in self.values_of(attribute) {
            for t in tokenizer.tokens(v) {
                out.insert(t);
            }
        }
        out
    }

    /// The concatenation of all values, normalized — a crude but standard
    /// "whole description as one string" view used by sort-based methods.
    pub fn flattened_value(&self) -> String {
        let mut s = String::new();
        for v in self.all_values() {
            if !s.is_empty() {
                s.push(' ');
            }
            s.push_str(&tokenize::normalize(v));
        }
        s
    }
}

/// Convenience builder for tests and examples.
///
/// ```
/// use er_core::entity::{EntityBuilder, EntityId, KbId};
/// let e = EntityBuilder::new()
///     .attr("name", "Claude Shannon")
///     .attr("field", "information theory")
///     .build(EntityId(0), KbId(0));
/// assert_eq!(e.value_of("name"), Some("Claude Shannon"));
/// ```
#[derive(Default, Clone, Debug)]
pub struct EntityBuilder {
    uri: Option<String>,
    attributes: Vec<(String, String)>,
}

impl EntityBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one attribute–value pair.
    pub fn attr(mut self, attribute: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push((attribute.into(), value.into()));
        self
    }

    /// Sets the external URI.
    pub fn uri(mut self, uri: impl Into<String>) -> Self {
        self.uri = Some(uri.into());
        self
    }

    /// Finalizes into an [`Entity`] with the given identifiers.
    pub fn build(self, id: EntityId, kb: KbId) -> Entity {
        let mut e = Entity::new(id, kb, self.attributes);
        e.uri = self.uri;
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::Tokenizer;

    fn sample() -> Entity {
        EntityBuilder::new()
            .attr("name", "Alan Turing")
            .attr("name", "A. M. Turing")
            .attr("born", "1912 London")
            .uri("http://example.org/turing")
            .build(EntityId(7), KbId(1))
    }

    #[test]
    fn accessors() {
        let e = sample();
        assert_eq!(e.id(), EntityId(7));
        assert_eq!(e.kb(), KbId(1));
        assert_eq!(e.uri(), Some("http://example.org/turing"));
        assert_eq!(e.len(), 3);
        assert!(!e.is_empty());
    }

    #[test]
    fn multi_valued_attributes() {
        let e = sample();
        let names: Vec<_> = e.values_of("name").collect();
        assert_eq!(names, vec!["Alan Turing", "A. M. Turing"]);
        assert_eq!(e.value_of("name"), Some("Alan Turing"));
        assert_eq!(e.value_of("died"), None);
    }

    #[test]
    fn attribute_names_are_distinct() {
        let e = sample();
        let names = e.attribute_names();
        assert_eq!(names.len(), 2);
        assert!(names.contains("name"));
        assert!(names.contains("born"));
    }

    #[test]
    fn token_set_spans_all_attributes() {
        let e = sample();
        let toks = e.token_set(&Tokenizer::default());
        assert!(toks.contains("alan"));
        assert!(toks.contains("turing"));
        assert!(toks.contains("london"));
        assert!(toks.contains("1912"));
        // Tokens are deduplicated across values.
        assert_eq!(toks.iter().filter(|t| *t == "turing").count(), 1);
    }

    #[test]
    fn attribute_token_set_is_scoped() {
        let e = sample();
        let toks = e.attribute_token_set("born", &Tokenizer::default());
        assert!(toks.contains("london"));
        assert!(!toks.contains("turing"));
    }

    #[test]
    fn flattened_value_is_normalized_concatenation() {
        let e = sample();
        let flat = e.flattened_value();
        assert!(flat.contains("alan turing"));
        assert!(flat.contains("1912 london"));
    }

    #[test]
    fn empty_entity() {
        let e = Entity::new(EntityId(0), KbId(0), vec![]);
        assert!(e.is_empty());
        assert!(e.token_set(&Tokenizer::default()).is_empty());
        assert_eq!(e.flattened_value(), "");
    }
}
