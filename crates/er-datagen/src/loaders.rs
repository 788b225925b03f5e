//! Format loaders for real-world benchmark fixtures.
//!
//! The scenario matrix (`er scenario run`, `docs/scenarios.md`) runs the blocking zoo over
//! small-but-real datasets in the families the blocking benchmarks use
//! (census/restaurant/cora-style delimited tables, LOD-style RDF). This
//! module parses those fixture formats into an [`EntityCollection`] plus
//! [`GroundTruth`], routing **every** malformed input through the PR 6
//! [`IngestValidator`] quarantine instead of panicking:
//!
//! * [`DelimitedSchema`] + [`DatasetBuilder::add_delimited`] — CSV/TSV with a
//!   header row, RFC-4180-style quoting (quoted delimiters, doubled quotes)
//!   and CRLF tolerance. A row whose field count disagrees with the header is
//!   quarantined as [`QuarantineReason::SchemaMismatch`]; content problems
//!   (missing/duplicate ids, empty rows) fall out of
//!   [`IngestValidator::admit`]'s ordered checks as usual.
//! * [`DatasetBuilder::add_ntriples`] — an N-Triples subset
//!   (`<s> <p> "literal" .` / `<s> <p> <iri> .`) that folds each predicate
//!   IRI into a short attribute name, so LOD-style descriptions get the same
//!   attribute/value shape as tabular records. Unparsable lines are
//!   quarantined as `SchemaMismatch`.
//!
//! One [`DatasetBuilder`] spans all the files of a scenario, so its single
//! validator catches ids colliding *across* files (clean–clean sources that
//! leak the same key twice) and its [`QuarantineReport`] accounts for every
//! rejected arrival of the scenario. Gold matches arrive as an `id,cluster`
//! CSV ([`DatasetBuilder::finish`]); gold rows pointing at quarantined or
//! unknown records are skipped and counted, never invented.

use er_core::collection::{EntityCollection, ResolutionMode};
use er_core::entity::{EntityBuilder, EntityId, KbId};
use er_core::ground_truth::GroundTruth;
use er_core::ingest::{
    IngestConfig, IngestValidator, QuarantineReason, QuarantineReport, RawRecord,
};
use er_core::obs::Obs;
use std::collections::BTreeMap;
use std::fmt;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// File-level loader failures: the *file* is unusable (no header, a mapped
/// column missing, a corrupt gold table), as opposed to row-level problems,
/// which are quarantined so the rest of the file still loads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoadError {
    /// The delimited file has no header row.
    MissingHeader,
    /// The header lacks a column the schema maps (the id column or a named
    /// attribute column).
    MissingColumn {
        /// The absent column.
        column: String,
    },
    /// The gold-matches table is corrupt. Gold is the evaluation oracle, so
    /// a malformed gold row fails the load instead of being skipped.
    Gold {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::MissingHeader => write!(f, "delimited file has no header row"),
            LoadError::MissingColumn { column } => {
                write!(f, "header is missing mapped column {column:?}")
            }
            LoadError::Gold { line, detail } => {
                write!(f, "gold matches line {line}: {detail}")
            }
        }
    }
}

impl std::error::Error for LoadError {}

// ---------------------------------------------------------------------------
// Delimited schema mapping
// ---------------------------------------------------------------------------

/// Schema mapping for a delimited file: which character separates fields,
/// which header column carries the record id, and (optionally) which columns
/// to keep under which attribute names.
#[derive(Clone, Debug)]
pub struct DelimitedSchema {
    /// Field separator (`,` for CSV, `\t` for TSV).
    pub delimiter: char,
    /// Header name of the id column.
    pub id_column: String,
    /// `(column, attribute)` renames. Empty means *identity-map every
    /// non-id column* under its header name.
    pub attributes: Vec<(String, String)>,
}

impl DelimitedSchema {
    /// Comma-separated file whose id lives in `id_column`; all other columns
    /// become attributes under their header names.
    pub fn csv(id_column: impl Into<String>) -> Self {
        DelimitedSchema {
            delimiter: ',',
            id_column: id_column.into(),
            attributes: Vec::new(),
        }
    }

    /// Tab-separated variant of [`csv`](DelimitedSchema::csv).
    pub fn tsv(id_column: impl Into<String>) -> Self {
        DelimitedSchema {
            delimiter: '\t',
            id_column: id_column.into(),
            attributes: Vec::new(),
        }
    }

    /// Keeps only the mapped columns, loading header column `column` as
    /// attribute `attribute`. The first call switches the schema from
    /// identity mapping to explicit mapping.
    pub fn map(mut self, column: impl Into<String>, attribute: impl Into<String>) -> Self {
        self.attributes.push((column.into(), attribute.into()));
        self
    }
}

/// Splits one delimited line into fields with RFC-4180-style quoting: a field
/// starting with `"` runs to the closing quote (doubled quotes escape), and
/// delimiters inside quotes are literal. Embedded newlines are *not*
/// supported — fixture records are single-line — so an unterminated quote is
/// a schema mismatch, not a multi-line record.
fn split_fields(line: &str, delimiter: char) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                field.push(c);
            }
        } else if c == '"' && field.is_empty() {
            in_quotes = true;
        } else if c == delimiter {
            fields.push(std::mem::take(&mut field));
        } else {
            field.push(c);
        }
    }
    if in_quotes {
        return Err("unterminated quoted field".to_string());
    }
    fields.push(field);
    Ok(fields)
}

// ---------------------------------------------------------------------------
// N-Triples subset
// ---------------------------------------------------------------------------

/// Folds an IRI to its local name: the part after the last `#` or `/`.
/// Returns the whole IRI when that would be empty.
fn local_name(iri: &str) -> &str {
    let cut = iri.rfind(['#', '/']).map(|i| i + 1).unwrap_or(0);
    let tail = &iri[cut..];
    if tail.is_empty() {
        iri
    } else {
        tail
    }
}

/// Parses one N-Triples line of the supported subset. `Ok(None)` for blank
/// lines and comments; `Err` describes the malformation.
fn parse_triple(line: &str) -> Result<Option<(String, String, String)>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let mut rest = trimmed;
    let subject = take_iri(&mut rest)?;
    skip_ws(&mut rest);
    let predicate = take_iri(&mut rest)?;
    skip_ws(&mut rest);
    let object = if rest.starts_with('<') {
        local_name(&take_iri(&mut rest)?).to_string()
    } else if rest.starts_with('"') {
        take_literal(&mut rest)?
    } else {
        return Err(format!(
            "object must be an IRI or literal, found {:?}",
            rest.chars().take(8).collect::<String>()
        ));
    };
    skip_ws(&mut rest);
    if rest != "." {
        return Err("triple does not end with '.'".to_string());
    }
    Ok(Some((subject, predicate, object)))
}

fn skip_ws(rest: &mut &str) {
    *rest = rest.trim_start();
}

/// Consumes `<iri>` from the front of `rest`.
fn take_iri(rest: &mut &str) -> Result<String, String> {
    let inner = rest
        .strip_prefix('<')
        .ok_or_else(|| format!("expected '<', found {:?}", rest.chars().next()))?;
    let end = inner
        .find('>')
        .ok_or_else(|| "unterminated IRI".to_string())?;
    let iri = inner[..end].to_string();
    *rest = &inner[end + 1..];
    Ok(iri)
}

/// Consumes `"literal"` (with `\"` `\\` `\n` `\r` `\t` `\uXXXX` escapes) plus
/// an optional `@lang` or `^^<datatype>` suffix, both discarded.
fn take_literal(rest: &mut &str) -> Result<String, String> {
    let mut chars = rest
        .strip_prefix('"')
        .ok_or_else(|| "expected '\"'".to_string())?
        .char_indices();
    let mut value = String::new();
    let after = loop {
        let (i, c) = chars
            .next()
            .ok_or_else(|| "unterminated literal".to_string())?;
        match c {
            '"' => break i + 1,
            '\\' => {
                let (_, esc) = chars
                    .next()
                    .ok_or_else(|| "dangling escape in literal".to_string())?;
                match esc {
                    '"' => value.push('"'),
                    '\\' => value.push('\\'),
                    'n' => value.push('\n'),
                    'r' => value.push('\r'),
                    't' => value.push('\t'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (_, h) = chars
                                .next()
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let digit = h
                                .to_digit(16)
                                .ok_or_else(|| format!("bad hex digit {h:?} in \\u escape"))?;
                            code = code * 16 + digit;
                        }
                        value.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("\\u{code:04x} is not a character"))?,
                        );
                    }
                    other => return Err(format!("unsupported escape \\{other}")),
                }
            }
            c => value.push(c),
        }
    };
    let tail = &rest[1 + after..];
    // Strip @lang / ^^<datatype> — the matcher works on the lexical form.
    *rest = if let Some(t) = tail.strip_prefix("@") {
        let end = t.find(|c: char| c.is_whitespace()).unwrap_or(t.len());
        &t[end..]
    } else if let Some(t) = tail.strip_prefix("^^") {
        let mut t2 = t;
        take_iri(&mut t2)?;
        t2
    } else {
        tail
    };
    Ok(value)
}

// ---------------------------------------------------------------------------
// Dataset builder
// ---------------------------------------------------------------------------

/// The output of a scenario load: the accepted descriptions, the gold truth
/// restricted to loaded records, the quarantine ledger, and how many gold
/// rows were dropped because their record never made it in.
#[derive(Clone, Debug)]
pub struct LoadedScenario {
    /// The accepted entity descriptions, in arrival order. Each entity's
    /// `uri()` carries the external id it was loaded under.
    pub collection: EntityCollection,
    /// Gold matches among the *loaded* records (quarantined ids dropped).
    pub truth: GroundTruth,
    /// Every rejected arrival, with its typed reason.
    pub quarantine: QuarantineReport,
    /// Gold rows skipped because their id was quarantined or never seen.
    pub gold_skipped: u64,
}

/// Builds one scenario's [`EntityCollection`] from any mix of delimited and
/// N-Triples files, sharing a single [`IngestValidator`] across all of them
/// so duplicate ids are caught *across* files and one [`QuarantineReport`]
/// accounts for the whole scenario.
pub struct DatasetBuilder {
    validator: IngestValidator,
    collection: EntityCollection,
    ids: BTreeMap<String, EntityId>,
}

impl DatasetBuilder {
    /// Creates a builder for a collection in the given resolution mode, with
    /// default ingest limits and no observability.
    pub fn new(mode: ResolutionMode) -> Self {
        Self::with_config(mode, IngestConfig::default())
    }

    /// [`new`](DatasetBuilder::new) with explicit ingest limits.
    pub fn with_config(mode: ResolutionMode, config: IngestConfig) -> Self {
        DatasetBuilder {
            validator: IngestValidator::new(config),
            collection: EntityCollection::new(mode),
            ids: BTreeMap::new(),
        }
    }

    /// Attaches an observability registry (the `ingest.*` counters and
    /// per-quarantine warning events).
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.validator = self.validator.with_obs(obs);
        self
    }

    /// Loads a delimited (CSV/TSV) file under `schema`, tagging every record
    /// with `kb`. Returns the number of data rows offered (accepted or
    /// quarantined). Lines may end in `\n` or `\r\n`; blank lines are
    /// skipped. Rows with the wrong field count or broken quoting are
    /// quarantined as [`QuarantineReason::SchemaMismatch`]; everything else
    /// flows through [`IngestValidator::admit`].
    pub fn add_delimited(
        &mut self,
        text: &str,
        schema: &DelimitedSchema,
        kb: KbId,
    ) -> Result<usize, LoadError> {
        let mut lines = text.lines().enumerate();
        let header = loop {
            match lines.next() {
                None => return Err(LoadError::MissingHeader),
                Some((_, l)) if l.trim().is_empty() => continue,
                Some((_, l)) => {
                    break split_fields(l, schema.delimiter)
                        .map_err(|_| LoadError::MissingHeader)?
                }
            }
        };
        let find = |column: &str| -> Result<usize, LoadError> {
            header
                .iter()
                .position(|h| h.trim() == column)
                .ok_or_else(|| LoadError::MissingColumn {
                    column: column.to_string(),
                })
        };
        let id_index = find(&schema.id_column)?;
        // (field index, attribute name) for every kept column.
        let mapping: Vec<(usize, String)> = if schema.attributes.is_empty() {
            header
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != id_index)
                .map(|(i, h)| (i, h.trim().to_string()))
                .collect()
        } else {
            schema
                .attributes
                .iter()
                .map(|(column, attribute)| Ok((find(column)?, attribute.clone())))
                .collect::<Result<_, LoadError>>()?
        };

        let mut offered = 0;
        for (line_no, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            offered += 1;
            let fields = match split_fields(line, schema.delimiter) {
                Ok(f) => f,
                Err(detail) => {
                    self.validator.quarantine(
                        None,
                        QuarantineReason::SchemaMismatch {
                            detail: format!("line {}: {detail}", line_no + 1),
                        },
                    );
                    continue;
                }
            };
            if fields.len() != header.len() {
                let id = fields.get(id_index).map(|f| f.trim().to_string());
                self.validator.quarantine(
                    id,
                    QuarantineReason::SchemaMismatch {
                        detail: format!(
                            "line {}: {} fields, header has {}",
                            line_no + 1,
                            fields.len(),
                            header.len()
                        ),
                    },
                );
                continue;
            }
            let id = fields[id_index].trim().to_string();
            let attributes: Vec<(String, String)> = mapping
                .iter()
                .filter_map(|(i, attribute)| {
                    let value = fields[*i].trim();
                    (!value.is_empty()).then(|| (attribute.clone(), value.to_string()))
                })
                .collect();
            self.offer(RawRecord::new(id, attributes).with_kb(kb));
        }
        Ok(offered)
    }

    /// Loads an N-Triples-subset file, tagging every record with `kb`.
    /// Triples are grouped by subject (records emerge in first-seen subject
    /// order, attributes in triple order); the full subject IRI is the record
    /// id, and predicates and object IRIs are folded to their local names.
    /// Returns the number of records offered. Unparsable lines are
    /// quarantined as [`QuarantineReason::SchemaMismatch`] *before* any
    /// record of the file is admitted.
    pub fn add_ntriples(&mut self, text: &str, kb: KbId) -> usize {
        let mut order: Vec<String> = Vec::new();
        let mut grouped: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
        for (line_no, line) in text.lines().enumerate() {
            match parse_triple(line) {
                Ok(None) => {}
                Ok(Some((subject, predicate, object))) => {
                    let attrs = grouped.entry(subject.clone()).or_insert_with(|| {
                        order.push(subject);
                        Vec::new()
                    });
                    attrs.push((local_name(&predicate).to_string(), object));
                }
                Err(detail) => self.validator.quarantine(
                    None,
                    QuarantineReason::SchemaMismatch {
                        detail: format!("line {}: {detail}", line_no + 1),
                    },
                ),
            }
        }
        let offered = order.len();
        for subject in order {
            let attributes = grouped.remove(&subject).expect("grouped by construction");
            self.offer(RawRecord::new(subject, attributes).with_kb(kb));
        }
        offered
    }

    /// Offers one pre-shaped record to the shared validator (streaming
    /// producers use this directly). Accepted records join the collection
    /// with their external id as the entity URI.
    pub fn offer(&mut self, record: RawRecord) {
        if let Some(accepted) = self.validator.admit(record) {
            let mut builder = EntityBuilder::new().uri(accepted.id.clone());
            for (attribute, value) in accepted.attributes {
                builder = builder.attr(attribute, value);
            }
            let entity_id = self.collection.push_entity(accepted.kb, builder);
            self.ids.insert(accepted.id, entity_id);
        }
    }

    /// The collection built so far.
    pub fn collection(&self) -> &EntityCollection {
        &self.collection
    }

    /// The quarantine ledger so far.
    pub fn report(&self) -> &QuarantineReport {
        self.validator.report()
    }

    /// Finalizes with gold matches: a CSV with header `id,cluster` where all
    /// rows sharing a cluster label are duplicates. Gold rows whose id was
    /// quarantined or never loaded are skipped and counted in
    /// [`LoadedScenario::gold_skipped`]; a structurally corrupt gold row is a
    /// [`LoadError::Gold`] (the oracle must not silently rot).
    pub fn finish(self, gold: &str) -> Result<LoadedScenario, LoadError> {
        let mut lines = gold.lines().enumerate();
        let header = loop {
            match lines.next() {
                None => return Err(LoadError::MissingHeader),
                Some((_, l)) if l.trim().is_empty() => continue,
                Some((_, l)) => break l,
            }
        };
        let header_fields = split_fields(header, ',').map_err(|_| LoadError::MissingHeader)?;
        if header_fields.iter().map(|f| f.trim()).collect::<Vec<_>>() != ["id", "cluster"] {
            return Err(LoadError::MissingColumn {
                column: "id,cluster".to_string(),
            });
        }
        let mut clusters: BTreeMap<String, Vec<EntityId>> = BTreeMap::new();
        let mut gold_skipped = 0u64;
        for (line_no, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            let fields = split_fields(line, ',').map_err(|detail| LoadError::Gold {
                line: line_no + 1,
                detail,
            })?;
            if fields.len() != 2 {
                return Err(LoadError::Gold {
                    line: line_no + 1,
                    detail: format!("{} fields, expected id,cluster", fields.len()),
                });
            }
            let (id, cluster) = (fields[0].trim(), fields[1].trim());
            if id.is_empty() || cluster.is_empty() {
                return Err(LoadError::Gold {
                    line: line_no + 1,
                    detail: "empty id or cluster".to_string(),
                });
            }
            match self.ids.get(id) {
                Some(entity_id) => clusters
                    .entry(cluster.to_string())
                    .or_default()
                    .push(*entity_id),
                None => gold_skipped += 1,
            }
        }
        let truth = GroundTruth::from_clusters(clusters.into_values());
        Ok(LoadedScenario {
            collection: self.collection,
            truth,
            quarantine: self.validator.into_report(),
            gold_skipped,
        })
    }

    /// Finalizes without gold (empty [`GroundTruth`]).
    pub fn finish_without_gold(self) -> LoadedScenario {
        LoadedScenario {
            collection: self.collection,
            truth: GroundTruth::default(),
            quarantine: self.validator.into_report(),
            gold_skipped: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csv_builder(text: &str) -> LoadedScenario {
        let mut b = DatasetBuilder::new(ResolutionMode::Dirty);
        b.add_delimited(text, &DelimitedSchema::csv("id"), KbId(0))
            .expect("load");
        b.finish("id,cluster\n").expect("gold")
    }

    #[test]
    fn loads_a_plain_csv() {
        let loaded = csv_builder("id,name,city\nr1,Alan Turing,London\nr2,Ada Lovelace,London\n");
        assert_eq!(loaded.collection.len(), 2);
        assert_eq!(loaded.quarantine.quarantined(), 0);
        let e = loaded.collection.entity(EntityId(0));
        assert_eq!(e.uri(), Some("r1"));
        assert_eq!(
            e.attributes(),
            &[
                ("name".to_string(), "Alan Turing".to_string()),
                ("city".to_string(), "London".to_string())
            ]
        );
    }

    #[test]
    fn crlf_lines_parse_identically_to_lf() {
        let lf = "id,name\nr1,Alan\nr2,Ada\n";
        let crlf = "id,name\r\nr1,Alan\r\nr2,Ada\r\n";
        let a = csv_builder(lf);
        let b = csv_builder(crlf);
        assert_eq!(a.collection.len(), b.collection.len());
        assert_eq!(b.quarantine.quarantined(), 0, "CRLF is not a malformation");
        for (x, y) in a.collection.iter().zip(b.collection.iter()) {
            assert_eq!(x.attributes(), y.attributes());
            assert_eq!(x.uri(), y.uri());
        }
    }

    #[test]
    fn quoted_delimiters_stay_inside_the_field() {
        let loaded = csv_builder(
            "id,name,notes\nr1,\"Turing, Alan\",\"said \"\"hello\"\"\"\nr2,Ada,plain\n",
        );
        assert_eq!(loaded.quarantine.quarantined(), 0);
        let e = loaded.collection.entity(EntityId(0));
        assert_eq!(
            e.attributes(),
            &[
                ("name".to_string(), "Turing, Alan".to_string()),
                ("notes".to_string(), "said \"hello\"".to_string())
            ]
        );
        // An unterminated quote is a schema mismatch, not a panic.
        let loaded = csv_builder("id,name\nr1,\"broken\nr2,fine\n");
        assert_eq!(loaded.quarantine.quarantined(), 1);
        assert_eq!(
            loaded.quarantine.records()[0].reason.code(),
            "schema-mismatch"
        );
        // The well-formed remainder still loads.
        assert_eq!(loaded.collection.len(), 1);
    }

    #[test]
    fn duplicate_ids_across_files_are_quarantined() {
        let mut b = DatasetBuilder::new(ResolutionMode::CleanClean);
        let schema = DelimitedSchema::csv("id");
        b.add_delimited("id,name\nshared,Alan\n", &schema, KbId(0))
            .unwrap();
        b.add_delimited("id,name\nshared,Alan Turing\nz2,Ada\n", &schema, KbId(1))
            .unwrap();
        let loaded = b.finish("id,cluster\nshared,c0\nz2,c1\n").unwrap();
        assert_eq!(loaded.collection.len(), 2);
        assert_eq!(loaded.quarantine.quarantined(), 1);
        assert_eq!(
            loaded.quarantine.records()[0].reason,
            QuarantineReason::DuplicateId {
                id: "shared".to_string()
            }
        );
        // The gold row for "shared" binds to the surviving first copy.
        assert_eq!(loaded.gold_skipped, 0);
    }

    #[test]
    fn wrong_field_count_is_a_schema_mismatch() {
        let loaded = csv_builder("id,name,city\nr1,Alan\nr2,Ada,London\n");
        assert_eq!(loaded.collection.len(), 1);
        assert_eq!(loaded.quarantine.quarantined(), 1);
        let q = &loaded.quarantine.records()[0];
        assert_eq!(q.reason.code(), "schema-mismatch");
        assert_eq!(q.id.as_deref(), Some("r1"), "the claimed id is preserved");
        assert!(q.reason.to_string().contains("2 fields, header has 3"));
    }

    #[test]
    fn empty_and_missing_ids_flow_through_admit() {
        let loaded = csv_builder("id,name\n,NoId\nr2,\nr3,Ada\n");
        assert_eq!(loaded.collection.len(), 1);
        let codes: Vec<&str> = loaded
            .quarantine
            .records()
            .iter()
            .map(|r| r.reason.code())
            .collect();
        assert_eq!(codes, vec!["missing-id", "empty-attributes"]);
    }

    #[test]
    fn explicit_schema_mapping_selects_and_renames() {
        let mut b = DatasetBuilder::new(ResolutionMode::Dirty);
        let schema = DelimitedSchema::csv("rec").map("full_name", "name");
        b.add_delimited("rec,full_name,junk\nr1,Alan,xyz\n", &schema, KbId(0))
            .unwrap();
        let loaded = b.finish("id,cluster\n").unwrap();
        assert_eq!(
            loaded.collection.entity(EntityId(0)).attributes(),
            &[("name".to_string(), "Alan".to_string())]
        );
    }

    #[test]
    fn missing_mapped_column_is_a_load_error() {
        let mut b = DatasetBuilder::new(ResolutionMode::Dirty);
        let err = b
            .add_delimited("id,name\nr1,x\n", &DelimitedSchema::csv("uri"), KbId(0))
            .unwrap_err();
        assert_eq!(
            err,
            LoadError::MissingColumn {
                column: "uri".to_string()
            }
        );
        assert!(matches!(
            b.add_delimited("", &DelimitedSchema::csv("id"), KbId(0)),
            Err(LoadError::MissingHeader)
        ));
    }

    #[test]
    fn ntriples_groups_by_subject_and_folds_predicates() {
        let nt = "\
# people
<http://ex.org/p/alan> <http://xmlns.com/foaf/0.1/name> \"Alan Turing\" .
<http://ex.org/p/alan> <http://ex.org/ont#birthYear> \"1912\"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex.org/p/ada> <http://xmlns.com/foaf/0.1/name> \"Ada Lovelace\"@en .
<http://ex.org/p/alan> <http://ex.org/ont#knows> <http://ex.org/p/ada> .
";
        let mut b = DatasetBuilder::new(ResolutionMode::Dirty);
        assert_eq!(b.add_ntriples(nt, KbId(0)), 2);
        let loaded = b.finish("id,cluster\n").unwrap();
        assert_eq!(loaded.collection.len(), 2);
        let alan = loaded.collection.entity(EntityId(0));
        assert_eq!(alan.uri(), Some("http://ex.org/p/alan"));
        assert_eq!(
            alan.attributes(),
            &[
                ("name".to_string(), "Alan Turing".to_string()),
                ("birthYear".to_string(), "1912".to_string()),
                ("knows".to_string(), "ada".to_string())
            ]
        );
        let ada = loaded.collection.entity(EntityId(1));
        assert_eq!(
            ada.attributes(),
            &[("name".to_string(), "Ada Lovelace".to_string())]
        );
    }

    #[test]
    fn ntriples_literal_escapes_decode() {
        let nt = "<http://e/s> <http://e/p> \"a \\\"q\\\" b\\\\c\\u0041\" .\n";
        let mut b = DatasetBuilder::new(ResolutionMode::Dirty);
        b.add_ntriples(nt, KbId(0));
        let loaded = b.finish("id,cluster\n").unwrap();
        assert_eq!(
            loaded.collection.entity(EntityId(0)).attributes()[0].1,
            "a \"q\" b\\cA"
        );
    }

    #[test]
    fn malformed_triples_are_quarantined_not_fatal() {
        let nt = "\
<http://e/a> <http://e/p> \"ok\" .
this is not a triple
<http://e/b> <http://e/p> \"also ok\" .
<http://e/c> <http://e/p> \"no terminator\"
";
        let mut b = DatasetBuilder::new(ResolutionMode::Dirty);
        assert_eq!(b.add_ntriples(nt, KbId(0)), 2);
        let loaded = b.finish("id,cluster\n").unwrap();
        assert_eq!(loaded.collection.len(), 2);
        assert_eq!(loaded.quarantine.counts_by_code()["schema-mismatch"], 2);
    }

    #[test]
    fn gold_clusters_close_and_skip_unknown_ids() {
        let mut b = DatasetBuilder::new(ResolutionMode::Dirty);
        b.add_delimited(
            "id,name\nr1,Alan\nr2,Alan T\nr3,A Turing\nr4,Ada\n",
            &DelimitedSchema::csv("id"),
            KbId(0),
        )
        .unwrap();
        let loaded = b
            .finish("id,cluster\nr1,c0\nr2,c0\nr3,c0\nghost,c0\nr4,c1\n")
            .unwrap();
        // 3-cluster closes to 3 pairs; the singleton contributes none; the
        // unknown id is skipped, not invented.
        assert_eq!(loaded.truth.len(), 3);
        assert_eq!(loaded.gold_skipped, 1);
    }

    #[test]
    fn corrupt_gold_is_a_load_error() {
        let b = |gold: &str| {
            let mut b = DatasetBuilder::new(ResolutionMode::Dirty);
            b.add_delimited("id,name\nr1,x\n", &DelimitedSchema::csv("id"), KbId(0))
                .unwrap();
            b.finish(gold)
        };
        assert!(matches!(b(""), Err(LoadError::MissingHeader)));
        assert!(matches!(b("a,b\n"), Err(LoadError::MissingColumn { .. })));
        assert!(matches!(
            b("id,cluster\nr1\n"),
            Err(LoadError::Gold { line: 2, .. })
        ));
        assert!(matches!(
            b("id,cluster\nr1,\n"),
            Err(LoadError::Gold { line: 2, .. })
        ));
    }
}
