//! Plain-text persistence for collections and ground truth.
//!
//! A deliberately simple, line-oriented, diff-friendly format so generated
//! datasets can be saved, shared and inspected without external
//! serialization dependencies:
//!
//! ```text
//! #webscale-er collection v1
//! mode dirty
//! entity 0
//! attr name<TAB>Alan Turing
//! attr born<TAB>1912 London
//! entity 0 http://example.org/turing
//! attr fullName<TAB>Alan M. Turing
//! ```
//!
//! and for ground truth:
//!
//! ```text
//! #webscale-er truth v1
//! match 0 1
//! match 4 7
//! ```
//!
//! Tabs, newlines, carriage returns and backslashes inside attribute
//! names/values are escaped (`\t`, `\n`, `\r`, `\\`); entity ids are
//! implicit (order of `entity` lines), so a round-trip preserves ids exactly.

use crate::collection::{EntityCollection, ResolutionMode};
use crate::entity::{EntityId, KbId};
use crate::ground_truth::GroundTruth;
use crate::pair::Pair;
use std::io::{BufRead, Write};

/// Errors produced while parsing the text formats.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed content, with 1-based line number and message.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::Syntax { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Escapes a name or value for the one-record-per-line format (backslash,
/// tab, newline, carriage return).
fn escape(s: &str) -> String {
    let s = s.replace('\\', "\\\\").replace('\t', "\\t");
    s.replace('\n', "\\n").replace('\r', "\\r")
}

/// Inverse of [`escape`]; a dangling or unknown escape is a syntax error on
/// `line`.
fn unescape(s: &str, line: usize) -> Result<String, ParseError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            other => {
                let message = format!("bad escape: \\{other:?}");
                return Err(ParseError::Syntax { line, message });
            }
        }
    }
    Ok(out)
}

/// Writes a collection in the v1 text format.
pub fn write_collection<W: Write>(w: &mut W, c: &EntityCollection) -> std::io::Result<()> {
    writeln!(w, "#webscale-er collection v1")?;
    writeln!(
        w,
        "mode {}",
        match c.mode() {
            ResolutionMode::Dirty => "dirty",
            ResolutionMode::CleanClean => "cleanclean",
        }
    )?;
    for e in c.iter() {
        match e.uri() {
            Some(uri) => writeln!(w, "entity {} {}", e.kb().0, escape(uri))?,
            None => writeln!(w, "entity {}", e.kb().0)?,
        }
        for (a, v) in e.attributes() {
            writeln!(w, "attr {}\t{}", escape(a), escape(v))?;
        }
    }
    Ok(())
}

/// Reads a collection in the v1 text format.
pub fn read_collection<R: BufRead>(r: &mut R) -> Result<EntityCollection, ParseError> {
    let mut lines = r.lines().enumerate();
    let header = lines
        .next()
        .ok_or(ParseError::Syntax {
            line: 1,
            message: "empty input".into(),
        })?
        .1?;
    if header.trim() != "#webscale-er collection v1" {
        return Err(ParseError::Syntax {
            line: 1,
            message: "bad header".into(),
        });
    }
    let (mode_ln, mode_line) = lines.next().ok_or(ParseError::Syntax {
        line: 2,
        message: "missing mode".into(),
    })?;
    let mode_line = mode_line?;
    let mode = match mode_line.trim() {
        "mode dirty" => ResolutionMode::Dirty,
        "mode cleanclean" => ResolutionMode::CleanClean,
        other => {
            return Err(ParseError::Syntax {
                line: mode_ln + 1,
                message: format!("unknown mode line {other:?}"),
            })
        }
    };
    let mut collection = EntityCollection::new(mode);
    /// An `entity` line whose `attr` lines are still being accumulated.
    type Pending = Option<(KbId, Option<String>, Vec<(String, String)>)>;
    let mut pending: Pending = None;
    let flush = |collection: &mut EntityCollection, pending: &mut Pending| {
        if let Some((kb, uri, attrs)) = pending.take() {
            let mut b = crate::entity::EntityBuilder::new();
            for (a, v) in attrs {
                b = b.attr(a, v);
            }
            if let Some(u) = uri {
                b = b.uri(u);
            }
            collection.push_entity(kb, b);
        }
    };
    for (idx, line) in lines {
        let ln = idx + 1;
        let line = line?;
        let line = line.trim_end_matches('\r');
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("entity ") {
            flush(&mut collection, &mut pending);
            let mut parts = rest.splitn(2, ' ');
            let kb: u16 = parts
                .next()
                .unwrap_or("")
                .parse()
                .map_err(|_| ParseError::Syntax {
                    line: ln,
                    message: "bad kb id".into(),
                })?;
            let uri = match parts.next() {
                Some(u) => Some(unescape(u, ln)?),
                None => None,
            };
            pending = Some((KbId(kb), uri, Vec::new()));
        } else if let Some(rest) = line.strip_prefix("attr ") {
            let (name, value) = rest.split_once('\t').ok_or(ParseError::Syntax {
                line: ln,
                message: "attr line needs a tab separator".into(),
            })?;
            let slot = pending.as_mut().ok_or(ParseError::Syntax {
                line: ln,
                message: "attr before any entity".into(),
            })?;
            slot.2.push((unescape(name, ln)?, unescape(value, ln)?));
        } else {
            return Err(ParseError::Syntax {
                line: ln,
                message: format!("unrecognized line {line:?}"),
            });
        }
    }
    flush(&mut collection, &mut pending);
    Ok(collection)
}

/// Writes ground truth in the v1 text format.
pub fn write_truth<W: Write>(w: &mut W, t: &GroundTruth) -> std::io::Result<()> {
    writeln!(w, "#webscale-er truth v1")?;
    for p in t.iter() {
        writeln!(w, "match {} {}", p.first().0, p.second().0)?;
    }
    Ok(())
}

/// Reads ground truth in the v1 text format.
pub fn read_truth<R: BufRead>(r: &mut R) -> Result<GroundTruth, ParseError> {
    let mut lines = r.lines().enumerate();
    let header = lines
        .next()
        .ok_or(ParseError::Syntax {
            line: 1,
            message: "empty input".into(),
        })?
        .1?;
    if header.trim() != "#webscale-er truth v1" {
        return Err(ParseError::Syntax {
            line: 1,
            message: "bad header".into(),
        });
    }
    let mut pairs = Vec::new();
    for (idx, line) in lines {
        let ln = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let rest = line.strip_prefix("match ").ok_or(ParseError::Syntax {
            line: ln,
            message: format!("unrecognized line {line:?}"),
        })?;
        let mut parts = rest.split(' ');
        let parse = |p: Option<&str>| -> Result<u32, ParseError> {
            p.unwrap_or("").parse().map_err(|_| ParseError::Syntax {
                line: ln,
                message: "bad entity id".into(),
            })
        };
        let a = parse(parts.next())?;
        let b = parse(parts.next())?;
        let pair = Pair::try_new(EntityId(a), EntityId(b)).ok_or(ParseError::Syntax {
            line: ln,
            message: "self-match".into(),
        })?;
        pairs.push(pair);
    }
    Ok(GroundTruth::from_pairs(pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::EntityBuilder;

    fn sample() -> EntityCollection {
        let mut c = EntityCollection::new(ResolutionMode::CleanClean);
        c.push_entity(
            KbId(0),
            EntityBuilder::new()
                .attr("name", "Alan Turing")
                .attr("note", "tabs\tand\nnewlines\\and\rreturns here")
                .uri("http://example.org/turing"),
        );
        c.push_entity(KbId(1), EntityBuilder::new().attr("label", "A. M. Turing"));
        c.push_entity(KbId(1), EntityBuilder::new()); // empty description
        c
    }

    #[test]
    fn collection_round_trip() {
        let c = sample();
        let mut buf = Vec::new();
        write_collection(&mut buf, &c).unwrap();
        let back = read_collection(&mut buf.as_slice()).unwrap();
        assert_eq!(back.mode(), c.mode());
        assert_eq!(back.len(), c.len());
        for (a, b) in c.iter().zip(back.iter()) {
            assert_eq!(a.kb(), b.kb());
            assert_eq!(a.uri(), b.uri());
            assert_eq!(a.attributes(), b.attributes());
        }
    }

    #[test]
    fn truth_round_trip() {
        let t = GroundTruth::from_pairs(vec![
            Pair::new(EntityId(0), EntityId(1)),
            Pair::new(EntityId(1), EntityId(2)),
        ]);
        let mut buf = Vec::new();
        write_truth(&mut buf, &t).unwrap();
        let back = read_truth(&mut buf.as_slice()).unwrap();
        assert_eq!(back.len(), t.len());
        assert!(
            back.contains(Pair::new(EntityId(0), EntityId(2))),
            "closure preserved"
        );
    }

    #[test]
    fn bad_header_rejected() {
        let mut input = "not a header\n".as_bytes();
        assert!(matches!(
            read_collection(&mut input),
            Err(ParseError::Syntax { line: 1, .. })
        ));
        let mut input2 = "nope\n".as_bytes();
        assert!(read_truth(&mut input2).is_err());
    }

    #[test]
    fn attr_before_entity_rejected() {
        let mut input = "#webscale-er collection v1\nmode dirty\nattr a\tb\n".as_bytes();
        match read_collection(&mut input) {
            Err(ParseError::Syntax { line, message }) => {
                assert_eq!(line, 3);
                assert!(message.contains("before any entity"));
            }
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn bad_escape_rejected() {
        let mut input =
            "#webscale-er collection v1\nmode dirty\nentity 0\nattr a\tbad\\q\n".as_bytes();
        assert!(read_collection(&mut input).is_err());
    }

    #[test]
    fn escaping_round_trips() {
        for key in [
            "plain",
            "tab\there",
            "multi\nline",
            "back\\slash",
            "",
            "\r",
            "ünï\tcödé\\",
        ] {
            assert_eq!(unescape(&escape(key), 1).unwrap(), key);
        }
        assert!(unescape("dangling\\", 1).is_err());
        assert!(unescape("bad\\q", 1).is_err());
    }

    #[test]
    fn self_match_rejected() {
        let mut input = "#webscale-er truth v1\nmatch 3 3\n".as_bytes();
        assert!(read_truth(&mut input).is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let mut input =
            "#webscale-er collection v1\nmode dirty\n\n# a comment\nentity 0\nattr n\tv\n"
                .as_bytes();
        let c = read_collection(&mut input).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.entity(EntityId(0)).value_of("n"), Some("v"));
    }

    #[test]
    fn generated_dataset_round_trips() {
        // Escaping must survive arbitrary generated content.
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for i in 0..50 {
            c.push_entity(
                KbId(0),
                EntityBuilder::new().attr(format!("a{i}"), format!("v{i}\t\\\n x")),
            );
        }
        let mut buf = Vec::new();
        write_collection(&mut buf, &c).unwrap();
        let back = read_collection(&mut buf.as_slice()).unwrap();
        for (a, b) in c.iter().zip(back.iter()) {
            assert_eq!(a.attributes(), b.attributes());
        }
    }
}
