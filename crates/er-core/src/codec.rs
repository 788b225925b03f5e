//! Fingerprinted line-file codec shared by durable artifacts.
//!
//! The pipeline's stage checkpoints (PR 2) established a defensive on-disk
//! format: a magic/version header binding the file to one producer
//! configuration via a fingerprint, one record per line, an explicit footer
//! that detects truncation, and atomic temp-file + rename writes so a crash
//! can never leave a half-written file under the final name. This module
//! extracts that format so every durable artifact — stage checkpoints,
//! shuffle spill files — speaks the same dialect and inherits the same
//! validation ladder.
//!
//! Reading is total: every malformed input (missing file aside) yields a
//! typed `Err(reason)`, never a panic — the property suite fuzzes this
//! parser with truncated and mutated byte streams.

use std::borrow::Cow;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The truncation-detecting last line of every file.
pub const FOOTER: &str = "end";

/// A line-file dialect: magic word, format version, and the producer
/// fingerprint every file must carry to be accepted.
#[derive(Clone, Copy, Debug)]
pub struct LineCodec {
    /// Magic word opening the header (e.g. `er-checkpoint`).
    pub magic: &'static str,
    /// Format version token (e.g. `v1`).
    pub version: &'static str,
    /// Producer fingerprint; a file written under a different fingerprint
    /// (different dataset, configuration, or job) is rejected on read.
    pub fingerprint: u64,
}

impl LineCodec {
    /// A codec for the given dialect and fingerprint.
    pub fn new(magic: &'static str, version: &'static str, fingerprint: u64) -> LineCodec {
        LineCodec {
            magic,
            version,
            fingerprint,
        }
    }

    fn tmp_path(path: &Path) -> PathBuf {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(".tmp");
        path.with_file_name(name)
    }

    /// Writes `lines` to `path` atomically (temp file + rename) under a
    /// fingerprinted header and the truncation-detecting [`FOOTER`]; an item
    /// may hold several `\n`-joined lines. `extra` is appended verbatim to
    /// the header line (lead with a space).
    pub fn write_atomic(
        &self,
        path: &Path,
        stage: &str,
        extra: &str,
        lines: impl IntoIterator<Item = impl AsRef<str>>,
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let tmp = Self::tmp_path(path);
        {
            let mut w = std::io::BufWriter::new(fs::File::create(&tmp)?);
            writeln!(
                w,
                "{} {} stage={stage} fingerprint={:016x}{extra}",
                self.magic, self.version, self.fingerprint
            )?;
            for line in lines {
                writeln!(w, "{}", line.as_ref())?;
            }
            writeln!(w, "{FOOTER}")?;
            w.flush()?;
        }
        fs::rename(&tmp, path)
    }

    /// Reads a file written by [`write_atomic`](LineCodec::write_atomic)
    /// whole: `Ok(None)` when absent, `Err(reason)` when the magic, version,
    /// stage, fingerprint or footer is wrong, `Ok(Some(file))` otherwise.
    /// Never panics on malformed input, and every truncation or decode error
    /// names the byte offset where the defect begins.
    pub fn read(&self, path: &Path, stage: &str) -> Result<Option<LineFile>, String> {
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let mut text = String::from_utf8(bytes).map_err(|e| {
            // Name the line holding the first bad byte, unless the header
            // before it is wrong: a line-by-line read judges that first.
            let valid = &e.as_bytes()[..e.utf8_error().valid_up_to()];
            let at = valid.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            let head = std::str::from_utf8(&valid[..at]).unwrap_or_default();
            let bad_header = self.body_start(head, stage).err().filter(|_| at > 0);
            bad_header.unwrap_or_else(|| format!("read error at byte {at}: not valid UTF-8"))
        })?;
        let body_start = self.body_start(&text, stage)?;
        // The last line is the footer; the lines between it and the header
        // are the body.
        let rest = &text[body_start..];
        let last = rest.strip_suffix('\n').unwrap_or(rest);
        let at = body_start + last.rfind('\n').map_or(0, |i| i + 1);
        if text[at..].lines().next() != Some(FOOTER) {
            return Err(format!(
                "truncated {} (missing footer at byte {at})",
                self.magic
            ));
        }
        text.truncate(at);
        Ok(Some(LineFile { text, body_start }))
    }

    /// Validates the header line opening `text`; returns where the body
    /// begins.
    fn body_start(&self, text: &str, stage: &str) -> Result<usize, String> {
        let Some(header) = text.lines().next() else {
            return Err(format!("empty {} (at byte 0)", self.magic));
        };
        let mut fields = header.split(' ');
        if fields.next() != Some(self.magic) || fields.next() != Some(self.version) {
            return Err("bad magic/version (at byte 0)".to_string());
        }
        if fields.next() != Some(&format!("stage={stage}")[..]) {
            return Err("wrong stage (at byte 0)".to_string());
        }
        match fields.next().and_then(|f| f.strip_prefix("fingerprint=")) {
            Some(hex) => {
                let got = u64::from_str_radix(hex, 16)
                    .map_err(|_| "bad fingerprint (at byte 0)".to_string())?;
                if got != self.fingerprint {
                    return Err(
                        "fingerprint mismatch (different collection or configuration)".to_string(),
                    );
                }
            }
            None => return Err("missing fingerprint (at byte 0)".to_string()),
        }
        Ok(text.find('\n').map_or(text.len(), |i| i + 1))
    }
}

/// A file [`LineCodec::read`] accepted: its text up to the footer, with the
/// header and the body lines borrowed from it.
#[derive(Debug, PartialEq, Eq)]
pub struct LineFile {
    text: String,
    body_start: usize,
}

impl LineFile {
    /// The header line.
    pub fn header(&self) -> &str {
        self.text.lines().next().unwrap_or_default()
    }

    /// The body lines, in file order.
    pub fn lines(&self) -> std::str::Lines<'_> {
        self.text[self.body_start..].lines()
    }
}

/// Extracts a `name=<u64>` field from a header line.
pub fn header_field(header: &str, name: &str) -> Result<u64, String> {
    for field in header.split(' ') {
        if let Some(v) = field.strip_prefix(&format!("{name}=")[..]) {
            return v.parse().map_err(|e| format!("bad {name} field: {e}"));
        }
    }
    Err(format!("missing {name} field"))
}

/// Escapes a string for the one-record-per-line format (backslash, tab,
/// newline, carriage return).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// [`escape`], appending to `out`.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
}

/// Inverse of [`escape`]; a dangling or unknown escape is a typed error.
/// Borrows `s` when it holds no escape.
pub fn unescape(s: &str) -> Result<Cow<'_, str>, String> {
    if !s.contains('\\') {
        return Ok(Cow::Borrowed(s));
    }
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
            other => return Err(format!("bad escape: \\{other:?}")),
        }
    }
    Ok(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_file(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "er-codec-test-{}-{tag}-{n}.txt",
            std::process::id()
        ))
    }

    fn codec() -> LineCodec {
        LineCodec::new("er-test", "v1", 0xdead_beef)
    }

    #[test]
    fn round_trips_header_and_body() {
        let path = tmp_file("roundtrip");
        let c = codec();
        c.write_atomic(
            &path,
            "shuffle",
            " part=3",
            ["a\t1".to_string(), "b\t2".to_string()],
        )
        .unwrap();
        let file = c.read(&path, "shuffle").unwrap().unwrap();
        assert_eq!(header_field(file.header(), "part").unwrap(), 3);
        assert_eq!(file.lines().collect::<Vec<_>>(), vec!["a\t1", "b\t2"]);
        assert!(
            !LineCodec::tmp_path(&path).exists(),
            "tmp file must be renamed away"
        );
        // One item holding `\n`-joined lines writes the same bytes.
        let bytes = fs::read(&path).unwrap();
        c.write_atomic(&path, "shuffle", " part=3", ["a\t1\nb\t2"])
            .unwrap();
        assert_eq!(fs::read(&path).unwrap(), bytes);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn reader_names_the_offset_of_each_defect() {
        let path = tmp_file("offsets");
        let c = codec();
        let header = "er-test v1 stage=s fingerprint=00000000deadbeef";
        let at = header.len() + 1;
        // CRLF line ends are accepted, a footer without a final newline too.
        fs::write(&path, format!("{header}\r\nx\r\n\r\nend")).unwrap();
        let file = c.read(&path, "s").unwrap().unwrap();
        assert_eq!(file.header(), header);
        assert_eq!(file.lines().collect::<Vec<_>>(), vec!["x", ""]);
        // A missing footer is reported at the start of the last line.
        fs::write(&path, format!("{header}\nx\ny\n")).unwrap();
        let err = c.read(&path, "s").unwrap_err();
        assert!(err.contains(&format!("at byte {}", at + 2)), "{err}");
        fs::write(&path, header).unwrap();
        let err = c.read(&path, "s").unwrap_err();
        assert!(err.contains(&format!("at byte {}", header.len())), "{err}");
        // Bad UTF-8 names its line; a bad header outranks it.
        let mut bytes = format!("{header}\nx\n").into_bytes();
        bytes.extend_from_slice(b"\xff\nend\n");
        fs::write(&path, &bytes).unwrap();
        let err = c.read(&path, "s").unwrap_err();
        assert!(
            err.contains(&format!("read error at byte {}", at + 2)),
            "{err}"
        );
        assert!(c.read(&path, "t").unwrap_err().contains("wrong stage"));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn absent_file_reads_as_none() {
        assert_eq!(codec().read(&tmp_file("absent"), "s").unwrap(), None);
    }

    #[test]
    fn validation_ladder_rejects_each_defect() {
        let path = tmp_file("ladder");
        let c = codec();
        c.write_atomic(&path, "shuffle", "", std::iter::once("x".to_string()))
            .unwrap();
        let good = fs::read_to_string(&path).unwrap();

        // Truncation: chop the footer.
        fs::write(&path, &good[..good.len() - FOOTER.len() - 1]).unwrap();
        assert!(c.read(&path, "shuffle").unwrap_err().contains("truncated"));

        // Wrong stage.
        fs::write(&path, &good).unwrap();
        assert!(c.read(&path, "other").unwrap_err().contains("stage"));

        // Wrong fingerprint.
        let other = LineCodec::new("er-test", "v1", 1);
        assert!(other
            .read(&path, "shuffle")
            .unwrap_err()
            .contains("fingerprint"));

        // Wrong magic/version.
        let wrong = LineCodec::new("er-test", "v2", 0xdead_beef);
        assert!(wrong.read(&path, "shuffle").unwrap_err().contains("magic"));

        // Empty file.
        fs::write(&path, "").unwrap();
        assert!(c.read(&path, "shuffle").unwrap_err().contains("empty"));
        let _ = fs::remove_file(&path);
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
            assert_eq!(unescape(&escape(key)).unwrap(), key);
        }
        assert!(matches!(unescape("plain"), Ok(Cow::Borrowed("plain"))));
        assert!(unescape("dangling\\").is_err());
        assert!(unescape("bad\\q").is_err());
    }

    #[test]
    fn header_field_errors_are_typed() {
        assert!(header_field("h v1 stage=s", "blocked")
            .unwrap_err()
            .contains("missing"));
        assert!(header_field("h blocked=xyz", "blocked")
            .unwrap_err()
            .contains("bad"));
    }
}
