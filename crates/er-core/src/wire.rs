//! The one bounded binary field codec under every durable or on-wire record:
//! worker-protocol frames, distributed task payloads, shuffle rows, stage
//! checkpoints and the [`colstore`](crate::colstore) segment envelope.
//!
//! Fields are fixed-width little-endian integers, or byte / UTF-8 strings
//! behind a `u32` little-endian length. Decoding is total: every read is
//! checked against the bytes left, a failed read is a typed [`WireError`]
//! naming the byte offset where it failed, strings are borrowed (never an
//! allocation sized by untrusted input), and [`Decoder::finish`] rejects
//! trailing bytes.

use std::fmt;

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `bytes` behind a `u32` length.
///
/// # Panics
/// If `bytes` holds 4 GiB or more; no record of this workspace comes near
/// that (frames are capped far below it).
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    let len = u32::try_from(bytes.len()).expect("wire field under 4 GiB");
    put_u32(out, len);
    out.extend_from_slice(bytes);
}

/// Appends a UTF-8 string behind a `u32` length.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// A failed decode: the byte offset where it failed, and what failed there.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Offset of the field that failed, or of the first trailing byte.
    pub offset: u64,
    /// What failed.
    pub kind: WireErrorKind,
}

/// What a [`WireError`] found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireErrorKind {
    /// The field needs this many bytes (a string's include its length);
    /// fewer were left.
    Truncated(u64),
    /// The field decoded to a value its record rejects, or bytes remain
    /// after the record's last field.
    Invalid(String),
}

impl WireError {
    /// A [`WireErrorKind::Invalid`] error for the field read from `offset`.
    pub fn invalid(offset: u64, reason: impl Into<String>) -> WireError {
        let kind = WireErrorKind::Invalid(reason.into());
        WireError { offset, kind }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = self.offset;
        match &self.kind {
            WireErrorKind::Truncated(n) => write!(f, "truncated at byte {at}: a {n}-byte field"),
            WireErrorKind::Invalid(reason) => write!(f, "at byte {at}: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A bounded reader over one encoded record, borrowing from its input.
#[derive(Clone, Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> Decoder<'a> {
    /// A decoder over `bytes`; error offsets count from its first byte.
    pub fn new(bytes: &'a [u8]) -> Decoder<'a> {
        Decoder::at(bytes, 0)
    }

    /// A decoder over `bytes` found at offset `base` of a larger input (a
    /// file), so error offsets name positions in that input.
    pub fn at(bytes: &'a [u8], base: u64) -> Decoder<'a> {
        Decoder {
            bytes,
            pos: 0,
            base,
        }
    }

    /// Offset of the next unread byte.
    pub fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Whether every byte has been read.
    pub fn is_empty(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Takes the next `n` bytes of a field that began `back` bytes ago.
    #[inline]
    fn take(&mut self, n: usize, back: usize) -> Result<&'a [u8], WireError> {
        if self.bytes.len() - self.pos < n {
            let kind = WireErrorKind::Truncated((back + n) as u64);
            let offset = self.offset() - back as u64;
            return Err(WireError { offset, kind });
        }
        self.pos += n;
        Ok(&self.bytes[self.pos - n..self.pos])
    }

    /// Reads `N` raw bytes.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N, 0)?);
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        self.array().map(u8::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `u64` index or count that must fit a `usize`.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        let at = self.offset();
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::invalid(at, format!("{v} does not fit usize")))
    }

    /// Reads a `u32`-length-prefixed byte string, borrowed from the input; a
    /// length past the bytes left is truncation at the length field.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()?;
        self.take(len as usize, 4)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string, borrowed from the input.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let at = self.offset();
        std::str::from_utf8(self.bytes()?).map_err(|_| WireError::invalid(at, "not UTF-8"))
    }

    /// Ends the record: an error at the first unread byte if any is left.
    pub fn finish(&self) -> Result<(), WireError> {
        let trailing = || WireError::invalid(self.offset(), "trailing bytes");
        self.is_empty().then_some(()).ok_or_else(trailing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut out = Vec::new();
        out.push(7);
        put_u32(&mut out, 0xdead_beef);
        put_u64(&mut out, u64::MAX - 1);
        put_str(&mut out, "tab\tnew\nline ünï");
        put_bytes(&mut out, &[0, 0xff, b'\\']);
        put_str(&mut out, "");
        out
    }

    #[test]
    fn fields_round_trip_and_borrow_from_the_input() {
        let bytes = sample();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        let s = d.str().unwrap();
        assert_eq!(s, "tab\tnew\nline ünï");
        assert!(std::ptr::eq(s.as_bytes(), &bytes[17..17 + s.len()]));
        assert_eq!(d.bytes().unwrap(), &[0, 0xff, b'\\']);
        assert_eq!(d.str().unwrap(), "");
        assert!(d.is_empty());
        d.finish().unwrap();
    }

    #[test]
    fn every_cut_and_every_appended_byte_is_a_typed_error() {
        let bytes = sample();
        let read_all = |b: &[u8]| -> Result<(), WireError> {
            let mut d = Decoder::at(b, 100);
            d.u8()?;
            d.u32()?;
            d.u64()?;
            d.str()?;
            d.bytes()?;
            d.str()?;
            d.finish()
        };
        for cut in 0..bytes.len() {
            let err = read_all(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err.kind, WireErrorKind::Truncated(_)),
                "cut {cut}: {err}"
            );
            assert!(err.offset >= 100 && err.offset <= 100 + cut as u64, "{err}");
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(
            read_all(&longer).unwrap_err(),
            WireError::invalid(100 + bytes.len() as u64, "trailing bytes")
        );
    }

    #[test]
    fn oversized_lengths_and_bad_utf8_are_typed_at_their_field() {
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX);
        out.extend_from_slice(b"abc");
        let err = Decoder::at(&out, 8).bytes().unwrap_err();
        assert_eq!(
            err,
            WireError {
                offset: 8,
                kind: WireErrorKind::Truncated(4 + u64::from(u32::MAX))
            }
        );
        let mut out = Vec::new();
        put_bytes(&mut out, &[b'a', 0xff]);
        assert_eq!(
            Decoder::new(&out).str().unwrap_err(),
            WireError::invalid(0, "not UTF-8")
        );
        let mut d = Decoder::new(&[0xff; 8]);
        match d.usize() {
            Ok(v) => assert_eq!(v, usize::MAX),
            Err(e) => assert!(matches!(e.kind, WireErrorKind::Invalid(_)), "{e}"),
        }
    }
}
