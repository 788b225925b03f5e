//! String interning for the compact-layout fast paths.
//!
//! The hot kernels of the Fig. 1 pipeline — token blocking's inverted-index
//! construction above all — spend most of their time materializing and
//! comparing small token strings. Web-scale meta-blocking systems (Papadakis
//! et al.'s blocking survey, Gagliardelli et al.'s generalized supervised
//! meta-blocking) avoid that cost by mapping every distinct token to a dense
//! integer id once and running everything downstream on integers. This module
//! provides that mapping: an [`Interner`] owns each distinct string exactly
//! once and hands out copyable [`Symbol`] ids; posting lists, sort keys and
//! group-by passes then operate on `u32`s instead of heap strings.
//!
//! Determinism note: symbol ids depend on first-encounter order, so two
//! interners built from different traversals number the same token set
//! differently. The kernels therefore never let ids leak into output: key
//! rows renumber every symbol to its key's rank (see [`crate::profiles`]),
//! so the blocks transposed from them come out in *resolved-string* order —
//! a pure function of the key set, bit-identical to the string-keyed
//! reference paths.

use std::collections::HashMap;

/// Streaming 64-bit FNV-1a — the interner's hash, and the workspace's one
/// deterministic hash: segment checksums, collection / checkpoint / protocol
/// fingerprints and MinHash token hashes all feed this hasher through
/// [`std::hash::Hasher::write`]. Tokens are short, bounded, normalized
/// strings, so SipHash's HashDoS resistance buys nothing while its setup
/// cost dominates on 4–12-byte keys; FNV-1a is a multiply-xor per byte and
/// fully deterministic across runs.
#[derive(Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// FNV-1a of one byte string.
    pub fn hash(bytes: &[u8]) -> u64 {
        use std::hash::Hasher;
        let mut h = Fnv1a::default();
        h.write(bytes);
        h.finish()
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// Builds [`Fnv1a`] hashers for maps keyed by short program-made strings.
pub type FnvBuild = std::hash::BuildHasherDefault<Fnv1a>;

/// An interned string: a dense `u32` id valid for the [`Interner`] that
/// produced it.
///
/// `Symbol` ordering is *id* ordering (first-encounter order), not
/// lexicographic ordering of the underlying strings — callers that need
/// string order resolve first (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The id as a usable array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A string interner: owns each distinct string once, maps it to a dense
/// [`Symbol`].
///
/// ```
/// use er_core::intern::Interner;
/// let mut i = Interner::new();
/// let a = i.intern("turing");
/// let b = i.intern("hopper");
/// assert_eq!(i.intern("turing"), a, "re-interning is id-stable");
/// assert_ne!(a, b);
/// assert_eq!(i.resolve(a), "turing");
/// assert_eq!(i.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Interner {
    /// `strings[sym.index()]` is the interned text of `sym`.
    strings: Vec<String>,
    /// Reverse lookup; keys are clones of the owned strings. (A borrowed-key
    /// scheme would avoid the duplicate, but needs unsafe self-reference —
    /// the workspace forbids unsafe, and token strings are short.)
    lookup: HashMap<String, u32, FnvBuild>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, allocating only on first sight.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&id) = self.lookup.get(s) {
            return Symbol(id);
        }
        let id = u32::try_from(self.strings.len()).expect("interner overflow: > u32::MAX symbols");
        self.strings.push(s.to_string());
        self.lookup.insert(s.to_string(), id);
        Symbol(id)
    }

    /// The symbol of an already-interned string, without interning it —
    /// lookups against a shared index must not mint new ids.
    pub fn lookup(&self, s: &str) -> Option<Symbol> {
        self.lookup.get(s).map(|&id| Symbol(id))
    }

    /// The text of a symbol produced by this interner.
    ///
    /// # Panics
    /// Panics if `sym` came from a different interner (out of range).
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.index()]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Consumes the interner, yielding its strings in symbol order
    /// (`strings[sym.index()]` is the text of `sym`).
    pub fn into_strings(self) -> Vec<String> {
        self.strings
    }

    /// Estimated heap footprint: owned string payloads (twice — owned copy
    /// plus lookup key) plus table entries. Used by the layout experiment's
    /// memory columns.
    pub fn heap_bytes(&self) -> u64 {
        let payload: u64 = self.strings.iter().map(|s| s.len() as u64).sum();
        let entries = self.strings.len() as u64;
        // String header (24) per owned copy and per key, plus the u32 value
        // and map bucket overhead (~16) per entry.
        2 * payload + entries * (24 + 24 + 4 + 16)
    }

    /// Absorbs another interner built over a disjoint traversal (e.g. one
    /// chunk of a parallel scan), returning the remap table
    /// `table[other_sym.index()] == self_sym`.
    ///
    /// Strings already known keep their existing symbol; new strings are
    /// moved (not copied) in, numbered in `other`'s encounter order — so
    /// absorbing per-chunk interners in fixed chunk order yields ids
    /// independent of how many threads produced the chunks.
    pub fn absorb(&mut self, other: Interner) -> Vec<Symbol> {
        let mut table = Vec::with_capacity(other.strings.len());
        for s in other.strings {
            match self.lookup.get(&s) {
                Some(&id) => table.push(Symbol(id)),
                None => {
                    let id = u32::try_from(self.strings.len())
                        .expect("interner overflow: > u32::MAX symbols");
                    self.lookup.insert(s.clone(), id);
                    self.strings.push(s);
                    table.push(Symbol(id));
                }
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut i = Interner::new();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        let a2 = i.intern("alpha");
        assert_eq!(a, a2);
        assert_eq!(a, Symbol(0));
        assert_eq!(b, Symbol(1));
        assert_eq!(i.len(), 2);
        assert!(!i.is_empty());
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let words = ["the", "quick", "brown", "fox", "the"];
        let syms: Vec<Symbol> = words.iter().map(|w| i.intern(w)).collect();
        for (w, s) in words.iter().zip(&syms) {
            assert_eq!(i.resolve(*s), *w);
        }
        assert_eq!(i.len(), 4, "duplicate interned once");
    }

    #[test]
    fn absorb_remaps_and_moves_new_strings() {
        let mut global = Interner::new();
        let g_shared = global.intern("shared");
        let mut local = Interner::new();
        let l_new = local.intern("fresh");
        let l_shared = local.intern("shared");
        let table = global.absorb(local);
        assert_eq!(table.len(), 2);
        assert_eq!(table[l_shared.index()], g_shared);
        let g_new = table[l_new.index()];
        assert_eq!(global.resolve(g_new), "fresh");
        assert_eq!(global.len(), 2);
    }

    #[test]
    fn absorb_in_chunk_order_is_thread_count_independent() {
        // Simulates the parallel blocking merge: chunks interned separately,
        // absorbed left-to-right, must equal the serial single-interner ids.
        let chunks = [vec!["a", "b"], vec!["b", "c"], vec!["d", "a"]];
        let mut serial = Interner::new();
        for c in &chunks {
            for w in c {
                serial.intern(w);
            }
        }
        let mut merged = Interner::new();
        for c in &chunks {
            let mut local = Interner::new();
            for w in c {
                local.intern(w);
            }
            merged.absorb(local);
        }
        assert_eq!(merged.len(), serial.len());
        for id in 0..serial.len() {
            assert_eq!(
                merged.resolve(Symbol(id as u32)),
                serial.resolve(Symbol(id as u32))
            );
        }
    }

    #[test]
    fn heap_bytes_grows_with_content() {
        let mut i = Interner::new();
        let empty = i.heap_bytes();
        i.intern("some token");
        assert!(i.heap_bytes() > empty);
    }
}
