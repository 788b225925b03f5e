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
/// Every key lives once, in one `String` arena; symbol `i` is the arena
/// slice `ends[i - 1] .. ends[i]`. The reverse lookup is an open-addressed
/// table of `(fnv_hash, id + 1)` slots, the hash's low 32 bits, probed
/// linearly from `hash & mask` (`id + 1 == 0` marks an empty slot); a probe
/// compares the stored hash before it touches the arena.
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
    /// Every interned string, back to back in symbol order.
    arena: String,
    /// `ends[i]` is the arena offset one past symbol `i`'s text.
    ends: Vec<u32>,
    /// Open-addressed lookup: `(low 32 hash bits, id + 1)`, a power-of-two
    /// length kept at most half full; `id + 1 == 0` is an empty slot.
    table: Vec<(u32, u32)>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, copying it into the arena only on first sight.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.intern_hashed(s, Fnv1a::hash(s.as_bytes()))
    }

    /// [`intern`](Interner::intern) with `hash == Fnv1a::hash(s)` already
    /// computed by the caller.
    pub(crate) fn intern_hashed(&mut self, s: &str, hash: u64) -> Symbol {
        if 2 * (self.ends.len() + 1) > self.table.len() {
            self.grow();
        }
        let slot = match self.find(s, hash as u32) {
            Ok(sym) => return sym,
            Err(slot) => slot,
        };
        let id = self.ends.len() as u32;
        self.arena.push_str(s);
        let end = u32::try_from(self.arena.len())
            .ok()
            .filter(|_| id < u32::MAX);
        self.ends
            .push(end.expect("interner overflow: > u32::MAX symbols or arena bytes"));
        self.table[slot] = (hash as u32, id + 1);
        Symbol(id)
    }

    /// Probes the (non-empty) table for `s`, whose hash has low bits
    /// `hash`: its symbol, or the empty slot where it would go.
    fn find(&self, s: &str, hash: u32) -> Result<Symbol, usize> {
        let mask = self.table.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let (h, id1) = self.table[slot];
            if id1 == 0 {
                return Err(slot);
            }
            if h == hash && self.text(id1 as usize - 1) == s {
                return Ok(Symbol(id1 - 1));
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the table (16 slots at first) and re-seats every entry by
    /// its stored hash bits.
    fn grow(&mut self) {
        let capacity = (2 * self.table.len()).max(16);
        let old = std::mem::replace(&mut self.table, vec![(0, 0); capacity]);
        let mask = capacity - 1;
        for entry in old.into_iter().filter(|&(_, id1)| id1 != 0) {
            let mut slot = entry.0 as usize & mask;
            while self.table[slot].1 != 0 {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = entry;
        }
    }

    /// The symbol of an already-interned string, without interning it —
    /// lookups against a shared index must not mint new ids.
    pub fn lookup(&self, s: &str) -> Option<Symbol> {
        if self.table.is_empty() {
            return None;
        }
        self.find(s, Fnv1a::hash(s.as_bytes()) as u32).ok()
    }

    /// The arena slice of symbol id `id`.
    fn text(&self, id: usize) -> &str {
        let start = if id == 0 {
            0
        } else {
            self.ends[id - 1] as usize
        };
        &self.arena[start..self.ends[id] as usize]
    }

    /// The text of a symbol produced by this interner.
    ///
    /// # Panics
    /// Panics if `sym` came from a different interner (out of range).
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.text(sym.index())
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Every interned string, in symbol order.
    pub(crate) fn strings(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len()).map(|id| self.text(id))
    }

    /// Consumes the interner, yielding its strings in symbol order
    /// (`strings[sym.index()]` is the text of `sym`).
    pub fn into_strings(self) -> Vec<String> {
        self.strings().map(str::to_string).collect()
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
    fn many_keys_survive_table_growth() {
        // 120k distinct keys, the empty one first: the table doubles from
        // 16 slots to 256k, re-seating every entry each time.
        let keys: Vec<String> = (0..120_000).map(|n| format!("k{n:x}")).collect();
        let mut i = Interner::new();
        assert_eq!(i.lookup(""), None, "empty interner");
        assert_eq!(i.intern(""), Symbol(0));
        for (n, key) in keys.iter().enumerate() {
            assert_eq!(i.intern(key), Symbol(n as u32 + 1));
        }
        assert_eq!(i.len(), keys.len() + 1);
        for (n, key) in keys.iter().enumerate().step_by(97) {
            assert_eq!(
                i.intern(key),
                Symbol(n as u32 + 1),
                "re-intern after growth"
            );
            assert_eq!(i.lookup(key), Some(Symbol(n as u32 + 1)));
        }
        assert_eq!(i.lookup(""), Some(Symbol(0)));
        assert_eq!(i.resolve(Symbol(0)), "");

        // `lookup` never mints an id.
        for missing in ["k", "k1ffff", "absent", "k0 "] {
            assert_eq!(i.lookup(missing), None, "{missing:?}");
        }
        assert_eq!(i.len(), keys.len() + 1);

        let strings = i.into_strings();
        assert_eq!(strings[0], "");
        assert_eq!(
            &strings[1..],
            keys.as_slice(),
            "into_strings is symbol order"
        );
    }
}
