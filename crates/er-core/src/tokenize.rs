//! Value normalization and tokenization.
//!
//! Every blocking method surveyed in §II of the tutorial starts from tokens
//! of attribute values: token blocking keys blocks on single tokens,
//! similarity joins build prefix indexes over token sets, sorted neighborhood
//! sorts on token-derived keys, q-grams blocking keys on character n-grams.
//! Centralizing normalization here guarantees all of them see the same view
//! of the data.

use crate::intern::{Interner, Symbol};

/// The default stopword table: articles/prepositions that would create
/// enormous, useless blocks. Kept **sorted** so membership checks are a
/// binary search (a unit test guards the ordering).
pub static DEFAULT_STOPWORDS: &[&str] =
    &["a", "an", "and", "at", "in", "of", "on", "or", "the", "to"];

/// Lower-cases a string and replaces every non-alphanumeric character with a
/// space, collapsing runs of whitespace.
///
/// ```
/// assert_eq!(er_core::tokenize::normalize("  Alan—Turing!! (1912)"), "alan turing 1912");
/// ```
pub fn normalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    normalize_into(s, &mut out);
    out
}

/// [`normalize`] into a caller-supplied buffer (cleared first) — the
/// allocation-free variant the interned tokenization path reuses across
/// values.
///
/// An ASCII value takes a byte path: on ASCII, `is_ascii_alphanumeric` and
/// `to_ascii_lowercase` are exactly `char::is_alphanumeric` and
/// `char::to_lowercase`, so both paths normalize it identically.
pub fn normalize_into(s: &str, out: &mut String) {
    out.clear();
    if s.is_ascii() {
        let bytes = s.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if !bytes[i].is_ascii_alphanumeric() {
                i += 1;
                continue;
            }
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_alphanumeric() {
                i += 1;
            }
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&s[start..i]);
        }
        out.make_ascii_lowercase();
        return;
    }
    let mut last_space = true;
    for c in s.chars() {
        if c.is_alphanumeric() {
            for lc in c.to_lowercase() {
                out.push(lc);
            }
            last_space = false;
        } else if !last_space {
            out.push(' ');
            last_space = true;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
}

/// Stopword table: either the static sorted default (shared, zero-alloc,
/// binary-searched) or a caller-supplied owned list (sorted at construction
/// so lookup is a binary search either way).
#[derive(Clone, Debug)]
enum Stopwords {
    Static(&'static [&'static str]),
    Owned(Vec<String>),
}

impl Stopwords {
    fn contains(&self, t: &str) -> bool {
        match self {
            Stopwords::Static(words) => words.binary_search(&t).is_ok(),
            Stopwords::Owned(words) => words.binary_search_by(|w| w.as_str().cmp(t)).is_ok(),
        }
    }
}

/// Configurable word tokenizer with optional stopword removal and minimum
/// token length.
#[derive(Clone, Debug)]
pub struct Tokenizer {
    min_len: usize,
    stopwords: Stopwords,
    /// Byte length of the longest stopword: a longer token is none.
    longest_stopword: usize,
}

/// Byte length of the longest of `words` (0 when there are none).
fn longest<S: AsRef<str>>(words: &[S]) -> usize {
    words.iter().map(|w| w.as_ref().len()).max().unwrap_or(0)
}

impl Default for Tokenizer {
    /// The default used throughout the workspace: tokens of length ≥ 1 and
    /// the shared [`DEFAULT_STOPWORDS`] table — no per-construction
    /// allocation.
    fn default() -> Self {
        Tokenizer {
            min_len: 1,
            stopwords: Stopwords::Static(DEFAULT_STOPWORDS),
            longest_stopword: longest(DEFAULT_STOPWORDS),
        }
    }
}

impl Tokenizer {
    /// A tokenizer with no stopwords and no length threshold.
    pub fn raw() -> Self {
        Tokenizer {
            min_len: 1,
            stopwords: Stopwords::Owned(Vec::new()),
            longest_stopword: 0,
        }
    }

    /// Sets the minimum kept token length.
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len.max(1);
        self
    }

    /// Replaces the stopword list. The list is sorted internally (membership
    /// is order-insensitive) so lookups stay binary searches.
    pub fn with_stopwords<I, S>(mut self, words: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut list: Vec<String> = words.into_iter().map(Into::into).collect();
        list.sort_unstable();
        list.dedup();
        self.longest_stopword = longest(&list);
        self.stopwords = Stopwords::Owned(list);
        self
    }

    /// Whether `token` passes the length and stopword filters. Tokens are
    /// never empty, and a token has no more chars than bytes: the char
    /// count is only walked when neither settles the length test.
    fn keeps(&self, token: &str) -> bool {
        let long_enough = self.min_len <= 1
            || (token.len() >= self.min_len && token.chars().count() >= self.min_len);
        long_enough && (token.len() > self.longest_stopword || !self.stopwords.contains(token))
    }

    /// Tokenizes a raw value: normalize, split on whitespace, drop stopwords
    /// and too-short tokens. Duplicates are preserved (callers wanting sets
    /// collect into one).
    pub fn tokens(&self, value: &str) -> Vec<String> {
        normalize(value)
            .split_whitespace()
            .filter(|t| self.keeps(t))
            .map(|t| t.to_string())
            .collect()
    }

    /// [`tokens`](Tokenizer::tokens) as interned symbols, appended to `out`
    /// — the compact-layout fast path. `scratch` is the reusable
    /// normalization buffer; neither tokens nor the normalized value are
    /// allocated per call (only first-sight strings enter the interner).
    ///
    /// Kept tokens and their order match `tokens()` exactly; `out` is *not*
    /// cleared, so per-entity token sets can append across attributes before
    /// sorting/deduping once.
    pub fn symbols_into(
        &self,
        value: &str,
        interner: &mut Interner,
        scratch: &mut String,
        out: &mut Vec<Symbol>,
    ) {
        self.for_each_token(value, scratch, |t| out.push(interner.intern(t)));
    }

    /// Calls `f` with every token [`tokens`](Tokenizer::tokens) keeps in
    /// `value`, in order, borrowed from `scratch` (the reusable
    /// normalization buffer) — nothing is allocated per token.
    ///
    /// A normalized value separates its tokens by single spaces, with none
    /// leading or trailing, so splitting it on `' '` is `split_whitespace`.
    pub fn for_each_token(&self, value: &str, scratch: &mut String, mut f: impl FnMut(&str)) {
        normalize_into(value, scratch);
        if scratch.is_empty() {
            return;
        }
        for t in scratch.split(' ') {
            if self.keeps(t) {
                f(t);
            }
        }
    }
}

/// Character q-grams of a normalized string, with `q-1` padding characters
/// (`#`) on each side, as used by q-grams blocking and q-gram similarity.
///
/// Returns the empty vector for an empty (post-normalization) string.
///
/// ```
/// let g = er_core::tokenize::qgrams("ab", 3);
/// assert_eq!(g, vec!["##a", "#ab", "ab#", "b##"]);
/// ```
pub fn qgrams(s: &str, q: usize) -> Vec<String> {
    assert!(q >= 1, "q must be at least 1");
    let norm = normalize(s);
    if norm.is_empty() {
        return Vec::new();
    }
    let padded: Vec<char> = std::iter::repeat_n('#', q - 1)
        .chain(norm.chars())
        .chain(std::iter::repeat_n('#', q - 1))
        .collect();
    if padded.len() < q {
        return vec![padded.iter().collect()];
    }
    padded.windows(q).map(|w| w.iter().collect()).collect()
}

/// All suffixes of a normalized, whitespace-stripped string with length at
/// least `min_len` — the keys of suffix-array blocking.
pub fn suffixes(s: &str, min_len: usize) -> Vec<String> {
    let compact: String = normalize(s)
        .chars()
        .filter(|c| !c.is_whitespace())
        .collect();
    let chars: Vec<char> = compact.chars().collect();
    if chars.len() < min_len {
        return Vec::new();
    }
    (0..=chars.len() - min_len)
        .map(|i| chars[i..].iter().collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_stopwords_are_sorted() {
        // Binary-search precondition for Stopwords::Static.
        assert!(
            DEFAULT_STOPWORDS.windows(2).all(|w| w[0] < w[1]),
            "DEFAULT_STOPWORDS must be strictly sorted"
        );
    }

    #[test]
    fn symbols_into_matches_tokens() {
        let t = Tokenizer::default().with_min_len(2);
        let mut interner = Interner::new();
        let mut scratch = String::new();
        let mut out = Vec::new();
        for value in ["The University of Crete", "ho ho ho", "", "a to of"] {
            out.clear();
            t.symbols_into(value, &mut interner, &mut scratch, &mut out);
            let resolved: Vec<&str> = out.iter().map(|&s| interner.resolve(s)).collect();
            assert_eq!(resolved, t.tokens(value), "value {value:?}");
        }
    }

    #[test]
    fn symbols_into_appends_across_values() {
        let t = Tokenizer::raw();
        let mut interner = Interner::new();
        let mut scratch = String::new();
        let mut out = Vec::new();
        t.symbols_into("alpha beta", &mut interner, &mut scratch, &mut out);
        t.symbols_into("beta gamma", &mut interner, &mut scratch, &mut out);
        let resolved: Vec<&str> = out.iter().map(|&s| interner.resolve(s)).collect();
        assert_eq!(resolved, vec!["alpha", "beta", "beta", "gamma"]);
        assert_eq!(interner.len(), 3);
    }

    #[test]
    fn custom_stopwords_binary_search_after_sort() {
        // Deliberately unsorted input: with_stopwords must sort internally.
        let t = Tokenizer::raw().with_stopwords(["zebra", "apple", "mango"]);
        assert_eq!(
            t.tokens("apple pie zebra mango juice"),
            vec!["pie", "juice"]
        );
    }

    #[test]
    fn normalize_strips_punctuation_and_case() {
        assert_eq!(normalize("Hello, World!"), "hello world");
        assert_eq!(normalize("a--b__c"), "a b c");
        assert_eq!(normalize(""), "");
        assert_eq!(normalize("***"), "");
    }

    #[test]
    fn normalize_handles_unicode() {
        assert_eq!(normalize("Müller-Straße"), "müller straße");
    }

    /// The normalizer's definition, one char at a time: lower-case every
    /// alphanumeric char, collapse every run of other chars into one space,
    /// trim.
    fn normalize_reference(s: &str) -> String {
        let mut out = String::new();
        let mut last_space = true;
        for c in s.chars() {
            if c.is_alphanumeric() {
                out.extend(c.to_lowercase());
                last_space = false;
            } else if !last_space {
                out.push(' ');
                last_space = true;
            }
        }
        out.trim_end().to_string()
    }

    #[test]
    fn normalize_pins_lowercasings_that_change_length() {
        assert_eq!(normalize("Straße"), "straße");
        assert_eq!(
            normalize("İstanbul"),
            "i\u{307}stanbul",
            "İ lowercases to two chars"
        );
        assert_eq!(
            normalize("ΣΊΣΥΦΟΣ"),
            "σίσυφοσ",
            "per-char lowercasing: no final sigma"
        );
        for s in ["Straße", "İstanbul", "ΣΊΣΥΦΟΣ"] {
            assert_eq!(normalize(s), normalize_reference(s));
        }
    }

    proptest::proptest! {
        /// ASCII text mixed with chars whose lowercasing is not ASCII's
        /// (`İ`, `ß`, `Σ`, `é`), a combining mark and a non-ASCII digit: the
        /// byte path (all-ASCII values) and the char path agree with the
        /// reference.
        #[test]
        fn normalize_into_matches_the_char_reference(
            values in proptest::collection::vec("[a-dA-D0-9 ,.İßΣé\u{301}٣]{0,12}", 1..6),
            ascii in "[a-zA-Z0-9 ,._-]{0,24}",
        ) {
            let mut out = String::from("stale");
            for v in values.iter().chain([&ascii]) {
                normalize_into(v, &mut out);
                proptest::prop_assert_eq!(&out, &normalize_reference(v), "{:?}", v);
            }
        }
    }

    #[test]
    fn default_tokenizer_drops_stopwords() {
        let t = Tokenizer::default();
        assert_eq!(
            t.tokens("The University of Crete"),
            vec!["university", "crete"]
        );
    }

    #[test]
    fn raw_tokenizer_keeps_everything() {
        let t = Tokenizer::raw();
        assert_eq!(t.tokens("the cat"), vec!["the", "cat"]);
    }

    #[test]
    fn min_len_filters_short_tokens() {
        let t = Tokenizer::raw().with_min_len(3);
        assert_eq!(t.tokens("a bb ccc dddd"), vec!["ccc", "dddd"]);
    }

    #[test]
    fn custom_stopwords() {
        let t = Tokenizer::raw().with_stopwords(["cat"]);
        assert_eq!(t.tokens("the cat sat"), vec!["the", "sat"]);
    }

    #[test]
    fn tokens_preserve_duplicates() {
        let t = Tokenizer::raw();
        assert_eq!(t.tokens("ho ho ho"), vec!["ho", "ho", "ho"]);
    }

    #[test]
    fn qgrams_basic() {
        assert_eq!(qgrams("abc", 2), vec!["#a", "ab", "bc", "c#"]);
    }

    #[test]
    fn qgrams_empty_and_unigram() {
        assert!(qgrams("", 3).is_empty());
        assert_eq!(qgrams("ab", 1), vec!["a", "b"]);
    }

    #[test]
    fn qgrams_count_is_len_plus_q_minus_one() {
        // With (q-1)-padding both sides, an n-char string yields n+q-1 grams.
        for q in 1..=4 {
            let g = qgrams("abcdef", q);
            assert_eq!(g.len(), 6 + q - 1, "q={q}");
        }
    }

    #[test]
    fn suffixes_basic() {
        assert_eq!(suffixes("abcd", 3), vec!["abcd", "bcd"]);
        assert!(suffixes("ab", 3).is_empty());
    }

    #[test]
    fn suffixes_ignore_whitespace() {
        assert_eq!(suffixes("a b", 2), vec!["ab"]);
    }
}
