//! Similarity functions over strings and token sets.
//!
//! The ER literature the tutorial surveys uses two families of similarity:
//! **set-based** measures over tokens or q-grams (Jaccard, Dice, overlap,
//! cosine, TF-IDF-weighted cosine) — these drive token blocking, similarity
//! joins and meta-blocking weights — and **edit-based** measures over raw
//! strings (Levenshtein, Jaro, Jaro–Winkler, Monge–Elkan) used by matchers.
//! All functions return values in `[0, 1]`, are symmetric, and score
//! identical non-empty inputs as `1`.

use crate::profiles::TokenProfiles;
use std::collections::{BTreeSet, HashMap};

// ---------------------------------------------------------------------------
// Set-based measures
// ---------------------------------------------------------------------------

/// Size of the intersection of two ordered token sets.
pub fn overlap_size<T: Ord>(a: &BTreeSet<T>, b: &BTreeSet<T>) -> usize {
    if a.len() > b.len() {
        return overlap_size(b, a);
    }
    a.iter().filter(|t| b.contains(t)).count()
}

/// Jaccard coefficient `|A∩B| / |A∪B|`. Two empty sets score 0 (no shared
/// evidence is treated as no similarity, the convention of the blocking
/// literature).
pub fn jaccard<T: Ord>(a: &BTreeSet<T>, b: &BTreeSet<T>) -> f64 {
    SetMeasure::Jaccard.score(a.len(), b.len(), overlap_size(a, b))
}

/// Dice coefficient `2|A∩B| / (|A| + |B|)`.
pub fn dice<T: Ord>(a: &BTreeSet<T>, b: &BTreeSet<T>) -> f64 {
    SetMeasure::Dice.score(a.len(), b.len(), overlap_size(a, b))
}

/// Overlap coefficient `|A∩B| / min(|A|, |B|)`.
pub fn overlap_coefficient<T: Ord>(a: &BTreeSet<T>, b: &BTreeSet<T>) -> f64 {
    SetMeasure::Overlap.score(a.len(), b.len(), overlap_size(a, b))
}

/// Unweighted set cosine `|A∩B| / sqrt(|A|·|B|)`.
pub fn cosine<T: Ord>(a: &BTreeSet<T>, b: &BTreeSet<T>) -> f64 {
    SetMeasure::Cosine.score(a.len(), b.len(), overlap_size(a, b))
}

// ---------------------------------------------------------------------------
// Edit-based measures
// ---------------------------------------------------------------------------

/// Levenshtein (edit) distance between two strings, in unicode scalar values.
pub fn levenshtein_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Single-row dynamic program.
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            let next = (prev_diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev_diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

/// Levenshtein similarity `1 − dist / max(|a|, |b|)`; two empty strings score 1.
pub fn levenshtein(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein_distance(a, b) as f64 / max_len as f64
}

/// Jaro similarity.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut matches_a = Vec::new();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == ca {
                b_used[j] = true;
                matches_a.push(ca);
                break;
            }
        }
    }
    let m = matches_a.len();
    if m == 0 {
        return 0.0;
    }
    let matches_b: Vec<char> = b
        .iter()
        .zip(b_used.iter())
        .filter(|(_, &u)| u)
        .map(|(&c, _)| c)
        .collect();
    let transpositions = matches_a
        .iter()
        .zip(matches_b.iter())
        .filter(|(x, y)| x != y)
        .count()
        / 2;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro–Winkler similarity with the standard scaling factor `p = 0.1` and a
/// common-prefix cap of 4.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// Monge–Elkan similarity: mean over tokens of `a` of the best
/// [`jaro_winkler`] score against tokens of `b`. Asymmetric by definition;
/// [`monge_elkan_sym`] symmetrizes it.
pub fn monge_elkan(a_tokens: &[String], b_tokens: &[String]) -> f64 {
    if a_tokens.is_empty() || b_tokens.is_empty() {
        return 0.0;
    }
    let total: f64 = a_tokens
        .iter()
        .map(|ta| {
            b_tokens
                .iter()
                .map(|tb| jaro_winkler(ta, tb))
                .fold(0.0_f64, f64::max)
        })
        .sum();
    total / a_tokens.len() as f64
}

/// Symmetric Monge–Elkan: the mean of both directions.
pub fn monge_elkan_sym(a_tokens: &[String], b_tokens: &[String]) -> f64 {
    (monge_elkan(a_tokens, b_tokens) + monge_elkan(b_tokens, a_tokens)) / 2.0
}

// ---------------------------------------------------------------------------
// Corpus-weighted cosine (TF-IDF)
// ---------------------------------------------------------------------------

/// Document-frequency statistics over a corpus of token sets, supporting
/// TF-IDF-weighted cosine similarity — the weighting the similarity-join
/// literature (\[5\], \[28\]) and matcher implementations rely on to discount
/// ubiquitous tokens.
#[derive(Clone, Debug, Default)]
pub struct CorpusStats {
    doc_count: usize,
    doc_freq: HashMap<String, usize>,
}

impl CorpusStats {
    /// Builds statistics from an iterator of documents (token sets).
    pub fn from_documents<'a, I>(docs: I) -> Self
    where
        I: IntoIterator<Item = &'a BTreeSet<String>>,
    {
        let mut stats = CorpusStats::default();
        for doc in docs {
            stats.add_document(doc);
        }
        stats
    }

    /// Builds statistics with one document per profiled entity — equal to
    /// [`from_documents`](CorpusStats::from_documents) over the entities'
    /// token sets, without materializing them.
    pub fn from_profiles(profiles: &TokenProfiles) -> Self {
        let mut freq = vec![0usize; profiles.vocabulary().len()];
        for s in profiles.iter().flatten() {
            freq[s.index()] += 1;
        }
        CorpusStats {
            doc_count: profiles.len(),
            doc_freq: profiles.vocabulary().iter().cloned().zip(freq).collect(),
        }
    }

    /// Adds one document's token set.
    pub fn add_document(&mut self, tokens: &BTreeSet<String>) {
        self.doc_count += 1;
        for t in tokens {
            *self.doc_freq.entry(t.clone()).or_insert(0) += 1;
        }
    }

    /// Number of documents seen.
    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    /// Document frequency of a token (0 if unseen).
    pub fn doc_freq(&self, token: &str) -> usize {
        self.doc_freq.get(token).copied().unwrap_or(0)
    }

    /// Smoothed inverse document frequency `ln(1 + N / df)`; unseen tokens get
    /// the maximal weight `ln(1 + N)`.
    pub fn idf(&self, token: &str) -> f64 {
        let n = self.doc_count.max(1) as f64;
        let df = self.doc_freq(token).max(1) as f64;
        (1.0 + n / df).ln()
    }

    /// IDF-weighted cosine between two token sets (binary term frequency,
    /// which is the natural choice for set-valued entity descriptions).
    pub fn tfidf_cosine(&self, a: &BTreeSet<String>, b: &BTreeSet<String>) -> f64 {
        let dot: f64 = a
            .iter()
            .filter(|t| b.contains(*t))
            .map(|t| self.idf(t).powi(2))
            .sum();
        if dot == 0.0 {
            return 0.0;
        }
        let norm = |s: &BTreeSet<String>| s.iter().map(|t| self.idf(t).powi(2)).sum::<f64>().sqrt();
        let denom = norm(a) * norm(b);
        if denom == 0.0 {
            0.0
        } else {
            dot / denom
        }
    }
}

/// Enumeration of the token-set measures, so algorithms (e.g. MultiBlock,
/// canopy, matchers) can be parameterized by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SetMeasure {
    /// [`jaccard`]
    Jaccard,
    /// [`dice`]
    Dice,
    /// [`cosine`]
    Cosine,
    /// [`overlap_coefficient`]
    Overlap,
}

impl SetMeasure {
    /// Evaluates the measure on two token sets.
    pub fn eval(self, a: &BTreeSet<String>, b: &BTreeSet<String>) -> f64 {
        self.score(a.len(), b.len(), overlap_size(a, b))
    }

    /// The measure from the three integers it depends on: `|A|`, `|B|` and
    /// `|A∩B|`. The one place each formula is written — the set functions
    /// above and the profile-based matching kernel both end here, so they
    /// agree to the last bit. A zero denominator scores 0.
    pub fn score(self, a: usize, b: usize, shared: usize) -> f64 {
        let (numerator, denominator) = match self {
            SetMeasure::Jaccard => (shared as f64, (a + b - shared) as f64),
            SetMeasure::Dice => (2.0 * shared as f64, (a + b) as f64),
            SetMeasure::Cosine => (shared as f64, ((a * b) as f64).sqrt()),
            SetMeasure::Overlap => (shared as f64, a.min(b) as f64),
        };
        if denominator == 0.0 {
            0.0
        } else {
            numerator / denominator
        }
    }

    /// Human-readable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            SetMeasure::Jaccard => "jaccard",
            SetMeasure::Dice => "dice",
            SetMeasure::Cosine => "cosine",
            SetMeasure::Overlap => "overlap",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[&str]) -> BTreeSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn jaccard_basics() {
        let a = set(&["a", "b", "c"]);
        let b = set(&["b", "c", "d"]);
        assert!((jaccard(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(jaccard(&a, &set(&[])), 0.0);
        assert_eq!(jaccard::<String>(&BTreeSet::new(), &BTreeSet::new()), 0.0);
    }

    #[test]
    fn dice_and_cosine_and_overlap() {
        let a = set(&["a", "b"]);
        let b = set(&["b", "c", "d"]);
        assert!((dice(&a, &b) - 2.0 / 5.0).abs() < 1e-12);
        assert!((cosine(&a, &b) - 1.0 / 6.0_f64.sqrt()).abs() < 1e-12);
        assert!((overlap_coefficient(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overlap_size_is_symmetric() {
        let a = set(&["a", "b", "c", "d"]);
        let b = set(&["c", "d", "e"]);
        assert_eq!(overlap_size(&a, &b), overlap_size(&b, &a));
        assert_eq!(overlap_size(&a, &b), 2);
    }

    #[test]
    fn levenshtein_distance_known_values() {
        assert_eq!(levenshtein_distance("kitten", "sitting"), 3);
        assert_eq!(levenshtein_distance("", "abc"), 3);
        assert_eq!(levenshtein_distance("abc", ""), 3);
        assert_eq!(levenshtein_distance("abc", "abc"), 0);
        assert_eq!(levenshtein_distance("flaw", "lawn"), 2);
    }

    #[test]
    fn levenshtein_similarity_range() {
        assert_eq!(levenshtein("", ""), 1.0);
        assert_eq!(levenshtein("abc", "abc"), 1.0);
        assert_eq!(levenshtein("abc", "xyz"), 0.0);
        let s = levenshtein("kitten", "sitting");
        assert!(s > 0.0 && s < 1.0);
    }

    #[test]
    fn jaro_known_values() {
        // Classic textbook examples.
        assert!((jaro("martha", "marhta") - 0.944444).abs() < 1e-5);
        assert!((jaro("dixon", "dicksonx") - 0.766667).abs() < 1e-5);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("abc", "abc"), 1.0);
    }

    #[test]
    fn jaro_winkler_known_values() {
        assert!((jaro_winkler("martha", "marhta") - 0.961111).abs() < 1e-5);
        assert!((jaro_winkler("dixon", "dicksonx") - 0.813333).abs() < 1e-5);
        // Winkler boost never decreases the score.
        for (a, b) in [("prefix", "preface"), ("abcd", "abce"), ("x", "y")] {
            assert!(jaro_winkler(a, b) >= jaro(a, b));
        }
    }

    #[test]
    fn monge_elkan_behaviour() {
        let a = vec!["alan".to_string(), "turing".to_string()];
        let b = vec!["turing".to_string(), "alan".to_string()];
        // Order-insensitive for permutations.
        assert!((monge_elkan(&a, &b) - 1.0).abs() < 1e-12);
        assert_eq!(monge_elkan(&a, &[]), 0.0);
        let c = vec!["alam".to_string(), "turning".to_string()];
        let s = monge_elkan_sym(&a, &c);
        assert!(s > 0.8 && s < 1.0, "s = {s}");
    }

    #[test]
    fn corpus_idf_orders_rarity() {
        let docs = [
            set(&["the", "cat"]),
            set(&["the", "dog"]),
            set(&["the", "eel"]),
        ];
        let stats = CorpusStats::from_documents(docs.iter());
        assert_eq!(stats.doc_count(), 3);
        assert_eq!(stats.doc_freq("the"), 3);
        assert_eq!(stats.doc_freq("cat"), 1);
        assert!(stats.idf("cat") > stats.idf("the"));
        assert!(stats.idf("unseen") >= stats.idf("cat"));
    }

    #[test]
    fn tfidf_cosine_discounts_common_tokens() {
        let docs = [
            set(&["the", "cat"]),
            set(&["the", "dog"]),
            set(&["the", "eel"]),
            set(&["rare", "gem"]),
        ];
        let stats = CorpusStats::from_documents(docs.iter());
        // Sharing only the ubiquitous token scores lower than sharing a rare one.
        let common = stats.tfidf_cosine(&set(&["the", "cat"]), &set(&["the", "dog"]));
        let rare = stats.tfidf_cosine(&set(&["rare", "cat"]), &set(&["rare", "dog"]));
        assert!(rare > common, "rare={rare} common={common}");
        // Identity still scores 1.
        let d = set(&["the", "cat"]);
        assert!((stats.tfidf_cosine(&d, &d) - 1.0).abs() < 1e-12);
        assert_eq!(stats.tfidf_cosine(&d, &set(&["zebra"])), 0.0);
    }

    #[test]
    fn set_measure_dispatch() {
        let a = set(&["a", "b"]);
        let b = set(&["b", "c"]);
        assert_eq!(SetMeasure::Jaccard.eval(&a, &b), jaccard(&a, &b));
        assert_eq!(SetMeasure::Dice.eval(&a, &b), dice(&a, &b));
        assert_eq!(SetMeasure::Cosine.eval(&a, &b), cosine(&a, &b));
        assert_eq!(
            SetMeasure::Overlap.eval(&a, &b),
            overlap_coefficient(&a, &b)
        );
        assert_eq!(SetMeasure::Jaccard.name(), "jaccard");
    }
}
