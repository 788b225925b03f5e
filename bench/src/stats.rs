//! Sample summaries. A run yields a few dozen repetitions at most, which
//! support a median and the extremes but no tail percentile, so none is
//! reported.

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Median (mean of the two middle values for an even count), min and max.
///
/// # Panics
/// Panics on an empty sample or a NaN.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "no samples to summarize");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    Summary {
        median,
        min: sorted[0],
        max: sorted[n - 1],
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_and_even_counts() {
        let odd = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!(
            odd,
            Summary {
                median: 2.0,
                min: 1.0,
                max: 3.0,
                n: 3
            }
        );
        let even = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            (even.median, even.min, even.max, even.n),
            (2.5, 1.0, 4.0, 4)
        );
        assert_eq!(summarize(&[7.5]).median, 7.5);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_sample_is_a_bug() {
        summarize(&[]);
    }
}
