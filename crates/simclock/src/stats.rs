//! Small statistics helpers used by the benchmark harness.
//!
//! The paper reports the mean of 10 repetitions for every experiment;
//! [`mean`] is what the comparison matrix reads.

/// Arithmetic mean of a slice; zero for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_of_known_values() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    proptest! {
        #[test]
        fn mean_is_bounded_by_min_and_max(samples in proptest::collection::vec(-1e6f64..1e6, 1..64)) {
            let m = mean(&samples);
            let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
            let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(m >= min - 1e-9 && m <= max + 1e-9);
        }
    }
}
