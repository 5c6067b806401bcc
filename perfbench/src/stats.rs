//! Order statistics over measured samples.

/// The median of `samples` (mean of the middle two for an even count).
///
/// # Panics
/// On an empty slice: every caller measures at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let sorted = sorted(samples);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank `p`-th percentile of `samples`.
///
/// Refuses (returns `Err`) when fewer than 10 samples lie beyond the
/// percentile: a tail figure resting on a handful of samples is noise.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !(0.0..=100.0).contains(&p) {
        return Err(format!("percentile {p} is outside 0..=100"));
    }
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < 10 {
        return Err(format!(
            "p{p} of {n} samples has {beyond} samples beyond it; at least 10 are needed"
        ));
    }
    Ok(sorted(samples)[rank - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, ten samples beyond.
        assert_eq!(percentile(&hundred, 90.0), Ok(90.0));
        // p99 of 100 samples: one sample beyond, refused.
        assert!(percentile(&hundred, 99.0).is_err());
        // p99 of 1000 samples: rank 990, ten beyond; of 999: rank 990,
        // nine beyond.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), Ok(990.0));
        assert!(percentile(&thousand[..999], 99.0).is_err());
        assert!(percentile(&[1.0; 11], 50.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }
}
