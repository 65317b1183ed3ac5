//! Order statistics and ratio helpers behind every reported number.
//!
//! Percentiles are nearest-rank: the reported value is always one of the
//! samples. A tail percentile is only reported where at least
//! [`TAIL_SAMPLES`] samples lie beyond it; with too few samples for the
//! requested percentile, the highest percentile that keeps that many
//! samples beyond is reported instead, and [`Percentile::percentile`] says
//! which one it was.

use std::time::Duration;

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// A reported percentile: its value, the percentile it actually is, and the
/// sample count it was taken over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample at the reported rank.
    pub value: f64,
    /// The percentile of that rank (`100 * rank / samples`).
    pub percentile: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    // Multiply first: `p * n` is exact for integral percentiles, where
    // `p / 100` is not.
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    rank.clamp(1, n)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The nearest-rank percentile `p` (0 < p <= 100) of `samples`, in any
/// order, with no tail rule. `None` for no samples.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let sorted = sorted(samples);
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// The nearest-rank median of `samples`. `None` for no samples.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The nearest-rank percentile `p` of `samples`, lowered where needed so
/// that at least [`TAIL_SAMPLES`] samples lie beyond the reported rank.
/// `None` when there are not more than [`TAIL_SAMPLES`] samples.
#[must_use]
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    let n = samples.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    let rank = nearest_rank(n, p).min(n - TAIL_SAMPLES);
    let sorted = sorted(samples);
    Some(Percentile {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

/// `part / whole`, or 0 when `whole` is 0 (nothing attempted, nothing
/// failed).
#[must_use]
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The share of `workers × wall` that `busy` covers: how much of the pool's
/// capacity did work rather than wait.
#[must_use]
pub fn busy_ratio(busy: Duration, workers: usize, wall: Duration) -> f64 {
    ratio(busy.as_secs_f64(), workers as f64 * wall.as_secs_f64())
}

/// The arithmetic mean of `samples`, or 0 for no samples.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    ratio(samples.iter().sum(), samples.len() as f64)
}

/// Milliseconds in `duration`.
#[must_use]
pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Microseconds in `duration`.
#[must_use]
pub fn us(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so the helpers must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let samples = ramp(100);
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 99.0), Some(99.0));
        assert_eq!(percentile(&samples, 100.0), Some(100.0));
        assert_eq!(percentile(&samples, 0.1), Some(1.0));
        // Odd counts round the rank up.
        assert_eq!(median(&ramp(5)), Some(3.0));
        assert_eq!(median(&ramp(4)), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 2000 samples: p99 is rank 1980, with 20 beyond, so it stands.
        let p99 = tail_percentile(&ramp(2000), 99.0).unwrap();
        assert_eq!(p99.value, 1980.0);
        assert_eq!(p99.percentile, 99.0);
        assert_eq!(p99.samples, 2000);
        // 1000 samples: rank 990 leaves exactly ten beyond.
        let p99 = tail_percentile(&ramp(1000), 99.0).unwrap();
        assert_eq!(p99.value, 990.0);
        // 200 samples: rank 198 would leave two; it drops to rank 190.
        let p99 = tail_percentile(&ramp(200), 99.0).unwrap();
        assert_eq!(p99.value, 190.0);
        assert_eq!(p99.percentile, 95.0);
        let beyond = ramp(200).iter().filter(|&&v| v > p99.value).count();
        assert_eq!(beyond, TAIL_SAMPLES);
        // Eleven samples still leave one rank to report; ten do not.
        assert_eq!(tail_percentile(&ramp(11), 99.0).unwrap().value, 1.0);
        assert_eq!(tail_percentile(&ramp(10), 99.0), None);
    }

    #[test]
    fn ratios_guard_empty_denominators() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(5.0, 0.0), 0.0);
        let busy = busy_ratio(Duration::from_millis(300), 2, Duration::from_millis(200));
        assert!((busy - 0.75).abs() < 1e-12);
        assert_eq!(busy_ratio(Duration::from_secs(1), 0, Duration::ZERO), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(ms(Duration::from_micros(1500)), 1.5);
        assert_eq!(us(Duration::from_nanos(2500)), 2.5);
    }
}
