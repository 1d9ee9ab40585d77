//! Measurement helpers: counters and summaries.
//!
//! The experiment harness reports mean throughput and the coefficient of
//! variation over five trials, exactly as the paper's figure captions do
//! ("maximum coefficient of variation is 0.14").

use std::cell::Cell;
use std::rc::Rc;

use crate::time::SimDuration;

/// A shareable monotonically increasing counter.
#[derive(Clone, Default)]
pub struct Counter {
    value: Rc<Cell<u64>>,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.set(self.value.get() + n);
    }

    /// Increments the counter by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.get()
    }
}

/// Simple summary statistics over a set of samples (one per trial).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator); zero for n < 2.
    pub std_dev: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
}

impl Summary {
    /// Computes summary statistics of `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "cannot summarize zero samples");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }

    /// Coefficient of variation (std-dev / mean); zero when the mean is zero.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }

    /// Merges two summaries as if their underlying samples were pooled,
    /// using Chan et al.'s parallel-variance combination. This lets trial
    /// sets collected independently (e.g. on different worker threads) be
    /// reduced without keeping every sample around.
    pub fn merge(&self, other: &Summary) -> Summary {
        let n = self.n + other.n;
        let (na, nb) = (self.n as f64, other.n as f64);
        let mean = (self.mean * na + other.mean * nb) / n as f64;
        let m2_a = self.std_dev * self.std_dev * (na - 1.0).max(0.0);
        let m2_b = other.std_dev * other.std_dev * (nb - 1.0).max(0.0);
        let delta = other.mean - self.mean;
        let m2 = m2_a + m2_b + delta * delta * na * nb / n as f64;
        let std_dev = if n > 1 {
            (m2 / (n - 1) as f64).sqrt()
        } else {
            0.0
        };
        Summary {
            n,
            mean,
            std_dev,
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }
}

/// Computes a throughput in binary megabytes per second, the unit used by all
/// of the paper's figures.
pub fn throughput_mibs(bytes: u64, elapsed: SimDuration) -> f64 {
    if elapsed.is_zero() {
        return 0.0;
    }
    bytes as f64 / (1024.0 * 1024.0) / elapsed.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.incr();
        c.add(9);
        let c2 = c.clone();
        c2.incr();
        assert_eq!(c.get(), 11);
    }

    #[test]
    fn summary_statistics() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-9);
        assert!((s.std_dev - 2.138089935299395).abs() < 1e-9);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.cv() - s.std_dev / 5.0).abs() < 1e-12);
    }

    #[test]
    fn summary_of_single_sample_has_zero_spread() {
        let s = Summary::of(&[3.5]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn summary_of_empty_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    fn merge_matches_pooled_summary() {
        let a = [2.0, 4.0, 4.0];
        let b = [4.0, 5.0, 5.0, 7.0, 9.0];
        let merged = Summary::of(&a).merge(&Summary::of(&b));
        let pooled = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(merged.n, pooled.n);
        assert!((merged.mean - pooled.mean).abs() < 1e-12);
        assert!((merged.std_dev - pooled.std_dev).abs() < 1e-12);
        assert_eq!(merged.min, pooled.min);
        assert_eq!(merged.max, pooled.max);
    }

    #[test]
    fn merge_of_single_sample_summaries() {
        let merged = Summary::of(&[3.0]).merge(&Summary::of(&[5.0]));
        let pooled = Summary::of(&[3.0, 5.0]);
        assert_eq!(merged.n, 2);
        assert!((merged.mean - 4.0).abs() < 1e-12);
        assert!((merged.std_dev - pooled.std_dev).abs() < 1e-12);
    }

    #[test]
    fn throughput_formula() {
        // 10 MiB in 2 seconds is 5 MiB/s.
        let t = throughput_mibs(10 * 1024 * 1024, SimDuration::from_secs(2));
        assert!((t - 5.0).abs() < 1e-9);
        assert_eq!(throughput_mibs(100, SimDuration::ZERO), 0.0);
    }
}
