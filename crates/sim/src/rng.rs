//! Deterministic, seedable random numbers for the simulation.
//!
//! The paper runs five independent trials per data point "to account for
//! randomness in the disk layouts and in the network"; each trial here gets
//! its own seed, and the same seed always reproduces the same run.

use std::cell::RefCell;
use std::rc::Rc;

/// The golden-ratio increment of SplitMix64's state walk.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's avalanche finalizer, shared by the stream generator,
/// [`SimRng::derive`], and downstream seed-derivation helpers.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64: a tiny, high-quality, self-contained generator (the build
/// environment has no registry access, so `rand` is not available).
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix64(self.state)
    }
}

/// A cloneable, seeded random-number generator shared by the components of
/// one simulated trial.
///
/// Clones share the same underlying stream, so draws made by different
/// components interleave deterministically given a deterministic executor.
#[derive(Clone)]
pub struct SimRng {
    inner: Rc<RefCell<SplitMix64>>,
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: Rc::new(RefCell::new(SplitMix64 { state: seed })),
            seed,
        }
    }

    /// The seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Creates an independent generator derived from this one and a stream
    /// label; different labels give statistically independent streams.
    ///
    /// Used to give each disk its own layout stream so that varying the
    /// number of disks does not perturb the layouts of the others.
    pub fn derive(&self, stream: u64) -> SimRng {
        // Mix (seed, stream) into a new seed.
        SimRng::seed_from_u64(mix64(
            self.seed
                .wrapping_add(GAMMA.wrapping_mul(stream.wrapping_add(1))),
        ))
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_range(&self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Multiply-shift keeps the draw unbiased to within 2^-64 without a
        // rejection loop.
        ((u128::from(self.inner.borrow_mut().next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn gen_f64(&self) -> f64 {
        // 53 uniform mantissa bits, as rand's StandardUniform does.
        (self.inner.borrow_mut().next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&self, slice: &mut [T]) {
        let n = slice.len();
        if n <= 1 {
            return;
        }
        for i in (1..n).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a = SimRng::seed_from_u64(42);
        let b = SimRng::seed_from_u64(42);
        let va: Vec<u64> = (0..10).map(|_| a.gen_range(1000)).collect();
        let vb: Vec<u64> = (0..10).map(|_| b.gen_range(1000)).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SimRng::seed_from_u64(1);
        let b = SimRng::seed_from_u64(2);
        let va: Vec<u64> = (0..20).map(|_| a.gen_range(1_000_000)).collect();
        let vb: Vec<u64> = (0..20).map(|_| b.gen_range(1_000_000)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn clones_share_a_stream() {
        let a = SimRng::seed_from_u64(7);
        let b = a.clone();
        let x = a.gen_range(u64::MAX);
        let c = SimRng::seed_from_u64(7);
        assert_eq!(x, c.gen_range(u64::MAX));
        // The clone continues the same stream rather than restarting it.
        assert_eq!(b.gen_range(u64::MAX), c.gen_range(u64::MAX));
    }

    #[test]
    fn derive_gives_independent_streams() {
        let root = SimRng::seed_from_u64(99);
        let d0 = root.derive(0);
        let d1 = root.derive(1);
        let v0: Vec<u64> = (0..10).map(|_| d0.gen_range(1_000_000)).collect();
        let v1: Vec<u64> = (0..10).map(|_| d1.gen_range(1_000_000)).collect();
        assert_ne!(v0, v1);
        // Deriving the same stream twice is reproducible.
        let d0b = root.derive(0);
        let v0b: Vec<u64> = (0..10).map(|_| d0b.gen_range(1_000_000)).collect();
        assert_eq!(v0, v0b);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let rng = SimRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        SimRng::seed_from_u64(0).gen_range(0);
    }
}
