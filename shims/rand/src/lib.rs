//! Offline stand-in for the subset of the `rand` API the LS3DF workspace
//! uses: `StdRng::seed_from_u64`, the `Rng` sampling methods the shuffle
//! needs, and `SliceRandom::shuffle`.
//!
//! Only **seeded** construction is provided — there is deliberately no
//! `thread_rng`/`from_entropy`/`random`, so an unseeded draw anywhere in
//! the workspace does not compile and every random draw is reproducible.
//! The generator is splitmix64-seeded xoshiro256**, which passes the
//! statistical tests that matter for alloy-site shuffling; it does
//! **not** reproduce crates-io `StdRng` streams bit-for-bit.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
/// A random number source (subset of `rand::RngCore` + `rand::Rng`).
pub trait Rng {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform `usize` in `[0, bound)` (`bound > 0`), via rejection
    /// sampling so the distribution is exactly uniform.
    fn gen_range_usize(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "gen_range_usize: empty range");
        let bound = bound as u64;
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let r = self.next_u64();
            if r < zone {
                return (r % bound) as usize;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Seeded construction (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Concrete generators.
pub mod rngs {
    use super::{splitmix64, Rng, SeedableRng};

    /// The workspace's standard generator: xoshiro256** seeded via
    /// splitmix64 (same scheme the xoshiro reference code recommends).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Sequence helpers (subset of `rand::seq`).
pub mod seq {
    use super::Rng;

    /// Slice shuffling (subset of `rand::seq::SliceRandom`).
    pub trait SliceRandom {
        /// Uniform in-place Fisher–Yates shuffle.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range_usize(i + 1);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..50).collect();
        let mut rng = StdRng::seed_from_u64(7);
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "50 items should not shuffle to identity"
        );
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
