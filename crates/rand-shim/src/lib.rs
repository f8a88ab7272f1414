//! Offline stand-in for the `rand` crate.
//!
//! The build container has no network access and no registry cache, so the
//! workspace vendors the *minimal* surface it actually uses: `SmallRng`,
//! `SeedableRng::seed_from_u64`, and `Rng::{gen, gen_range, gen_bool}`.
//! The generator is xoshiro256++ seeded through SplitMix64 — deterministic
//! across runs and platforms, which is all the graph generators and
//! partitioners require (they fix explicit seeds everywhere).
//!
//! Sequences differ from the real `rand::rngs::SmallRng`, so generated
//! graphs differ from artifacts produced with the upstream crate.
//!
//! The `SmallRng` stream is a **contract**, not an implementation detail:
//! `results/*_quick.txt`, the trace goldens and the generator fingerprints
//! in `crates/graph/tests/generator_golden.rs` are byte-compared, so the
//! seeding procedure, the xoshiro256++ step, and `gen::<f64>()` being
//! `(next_u64() >> 11) · 2⁻⁵³` must not change. Consumers are part of it
//! too: `atos_graph::generators::rmat` takes exactly one draw per level
//! per edge (it reads `next_u64() >> 11` directly and compares against
//! integer thresholds, which is exact *because* of that f64 formula).

use std::ops::Range;

/// A source of random 64-bit words.
pub trait RngCore {
    /// Next raw 64-bit word.
    fn next_u64(&mut self) -> u64;

    /// Next raw 32-bit word (upper half of a 64-bit draw).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction from a 64-bit seed (the only constructor the workspace uses).
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Convenience sampling methods over any [`RngCore`].
pub trait Rng: RngCore + Sized {
    /// Sample uniformly from `range` (half-open).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// Sample a value of `T` from its standard distribution
    /// (`f64`/`f32` in `[0, 1)`, integers over the full domain).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore> Rng for R {}

/// Standard-distribution sampling (the `rand::distributions::Standard` role).
pub trait Standard: Sized {
    /// Draw one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits -> [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges that can produce a uniform sample (the `rand` `SampleRange` role).
pub trait SampleRange<T> {
    /// Draw one value in the range from `rng`.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end - self.start) as u64;
                // Modulo bias is < span / 2^64 — irrelevant for the graph
                // generators and test-case sampling this shim serves.
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}
impl_sample_range_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}
impl_sample_range_int!(i8, i16, i32, i64, isize);

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Small, fast, deterministic generator: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, the reference seeding procedure.
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            SmallRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
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

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(10usize..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(0u32..3);
            assert!(w < 3);
            let x = rng.gen_range(-5i32..5);
            assert!((-5..5).contains(&x));
        }
    }

    #[test]
    fn floats_are_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            sum += f;
        }
        // Mean of 10k uniform draws is near 0.5.
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn bool_and_spread() {
        let mut rng = SmallRng::seed_from_u64(3);
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_500..5_500).contains(&heads), "{heads}");
    }
}
