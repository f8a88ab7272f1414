//! Offline stand-in for the `rand` crate.
//!
//! The build container has no network access and no registry cache, so the
//! workspace vendors the *minimal* surface it actually uses: `SmallRng`,
//! `SeedableRng::seed_from_u64`, `Rng::gen::<f64>` and `Rng::gen_range`
//! over `usize`.
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
//! It consumes those draws in contiguous chunks, one per sampling thread,
//! each reached from the seeded state by [`rngs::SmallRng::advance`], and
//! each chunk as 16 contiguous sixteenths stepped together by
//! [`rngs::SmallRng::lanes`]; edge `i` still takes draws
//! `i·scale … (i+1)·scale − 1` of the one stream.

use std::ops::Range;

/// A source of random 64-bit words.
pub trait RngCore {
    /// Next raw 64-bit word.
    fn next_u64(&mut self) -> u64;
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

    /// Sample a value of `T` from its standard distribution (`f64` in
    /// `[0, 1)`).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
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

/// Ranges that can produce a uniform sample (the `rand` `SampleRange` role).
pub trait SampleRange<T> {
    /// Draw one value in the range from `rng`.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<usize> for Range<usize> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> usize {
        assert!(self.start < self.end, "empty range in gen_range");
        let span = (self.end - self.start) as u64;
        // Modulo bias is < span / 2^64 — irrelevant for the graph
        // generators and test-case sampling this shim serves.
        self.start + (rng.next_u64() % span) as usize
    }
}

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
            let result = output(&self.s);
            step(&mut self.s);
            result
        }
    }

    impl SmallRng {
        /// Skip `k` draws: afterwards the generator is in exactly the state
        /// `k` calls of [`RngCore::next_u64`] would have left it in.
        ///
        /// The state transition `T` is linear over GF(2)²⁵⁶, so `Tᵏ = r(T)`
        /// where `r = xᵏ mod P` and `P` is `T`'s characteristic polynomial
        /// (Cayley–Hamilton). `r` comes from square-and-multiply on 256-bit
        /// words; the new state is `Σ rᵢ·Tⁱ(s)`, 256 steps. The cost is
        /// `O(log k)` squarings plus those steps, whatever `k` is.
        pub fn advance(&mut self, k: u64) {
            self.s = jump(&crate::gf2::x_pow_mod(k), self.s);
        }

        /// `L` generators that step together: lane `l` starts where this
        /// one would be after `l·stride` draws, so lane `l`'s `j`-th draw
        /// is this stream's draw `l·stride + j`. `xˢᵗʳⁱᵈᵉ mod P` is formed
        /// once and applied `L − 1` times, each lane jumping from the one
        /// before it (see [`SmallRng::advance`]).
        pub fn lanes<const L: usize>(&self, stride: u64) -> Lanes<L> {
            let r = crate::gf2::x_pow_mod(stride);
            let mut s = [[0; L]; 4];
            let mut lane = self.s;
            for l in 0..L {
                if l > 0 {
                    lane = jump(&r, lane);
                }
                for (word, w) in s.iter_mut().zip(lane) {
                    word[l] = w;
                }
            }
            Lanes { s }
        }
    }

    /// `L` xoshiro256++ generators stepped in lock-step, built by
    /// [`SmallRng::lanes`]. The state is kept as structure of arrays, one
    /// `[u64; L]` per state word, so a step is seven whole-array
    /// operations that a vector unit does `L` lanes at a time.
    #[derive(Debug, Clone)]
    pub struct Lanes<const L: usize> {
        /// `s[w][l]` is word `w` of lane `l`'s state.
        s: [[u64; L]; 4],
    }

    impl<const L: usize> Lanes<L> {
        /// One draw from every lane: element `l` is what lane `l`'s
        /// [`RngCore::next_u64`] would return.
        #[inline(always)]
        pub fn next_u64s(&mut self) -> [u64; L] {
            let [s0, s1, s2, s3] = &mut self.s;
            let mut out = [0; L];
            for l in 0..L {
                let mut s = [s0[l], s1[l], s2[l], s3[l]];
                out[l] = output(&s);
                step(&mut s);
                [s0[l], s1[l], s2[l], s3[l]] = s;
            }
            out
        }

        /// Lane `l` taken back as a generator, at the draw the lane has
        /// reached: it continues that lane's stream.
        ///
        /// # Panics
        /// If `l ≥ L`.
        pub fn lane(&self, l: usize) -> SmallRng {
            SmallRng {
                s: self.s.map(|word| word[l]),
            }
        }
    }

    /// The xoshiro256++ output of state `s`, before it steps.
    #[inline(always)]
    fn output(s: &[u64; 4]) -> u64 {
        s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0])
    }

    /// `r(T)(s)`: the state `s` moved by the polynomial `r` in `T`, i.e.
    /// `Σ rᵢ·Tⁱ(s)`, in 256 steps.
    fn jump(r: &[u64; 4], mut s: [u64; 4]) -> [u64; 4] {
        let mut acc = [0u64; 4];
        for i in 0..256 {
            if r[i / 64] >> (i % 64) & 1 == 1 {
                for (a, w) in acc.iter_mut().zip(s) {
                    *a ^= w;
                }
            }
            step(&mut s);
        }
        acc
    }

    /// The xoshiro256 state transition `T`, without the `++` output.
    #[inline]
    pub(crate) fn step(s: &mut [u64; 4]) {
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
    }
}

/// Polynomials over GF(2) modulo the characteristic polynomial of the
/// xoshiro256 state transition, for [`rngs::SmallRng::advance`]. A residue
/// is 256 coefficients, bit `i` of word `i / 64` holding that of `xⁱ`.
mod gf2 {
    /// Coefficients of `x⁰ … x²⁵⁵` in the degree-256 characteristic
    /// polynomial `P` of the xoshiro256 state transition; `x²⁵⁶` is
    /// implicit. Re-derived by Berlekamp–Massey in this crate's tests.
    pub(crate) const CHAR_POLY: [u64; 4] = [
        0x9d11_6f2b_b0f0_f001,
        0x0280_002b_cefd_1a5e,
        0x04b4_edcf_2625_9f85,
        0x0003_c03c_3f3e_cb19,
    ];

    /// `xᵏ mod P`, square-and-multiply from the top bit of `k`.
    pub(crate) fn x_pow_mod(k: u64) -> [u64; 4] {
        let mut r = [1, 0, 0, 0];
        for bit in (0..u64::BITS - k.leading_zeros()).rev() {
            r = square_mod(r);
            if k >> bit & 1 == 1 {
                r = mul_x_mod(r);
            }
        }
        r
    }

    /// `r·x mod P`.
    fn mul_x_mod(r: [u64; 4]) -> [u64; 4] {
        let carry = r[3] >> 63;
        let mut out = [
            r[0] << 1,
            r[1] << 1 | r[0] >> 63,
            r[2] << 1 | r[1] >> 63,
            r[3] << 1 | r[2] >> 63,
        ];
        if carry == 1 {
            for (o, p) in out.iter_mut().zip(CHAR_POLY) {
                *o ^= p;
            }
        }
        out
    }

    /// `r² mod P`. Squaring over GF(2) spreads each bit `i` to bit `2i`;
    /// the 512-bit square is then reduced one set bit at a time from the
    /// top, with `x^j ≡ P_low·x^(j−256)` applied as a word-shifted XOR.
    pub(crate) fn square_mod(r: [u64; 4]) -> [u64; 4] {
        let mut w = [0u64; 8];
        for (i, word) in r.into_iter().enumerate() {
            w[2 * i] = spread(word as u32);
            w[2 * i + 1] = spread((word >> 32) as u32);
        }
        for wi in (4..8).rev() {
            while w[wi] != 0 {
                let bit = 63 - w[wi].leading_zeros() as usize;
                w[wi] ^= 1 << bit;
                xor_shifted(&mut w, wi * 64 + bit - 256);
            }
        }
        [w[0], w[1], w[2], w[3]]
    }

    /// `w ^= P_low << shift`. `P_low` has degree < 256, so for the
    /// `shift < 256` the reduction uses the result ends below bit 511.
    fn xor_shifted(w: &mut [u64; 8], shift: usize) {
        let (words, bits) = (shift / 64, shift % 64);
        for (i, p) in CHAR_POLY.into_iter().enumerate() {
            w[words + i] ^= p << bits;
            if bits != 0 {
                w[words + i + 1] ^= p >> (64 - bits);
            }
        }
    }

    /// Bit `i` of `x` moved to bit `2i`, zeros between.
    fn spread(x: u32) -> u64 {
        let mut x = x as u64;
        x = (x | x << 16) & 0x0000_FFFF_0000_FFFF;
        x = (x | x << 8) & 0x00FF_00FF_00FF_00FF;
        x = (x | x << 4) & 0x0F0F_0F0F_0F0F_0F0F;
        x = (x | x << 2) & 0x3333_3333_3333_3333;
        (x | x << 1) & 0x5555_5555_5555_5555
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(10usize..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(0usize..3);
            assert!(w < 3);
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

    /// `k` single draws, the definition `advance` must match.
    fn stepped(seed: u64, k: u64) -> SmallRng {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..k {
            rng.next_u64();
        }
        rng
    }

    fn advanced(seed: u64, k: u64) -> SmallRng {
        let mut rng = SmallRng::seed_from_u64(seed);
        rng.advance(k);
        rng
    }

    /// `Debug` prints the whole 256-bit state.
    fn same_state(a: &SmallRng, b: &SmallRng) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    #[test]
    fn advance_equals_single_draws() {
        for k in [0, 1, 255, 256, 511, 512] {
            assert!(same_state(&advanced(9, k), &stepped(9, k)), "k={k}");
        }
        let mut pick = SmallRng::seed_from_u64(2024);
        for seed in 0..12 {
            let k = pick.gen_range(0..1_000_000usize) as u64;
            assert!(
                same_state(&advanced(seed, k), &stepped(seed, k)),
                "seed={seed} k={k}"
            );
        }
    }

    #[test]
    fn advance_composes() {
        let mut pick = SmallRng::seed_from_u64(77);
        for _ in 0..16 {
            let (a, b) = (pick.next_u64() >> 2, pick.next_u64() >> 2);
            let mut twice = SmallRng::seed_from_u64(a ^ b);
            twice.advance(a);
            twice.advance(b);
            assert!(same_state(&twice, &advanced(a ^ b, a + b)), "a={a} b={b}");
        }
    }

    #[test]
    fn lane_l_starts_at_draw_l_times_stride() {
        for stride in [0, 1, 17, 256, 4_099 * 18, 1 << 40] {
            let rng = SmallRng::seed_from_u64(stride ^ 5);
            let lanes = rng.lanes::<16>(stride);
            for l in 0..16 {
                let mut at = rng.clone();
                at.advance(l * stride);
                assert!(
                    same_state(&lanes.lane(l as usize), &at),
                    "stride={stride} lane={l}"
                );
            }
        }
    }

    #[test]
    fn lanes_draw_their_own_streams_and_hand_them_back() {
        let (stride, drawn) = (300, 37);
        let rng = SmallRng::seed_from_u64(31);
        let mut lanes = rng.lanes::<4>(stride);
        let mut serial = [0, 1, 2, 3].map(|l| advanced(31, l * stride));
        for _ in 0..drawn {
            let words = lanes.next_u64s();
            for (w, s) in words.into_iter().zip(&mut serial) {
                assert_eq!(w, s.next_u64());
            }
        }
        // A lane taken back continues the one stream: lane 3 after
        // `drawn` draws is at draw `3·stride + drawn`.
        let mut back = lanes.lane(3);
        let mut reference = stepped(31, 3 * stride + drawn);
        for _ in 0..100 {
            assert_eq!(back.next_u64(), reference.next_u64());
        }
    }

    /// Berlekamp–Massey over GF(2): the shortest recurrence
    /// `bits[n] = Σ cᵢ·bits[n−i]`, as `(c₁ … c_L)`.
    fn berlekamp_massey(bits: &[u8]) -> Vec<u8> {
        let (mut c, mut b) = (vec![1u8], vec![1u8]);
        let (mut len, mut m) = (0usize, 1usize);
        for n in 0..bits.len() {
            let d = (1..=len).fold(bits[n], |d, i| d ^ (c[i] & bits[n - i]));
            if d == 0 {
                m += 1;
                continue;
            }
            let prev = c.clone();
            c.resize(c.len().max(b.len() + m), 0);
            for (i, &bi) in b.iter().enumerate() {
                c[i + m] ^= bi;
            }
            if 2 * len <= n {
                len = n + 1 - len;
                b = prev;
                m = 1;
            } else {
                m += 1;
            }
        }
        c.resize(len + 1, 0);
        c[1..].to_vec()
    }

    #[test]
    fn char_poly_is_rederived_by_berlekamp_massey() {
        // One state bit over 512 transitions: its minimal polynomial is
        // the full characteristic polynomial (xoshiro256's is primitive).
        let mut s = [0x0123_4567_89AB_CDEF, 0xDEAD_BEEF, 42, 7];
        let bits: Vec<u8> = (0..512)
            .map(|_| {
                let b = (s[0] & 1) as u8;
                super::rngs::step(&mut s);
                b
            })
            .collect();
        let c = berlekamp_massey(&bits);
        assert_eq!(c.len(), 256, "degree");
        // x²⁵⁶ + c₁x²⁵⁵ + … + c₂₅₆: the coefficient of xʲ is c₂₅₆₋ⱼ.
        let mut p = [0u64; 4];
        for j in 0..256 {
            p[j / 64] |= (c[255 - j] as u64) << (j % 64);
        }
        assert_eq!(p, super::gf2::CHAR_POLY, "{p:#018x?}");
    }

    /// xoshiro256's published `jump()` (2¹²⁸ draws) and `long_jump()`
    /// (2¹⁹²) polynomials, reached by squaring `x` — an independent check
    /// of the stored `P`.
    #[test]
    fn published_jump_polynomials_are_powers_of_x() {
        let mut r = [2, 0, 0, 0];
        for squarings in 1..=192 {
            r = super::gf2::square_mod(r);
            if squarings == 128 {
                assert_eq!(
                    r,
                    [
                        0x180e_c6d3_3cfd_0aba,
                        0xd5a6_1266_f0c9_392c,
                        0xa958_2618_e03f_c9aa,
                        0x39ab_dc45_29b1_661c
                    ]
                );
            }
        }
        assert_eq!(
            r,
            [
                0x76e1_5d3e_fefd_cbbf,
                0xc500_4e44_1c52_2fb3,
                0x7771_0069_854e_e241,
                0x3910_9bb0_2acb_e635
            ]
        );
    }
}
