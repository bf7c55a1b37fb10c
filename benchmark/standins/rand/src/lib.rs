//! Offline stand-in for `rand` 0.9: `StdRng::seed_from_u64`, `random` and
//! `random_range`, which is all the dataset generators call. The generator
//! is xoshiro256++ seeded through splitmix64, so a seed gives the same
//! stream on every platform; the stream differs from the real `StdRng`, so
//! generated datasets differ from ones made with the published crate.

use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// A type `Rng::random` can produce.
pub trait Random: Sized {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// A range `Rng::random_range` can sample from.
pub trait SampleRange<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

pub trait Rng: RngCore {
    fn random<T: Random>(&mut self) -> T {
        T::random(self)
    }

    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    fn random_bool(&mut self, p: f64) -> bool {
        f64::random(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

impl Random for f64 {
    /// Uniform in `[0, 1)` with 53 random bits.
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Random for f32 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Random for bool {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

impl Random for u64 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Random for u32 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl SampleRange<f64> for Range<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        let v = self.start + (self.end - self.start) * f64::random(rng);
        // Rounding can land on the excluded end point.
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + below(rng, span) as i128) as $t
            }
        }
    )*};
}

int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Uniform in `[0, span)` for `1 <= span <= 2^64`, by rejection so that no
/// value is favoured.
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u128) -> u64 {
    if span > u64::MAX as u128 {
        return rng.next_u64();
    }
    let span = span as u64;
    let zone = u64::MAX - (u64::MAX - span + 1) % span;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % span;
        }
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ (Blackman and Vigna).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}
