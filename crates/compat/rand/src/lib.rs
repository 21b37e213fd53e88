//! Offline stand-in for the `rand` crate (0.9 API subset).
//!
//! Provides only what this workspace uses: [`Rng::random`],
//! [`Rng::random_range`], [`SeedableRng::seed_from_u64`], and
//! [`rngs::StdRng`]. The generator is xoshiro256++ seeded via SplitMix64 —
//! deterministic, fast, and statistically solid for simulation workloads
//! (it is not the upstream StdRng stream, so seeds produce different but
//! equally valid sequences).

#![forbid(unsafe_code)]

/// Types that can be sampled uniformly from the full generator output.
pub trait Standard: Sized {
    /// Draws one value from `next` (a 64-bit generator step). Generic, not
    /// `dyn`, so the step inlines into the caller.
    fn sample_standard<F: FnMut() -> u64>(next: F) -> Self;
}

impl Standard for f64 {
    fn sample_standard<F: FnMut() -> u64>(mut next: F) -> f64 {
        // 53 high bits -> uniform in [0, 1).
        (next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<F: FnMut() -> u64>(mut next: F) -> f32 {
        (next() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard<F: FnMut() -> u64>(mut next: F) -> $t {
                next() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample_standard<F: FnMut() -> u64>(mut next: F) -> bool {
        next() & 1 == 1
    }
}

/// Types with uniform sampling over a half-open `start..end` range.
pub trait SampleUniform: Sized {
    /// Draws one value in `[start, end)`.
    fn sample_range<F: FnMut() -> u64>(start: Self, end: Self, next: F) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<F: FnMut() -> u64>(start: $t, end: $t, mut next: F) -> $t {
                assert!(start < end, "empty range in random_range");
                // Every impl type is at most 64 bits wide, so the span fits
                // a u64 and the reduction needs no 128-bit division.
                // Modulo bias is < 2^-64 * span: negligible for simulation.
                let span = (end as u64).wrapping_sub(start as u64);
                let v = next() % span;
                start.wrapping_add(v as $t)
            }
        }
    )*};
}
impl_uniform_int!(u8, u16, u32, u64, usize);

impl SampleUniform for f64 {
    fn sample_range<F: FnMut() -> u64>(start: f64, end: f64, next: F) -> f64 {
        let u = f64::sample_standard(next);
        start + u * (end - start)
    }
}

/// The subset of `rand::Rng` this workspace calls.
pub trait Rng {
    /// One 64-bit generator step.
    fn next_u64(&mut self) -> u64;

    /// Uniform sample of `T` over its standard distribution.
    fn random<T: Standard>(&mut self) -> T {
        T::sample_standard(|| self.next_u64())
    }

    /// Uniform sample in `[range.start, range.end)`.
    fn random_range<T: SampleUniform>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample_range(range.start, range.end, || self.next_u64())
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seedable generators (the `seed_from_u64` entry point only).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Generator implementations.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// Deterministic xoshiro256++ generator (offline `StdRng` stand-in).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.s;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            let mut s = [s0, s1, s2, s3];
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            self.s = s;
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v: f64 = r.random();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = StdRng::seed_from_u64(5);
        let mut seen_low = false;
        for _ in 0..10_000 {
            let v = r.random_range(10u64..20);
            assert!((10..20).contains(&v));
            seen_low |= v == 10;
        }
        assert!(seen_low, "lower bound never sampled");
    }

    /// The first outputs of seed 7, pinned: a change to how draws reach the
    /// generator must leave every stream bit-identical.
    #[test]
    fn seed_7_streams_are_pinned() {
        let mut r = StdRng::seed_from_u64(7);
        let f: Vec<f64> = (0..8).map(|_| r.random()).collect();
        assert_eq!(
            f,
            [
                0.05536043647833311,
                0.17211585444811772,
                0.7175761283586594,
                0.42720981929150526,
                0.9636595218812296,
                0.46570368914047844,
                0.7239070952365361,
                0.329839429552528,
            ]
        );
        let mut r = StdRng::seed_from_u64(7);
        let u: Vec<u64> = (0..8).map(|_| r.random()).collect();
        assert_eq!(
            u,
            [
                1021219803524665661,
                3174977118032272916,
                13236943193235544178,
                7880630202246103356,
                17776380574336353142,
                8590716767756797065,
                13353728918970868608,
                6084463542373836072,
            ]
        );
        let mut r = StdRng::seed_from_u64(7);
        let k: Vec<u64> = (0..8).map(|_| r.random_range(0..1000u64)).collect();
        assert_eq!(k, [661, 916, 178, 356, 142, 65, 608, 72]);
        let mut r = StdRng::seed_from_u64(7);
        let i: Vec<usize> = (0..8).map(|_| r.random_range(10usize..20)).collect();
        assert_eq!(i, [11, 16, 18, 16, 12, 15, 18, 12]);
    }

    #[test]
    fn roughly_uniform() {
        let mut r = StdRng::seed_from_u64(11);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.random_range(0usize..8)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "{counts:?}");
        }
    }
}
