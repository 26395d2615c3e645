//! Offline stand-in for `rand` 0.8: the surface vq uses, nothing more.
//!
//! `SmallRng` is xoshiro256++ seeded through SplitMix64, as in the
//! published crate on 64-bit targets; the range and float conversions are
//! simpler than upstream's, so streams are deterministic per seed but not
//! bit-identical to a registry build.

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

pub trait Rng: RngCore {
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        distributions::Distribution::sample(&distributions::Standard, self)
    }

    fn gen_range<T, R: distributions::uniform::SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    fn sample<T, D: distributions::Distribution<T>>(&mut self, distr: D) -> T {
        distr.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(mut state: u64) -> Self {
            let mut s = [0u64; 4];
            for word in &mut s {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = z ^ (z >> 31);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
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

    pub type StdRng = SmallRng;
}

pub mod distributions {
    use super::Rng;

    pub trait Distribution<T> {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    impl<T, D: Distribution<T> + ?Sized> Distribution<T> for &D {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
            (**self).sample(rng)
        }
    }

    /// Uniform over the whole type (floats: `[0, 1)`).
    #[derive(Debug, Clone, Copy)]
    pub struct Standard;

    macro_rules! standard_int {
        ($($t:ty)*) => {$(
            impl Distribution<$t> for Standard {
                #[inline]
                fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    standard_int!(u8 u16 u32 u64 usize i8 i16 i32 i64 isize);

    impl Distribution<bool> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() >> 63 == 1
        }
    }

    impl Distribution<f64> for Standard {
        #[inline]
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Distribution<f32> for Standard {
        #[inline]
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }

    pub mod uniform {
        use super::super::Rng;
        use std::ops::{Range, RangeInclusive};

        pub trait SampleUniform: Sized {
            fn sample_between<R: Rng + ?Sized>(
                low: Self,
                high: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self;
        }

        pub trait SampleRange<T> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
        }

        impl<T: SampleUniform> SampleRange<T> for Range<T> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
                T::sample_between(self.start, self.end, false, rng)
            }
        }

        impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
                let (low, high) = self.into_inner();
                T::sample_between(low, high, true, rng)
            }
        }

        macro_rules! uniform_int {
            ($($t:ty)*) => {$(
                impl SampleUniform for $t {
                    fn sample_between<R: Rng + ?Sized>(low: $t, high: $t, inclusive: bool, rng: &mut R) -> $t {
                        let span = (high as i128 - low as i128) as u128 + inclusive as u128;
                        assert!(span > 0, "cannot sample empty range");
                        // Multiply-shift maps 64 random bits onto the span.
                        let offset = ((rng.next_u64() as u128 * span) >> 64) as i128;
                        (low as i128 + offset) as $t
                    }
                }
            )*};
        }
        uniform_int!(u8 u16 u32 u64 usize i8 i16 i32 i64 isize);

        macro_rules! uniform_float {
            ($($t:ty)*) => {$(
                impl SampleUniform for $t {
                    fn sample_between<R: Rng + ?Sized>(low: $t, high: $t, _inclusive: bool, rng: &mut R) -> $t {
                        assert!(low <= high, "cannot sample empty range");
                        let unit: $t = rng.gen();
                        low + (high - low) * unit
                    }
                }
            )*};
        }
        uniform_float!(f32 f64);
    }
}

pub mod seq {
    use super::Rng;

    pub trait SliceRandom {
        type Item;
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

pub mod prelude {
    pub use super::distributions::Distribution;
    pub use super::rngs::{SmallRng, StdRng};
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}
