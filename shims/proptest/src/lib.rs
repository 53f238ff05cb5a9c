//! Offline stand-in for the `proptest` crate.
//!
//! The build container has no network access, so the workspace vendors the
//! property-testing subset it uses: the [`proptest!`] macro, a [`Strategy`]
//! trait implemented for numeric ranges and tuples, [`any`], and
//! [`collection::vec`]. Cases are generated from a deterministic per-test
//! seed (hash of the test name), so runs are reproducible; there is no
//! shrinking — a failing case panics with the plain assertion message.

use rand::prelude::*;

/// Deterministic per-test random source driving all strategies.
pub struct TestRng(rand::rngs::StdRng);

impl TestRng {
    /// Seeds from the test name so every run replays the same cases.
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self(rand::rngs::StdRng::seed_from_u64(h))
    }

    /// Draws a value uniformly from `range`.
    pub fn sample<T: rand::SampleUniform, R: rand::SampleRange<T>>(&mut self, range: R) -> T {
        self.0.gen_range(range)
    }

    /// Raw 64 random bits.
    pub fn bits(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// A recipe for producing random values of `Self::Value`.
pub trait Strategy {
    /// The type of value this strategy generates.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

impl<T: rand::SampleUniform> Strategy for std::ops::Range<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        rng.sample(self.clone())
    }
}

impl<T: rand::SampleUniform> Strategy for std::ops::RangeInclusive<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        rng.sample(self.clone())
    }
}

macro_rules! tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A.0, B.1);
tuple_strategy!(A.0, B.1, C.2);
tuple_strategy!(A.0, B.1, C.2, D.3);

/// Types with a canonical full-range strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.bits() as $t
            }
        }
    )*};
}
arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.bits() & 1 == 1
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The full-range strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Length specifications accepted by [`vec()`]: an exact `usize` or a
    /// (half-open / inclusive) range.
    pub trait SizeRange {
        /// Draws a length.
        fn draw(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn draw(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn draw(&self, rng: &mut TestRng) -> usize {
            rng.sample(self.clone())
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn draw(&self, rng: &mut TestRng) -> usize {
            rng.sample(self.clone())
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.draw(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Generates `Vec`s of `element` values with a length drawn from `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }
}

/// Runner configuration: only the case count is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// Declares property tests: each `fn name(pat in strategy, ...) { .. }`
/// becomes a `#[test]` (the attribute is written at the call site and
/// passed through) running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (($cfg:expr) $(
        $(#[$m:meta])*
        fn $name:ident( $($p:pat in $s:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$m])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::deterministic(stringify!($name));
            for __case in 0..__config.cases {
                let __case: u32 = __case;
                $(let $p = $crate::Strategy::generate(&($s), &mut __rng);)+
                $body
            }
        }
    )*};
}

/// Asserts a condition inside a property (no shrinking; plain panic).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property (no shrinking; plain panic).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property (no shrinking; plain panic).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Everything a property-test module needs.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig,
        Strategy, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(
            n in 3usize..10,
            x in 1u64..50,
            f in 0.5f32..2.0,
        ) {
            prop_assert!((3..10).contains(&n));
            prop_assert!((1..50).contains(&x));
            prop_assert!((0.5..2.0).contains(&f));
        }

        #[test]
        fn vec_and_tuple_strategies(
            v in crate::collection::vec((any::<bool>(), 1usize..5), 2..6),
            exact in crate::collection::vec(0u8..4, 3),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert_eq!(exact.len(), 3);
            for (_, sz) in &v {
                prop_assert!(*sz >= 1 && *sz < 5);
            }
        }
    }

    #[test]
    fn prop_map_transforms() {
        let s = (1u32..5, 1u32..5).prop_map(|(a, b)| a + b);
        let mut rng = TestRng::deterministic("prop_map_transforms");
        for _ in 0..32 {
            let v = s.generate(&mut rng);
            assert!((2..9).contains(&v));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::deterministic("same");
        let mut b = TestRng::deterministic("same");
        for _ in 0..8 {
            assert_eq!(a.bits(), b.bits());
        }
    }
}
