//! Offline stand-in for the `proptest` crate.
//!
//! The build container cannot reach a crate registry, so this workspace
//! vendors the subset of proptest its property tests use:
//!
//! * `proptest! { #![proptest_config(..)] #[test] fn f(x in strat, ..) {..} }`
//! * strategies: integer ranges, tuples of strategies, `any::<T>()`, and
//!   `proptest::collection::vec(element, size_range)`
//! * `prop_assert!` / `prop_assert_eq!`
//!
//! Test cases are sampled deterministically — the stream is a pure
//! function of the test's name and the case index — so failures reproduce
//! without a persistence file. There is **no shrinking**: a failing case
//! reports its inputs via the panic message produced by the assertion
//! itself plus the case index printed by the runner.

use std::marker::PhantomData;
use std::ops::Range;

/// Runner configuration (`ProptestConfig::with_cases` is the only knob
/// the workspace uses).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of sampled cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run each property over `cases` sampled inputs.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream defaults to 256; 64 keeps the suite quick on the
        // single-core hosts this repo targets while still exercising the
        // properties broadly.
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic per-case random source (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Stream seeded from a test name and case index.
    pub fn for_case(test_name: &str, case: u32) -> Self {
        // FNV-1a over the name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng(h ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A recipe for sampling values of `Self::Value`.
pub trait Strategy {
    /// The type this strategy produces.
    type Value;

    /// Sample one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_strategy_for_uint_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}
impl_strategy_for_uint_range!(u8, u16, u32, u64, usize);

macro_rules! impl_strategy_for_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}
impl_strategy_for_int_range!(i8, i16, i32, i64, isize);

macro_rules! impl_strategy_for_tuple {
    ($($s:ident / $v:ident),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($v,)+) = self;
                ($($v.generate(rng),)+)
            }
        }
    };
}
impl_strategy_for_tuple!(A / a);
impl_strategy_for_tuple!(A / a, B / b);
impl_strategy_for_tuple!(A / a, B / b, C / c);
impl_strategy_for_tuple!(A / a, B / b, C / c, D / d);

/// Types with a canonical full-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Sample an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as u8
    }
}

/// Strategy over a type's full domain; build with [`any`].
pub struct Any<T>(PhantomData<T>);

/// The canonical strategy for `T` (`any::<bool>()` or `any::<u8>()`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy producing `Vec`s of `element` with length in `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `vec(element, lo..hi)`: vectors of `element` samples, length in
    /// `lo..hi`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec-length range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a property test file needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, proptest, Arbitrary, ProptestConfig, Strategy,
    };
}

/// Assert inside a property (maps to a plain `assert!`; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Assert equality inside a property (maps to `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Define property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` that samples its arguments `cases` times.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { cfg = (<$crate::ProptestConfig as ::core::default::Default>::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            for __case in 0..__cfg.cases {
                let mut __rng = $crate::TestRng::for_case(stringify!($name), __case);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                // Surface the failing case index alongside the assertion's
                // own panic message.
                let __guard = $crate::CasePrinter(stringify!($name), __case);
                { $body }
                ::core::mem::forget(__guard);
            }
        }
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
}

/// Prints the failing case on unwind; forgotten on success.
#[doc(hidden)]
pub struct CasePrinter(pub &'static str, pub u32);

impl Drop for CasePrinter {
    fn drop(&mut self) {
        eprintln!(
            "proptest shim: property `{}` failed at case {}",
            self.0, self.1
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3u32..17, y in 0usize..5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 5);
        }

        #[test]
        fn vec_lengths_respected(v in crate::collection::vec((any::<bool>(), 0u8..9), 2..50)) {
            prop_assert!((2..50).contains(&v.len()), "{}", v.len());
            for &(_, d) in &v {
                prop_assert!(d < 9);
            }
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let a: Vec<u64> = (0..4)
            .map(|c| crate::TestRng::for_case("t", c).next_u64())
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|c| crate::TestRng::for_case("t", c).next_u64())
            .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], a[1]);
    }
}
