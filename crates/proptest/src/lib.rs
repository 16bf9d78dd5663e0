//! Offline, API-compatible subset of [proptest](https://crates.io/crates/proptest).
//!
//! The build environment has no access to a crates.io mirror, so this
//! crate provides the slice of proptest's surface the workspace's
//! property tests actually use: the [`proptest!`] macro, `prop_assert*`
//! / [`prop_assume!`], [`strategy::Strategy`] with ranges /
//! [`any`](arbitrary::any) / [`collection`] / [`prop_oneof!`] /
//! [`strategy::Just`], and `prop::sample::Index`.
//!
//! Differences from the real crate, accepted deliberately:
//!
//! * **no shrinking** — a failing case panics with the generated values
//!   in scope but is not minimised;
//! * **deterministic sampling** — each test's RNG is seeded from the
//!   test's name, so runs are reproducible without regression files
//!   (`*.proptest-regressions` files are ignored);
//! * strategies are sampled independently per case (no recursive /
//!   filtered strategies).

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Test-runner configuration and the deterministic case RNG.

    /// Subset of proptest's `Config` used by the workspace tests.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` generated inputs per test.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// xoshiro256** seeded from a test-name hash via SplitMix64 —
    /// self-contained so sampling never depends on external crates.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl TestRng {
        /// Deterministic RNG for a named test (FNV-1a of the name).
        pub fn deterministic(name: &str) -> TestRng {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            let mut sm = h;
            TestRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }

        /// Next raw 64 bits.
        pub fn next_u64(&mut self) -> u64 {
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

        /// Uniform in `[0, 1)`.
        pub fn f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform integer in `[0, n)`.
        pub fn below(&mut self, n: u64) -> u64 {
            assert!(n > 0, "TestRng::below(0)");
            // Multiply-shift; bias is irrelevant for test sampling.
            ((self.next_u64() as u128 * n as u128) >> 64) as u64
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;

    /// A generator of test values (sampling only; no shrinking).
    pub trait Strategy {
        /// The type of value this strategy yields.
        type Value;
        /// Sample one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    /// Strategy yielding a constant.
    #[derive(Debug, Clone, Copy)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice between boxed strategies (backs [`prop_oneof!`](crate::prop_oneof)).
    pub struct Union<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Union<T> {
        /// Build a union; panics if `options` is empty.
        pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }

    /// Box a strategy for [`Union`] (used by the `prop_oneof!` macro so
    /// type inference can unify the option list).
    pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
    where
        S: Strategy + 'static,
    {
        Box::new(s)
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                    if span == 0 {
                        // Full-width range: any value.
                        rng.next_u64() as $t
                    } else {
                        lo.wrapping_add(rng.below(span) as $t)
                    }
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + (self.end - self.start) * rng.f64()
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()` — canonical strategies for common types.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary {
        /// Sample an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// Strategy for the full domain of `T`.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Any<T>(core::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(core::marker::PhantomData)
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl<const N: usize> Arbitrary for [u8; N] {
        fn arbitrary(rng: &mut TestRng) -> [u8; N] {
            let mut out = [0u8; N];
            for b in out.iter_mut() {
                *b = rng.next_u64() as u8;
            }
            out
        }
    }
}

pub mod sample {
    //! `prop::sample` — index selection into runtime-sized collections.

    use crate::arbitrary::Arbitrary;
    use crate::test_runner::TestRng;

    /// A deferred index: generated without knowing the collection size,
    /// resolved against a length with [`Index::index`].
    #[derive(Debug, Clone, Copy)]
    pub struct Index(u64);

    impl Index {
        /// Resolve against a collection of `len` items (`len > 0`).
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Index {
            Index(rng.next_u64())
        }
    }
}

pub mod collection {
    //! `proptest::collection` — container strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeSet;

    /// Size specification: an exact length or a half-open/inclusive range.
    pub trait IntoSizeBounds {
        /// `(lo, hi)` half-open bounds.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeBounds for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self + 1)
        }
    }

    impl IntoSizeBounds for core::ops::Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            (self.start, self.end)
        }
    }

    impl IntoSizeBounds for core::ops::RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end() + 1)
        }
    }

    /// Strategy for `Vec<S::Value>` with a length in `size`.
    pub struct VecStrategy<S> {
        element: S,
        lo: usize,
        hi: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.lo + rng.below((self.hi - self.lo) as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `Vec` strategy with elements from `element` and length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeBounds) -> VecStrategy<S> {
        let (lo, hi) = size.bounds();
        assert!(lo < hi, "empty size range");
        VecStrategy { element, lo, hi }
    }

    /// Strategy for `BTreeSet<S::Value>` (duplicates collapse, so the
    /// produced set may be smaller than the drawn length).
    pub struct BTreeSetStrategy<S> {
        element: S,
        lo: usize,
        hi: usize,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let len = self.lo + rng.below((self.hi - self.lo) as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `BTreeSet` strategy with elements from `element`.
    pub fn btree_set<S: Strategy>(element: S, size: impl IntoSizeBounds) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        let (lo, hi) = size.bounds();
        assert!(lo < hi, "empty size range");
        BTreeSetStrategy { element, lo, hi }
    }
}

pub mod prelude {
    //! Everything a property test needs in scope.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest};

    /// The `prop::` namespace (`prop::sample::Index`, …).
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Define property tests: an optional `#![proptest_config(..)]` header
/// followed by `#[test] fn name(binding in strategy, ..) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($params:tt)* ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __proptest_rng =
                $crate::test_runner::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                let _ = __case;
                $crate::__proptest_case! { __proptest_rng, $body, $($params)* }
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

/// Run one generated case's body; `prop_assume!` leaves it early with
/// `ControlFlow::Break`, which skips the case.
#[doc(hidden)]
pub fn __run_case(body: impl FnOnce() -> core::ops::ControlFlow<()>) {
    let _ = body();
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_case {
    ( $rng:ident, $body:block, $(,)? ) => {
        $crate::__run_case(|| -> ::core::ops::ControlFlow<()> {
            $body
            #[allow(unreachable_code)]
            ::core::ops::ControlFlow::Continue(())
        });
    };
    ( $rng:ident, $body:block, mut $pname:ident in $strat:expr $(, $($rest:tt)*)? ) => {
        #[allow(unused_mut)]
        let mut $pname = $crate::strategy::Strategy::generate(&($strat), &mut $rng);
        $crate::__proptest_case! { $rng, $body, $($($rest)*)? }
    };
    ( $rng:ident, $body:block, $pname:ident in $strat:expr $(, $($rest:tt)*)? ) => {
        let $pname = $crate::strategy::Strategy::generate(&($strat), &mut $rng);
        $crate::__proptest_case! { $rng, $body, $($($rest)*)? }
    };
}

/// Assert a condition inside a property test (panics on failure; this
/// subset does not shrink).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { ::core::assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { ::core::assert!($cond, $($fmt)*) };
}

/// Assert equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { ::core::assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { ::core::assert_eq!($a, $b, $($fmt)*) };
}

/// Assert inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { ::core::assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { ::core::assert_ne!($a, $b, $($fmt)*) };
}

/// Skip the current generated case when its precondition fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::ops::ControlFlow::Break(());
        }
    };
}

/// Uniform choice among strategies yielding the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($item:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![$($crate::strategy::boxed($item)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_rng_reproducible() {
        let mut a = crate::test_runner::TestRng::deterministic("x");
        let mut b = crate::test_runner::TestRng::deterministic("x");
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u8..7, y in -2.0f64..2.0, z in 0usize..=4) {
            prop_assert!((3..7).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
            prop_assert!(z <= 4);
        }

        #[test]
        fn vec_sizes_honoured(v in prop::collection::vec(any::<u8>(), 2..5),
                              w in prop::collection::vec(0u8..=1, 6)) {
            prop_assert!((2..5).contains(&v.len()));
            prop_assert_eq!(w.len(), 6);
            prop_assert!(w.iter().all(|&b| b <= 1));
        }

        #[test]
        fn oneof_and_index(pick in prop_oneof![Just(1u32), Just(2), Just(3)],
                           sel in any::<prop::sample::Index>()) {
            prop_assert!((1..=3).contains(&pick));
            prop_assert!(sel.index(10) < 10);
        }

        #[test]
        fn assume_skips(n in 0u64..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
            prop_assert_ne!(n, 1);
        }
    }
}
