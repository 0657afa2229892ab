//! Offline compat stand-in for the
//! [`proptest`](https://crates.io/crates/proptest) crate.
//!
//! Keeps the `proptest! { #[test] fn name(x in strategy, ...) { body } }`
//! surface this workspace's property tests are written against, driven by a
//! deterministic seeded generator. Differences from real proptest, by
//! design: no shrinking (a failing case prints its inputs via the panic
//! message instead), a fixed case count, and only the strategy combinators
//! the workspace actually uses — ranges, `any::<T>()`, tuples,
//! `collection::vec`, and `collection::hash_set`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of random cases each property runs.
pub const CASES: u32 = 64;

/// The RNG handed to strategies.
pub type TestRng = StdRng;

/// A generator of random values (compat stand-in for
/// `proptest::strategy::Strategy`).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A0: 0)
    (A0: 0, A1: 1)
    (A0: 0, A1: 1, A2: 2)
    (A0: 0, A1: 1, A2: 2, A3: 3)
}

/// Types with a canonical "draw anything" strategy, used by [`any`].
pub trait Arbitrary {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.random()
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.random::<$t>()
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Finite, sign-balanced, wide dynamic range: adequate for the
        // numeric properties in this workspace.
        let magnitude: f64 = rng.random_range(-1e9f64..1e9);
        magnitude
    }
}

/// The strategy returned by [`any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()`: the canonical strategy for `T`.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Collection strategies (compat subset of `proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::collections::HashSet;
    use std::hash::Hash;
    use std::ops::{Range, RangeInclusive};

    /// Length specifications accepted by [`vec()`] and [`hash_set`]:
    /// a fixed `usize`, `lo..hi`, or `lo..=hi`.
    pub trait SizeSpec {
        /// Draws a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
        /// The smallest admissible length.
        fn min_len(&self) -> usize;
    }

    impl SizeSpec for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }

        fn min_len(&self) -> usize {
            *self
        }
    }

    impl SizeSpec for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.random_range(self.clone())
        }

        fn min_len(&self) -> usize {
            self.start
        }
    }

    impl SizeSpec for RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.random_range(self.clone())
        }

        fn min_len(&self) -> usize {
            *self.start()
        }
    }

    /// Strategy for `Vec<T>` with lengths drawn from `size`.
    pub struct VecStrategy<S, Z> {
        element: S,
        size: Z,
    }

    impl<S: Strategy, Z: SizeSpec> Strategy for VecStrategy<S, Z> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector strategy: `vec(element, 9)`, `vec(element, 1..200)`,
    /// `vec(element, 0..=8)`.
    pub fn vec<S: Strategy, Z: SizeSpec>(element: S, size: Z) -> VecStrategy<S, Z> {
        VecStrategy { element, size }
    }

    /// Strategy for `HashSet<T>`.
    pub struct HashSetStrategy<S, Z> {
        element: S,
        size: Z,
    }

    impl<S, Z> Strategy for HashSetStrategy<S, Z>
    where
        S: Strategy,
        S::Value: Eq + Hash,
        Z: SizeSpec,
    {
        type Value = HashSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let target = self.size.pick(rng);
            let mut set = HashSet::with_capacity(target);
            // Duplicates shrink the set below target; retry a bounded
            // number of times so tiny domains cannot loop forever.
            let mut attempts = 0usize;
            while set.len() < target && attempts < target.saturating_mul(64) + 64 {
                set.insert(self.element.generate(rng));
                attempts += 1;
            }
            set
        }
    }

    /// A hash-set strategy with the set size drawn from `size`.
    pub fn hash_set<S, Z>(element: S, size: Z) -> HashSetStrategy<S, Z>
    where
        S: Strategy,
        S::Value: Eq + Hash,
        Z: SizeSpec,
    {
        HashSetStrategy { element, size }
    }
}

/// Everything a `proptest!` test needs in scope.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{any, Arbitrary, Strategy, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Runs `body` against `CASES` deterministic random inputs. Used by the
/// [`proptest!`] macro; public so the generated code can reach it.
pub fn run_cases<F: FnMut(&mut TestRng)>(test_name: &str, mut body: F) {
    // Seed differs per test (via the name) but is stable across runs.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in test_name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    for case in 0..CASES {
        let mut rng = TestRng::seed_from_u64(hash ^ (u64::from(case) << 32));
        body(&mut rng);
    }
}

/// Compat subset of `proptest::proptest!`: a sequence of `#[test]`
/// functions whose arguments are drawn from strategies.
#[macro_export]
macro_rules! proptest {
    () => {};
    (
        $(#[$meta:meta])*
        fn $name:ident($($params:tt)*) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::run_cases(stringify!($name), |__proptest_rng| {
                $crate::__prop_bind!(__proptest_rng, $($params)*);
                $body
            });
        }
        $crate::proptest! { $($rest)* }
    };
}

/// Internal helper expanding `pat in strategy` parameter lists.
#[doc(hidden)]
#[macro_export]
macro_rules! __prop_bind {
    ($rng:ident $(,)?) => {};
    ($rng:ident, $pat:pat in $strategy:expr, $($rest:tt)*) => {
        let $pat = $crate::Strategy::generate(&($strategy), $rng);
        $crate::__prop_bind!($rng, $($rest)*);
    };
    ($rng:ident, $pat:pat in $strategy:expr) => {
        let $pat = $crate::Strategy::generate(&($strategy), $rng);
    };
}

/// Compat `prop_assume!`: discards the current case when the assumption
/// fails (early return from the per-case closure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return;
        }
    };
}

/// Compat `prop_assert!`: plain `assert!` (no shrinking to report).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Compat `prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Compat `prop_assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_hold(x in 0u32..10, y in -1.0f64..1.0, flag in any::<bool>()) {
            prop_assert!(x < 10);
            prop_assert!((-1.0..1.0).contains(&y));
            let _ = flag;
        }

        #[test]
        fn vectors_hold(xs in collection::vec(0u8..4, 1..20)) {
            prop_assert!(!xs.is_empty() && xs.len() < 20);
            prop_assert!(xs.iter().all(|&b| b < 4));
        }

        #[test]
        fn hash_sets_hold(ids in collection::hash_set(0u32..1000, 2..6)) {
            prop_assert!(ids.len() >= 2 && ids.len() < 6);
        }

        #[test]
        fn tuples_hold(entries in collection::vec((0u64..5000, 0u32..1000), 1..10)) {
            for (a, b) in entries {
                prop_assert!(a < 5000);
                prop_assert!(b < 1000);
            }
        }
    }

    #[test]
    fn determinism() {
        let mut first = Vec::new();
        crate::run_cases("determinism", |rng| {
            first.push(crate::Strategy::generate(&(0u64..1_000_000), rng));
        });
        let mut second = Vec::new();
        crate::run_cases("determinism", |rng| {
            second.push(crate::Strategy::generate(&(0u64..1_000_000), rng));
        });
        assert_eq!(first, second);
        assert_eq!(first.len(), crate::CASES as usize);
    }
}
