//! Offline drop-in subset of `proptest`.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the property-testing surface its test suites use: the [`proptest!`]
//! macro (with `#![proptest_config(...)]` headers and multiple `#[test]`
//! functions per invocation), [`Strategy`] with `prop_map` /
//! `prop_flat_map` / `prop_filter`, integer and float range strategies,
//! tuples, [`Just`], `any::<T>()`, `prop::collection::vec`,
//! `prop::option::of`, [`prop_oneof!`], and the `prop_assert*` /
//! [`prop_assume!`] macros.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **No shrinking** — a failing case reports the case number and the
//!   assertion message, not a minimized input. Generation is deterministic
//!   (seeded from the test function's name), so a failure reproduces
//!   exactly on rerun.
//! * **No regression-file persistence** — `.proptest-regressions` files
//!   are ignored.
//! * [`prop_assume!`] skips the case (counts it as passed) instead of
//!   drawing a replacement input.

use std::ops::{Range, RangeInclusive};

/// A generator of values of type [`Strategy::Value`].
///
/// Unlike real proptest there is no value tree: strategies produce final
/// values directly from the deterministic [`TestRng`].
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Derive a second strategy from each generated value.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Keep only values satisfying `pred`, retrying generation (bounded;
    /// panics if the predicate looks unsatisfiable).
    fn prop_filter<F>(self, whence: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            whence,
            pred,
        }
    }
}

impl<V> Strategy for Box<dyn Strategy<Value = V>> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

/// Box a strategy (used by [`prop_oneof!`]; a fn rather than an `as` cast
/// so the element type can stay inferred).
pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
where
    S: Strategy + 'static,
{
    Box::new(s)
}

/// Strategy that always yields a clone of its value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    pred: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..10_000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter({:?}): no satisfying value in 10000 attempts",
            self.whence
        );
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128) - (self.start as i128);
                assert!(span > 0, "empty integer range strategy");
                (self.start as i128 + rng.below(span as u64) as i128) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (*self.end() as i128) - (*self.start() as i128) + 1;
                assert!(span > 0, "empty integer range strategy");
                (*self.start() as i128 + rng.below(span as u64) as i128) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.f64_unit() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start() + rng.f64_unit() * (self.end() - self.start())
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G)
}

/// Types with a canonical whole-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Generate an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Strategy over the whole domain of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// See [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{SizeRange, Strategy, TestRng};

    /// Vectors of `element` values with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_incl - self.size.min + 1) as u64;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Option strategies (`prop::option::of`).
pub mod option {
    use super::{Strategy, TestRng};

    /// `None` or `Some(inner)` with equal probability.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 1 == 1 {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

/// Inclusive length bounds for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max_incl: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.end > r.start, "empty size range");
        Self {
            min: r.start,
            max_incl: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        Self {
            min: *r.start(),
            max_incl: *r.end(),
        }
    }
}

/// Uniform choice among boxed same-valued strategies ([`prop_oneof!`]).
pub struct OneOf<V> {
    choices: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> OneOf<V> {
    /// Build from the macro-collected choices.
    pub fn new(choices: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
        assert!(!choices.is_empty(), "prop_oneof! needs at least one choice");
        Self { choices }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.choices.len() as u64) as usize;
        self.choices[i].generate(rng)
    }
}

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per test function.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// A failed `prop_assert*` inside a test case.
#[derive(Debug)]
pub struct TestCaseError {
    msg: String,
}

impl TestCaseError {
    /// Build from an assertion message.
    pub fn fail(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

/// Deterministic RNG (splitmix64). Seeded from the test name so every run
/// of a given test sees the same case sequence.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeded RNG.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        // Modulo bias is irrelevant at test-generation quality.
        self.next_u64() % n
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Drives the case loop for one `proptest!` function.
pub struct TestRunner {
    rng: TestRng,
    cases: u32,
}

impl TestRunner {
    /// Runner for the named test under `config`.
    pub fn new(config: ProptestConfig, name: &str) -> Self {
        // FNV-1a over the test name: stable, deterministic seeds.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self {
            rng: TestRng::new(h),
            cases: config.cases,
        }
    }

    /// Number of cases to run.
    pub fn cases(&self) -> u32 {
        self.cases
    }

    /// The case RNG (one continuous stream across cases).
    pub fn rng(&mut self) -> &mut TestRng {
        &mut self.rng
    }
}

/// Everything the tests `use proptest::prelude::*` for.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestCaseError,
    };

    /// The `prop::` namespace (`prop::collection::vec`, `prop::option::of`).
    pub mod prop {
        pub use crate::{collection, option};
    }
}

/// Define property tests. Each `#[test] fn name(pat in strategy, ...) { .. }`
/// becomes a normal test running [`ProptestConfig::cases`] generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Implementation detail of [`proptest!`]: munches one test fn at a time.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$attr:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __runner = $crate::TestRunner::new(__cfg, stringify!($name));
            for __case in 0..__runner.cases() {
                $(let $arg = $crate::Strategy::generate(&($strat), __runner.rng());)+
                let __result: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = __result {
                    panic!(
                        "proptest case {}/{} failed: {}",
                        __case + 1,
                        __runner.cases(),
                        e
                    );
                }
            }
        }
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
}

/// Assert inside a proptest body (fails the case, not the process).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Assert equality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                __l,
                __r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+),
                __l,
                __r
            )));
        }
    }};
}

/// Skip the current case when its precondition does not hold. Unlike real
/// proptest the case is not replaced; it counts as passed.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($choice:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$($crate::boxed($choice)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_hit_their_bounds() {
        let mut rng = crate::TestRng::new(7);
        for _ in 0..200 {
            let v = crate::Strategy::generate(&(3u8..6), &mut rng);
            assert!((3..6).contains(&v));
            let w = crate::Strategy::generate(&(10i32..=10), &mut rng);
            assert_eq!(w, 10);
            let f = crate::Strategy::generate(&(-1.0f64..1.0), &mut rng);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = crate::TestRng::new(42);
        let mut b = crate::TestRng::new(42);
        let s = prop::collection::vec(0u64..100, 5..10);
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_generates_and_asserts(
            v in prop::collection::vec(any::<u8>(), 0..20),
            flag in any::<bool>(),
            choice in prop_oneof![Just(1u8), Just(2), 5u8..9],
        ) {
            prop_assert!(v.len() < 20);
            prop_assert_eq!(flag, flag);
            prop_assert!(choice == 1 || choice == 2 || (5..9).contains(&choice), "bad {choice}");
        }

        #[test]
        fn flat_map_and_filter_compose(
            x in (1usize..4).prop_flat_map(|n| prop::collection::vec(0u32..10, n..=n))
                .prop_filter("nonempty", |v| !v.is_empty()),
        ) {
            prop_assert!((1..4).contains(&x.len()));
        }
    }
}
