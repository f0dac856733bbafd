//! Offline stand-in for the subset of the `proptest` API the LS3DF
//! workspace uses: the `proptest!` macro, `prop_assert!`-family macros,
//! range/tuple strategies, `prop_map`/`prop_flat_map`,
//! `prop::collection::vec`, and `prop::array::uniform3`.
//!
//! Cases are generated from a **fixed seed** (deterministic across runs),
//! so a failure reproduces by just re-running the test. There is no shrinking:
//! on failure the macro panics with the case number and the assertion
//! message. The default case count is 64 per test (the real proptest uses
//! 256); tests override it with `ProptestConfig::with_cases`.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
pub mod strategy {
    //! The [`Strategy`] trait and its combinators.

    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated value type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f` builds
        /// out of it (dependent generation).
        fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Strategy returned by [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let offset = (rng.next_u64() as u128 % span) as i128;
                    (self.start as i128 + offset) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start() <= self.end(), "empty range strategy");
                    let span = (*self.end() as i128 - *self.start() as i128) as u128 + 1;
                    let offset = (rng.next_u64() as u128 % span) as i128;
                    (*self.start() as i128 + offset) as $t
                }
            }
        )*};
    }
    int_range_strategy!(usize, u64, u32, i64, i32);

    macro_rules! float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    self.start + (rng.unit_f64() as $t) * (self.end - self.start)
                }
            }
        )*};
    }
    float_range_strategy!(f64, f32);

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
}

pub mod collection {
    //! Collection strategies (`prop::collection`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// A vector length specification: exact, or uniform in a range.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                min: n,
                max_exclusive: n + 1,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec-length range");
            SizeRange {
                min: r.start,
                max_exclusive: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max_exclusive: *r.end() + 1,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `prop::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_exclusive - self.size.min) as u64;
            let len = self.size.min + (rng.next_u64() % span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod array {
    //! Fixed-size array strategies (`prop::array`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `[S::Value; 3]` with i.i.d. elements.
    pub struct UniformArray3<S> {
        element: S,
    }

    /// `prop::array::uniform3(element)`.
    pub fn uniform3<S: Strategy>(element: S) -> UniformArray3<S> {
        UniformArray3 { element }
    }

    impl<S: Strategy> Strategy for UniformArray3<S> {
        type Value = [S::Value; 3];
        fn generate(&self, rng: &mut TestRng) -> [S::Value; 3] {
            std::array::from_fn(|_| self.element.generate(rng))
        }
    }
}

pub mod test_runner {
    //! Case generation and execution.

    /// Per-test configuration.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases per test.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// A failed property assertion.
    #[derive(Debug)]
    pub struct TestCaseError {
        /// Human-readable failure description.
        pub message: String,
    }

    impl TestCaseError {
        /// Builds a failure from any message.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    /// Deterministic per-case random source (splitmix64).
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the generator.
        pub fn new(seed: u64) -> Self {
            TestRng {
                state: seed ^ 0x5DEECE66D,
            }
        }

        /// The next 64 uniformly random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Runs the cases of one `proptest!` test function.
    pub struct TestRunner {
        config: ProptestConfig,
    }

    impl TestRunner {
        /// Builds a runner with the given config.
        pub fn new(config: ProptestConfig) -> Self {
            TestRunner { config }
        }

        /// Runs `body` once per case with a per-case deterministic RNG;
        /// panics (with the case index, so the failure is reproducible by
        /// re-running) on the first `Err`.
        #[expect(
            clippy::panic,
            reason = "test-harness shim: a failing property must panic the enclosing #[test] exactly like upstream proptest"
        )]
        pub fn run(&mut self, mut body: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>) {
            for case in 0..self.config.cases {
                let mut rng = TestRng::new(0x1_5EED_u64.wrapping_mul(case as u64 + 1));
                if let Err(e) = body(&mut rng) {
                    panic!(
                        "proptest case {}/{} failed: {}",
                        case + 1,
                        self.config.cases,
                        e.message
                    );
                }
            }
        }
    }
}

/// Everything the workspace imports via `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// The `prop::` module path used inside `proptest!` bodies.
    pub mod prop {
        pub use crate::array;
        pub use crate::collection;
    }
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over generated cases.
#[macro_export]
macro_rules! proptest {
    {
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    } => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    { $($rest:tt)* } => {
        $crate::__proptest_impl! {
            cfg = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

/// Internal expansion of [`proptest!`] — one test function per iteration.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    { cfg = $cfg:expr; } => {};
    {
        cfg = $cfg:expr;
        $(#[$meta:meta])+
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    } => {
        $(#[$meta])+
        fn $name() {
            let mut runner = $crate::test_runner::TestRunner::new($cfg);
            $(let $arg = $strat;)+
            runner.run(|__rng| {
                $(let $arg = $crate::strategy::Strategy::generate(&$arg, __rng);)+
                $body
                #[allow(unreachable_code)]
                Ok(())
            });
        }
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "fmt", ...)`: fails the
/// current case (without aborting the process) when `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if $cond {
        } else {
            return Err($crate::test_runner::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if $cond {
        } else {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// `prop_assert_eq!(a, b)`: fails the current case when `a != b`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(lhs == rhs) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {:?} == {:?}",
                lhs, rhs
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(lhs == rhs) {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

/// `prop_assert_ne!(a, b)`: fails the current case when `a == b`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (lhs, rhs) = (&$a, &$b);
        if lhs == rhs {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {:?} != {:?}",
                lhs, rhs
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        if lhs == rhs {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::new(1);
        for _ in 0..1000 {
            let x = (3usize..17).generate(&mut rng);
            assert!((3..17).contains(&x));
            let y = (1usize..=4).generate(&mut rng);
            assert!((1..=4).contains(&y));
            let f = (-2.0..3.0f64).generate(&mut rng);
            assert!((-2.0..3.0).contains(&f));
            let n = (-5i64..5).generate(&mut rng);
            assert!((-5..5).contains(&n));
        }
    }

    #[test]
    fn vec_strategy_lengths() {
        let mut rng = TestRng::new(2);
        let s = crate::collection::vec(0u64..10, 3usize);
        assert_eq!(s.generate(&mut rng).len(), 3);
        let s = crate::collection::vec(0u64..10, 1usize..5);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((1..5).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn macro_roundtrip(a in 0u64..100, pair in (0.0..1.0f64, 1usize..=3)) {
            prop_assert!(a < 100);
            let (f, n) = pair;
            prop_assert!(f < 1.0, "f out of range: {f}");
            prop_assert_ne!(n, 0);
            prop_assert_eq!(n.min(3), n);
        }
    }

    proptest! {
        #[test]
        fn flat_map_dependent_generation(v in (1usize..=5).prop_flat_map(|n| {
            crate::collection::vec(0u64..10, n).prop_map(move |v| (n, v))
        })) {
            let (n, v) = v;
            prop_assert_eq!(v.len(), n);
        }
    }
}
