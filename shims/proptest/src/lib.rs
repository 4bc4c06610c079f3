//! Offline stand-in for the `proptest` crate.
//!
//! The build container cannot reach crates.io, so this shim implements
//! the subset of proptest the workspace's property tests use: the
//! [`proptest!`] macro over named `arg in strategy` bindings, numeric
//! range and tuple strategies, [`strategy::any`], `collection::vec`,
//! `ProptestConfig::with_cases`, and the `prop_assert*` / `prop_assume!`
//! macros.
//!
//! Semantics differ from real proptest in one deliberate way: cases are
//! sampled from a deterministic per-test RNG without shrinking. A
//! failing case therefore reports the sampled inputs but not a minimal
//! counterexample. For a reproduction codebase gated in CI, deterministic
//! replay matters more than shrinking.

pub mod strategy;

/// Outcome of one property case body.
#[derive(Debug)]
pub enum TestCaseError {
    /// An assertion failed with the given message.
    Fail(String),
    /// `prop_assume!` rejected the inputs; the case is skipped.
    Reject,
}

impl TestCaseError {
    /// Builds the failure variant (used by the `prop_assert*` macros).
    pub fn fail(message: String) -> Self {
        TestCaseError::Fail(message)
    }
}

/// Runner configuration, mirroring `proptest::test_runner::Config`.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of sampled cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Drives the sampled cases of one property (used by [`proptest!`]).
#[derive(Debug)]
pub struct TestRunner {
    config: ProptestConfig,
    seed: u64,
    name: &'static str,
}

impl TestRunner {
    /// Creates a runner whose RNG stream is derived from the test name,
    /// so every property gets an independent, stable stream.
    pub fn new(config: ProptestConfig, name: &'static str) -> Self {
        let mut seed = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over the name
        for b in name.bytes() {
            seed ^= b as u64;
            seed = seed.wrapping_mul(0x1000_0000_01b3);
        }
        TestRunner { config, seed, name }
    }

    /// Number of cases to run.
    pub fn cases(&self) -> u32 {
        self.config.cases
    }

    /// The RNG for one case index.
    pub fn rng_for_case(&self, case: u32) -> strategy::SampleRng {
        strategy::SampleRng::new(
            self.seed ^ ((case as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        )
    }

    /// Reports one case outcome, panicking on failure.
    ///
    /// # Panics
    ///
    /// Panics (failing the enclosing `#[test]`) when the case failed.
    pub fn handle(&self, case: u32, result: Result<(), TestCaseError>) {
        match result {
            Ok(()) | Err(TestCaseError::Reject) => {}
            Err(TestCaseError::Fail(msg)) => {
                panic!("property {} failed at case {case}: {msg}", self.name)
            }
        }
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use crate::strategy::{SampleRng, Strategy};

    /// Length specification for [`vec()`]: an exact size or a range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> Self {
            SizeRange { lo: exact, hi: exact + 1 }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "vec size range must be non-empty");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() + 1 }
        }
    }

    /// Strategy for a `Vec` of `element` samples with a length drawn
    /// from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut SampleRng) -> Self::Value {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + (rng.next_u64() % span.max(1)) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// The glob-import surface (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, ProptestConfig,
        TestCaseError,
    };
}

/// Defines sampled property tests; see the crate docs for the supported
/// subset.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_items! { config = ($cfg); $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_items! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( config = ($cfg:expr); ) => {};
    (
        config = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let runner = $crate::TestRunner::new($cfg, stringify!($name));
            for case in 0..runner.cases() {
                let mut rng = runner.rng_for_case(case);
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)+
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                runner.handle(case, outcome);
            }
        }
        $crate::__proptest_items! { config = ($cfg); $($rest)* }
    };
}

/// `assert!` that reports through the property runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// `assert_eq!` that reports through the property runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

/// `assert_ne!` that reports through the property runner.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, $($fmt)+);
    }};
}

/// Skips the current case when its sampled inputs are uninteresting.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_tuples_sample_in_bounds(
            x in 0u32..10,
            (a, b, flip) in (0usize..4, -1.0f64..1.0, any::<bool>()),
            v in collection::vec(0u64..100, 1..8)
        ) {
            prop_assert!(x < 10);
            prop_assert!(a < 4);
            prop_assert!((-1.0..1.0).contains(&b));
            prop_assert!(usize::from(flip) <= 1);
            prop_assert!(!v.is_empty() && v.len() < 8);
            prop_assert!(v.iter().all(|e| *e < 100));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]
        #[test]
        fn config_and_assume_work(x in 0i32..100) {
            prop_assume!(x != 3);
            prop_assert_ne!(x, 3);
            prop_assert_eq!(x, x);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_case_index() {
        proptest! {
            #[allow(dead_code)]
            fn always_fails(x in 0u32..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }

    #[test]
    fn sampling_is_deterministic_per_test_name() {
        let runner = TestRunner::new(ProptestConfig::default(), "stable");
        let mut a = runner.rng_for_case(0);
        let mut b = runner.rng_for_case(0);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = runner.rng_for_case(1);
        assert_ne!(runner.rng_for_case(0).next_u64(), c.next_u64());
    }

    use crate::{ProptestConfig, TestRunner};
}
