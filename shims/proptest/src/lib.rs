//! Minimal, API-compatible subset of the `proptest` property-testing crate.
//!
//! The build environment has no registry access, so the workspace vendors the
//! surface `tests/proptest_passes.rs` uses: the [`strategy::Strategy`] trait
//! with `prop_map`/`prop_recursive`, integer-range strategies, tuple
//! strategies, [`collection::vec`], [`array::uniform2`], [`prop_oneof!`], the
//! [`proptest!`] test macro with `#![proptest_config(..)]`, and the
//! `prop_assert*` macros.
//!
//! Differences from real proptest: no shrinking (a failing case prints its
//! seed and inputs via the normal panic message instead of a minimized one),
//! and generation is driven by a deterministic SplitMix64 stream so CI runs
//! are reproducible. Set `PROPTEST_SEED=<u64>` to explore a different stream.

pub mod array;
pub mod collection;
pub mod strategy;
pub mod test_runner;

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.

    pub use crate::strategy::{BoxedStrategy, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};

    /// Mirrors `proptest::prelude::prop`, the module alias used for
    /// `prop::collection::vec(..)` and `prop::array::uniform2(..)`.
    pub mod prop {
        pub use crate::array;
        pub use crate::collection;
    }
}

/// Picks one of several same-valued strategies uniformly at random.
///
/// Weighted arms (`weight => strategy`) are not supported by this shim.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {{
        $crate::strategy::union(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    }};
}

/// Property assertion: this shim maps directly onto [`assert!`].
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Property assertion: this shim maps directly onto [`assert_eq!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Declares `#[test]` functions whose arguments are drawn from strategies.
///
/// Supports the two shapes the workspace uses:
///
/// ```text
/// proptest! {
///     #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]
///     #[test]
///     fn my_property(x in 0i32..100, v in prop::collection::vec(0u8..5, 1..4)) { .. }
/// }
/// ```
///
/// with the config line optional.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@funcs ($config) $($rest)*);
    };
    (@funcs ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let mut rng = $crate::test_runner::TestRng::from_env(stringify!($name));
            for case in 0..config.cases {
                let case_seed = rng.next_u64();
                let mut case_rng = $crate::test_runner::TestRng::new(case_seed);
                $(let $arg = $crate::strategy::Strategy::sample(&$strategy, &mut case_rng);)+
                let run = move || {
                    $(let $arg = $arg;)+
                    $body
                };
                if let Err(panic) = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(run)) {
                    eprintln!(
                        "proptest shim: case {}/{} of `{}` failed (case seed {:#x}); \
                         no shrinking — inputs are in the panic message",
                        case + 1, config.cases, stringify!($name), case_seed,
                    );
                    ::std::panic::resume_unwind(panic);
                }
            }
        }
        $crate::proptest!(@funcs ($config) $($rest)*);
    };
    (@funcs ($config:expr)) => {};
    ($($rest:tt)*) => {
        $crate::proptest!(@funcs ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Tree {
        Leaf(i32),
        Node(Box<Tree>, Box<Tree>),
    }

    fn depth(t: &Tree) -> u32 {
        match t {
            Tree::Leaf(_) => 0,
            Tree::Node(a, b) => 1 + depth(a).max(depth(b)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        #[test]
        fn ranges_stay_in_bounds(x in -50i32..50, y in 1u8..=7, n in 0usize..3) {
            prop_assert!((-50..50).contains(&x));
            prop_assert!((1..=7).contains(&y));
            prop_assert!(n < 3);
        }

        #[test]
        fn collections_respect_length(v in prop::collection::vec(0i32..10, 2..5)) {
            prop_assert!((2..5).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| (0..10).contains(&x)));
        }

        #[test]
        fn arrays_and_tuples_compose(pair in (0i32..4, 10i32..14), a in prop::array::uniform2(-3i32..3)) {
            prop_assert!((0..4).contains(&pair.0) && (10..14).contains(&pair.1));
            prop_assert!(a.iter().all(|&x| (-3..3).contains(&x)));
        }

        #[test]
        fn recursive_strategies_bound_depth(
            t in (0i32..10).prop_map(Tree::Leaf).prop_recursive(3, 8, 2, |inner| {
                (inner.clone(), inner).prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b)))
            })
        ) {
            prop_assert!(depth(&t) <= 3, "depth {} for {:?}", depth(&t), t);
        }

        #[test]
        fn oneof_hits_every_arm_eventually(x in prop_oneof![0i32..1, 10i32..11, 20i32..21]) {
            prop_assert!(x == 0 || x == 10 || x == 20);
        }
    }

    #[test]
    fn deterministic_without_env_override() {
        let sample = |run: u32| {
            let _ = run;
            let mut rng = TestRng::from_env("deterministic_without_env_override");
            let strat = prop::collection::vec(0i32..1000, 3..4);
            strat.sample(&mut rng)
        };
        assert_eq!(sample(0), sample(1));
    }
}
