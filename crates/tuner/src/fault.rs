//! Failure classification and deterministic fault injection.
//!
//! Tuning-as-a-service evaluates millions of candidates on untrusted
//! programs, and a candidate can fail in structurally different ways: the
//! program text may not parse, a pass may produce unverifiable IR, codegen
//! may reject the module, the candidate may trap or blow its cycle budget at
//! run time, it may *diverge* from the baseline (the miscompile channel that
//! surfaced the paper's SP1 soundness bug), or the evaluator itself may
//! panic. [`FailureClass`] is the service-side vocabulary for those
//! outcomes: it is what the fitness cache stores for failing candidates,
//! what the quarantine log records, and what the retry policy keys on
//! ([`FailureClass::is_transient`]).
//!
//! The second half of this module is the chaos harness. [`FaultPlan`] wraps
//! any fitness function and injects panics, traps, budget blowouts, and
//! corrupted fitness values at configured rates — **deterministically**.
//! Every injection decision is a pure hash of `(seed, workload, canonical
//! candidate)`, and transient faults are injected a bounded number of times
//! per candidate (at most [`FaultConfig::max_injections`], which must not
//! exceed the service's retry budget). A shared per-candidate injection
//! counter guarantees that no matter how worker threads interleave, the
//! retry loop of *some* caller always reaches the true fitness value, so a
//! service run under non-corrupting faults converges to a bit-identical
//! tune database versus the fault-free run — the property the release-only
//! chaos tests pin.

use crate::rng::SeedTree;
use crate::{canonicalize_sequence, lock_unpoisoned, Candidate};
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// Why a candidate evaluation failed, as stored in the fitness cache, the
/// quarantine log, and checkpoint files. Mirrors `zkvmopt_core`'s
/// `PipelineError` taxonomy one stage at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FailureClass {
    /// The program text failed to lex or parse.
    Parse,
    /// The optimized module failed IR verification (a pass bug).
    Verify,
    /// RISC-V code generation rejected the module.
    Codegen,
    /// The candidate trapped at run time (memory fault, bad jump target).
    Trap,
    /// The candidate exceeded its cycle or code-size budget.
    Budget,
    /// The candidate changed observable behaviour vs the baseline
    /// (journal or exit code) — a miscompile.
    Divergence,
    /// The evaluator panicked; caught and isolated by the service.
    Panic,
}

/// A candidate evaluation outcome: measured cycles, or why it failed.
pub type EvalResult = Result<u64, FailureClass>;

impl FailureClass {
    /// Every class, in serialization order.
    pub const ALL: [FailureClass; 7] = [
        FailureClass::Parse,
        FailureClass::Verify,
        FailureClass::Codegen,
        FailureClass::Trap,
        FailureClass::Budget,
        FailureClass::Divergence,
        FailureClass::Panic,
    ];

    /// Stable one-word token used in quarantine logs and checkpoint files.
    pub fn token(self) -> &'static str {
        match self {
            FailureClass::Parse => "parse",
            FailureClass::Verify => "verify",
            FailureClass::Codegen => "codegen",
            FailureClass::Trap => "trap",
            FailureClass::Budget => "budget",
            FailureClass::Divergence => "divergence",
            FailureClass::Panic => "panic",
        }
    }

    /// Inverse of [`FailureClass::token`].
    pub fn from_token(s: &str) -> Option<FailureClass> {
        FailureClass::ALL.into_iter().find(|c| c.token() == s)
    }

    /// Whether the service retry policy should re-attempt this failure.
    /// Compile-stage outcomes (parse/verify/codegen) and divergence are
    /// deterministic functions of the candidate — retrying them burns
    /// budget for the same answer. Panics, traps, and budget blowouts can
    /// be environmental (or injected), so they get bounded retries.
    pub fn is_transient(self) -> bool {
        matches!(
            self,
            FailureClass::Panic | FailureClass::Trap | FailureClass::Budget
        )
    }
}

impl fmt::Display for FailureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// Injection rates for [`FaultPlan`], each in `[0, 1]`.
///
/// Panic, trap, and budget faults are **transient**: a faulted candidate is
/// injected at most [`FaultConfig::max_injections`] times and then returns
/// its true fitness, so a retrying service converges to the fault-free
/// result. Corruption is **persistent**: a corrupted candidate always
/// returns the same deterministic wrong value — it models a fault the
/// service cannot detect or retry away, and is kept out of the
/// bit-identical-convergence tests by construction.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed for the injection hash (independent of the search seed).
    pub seed: u64,
    /// Fraction of candidates whose evaluation panics (via unwind).
    pub panic_rate: f64,
    /// Fraction of candidates that report [`FailureClass::Trap`].
    pub trap_rate: f64,
    /// Fraction of candidates that report [`FailureClass::Budget`].
    pub budget_rate: f64,
    /// Fraction of candidates whose fitness is silently corrupted.
    pub corrupt_rate: f64,
    /// Times a transient fault fires per candidate before the true value
    /// comes through. Must be ≤ the service's `max_retries` for the
    /// bit-identical-convergence guarantee to hold.
    pub max_injections: u32,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            seed: 0xFA_017,
            panic_rate: 0.0,
            trap_rate: 0.0,
            budget_rate: 0.0,
            corrupt_rate: 0.0,
            max_injections: 2,
        }
    }
}

/// What the plan decided for one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Injection {
    None,
    /// Unwind the evaluation (caught by the service's panic isolation).
    Panic,
    Fail(FailureClass),
    /// Persistently return this wrong fitness value.
    Corrupt(u64),
}

/// A deterministic chaos wrapper around a fitness function.
///
/// Decisions derive from a [`SeedTree`] stream of the configured seed and a
/// hash of `(workload index, canonical candidate)`, so the same plan makes
/// the same decisions in every run, at any thread count, and across a
/// kill/resume boundary.
#[derive(Debug)]
pub struct FaultPlan {
    config: FaultConfig,
    salt: u64,
    /// Injections already fired per candidate hash (transient faults only).
    fired: Mutex<HashMap<u64, u32>>,
    injected: Mutex<Vec<FailureClass>>,
}

impl FaultPlan {
    /// A plan for `config`.
    pub fn new(config: FaultConfig) -> FaultPlan {
        let salt = SeedTree::new(config.seed).seed(0x517, 0xC4A05);
        FaultPlan {
            config,
            salt,
            fired: Mutex::new(HashMap::new()),
            injected: Mutex::new(Vec::new()),
        }
    }

    /// Total transient + corrupt injections fired so far, by class
    /// (corruption reported as [`FailureClass::Divergence`]-free: it is not
    /// in the list, being silent by design). Order is nondeterministic;
    /// counts per class are what tests should assert on.
    pub fn injected(&self) -> Vec<FailureClass> {
        lock_unpoisoned(&self.injected).clone()
    }

    /// Wrap `fitness` with this plan. The wrapper is `Sync` and can back
    /// [`tune_suite`](crate::tune_suite) directly.
    pub fn wrap<'a, F>(&'a self, fitness: F) -> impl Fn(usize, &Candidate) -> EvalResult + Sync + 'a
    where
        F: Fn(usize, &Candidate) -> EvalResult + Sync + 'a,
    {
        move |widx, c| match self.decide(widx, c) {
            Injection::None => fitness(widx, c),
            Injection::Corrupt(v) => {
                // Persistent and deterministic: every evaluation of this
                // candidate sees the same wrong value, so even the benign
                // evaluate-twice race stays consistent.
                fitness(widx, c).map(|true_v| true_v ^ (v | 1))
            }
            Injection::Panic => {
                if self.fire(widx, c, FailureClass::Panic) {
                    // resume_unwind skips the global panic hook: chaos runs
                    // do not spray "thread panicked" over the test output.
                    std::panic::resume_unwind(Box::new("injected panic"));
                }
                fitness(widx, c)
            }
            Injection::Fail(class) => {
                if self.fire(widx, c, class) {
                    Err(class)
                } else {
                    fitness(widx, c)
                }
            }
        }
    }

    /// Pure decision for one candidate.
    fn decide(&self, widx: usize, c: &Candidate) -> Injection {
        let h = self.hash(widx, c);
        // Independent coin per fault kind, each from its own hash lane;
        // first match wins in a fixed order.
        let coin = |lane: u64, rate: f64| -> bool {
            let x = splitmix(h ^ self.salt.wrapping_mul(lane | 1));
            (x >> 11) as f64 / (1u64 << 53) as f64 > 1.0 - rate
        };
        if coin(0x11, self.config.corrupt_rate) {
            return Injection::Corrupt(splitmix(h ^ 0xBAD));
        }
        if coin(0x13, self.config.panic_rate) {
            return Injection::Panic;
        }
        if coin(0x17, self.config.trap_rate) {
            return Injection::Fail(FailureClass::Trap);
        }
        if coin(0x1D, self.config.budget_rate) {
            return Injection::Fail(FailureClass::Budget);
        }
        Injection::None
    }

    /// Register one transient injection for the candidate; `false` once the
    /// per-candidate cap is spent (the true value must come through).
    fn fire(&self, widx: usize, c: &Candidate, class: FailureClass) -> bool {
        let h = self.hash(widx, c);
        let mut fired = lock_unpoisoned(&self.fired);
        let n = fired.entry(h).or_insert(0);
        if *n >= self.config.max_injections {
            return false;
        }
        *n += 1;
        drop(fired);
        lock_unpoisoned(&self.injected).push(class);
        true
    }

    /// FNV-1a over `(workload, canonical candidate)`.
    fn hash(&self, widx: usize, c: &Candidate) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325 ^ self.salt;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x100000001b3);
        };
        mix(widx as u64);
        mix(c.inline_threshold as u64);
        mix(c.unroll_threshold as u64);
        for p in canonicalize_sequence(&c.passes) {
            for b in p.bytes() {
                mix(b as u64);
            }
            mix(u64::MAX);
        }
        h
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(passes: &[&'static str], inline: usize) -> Candidate {
        Candidate {
            passes: passes.to_vec(),
            inline_threshold: inline,
            unroll_threshold: 200,
        }
    }

    #[test]
    fn tokens_round_trip() {
        for c in FailureClass::ALL {
            assert_eq!(FailureClass::from_token(c.token()), Some(c));
        }
        assert_eq!(FailureClass::from_token("nonsense"), None);
        assert!(FailureClass::Panic.is_transient());
        assert!(FailureClass::Budget.is_transient());
        assert!(!FailureClass::Divergence.is_transient());
        assert!(!FailureClass::Parse.is_transient());
    }

    #[test]
    fn decisions_are_deterministic_and_rate_sensitive() {
        let plan = |rate: f64| {
            FaultPlan::new(FaultConfig {
                trap_rate: rate,
                ..Default::default()
            })
        };
        let candidates: Vec<Candidate> = (0..2000).map(|i| cand(&["mem2reg"], i)).collect();
        let hit = |p: &FaultPlan| {
            candidates
                .iter()
                .filter(|c| p.decide(3, c) != Injection::None)
                .count()
        };
        let (a, b) = (plan(0.25), plan(0.25));
        for c in &candidates {
            assert_eq!(a.decide(3, c), b.decide(3, c), "same config, same plan");
        }
        let n = hit(&a);
        assert!(
            (300..700).contains(&n),
            "25% trap rate hit {n}/2000 candidates"
        );
        assert_eq!(hit(&plan(0.0)), 0);
        assert_eq!(hit(&plan(1.0)), 2000);
    }

    #[test]
    fn transient_faults_are_capped_then_release_the_true_value() {
        let plan = FaultPlan::new(FaultConfig {
            trap_rate: 1.0,
            max_injections: 2,
            ..Default::default()
        });
        let wrapped = plan.wrap(|_, c: &Candidate| Ok(c.inline_threshold as u64));
        let c = cand(&["gvn"], 77);
        assert_eq!(wrapped(0, &c), Err(FailureClass::Trap));
        assert_eq!(wrapped(0, &c), Err(FailureClass::Trap));
        assert_eq!(wrapped(0, &c), Ok(77), "cap spent: true value");
        assert_eq!(wrapped(0, &c), Ok(77));
        assert_eq!(plan.injected().len(), 2);
    }

    #[test]
    fn injected_panics_unwind_and_are_catchable() {
        let plan = FaultPlan::new(FaultConfig {
            panic_rate: 1.0,
            max_injections: 1,
            ..Default::default()
        });
        let wrapped = plan.wrap(|_, _c: &Candidate| Ok(5));
        let c = cand(&["dce"], 1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| wrapped(0, &c)));
        assert!(r.is_err(), "first call must unwind");
        assert_eq!(wrapped(0, &c), Ok(5), "cap spent: true value");
    }

    #[test]
    fn corruption_is_persistent_and_deterministic() {
        let plan = FaultPlan::new(FaultConfig {
            corrupt_rate: 1.0,
            ..Default::default()
        });
        let wrapped = plan.wrap(|_, _c: &Candidate| Ok(1000));
        let c = cand(&["sccp"], 9);
        let v = wrapped(0, &c).expect("corruption returns Ok");
        assert_ne!(v, 1000, "value must actually be wrong");
        for _ in 0..5 {
            assert_eq!(wrapped(0, &c), Ok(v), "same wrong value every time");
        }
        // Canonically-equal candidates corrupt identically (cache safety).
        let alias = cand(&["sccp", "loop-data-prefetch"], 9); // no-op dropped
        assert_eq!(wrapped(0, &alias), Ok(v));
    }
}
