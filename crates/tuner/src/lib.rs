//! # zkvmopt-tuner
//!
//! A genetic pass-sequence autotuner — the workspace's OpenTuner substitute
//! (paper §4.2). Candidates are LLVM-style pass sequences up to depth 20 plus
//! the integer parameters the paper tunes (`-inline-threshold`,
//! `-unroll-threshold`); fitness is the zkVM **cycle count**, the paper's
//! cheap, noise-free proxy for execution and proving time.
//!
//! ## One of each
//!
//! - **One search loop:** [`tune_suite`], a μ+λ genetic search over islands
//!   (see [`service`]). Tuning a single program is the same call with one
//!   [`TuneTarget`]; `islands: 1, threads: 1, migration_interval: 0` is a
//!   plain single-population GA, and any other geometry is the same search
//!   run wider. This file holds what every island shares: the [`Candidate`]
//!   type, its generator, and the mutation and crossover operators.
//! - **One evaluation per distinct candidate:** every measurement
//!   canonicalizes the sequence ([`canonicalize_sequence`]: resolve registry
//!   aliases, drop registered no-ops, collapse idempotent adjacent repeats —
//!   all output-preserving by the registry's tested metadata), looks the
//!   [`FitnessKey`] up in the shared [`ShardedFitnessCache`], and only on a
//!   miss calls the fitness function, once and panic-isolated; its outcome,
//!   failure or not, is final. Fitness must be deterministic (cycle counts
//!   are), so the memo cannot change any search outcome — only its cost. Behind the cache, a
//!   search-scoped [`PostPassMemo`] lets the evaluator compile and execute
//!   each distinct post-pass module once per search ([`cache`]).
//! - **One persistence layer:** the tune database ([`TuneDb`]) and the run
//!   checkpoint ([`checkpoint`]) are versioned line-oriented text files read and written through one crate-private
//!   `persist` module — locked temp-file + rename writes, locked reads, and
//!   a per-line salvage that turns damage into a `Recovered` status instead
//!   of an error.

// Untrusted input fails as a value, never a panic: a site that must panic
// carries `#[expect(<lint>, reason = "<the invariant>")]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use rand::rngs::StdRng;
use rand::Rng;
use std::sync::{Condvar, Mutex, MutexGuard};
use zkvmopt_passes::{find_pass, pass_names, PassConfig};

pub mod cache;
pub mod checkpoint;
pub mod db;
pub mod fault;
pub mod lock;
mod persist;
pub mod predict;
pub mod rng;
pub mod service;

pub use cache::{current_postpass_memo, FitnessKey, PostPassMemo, ShardedFitnessCache};
pub use checkpoint::{
    load_checkpoint, save_checkpoint, CheckpointStatus, CHECKPOINT_SCHEMA_VERSION,
};
pub use db::{LoadStatus, TuneDb, TuneDbEntry, SCHEMA_VERSION};
pub use fault::{EvalResult, FailureClass, FaultConfig, FaultPlan};
pub use lock::{lock_path_for, FileLock};
pub use predict::{Prediction, Predictor};
pub use rng::SeedTree;
pub use service::{
    tune_suite, QuarantineEntry, ServiceConfig, ServiceReport, TuneTarget, WorkloadTuneReport,
};

/// Lock one of the tuner's mutexes.
///
/// The tuner's one poison policy: no lock is ever poisoned, because nothing
/// panics while holding one. Fitness calls, the only foreign code, run under
/// `catch_unwind`; everything else done under a lock is plain map, queue and
/// population updates.
#[track_caller]
#[expect(
    clippy::expect_used,
    reason = "nothing panics while holding a tuner lock, so none is poisoned"
)]
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("tuner lock poisoned")
}

/// Wait on `cv`, under the poison policy of [`lock_unpoisoned`].
#[track_caller]
#[expect(
    clippy::expect_used,
    reason = "nothing panics while holding a tuner lock, so none is poisoned"
)]
pub(crate) fn wait_unpoisoned<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).expect("tuner lock poisoned")
}

/// One tuning candidate: a pass sequence plus parameter values.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Ordered pass names (≤ `max_depth`).
    pub passes: Vec<&'static str>,
    /// Inlining threshold (LLVM default 225).
    pub inline_threshold: usize,
    /// Unrolling budget.
    pub unroll_threshold: usize,
}

impl Candidate {
    /// The [`PassConfig`] this candidate's parameters select. It never
    /// verifies after each pass: a random sequence that breaks the IR is the
    /// codegen verifier's to reject, so it classes as
    /// [`FailureClass::Verify`] in debug and release builds alike.
    pub fn pass_config(&self) -> PassConfig {
        PassConfig {
            inline_threshold: self.inline_threshold,
            unroll_threshold: self.unroll_threshold,
            verify_each: false,
            ..PassConfig::default()
        }
    }

    /// One random candidate from the tuner's generator (the distribution
    /// every island fills its first generation from): a pass sequence of
    /// depth 1..=`max_depth` drawn uniformly from the registry, plus random
    /// threshold parameters. Deterministic in `seed`, drawn through the
    /// service's splittable [`SeedTree`] (stream `(0, 0)`) so callers and the
    /// tuner share one seeding discipline — this is the entry point the
    /// property-based pass tests sample sequences from.
    pub fn random(seed: u64, max_depth: usize) -> Candidate {
        let mut rng = SeedTree::new(seed).rng(0, 0);
        random_candidate(&mut rng, max_depth)
    }
}

/// The known-good seed candidates island 0 of every search starts from
/// (`-O2`-style skeletons).
pub(crate) fn anchor_candidates() -> Vec<Candidate> {
    vec![
        Candidate {
            passes: vec![
                "mem2reg",
                "instcombine",
                "simplifycfg",
                "inline",
                "gvn",
                "dce",
            ],
            inline_threshold: 225,
            unroll_threshold: 200,
        },
        Candidate {
            passes: vec![
                "mem2reg",
                "inline",
                "sroa",
                "early-cse",
                "sccp",
                "simplifycfg",
            ],
            inline_threshold: 1000,
            unroll_threshold: 400,
        },
    ]
}

/// Canonicalize a pass sequence for content-keyed memoization:
///
/// 1. resolve registry aliases to their canonical names (`ipconstprop` ≡
///    `ipsccp`),
/// 2. drop registered no-op passes (they never change the module),
/// 3. collapse adjacent repeats of idempotent passes (`dce dce` ≡ `dce`).
///
/// Each rewrite is output-preserving by the registry's declared (and tested)
/// metadata, so two candidates with equal canonical sequences and equal
/// thresholds compile to identical programs.
///
/// # Panics
/// Panics on a name the pass registry does not know.
pub fn canonicalize_sequence(passes: &[&'static str]) -> Vec<&'static str> {
    let mut out: Vec<&'static str> = Vec::with_capacity(passes.len());
    for &p in passes {
        // One registry lookup per element (this runs per candidate in the
        // search loop).
        #[expect(
            clippy::panic,
            reason = "candidates hold registry names: the generator draws them from the \
                      registry, and loaders resolve stored names through `find_pass`"
        )]
        let entry = find_pass(p).unwrap_or_else(|| panic!("unknown pass `{p}`"));
        if entry.noop {
            continue;
        }
        let canon = entry.canonical_name();
        if out.last() == Some(&canon) && entry.is_idempotent() {
            continue;
        }
        out.push(canon);
    }
    out
}

/// One pass drawn uniformly from the registry.
fn random_pass(rng: &mut StdRng) -> &'static str {
    let names = pass_names();
    names[rng.gen_range(0..names.len())]
}

pub(crate) fn random_candidate(rng: &mut StdRng, max_depth: usize) -> Candidate {
    let depth = rng.gen_range(1..=max_depth);
    Candidate {
        passes: (0..depth).map(|_| random_pass(rng)).collect(),
        inline_threshold: rng.gen_range(0..8192),
        unroll_threshold: rng.gen_range(0..2048),
    }
}

pub(crate) fn mutate(rng: &mut StdRng, c: &Candidate, max_depth: usize) -> Candidate {
    let mut n = c.clone();
    match rng.gen_range(0..5) {
        0 if n.passes.len() < max_depth => {
            let at = rng.gen_range(0..=n.passes.len());
            n.passes.insert(at, random_pass(rng));
        }
        1 if n.passes.len() > 1 => {
            let at = rng.gen_range(0..n.passes.len());
            n.passes.remove(at);
        }
        2 => {
            let at = rng.gen_range(0..n.passes.len());
            n.passes[at] = random_pass(rng);
        }
        3 => n.inline_threshold = rng.gen_range(0..8192),
        _ => n.unroll_threshold = rng.gen_range(0..2048),
    }
    n
}

pub(crate) fn crossover(
    rng: &mut StdRng,
    a: &Candidate,
    b: &Candidate,
    max_depth: usize,
) -> Candidate {
    let cut_a = rng.gen_range(0..=a.passes.len());
    let cut_b = rng.gen_range(0..=b.passes.len());
    let mut passes: Vec<&'static str> = a.passes[..cut_a]
        .iter()
        .chain(b.passes[cut_b..].iter())
        .copied()
        .collect();
    passes.truncate(max_depth);
    if passes.is_empty() {
        passes.push(a.passes.first().copied().unwrap_or("mem2reg"));
    }
    // Each threshold comes from either parent with equal odds.
    let mut either = |from_a: usize, from_b: usize| if rng.gen_bool(0.5) { from_a } else { from_b };
    Candidate {
        passes,
        inline_threshold: either(a.inline_threshold, b.inline_threshold),
        unroll_threshold: either(a.unroll_threshold, b.unroll_threshold),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalization_normalizes_sequences() {
        // Aliases resolve, no-ops drop, idempotent adjacent repeats collapse.
        assert_eq!(
            canonicalize_sequence(&[
                "ipconstprop",
                "loop-data-prefetch",
                "dce",
                "dce",
                "slp-vectorizer",
                "dce",
                "lower-switch",
                "instcombine",
                "instcombine",
                "strip-dead-prototypes",
            ]),
            vec!["ipsccp", "dce", "instcombine", "instcombine", "globaldce"],
        );
        // Non-adjacent repeats and non-idempotent repeats are kept: only
        // rewrites that provably preserve the compiled output are applied.
        assert_eq!(
            canonicalize_sequence(&["mem2reg", "gvn", "mem2reg"]),
            vec!["mem2reg", "gvn", "mem2reg"]
        );
        assert_eq!(
            canonicalize_sequence(&["mem2reg", "mem2reg", "mem2reg"]),
            vec!["mem2reg"]
        );
    }
}
