//! Property-based tests: randomly generated guest programs must behave
//! identically under every optimization pipeline and random pass sequences,
//! end to end through codegen and the zkVM.
//!
//! Coverage axes:
//! - all `-Ox` levels and zk-aware `-O3` on random programs;
//! - random sequences over the full registry, and **per-family** sequences
//!   over the `cse`, `sccp`, `loopopt`, and `ipo` pass families (with the IR
//!   verifier running after every single pass);
//! - depth-≤20 sequences drawn from the tuner's own candidate generator;
//! - the same sequences, canonicalised, on the 58 suite programs: one
//!   pipeline run (shared analysis caches) vs `run_pass` per pass;
//! - `PassConfig` extremes (`inline_threshold` 0 and ≫4328,
//!   `unroll_threshold` 0, `simplifycfg_speculate` 0);
//! - reference-interpreter vs block-dispatch-engine cycle identity on the
//!   optimized output of every tuner-generated sequence.

use program_gen::{arb_expr, program, program_with_calls};
use proptest::prelude::*;
use zkvm_opt::passes::{run_pass, PassConfig, PassManager};
use zkvm_opt::study::{OptLevel, OptProfile, Pipeline};
use zkvm_opt::vm::VmKind;

#[path = "common/program_gen.rs"]
mod program_gen;

/// The previously-untested pass families (ISSUE 4): name → member passes.
const FAMILIES: &[(&str, &[&str])] = &[
    ("cse", &["early-cse", "gvn", "newgvn"]),
    (
        "sccp",
        &["sccp", "ipsccp", "jump-threading", "correlated-propagation"],
    ),
    (
        "loopopt",
        &[
            "loop-simplify",
            "lcssa",
            "licm",
            "loop-rotate",
            "loop-unroll",
            "loop-unroll-and-jam",
            "loop-deletion",
            "loop-idiom",
            "indvars",
            "loop-reduce",
            "loop-instsimplify",
            "loop-fission",
            "simple-loop-unswitch",
            "loop-extract",
            "loop-predication",
            "loop-versioning-licm",
            "irce",
        ],
    ),
    (
        "ipo",
        &[
            "inline",
            "always-inline",
            "partial-inliner",
            "tailcall",
            "function-attrs",
            "attributor",
            "deadargelim",
            "globalopt",
            "globaldce",
            "constmerge",
        ],
    ),
];

/// The `PassConfig` extremes the paper's parameter space touches:
/// inlining off / far beyond the autotuned 4328, unrolling off, and
/// speculation off. `verify_each` is on so every pass runs the IR verifier.
fn extreme_configs() -> Vec<(&'static str, PassConfig)> {
    let base = PassConfig {
        verify_each: true,
        ..PassConfig::default()
    };
    vec![
        (
            "inline-threshold-0",
            PassConfig {
                inline_threshold: 0,
                ..base.clone()
            },
        ),
        (
            "inline-threshold-max",
            PassConfig {
                inline_threshold: 100_000,
                ..base.clone()
            },
        ),
        (
            "unroll-threshold-0",
            PassConfig {
                unroll_threshold: 0,
                ..base.clone()
            },
        ),
        (
            "speculate-0",
            PassConfig {
                simplifycfg_speculate: 0,
                ..base.clone()
            },
        ),
        (
            "all-extremes",
            PassConfig {
                inline_threshold: 100_000,
                unroll_threshold: 0,
                simplifycfg_speculate: 0,
                ..base
            },
        ),
    ]
}

/// Apply `seq` one pass at a time with the IR verifier after every pass
/// (`run_pass` panics if a pass breaks the IR when `verify_each` is set),
/// then codegen and execute, asserting behaviour matches `base`. Returns the
/// compiled program so callers can make further executor-level checks.
fn apply_and_check(
    src: &str,
    inputs: &[i32],
    seq: &[&str],
    cfg: &PassConfig,
    base: &zkvm_opt::study::RunReport,
    ctx: &str,
) -> zkvm_opt::riscv::Program {
    let mut m =
        zkvm_opt::lang::compile_guest(src).unwrap_or_else(|e| panic!("{ctx}: compile: {e}\n{src}"));
    let cfg = PassConfig {
        verify_each: true,
        ..cfg.clone()
    };
    for pass in seq {
        run_pass(pass, &mut m, &cfg); // verifier runs after each pass
    }
    let prog = zkvm_opt::riscv::compile_module(&m, &zkvm_opt::riscv::TargetCostModel::cpu())
        .unwrap_or_else(|e| panic!("{ctx}: codegen after {seq:?}: {e}"));
    let r = zkvm_opt::vm::run_program(&prog, VmKind::Sp1, inputs)
        .unwrap_or_else(|e| panic!("{ctx}: exec after {seq:?}: {e}"));
    assert_eq!(
        r.journal, base.exec.journal,
        "{ctx}: journal after {seq:?}\n{src}"
    );
    assert_eq!(
        r.exit_code, base.exec.exit_code,
        "{ctx}: exit after {seq:?}\n{src}"
    );
    prog
}

/// Printed IR of `base` after `seq`, or `None` if a pass panicked (the known
/// miscompiles trip the per-pass verifier).
fn printed_after(
    base: &zkvm_opt::ir::Module,
    run: impl FnOnce(&mut zkvm_opt::ir::Module),
) -> Option<String> {
    let mut m = base.clone();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mut m)))
        .ok()
        .map(|()| zkvm_opt::ir::print::module_to_string(&m))
}

/// The tuner's traffic through the pass layer: canonicalised depth-≤20
/// generator sequences, six per suite program, must print the same IR through
/// one `PassManager::run` (analysis caches shared across the sequence) as
/// through `run_pass` in a loop (fresh caches per pass) — and a sequence that
/// panics one way must panic the other.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-suite sweep is release-only (CI: test-release)"
)]
fn tuner_sequences_match_per_pass_execution_on_the_suite() {
    let suite = zkvm_opt::workloads::all();
    let bases: Vec<zkvm_opt::ir::Module> = suite
        .iter()
        .map(|w| zkvm_opt::lang::compile_guest(&w.source).expect("suite program compiles"))
        .collect();
    for seed in 0..6 * suite.len() as u64 {
        let cand = zkvm_opt::tuner::Candidate::random(seed, 20);
        let seq = zkvm_opt::tuner::canonicalize_sequence(&cand.passes);
        let cfg = PassConfig {
            verify_each: true,
            ..cand.pass_config()
        };
        let at = seed as usize % suite.len();
        let per_pass = printed_after(&bases[at], |m| {
            for pass in &seq {
                run_pass(pass, m, &cfg);
            }
        });
        let managed = printed_after(&bases[at], |m| {
            PassManager::from_names(seq.iter().copied()).run(m, &cfg);
        });
        assert!(
            per_pass == managed,
            "seed {seed} on {}: {seq:?} diverged (per-pass {}, pipeline {})",
            suite[at].name,
            if per_pass.is_some() { "ok" } else { "panicked" },
            if managed.is_some() { "ok" } else { "panicked" },
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn random_programs_behave_identically_under_all_levels(
        es in prop::collection::vec(arb_expr(), 1..5),
        trip in 1u8..20,
        inputs in prop::array::uniform2(-10_000i32..10_000),
    ) {
        let src = program(&es, trip);
        let base = Pipeline::new(OptProfile::baseline())
            .run_source(&src, &inputs, VmKind::RiscZero)
            .expect("baseline runs");
        for level in OptLevel::ALL {
            let r = Pipeline::new(OptProfile::level(level))
                .run_source(&src, &inputs, VmKind::RiscZero)
                .unwrap_or_else(|e| panic!("{level:?}: {e}\n{src}"));
            prop_assert_eq!(&r.exec.journal, &base.exec.journal, "{:?} journal\n{}", level, &src);
            prop_assert_eq!(r.exec.exit_code, base.exec.exit_code, "{:?} exit\n{}", level, &src);
        }
        let r = Pipeline::new(OptProfile::zk_o3())
            .run_source(&src, &inputs, VmKind::RiscZero)
            .expect("zk-O3 runs");
        prop_assert_eq!(&r.exec.journal, &base.exec.journal);
    }

    #[test]
    fn random_pass_sequences_preserve_behaviour(
        es in prop::collection::vec(arb_expr(), 1..4),
        trip in 1u8..12,
        picks in prop::collection::vec(0usize..64, 1..10),
        inputs in prop::array::uniform2(-1000i32..1000),
    ) {
        let src = program(&es, trip);
        let names = zkvm_opt::study::studied_passes();
        let seq: Vec<&'static str> = picks.iter().map(|i| names[i % names.len()]).collect();
        let base = Pipeline::new(OptProfile::baseline())
            .run_source(&src, &inputs, VmKind::Sp1)
            .expect("baseline runs");
        let profile = OptProfile::sequence(
            "random-seq",
            seq.clone(),
            zkvm_opt::passes::PassConfig::default(),
        );
        let r = Pipeline::new(profile)
            .run_source(&src, &inputs, VmKind::Sp1)
            .unwrap_or_else(|e| panic!("{seq:?}: {e}\n{src}"));
        prop_assert_eq!(&r.exec.journal, &base.exec.journal, "{:?}\n{}", &seq, &src);
        prop_assert_eq!(r.exec.exit_code, base.exec.exit_code);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Random sequences drawn from *within* each previously-untested pass
    /// family (`cse`, `sccp`, `loopopt`, `ipo`), applied pass-by-pass with
    /// the IR verifier after every pass, on call-heavy generated programs.
    #[test]
    fn pass_families_verify_and_preserve(
        es in prop::collection::vec(arb_expr(), 1..4),
        trip in 1u8..10,
        picks in prop::collection::vec(0usize..64, 2..8),
        inputs in prop::array::uniform2(-1000i32..1000),
    ) {
        let src = program_with_calls(&es, trip);
        let base = Pipeline::new(OptProfile::baseline())
            .run_source(&src, &inputs, VmKind::Sp1)
            .expect("baseline runs");
        for (family, members) in FAMILIES {
            // Family sequences always start from mem2reg so the family's
            // passes see promoted SSA (how every real pipeline runs them).
            let mut seq: Vec<&str> = vec!["mem2reg"];
            seq.extend(picks.iter().map(|i| members[i % members.len()]));
            apply_and_check(&src, &inputs, &seq, &PassConfig::default(), &base, family);
        }
    }

    /// Depth-≤20 sequences drawn from the tuner's own candidate generator,
    /// verified after every pass — and the optimized output must execute
    /// with **bit-identical cycle accounting** on the reference interpreter
    /// and the block-dispatch engine (regression muscle for the engine).
    #[test]
    fn tuner_generator_sequences_verify_and_match_engines(
        seed in 0u64..1_000_000,
        es in prop::collection::vec(arb_expr(), 1..4),
        trip in 1u8..10,
        inputs in prop::array::uniform2(-1000i32..1000),
    ) {
        let cand = zkvm_opt::tuner::Candidate::random(seed, 20);
        prop_assert!(cand.passes.len() <= 20);
        let src = program_with_calls(&es, trip);
        let base = Pipeline::new(OptProfile::baseline())
            .run_source(&src, &inputs, VmKind::Sp1)
            .expect("baseline runs");
        let prog = apply_and_check(
            &src, &inputs, &cand.passes, &cand.pass_config(), &base, "tuner-candidate",
        );
        for vm in VmKind::BOTH {
            let old = zkvm_opt::vm::run_program_reference(&prog, vm, &inputs)
                .unwrap_or_else(|e| panic!("reference: {e}"));
            let new = zkvm_opt::vm::run_program(&prog, vm, &inputs)
                .unwrap_or_else(|e| panic!("engine: {e}"));
            prop_assert_eq!(new.total_cycles, old.total_cycles, "total cycles on {}", vm);
            prop_assert_eq!(new.instret, old.instret, "instret on {}", vm);
            prop_assert_eq!(new.paging_cycles, old.paging_cycles, "paging on {}", vm);
            prop_assert_eq!(new.segments, old.segments, "segments on {}", vm);
            prop_assert_eq!(&new.journal, &old.journal, "journal on {}", vm);
            prop_assert_eq!(new.mix, old.mix, "mix on {}", vm);
        }
    }

    /// `PassConfig` extremes (`inline_threshold` 0 / ≫4328,
    /// `unroll_threshold` 0, `simplifycfg_speculate` 0) under the full -O2
    /// and -O3 pipelines, with per-pass verification enabled.
    #[test]
    fn config_extremes_preserve_behaviour(
        es in prop::collection::vec(arb_expr(), 1..4),
        trip in 1u8..10,
        inputs in prop::array::uniform2(-1000i32..1000),
    ) {
        let src = program_with_calls(&es, trip);
        let base = Pipeline::new(OptProfile::baseline())
            .run_source(&src, &inputs, VmKind::Sp1)
            .expect("baseline runs");
        for (name, cfg) in extreme_configs() {
            for level in [OptLevel::O2, OptLevel::O3] {
                let profile = OptProfile {
                    name: format!("{level:?}-{name}"),
                    pass_config: cfg.clone(),
                    ..OptProfile::level(level)
                };
                let r = Pipeline::new(profile)
                    .run_source(&src, &inputs, VmKind::Sp1)
                    .unwrap_or_else(|e| panic!("{name} at {level:?}: {e}\n{src}"));
                prop_assert_eq!(
                    &r.exec.journal, &base.exec.journal,
                    "{} at {:?}: journal\n{}", name, level, &src
                );
                prop_assert_eq!(r.exec.exit_code, base.exec.exit_code);
            }
        }
    }
}
