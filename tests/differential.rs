//! Workspace-level differential tests: every optimization profile must
//! preserve guest-visible behaviour on real suite workloads, end to end
//! (frontend → passes → codegen → zkVM), against the IR-interpreter oracle.
//!
//! The suite-wide harness at the bottom runs **all 58 workloads × {O0, O1,
//! O2, O3, zk-aware} × both VM kinds** through three independent executors —
//! the IR interpreter (oracle for guest-visible outputs), the original
//! decode-per-step interpreter (`reference` feature), and the block-dispatch
//! engine — and demands matching outputs *and* bit-identical cycle
//! accounting between the two machine-code executors. It is ignored in
//! debug builds (too slow for the tier-1 `cargo test -q`); CI runs it in the
//! `test-release` job, and locally:
//!
//! ```text
//! cargo test --release --test differential -- --include-ignored
//! ```

use zkvm_opt::study::{measure, OptLevel, OptProfile, SuiteRunner};
use zkvm_opt::vm::VmKind;

/// A cross-suite sample kept small enough for debug-mode CI.
const SAMPLE: &[&str] = &[
    "polybench-atax",
    "polybench-floyd-warshall",
    "polybench-nussinov",
    "npb-ep",
    "npb-is",
    "spec-631",
    "sha2-chain",
    "merkle",
    "regex-match",
    "rsp",
    "fibonacci",
    "tailcall",
];

#[test]
fn all_opt_levels_preserve_behaviour_on_sample() {
    for name in SAMPLE {
        let w = zkvm_opt::workloads::by_name(name).expect("workload exists");
        let (_, base) = measure(w, &OptProfile::baseline(), VmKind::RiscZero, false, None)
            .unwrap_or_else(|e| panic!("{name} baseline: {e}"));
        for level in OptLevel::ALL {
            measure(
                w,
                &OptProfile::level(level),
                VmKind::RiscZero,
                false,
                Some(&base),
            )
            .unwrap_or_else(|e| panic!("{name} at {level:?}: {e}"));
        }
        measure(
            w,
            &OptProfile::zk_o3(),
            VmKind::RiscZero,
            false,
            Some(&base),
        )
        .unwrap_or_else(|e| panic!("{name} at zk-O3: {e}"));
    }
}

#[test]
fn every_single_pass_preserves_behaviour_on_two_programs() {
    for name in ["polybench-doitgen", "loop-sum"] {
        let w = zkvm_opt::workloads::by_name(name).expect("workload exists");
        let (_, base) = measure(w, &OptProfile::baseline(), VmKind::Sp1, false, None)
            .unwrap_or_else(|e| panic!("{name} baseline: {e}"));
        for pass in zkvm_opt::study::studied_passes() {
            measure(
                w,
                &OptProfile::single_pass(pass),
                VmKind::Sp1,
                false,
                Some(&base),
            )
            .unwrap_or_else(|e| panic!("{name} under {pass}: {e}"));
        }
    }
}

#[test]
fn vm_matches_ir_interpreter_on_sample() {
    for name in SAMPLE {
        let w = zkvm_opt::workloads::by_name(name).expect("workload exists");
        let m = zkvm_opt::lang::compile_guest(&w.source).expect("compiles");
        let cfg = zkvm_opt::ir::interp::InterpConfig {
            inputs: w.inputs.clone(),
            ..Default::default()
        };
        let oracle = zkvm_opt::ir::Interp::new(&m, cfg, zkvm_opt::vm::CryptoEcalls)
            .run_main()
            .unwrap_or_else(|e| panic!("{name} oracle: {e}"));
        let prog = zkvm_opt::riscv::compile_module(&m, &zkvm_opt::riscv::TargetCostModel::zk())
            .expect("codegen");
        let r = zkvm_opt::vm::run_program(&prog, VmKind::RiscZero, &w.inputs)
            .unwrap_or_else(|e| panic!("{name} vm: {e}"));
        assert_eq!(r.exit_code as i64, oracle.exit_value, "{name} exit");
        assert_eq!(r.journal, oracle.journal, "{name} journal");
    }
}

#[test]
fn both_vms_agree_on_guest_behaviour() {
    for name in ["npb-ft", "sha3-bench", "zkvm-mnist"] {
        let w = zkvm_opt::workloads::by_name(name).expect("workload exists");
        let (r0, _) = measure(
            w,
            &OptProfile::level(OptLevel::O2),
            VmKind::RiscZero,
            false,
            None,
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        let (sp1, _) = measure(
            w,
            &OptProfile::level(OptLevel::O2),
            VmKind::Sp1,
            false,
            None,
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(r0.instret, sp1.instret, "{name}: instret is VM-independent");
    }
}

/// The five profiles the suite-wide harness sweeps (the paper's main axes).
fn suite_profiles() -> Vec<OptProfile> {
    let mut ps: Vec<OptProfile> = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3]
        .iter()
        .map(|&l| OptProfile::level(l))
        .collect();
    ps.push(OptProfile::zk_o3());
    ps
}

/// All 58 workloads × {O0, O1, O2, O3, zk-aware} × both VM kinds:
/// guest-visible outputs must match the IR-interpreter oracle, and the
/// block-dispatch engine's full cost accounting must be bit-identical to the
/// reference step interpreter.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "suite-wide sweep is release-only (CI: test-release)"
)]
fn suite_wide_differential_harness() {
    let mut runner = SuiteRunner::new();
    let profiles = suite_profiles();
    let mut checked = 0usize;
    for w in zkvm_opt::workloads::all() {
        // Oracle: the IR interpreter on the *unoptimized* module.
        let m = zkvm_opt::lang::compile_guest(&w.source).expect("compiles");
        let cfg = zkvm_opt::ir::interp::InterpConfig {
            inputs: w.inputs.clone(),
            ..Default::default()
        };
        let oracle = zkvm_opt::ir::Interp::new(&m, cfg, zkvm_opt::vm::CryptoEcalls)
            .run_main()
            .unwrap_or_else(|e| panic!("{} oracle: {e}", w.name));
        for profile in &profiles {
            let cw = runner
                .compile(w, profile)
                .unwrap_or_else(|e| panic!("{} at {}: {e}", w.name, profile.name));
            for vm in VmKind::BOTH {
                let ctx = format!("{} at {} on {vm}", w.name, profile.name);
                let new = zkvm_opt::vm::run_decoded(&cw.decoded, vm, &w.inputs)
                    .unwrap_or_else(|e| panic!("{ctx} engine: {e}"));
                // Guest-visible outputs vs the oracle.
                assert_eq!(new.exit_code as i64, oracle.exit_value, "{ctx}: exit");
                assert_eq!(new.journal, oracle.journal, "{ctx}: journal");
                // Full cost accounting vs the old step interpreter.
                let old = zkvm_opt::vm::run_program_reference(&cw.program, vm, &w.inputs)
                    .unwrap_or_else(|e| panic!("{ctx} reference: {e}"));
                assert_eq!(new.instret, old.instret, "{ctx}: instret");
                assert_eq!(new.user_cycles, old.user_cycles, "{ctx}: user_cycles");
                assert_eq!(new.paging_cycles, old.paging_cycles, "{ctx}: paging_cycles");
                assert_eq!(new.total_cycles, old.total_cycles, "{ctx}: total_cycles");
                assert_eq!(new.page_ins, old.page_ins, "{ctx}: page_ins");
                assert_eq!(new.page_outs, old.page_outs, "{ctx}: page_outs");
                assert_eq!(new.segments, old.segments, "{ctx}: segments");
                assert_eq!(new.exit_code, old.exit_code, "{ctx}: exit_code");
                assert_eq!(new.halted, old.halted, "{ctx}: halted");
                assert_eq!(new.journal, old.journal, "{ctx}: journal vs reference");
                assert_eq!(new.mix, old.mix, "{ctx}: instruction mix");
                checked += 1;
            }
        }
    }
    assert_eq!(
        checked,
        58 * 5 * 2,
        "harness must cover the full {{workload x profile x vm}} matrix"
    );
}

/// The last-pass census for the two passes that read which globals are
/// written (`constmerge`, `globalopt`): on every suite program, each
/// distinct module (by `stable_module_fingerprint`) that a prefix of at most
/// two registry passes reaches (no-ops and aliases left out, `verify_each`
/// off) is finished with each of the two. A finishing pass is blamed when the
/// IR interpreter's output after it differs from the lowered program's while
/// the prefix's own output does not. Prefixes that already diverge are
/// counted and printed, not finished: they are other passes' defects.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the depth-2 census is release-only (CI: test-release)"
)]
fn no_prefix_of_depth_two_makes_constmerge_or_globalopt_diverge() {
    use zkvm_opt::ir::hash::FxHashSet;
    use zkvm_opt::ir::{analysis::stable_module_fingerprint, interp::InterpConfig, Module};
    use zkvm_opt::passes::{run_pass, PassConfig, PASSES};

    const FINAL: [&str; 2] = ["constmerge", "globalopt"];
    let passes: Vec<&str> = PASSES
        .iter()
        .filter(|e| !e.noop && e.alias_of.is_none())
        .map(|e| e.name)
        .collect();
    let cfg = PassConfig {
        verify_each: false,
        ..PassConfig::default()
    };
    let start = std::time::Instant::now();
    let (mut modules, mut skipped) = (0usize, Vec::new());
    let mut blamed = Vec::new();
    for w in zkvm_opt::workloads::all() {
        let lowered = zkvm_opt::lang::compile_guest(&w.source).expect("compiles");
        let mut icfg = InterpConfig {
            inputs: w.inputs.clone(),
            ..Default::default()
        };
        let run = |m: &Module, icfg: &InterpConfig| {
            zkvm_opt::ir::Interp::new(m, icfg.clone(), zkvm_opt::vm::CryptoEcalls)
                .run_main()
                .map(|o| (o.exit_value, o.journal))
        };
        let base = zkvm_opt::ir::Interp::new(&lowered, icfg.clone(), zkvm_opt::vm::CryptoEcalls)
            .run_main()
            .unwrap_or_else(|e| panic!("{} oracle: {e}", w.name));
        // A miscompiled loop may never end; no pass sequence here needs
        // sixteen times the lowered program's steps.
        icfg.max_steps = base.steps * 16 + 1_000_000;
        let want = Ok((base.exit_value, base.journal));
        let mut seen = FxHashSet::default();
        seen.insert(stable_module_fingerprint(&lowered));
        let mut frontier: Vec<(Vec<&str>, Module)> = vec![(Vec::new(), lowered)];
        for depth in 0..=2 {
            let mut next = Vec::new();
            for (prefix, m) in &frontier {
                modules += 1;
                if run(m, &icfg) != want {
                    skipped.push(format!("{}: {prefix:?}", w.name));
                } else {
                    for last in FINAL {
                        let mut done = m.clone();
                        if run_pass(last, &mut done, &cfg) {
                            let got = run(&done, &icfg);
                            if got != want {
                                blamed.push(format!(
                                    "{}: {prefix:?} then {last}: {got:?}, want {want:?}",
                                    w.name
                                ));
                            }
                        }
                    }
                }
                if depth == 2 {
                    continue;
                }
                for &p in &passes {
                    let mut out = m.clone();
                    run_pass(p, &mut out, &cfg);
                    if seen.insert(stable_module_fingerprint(&out)) {
                        let mut path = prefix.clone();
                        path.push(p);
                        next.push((path, out));
                    }
                }
            }
            frontier = next;
        }
    }
    println!(
        "census: {modules} distinct modules of depth <= 2 on {} programs, {} passes, \
         finished with {FINAL:?} in {:.1} s; {} prefixes skipped as already diverging",
        zkvm_opt::workloads::all().len(),
        passes.len(),
        start.elapsed().as_secs_f64(),
        skipped.len()
    );
    for s in &skipped {
        println!("  skipped {s}");
    }
    assert!(
        blamed.is_empty(),
        "{} blamed:\n{}",
        blamed.len(),
        blamed.join("\n")
    );
}

#[test]
fn segmented_prover_binds_suite_outputs() {
    use zkvm_opt::prover::{prove_segmented, verify_segmented, RiscZeroBackend};
    let w = zkvm_opt::workloads::by_name("factorial").expect("exists");
    let pipeline = zkvm_opt::study::Pipeline::new(OptProfile::level(OptLevel::O2));
    let r = pipeline.run_workload(w, VmKind::RiscZero).expect("runs");
    let proof = prove_segmented(&RiscZeroBackend, &r.exec, &r.records, 1).expect("gated");
    assert!(verify_segmented(
        &RiscZeroBackend,
        &r.exec,
        &r.records,
        &proof
    ));
    assert!(proof.total_cost_ms == r.prove_ms, "one model");
    let mut tampered = r.exec.clone();
    tampered.journal.push(42);
    assert!(!verify_segmented(
        &RiscZeroBackend,
        &tampered,
        &r.records,
        &proof
    ));
}
