//! The block-dispatch engine is **total** under hostile budgets and inputs:
//! for every workload in the suite, any `max_cycles` (including 0) and any
//! input vector (wrong length, extreme magnitudes), `Engine::run` returns
//! `Ok(report)` or a structured `ExecError` — it never panics.
//!
//! This is the runtime half of the fault-tolerance story: the tuning
//! service's per-candidate cycle budgets only isolate runaway candidates if
//! hitting the budget (or faulting on memory the inputs drove out of range)
//! surfaces as an error value the retry/quarantine machinery can classify.

use proptest::prelude::*;
use std::sync::OnceLock;
use zkvm_opt::riscv::TargetCostModel;
use zkvm_opt::vm::{DecodedProgram, Engine, ExecConfig, ExecError, Machine, VmKind, VmProfile};

struct Compiled {
    name: &'static str,
    prog: DecodedProgram,
    inputs: Vec<i32>,
}

/// Every suite workload compiled once at -O0 (no passes: the baseline
/// pipeline, and the cheapest compile — this file is about the engine).
fn suite() -> &'static [Compiled] {
    static SUITE: OnceLock<Vec<Compiled>> = OnceLock::new();
    SUITE.get_or_init(|| {
        zkvm_opt::workloads::all()
            .iter()
            .map(|w| {
                let m = zkvm_opt::lang::compile_guest(&w.source)
                    .unwrap_or_else(|e| panic!("{}: workload compiles: {e}", w.name));
                let p = zkvm_opt::riscv::compile_module(&m, &TargetCostModel::zk())
                    .unwrap_or_else(|e| panic!("{}: codegen: {e}", w.name));
                Compiled {
                    name: w.name,
                    prog: DecodedProgram::decode(&p),
                    inputs: w.inputs.clone(),
                }
            })
            .collect()
    })
}

/// Run one workload under a budget with the given inputs; the property is
/// that this returns at all. Structured outcomes are sanity-checked: a halt
/// report is internally consistent, a cycle-limit error only fires when the
/// budget is actually short.
fn check(c: &Compiled, kind: VmKind, max_cycles: u64, inputs: &[i32]) {
    let config = ExecConfig {
        inputs: inputs.to_vec(),
        max_cycles,
    };
    match Engine::new(&c.prog, VmProfile::for_kind(kind), config).run() {
        Ok(r) => {
            // The halting instruction itself is exempt from the budget
            // check, so a halt may land one ecall's cost past the limit —
            // but never materially beyond it.
            assert!(r.halted, "{}: Ok(report) must be a halt", c.name);
            assert!(
                r.user_cycles <= max_cycles.saturating_add(64),
                "{}: halted run blew far past its budget ({} vs {max_cycles})",
                c.name,
                r.user_cycles
            );
        }
        Err(ExecError::CycleLimit) => {}
        Err(ExecError::MemFault { .. }) | Err(ExecError::BadPc { .. }) => {}
    }
}

/// Pinned tiny budgets over the whole suite with the genuine inputs: 0 must
/// not underflow anything, 1 exercises the first-block path, the others
/// land mid-block and mid-loop for most programs.
#[test]
fn tiny_cycle_budgets_error_cleanly_across_the_suite() {
    for c in suite() {
        for kind in VmKind::BOTH {
            for budget in [0, 1, 13, 997] {
                check(c, kind, budget, &c.inputs);
            }
        }
    }
}

/// Extreme input values with the genuine input arity: drives input-derived
/// array indexing and loop trip counts to their limits.
#[test]
fn extreme_inputs_never_panic_the_engine() {
    for c in suite() {
        for fill in [i32::MIN, i32::MAX, -1] {
            let inputs = vec![fill; c.inputs.len()];
            for kind in VmKind::BOTH {
                check(c, kind, 200_000, &inputs);
            }
        }
    }
}

/// Charge before you work: a miscompiled candidate that calls
/// `sha256(p, 0xffff_ffff, out)` under a `candidate_budget`-sized limit must
/// hit `CycleLimit` on the precompile's *price* (4.5 G cycles), before
/// either executor reads — zero-filling on the fault — and hashes 4 GiB.
#[test]
fn unaffordable_precompile_is_refused_before_it_runs() {
    let m = zkvm_opt::lang::compile_guest(
        "static MSG: [i8; 3] = \"abc\";
         static OUT: [i8; 32];
         fn main() -> i32 { sha256(MSG, -1, OUT); return OUT[0] as i32; }",
    )
    .expect("compiles");
    let p = zkvm_opt::riscv::compile_module(&m, &TargetCostModel::zk()).expect("codegen");
    let d = DecodedProgram::decode(&p);
    for kind in VmKind::BOTH {
        // The floor of `BatchEvaluator::candidate_budget`, and 8x a
        // million-cycle baseline.
        for max_cycles in [4096, 8_000_000] {
            let config = ExecConfig {
                inputs: vec![],
                max_cycles,
            };
            let start = std::time::Instant::now();
            let engine = Engine::new(&d, VmProfile::for_kind(kind), config.clone()).run();
            let oracle = Machine::new(&p, VmProfile::for_kind(kind), config).run();
            assert_eq!(
                engine,
                Err(ExecError::CycleLimit),
                "{kind}, budget {max_cycles}"
            );
            assert_eq!(
                oracle,
                Err(ExecError::CycleLimit),
                "{kind}, budget {max_cycles}"
            );
            assert!(
                start.elapsed().as_secs() < 5,
                "{kind}: the precompile ran before its charge was checked"
            );
        }
    }
}

/// A global image past guest memory (`BIG` ends beyond 8 MiB, so `SMALL`
/// starts there) is a `MemFault` at the first global that does not fit, in
/// the IR interpreter and in both executors alike — never a panic.
#[test]
fn global_image_past_guest_memory_faults_every_executor_alike() {
    use zkvm_opt::ir::interp::{Interp, InterpConfig, InterpError};
    let m = zkvm_opt::lang::compile_guest(
        "static BIG: [i32; 3000000];
         static SMALL: [i32; 3] = [1, 2, 3];
         fn main() -> i32 { commit(SMALL[1]); return 0; }",
    )
    .expect("compiles");
    let small = m.layout_globals()[1];
    assert!(
        small > zkvm_opt::ir::interp::MEM_SIZE,
        "SMALL lies past memory"
    );
    let interp = Interp::new(&m, InterpConfig::default(), zkvm_opt::ir::NopEcalls).run_main();
    assert_eq!(interp, Err(InterpError::MemFault { addr: small }));
    let p = zkvm_opt::riscv::compile_module(&m, &TargetCostModel::zk()).expect("codegen");
    let d = DecodedProgram::decode(&p);
    let want = Err(ExecError::MemFault { addr: small, pc: 0 });
    for kind in VmKind::BOTH {
        let config = ExecConfig {
            inputs: vec![],
            max_cycles: 1_000_000,
        };
        let engine = Engine::new(&d, VmProfile::for_kind(kind), config.clone()).run();
        let oracle = Machine::new(&p, VmProfile::for_kind(kind), config).run();
        assert_eq!(engine.map(|r| r.exit_code), want, "{kind}: engine");
        assert_eq!(
            oracle.map(|r| r.exit_code),
            want,
            "{kind}: reference machine"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random budgets and random (possibly wrong-arity) inputs, every
    /// workload, both cost models.
    #[test]
    fn random_budgets_and_inputs_never_panic_the_engine(
        budget in 0u64..4096,
        arity in 0usize..4,
        fill in -2_000_000_000i32..2_000_000_000,
    ) {
        let inputs = vec![fill; arity];
        for c in suite() {
            for kind in VmKind::BOTH {
                check(c, kind, budget, &inputs);
            }
        }
    }
}
