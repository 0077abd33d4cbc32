//! Engine cross-checks against the step-interpreter oracle (`vm::Machine`)
//! where `tests/differential.rs` does not look: tiny and random cycle
//! budgets (so `CycleLimit` fires mid-block and on the first instruction),
//! small segment limits (so boundaries fall inside fast blocks), inputs the
//! suite never ships, and a hot branch that flips direction mid-run.
//!
//! The fast tier is a dispatch optimization, not a semantic mode: every
//! run must report exactly the cycles, paging, journal, exit — or error —
//! the oracle reports. Wall-clock time and the advisory `EngineStats`
//! counters (all zero in the oracle) are the only fields allowed to differ.

use proptest::prelude::*;
use std::sync::OnceLock;
use zkvm_opt::prover::check_segment_accounting;
use zkvm_opt::riscv::{Program, TargetCostModel};
use zkvm_opt::study::{OptLevel, OptProfile, SuiteRunner};
use zkvm_opt::vm::{
    DecodedProgram, Engine, ExecConfig, ExecError, ExecutionReport, Machine, VmKind, VmProfile,
};

struct Compiled {
    name: &'static str,
    program: Program,
    decoded: DecodedProgram,
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
                    decoded: DecodedProgram::decode(&p),
                    program: p,
                    inputs: w.inputs.clone(),
                }
            })
            .collect()
    })
}

/// Every suite workload compiled once at -O2 through the study's compile
/// path: fewer, denser blocks than at -O0.
fn suite_o2() -> &'static [Compiled] {
    static SUITE: OnceLock<Vec<Compiled>> = OnceLock::new();
    SUITE.get_or_init(|| {
        let mut runner = SuiteRunner::new();
        let o2 = OptProfile::level(OptLevel::O2);
        zkvm_opt::workloads::all()
            .iter()
            .map(|w| {
                let cw = runner
                    .compile(w, &o2)
                    .unwrap_or_else(|e| panic!("{}: -O2 compiles: {e}", w.name));
                Compiled {
                    name: w.name,
                    program: cw.program.clone(),
                    decoded: cw.decoded.clone(),
                    inputs: w.inputs.clone(),
                }
            })
            .collect()
    })
}

/// Field-by-field report identity, excluding wall-clock time and the
/// advisory `EngineStats` counters (which the oracle does not keep).
/// `exec_time_ms` is derived from cycles and stays in.
fn assert_lane_matches(
    engine: &Result<ExecutionReport, ExecError>,
    oracle: &Result<ExecutionReport, ExecError>,
    ctx: &str,
) {
    match (engine, oracle) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.kind, b.kind, "{ctx}: kind");
            assert_eq!(a.instret, b.instret, "{ctx}: instret");
            assert_eq!(a.user_cycles, b.user_cycles, "{ctx}: user_cycles");
            assert_eq!(a.paging_cycles, b.paging_cycles, "{ctx}: paging_cycles");
            assert_eq!(a.total_cycles, b.total_cycles, "{ctx}: total_cycles");
            assert_eq!(a.page_ins, b.page_ins, "{ctx}: page_ins");
            assert_eq!(a.page_outs, b.page_outs, "{ctx}: page_outs");
            assert_eq!(a.segments, b.segments, "{ctx}: segments");
            assert_eq!(a.exit_code, b.exit_code, "{ctx}: exit_code");
            assert_eq!(a.halted, b.halted, "{ctx}: halted");
            assert_eq!(a.journal, b.journal, "{ctx}: journal");
            assert_eq!(a.mix, b.mix, "{ctx}: mix");
            assert!(
                (a.exec_time_ms - b.exec_time_ms).abs() < 1e-12,
                "{ctx}: exec_time_ms {} vs {}",
                a.exec_time_ms,
                b.exec_time_ms
            );
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{ctx}: error"),
        (a, b) => panic!("{ctx}: engine {a:?} vs oracle {b:?}"),
    }
}

/// Run each job through the engine and through the oracle, and demand
/// bit-identical outcomes job by job.
fn check_jobs(c: &Compiled, jobs: &[(VmKind, u64, Vec<i32>)]) {
    for (kind, budget, inputs) in jobs {
        let profile = VmProfile::for_kind(*kind);
        let config = ExecConfig {
            inputs: inputs.clone(),
            max_cycles: *budget,
        };
        let engine = Engine::new(&c.decoded, profile.clone(), config.clone()).run();
        let oracle = Machine::new(&c.program, profile, config).run();
        let ctx = format!("{} on {kind} (budget {budget}, inputs {inputs:?})", c.name);
        assert_lane_matches(&engine, &oracle, &ctx);
    }
}

/// Both VM kinds under the pinned tiny budgets from `engine_limits.rs`:
/// `CycleLimit` lands on the first instruction and mid-block,
/// beside a generous budget that runs to halt.
#[test]
fn engine_matches_reference_under_tiny_budgets_across_the_suite() {
    for c in suite() {
        let jobs: Vec<(VmKind, u64, Vec<i32>)> = VmKind::BOTH
            .iter()
            .flat_map(|&kind| {
                [0u64, 1, 13, 997, 2_000_000]
                    .into_iter()
                    .map(move |budget| (kind, budget, c.inputs.clone()))
            })
            .collect();
        check_jobs(c, &jobs);
    }
}

/// Inputs the suite never ships steer input-dependent branches down paths
/// the golden runs do not take; every one must still account exactly like
/// the oracle.
#[test]
fn engine_matches_reference_on_divergent_inputs() {
    for c in suite() {
        let arity = c.inputs.len();
        let jobs: Vec<(VmKind, u64, Vec<i32>)> = [0i32, 1, 7, 1_000_000]
            .iter()
            .map(|&fill| (VmKind::RiscZero, 2_000_000, vec![fill; arity]))
            .collect();
        check_jobs(c, &jobs);
    }
}

/// A 1000-cycle segment limit puts hundreds of boundaries inside fast
/// blocks, on their last ops and on missing loads, in every workload at
/// -O0; the production limits ÷ 64 cut all but the smallest -O2 workloads
/// into several segments. `run` and `run_segmented` must both match the oracle
/// (budget tails included), and the records must sum to the report.
#[test]
fn small_segment_limits_match_reference_across_the_suite() {
    let o0 = suite().iter().map(|c| (c, None));
    let o2 = suite_o2().iter().map(|c| (c, Some(64)));
    for (c, divisor) in o0.chain(o2) {
        for kind in VmKind::BOTH {
            let production = VmProfile::for_kind(kind);
            let profile = VmProfile {
                segment_cycles: divisor.map_or(1000, |d| production.segment_cycles / d),
                ..production
            };
            let limit = profile.segment_cycles;
            for budget in [997u64, 1003, 2_000_000] {
                let config = ExecConfig {
                    inputs: c.inputs.clone(),
                    max_cycles: budget,
                };
                let ctx = format!(
                    "{} on {kind} (segments of {limit}, budget {budget})",
                    c.name
                );
                let oracle = Machine::new(&c.program, profile.clone(), config.clone()).run();
                let engine = Engine::new(&c.decoded, profile.clone(), config.clone()).run();
                assert_lane_matches(&engine, &oracle, &ctx);
                let segmented = Engine::new(&c.decoded, profile.clone(), config).run_segmented();
                if let Ok((report, records)) = &segmented {
                    check_segment_accounting(report, records)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                }
                assert_lane_matches(&segmented.map(|(report, _)| report), &oracle, &ctx);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Random budgets (skewed tiny so mid-block exits are common), random
    /// shared fill input, every workload, kinds interleaved.
    #[test]
    fn engine_matches_reference_under_random_budgets(
        budgets in proptest::collection::vec(0u64..4096, 6..7),
        fill in -2_000_000_000i32..2_000_000_000,
        arity in 0usize..4,
    ) {
        let inputs = vec![fill; arity];
        for c in suite() {
            let jobs: Vec<(VmKind, u64, Vec<i32>)> = budgets
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    let kind = VmKind::BOTH[i % VmKind::BOTH.len()];
                    (kind, b, inputs.clone())
                })
                .collect();
            check_jobs(c, &jobs);
        }
    }
}

/// A branch that runs one direction for 150 iterations, then flips for the
/// tail of the loop — the shape that once trained a superblock trace and
/// then deoptimized it. The trace tier is gone (with lean dispatch it cost
/// more than it saved); what it guaranteed stays: a report bit-identical to
/// the reference step interpreter.
#[test]
fn superblock_deopt_on_trained_branch_flip_is_bit_identical() {
    let source = r"
        fn main() -> i32 {
          let mut acc: i32 = 0;
          for (let mut i: i32 = 0; i < 200; i += 1) {
            if (i < 150) { acc = acc + i * 3; } else { acc = acc - i; }
          }
          commit(acc);
          return acc;
        }
    ";
    let m = zkvm_opt::lang::compile_guest(source).expect("deopt guest compiles");
    let p = zkvm_opt::riscv::compile_module(&m, &TargetCostModel::zk()).expect("deopt codegen");
    let prog = DecodedProgram::decode(&p);
    for kind in VmKind::BOTH {
        let config = ExecConfig {
            inputs: vec![],
            max_cycles: 2_000_000,
        };
        let report = Engine::new(&prog, VmProfile::for_kind(kind), config).run();
        let reference = zkvm_opt::vm::run_program_reference(&p, kind, &[]);
        assert_lane_matches(&report, &reference, &format!("branch flip on {kind}"));
        let report = report.expect("deopt guest halts");
        // The trace tier is retired: its counters read zero.
        assert_eq!(
            (report.stats.traces_formed, report.stats.trace_exits),
            (0, 0)
        );
    }
}
