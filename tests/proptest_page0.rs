//! Property-based differential tests for low-address memory behaviour: the
//! page-0 probe-sentinel regression class. Random programs whose loads and
//! stores are biased into `0x0..0x500` — straddling the `addr < 0x100` null
//! guard and the legal remainder of page 0 — must behave identically under
//! the reference step interpreter, the block-dispatch engine, and the
//! engine with the segment recorder installed, on every architectural
//! observable (cycles, paging, segments, mix, journal, fault address/pc) —
//! at the VM's own segment limit and at a 7-cycle one that puts boundaries
//! inside the blocks. Hot-loop variants revisit the same footprints with
//! their pages resident.

use proptest::prelude::*;
use zkvm_opt::prover::check_segment_accounting;
use zkvm_opt::riscv::inst::{AluImmOp, BranchCond, MemWidth};
use zkvm_opt::riscv::{Inst, Program, Reg};
use zkvm_opt::vm::{
    run_program_reference, DecodedProgram, Engine, ExecConfig, ExecError, ExecutionReport, Machine,
    VmKind, VmProfile,
};

/// One randomly placed access: store-or-load, a low address, and a width.
#[derive(Debug, Clone, Copy)]
struct Access {
    store: bool,
    addr: u32,
    width: MemWidth,
}

fn arb_access() -> impl Strategy<Value = Access> {
    (0u8..2, 0u32..0x500, 0usize..5).prop_map(|(store, addr, w)| Access {
        store: store == 1,
        addr,
        width: [
            MemWidth::Byte,
            MemWidth::ByteU,
            MemWidth::Half,
            MemWidth::HalfU,
            MemWidth::Word,
        ][w],
    })
}

fn addi(rd: Reg, rs1: Reg, imm: i32) -> Inst<Reg> {
    Inst::AluImm {
        op: AluImmOp::Addi,
        rd,
        rs1,
        imm,
    }
}

fn emit_access(code: &mut Vec<Inst<Reg>>, a: Access) {
    code.push(addi(Reg::T1, Reg::ZERO, a.addr as i32));
    if a.store {
        code.push(Inst::Store {
            width: a.width,
            src: Reg::A0,
            base: Reg::T1,
            offset: 0,
        });
    } else {
        code.push(Inst::Load {
            width: a.width,
            rd: Reg::A0,
            base: Reg::T1,
            offset: 0,
        });
    }
}

/// Straight-line program: the accesses in order, then `halt(a0)`.
fn straight_line(accesses: &[Access]) -> Program {
    let mut code = Vec::new();
    for &a in accesses {
        emit_access(&mut code, a);
    }
    code.push(Inst::Ecall);
    Program {
        code,
        entry: 0,
        func_entries: vec![],
        func_names: vec![],
        globals: vec![],
        spilled_vregs: 0,
    }
}

/// Hot-loop program: the accesses in a 100-iteration loop whose body is
/// split by a `jal` (two blocks, the second entered with its pages resident).
fn hot_loop(accesses: &[Access]) -> Program {
    let mut code = vec![
        addi(Reg::T2, Reg::ZERO, 0),   // i = 0
        addi(Reg::T3, Reg::ZERO, 100), // limit
    ];
    let head = code.len();
    for &a in accesses {
        emit_access(&mut code, a);
    }
    let split = code.len() + 1;
    code.push(Inst::Jal {
        rd: Reg::ZERO,
        target: split,
    });
    code.push(addi(Reg::T2, Reg::T2, 1));
    code.push(Inst::Branch {
        cond: BranchCond::Lt,
        rs1: Reg::T2,
        rs2: Reg::T3,
        target: head,
    });
    code.push(Inst::Ecall);
    Program {
        code,
        entry: 0,
        func_entries: vec![],
        func_names: vec![],
        globals: vec![],
        spilled_vregs: 0,
    }
}

/// Architectural-observable equality (wall time and advisory engine stats
/// excluded), including exact fault classes.
fn assert_outcomes_match(
    label: &str,
    kind: VmKind,
    got: &Result<ExecutionReport, ExecError>,
    want: &Result<ExecutionReport, ExecError>,
) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.instret, w.instret, "{label}: instret ({kind})");
            assert_eq!(g.user_cycles, w.user_cycles, "{label}: cycles ({kind})");
            assert_eq!(g.paging_cycles, w.paging_cycles, "{label}: paging ({kind})");
            assert_eq!(g.total_cycles, w.total_cycles, "{label}: total ({kind})");
            assert_eq!(g.page_ins, w.page_ins, "{label}: page_ins ({kind})");
            assert_eq!(g.page_outs, w.page_outs, "{label}: page_outs ({kind})");
            assert_eq!(g.segments, w.segments, "{label}: segments ({kind})");
            assert_eq!(g.mix, w.mix, "{label}: mix ({kind})");
            assert_eq!(g.exit_code, w.exit_code, "{label}: exit ({kind})");
            assert_eq!(g.halted, w.halted, "{label}: halted ({kind})");
            assert_eq!(g.journal, w.journal, "{label}: journal ({kind})");
        }
        (Err(g), Err(w)) => assert_eq!(g, w, "{label}: error class ({kind})"),
        _ => panic!("{label}: outcome class diverged ({kind}): {got:?} vs {want:?}"),
    }
}

/// Run one generated program through the engine, with and without the
/// segment recorder, and check both against the reference interpreter.
fn check_program(p: &Program) {
    let d = DecodedProgram::decode(p);
    for kind in VmKind::BOTH {
        for segment_cycles in [VmProfile::for_kind(kind).segment_cycles, 7] {
            let profile = VmProfile {
                segment_cycles,
                ..VmProfile::for_kind(kind)
            };
            let reference = Machine::new(p, profile.clone(), ExecConfig::default()).run();

            let solo = Engine::new(&d, profile.clone(), ExecConfig::default()).run();
            assert_outcomes_match("solo", kind, &solo, &reference);

            // Per-segment records must also sum bit-identically to the
            // report totals.
            let segmented = Engine::new(&d, profile, ExecConfig::default()).run_segmented();
            match segmented {
                Ok((report, records)) => {
                    check_segment_accounting(&report, &records)
                        .unwrap_or_else(|e| panic!("segment accounting ({kind}): {e}"));
                    assert_outcomes_match("segmented", kind, &Ok(report), &reference);
                }
                Err(e) => assert_eq!(Err(e), reference, "segmented error ({kind})"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Straight-line low-address access sequences: first faulting access
    /// (if any) and all paging charges match the reference exactly.
    #[test]
    fn straight_line_low_addresses_match_reference(
        accesses in prop::collection::vec(arb_access(), 1..12)
    ) {
        check_program(&straight_line(&accesses));
    }

    /// The same footprints inside a hot loop: serving them from the
    /// residency table must not change any observable.
    #[test]
    fn hot_loop_low_addresses_match_reference(
        accesses in prop::collection::vec(arb_access(), 1..6)
    ) {
        check_program(&hot_loop(&accesses));
    }

    /// All-legal page-0 footprints (>= 0x100) must page in exactly one page
    /// for page-0-only address sets — the charge the sentinel bug elided.
    #[test]
    fn legal_page0_footprint_charges_paging(
        offsets in prop::collection::vec(0u32..0x300, 1..8)
    ) {
        let accesses: Vec<Access> = offsets
            .iter()
            .map(|&o| Access { store: false, addr: 0x100 + o, width: MemWidth::Byte })
            .collect();
        let p = straight_line(&accesses);
        let r = run_program_reference(&p, VmKind::RiscZero, &[]).expect("legal");
        let d = DecodedProgram::decode(&p);
        let e = Engine::new(&d, VmProfile::risc_zero(), ExecConfig::default())
            .run()
            .expect("legal");
        prop_assert_eq!(e.page_ins, r.page_ins);
        prop_assert_eq!(e.page_ins, 1, "one page-0 page-in");
        prop_assert_eq!(e.paging_cycles, r.paging_cycles);
    }
}
