//! Page-0 regressions. An earlier one-entry residency probe used page 0 as
//! its empty sentinel, so the first access to any page-0 address vacuously
//! "hit" — swallowing the null-guard `MemFault` for `addr < 0x100` and
//! eliding the page-in charge for legal page-0 addresses. The probe is gone
//! (the residency table has no sentinel, and an address below the guard
//! never hits). The first two tests pin the semantics on cold accesses; the
//! rest drive blocks whose memory footprint starts at page 0 through the
//! engine's *fast* tier, whose loads and stores are served from the
//! residency table without the checked access path, and check the null
//! guard still fires (exact address and pc) and paging is still charged —
//! bit-identical to the step interpreter.

use zkvmopt_riscv::inst::{AluImmOp, BranchCond, MemWidth};
use zkvmopt_riscv::{Inst, Program, Reg};
use zkvmopt_vm::{
    DecodedProgram, Engine, ExecConfig, ExecError, ExecutionReport, Machine, VmKind, VmProfile,
};

fn program(code: Vec<Inst<Reg>>) -> Program {
    Program {
        code,
        entry: 0,
        func_entries: vec![],
        func_names: vec![],
        globals: vec![],
        spilled_vregs: 0,
    }
}

fn addi(rd: Reg, rs1: Reg, imm: i32) -> Inst<Reg> {
    Inst::AluImm {
        op: AluImmOp::Addi,
        rd,
        rs1,
        imm,
    }
}

fn lw(rd: Reg, base: Reg, offset: i32) -> Inst<Reg> {
    Inst::Load {
        width: MemWidth::Word,
        rd,
        base,
        offset,
    }
}

fn sw(src: Reg, base: Reg, offset: i32) -> Inst<Reg> {
    Inst::Store {
        width: MemWidth::Word,
        src,
        base,
        offset,
    }
}

/// A two-block hot loop whose memory footprint is entirely page 0 (the
/// `jal` splits the body, so the store's block starts with a resident page).
fn page0_loop() -> Program {
    program(vec![
        addi(Reg::T1, Reg::ZERO, 0x200), // page-0 pointer (legal: >= 0x100)
        addi(Reg::T2, Reg::ZERO, 0),     // i = 0
        addi(Reg::T3, Reg::ZERO, 200),   // limit
        lw(Reg::A0, Reg::T1, 0),         // 3: loop head (Mem block A)
        Inst::Jal {
            rd: Reg::ZERO,
            target: 5,
        },
        sw(Reg::A0, Reg::T1, 4), // 5: Mem block B
        addi(Reg::T2, Reg::T2, 1),
        Inst::Branch {
            cond: BranchCond::Lt,
            rs1: Reg::T2,
            rs2: Reg::T3,
            target: 3,
        },
        Inst::Ecall, // halt(a0)
    ])
}

fn run(p: &Program, profile: VmProfile) -> Result<ExecutionReport, ExecError> {
    let d = DecodedProgram::decode(p);
    Engine::new(&d, profile, ExecConfig::default()).run()
}

#[test]
fn null_guard_load_faults() {
    // t1 = 0x10; lw a0, 0(t1)  -> reference faults (addr < 0x100)
    let r = run(
        &program(vec![
            Inst::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::T1,
                rs1: Reg::ZERO,
                imm: 0x10,
            },
            Inst::Load {
                width: MemWidth::Word,
                rd: Reg::A0,
                base: Reg::T1,
                offset: 0,
            },
            // halt(a0): t0 = HALT (0) already
            Inst::Ecall,
        ]),
        VmProfile::risc_zero(),
    );
    assert!(
        matches!(r, Err(ExecError::MemFault { addr: 0x10, .. })),
        "expected MemFault at 0x10, got {r:?}"
    );
}

#[test]
fn legal_page0_load_charges_page_in() {
    // t1 = 0x200 (legal, inside page 0 for 1 KiB pages); lw a0, 0(t1)
    let r = run(
        &program(vec![
            Inst::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::T1,
                rs1: Reg::ZERO,
                imm: 0x200,
            },
            Inst::Load {
                width: MemWidth::Word,
                rd: Reg::A0,
                base: Reg::T1,
                offset: 0,
            },
            Inst::Ecall,
        ]),
        VmProfile::risc_zero(),
    )
    .expect("legal load runs");
    assert_eq!(r.page_ins, 1, "reference charges one page-in for page 0");
}

/// A global image inside the null guard fails both executors alike, before
/// the first instruction.
#[test]
fn a_global_inside_the_null_guard_faults_both_executors_alike() {
    let mut p = program(vec![Inst::Ecall]);
    p.globals.push((0x10, vec![1]));
    let want = Err(ExecError::MemFault { addr: 0x10, pc: 0 });
    for kind in VmKind::BOTH {
        let profile = VmProfile::for_kind(kind);
        let reference = Machine::new(&p, profile.clone(), ExecConfig::default()).run();
        assert_eq!(reference, want, "reference ({kind})");
        assert_eq!(run(&p, profile), want, "engine ({kind})");
    }
}

/// Fast block (entered at its head, in budget): a null-guard violation
/// mid-block must fault at the exact address and pc the step interpreter
/// reports, even though a legal page-0 access precedes it and leaves page 0
/// resident — under both VM kinds' page sizes.
#[test]
fn mem_block_null_guard_faults_at_exact_pc() {
    let p = program(vec![
        addi(Reg::T1, Reg::ZERO, 0x200),
        lw(Reg::A0, Reg::T1, 0), // legal page-0 load
        addi(Reg::T2, Reg::ZERO, 0x10),
        lw(Reg::A1, Reg::T2, 0), // 3: addr 0x10 < 0x100 -> fault
        Inst::Jal {
            rd: Reg::ZERO,
            target: 5,
        },
        Inst::Ecall,
    ]);
    for kind in VmKind::BOTH {
        assert_eq!(
            run(&p, VmProfile::for_kind(kind)),
            Err(ExecError::MemFault { addr: 0x10, pc: 3 }),
            "batched mem block must preserve the null guard ({kind})"
        );
    }
}

/// A resident *legal* page must not let a later sub-0x100 store through:
/// the hit test is per-page, and an address below the guard never hits.
#[test]
fn probe_hit_on_other_page_never_bypasses_null_guard() {
    let p = program(vec![
        addi(Reg::T1, Reg::ZERO, 0x400),
        lw(Reg::A0, Reg::T1, 0), // page 1 becomes resident
        addi(Reg::T2, Reg::ZERO, 0x10),
        sw(Reg::A0, Reg::T2, 0), // 3: store to 0x10 -> fault
        Inst::Jal {
            rd: Reg::ZERO,
            target: 5,
        },
        Inst::Ecall,
    ]);
    let r = run(&p, VmProfile::risc_zero());
    assert_eq!(r, Err(ExecError::MemFault { addr: 0x10, pc: 3 }));
}

/// A block whose whole footprint is page 0 charges exactly one page-in: the
/// first access pays, later same-page accesses are resident.
#[test]
fn mem_block_page0_footprint_charges_one_page_in() {
    let p = program(vec![
        addi(Reg::T1, Reg::ZERO, 0x200),
        lw(Reg::A0, Reg::T1, 0),
        sw(Reg::A0, Reg::T1, 4),
        lw(Reg::A1, Reg::T1, 8),
        Inst::Jal {
            rd: Reg::ZERO,
            target: 5,
        },
        Inst::Ecall,
    ]);
    let r = run(&p, VmProfile::risc_zero()).expect("legal page-0 block runs");
    assert_eq!(r.page_ins, 1, "page 0 pages in exactly once");
}

/// The hot page-0 loop on the fast tier must be bit-identical to the step
/// interpreter on every architectural observable.
#[test]
fn page0_hot_loop_matches_the_step_interpreter() {
    let p = page0_loop();
    let d = DecodedProgram::decode(&p);
    for kind in VmKind::BOTH {
        let profile = VmProfile::for_kind(kind);
        let fast = Engine::new(&d, profile.clone(), ExecConfig::default())
            .run()
            .expect("engine run");
        assert!(
            fast.stats.probe_hits > fast.stats.probe_misses,
            "the loop should run on the fast tier ({kind}): {:?}",
            fast.stats
        );
        let stepped = Machine::new(&p, profile, ExecConfig::default())
            .run()
            .expect("reference run");
        assert_eq!(fast.instret, stepped.instret, "instret ({kind})");
        assert_eq!(fast.user_cycles, stepped.user_cycles, "cycles ({kind})");
        assert_eq!(fast.paging_cycles, stepped.paging_cycles, "paging ({kind})");
        assert_eq!(fast.page_ins, stepped.page_ins, "page_ins ({kind})");
        assert_eq!(fast.page_outs, stepped.page_outs, "page_outs ({kind})");
        assert_eq!(fast.segments, stepped.segments, "segments ({kind})");
        assert_eq!(fast.mix, stepped.mix, "mix ({kind})");
        assert_eq!(fast.exit_code, stepped.exit_code, "exit ({kind})");
        assert_eq!(fast.journal, stepped.journal, "journal ({kind})");
        assert_eq!(fast.page_ins, 1, "loop footprint is one page ({kind})");
    }
}
