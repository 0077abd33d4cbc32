//! Permanent regression suite for the page-0 probe sentinel bug: a one-entry
//! residency probe once used `probe_page: 0` as its empty sentinel, so the
//! first access to any page-0 address vacuously "hit" — swallowing the
//! null-guard `MemFault` for `addr < 0x100` and eliding the page-in charge
//! for legal page-0 addresses. The probe is gone (the residency table has no
//! sentinel, and an address below the guard never hits); these tests pin
//! the semantics on cold accesses, `page0_blocks.rs` on resident pages.

use zkvmopt_riscv::inst::{AluImmOp, MemWidth};
use zkvmopt_riscv::{Inst, Program, Reg};
use zkvmopt_vm::{DecodedProgram, Engine, ExecConfig, ExecError, VmProfile};

fn run(code: Vec<Inst<Reg>>) -> Result<zkvmopt_vm::ExecutionReport, ExecError> {
    let p = Program {
        code,
        entry: 0,
        func_entries: vec![],
        func_names: vec![],
        globals: vec![],
        spilled_vregs: 0,
    };
    let d = DecodedProgram::decode(&p);
    Engine::new(&d, VmProfile::risc_zero(), ExecConfig::default()).run()
}

#[test]
fn null_guard_load_faults() {
    // t1 = 0x10; lw a0, 0(t1)  -> reference faults (addr < 0x100)
    let r = run(vec![
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
    ]);
    assert!(
        matches!(r, Err(ExecError::MemFault { addr: 0x10, .. })),
        "expected MemFault at 0x10, got {r:?}"
    );
}

#[test]
fn legal_page0_load_charges_page_in() {
    // t1 = 0x200 (legal, inside page 0 for 1 KiB pages); lw a0, 0(t1)
    let r = run(vec![
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
    ])
    .expect("legal load runs");
    assert_eq!(r.page_ins, 1, "reference charges one page-in for page 0");
}
