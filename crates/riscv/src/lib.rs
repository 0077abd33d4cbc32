//! # zkvmopt-riscv
//!
//! RV32IM code generation for `zkvmopt-ir` modules, with a **pluggable target
//! cost model** — the crate-level embodiment of the paper's Change set 1
//! (§6.1): the same IR lowers differently depending on whether the backend
//! believes division is expensive (traditional CPU) or uniform-cost (zkVM).
//!
//! Pipeline: [`isel`] (IR → [`vinst::VInst`] with virtual registers) →
//! [`regalloc`] (linear scan with real spilling) → [`emit`] (prologues,
//! parallel moves, linking) → [`Program`].
//!
//! ## Example
//!
//! ```
//! let m = zkvmopt_lang::compile(
//!     "fn main() -> i32 { return 6 * 7; }").unwrap();
//! let prog = zkvmopt_riscv::compile_module(&m, &zkvmopt_riscv::TargetCostModel::zk()).unwrap();
//! assert!(prog.len() > 0);
//! assert!(prog.disassemble().contains("main:"));
//! ```

pub mod emit;
pub mod encode;
pub mod inst;
pub mod isel;
pub mod reg;
pub mod regalloc;
pub mod vinst;

pub use emit::Program;
pub use inst::{AluImmOp, AluOp, BranchCond, Inst, MemWidth, MixClass};
pub use isel::CodegenError;
pub use reg::{Reg, VReg};

use zkvmopt_ir::Module;

/// Target-specific lowering decisions (the paper's RISCVTTIImpl analogue).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetCostModel {
    /// Human-readable name.
    pub name: &'static str,
    /// Expand `sdiv x, 2^k` into the four-instruction shift-and-add sequence
    /// (paper Fig. 2a). Profitable when division is slow (CPUs); harmful when
    /// every instruction costs one cycle (zkVMs).
    pub expand_sdiv_pow2: bool,
    /// Lower `select` as `f + c*(t - f)` (3 instructions, one multiply)
    /// instead of the mask form (6 instructions, no multiply). zkVMs prefer
    /// fewer instructions; CPUs prefer avoiding the multiply latency.
    pub select_via_mul: bool,
}

impl TargetCostModel {
    /// The CPU-tuned model (LLVM's stock RISC-V backend attitude).
    pub fn cpu() -> TargetCostModel {
        TargetCostModel {
            name: "cpu",
            expand_sdiv_pow2: true,
            select_via_mul: false,
        }
    }

    /// The zkVM-aware model from the paper's Change set 1.
    pub fn zk() -> TargetCostModel {
        TargetCostModel {
            name: "zk",
            expand_sdiv_pow2: false,
            select_via_mul: true,
        }
    }
}

impl Default for TargetCostModel {
    fn default() -> TargetCostModel {
        TargetCostModel::cpu()
    }
}

/// Compile a verified IR module to a linked RV32IM program.
///
/// # Errors
/// Returns [`CodegenError`] for unsupported shapes (no `main`, >8 call
/// arguments).
pub fn compile_module(m: &Module, cm: &TargetCostModel) -> Result<Program, CodegenError> {
    let main = m.main_func().ok_or_else(|| CodegenError {
        func: "<module>".into(),
        message: "module has no main".into(),
    })?;
    let addrs = m.layout_globals();
    let mut funcs = Vec::with_capacity(m.funcs.len());
    for fi in 0..m.funcs.len() {
        let vf = isel::lower_function(m, fi, cm, &addrs)?;
        let mut af = regalloc::allocate(&vf);
        regalloc::cleanup(&mut af);
        funcs.push(af);
    }
    let globals: Vec<(u32, Vec<u8>)> = m
        .globals
        .iter()
        .zip(&addrs)
        .map(|(g, &a)| (a, g.init.clone()))
        .collect();
    emit::link(&funcs, globals, main.index())
}

/// The `proptest_passes` program generator, shared with the oracle tests.
#[cfg(test)]
#[path = "../../../tests/common/program_gen.rs"]
mod program_gen;

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str, cm: &TargetCostModel) -> Program {
        let m = zkvmopt_lang::compile(src).expect("compiles");
        compile_module(&m, cm).expect("lowers")
    }

    #[test]
    fn emits_start_stub_and_main() {
        let p = compile("fn main() -> i32 { return 1; }", &TargetCostModel::zk());
        assert_eq!(p.entry, 0);
        let asm = p.disassemble();
        assert!(asm.contains("main:"), "{asm}");
        assert!(asm.contains("ecall"), "{asm}");
    }

    #[test]
    fn cost_models_diverge_on_sdiv() {
        let src = "fn main() -> i32 { let x: i32 = read_input(0); return x / 8; }";
        let cpu = compile(src, &TargetCostModel::cpu());
        let zk = compile(src, &TargetCostModel::zk());
        let cpu_asm = cpu.disassemble();
        let zk_asm = zk.disassemble();
        assert!(
            !cpu_asm.contains("div "),
            "CPU model must expand the division:\n{cpu_asm}"
        );
        assert!(
            zk_asm.contains("div "),
            "zk model must keep the division:\n{zk_asm}"
        );
        assert!(cpu.len() > zk.len());
    }

    #[test]
    fn calls_are_linked() {
        let p = compile(
            "fn add(a: i32, b: i32) -> i32 { return a + b; }
             fn main() -> i32 { return add(1, 2); }",
            &TargetCostModel::zk(),
        );
        // Two function entries plus a _start jal to main.
        assert_eq!(p.func_entries.len(), 2);
        assert!(p.func_entries.iter().all(|&e| e != usize::MAX));
        let main_entry = p.func_entries[1];
        match p.code[p.entry] {
            Inst::Jal { target, .. } => assert_eq!(target, main_entry),
            other => panic!("start stub should jal main, got {other}"),
        }
    }

    #[test]
    fn globals_are_laid_out_with_init() {
        let p = compile(
            "static T: [i32; 3] = [7, 8, 9];
             fn main() -> i32 { return T[2]; }",
            &TargetCostModel::zk(),
        );
        assert_eq!(p.globals.len(), 1);
        let (addr, data) = &p.globals[0];
        assert!(*addr >= zkvmopt_ir::func::GLOBAL_BASE);
        assert_eq!(data.len(), 12);
        assert_eq!(&data[8..12], &9i32.to_le_bytes());
    }

    #[test]
    fn whole_program_encodes() {
        let p = compile(
            "fn main() -> i32 {
               let mut s: i32 = 0;
               for (let mut i: i32 = 0; i < 5; i += 1) { s += i; }
               return s;
             }",
            &TargetCostModel::cpu(),
        );
        for (pc, inst) in p.code.iter().enumerate() {
            let w = encode::encode(inst, pc);
            let back = encode::decode(w, pc).expect("decodable");
            assert_eq!(*inst, back, "at {pc}: {inst}");
        }
    }
}
