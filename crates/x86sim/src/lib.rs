//! # zkvmopt-x86sim
//!
//! A trace-driven x86-like timing model for the paper's RQ3 comparison.
//!
//! **Substitution note:** the paper ran native x86 binaries on an
//! EPYC 7742. What RQ3 actually uses is the *direction and rough magnitude*
//! of four micro-architectural mechanisms zkVMs lack:
//!
//! 1. long-latency division (so strength reduction pays, Fig. 2a),
//! 2. branch misprediction penalties (so if-conversion pays, Fig. 13),
//! 3. a cache hierarchy (so loop fission/locality pays, Fig. 2b),
//! 4. wide issue/ILP (so more-but-independent instructions are cheap).
//!
//! This simulator executes the same RV32IM programs as the zkVM and charges
//! an x86-like cost: a gshare branch predictor with a misprediction penalty,
//! an L1/L2/DRAM hierarchy, per-class latencies, and a superscalar discount
//! on simple ALU work.

use zkvmopt_ir::ecall;
use zkvmopt_riscv::inst::{AluOp, Inst, MemWidth};
use zkvmopt_riscv::{Program, Reg};
use zkvmopt_vm::ecalls::{run_precompile, FlatMem};
use zkvmopt_vm::{alu, alu_imm};

/// Timing parameters of the modelled CPU.
#[derive(Debug, Clone, PartialEq)]
pub struct X86Model {
    /// Cost of a simple ALU op after the superscalar discount (cycles).
    pub alu_cost: f64,
    /// Multiply latency contribution.
    pub mul_cost: f64,
    /// Divide latency contribution (the Fig. 2a driver).
    pub div_cost: f64,
    /// L1-hit load cost.
    pub load_l1: f64,
    /// Additional cost on L1 miss (L2 hit).
    pub l2_penalty: f64,
    /// Additional cost on L2 miss (DRAM).
    pub mem_penalty: f64,
    /// Store cost (write-buffer absorbed).
    pub store_cost: f64,
    /// Correctly-predicted branch cost.
    pub branch_cost: f64,
    /// Misprediction penalty (the Fig. 13 driver).
    pub mispredict_penalty: f64,
    /// Core frequency in Hz (for wall-time conversion).
    pub freq_hz: f64,
}

impl Default for X86Model {
    fn default() -> X86Model {
        X86Model {
            alu_cost: 0.4,
            mul_cost: 1.2,
            div_cost: 21.0,
            // Zen-class L1d latency is ~4 cycles; unoptimized stack traffic
            // pays it on every access, which is precisely why -O levels buy
            // CPUs so much more than zkVMs (paper Fig. 7).
            load_l1: 4.0,
            l2_penalty: 10.0,
            mem_penalty: 120.0,
            store_cost: 1.0,
            branch_cost: 0.6,
            mispredict_penalty: 14.0,
            freq_hz: 3.3e9,
        }
    }
}

/// What the x86 model reports for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct X86Report {
    /// Dynamic instructions executed.
    pub instret: u64,
    /// Modelled core cycles.
    pub cycles: f64,
    /// Modelled native execution time, milliseconds.
    pub time_ms: f64,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// L1 data-cache misses.
    pub l1_misses: u64,
    /// L2 misses (DRAM accesses).
    pub l2_misses: u64,
    /// Exit code (must match the zkVM's).
    pub exit_code: i32,
    /// Journal (must match the zkVM's).
    pub journal: Vec<i32>,
}

/// gshare branch predictor: global history XOR pc indexing 2-bit counters.
struct Gshare {
    history: u32,
    table: Vec<u8>,
    bits: u32,
}

impl Gshare {
    fn new(bits: u32) -> Gshare {
        Gshare {
            history: 0,
            table: vec![1; 1 << bits],
            bits,
        }
    }

    fn predict_and_update(&mut self, pc: usize, taken: bool) -> bool {
        let mask = (1u32 << self.bits) - 1;
        let idx = ((pc as u32) ^ self.history) & mask;
        let ctr = &mut self.table[idx as usize];
        let predicted = *ctr >= 2;
        if taken {
            *ctr = (*ctr + 1).min(3);
        } else {
            *ctr = ctr.saturating_sub(1);
        }
        self.history = ((self.history << 1) | taken as u32) & mask;
        predicted == taken
    }
}

/// A set-associative LRU cache level.
struct Cache {
    sets: Vec<Vec<u32>>, // tags, most-recent last
    ways: usize,
    line_bits: u32,
    set_bits: u32,
}

impl Cache {
    fn new(size_bytes: u32, ways: usize, line_bytes: u32) -> Cache {
        let lines = size_bytes / line_bytes;
        let sets = (lines as usize) / ways;
        Cache {
            sets: vec![Vec::new(); sets],
            ways,
            line_bits: line_bytes.trailing_zeros(),
            set_bits: (sets as u32).trailing_zeros(),
        }
    }

    /// Access `addr`; returns true on hit.
    fn access(&mut self, addr: u32) -> bool {
        let line = addr >> self.line_bits;
        let set = (line & ((1 << self.set_bits) - 1)) as usize;
        let tag = line >> self.set_bits;
        let entries = &mut self.sets[set];
        if let Some(pos) = entries.iter().position(|t| *t == tag) {
            let t = entries.remove(pos);
            entries.push(t);
            true
        } else {
            entries.push(tag);
            if entries.len() > self.ways {
                entries.remove(0);
            }
            false
        }
    }
}

/// Execution failure (mirrors the zkVM's).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum X86Error {
    /// Memory fault.
    MemFault { addr: u32 },
    /// Jump outside code.
    BadPc { pc: usize },
    /// Instruction budget exhausted.
    StepLimit,
}

impl std::fmt::Display for X86Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            X86Error::MemFault { addr } => write!(f, "memory fault at {addr:#x}"),
            X86Error::BadPc { pc } => write!(f, "bad pc {pc}"),
            X86Error::StepLimit => write!(f, "step limit exceeded"),
        }
    }
}

impl std::error::Error for X86Error {}

/// Run `program` under the x86 timing model.
///
/// # Errors
/// Returns [`X86Error`] on faults or after 2 G instructions.
pub fn run_x86(program: &Program, model: &X86Model, inputs: &[i32]) -> Result<X86Report, X86Error> {
    let mem_size = zkvmopt_ir::interp::MEM_SIZE as usize;
    let mut mem = vec![0u8; mem_size];
    for (addr, data) in &program.globals {
        let a = *addr as usize;
        mem[a..a + data.len()].copy_from_slice(data);
    }
    let mut regs = [0u32; 32];
    regs[Reg::SP.0 as usize] = zkvmopt_ir::interp::STACK_TOP;
    let mut pc = program.entry;
    let mut cycles: f64 = 0.0;
    let mut instret: u64 = 0;
    let mut mispredicts: u64 = 0;
    let mut l1_misses: u64 = 0;
    let mut l2_misses: u64 = 0;
    let mut journal = Vec::new();
    let mut predictor = Gshare::new(12);
    let mut l1 = Cache::new(32 * 1024, 8, 64);
    let mut l2 = Cache::new(1024 * 1024, 16, 64);
    let max_steps: u64 = 2_000_000_000;

    let reg = |regs: &[u32; 32], r: Reg| regs[r.0 as usize];
    macro_rules! set_reg {
        ($r:expr, $v:expr) => {
            if $r != Reg::ZERO {
                regs[$r.0 as usize] = $v;
            }
        };
    }
    let exit_code;
    loop {
        let Some(inst) = program.code.get(pc) else {
            return Err(X86Error::BadPc { pc });
        };
        let mut next_pc = pc + 1;
        match *inst {
            Inst::Lui { rd, imm } => {
                cycles += model.alu_cost;
                set_reg!(rd, imm as u32);
            }
            Inst::Alu { op, rd, rs1, rs2 } => {
                cycles += match op {
                    AluOp::Mul | AluOp::Mulh | AluOp::Mulhsu | AluOp::Mulhu => model.mul_cost,
                    AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu => model.div_cost,
                    _ => model.alu_cost,
                };
                set_reg!(rd, alu(op, reg(&regs, rs1), reg(&regs, rs2)));
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                cycles += model.alu_cost;
                set_reg!(rd, alu_imm(op, reg(&regs, rs1), imm));
            }
            Inst::Load {
                width,
                rd,
                base,
                offset,
            } => {
                let addr = reg(&regs, base).wrapping_add(offset as u32);
                if addr < 0x100 || addr as usize + width.bytes() as usize > mem_size {
                    return Err(X86Error::MemFault { addr });
                }
                cycles += model.load_l1;
                if !l1.access(addr) {
                    l1_misses += 1;
                    cycles += model.l2_penalty;
                    if !l2.access(addr) {
                        l2_misses += 1;
                        cycles += model.mem_penalty;
                    }
                }
                let a = addr as usize;
                let raw = match width.bytes() {
                    1 => mem[a] as u32,
                    2 => u16::from_le_bytes([mem[a], mem[a + 1]]) as u32,
                    _ => u32::from_le_bytes([mem[a], mem[a + 1], mem[a + 2], mem[a + 3]]),
                };
                let v = match width {
                    MemWidth::Byte => (raw as u8 as i8) as i32 as u32,
                    MemWidth::ByteU => raw & 0xff,
                    MemWidth::Half => (raw as u16 as i16) as i32 as u32,
                    MemWidth::HalfU => raw & 0xffff,
                    MemWidth::Word => raw,
                };
                set_reg!(rd, v);
            }
            Inst::Store {
                width,
                src,
                base,
                offset,
            } => {
                let addr = reg(&regs, base).wrapping_add(offset as u32);
                if addr < 0x100 || addr as usize + width.bytes() as usize > mem_size {
                    return Err(X86Error::MemFault { addr });
                }
                cycles += model.store_cost;
                if !l1.access(addr) {
                    l1_misses += 1;
                    cycles += model.l2_penalty;
                    if !l2.access(addr) {
                        l2_misses += 1;
                        cycles += model.mem_penalty;
                    }
                }
                let a = addr as usize;
                let v = reg(&regs, src);
                match width.bytes() {
                    1 => mem[a] = v as u8,
                    2 => mem[a..a + 2].copy_from_slice(&(v as u16).to_le_bytes()),
                    _ => mem[a..a + 4].copy_from_slice(&v.to_le_bytes()),
                }
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let taken = cond.eval(reg(&regs, rs1), reg(&regs, rs2));
                cycles += model.branch_cost;
                if !predictor.predict_and_update(pc, taken) {
                    mispredicts += 1;
                    cycles += model.mispredict_penalty;
                }
                if taken {
                    next_pc = target;
                }
            }
            Inst::Jal { rd, target } => {
                cycles += model.branch_cost;
                set_reg!(rd, (pc as u32 + 1) * 4);
                next_pc = target;
            }
            Inst::Jalr { rd, rs1, offset } => {
                cycles += model.branch_cost + 0.5; // indirect target resolution
                let t = reg(&regs, rs1).wrapping_add(offset as u32) / 4;
                set_reg!(rd, (pc as u32 + 1) * 4);
                next_pc = t as usize;
            }
            Inst::Ecall => {
                let code = reg(&regs, Reg::T0);
                let args = [
                    reg(&regs, Reg::A0) as i64,
                    reg(&regs, Reg::A1) as i64,
                    reg(&regs, Reg::A2) as i64,
                ];
                match code {
                    ecall::HALT => {
                        exit_code = reg(&regs, Reg::A0) as i32;
                        instret += 1;
                        break;
                    }
                    ecall::COMMIT => {
                        journal.push(reg(&regs, Reg::A0) as i32);
                        set_reg!(Reg::A0, 0);
                        cycles += 5.0;
                    }
                    ecall::READ_INPUT => {
                        let idx = reg(&regs, Reg::A0) as usize;
                        set_reg!(Reg::A0, inputs.get(idx).copied().unwrap_or(0) as u32);
                        cycles += 5.0;
                    }
                    other => {
                        // Native crypto is fast: a small per-byte charge.
                        let len = args[1].max(32) as f64;
                        cycles += 60.0 + len * 1.5;
                        let r = run_precompile(other, &args, &mut FlatMem(&mut mem[..]));
                        set_reg!(Reg::A0, r as u32);
                    }
                }
            }
        }
        instret += 1;
        if instret > max_steps {
            return Err(X86Error::StepLimit);
        }
        pc = next_pc;
    }

    Ok(X86Report {
        instret,
        cycles,
        time_ms: cycles / model.freq_hz * 1e3,
        mispredicts,
        l1_misses,
        l2_misses,
        exit_code,
        journal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkvmopt_riscv::TargetCostModel;

    fn build(src: &str, cm: &TargetCostModel, passes: &[&str]) -> Program {
        let mut m = zkvmopt_lang::compile_guest(src).expect("compiles");
        for p in passes {
            zkvmopt_passes::run_pass(p, &mut m, &zkvmopt_passes::PassConfig::default());
        }
        zkvmopt_riscv::compile_module(&m, cm).expect("codegen")
    }

    #[test]
    fn matches_zkvm_behaviour() {
        let src = "fn main() -> i32 {
                     let mut s: i32 = 0;
                     for (let mut i: i32 = 0; i < 20; i += 1) { s += i * i; commit(s % 7); }
                     return s;
                   }";
        let p = build(src, &TargetCostModel::cpu(), &["mem2reg"]);
        let x = run_x86(&p, &X86Model::default(), &[]).unwrap();
        let z = zkvmopt_vm::run_program(&p, zkvmopt_vm::VmKind::RiscZero, &[]).unwrap();
        assert_eq!(x.exit_code, z.exit_code);
        assert_eq!(x.journal, z.journal);
        assert_eq!(x.instret, z.instret);
    }

    #[test]
    fn division_expansion_helps_x86_hurts_zkvm() {
        // The paper's Fig. 2a in miniature: div-by-8 in a hot loop.
        let src = "fn main() -> i32 {
                     let mut s: i32 = 0;
                     for (let mut i: i32 = 1; i < 2000; i += 1) { s += i / 8; }
                     return s;
                   }";
        let expanded = build(src, &TargetCostModel::cpu(), &["mem2reg"]);
        let keep_div = build(src, &TargetCostModel::zk(), &["mem2reg"]);
        let model = X86Model::default();
        let x_exp = run_x86(&expanded, &model, &[]).unwrap();
        let x_div = run_x86(&keep_div, &model, &[]).unwrap();
        assert_eq!(x_exp.exit_code, x_div.exit_code);
        assert!(
            x_exp.cycles < x_div.cycles,
            "shifts beat div on x86: {} !< {}",
            x_exp.cycles,
            x_div.cycles
        );
        let z_exp = zkvmopt_vm::run_program(&expanded, zkvmopt_vm::VmKind::RiscZero, &[]).unwrap();
        let z_div = zkvmopt_vm::run_program(&keep_div, zkvmopt_vm::VmKind::RiscZero, &[]).unwrap();
        assert!(
            z_div.total_cycles < z_exp.total_cycles,
            "single div beats shifts on zkVM: {} !< {}",
            z_div.total_cycles,
            z_exp.total_cycles
        );
    }

    #[test]
    fn mispredictable_branches_cost_on_x86() {
        // Data-dependent branch on a pseudo-random sequence.
        let branchy = "fn main() -> i32 {
                         let mut s: i32 = 0;
                         let mut x: u32 = 12345;
                         for (let mut i: i32 = 0; i < 3000; i += 1) {
                           x = x * 1103515245 + 12345;
                           if ((x >> 16 & 1) == 1) { s += 3; } else { s -= 1; }
                         }
                         return s;
                       }";
        let p = build(branchy, &TargetCostModel::cpu(), &["mem2reg"]);
        let x = run_x86(&p, &X86Model::default(), &[]).unwrap();
        // Roughly half of 3000 data-dependent branches mispredict.
        assert!(x.mispredicts > 800, "mispredicts: {}", x.mispredicts);
    }

    #[test]
    fn cache_misses_show_up_for_large_strides() {
        let src = "static A: [i32; 65536];
                   fn main() -> i32 {
                     let mut s: i32 = 0;
                     for (let mut i: i32 = 0; i < 65536; i += 16) { A[i] = i; s += A[i]; }
                     return s;
                   }";
        let p = build(src, &TargetCostModel::cpu(), &["mem2reg"]);
        let x = run_x86(&p, &X86Model::default(), &[]).unwrap();
        assert!(x.l1_misses > 3000, "l1 misses: {}", x.l1_misses);
    }

    #[test]
    fn predictable_loop_branches_are_cheap() {
        let src = "fn main() -> i32 {
                     let mut s: i32 = 0;
                     for (let mut i: i32 = 0; i < 5000; i += 1) { s += 1; }
                     return s;
                   }";
        let p = build(src, &TargetCostModel::cpu(), &["mem2reg"]);
        let x = run_x86(&p, &X86Model::default(), &[]).unwrap();
        // ~5000 loop-back branches, almost all predicted.
        assert!(x.mispredicts < 100, "mispredicts: {}", x.mispredicts);
    }
}
