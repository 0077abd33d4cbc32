//! RV32IM instructions, generic over the register type so the same enum
//! serves pre-allocation (`Inst<VReg>`) and final (`Inst<Reg>`) code.

use std::fmt;

/// ALU operations with a register–register form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    // RV32M
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
}

impl AluOp {
    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Sll => "sll",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Xor => "xor",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Or => "or",
            AluOp::And => "and",
            AluOp::Mul => "mul",
            AluOp::Mulh => "mulh",
            AluOp::Mulhsu => "mulhsu",
            AluOp::Mulhu => "mulhu",
            AluOp::Div => "div",
            AluOp::Divu => "divu",
            AluOp::Rem => "rem",
            AluOp::Remu => "remu",
        }
    }

    /// Which instruction-mix bucket a register–register ALU op falls into.
    /// The block-dispatch engine's accounting (per-op and per-block) routes
    /// through here; the reference step interpreter deliberately keeps its
    /// own copy of this split so the differential harness compares two
    /// independent implementations.
    pub fn mix_class(self) -> MixClass {
        match self {
            AluOp::Mul | AluOp::Mulh | AluOp::Mulhsu | AluOp::Mulhu => MixClass::Mul,
            AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu => MixClass::Div,
            _ => MixClass::Alu,
        }
    }

    /// Whether this is an RV32M (multiply/divide extension) operation.
    pub fn is_m_ext(self) -> bool {
        matches!(
            self,
            AluOp::Mul
                | AluOp::Mulh
                | AluOp::Mulhsu
                | AluOp::Mulhu
                | AluOp::Div
                | AluOp::Divu
                | AluOp::Rem
                | AluOp::Remu
        )
    }
}

/// ALU operations with an immediate form (`addi`, `slti`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluImmOp {
    Addi,
    Slti,
    Sltiu,
    Xori,
    Ori,
    Andi,
    Slli,
    Srli,
    Srai,
}

impl AluImmOp {
    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluImmOp::Addi => "addi",
            AluImmOp::Slti => "slti",
            AluImmOp::Sltiu => "sltiu",
            AluImmOp::Xori => "xori",
            AluImmOp::Ori => "ori",
            AluImmOp::Andi => "andi",
            AluImmOp::Slli => "slli",
            AluImmOp::Srli => "srli",
            AluImmOp::Srai => "srai",
        }
    }
}

/// Memory access widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// `lb`/`sb` (loads sign-extend).
    Byte,
    /// `lbu`.
    ByteU,
    /// `lh`/`sh`.
    Half,
    /// `lhu`.
    HalfU,
    /// `lw`/`sw`.
    Word,
}

impl MemWidth {
    /// Access size in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            MemWidth::Byte | MemWidth::ByteU => 1,
            MemWidth::Half | MemWidth::HalfU => 2,
            MemWidth::Word => 4,
        }
    }
}

/// Branch conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    Eq,
    Ne,
    Lt,
    Ge,
    Ltu,
    Geu,
}

impl BranchCond {
    /// Assembly mnemonic (`beq`, …).
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
            BranchCond::Ltu => "bltu",
            BranchCond::Geu => "bgeu",
        }
    }

    /// Evaluate on 32-bit values.
    pub fn eval(self, a: u32, b: u32) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i32) < (b as i32),
            BranchCond::Ge => (a as i32) >= (b as i32),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }
}

/// Coarse dynamic-instruction classification shared by the executors'
/// instruction-mix accounting (the step interpreter, the block-dispatch
/// engine's pre-decoder, and the x86 timing model all bucket the same way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MixClass {
    /// ALU / immediate ALU operations (incl. `lui`).
    Alu,
    /// RV32M multiplies.
    Mul,
    /// RV32M divisions and remainders.
    Div,
    /// Loads.
    Load,
    /// Stores.
    Store,
    /// Conditional branches.
    Branch,
    /// Jumps (`jal`/`jalr`).
    Jump,
    /// Environment calls.
    Ecall,
}

/// One RV32IM instruction, generic over the register type `R`.
///
/// Control-flow targets are *code indices* (instruction slots) rather than
/// byte offsets; the encoder converts to byte offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst<R> {
    /// `lui rd, imm20` — load upper immediate (`imm` is the final 32-bit
    /// value with low 12 bits zero).
    Lui { rd: R, imm: i32 },
    /// Register–register ALU.
    Alu { op: AluOp, rd: R, rs1: R, rs2: R },
    /// Register–immediate ALU (imm must fit 12 bits signed, 5 bits for
    /// shifts).
    AluImm {
        op: AluImmOp,
        rd: R,
        rs1: R,
        imm: i32,
    },
    /// Load of the given width.
    Load {
        width: MemWidth,
        rd: R,
        base: R,
        offset: i32,
    },
    /// Store of the given width.
    Store {
        width: MemWidth,
        src: R,
        base: R,
        offset: i32,
    },
    /// Conditional branch to code index `target`.
    Branch {
        cond: BranchCond,
        rs1: R,
        rs2: R,
        target: usize,
    },
    /// Unconditional jump (writes return address to `rd`).
    Jal { rd: R, target: usize },
    /// Indirect jump: `jalr rd, rs1, imm` (used for `ret`).
    Jalr { rd: R, rs1: R, offset: i32 },
    /// Environment call (the zkVM syscall/precompile gate).
    Ecall,
}

impl<R: Copy> Inst<R> {
    /// Map every register through `f` (used to apply the allocation).
    pub fn map_regs<S: Copy>(&self, mut f: impl FnMut(R) -> S) -> Inst<S> {
        match *self {
            Inst::Lui { rd, imm } => Inst::Lui { rd: f(rd), imm },
            Inst::Alu { op, rd, rs1, rs2 } => Inst::Alu {
                op,
                rd: f(rd),
                rs1: f(rs1),
                rs2: f(rs2),
            },
            Inst::AluImm { op, rd, rs1, imm } => Inst::AluImm {
                op,
                rd: f(rd),
                rs1: f(rs1),
                imm,
            },
            Inst::Load {
                width,
                rd,
                base,
                offset,
            } => Inst::Load {
                width,
                rd: f(rd),
                base: f(base),
                offset,
            },
            Inst::Store {
                width,
                src,
                base,
                offset,
            } => Inst::Store {
                width,
                src: f(src),
                base: f(base),
                offset,
            },
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => Inst::Branch {
                cond,
                rs1: f(rs1),
                rs2: f(rs2),
                target,
            },
            Inst::Jal { rd, target } => Inst::Jal { rd: f(rd), target },
            Inst::Jalr { rd, rs1, offset } => Inst::Jalr {
                rd: f(rd),
                rs1: f(rs1),
                offset,
            },
            Inst::Ecall => Inst::Ecall,
        }
    }

    /// The register this instruction defines, if any.
    pub fn def(&self) -> Option<R> {
        match *self {
            Inst::Lui { rd, .. }
            | Inst::Alu { rd, .. }
            | Inst::AluImm { rd, .. }
            | Inst::Load { rd, .. }
            | Inst::Jal { rd, .. }
            | Inst::Jalr { rd, .. } => Some(rd),
            _ => None,
        }
    }

    /// Which instruction-mix bucket a dynamic execution of this instruction
    /// falls into.
    pub fn mix_class(&self) -> MixClass {
        match self {
            Inst::Lui { .. } | Inst::AluImm { .. } => MixClass::Alu,
            Inst::Alu { op, .. } => op.mix_class(),
            Inst::Load { .. } => MixClass::Load,
            Inst::Store { .. } => MixClass::Store,
            Inst::Branch { .. } => MixClass::Branch,
            Inst::Jal { .. } | Inst::Jalr { .. } => MixClass::Jump,
            Inst::Ecall => MixClass::Ecall,
        }
    }

    /// Whether this instruction ends a basic block (control may leave the
    /// fall-through path). `ecall` is *not* a terminator: except for `halt`
    /// (which ends the whole execution) it falls through.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Branch { .. } | Inst::Jal { .. } | Inst::Jalr { .. }
        )
    }

    /// The statically-known control-flow target (code index), if any.
    /// `jalr` targets are dynamic and return `None`.
    pub fn static_target(&self) -> Option<usize> {
        match self {
            Inst::Branch { target, .. } | Inst::Jal { target, .. } => Some(*target),
            _ => None,
        }
    }

    /// The registers this instruction reads.
    pub fn uses(&self) -> Vec<R> {
        match *self {
            Inst::Alu { rs1, rs2, .. } => vec![rs1, rs2],
            Inst::AluImm { rs1, .. } => vec![rs1],
            Inst::Load { base, .. } => vec![base],
            Inst::Store { src, base, .. } => vec![src, base],
            Inst::Branch { rs1, rs2, .. } => vec![rs1, rs2],
            Inst::Jalr { rs1, .. } => vec![rs1],
            Inst::Lui { .. } | Inst::Jal { .. } | Inst::Ecall => vec![],
        }
    }
}

impl<R: fmt::Display> fmt::Display for Inst<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Lui { rd, imm } => write!(f, "lui {rd}, {:#x}", (*imm as u32) >> 12),
            Inst::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                write!(f, "{} {rd}, {rs1}, {imm}", op.mnemonic())
            }
            Inst::Load {
                width,
                rd,
                base,
                offset,
            } => {
                let m = match width {
                    MemWidth::Byte => "lb",
                    MemWidth::ByteU => "lbu",
                    MemWidth::Half => "lh",
                    MemWidth::HalfU => "lhu",
                    MemWidth::Word => "lw",
                };
                write!(f, "{m} {rd}, {offset}({base})")
            }
            Inst::Store {
                width,
                src,
                base,
                offset,
            } => {
                let m = match width {
                    MemWidth::Byte | MemWidth::ByteU => "sb",
                    MemWidth::Half | MemWidth::HalfU => "sh",
                    MemWidth::Word => "sw",
                };
                write!(f, "{m} {src}, {offset}({base})")
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                write!(f, "{} {rs1}, {rs2}, .L{target}", cond.mnemonic())
            }
            Inst::Jal { rd, target } => write!(f, "jal {rd}, .L{target}"),
            Inst::Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {rs1}, {offset}"),
            Inst::Ecall => write!(f, "ecall"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    #[test]
    fn def_use_classification() {
        let i: Inst<Reg> = Inst::Alu {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        };
        assert_eq!(i.def(), Some(Reg::A0));
        assert_eq!(i.uses(), vec![Reg::A1, Reg::A2]);
        let s: Inst<Reg> = Inst::Store {
            width: MemWidth::Word,
            src: Reg::A0,
            base: Reg::SP,
            offset: 4,
        };
        assert_eq!(s.def(), None);
        assert_eq!(s.uses(), vec![Reg::A0, Reg::SP]);
    }

    #[test]
    fn display_asm() {
        let i: Inst<Reg> = Inst::AluImm {
            op: AluImmOp::Addi,
            rd: Reg::SP,
            rs1: Reg::SP,
            imm: -16,
        };
        assert_eq!(i.to_string(), "addi sp, sp, -16");
        let l: Inst<Reg> = Inst::Load {
            width: MemWidth::Word,
            rd: Reg::A0,
            base: Reg::SP,
            offset: 8,
        };
        assert_eq!(l.to_string(), "lw a0, 8(sp)");
    }

    #[test]
    fn branch_cond_eval() {
        assert!(BranchCond::Lt.eval(0xffff_ffff, 0)); // -1 < 0 signed
        assert!(!BranchCond::Ltu.eval(0xffff_ffff, 0));
        assert!(BranchCond::Geu.eval(0xffff_ffff, 0));
    }

    #[test]
    fn map_regs_applies() {
        use crate::reg::VReg;
        let i: Inst<VReg> = Inst::Alu {
            op: AluOp::Add,
            rd: VReg(0),
            rs1: VReg(1),
            rs2: VReg(2),
        };
        let m = i.map_regs(|v| Reg(v.0 as u8 + 10));
        assert_eq!(m.def(), Some(Reg::A0));
    }
}
