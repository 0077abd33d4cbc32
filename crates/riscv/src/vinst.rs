//! Pre-emission machine instructions.
//!
//! `VInst<R>` is the currency of instruction selection and register
//! allocation: close to RV32IM, but with virtual registers, pseudo
//! instructions (`Call`, `Ret`, `Mv`, `LoadImm`, `FrameAddr`), and branch
//! targets expressed as *layout block indices*. Emission lowers it to real
//! [`Inst`](crate::inst::Inst).

use crate::inst::{AluImmOp, AluOp, BranchCond, MemWidth};
use std::fmt;

/// A pre-emission instruction, generic over register representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VInst<R> {
    /// Register–register ALU.
    Alu { op: AluOp, rd: R, rs1: R, rs2: R },
    /// Register–immediate ALU (immediate guaranteed in range by isel).
    AluImm {
        op: AluImmOp,
        rd: R,
        rs1: R,
        imm: i32,
    },
    /// Materialize a 32-bit constant (expands to `addi`/`lui+addi`).
    LoadImm { rd: R, imm: i32 },
    /// Typed load.
    Load {
        width: MemWidth,
        rd: R,
        base: R,
        offset: i32,
    },
    /// Typed store.
    Store {
        width: MemWidth,
        src: R,
        base: R,
        offset: i32,
    },
    /// Address of a frame slot: `sp + (alloca area base) + offset`.
    FrameAddr { rd: R, offset: i32 },
    /// Conditional branch to layout block `target`; `rs2 == None` compares
    /// against `x0`.
    Branch {
        cond: BranchCond,
        rs1: R,
        rs2: Option<R>,
        target: usize,
    },
    /// Unconditional jump to layout block `target`.
    Jump { target: usize },
    /// Direct call (expands to argument shuffling + `jal ra`).
    Call {
        callee: usize,
        args: Vec<R>,
        ret: Option<R>,
    },
    /// zkVM environment call: `code -> t0`, `args -> a0..`, result in `a0`.
    Ecall { code: u32, args: Vec<R>, ret: R },
    /// Function return (expands to result move + epilogue + `jalr`).
    Ret { val: Option<R> },
    /// Register copy.
    Mv { rd: R, rs: R },
    /// Receive the `index`-th function parameter (expands to a parallel move
    /// from `a0..a7` in the prologue; must appear at the top of the entry
    /// block).
    Param { rd: R, index: usize },
}

impl<R: Copy> VInst<R> {
    /// Visit the registers this instruction defines, without allocating.
    pub fn for_each_def(&self, mut f: impl FnMut(R)) {
        match self {
            VInst::Alu { rd, .. }
            | VInst::AluImm { rd, .. }
            | VInst::LoadImm { rd, .. }
            | VInst::Load { rd, .. }
            | VInst::FrameAddr { rd, .. }
            | VInst::Mv { rd, .. }
            | VInst::Param { rd, .. }
            | VInst::Ecall { ret: rd, .. } => f(*rd),
            VInst::Call { ret, .. } => ret.iter().copied().for_each(f),
            _ => {}
        }
    }

    /// Visit the registers this instruction reads, in operand order, without
    /// allocating.
    pub fn for_each_use(&self, mut f: impl FnMut(R)) {
        match self {
            VInst::Alu { rs1, rs2, .. } => {
                f(*rs1);
                f(*rs2);
            }
            VInst::AluImm { rs1: r, .. }
            | VInst::Load { base: r, .. }
            | VInst::Mv { rs: r, .. } => {
                f(*r);
            }
            VInst::Store { src, base, .. } => {
                f(*src);
                f(*base);
            }
            VInst::Branch { rs1, rs2, .. } => {
                f(*rs1);
                rs2.iter().copied().for_each(f);
            }
            VInst::Call { args, .. } | VInst::Ecall { args, .. } => {
                args.iter().copied().for_each(f);
            }
            VInst::Ret { val } => val.iter().copied().for_each(f),
            _ => {}
        }
    }

    /// Registers defined by this instruction.
    pub fn defs(&self) -> Vec<R> {
        let mut v = Vec::new();
        self.for_each_def(|r| v.push(r));
        v
    }

    /// Registers read by this instruction.
    pub fn uses(&self) -> Vec<R> {
        let mut v = Vec::new();
        self.for_each_use(|r| v.push(r));
        v
    }

    /// Map registers through `f`.
    pub fn map_regs<S: Copy>(&self, mut f: impl FnMut(R) -> S) -> VInst<S> {
        match self {
            VInst::Alu { op, rd, rs1, rs2 } => VInst::Alu {
                op: *op,
                rd: f(*rd),
                rs1: f(*rs1),
                rs2: f(*rs2),
            },
            VInst::AluImm { op, rd, rs1, imm } => VInst::AluImm {
                op: *op,
                rd: f(*rd),
                rs1: f(*rs1),
                imm: *imm,
            },
            VInst::LoadImm { rd, imm } => VInst::LoadImm {
                rd: f(*rd),
                imm: *imm,
            },
            VInst::Load {
                width,
                rd,
                base,
                offset,
            } => VInst::Load {
                width: *width,
                rd: f(*rd),
                base: f(*base),
                offset: *offset,
            },
            VInst::Store {
                width,
                src,
                base,
                offset,
            } => VInst::Store {
                width: *width,
                src: f(*src),
                base: f(*base),
                offset: *offset,
            },
            VInst::FrameAddr { rd, offset } => VInst::FrameAddr {
                rd: f(*rd),
                offset: *offset,
            },
            VInst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => VInst::Branch {
                cond: *cond,
                rs1: f(*rs1),
                rs2: rs2.map(&mut f),
                target: *target,
            },
            VInst::Jump { target } => VInst::Jump { target: *target },
            VInst::Call { callee, args, ret } => VInst::Call {
                callee: *callee,
                args: args.iter().map(|a| f(*a)).collect(),
                ret: ret.map(&mut f),
            },
            VInst::Ecall { code, args, ret } => VInst::Ecall {
                code: *code,
                args: args.iter().map(|a| f(*a)).collect(),
                ret: f(*ret),
            },
            VInst::Ret { val } => VInst::Ret {
                val: val.map(&mut f),
            },
            VInst::Mv { rd, rs } => VInst::Mv {
                rd: f(*rd),
                rs: f(*rs),
            },
            VInst::Param { rd, index } => VInst::Param {
                rd: f(*rd),
                index: *index,
            },
        }
    }

    /// Whether this ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            VInst::Branch { .. } | VInst::Jump { .. } | VInst::Ret { .. }
        )
    }
}

impl<R: fmt::Display> fmt::Display for VInst<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VInst::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            VInst::AluImm { op, rd, rs1, imm } => {
                write!(f, "{} {rd}, {rs1}, {imm}", op.mnemonic())
            }
            VInst::LoadImm { rd, imm } => write!(f, "li {rd}, {imm}"),
            VInst::Load {
                rd, base, offset, ..
            } => write!(f, "lw* {rd}, {offset}({base})"),
            VInst::Store {
                src, base, offset, ..
            } => write!(f, "sw* {src}, {offset}({base})"),
            VInst::FrameAddr { rd, offset } => write!(f, "frame {rd}, {offset}"),
            VInst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => match rs2 {
                Some(r2) => write!(f, "{} {rs1}, {r2}, bb{target}", cond.mnemonic()),
                None => write!(f, "{} {rs1}, zero, bb{target}", cond.mnemonic()),
            },
            VInst::Jump { target } => write!(f, "j bb{target}"),
            VInst::Call { callee, args, .. } => {
                write!(f, "call fn{callee} ({} args)", args.len())
            }
            VInst::Ecall { code, .. } => write!(f, "ecall {code}"),
            VInst::Ret { .. } => write!(f, "ret"),
            VInst::Mv { rd, rs } => write!(f, "mv {rd}, {rs}"),
            VInst::Param { rd, index } => write!(f, "param {rd}, a{index}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::VReg;

    #[test]
    fn defs_and_uses() {
        let c: VInst<VReg> = VInst::Call {
            callee: 0,
            args: vec![VReg(1), VReg(2)],
            ret: Some(VReg(3)),
        };
        assert_eq!(c.defs(), vec![VReg(3)]);
        assert_eq!(c.uses(), vec![VReg(1), VReg(2)]);
        let b: VInst<VReg> = VInst::Branch {
            cond: BranchCond::Ne,
            rs1: VReg(0),
            rs2: None,
            target: 3,
        };
        assert_eq!(b.uses(), vec![VReg(0)]);
        assert!(b.is_terminator());
    }
}
