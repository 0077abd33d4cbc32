//! Instructions, operands, and terminators.

use crate::func::{BlockId, FuncId, GlobalId, ValueId};
use crate::ty::Ty;
use std::fmt;

/// An instruction operand: either an SSA value or an immediate constant.
///
/// Carrying constants inline (rather than as separate constant instructions)
/// keeps constant folding and pattern matching in the passes simple, mirroring
/// how LLVM treats `ConstantInt` operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A reference to an SSA value (parameter or instruction result).
    Value(ValueId),
    /// A typed immediate. The payload is stored sign-agnostically; consumers
    /// truncate according to `ty`.
    Const { value: i64, ty: Ty },
}

impl Operand {
    /// Shorthand for a value operand.
    pub fn val(v: ValueId) -> Operand {
        Operand::Value(v)
    }

    /// Shorthand for an `i32` immediate.
    pub fn i32(v: i32) -> Operand {
        Operand::Const {
            value: v as i64,
            ty: Ty::I32,
        }
    }

    /// Shorthand for an `i8` immediate.
    pub fn i8(v: u8) -> Operand {
        Operand::Const {
            value: v as i64,
            ty: Ty::I8,
        }
    }

    /// Shorthand for a boolean immediate.
    pub fn bool(v: bool) -> Operand {
        Operand::Const {
            value: v as i64,
            ty: Ty::I1,
        }
    }

    /// Returns the constant payload if this operand is an immediate.
    pub fn as_const(&self) -> Option<i64> {
        match self {
            Operand::Const { value, .. } => Some(*value),
            Operand::Value(_) => None,
        }
    }

    /// Returns the value id if this operand is an SSA value.
    pub fn as_value(&self) -> Option<ValueId> {
        match self {
            Operand::Value(v) => Some(*v),
            Operand::Const { .. } => None,
        }
    }

    /// True if this operand is the constant `c` (of any integer type).
    pub fn is_const_val(&self, c: i64) -> bool {
        matches!(self, Operand::Const { value, .. } if *value == c)
    }
}

/// Binary integer operations. All operate on `I32` (pointers use `Gep`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Signed division. Division by zero yields `-1` (RISC-V semantics).
    DivS,
    /// Unsigned division. Division by zero yields all-ones.
    DivU,
    /// Signed remainder. Remainder by zero yields the dividend.
    RemS,
    /// Unsigned remainder.
    RemU,
    And,
    Or,
    Xor,
    /// Logical shift left (shift amount masked to 5 bits).
    Shl,
    /// Logical shift right.
    ShrU,
    /// Arithmetic shift right.
    ShrA,
}

impl BinOp {
    /// Whether `a op b == b op a`.
    pub fn commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
        )
    }

    /// Evaluate on 32-bit semantics, returning a sign-extended `i64`.
    ///
    /// Division semantics follow RISC-V (no traps: `x/0 == -1` signed,
    /// `0xffff_ffff` unsigned; `MIN/-1 == MIN`).
    pub fn eval32(self, a: i64, b: i64) -> i64 {
        let a32 = a as i32;
        let b32 = b as i32;
        let ua = a as u32;
        let ub = b as u32;
        let r: i32 = match self {
            BinOp::Add => a32.wrapping_add(b32),
            BinOp::Sub => a32.wrapping_sub(b32),
            BinOp::Mul => a32.wrapping_mul(b32),
            BinOp::DivS => {
                if b32 == 0 {
                    -1
                } else if a32 == i32::MIN && b32 == -1 {
                    i32::MIN
                } else {
                    a32.wrapping_div(b32)
                }
            }
            BinOp::DivU => ua.checked_div(ub).map_or(-1i32, |q| q as i32),
            BinOp::RemS => {
                if b32 == 0 {
                    a32
                } else if a32 == i32::MIN && b32 == -1 {
                    0
                } else {
                    a32.wrapping_rem(b32)
                }
            }
            BinOp::RemU => {
                if ub == 0 {
                    a32
                } else {
                    (ua % ub) as i32
                }
            }
            BinOp::And => a32 & b32,
            BinOp::Or => a32 | b32,
            BinOp::Xor => a32 ^ b32,
            BinOp::Shl => a32.wrapping_shl(ub & 31),
            BinOp::ShrU => (ua.wrapping_shr(ub & 31)) as i32,
            BinOp::ShrA => a32.wrapping_shr(ub & 31),
        };
        r as i64
    }

    /// Mnemonic used by the printer and the pass registry.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::DivS => "sdiv",
            BinOp::DivU => "udiv",
            BinOp::RemS => "srem",
            BinOp::RemU => "urem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::ShrU => "lshr",
            BinOp::ShrA => "ashr",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Integer comparison predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pred {
    Eq,
    Ne,
    Slt,
    Sle,
    Sgt,
    Sge,
    Ult,
    Ule,
    Ugt,
    Uge,
}

impl Pred {
    /// Evaluate the predicate on 32-bit values.
    pub fn eval32(self, a: i64, b: i64) -> bool {
        let sa = a as i32;
        let sb = b as i32;
        let ua = a as u32;
        let ub = b as u32;
        match self {
            Pred::Eq => sa == sb,
            Pred::Ne => sa != sb,
            Pred::Slt => sa < sb,
            Pred::Sle => sa <= sb,
            Pred::Sgt => sa > sb,
            Pred::Sge => sa >= sb,
            Pred::Ult => ua < ub,
            Pred::Ule => ua <= ub,
            Pred::Ugt => ua > ub,
            Pred::Uge => ua >= ub,
        }
    }

    /// The predicate testing the opposite condition.
    pub fn inverse(self) -> Pred {
        match self {
            Pred::Eq => Pred::Ne,
            Pred::Ne => Pred::Eq,
            Pred::Slt => Pred::Sge,
            Pred::Sle => Pred::Sgt,
            Pred::Sgt => Pred::Sle,
            Pred::Sge => Pred::Slt,
            Pred::Ult => Pred::Uge,
            Pred::Ule => Pred::Ugt,
            Pred::Ugt => Pred::Ule,
            Pred::Uge => Pred::Ult,
        }
    }

    /// The predicate with operands swapped (`a p b == b p.swapped() a`).
    pub fn swapped(self) -> Pred {
        match self {
            Pred::Eq => Pred::Eq,
            Pred::Ne => Pred::Ne,
            Pred::Slt => Pred::Sgt,
            Pred::Sle => Pred::Sge,
            Pred::Sgt => Pred::Slt,
            Pred::Sge => Pred::Sle,
            Pred::Ult => Pred::Ugt,
            Pred::Ule => Pred::Uge,
            Pred::Ugt => Pred::Ult,
            Pred::Uge => Pred::Ule,
        }
    }

    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Pred::Eq => "eq",
            Pred::Ne => "ne",
            Pred::Slt => "slt",
            Pred::Sle => "sle",
            Pred::Sgt => "sgt",
            Pred::Sge => "sge",
            Pred::Ult => "ult",
            Pred::Ule => "ule",
            Pred::Ugt => "ugt",
            Pred::Uge => "uge",
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Cast kinds between integer widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastKind {
    /// Zero-extend to a wider type.
    Zext,
    /// Sign-extend to a wider type.
    Sext,
    /// Truncate to a narrower type.
    Trunc,
}

/// An SSA instruction.
///
/// Instructions live in a per-function arena (`Function::values`); each occupies
/// one [`ValueId`] slot whether or not it produces a result
/// (`store` and `nop` have no result type).
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Op {
    /// Two-operand integer arithmetic / logic.
    Bin { op: BinOp, a: Operand, b: Operand },
    /// Integer comparison producing `i1`.
    Icmp { pred: Pred, a: Operand, b: Operand },
    /// `c ? t : f` — the predication form `simplifycfg` produces (paper Fig. 13).
    Select { c: Operand, t: Operand, f: Operand },
    /// Load a scalar of type `ty` from `ptr`.
    Load { ptr: Operand, ty: Ty },
    /// Store `val` (of type `ty`) to `ptr`. No result.
    Store { ptr: Operand, val: Operand, ty: Ty },
    /// Reserve `count` elements of `elem` bytes each in the stack frame.
    /// Result is the address. Must appear in the entry block.
    Alloca { elem: Ty, count: u32 },
    /// `base + index * stride + offset` address arithmetic. Result is `ptr`.
    ///
    /// This is the IR construct whose duplication in loop-closed SSA form drives
    /// the paper's licm paging regressions.
    Gep {
        base: Operand,
        index: Operand,
        stride: u32,
        offset: i32,
    },
    /// Address of a module global.
    GlobalAddr(GlobalId),
    /// Direct call. Result type is the callee's return type (if any).
    Call { callee: FuncId, args: Vec<Operand> },
    /// zkVM environment call (precompile / host service). Result is `i32`.
    Ecall { code: u32, args: Vec<Operand> },
    /// SSA phi node. Must appear at the head of its block, with exactly one
    /// incoming operand per CFG predecessor.
    Phi { incoming: Vec<(BlockId, Operand)> },
    /// Integer width cast.
    Cast { kind: CastKind, v: Operand, to: Ty },
    /// Value copy; trivially forwardable. Produced transiently by some passes.
    Copy(Operand),
    /// Deleted instruction slot. Never appears in a block's instruction list.
    Nop,
}

impl Op {
    /// Visit every operand immutably.
    pub fn for_each_operand(&self, mut f: impl FnMut(&Operand)) {
        match self {
            Op::Bin { a, b, .. } | Op::Icmp { a, b, .. } => {
                f(a);
                f(b);
            }
            Op::Select { c, t, f: fo } => {
                f(c);
                f(t);
                f(fo);
            }
            Op::Load { ptr, .. } => f(ptr),
            Op::Store { ptr, val, .. } => {
                f(ptr);
                f(val);
            }
            Op::Gep { base, index, .. } => {
                f(base);
                f(index);
            }
            Op::Call { args, .. } | Op::Ecall { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            Op::Phi { incoming } => {
                for (_, a) in incoming {
                    f(a);
                }
            }
            Op::Cast { v, .. } => f(v),
            Op::Copy(v) => f(v),
            Op::Alloca { .. } | Op::GlobalAddr(_) | Op::Nop => {}
        }
    }

    /// Visit every operand mutably.
    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut Operand)) {
        match self {
            Op::Bin { a, b, .. } | Op::Icmp { a, b, .. } => {
                f(a);
                f(b);
            }
            Op::Select { c, t, f: fo } => {
                f(c);
                f(t);
                f(fo);
            }
            Op::Load { ptr, .. } => f(ptr),
            Op::Store { ptr, val, .. } => {
                f(ptr);
                f(val);
            }
            Op::Gep { base, index, .. } => {
                f(base);
                f(index);
            }
            Op::Call { args, .. } | Op::Ecall { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            Op::Phi { incoming } => {
                for (_, a) in incoming {
                    f(a);
                }
            }
            Op::Cast { v, .. } => f(v),
            Op::Copy(v) => f(v),
            Op::Alloca { .. } | Op::GlobalAddr(_) | Op::Nop => {}
        }
    }

    /// Whether the instruction may read or write memory or have side effects,
    /// i.e. must not be removed even when unused, and must not be reordered
    /// across other effectful instructions.
    pub fn has_side_effects(&self) -> bool {
        matches!(self, Op::Store { .. } | Op::Call { .. } | Op::Ecall { .. })
    }

    /// Whether the instruction reads memory.
    pub fn reads_memory(&self) -> bool {
        matches!(self, Op::Load { .. } | Op::Call { .. } | Op::Ecall { .. })
    }

    /// Whether the instruction writes memory.
    pub fn writes_memory(&self) -> bool {
        matches!(self, Op::Store { .. } | Op::Call { .. } | Op::Ecall { .. })
    }

    /// Whether the instruction is a phi node.
    pub fn is_phi(&self) -> bool {
        matches!(self, Op::Phi { .. })
    }

    /// True for instructions that are safe to speculatively execute (hoist past
    /// branches): no memory access, no side effects, no trap potential.
    pub fn is_speculatable(&self) -> bool {
        matches!(
            self,
            Op::Bin { .. }
                | Op::Icmp { .. }
                | Op::Select { .. }
                | Op::Gep { .. }
                | Op::GlobalAddr(_)
                | Op::Cast { .. }
                | Op::Copy(_)
        )
    }
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Term {
    /// Unconditional branch.
    Br(BlockId),
    /// Two-way conditional branch on an `i1` operand.
    CondBr { c: Operand, t: BlockId, f: BlockId },
    /// Function return.
    Ret(Option<Operand>),
    /// Control never reaches here.
    Unreachable,
}

impl Term {
    /// Walk the successor blocks in branch order, without allocating.
    pub fn succs(&self) -> impl DoubleEndedIterator<Item = BlockId> {
        match *self {
            Term::Br(b) => [Some(b), None],
            Term::CondBr { t, f, .. } => [Some(t), Some(f)],
            Term::Ret(_) | Term::Unreachable => [None, None],
        }
        .into_iter()
        .flatten()
    }

    /// Visit every operand immutably.
    pub fn for_each_operand(&self, mut f: impl FnMut(&Operand)) {
        match self {
            Term::CondBr { c, .. } => f(c),
            Term::Ret(Some(v)) => f(v),
            _ => {}
        }
    }

    /// Visit every operand mutably.
    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut Operand)) {
        match self {
            Term::CondBr { c, .. } => f(c),
            Term::Ret(Some(v)) => f(v),
            _ => {}
        }
    }

    /// Replace every successor equal to `from` with `to`.
    pub fn retarget(&mut self, from: BlockId, to: BlockId) {
        match self {
            Term::Br(b) => {
                if *b == from {
                    *b = to;
                }
            }
            Term::CondBr { t, f, .. } => {
                if *t == from {
                    *t = to;
                }
                if *f == from {
                    *f = to;
                }
            }
            Term::Ret(_) | Term::Unreachable => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval_wrapping() {
        assert_eq!(BinOp::Add.eval32(i32::MAX as i64, 1), i32::MIN as i64);
        assert_eq!(BinOp::Mul.eval32(0x10000, 0x10000), 0);
        assert_eq!(BinOp::Sub.eval32(0, 1), -1);
    }

    #[test]
    fn binop_eval_division_riscv_semantics() {
        assert_eq!(BinOp::DivS.eval32(7, 0), -1);
        assert_eq!(BinOp::DivU.eval32(7, 0), -1); // all ones as i32
        assert_eq!(BinOp::RemS.eval32(7, 0), 7);
        assert_eq!(BinOp::DivS.eval32(i32::MIN as i64, -1), i32::MIN as i64);
        assert_eq!(BinOp::RemS.eval32(i32::MIN as i64, -1), 0);
        assert_eq!(BinOp::DivS.eval32(-7, 2), -3);
        assert_eq!(BinOp::RemS.eval32(-7, 2), -1);
        assert_eq!(BinOp::DivU.eval32(-8, 2), 0x7fff_fffc);
    }

    #[test]
    fn binop_eval_shifts_masked() {
        assert_eq!(BinOp::Shl.eval32(1, 33), 2); // shift amount mod 32
        assert_eq!(BinOp::ShrA.eval32(-8, 1), -4);
        assert_eq!(BinOp::ShrU.eval32(-8, 1), 0x7fff_fffc);
    }

    #[test]
    fn pred_eval_signedness() {
        assert!(Pred::Slt.eval32(-1, 0));
        assert!(!Pred::Ult.eval32(-1, 0)); // 0xffffffff > 0 unsigned
        assert!(Pred::Ugt.eval32(-1, 0));
    }

    #[test]
    fn pred_inverse_exhaustive() {
        let all = [
            Pred::Eq,
            Pred::Ne,
            Pred::Slt,
            Pred::Sle,
            Pred::Sgt,
            Pred::Sge,
            Pred::Ult,
            Pred::Ule,
            Pred::Ugt,
            Pred::Uge,
        ];
        for p in all {
            for (a, b) in [(0i64, 0i64), (1, 2), (-5, 3), (7, -7)] {
                assert_eq!(p.eval32(a, b), !p.inverse().eval32(a, b), "{p:?} {a} {b}");
                assert_eq!(
                    p.eval32(a, b),
                    p.swapped().eval32(b, a),
                    "{p:?} swap {a} {b}"
                );
            }
        }
    }

    #[test]
    fn term_successors_and_retarget() {
        let b0 = BlockId(0);
        let b1 = BlockId(1);
        let b2 = BlockId(2);
        let mut t = Term::CondBr {
            c: Operand::bool(true),
            t: b0,
            f: b1,
        };
        assert!(t.succs().eq([b0, b1]));
        t.retarget(b1, b2);
        assert!(t.succs().eq([b0, b2]));
    }

    #[test]
    fn succs_walks_both_ways_in_branch_order() {
        let (b1, b2) = (BlockId(1), BlockId(2));
        for (t, want) in [
            (Term::Br(b1), vec![b1]),
            (
                Term::CondBr {
                    c: Operand::bool(true),
                    t: b2,
                    f: b2,
                },
                vec![b2, b2],
            ),
            (Term::Ret(None), vec![]),
            (Term::Unreachable, vec![]),
        ] {
            assert_eq!(t.succs().collect::<Vec<_>>(), want, "{t:?}");
            let mut back: Vec<BlockId> = t.succs().rev().collect();
            back.reverse();
            assert_eq!(back, want, "{t:?} reversed");
        }
    }

    #[test]
    fn op_operand_visit() {
        let mut op = Op::Bin {
            op: BinOp::Add,
            a: Operand::i32(1),
            b: Operand::i32(2),
        };
        let mut n = 0;
        op.for_each_operand(|_| n += 1);
        assert_eq!(n, 2);
        op.for_each_operand_mut(|o| *o = Operand::i32(9));
        match op {
            Op::Bin { a, b, .. } => {
                assert!(a.is_const_val(9) && b.is_const_val(9));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn side_effect_classification() {
        assert!(Op::Store {
            ptr: Operand::i32(0),
            val: Operand::i32(0),
            ty: Ty::I32
        }
        .has_side_effects());
        assert!(!Op::Load {
            ptr: Operand::i32(0),
            ty: Ty::I32
        }
        .has_side_effects());
        assert!(Op::Load {
            ptr: Operand::i32(0),
            ty: Ty::I32
        }
        .reads_memory());
        assert!(Op::Bin {
            op: BinOp::Add,
            a: Operand::i32(0),
            b: Operand::i32(0)
        }
        .is_speculatable());
        assert!(!Op::Load {
            ptr: Operand::i32(0),
            ty: Ty::I32
        }
        .is_speculatable());
    }
}
