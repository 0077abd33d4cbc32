//! Ergonomic construction of IR functions.

use crate::func::{BlockId, FuncId, Function, GlobalId, ValueId};
use crate::inst::{BinOp, CastKind, Op, Operand, Pred, Term};
use crate::ty::Ty;

/// A cursor-style builder over a [`Function`].
///
/// The builder keeps a *current block*; instruction emitters append there.
/// Terminator emitters seal the current block (emitting into a sealed block is
/// a bug and panics).
///
/// # Example
///
/// ```
/// use zkvmopt_ir::{FunctionBuilder, Ty, Operand, Pred};
///
/// // fn max(a: i32, b: i32) -> i32
/// let mut b = FunctionBuilder::new("max", vec![Ty::I32, Ty::I32], Some(Ty::I32));
/// let (x, y) = (b.param(0), b.param(1));
/// let (then_bb, else_bb) = (b.new_block(), b.new_block());
/// let c = b.icmp(Pred::Sgt, Operand::val(x), Operand::val(y));
/// b.cond_br(Operand::val(c), then_bb, else_bb);
/// b.switch_to(then_bb);
/// b.ret(Some(Operand::val(x)));
/// b.switch_to(else_bb);
/// b.ret(Some(Operand::val(y)));
/// let f = b.finish();
/// assert_eq!(f.blocks.len(), 3);
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    current: BlockId,
    sealed: Vec<bool>,
}

impl FunctionBuilder {
    /// Start building a function; the cursor points at the entry block.
    pub fn new(name: impl Into<String>, params: Vec<Ty>, ret: Option<Ty>) -> FunctionBuilder {
        let func = Function::new(name, params, ret);
        FunctionBuilder {
            func,
            current: BlockId(0),
            sealed: vec![false],
        }
    }

    /// The `ValueId` of parameter `i`.
    pub fn param(&self, i: usize) -> ValueId {
        self.func.param(i)
    }

    /// The block the cursor currently points at.
    pub fn current_block(&self) -> BlockId {
        self.current
    }

    /// Create a new (empty, unsealed) block without moving the cursor.
    pub fn new_block(&mut self) -> BlockId {
        let b = self.func.add_block();
        self.sealed.push(false);
        b
    }

    /// Move the cursor to `b`.
    ///
    /// # Panics
    /// Panics if `b` is already sealed.
    pub fn switch_to(&mut self, b: BlockId) {
        assert!(
            !self.sealed[b.index()],
            "cannot emit into sealed block {b:?}"
        );
        self.current = b;
    }

    fn emit(&mut self, op: Op, ty: Option<Ty>) -> ValueId {
        assert!(
            !self.sealed[self.current.index()],
            "cannot emit into sealed block {:?}",
            self.current
        );
        self.func.add_inst(self.current, op, ty)
    }

    fn seal(&mut self, term: Term) {
        assert!(
            !self.sealed[self.current.index()],
            "block {:?} already sealed",
            self.current
        );
        self.func.blocks[self.current.index()].term = term;
        self.sealed[self.current.index()] = true;
    }

    /// Emit a binary operation (result `i32`).
    pub fn bin(&mut self, op: BinOp, a: Operand, b: Operand) -> ValueId {
        self.emit(Op::Bin { op, a, b }, Some(Ty::I32))
    }

    /// Emit a comparison (result `i1`).
    pub fn icmp(&mut self, pred: Pred, a: Operand, b: Operand) -> ValueId {
        self.emit(Op::Icmp { pred, a, b }, Some(Ty::I1))
    }

    /// Emit a select; `t` and `f` must share a type.
    ///
    /// # Panics
    /// Panics if `t` names a result-less instruction.
    #[expect(
        clippy::expect_used,
        reason = "builder callers pass constants or results of value-producing ops, which are typed"
    )]
    pub fn select(&mut self, c: Operand, t: Operand, f: Operand) -> ValueId {
        let ty = self.func.operand_ty(&t).expect("select arms must be typed");
        self.emit(Op::Select { c, t, f }, Some(ty))
    }

    /// Emit a load of `ty` from `ptr`.
    pub fn load(&mut self, ptr: Operand, ty: Ty) -> ValueId {
        self.emit(Op::Load { ptr, ty }, Some(ty))
    }

    /// Emit a store of `val : ty` to `ptr`.
    pub fn store(&mut self, ptr: Operand, val: Operand, ty: Ty) {
        self.emit(Op::Store { ptr, val, ty }, None);
    }

    /// Emit a stack allocation of `count` elements of `elem` (entry block only
    /// by convention; the verifier enforces it).
    pub fn alloca(&mut self, elem: Ty, count: u32) -> ValueId {
        self.emit(Op::Alloca { elem, count }, Some(Ty::Ptr))
    }

    /// Emit address arithmetic `base + index * stride + offset`.
    pub fn gep(&mut self, base: Operand, index: Operand, stride: u32, offset: i32) -> ValueId {
        self.emit(
            Op::Gep {
                base,
                index,
                stride,
                offset,
            },
            Some(Ty::Ptr),
        )
    }

    /// Emit the address of global `g`.
    pub fn global_addr(&mut self, g: GlobalId) -> ValueId {
        self.emit(Op::GlobalAddr(g), Some(Ty::Ptr))
    }

    /// Emit a call. `ret` must match the callee's return type.
    pub fn call(&mut self, callee: FuncId, args: Vec<Operand>, ret: Option<Ty>) -> ValueId {
        self.emit(Op::Call { callee, args }, ret)
    }

    /// Emit an environment call (always returns `i32`).
    pub fn ecall(&mut self, code: u32, args: Vec<Operand>) -> ValueId {
        self.emit(Op::Ecall { code, args }, Some(Ty::I32))
    }

    /// Emit a phi node with the given incoming edges.
    pub fn phi(&mut self, ty: Ty, incoming: Vec<(BlockId, Operand)>) -> ValueId {
        self.emit(Op::Phi { incoming }, Some(ty))
    }

    /// Append an incoming edge to an existing phi (loops are built by creating
    /// the phi with its entry edge and adding the back edge once known).
    ///
    /// # Panics
    /// Panics if `phi` is not a phi node.
    #[expect(
        clippy::panic,
        reason = "builder callers pass back the value `phi` returned, so it names a phi"
    )]
    pub fn add_phi_incoming(&mut self, phi: ValueId, from: BlockId, v: Operand) {
        match self.func.op_mut(phi) {
            Some(Op::Phi { incoming }) => incoming.push((from, v)),
            other => panic!("add_phi_incoming on non-phi: {other:?}"),
        }
    }

    /// Emit an integer cast.
    pub fn cast(&mut self, kind: CastKind, v: Operand, to: Ty) -> ValueId {
        self.emit(Op::Cast { kind, v, to }, Some(to))
    }

    /// Seal the current block with an unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.seal(Term::Br(target));
    }

    /// Seal the current block with a conditional branch.
    pub fn cond_br(&mut self, c: Operand, t: BlockId, f: BlockId) {
        self.seal(Term::CondBr { c, t, f });
    }

    /// Seal the current block with a return.
    pub fn ret(&mut self, v: Option<Operand>) {
        self.seal(Term::Ret(v));
    }

    /// Seal the current block as unreachable.
    pub fn unreachable(&mut self) {
        self.seal(Term::Unreachable);
    }

    /// Finish, returning the built function.
    ///
    /// # Panics
    /// Panics if any created block was left unsealed.
    pub fn finish(self) -> Function {
        for (i, s) in self.sealed.iter().enumerate() {
            assert!(*s, "block bb{i} left without a terminator");
        }
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "left without a terminator")]
    fn unsealed_block_panics() {
        let b = FunctionBuilder::new("f", vec![], None);
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "already sealed")]
    fn double_seal_panics() {
        let mut b = FunctionBuilder::new("f", vec![], None);
        b.ret(None);
        b.ret(None);
    }

    #[test]
    fn loop_construction() {
        // fn sum10() -> i32 { s=0; for i in 0..10 { s+=i } s }
        let mut b = FunctionBuilder::new("sum10", vec![], Some(Ty::I32));
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let entry = b.current_block();
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Ty::I32, vec![(entry, Operand::i32(0))]);
        let s = b.phi(Ty::I32, vec![(entry, Operand::i32(0))]);
        let c = b.icmp(Pred::Slt, Operand::val(i), Operand::i32(10));
        b.cond_br(Operand::val(c), body, exit);
        b.switch_to(body);
        let s2 = b.bin(BinOp::Add, Operand::val(s), Operand::val(i));
        let i2 = b.bin(BinOp::Add, Operand::val(i), Operand::i32(1));
        b.br(header);
        b.add_phi_incoming(i, body, Operand::val(i2));
        b.add_phi_incoming(s, body, Operand::val(s2));
        b.switch_to(exit);
        b.ret(Some(Operand::val(s)));
        let func = b.finish();
        assert_eq!(func.blocks.len(), 4);
        assert!(crate::verify::verify_function(&func, &crate::Module::new()).is_ok());
    }
}
