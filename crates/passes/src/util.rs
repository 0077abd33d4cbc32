//! Shared analysis and mutation helpers used across passes.

use zkvmopt_ir::func::Substitution;
use zkvmopt_ir::{
    BinOp, BlockId, CastKind, Function, GlobalId, Module, Op, Operand, Term, Ty, ValueDef, ValueId,
};

/// What a pointer is ultimately based on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PtrBase {
    /// A specific stack slot.
    Alloca(ValueId),
    /// A specific global.
    Global(GlobalId),
    /// Anything else (parameters, loaded pointers, …).
    Unknown,
}

/// Trace a pointer operand through `gep`/`copy` chains to its base.
pub fn ptr_base(f: &Function, o: &Operand) -> PtrBase {
    let mut cur = *o;
    for _ in 0..64 {
        match cur {
            Operand::Const { .. } => return PtrBase::Unknown,
            Operand::Value(v) => match f.op(v) {
                Some(Op::Alloca { .. }) => return PtrBase::Alloca(v),
                Some(Op::GlobalAddr(g)) => return PtrBase::Global(*g),
                Some(Op::Gep { base, .. }) => cur = *base,
                Some(Op::Copy(x)) => cur = *x,
                _ => return PtrBase::Unknown,
            },
        }
    }
    PtrBase::Unknown
}

/// Resolve a pointer operand to `(base, constant byte offset)` when the whole
/// gep chain uses constant indices.
pub fn resolved_location(f: &Function, o: &Operand) -> Option<(PtrBase, i64)> {
    match o {
        Operand::Const { .. } => None,
        Operand::Value(v) => match f.op(*v)? {
            Op::Alloca { .. } => Some((PtrBase::Alloca(*v), 0)),
            Op::GlobalAddr(g) => Some((PtrBase::Global(*g), 0)),
            Op::Gep {
                base,
                index,
                stride,
                offset,
            } => {
                let (b, off) = resolved_location(f, base)?;
                let i = index.as_const()?;
                Some((b, off + i * (*stride as i64) + *offset as i64))
            }
            Op::Copy(x) => resolved_location(f, x),
            _ => None,
        },
    }
}

/// Definitely-same-address check: identical operands, or both resolve to the
/// same base at the same constant offset.
pub fn same_address(f: &Function, a: &Operand, b: &Operand) -> bool {
    if a == b {
        return true;
    }
    match (resolved_location(f, a), resolved_location(f, b)) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    }
}

/// Conservative may-alias for two pointer operands.
pub fn may_alias(f: &Function, a: &Operand, b: &Operand) -> bool {
    match (ptr_base(f, a), ptr_base(f, b)) {
        (PtrBase::Alloca(x), PtrBase::Alloca(y)) => x == y,
        (PtrBase::Global(x), PtrBase::Global(y)) => x == y,
        (PtrBase::Alloca(_), PtrBase::Global(_)) | (PtrBase::Global(_), PtrBase::Alloca(_)) => {
            false
        }
        _ => true,
    }
}

/// Which values escape the function, indexed by value: used anywhere other
/// than as the pointer of a load/store — as a store's value, as any other
/// op's operand, or by a terminator. Escaping allocas cannot be promoted or
/// reasoned about locally. One sweep answers every value.
pub fn escaping_values(f: &Function) -> Vec<bool> {
    let mut escapes = vec![false; f.values.len()];
    let mut mark = |o: &Operand| {
        if let Operand::Value(v) = o {
            escapes[v.index()] = true;
        }
    };
    for block in &f.blocks {
        for &v in &block.insts {
            match f.op(v) {
                Some(Op::Load { .. }) | None => {}
                Some(Op::Store { val, .. }) => mark(val),
                Some(op) => op.for_each_operand(&mut mark),
            }
        }
        block.term.for_each_operand(&mut mark);
    }
    escapes
}

/// Which globals the module may write, indexed by global. Each use of an
/// address that [`ptr_base`] traces to a global is judged in place: a load's
/// pointer and an `icmp` operand only read or compare it, and a `gep` base or
/// a `copy` extends the chain `ptr_base` follows. Any other use marks the
/// global written, because a pointer the analysis cannot follow may write
/// through it: a store's pointer or value, a call or ecall argument, a phi or
/// select operand, a cast or arithmetic operand, a `gep` index, a terminator
/// operand. Blocks unreachable from entry never run and are not read.
pub fn written_globals(m: &Module) -> Vec<bool> {
    let mut written = vec![false; m.globals.len()];
    for f in &m.funcs {
        let mut mark = |o: &Operand| {
            if let PtrBase::Global(g) = ptr_base(f, o) {
                written[g.index()] = true;
            }
        };
        for b in f.reachable_blocks() {
            let block = &f.blocks[b.index()];
            for &v in &block.insts {
                match f.op(v) {
                    Some(Op::Load { .. } | Op::Icmp { .. }) | None => {}
                    Some(op @ (Op::Gep { base, .. } | Op::Copy(base))) => {
                        // Past `ptr_base`'s depth bound the chain is lost,
                        // so its last followable link counts as a write.
                        if ptr_base(f, &Operand::Value(v)) == PtrBase::Unknown {
                            mark(base);
                        }
                        if let Op::Gep { index, .. } = op {
                            mark(index);
                        }
                    }
                    Some(op) => op.for_each_operand(&mut mark),
                }
            }
            block.term.for_each_operand(&mut mark);
        }
    }
    written
}

/// Fold an instruction whose operands are all constants; returns the constant
/// result if it folds.
pub fn const_fold(f: &Function, op: &Op) -> Option<Operand> {
    match op {
        Op::Bin { op, a, b } => {
            let (a, b) = (a.as_const()?, b.as_const()?);
            Some(Operand::i32(op.eval32(a, b) as i32))
        }
        Op::Icmp { pred, a, b } => {
            let (a, b) = (a.as_const()?, b.as_const()?);
            Some(Operand::bool(pred.eval32(a, b)))
        }
        Op::Select { c, t, f: fo } => {
            let c = c.as_const()?;
            Some(if c != 0 { *t } else { *fo })
        }
        Op::Cast { kind, v, to } => {
            let x = v.as_const()?;
            let src_ty = f.operand_ty(v)?;
            let val = match kind {
                CastKind::Zext => src_ty.truncate_u(x),
                CastKind::Sext => src_ty.truncate_s(x),
                CastKind::Trunc => to.truncate_u(x),
            };
            let norm = match to {
                Ty::I32 => (val as i32) as i64,
                t => t.truncate_u(val),
            };
            Some(Operand::Const {
                value: norm,
                ty: *to,
            })
        }
        Op::Copy(x) => {
            if x.as_const().is_some() {
                Some(*x)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Remove instructions with no uses and no side effects, to a fixed point
/// (an instruction used only by dead code dies too). Returns whether
/// anything was removed.
///
/// One use count, then a worklist: a dead instruction releases its operands'
/// counts, and any that reach zero die next. Iterated zero-use removal
/// reaches the same fixed point in any order, so this removes exactly what
/// rescanning until a round removes nothing would.
pub fn sweep_dead(f: &mut Function) -> bool {
    #[derive(Clone, Copy, PartialEq)]
    enum Slot {
        Free,
        Listed,
        Dead,
    }
    let removable = |f: &Function, v: ValueId| f.op(v).is_some_and(|op| !op.has_side_effects());
    // Per value: its uses by each listed instruction (once, however often it
    // is listed) and by every terminator, and its state.
    let mut state = vec![(0u32, Slot::Free); f.values.len()];
    fn count(state: &mut [(u32, Slot)], o: &Operand) {
        if let Operand::Value(u) = o {
            state[u.index()].0 += 1;
        }
    }
    for block in &f.blocks {
        for &v in &block.insts {
            if std::mem::replace(&mut state[v.index()].1, Slot::Listed) == Slot::Free {
                if let Some(op) = f.op(v) {
                    op.for_each_operand(|o| count(&mut state, o));
                }
            }
        }
        block.term.for_each_operand(|o| count(&mut state, o));
    }
    let mut work: Vec<ValueId> = Vec::new();
    for block in &f.blocks {
        for &v in &block.insts {
            if state[v.index()] == (0, Slot::Listed) && removable(f, v) {
                state[v.index()].1 = Slot::Dead;
                work.push(v);
            }
        }
    }
    if work.is_empty() {
        return false;
    }
    // A dead value is tombstoned once its operands are released; nothing
    // reads it after that, since only `Listed` values are examined.
    while let Some(v) = work.pop() {
        f.op(v).expect("removable").for_each_operand(|o| {
            let Operand::Value(u) = o else { return };
            state[u.index()].0 -= 1;
            if state[u.index()] == (0, Slot::Listed) && removable(f, *u) {
                state[u.index()].1 = Slot::Dead;
                work.push(*u);
            }
        });
        f.kill_value(v);
    }
    for block in &mut f.blocks {
        block.insts.retain(|v| state[v.index()].1 != Slot::Dead);
    }
    true
}

/// Drop unreachable blocks from instruction lists and fix up phis in the
/// remaining blocks (removing incoming edges from deleted predecessors).
/// Phis left with a single incoming value are replaced by that value.
pub fn remove_unreachable(f: &mut Function) -> bool {
    let reachable = f.reachable_blocks();
    let is_reachable = reachable_mask(f, &reachable);
    let mut changed = false;
    // Tombstone instructions of unreachable blocks.
    for b in f.block_ids() {
        if is_reachable[b.index()] {
            continue;
        }
        let insts = std::mem::take(&mut f.blocks[b.index()].insts);
        if !insts.is_empty() {
            changed = true;
        }
        for v in insts {
            f.kill_value(v);
        }
        if f.blocks[b.index()].term != Term::Unreachable {
            f.blocks[b.index()].term = Term::Unreachable;
            changed = true;
        }
    }
    changed |= cleanup_reachable_phis(f, &reachable, &is_reachable);
    changed
}

/// Re-derive phi incoming lists from the actual predecessor sets; collapse
/// single-incoming phis.
pub fn cleanup_phis(f: &mut Function) -> bool {
    let reachable = f.reachable_blocks();
    let is_reachable = reachable_mask(f, &reachable);
    cleanup_reachable_phis(f, &reachable, &is_reachable)
}

/// One flag per block: whether it is among `reachable`.
fn reachable_mask(f: &Function, reachable: &[BlockId]) -> Vec<bool> {
    let mut mask = vec![false; f.blocks.len()];
    for b in reachable {
        mask[b.index()] = true;
    }
    mask
}

/// [`cleanup_phis`] given the reachable blocks, as a list and as a mask.
/// Linear in the function, and a function without phis pays only the scan
/// that finds none.
fn cleanup_reachable_phis(f: &mut Function, reachable: &[BlockId], is_reachable: &[bool]) -> bool {
    let mut changed = false;
    let mut singles: Vec<(BlockId, ValueId)> = Vec::new();
    // A collapsed phi's replacement may itself be a phi that collapses in
    // this same batch; the substitution resolves such chains, so no use is
    // left pointing at a tombstoned value.
    let mut subst = Substitution::new();
    for &b in reachable {
        for i in 0..f.blocks[b.index()].insts.len() {
            let v = f.blocks[b.index()].insts[i];
            let ValueDef::Inst(Op::Phi { incoming }) = &mut f.values[v.index()].def else {
                continue;
            };
            // `p` is a predecessor over a reachable edge iff it is reachable
            // and branches to `b`.
            let blocks = &f.blocks;
            let before = incoming.len();
            incoming.retain(|(p, _)| {
                is_reachable.get(p.index()) == Some(&true)
                    && blocks[p.index()].term.succs().any(|s| s == b)
            });
            if incoming.len() != before {
                changed = true;
            }
            if incoming.len() == 1 {
                subst.insert(v, incoming[0].1);
                singles.push((b, v));
            }
        }
    }
    for (b, v) in singles {
        f.remove_inst(b, v);
        changed = true;
    }
    f.substitute_uses(&subst);
    changed
}

/// Whether `callee` (directly) contains any call instruction.
pub fn has_calls(f: &Function) -> bool {
    for b in f.reachable_blocks() {
        for &v in &f.blocks[b.index()].insts {
            if matches!(f.op(v), Some(Op::Call { .. })) {
                return true;
            }
        }
    }
    false
}

/// Whether function `fi` in `m` may write memory or perform ecalls,
/// (transitively through calls). Conservative: unknown ⇒ `true`.
pub fn may_have_side_effects(m: &Module, fi: usize, depth: usize) -> bool {
    if depth == 0 {
        return true;
    }
    let f = &m.funcs[fi];
    if f.readnone || f.readonly {
        return false;
    }
    for b in f.reachable_blocks() {
        for &v in &f.blocks[b.index()].insts {
            match f.op(v) {
                Some(Op::Store { .. }) | Some(Op::Ecall { .. }) => return true,
                Some(Op::Call { callee, .. })
                    if (callee.index() == fi
                        || may_have_side_effects(m, callee.index(), depth - 1)) =>
                {
                    return true;
                }
                _ => {}
            }
        }
    }
    false
}

/// Canonicalize a constant operand for equality-based reasoning.
pub fn normalize_const(o: Operand) -> Operand {
    match o {
        Operand::Const { value, ty: Ty::I32 } => Operand::i32(value as i32),
        other => other,
    }
}

/// Fold `x op identity` / `identity op x` patterns to `x`, and trivial
/// always-constant patterns (`x - x`, `x ^ x`, `x * 0`, …).
pub fn algebraic_simplify(op: &Op) -> Option<Operand> {
    if let Op::Bin { op, a, b } = op {
        let (a, b) = (*a, *b);
        let is0 = |o: &Operand| o.is_const_val(0);
        let is1 = |o: &Operand| o.is_const_val(1);
        match op {
            BinOp::Add => {
                if is0(&a) {
                    return Some(b);
                }
                if is0(&b) {
                    return Some(a);
                }
            }
            BinOp::Sub => {
                if is0(&b) {
                    return Some(a);
                }
                if a == b {
                    return Some(Operand::i32(0));
                }
            }
            BinOp::Mul => {
                if is1(&a) {
                    return Some(b);
                }
                if is1(&b) {
                    return Some(a);
                }
                if is0(&a) || is0(&b) {
                    return Some(Operand::i32(0));
                }
            }
            BinOp::DivS | BinOp::DivU => {
                if is1(&b) {
                    return Some(a);
                }
            }
            BinOp::And => {
                if is0(&a) || is0(&b) {
                    return Some(Operand::i32(0));
                }
                if a == b {
                    return Some(a);
                }
                if a.is_const_val(-1) {
                    return Some(b);
                }
                if b.is_const_val(-1) {
                    return Some(a);
                }
            }
            BinOp::Or => {
                if is0(&a) {
                    return Some(b);
                }
                if is0(&b) {
                    return Some(a);
                }
                if a == b {
                    return Some(a);
                }
            }
            BinOp::Xor => {
                if is0(&a) {
                    return Some(b);
                }
                if is0(&b) {
                    return Some(a);
                }
                if a == b {
                    return Some(Operand::i32(0));
                }
            }
            BinOp::Shl | BinOp::ShrU | BinOp::ShrA => {
                if is0(&b) {
                    return Some(a);
                }
                if is0(&a) {
                    return Some(Operand::i32(0));
                }
            }
            BinOp::RemS | BinOp::RemU => {
                if is1(&b) {
                    return Some(Operand::i32(0));
                }
            }
        }
    }
    if let Op::Select { c: _, t, f } = op {
        if t == f {
            return Some(*t);
        }
    }
    None
}

/// The rescan-until-nothing-dies body `sweep_dead` replaced, kept as a test
/// oracle: iterated zero-use removal reaches one fixed point in any order,
/// so old and new must agree on the whole `Function`.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// `sweep_dead` as it was: a full use scan per round, one `Vec::retain`
    /// per removed instruction, until a round removes nothing.
    fn sweep_dead_rescanning(f: &mut Function) -> bool {
        let mut changed = false;
        loop {
            let mut removed = false;
            let mut used = vec![false; f.values.len()];
            for b in f.block_ids() {
                for &v in &f.blocks[b.index()].insts {
                    if let Some(op) = f.op(v) {
                        op.for_each_operand(|o| {
                            if let Operand::Value(u) = o {
                                used[u.index()] = true;
                            }
                        });
                    }
                }
                f.blocks[b.index()].term.for_each_operand(|o| {
                    if let Operand::Value(u) = o {
                        used[u.index()] = true;
                    }
                });
            }
            for b in f.block_ids() {
                let dead: Vec<ValueId> = f.blocks[b.index()]
                    .insts
                    .iter()
                    .copied()
                    .filter(|&v| {
                        !used[v.index()] && f.op(v).is_some_and(|op| !op.has_side_effects())
                    })
                    .collect();
                for v in dead {
                    f.remove_inst(b, v);
                    removed = true;
                }
            }
            changed |= removed;
            if !removed {
                return changed;
            }
        }
    }

    /// `alloca_escapes` as it was: whether `a` is used anywhere other than
    /// as the pointer of a load/store, one whole-function scan per question.
    pub(crate) fn alloca_escapes(f: &Function, a: ValueId) -> bool {
        for b in f.block_ids() {
            for &v in &f.blocks[b.index()].insts {
                let Some(op) = f.op(v) else { continue };
                match op {
                    Op::Load { ptr, .. } => {
                        if *ptr != Operand::Value(a) && operand_mentions(ptr, a) {
                            return true;
                        }
                    }
                    Op::Store { ptr, val, .. } => {
                        if operand_mentions(val, a) {
                            return true;
                        }
                        if *ptr != Operand::Value(a) && operand_mentions(ptr, a) {
                            return true;
                        }
                    }
                    other => {
                        let mut esc = false;
                        other.for_each_operand(|o| {
                            if operand_mentions(o, a) {
                                esc = true;
                            }
                        });
                        if esc {
                            return true;
                        }
                    }
                }
            }
            let mut esc = false;
            f.blocks[b.index()].term.for_each_operand(|o| {
                if operand_mentions(o, a) {
                    esc = true;
                }
            });
            if esc {
                return true;
            }
        }
        false
    }

    fn operand_mentions(o: &Operand, v: ValueId) -> bool {
        *o == Operand::Value(v)
    }

    /// `sweep_dead` against its oracle on `f`: same flag, same `Function`;
    /// and `escaping_values` against `alloca_escapes` on every alloca.
    pub(crate) fn check(name: &str, f: &Function) {
        let escapes = escaping_values(f);
        for block in &f.blocks {
            for &v in &block.insts {
                if matches!(f.op(v), Some(Op::Alloca { .. })) {
                    let want = alloca_escapes(f, v);
                    assert_eq!(escapes[v.index()], want, "{name}: escape of {v:?}");
                }
            }
        }
        let (mut old, mut new) = (f.clone(), f.clone());
        let (co, cn) = (sweep_dead_rescanning(&mut old), sweep_dead(&mut new));
        assert!(co == cn && old == new, "{name}: sweep_dead");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkvmopt_ir::FunctionBuilder;

    #[test]
    fn ptr_base_traces_geps() {
        let mut b = FunctionBuilder::new("f", vec![], Some(Ty::I32));
        let a = b.alloca(Ty::I32, 8);
        let g1 = b.gep(Operand::val(a), Operand::i32(1), 4, 0);
        let g2 = b.gep(Operand::val(g1), Operand::i32(2), 4, 4);
        let l = b.load(Operand::val(g2), Ty::I32);
        b.ret(Some(Operand::val(l)));
        let f = b.finish();
        assert_eq!(ptr_base(&f, &Operand::val(g2)), PtrBase::Alloca(a));
    }

    #[test]
    fn alias_disjoint_bases() {
        let mut m = Module::new();
        let g = m.add_global(zkvmopt_ir::Global::zeroed("g", 16));
        let mut b = FunctionBuilder::new("f", vec![], Some(Ty::I32));
        let a = b.alloca(Ty::I32, 4);
        let ga = b.global_addr(g);
        let l = b.load(Operand::val(a), Ty::I32);
        b.store(Operand::val(ga), Operand::val(l), Ty::I32);
        b.ret(Some(Operand::val(l)));
        let f = b.finish();
        assert!(!may_alias(&f, &Operand::val(a), &Operand::val(ga)));
        assert!(may_alias(&f, &Operand::val(a), &Operand::val(a)));
    }

    #[test]
    fn escape_detection() {
        // A store's pointer and a load's pointer do not escape; a store's
        // value, a phi incoming, a call argument and a terminator operand do.
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("callee", vec![Ty::Ptr], None);
        b.ret(None);
        let callee = m.add_func(b.finish());
        let mut b = FunctionBuilder::new("f", vec![], Some(Ty::Ptr));
        let stored = b.alloca(Ty::I32, 1);
        let slot = b.alloca(Ty::Ptr, 1);
        let merged = b.alloca(Ty::I32, 1);
        let arg = b.alloca(Ty::I32, 1);
        let returned = b.alloca(Ty::I32, 1);
        let quiet = b.alloca(Ty::I32, 1);
        b.store(Operand::val(slot), Operand::val(stored), Ty::Ptr);
        b.store(Operand::val(quiet), Operand::i32(1), Ty::I32);
        b.load(Operand::val(quiet), Ty::I32);
        b.call(callee, vec![Operand::val(arg)], None);
        let entry = b.current_block();
        let join = b.new_block();
        b.br(join);
        b.switch_to(join);
        b.phi(Ty::Ptr, vec![(entry, Operand::val(merged))]);
        b.ret(Some(Operand::val(returned)));
        let f = b.finish();
        let escapes = escaping_values(&f);
        for (v, want) in [
            (stored, true),
            (slot, false),
            (merged, true),
            (arg, true),
            (returned, true),
            (quiet, false),
        ] {
            assert_eq!(escapes[v.index()], want, "{v:?}");
            assert_eq!(oracle::alloca_escapes(&f, v), want, "{v:?} (oracle)");
        }
    }

    #[test]
    fn written_globals_marks_every_use_but_reads_and_compares() {
        // One global per use. Only a load's pointer, an icmp operand and a
        // gep/copy chain ending in those leave a global unwritten.
        let mut m = Module::new();
        let g: Vec<GlobalId> = (0..13)
            .map(|i| m.add_global(zkvmopt_ir::Global::zeroed(format!("g{i}"), 16)))
            .collect();
        let mut b = FunctionBuilder::new("callee", vec![Ty::Ptr], None);
        b.ret(None);
        let callee = m.add_func(b.finish());
        let mut b = FunctionBuilder::new("f", vec![], Some(Ty::Ptr));
        let a: Vec<Operand> = g.iter().map(|&g| Operand::val(b.global_addr(g))).collect();
        let slot = b.alloca(Ty::Ptr, 1);
        let elem = b.gep(a[0], Operand::i32(1), 4, 0);
        b.icmp(zkvmopt_ir::Pred::Eq, a[1], a[2]);
        b.store(a[3], Operand::i32(1), Ty::I32);
        b.store(Operand::val(slot), a[4], Ty::Ptr);
        b.call(callee, vec![a[5]], None);
        b.ecall(0, vec![a[6]]);
        b.select(Operand::bool(true), a[7], a[7]);
        b.bin(BinOp::Add, a[8], Operand::i32(4));
        b.gep(a[1], a[9], 4, 0);
        // A store at the end of a chain longer than `ptr_base` follows.
        let mut deep = a[12];
        for _ in 0..64 {
            deep = Operand::val(b.gep(deep, Operand::i32(0), 4, 0));
        }
        b.store(deep, Operand::i32(1), Ty::I32);
        let entry = b.current_block();
        let join = b.new_block();
        b.br(join);
        b.switch_to(join);
        b.phi(Ty::Ptr, vec![(entry, a[10])]);
        b.ret(Some(a[11]));
        let mut f = b.finish();
        let copy = f.add_inst(f.entry, Op::Copy(Operand::val(elem)), Some(Ty::Ptr));
        f.add_inst(
            f.entry,
            Op::Load {
                ptr: Operand::val(copy),
                ty: Ty::I32,
            },
            Some(Ty::I32),
        );
        m.add_func(f);
        let mut want = vec![true; 13];
        want[..3].fill(false);
        assert_eq!(written_globals(&m), want);
    }

    #[test]
    fn const_folding() {
        let f = Function::new("f", vec![], None);
        let folded = const_fold(
            &f,
            &Op::Bin {
                op: BinOp::Add,
                a: Operand::i32(2),
                b: Operand::i32(3),
            },
        );
        assert_eq!(folded, Some(Operand::i32(5)));
        let cmp = const_fold(
            &f,
            &Op::Icmp {
                pred: zkvmopt_ir::Pred::Slt,
                a: Operand::i32(-1),
                b: Operand::i32(0),
            },
        );
        assert_eq!(cmp, Some(Operand::bool(true)));
    }

    #[test]
    fn algebraic_identities() {
        let x = Operand::Value(ValueId(0));
        assert_eq!(
            algebraic_simplify(&Op::Bin {
                op: BinOp::Add,
                a: x,
                b: Operand::i32(0)
            }),
            Some(x)
        );
        assert_eq!(
            algebraic_simplify(&Op::Bin {
                op: BinOp::Sub,
                a: x,
                b: x
            }),
            Some(Operand::i32(0))
        );
        assert_eq!(
            algebraic_simplify(&Op::Bin {
                op: BinOp::Mul,
                a: x,
                b: Operand::i32(2)
            }),
            None
        );
    }

    #[test]
    fn sweep_removes_unused_chains() {
        let mut b = FunctionBuilder::new("f", vec![], Some(Ty::I32));
        let d1 = b.bin(BinOp::Add, Operand::i32(1), Operand::i32(2));
        let _d2 = b.bin(BinOp::Mul, Operand::val(d1), Operand::i32(3));
        let keep = b.bin(BinOp::Add, Operand::i32(40), Operand::i32(2));
        b.ret(Some(Operand::val(keep)));
        let mut f = b.finish();
        assert!(sweep_dead(&mut f));
        assert_eq!(f.size(), 1);
    }
}
