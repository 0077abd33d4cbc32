//! IR verifier: structural, type, and SSA-dominance checks.
//!
//! Every pass in `zkvmopt-passes` is required to leave the module in a state
//! this verifier accepts; the pass manager checks this in debug builds and the
//! property tests check it for random pass sequences.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::func::{BlockId, Function, Module, ValueDef, ValueId};
use crate::hash::FxHashSet;
use crate::inst::{CastKind, Op, Operand, Term};
use crate::ty::Ty;
use std::fmt;

/// A verification failure, with enough context to locate the offending IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the problem was found.
    pub func: String,
    /// Description of the violation.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verification failed in @{}: {}", self.func, self.message)
    }
}

impl std::error::Error for VerifyError {}

fn err(func: &Function, msg: impl Into<String>) -> VerifyError {
    VerifyError {
        func: func.name.clone(),
        message: msg.into(),
    }
}

/// Verify a whole module.
///
/// # Errors
/// Returns the first violation found.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    let mut names = FxHashSet::default();
    for f in &m.funcs {
        if !names.insert(f.name.as_str()) {
            return Err(err(f, "duplicate function name"));
        }
        verify_function(f, m)?;
    }
    Ok(())
}

/// Verify a single function against module `m` (for call signatures and
/// global references).
///
/// # Errors
/// Returns the first violation found.
pub fn verify_function(f: &Function, m: &Module) -> Result<(), VerifyError> {
    if f.blocks.is_empty() {
        return Err(err(f, "function has no blocks"));
    }
    if f.entry.index() >= f.blocks.len() {
        return Err(err(f, "entry block out of range"));
    }
    // Per value id: the block each instruction lives in, and its position.
    let mut position: Vec<Option<(BlockId, usize)>> = vec![None; f.values.len()];
    for b in f.block_ids() {
        for (i, &v) in f.blocks[b.index()].insts.iter().enumerate() {
            if v.index() >= f.values.len() {
                return Err(err(
                    f,
                    format!("bb{}: instruction id %{} out of range", b.0, v.0),
                ));
            }
            if matches!(f.values[v.index()].def, ValueDef::Param { .. }) {
                return Err(err(
                    f,
                    format!("bb{}: parameter %{} listed as instruction", b.0, v.0),
                ));
            }
            if position[v.index()].replace((b, i)).is_some() {
                return Err(err(f, format!("%{} appears in more than one block", v.0)));
            }
        }
    }
    let cfg = Cfg::new(f);
    let dom = DomTree::new(f, &cfg);
    // One phi's incoming blocks, sorted; reused across phis.
    let mut inc_blocks: Vec<BlockId> = Vec::new();
    for &b in cfg.rpo() {
        let data = &f.blocks[b.index()];
        // Terminator targets must be valid.
        for s in data.term.succs() {
            if s.index() >= f.blocks.len() {
                return Err(err(
                    f,
                    format!("bb{}: branch to out-of-range bb{}", b.0, s.0),
                ));
            }
        }
        // Return type must match signature.
        match (&data.term, f.ret) {
            (Term::Ret(Some(v)), Some(rt)) => {
                let ty = operand_ty(f, v)
                    .ok_or_else(|| err(f, format!("bb{}: ret of void value", b.0)))?;
                if ty != rt {
                    return Err(err(f, format!("bb{}: ret type {ty} != {rt}", b.0)));
                }
            }
            (Term::Ret(Some(_)), None) => {
                return Err(err(
                    f,
                    format!("bb{}: value return from void function", b.0),
                ));
            }
            (Term::Ret(None), Some(_)) => {
                return Err(err(
                    f,
                    format!("bb{}: void return from value function", b.0),
                ));
            }
            _ => {}
        }
        if let Term::CondBr { c, .. } = &data.term {
            if operand_ty(f, c) != Some(Ty::I1) {
                return Err(err(f, format!("bb{}: cond_br condition is not i1", b.0)));
            }
        }

        let mut seen_non_phi = false;
        for (idx, &v) in data.insts.iter().enumerate() {
            let op = match f.op(v) {
                Some(op) => op,
                None => return Err(err(f, format!("%{} has no op", v.0))),
            };
            if matches!(op, Op::Nop) {
                return Err(err(f, format!("bb{}: nop slot %{} still listed", b.0, v.0)));
            }
            if op.is_phi() {
                if seen_non_phi {
                    return Err(err(f, format!("bb{}: phi %{} after non-phi", b.0, v.0)));
                }
            } else {
                seen_non_phi = true;
            }
            check_types(f, m, v, op, b)?;
            // Phi nodes: incoming must exactly match unique predecessors.
            if let Op::Phi { incoming } = op {
                inc_blocks.clear();
                inc_blocks.extend(incoming.iter().map(|(p, _)| *p));
                inc_blocks.sort_unstable();
                if inc_blocks.windows(2).any(|w| w[0] == w[1]) {
                    return Err(err(
                        f,
                        format!("bb{}: phi %{} duplicate incoming block", b.0, v.0),
                    ));
                }
                // Both sides ascend without repeats, so equal sets read equal.
                if !inc_blocks.iter().copied().eq(cfg.unique_preds(b)) {
                    let preds: Vec<BlockId> = cfg.unique_preds(b).collect();
                    return Err(err(
                        f,
                        format!(
                            "bb{}: phi %{} incoming {:?} != preds {:?}",
                            b.0, v.0, inc_blocks, preds
                        ),
                    ));
                }
            }
            // Dominance: each value operand must be defined before use.
            let mut viol: Option<String> = None;
            let check_use = |o: &Operand,
                             viol: &mut Option<String>,
                             use_block: BlockId,
                             use_idx: Option<usize>| {
                let Operand::Value(u) = o else { return };
                if u.index() >= f.values.len() {
                    *viol = Some(format!("use of out-of-range %{}", u.0));
                    return;
                }
                match &f.values[u.index()].def {
                    ValueDef::Param { .. } => {}
                    ValueDef::Inst(Op::Nop) => {
                        *viol = Some(format!("use of deleted %{}", u.0));
                    }
                    ValueDef::Inst(_) => match position[u.index()] {
                        None => *viol = Some(format!("use of unplaced %{}", u.0)),
                        Some((db, di)) => {
                            let ok = if db == use_block {
                                match use_idx {
                                    Some(ui) => di < ui,
                                    None => true, // used by terminator of same block
                                }
                            } else {
                                dom.strictly_dominates(db, use_block)
                            };
                            if !ok {
                                *viol = Some(format!(
                                    "%{} used at bb{} before dominated by def at bb{}",
                                    u.0, use_block.0, db.0
                                ));
                            }
                        }
                    },
                }
            };
            if let Op::Phi { incoming } = op {
                // Phi operands are evaluated at the end of the incoming block.
                for (p, o) in incoming {
                    check_use(o, &mut viol, *p, None);
                }
            } else {
                op.for_each_operand(|o| check_use(o, &mut viol, b, Some(idx)));
            }
            if let Some(msg) = viol {
                return Err(err(f, format!("bb{}: {msg}", b.0)));
            }
        }
        // Terminator operand dominance.
        let mut viol: Option<String> = None;
        data.term.for_each_operand(|o| {
            if let Operand::Value(u) = o {
                match &f.values[u.index()].def {
                    ValueDef::Param { .. } => {}
                    ValueDef::Inst(Op::Nop) => viol = Some(format!("term uses deleted %{}", u.0)),
                    ValueDef::Inst(_) => match position[u.index()] {
                        None => viol = Some(format!("term uses unplaced %{}", u.0)),
                        Some((db, _)) => {
                            if db != b && !dom.strictly_dominates(db, b) {
                                viol = Some(format!("term use of %{} not dominated", u.0));
                            }
                        }
                    },
                }
            }
        });
        if let Some(msg) = viol {
            return Err(err(f, format!("bb{}: {msg}", b.0)));
        }
    }
    Ok(())
}

fn operand_ty(f: &Function, o: &Operand) -> Option<Ty> {
    f.operand_ty(o)
}

fn check_types(
    f: &Function,
    m: &Module,
    v: ValueId,
    op: &Op,
    b: BlockId,
) -> Result<(), VerifyError> {
    let want = |cond: bool, msg: &str| -> Result<(), VerifyError> {
        if cond {
            Ok(())
        } else {
            Err(err(f, format!("bb{}: %{}: {msg}", b.0, v.0)))
        }
    };
    let rty = f.ty(v);
    match op {
        Op::Bin { a, b: bo, .. } => {
            want(rty == Some(Ty::I32), "bin result must be i32")?;
            want(operand_ty(f, a) == Some(Ty::I32), "bin lhs must be i32")?;
            want(operand_ty(f, bo) == Some(Ty::I32), "bin rhs must be i32")?;
        }
        Op::Icmp { a, b: bo, .. } => {
            want(rty == Some(Ty::I1), "icmp result must be i1")?;
            let ta = operand_ty(f, a);
            let tb = operand_ty(f, bo);
            want(ta == tb, "icmp operands must share a type")?;
            want(
                matches!(ta, Some(Ty::I32) | Some(Ty::Ptr)),
                "icmp operates on i32/ptr",
            )?;
        }
        Op::Select { c, t, f: fo } => {
            want(operand_ty(f, c) == Some(Ty::I1), "select cond must be i1")?;
            let tt = operand_ty(f, t);
            want(tt == operand_ty(f, fo), "select arms must share a type")?;
            want(rty == tt, "select result type mismatch")?;
        }
        Op::Load { ptr, ty } => {
            want(
                operand_ty(f, ptr) == Some(Ty::Ptr),
                "load pointer must be ptr",
            )?;
            want(rty == Some(*ty), "load result/type mismatch")?;
        }
        Op::Store { ptr, val, ty } => {
            want(
                operand_ty(f, ptr) == Some(Ty::Ptr),
                "store pointer must be ptr",
            )?;
            want(operand_ty(f, val) == Some(*ty), "store value/type mismatch")?;
            want(rty.is_none(), "store has no result")?;
        }
        Op::Alloca { count, .. } => {
            want(rty == Some(Ty::Ptr), "alloca result must be ptr")?;
            want(*count > 0, "alloca count must be positive")?;
            want(b == f.entry, "alloca must be in the entry block")?;
        }
        Op::Gep { base, index, .. } => {
            want(operand_ty(f, base) == Some(Ty::Ptr), "gep base must be ptr")?;
            want(
                operand_ty(f, index) == Some(Ty::I32),
                "gep index must be i32",
            )?;
            want(rty == Some(Ty::Ptr), "gep result must be ptr")?;
        }
        Op::GlobalAddr(g) => {
            want(g.index() < m.globals.len(), "global id out of range")?;
            want(rty == Some(Ty::Ptr), "global_addr result must be ptr")?;
        }
        Op::Call { callee, args } => {
            let Some(cf) = m.funcs.get(callee.index()) else {
                return Err(err(
                    f,
                    format!("bb{}: %{}: call to unknown function", b.0, v.0),
                ));
            };
            want(args.len() == cf.params.len(), "call arity mismatch")?;
            for (i, (a, p)) in args.iter().zip(&cf.params).enumerate() {
                if operand_ty(f, a) != Some(*p) {
                    return Err(err(
                        f,
                        format!("bb{}: %{}: call arg {i} type mismatch", b.0, v.0),
                    ));
                }
            }
            want(rty == cf.ret, "call result type mismatch")?;
        }
        Op::Ecall { .. } => {
            want(rty == Some(Ty::I32), "ecall result must be i32")?;
        }
        Op::Phi { incoming } => {
            let Some(t) = rty else {
                return Err(err(f, format!("bb{}: %{}: phi must have a type", b.0, v.0)));
            };
            for (_, o) in incoming {
                if operand_ty(f, o) != Some(t) {
                    return Err(err(
                        f,
                        format!("bb{}: %{}: phi incoming type mismatch", b.0, v.0),
                    ));
                }
            }
        }
        Op::Cast { kind, v: src, to } => {
            let Some(st) = operand_ty(f, src) else {
                return Err(err(f, format!("bb{}: %{}: cast of void", b.0, v.0)));
            };
            want(rty == Some(*to), "cast result type mismatch")?;
            match kind {
                CastKind::Zext | CastKind::Sext => {
                    want(st.size_bytes() <= to.size_bytes(), "extension must widen")?;
                }
                CastKind::Trunc => {
                    want(st.size_bytes() >= to.size_bytes(), "trunc must narrow")?;
                }
            }
            want(st.is_int() && to.is_int(), "casts operate on integers")?;
        }
        Op::Copy(src) => {
            want(operand_ty(f, src) == rty, "copy type mismatch")?;
        }
        Op::Nop => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, Pred};

    #[test]
    fn accepts_well_formed() {
        let mut b = FunctionBuilder::new("ok", vec![Ty::I32], Some(Ty::I32));
        let v = b.bin(BinOp::Add, Operand::val(b.param(0)), Operand::i32(1));
        b.ret(Some(Operand::val(v)));
        let f = b.finish();
        assert!(verify_function(&f, &Module::new()).is_ok());
    }

    #[test]
    fn rejects_type_mismatch_in_ret() {
        let mut b = FunctionBuilder::new("bad", vec![], Some(Ty::I32));
        let c = b.icmp(Pred::Eq, Operand::i32(1), Operand::i32(1));
        b.ret(Some(Operand::val(c))); // i1 returned as i32
        let f = b.finish();
        let e = verify_function(&f, &Module::new()).unwrap_err();
        assert!(e.message.contains("ret type"), "{e}");
    }

    #[test]
    fn rejects_alloca_outside_entry() {
        let mut b = FunctionBuilder::new("bad", vec![], None);
        let next = b.new_block();
        b.br(next);
        b.switch_to(next);
        let _ = b.alloca(Ty::I32, 1);
        b.ret(None);
        let f = b.finish();
        let e = verify_function(&f, &Module::new()).unwrap_err();
        assert!(e.message.contains("entry"), "{e}");
    }

    #[test]
    fn rejects_use_before_def() {
        let mut f = Function::new("bad", vec![], Some(Ty::I32));
        // Manually create: %0 = add %1, 1 ; %1 = add 1, 1 — use before def.
        let v0 = f.new_value(
            Op::Bin {
                op: BinOp::Add,
                a: Operand::Value(ValueId(1)),
                b: Operand::i32(1),
            },
            Some(Ty::I32),
        );
        let v1 = f.new_value(
            Op::Bin {
                op: BinOp::Add,
                a: Operand::i32(1),
                b: Operand::i32(1),
            },
            Some(Ty::I32),
        );
        let e = f.entry;
        f.blocks[e.index()].insts.push(v0);
        f.blocks[e.index()].insts.push(v1);
        f.blocks[e.index()].term = Term::Ret(Some(Operand::val(v1)));
        let err = verify_function(&f, &Module::new()).unwrap_err();
        assert!(err.message.contains("before dominated"), "{err}");
    }

    #[test]
    fn rejects_phi_pred_mismatch() {
        let mut b = FunctionBuilder::new("bad", vec![], Some(Ty::I32));
        let j = b.new_block();
        let entry = b.current_block();
        b.br(j);
        b.switch_to(j);
        // Claims an edge from a block that is not a predecessor.
        let bogus = BlockId(0);
        let p = b.phi(
            Ty::I32,
            vec![
                (entry, Operand::i32(1)),
                (BlockId(bogus.0 + 7), Operand::i32(2)),
            ],
        );
        b.ret(Some(Operand::val(p)));
        let mut f = b.finish();
        // Make the bogus block id refer to a real block to isolate the pred check.
        for _ in 0..8 {
            let nb = f.add_block();
            f.blocks[nb.index()].term = Term::Unreachable;
        }
        let e = verify_function(&f, &Module::new()).unwrap_err();
        assert!(e.message.contains("phi"), "{e}");
    }

    #[test]
    fn phi_pred_mismatch_lists_both_sides_in_block_order() {
        // Join `j` has preds {a, c}; the phi names {c, entry, a}, out of order.
        let mut b = FunctionBuilder::new("bad", vec![Ty::I32], Some(Ty::I32));
        let entry = b.current_block();
        let (a, c, j) = (b.new_block(), b.new_block(), b.new_block());
        let cond = b.icmp(Pred::Eq, Operand::val(b.param(0)), Operand::i32(0));
        b.cond_br(Operand::val(cond), a, c);
        for arm in [a, c] {
            b.switch_to(arm);
            b.br(j);
        }
        b.switch_to(j);
        let incoming = [c, entry, a].map(|p| (p, Operand::i32(p.0 as i32)));
        let p = b.phi(Ty::I32, incoming.to_vec());
        b.ret(Some(Operand::val(p)));
        let e = verify_function(&b.finish(), &Module::new()).unwrap_err();
        assert_eq!(
            e.message,
            "bb3: phi %2 incoming [BlockId(0), BlockId(1), BlockId(2)] \
             != preds [BlockId(1), BlockId(2)]"
        );
    }

    #[test]
    fn rejects_call_arity_mismatch() {
        let mut m = Module::new();
        let mut cb = FunctionBuilder::new("callee", vec![Ty::I32], Some(Ty::I32));
        cb.ret(Some(Operand::val(cb.param(0))));
        let callee = m.add_func(cb.finish());
        let mut b = FunctionBuilder::new("caller", vec![], Some(Ty::I32));
        let r = b.call(callee, vec![], Some(Ty::I32)); // missing arg
        b.ret(Some(Operand::val(r)));
        m.add_func(b.finish());
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("arity"), "{e}");
    }

    #[test]
    fn rejects_duplicate_function_names() {
        let mut m = Module::new();
        for _ in 0..2 {
            let mut b = FunctionBuilder::new("same", vec![], None);
            b.ret(None);
            m.add_func(b.finish());
        }
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
    }
}
