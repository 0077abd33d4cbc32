//! Local simplification passes: `simplifycfg`, `instsimplify`, `instcombine`,
//! `reassociate`, `dce`/`adce`, `dse`, `sink`, `mergereturn` and
//! `mldst-motion`.
//!
//! `simplifycfg`'s branch-to-select conversion and `instcombine`'s division
//! strength reduction are the two CPU-oriented rewrites the paper singles out
//! as harmful on zkVMs (Figs. 2a and 13); both honour the zk-aware knobs in
//! [`PassConfig`].

use crate::framework::FunctionContext;
use crate::util;
use crate::PassConfig;
use zkvmopt_ir::analysis::AnalysisCache;
use zkvmopt_ir::cfg::Cfg;
use zkvmopt_ir::func::Substitution;
use zkvmopt_ir::{
    BinOp, BlockId, CastKind, Function, Module, Op, Operand, Pred, Term, Ty, ValueId,
};

/// Fold constants and algebraic identities; never creates instructions.
pub fn instsimplify(
    f: &mut Function,
    _ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    instsimplify_function(f)
}

/// Module-wide [`instsimplify`] (the unroll cleanup helper).
pub(crate) fn instsimplify_module(m: &mut Module) -> bool {
    let mut changed = false;
    for f in &mut m.funcs {
        changed |= instsimplify_function(f);
    }
    changed
}

pub(crate) fn instsimplify_function(f: &mut Function) -> bool {
    let mut changed = false;
    // Replacements stay pending (one arena sweep at the end, not one per
    // folded instruction); every op is resolved in place before it is read.
    let mut subst = Substitution::new();
    // Each block's list as the sweep found it (removals edit the live one).
    let mut insts: Vec<ValueId> = Vec::new();
    loop {
        let mut local = false;
        for b in f.block_ids() {
            insts.clone_from(&f.blocks[b.index()].insts);
            for &v in &insts {
                if let Some(op) = f.op_mut(v) {
                    subst.resolve_op(op);
                }
                let Some(op) = f.op(v) else { continue };
                let repl = util::const_fold(f, op)
                    .or_else(|| util::algebraic_simplify(op))
                    .or_else(|| simplify_icmp_identities(op))
                    .or(match op {
                        Op::Copy(x) => Some(*x),
                        _ => None,
                    });
                if let Some(r) = repl {
                    if r != Operand::Value(v) {
                        subst.insert(v, r);
                        f.remove_inst(b, v);
                        local = true;
                    }
                }
            }
        }
        changed |= local;
        if !local {
            break;
        }
    }
    f.substitute_uses(&subst);
    changed |= util::sweep_dead(f);
    changed
}

/// `x == x`, `x <= x`, … for reflexive predicates on identical operands.
fn simplify_icmp_identities(op: &Op) -> Option<Operand> {
    if let Op::Icmp { pred, a, b } = op {
        if a == b && a.as_const().is_none() {
            let v = matches!(
                pred,
                Pred::Eq | Pred::Sle | Pred::Sge | Pred::Ule | Pred::Uge
            );
            return Some(Operand::bool(v));
        }
    }
    None
}

/// Peephole combining: everything `instsimplify` does, plus rewrites that
/// create new instructions (strength reduction, associative folding, gep
/// canonicalization).
pub fn instcombine(
    f: &mut Function,
    _ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    cfg: &PassConfig,
) -> bool {
    let mut changed = false;
    changed |= instsimplify_function(f);
    changed |= instcombine_function(f, cfg);
    changed |= instsimplify_function(f);
    changed
}

fn log2_exact(v: i64) -> Option<u32> {
    let u = v as u32;
    if u != 0 && u.is_power_of_two() {
        Some(u.trailing_zeros())
    } else {
        None
    }
}

fn instcombine_function(f: &mut Function, cfg: &PassConfig) -> bool {
    let mut changed = false;
    for b in f.block_ids() {
        let mut idx = 0;
        while idx < f.blocks[b.index()].insts.len() {
            let v = f.blocks[b.index()].insts[idx];
            // Only these shapes are rewritten; none owns a list to copy.
            let op = match f.op(v) {
                Some(
                    op @ (Op::Bin { .. } | Op::Gep { .. } | Op::Select { .. } | Op::Icmp { .. }),
                ) => op.clone(),
                _ => {
                    idx += 1;
                    continue;
                }
            };
            match op {
                Op::Bin { op: bop, a, b: rhs } => {
                    // Canonicalize constants to the RHS of commutative ops.
                    if bop.commutative() && a.as_const().is_some() && rhs.as_const().is_none() {
                        *f.op_mut(v).expect("inst") = Op::Bin {
                            op: bop,
                            a: rhs,
                            b: a,
                        };
                        changed = true;
                        continue;
                    }
                    // x - c  ->  x + (-c): exposes addi at isel and assoc folds.
                    if bop == BinOp::Sub {
                        if let Some(c) = rhs.as_const() {
                            if c != 0 {
                                *f.op_mut(v).expect("inst") = Op::Bin {
                                    op: BinOp::Add,
                                    a,
                                    b: Operand::i32(-(c as i32)),
                                };
                                changed = true;
                                continue;
                            }
                        }
                    }
                    // Associative constant folding: (x op c1) op c2 -> x op (c1∘c2).
                    if let (Operand::Value(av), Some(c2)) = (a, rhs.as_const()) {
                        if let Some(Op::Bin {
                            op: inner,
                            a: ia,
                            b: ib,
                        }) = f.op(av)
                        {
                            if let (inner, ia, Some(c1)) = (*inner, *ia, ib.as_const()) {
                                let fold = match (inner, bop) {
                                    (BinOp::Add, BinOp::Add) => {
                                        Some((BinOp::Add, BinOp::Add.eval32(c1, c2)))
                                    }
                                    (BinOp::Mul, BinOp::Mul) => {
                                        Some((BinOp::Mul, BinOp::Mul.eval32(c1, c2)))
                                    }
                                    (BinOp::And, BinOp::And) => {
                                        Some((BinOp::And, BinOp::And.eval32(c1, c2)))
                                    }
                                    (BinOp::Or, BinOp::Or) => {
                                        Some((BinOp::Or, BinOp::Or.eval32(c1, c2)))
                                    }
                                    (BinOp::Xor, BinOp::Xor) => {
                                        Some((BinOp::Xor, BinOp::Xor.eval32(c1, c2)))
                                    }
                                    _ => None,
                                };
                                if let Some((newop, c)) = fold {
                                    *f.op_mut(v).expect("inst") = Op::Bin {
                                        op: newop,
                                        a: ia,
                                        b: Operand::i32(c as i32),
                                    };
                                    changed = true;
                                    continue;
                                }
                            }
                        }
                    }
                    // Strength reduction by powers of two.
                    if let Some(c) = rhs.as_const() {
                        if let Some(k) = log2_exact(c) {
                            match bop {
                                BinOp::Mul if k > 0 => {
                                    *f.op_mut(v).expect("inst") = Op::Bin {
                                        op: BinOp::Shl,
                                        a,
                                        b: Operand::i32(k as i32),
                                    };
                                    changed = true;
                                    continue;
                                }
                                BinOp::DivU if k > 0 => {
                                    *f.op_mut(v).expect("inst") = Op::Bin {
                                        op: BinOp::ShrU,
                                        a,
                                        b: Operand::i32(k as i32),
                                    };
                                    changed = true;
                                    continue;
                                }
                                BinOp::RemU => {
                                    *f.op_mut(v).expect("inst") = Op::Bin {
                                        op: BinOp::And,
                                        a,
                                        b: Operand::i32((c - 1) as i32),
                                    };
                                    changed = true;
                                    continue;
                                }
                                // The Fig. 2a rewrite: sdiv by 2^k becomes a
                                // four-instruction shift-and-add sequence.
                                // Great on CPUs (div is slow), bad on zkVMs
                                // (all ops cost one cycle). Gated on the
                                // target cost model. `c` must be a *positive*
                                // power of two: i32::MIN's bit pattern is a
                                // power of two but the expansion is invalid
                                // for it.
                                BinOp::DivS
                                    if k > 0 && k < 31 && c > 1 && cfg.strength_reduce_div =>
                                {
                                    let sign = f.insert_inst(
                                        b,
                                        idx,
                                        Op::Bin {
                                            op: BinOp::ShrA,
                                            a,
                                            b: Operand::i32(31),
                                        },
                                        Some(Ty::I32),
                                    );
                                    let bias = f.insert_inst(
                                        b,
                                        idx + 1,
                                        Op::Bin {
                                            op: BinOp::ShrU,
                                            a: Operand::val(sign),
                                            b: Operand::i32(32 - k as i32),
                                        },
                                        Some(Ty::I32),
                                    );
                                    let adj = f.insert_inst(
                                        b,
                                        idx + 2,
                                        Op::Bin {
                                            op: BinOp::Add,
                                            a,
                                            b: Operand::val(bias),
                                        },
                                        Some(Ty::I32),
                                    );
                                    *f.op_mut(v).expect("inst") = Op::Bin {
                                        op: BinOp::ShrA,
                                        a: Operand::val(adj),
                                        b: Operand::i32(k as i32),
                                    };
                                    changed = true;
                                    idx += 4;
                                    continue;
                                }
                                _ => {}
                            }
                        }
                    }
                }
                Op::Gep {
                    base,
                    index,
                    stride,
                    offset,
                } => {
                    // Constant index folds into the offset.
                    if let Some(i) = index.as_const() {
                        if i != 0 {
                            let extra = (i as i32).wrapping_mul(stride as i32);
                            *f.op_mut(v).expect("inst") = Op::Gep {
                                base,
                                index: Operand::i32(0),
                                stride,
                                offset: offset.wrapping_add(extra),
                            };
                            changed = true;
                            continue;
                        }
                    }
                    // gep(base, j + c, s, o) -> gep(base, j, s, o + c*s)
                    if let Operand::Value(iv) = index {
                        if let Some(Op::Bin {
                            op: BinOp::Add,
                            a: ia,
                            b: ib,
                        }) = f.op(iv)
                        {
                            if let (ia, Some(c)) = (*ia, ib.as_const()) {
                                let extra = (c as i32).wrapping_mul(stride as i32);
                                *f.op_mut(v).expect("inst") = Op::Gep {
                                    base,
                                    index: ia,
                                    stride,
                                    offset: offset.wrapping_add(extra),
                                };
                                changed = true;
                                continue;
                            }
                        }
                    }
                    // gep(gep(b, 0, _, o1), i, s, o2) -> gep(b, i, s, o1+o2)
                    if let Operand::Value(bv) = base {
                        if let Some(Op::Gep {
                            base: inner_base,
                            index: inner_index,
                            offset: o1,
                            ..
                        }) = f.op(bv)
                        {
                            if inner_index.is_const_val(0) {
                                let (inner_base, o1) = (*inner_base, *o1);
                                *f.op_mut(v).expect("inst") = Op::Gep {
                                    base: inner_base,
                                    index,
                                    stride,
                                    offset: offset.wrapping_add(o1),
                                };
                                changed = true;
                                continue;
                            }
                        }
                    }
                }
                Op::Select { c, t, f: fo }
                    // select c, 1, 0  ->  zext c
                    if t.is_const_val(1) && fo.is_const_val(0) => {
                        *f.op_mut(v).expect("inst") = Op::Cast {
                            kind: CastKind::Zext,
                            v: c,
                            to: Ty::I32,
                        };
                        changed = true;
                        continue;
                    }
                Op::Icmp { pred, a, b: rhs } => {
                    // Canonicalize constant to RHS.
                    if a.as_const().is_some() && rhs.as_const().is_none() {
                        *f.op_mut(v).expect("inst") = Op::Icmp {
                            pred: pred.swapped(),
                            a: rhs,
                            b: a,
                        };
                        changed = true;
                        continue;
                    }
                    // icmp ne (zext b), 0  ->  b  (and eq -> !b via select)
                    if rhs.is_const_val(0) {
                        if let Operand::Value(av) = a {
                            if let Some(Op::Cast {
                                kind: CastKind::Zext,
                                v: src,
                                to: Ty::I32,
                            }) = f.op(av)
                            {
                                if f.operand_ty(src) == Some(Ty::I1) && pred == Pred::Ne {
                                    let src = *src;
                                    f.replace_all_uses(v, src);
                                    f.remove_inst(b, v);
                                    changed = true;
                                    continue;
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
            idx += 1;
        }
    }
    changed
}

/// Reassociate commutative chains to expose constant folding.
///
/// A focused subset of LLVM's `reassociate`: rotates `(c op x) op y` into
/// `(x op y) op c` shapes so `instcombine`'s associative folds fire.
pub fn reassociate(
    f: &mut Function,
    ac: &mut AnalysisCache,
    cx: &FunctionContext<'_>,
    cfg: &PassConfig,
) -> bool {
    // Canonicalization + associative folding already live in instcombine;
    // running it twice reaches the fixed point reassociation would.
    let a = instcombine(f, ac, cx, cfg);
    let b = instcombine(f, ac, cx, cfg);
    a || b
}

/// Simple dead-code elimination: delete unused side-effect-free values.
pub fn dce(
    f: &mut Function,
    _ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    util::sweep_dead(f)
}

/// Aggressive DCE: `dce` plus unreachable-code removal and trivial-phi
/// collapsing.
pub fn adce(
    f: &mut Function,
    _ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    let mut changed = false;
    changed |= util::remove_unreachable(f);
    changed |= crate::mem2reg::collapse_trivial_phis(f);
    changed |= util::sweep_dead(f);
    changed
}

/// Block-local dead-store elimination.
pub fn dse(
    f: &mut Function,
    _ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    let mut changed = false;
    // One block's overwritten stores, found before any is removed.
    let mut dead: Vec<ValueId> = Vec::new();
    for b in f.block_ids() {
        let insts = &f.blocks[b.index()].insts;
        for (i, &v) in insts.iter().enumerate() {
            let Some(Op::Store { ptr, ty, .. }) = f.op(v) else {
                continue;
            };
            let ptr = *ptr;
            let width = ty.size_bytes();
            // Look forward for an overwriting store with no intervening
            // may-alias read or call.
            for &w in &insts[i + 1..] {
                match f.op(w) {
                    Some(Op::Store {
                        ptr: p2, ty: t2, ..
                    }) => {
                        if t2.size_bytes() >= width && util::same_address(f, p2, &ptr) {
                            dead.push(v);
                            break;
                        }
                        if util::may_alias(f, p2, &ptr) {
                            break;
                        }
                    }
                    Some(Op::Load { ptr: p2, .. }) if util::may_alias(f, p2, &ptr) => {
                        break;
                    }
                    Some(Op::Call { .. }) | Some(Op::Ecall { .. }) => break,
                    _ => {}
                }
            }
        }
        for v in dead.drain(..) {
            f.remove_inst(b, v);
            changed = true;
        }
    }
    changed
}

/// Sink single-use speculatable instructions into the successor that uses
/// them, so the other branch path never executes them.
pub fn sink(
    f: &mut Function,
    ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    let mut changed = false;
    let cfg_ = ac.cfg(f);
    let rpo: Vec<BlockId> = cfg_.rpo().to_vec();
    // Map each value to (block, index in block, use count, single user block).
    for &b in &rpo {
        if cfg_.succs(b).len() < 2 {
            continue;
        }
        let insts = f.blocks[b.index()].insts.clone();
        for &v in insts.iter().rev() {
            let Some(op) = f.op(v) else { continue };
            if !op.is_speculatable() {
                continue;
            }
            // All uses must live in exactly one successor with b as its
            // only predecessor, and not in b's own terminator.
            let mut term_use = false;
            f.blocks[b.index()].term.for_each_operand(|o| {
                term_use |= *o == Operand::Value(v);
            });
            if term_use {
                continue;
            }
            let mut use_blocks: Vec<BlockId> = Vec::new();
            let mut used_by_phi = false;
            for b2 in f.block_ids() {
                for &u in &f.blocks[b2.index()].insts {
                    if let Some(uop) = f.op(u) {
                        let mut uses = false;
                        uop.for_each_operand(|o| uses |= *o == Operand::Value(v));
                        if uses {
                            use_blocks.push(b2);
                            used_by_phi |= uop.is_phi();
                        }
                    }
                }
                let mut term_uses = false;
                f.blocks[b2.index()]
                    .term
                    .for_each_operand(|o| term_uses |= *o == Operand::Value(v));
                if term_uses {
                    use_blocks.push(b2);
                }
            }
            use_blocks.sort();
            use_blocks.dedup();
            if used_by_phi || use_blocks.len() != 1 {
                continue;
            }
            let target = use_blocks[0];
            if target == b
                || !cfg_.succs(b).contains(&target)
                || cfg_.unique_preds(target).count() != 1
            {
                continue;
            }
            // Also: operands of v must still dominate target (they do —
            // they dominate v in b, and b dominates its single-pred succ).
            f.blocks[b.index()].insts.retain(|x| *x != v);
            // Insert after phis.
            let pos = f.blocks[target.index()]
                .insts
                .iter()
                .take_while(|&&x| matches!(f.op(x), Some(Op::Phi { .. })))
                .count();
            f.blocks[target.index()].insts.insert(pos, v);
            changed = true;
        }
    }
    changed
}

/// Unify multiple `ret` blocks into one (LLVM's `mergereturn`).
pub fn mergereturn(
    f: &mut Function,
    _ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    let rets: Vec<BlockId> = f
        .reachable_blocks()
        .into_iter()
        .filter(|b| matches!(f.blocks[b.index()].term, Term::Ret(_)))
        .collect();
    if rets.len() < 2 {
        return false;
    }
    let unified = f.add_block();
    match f.ret {
        Some(ty) => {
            let phi = f.add_inst(
                unified,
                Op::Phi {
                    incoming: Vec::new(),
                },
                Some(ty),
            );
            for b in &rets {
                let val = match &f.blocks[b.index()].term {
                    Term::Ret(Some(v)) => *v,
                    _ => unreachable!("value fn must ret value"),
                };
                if let Some(Op::Phi { incoming }) = f.op_mut(phi) {
                    incoming.push((*b, val));
                }
                f.blocks[b.index()].term = Term::Br(unified);
            }
            f.blocks[unified.index()].term = Term::Ret(Some(Operand::val(phi)));
        }
        None => {
            for b in &rets {
                f.blocks[b.index()].term = Term::Br(unified);
            }
            f.blocks[unified.index()].term = Term::Ret(None);
        }
    }
    true
}

/// Merge identical stores from both arms of a diamond into the join block
/// (LLVM's `mldst-motion`, store-sinking half).
pub fn mldst_motion(
    f: &mut Function,
    ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    let mut changed = false;
    let cfg_ = ac.cfg(f);
    for &b in cfg_.rpo() {
        let Term::CondBr { t, f: fb, .. } = f.blocks[b.index()].term.clone() else {
            continue;
        };
        if t == fb {
            continue;
        }
        let (st, sf) = (cfg_.succs(t), cfg_.succs(fb));
        if st.len() != 1 || sf.len() != 1 || st[0] != sf[0] {
            continue;
        }
        let join = st[0];
        if cfg_.unique_preds(t).count() != 1
            || cfg_.unique_preds(fb).count() != 1
            || cfg_.unique_preds(join).count() != 2
        {
            continue;
        }
        // Last instruction of each arm must be a store to the same
        // address operand.
        let lt = *match f.blocks[t.index()].insts.last() {
            Some(v) => v,
            None => continue,
        };
        let lf = *match f.blocks[fb.index()].insts.last() {
            Some(v) => v,
            None => continue,
        };
        let (
            Some(Op::Store {
                ptr: p1,
                val: v1,
                ty: ty1,
            }),
            Some(Op::Store {
                ptr: p2,
                val: v2,
                ty: ty2,
            }),
        ) = (f.op(lt).cloned(), f.op(lf).cloned())
        else {
            continue;
        };
        if p1 != p2 || ty1 != ty2 {
            continue;
        }
        // The pointer must be defined outside the arms (it is, if it's
        // the same operand and dominates both).
        let ty = ty1;
        f.remove_inst(t, lt);
        f.remove_inst(fb, lf);
        let phi = f.insert_inst(
            join,
            0,
            Op::Phi {
                incoming: vec![(t, v1), (fb, v2)],
            },
            Some(ty),
        );
        let pos = f.blocks[join.index()]
            .insts
            .iter()
            .take_while(|&&x| matches!(f.op(x), Some(Op::Phi { .. })))
            .count();
        f.insert_inst(
            join,
            pos,
            Op::Store {
                ptr: p1,
                val: Operand::val(phi),
                ty,
            },
            None,
        );
        changed = true;
    }
    changed
}

/// Control-flow graph simplification: constant branches, block merging,
/// empty-block forwarding, and (budgeted) branch-to-select conversion.
pub fn simplifycfg(
    f: &mut Function,
    _ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    cfg: &PassConfig,
) -> bool {
    simplifycfg_function(f, cfg)
}

pub(crate) fn simplifycfg_function(f: &mut Function, cfg: &PassConfig) -> bool {
    let mut changed = false;
    let mut rounds = 0;
    // The CFG, for as long as no step has changed the block graph: the three
    // shape-reading steps share one instead of building one each per round.
    let mut shape: Option<Cfg> = None;
    loop {
        let mut local = false;
        if fold_constant_branches(f) | util::remove_unreachable(f) {
            local = true;
            shape = None;
        }
        local |= merge_straightline(f, &mut shape);
        local |= forward_empty_blocks(f, &mut shape);
        if cfg.simplifycfg_speculate > 0 {
            local |= if_convert(f, cfg.simplifycfg_speculate, &mut shape);
        }
        local |= crate::mem2reg::collapse_trivial_phis(f);
        changed |= local;
        rounds += 1;
        if !local || rounds > 20 {
            break;
        }
    }
    changed |= util::sweep_dead(f);
    changed
}

/// Take the shared CFG out of `shape`, building it if a previous step
/// changed the block graph. A step that leaves the graph alone puts it back.
fn take_shape(f: &Function, shape: &mut Option<Cfg>) -> Cfg {
    let cfg_ = shape.take().unwrap_or_else(|| Cfg::new(f));
    debug_assert!(
        {
            let fresh = Cfg::new(f);
            fresh.rpo() == cfg_.rpo() && f.block_ids().all(|b| fresh.preds(b) == cfg_.preds(b))
        },
        "shared CFG went stale"
    );
    cfg_
}

/// Module-wide [`simplifycfg`] (the unroll cleanup helper).
pub(crate) fn simplifycfg_module(m: &mut Module, cfg: &PassConfig) -> bool {
    let mut changed = false;
    for f in &mut m.funcs {
        changed |= simplifycfg_function(f, cfg);
    }
    changed
}

fn fold_constant_branches(f: &mut Function) -> bool {
    let mut changed = false;
    for b in f.block_ids() {
        let Term::CondBr { c, t, f: fb } = f.blocks[b.index()].term.clone() else {
            continue;
        };
        if let Some(v) = c.as_const() {
            let target = if v != 0 { t } else { fb };
            let dead = if v != 0 { fb } else { t };
            f.blocks[b.index()].term = Term::Br(target);
            if dead != target {
                remove_phi_edge(f, dead, b);
            }
            changed = true;
        } else if t == fb {
            f.blocks[b.index()].term = Term::Br(t);
            changed = true;
        }
    }
    changed
}

fn remove_phi_edge(f: &mut Function, block: BlockId, pred: BlockId) {
    let insts = f.blocks[block.index()].insts.clone();
    for v in insts {
        if let Some(Op::Phi { incoming }) = f.op_mut(v) {
            incoming.retain(|(p, _)| *p != pred);
        }
    }
}

/// Merge `b2` into `b1` when `b1 -> b2` is the only edge between them and
/// `b2`'s only predecessor is `b1`.
///
/// One `Cfg`, one RPO walk: each block absorbs its whole `br` chain before
/// the walk moves on. Contracting `b1 -> b2` removes `b2` from the RPO and
/// renames it to `b1` in its successors' predecessor lists; no other block's
/// RPO position or predecessor count moves, so no block the walk has passed
/// can become mergeable and the predecessor counts of the one `Cfg` stay
/// exact. The merges (and their order) are those of rebuilding the `Cfg` and
/// restarting the walk after every merge.
fn merge_straightline(f: &mut Function, shape: &mut Option<Cfg>) -> bool {
    let cfg_ = take_shape(f, shape);
    let mut changed = false;
    let mut scratch = Vec::new();
    for &b1 in cfg_.rpo() {
        // A block absorbed into an earlier one is left `Unreachable`.
        while let Term::Br(b2) = f.blocks[b1.index()].term {
            if b2 == f.entry || b2 == b1 || cfg_.preds(b2).len() != 1 {
                break;
            }
            if f.blocks[b2.index()].term.succs().any(|s| s == b2) {
                break; // self-loop latch; merging would orphan the loop
            }
            merge_into(f, b1, b2, &mut scratch);
            changed = true;
        }
    }
    if !changed {
        *shape = Some(cfg_);
    }
    changed
}

/// Splice `b2` (whose only predecessor is `b1`, by an unconditional branch)
/// onto the end of `b1`. `scratch` is the caller's buffer for a snapshot of
/// `b2`'s list.
fn merge_into(f: &mut Function, b1: BlockId, b2: BlockId, scratch: &mut Vec<ValueId>) {
    // Collapse phis in b2 (single pred ⇒ trivial).
    scratch.clone_from(&f.blocks[b2.index()].insts);
    for &v in scratch.iter() {
        if let Some(Op::Phi { incoming }) = f.op(v) {
            let val = incoming[0].1;
            f.replace_all_uses(v, val);
            f.remove_inst(b2, v);
        }
    }
    let insts2 = std::mem::take(&mut f.blocks[b2.index()].insts);
    f.blocks[b1.index()].insts.extend(insts2);
    let term2 = std::mem::replace(&mut f.blocks[b2.index()].term, Term::Unreachable);
    // Phi edges in b2's successors must now name b1.
    for s in term2.succs() {
        for i in 0..f.blocks[s.index()].insts.len() {
            let v = f.blocks[s.index()].insts[i];
            if let Some(Op::Phi { incoming }) = f.op_mut(v) {
                for (p, _) in incoming.iter_mut() {
                    if *p == b2 {
                        *p = b1;
                    }
                }
            }
        }
    }
    f.blocks[b1.index()].term = term2;
}

/// Retarget predecessors of empty forwarding blocks (`{} -> br X`) to X.
fn forward_empty_blocks(f: &mut Function, shape: &mut Option<Cfg>) -> bool {
    let mut changed = false;
    let cfg_ = take_shape(f, shape);
    for &b in cfg_.rpo() {
        if b == f.entry {
            continue;
        }
        if !f.blocks[b.index()].insts.is_empty() {
            continue;
        }
        let Term::Br(target) = f.blocks[b.index()].term else {
            continue;
        };
        if target == b {
            continue;
        }
        // If the target has phis, forwarding changes predecessor identities;
        // only forward when target has no phis and no pred of b is already a
        // pred of target (which would create a duplicate edge ambiguity).
        let target_has_phis = f.blocks[target.index()]
            .insts
            .iter()
            .any(|&v| matches!(f.op(v), Some(Op::Phi { .. })));
        if target_has_phis {
            continue;
        }
        let preds = cfg_.unique_preds(b);
        if preds.clone().next().is_none() {
            continue;
        }
        for p in preds {
            f.blocks[p.index()].term.retarget(b, target);
        }
        changed = true;
    }
    if !changed {
        *shape = Some(cfg_);
    }
    changed
}

/// The successor of a block that has exactly one (an unconditional branch).
fn sole_succ(f: &Function, b: BlockId) -> Option<BlockId> {
    match f.blocks[b.index()].term {
        Term::Br(s) => Some(s),
        _ => None,
    }
}

/// Budgeted if-conversion: turn small diamonds/triangles into straight-line
/// code with `select` (the paper's Fig. 13 transformation).
fn if_convert(f: &mut Function, budget: usize, shape: &mut Option<Cfg>) -> bool {
    let mut changed = false;
    let cfg_ = take_shape(f, shape);
    for &b in cfg_.rpo() {
        let Term::CondBr { c, t, f: fb } = f.blocks[b.index()].term.clone() else {
            continue;
        };
        if t == fb {
            continue;
        }
        let arm_ok = |f: &Function, arm: BlockId| -> bool {
            cfg_.unique_preds(arm).count() == 1
                && f.blocks[arm.index()].insts.len() <= budget
                && f.blocks[arm.index()]
                    .insts
                    .iter()
                    .all(|&v| f.op(v).is_some_and(|o| o.is_speculatable()))
        };
        // Full diamond: b -> {t, fb} -> join.
        if let Some(join) = sole_succ(f, t).filter(|&j| sole_succ(f, fb) == Some(j)) {
            if arm_ok(f, t) && arm_ok(f, fb) && join != b {
                // Hoist both arms into b, replace join phis with selects.
                let t_insts = std::mem::take(&mut f.blocks[t.index()].insts);
                let f_insts = std::mem::take(&mut f.blocks[fb.index()].insts);
                f.blocks[b.index()].insts.extend(t_insts);
                f.blocks[b.index()].insts.extend(f_insts);
                let join_insts = f.blocks[join.index()].insts.clone();
                for v in join_insts {
                    let Some(Op::Phi { incoming }) = f.op(v).cloned() else {
                        continue;
                    };
                    let vt = incoming.iter().find(|(p, _)| *p == t).map(|(_, o)| *o);
                    let vf = incoming.iter().find(|(p, _)| *p == fb).map(|(_, o)| *o);
                    if let (Some(vt), Some(vf)) = (vt, vf) {
                        let rest: Vec<(BlockId, Operand)> = incoming
                            .iter()
                            .filter(|(p, _)| *p != t && *p != fb)
                            .cloned()
                            .collect();
                        let ty = f.ty(v).expect("phi typed");
                        let sel = f.add_inst(b, Op::Select { c, t: vt, f: vf }, Some(ty));
                        if rest.is_empty() {
                            f.replace_all_uses(v, Operand::val(sel));
                            f.remove_inst(join, v);
                        } else if let Some(Op::Phi { incoming }) = f.op_mut(v) {
                            *incoming = rest;
                            incoming.push((b, Operand::val(sel)));
                        }
                    }
                }
                f.blocks[b.index()].term = Term::Br(join);
                changed = true;
                continue;
            }
        }
        // Triangle: b -> t -> join, b -> join.
        for (arm, other) in [(t, fb), (fb, t)] {
            if sole_succ(f, arm) == Some(other) && arm_ok(f, arm) && other != b {
                let join = other;
                let arm_insts = std::mem::take(&mut f.blocks[arm.index()].insts);
                f.blocks[b.index()].insts.extend(arm_insts);
                let join_insts = f.blocks[join.index()].insts.clone();
                let mut all_resolved = true;
                for v in join_insts {
                    let Some(Op::Phi { incoming }) = f.op(v).cloned() else {
                        continue;
                    };
                    let va = incoming.iter().find(|(p, _)| *p == arm).map(|(_, o)| *o);
                    let vb = incoming.iter().find(|(p, _)| *p == b).map(|(_, o)| *o);
                    if let (Some(va), Some(vb)) = (va, vb) {
                        let rest: Vec<(BlockId, Operand)> = incoming
                            .iter()
                            .filter(|(p, _)| *p != arm && *p != b)
                            .cloned()
                            .collect();
                        let ty = f.ty(v).expect("phi typed");
                        // If the branch went to `arm` when c is true and arm==t,
                        // select(c, va, vb); otherwise select(c, vb, va).
                        let (st, sf) = if arm == t { (va, vb) } else { (vb, va) };
                        let sel = f.add_inst(b, Op::Select { c, t: st, f: sf }, Some(ty));
                        if rest.is_empty() {
                            f.replace_all_uses(v, Operand::val(sel));
                            f.remove_inst(join, v);
                        } else if let Some(Op::Phi { incoming }) = f.op_mut(v) {
                            *incoming = rest;
                            incoming.push((b, Operand::val(sel)));
                        }
                    } else {
                        all_resolved = false;
                    }
                }
                if all_resolved {
                    f.blocks[b.index()].term = Term::Br(join);
                    changed = true;
                }
                break;
            }
        }
    }
    if changed {
        util::remove_unreachable(f);
    } else {
        *shape = Some(cfg_);
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::check_pass_preserves;

    #[test]
    fn instsimplify_folds_constants() {
        let src = "fn main() -> i32 { let x: i32 = 3 * 4 + 2; return x + 0; }";
        let cfg = PassConfig::default();
        let (before, after) = check_pass_preserves(src, &["mem2reg", "instsimplify"], &cfg);
        assert!(after < before);
    }

    #[test]
    fn instcombine_strength_reduces_unsigned_div() {
        let src = "fn main() -> i32 { let a: u32 = read_input(0) as u32;
                    return ((a / 8) + (a % 8)) as i32; }";
        let cfg = PassConfig::default();
        check_pass_preserves(src, &["mem2reg", "instcombine"], &cfg);
        let mut m = zkvmopt_lang::compile(src).unwrap();
        crate::run_pass("mem2reg", &mut m, &cfg);
        crate::run_pass("instcombine", &mut m, &cfg);
        let f = &m.funcs[0];
        let mut has_div = false;
        for b in f.reachable_blocks() {
            for &v in &f.blocks[b.index()].insts {
                if let Some(Op::Bin { op, .. }) = f.op(v) {
                    has_div |= matches!(op, BinOp::DivU | BinOp::RemU);
                }
            }
        }
        assert!(!has_div, "udiv/urem by 8 should be shifts/masks");
    }

    #[test]
    fn instcombine_sdiv_expansion_is_gated() {
        let src = "fn main() -> i32 { let a: i32 = read_input(0); return a / 8; }";
        let count_divs = |m: &Module| {
            let f = &m.funcs[0];
            let mut n = 0;
            for b in f.reachable_blocks() {
                for &v in &f.blocks[b.index()].insts {
                    if let Some(Op::Bin {
                        op: BinOp::DivS, ..
                    }) = f.op(v)
                    {
                        n += 1;
                    }
                }
            }
            n
        };
        let cpu = PassConfig::default();
        let mut m1 = zkvmopt_lang::compile(src).unwrap();
        crate::run_pass("mem2reg", &mut m1, &cpu);
        crate::run_pass("instcombine", &mut m1, &cpu);
        assert_eq!(count_divs(&m1), 0, "CPU profile expands sdiv");
        let zk = PassConfig::zk_aware();
        let mut m2 = zkvmopt_lang::compile(src).unwrap();
        crate::run_pass("mem2reg", &mut m2, &zk);
        crate::run_pass("instcombine", &mut m2, &zk);
        assert_eq!(count_divs(&m2), 1, "zk profile keeps the single div");
        // Both must behave identically.
        check_pass_preserves(src, &["mem2reg", "instcombine"], &cpu);
        check_pass_preserves(src, &["mem2reg", "instcombine"], &zk);
    }

    #[test]
    fn simplifycfg_if_converts_abs() {
        // The paper's Fig. 13 kernel.
        let src = "fn main() -> i32 {
                     let x: i32 = read_input(0) - 5;
                     let mut r: i32 = x;
                     if (x < 0) { r = 0 - x; }
                     return r;
                   }";
        let cfg = PassConfig::default();
        check_pass_preserves(src, &["mem2reg", "simplifycfg"], &cfg);
        let mut m = zkvmopt_lang::compile(src).unwrap();
        crate::run_pass("mem2reg", &mut m, &cfg);
        crate::run_pass("simplifycfg", &mut m, &cfg);
        let f = &m.funcs[0];
        assert_eq!(
            f.reachable_blocks().len(),
            1,
            "branch should be if-converted"
        );
        // zk-aware config must keep the branch (P4).
        let zk = PassConfig::zk_aware();
        let mut m2 = zkvmopt_lang::compile(src).unwrap();
        crate::run_pass("mem2reg", &mut m2, &zk);
        crate::run_pass("simplifycfg", &mut m2, &zk);
        assert!(
            m2.funcs[0].reachable_blocks().len() > 1,
            "zk config keeps branches"
        );
    }

    #[test]
    fn simplifycfg_folds_constant_branches() {
        let src = "fn main() -> i32 {
                     if (true) { return 1; } else { return 2; }
                   }";
        let cfg = PassConfig::default();
        let (_, after) = check_pass_preserves(src, &["mem2reg", "simplifycfg"], &cfg);
        let _ = after;
        let mut m = zkvmopt_lang::compile(src).unwrap();
        crate::run_pass("mem2reg", &mut m, &cfg);
        crate::run_pass("simplifycfg", &mut m, &cfg);
        assert_eq!(m.funcs[0].reachable_blocks().len(), 1);
    }

    #[test]
    fn dse_removes_overwritten_stores() {
        let src = "static G: i32;
                   fn main() -> i32 { G = 1; G = 2; G = 3; return G; }";
        let cfg = PassConfig::default();
        let (before, after) = check_pass_preserves(src, &["dse"], &cfg);
        assert!(after < before, "dead stores must go: {before} -> {after}");
    }

    #[test]
    fn dse_respects_aliasing_loads() {
        let src = "static G: i32;
                   fn main() -> i32 { G = 1; let x: i32 = G; G = 2; return x + G; }";
        check_pass_preserves(src, &["dse"], &PassConfig::default());
    }

    #[test]
    fn mergereturn_unifies_exits() {
        let src = "fn main() -> i32 {
                     let x: i32 = read_input(0);
                     if (x > 0) { return 1; }
                     if (x < -3) { return 2; }
                     return 3;
                   }";
        let cfg = PassConfig::default();
        check_pass_preserves(src, &["mem2reg", "mergereturn"], &cfg);
        let mut m = zkvmopt_lang::compile(src).unwrap();
        crate::run_pass("mem2reg", &mut m, &cfg);
        crate::run_pass("mergereturn", &mut m, &cfg);
        let f = &m.funcs[0];
        let rets = f
            .reachable_blocks()
            .into_iter()
            .filter(|b| matches!(f.blocks[b.index()].term, Term::Ret(_)))
            .count();
        assert_eq!(rets, 1);
    }

    #[test]
    fn sink_moves_work_off_the_cold_path() {
        let src = "fn main() -> i32 {
                     let x: i32 = read_input(0);
                     let y: i32 = x * 3 + 1;
                     if (x > 0) { return y; }
                     return 0;
                   }";
        check_pass_preserves(src, &["mem2reg", "sink"], &PassConfig::default());
    }

    #[test]
    fn mldst_motion_merges_diamond_stores() {
        let src = "static G: i32;
                   fn main() -> i32 {
                     let x: i32 = read_input(0);
                     if (x > 0) { G = 1; } else { G = 2; }
                     return G;
                   }";
        check_pass_preserves(src, &["mem2reg", "mldst-motion"], &PassConfig::default());
    }

    #[test]
    fn adce_strips_dead_loops_code() {
        let src = "fn main() -> i32 {
                     let mut s: i32 = 0;
                     for (let mut i: i32 = 0; i < 3; i += 1) { s += i; }
                     let dead: i32 = s * 100;
                     return s;
                   }";
        let cfg = PassConfig::default();
        let (before, after) = check_pass_preserves(src, &["mem2reg", "adce"], &cfg);
        assert!(after < before);
    }
}

/// The quadratic bodies this file's linear kernels replaced, kept as test
/// oracles: same rewrites, same order, so old and new must agree on the
/// whole `Function` (value arena and block order included).
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// `merge_straightline` as it was: a fresh `Cfg` and a restarted RPO walk
    /// after every single merge.
    fn merge_straightline_restarting(f: &mut Function) -> bool {
        let mut changed = false;
        loop {
            let cfg_ = Cfg::new(f);
            let mut merged = false;
            for &b1 in cfg_.rpo() {
                let Term::Br(b2) = f.blocks[b1.index()].term else {
                    continue;
                };
                if b2 == f.entry || b2 == b1 {
                    continue;
                }
                if cfg_.preds(b2).len() != 1 {
                    continue;
                }
                if f.blocks[b2.index()].term.succs().any(|s| s == b2) {
                    continue;
                }
                merge_into(f, b1, b2, &mut Vec::new());
                merged = true;
                break;
            }
            changed |= merged;
            if !merged {
                return changed;
            }
        }
    }

    /// `instsimplify_function` as it was: one eager `replace_all_uses` per
    /// folded instruction.
    fn instsimplify_function_eager(f: &mut Function) -> bool {
        let mut changed = false;
        loop {
            let mut local = false;
            for b in f.block_ids() {
                let insts = f.blocks[b.index()].insts.clone();
                for v in insts {
                    let Some(op) = f.op(v) else { continue };
                    let repl = util::const_fold(f, op)
                        .or_else(|| util::algebraic_simplify(op))
                        .or_else(|| simplify_icmp_identities(op))
                        .or(match op {
                            Op::Copy(x) => Some(*x),
                            _ => None,
                        });
                    if let Some(r) = repl {
                        if r != Operand::Value(v) {
                            f.replace_all_uses(v, r);
                            f.remove_inst(b, v);
                            local = true;
                        }
                    }
                }
            }
            changed |= local;
            if !local {
                break;
            }
        }
        changed |= util::sweep_dead(f);
        changed
    }

    /// Both kernels against their oracles on `f`.
    pub(crate) fn check(name: &str, f: &Function) {
        let (mut old, mut new) = (f.clone(), f.clone());
        let (co, cn) = (
            merge_straightline_restarting(&mut old),
            merge_straightline(&mut new, &mut None),
        );
        assert!(co == cn && old == new, "{name}: merge_straightline");
        let (mut old, mut new) = (f.clone(), f.clone());
        let (co, cn) = (
            instsimplify_function_eager(&mut old),
            instsimplify_function(&mut new),
        );
        assert!(co == cn && old == new, "{name}: instsimplify_function");
    }

    /// The shapes the single-walk argument rests on, built by hand.
    #[test]
    fn merge_straightline_hand_built_shapes() {
        use zkvmopt_ir::FunctionBuilder;
        let cond = |b: &mut FunctionBuilder| {
            let p = Operand::val(b.param(0));
            Operand::val(b.icmp(Pred::Slt, p, Operand::i32(9)))
        };

        // A chain whose tail branches back to its head: b1 -> b2 -> b3 -> b1.
        let mut b = FunctionBuilder::new("tail_to_head", vec![Ty::I32], Some(Ty::I32));
        let (b1, b2, b3, exit) = (b.new_block(), b.new_block(), b.new_block(), b.new_block());
        let c = cond(&mut b);
        b.cond_br(c, b1, exit);
        b.switch_to(b1);
        let x = b.bin(BinOp::Add, Operand::val(b.param(0)), Operand::i32(1));
        b.br(b2);
        b.switch_to(b2);
        let y = b.bin(BinOp::Mul, Operand::val(x), Operand::i32(3));
        b.br(b3);
        b.switch_to(b3);
        let c3 = b.icmp(Pred::Slt, Operand::val(y), Operand::i32(100));
        b.cond_br(Operand::val(c3), b1, exit);
        b.switch_to(exit);
        b.ret(Some(Operand::i32(0)));
        let f = b.finish();
        check("tail_to_head", &f);
        let mut g = f.clone();
        assert!(merge_straightline(&mut g, &mut None));
        assert!(
            g.blocks[b1.index()].term.succs().any(|s| s == b1),
            "the head absorbed its whole chain and now loops on itself"
        );

        // A chain that closes on itself by plain `br`s: the last merge would
        // be b1 into b1 and must be refused.
        let mut b = FunctionBuilder::new("ring", vec![Ty::I32], Some(Ty::I32));
        let (r1, r2) = (b.new_block(), b.new_block());
        b.br(r1);
        b.switch_to(r1);
        b.br(r2);
        b.switch_to(r2);
        b.br(r1);
        check("ring", &b.finish());

        // A `b2` with a self-loop: never merged into its predecessor.
        let mut b = FunctionBuilder::new("self_loop", vec![Ty::I32], Some(Ty::I32));
        let (pre, latch, exit) = (b.new_block(), b.new_block(), b.new_block());
        b.br(pre);
        b.switch_to(pre);
        b.br(latch);
        b.switch_to(latch);
        let c = cond(&mut b);
        b.cond_br(c, latch, exit);
        b.switch_to(exit);
        b.ret(Some(Operand::i32(1)));
        let f = b.finish();
        check("self_loop", &f);
        let mut g = f.clone();
        merge_straightline(&mut g, &mut None);
        assert!(
            !g.blocks[latch.index()].insts.is_empty(),
            "the self-looping latch keeps its own block"
        );

        // A multi-edge `CondBr { t == f }` predecessor counts twice, before
        // and after the block holding it is absorbed.
        let mut b = FunctionBuilder::new("multi_edge", vec![Ty::I32], Some(Ty::I32));
        let (a, m, d, e) = (b.new_block(), b.new_block(), b.new_block(), b.new_block());
        b.br(a);
        b.switch_to(a);
        b.br(m);
        b.switch_to(m);
        let c = cond(&mut b);
        b.cond_br(c, d, d);
        b.switch_to(d);
        b.br(e);
        b.switch_to(e);
        b.ret(Some(Operand::i32(2)));
        let f = b.finish();
        check("multi_edge", &f);
        let mut g = f.clone();
        merge_straightline(&mut g, &mut None);
        assert!(
            matches!(g.blocks[g.entry.index()].term, Term::CondBr { t, f, .. } if t == d && f == d),
            "entry absorbed a and m, and stops at the doubled edge into d"
        );
        assert!(
            matches!(g.blocks[d.index()].term, Term::Ret(_)),
            "d absorbed e"
        );

        // A phi in `b2` (single predecessor, so trivial) collapses on merge.
        let mut b = FunctionBuilder::new("phi_in_b2", vec![Ty::I32], Some(Ty::I32));
        let (p1, p2) = (b.new_block(), b.new_block());
        b.br(p1);
        b.switch_to(p1);
        let x = b.bin(BinOp::Add, Operand::val(b.param(0)), Operand::i32(5));
        b.br(p2);
        b.switch_to(p2);
        let phi = b.phi(Ty::I32, vec![(p1, Operand::val(x))]);
        let y = b.bin(BinOp::Xor, Operand::val(phi), Operand::val(phi));
        b.ret(Some(Operand::val(y)));
        let f = b.finish();
        check("phi_in_b2", &f);
        let mut g = f.clone();
        merge_straightline(&mut g, &mut None);
        assert_eq!(
            g.reachable_blocks().len(),
            1,
            "everything merged into entry"
        );
        assert!(matches!(g.op(phi), Some(Op::Nop)), "the phi collapsed");
    }
}
