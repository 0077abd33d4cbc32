//! Redundancy elimination: `early-cse`, `gvn`, `newgvn`.

use crate::framework::{FunctionContext, ModuleInfo};
use crate::util;
use crate::PassConfig;
use std::collections::hash_map::Entry;
use zkvmopt_ir::analysis::AnalysisCache;
use zkvmopt_ir::func::Substitution;
use zkvmopt_ir::hash::{FxHashMap, FxHashSet};
use zkvmopt_ir::{
    BinOp, BlockId, CastKind, FuncId, Function, GlobalId, Op, Operand, Pred, Ty, ValueId,
};

/// Structural key of a pure expression: two instructions compute the same
/// value exactly when their keys are equal (commutative operands are put in
/// one canonical order).
#[derive(Clone, PartialEq, Eq, Hash)]
enum ExprKey {
    Bin(BinOp, Operand, Operand),
    Icmp(Pred, Operand, Operand),
    Select(Operand, Operand, Operand),
    Gep(Operand, Operand, u32, i32),
    GlobalAddr(GlobalId),
    Cast(CastKind, Operand, Ty),
    /// Only readnone calls are CSE-able; the caller checks the attribute.
    Call(FuncId, Vec<Operand>),
    /// A load from memory that is never written (`gvn` only).
    Load(Operand, Ty),
}

/// Any total order on operands serves to canonicalize a commutative pair.
fn operand_rank(o: &Operand) -> (bool, i64, Ty) {
    match o {
        Operand::Value(v) => (false, v.0 as i64, Ty::I1),
        Operand::Const { value, ty } => (true, *value, *ty),
    }
}

fn expr_key(op: &Op) -> Option<ExprKey> {
    Some(match op {
        Op::Bin { op, a, b } => {
            if op.commutative() && operand_rank(b) < operand_rank(a) {
                ExprKey::Bin(*op, *b, *a)
            } else {
                ExprKey::Bin(*op, *a, *b)
            }
        }
        Op::Icmp { pred, a, b } => ExprKey::Icmp(*pred, *a, *b),
        Op::Select { c, t, f } => ExprKey::Select(*c, *t, *f),
        Op::Gep {
            base,
            index,
            stride,
            offset,
        } => ExprKey::Gep(*base, *index, *stride, *offset),
        Op::GlobalAddr(g) => ExprKey::GlobalAddr(*g),
        Op::Cast { kind, v, to } => ExprKey::Cast(*kind, *v, *to),
        Op::Call { callee, args } => ExprKey::Call(*callee, args.clone()),
        _ => return None,
    })
}

/// Bring the `gep`/`copy` chain that [`util::ptr_base`] walks from `o` up to
/// date with the pending replacements: alias queries read the operands of
/// instructions other than the one being visited.
fn materialize_ptr_chain(f: &mut Function, subst: &Substitution, o: Operand) {
    if subst.is_empty() {
        return;
    }
    let mut cur = o;
    for _ in 0..64 {
        let Operand::Value(v) = cur else { return };
        let Some(op) = f.op_mut(v) else { return };
        subst.resolve_op(op);
        cur = match op {
            Op::Gep { base, .. } => *base,
            Op::Copy(x) => *x,
            _ => return,
        };
    }
}

/// Block-local common-subexpression elimination with store-to-load
/// forwarding.
pub fn early_cse(
    f: &mut Function,
    _ac: &mut AnalysisCache,
    cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    early_cse_function(f, cx.info)
}

fn early_cse_function(f: &mut Function, info: &ModuleInfo) -> bool {
    let mut changed = false;
    // Replacements stay pending (one arena sweep at the end, not one per
    // eliminated instruction); every op is resolved in place before it is
    // read.
    let mut subst = Substitution::new();
    // Each block's list as the walk found it (removals edit the live one).
    let mut insts: Vec<ValueId> = Vec::new();
    for b in f.block_ids() {
        let mut avail: FxHashMap<ExprKey, ValueId> = FxHashMap::default();
        // Memory state: pointer operand -> last known value (from store or load).
        let mut mem: FxHashMap<Operand, Operand> = FxHashMap::default();
        insts.clone_from(&f.blocks[b.index()].insts);
        for &v in &insts {
            let Some(op) = f.op_mut(v) else { continue };
            subst.resolve_op(op);
            // A phi is never available, so skip it before copying its list.
            if matches!(op, Op::Phi { .. }) {
                continue;
            }
            let op = op.clone();
            // `Some(prev)` when an earlier instruction already computes `op`.
            let mut lookup = |op: &Op| -> Option<ValueId> {
                let key = expr_key(op)?;
                match avail.entry(key) {
                    Entry::Occupied(e) => Some(*e.get()),
                    Entry::Vacant(e) => {
                        e.insert(v);
                        None
                    }
                }
            };
            let known = match &op {
                Op::Load { ptr, .. } => {
                    let known = mem.get(ptr).copied();
                    if known.is_none() {
                        mem.insert(*ptr, Operand::val(v));
                    }
                    known
                }
                Op::Store { ptr, val, .. } => {
                    // Invalidate anything that may alias, then record.
                    let ptr = *ptr;
                    let val = *val;
                    materialize_ptr_chain(f, &subst, ptr);
                    mem.retain(|&k, _| {
                        materialize_ptr_chain(f, &subst, k);
                        k == ptr || !util::may_alias(f, &k, &ptr)
                    });
                    mem.insert(ptr, val);
                    None
                }
                Op::Call { callee, .. } => {
                    if info.is_readnone(*callee) {
                        lookup(&op).map(Operand::val)
                    } else {
                        mem.clear();
                        None
                    }
                }
                Op::Ecall { .. } => {
                    mem.clear();
                    None
                }
                _ if op.is_speculatable() => lookup(&op).map(Operand::val),
                _ => None,
            };
            if let Some(known) = known {
                subst.insert(v, known);
                f.remove_inst(b, v);
                changed = true;
            }
        }
    }
    f.substitute_uses(&subst);
    changed
}

/// Which pointer bases are written anywhere in the function, and whether any
/// instruction could write through an unknown pointer.
struct MemFacts {
    written: FxHashSet<util::PtrBase>,
    unknown_writes: bool,
}

fn mem_facts(f: &Function, info: &ModuleInfo) -> MemFacts {
    let mut written = FxHashSet::default();
    let mut unknown_writes = false;
    for b in f.reachable_blocks() {
        for &v in &f.blocks[b.index()].insts {
            match f.op(v) {
                Some(Op::Store { ptr, .. }) => {
                    let base = util::ptr_base(f, ptr);
                    if base == util::PtrBase::Unknown {
                        unknown_writes = true;
                    } else {
                        written.insert(base);
                    }
                }
                Some(Op::Call { callee, .. })
                    if !info.is_readnone(*callee) && !info.is_readonly(*callee) =>
                {
                    unknown_writes = true;
                }
                Some(Op::Ecall { .. }) => unknown_writes = true,
                _ => {}
            }
        }
    }
    MemFacts {
        written,
        unknown_writes,
    }
}

/// Dominator-scoped global value numbering.
///
/// Pure expressions are value-numbered across the dominator tree; loads are
/// value-numbered only when their base is provably never written in the
/// function (sound without a memory SSA).
pub fn gvn(
    f: &mut Function,
    ac: &mut AnalysisCache,
    cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    let facts = mem_facts(f, cx.info);
    gvn_function(f, ac, &facts, cx.info)
}

fn gvn_function(
    f: &mut Function,
    ac: &mut AnalysisCache,
    facts: &MemFacts,
    info: &ModuleInfo,
) -> bool {
    let children = ac.dom(f).children();
    let mut changed = false;
    // Replacements stay pending (one arena sweep at the end, not one per
    // eliminated instruction); every op is resolved in place before it is
    // read.
    let mut subst = Substitution::new();
    // Scoped table, and the keys it gained, innermost block last, to undo
    // on exit.
    let mut table: FxHashMap<ExprKey, ValueId> = FxHashMap::default();
    let mut inserted: Vec<ExprKey> = Vec::new();
    enum Step {
        Enter(BlockId),
        Exit(usize), // `inserted.len()` on entry
    }
    // Each block's list as the walk found it (removals edit the live one).
    let mut insts: Vec<ValueId> = Vec::new();
    let mut stack = vec![Step::Enter(f.entry)];
    while let Some(step) = stack.pop() {
        match step {
            Step::Exit(mark) => {
                for k in inserted.drain(mark..) {
                    table.remove(&k);
                }
            }
            Step::Enter(b) => {
                let mark = inserted.len();
                insts.clone_from(&f.blocks[b.index()].insts);
                for &v in &insts {
                    let Some(op) = f.op_mut(v) else { continue };
                    subst.resolve_op(op);
                    let key = match &*op {
                        Op::Load { ptr, ty } => {
                            let (ptr, ty) = (*ptr, *ty);
                            let stable = !facts.unknown_writes && {
                                materialize_ptr_chain(f, &subst, ptr);
                                let base = util::ptr_base(f, &ptr);
                                base != util::PtrBase::Unknown && !facts.written.contains(&base)
                            };
                            stable.then_some(ExprKey::Load(ptr, ty))
                        }
                        Op::Call { callee, .. } => {
                            if info.is_readnone(*callee) {
                                expr_key(op)
                            } else {
                                None
                            }
                        }
                        op if op.is_speculatable() => expr_key(op),
                        _ => None,
                    };
                    let Some(key) = key else { continue };
                    match table.entry(key) {
                        Entry::Occupied(e) => {
                            subst.insert(v, Operand::val(*e.get()));
                            f.remove_inst(b, v);
                            changed = true;
                        }
                        Entry::Vacant(e) => {
                            inserted.push(e.key().clone());
                            e.insert(v);
                        }
                    }
                }
                stack.push(Step::Exit(mark));
                for &c in children.of(b).iter().rev() {
                    stack.push(Step::Enter(c));
                }
            }
        }
    }
    f.substitute_uses(&subst);
    changed
}

/// `newgvn`: block-local CSE with memory forwarding, followed by
/// dominator-scoped GVN (a stronger combination than either alone, mirroring
/// LLVM's redesigned GVN).
pub fn newgvn(
    f: &mut Function,
    ac: &mut AnalysisCache,
    cx: &FunctionContext<'_>,
    cfg: &PassConfig,
) -> bool {
    let a = early_cse(f, ac, cx, cfg);
    let b = gvn(f, ac, cx, cfg);
    a || b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::check_pass_preserves;
    use crate::PassConfig;

    #[test]
    fn early_cse_removes_duplicate_exprs() {
        let src = "fn main() -> i32 {
                     let x: i32 = read_input(0);
                     let a: i32 = x * 3 + 7;
                     let b: i32 = x * 3 + 7;
                     return a + b;
                   }";
        let cfg = PassConfig::default();
        let (before, after) = check_pass_preserves(src, &["mem2reg", "early-cse"], &cfg);
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn early_cse_forwards_store_to_load() {
        let src = "static G: i32;
                   fn main() -> i32 { G = 41; return G + 1; }";
        let cfg = PassConfig::default();
        check_pass_preserves(src, &["early-cse"], &cfg);
        let mut m = zkvmopt_lang::compile(src).unwrap();
        crate::run_pass("early-cse", &mut m, &cfg);
        crate::run_pass("dce", &mut m, &cfg);
        let f = &m.funcs[0];
        let mut loads = 0;
        for b in f.reachable_blocks() {
            for &v in &f.blocks[b.index()].insts {
                if matches!(f.op(v), Some(Op::Load { .. })) {
                    loads += 1;
                }
            }
        }
        assert_eq!(loads, 0, "store-to-load forwarding should kill the load");
    }

    #[test]
    fn early_cse_respects_clobbers() {
        let src = "static A: [i32; 4];
                   fn main() -> i32 {
                     A[0] = 1;
                     let x: i32 = A[0];
                     A[0] = 2;
                     let y: i32 = A[0];
                     return x * 10 + y;
                   }";
        check_pass_preserves(src, &["early-cse"], &PassConfig::default());
    }

    #[test]
    fn gvn_works_across_blocks() {
        let src = "fn main() -> i32 {
                     let x: i32 = read_input(0);
                     let a: i32 = x * 5;
                     let mut r: i32 = 0;
                     if (x > 0) { r = x * 5 + 1; } else { r = x * 5 - 1; }
                     return r + a;
                   }";
        let cfg = PassConfig::default();
        let (before, after) = check_pass_preserves(src, &["mem2reg", "gvn", "dce"], &cfg);
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn gvn_does_not_merge_loads_of_written_memory() {
        let src = "static G: i32;
                   fn main() -> i32 {
                     let mut s: i32 = 0;
                     for (let mut i: i32 = 0; i < 4; i += 1) { G = i; s += G; }
                     return s;
                   }";
        check_pass_preserves(src, &["mem2reg", "gvn"], &PassConfig::default());
    }

    #[test]
    fn gvn_merges_global_addr_and_geps() {
        let src = "static A: [i32; 8];
                   fn main() -> i32 {
                     A[3] = 5;
                     return A[3] + A[3];
                   }";
        let cfg = PassConfig::default();
        let (before, after) = check_pass_preserves(src, &["gvn", "dce"], &cfg);
        assert!(after <= before);
    }

    #[test]
    fn newgvn_combines_both() {
        let src = "fn main() -> i32 {
                     let x: i32 = read_input(0);
                     let a: i32 = (x + 1) * (x + 1);
                     let b: i32 = (x + 1) * (x + 1);
                     return a - b;
                   }";
        check_pass_preserves(src, &["mem2reg", "newgvn", "dce"], &PassConfig::default());
    }
}
