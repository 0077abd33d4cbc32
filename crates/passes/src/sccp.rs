//! Constant propagation family: `sccp`, `ipsccp`, `jump-threading`, and
//! `correlated-propagation`.

use crate::framework::FunctionContext;
use crate::util;
use crate::PassConfig;
use zkvmopt_ir::analysis::AnalysisCache;
use zkvmopt_ir::cfg::Cfg;
use zkvmopt_ir::func::Substitution;
use zkvmopt_ir::{BlockId, Function, Module, Op, Operand, Pred, Term, ValueDef, ValueId};

/// The SCCP lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lat {
    /// Not yet known (optimistic top).
    Top,
    /// A single constant (value, as a canonical operand).
    Const(Operand),
    /// Overdefined.
    Bottom,
}

fn meet(a: Lat, b: Lat) -> Lat {
    match (a, b) {
        (Lat::Top, x) | (x, Lat::Top) => x,
        (Lat::Const(x), Lat::Const(y)) if x == y => Lat::Const(x),
        _ => Lat::Bottom,
    }
}

#[derive(Debug, PartialEq)]
struct SccpResult {
    values: Vec<Lat>,
    /// Per block: whether any executable edge reaches it.
    executable: Vec<bool>,
    /// Lattice of the function's return value.
    ret: Lat,
}

/// Control-flow facts of a running analysis: which blocks and edges are
/// executable, and whether the current sweep learned anything.
struct Flow {
    executable: Vec<bool>,
    /// Executable blocks in discovery order — the sweep order.
    order: Vec<BlockId>,
    /// Per block: bit `i` is set once the edge to its `i`-th successor is
    /// executable (the slots of one target are set together).
    exec_edges: Vec<u8>,
    changed: bool,
}

/// The successor slots of `term` that lead to `to`, as a bit mask.
fn slots_to(term: &Term, to: BlockId) -> u8 {
    term.succs()
        .enumerate()
        .filter(|&(_, s)| s == to)
        .fold(0, |mask, (i, _)| mask | 1 << i)
}

impl Flow {
    /// Mark the edge `from -> to`, where `from` ends in `term`.
    fn mark(&mut self, from: BlockId, term: &Term, to: BlockId) {
        let slots = slots_to(term, to);
        if self.exec_edges[from.index()] & slots != slots {
            self.exec_edges[from.index()] |= slots;
            self.changed = true;
        }
        if !std::mem::replace(&mut self.executable[to.index()], true) {
            self.order.push(to);
            self.changed = true;
        }
    }
}

/// Sweeps over the executable blocks after which the analysis gives up.
const MAX_SWEEPS: usize = 10_000;

fn eval_operand(values: &[Lat], o: &Operand) -> Lat {
    match o {
        Operand::Const { .. } => Lat::Const(util::normalize_const(*o)),
        Operand::Value(v) => values[v.index()],
    }
}

/// Lattice value of a non-phi instruction given its operands' values.
fn transfer(f: &Function, values: &[Lat], op: &Op) -> Lat {
    match op {
        Op::Bin { .. } | Op::Icmp { .. } | Op::Select { .. } | Op::Cast { .. } | Op::Copy(_) => {
            // Fold if all operands constant.
            let mut all_const = true;
            let mut any_bottom = false;
            let mut folded = op.clone();
            folded.for_each_operand_mut(|o| match eval_operand(values, o) {
                Lat::Const(c) => *o = c,
                Lat::Bottom => {
                    all_const = false;
                    any_bottom = true;
                }
                Lat::Top => all_const = false,
            });
            if all_const {
                match util::const_fold(f, &folded) {
                    Some(c) => Lat::Const(util::normalize_const(c)),
                    None => Lat::Bottom,
                }
            } else if any_bottom {
                // A select with constant condition can still fold.
                if let Op::Select { c, t, f: fo } = &folded {
                    if let Lat::Const(cc) = eval_operand(values, c) {
                        let pick = if cc.as_const().unwrap_or(0) != 0 {
                            t
                        } else {
                            fo
                        };
                        eval_operand(values, pick)
                    } else {
                        Lat::Bottom
                    }
                } else {
                    Lat::Bottom
                }
            } else {
                Lat::Top
            }
        }
        // Everything else is overdefined.
        _ => Lat::Bottom,
    }
}

/// Visit the successors `term` can reach given the current facts.
fn for_each_taken_edge(values: &[Lat], term: &Term, mut take: impl FnMut(BlockId)) {
    match term {
        Term::Br(t) => take(*t),
        Term::CondBr { c, t, f: fb } => match eval_operand(values, c) {
            Lat::Const(cc) => take(if cc.as_const().unwrap_or(0) != 0 {
                *t
            } else {
                *fb
            }),
            Lat::Bottom => {
                take(*t);
                take(*fb);
            }
            Lat::Top => {}
        },
        Term::Ret(_) | Term::Unreachable => {}
    }
}

/// Run the SCCP analysis on one function. `arg_lattice` supplies per-param
/// facts (from `ipsccp`); `Bottom` for a standalone run.
fn analyze(f: &Function, arg_lattice: &[Lat]) -> SccpResult {
    analyze_bounded(f, arg_lattice, MAX_SWEEPS)
}

/// [`analyze`] with the sweep bound as a parameter (tests drive it to 1).
///
/// The analysis is optimistic: until the fixpoint is reached, `Const` facts
/// are guesses. If the bound runs out first, no fact may be reported — the
/// result is then all-`Bottom` with every block executable, from which
/// `transform` substitutes nothing and removes no block.
fn analyze_bounded(f: &Function, arg_lattice: &[Lat], max_sweeps: usize) -> SccpResult {
    let n = f.values.len();
    let mut values = vec![Lat::Top; n];
    for (i, l) in arg_lattice.iter().enumerate() {
        values[i] = *l;
    }
    for v in values
        .iter_mut()
        .take(f.params.len())
        .skip(arg_lattice.len())
    {
        *v = Lat::Bottom;
    }
    let mut flow = Flow {
        executable: vec![false; f.blocks.len()],
        order: vec![f.entry],
        exec_edges: vec![0; f.blocks.len()],
        changed: true,
    };
    flow.executable[f.entry.index()] = true;
    let mut ret = Lat::Top;

    // Iterate to fixpoint: re-scan executable blocks whenever facts change.
    // Discovery order (blocks found during a sweep are visited by that
    // sweep) carries facts down a chain of blocks in one sweep. `meet` only
    // moves a value down, but not every transfer is monotone: a `select`
    // whose condition is still Top and one of whose arms is Bottom reads
    // Bottom, where a constant condition could give a constant. This sweep
    // never meets that case: an operand's definition dominates its use, so
    // its block was discovered first and the operand was evaluated earlier
    // in the same sweep and is never Top. A worklist solver that visits
    // values in another order must keep that property.
    let mut sweeps = 0;
    while flow.changed {
        if sweeps == max_sweeps {
            return SccpResult {
                values: vec![Lat::Bottom; n],
                executable: vec![true; f.blocks.len()],
                ret: Lat::Bottom,
            };
        }
        sweeps += 1;
        flow.changed = false;
        let mut next = 0;
        while let Some(&b) = flow.order.get(next) {
            next += 1;
            for &v in &f.blocks[b.index()].insts {
                let Some(op) = f.op(v) else { continue };
                let new = match op {
                    Op::Phi { incoming } => {
                        let mut acc = Lat::Top;
                        for (p, o) in incoming {
                            let edge_exec = f.blocks.get(p.index()).is_some_and(|pb| {
                                flow.exec_edges[p.index()] & slots_to(&pb.term, b) != 0
                            });
                            if edge_exec {
                                acc = meet(acc, eval_operand(&values, o));
                            }
                        }
                        acc
                    }
                    _ => transfer(f, &values, op),
                };
                // `meet` only ever moves a value down (Top -> Const -> Bottom).
                let lowered = meet(values[v.index()], new);
                if lowered != values[v.index()] {
                    values[v.index()] = lowered;
                    flow.changed = true;
                }
            }
            let term = &f.blocks[b.index()].term;
            for_each_taken_edge(&values, term, |to| flow.mark(b, term, to));
            if let Term::Ret(Some(o)) = term {
                let lowered = meet(ret, eval_operand(&values, o));
                if lowered != ret {
                    ret = lowered;
                    flow.changed = true;
                }
            }
        }
    }
    SccpResult {
        values,
        executable: flow.executable,
        ret,
    }
}

/// Apply an analysis result: substitute constants, fold branches, and drop
/// non-executable blocks.
fn transform(f: &mut Function, res: &SccpResult) -> bool {
    let mut changed = false;
    // Replacing a value by a constant moves no other value's use count, so
    // one count and one substitution sweep serve every constant.
    let mut used = vec![false; f.values.len()];
    let mut mark = |o: &Operand| {
        if let Operand::Value(u) = o {
            used[u.index()] = true;
        }
    };
    for vd in &f.values {
        if let ValueDef::Inst(op) = &vd.def {
            op.for_each_operand(&mut mark);
        }
    }
    for b in &f.blocks {
        b.term.for_each_operand(&mut mark);
    }
    let mut subst = Substitution::new();
    for (i, lat) in res.values.iter().enumerate() {
        if let Lat::Const(c) = lat {
            let v = ValueId(i as u32);
            // Skip parameters (handled by ipsccp) and effectful slots.
            if f.op(v).is_none_or(|op| op.has_side_effects()) {
                continue;
            }
            if used[i] {
                subst.insert(v, *c);
                changed = true;
            }
        }
    }
    f.substitute_uses(&subst);
    // Fold branches whose condition became constant.
    for b in f.block_ids() {
        if !res.executable[b.index()] {
            continue;
        }
        if let Term::CondBr { c, t, f: fb } = f.blocks[b.index()].term.clone() {
            if let Some(v) = c.as_const() {
                let target = if v != 0 { t } else { fb };
                let dead = if v != 0 { fb } else { t };
                f.blocks[b.index()].term = Term::Br(target);
                if dead != target {
                    for i in 0..f.blocks[dead.index()].insts.len() {
                        let pv = f.blocks[dead.index()].insts[i];
                        if let Some(Op::Phi { incoming }) = f.op_mut(pv) {
                            incoming.retain(|(p, _)| *p != b);
                        }
                    }
                }
                changed = true;
            }
        }
    }
    changed |= util::remove_unreachable(f);
    {
        let func_changed = util::sweep_dead(f);
        changed |= func_changed;
    }
    changed
}

/// Sparse conditional constant propagation.
pub fn sccp(
    f: &mut Function,
    _ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    sccp_function(f)
}

pub(crate) fn sccp_function(f: &mut Function) -> bool {
    let bottoms = vec![Lat::Bottom; f.params.len()];
    let res = analyze(f, &bottoms);
    transform(f, &res)
}

/// Module-wide [`sccp`] (used by `ipsccp` and the unroll cleanup).
pub(crate) fn sccp_module(m: &mut Module) -> bool {
    let mut changed = false;
    for f in &mut m.funcs {
        changed |= sccp_function(f);
    }
    changed
}

/// Interprocedural SCCP: propagates constant arguments into callees and
/// constant returns back into callers.
pub fn ipsccp(m: &mut Module, cfg: &PassConfig) -> bool {
    let mut changed = false;
    for _round in 0..3 {
        let mut round_changed = false;
        // Gather per-callee argument lattices over all call sites.
        let nfuncs = m.funcs.len();
        let mut arg_lats: Vec<Vec<Lat>> = m
            .funcs
            .iter()
            .map(|f| vec![Lat::Top; f.params.len()])
            .collect();
        let mut called: Vec<bool> = vec![false; nfuncs];
        for f in &m.funcs {
            for b in f.reachable_blocks() {
                for &v in &f.blocks[b.index()].insts {
                    if let Some(Op::Call { callee, args }) = f.op(v) {
                        called[callee.index()] = true;
                        for (i, a) in args.iter().enumerate() {
                            let lat = match a {
                                Operand::Const { .. } => Lat::Const(util::normalize_const(*a)),
                                _ => Lat::Bottom,
                            };
                            let cur = arg_lats[callee.index()][i];
                            arg_lats[callee.index()][i] = meet(cur, lat);
                        }
                    }
                }
            }
        }
        // Analyze each function with its argument facts; record constant
        // returns.
        // Per function index: its constant return, if it has one.
        let mut const_rets: Vec<Option<Operand>> = vec![None; m.funcs.len()];
        for (fi, f) in m.funcs.iter_mut().enumerate() {
            let is_main = f.name == "main";
            let lats: Vec<Lat> = if called[fi] && !is_main {
                arg_lats[fi]
                    .iter()
                    .map(|l| if *l == Lat::Top { Lat::Bottom } else { *l })
                    .collect()
            } else {
                vec![Lat::Bottom; f.params.len()]
            };
            // Substitute known-constant params.
            for (i, l) in lats.iter().enumerate() {
                if let Lat::Const(c) = l {
                    if f.replace_all_uses(f.param(i), *c) > 0 {
                        round_changed = true;
                    }
                }
            }
            let res = analyze(f, &lats);
            if let Lat::Const(c) = res.ret {
                const_rets[fi] = Some(c);
            }
            round_changed |= transform(f, &res);
        }
        // Replace call results with constant returns (keeping the call for
        // side effects; DCE cleans up pure ones).
        for f in &mut m.funcs {
            for b in f.block_ids() {
                let insts = f.blocks[b.index()].insts.clone();
                for v in insts {
                    let Some(Op::Call { callee, .. }) = f.op(v) else {
                        continue;
                    };
                    if let Some(&Some(c)) = const_rets.get(callee.index()) {
                        if f.replace_all_uses(v, c) > 0 {
                            round_changed = true;
                        }
                    }
                }
            }
        }
        changed |= round_changed;
        if !round_changed {
            break;
        }
    }
    if changed {
        sccp_module(m);
    }
    let _ = cfg;
    changed
}

/// Thread branches through blocks whose condition is decided by the incoming
/// edge (phi-of-constants feeding the terminator).
pub fn jump_threading(
    f: &mut Function,
    ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    let mut changed = false;
    let mut guard = 0;
    loop {
        guard += 1;
        let cfg = ac.cfg(f);
        if guard > 50 || !thread_one(f, &cfg) {
            break;
        }
        // Threading retargets terminators: the shape changed.
        ac.invalidate_all();
        changed = true;
    }
    if changed {
        util::remove_unreachable(f);
        crate::mem2reg::collapse_trivial_phis(f);
        util::sweep_dead(f);
        ac.invalidate_all();
    }
    changed
}

fn thread_one(f: &mut Function, cfg: &Cfg) -> bool {
    for &b in cfg.rpo() {
        if b == f.entry {
            continue;
        }
        // Block shape: phis, optionally one icmp (phi vs const), condbr.
        // Threading edits terminators and phi lists, never `b`'s list, so
        // its phis (the first `n_phis`) and the rest are read in place.
        let n_phis = f.blocks[b.index()]
            .insts
            .iter()
            .take_while(|&&v| matches!(f.op(v), Some(Op::Phi { .. })))
            .count();
        let Term::CondBr { c, t, f: fb } = f.blocks[b.index()].term.clone() else {
            continue;
        };
        if t == fb {
            continue;
        }
        // Threading reroutes predecessors *around* b, so b no longer
        // dominates its successors: every value defined in b must be used
        // only within b (its own insts and terminator), or the rerouted path
        // would see an undominated use. This keeps the classic flag-diamond
        // threadable while refusing loop headers whose phis feed the body.
        let mut escapes = false;
        for &v in &f.blocks[b.index()].insts {
            for b2 in f.block_ids() {
                if b2 == b {
                    continue;
                }
                for &u in &f.blocks[b2.index()].insts {
                    if let Some(op) = f.op(u) {
                        op.for_each_operand(|o| escapes |= *o == Operand::Value(v));
                    }
                }
                f.blocks[b2.index()]
                    .term
                    .for_each_operand(|o| escapes |= *o == Operand::Value(v));
            }
        }
        if escapes {
            continue;
        }
        // Determine, per predecessor, whether the branch is decided.
        // Case A: cond is a phi of this block (i1).
        // Case B: cond is `icmp pred(phi, const)` where icmp is the only
        //         non-phi instruction.
        let decide = |f: &Function, pred: BlockId| -> Option<bool> {
            let Operand::Value(cv) = c else { return None };
            let (phis, rest) = f.blocks[b.index()].insts.split_at(n_phis);
            if phis.contains(&cv) {
                let Some(Op::Phi { incoming }) = f.op(cv) else {
                    return None;
                };
                let (_, o) = incoming.iter().find(|(p, _)| *p == pred)?;
                o.as_const().map(|x| x != 0)
            } else if rest.len() == 1 && rest[0] == cv {
                let Some(Op::Icmp {
                    pred: pr,
                    a,
                    b: rhs,
                }) = f.op(cv)
                else {
                    return None;
                };
                let k = rhs.as_const()?;
                let Operand::Value(av) = a else { return None };
                if !phis.contains(av) {
                    return None;
                }
                let Some(Op::Phi { incoming }) = f.op(*av) else {
                    return None;
                };
                let (_, o) = incoming.iter().find(|(p, _)| *p == pred)?;
                let x = o.as_const()?;
                Some(pr.eval32(x, k))
            } else {
                None
            }
        };
        let preds = cfg.unique_preds(b);
        if preds.clone().nth(1).is_none() {
            continue;
        }
        for pred in preds {
            let Some(taken) = decide(f, pred) else {
                continue;
            };
            let target = if taken { t } else { fb };
            // The threaded target must be able to accept `pred` as a new
            // predecessor: fix its phis using b's phi values along this edge.
            let mut new_incomings: Vec<(ValueId, Operand)> = Vec::new();
            let mut ok = true;
            let (phis, rest) = f.blocks[b.index()].insts.split_at(n_phis);
            for tv in &f.blocks[target.index()].insts {
                let Some(Op::Phi { incoming }) = f.op(*tv) else {
                    continue;
                };
                let Some((_, o)) = incoming.iter().find(|(p, _)| *p == b) else {
                    ok = false;
                    break;
                };
                let val_for_pred = match o {
                    Operand::Value(x) if phis.contains(x) => {
                        let Some(Op::Phi { incoming: pin }) = f.op(*x) else {
                            ok = false;
                            break;
                        };
                        match pin.iter().find(|(p, _)| *p == pred) {
                            Some((_, po)) => *po,
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    Operand::Value(x) if rest.contains(x) => {
                        ok = false;
                        break;
                    }
                    other => *other,
                };
                new_incomings.push((*tv, val_for_pred));
            }
            if !ok {
                continue;
            }
            // Retarget pred -> target, remove pred's edges into b's phis.
            f.blocks[pred.index()].term.retarget(b, target);
            for i in 0..n_phis {
                let pv = f.blocks[b.index()].insts[i];
                if let Some(Op::Phi { incoming }) = f.op_mut(pv) {
                    incoming.retain(|(p, _)| *p != pred);
                }
            }
            for (tv, val) in new_incomings {
                if let Some(Op::Phi { incoming }) = f.op_mut(tv) {
                    incoming.push((pred, val));
                }
            }
            return true;
        }
    }
    false
}

/// Correlated value propagation: inside the true arm of `if (x == C)`,
/// uses of `x` become `C`.
pub fn correlated_propagation(
    f: &mut Function,
    ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    let mut changed = false;
    let cfg_ = ac.cfg(f);
    let dom = ac.dom(f);
    let mut edits: Vec<(BlockId, ValueId, Operand)> = Vec::new();
    for &b in cfg_.rpo() {
        let Term::CondBr { c, t, f: fb } = &f.blocks[b.index()].term else {
            continue;
        };
        let Operand::Value(cv) = c else { continue };
        let Some(Op::Icmp { pred, a, b: rhs }) = f.op(*cv) else {
            continue;
        };
        let Operand::Value(x) = a else { continue };
        let Some(k) = rhs.as_const() else { continue };
        // x == K on the true edge; x != K means the false edge knows x == K.
        let (known_block, _other) = match pred {
            Pred::Eq => (*t, *fb),
            Pred::Ne => (*fb, *t),
            _ => continue,
        };
        if known_block == *t && known_block == *fb {
            continue;
        }
        // Sound only when the edge is the unique entry to the region.
        if cfg_.unique_preds(known_block).count() != 1 {
            continue;
        }
        let ty = f.ty(*x);
        let kc = match ty {
            Some(ty) => Operand::Const {
                value: ty.truncate_s(k),
                ty,
            },
            None => continue,
        };
        // Replace uses of x in all blocks dominated by known_block.
        for b2 in f.block_ids() {
            if !dom.dominates(known_block, b2) {
                continue;
            }
            for &u in &f.blocks[b2.index()].insts {
                if f.op(u).is_some() {
                    edits.push((b2, u, kc));
                }
            }
        }
        let x = *x;
        for (b2, u, kc) in edits.drain(..) {
            let _ = b2;
            if let Some(op) = f.op_mut(u) {
                if !op.is_phi() {
                    op.for_each_operand_mut(|o| {
                        if *o == Operand::Value(x) {
                            *o = kc;
                            changed = true;
                        }
                    });
                }
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {

    use crate::testutil::check_pass_preserves;
    use crate::PassConfig;

    /// `transfer` is not monotone on `select`: lowering its Top condition to
    /// a constant raises the result from Bottom to a constant. The sweep in
    /// `analyze_bounded` relies on never evaluating a Top condition.
    #[test]
    fn select_transfer_is_not_monotone_in_its_condition() {
        use super::{transfer, Lat};
        use zkvmopt_ir::{Function, Op, Operand, Ty, ValueId};
        let f = Function::new("f", vec![Ty::I1, Ty::I32], None);
        let select = Op::Select {
            c: Operand::Value(ValueId(0)),
            t: Operand::Value(ValueId(1)),
            f: Operand::i32(7),
        };
        let top_cond = [Lat::Top, Lat::Bottom];
        assert_eq!(transfer(&f, &top_cond, &select), Lat::Bottom);
        let false_cond = [Lat::Const(Operand::bool(false)), Lat::Bottom];
        assert_eq!(
            transfer(&f, &false_cond, &select),
            Lat::Const(Operand::i32(7))
        );
    }

    #[test]
    fn sccp_folds_through_branches() {
        let src = "fn main() -> i32 {
                     let x: i32 = 4;
                     let mut r: i32 = 0;
                     if (x > 2) { r = x * 10; } else { r = x * 100; }
                     return r;
                   }";
        let cfg = PassConfig::default();
        let (_, after) = check_pass_preserves(src, &["mem2reg", "sccp", "simplifycfg"], &cfg);
        let mut m = zkvmopt_lang::compile(src).unwrap();
        for p in ["mem2reg", "sccp", "simplifycfg"] {
            crate::run_pass(p, &mut m, &cfg);
        }
        assert_eq!(
            m.funcs[0].reachable_blocks().len(),
            1,
            "size after: {after}"
        );
    }

    #[test]
    fn sccp_handles_loop_phis_optimistically() {
        let src = "fn main() -> i32 {
                     let mut x: i32 = 7;
                     for (let mut i: i32 = 0; i < 10; i += 1) { x = 7; }
                     return x;
                   }";
        check_pass_preserves(src, &["mem2reg", "sccp"], &PassConfig::default());
    }

    #[test]
    fn ipsccp_propagates_constant_args() {
        let src = "fn scale(x: i32, k: i32) -> i32 { return x * k; }
                   fn main() -> i32 {
                     let a: i32 = read_input(0);
                     return scale(a, 3) + scale(a + 1, 3);
                   }";
        let cfg = PassConfig::default();
        check_pass_preserves(src, &["mem2reg", "ipsccp"], &cfg);
        let mut m = zkvmopt_lang::compile(src).unwrap();
        crate::run_pass("mem2reg", &mut m, &cfg);
        crate::run_pass("ipsccp", &mut m, &cfg);
        // In scale, k must have been replaced by 3.
        let scale = &m.funcs[m.func_by_name("scale").unwrap().index()];
        assert_eq!(scale.use_count(scale.param(1)), 0, "k still used");
    }

    #[test]
    fn ipsccp_propagates_constant_returns() {
        let src = "fn five() -> i32 { return 5; }
                   fn main() -> i32 { return five() + five(); }";
        let cfg = PassConfig::default();
        check_pass_preserves(src, &["ipsccp", "dce"], &cfg);
    }

    #[test]
    fn jump_threading_threads_phi_constants() {
        // The classic: both arms set a flag, the next block branches on it.
        let src = "fn main() -> i32 {
                     let x: i32 = read_input(0);
                     let mut flag: i32 = 0;
                     if (x > 0) { flag = 1; } else { flag = 0; }
                     if (flag == 1) { return 10; }
                     return 20;
                   }";
        let cfg = PassConfig::default();
        check_pass_preserves(src, &["mem2reg", "jump-threading", "simplifycfg"], &cfg);
    }

    #[test]
    fn correlated_propagation_uses_branch_facts() {
        let src = "fn main() -> i32 {
                     let x: i32 = read_input(0);
                     if (x == 5) { return x * 100; }
                     return x;
                   }";
        let cfg = PassConfig::default();
        check_pass_preserves(src, &["mem2reg", "correlated-propagation", "sccp"], &cfg);
    }
}

/// The hash-ordered sweep `analyze` replaced, kept as a test oracle: the
/// fixpoint is unique, so old and new must agree on every lattice value.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use zkvmopt_ir::hash::FxHashSet;

    /// `analyze` as it was: each sweep visits a snapshot of the executable
    /// set in `HashSet` iteration order.
    fn analyze_hash_ordered(f: &Function, arg_lattice: &[Lat]) -> SccpResult {
        let mut values = vec![Lat::Top; f.values.len()];
        for (i, l) in arg_lattice.iter().enumerate() {
            values[i] = *l;
        }
        for v in values
            .iter_mut()
            .take(f.params.len())
            .skip(arg_lattice.len())
        {
            *v = Lat::Bottom;
        }
        let mut exec_edges: FxHashSet<(BlockId, BlockId)> = FxHashSet::default();
        let mut exec_blocks: FxHashSet<BlockId> = FxHashSet::default();
        let mut ret = Lat::Top;
        exec_blocks.insert(f.entry);
        let mut changed = true;
        while changed {
            changed = false;
            let blocks: Vec<BlockId> = exec_blocks.iter().copied().collect();
            for b in blocks {
                for &v in &f.blocks[b.index()].insts {
                    let Some(op) = f.op(v) else { continue };
                    let new = match op {
                        Op::Phi { incoming } => {
                            let mut acc = Lat::Top;
                            for (p, o) in incoming {
                                if exec_edges.contains(&(*p, b)) {
                                    acc = meet(acc, eval_operand(&values, o));
                                }
                            }
                            acc
                        }
                        _ => transfer(f, &values, op),
                    };
                    let next = meet(values[v.index()], new);
                    if next != values[v.index()] {
                        values[v.index()] = next;
                        changed = true;
                    }
                }
                for_each_taken_edge(&values, &f.blocks[b.index()].term, |to| {
                    changed |= exec_edges.insert((b, to));
                    changed |= exec_blocks.insert(to);
                });
                if let Term::Ret(Some(o)) = &f.blocks[b.index()].term {
                    let next = meet(ret, eval_operand(&values, o));
                    changed |= next != ret;
                    ret = next;
                }
            }
        }
        SccpResult {
            values,
            executable: f.block_ids().map(|b| exec_blocks.contains(&b)).collect(),
            ret,
        }
    }

    /// `analyze` against its oracle on `f`.
    pub(crate) fn check(name: &str, f: &Function) {
        let bottoms = vec![Lat::Bottom; f.params.len()];
        let (old, new) = (analyze_hash_ordered(f, &bottoms), analyze(f, &bottoms));
        assert!(old == new, "{name}: sccp::analyze");
    }

    /// An analysis cut short holds optimistic guesses (`x` is still the
    /// constant 7 after one sweep of this loop); it must report none of them.
    #[test]
    fn an_exhausted_sweep_bound_reports_no_facts() {
        let src = "fn main() -> i32 {
                     let mut x: i32 = 7;
                     for (let mut i: i32 = 0; i < read_input(0); i += 1) { x += 1; }
                     return x + (2 + 5) * 3;
                   }";
        let mut m = zkvmopt_lang::compile(src).unwrap();
        crate::run_pass("mem2reg", &mut m, &crate::PassConfig::default());
        let f = &m.funcs[0];
        let converged = analyze(f, &[]);
        assert!(
            converged.values.iter().any(|l| matches!(l, Lat::Const(_))),
            "the loop's start value is a real constant fact"
        );
        let cut = analyze_bounded(f, &[], 1);
        assert!(cut.values.iter().all(|l| *l == Lat::Bottom));
        assert!(cut.executable.iter().all(|e| *e));
        assert_eq!(cut.ret, Lat::Bottom);
        let mut g = f.clone();
        assert!(!transform(&mut g, &cut), "no facts, no change");
        assert!(g == *f);
        // One sweep short of the fixpoint is still short.
        let sweeps_needed = (1..).find(|&n| analyze_bounded(f, &[], n) == converged);
        let n = sweeps_needed.expect("converges");
        assert!(n > 1 && analyze_bounded(f, &[], n - 1) == cut);
    }
}
