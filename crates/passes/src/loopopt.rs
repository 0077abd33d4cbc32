//! Loop optimization family: `loop-simplify`, `lcssa`, `licm`, `loop-rotate`,
//! `loop-unroll`, `loop-deletion`, `loop-idiom`, `indvars`, `loop-reduce`,
//! `loop-fission`, `simple-loop-unswitch`, `loop-extract`,
//! `loop-predication`, `irce`, and helpers.
//!
//! These are the passes the paper finds most zkVM-hostile: `licm` (worst pass
//! overall, §5.2), `loop-extract` (call + memory-traffic overhead), and
//! `loop-unroll` (only pays off when dynamic instruction count drops, P3).
//! LCSSA phi insertion before loop transforms is deliberately faithful — the
//! paper identifies it as the source of licm's extra `gep`/load/store work.

use crate::framework::FunctionContext;
use crate::util;
use crate::PassConfig;
use std::rc::Rc;
use zkvmopt_ir::analysis::AnalysisCache;
use zkvmopt_ir::cfg::Cfg;
use zkvmopt_ir::dom::DomTree;
use zkvmopt_ir::func::Substitution;
use zkvmopt_ir::hash::{FxHashMap, FxHashSet};
use zkvmopt_ir::loops::{Loop, LoopForest};
use zkvmopt_ir::{BinOp, BlockId, Function, Module, Op, Operand, Pred, Term, Ty, ValueId};

/// Fetch the loop-pass analysis triple from the cache (each is computed at
/// most once until a CFG-shape change invalidates).
fn analyze(f: &Function, ac: &mut AnalysisCache) -> (Rc<Cfg>, Rc<DomTree>, Rc<LoopForest>) {
    let cfg = ac.cfg(f);
    let dom = ac.dom(f);
    let forest = ac.loops(f);
    (cfg, dom, forest)
}

/// Ensure every loop has a dedicated preheader and dedicated exit blocks.
pub fn loop_simplify(
    f: &mut Function,
    ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    loop_simplify_function(f, ac)
}

pub(crate) fn loop_simplify_function(f: &mut Function, ac: &mut AnalysisCache) -> bool {
    let mut changed = false;
    // Iterate: creating blocks invalidates the analysis.
    for _ in 0..16 {
        let (cfg, _dom, forest) = analyze(f, ac);
        let mut did = false;
        for l in &forest.loops {
            // Dedicated preheader (not obtainable for every shape — e.g. a
            // loop whose header is the entry block has no outside edge to
            // splice one into; such loops simply stay non-canonical).
            if l.preheader(f, &cfg).is_none() && make_preheader(f, &cfg, l) {
                did = true;
                break;
            }
            // Dedicated exits: every exit block's predecessors must all be
            // inside the loop.
            for &e in l.exits() {
                let outside_pred = cfg.unique_preds(e).any(|p| !l.contains(p));
                if outside_pred {
                    make_dedicated_exit(f, &cfg, l, e);
                    did = true;
                    break;
                }
            }
            if did {
                break;
            }
        }
        changed |= did;
        if !did {
            break;
        }
        // A preheader/dedicated exit was spliced in: the shape changed.
        ac.invalidate_all();
    }
    changed
}

fn make_preheader(f: &mut Function, cfg: &Cfg, l: &Loop) -> bool {
    let header = l.header;
    let outside: Vec<BlockId> = cfg
        .unique_preds(header)
        .filter(|p| !l.contains(*p))
        .collect();
    if outside.is_empty() {
        // Entry-header loop: there is no edge to reroute through a
        // preheader; splicing one in would only create unreachable blocks.
        return false;
    }
    let pre = f.add_block();
    f.blocks[pre.index()].term = Term::Br(header);
    // Header phis: merge the outside edges in the preheader.
    for i in 0..f.blocks[header.index()].insts.len() {
        let v = f.blocks[header.index()].insts[i];
        let Some(Op::Phi { incoming }) = f.op(v) else {
            continue;
        };
        let outs: Vec<(BlockId, Operand)> = incoming
            .iter()
            .filter(|(p, _)| outside.contains(p))
            .cloned()
            .collect();
        let ins: Vec<(BlockId, Operand)> = incoming
            .iter()
            .filter(|(p, _)| !outside.contains(p))
            .cloned()
            .collect();
        let merged: Operand = if outs.iter().all(|(_, o)| *o == outs[0].1) {
            outs[0].1
        } else {
            let ty = f.ty(v).expect("phi typed");
            let np = f.insert_inst(pre, 0, Op::Phi { incoming: outs }, Some(ty));
            Operand::val(np)
        };
        if let Some(Op::Phi { incoming }) = f.op_mut(v) {
            *incoming = ins;
            incoming.push((pre, merged));
        }
    }
    for p in outside {
        f.blocks[p.index()].term.retarget(header, pre);
    }
    true
}

fn make_dedicated_exit(f: &mut Function, cfg: &Cfg, l: &Loop, e: BlockId) {
    let inside: Vec<BlockId> = cfg.unique_preds(e).filter(|p| l.contains(*p)).collect();
    let ded = f.add_block();
    f.blocks[ded.index()].term = Term::Br(e);
    // Phis in e: split incoming between the dedicated block and direct preds.
    for i in 0..f.blocks[e.index()].insts.len() {
        let v = f.blocks[e.index()].insts[i];
        let Some(Op::Phi { incoming }) = f.op(v) else {
            continue;
        };
        let ins: Vec<(BlockId, Operand)> = incoming
            .iter()
            .filter(|(p, _)| inside.contains(p))
            .cloned()
            .collect();
        let outs: Vec<(BlockId, Operand)> = incoming
            .iter()
            .filter(|(p, _)| !inside.contains(p))
            .cloned()
            .collect();
        if ins.is_empty() {
            continue;
        }
        let merged = if ins.iter().all(|(_, o)| *o == ins[0].1) {
            ins[0].1
        } else {
            let ty = f.ty(v).expect("phi typed");
            let np = f.insert_inst(ded, 0, Op::Phi { incoming: ins }, Some(ty));
            Operand::val(np)
        };
        if let Some(Op::Phi { incoming }) = f.op_mut(v) {
            *incoming = outs;
            incoming.push((ded, merged));
        }
    }
    for p in inside {
        f.blocks[p.index()].term.retarget(e, ded);
    }
}

/// Put loops into loop-closed SSA form: values defined in a loop and used
/// outside are routed through phis at the (single) exit block.
pub fn lcssa(
    f: &mut Function,
    ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    lcssa_function(f, ac)
}

pub(crate) fn lcssa_function(f: &mut Function, ac: &mut AnalysisCache) -> bool {
    let mut changed = false;
    // Per value, reset for each loop: whether it is used outside, and its
    // exit phi.
    let mut used_outside: Vec<bool> = Vec::new();
    let mut phi_of: Vec<Option<ValueId>> = Vec::new();
    for _ in 0..8 {
        // LCSSA only inserts phis and rewrites operands — the cached
        // analyses stay valid throughout, including across rounds.
        let (cfg, dom, forest) = analyze(f, ac);
        let mut did = false;
        for l in &forest.loops {
            if l.exits().len() != 1 {
                continue;
            }
            let exit = l.exits()[0];
            // Exit must be dedicated (all preds inside the loop).
            let exit_preds = cfg.unique_preds(exit);
            if exit_preds.clone().any(|p| !l.contains(p)) {
                continue;
            }
            // One sweep over the outside blocks marks every value used
            // there (an existing LCSSA phi in the exit is fine).
            used_outside.clear();
            used_outside.resize(f.values.len(), false);
            for_each_outside_use(f, l, exit, |o| {
                if let Operand::Value(v) = o {
                    used_outside[v.index()] = true;
                }
            });
            // Loop-defined values among them get a phi at the exit. The
            // value must dominate every exit pred to be phi-able; in a
            // single-exit loop with the def dominating the exiting block
            // this holds for our shapes — verify defensively.
            phi_of.clear();
            phi_of.resize(f.values.len(), None);
            let mut escaped = false;
            for def_bb in l.blocks.iter() {
                if !exit_preds.clone().all(|p| dom.dominates(def_bb, p)) {
                    continue;
                }
                for i in 0..f.blocks[def_bb.index()].insts.len() {
                    let v = f.blocks[def_bb.index()].insts[i];
                    let Some(ty) = f.ty(v) else { continue };
                    if !used_outside[v.index()] {
                        continue;
                    }
                    let incoming: Vec<(BlockId, Operand)> =
                        exit_preds.clone().map(|p| (p, Operand::val(v))).collect();
                    let phi = f.insert_inst(exit, 0, Op::Phi { incoming }, Some(ty));
                    phi_of[v.index()] = Some(phi);
                    escaped = true;
                }
            }
            // Route the outside uses through the new phis (which, being
            // phis in the exit, are themselves left alone).
            if escaped {
                did = true;
                for_each_outside_use(f, l, exit, |o| {
                    if let Operand::Value(v) = o {
                        if let Some(Some(phi)) = phi_of.get(v.index()) {
                            *o = Operand::val(*phi);
                        }
                    }
                });
            }
        }
        changed |= did;
        if !did {
            break;
        }
    }
    changed
}

/// Visit every operand used outside loop `l` — instructions and terminators
/// of all non-loop blocks — except those of phis in `exit`.
fn for_each_outside_use(
    f: &mut Function,
    l: &Loop,
    exit: BlockId,
    mut visit: impl FnMut(&mut Operand),
) {
    for b in 0..f.blocks.len() {
        let b = BlockId(b as u32);
        if l.contains(b) {
            continue;
        }
        for i in 0..f.blocks[b.index()].insts.len() {
            let u = f.blocks[b.index()].insts[i];
            if let Some(op) = f.op_mut(u) {
                if !(b == exit && op.is_phi()) {
                    op.for_each_operand_mut(&mut visit);
                }
            }
        }
        f.blocks[b.index()].term.for_each_operand_mut(&mut visit);
    }
}

/// Loop-invariant code motion.
///
/// Runs `loop-simplify` + `lcssa` first (as LLVM's loop pass manager does),
/// then hoists invariant speculatable instructions — and loads whose address
/// is invariant and provably not clobbered — into the preheader.
pub fn licm(
    f: &mut Function,
    ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    let mut changed = false;
    changed |= loop_simplify_function(f, ac);
    // LLVM's licm promotes loop memory accesses to scalars
    // (promoteLoopAccessesToScalars); mirror it by promoting allocas
    // that are accessed inside some loop. This is where licm's large
    // effects on -O0-style IR come from — including the register
    // pressure that later spills (paper §5.2).
    changed |= promote_loop_allocas(f, ac);
    changed |= lcssa_function(f, ac);
    changed |= licm_function(f, ac);
    changed
}

/// Promote non-escaping scalar allocas that are loaded or stored inside a
/// natural loop.
fn promote_loop_allocas(f: &mut Function, ac: &mut AnalysisCache) -> bool {
    let in_loop = loop_accessed_pointers(f, ac);
    if in_loop.is_empty() {
        return false;
    }
    crate::mem2reg::promote_function_filtered(f, ac, |_, v| in_loop.contains(&v))
}

/// The pointer values loaded or stored inside some call-free natural loop.
fn loop_accessed_pointers(f: &Function, ac: &mut AnalysisCache) -> FxHashSet<ValueId> {
    let (_, _, forest) = analyze(f, ac);
    let mut in_loop: FxHashSet<ValueId> = FxHashSet::default();
    for l in &forest.loops {
        // LLVM's promoteLoopAccessesToScalars gives up when the loop contains
        // instructions that may access memory it cannot reason about — in
        // particular calls. Mirror that: only call-free loops promote.
        let mut has_calls = false;
        for b in l.blocks.iter() {
            for &v in &f.blocks[b.index()].insts {
                if matches!(f.op(v), Some(Op::Call { .. }) | Some(Op::Ecall { .. })) {
                    has_calls = true;
                }
            }
        }
        if has_calls {
            continue;
        }
        for b in l.blocks.iter() {
            for &v in &f.blocks[b.index()].insts {
                match f.op(v) {
                    Some(Op::Load { ptr, .. }) | Some(Op::Store { ptr, .. }) => {
                        if let Operand::Value(p) = ptr {
                            in_loop.insert(*p);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    in_loop
}

fn licm_function(f: &mut Function, ac: &mut AnalysisCache) -> bool {
    let mut changed = false;
    // Hoisting moves instructions between existing blocks; the cached
    // analyses — and with them the loop order — survive every round.
    let (cfg, _dom, forest) = analyze(f, ac);
    // Innermost loops first (deepest depth first).
    let mut order: Vec<usize> = (0..forest.loops.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(forest.loops[i].depth));
    // Per loop, reset each time: its stored-to pointers, and which values
    // it defines.
    let mut loop_writes: Vec<Operand> = Vec::new();
    let mut defined_in: Vec<bool> = Vec::new();
    for _ in 0..8 {
        let mut did = false;
        for &li in &order {
            let l = &forest.loops[li];
            let Some(pre) = l.preheader(f, &cfg) else {
                continue;
            };
            // Memory facts for this loop: what may be written inside? And
            // which values are defined inside: a value is invariant if
            // defined outside the loop or already hoisted/constant.
            loop_writes.clear();
            let mut unknown_writes = false;
            defined_in.clear();
            defined_in.resize(f.values.len(), false);
            for b in l.blocks.iter() {
                for &v in &f.blocks[b.index()].insts {
                    defined_in[v.index()] = true;
                    match f.op(v) {
                        Some(Op::Store { ptr, .. }) => loop_writes.push(*ptr),
                        Some(Op::Call { .. }) | Some(Op::Ecall { .. }) => unknown_writes = true,
                        _ => {}
                    }
                }
            }
            let is_invariant = |o: &Operand| match o {
                Operand::Const { .. } => true,
                Operand::Value(v) => !defined_in[v.index()],
            };
            // One hoist per analysis round keeps the sets consistent.
            let mut hoist: Option<(BlockId, ValueId)> = None;
            'scan: for b in l.blocks.iter() {
                for &v in &f.blocks[b.index()].insts {
                    let Some(op) = f.op(v) else { continue };
                    let mut inv = true;
                    op.for_each_operand(|o| inv &= is_invariant(o));
                    if !inv {
                        continue;
                    }
                    let ok = if op.is_speculatable() && !op.is_phi() {
                        true
                    } else if let Op::Load { ptr, .. } = op {
                        !unknown_writes && loop_writes.iter().all(|w| !util::may_alias(f, w, ptr))
                    } else {
                        false
                    };
                    if ok {
                        hoist = Some((b, v));
                        break 'scan;
                    }
                }
            }
            if let Some((b, v)) = hoist {
                f.blocks[b.index()].insts.retain(|x| *x != v);
                f.blocks[pre.index()].insts.push(v);
                did = true;
                break;
            }
        }
        changed |= did;
        if !did {
            break;
        }
    }
    changed
}

/// Clone every block of a loop. Returns the block map. Back edges inside the
/// clone point at `backedge_target`; exit edges keep their original targets;
/// exit-block phis gain edges from the cloned exiting blocks.
fn clone_loop(
    f: &mut Function,
    l: &Loop,
    backedge_target: Option<BlockId>,
) -> (FxHashMap<BlockId, BlockId>, FxHashMap<ValueId, Operand>) {
    let mut bmap: FxHashMap<BlockId, BlockId> =
        FxHashMap::with_capacity_and_hasher(l.blocks.len(), Default::default());
    for b in l.blocks.iter() {
        bmap.insert(b, f.add_block());
    }
    let n_insts = l
        .blocks
        .iter()
        .map(|b| f.blocks[b.index()].insts.len())
        .sum();
    let mut vmap: FxHashMap<ValueId, Operand> =
        FxHashMap::with_capacity_and_hasher(n_insts, Default::default());
    f.values.reserve(n_insts);
    for b in l.blocks.iter() {
        let nb = bmap[&b];
        let n = f.blocks[b.index()].insts.len();
        f.blocks[nb.index()].insts.reserve_exact(n);
        for i in 0..n {
            let v = f.blocks[b.index()].insts[i];
            let op = f.op(v).expect("inst").clone();
            let ty = f.ty(v);
            let nv = f.add_inst(nb, op, ty);
            vmap.insert(v, Operand::val(nv));
        }
    }
    // Remap operands and phi blocks in the clones.
    let remap = |o: &Operand, vmap: &FxHashMap<ValueId, Operand>| -> Operand {
        match o {
            Operand::Value(v) => *vmap.get(v).unwrap_or(&Operand::Value(*v)),
            c => *c,
        }
    };
    for b in l.blocks.iter() {
        let nb = bmap[&b];
        for i in 0..f.blocks[nb.index()].insts.len() {
            let nv = f.blocks[nb.index()].insts[i];
            let op = f.op_mut(nv).expect("inst");
            op.for_each_operand_mut(|o| *o = remap(o, &vmap));
            if let Op::Phi { incoming } = op {
                for (p, _) in incoming.iter_mut() {
                    if let Some(np) = bmap.get(p) {
                        *p = *np;
                    }
                }
            }
        }
        let mut term = f.blocks[b.index()].term.clone();
        term.for_each_operand_mut(|o| *o = remap(o, &vmap));
        let retarget_block = |t: BlockId| -> BlockId {
            if t == l.header {
                match backedge_target {
                    Some(bt) => bt,
                    None => bmap[&t],
                }
            } else if let Some(nt) = bmap.get(&t) {
                *nt
            } else {
                t // exit edge
            }
        };
        let new_term = match term {
            Term::Br(t) => Term::Br(retarget_block(t)),
            Term::CondBr { c, t, f: fb } => Term::CondBr {
                c,
                t: retarget_block(t),
                f: retarget_block(fb),
            },
            other => other,
        };
        f.blocks[nb.index()].term = new_term;
    }
    // Exit-block phis gain incoming edges from the cloned exiting blocks.
    let mut additions: Vec<(BlockId, Operand)> = Vec::new();
    for &e in l.exits() {
        for i in 0..f.blocks[e.index()].insts.len() {
            let pv = f.blocks[e.index()].insts[i];
            let Some(Op::Phi { incoming }) = f.op(pv) else {
                continue;
            };
            additions.clear();
            for (p, o) in incoming {
                if let Some(np) = bmap.get(p) {
                    additions.push((*np, remap(o, &vmap)));
                }
            }
            if let Some(Op::Phi { incoming }) = f.op_mut(pv) {
                incoming.extend_from_slice(&additions);
            }
        }
    }
    (bmap, vmap)
}

/// Description of a canonical counted loop: `for (i = init; i pred bound;
/// i += step)` with the exit test in the header.
struct CountedLoop {
    iv: ValueId,
    init: i64,
    step: i64,
    bound: i64,
    pred: Pred,
    trips: u64,
}

fn counted_loop(f: &Function, cfg: &Cfg, l: &Loop) -> Option<CountedLoop> {
    if l.latches().len() != 1 || l.exits().len() != 1 {
        return None;
    }
    let latch = l.latches()[0];
    let pre = l.preheader(f, cfg)?;
    // Header: phi iv, then a compare driving the exit branch.
    let Term::CondBr { c, t, f: fb } = &f.blocks[l.header.index()].term else {
        return None;
    };
    let Operand::Value(cv) = c else { return None };
    let Some(Op::Icmp { pred, a, b }) = f.op(*cv) else {
        return None;
    };
    let Operand::Value(iv) = a else { return None };
    let bound = b.as_const()?;
    let Some(Op::Phi { incoming }) = f.op(*iv) else {
        return None;
    };
    if !f.blocks[l.header.index()].insts.contains(iv) {
        return None;
    }
    let (_, init_op) = incoming.iter().find(|(p, _)| *p == pre)?;
    let init = init_op.as_const()?;
    let (_, step_op) = incoming.iter().find(|(p, _)| *p == latch)?;
    let Operand::Value(stepv) = step_op else {
        return None;
    };
    let Some(Op::Bin {
        op: BinOp::Add,
        a: sa,
        b: sb,
    }) = f.op(*stepv)
    else {
        return None;
    };
    if *sa != Operand::Value(*iv) {
        return None;
    }
    let step = sb.as_const()?;
    // The true edge must stay in the loop, the false edge must exit (or the
    // reverse with an inverted predicate — keep it simple: require this
    // orientation, which is what the frontend emits).
    if !l.contains(*t) || l.contains(*fb) {
        return None;
    }
    // Trip count for the supported predicates.
    let step_c = step;
    let trips: i64 = match (pred, step_c) {
        (Pred::Slt, s) if s > 0 => {
            if init >= bound {
                0
            } else {
                (bound - init + s - 1) / s
            }
        }
        (Pred::Sle, s) if s > 0 => {
            if init > bound {
                0
            } else {
                (bound - init) / s + 1
            }
        }
        (Pred::Sgt, s) if s < 0 => {
            if init <= bound {
                0
            } else {
                (init - bound + (-s) - 1) / (-s)
            }
        }
        (Pred::Sge, s) if s < 0 => {
            if init < bound {
                0
            } else {
                (init - bound) / (-s) + 1
            }
        }
        (Pred::Ne, s) if s == 1 && init <= bound => bound - init,
        _ => return None,
    };
    if trips < 0 {
        return None;
    }
    Some(CountedLoop {
        iv: *iv,
        init,
        step,
        bound,
        pred: *pred,
        trips: trips as u64,
    })
}

/// Full loop unrolling via iteration peeling.
///
/// Peeling is semantics-preserving regardless of trip-count accuracy: each
/// peeled copy keeps its own exit check, and `sccp`/`simplifycfg` fold the
/// now-constant checks afterwards. P3 applies: this only helps zkVMs when it
/// reduces executed instructions.
pub fn loop_unroll(m: &mut Module, cfg: &PassConfig) -> bool {
    unroll_module(m, cfg, cfg.unroll_threshold, 0)
}

/// `loop-unroll-and-jam` (simplified): unrolls only innermost loops of
/// depth ≥ 2 nests, at half the unroll budget — approximating the jam
/// benefit. The outer loop is not unrolled and its copies' inner loops are
/// not fused, which is the part of LLVM's pass this one leaves out.
pub fn loop_unroll_and_jam(m: &mut Module, cfg: &PassConfig) -> bool {
    unroll_module(m, cfg, cfg.unroll_threshold / 2, 2)
}

/// The one unroller body: canonicalize and unroll every function's innermost
/// loops of depth ≥ `min_depth` within `threshold`, then — if anything was
/// unrolled — clean up the *whole module* (which also rewrites functions the
/// unroller never touched; that is observable behaviour).
fn unroll_module(m: &mut Module, cfg: &PassConfig, threshold: usize, min_depth: usize) -> bool {
    let mut changed = false;
    for f in &mut m.funcs {
        let mut ac = AnalysisCache::new();
        changed |= loop_simplify_function(f, &mut ac);
        changed |= lcssa_function(f, &mut ac);
        changed |= unroll_function(f, &mut ac, threshold, min_depth);
    }
    if changed {
        crate::simplify::instsimplify_module(m);
        crate::sccp::sccp_module(m);
        crate::simplify::simplifycfg_module(m, cfg);
    }
    changed
}

fn unroll_function(
    f: &mut Function,
    ac: &mut AnalysisCache,
    threshold: usize,
    min_depth: usize,
) -> bool {
    let mut changed = false;
    for _round in 0..8 {
        let (cfg, _dom, forest) = analyze(f, ac);
        // Only innermost loops unroll: those that are no loop's parent.
        let mut has_child = vec![false; forest.loops.len()];
        for l in &forest.loops {
            if let Some(p) = l.parent {
                has_child[p] = true;
            }
        }
        let mut candidate: Option<(usize, u64)> = None;
        let mut order: Vec<usize> = (0..forest.loops.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(forest.loops[i].depth));
        for li in order {
            let l = &forest.loops[li];
            if l.depth < min_depth || has_child[li] {
                continue;
            }
            let Some(counted) = counted_loop(f, &cfg, l) else {
                continue;
            };
            let body_size: usize = l
                .blocks
                .iter()
                .map(|b| f.blocks[b.index()].insts.len())
                .sum();
            if counted.trips == 0 || counted.trips > 128 {
                continue;
            }
            if (counted.trips as usize).saturating_mul(body_size) > threshold {
                continue;
            }
            candidate = Some((li, counted.trips));
            break;
        }
        let Some((li, trips)) = candidate else { break };
        let l = forest.loops[li].clone();
        let Some(pre) = l.preheader(f, &cfg) else {
            break;
        };
        // Peel `trips` iterations; the residual loop then runs zero times and
        // its header check folds away. Each peel collapses its cloned header
        // phis; nothing between peels reads a use of one, so the
        // replacements stay pending until the last peel.
        let mut collapsed = Substitution::new();
        let mut entry_from = pre;
        let mut scratch = Vec::new();
        for _ in 0..trips {
            entry_from = peel_once(f, &l, entry_from, &mut collapsed, &mut scratch);
        }
        f.substitute_uses(&collapsed);
        changed = true;
        crate::mem2reg::collapse_trivial_phis(f);
        util::remove_unreachable(f);
        util::sweep_dead(f);
        ac.invalidate_all();
    }
    changed
}

/// Peel one iteration of `l`, entered from `entry_from` (the preheader or the
/// latch-clone of the previous peel). Returns the block that now feeds the
/// original header (the cloned latch). The cloned header's phis are removed
/// and their replacements recorded in `collapsed`, for the caller to apply.
/// `scratch` is the caller's buffer for a snapshot of the cloned header.
fn peel_once(
    f: &mut Function,
    l: &Loop,
    entry_from: BlockId,
    collapsed: &mut Substitution,
    scratch: &mut Vec<ValueId>,
) -> BlockId {
    // Clone with back edges pointing at the *original* header. The clone's
    // blocks are exactly the ones it appends.
    let first_clone = f.blocks.len();
    let (bmap, vmap) = clone_loop(f, l, Some(l.header));
    let cloned = |p: &BlockId| p.index() >= first_clone;
    let cloned_header = bmap[&l.header];
    let latch = l.latches()[0];
    let cloned_latch = bmap[&latch];
    // Entry now flows into the cloned header.
    f.blocks[entry_from.index()]
        .term
        .retarget(l.header, cloned_header);
    // Cloned header phis: they still have incoming from (entry_from (as
    // original pred name), cloned latch). Keep only the entry edge and
    // collapse, recording substitutions for the back-edge remap below.
    scratch.clone_from(&f.blocks[cloned_header.index()].insts);
    for &v in scratch.iter() {
        let Some(Op::Phi { incoming }) = f.op(v) else {
            continue;
        };
        // The edge from outside the clone: its pred is not a cloned block
        // and not the original latch (those edges became original-header
        // edges). The entry value is the one whose pred isn't in bmap values.
        let entry_val = incoming
            .iter()
            .find(|(p, _)| !cloned(p))
            .map(|(_, o)| collapsed.resolve(*o));
        if let Some(val) = entry_val {
            collapsed.insert(v, val);
            f.remove_inst(cloned_header, v);
        }
    }
    // Original header phis: the preheader edge is replaced by the cloned
    // latch edge carrying the remapped latch value. The remap must chase the
    // cloned-phi collapse above: with mutual phis (`v0 = v1` loops) a phi's
    // back-edge value is another header phi whose clone was just removed.
    let remap = |o: &Operand| -> Operand {
        collapsed.resolve(match o {
            Operand::Value(v) => *vmap.get(v).unwrap_or(&Operand::Value(*v)),
            c => *c,
        })
    };
    for i in 0..f.blocks[l.header.index()].insts.len() {
        let v = f.blocks[l.header.index()].insts[i];
        let Some(Op::Phi { incoming }) = f.op(v) else {
            continue;
        };
        let new_incoming: Vec<(BlockId, Operand)> = incoming
            .iter()
            .map(|&(p, o)| {
                if p == entry_from || (!l.contains(p) && !cloned(&p)) {
                    // Old entry edge: now comes from the cloned latch with
                    // the remapped back-edge value.
                    let latch_val = incoming
                        .iter()
                        .find(|(lp, _)| *lp == latch)
                        .map(|(_, lo)| remap(lo))
                        .unwrap_or(o);
                    (cloned_latch, latch_val)
                } else {
                    (p, o)
                }
            })
            .collect();
        if let Some(Op::Phi { incoming }) = f.op_mut(v) {
            *incoming = new_incoming;
        }
    }
    cloned_latch
}

/// Delete side-effect-free loops whose results are unused.
pub fn loop_deletion(
    f: &mut Function,
    ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    let mut changed = false;
    changed |= loop_simplify_function(f, ac);
    for _ in 0..8 {
        let (cfg, _dom, forest) = analyze(f, ac);
        let mut did = false;
        for l in &forest.loops {
            if l.exits().len() != 1 {
                continue;
            }
            let Some(pre) = l.preheader(f, &cfg) else {
                continue;
            };
            // Must be provably finite: canonical counted loop.
            if counted_loop(f, &cfg, l).is_none() {
                continue;
            }
            // No side effects inside.
            let mut pure = true;
            for b in l.blocks.iter() {
                for &v in &f.blocks[b.index()].insts {
                    if let Some(op) = f.op(v) {
                        if op.has_side_effects() {
                            pure = false;
                        }
                    }
                }
            }
            if !pure {
                continue;
            }
            // No loop-defined value used outside.
            let exit = l.exits()[0];
            let mut escapes = false;
            for b in l.blocks.iter() {
                for &v in &f.blocks[b.index()].insts {
                    for b2 in f.block_ids() {
                        if l.contains(b2) {
                            continue;
                        }
                        for &u in &f.blocks[b2.index()].insts {
                            if let Some(op) = f.op(u) {
                                op.for_each_operand(|o| {
                                    escapes |= *o == Operand::Value(v);
                                });
                            }
                        }
                        f.blocks[b2.index()]
                            .term
                            .for_each_operand(|o| escapes |= *o == Operand::Value(v));
                    }
                }
            }
            if escapes {
                continue;
            }
            // Exit phis would be undefined; they must not exist (LCSSA
            // phis of a result-free loop are dead and swept earlier).
            let has_phis = f.blocks[exit.index()]
                .insts
                .iter()
                .any(|&v| matches!(f.op(v), Some(Op::Phi { .. })));
            if has_phis {
                continue;
            }
            f.blocks[pre.index()].term.retarget(l.header, exit);
            util::remove_unreachable(f);
            util::sweep_dead(f);
            ac.invalidate_all();
            did = true;
            break;
        }
        changed |= did;
        if !did {
            break;
        }
    }
    changed
}

/// Loop-idiom recognition: widen byte-wise constant fills to word stores.
pub fn loop_idiom(
    f: &mut Function,
    ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    let mut changed = false;
    changed |= loop_simplify_function(f, ac);
    let (cfg, _dom, forest) = analyze(f, ac);
    for l in &forest.loops {
        if l.blocks.len() != 2 || l.latches().len() != 1 {
            continue; // header + single body block
        }
        let Some(counted) = counted_loop(f, &cfg, l) else {
            continue;
        };
        if counted.step != 1 || counted.init != 0 || counted.trips % 4 != 0 {
            continue;
        }
        let body = l.latches()[0];
        // Body: gep(base, iv, 1, 0); store i8 const; iv increment.
        let insts = f.blocks[body.index()].insts.clone();
        if insts.len() != 3 {
            continue;
        }
        let Some(Op::Gep {
            base,
            index,
            stride: 1,
            offset: 0,
        }) = f.op(insts[0]).cloned()
        else {
            continue;
        };
        if index != Operand::Value(counted.iv) {
            continue;
        }
        let Some(Op::Store {
            ptr,
            val,
            ty: Ty::I8,
        }) = f.op(insts[1]).cloned()
        else {
            continue;
        };
        if ptr != Operand::val(insts[0]) {
            continue;
        }
        let Some(byte) = val.as_const() else { continue };
        // Base must be 4-aligned: allocas and globals are.
        match util::ptr_base(f, &base) {
            util::PtrBase::Alloca(_) | util::PtrBase::Global(_) => {}
            util::PtrBase::Unknown => continue,
        }
        // Rewrite: stride 4, word store, bound /= 4.
        let word = {
            let b = (byte as u8) as u32;
            (b | (b << 8) | (b << 16) | (b << 24)) as i32
        };
        *f.op_mut(insts[0]).expect("gep") = Op::Gep {
            base,
            index: Operand::Value(counted.iv),
            stride: 4,
            offset: 0,
        };
        *f.op_mut(insts[1]).expect("store") = Op::Store {
            ptr: Operand::val(insts[0]),
            val: Operand::i32(word),
            ty: Ty::I32,
        };
        // Shrink the bound: find the header compare and divide by 4.
        let Term::CondBr { c, .. } = &f.blocks[l.header.index()].term else {
            continue;
        };
        let Operand::Value(cv) = *c else { continue };
        if let Some(Op::Icmp { b: bound_op, .. }) = f.op_mut(cv) {
            *bound_op = Operand::i32((counted.bound / 4) as i32);
        }
        changed = true;
    }
    changed
}

/// Induction-variable simplification: canonicalize `!=` exit tests and
/// replace IV exit values with constants.
pub fn indvars(
    f: &mut Function,
    ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    let mut changed = false;
    changed |= loop_simplify_function(f, ac);
    let (cfg, _dom, forest) = analyze(f, ac);
    for l in &forest.loops {
        let Some(counted) = counted_loop(f, &cfg, l) else {
            continue;
        };
        // Rewrite `i != N` to `i < N` when step is 1 and init <= N.
        if counted.pred == Pred::Ne && counted.step == 1 && counted.init <= counted.bound {
            let Term::CondBr { c, .. } = &f.blocks[l.header.index()].term else {
                continue;
            };
            let Operand::Value(cv) = *c else { continue };
            if let Some(Op::Icmp { pred, .. }) = f.op_mut(cv) {
                *pred = Pred::Slt;
                changed = true;
            }
        }
        // Exit value: uses of the IV outside the loop see the final value.
        // The model counts in i64; an i32 IV agrees with it only if every
        // value from `init` up to the exit fits (they climb in between).
        let fits = |x: i64| i32::try_from(x).is_ok();
        let exit = iv_exit_value(counted.pred, counted.init, counted.step, counted.bound)
            .filter(|&x| f.ty(counted.iv) == Some(Ty::I32) && fits(counted.init) && fits(x));
        if let Some(fv) = exit {
            for b2 in f.block_ids() {
                if l.contains(b2) {
                    continue;
                }
                for i in 0..f.blocks[b2.index()].insts.len() {
                    let u = f.blocks[b2.index()].insts[i];
                    if let Some(op) = f.op_mut(u) {
                        if !op.is_phi() {
                            op.for_each_operand_mut(|o| {
                                if *o == Operand::Value(counted.iv) {
                                    *o = Operand::i32(fv as i32);
                                    changed = true;
                                }
                            });
                        }
                    }
                }
            }
        }
    }
    changed
}

/// Where the IV of a counted loop stands when the exit test first fails, for
/// the upward-counting predicates (`None` for the others, or a step that
/// does not count up): `init` stepped by `step` while `pred(x, bound)`
/// holds, stopping early once `|x|` passes 2^40 — computed in closed form,
/// so a loop of 2·10^9 trips costs what one of ten does.
fn iv_exit_value(pred: Pred, init: i64, step: i64, bound: i64) -> Option<i64> {
    const CAP: i128 = 1 << 40;
    if !matches!(pred, Pred::Slt | Pred::Sle | Pred::Ne) || step <= 0 {
        return None;
    }
    let (init, step, bound) = (i128::from(init), i128::from(step), i128::from(bound));
    let holds = match pred {
        Pred::Slt => init < bound,
        Pred::Sle => init <= bound,
        _ => init != bound,
    };
    if !holds {
        return Some(init as i64);
    }
    // The first step count at which the test fails (`None`: never, for a
    // `!=` the steps jump over)...
    let fails = match pred {
        Pred::Slt => Some((bound - init + step - 1) / step),
        Pred::Sle => Some((bound - init) / step + 1),
        _ => (bound > init && (bound - init) % step == 0).then(|| (bound - init) / step),
    };
    // ...and the first at which `x` leaves [-2^40, 2^40]: after one step if
    // it is already out, else on the way up.
    let first = init + step;
    let escapes = if first.abs() > CAP {
        1
    } else {
        (CAP - init) / step + 1
    };
    let k = fails.map_or(escapes, |n| n.min(escapes));
    Some((init + k * step) as i64)
}

/// Loop strength reduction: replace `iv * c` inside a loop with a derived
/// induction variable updated by addition.
pub fn loop_reduce(
    f: &mut Function,
    ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    let mut changed = false;
    changed |= loop_simplify_function(f, ac);
    for _ in 0..4 {
        // Strength reduction adds phis/adds and removes muls — all
        // shape-preserving, so rounds reuse the cached analyses.
        let (cfg, _dom, forest) = analyze(f, ac);
        let mut did = false;
        'loops: for l in &forest.loops {
            let Some(counted) = counted_loop(f, &cfg, l) else {
                continue;
            };
            if l.latches().len() != 1 {
                continue;
            }
            let latch = l.latches()[0];
            let Some(pre) = l.preheader(f, &cfg) else {
                continue;
            };
            for b in l.blocks.iter() {
                let insts = f.blocks[b.index()].insts.clone();
                for v in insts {
                    let Some(Op::Bin {
                        op: BinOp::Mul,
                        a,
                        b: rhs,
                    }) = f.op(v).cloned()
                    else {
                        continue;
                    };
                    if a != Operand::Value(counted.iv) {
                        continue;
                    }
                    let Some(c) = rhs.as_const() else { continue };
                    // j = phi(pre: init*c, latch: j + step*c)
                    let ty = Ty::I32;
                    let j = f.insert_inst(
                        l.header,
                        0,
                        Op::Phi {
                            incoming: Vec::new(),
                        },
                        Some(ty),
                    );
                    let init = BinOp::Mul.eval32(counted.init, c) as i32;
                    let stepc = BinOp::Mul.eval32(counted.step, c) as i32;
                    let at = f.blocks[latch.index()].insts.len();
                    let jnext = f.insert_inst(
                        latch,
                        at,
                        Op::Bin {
                            op: BinOp::Add,
                            a: Operand::val(j),
                            b: Operand::i32(stepc),
                        },
                        Some(ty),
                    );
                    if let Some(Op::Phi { incoming }) = f.op_mut(j) {
                        incoming.push((pre, Operand::i32(init)));
                        incoming.push((latch, Operand::val(jnext)));
                    }
                    f.replace_all_uses(v, Operand::val(j));
                    f.remove_inst(b, v);
                    did = true;
                    changed = true;
                    break 'loops;
                }
            }
        }
        if !did {
            break;
        }
    }
    changed |= util::sweep_dead(f);
    changed
}

/// `instsimplify` focused on loop bodies (LLVM's `loop-instsimplify`; the
/// whole-function run reaches the same fixed point).
pub fn loop_instsimplify(
    f: &mut Function,
    _ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    crate::simplify::instsimplify_function(f)
}

/// Loop fission (the paper's Fig. 2b): split a loop writing several disjoint
/// arrays into one loop per array. Helps CPU cache locality; on zkVMs it
/// duplicates loop-control work.
pub fn loop_fission(
    f: &mut Function,
    ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    let mut changed = false;
    changed |= loop_simplify_function(f, ac);
    let (cfg, _dom, forest) = analyze(f, ac);
    'loops: for l in &forest.loops {
        if l.blocks.len() != 2 || l.latches().len() != 1 || l.exits().len() != 1 {
            continue;
        }
        let Some(_) = counted_loop(f, &cfg, l) else {
            continue;
        };
        let body = l.latches()[0];
        let exit = l.exits()[0];
        // No loads, no calls; stores to ≥ 2 distinct bases; nothing
        // escapes the loop.
        let mut bases: Vec<util::PtrBase> = Vec::new();
        let mut store_of: FxHashMap<ValueId, util::PtrBase> = FxHashMap::default();
        for &v in &f.blocks[body.index()].insts {
            match f.op(v) {
                Some(Op::Store { ptr, .. }) => {
                    let base = util::ptr_base(f, ptr);
                    if base == util::PtrBase::Unknown {
                        continue 'loops;
                    }
                    if !bases.contains(&base) {
                        bases.push(base);
                    }
                    store_of.insert(v, base);
                }
                Some(Op::Load { .. }) | Some(Op::Call { .. }) | Some(Op::Ecall { .. }) => {
                    continue 'loops;
                }
                _ => {}
            }
        }
        if bases.len() < 2 {
            continue;
        }
        // Nothing defined in the loop may be used outside it.
        for b in l.blocks.iter() {
            for &v in &f.blocks[b.index()].insts {
                for b2 in f.block_ids() {
                    if l.contains(b2) {
                        continue;
                    }
                    let mut used = false;
                    for &u in &f.blocks[b2.index()].insts {
                        if let Some(op) = f.op(u) {
                            op.for_each_operand(|o| used |= *o == Operand::Value(v));
                        }
                    }
                    f.blocks[b2.index()]
                        .term
                        .for_each_operand(|o| used |= *o == Operand::Value(v));
                    if used {
                        continue 'loops;
                    }
                }
            }
        }
        // Clone the loop once per extra base; each copy keeps stores to
        // exactly one base.
        let first_base = bases[0];
        let mut insert_after_exit_of = exit;
        for &base in bases.iter().skip(1) {
            let (bmap, _vmap) = clone_loop(f, l, None);
            // New preheader between the previous exit and this copy.
            let pre2 = f.add_block();
            f.blocks[pre2.index()].term = Term::Br(bmap[&l.header]);
            // Cloned header phis: entry edges (from outside the clone)
            // must now come from pre2.
            let cloned_header = bmap[&l.header];
            let cloned_set: FxHashSet<BlockId> = bmap.values().copied().collect();
            let insts = f.blocks[cloned_header.index()].insts.clone();
            for v in insts {
                if let Some(Op::Phi { incoming }) = f.op_mut(v) {
                    for (p, _) in incoming.iter_mut() {
                        if !cloned_set.contains(p) {
                            *p = pre2;
                        }
                    }
                }
            }
            // The cloned loop exits to `exit`; splice: old exiting edge of
            // the previous stage now targets pre2.
            // Previous stage exits via the ORIGINAL loop's exiting edge
            // into `exit`; we instead retarget the previous copy's exit
            // edge to pre2 and let the last copy fall through to exit.
            // Simpler: chain copies in front of the original exit.
            // The cloned loop currently exits to `exit` directly; the
            // previous stage must flow into pre2 first.
            if insert_after_exit_of == exit {
                // First extra copy: original loop -> pre2 -> clone -> exit.
                for &eb in l.exiting() {
                    f.blocks[eb.index()].term.retarget(exit, pre2);
                }
            } else {
                // Subsequent copies: previous clone -> pre2.
                f.blocks[insert_after_exit_of.index()]
                    .term
                    .retarget(exit, pre2);
            }
            // Record this clone's exiting block (its header clone exits).
            let mut clone_exiting = cloned_header;
            for &eb in l.exiting() {
                clone_exiting = bmap[&eb];
            }
            insert_after_exit_of = clone_exiting;
            // Keep only this base's stores in the clone; drop others.
            let cloned_body = bmap[&body];
            let insts = f.blocks[cloned_body.index()].insts.clone();
            for (orig_v, orig_base) in &store_of {
                if *orig_base != base {
                    // Find the clone of this store by position match.
                    let pos = f.blocks[body.index()]
                        .insts
                        .iter()
                        .position(|x| x == orig_v);
                    if let Some(p) = pos {
                        if let Some(&cv) = insts.get(p) {
                            f.remove_inst(cloned_body, cv);
                        }
                    }
                }
            }
        }
        // Original loop keeps only the first base's stores.
        for (v, base) in &store_of {
            if *base != first_base {
                f.remove_inst(body, *v);
            }
        }
        util::sweep_dead(f);
        changed = true;
        break;
    }
    changed
}

/// Simple loop unswitching: hoist a loop-invariant branch out of the loop by
/// cloning the loop for each polarity.
pub fn loop_unswitch(
    f: &mut Function,
    ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    let mut changed = false;
    changed |= loop_simplify_function(f, ac);
    let (cfg, _dom, forest) = analyze(f, ac);
    'loops: for l in &forest.loops {
        if l.blocks.len() > 16 {
            continue;
        }
        let Some(pre) = l.preheader(f, &cfg) else {
            continue;
        };
        // Exits must have no phis (pre-LCSSA shape).
        for &e in l.exits() {
            if f.blocks[e.index()]
                .insts
                .iter()
                .any(|&v| matches!(f.op(v), Some(Op::Phi { .. })))
            {
                continue 'loops;
            }
        }
        // Nothing defined inside may be used outside.
        let used = used_outside(f, l);
        if l.blocks
            .iter()
            .any(|b| f.blocks[b.index()].insts.iter().any(|v| used[v.index()]))
        {
            continue;
        }
        // Find an invariant conditional branch inside (not the header's
        // own exit test).
        let defined_in: FxHashSet<ValueId> = l
            .blocks
            .iter()
            .flat_map(|b| f.blocks[b.index()].insts.iter().copied())
            .collect();
        let mut cond: Option<(BlockId, Operand)> = None;
        for b in l.blocks.iter() {
            if b == l.header {
                continue;
            }
            if let Term::CondBr { c, t, f: fb } = &f.blocks[b.index()].term {
                let inv = match c {
                    Operand::Const { .. } => false, // let simplifycfg fold it
                    Operand::Value(v) => !defined_in.contains(v),
                };
                if inv && l.contains(*t) && l.contains(*fb) {
                    cond = Some((b, *c));
                    break;
                }
            }
        }
        let Some((cond_block, c)) = cond else {
            continue;
        };
        // Clone the loop; original gets c := true, clone gets c := false.
        let (bmap, _vmap) = clone_loop(f, l, None);
        let cloned_header = bmap[&l.header];
        let cloned_set: FxHashSet<BlockId> = bmap.values().copied().collect();
        // Cloned header phis: entry edges must come from the preheader.
        let insts = f.blocks[cloned_header.index()].insts.clone();
        for v in insts {
            if let Some(Op::Phi { incoming }) = f.op_mut(v) {
                for (p, _) in incoming.iter_mut() {
                    if !cloned_set.contains(p) {
                        *p = pre;
                    }
                }
            }
        }
        // Preheader: branch on the invariant condition.
        f.blocks[pre.index()].term = Term::CondBr {
            c,
            t: l.header,
            f: cloned_header,
        };
        // Specialize the branch in both copies.
        if let Term::CondBr { t, .. } = f.blocks[cond_block.index()].term.clone() {
            f.blocks[cond_block.index()].term = Term::Br(t);
        }
        let cloned_cond = bmap[&cond_block];
        if let Term::CondBr { f: fb, .. } = f.blocks[cloned_cond.index()].term.clone() {
            f.blocks[cloned_cond.index()].term = Term::Br(fb);
        }
        util::cleanup_phis(f);
        util::sweep_dead(f);
        changed = true;
        break;
    }
    changed
}

/// Extract single-exit loops into separate functions (LLVM's
/// `loop-extract`). On zkVMs the call/argument/live-out traffic this adds is
/// pure overhead — one of the paper's most harmful passes (Fig. 8).
pub fn loop_extract(m: &mut Module, _cfg: &PassConfig) -> bool {
    let mut extracted = false;
    for fi in 0..m.funcs.len() {
        if extract_one(m, fi, loop_liveness) {
            extracted = true;
        }
    }
    extracted
}

/// Extract one loop of function `fi`, reading its live values through
/// `liveness` (the test oracle passes the old body).
fn extract_one(
    m: &mut Module,
    fi: usize,
    liveness: fn(&Function, &Loop) -> (LiveVals, LiveVals),
) -> bool {
    let mut ac = AnalysisCache::new();
    loop_simplify_function(&mut m.funcs[fi], &mut ac);
    let f = &m.funcs[fi];
    let (cfg, _dom, forest) = analyze(f, &mut ac);
    // Pick an outermost loop that is not the whole function body.
    let mut pick: Option<Loop> = None;
    for l in &forest.loops {
        if l.depth != 1 || l.exits().len() != 1 {
            continue;
        }
        let Some(_) = l.preheader(f, &cfg) else {
            continue;
        };
        // Exit must be dedicated.
        if cfg.unique_preds(l.exits()[0]).any(|p| !l.contains(p)) {
            continue;
        }
        // No allocas inside, no ecalls (halt must stay in the caller frame —
        // it behaves identically, but keep extraction conservative).
        let mut ok = true;
        for b in l.blocks.iter() {
            for &v in &f.blocks[b.index()].insts {
                if matches!(f.op(v), Some(Op::Alloca { .. }) | Some(Op::Ecall { .. })) {
                    ok = false;
                }
            }
        }
        if !ok {
            continue;
        }
        // Live-ins and live-outs.
        let (live_in, live_out) = liveness(f, l);
        if live_in.len() > 6 || live_out.len() > 1 {
            continue;
        }
        pick = Some(l.clone());
        break;
    }
    let Some(l) = pick else { return false };
    let f = &m.funcs[fi];
    let (live_in, live_out) = liveness(f, &l);
    // A loop without a dedicated preheader cannot be extracted (the call has
    // nowhere to live); loop-simplify normally guarantees one, but irregular
    // CFGs it cannot canonicalize must bail instead of panicking.
    let Some(pre) = l.preheader(f, &cfg) else {
        return false;
    };
    let exit = l.exits()[0];
    let caller_name = f.name.clone();

    // Build the new function.
    let params: Vec<Ty> = live_in.iter().map(|(_, ty)| *ty).collect();
    let ret = live_out.first().map(|(_, ty)| *ty);
    let mut nf = Function::new(format!("{caller_name}.loop{}", l.header.0), params, ret);
    nf.no_inline = true; // extraction must survive later inline runs
    let mut bmap: FxHashMap<BlockId, BlockId> = FxHashMap::default();
    let blocks: Vec<BlockId> = l.blocks.iter().collect();
    for &b in &blocks {
        bmap.insert(b, nf.add_block());
    }
    let mut vmap: FxHashMap<ValueId, Operand> = FxHashMap::default();
    for (i, (v, _)) in live_in.iter().enumerate() {
        vmap.insert(*v, Operand::val(nf.param(i)));
    }
    let f = &m.funcs[fi];
    for &b in &blocks {
        let nb = bmap[&b];
        for &v in &f.blocks[b.index()].insts {
            let op = f.op(v).expect("inst").clone();
            let ty = f.ty(v);
            let nv = nf.add_inst(nb, op, ty);
            vmap.insert(v, Operand::val(nv));
        }
    }
    // Remap (two passes for back-edge phis).
    let remap = |o: &Operand, vmap: &FxHashMap<ValueId, Operand>| -> Operand {
        match o {
            Operand::Value(v) => *vmap.get(v).unwrap_or(&Operand::Value(*v)),
            c => *c,
        }
    };
    for &b in &blocks {
        let nb = bmap[&b];
        let insts = nf.blocks[nb.index()].insts.clone();
        for nv in insts {
            let mut op = nf.op(nv).expect("inst").clone();
            op.for_each_operand_mut(|o| *o = remap(o, &vmap));
            if let Op::Phi { incoming } = &mut op {
                for (p, _) in incoming.iter_mut() {
                    if *p == pre {
                        *p = nf.entry;
                    } else if let Some(np) = bmap.get(p) {
                        *p = *np;
                    }
                }
            }
            *nf.op_mut(nv).expect("inst") = op;
        }
        let mut term = f.blocks[b.index()].term.clone();
        term.for_each_operand_mut(|o| *o = remap(o, &vmap));
        let ret_val: Option<Operand> = live_out
            .first()
            .map(|(v, _)| remap(&Operand::Value(*v), &vmap));
        let retarget = |t: BlockId| -> Option<BlockId> { bmap.get(&t).copied() };
        let new_term = match term {
            Term::Br(t) => match retarget(t) {
                Some(nt) => Term::Br(nt),
                None => Term::Ret(ret_val),
            },
            Term::CondBr { c, t, f: fb } => match (retarget(t), retarget(fb)) {
                (Some(nt), Some(nfb)) => Term::CondBr { c, t: nt, f: nfb },
                (Some(nt), None) => {
                    // Exit on the false edge: ret block.
                    let rb = nf.add_block();
                    nf.blocks[rb.index()].term = Term::Ret(ret_val);
                    Term::CondBr { c, t: nt, f: rb }
                }
                (None, Some(nfb)) => {
                    let rb = nf.add_block();
                    nf.blocks[rb.index()].term = Term::Ret(ret_val);
                    Term::CondBr { c, t: rb, f: nfb }
                }
                (None, None) => Term::Ret(ret_val),
            },
            other => other,
        };
        nf.blocks[bmap[&b].index()].term = new_term;
    }
    nf.blocks[nf.entry.index()].term = Term::Br(bmap[&l.header]);

    let new_id = m.add_func(nf);
    // Rewrite the caller: preheader calls the new function then jumps to the
    // exit block.
    let f = &mut m.funcs[fi];
    let args: Vec<Operand> = live_in.iter().map(|(v, _)| Operand::Value(*v)).collect();
    let call = f.add_inst(
        pre,
        Op::Call {
            callee: new_id,
            args,
        },
        ret,
    );
    f.blocks[pre.index()].term = Term::Br(exit);
    // Exit phis: they referenced loop blocks; all their loop incoming values
    // are the (single) live-out.
    let insts = f.blocks[exit.index()].insts.clone();
    for v in insts {
        let Some(Op::Phi { incoming }) = f.op(v).cloned() else {
            continue;
        };
        let all_loop = incoming.iter().all(|(p, _)| l.contains(*p));
        if all_loop {
            f.replace_all_uses(v, Operand::val(call));
            f.remove_inst(exit, v);
        }
    }
    // Any remaining outside use of the live-out becomes the call result.
    if let Some((lo, _)) = live_out.first() {
        f.replace_all_uses(*lo, Operand::val(call));
    }
    util::remove_unreachable(f);
    util::sweep_dead(f);
    true
}

/// A list of live (value, type) pairs at a loop boundary.
type LiveVals = Vec<(ValueId, Ty)>;

/// Values flowing into / out of a loop: (value, type) lists.
fn loop_liveness(f: &Function, l: &Loop) -> (LiveVals, LiveVals) {
    let defined_in: FxHashSet<ValueId> = l
        .blocks
        .iter()
        .flat_map(|b| f.blocks[b.index()].insts.iter().copied())
        .collect();
    let mut live_in: Vec<(ValueId, Ty)> = Vec::new();
    for b in l.blocks.iter() {
        let mut consider = |o: &Operand| {
            if let Operand::Value(v) = o {
                if !defined_in.contains(v) {
                    if let Some(ty) = f.ty(*v) {
                        if !live_in.iter().any(|(x, _)| x == v) {
                            live_in.push((*v, ty));
                        }
                    }
                }
            }
        };
        for &v in &f.blocks[b.index()].insts {
            if let Some(op) = f.op(v) {
                op.for_each_operand(&mut consider);
            }
        }
        f.blocks[b.index()].term.for_each_operand(&mut consider);
    }
    live_in.sort_by_key(|(v, _)| *v);
    let used = used_outside(f, l);
    let mut live_out: Vec<(ValueId, Ty)> = Vec::new();
    for b in l.blocks.iter() {
        for &v in &f.blocks[b.index()].insts {
            let Some(ty) = f.ty(v) else { continue };
            if used[v.index()] {
                live_out.push((v, ty));
            }
        }
    }
    live_out.sort_by_key(|(v, _)| *v);
    (live_in, live_out)
}

/// Which values are used outside loop `l`, indexed by value: one sweep over
/// the instructions and terminators of every block the loop does not
/// contain.
fn used_outside(f: &Function, l: &Loop) -> Vec<bool> {
    let mut used = vec![false; f.values.len()];
    let mut mark = |o: &Operand| {
        if let Operand::Value(v) = o {
            used[v.index()] = true;
        }
    };
    for (b, block) in f.blocks.iter().enumerate() {
        if l.contains(BlockId(b as u32)) {
            continue;
        }
        for &u in &block.insts {
            if let Some(op) = f.op(u) {
                op.for_each_operand(&mut mark);
            }
        }
        block.term.for_each_operand(&mut mark);
    }
    used
}

/// Loop predication: convert a conditional store in a loop into an
/// unconditional load–select–store sequence. Removes a branch; adds memory
/// traffic — the zkVM-hostile trade the paper describes.
pub fn loop_predication(
    f: &mut Function,
    ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    let mut changed = false;
    let (cfg, _dom, forest) = analyze(f, ac);
    'loops: for l in &forest.loops {
        // Triangle inside the loop: A -CondBr-> (T, J), T: store only, T -> J.
        for a in l.blocks.iter() {
            let Term::CondBr { c, t, f: j } = f.blocks[a.index()].term.clone() else {
                continue;
            };
            if !l.contains(t) || !l.contains(j) || t == j {
                continue;
            }
            if cfg.unique_preds(t).count() != 1 {
                continue;
            }
            if !f.blocks[t.index()].term.succs().eq([j]) {
                continue;
            }
            if f.blocks[t.index()].insts.len() != 1 {
                continue;
            }
            let sv = f.blocks[t.index()].insts[0];
            let Some(Op::Store { ptr, val, ty }) = f.op(sv).cloned() else {
                continue;
            };
            // Operands must be defined outside T (they dominate A).
            let in_t = |o: &Operand| match o {
                Operand::Value(v) => f.blocks[t.index()].insts.contains(v),
                _ => false,
            };
            if in_t(&ptr) || in_t(&val) {
                continue;
            }
            // J must have no phis with incoming from T (nothing flows out).
            let j_has_t_phi = f.blocks[j.index()].insts.iter().any(|&v| {
                matches!(f.op(v), Some(Op::Phi { incoming })
                    if incoming.iter().any(|(p, _)| *p == t))
            });
            if j_has_t_phi {
                continue;
            }
            // Rewrite A: load old, select, store, jump to J.
            f.remove_inst(t, sv);
            let old = f.add_inst(a, Op::Load { ptr, ty }, Some(ty));
            let sel = f.add_inst(
                a,
                Op::Select {
                    c,
                    t: val,
                    f: Operand::val(old),
                },
                Some(ty),
            );
            f.add_inst(
                a,
                Op::Store {
                    ptr,
                    val: Operand::val(sel),
                    ty,
                },
                None,
            );
            f.blocks[a.index()].term = Term::Br(j);
            util::remove_unreachable(f);
            changed = true;
            break 'loops;
        }
    }
    changed
}

/// `loop-versioning-licm` (simplified): `loop-simplify` + `lcssa` + `licm`.
/// Runtime alias-check versioning is not modelled. The static alias
/// analysis already tells apart accesses to distinct alloca and global
/// bases; a pointer pair it cannot separate stays in the loop, where LLVM
/// would emit a runtime check and a versioned copy.
pub fn loop_versioning_licm(
    f: &mut Function,
    ac: &mut AnalysisCache,
    cx: &FunctionContext<'_>,
    cfg: &PassConfig,
) -> bool {
    licm(f, ac, cx, cfg)
}

/// Inductive range-check elimination: fold comparisons against the induction
/// variable that are decidable over its whole range.
pub fn irce(
    f: &mut Function,
    ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    let mut changed = false;
    changed |= loop_simplify_function(f, ac);
    let (cfg, _dom, forest) = analyze(f, ac);
    for l in &forest.loops {
        let Some(counted) = counted_loop(f, &cfg, l) else {
            continue;
        };
        if counted.step <= 0 {
            continue;
        }
        // IV range during body execution: [init, last] inclusive.
        let last = match counted.pred {
            Pred::Slt | Pred::Ne => counted.bound - 1,
            Pred::Sle => counted.bound,
            _ => continue,
        };
        if counted.trips == 0 {
            continue;
        }
        let lo = counted.init;
        let hi = last;
        for b in l.blocks.iter() {
            if b == l.header {
                continue; // don't fold the loop's own exit test
            }
            let insts = f.blocks[b.index()].insts.clone();
            for v in insts {
                let Some(Op::Icmp { pred, a, b: rhs }) = f.op(v).cloned() else {
                    continue;
                };
                if a != Operand::Value(counted.iv) {
                    continue;
                }
                let Some(k) = rhs.as_const() else { continue };
                // Decide the predicate over [lo, hi] (lo >= 0 needed for
                // unsigned predicates to coincide with signed).
                let decided: Option<bool> = match pred {
                    Pred::Slt => decide_range(lo, hi, |x| x < k),
                    Pred::Sle => decide_range(lo, hi, |x| x <= k),
                    Pred::Sgt => decide_range(lo, hi, |x| x > k),
                    Pred::Sge => decide_range(lo, hi, |x| x >= k),
                    Pred::Ult if lo >= 0 && k >= 0 => decide_range(lo, hi, |x| x < k),
                    Pred::Ule if lo >= 0 && k >= 0 => decide_range(lo, hi, |x| x <= k),
                    Pred::Uge if lo >= 0 && k >= 0 => decide_range(lo, hi, |x| x >= k),
                    Pred::Ugt if lo >= 0 && k >= 0 => decide_range(lo, hi, |x| x > k),
                    _ => None,
                };
                if let Some(val) = decided {
                    f.replace_all_uses(v, Operand::bool(val));
                    f.remove_inst(b, v);
                    changed = true;
                }
            }
        }
    }
    if changed {
        util::sweep_dead(f);
    }
    changed
}

fn decide_range(lo: i64, hi: i64, p: impl Fn(i64) -> bool) -> Option<bool> {
    let at_lo = p(lo);
    let at_hi = p(hi);
    // Monotone predicates: same answer at both ends decides the interval.
    if at_lo == at_hi {
        Some(at_lo)
    } else {
        None
    }
}

/// Rotate while-loops into do-while form guarded by one preheader check.
pub fn loop_rotate(
    f: &mut Function,
    ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    let mut changed = false;
    changed |= loop_simplify_function(f, ac);
    let mut guard = 0;
    loop {
        guard += 1;
        if guard > 8 || !rotate_one(f, ac) {
            break;
        }
        changed = true;
    }
    changed
}

fn rotate_one(f: &mut Function, ac: &mut AnalysisCache) -> bool {
    let (cfg, _dom, forest) = analyze(f, ac);
    'loops: for l in &forest.loops {
        if l.latches().len() != 1 || l.exits().len() != 1 {
            continue;
        }
        let latch = l.latches()[0];
        let Some(pre) = l.preheader(f, &cfg) else {
            continue;
        };
        let exit = l.exits()[0];
        // Header must be the exiting block with a small, speculatable body.
        let Term::CondBr { c, t, f: fb } = f.blocks[l.header.index()].term.clone() else {
            continue;
        };
        if !(l.contains(t) && fb == exit) {
            continue;
        }
        // Already rotated? (latch == header means do-while.)
        if latch == l.header {
            continue;
        }
        // Latch currently jumps straight to the header.
        if !matches!(f.blocks[latch.index()].term, Term::Br(h) if h == l.header) {
            continue;
        }
        // Exit must have no phis (rotate before LCSSA).
        if f.blocks[exit.index()]
            .insts
            .iter()
            .any(|&v| matches!(f.op(v), Some(Op::Phi { .. })))
        {
            continue;
        }
        let header_insts = f.blocks[l.header.index()].insts.clone();
        let phis: Vec<ValueId> = header_insts
            .iter()
            .copied()
            .take_while(|&v| matches!(f.op(v), Some(Op::Phi { .. })))
            .collect();
        let body_insts: Vec<ValueId> = header_insts[phis.len()..].to_vec();
        if body_insts.len() > 8
            || !body_insts
                .iter()
                .all(|&v| f.op(v).is_some_and(|o| o.is_speculatable()))
        {
            continue;
        }
        // No header value may be used outside the loop (pre-LCSSA).
        for &v in &header_insts {
            for b2 in f.block_ids() {
                if l.contains(b2) {
                    continue;
                }
                let mut used = false;
                for &u in &f.blocks[b2.index()].insts {
                    if let Some(op) = f.op(u) {
                        op.for_each_operand(|o| used |= *o == Operand::Value(v));
                    }
                }
                f.blocks[b2.index()]
                    .term
                    .for_each_operand(|o| used |= *o == Operand::Value(v));
                if used {
                    continue 'loops;
                }
            }
        }
        // Clone the condition computation into the preheader (entry values)
        // and into the latch (back-edge values).
        let clone_cond = |f: &mut Function, into: BlockId, edge_from: BlockId| -> Operand {
            let mut local: FxHashMap<ValueId, Operand> = FxHashMap::default();
            for &pv in &phis {
                if let Some(Op::Phi { incoming }) = f.op(pv) {
                    if let Some((_, o)) = incoming.iter().find(|(p, _)| *p == edge_from) {
                        local.insert(pv, *o);
                    }
                }
            }
            for &bv in &body_insts {
                let mut op = f.op(bv).expect("inst").clone();
                let ty = f.ty(bv);
                op.for_each_operand_mut(|o| {
                    if let Operand::Value(u) = o {
                        if let Some(r) = local.get(u) {
                            *o = *r;
                        }
                    }
                });
                let at = f.blocks[into.index()].insts.len();
                let nv = f.insert_inst(into, at, op, ty);
                local.insert(bv, Operand::val(nv));
            }
            match &c {
                Operand::Value(v) => *local.get(v).unwrap_or(&Operand::Value(*v)),
                k => *k,
            }
        };
        let c_pre = clone_cond(f, pre, pre);
        f.blocks[pre.index()].term = Term::CondBr {
            c: c_pre,
            t: l.header,
            f: exit,
        };
        let c_latch = clone_cond(f, latch, latch);
        f.blocks[latch.index()].term = Term::CondBr {
            c: c_latch,
            t: l.header,
            f: exit,
        };
        // Header now falls through into the body unconditionally.
        f.blocks[l.header.index()].term = Term::Br(t);
        ac.invalidate_all();
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkvmopt_ir::{FunctionBuilder, Module};

    /// The stepping loop [`iv_exit_value`] replaced, kept as its oracle.
    fn iv_exit_value_by_stepping(pred: Pred, init: i64, step: i64, bound: i64) -> Option<i64> {
        match pred {
            Pred::Slt | Pred::Sle | Pred::Ne => {
                let mut x = init;
                while match pred {
                    Pred::Slt => x < bound,
                    Pred::Sle => x <= bound,
                    Pred::Ne => x != bound,
                    _ => false,
                } {
                    x += step;
                    if x.abs() > 1 << 40 {
                        break;
                    }
                }
                Some(x)
            }
            _ => None,
        }
    }

    #[test]
    fn iv_exit_value_matches_stepping_on_a_grid() {
        const CAP: i64 = 1 << 40;
        const MAX: i64 = i32::MAX as i64;
        const MIN: i64 = i32::MIN as i64;
        let anchors = [-CAP, MIN, -1000, 0, 1000, MAX, CAP];
        let points: Vec<i64> = anchors
            .iter()
            .flat_map(|&a| [-70_001, -3, -1, 0, 1, 2, 5, 65_537].map(|d| a + d))
            .collect();
        let mut checked = 0;
        for &init in &points {
            for &bound in &points {
                for step in [1, 2, 3, 7, 1000, 1 << 16, 1 << 31] {
                    for pred in [Pred::Slt, Pred::Sle, Pred::Ne] {
                        // Only the shapes `counted_loop` admits, and only
                        // walks the oracle finishes quickly.
                        if pred == Pred::Ne && (step != 1 || init > bound) {
                            continue;
                        }
                        if (bound.min(CAP + 1) - init) / step > 200_000 {
                            continue;
                        }
                        assert_eq!(
                            iv_exit_value(pred, init, step, bound),
                            iv_exit_value_by_stepping(pred, init, step, bound),
                            "{pred:?} init {init} step {step} bound {bound}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 5000, "the grid shrank to {checked} cases");
        // The downward predicates `counted_loop` admits get no exit value.
        for pred in [Pred::Sgt, Pred::Sge] {
            assert_eq!(iv_exit_value(pred, 10, -1, 0), None);
            assert_eq!(iv_exit_value_by_stepping(pred, 10, -1, 0), None);
        }
    }

    /// A function whose loop header *is* the entry block: no block outside
    /// the loop branches to the header, so no dedicated preheader can exist
    /// (and `loop-simplify` cannot create a reachable one).
    fn entry_header_loop() -> Function {
        let mut b = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        let body = b.new_block();
        let exit = b.new_block();
        let entry = b.current_block();
        let i = b.phi(Ty::I32, vec![]);
        let c = b.icmp(Pred::Slt, Operand::val(i), Operand::i32(4));
        b.cond_br(Operand::val(c), body, exit);
        b.switch_to(body);
        let i2 = b.bin(BinOp::Add, Operand::val(i), Operand::i32(1));
        b.br(entry);
        b.add_phi_incoming(i, body, Operand::val(i2));
        b.switch_to(exit);
        b.ret(Some(Operand::val(i)));
        b.finish()
    }

    /// Regression for the `l.preheader(..).expect("preheader")` panic path
    /// (loop-extract): a loop with no obtainable preheader must make the
    /// transform bail, not crash.
    #[test]
    fn loop_extract_bails_without_preheader() {
        let f = entry_header_loop();
        let cfg = Cfg::new(&f);
        let dom = DomTree::new(&f, &cfg);
        let forest = LoopForest::new(&f, &cfg, &dom);
        assert_eq!(forest.loops.len(), 1, "the entry-header loop is found");
        assert!(
            forest.loops[0].preheader(&f, &cfg).is_none(),
            "no dedicated preheader exists for an entry-header loop"
        );
        let mut m = Module::new();
        m.add_func(f);
        // Before the fix this could reach the `.expect("preheader")`;
        // now every preheader-less shape degrades to "no change".
        for pass in ["loop-extract", "licm", "loop-rotate", "loop-deletion"] {
            let _ = crate::run_pass(pass, &mut m, &PassConfig::default());
        }
        assert_eq!(m.funcs.len(), 1, "nothing was extracted");
    }

    /// `loop-reduce` ends with a dead-code sweep; what the sweep removes is a
    /// change, and must be reported as one even with no loop to reduce.
    #[test]
    fn loop_reduce_reports_its_sweep() {
        let mut b = FunctionBuilder::new("main", vec![Ty::I32], Some(Ty::I32));
        b.bin(BinOp::Add, Operand::val(b.param(0)), Operand::i32(1));
        b.ret(Some(Operand::i32(0)));
        let mut m = Module::new();
        m.add_func(b.finish());
        let cfg = PassConfig {
            verify_each: false,
            ..PassConfig::default()
        };
        assert!(crate::run_pass("loop-reduce", &mut m, &cfg));
        assert!(m.funcs[0].blocks[0].insts.is_empty(), "the add was swept");
    }
}

/// The per-value rescanning body `lcssa_function` replaced, kept as a test
/// oracle: same phis, same order, so old and new must agree on the whole
/// `Function`.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// `lcssa_function` as it was: every outside block rescanned once per
    /// loop-defined value, and once more per escaping value to rewrite it.
    fn lcssa_function_rescanning(f: &mut Function, ac: &mut AnalysisCache) -> bool {
        let mut changed = false;
        for _ in 0..8 {
            let (cfg, _dom, forest) = analyze(f, ac);
            let mut did = false;
            for l in &forest.loops {
                if l.exits().len() != 1 {
                    continue;
                }
                let exit = l.exits()[0];
                if cfg.unique_preds(exit).any(|p| !l.contains(p)) {
                    continue;
                }
                let exit_preds = cfg.unique_preds(exit);
                let mut escaping: Vec<(ValueId, Ty)> = Vec::new();
                for b in l.blocks.iter() {
                    for &v in &f.blocks[b.index()].insts {
                        let Some(ty) = f.ty(v) else { continue };
                        let mut outside_use = false;
                        for b2 in f.block_ids() {
                            if l.contains(b2) {
                                continue;
                            }
                            for &u in &f.blocks[b2.index()].insts {
                                if let Some(op) = f.op(u) {
                                    if b2 == exit && op.is_phi() {
                                        continue;
                                    }
                                    op.for_each_operand(|o| {
                                        outside_use |= *o == Operand::Value(v);
                                    });
                                }
                            }
                            f.blocks[b2.index()]
                                .term
                                .for_each_operand(|o| outside_use |= *o == Operand::Value(v));
                        }
                        if outside_use {
                            escaping.push((v, ty));
                        }
                    }
                }
                for (v, ty) in escaping {
                    let dom = ac.dom(f);
                    let def_bb = f
                        .block_ids()
                        .find(|b| f.blocks[b.index()].insts.contains(&v))
                        .expect("def block");
                    if !exit_preds.clone().all(|p| dom.dominates(def_bb, p)) {
                        continue;
                    }
                    let incoming: Vec<(BlockId, Operand)> =
                        exit_preds.clone().map(|p| (p, Operand::val(v))).collect();
                    let phi = f.insert_inst(exit, 0, Op::Phi { incoming }, Some(ty));
                    for b2 in f.block_ids() {
                        if l.contains(b2) {
                            continue;
                        }
                        let insts = f.blocks[b2.index()].insts.clone();
                        for u in insts {
                            if u == phi {
                                continue;
                            }
                            if b2 == exit && f.op(u).is_some_and(Op::is_phi) {
                                continue;
                            }
                            if let Some(op) = f.op_mut(u) {
                                op.for_each_operand_mut(|o| {
                                    if *o == Operand::Value(v) {
                                        *o = Operand::val(phi);
                                    }
                                });
                            }
                        }
                        f.blocks[b2.index()].term.for_each_operand_mut(|o| {
                            if *o == Operand::Value(v) {
                                *o = Operand::val(phi);
                            }
                        });
                    }
                    did = true;
                }
            }
            changed |= did;
            if !did {
                break;
            }
        }
        changed
    }

    /// `lcssa_function` against its oracle on `f` (canonicalized first, as
    /// every caller does).
    pub(crate) fn check(name: &str, f: &Function) {
        let mut f = f.clone();
        loop_simplify_function(&mut f, &mut AnalysisCache::new());
        let (mut old, mut new) = (f.clone(), f);
        let (co, cn) = (
            lcssa_function_rescanning(&mut old, &mut AnalysisCache::new()),
            lcssa_function(&mut new, &mut AnalysisCache::new()),
        );
        assert!(co == cn && old == new, "{name}: lcssa_function");
    }

    /// `simple-loop-unswitch` as it was: one whole-function scan per
    /// loop-defined value for "nothing defined inside is used outside".
    pub(crate) fn loop_unswitch(
        f: &mut Function,
        ac: &mut AnalysisCache,
        _cx: &FunctionContext<'_>,
        _cfg: &PassConfig,
    ) -> bool {
        let mut changed = false;
        changed |= loop_simplify_function(f, ac);
        let (cfg, _dom, forest) = analyze(f, ac);
        'loops: for l in &forest.loops {
            if l.blocks.len() > 16 {
                continue;
            }
            let Some(pre) = l.preheader(f, &cfg) else {
                continue;
            };
            // Exits must have no phis (pre-LCSSA shape).
            for &e in l.exits() {
                if f.blocks[e.index()]
                    .insts
                    .iter()
                    .any(|&v| matches!(f.op(v), Some(Op::Phi { .. })))
                {
                    continue 'loops;
                }
            }
            // Nothing defined inside may be used outside.
            for b in l.blocks.iter() {
                for &v in &f.blocks[b.index()].insts {
                    for b2 in f.block_ids() {
                        if l.contains(b2) {
                            continue;
                        }
                        let mut used = false;
                        for &u in &f.blocks[b2.index()].insts {
                            if let Some(op) = f.op(u) {
                                op.for_each_operand(|o| used |= *o == Operand::Value(v));
                            }
                        }
                        f.blocks[b2.index()]
                            .term
                            .for_each_operand(|o| used |= *o == Operand::Value(v));
                        if used {
                            continue 'loops;
                        }
                    }
                }
            }
            // Find an invariant conditional branch inside (not the header's
            // own exit test).
            let defined_in: FxHashSet<ValueId> = l
                .blocks
                .iter()
                .flat_map(|b| f.blocks[b.index()].insts.iter().copied())
                .collect();
            let mut cond: Option<(BlockId, Operand)> = None;
            for b in l.blocks.iter() {
                if b == l.header {
                    continue;
                }
                if let Term::CondBr { c, t, f: fb } = &f.blocks[b.index()].term {
                    let inv = match c {
                        Operand::Const { .. } => false, // let simplifycfg fold it
                        Operand::Value(v) => !defined_in.contains(v),
                    };
                    if inv && l.contains(*t) && l.contains(*fb) {
                        cond = Some((b, *c));
                        break;
                    }
                }
            }
            let Some((cond_block, c)) = cond else {
                continue;
            };
            // Clone the loop; original gets c := true, clone gets c := false.
            let (bmap, _vmap) = clone_loop(f, l, None);
            let cloned_header = bmap[&l.header];
            let cloned_set: FxHashSet<BlockId> = bmap.values().copied().collect();
            // Cloned header phis: entry edges must come from the preheader.
            let insts = f.blocks[cloned_header.index()].insts.clone();
            for v in insts {
                if let Some(Op::Phi { incoming }) = f.op_mut(v) {
                    for (p, _) in incoming.iter_mut() {
                        if !cloned_set.contains(p) {
                            *p = pre;
                        }
                    }
                }
            }
            // Preheader: branch on the invariant condition.
            f.blocks[pre.index()].term = Term::CondBr {
                c,
                t: l.header,
                f: cloned_header,
            };
            // Specialize the branch in both copies.
            if let Term::CondBr { t, .. } = f.blocks[cond_block.index()].term.clone() {
                f.blocks[cond_block.index()].term = Term::Br(t);
            }
            let cloned_cond = bmap[&cond_block];
            if let Term::CondBr { f: fb, .. } = f.blocks[cloned_cond.index()].term.clone() {
                f.blocks[cloned_cond.index()].term = Term::Br(fb);
            }
            util::cleanup_phis(f);
            util::sweep_dead(f);
            changed = true;
            break;
        }
        changed
    }

    /// `loop_liveness` as it was: one whole-function scan per loop-defined
    /// value for the live-outs.
    pub(crate) fn loop_liveness(f: &Function, l: &Loop) -> (LiveVals, LiveVals) {
        let defined_in: FxHashSet<ValueId> = l
            .blocks
            .iter()
            .flat_map(|b| f.blocks[b.index()].insts.iter().copied())
            .collect();
        let mut live_in: Vec<(ValueId, Ty)> = Vec::new();
        for b in l.blocks.iter() {
            let mut consider = |o: &Operand| {
                if let Operand::Value(v) = o {
                    if !defined_in.contains(v) {
                        if let Some(ty) = f.ty(*v) {
                            if !live_in.iter().any(|(x, _)| x == v) {
                                live_in.push((*v, ty));
                            }
                        }
                    }
                }
            };
            for &v in &f.blocks[b.index()].insts {
                if let Some(op) = f.op(v) {
                    op.for_each_operand(&mut consider);
                }
            }
            f.blocks[b.index()].term.for_each_operand(&mut consider);
        }
        live_in.sort_by_key(|(v, _)| *v);
        let mut live_out: Vec<(ValueId, Ty)> = Vec::new();
        for b in l.blocks.iter() {
            for &v in &f.blocks[b.index()].insts {
                let Some(ty) = f.ty(v) else { continue };
                let mut used_out = false;
                for b2 in f.block_ids() {
                    if l.contains(b2) {
                        continue;
                    }
                    for &u in &f.blocks[b2.index()].insts {
                        if let Some(op) = f.op(u) {
                            op.for_each_operand(|o| used_out |= *o == Operand::Value(v));
                        }
                    }
                    f.blocks[b2.index()]
                        .term
                        .for_each_operand(|o| used_out |= *o == Operand::Value(v));
                }
                if used_out {
                    live_out.push((v, ty));
                }
            }
        }
        live_out.sort_by_key(|(v, _)| *v);
        (live_in, live_out)
    }

    /// The registry's `licm` (and `loop-versioning-licm`) with the old
    /// promotion bodies.
    pub(crate) fn licm(
        f: &mut Function,
        ac: &mut AnalysisCache,
        _cx: &FunctionContext<'_>,
        _cfg: &PassConfig,
    ) -> bool {
        let mut changed = false;
        changed |= loop_simplify_function(f, ac);
        let in_loop = loop_accessed_pointers(f, ac);
        if !in_loop.is_empty() {
            changed |= crate::mem2reg::oracle::promote_function_filtered(f, ac, |_, v| {
                in_loop.contains(&v)
            });
        }
        changed |= lcssa_function(f, ac);
        changed |= licm_function(f, ac);
        changed
    }

    /// The registry's `loop-extract` with the old liveness body.
    pub(crate) fn loop_extract(m: &mut Module, _cfg: &PassConfig) -> bool {
        let mut extracted = false;
        for fi in 0..m.funcs.len() {
            if extract_one(m, fi, loop_liveness) {
                extracted = true;
            }
        }
        extracted
    }

    /// `f` promoted, canonicalized and fully peeled, *before* the unroller's
    /// cleanup: the long block chains the linear kernels were written for.
    pub(crate) fn peeled(f: &Function) -> Function {
        let mut f = f.clone();
        let mut ac = AnalysisCache::new();
        crate::mem2reg::promote_function_filtered(&mut f, &mut ac, |_, _| true);
        loop_simplify_function(&mut f, &mut ac);
        lcssa_function(&mut f, &mut ac);
        unroll_function(&mut f, &mut ac, PassConfig::default().unroll_threshold, 0);
        f
    }
}
