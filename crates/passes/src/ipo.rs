//! Interprocedural passes: `inline`, `always-inline`, `partial-inliner`,
//! `tailcall`, `function-attrs`, `attributor`, `deadargelim`, `globalopt`,
//! `globaldce`, `constmerge`.
//!
//! Inlining is the paper's star pass (+28% exec on RISC Zero, +19% on SP1 —
//! Fig. 3) and also its cautionary tale: inlining `u64`-heavy callees raises
//! register pressure and triggers stack spills (Fig. 11). Our inliner splices
//! real blocks and the register allocator downstream does real spilling, so
//! both effects reproduce mechanically.

use crate::framework::FunctionContext;
use crate::util;
use crate::PassConfig;
use zkvmopt_ir::analysis::AnalysisCache;
use zkvmopt_ir::hash::FxHashMap;
use zkvmopt_ir::{BlockId, FuncId, Function, Module, Op, Operand, Term, Ty, ValueId};

/// Upper bound on call sites inlined per pass invocation (growth guard).
const INLINE_BUDGET: usize = 400;
/// Callers are not grown beyond this many instructions.
const CALLER_SIZE_CAP: usize = 50_000;

/// Inline call sites whose callee is under the configured threshold.
pub fn inline(m: &mut Module, cfg: &PassConfig) -> bool {
    run_inliner(m, cfg, false)
}

/// Inline only `#[inline(always)]` callees, regardless of size.
pub fn always_inline(m: &mut Module, cfg: &PassConfig) -> bool {
    run_inliner(m, cfg, true)
}

/// Simplified partial inliner: inlines guard-shaped callees (entry block
/// ending in a conditional branch to an early `ret`) even above the size
/// threshold, capturing the benefit LLVM gets from outlining the cold path.
pub fn partial_inliner(m: &mut Module, cfg: &PassConfig) -> bool {
    let mut changed = false;
    let mut budget = INLINE_BUDGET / 4;
    while let Some((caller, block, v)) = find_site(m, |m, callee| {
        let f = &m.funcs[callee.index()];
        guard_shaped(f) && f.size() <= cfg.inline_threshold * 4
    }) {
        if budget == 0 {
            break;
        }
        budget -= 1;
        inline_site(m, caller, block, v);
        changed = true;
    }
    if changed {
        for f in &mut m.funcs {
            util::remove_unreachable(f);
            util::sweep_dead(f);
        }
    }
    changed
}

fn guard_shaped(f: &Function) -> bool {
    let entry = &f.blocks[f.entry.index()];
    let Term::CondBr { t, f: fb, .. } = &entry.term else {
        return false;
    };
    for target in [t, fb] {
        let tb = &f.blocks[target.index()];
        if matches!(tb.term, Term::Ret(_)) && tb.insts.len() <= 2 {
            return true;
        }
    }
    false
}

fn run_inliner(m: &mut Module, cfg: &PassConfig, always_only: bool) -> bool {
    let mut changed = false;
    let mut budget = INLINE_BUDGET;
    while let Some((caller, block, v)) = find_site(m, |m, callee| {
        let f = &m.funcs[callee.index()];
        if f.no_inline {
            return false;
        }
        if always_only {
            f.always_inline
        } else {
            f.always_inline || f.size() <= cfg.inline_threshold
        }
    }) {
        if budget == 0 || m.funcs[caller.index()].size() > CALLER_SIZE_CAP {
            break;
        }
        budget -= 1;
        inline_site(m, caller, block, v);
        changed = true;
    }
    if changed {
        for f in &mut m.funcs {
            util::remove_unreachable(f);
            crate::mem2reg::collapse_trivial_phis(f);
            util::sweep_dead(f);
        }
    }
    changed
}

/// Find a call site whose callee satisfies `want`, is not (mutually)
/// recursive with the caller, and is not the caller itself.
fn find_site(
    m: &Module,
    want: impl Fn(&Module, FuncId) -> bool,
) -> Option<(FuncId, BlockId, ValueId)> {
    for (ci, caller) in m.funcs.iter().enumerate() {
        let caller_id = FuncId(ci as u32);
        for b in caller.reachable_blocks() {
            for &v in &caller.blocks[b.index()].insts {
                let Some(Op::Call { callee, .. }) = caller.op(v) else {
                    continue;
                };
                let callee = *callee;
                if callee == caller_id {
                    continue;
                }
                // The callee must not (transitively) call the caller or
                // itself — that would make inlining non-terminating.
                if reaches(m, callee, callee, 8) || reaches(m, callee, caller_id, 8) {
                    continue;
                }
                if want(m, callee) {
                    return Some((caller_id, b, v));
                }
            }
        }
    }
    None
}

/// Whether `from` can reach a call to `to` within `depth` call-graph hops.
fn reaches(m: &Module, from: FuncId, to: FuncId, depth: usize) -> bool {
    if depth == 0 {
        return true; // conservative
    }
    let f = &m.funcs[from.index()];
    for b in f.reachable_blocks() {
        for &v in &f.blocks[b.index()].insts {
            if let Some(Op::Call { callee, .. }) = f.op(v) {
                if *callee == to || reaches(m, *callee, to, depth - 1) {
                    return true;
                }
            }
        }
    }
    false
}

/// Splice `callee`'s body into `caller` at call instruction `call_v` in
/// `call_block`.
fn inline_site(m: &mut Module, caller_id: FuncId, call_block: BlockId, call_v: ValueId) {
    let (callee_id, args) = {
        let caller = &m.funcs[caller_id.index()];
        match caller.op(call_v) {
            Some(Op::Call { callee, args }) => (*callee, args.clone()),
            other => panic!("inline_site on non-call {other:?}"),
        }
    };
    let callee = m.funcs[callee_id.index()].clone();
    let caller = &mut m.funcs[caller_id.index()];

    // 1. Split the caller block after the call.
    let cont = caller.add_block();
    let pos = caller.blocks[call_block.index()]
        .insts
        .iter()
        .position(|x| *x == call_v)
        .expect("call in its block");
    let tail: Vec<ValueId> = caller.blocks[call_block.index()].insts.split_off(pos + 1);
    caller.blocks[cont.index()].insts = tail;
    let old_term = std::mem::replace(
        &mut caller.blocks[call_block.index()].term,
        Term::Unreachable,
    );
    // Successor phis must now name `cont` instead of `call_block`.
    for s in old_term.succs() {
        for i in 0..caller.blocks[s.index()].insts.len() {
            let pv = caller.blocks[s.index()].insts[i];
            if let Some(Op::Phi { incoming }) = caller.op_mut(pv) {
                for (p, _) in incoming.iter_mut() {
                    if *p == call_block {
                        *p = cont;
                    }
                }
            }
        }
    }
    caller.blocks[cont.index()].term = old_term;

    // 2. Create a caller block for every reachable callee block.
    let callee_blocks = callee.reachable_blocks();
    let mut bmap: FxHashMap<BlockId, BlockId> = FxHashMap::default();
    for &cb in &callee_blocks {
        bmap.insert(cb, caller.add_block());
    }
    // 3. Copy instructions with value remapping.
    let mut vmap: FxHashMap<ValueId, Operand> = FxHashMap::default();
    for (i, a) in args.iter().enumerate() {
        vmap.insert(callee.param(i), *a);
    }
    let remap = |o: &Operand, vmap: &FxHashMap<ValueId, Operand>| -> Operand {
        match o {
            Operand::Value(v) => *vmap.get(v).unwrap_or(&Operand::Value(*v)),
            c => *c,
        }
    };
    // Copy instructions verbatim first (operands still name callee values),
    // then remap exactly once with the complete value map. Remapping during
    // the copy would be wrong twice over: forward references (phi back edges)
    // are not mapped yet, and a second pass would re-remap caller ids that
    // numerically collide with callee ids.
    let mut ret_edges: Vec<(BlockId, Option<Operand>)> = Vec::new();
    let mut copied: Vec<ValueId> = Vec::new();
    for &cb in &callee_blocks {
        let nb = bmap[&cb];
        for &cv in &callee.blocks[cb.index()].insts {
            let op = callee.op(cv).expect("callee inst").clone();
            let ty = callee.ty(cv);
            // Allocas must live in the caller's entry block.
            let nv = if matches!(op, Op::Alloca { .. }) {
                let e = caller.entry;
                caller.insert_inst(e, 0, op, ty)
            } else {
                caller.add_inst(nb, op, ty)
            };
            copied.push(nv);
            vmap.insert(cv, Operand::Value(nv));
        }
    }
    for &nv in &copied {
        if let Some(op) = caller.op(nv) {
            let mut tmp = op.clone();
            tmp.for_each_operand_mut(|o| *o = remap(o, &vmap));
            if let Op::Phi { incoming } = &mut tmp {
                for (p, _) in incoming.iter_mut() {
                    *p = *bmap.get(p).unwrap_or(p);
                }
            }
            *caller.op_mut(nv).expect("inst") = tmp;
        }
    }
    // 4. Terminators.
    for &cb in &callee_blocks {
        let nb = bmap[&cb];
        let mut term = callee.blocks[cb.index()].term.clone();
        term.for_each_operand_mut(|o| *o = remap(o, &vmap));
        let new_term = match term {
            Term::Br(t) => Term::Br(bmap[&t]),
            Term::CondBr { c, t, f } => Term::CondBr {
                c,
                t: bmap[&t],
                f: bmap[&f],
            },
            Term::Ret(v) => {
                ret_edges.push((nb, v));
                Term::Br(cont)
            }
            Term::Unreachable => Term::Unreachable,
        };
        caller.blocks[nb.index()].term = new_term;
    }
    // 5. Wire the call block to the inlined entry and materialize the result.
    caller.blocks[call_block.index()].term = Term::Br(bmap[&callee.entry]);
    let result: Option<Operand> = match callee.ret {
        Some(ty) => {
            let live_rets: Vec<(BlockId, Operand)> = ret_edges
                .iter()
                .filter_map(|(b, v)| v.map(|o| (*b, o)))
                .collect();
            match live_rets.len() {
                0 => Some(match ty {
                    Ty::I1 => Operand::bool(false),
                    Ty::Ptr => Operand::Const {
                        value: 0,
                        ty: Ty::Ptr,
                    },
                    _ => Operand::i32(0),
                }),
                1 => Some(live_rets[0].1),
                _ => {
                    let phi = caller.insert_inst(
                        cont,
                        0,
                        Op::Phi {
                            incoming: live_rets,
                        },
                        Some(ty),
                    );
                    Some(Operand::val(phi))
                }
            }
        }
        None => None,
    };
    if let Some(r) = result {
        caller.replace_all_uses(call_v, r);
    }
    caller.remove_inst(call_block, call_v);
    // A single-return inlinee whose value was used in `cont` via a phi with
    // one edge is fine; trivial phis are collapsed by callers of this fn.
}

/// Self-recursive tail-call elimination: rewrite `return f(args)` in `f`
/// into a loop.
pub fn tailcall(
    f: &mut Function,
    _ac: &mut AnalysisCache,
    cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    tailcall_function(f, cx.id)
}

fn tailcall_function(f: &mut Function, fid: FuncId) -> bool {
    // Gate: no allocas (looping over allocas would regrow the frame).
    for b in f.reachable_blocks() {
        for &v in &f.blocks[b.index()].insts {
            if matches!(f.op(v), Some(Op::Alloca { .. })) {
                return false;
            }
        }
    }
    // Find tail sites: block ends `ret (call self(args))` where the call is
    // the last instruction.
    let mut sites: Vec<(BlockId, ValueId, Vec<Operand>)> = Vec::new();
    let uses = f.use_counts();
    for b in f.reachable_blocks() {
        let Some(&last) = f.blocks[b.index()].insts.last() else {
            continue;
        };
        let Some(Op::Call { callee, args }) = f.op(last) else {
            continue;
        };
        if *callee != fid {
            continue;
        }
        let is_tail = match &f.blocks[b.index()].term {
            Term::Ret(Some(Operand::Value(v))) => *v == last,
            Term::Ret(None) => true,
            _ => false,
        };
        // The call result must not be used anywhere else.
        if is_tail && uses[last.index()] <= 1 {
            sites.push((b, last, args.clone()));
        }
    }
    if sites.is_empty() {
        return false;
    }
    // New preheader entry; the old entry becomes the loop header.
    let old_entry = f.entry;
    let new_entry = f.add_block();
    f.blocks[new_entry.index()].term = Term::Br(old_entry);
    f.entry = new_entry;
    // Insert one phi per parameter at the head of the old entry.
    let params: Vec<Ty> = f.params.clone();
    let mut phis = Vec::new();
    for (i, ty) in params.iter().enumerate() {
        let phi = f.insert_inst(
            old_entry,
            i,
            Op::Phi {
                incoming: Vec::new(),
            },
            Some(*ty),
        );
        phis.push(phi);
        let p = f.param(i);
        f.replace_all_uses(p, Operand::val(phi));
    }
    // Now fix the phis: entry edge carries the original parameters.
    for (i, &phi) in phis.iter().enumerate() {
        let p = f.param(i);
        if let Some(Op::Phi { incoming }) = f.op_mut(phi) {
            incoming.clear();
            incoming.push((new_entry, Operand::val(p)));
        }
    }
    for (b, call, _stale_args) in sites {
        // Re-read the arguments *after* param→phi substitution: the captured
        // list predates `replace_all_uses` and may still name raw params.
        let args: Vec<Operand> = match f.op(call) {
            Some(Op::Call { args, .. }) => args.clone(),
            other => unreachable!("tail site vanished: {other:?}"),
        };
        // The tail block becomes a latch.
        for (i, &phi) in phis.iter().enumerate() {
            let arg = args[i];
            if let Some(Op::Phi { incoming }) = f.op_mut(phi) {
                incoming.push((b, arg));
            }
        }
        f.blocks[b.index()].term = Term::Br(old_entry);
        f.remove_inst(b, call);
    }
    crate::mem2reg::collapse_trivial_phis(f);
    true
}

/// Compute `readnone`/`readonly` attributes bottom-up and delete unused calls
/// to `readnone` functions (LLVM's `function-attrs` + the resulting DCE).
pub fn function_attrs(m: &mut Module, _cfg: &PassConfig) -> bool {
    let n = m.funcs.len();
    let mut readnone = vec![true; n];
    let mut readonly = vec![true; n];
    // The fixpoint below only reads the module, so each function's escapes
    // are found once.
    let escapes: Vec<Vec<bool>> = m.funcs.iter().map(util::escaping_values).collect();
    // Fixpoint: start optimistic, knock down.
    for _ in 0..n + 1 {
        let mut changed = false;
        for (i, f) in m.funcs.iter().enumerate() {
            let local = |ptr: &Operand| is_local_slot(f, &escapes[i], ptr);
            let mut rn = true;
            let mut ro = true;
            for b in f.reachable_blocks() {
                for &v in &f.blocks[b.index()].insts {
                    match f.op(v) {
                        // Accesses to the function's own non-escaping stack
                        // slots are invisible to callers (LLVM: such functions
                        // still qualify as readnone).
                        Some(Op::Load { ptr, .. }) if !local(ptr) => {
                            rn = false;
                        }
                        Some(Op::Store { ptr, .. }) if !local(ptr) => {
                            rn = false;
                            ro = false;
                        }
                        Some(Op::Ecall { .. }) => {
                            rn = false;
                            ro = false;
                        }
                        Some(Op::Call { callee, .. }) => {
                            rn &= readnone[callee.index()];
                            ro &= readonly[callee.index()];
                        }
                        _ => {}
                    }
                }
            }
            if rn != readnone[i] || (ro && rn) != (readonly[i] && readnone[i]) {
                changed = true;
            }
            if readnone[i] && !rn {
                readnone[i] = false;
                changed = true;
            }
            if readonly[i] && !ro {
                readonly[i] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut any = false;
    for (i, f) in m.funcs.iter_mut().enumerate() {
        if f.readnone != readnone[i] || f.readonly != (readonly[i] || readnone[i]) {
            any = true;
        }
        f.readnone = readnone[i];
        f.readonly = readonly[i] || readnone[i];
    }
    // Remove unused calls to readnone functions: they cannot observe or
    // affect anything. Deleting one also assumes it returns, which LLVM
    // proves with `willreturn`; this IR has no such attribute, and the
    // assumption holds because zklang functions terminate on study inputs.
    // Each block's list as the walk found it (removals edit the live one).
    let mut insts: Vec<ValueId> = Vec::new();
    for f in &mut m.funcs {
        for b in f.block_ids() {
            insts.clone_from(&f.blocks[b.index()].insts);
            for &v in &insts {
                let Some(Op::Call { callee, .. }) = f.op(v) else {
                    continue;
                };
                if readnone[callee.index()] && f.use_count(v) == 0 {
                    f.remove_inst(b, v);
                    any = true;
                }
            }
        }
        any |= util::sweep_dead(f);
    }
    any
}

/// Whether a pointer operand is a non-escaping alloca of `f` (a private
/// stack slot no caller can observe), given `f`'s
/// [`util::escaping_values`].
fn is_local_slot(f: &Function, escapes: &[bool], ptr: &Operand) -> bool {
    match util::ptr_base(f, ptr) {
        util::PtrBase::Alloca(a) => !escapes[a.index()],
        _ => false,
    }
}

/// `attributor`: `function-attrs` plus dead-argument elimination — the
/// combination LLVM's attributor framework subsumes.
pub fn attributor(m: &mut Module, cfg: &PassConfig) -> bool {
    let a = function_attrs(m, cfg);
    let b = deadargelim(m, cfg);
    a || b
}

/// Dead-argument elimination (lite): arguments unused by the callee are
/// replaced with constant zero at every call site, letting DCE delete the
/// computation that produced them. (We keep the parameter slot so `FuncId`s
/// and signatures stay stable — LLVM rewrites the signature; the dynamic
/// effect is the same.)
pub fn deadargelim(m: &mut Module, _cfg: &PassConfig) -> bool {
    let n = m.funcs.len();
    let mut dead: Vec<Vec<bool>> = Vec::with_capacity(n);
    for f in &m.funcs {
        let uses = f.use_counts();
        let d: Vec<bool> = (0..f.params.len())
            .map(|i| uses[f.param(i).index()] == 0)
            .collect();
        dead.push(d);
    }
    let mut changed = false;
    for f in &mut m.funcs {
        for b in f.block_ids() {
            let insts = f.blocks[b.index()].insts.clone();
            for v in insts {
                let Some(Op::Call { callee, args }) = f.op(v) else {
                    continue;
                };
                let callee = *callee;
                let mut new_args = args.clone();
                let mut local = false;
                for (i, a) in new_args.iter_mut().enumerate() {
                    if dead[callee.index()].get(i) == Some(&true) && a.as_const().is_none() {
                        let ty = m_ty(a);
                        *a = match ty {
                            Some(Ty::I1) => Operand::bool(false),
                            Some(Ty::Ptr) => Operand::Const {
                                value: 0,
                                ty: Ty::Ptr,
                            },
                            _ => Operand::i32(0),
                        };
                        local = true;
                    }
                }
                if local {
                    if let Some(Op::Call { args, .. }) = f.op_mut(v) {
                        *args = new_args;
                    }
                    changed = true;
                }
            }
        }
        if changed {
            util::sweep_dead(f);
        }
    }
    changed
}

// Operand types are only needed for constants here; values keep their type.
fn m_ty(o: &Operand) -> Option<Ty> {
    match o {
        Operand::Const { ty, .. } => Some(*ty),
        Operand::Value(_) => None,
    }
}

/// Fold loads from never-written globals with constant addresses into
/// constants.
pub fn globalopt(m: &mut Module, _cfg: &PassConfig) -> bool {
    let written = util::written_globals(m);
    // Fold loads at constant offsets.
    let globals = m.globals.clone();
    let mut changed = false;
    for f in &mut m.funcs {
        for b in f.block_ids() {
            let insts = f.blocks[b.index()].insts.clone();
            for v in insts {
                let Some(Op::Load { ptr, ty }) = f.op(v).cloned() else {
                    continue;
                };
                let Some((g, off)) = const_global_offset(f, &ptr) else {
                    continue;
                };
                if written[g.index()] {
                    continue;
                }
                let data = &globals[g.index()];
                let size = ty.size_bytes() as usize;
                let off = off as usize;
                if off + size > data.size as usize {
                    continue;
                }
                let mut bytes = [0u8; 4];
                for (i, slot) in bytes.iter_mut().enumerate().take(size) {
                    *slot = data.init.get(off + i).copied().unwrap_or(0);
                }
                let raw = u32::from_le_bytes(bytes) as i64;
                let c = match ty {
                    Ty::I1 => Operand::bool(raw & 1 != 0),
                    Ty::I8 => Operand::i8(raw as u8),
                    Ty::I32 => Operand::i32(raw as i32),
                    Ty::Ptr => Operand::Const {
                        value: raw,
                        ty: Ty::Ptr,
                    },
                };
                f.replace_all_uses(v, c);
                f.remove_inst(b, v);
                changed = true;
            }
        }
        if changed {
            util::sweep_dead(f);
        }
    }
    changed
}

/// Resolve a pointer to (global, constant byte offset) if possible.
fn const_global_offset(f: &Function, o: &Operand) -> Option<(zkvmopt_ir::GlobalId, i64)> {
    match o {
        Operand::Value(v) => match f.op(*v)? {
            Op::GlobalAddr(g) => Some((*g, 0)),
            Op::Gep {
                base,
                index,
                stride,
                offset,
            } => {
                let (g, base_off) = const_global_offset(f, base)?;
                let i = index.as_const()?;
                Some((g, base_off + i * (*stride as i64) + *offset as i64))
            }
            Op::Copy(x) => const_global_offset(f, x),
            _ => None,
        },
        _ => None,
    }
}

/// Gut functions unreachable from `main` in the call graph (bodies become a
/// single `unreachable`; ids stay stable).
pub fn globaldce(m: &mut Module, _cfg: &PassConfig) -> bool {
    let Some(main) = m.main_func() else {
        return false;
    };
    let n = m.funcs.len();
    let mut live = vec![false; n];
    let mut work = vec![main];
    while let Some(fi) = work.pop() {
        if live[fi.index()] {
            continue;
        }
        live[fi.index()] = true;
        let f = &m.funcs[fi.index()];
        for b in f.reachable_blocks() {
            for &v in &f.blocks[b.index()].insts {
                if let Some(Op::Call { callee, .. }) = f.op(v) {
                    work.push(*callee);
                }
            }
        }
    }
    let mut changed = false;
    for (i, f) in m.funcs.iter_mut().enumerate() {
        if live[i] || f.size() == 0 {
            continue;
        }
        let fresh = Function::new(f.name.clone(), f.params.clone(), f.ret);
        let name_keep = std::mem::replace(f, fresh);
        let _ = name_keep;
        f.blocks[f.entry.index()].term = Term::Unreachable;
        changed = true;
    }
    changed
}

/// Which globals have their address compared, indexed by global: an `icmp`
/// operand [`util::ptr_base`] traces to the global. Blocks unreachable from
/// entry never run and are not read.
fn compared_globals(m: &Module) -> Vec<bool> {
    let mut compared = vec![false; m.globals.len()];
    for f in &m.funcs {
        for b in f.reachable_blocks() {
            for &v in &f.blocks[b.index()].insts {
                if let Some(Op::Icmp { a, b, .. }) = f.op(v) {
                    for o in [a, b] {
                        if let util::PtrBase::Global(g) = util::ptr_base(f, o) {
                            compared[g.index()] = true;
                        }
                    }
                }
            }
        }
    }
    compared
}

/// Merge identical read-only globals (same size, init, alignment) whose
/// addresses are never compared: merging two compared globals would make
/// distinct addresses equal (LLVM merges only `unnamed_addr` globals).
pub fn constmerge(m: &mut Module, _cfg: &PassConfig) -> bool {
    let written = util::written_globals(m);
    let compared = compared_globals(m);
    let mut canon: FxHashMap<(u32, Vec<u8>, u32), usize> = FxHashMap::default();
    let mut replace: FxHashMap<usize, usize> = FxHashMap::default();
    for (i, g) in m.globals.iter().enumerate() {
        if written[i] || compared[i] {
            continue;
        }
        let key = (g.size, g.init.clone(), g.align);
        match canon.get(&key) {
            Some(&j) => {
                replace.insert(i, j);
            }
            None => {
                canon.insert(key, i);
            }
        }
    }
    if replace.is_empty() {
        return false;
    }
    let mut changed = false;
    for f in &mut m.funcs {
        for b in f.block_ids() {
            let insts = f.blocks[b.index()].insts.clone();
            for v in insts {
                if let Some(Op::GlobalAddr(g)) = f.op(v) {
                    if let Some(&j) = replace.get(&g.index()) {
                        *f.op_mut(v).expect("inst") =
                            Op::GlobalAddr(zkvmopt_ir::GlobalId(j as u32));
                        changed = true;
                    }
                }
            }
        }
    }
    changed
}

/// The per-access escape scans `function_attrs` replaced, kept as a test
/// oracle: the registry's `function-attrs` and `attributor` must leave the
/// whole `Module` and the change flag as these do.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// `function-attrs` as it was: a whole-function escape scan per load or
    /// store of a stack slot, in every round of the fixpoint.
    pub(crate) fn function_attrs(m: &mut Module, _cfg: &PassConfig) -> bool {
        let n = m.funcs.len();
        let mut readnone = vec![true; n];
        let mut readonly = vec![true; n];
        // Fixpoint: start optimistic, knock down.
        for _ in 0..n + 1 {
            let mut changed = false;
            for (i, f) in m.funcs.iter().enumerate() {
                let mut rn = true;
                let mut ro = true;
                for b in f.reachable_blocks() {
                    for &v in &f.blocks[b.index()].insts {
                        match f.op(v) {
                            // Accesses to the function's own non-escaping stack
                            // slots are invisible to callers (LLVM: such functions
                            // still qualify as readnone).
                            Some(Op::Load { ptr, .. }) if !is_local_slot(f, ptr) => {
                                rn = false;
                            }
                            Some(Op::Store { ptr, .. }) if !is_local_slot(f, ptr) => {
                                rn = false;
                                ro = false;
                            }
                            Some(Op::Ecall { .. }) => {
                                rn = false;
                                ro = false;
                            }
                            Some(Op::Call { callee, .. }) => {
                                rn &= readnone[callee.index()];
                                ro &= readonly[callee.index()];
                            }
                            _ => {}
                        }
                    }
                }
                if rn != readnone[i] || (ro && rn) != (readonly[i] && readnone[i]) {
                    changed = true;
                }
                if readnone[i] && !rn {
                    readnone[i] = false;
                    changed = true;
                }
                if readonly[i] && !ro {
                    readonly[i] = false;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let mut any = false;
        for (i, f) in m.funcs.iter_mut().enumerate() {
            if f.readnone != readnone[i] || f.readonly != (readonly[i] || readnone[i]) {
                any = true;
            }
            f.readnone = readnone[i];
            f.readonly = readonly[i] || readnone[i];
        }
        // Remove unused calls to readnone functions: they cannot observe or
        // affect anything. Deleting one also assumes it returns, which LLVM
        // proves with `willreturn`; this IR has no such attribute, and the
        // assumption holds because zklang functions terminate on study inputs.
        for f in &mut m.funcs {
            for b in f.block_ids() {
                let insts = f.blocks[b.index()].insts.clone();
                for v in insts {
                    let Some(Op::Call { callee, .. }) = f.op(v) else {
                        continue;
                    };
                    if readnone[callee.index()] && f.use_count(v) == 0 {
                        f.remove_inst(b, v);
                        any = true;
                    }
                }
            }
            any |= util::sweep_dead(f);
        }
        any
    }

    fn is_local_slot(f: &Function, ptr: &Operand) -> bool {
        match util::ptr_base(f, ptr) {
            util::PtrBase::Alloca(a) => !util::oracle::alloca_escapes(f, a),
            _ => false,
        }
    }

    /// The registry's `attributor` on the old `function-attrs` body.
    pub(crate) fn attributor(m: &mut Module, cfg: &PassConfig) -> bool {
        let a = function_attrs(m, cfg);
        let b = deadargelim(m, cfg);
        a || b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::check_pass_preserves;
    use crate::PassConfig;

    #[test]
    fn inline_splices_simple_callee() {
        let src = "fn sq(x: i32) -> i32 { return x * x; }
                   fn main() -> i32 { return sq(read_input(0)) + sq(3); }";
        let cfg = PassConfig::default();
        check_pass_preserves(src, &["mem2reg", "inline"], &cfg);
        let mut m = zkvmopt_lang::compile(src).unwrap();
        crate::run_pass("mem2reg", &mut m, &cfg);
        crate::run_pass("inline", &mut m, &cfg);
        let main = &m.funcs[m.main_func().unwrap().index()];
        assert!(!util::has_calls(main), "calls should be gone");
    }

    #[test]
    fn inline_handles_control_flow_and_multiple_returns() {
        let src = "fn clamp(x: i32) -> i32 {
                     if (x < 0) { return 0; }
                     if (x > 100) { return 100; }
                     return x;
                   }
                   fn main() -> i32 {
                     let mut s: i32 = 0;
                     for (let mut i: i32 = -3; i < 110; i += 13) { s += clamp(i); }
                     return s;
                   }";
        let cfg = PassConfig::default();
        check_pass_preserves(src, &["mem2reg", "inline", "simplifycfg"], &cfg);
    }

    #[test]
    fn inline_respects_threshold_and_noinline() {
        let src = "#[inline(never)] fn f(x: i32) -> i32 { return x + 1; }
                   fn main() -> i32 { return f(1); }";
        let cfg = PassConfig::default();
        let mut m = zkvmopt_lang::compile(src).unwrap();
        crate::run_pass("inline", &mut m, &cfg);
        let main = &m.funcs[m.main_func().unwrap().index()];
        assert!(util::has_calls(main), "noinline must be honoured");
    }

    #[test]
    fn always_inline_ignores_size() {
        let src = "
            #[inline(always)]
            fn big(x: i32) -> i32 {
                let mut s: i32 = x;
                s += 1; s += 2; s += 3; s += 4; s += 5; s += 6; s += 7; s += 8;
                s += 1; s += 2; s += 3; s += 4; s += 5; s += 6; s += 7; s += 8;
                return s;
            }
            fn main() -> i32 { return big(4); }";
        // Threshold too small for `big`; always-inline must override it.
        let cfg = PassConfig {
            inline_threshold: 1,
            ..Default::default()
        };
        let mut m = zkvmopt_lang::compile(src).unwrap();
        crate::run_pass("always-inline", &mut m, &cfg);
        let main = &m.funcs[m.main_func().unwrap().index()];
        assert!(!util::has_calls(main));
        check_pass_preserves(src, &["always-inline"], &cfg);
    }

    #[test]
    fn inline_skips_recursive_functions() {
        let src = "fn fib(n: i32) -> i32 {
                     if (n < 2) { return n; }
                     return fib(n - 1) + fib(n - 2);
                   }
                   fn main() -> i32 { return fib(8); }";
        let cfg = PassConfig::default();
        check_pass_preserves(src, &["mem2reg", "inline"], &cfg);
        let mut m = zkvmopt_lang::compile(src).unwrap();
        crate::run_pass("inline", &mut m, &cfg);
        let main = &m.funcs[m.main_func().unwrap().index()];
        assert!(util::has_calls(main), "recursion is not inlinable");
    }

    #[test]
    fn tailcall_turns_recursion_into_loop() {
        let src = "fn gcd(a: i32, b: i32) -> i32 {
                     if (b == 0) { return a; }
                     return gcd(b, a % b);
                   }
                   fn main() -> i32 { return gcd(1071, 462); }";
        let cfg = PassConfig::default();
        check_pass_preserves(src, &["mem2reg", "simplifycfg", "tailcall"], &cfg);
        let mut m = zkvmopt_lang::compile(src).unwrap();
        for p in ["mem2reg", "simplifycfg", "tailcall"] {
            crate::run_pass(p, &mut m, &cfg);
        }
        let gcd = &m.funcs[m.func_by_name("gcd").unwrap().index()];
        assert!(!gcd.calls(m.func_by_name("gcd").unwrap()), "self-call gone");
    }

    #[test]
    fn function_attrs_marks_pure_and_removes_dead_calls() {
        let src = "fn pure_math(x: i32) -> i32 { return x * x + 1; }
                   fn main() -> i32 {
                     let unused: i32 = pure_math(9);
                     return 3;
                   }";
        let cfg = PassConfig::default();
        let (before, after) =
            check_pass_preserves(src, &["mem2reg", "function-attrs", "dce"], &cfg);
        assert!(after < before);
        let mut m = zkvmopt_lang::compile(src).unwrap();
        crate::run_pass("function-attrs", &mut m, &cfg);
        let pm = &m.funcs[m.func_by_name("pure_math").unwrap().index()];
        assert!(pm.readnone);
    }

    #[test]
    fn deadargelim_zeroes_unused_args() {
        let src = "fn pick(a: i32, unused: i32) -> i32 { return a; }
                   fn main() -> i32 {
                     let x: i32 = read_input(0);
                     return pick(7, x * 12345);
                   }";
        let cfg = PassConfig::default();
        check_pass_preserves(src, &["mem2reg", "deadargelim", "dce"], &cfg);
    }

    #[test]
    fn globalopt_folds_readonly_table_loads() {
        let src = "static T: [i32; 4] = [2, 4, 8, 16];
                   fn main() -> i32 { return T[0] + T[2]; }";
        let cfg = PassConfig::default();
        let (before, after) = check_pass_preserves(src, &["instcombine", "globalopt", "dce"], &cfg);
        assert!(after < before, "loads should fold: {before} -> {after}");
    }

    #[test]
    fn globaldce_guts_unreachable_functions() {
        let src = "fn unused_helper(x: i32) -> i32 { return x * 2 + 1; }
                   fn main() -> i32 { return 4; }";
        let cfg = PassConfig::default();
        let (before, after) = check_pass_preserves(src, &["globaldce"], &cfg);
        assert!(after < before);
    }

    #[test]
    fn constmerge_unifies_identical_tables() {
        let src = "static A: [i32; 2] = [9, 9];
                   static B: [i32; 2] = [9, 9];
                   fn main() -> i32 { return A[0] + B[1]; }";
        check_pass_preserves(src, &["constmerge"], &PassConfig::default());
    }

    #[test]
    fn constmerge_keeps_a_global_whose_address_is_stored() {
        // Inlining spills `p`, so `A`'s address is stored as data and `A` is
        // written through the reloaded pointer: merging `A` and `B` exits 44.
        let src = "static A: [i32; 4];
                   static B: [i32; 4];
                   fn put(p: *i32, x: i32) { p[1] = x; }
                   fn main() -> i32 {
                     put(A, read_input(0) + 3);
                     return B[1] * 10 + A[1];
                   }";
        check_pass_preserves(src, &["inline", "constmerge"], &PassConfig::default());
    }

    /// A program that stores through a pointer `mem2reg` turns into a phi of
    /// two globals' addresses, then returns `ret`.
    fn store_through_phi(ret: &str) -> String {
        format!(
            "static T: [i32; 1];
             static U: [i32; 1];
             fn main() -> i32 {{
               let c: i32 = read_input(0);
               let mut p: *i32 = U;
               if (c > 0) {{ p = T; }}
               p[0] = 9;
               return {ret};
             }}"
        )
    }

    #[test]
    fn globalopt_keeps_a_global_stored_through_a_phi() {
        let src = store_through_phi("T[0]");
        check_pass_preserves(&src, &["mem2reg", "globalopt"], &PassConfig::default());
    }

    #[test]
    fn constmerge_keeps_a_global_stored_through_a_phi() {
        let src = store_through_phi("T[0] * 10 + U[0]");
        check_pass_preserves(&src, &["mem2reg", "constmerge"], &PassConfig::default());
    }

    #[test]
    fn constmerge_keeps_globals_whose_addresses_are_compared() {
        // Neither table is written, but merging them makes `p == q` hold:
        // exit 0 becomes 1.
        let src = "static A: [i32; 2];
                   static B: [i32; 2];
                   fn main() -> i32 {
                     let p: *i32 = A;
                     let q: *i32 = B;
                     if (p == q) { return 1; }
                     return 0;
                   }";
        check_pass_preserves(src, &["mem2reg", "constmerge"], &PassConfig::default());
    }

    #[test]
    fn partial_inliner_handles_guarded_functions() {
        let src = "fn guarded(x: i32) -> i32 {
                     if (x <= 0) { return 0; }
                     let mut s: i32 = 0;
                     for (let mut i: i32 = 0; i < x; i += 1) { s += i * i; }
                     return s;
                   }
                   fn main() -> i32 { return guarded(read_input(0)) + guarded(-5); }";
        check_pass_preserves(src, &["mem2reg", "partial-inliner"], &PassConfig::default());
    }
}
