//! The hash-set bodies of `zkvmopt-ir`'s `Cfg::new` and `LoopForest::new`,
//! and the collecting walk behind `Function::reachable_blocks` and
//! `Function::size`, kept as test oracles for the dense rewrites.
//!
//! They live here rather than beside the analyses because only this crate's
//! tests can produce the states worth checking — every function after every
//! pass of `-O3` — and `#[cfg(test)]` items of `zkvmopt-ir` are invisible to
//! them. Both read only public API, so they are the old bodies verbatim save
//! for returning plain data instead of the private fields they used to fill.

use zkvmopt_ir::cfg::Cfg;
use zkvmopt_ir::dom::DomTree;
use zkvmopt_ir::hash::FxHashSet;
use zkvmopt_ir::loops::LoopForest;
use zkvmopt_ir::{BlockId, FuncId, Function, Op};

/// `Function::reachable_blocks` as it was: a seen vector, a stack, and the
/// preorder collected as it goes.
fn reachable_stacked(f: &Function) -> Vec<BlockId> {
    let mut seen = vec![false; f.blocks.len()];
    let mut order = Vec::new();
    let mut stack = vec![f.entry];
    while let Some(b) = stack.pop() {
        if std::mem::replace(&mut seen[b.index()], true) {
            continue;
        }
        order.push(b);
        stack.extend(f.blocks[b.index()].term.succs().rev());
    }
    order
}

/// What the old `Cfg::new` computed.
struct OldCfg {
    preds: Vec<Vec<BlockId>>,
    succs: Vec<Vec<BlockId>>,
    rpo: Vec<BlockId>,
    rpo_index: Vec<usize>,
}

/// `Cfg::new` as it was: a reachable `HashSet`, per-block adjacency vectors,
/// then a second DFS over them for the reverse postorder.
fn cfg_hashed(f: &Function) -> OldCfg {
    let n = f.blocks.len();
    let mut preds = vec![Vec::new(); n];
    let mut succs = vec![Vec::new(); n];
    let reachable: FxHashSet<BlockId> = reachable_stacked(f).into_iter().collect();
    for b in f.block_ids() {
        if !reachable.contains(&b) {
            continue;
        }
        for s in f.blocks[b.index()].term.succs() {
            succs[b.index()].push(s);
            preds[s.index()].push(b);
        }
    }
    let mut post = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut stack: Vec<(BlockId, usize)> = vec![(f.entry, 0)];
    seen[f.entry.index()] = true;
    while let Some(&mut (b, ref mut i)) = stack.last_mut() {
        let ss: &Vec<BlockId> = &succs[b.index()];
        if *i < ss.len() {
            let s = ss[*i];
            *i += 1;
            if !seen[s.index()] {
                seen[s.index()] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(b);
            stack.pop();
        }
    }
    post.reverse();
    let mut rpo_index = vec![usize::MAX; n];
    for (i, b) in post.iter().enumerate() {
        rpo_index[b.index()] = i;
    }
    OldCfg {
        preds,
        succs,
        rpo: post,
        rpo_index,
    }
}

/// What the old `LoopForest::new` computed for one loop.
struct OldLoop {
    header: BlockId,
    blocks: FxHashSet<BlockId>,
    latches: Vec<BlockId>,
    exiting: Vec<BlockId>,
    exits: Vec<BlockId>,
    depth: usize,
    parent: Option<usize>,
}

/// `LoopForest::new` as it was: one `HashSet` body per loop, nesting by a
/// per-element containment scan. Reads the adjacency of [`cfg_hashed`].
fn loops_hashed(f: &Function, cfg: &OldCfg, dom: &DomTree) -> Vec<OldLoop> {
    let mut headers: Vec<BlockId> = Vec::new();
    let mut latches_of: Vec<Vec<BlockId>> = Vec::new();
    for &b in &cfg.rpo {
        for &s in &cfg.succs[b.index()] {
            if dom.dominates(s, b) {
                match headers.iter().position(|h| *h == s) {
                    Some(i) => latches_of[i].push(b),
                    None => {
                        headers.push(s);
                        latches_of.push(vec![b]);
                    }
                }
            }
        }
    }
    let mut loops = Vec::new();
    for (h, latches) in headers.into_iter().zip(latches_of) {
        let mut blocks: FxHashSet<BlockId> = FxHashSet::default();
        blocks.insert(h);
        let mut work: Vec<BlockId> = latches.clone();
        while let Some(b) = work.pop() {
            if blocks.insert(b) {
                for &p in &cfg.preds[b.index()] {
                    work.push(p);
                }
            }
        }
        let mut exiting = Vec::new();
        let mut exits = Vec::new();
        for &b in &blocks {
            for s in f.blocks[b.index()].term.succs() {
                if !blocks.contains(&s) {
                    if !exiting.contains(&b) {
                        exiting.push(b);
                    }
                    if !exits.contains(&s) {
                        exits.push(s);
                    }
                }
            }
        }
        exiting.sort();
        exits.sort();
        loops.push(OldLoop {
            header: h,
            blocks,
            latches,
            exiting,
            exits,
            depth: 1,
            parent: None,
        });
    }
    loops.sort_by_key(|l| std::cmp::Reverse(l.blocks.len()));
    for i in 0..loops.len() {
        let mut best: Option<usize> = None;
        for j in 0..loops.len() {
            if i == j {
                continue;
            }
            if loops[j].blocks.len() > loops[i].blocks.len()
                && loops[j].blocks.contains(&loops[i].header)
                && loops[i].blocks.iter().all(|b| loops[j].blocks.contains(b))
            {
                best = match best {
                    None => Some(j),
                    Some(k) if loops[j].blocks.len() < loops[k].blocks.len() => Some(j),
                    keep => keep,
                };
            }
        }
        loops[i].parent = best;
    }
    for i in 0..loops.len() {
        let mut d = 1;
        let mut p = loops[i].parent;
        while let Some(j) = p {
            d += 1;
            p = loops[j].parent;
        }
        loops[i].depth = d;
    }
    loops
}

/// `Cfg::new` and `LoopForest::new` against their oracles on `f`: every
/// block's adjacency and RPO position, and every loop field, in forest order.
/// Also the reachable walk (order, `size`, `calls`), `Cfg::unique_preds` and
/// `DomTree::children` against what they replaced.
pub(crate) fn check(name: &str, f: &Function) {
    let reachable = reachable_stacked(f);
    assert_eq!(f.reachable_blocks(), reachable, "{name}: reachable blocks");
    let size: usize = reachable
        .iter()
        .map(|b| f.blocks[b.index()].insts.len())
        .sum();
    assert_eq!(f.size(), size, "{name}: size");
    let callees = reachable.iter().flat_map(|b| &f.blocks[b.index()].insts);
    let callees: Vec<FuncId> = callees
        .filter_map(|&v| match f.op(v) {
            Some(Op::Call { callee, .. }) => Some(*callee),
            _ => None,
        })
        .collect();
    for id in callees.iter().copied().chain([FuncId(u32::MAX)]) {
        assert_eq!(f.calls(id), callees.contains(&id), "{name}: calls {id:?}");
    }
    let (old, cfg) = (cfg_hashed(f), Cfg::new(f));
    assert_eq!(cfg.rpo(), &old.rpo[..], "{name}: Cfg rpo");
    for b in f.block_ids() {
        let i = b.index();
        let got = (cfg.preds(b), cfg.succs(b), cfg.rpo_index(b));
        let want = (&old.preds[i][..], &old.succs[i][..], old.rpo_index[i]);
        assert_eq!(got, want, "{name}: (preds, succs, rpo_index) of {b:?}");
        let mut unique = old.preds[i].clone();
        unique.dedup();
        assert!(
            cfg.unique_preds(b).eq(unique),
            "{name}: unique preds of {b:?}"
        );
    }
    let dom = DomTree::new(f, &cfg);
    let children = dom.children();
    for b in f.block_ids() {
        let want: Vec<BlockId> = f.block_ids().filter(|&c| dom.idom(c) == Some(b)).collect();
        assert_eq!(
            children.of(b),
            &want[..],
            "{name}: dominator-tree children of {b:?}"
        );
    }
    let (old, new) = (loops_hashed(f, &old, &dom), LoopForest::new(f, &cfg, &dom));
    assert_eq!(new.loops.len(), old.len(), "{name}: loop count");
    for (i, (l, o)) in new.loops.iter().zip(&old).enumerate() {
        let ctx = format!("{name}: loop {i}");
        assert_eq!(l.header, o.header, "{ctx} header");
        assert_eq!(l.blocks.len(), o.blocks.len(), "{ctx} block count");
        for b in f.block_ids() {
            assert_eq!(l.contains(b), o.blocks.contains(&b), "{ctx} contains {b:?}");
        }
        assert_eq!(l.latches(), o.latches, "{ctx} latches");
        assert_eq!(l.exiting(), o.exiting, "{ctx} exiting");
        assert_eq!(l.exits(), o.exits, "{ctx} exits");
        assert_eq!((l.depth, l.parent), (o.depth, o.parent), "{ctx} nesting");
    }
}

/// A shape no suite state has: a loop with two exits whose latch is reached
/// along a duplicate edge from a block below a self-loop, plus an unreachable
/// predecessor.
#[test]
fn multi_exit_nest_matches_the_oracles() {
    use zkvmopt_ir::{FunctionBuilder, Operand, Ty};
    let mut b = FunctionBuilder::new("m", vec![Ty::I32], None);
    let (h, inner, mid, body, x1, x2, orphan) = (
        b.new_block(),
        b.new_block(),
        b.new_block(),
        b.new_block(),
        b.new_block(),
        b.new_block(),
        b.new_block(),
    );
    let p = Operand::val(b.param(0));
    b.br(h);
    b.switch_to(h);
    b.cond_br(p, inner, x1);
    b.switch_to(inner);
    b.cond_br(p, inner, mid);
    b.switch_to(mid);
    b.cond_br(p, body, body);
    b.switch_to(body);
    b.cond_br(p, x2, h);
    for x in [x1, x2] {
        b.switch_to(x);
        b.ret(None);
    }
    b.switch_to(orphan);
    b.br(h);
    let f = b.finish();
    check("multi-exit", &f);
    let cfg = Cfg::new(&f);
    let forest = LoopForest::new(&f, &cfg, &DomTree::new(&f, &cfg));
    let outer = &forest.loops[0];
    assert_eq!(
        (outer.exiting(), outer.exits()),
        (&[h, body][..], &[x1, x2][..])
    );
    assert_eq!(cfg.preds(body), &[mid, mid]);
    assert_eq!(forest.loops[1].parent, Some(0));
}
