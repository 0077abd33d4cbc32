//! Control-flow-graph utilities: predecessors, successors, orderings.

use crate::func::{BlockId, Function};
use std::collections::HashSet;

/// Precomputed CFG adjacency for a function.
///
/// Building one is linear in the function (a reachability walk, an adjacency
/// fill, an RPO walk) but not free: it allocates per block. Analyses read it
/// through the [`AnalysisCache`](crate::analysis::AnalysisCache); a transform
/// that edits the block graph builds its own, and should build it once per
/// *structural change* at most — `simplifycfg` shares one `Cfg` across its
/// steps until a step changes the graph, and contracts a whole chain of
/// blocks against a single one — never once per rewritten block or value.
#[derive(Debug, Clone)]
pub struct Cfg {
    preds: Vec<Vec<BlockId>>,
    succs: Vec<Vec<BlockId>>,
    rpo: Vec<BlockId>,
    rpo_index: Vec<usize>,
}

impl Cfg {
    /// Compute the CFG of `f` (reachable portion only; unreachable blocks get
    /// empty adjacency and `usize::MAX` RPO index).
    pub fn new(f: &Function) -> Cfg {
        let n = f.blocks.len();
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        let reachable: HashSet<BlockId> = f.reachable_blocks().into_iter().collect();
        for b in f.block_ids() {
            if !reachable.contains(&b) {
                continue;
            }
            for s in f.blocks[b.index()].term.successors() {
                succs[b.index()].push(s);
                preds[s.index()].push(b);
            }
        }
        // Reverse postorder via iterative DFS.
        let mut post = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        // Stack of (block, next successor index).
        let mut stack: Vec<(BlockId, usize)> = vec![(f.entry, 0)];
        seen[f.entry.index()] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            let ss = &succs[b.index()];
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
        Cfg {
            preds,
            succs,
            rpo: post,
            rpo_index,
        }
    }

    /// Predecessors of `b` (with multiplicity, matching multi-edges).
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.index()]
    }

    /// Successors of `b`.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[b.index()]
    }

    /// Reachable blocks in reverse postorder (entry first).
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Position of `b` in the reverse postorder, or `usize::MAX` if
    /// unreachable.
    pub fn rpo_index(&self, b: BlockId) -> usize {
        self.rpo_index[b.index()]
    }

    /// Whether `b` is reachable from entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.index()] != usize::MAX
    }

    /// Unique predecessors (collapsing multi-edges from switches/cond-brs).
    pub fn unique_preds(&self, b: BlockId) -> Vec<BlockId> {
        let mut v = self.preds(b).to_vec();
        v.sort();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{Operand, Pred};
    use crate::ty::Ty;

    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("d", vec![Ty::I32], Some(Ty::I32));
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let c = b.icmp(Pred::Sgt, Operand::val(b.param(0)), Operand::i32(0));
        b.cond_br(Operand::val(c), t, e);
        b.switch_to(t);
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.switch_to(j);
        b.ret(Some(Operand::i32(0)));
        b.finish()
    }

    #[test]
    fn diamond_adjacency() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.succs(BlockId(0)).len(), 2);
        assert_eq!(cfg.preds(BlockId(3)).len(), 2);
        assert_eq!(cfg.rpo()[0], BlockId(0));
        assert_eq!(cfg.rpo().len(), 4);
        // Join must come after both arms in RPO.
        assert!(cfg.rpo_index(BlockId(3)) > cfg.rpo_index(BlockId(1)));
        assert!(cfg.rpo_index(BlockId(3)) > cfg.rpo_index(BlockId(2)));
    }

    #[test]
    fn unreachable_block_excluded() {
        let mut f = diamond();
        let orphan = f.add_block();
        f.blocks[orphan.index()].term = crate::Term::Ret(None);
        let cfg = Cfg::new(&f);
        assert!(!cfg.is_reachable(orphan));
        assert_eq!(cfg.rpo().len(), 4);
    }

    #[test]
    fn multi_edge_dedup() {
        // cond_br with both targets the same block.
        let mut b = FunctionBuilder::new("m", vec![], None);
        let j = b.new_block();
        b.cond_br(Operand::bool(true), j, j);
        b.switch_to(j);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.preds(j).len(), 2);
        assert_eq!(cfg.unique_preds(j).len(), 1);
    }
}
