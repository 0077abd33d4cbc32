//! Control-flow-graph utilities: predecessors, successors, orderings.

use crate::func::{BlockId, Function};

/// Precomputed CFG adjacency for a function.
///
/// Built from one iterative DFS from the entry (reachability and reverse
/// postorder come out of the same walk) and two linear fills of flat edge
/// arrays indexed by block-id offsets. Analyses read it through the
/// [`AnalysisCache`](crate::analysis::AnalysisCache); a transform that edits
/// the block graph builds its own, and should build it once per *structural
/// change* at most — `simplifycfg` shares one `Cfg` across its steps until a
/// step changes the graph, and contracts a whole chain of blocks against a
/// single one — never once per rewritten block or value.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// `succs[succ_at[b]..succ_at[b + 1]]` are block `b`'s successors.
    succ_at: Vec<u32>,
    succs: Vec<BlockId>,
    /// `preds[pred_at[b]..pred_at[b + 1]]` are block `b`'s predecessors.
    pred_at: Vec<u32>,
    preds: Vec<BlockId>,
    rpo: Vec<BlockId>,
    rpo_index: Vec<usize>,
}

impl Cfg {
    /// Compute the CFG of `f` (reachable portion only; unreachable blocks get
    /// empty adjacency and `usize::MAX` RPO index).
    pub fn new(f: &Function) -> Cfg {
        let n = f.blocks.len();
        // Iterative DFS; `rpo_index` marks visited blocks (0) until it is
        // filled in from the postorder.
        let mut rpo_index = vec![usize::MAX; n];
        let mut rpo = Vec::with_capacity(n);
        let walk = |b: BlockId| (b, f.blocks[b.index()].term.succs());
        let mut stack = vec![walk(f.entry)];
        rpo_index[f.entry.index()] = 0;
        while let Some((b, succs)) = stack.last_mut() {
            match succs.next() {
                Some(s) if rpo_index[s.index()] == usize::MAX => {
                    rpo_index[s.index()] = 0;
                    stack.push(walk(s));
                }
                Some(_) => {}
                None => {
                    rpo.push(*b);
                    stack.pop();
                }
            }
        }
        rpo.reverse();
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = i;
        }
        // Successors of reachable blocks, counting each edge at its target.
        let mut succ_at = Vec::with_capacity(n + 1);
        let mut succs = Vec::new();
        let mut pred_at = vec![0u32; n + 1];
        succ_at.push(0);
        for (b, data) in f.blocks.iter().enumerate() {
            if rpo_index[b] != usize::MAX {
                for s in data.term.succs() {
                    succs.push(s);
                    pred_at[s.index()] += 1;
                }
            }
            succ_at.push(succs.len() as u32);
        }
        // Each target's range ends at its inclusive prefix sum; filling the
        // ranges back to front, sources in descending id order, leaves
        // `pred_at` at the range starts and every range ascending.
        let mut total = 0;
        for at in &mut pred_at {
            total += *at;
            *at = total;
        }
        let mut preds = vec![BlockId(0); succs.len()];
        for b in (0..n).rev() {
            for s in succs[succ_at[b] as usize..succ_at[b + 1] as usize]
                .iter()
                .rev()
            {
                pred_at[s.index()] -= 1;
                preds[pred_at[s.index()] as usize] = BlockId(b as u32);
            }
        }
        Cfg {
            succ_at,
            succs,
            pred_at,
            preds,
            rpo,
            rpo_index,
        }
    }

    /// Predecessors of `b` in ascending id order (with multiplicity,
    /// matching multi-edges).
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[self.pred_at[b.index()] as usize..self.pred_at[b.index() + 1] as usize]
    }

    /// Successors of `b`, in branch order.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[self.succ_at[b.index()] as usize..self.succ_at[b.index() + 1] as usize]
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

    /// Unique predecessors (collapsing the multi-edge of a `condbr` whose arms agree).
    pub fn unique_preds(&self, b: BlockId) -> Vec<BlockId> {
        let mut v = self.preds(b).to_vec();
        v.dedup(); // already ascending
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
