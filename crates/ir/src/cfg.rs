//! Control-flow-graph utilities: predecessors, successors, orderings.

use crate::func::{BlockId, Function};

/// Precomputed CFG adjacency for a function.
///
/// Built from one iterative DFS from the entry (reachability and reverse
/// postorder come out of the same walk) and two linear fills of one flat
/// block list indexed by block-id offsets, so a `Cfg` costs three
/// allocations whatever the function's size. Analyses read it through the
/// [`AnalysisCache`](crate::analysis::AnalysisCache); a transform that edits
/// the block graph builds its own, and should build it once per *structural
/// change* at most — `simplifycfg` shares one `Cfg` across its steps until a
/// step changes the graph, and contracts a whole chain of blocks against a
/// single one — never once per rewritten block or value.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// The reverse postorder, then every reachable block's successors (in
    /// block-id order), then every block's predecessors.
    lists: Vec<BlockId>,
    /// `n + 1` successor offsets into `lists`, then `n + 1` predecessor
    /// offsets, then each block's reverse-postorder index (`u32::MAX` when
    /// unreachable): `lists[at[b]..at[b + 1]]` are block `b`'s successors and
    /// `lists[at[n + 1 + b]..at[n + 2 + b]]` its predecessors. `at[0]` is
    /// where the reverse postorder ends.
    at: Vec<u32>,
    /// Number of blocks of the function.
    n: usize,
}

impl Cfg {
    /// Compute the CFG of `f` (reachable portion only; unreachable blocks get
    /// empty adjacency and `usize::MAX` RPO index).
    pub fn new(f: &Function) -> Cfg {
        const UNSEEN: u32 = u32::MAX;
        let n = f.blocks.len();
        let edges: usize = f.blocks.iter().map(|b| b.term.succs().count()).sum();
        let mut lists = Vec::with_capacity(n + 2 * edges);
        let mut at = vec![0u32; 3 * n + 2];
        let (offsets, rpo_index) = at.split_at_mut(2 * (n + 1));
        rpo_index.fill(UNSEEN);
        // Iterative DFS; `rpo_index` marks visited blocks (0) until it is
        // filled in from the postorder, which `lists` collects.
        let walk = |b: BlockId| (b, f.blocks[b.index()].term.succs());
        let mut stack = Vec::with_capacity(n);
        stack.push(walk(f.entry));
        rpo_index[f.entry.index()] = 0;
        while let Some((b, succs)) = stack.last_mut() {
            match succs.next() {
                Some(s) if rpo_index[s.index()] == UNSEEN => {
                    rpo_index[s.index()] = 0;
                    stack.push(walk(s));
                }
                Some(_) => {}
                None => {
                    lists.push(*b);
                    stack.pop();
                }
            }
        }
        lists.reverse();
        for (i, b) in lists.iter().enumerate() {
            rpo_index[b.index()] = i as u32;
        }
        // Successors of reachable blocks, counting each edge at its target.
        let (succ_at, pred_at) = offsets.split_at_mut(n + 1);
        succ_at[0] = lists.len() as u32;
        for (b, data) in f.blocks.iter().enumerate() {
            if rpo_index[b] != UNSEEN {
                for s in data.term.succs() {
                    lists.push(s);
                    pred_at[s.index()] += 1;
                }
            }
            succ_at[b + 1] = lists.len() as u32;
        }
        // Each target's range ends at its inclusive prefix sum; filling the
        // ranges back to front, sources in descending id order, leaves
        // `pred_at` at the range starts and every range ascending.
        let mut total = lists.len() as u32;
        for at in pred_at.iter_mut() {
            total += *at;
            *at = total;
        }
        lists.resize(total as usize, BlockId(0));
        for b in (0..n).rev() {
            for i in (succ_at[b]..succ_at[b + 1]).rev() {
                let s = lists[i as usize];
                pred_at[s.index()] -= 1;
                lists[pred_at[s.index()] as usize] = BlockId(b as u32);
            }
        }
        Cfg { lists, at, n }
    }

    /// Predecessors of `b` in ascending id order (with multiplicity,
    /// matching multi-edges).
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        let at = &self.at[self.n + 1 + b.index()..];
        &self.lists[at[0] as usize..at[1] as usize]
    }

    /// Successors of `b`, in branch order.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.lists[self.at[b.index()] as usize..self.at[b.index() + 1] as usize]
    }

    /// Reachable blocks in reverse postorder (entry first).
    pub fn rpo(&self) -> &[BlockId] {
        &self.lists[..self.at[0] as usize]
    }

    /// Position of `b` in the reverse postorder, or `usize::MAX` if
    /// unreachable.
    pub fn rpo_index(&self, b: BlockId) -> usize {
        match self.at[2 * (self.n + 1) + b.index()] {
            u32::MAX => usize::MAX,
            i => i as usize,
        }
    }

    /// Whether `b` is reachable from entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index(b) != usize::MAX
    }

    /// Unique predecessors in ascending id order (collapsing the multi-edge
    /// of a `condbr` whose arms agree), without allocating.
    pub fn unique_preds(&self, b: BlockId) -> impl Iterator<Item = BlockId> + Clone + '_ {
        let preds = self.preds(b);
        preds
            .iter()
            .enumerate()
            .filter(move |&(i, p)| i == 0 || preds[i - 1] != *p)
            .map(|(_, &p)| p)
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
        assert!(cfg.unique_preds(j).eq([f.entry]));
    }
}
