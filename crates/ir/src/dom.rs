//! Dominator tree and dominance frontiers (Cooper–Harvey–Kennedy).

use crate::cfg::Cfg;
use crate::func::{BlockId, Function};

/// Immediate-dominator tree over the reachable CFG.
#[derive(Debug, Clone)]
pub struct DomTree {
    idom: Vec<Option<BlockId>>,
    rpo_index: Vec<usize>,
    entry: BlockId,
}

/// The child lists of a [`DomTree`], from [`DomTree::children`], in two flat
/// arrays.
#[derive(Debug, Clone)]
pub struct DomChildren {
    /// `list[at[b]..at[b + 1]]` are block `b`'s children.
    at: Vec<u32>,
    list: Vec<BlockId>,
}

impl DomChildren {
    /// The children of `b`, in ascending block order.
    pub fn of(&self, b: BlockId) -> &[BlockId] {
        &self.list[self.at[b.index()] as usize..self.at[b.index() + 1] as usize]
    }
}

impl DomTree {
    /// Compute dominators using the Cooper–Harvey–Kennedy iterative algorithm.
    pub fn new(f: &Function, cfg: &Cfg) -> DomTree {
        let n = f.blocks.len();
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[f.entry.index()] = Some(f.entry);
        let rpo = cfg.rpo();
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in cfg.preds(b) {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => Self::intersect(&idom, cfg, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        let rpo_index: Vec<usize> = (0..n).map(|i| cfg.rpo_index(BlockId(i as u32))).collect();
        DomTree {
            idom,
            rpo_index,
            entry: f.entry,
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "both walks start at processed blocks and climb their idom chains, which are \
                  set all the way up to the entry, the block with the lowest RPO index"
    )]
    fn intersect(idom: &[Option<BlockId>], cfg: &Cfg, mut a: BlockId, mut b: BlockId) -> BlockId {
        while a != b {
            while cfg.rpo_index(a) > cfg.rpo_index(b) {
                a = idom[a.index()].expect("walked above entry");
            }
            while cfg.rpo_index(b) > cfg.rpo_index(a) {
                b = idom[b.index()].expect("walked above entry");
            }
        }
        a
    }

    /// The immediate dominator of `b` (`None` for the entry block or
    /// unreachable blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        match self.idom[b.index()] {
            Some(d) if b != self.entry => Some(d),
            _ => None,
        }
    }

    /// Whether `a` dominates `b` (reflexively).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.rpo_index[b.index()] == usize::MAX {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom(cur) {
                Some(d) => cur = d,
                None => return false,
            }
        }
    }

    /// Whether `a` strictly dominates `b`.
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Every block's children in the tree, each list in ascending block
    /// order.
    pub fn children(&self) -> DomChildren {
        let n = self.idom.len();
        // Each parent's range ends at its inclusive prefix sum; filling back
        // to front, children in descending id order, leaves `at` at the
        // range starts and every range ascending.
        let mut at = vec![0u32; n + 1];
        let kids = || {
            (0..n as u32)
                .map(BlockId)
                .filter_map(|b| Some((self.idom(b)?, b)))
        };
        for (d, _) in kids() {
            at[d.index()] += 1;
        }
        let mut total = 0;
        for a in &mut at {
            total += *a;
            *a = total;
        }
        let mut list = vec![BlockId(0); total as usize];
        for (d, b) in kids().rev() {
            at[d.index()] -= 1;
            list[at[d.index()] as usize] = b;
        }
        DomChildren { at, list }
    }

    /// Dominance frontier of every block (used by `mem2reg` phi placement).
    pub fn dominance_frontiers(&self, cfg: &Cfg) -> Vec<Vec<BlockId>> {
        let n = self.idom.len();
        let mut df: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for i in 0..n {
            let b = BlockId(i as u32);
            if !cfg.is_reachable(b) {
                continue;
            }
            let preds = cfg.unique_preds(b);
            if preds.clone().nth(1).is_none() {
                continue;
            }
            let Some(id) = self
                .idom(b)
                .or(if b == self.entry { Some(b) } else { None })
            else {
                continue;
            };
            for p in preds {
                let mut runner = p;
                while runner != id {
                    if !df[runner.index()].contains(&b) {
                        df[runner.index()].push(b);
                    }
                    match self.idom(runner) {
                        Some(d) => runner = d,
                        None => break,
                    }
                }
            }
        }
        df
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{Operand, Pred};
    use crate::ty::Ty;

    /// entry -> {t, e} -> join -> exit, plus a loop join -> t.
    fn build() -> (Function, Cfg, DomTree) {
        let mut b = FunctionBuilder::new("g", vec![Ty::I32], Some(Ty::I32));
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
        b.ret(Some(Operand::i32(1)));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let dom = DomTree::new(&f, &cfg);
        (f, cfg, dom)
    }

    #[test]
    fn diamond_idoms() {
        let (f, _, dom) = build();
        let entry = f.entry;
        assert_eq!(dom.idom(entry), None);
        assert_eq!(dom.idom(BlockId(1)), Some(entry));
        assert_eq!(dom.idom(BlockId(2)), Some(entry));
        assert_eq!(dom.idom(BlockId(3)), Some(entry)); // join dominated by entry, not arms
    }

    #[test]
    fn dominates_is_reflexive_and_transitive() {
        let (f, _, dom) = build();
        assert!(dom.dominates(f.entry, f.entry));
        assert!(dom.dominates(f.entry, BlockId(3)));
        assert!(!dom.dominates(BlockId(1), BlockId(3)));
        assert!(dom.strictly_dominates(f.entry, BlockId(1)));
        assert!(!dom.strictly_dominates(f.entry, f.entry));
    }

    #[test]
    fn frontier_of_arms_is_join() {
        let (_, cfg, dom) = build();
        let df = dom.dominance_frontiers(&cfg);
        assert_eq!(df[1], vec![BlockId(3)]);
        assert_eq!(df[2], vec![BlockId(3)]);
        assert!(df[0].is_empty());
    }
}
