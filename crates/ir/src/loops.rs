//! Natural-loop discovery.
//!
//! Loop passes (`licm`, `loop-unroll`, …) consume this analysis. A *natural
//! loop* is identified by a back edge `latch -> header` where `header`
//! dominates `latch`; the loop body is every block that can reach the latch
//! without passing through the header.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::func::{BlockId, Function};

/// A short list of `Copy` items: inline up to `N` of them, on the heap
/// beyond. Most loops are small, so a [`LoopForest`] seldom allocates per
/// loop.
#[derive(Debug, Clone)]
enum Small<T, const N: usize> {
    Inline([T; N], usize),
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> Small<T, N> {
    /// `len` copies of `fill`.
    fn filled(fill: T, len: usize) -> Self {
        if len <= N {
            Small::Inline([fill; N], len)
        } else {
            Small::Heap(vec![fill; len])
        }
    }

    fn as_slice(&self) -> &[T] {
        match self {
            Small::Inline(items, len) => &items[..*len],
            Small::Heap(items) => items,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            Small::Inline(items, len) => &mut items[..*len],
            Small::Heap(items) => items,
        }
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq for Small<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Eq, const N: usize> Eq for Small<T, N> {}

/// A set of blocks of one function: one bit per block id, iterated in
/// ascending id order. Inline for functions of up to 256 blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSet {
    words: Small<u64, 4>,
    len: usize,
}

impl BlockSet {
    /// The empty set over a function of `n` blocks.
    fn new(n: usize) -> BlockSet {
        BlockSet {
            words: Small::filled(0, n.div_ceil(64)),
            len: 0,
        }
    }

    /// Add `b`; returns whether it was absent.
    fn insert(&mut self, b: BlockId) -> bool {
        let (w, bit) = (b.index() / 64, 1u64 << (b.index() % 64));
        let words = self.words.as_mut_slice();
        let absent = words[w] & bit == 0;
        words[w] |= bit;
        self.len += absent as usize;
        absent
    }

    /// Whether `b` is in the set.
    pub fn contains(&self, b: BlockId) -> bool {
        self.words
            .as_slice()
            .get(b.index() / 64)
            .is_some_and(|w| w & (1u64 << (b.index() % 64)) != 0)
    }

    /// Number of blocks in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether every block of `self` is in `other`.
    pub fn is_subset(&self, other: &BlockSet) -> bool {
        self.words
            .as_slice()
            .iter()
            .zip(other.words.as_slice().iter().chain(std::iter::repeat(&0)))
            .all(|(a, b)| a & !b == 0)
    }

    /// The blocks in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.words
            .as_slice()
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| {
                let mut rest = w;
                std::iter::from_fn(move || {
                    (rest != 0).then(|| {
                        let bit = rest.trailing_zeros();
                        rest &= rest - 1;
                        BlockId((i * 64) as u32 + bit)
                    })
                })
            })
    }
}

/// One natural loop.
#[derive(Debug, Clone)]
pub struct Loop {
    /// The loop header (target of the back edges).
    pub header: BlockId,
    /// All blocks in the loop, header included.
    pub blocks: BlockSet,
    /// The latches, then the exiting blocks, then the exits; `ends` holds
    /// where the first two lists end.
    edges: Small<BlockId, 6>,
    ends: [usize; 2],
    /// Nesting depth (outermost loops have depth 1).
    pub depth: usize,
    /// Index of the enclosing loop in the forest, if any.
    pub parent: Option<usize>,
}

impl Loop {
    /// Source blocks of back edges (`latch -> header`), in the reverse
    /// postorder of their discovery.
    pub fn latches(&self) -> &[BlockId] {
        &self.edges.as_slice()[..self.ends[0]]
    }

    /// Blocks inside the loop with a successor outside (exiting blocks), in
    /// ascending id order.
    pub fn exiting(&self) -> &[BlockId] {
        &self.edges.as_slice()[self.ends[0]..self.ends[1]]
    }

    /// Blocks outside the loop that are successors of exiting blocks, in
    /// ascending id order.
    pub fn exits(&self) -> &[BlockId] {
        &self.edges.as_slice()[self.ends[1]..]
    }

    /// Whether the loop contains block `b`.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(b)
    }

    /// The unique block outside the loop branching to the header, if exactly
    /// one exists and it only branches to the header (a *dedicated preheader*).
    pub fn preheader(&self, f: &Function, cfg: &Cfg) -> Option<BlockId> {
        let mut outside = cfg
            .preds(self.header)
            .iter()
            .filter(|&&p| !self.contains(p));
        let p = *outside.next()?;
        if outside.any(|&q| q != p) {
            return None;
        }
        let mut succs = f.blocks[p.index()].term.succs();
        (succs.next() == Some(self.header) && succs.next().is_none()).then_some(p)
    }
}

/// All natural loops of a function, outermost-first.
#[derive(Debug, Clone, Default)]
pub struct LoopForest {
    /// Discovered loops. Parent loops precede children.
    pub loops: Vec<Loop>,
}

impl LoopForest {
    /// Discover natural loops from back edges.
    ///
    /// A loop's block set and edge lists are inline unless the function or
    /// the loop is large; the walks reuse scratch buffers from loop to loop.
    pub fn new(f: &Function, cfg: &Cfg, dom: &DomTree) -> LoopForest {
        // Back edges in discovery order; headers in order of their first.
        let mut back: Vec<(BlockId, BlockId)> = Vec::new();
        let mut headers: Vec<BlockId> = Vec::new();
        for &b in cfg.rpo() {
            for &s in cfg.succs(b) {
                if dom.dominates(s, b) {
                    if !headers.contains(&s) {
                        headers.push(s);
                    }
                    back.push((s, b));
                }
            }
        }
        let mut loops = Vec::with_capacity(headers.len());
        let mut work: Vec<BlockId> = Vec::new();
        let mut exiting: Vec<BlockId> = Vec::new();
        let mut exits: Vec<BlockId> = Vec::new();
        for h in headers {
            let latches = back.iter().filter(|e| e.0 == h).map(|e| e.1);
            let mut blocks = BlockSet::new(f.blocks.len());
            blocks.insert(h);
            work.extend(latches.clone());
            while let Some(b) = work.pop() {
                if blocks.insert(b) {
                    work.extend_from_slice(cfg.preds(b));
                }
            }
            // Blocks ascend, so `exiting` does too; `exits` is sorted after.
            exiting.clear();
            exits.clear();
            for b in blocks.iter() {
                for s in f.blocks[b.index()].term.succs() {
                    if !blocks.contains(s) {
                        if exiting.last() != Some(&b) {
                            exiting.push(b);
                        }
                        exits.push(s);
                    }
                }
            }
            exits.sort_unstable();
            exits.dedup();
            let n_latches = latches.clone().count();
            let ends = [n_latches, n_latches + exiting.len()];
            let mut edges = Small::filled(h, ends[1] + exits.len());
            let slots = edges.as_mut_slice();
            for (slot, b) in slots.iter_mut().zip(latches.chain(exiting.iter().copied())) {
                *slot = b;
            }
            slots[ends[1]..].copy_from_slice(&exits);
            loops.push(Loop {
                header: h,
                blocks,
                edges,
                ends,
                depth: 1,
                parent: None,
            });
        }
        // Sort outermost (largest) first so parents precede children.
        loops.sort_by_key(|l| std::cmp::Reverse(l.blocks.len()));
        // Compute nesting: a loop's parent is the smallest strictly-enclosing loop.
        for i in 0..loops.len() {
            let mut best: Option<usize> = None;
            for j in 0..loops.len() {
                if i == j {
                    continue;
                }
                if loops[j].blocks.len() > loops[i].blocks.len()
                    && loops[i].blocks.is_subset(&loops[j].blocks)
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
        LoopForest { loops }
    }

    /// The innermost loop containing `b`, if any.
    pub fn innermost_containing(&self, b: BlockId) -> Option<&Loop> {
        self.loops
            .iter()
            .filter(|l| l.contains(b))
            .max_by_key(|l| l.depth)
    }

    /// Loop depth of block `b` (0 if not in any loop).
    pub fn depth_of(&self, b: BlockId) -> usize {
        self.innermost_containing(b).map(|l| l.depth).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, Operand, Pred};
    use crate::ty::Ty;

    /// Builds `for i in 0..n { for j in 0..n { } }` and returns the function.
    fn nested_loops() -> Function {
        let mut b = FunctionBuilder::new("nest", vec![Ty::I32], None);
        let oh = b.new_block(); // outer header
        let ob = b.new_block(); // outer body == inner preheader
        let ih = b.new_block(); // inner header
        let ib = b.new_block(); // inner body
        let ol = b.new_block(); // outer latch
        let ex = b.new_block();
        let entry = b.current_block();
        b.br(oh);
        b.switch_to(oh);
        let i = b.phi(Ty::I32, vec![(entry, Operand::i32(0))]);
        let c = b.icmp(Pred::Slt, Operand::val(i), Operand::val(b.param(0)));
        b.cond_br(Operand::val(c), ob, ex);
        b.switch_to(ob);
        b.br(ih);
        b.switch_to(ih);
        let j = b.phi(Ty::I32, vec![(ob, Operand::i32(0))]);
        let cj = b.icmp(Pred::Slt, Operand::val(j), Operand::val(b.param(0)));
        b.cond_br(Operand::val(cj), ib, ol);
        b.switch_to(ib);
        let j2 = b.bin(BinOp::Add, Operand::val(j), Operand::i32(1));
        b.br(ih);
        b.add_phi_incoming(j, ib, Operand::val(j2));
        b.switch_to(ol);
        let i2 = b.bin(BinOp::Add, Operand::val(i), Operand::i32(1));
        b.br(oh);
        b.add_phi_incoming(i, ol, Operand::val(i2));
        b.switch_to(ex);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn finds_two_nested_loops() {
        let f = nested_loops();
        let cfg = Cfg::new(&f);
        let dom = DomTree::new(&f, &cfg);
        let forest = LoopForest::new(&f, &cfg, &dom);
        assert_eq!(forest.loops.len(), 2);
        let outer = &forest.loops[0];
        let inner = &forest.loops[1];
        assert!(outer.blocks.len() > inner.blocks.len());
        assert_eq!(outer.depth, 1);
        assert_eq!(inner.depth, 2);
        assert_eq!(inner.parent, Some(0));
        assert!(outer.blocks.contains(inner.header));
        assert!(inner.blocks.is_subset(&outer.blocks) && !outer.blocks.is_subset(&inner.blocks));
        let ids: Vec<BlockId> = outer.blocks.iter().collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending: {ids:?}");
        assert_eq!(ids.len(), outer.blocks.len());
    }

    #[test]
    fn block_set_spans_words() {
        let mut s = BlockSet::new(130);
        assert!(s.is_empty());
        for i in [129, 0, 64, 63, 64] {
            s.insert(BlockId(i));
        }
        assert_eq!(s.len(), 4);
        let ids: Vec<u32> = s.iter().map(|b| b.0).collect();
        assert_eq!(ids, vec![0, 63, 64, 129]);
        assert!(s.contains(BlockId(129)) && !s.contains(BlockId(128)));
        assert!(!s.contains(BlockId(1000)), "out of range is absent");
        let mut t = BlockSet::new(130);
        t.insert(BlockId(64));
        assert!(t.is_subset(&s) && !s.is_subset(&t));
    }

    #[test]
    fn exits_and_latches() {
        let f = nested_loops();
        let cfg = Cfg::new(&f);
        let dom = DomTree::new(&f, &cfg);
        let forest = LoopForest::new(&f, &cfg, &dom);
        let outer = &forest.loops[0];
        assert_eq!(outer.latches().len(), 1);
        assert_eq!(outer.exits().len(), 1);
        assert_eq!(forest.depth_of(f.entry), 0);
    }

    #[test]
    fn preheader_detection() {
        let f = nested_loops();
        let cfg = Cfg::new(&f);
        let dom = DomTree::new(&f, &cfg);
        let forest = LoopForest::new(&f, &cfg, &dom);
        let inner = &forest.loops[1];
        // The outer body is the inner loop's dedicated preheader.
        assert!(inner.preheader(&f, &cfg).is_some());
    }
}
