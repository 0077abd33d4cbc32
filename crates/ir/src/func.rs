//! Functions, basic blocks, globals, and modules.

use crate::inst::{Op, Operand, Term};
use crate::ty::Ty;
use std::ops::ControlFlow;

/// Index of an SSA value within a [`Function`]'s value arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

/// Index of a basic block within a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Index of a function within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Index of a global within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

impl ValueId {
    /// The arena index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl BlockId {
    /// The arena index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl FuncId {
    /// The arena index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl GlobalId {
    /// The arena index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How an SSA value is defined.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum ValueDef {
    /// The `index`-th function parameter.
    Param { index: usize },
    /// An instruction result (or a result-less instruction slot).
    Inst(Op),
}

/// One entry in a function's value arena.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct ValueData {
    /// The defining construct.
    pub def: ValueDef,
    /// Result type; `None` for result-less instructions (`store`, `nop`,
    /// void calls).
    pub ty: Option<Ty>,
}

/// A basic block: an ordered instruction list plus a terminator.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct BlockData {
    /// Instruction list, in execution order. Phi nodes must form a prefix.
    pub insts: Vec<ValueId>,
    /// The block terminator.
    pub term: Term,
}

impl BlockData {
    fn new() -> BlockData {
        BlockData {
            insts: Vec::new(),
            term: Term::Unreachable,
        }
    }
}

/// A function in SSA form.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Symbol name (unique within a module).
    pub name: String,
    /// Parameter types. Parameter `i` is `ValueId(i)`.
    pub params: Vec<Ty>,
    /// Return type, or `None` for `void`.
    pub ret: Option<Ty>,
    /// The value arena. The first `params.len()` slots are parameters.
    pub values: Vec<ValueData>,
    /// The block arena. Unreachable blocks may linger until `compact`.
    pub blocks: Vec<BlockData>,
    /// The entry block.
    pub entry: BlockId,
    /// Always-inline hint (source-level `#[inline(always)]` analogue).
    pub always_inline: bool,
    /// Never-inline hint.
    pub no_inline: bool,
    /// Computed by `function-attrs`: the function neither reads nor writes
    /// memory and has no side effects (calls may be CSE'd or removed).
    pub readnone: bool,
    /// Computed by `function-attrs`: the function may read but never writes
    /// memory and has no side effects.
    pub readonly: bool,
}

impl Function {
    /// Create a function with an (empty) entry block.
    pub fn new(name: impl Into<String>, params: Vec<Ty>, ret: Option<Ty>) -> Function {
        let values = params
            .iter()
            .enumerate()
            .map(|(i, t)| ValueData {
                def: ValueDef::Param { index: i },
                ty: Some(*t),
            })
            .collect();
        Function {
            name: name.into(),
            params,
            ret,
            values,
            blocks: vec![BlockData::new()],
            entry: BlockId(0),
            always_inline: false,
            no_inline: false,
            readnone: false,
            readonly: false,
        }
    }

    /// The `ValueId` of parameter `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn param(&self, i: usize) -> ValueId {
        assert!(i < self.params.len(), "parameter index out of range");
        ValueId(i as u32)
    }

    /// Append a fresh empty block.
    pub fn add_block(&mut self) -> BlockId {
        self.blocks.push(BlockData::new());
        BlockId((self.blocks.len() - 1) as u32)
    }

    /// Append an instruction to `block`, returning its value id.
    pub fn add_inst(&mut self, block: BlockId, op: Op, ty: Option<Ty>) -> ValueId {
        let v = self.new_value(op, ty);
        self.blocks[block.index()].insts.push(v);
        v
    }

    /// Insert an instruction at position `at` within `block`.
    ///
    /// Cost: O(block length) per call, since the instructions after `at`
    /// shift. A caller placing many instructions in one block should build
    /// the new list and splice it in once.
    pub fn insert_inst(&mut self, block: BlockId, at: usize, op: Op, ty: Option<Ty>) -> ValueId {
        let v = self.new_value(op, ty);
        self.blocks[block.index()].insts.insert(at, v);
        v
    }

    /// Allocate a value slot without placing it in a block.
    ///
    /// The caller is responsible for inserting the id into exactly one block's
    /// instruction list (the verifier checks this).
    pub fn new_value(&mut self, op: Op, ty: Option<Ty>) -> ValueId {
        self.values.push(ValueData {
            def: ValueDef::Inst(op),
            ty,
        });
        ValueId((self.values.len() - 1) as u32)
    }

    /// The defining op of `v`, if `v` is an instruction.
    pub fn op(&self, v: ValueId) -> Option<&Op> {
        match &self.values[v.index()].def {
            ValueDef::Inst(op) => Some(op),
            ValueDef::Param { .. } => None,
        }
    }

    /// Mutable access to the defining op of `v`.
    pub fn op_mut(&mut self, v: ValueId) -> Option<&mut Op> {
        match &mut self.values[v.index()].def {
            ValueDef::Inst(op) => Some(op),
            ValueDef::Param { .. } => None,
        }
    }

    /// Result type of `v` (`None` for result-less instructions).
    pub fn ty(&self, v: ValueId) -> Option<Ty> {
        self.values[v.index()].ty
    }

    /// Type of an operand.
    pub fn operand_ty(&self, o: &Operand) -> Option<Ty> {
        match o {
            Operand::Value(v) => self.ty(*v),
            Operand::Const { ty, .. } => Some(*ty),
        }
    }

    /// Remove `v` from `block`'s instruction list and tombstone its slot.
    ///
    /// Uses of `v` elsewhere become dangling; callers must have rewritten them
    /// (the verifier will complain otherwise).
    ///
    /// Cost: O(block length) per call (a `retain` over the block). A caller
    /// removing many values should mark them, `retain` each touched block
    /// once and tombstone them with [`Function::kill_value`].
    pub fn remove_inst(&mut self, block: BlockId, v: ValueId) {
        self.blocks[block.index()].insts.retain(|x| *x != v);
        self.values[v.index()] = ValueData {
            def: ValueDef::Inst(Op::Nop),
            ty: None,
        };
    }

    /// Tombstone `v` without touching block lists (for bulk editing where the
    /// caller rebuilds the list).
    pub fn kill_value(&mut self, v: ValueId) {
        self.values[v.index()] = ValueData {
            def: ValueDef::Inst(Op::Nop),
            ty: None,
        };
    }

    /// Replace every use of value `from` (in instructions and terminators of
    /// reachable and unreachable blocks alike) with operand `to`.
    ///
    /// Cost: one sweep over the whole value arena (tombstones included — it
    /// is never compacted) plus every terminator, per call. A pass that
    /// replaces many values should record them in a [`Substitution`] and pay
    /// for one sweep with [`Function::substitute_uses`].
    ///
    /// Returns the number of operands rewritten: [`Function::use_count`] of
    /// `from` before the call, since both walk the same operands.
    pub fn replace_all_uses(&mut self, from: ValueId, to: Operand) -> usize {
        let from = Operand::Value(from);
        let mut n = 0;
        let mut rewrite = |o: &mut Operand| {
            if *o == from {
                *o = to;
                n += 1;
            }
        };
        for vd in &mut self.values {
            if let ValueDef::Inst(op) = &mut vd.def {
                op.for_each_operand_mut(&mut rewrite);
            }
        }
        for b in &mut self.blocks {
            b.term.for_each_operand_mut(&mut rewrite);
        }
        n
    }

    /// Apply every replacement recorded in `subst` at once: the bulk form of
    /// [`Function::replace_all_uses`], one arena sweep however many values
    /// are replaced. Each operand is rewritten to [`Substitution::resolve`]
    /// of itself.
    pub fn substitute_uses(&mut self, subst: &Substitution) {
        if subst.is_empty() {
            return;
        }
        for vd in &mut self.values {
            if let ValueDef::Inst(op) = &mut vd.def {
                subst.resolve_op(op);
            }
        }
        for b in &mut self.blocks {
            b.term.for_each_operand_mut(|o| *o = subst.resolve(*o));
        }
    }

    /// Number of uses of `v` across all instructions and terminators.
    ///
    /// Cost: one sweep over the whole value arena and every terminator, per
    /// call; a caller asking about many values should read
    /// [`Function::use_counts`] once instead.
    pub fn use_count(&self, v: ValueId) -> usize {
        let mut n = 0;
        for vd in &self.values {
            if let ValueDef::Inst(op) = &vd.def {
                op.for_each_operand(|o| {
                    if *o == Operand::Value(v) {
                        n += 1;
                    }
                });
            }
        }
        for b in &self.blocks {
            b.term.for_each_operand(|o| {
                if *o == Operand::Value(v) {
                    n += 1;
                }
            });
        }
        n
    }

    /// [`Function::use_count`] of every value, indexed by value, in one sweep
    /// over the arena and the terminators.
    pub fn use_counts(&self) -> Vec<u32> {
        let mut uses = vec![0u32; self.values.len()];
        let mut count = |o: &Operand| {
            if let Operand::Value(u) = o {
                uses[u.index()] += 1;
            }
        };
        for vd in &self.values {
            if let ValueDef::Inst(op) = &vd.def {
                op.for_each_operand(&mut count);
            }
        }
        for b in &self.blocks {
            b.term.for_each_operand(&mut count);
        }
        uses
    }

    /// Ids of all blocks that exist when it is called, unreachable ones
    /// included. The iterator does not borrow `self`, so a loop over it may
    /// edit the function; blocks added during the walk are not visited.
    pub fn block_ids(&self) -> impl DoubleEndedIterator<Item = BlockId> + ExactSizeIterator {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Blocks reachable from entry, in depth-first preorder.
    pub fn reachable_blocks(&self) -> Vec<BlockId> {
        let mut order = Vec::with_capacity(self.blocks.len());
        let _ = self.walk_reachable(|b| {
            order.push(b);
            ControlFlow::<()>::Continue(())
        });
        order
    }

    /// Visit the blocks reachable from entry in depth-first preorder (the
    /// order of [`reachable_blocks`](Self::reachable_blocks)) until `visit`
    /// breaks.
    fn walk_reachable<B>(
        &self,
        mut visit: impl FnMut(BlockId) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        // One buffer: a seen flag per block, then the DFS stack above them.
        // Each block is expanded once and pushes at most two successors, so
        // the stack never outgrows `2n + 1`.
        let n = self.blocks.len();
        let mut buf: Vec<u32> = Vec::with_capacity(3 * n + 1);
        buf.resize(n, 0);
        buf.push(self.entry.0);
        while buf.len() > n {
            let b = buf.pop().map_or(0, |b| b as usize);
            // Indexing the block first keeps an out-of-range successor from
            // reading the stack as a seen flag.
            let succs = self.blocks[b].term.succs();
            if std::mem::replace(&mut buf[b], 1) == 1 {
                continue;
            }
            visit(BlockId(b as u32))?;
            buf.extend(succs.rev().map(|s| s.0));
        }
        ControlFlow::Continue(())
    }

    /// Count instructions in reachable blocks (a static size metric used by the
    /// inliner and the `-Os`/`-Oz` pipelines).
    pub fn size(&self) -> usize {
        let mut n = 0;
        let _ = self.walk_reachable(|b| {
            n += self.blocks[b.index()].insts.len();
            ControlFlow::<()>::Continue(())
        });
        n
    }

    /// Whether any reachable instruction is a call to `callee`.
    pub fn calls(&self, callee: FuncId) -> bool {
        self.walk_reachable(|b| {
            let hit = self.blocks[b.index()]
                .insts
                .iter()
                .any(|&v| matches!(self.op(v), Some(Op::Call { callee: c, .. }) if *c == callee));
            if hit {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .is_break()
    }
}

/// A pending batch of `from → to` use replacements, applied in one sweep by
/// [`Function::substitute_uses`].
///
/// [`Function::replace_all_uses`] costs a whole-arena sweep per call, which
/// makes a pass that replaces one value per rewritten instruction quadratic
/// in function size. Such a pass records each replacement here (O(1)), reads
/// the operands it inspects through [`resolve`](Substitution::resolve) while
/// the batch is pending, and rewrites the function once at the end.
///
/// Resolution chases chains (`a → b`, later `b → c` resolves `a` to `c`), so
/// a pending batch reads exactly as the same replacements applied eagerly
/// one by one, provided no replacement's target had already been replaced
/// away when it was recorded — which holds whenever targets are taken from
/// resolved operands.
#[derive(Debug, Clone, Default)]
pub struct Substitution {
    /// Replacement per value index; shorter than the arena when the tail has
    /// none.
    map: Vec<Option<Operand>>,
    /// Number of values with a replacement (also bounds a chase).
    len: usize,
}

impl Substitution {
    /// An empty batch.
    pub fn new() -> Substitution {
        Substitution::default()
    }

    /// Whether no replacement has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Record that every use of `from` becomes `to` (overwriting an earlier
    /// replacement of `from`).
    pub fn insert(&mut self, from: ValueId, to: Operand) {
        if self.map.len() <= from.index() {
            self.map.resize(from.index() + 1, None);
        }
        if self.map[from.index()].replace(to).is_none() {
            self.len += 1;
        }
    }

    /// What `o` reads as once the batch is applied: follows replacement
    /// chains to their end. A value replaced by itself resolves to itself,
    /// and a (malformed) longer cycle stops after one pass over the batch.
    pub fn resolve(&self, mut o: Operand) -> Operand {
        for _ in 0..=self.len {
            match o {
                Operand::Value(v) => match self.map.get(v.index()) {
                    Some(Some(n)) if *n != o => o = *n,
                    _ => return o,
                },
                Operand::Const { .. } => return o,
            }
        }
        o
    }

    /// Rewrite every operand of `op` to its resolution.
    pub fn resolve_op(&self, op: &mut Op) {
        op.for_each_operand_mut(|o| *o = self.resolve(*o));
    }
}

/// A statically allocated global byte region.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Global {
    /// Symbol name.
    pub name: String,
    /// Size in bytes.
    pub size: u32,
    /// Initial contents; shorter than `size` means zero-padded.
    pub init: Vec<u8>,
    /// Alignment in bytes (power of two).
    pub align: u32,
}

impl Global {
    /// A zero-initialized global.
    pub fn zeroed(name: impl Into<String>, size: u32) -> Global {
        Global {
            name: name.into(),
            size,
            init: Vec::new(),
            align: 4,
        }
    }

    /// A global with initial data.
    pub fn with_data(name: impl Into<String>, data: Vec<u8>) -> Global {
        let size = data.len() as u32;
        Global {
            name: name.into(),
            size,
            init: data,
            align: 4,
        }
    }
}

/// A compilation unit: functions plus globals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    /// All functions. `FuncId` indexes this vector.
    pub funcs: Vec<Function>,
    /// All globals. `GlobalId` indexes this vector.
    pub globals: Vec<Global>,
}

/// Base virtual address where globals are laid out (both in the reference
/// interpreter and in the zkVM memory map).
pub const GLOBAL_BASE: u32 = 0x0002_0000;

impl Module {
    /// An empty module.
    pub fn new() -> Module {
        Module::default()
    }

    /// Add a function, returning its id.
    pub fn add_func(&mut self, f: Function) -> FuncId {
        self.funcs.push(f);
        FuncId((self.funcs.len() - 1) as u32)
    }

    /// Add a global, returning its id.
    pub fn add_global(&mut self, g: Global) -> GlobalId {
        self.globals.push(g);
        GlobalId((self.globals.len() - 1) as u32)
    }

    /// Find a function id by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// The function named `main`, which every guest program must define.
    pub fn main_func(&self) -> Option<FuncId> {
        self.func_by_name("main")
    }

    /// Assign each global a virtual address starting at [`GLOBAL_BASE`].
    ///
    /// Returns one address per global, respecting alignment.
    pub fn layout_globals(&self) -> Vec<u32> {
        let mut addr = GLOBAL_BASE;
        let mut out = Vec::with_capacity(self.globals.len());
        for g in &self.globals {
            let align = g.align.max(1);
            addr = (addr + align - 1) & !(align - 1);
            out.push(addr);
            addr += g.size.max(1);
        }
        out
    }

    /// Total static instruction count across reachable code in all functions.
    pub fn size(&self) -> usize {
        self.funcs.iter().map(Function::size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::BinOp;

    fn sample() -> Function {
        let mut f = Function::new("f", vec![Ty::I32], Some(Ty::I32));
        let p = f.param(0);
        let v = f.add_inst(
            f.entry,
            Op::Bin {
                op: BinOp::Add,
                a: Operand::val(p),
                b: Operand::i32(1),
            },
            Some(Ty::I32),
        );
        f.blocks[f.entry.index()].term = Term::Ret(Some(Operand::val(v)));
        f
    }

    #[test]
    fn param_values_precede_insts() {
        let f = sample();
        assert_eq!(f.param(0), ValueId(0));
        assert!(matches!(f.values[0].def, ValueDef::Param { index: 0 }));
        assert!(f.op(ValueId(1)).is_some());
    }

    #[test]
    fn replace_all_uses_rewrites_terms_too() {
        let mut f = sample();
        let v = ValueId(1);
        assert_eq!(f.replace_all_uses(v, Operand::i32(7)), 1);
        assert_eq!(f.replace_all_uses(v, Operand::i32(7)), 0, "nothing left");
        match &f.blocks[0].term {
            Term::Ret(Some(o)) => assert!(o.is_const_val(7)),
            t => panic!("unexpected term {t:?}"),
        }
    }

    #[test]
    fn substitution_reads_as_the_eager_replacements_it_batches() {
        // v1 = p + 1; v2 = v1 + 1; v3 = v2 + v1; ret v3
        let mut f = sample();
        let add = |f: &mut Function, a: Operand, b: Operand| {
            f.add_inst(
                f.entry,
                Op::Bin {
                    op: BinOp::Add,
                    a,
                    b,
                },
                Some(Ty::I32),
            )
        };
        let v1 = ValueId(1);
        let v2 = add(&mut f, Operand::val(v1), Operand::i32(1));
        let v3 = add(&mut f, Operand::val(v2), Operand::val(v1));
        f.blocks[0].term = Term::Ret(Some(Operand::val(v3)));

        // v2 -> v1, then v1 -> 7 (a chain), and v3 -> v3 (a self-map).
        let mut eager = f.clone();
        eager.replace_all_uses(v2, Operand::val(v1));
        eager.replace_all_uses(v1, Operand::i32(7));
        eager.replace_all_uses(v3, Operand::val(v3));

        let mut subst = Substitution::new();
        assert!(subst.is_empty());
        subst.insert(v2, Operand::val(v1));
        subst.insert(v1, Operand::i32(7));
        subst.insert(v3, Operand::val(v3));
        assert_eq!(subst.resolve(Operand::val(v2)), Operand::i32(7));
        assert_eq!(subst.resolve(Operand::val(v3)), Operand::val(v3));
        assert_eq!(
            subst.resolve(Operand::val(ValueId(0))),
            Operand::val(ValueId(0))
        );
        let mut bulk = f.clone();
        bulk.substitute_uses(&subst);
        assert_eq!(bulk, eager);
        assert_eq!(bulk.use_count(v1), 0);
        assert_eq!(bulk.use_count(v3), 1, "the terminator still returns v3");
    }

    #[test]
    fn use_count_counts_term_uses() {
        let f = sample();
        assert_eq!(f.use_count(ValueId(0)), 1); // param used by add
        assert_eq!(f.use_count(ValueId(1)), 1); // add used by ret
        assert_eq!(f.use_counts(), [1, 1]);
    }

    #[test]
    fn reachable_blocks_skips_orphans() {
        let mut f = sample();
        let orphan = f.add_block();
        f.blocks[orphan.index()].term = Term::Ret(None);
        assert_eq!(f.reachable_blocks(), vec![f.entry]);
        assert_eq!(f.size(), 1);
    }

    #[test]
    fn block_ids_skips_blocks_added_during_the_walk() {
        let mut f = sample();
        f.add_block();
        let mut seen = Vec::new();
        for b in f.block_ids() {
            seen.push(b);
            f.add_block();
        }
        assert_eq!(seen, vec![BlockId(0), BlockId(1)]);
        assert_eq!(f.blocks.len(), 4);
    }

    #[test]
    fn remove_inst_tombstones() {
        let mut f = sample();
        let v = ValueId(1);
        f.replace_all_uses(v, Operand::i32(0));
        f.remove_inst(f.entry, v);
        assert!(matches!(f.op(v), Some(Op::Nop)));
        assert!(f.blocks[0].insts.is_empty());
    }

    #[test]
    fn global_layout_respects_alignment() {
        let mut m = Module::new();
        m.add_global(Global {
            name: "a".into(),
            size: 3,
            init: vec![],
            align: 4,
        });
        m.add_global(Global {
            name: "b".into(),
            size: 8,
            init: vec![],
            align: 8,
        });
        let l = m.layout_globals();
        assert_eq!(l[0], GLOBAL_BASE);
        assert_eq!(l[1] % 8, 0);
        assert!(l[1] >= l[0] + 3);
    }

    #[test]
    fn func_by_name_lookup() {
        let mut m = Module::new();
        m.add_func(sample());
        assert_eq!(m.func_by_name("f"), Some(FuncId(0)));
        assert_eq!(m.func_by_name("g"), None);
        assert!(m.main_func().is_none());
    }
}
