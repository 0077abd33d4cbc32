//! Reference interpreter for the IR.
//!
//! This is the workspace's *semantic oracle*: differential tests run a program
//! through every optimization profile and demand that the guest-visible
//! behaviour (return value + journal) matches what this interpreter computes
//! on the unoptimized module.
//!
//! [`Interp::new`] decodes each function once into flat data: one op array
//! with operands resolved to frame slots (constants canonicalised once into a
//! per-function slot template), each CFG edge's phi nodes as one
//! parallel-copy list, and branch targets as op indices. [`Interp::run_main`]
//! walks that with an explicit frame stack. Guest memory is allocated a page
//! at a time on first write; an untouched page reads as zero.
//!
//! Step accounting: each instruction bumps the step count and then executes;
//! the phi copies of an edge count one step each; a taken `br` or `condbr`
//! counts one; `ret` and `unreachable` count none. Malformed IR fails only
//! when the faulty construct is reached.
//!
//! Value representation invariants:
//! - `i1` values are 0 or 1,
//! - `i8` values are zero-extended (0..=255); `load i8` behaves like `lbu`,
//! - `i32` values are sign-extended into the `i64` slots,
//! - `ptr` values are zero-extended 32-bit addresses.

use crate::ecall;
use crate::func::{BlockId, Function, Module, ValueDef, GLOBAL_BASE};
use crate::inst::{BinOp, CastKind, Op, Operand, Pred, Term};
use crate::ty::Ty;
use std::fmt;

/// Total simulated memory size (8 MiB), shared with the zkVM memory map.
pub const MEM_SIZE: u32 = 0x0080_0000;
/// Initial stack pointer (grows down), leaving a guard gap at the top.
pub const STACK_TOP: u32 = MEM_SIZE - 0x1000;

/// Byte-level guest-memory access used by precompiles.
pub trait MemIo {
    /// Read `len` bytes at `addr` (zero-filled on fault — precompile inputs
    /// are validated by the guest).
    fn read_bytes(&mut self, addr: u32, len: u32) -> Vec<u8>;
    /// Write bytes at `addr` (ignored on fault).
    fn write_bytes(&mut self, addr: u32, data: &[u8]);
}

/// Handler for precompile-style ecalls (SHA-256, Keccak, signatures).
///
/// The interpreter handles `halt`, `commit`, and `read_input` itself and
/// delegates everything else here.
pub trait EcallHandler {
    /// Handle ecall `code` with raw argument registers `args`, with full
    /// access to guest memory. Returns the `i32` result (sign-extended).
    fn handle(&mut self, code: u32, args: &[i64], mem: &mut dyn MemIo) -> i64;
}

/// A no-op handler: every precompile returns 0 and leaves memory untouched.
///
/// Sufficient for tests that do not exercise crypto precompiles. The real
/// handler lives in `zkvmopt-vm` and is backed by `zkvmopt-crypto`.
#[derive(Debug, Default, Clone, Copy)]
pub struct NopEcalls;

impl EcallHandler for NopEcalls {
    fn handle(&mut self, _code: u32, _args: &[i64], _mem: &mut dyn MemIo) -> i64 {
        0
    }
}

/// Interpreter configuration.
#[derive(Debug, Clone)]
pub struct InterpConfig {
    /// Abort after this many executed IR instructions.
    pub max_steps: u64,
    /// Values served by the `read_input` ecall.
    pub inputs: Vec<i32>,
    /// Maximum call depth.
    pub max_depth: usize,
}

impl Default for InterpConfig {
    fn default() -> InterpConfig {
        InterpConfig {
            max_steps: 500_000_000,
            inputs: Vec::new(),
            max_depth: 512,
        }
    }
}

/// Why interpretation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// Out-of-bounds or null memory access.
    MemFault { addr: u32 },
    /// The step budget was exhausted.
    StepLimit,
    /// Call depth exceeded.
    DepthLimit,
    /// Executed an `unreachable` terminator.
    Unreachable,
    /// The module has no `main`.
    NoMain,
    /// Malformed IR encountered mid-run (should be caught by the verifier).
    Malformed(String),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::MemFault { addr } => write!(f, "memory fault at {addr:#x}"),
            InterpError::StepLimit => write!(f, "step limit exceeded"),
            InterpError::DepthLimit => write!(f, "call depth exceeded"),
            InterpError::Unreachable => write!(f, "reached unreachable"),
            InterpError::NoMain => write!(f, "module has no main function"),
            InterpError::Malformed(m) => write!(f, "malformed IR: {m}"),
        }
    }
}

impl std::error::Error for InterpError {}

/// The observable result of a guest run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpOutcome {
    /// `main`'s return value (sign-extended), or the halt code if the guest
    /// called the `halt` ecall.
    pub exit_value: i64,
    /// Values committed via the `commit` ecall, in order.
    pub journal: Vec<i32>,
    /// Executed IR instruction count.
    pub steps: u64,
    /// Whether the guest terminated via the `halt` ecall.
    pub halted: bool,
}

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: usize = PAGE_SIZE - 1;
const PAGES: usize = MEM_SIZE as usize >> PAGE_SHIFT;

/// Guest memory, allocated a page at a time on first write: a run pays only
/// for the pages it touches, and an untouched page reads as zero.
struct Memory {
    pages: Box<[Option<Box<[u8; PAGE_SIZE]>>; PAGES]>,
}

impl Memory {
    fn new() -> Memory {
        Memory {
            pages: Box::new([const { None }; PAGES]),
        }
    }

    /// The zkVM's access rule: a fault in the null guard or past the end.
    #[inline(always)]
    fn check(addr: u32, size: u32) -> Result<usize, InterpError> {
        if addr < 0x100 || addr.checked_add(size).is_none_or(|e| e > MEM_SIZE) {
            return Err(InterpError::MemFault { addr });
        }
        Ok(addr as usize)
    }

    #[inline(always)]
    fn byte(&self, a: usize) -> u8 {
        self.pages[a >> PAGE_SHIFT]
            .as_ref()
            .map_or(0, |p| p[a & PAGE_MASK])
    }

    #[inline(always)]
    fn page_mut(&mut self, a: usize) -> &mut [u8; PAGE_SIZE] {
        self.pages[a >> PAGE_SHIFT].get_or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    #[inline(always)]
    fn word(&self, a: usize) -> u32 {
        let off = a & PAGE_MASK;
        if off <= PAGE_SIZE - 4 {
            self.pages[a >> PAGE_SHIFT].as_ref().map_or(0, |p| {
                u32::from_le_bytes([p[off], p[off + 1], p[off + 2], p[off + 3]])
            })
        } else {
            u32::from_le_bytes([
                self.byte(a),
                self.byte(a + 1),
                self.byte(a + 2),
                self.byte(a + 3),
            ])
        }
    }

    #[inline(always)]
    fn set_word(&mut self, a: usize, w: u32) {
        let off = a & PAGE_MASK;
        if off <= PAGE_SIZE - 4 {
            self.page_mut(a)[off..off + 4].copy_from_slice(&w.to_le_bytes());
        } else {
            self.write(a, &w.to_le_bytes());
        }
    }

    #[inline(always)]
    fn load(&self, addr: u32, ty: Ty) -> Result<i64, InterpError> {
        let a = Memory::check(addr, ty.size_bytes())?;
        Ok(match ty {
            Ty::I1 => (self.byte(a) & 1) as i64,
            Ty::I8 => self.byte(a) as i64,
            Ty::I32 => self.word(a) as i32 as i64,
            Ty::Ptr => self.word(a) as i64,
        })
    }

    #[inline(always)]
    fn store(&mut self, addr: u32, val: i64, ty: Ty) -> Result<(), InterpError> {
        let a = Memory::check(addr, ty.size_bytes())?;
        match ty {
            Ty::I1 => self.page_mut(a)[a & PAGE_MASK] = (val & 1) as u8,
            Ty::I8 => self.page_mut(a)[a & PAGE_MASK] = val as u8,
            Ty::I32 | Ty::Ptr => self.set_word(a, val as u32),
        }
        Ok(())
    }

    /// Whether `len` bytes at `addr` lie inside guest memory.
    fn fits(addr: u32, len: usize) -> bool {
        (addr as usize).saturating_add(len) <= MEM_SIZE as usize
    }

    /// Write `data` at `a`, page by page; the caller checked the range.
    fn write(&mut self, mut a: usize, mut data: &[u8]) {
        while !data.is_empty() {
            let off = a & PAGE_MASK;
            let n = (PAGE_SIZE - off).min(data.len());
            self.page_mut(a)[off..off + n].copy_from_slice(&data[..n]);
            a += n;
            data = &data[n..];
        }
    }
}

/// Precompile traffic: any address inside guest memory, page 0 included,
/// as a flat byte slice of [`MEM_SIZE`] would serve it.
impl MemIo for Memory {
    fn read_bytes(&mut self, addr: u32, len: u32) -> Vec<u8> {
        if !Memory::fits(addr, len as usize) {
            return vec![0; len as usize];
        }
        let a = addr as usize;
        (a..a + len as usize).map(|i| self.byte(i)).collect()
    }

    fn write_bytes(&mut self, addr: u32, data: &[u8]) {
        if Memory::fits(addr, data.len()) {
            self.write(addr as usize, data);
        }
    }
}

/// A frame slot: an index into the running function's slot template.
type Slot = u32;

/// One decoded instruction. Every variant but `Ret` and `Unreachable`
/// counts one step; a taken edge adds its phi copies.
#[derive(Clone, Copy)]
enum Inst {
    Bin {
        op: BinOp,
        d: Slot,
        a: Slot,
        b: Slot,
    },
    Icmp {
        pred: Pred,
        d: Slot,
        a: Slot,
        b: Slot,
    },
    Select {
        d: Slot,
        c: Slot,
        t: Slot,
        f: Slot,
    },
    /// `load i32`; `Load` serves the other types.
    Load32 {
        d: Slot,
        p: Slot,
    },
    Load {
        ty: Ty,
        d: Slot,
        p: Slot,
    },
    /// A word `store` (`i32` or `ptr`); `Store` serves bytes.
    Store32 {
        p: Slot,
        v: Slot,
    },
    Store {
        ty: Ty,
        p: Slot,
        v: Slot,
    },
    Alloca {
        d: Slot,
        bytes: u32,
    },
    Gep {
        d: Slot,
        base: Slot,
        index: Slot,
        stride: u32,
        offset: u32,
    },
    Cast {
        kind: CastKind,
        from: Ty,
        to: Ty,
        d: Slot,
        s: Slot,
    },
    /// `copy`, and `global_addr` of a constant slot.
    Copy {
        d: Slot,
        s: Slot,
    },
    /// Arguments are `lists[args..args + n]`.
    Call {
        d: Slot,
        func: u32,
        args: u32,
        n: u32,
    },
    Halt {
        a: Slot,
    },
    Commit {
        d: Slot,
        a: Slot,
    },
    ReadInput {
        d: Slot,
        a: Slot,
    },
    /// A precompile; arguments as for `Call`.
    Ecall {
        d: Slot,
        code: u32,
        args: u32,
        n: u32,
    },
    Nop,
    /// Malformed IR, reported when reached: `Malformed(messages[i])`.
    Fail(u32),
    /// An unconditional branch along an edge with no phi copies.
    Jump {
        pc: u32,
    },
    /// A two-way branch whose edges have no phi copies.
    CondJump {
        c: Slot,
        t: u32,
        f: u32,
    },
    Br {
        e: u32,
    },
    CondBr {
        c: Slot,
        t: u32,
        f: u32,
    },
    Ret {
        v: Slot,
    },
    Unreachable,
}

/// A CFG edge taken by `Br` or `CondBr`.
#[derive(Clone, Copy)]
struct Edge {
    /// The target block's first non-phi op.
    pc: u32,
    /// The target's phi nodes as sequential moves `copies[start..start + n]`
    /// (through temporaries where a phi reads another phi's slot).
    start: u32,
    n: u32,
    /// The target's phi count: the steps the edge costs beyond its branch.
    phis: u32,
    /// A phi missing this edge (or a missing block): `messages[i]`.
    fault: Option<u32>,
}

/// One function, decoded.
struct Code {
    ops: Vec<Inst>,
    /// A fresh frame: one zero slot per IR value, then the constants, then
    /// phi temporaries.
    template: Vec<i64>,
    /// Value slots: arguments bind to slots `0..values`.
    values: usize,
    /// The entry block's first op, or a malformed entry (`messages[i]`).
    entry: Result<u32, u32>,
    lists: Vec<Slot>,
    copies: Vec<(Slot, Slot)>,
    edges: Vec<Edge>,
    messages: Vec<String>,
}

/// Decodes one [`Function`] into a [`Code`].
#[expect(
    clippy::disallowed_types,
    reason = "`consts` is keyed by constants from untrusted program text"
)]
struct Decoder<'f> {
    f: &'f Function,
    funcs: usize,
    global_addrs: &'f [u32],
    consts: std::collections::HashMap<i64, Slot>,
    /// First op of each block.
    block_pc: Vec<u32>,
    code: Code,
}

impl<'f> Decoder<'f> {
    fn decode(f: &'f Function, funcs: usize, global_addrs: &'f [u32]) -> Code {
        let mut d = Decoder {
            f,
            funcs,
            global_addrs,
            consts: Default::default(),
            block_pc: Vec::with_capacity(f.blocks.len()),
            code: Code {
                ops: Vec::new(),
                template: vec![0; f.values.len()],
                values: f.values.len(),
                entry: Ok(0),
                lists: Vec::new(),
                copies: Vec::new(),
                edges: Vec::new(),
                messages: Vec::new(),
            },
        };
        let mut pc = 0u32;
        for b in &f.blocks {
            d.block_pc.push(pc);
            pc += (b.insts.len() - d.phi_count(&b.insts) + 1) as u32;
        }
        d.code.entry = match f.blocks.get(f.entry.index()) {
            None => Err(d.message(format!("entry block of @{} is missing", f.name))),
            Some(b) if d.phi_count(&b.insts) > 0 => {
                Err(d.message(format!("phi in entry block of @{}", f.name)))
            }
            Some(_) => Ok(d.block_pc[f.entry.index()]),
        };
        for (i, b) in f.blocks.iter().enumerate() {
            for &v in &b.insts[d.phi_count(&b.insts)..] {
                let inst = d
                    .inst(v.index())
                    .unwrap_or_else(|m| Inst::Fail(d.message(m)));
                d.code.ops.push(inst);
            }
            let term = d
                .term(BlockId(i as u32), &b.term)
                .unwrap_or_else(|m| Inst::Fail(d.message(m)));
            d.code.ops.push(term);
        }
        d.code
    }

    fn message(&mut self, m: String) -> u32 {
        self.code.messages.push(m);
        (self.code.messages.len() - 1) as u32
    }

    /// Length of the leading run of phi nodes.
    fn phi_count(&self, insts: &[crate::func::ValueId]) -> usize {
        insts
            .iter()
            .take_while(|v| {
                matches!(
                    self.f.values.get(v.index()).map(|d| &d.def),
                    Some(ValueDef::Inst(Op::Phi { .. }))
                )
            })
            .count()
    }

    fn constant(&mut self, x: i64) -> Slot {
        if let Some(&s) = self.consts.get(&x) {
            return s;
        }
        let s = self.code.template.len() as Slot;
        self.code.template.push(x);
        self.consts.insert(x, s);
        s
    }

    fn slot(&mut self, o: &Operand) -> Result<Slot, String> {
        match *o {
            Operand::Value(v) if v.index() < self.code.values => Ok(v.0),
            Operand::Value(v) => Err(format!("use of undefined value %{}", v.0)),
            Operand::Const { value, ty } => Ok(self.constant(canonical(ty, value))),
        }
    }

    /// The first operand's slot, or a zero constant if there is none.
    fn first(&mut self, args: &[Operand]) -> Result<Slot, String> {
        match args.first() {
            Some(o) => self.slot(o),
            None => Ok(self.constant(0)),
        }
    }

    /// Append `args`' slots to `lists`; returns their start.
    fn list(&mut self, args: &[Operand]) -> Result<u32, String> {
        let slots = args
            .iter()
            .map(|o| self.slot(o))
            .collect::<Result<Vec<_>, _>>()?;
        let start = self.code.lists.len() as u32;
        self.code.lists.extend(slots);
        Ok(start)
    }

    fn inst(&mut self, v: usize) -> Result<Inst, String> {
        let op = match self.f.values.get(v).map(|d| &d.def) {
            Some(ValueDef::Inst(op)) => op,
            Some(ValueDef::Param { .. }) => return Err("param in block".into()),
            None => return Err(format!("block lists undefined value %{v}")),
        };
        let d = v as Slot;
        Ok(match op {
            Op::Bin { op, a, b } => Inst::Bin {
                op: *op,
                d,
                a: self.slot(a)?,
                b: self.slot(b)?,
            },
            Op::Icmp { pred, a, b } => Inst::Icmp {
                pred: *pred,
                d,
                a: self.slot(a)?,
                b: self.slot(b)?,
            },
            Op::Select { c, t, f } => Inst::Select {
                d,
                c: self.slot(c)?,
                t: self.slot(t)?,
                f: self.slot(f)?,
            },
            Op::Load { ptr, ty: Ty::I32 } => Inst::Load32 {
                d,
                p: self.slot(ptr)?,
            },
            Op::Load { ptr, ty } => Inst::Load {
                ty: *ty,
                d,
                p: self.slot(ptr)?,
            },
            Op::Store {
                ptr,
                val,
                ty: Ty::I32 | Ty::Ptr,
            } => Inst::Store32 {
                p: self.slot(ptr)?,
                v: self.slot(val)?,
            },
            Op::Store { ptr, val, ty } => Inst::Store {
                ty: *ty,
                p: self.slot(ptr)?,
                v: self.slot(val)?,
            },
            Op::Alloca { elem, count } => Inst::Alloca {
                d,
                bytes: elem.size_bytes().wrapping_mul(*count).wrapping_add(3) & !3,
            },
            Op::Gep {
                base,
                index,
                stride,
                offset,
            } => Inst::Gep {
                d,
                base: self.slot(base)?,
                index: self.slot(index)?,
                stride: *stride,
                offset: *offset as u32,
            },
            Op::GlobalAddr(g) => {
                let addr = *self
                    .global_addrs
                    .get(g.index())
                    .ok_or_else(|| format!("undefined global @{}", g.0))?;
                Inst::Copy {
                    d,
                    s: self.constant(addr as i64),
                }
            }
            Op::Call { callee, args } => {
                if callee.index() >= self.funcs {
                    return Err(format!("call to undefined function #{}", callee.0));
                }
                Inst::Call {
                    d,
                    func: callee.0,
                    args: self.list(args)?,
                    n: args.len() as u32,
                }
            }
            Op::Ecall { code, args } => match *code {
                ecall::HALT => Inst::Halt {
                    a: self.first(args)?,
                },
                ecall::COMMIT => Inst::Commit {
                    d,
                    a: self.first(args)?,
                },
                ecall::READ_INPUT => Inst::ReadInput {
                    d,
                    a: self.first(args)?,
                },
                code => Inst::Ecall {
                    d,
                    code,
                    args: self.list(args)?,
                    n: args.len() as u32,
                },
            },
            Op::Phi { .. } => return Err("phi after non-phi".into()),
            Op::Cast { kind, v: src, to } => {
                // `slot` checks a value operand's id before `operand_ty` reads it.
                let s = self.slot(src)?;
                Inst::Cast {
                    kind: *kind,
                    from: self.f.operand_ty(src).ok_or("cast of void")?,
                    to: *to,
                    d,
                    s,
                }
            }
            Op::Copy(src) => Inst::Copy {
                d,
                s: self.slot(src)?,
            },
            Op::Nop => Inst::Nop,
        })
    }

    fn term(&mut self, from: BlockId, t: &Term) -> Result<Inst, String> {
        Ok(match t {
            Term::Br(to) => {
                let e = self.edge(from, *to);
                match self.plain(e) {
                    Some(pc) => Inst::Jump { pc },
                    None => Inst::Br { e },
                }
            }
            Term::CondBr { c, t, f } => {
                let c = self.slot(c)?;
                let (t, f) = (self.edge(from, *t), self.edge(from, *f));
                match (self.plain(t), self.plain(f)) {
                    (Some(t), Some(f)) => Inst::CondJump { c, t, f },
                    _ => Inst::CondBr { c, t, f },
                }
            }
            Term::Ret(v) => Inst::Ret {
                v: match v {
                    Some(o) => self.slot(o)?,
                    None => self.constant(0),
                },
            },
            Term::Unreachable => Inst::Unreachable,
        })
    }

    /// The target of edge `e` if taking it is a bare jump.
    fn plain(&self, e: u32) -> Option<u32> {
        let edge = self.code.edges[e as usize];
        (edge.phis == 0 && edge.fault.is_none()).then_some(edge.pc)
    }

    /// Decode edge `from → to`: its target and its phi copies.
    fn edge(&mut self, from: BlockId, to: BlockId) -> u32 {
        let edge = self.edge_data(from, to).unwrap_or_else(|m| Edge {
            pc: 0,
            start: 0,
            n: 0,
            phis: 0,
            fault: Some(self.message(m)),
        });
        self.code.edges.push(edge);
        (self.code.edges.len() - 1) as u32
    }

    fn edge_data(&mut self, from: BlockId, to: BlockId) -> Result<Edge, String> {
        let f = self.f;
        let (Some(&pc), Some(block)) = (self.block_pc.get(to.index()), f.blocks.get(to.index()))
        else {
            return Err(format!("branch to undefined bb{}", to.0));
        };
        let phis = &block.insts[..self.phi_count(&block.insts)];
        let mut moves = Vec::with_capacity(phis.len());
        for &v in phis {
            let Some(ValueDef::Inst(Op::Phi { incoming })) =
                f.values.get(v.index()).map(|d| &d.def)
            else {
                continue;
            };
            let (_, o) = incoming
                .iter()
                .find(|(b, _)| *b == from)
                .ok_or_else(|| format!("phi %{} missing edge from bb{}", v.0, from.0))?;
            moves.push((v.0, self.slot(o)?));
        }
        // Sequential moves are parallel ones unless a phi reads a slot an
        // earlier phi of the same edge writes; then every source goes
        // through a fresh temporary first.
        let clobbers = moves
            .iter()
            .enumerate()
            .any(|(j, &(_, s))| moves[..j].iter().any(|&(d, _)| d == s));
        let start = self.code.copies.len() as u32;
        if clobbers {
            let base = self.code.template.len() as Slot;
            self.code
                .template
                .resize(self.code.template.len() + moves.len(), 0);
            for (i, &(_, s)) in moves.iter().enumerate() {
                self.code.copies.push((base + i as Slot, s));
            }
            for (i, &(d, _)) in moves.iter().enumerate() {
                self.code.copies.push((d, base + i as Slot));
            }
        } else {
            self.code.copies.extend(&moves);
        }
        Ok(Edge {
            pc,
            start,
            n: self.code.copies.len() as u32 - start,
            phis: moves.len() as u32,
            fault: None,
        })
    }
}

/// The interpreter. One instance per run.
pub struct Interp<'m, H: EcallHandler> {
    module: &'m Module,
    funcs: Vec<Code>,
    mem: Memory,
    /// First global whose image does not fit guest memory, reported as a
    /// `MemFault` from [`Interp::run_main`], as the zkVM does.
    init_fault: Option<u32>,
    config: InterpConfig,
    handler: H,
}

/// A suspended caller.
struct Frame {
    func: usize,
    base: usize,
    /// Where the caller resumes.
    pc: usize,
    /// The caller's slot for the call's result.
    d: usize,
    /// The stack pointer at the call, restored on return.
    sp: u32,
}

/// Why the op loop left a function.
enum Exit {
    Call {
        d: Slot,
        func: u32,
        args: u32,
        n: u32,
    },
    Ret(i64),
}

impl<'m, H: EcallHandler> Interp<'m, H> {
    /// Create an interpreter over `module` with handler `handler`.
    pub fn new(module: &'m Module, config: InterpConfig, handler: H) -> Interp<'m, H> {
        let global_addrs = module.layout_globals();
        let mut mem = Memory::new();
        let mut init_fault = None;
        for (g, &addr) in module.globals.iter().zip(&global_addrs) {
            if Memory::fits(addr, g.init.len()) {
                mem.write(addr as usize, &g.init);
            } else if init_fault.is_none() {
                init_fault = Some(addr);
            }
        }
        let funcs = module
            .funcs
            .iter()
            .map(|f| Decoder::decode(f, module.funcs.len(), &global_addrs))
            .collect();
        Interp {
            module,
            funcs,
            mem,
            init_fault,
            config,
            handler,
        }
    }

    /// Run the module's `main` function to completion.
    ///
    /// # Errors
    /// Returns an [`InterpError`] on faults, missing `main`, or exhausted
    /// budgets.
    pub fn run_main(self) -> Result<InterpOutcome, InterpError> {
        if let Some(addr) = self.init_fault {
            return Err(InterpError::MemFault { addr });
        }
        let main = self.module.main_func().ok_or(InterpError::NoMain)?.index();
        let Interp {
            funcs,
            mut mem,
            config,
            mut handler,
            ..
        } = self;
        let max_steps = config.max_steps;
        let mut steps: u64 = 0;
        let mut sp = STACK_TOP;
        let mut journal = Vec::new();
        let mut args: Vec<i64> = Vec::new();
        let mut frames: Vec<Frame> = Vec::new();
        let (mut fi, mut base) = (main, 0);
        let code = &funcs[fi];
        let mut pc = code.entry.map_err(|m| malformed(code, m))? as usize;
        let mut stack: Vec<i64> = code.template.clone();
        macro_rules! bump {
            ($n:expr) => {
                steps += $n;
                if steps > max_steps {
                    return Err(InterpError::StepLimit);
                }
            };
        }
        loop {
            let code = &funcs[fi];
            let vals = &mut stack[base..];
            // Take edge `e`: its phi copies, then its target.
            macro_rules! take {
                ($e:expr) => {{
                    let edge = code.edges[$e as usize];
                    if let Some(m) = edge.fault {
                        return Err(malformed(code, m));
                    }
                    let (s, n) = (edge.start as usize, edge.n as usize);
                    for &(d, s) in &code.copies[s..s + n] {
                        vals[d as usize] = vals[s as usize];
                    }
                    bump!(u64::from(edge.phis));
                    edge.pc as usize
                }};
            }
            let exit = loop {
                let inst = code.ops[pc];
                pc += 1;
                match inst {
                    Inst::Bin { op, d, a, b } => {
                        bump!(1);
                        vals[d as usize] = op.eval32(vals[a as usize], vals[b as usize]);
                    }
                    Inst::Icmp { pred, d, a, b } => {
                        bump!(1);
                        vals[d as usize] = pred.eval32(vals[a as usize], vals[b as usize]) as i64;
                    }
                    Inst::Select { d, c, t, f } => {
                        bump!(1);
                        let s = if vals[c as usize] != 0 { t } else { f };
                        vals[d as usize] = vals[s as usize];
                    }
                    Inst::Load32 { d, p } => {
                        bump!(1);
                        let a = Memory::check(vals[p as usize] as u32, 4)?;
                        vals[d as usize] = mem.word(a) as i32 as i64;
                    }
                    Inst::Store32 { p, v } => {
                        bump!(1);
                        let a = Memory::check(vals[p as usize] as u32, 4)?;
                        mem.set_word(a, vals[v as usize] as u32);
                    }
                    Inst::Load { ty, d, p } => {
                        bump!(1);
                        vals[d as usize] = mem.load(vals[p as usize] as u32, ty)?;
                    }
                    Inst::Store { ty, p, v } => {
                        bump!(1);
                        mem.store(vals[p as usize] as u32, vals[v as usize], ty)?;
                    }
                    Inst::Alloca { d, bytes } => {
                        bump!(1);
                        sp = sp
                            .checked_sub(bytes)
                            .ok_or(InterpError::MemFault { addr: 0 })?;
                        if sp < GLOBAL_BASE {
                            return Err(InterpError::MemFault { addr: sp });
                        }
                        vals[d as usize] = sp as i64;
                    }
                    Inst::Gep {
                        d,
                        base,
                        index,
                        stride,
                        offset,
                    } => {
                        bump!(1);
                        let b = vals[base as usize] as u32;
                        let i = vals[index as usize] as u32;
                        vals[d as usize] =
                            b.wrapping_add(i.wrapping_mul(stride)).wrapping_add(offset) as i64;
                    }
                    Inst::Cast {
                        kind,
                        from,
                        to,
                        d,
                        s,
                    } => {
                        bump!(1);
                        let sv = vals[s as usize];
                        vals[d as usize] = match kind {
                            CastKind::Zext => canonical(to, from.truncate_u(sv)),
                            CastKind::Sext => canonical(to, from.truncate_s(sv)),
                            CastKind::Trunc => canonical(to, sv),
                        };
                    }
                    Inst::Copy { d, s } => {
                        bump!(1);
                        vals[d as usize] = vals[s as usize];
                    }
                    Inst::Call { d, func, args, n } => {
                        bump!(1);
                        break Exit::Call { d, func, args, n };
                    }
                    Inst::Halt { a } => {
                        bump!(1);
                        return Ok(InterpOutcome {
                            exit_value: vals[a as usize] as i32 as i64,
                            journal,
                            steps,
                            halted: true,
                        });
                    }
                    Inst::Commit { d, a } => {
                        bump!(1);
                        journal.push(vals[a as usize] as i32);
                        vals[d as usize] = 0;
                    }
                    Inst::ReadInput { d, a } => {
                        bump!(1);
                        let idx = vals[a as usize] as usize;
                        vals[d as usize] = config.inputs.get(idx).copied().unwrap_or(0) as i64;
                    }
                    Inst::Ecall {
                        d,
                        code: c,
                        args: at,
                        n,
                    } => {
                        bump!(1);
                        let at = at as usize;
                        args.clear();
                        args.extend(
                            code.lists[at..at + n as usize]
                                .iter()
                                .map(|&s| vals[s as usize]),
                        );
                        vals[d as usize] = handler.handle(c, &args, &mut mem);
                    }
                    Inst::Nop => {
                        bump!(1);
                    }
                    Inst::Fail(m) => {
                        bump!(1);
                        return Err(malformed(code, m));
                    }
                    Inst::Jump { pc: to } => {
                        bump!(1);
                        pc = to as usize;
                    }
                    Inst::CondJump { c, t, f } => {
                        bump!(1);
                        pc = if vals[c as usize] != 0 { t } else { f } as usize;
                    }
                    Inst::Br { e } => {
                        bump!(1);
                        pc = take!(e);
                    }
                    Inst::CondBr { c, t, f } => {
                        bump!(1);
                        pc = take!(if vals[c as usize] != 0 { t } else { f });
                    }
                    Inst::Ret { v } => break Exit::Ret(vals[v as usize]),
                    Inst::Unreachable => return Err(InterpError::Unreachable),
                }
            };
            match exit {
                Exit::Call { d, func, args, n } => {
                    if frames.len() + 1 > config.max_depth {
                        return Err(InterpError::DepthLimit);
                    }
                    let callee = &funcs[func as usize];
                    let entry = callee.entry.map_err(|m| malformed(callee, m))?;
                    let new_base = stack.len();
                    stack.extend_from_slice(&callee.template);
                    let (at, n) = (args as usize, (n as usize).min(callee.values));
                    for (i, &s) in code.lists[at..at + n].iter().enumerate() {
                        stack[new_base + i] = stack[base + s as usize];
                    }
                    frames.push(Frame {
                        func: fi,
                        base,
                        pc,
                        d: d as usize,
                        sp,
                    });
                    (fi, base, pc) = (func as usize, new_base, entry as usize);
                }
                Exit::Ret(r) => {
                    stack.truncate(base);
                    let Some(caller) = frames.pop() else {
                        return Ok(InterpOutcome {
                            exit_value: r,
                            journal,
                            steps,
                            halted: false,
                        });
                    };
                    (fi, base, pc, sp) = (caller.func, caller.base, caller.pc, caller.sp);
                    stack[base + caller.d] = r;
                }
            }
        }
    }
}

fn malformed(code: &Code, m: u32) -> InterpError {
    InterpError::Malformed(code.messages[m as usize].clone())
}

/// Canonicalize a raw value for storage in a value slot of type `ty`.
fn canonical(ty: Ty, v: i64) -> i64 {
    match ty {
        Ty::I1 => v & 1,
        Ty::I8 => v & 0xff,
        Ty::I32 => (v as i32) as i64,
        Ty::Ptr => v & 0xffff_ffff,
    }
}

/// Convenience: run `main` of `module` with the given inputs and a no-op
/// precompile handler.
///
/// # Errors
/// Propagates any [`InterpError`].
pub fn run_module(module: &Module, inputs: &[i32]) -> Result<InterpOutcome, InterpError> {
    let config = InterpConfig {
        inputs: inputs.to_vec(),
        ..InterpConfig::default()
    };
    Interp::new(module, config, NopEcalls).run_main()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::func::{FuncId, Function};

    fn module_with(f: Function) -> Module {
        let mut m = Module::new();
        m.add_func(f);
        m
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut b = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        let x = b.bin(BinOp::Mul, Operand::i32(6), Operand::i32(7));
        b.ret(Some(Operand::val(x)));
        let m = module_with(b.finish());
        let out = run_module(&m, &[]).unwrap();
        assert_eq!(out.exit_value, 42);
        assert_eq!(out.steps, 1, "`ret` counts no step");
        assert!(!out.halted);
    }

    #[test]
    fn loop_with_phis() {
        // sum 0..10 == 45
        let mut b = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let entry = b.current_block();
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Ty::I32, vec![(entry, Operand::i32(0))]);
        let s = b.phi(Ty::I32, vec![(entry, Operand::i32(0))]);
        let c = b.icmp(Pred::Slt, Operand::val(i), Operand::i32(10));
        b.cond_br(Operand::val(c), body, exit);
        b.switch_to(body);
        let s2 = b.bin(BinOp::Add, Operand::val(s), Operand::val(i));
        let i2 = b.bin(BinOp::Add, Operand::val(i), Operand::i32(1));
        b.br(header);
        b.add_phi_incoming(i, body, Operand::val(i2));
        b.add_phi_incoming(s, body, Operand::val(s2));
        b.switch_to(exit);
        b.ret(Some(Operand::val(s)));
        let m = module_with(b.finish());
        let out = run_module(&m, &[]).unwrap();
        assert_eq!(out.exit_value, 45);
        // The entry `br`; eleven header visits of two phi copies, the icmp
        // and the `condbr`; ten body visits of two adds and the `br`.
        assert_eq!(out.steps, 1 + 11 * 4 + 10 * 3);
    }

    #[test]
    fn phi_copies_of_an_edge_are_parallel() {
        // (a, b) = (b, a) three times through phis that read each other.
        let mut b = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        let (header, body, exit) = (b.new_block(), b.new_block(), b.new_block());
        let entry = b.current_block();
        b.br(header);
        b.switch_to(header);
        let x = b.phi(Ty::I32, vec![(entry, Operand::i32(1))]);
        let y = b.phi(Ty::I32, vec![(entry, Operand::i32(2))]);
        let n = b.phi(Ty::I32, vec![(entry, Operand::i32(0))]);
        let c = b.icmp(Pred::Slt, Operand::val(n), Operand::i32(3));
        b.cond_br(Operand::val(c), body, exit);
        b.switch_to(body);
        let n2 = b.bin(BinOp::Add, Operand::val(n), Operand::i32(1));
        b.br(header);
        b.add_phi_incoming(x, body, Operand::val(y));
        b.add_phi_incoming(y, body, Operand::val(x));
        b.add_phi_incoming(n, body, Operand::val(n2));
        b.switch_to(exit);
        let r = b.bin(BinOp::Mul, Operand::val(x), Operand::i32(10));
        let r = b.bin(BinOp::Add, Operand::val(r), Operand::val(y));
        b.ret(Some(Operand::val(r)));
        let m = module_with(b.finish());
        assert_eq!(run_module(&m, &[]).unwrap().exit_value, 21);
    }

    #[test]
    fn memory_roundtrip_via_alloca() {
        let mut b = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        let p = b.alloca(Ty::I32, 4);
        let slot = b.gep(Operand::val(p), Operand::i32(2), 4, 0);
        b.store(Operand::val(slot), Operand::i32(-5), Ty::I32);
        let l = b.load(Operand::val(slot), Ty::I32);
        b.ret(Some(Operand::val(l)));
        let m = module_with(b.finish());
        assert_eq!(run_module(&m, &[]).unwrap().exit_value, -5);
    }

    #[test]
    fn globals_initialized_and_addressable() {
        let mut m = Module::new();
        let g = m.add_global(crate::Global::with_data("d", vec![1, 0, 0, 0, 2, 0, 0, 0]));
        let mut b = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        let base = b.global_addr(g);
        let a = b.load(Operand::val(base), Ty::I32);
        let p1 = b.gep(Operand::val(base), Operand::i32(1), 4, 0);
        let c = b.load(Operand::val(p1), Ty::I32);
        let s = b.bin(BinOp::Add, Operand::val(a), Operand::val(c));
        b.ret(Some(Operand::val(s)));
        m.add_func(b.finish());
        assert_eq!(run_module(&m, &[]).unwrap().exit_value, 3);
    }

    #[test]
    fn calls_and_recursion() {
        // fact(5) = 120 via recursion.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("fact", vec![Ty::I32], Some(Ty::I32));
        let base_bb = fb.new_block();
        let rec_bb = fb.new_block();
        let n = fb.param(0);
        let c = fb.icmp(Pred::Sle, Operand::val(n), Operand::i32(1));
        fb.cond_br(Operand::val(c), base_bb, rec_bb);
        fb.switch_to(base_bb);
        fb.ret(Some(Operand::i32(1)));
        fb.switch_to(rec_bb);
        let n1 = fb.bin(BinOp::Sub, Operand::val(n), Operand::i32(1));
        let r = fb.call(FuncId(0), vec![Operand::val(n1)], Some(Ty::I32));
        let p = fb.bin(BinOp::Mul, Operand::val(n), Operand::val(r));
        fb.ret(Some(Operand::val(p)));
        m.add_func(fb.finish());
        let mut b = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        let r = b.call(FuncId(0), vec![Operand::i32(5)], Some(Ty::I32));
        b.ret(Some(Operand::val(r)));
        m.add_func(b.finish());
        assert_eq!(run_module(&m, &[]).unwrap().exit_value, 120);
    }

    #[test]
    fn halt_and_journal() {
        let mut b = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        b.ecall(ecall::COMMIT, vec![Operand::i32(11)]);
        b.ecall(ecall::COMMIT, vec![Operand::i32(22)]);
        b.ecall(ecall::HALT, vec![Operand::i32(3)]);
        b.ret(Some(Operand::i32(0)));
        let m = module_with(b.finish());
        let out = run_module(&m, &[]).unwrap();
        assert!(out.halted);
        assert_eq!(out.exit_value, 3);
        assert_eq!(out.journal, vec![11, 22]);
    }

    #[test]
    fn read_input_serves_config_values() {
        let mut b = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        let x = b.ecall(ecall::READ_INPUT, vec![Operand::i32(1)]);
        b.ret(Some(Operand::val(x)));
        let m = module_with(b.finish());
        assert_eq!(run_module(&m, &[7, 9]).unwrap().exit_value, 9);
    }

    #[test]
    fn mem_fault_on_null_access() {
        let mut b = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        let z = b.gep(Operand::i32(0), Operand::i32(0), 1, 0);
        let l = b.load(Operand::val(z), Ty::I32);
        b.ret(Some(Operand::val(l)));
        let m = module_with(b.finish());
        assert!(matches!(
            run_module(&m, &[]),
            Err(InterpError::MemFault { .. })
        ));
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let mut b = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        let l = b.new_block();
        b.br(l);
        b.switch_to(l);
        b.br(l);
        let m = module_with(b.finish());
        let cfg = InterpConfig {
            max_steps: 1000,
            ..Default::default()
        };
        let r = Interp::new(&m, cfg, NopEcalls).run_main();
        assert_eq!(r.unwrap_err(), InterpError::StepLimit);
    }

    #[test]
    fn byte_loads_are_zero_extended() {
        let mut b = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        let p = b.alloca(Ty::I8, 1);
        b.store(Operand::val(p), Operand::i8(0xff), Ty::I8);
        let l = b.load(Operand::val(p), Ty::I8);
        let w = b.cast(CastKind::Zext, Operand::val(l), Ty::I32);
        b.ret(Some(Operand::val(w)));
        let m = module_with(b.finish());
        assert_eq!(run_module(&m, &[]).unwrap().exit_value, 255);
    }

    #[test]
    fn sext_of_byte() {
        let mut b = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        let w = b.cast(CastKind::Sext, Operand::i8(0xff), Ty::I32);
        b.ret(Some(Operand::val(w)));
        let m = module_with(b.finish());
        assert_eq!(run_module(&m, &[]).unwrap().exit_value, -1);
    }

    #[test]
    fn gep_with_i32_base_is_a_fault_guard() {
        // Using a constant pointer below 0x100 faults; this is the null guard.
        let mut b = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        b.store(
            Operand::Const {
                value: 0x10,
                ty: Ty::Ptr,
            },
            Operand::i32(1),
            Ty::I32,
        );
        b.ret(Some(Operand::i32(0)));
        let m = module_with(b.finish());
        assert!(matches!(
            run_module(&m, &[]),
            Err(InterpError::MemFault { addr: 0x10 })
        ));
    }

    #[test]
    fn words_straddle_pages_and_untouched_pages_read_zero() {
        let mut m = Module::new();
        let g = m.add_global(crate::Global::zeroed("z", 3 * PAGE_SIZE as u32));
        let mut b = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        let base = b.global_addr(g);
        // Two bytes before the end of the global's first page.
        let edge = b.gep(Operand::val(base), Operand::i32(1), PAGE_SIZE as u32 - 2, 0);
        b.store(Operand::val(edge), Operand::i32(-0x1234_5678), Ty::I32);
        let w = b.load(Operand::val(edge), Ty::I32);
        let hi = b.gep(Operand::val(edge), Operand::i32(3), 1, 0);
        let hb = b.load(Operand::val(hi), Ty::I8);
        let far = b.gep(Operand::val(base), Operand::i32(2), PAGE_SIZE as u32, 8);
        let z = b.load(Operand::val(far), Ty::I32);
        b.ecall(ecall::COMMIT, vec![Operand::val(w)]);
        b.ecall(ecall::COMMIT, vec![Operand::val(hb)]);
        b.ecall(ecall::COMMIT, vec![Operand::val(z)]);
        b.ret(Some(Operand::i32(0)));
        m.add_func(b.finish());
        let interp = Interp::new(&m, InterpConfig::default(), NopEcalls);
        let touched = interp.mem.pages.iter().filter(|p| p.is_some()).count();
        assert_eq!(touched, 0, "a zeroed global allocates no page");
        let out = interp.run_main().unwrap();
        assert_eq!(out.journal, vec![-0x1234_5678, 0xed, 0]);
    }

    #[test]
    fn precompile_traffic_goes_through_mem_io() {
        /// Copies 8 bytes from `a0` to `a2` across a page boundary, and
        /// reports what an out-of-range read and write did.
        struct Mover;
        impl EcallHandler for Mover {
            fn handle(&mut self, _code: u32, args: &[i64], mem: &mut dyn MemIo) -> i64 {
                let data = mem.read_bytes(args[0] as u32, 8);
                mem.write_bytes(args[2] as u32, &data);
                mem.write_bytes(MEM_SIZE - 4, &[7; 8]);
                let past = mem.read_bytes(MEM_SIZE - 4, 8);
                let page0 = mem.read_bytes(0, 4);
                (past.len() == 8 && past.iter().all(|&b| b == 0) && page0 == [0; 4]) as i64
            }
        }
        let mut m = Module::new();
        let src = m.add_global(crate::Global::with_data("src", (1..=8).collect()));
        let dst = m.add_global(crate::Global::zeroed("dst", 2 * PAGE_SIZE as u32));
        let mut b = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        // Eight bytes across the end of the first global page, inside `dst`.
        let at_addr = GLOBAL_BASE + PAGE_SIZE as u32 - 3;
        assert!(m.layout_globals()[dst.index()] < at_addr);
        let at = Operand::Const {
            value: at_addr.into(),
            ty: Ty::Ptr,
        };
        let s = b.global_addr(src);
        let ok = b.ecall(ecall::SHA256, vec![Operand::val(s), Operand::i32(8), at]);
        let lo = b.load(at, Ty::I32);
        let hi_at = b.gep(at, Operand::i32(4), 1, 0);
        let hi = b.load(Operand::val(hi_at), Ty::I32);
        b.ecall(ecall::COMMIT, vec![Operand::val(ok)]);
        b.ecall(ecall::COMMIT, vec![Operand::val(lo)]);
        b.ecall(ecall::COMMIT, vec![Operand::val(hi)]);
        b.ret(Some(Operand::i32(0)));
        m.add_func(b.finish());
        let out = Interp::new(&m, InterpConfig::default(), Mover)
            .run_main()
            .unwrap();
        assert_eq!(out.journal, vec![1, 0x0403_0201, 0x0807_0605]);
    }
}
