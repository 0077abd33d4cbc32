//! Emission: allocated functions → a linked RV32IM [`Program`].
//!
//! Handles prologue/epilogue, spill-slot addressing, parallel moves for
//! calls/ecalls/parameters, immediate materialization, and branch/call
//! patching.

use crate::inst::{AluImmOp, AluOp, Inst, MemWidth};
use crate::isel::CodegenError;
use crate::reg::{Reg, SCRATCH0, SCRATCH1};
use crate::regalloc::{AllocatedFunc, Loc};
use crate::vinst::VInst;

/// A linked guest program. Equal programs execute identically on equal
/// inputs, which is what lets a study matrix (`SuiteRunner::run_matrix`)
/// run a repeated one once and the tuner's fitness backend
/// (`BatchEvaluator`) answer a candidate that links its baseline or `-O3`
/// program with the run it made when it was built.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Program {
    /// Instruction stream (word-indexed).
    pub code: Vec<Inst<Reg>>,
    /// Index of the `_start` stub.
    pub entry: usize,
    /// Entry index of each function (by module function index).
    pub func_entries: Vec<usize>,
    /// Function names (by module function index).
    pub func_names: Vec<String>,
    /// Initialized globals: (virtual address, bytes).
    pub globals: Vec<(u32, Vec<u8>)>,
    /// Total spilled virtual registers across functions (codegen statistic).
    pub spilled_vregs: u32,
}

impl Program {
    /// Static code size in instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Disassemble to text (for tests and debugging).
    pub fn disassemble(&self) -> String {
        let mut s = String::new();
        for (i, inst) in self.code.iter().enumerate() {
            if let Some(fi) = self.func_entries.iter().position(|&e| e == i) {
                s.push_str(&format!("{}:\n", self.func_names[fi]));
            }
            s.push_str(&format!("  {i:6}: {inst}\n"));
        }
        s
    }
}

/// One source of a parallel move.
#[derive(Debug, Clone, Copy, PartialEq)]
enum MoveSrc {
    Reg(Reg),
    /// Frame slot byte offset (sp-relative).
    Frame(i32),
    Imm(i32),
}

struct Emitter {
    code: Vec<Inst<Reg>>,
    /// (code index, layout block) branch fixups for the current function.
    block_fixups: Vec<(usize, usize)>,
    /// (code index, callee func index) call fixups.
    call_fixups: Vec<(usize, usize)>,
}

impl Emitter {
    fn li(&mut self, rd: Reg, imm: i32) {
        if (-2048..=2047).contains(&imm) {
            self.code.push(Inst::AluImm {
                op: AluImmOp::Addi,
                rd,
                rs1: Reg::ZERO,
                imm,
            });
        } else {
            // lui + addi with carry adjustment.
            let hi = (imm as i64 + 0x800) as i32 & !0xfff;
            let lo = imm.wrapping_sub(hi);
            self.code.push(Inst::Lui { rd, imm: hi });
            if lo != 0 {
                self.code.push(Inst::AluImm {
                    op: AluImmOp::Addi,
                    rd,
                    rs1: rd,
                    imm: lo,
                });
            }
        }
    }

    fn mv(&mut self, rd: Reg, rs: Reg) {
        if rd != rs {
            self.code.push(Inst::AluImm {
                op: AluImmOp::Addi,
                rd,
                rs1: rs,
                imm: 0,
            });
        }
    }

    /// Load a word from `sp + off` into `rd` (using `addr_scratch` when the
    /// offset exceeds imm12).
    fn frame_load(&mut self, rd: Reg, off: i32, addr_scratch: Reg) {
        if (-2048..=2047).contains(&off) {
            self.code.push(Inst::Load {
                width: MemWidth::Word,
                rd,
                base: Reg::SP,
                offset: off,
            });
        } else {
            self.li(addr_scratch, off);
            self.code.push(Inst::Alu {
                op: AluOp::Add,
                rd: addr_scratch,
                rs1: Reg::SP,
                rs2: addr_scratch,
            });
            self.code.push(Inst::Load {
                width: MemWidth::Word,
                rd,
                base: addr_scratch,
                offset: 0,
            });
        }
    }

    /// Store `src` to `sp + off`.
    fn frame_store(&mut self, src: Reg, off: i32, addr_scratch: Reg) {
        assert_ne!(src, addr_scratch, "scratch conflict in frame_store");
        if (-2048..=2047).contains(&off) {
            self.code.push(Inst::Store {
                width: MemWidth::Word,
                src,
                base: Reg::SP,
                offset: off,
            });
        } else {
            self.li(addr_scratch, off);
            self.code.push(Inst::Alu {
                op: AluOp::Add,
                rd: addr_scratch,
                rs1: Reg::SP,
                rs2: addr_scratch,
            });
            self.code.push(Inst::Store {
                width: MemWidth::Word,
                src,
                base: addr_scratch,
                offset: 0,
            });
        }
    }

    /// Resolve a parallel move (all destinations distinct registers).
    fn parallel_moves(&mut self, moves: Vec<(Reg, MoveSrc)>) {
        let mut pending: Vec<(Reg, MoveSrc)> = moves
            .into_iter()
            .filter(|(d, s)| !matches!(s, MoveSrc::Reg(r) if r == d))
            .collect();
        while !pending.is_empty() {
            // Emit any move whose destination is not a pending source.
            let ready = pending.iter().position(|(d, _)| {
                !pending
                    .iter()
                    .any(|(_, s)| matches!(s, MoveSrc::Reg(r) if r == d))
            });
            match ready {
                Some(i) => {
                    let (d, s) = pending.remove(i);
                    match s {
                        MoveSrc::Reg(r) => self.mv(d, r),
                        MoveSrc::Frame(off) => self.frame_load(d, off, SCRATCH0),
                        MoveSrc::Imm(v) => self.li(d, v),
                    }
                }
                None => {
                    // Cycle: park the first destination in SCRATCH1.
                    let victim = pending[0].0;
                    self.mv(SCRATCH1, victim);
                    for (_, s) in pending.iter_mut() {
                        if matches!(s, MoveSrc::Reg(r) if *r == victim) {
                            *s = MoveSrc::Reg(SCRATCH1);
                        }
                    }
                }
            }
        }
    }
}

/// Frame layout for one function.
struct Frame {
    size: i32,
    /// Byte offset of spill slot `i`.
    slot_off: Vec<i32>,
    /// Byte offset of the alloca region base (always 0).
    alloca_base: i32,
    /// (register, save offset) pairs, `ra` last.
    saves: Vec<(Reg, i32)>,
}

fn layout_frame(af: &AllocatedFunc) -> Frame {
    let alloca = af.alloca_bytes as i32;
    let spill_base = alloca;
    let slot_off: Vec<i32> = (0..af.spill_slots)
        .map(|i| spill_base + 4 * i as i32)
        .collect();
    let save_base = spill_base + 4 * af.spill_slots as i32;
    let mut saves: Vec<(Reg, i32)> = af
        .used_callee_saved
        .iter()
        .enumerate()
        .map(|(i, r)| (*r, save_base + 4 * i as i32))
        .collect();
    let ra_off = save_base + 4 * saves.len() as i32;
    saves.push((Reg::RA, ra_off));
    let raw = ra_off + 4;
    let size = (raw + 15) & !15;
    Frame {
        size,
        slot_off,
        alloca_base: 0,
        saves,
    }
}

fn loc_use(e: &mut Emitter, frame: &Frame, loc: Loc, which: usize) -> Reg {
    match loc {
        Loc::Reg(r) => r,
        Loc::Slot(s) => {
            let scratch = if which == 0 { SCRATCH0 } else { SCRATCH1 };
            e.frame_load(scratch, frame.slot_off[s as usize], scratch);
            scratch
        }
    }
}

/// Emit `compute(rd)` into the location `loc`.
fn loc_def(e: &mut Emitter, frame: &Frame, loc: Loc, compute: impl FnOnce(&mut Emitter, Reg)) {
    match loc {
        Loc::Reg(r) => compute(e, r),
        Loc::Slot(s) => {
            compute(e, SCRATCH0);
            e.frame_store(SCRATCH0, frame.slot_off[s as usize], SCRATCH1);
        }
    }
}

fn move_src(frame: &Frame, loc: Loc) -> MoveSrc {
    match loc {
        Loc::Reg(r) => MoveSrc::Reg(r),
        Loc::Slot(s) => MoveSrc::Frame(frame.slot_off[s as usize]),
    }
}

/// Link allocated functions into a [`Program`].
///
/// # Errors
/// Returns [`CodegenError`] when the module has no `main`.
pub fn link(
    funcs: &[AllocatedFunc],
    globals: Vec<(u32, Vec<u8>)>,
    main_index: usize,
) -> Result<Program, CodegenError> {
    let mut e = Emitter {
        code: Vec::new(),
        block_fixups: Vec::new(),
        call_fixups: Vec::new(),
    };
    // _start: call main, then halt with its return value.
    // a0 already holds main's return after the call.
    let start = e.code.len();
    e.call_fixups.push((e.code.len(), main_index));
    e.code.push(Inst::Jal {
        rd: Reg::RA,
        target: 0,
    });
    e.li(Reg::T0, zkvmopt_ir::ecall::HALT as i32);
    e.code.push(Inst::Ecall);

    let mut func_entries = vec![usize::MAX; funcs.len()];
    let mut func_names = vec![String::new(); funcs.len()];
    for af in funcs {
        let entry = e.code.len();
        func_entries[af.func_index] = entry;
        func_names[af.func_index] = af.name.clone();
        emit_function(&mut e, af)?;
    }
    // Patch calls.
    for (idx, callee) in std::mem::take(&mut e.call_fixups) {
        let target = func_entries[callee];
        if target == usize::MAX {
            return Err(CodegenError {
                func: "<link>".into(),
                message: format!("call to unemitted function #{callee}"),
            });
        }
        if let Inst::Jal { target: t, .. } = &mut e.code[idx] {
            *t = target;
        }
    }
    let mut spilled = 0;
    for af in funcs {
        spilled += af.spilled_vregs;
    }
    Ok(Program {
        code: e.code,
        entry: start,
        func_entries,
        func_names,
        globals,
        spilled_vregs: spilled,
    })
}

fn emit_function(e: &mut Emitter, af: &AllocatedFunc) -> Result<(), CodegenError> {
    let frame = layout_frame(af);
    // Prologue.
    if frame.size > 0 {
        if frame.size <= 2047 {
            e.code.push(Inst::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::SP,
                rs1: Reg::SP,
                imm: -frame.size,
            });
        } else {
            e.li(SCRATCH0, frame.size);
            e.code.push(Inst::Alu {
                op: AluOp::Sub,
                rd: Reg::SP,
                rs1: Reg::SP,
                rs2: SCRATCH0,
            });
        }
    }
    for &(r, off) in &frame.saves {
        e.frame_store(r, off, SCRATCH0);
    }
    // Parameters: leading Param pseudos form one parallel move.
    let mut param_moves: Vec<(Reg, MoveSrc)> = Vec::new();
    let mut param_slot_stores: Vec<(usize, i32)> = Vec::new(); // (arg index, slot off)
    let mut skip: Vec<usize> = Vec::new();
    if let Some(first) = af.blocks.first() {
        for (i, inst) in first.iter().enumerate() {
            if let VInst::Param { rd, index } = inst {
                match rd {
                    Loc::Reg(r) => param_moves.push((*r, MoveSrc::Reg(Reg::arg(*index)))),
                    Loc::Slot(s) => param_slot_stores.push((*index, frame.slot_off[*s as usize])),
                }
                skip.push(i);
            } else {
                break;
            }
        }
    }
    for (idx, off) in param_slot_stores {
        e.frame_store(Reg::arg(idx), off, SCRATCH0);
    }
    e.parallel_moves(param_moves);

    let mut block_starts: Vec<usize> = Vec::with_capacity(af.blocks.len());
    let fixup_base = e.block_fixups.len();
    for (bi, block) in af.blocks.iter().enumerate() {
        block_starts.push(e.code.len());
        for (ii, inst) in block.iter().enumerate() {
            if bi == 0 && skip.contains(&ii) {
                continue;
            }
            emit_inst(e, &frame, af, inst)?;
        }
    }
    // Patch branch targets within this function.
    let fixups: Vec<(usize, usize)> = e.block_fixups.drain(fixup_base..).collect();
    for (idx, blk) in fixups {
        let target = block_starts[blk];
        match &mut e.code[idx] {
            Inst::Branch { target: t, .. } | Inst::Jal { target: t, .. } => *t = target,
            other => panic!("fixup on non-branch {other}"),
        }
    }
    Ok(())
}

fn emit_inst(
    e: &mut Emitter,
    frame: &Frame,
    af: &AllocatedFunc,
    inst: &VInst<Loc>,
) -> Result<(), CodegenError> {
    match inst {
        VInst::Alu { op, rd, rs1, rs2 } => {
            let r1 = loc_use(e, frame, *rs1, 0);
            let r2 = loc_use(e, frame, *rs2, 1);
            loc_def(e, frame, *rd, |e, d| {
                e.code.push(Inst::Alu {
                    op: *op,
                    rd: d,
                    rs1: r1,
                    rs2: r2,
                });
            });
        }
        VInst::AluImm { op, rd, rs1, imm } => {
            let r1 = loc_use(e, frame, *rs1, 0);
            loc_def(e, frame, *rd, |e, d| {
                e.code.push(Inst::AluImm {
                    op: *op,
                    rd: d,
                    rs1: r1,
                    imm: *imm,
                });
            });
        }
        VInst::LoadImm { rd, imm } => {
            loc_def(e, frame, *rd, |e, d| e.li(d, *imm));
        }
        VInst::Load {
            width,
            rd,
            base,
            offset,
        } => {
            let b = loc_use(e, frame, *base, 0);
            loc_def(e, frame, *rd, |e, d| {
                e.code.push(Inst::Load {
                    width: *width,
                    rd: d,
                    base: b,
                    offset: *offset,
                });
            });
        }
        VInst::Store {
            width,
            src,
            base,
            offset,
        } => {
            let s = loc_use(e, frame, *src, 0);
            let b = loc_use(e, frame, *base, 1);
            e.code.push(Inst::Store {
                width: *width,
                src: s,
                base: b,
                offset: *offset,
            });
        }
        VInst::FrameAddr { rd, offset } => {
            let total = frame.alloca_base + *offset;
            loc_def(e, frame, *rd, |e, d| {
                if (-2048..=2047).contains(&total) {
                    e.code.push(Inst::AluImm {
                        op: AluImmOp::Addi,
                        rd: d,
                        rs1: Reg::SP,
                        imm: total,
                    });
                } else {
                    e.li(d, total);
                    e.code.push(Inst::Alu {
                        op: AluOp::Add,
                        rd: d,
                        rs1: Reg::SP,
                        rs2: d,
                    });
                }
            });
        }
        VInst::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => {
            let r1 = loc_use(e, frame, *rs1, 0);
            let r2 = match rs2 {
                Some(l) => loc_use(e, frame, *l, 1),
                None => Reg::ZERO,
            };
            e.block_fixups.push((e.code.len(), *target));
            e.code.push(Inst::Branch {
                cond: *cond,
                rs1: r1,
                rs2: r2,
                target: 0,
            });
        }
        VInst::Jump { target } => {
            e.block_fixups.push((e.code.len(), *target));
            e.code.push(Inst::Jal {
                rd: Reg::ZERO,
                target: 0,
            });
        }
        VInst::Call { callee, args, ret } => {
            if args.len() > 8 {
                return Err(CodegenError {
                    func: af.name.clone(),
                    message: "too many call arguments".into(),
                });
            }
            let moves: Vec<(Reg, MoveSrc)> = args
                .iter()
                .enumerate()
                .map(|(i, l)| (Reg::arg(i), move_src(frame, *l)))
                .collect();
            e.parallel_moves(moves);
            e.call_fixups.push((e.code.len(), *callee));
            e.code.push(Inst::Jal {
                rd: Reg::RA,
                target: 0,
            });
            if let Some(r) = ret {
                match r {
                    Loc::Reg(rr) => e.mv(*rr, Reg::A0),
                    Loc::Slot(s) => e.frame_store(Reg::A0, frame.slot_off[*s as usize], SCRATCH0),
                }
            }
        }
        VInst::Ecall { code, args, ret } => {
            let mut moves: Vec<(Reg, MoveSrc)> = args
                .iter()
                .enumerate()
                .map(|(i, l)| (Reg::arg(i), move_src(frame, *l)))
                .collect();
            moves.push((Reg::T0, MoveSrc::Imm(*code as i32)));
            e.parallel_moves(moves);
            e.code.push(Inst::Ecall);
            match ret {
                Loc::Reg(rr) => e.mv(*rr, Reg::A0),
                Loc::Slot(s) => e.frame_store(Reg::A0, frame.slot_off[*s as usize], SCRATCH0),
            }
        }
        VInst::Ret { val } => {
            if let Some(l) = val {
                match l {
                    Loc::Reg(r) => e.mv(Reg::A0, *r),
                    Loc::Slot(s) => e.frame_load(Reg::A0, frame.slot_off[*s as usize], SCRATCH0),
                }
            }
            // Epilogue.
            for &(r, off) in &frame.saves {
                e.frame_load(r, off, SCRATCH0);
            }
            if frame.size > 0 {
                if frame.size <= 2047 {
                    e.code.push(Inst::AluImm {
                        op: AluImmOp::Addi,
                        rd: Reg::SP,
                        rs1: Reg::SP,
                        imm: frame.size,
                    });
                } else {
                    e.li(SCRATCH0, frame.size);
                    e.code.push(Inst::Alu {
                        op: AluOp::Add,
                        rd: Reg::SP,
                        rs1: Reg::SP,
                        rs2: SCRATCH0,
                    });
                }
            }
            e.code.push(Inst::Jalr {
                rd: Reg::ZERO,
                rs1: Reg::RA,
                offset: 0,
            });
        }
        VInst::Mv { rd, rs } => match (rd, rs) {
            (Loc::Reg(d), Loc::Reg(s)) => e.mv(*d, *s),
            (Loc::Reg(d), Loc::Slot(s)) => e.frame_load(*d, frame.slot_off[*s as usize], SCRATCH0),
            (Loc::Slot(d), Loc::Reg(s)) => e.frame_store(*s, frame.slot_off[*d as usize], SCRATCH0),
            (Loc::Slot(d), Loc::Slot(s)) => {
                e.frame_load(SCRATCH0, frame.slot_off[*s as usize], SCRATCH0);
                e.frame_store(SCRATCH0, frame.slot_off[*d as usize], SCRATCH1);
            }
        },
        VInst::Param { .. } => {
            // Handled in the prologue; a stray Param is an isel bug.
            return Err(CodegenError {
                func: af.name.clone(),
                message: "Param outside entry prologue".into(),
            });
        }
    }
    Ok(())
}
