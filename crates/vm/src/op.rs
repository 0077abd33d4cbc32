//! Pre-decoded instruction streams for the block-dispatch engine.
//!
//! [`DecodedProgram::decode`] walks a linked [`Program`] **once**, lowering
//! every [`Inst`] into one flat 8-byte [`Op`] — an [`OpCode`] that already
//! names the exact operation (`add`, `addi`, `lw`, `bne`, …: one `match`
//! executes it), three register slots and a 32-bit immediate — and grouping
//! the code into fall-through basic [`Block`]s keyed by branch targets.
//! Pre-decoding also bakes in the `x0` write sink (ops that write nothing
//! write there too, so the engine stores unconditionally) and each block's
//! static instruction mix.
//!
//! One stream comes out of it, and both engine tiers read it. Every block
//! owns one run of `ops`, in code order: its ops, then exactly one *exit
//! op* — the block's own terminator (branch, `jal`, `jalr`), or a synthetic
//! `jal x0, end` when the block falls through into a leader (or off the end
//! of the code). So the op at `pc` sits at `run + (pc − start)` of its
//! block, and `block_of[pc]` names that block.
//!
//! - The fast tier runs the runs of ecall-free blocks back to back:
//!   `block_of` marks their heads with [`FAST_HEAD`], so following an exit
//!   is one array load. The synthetic exit retires nothing, because the
//!   fast tier charges a block its `len` ops statically.
//! - The stepped tier can start at any pc and stops after the block's
//!   `len` ops, so it never reaches a synthetic exit.

use crate::machine::InstMix;
use zkvmopt_riscv::encode;
use zkvmopt_riscv::inst::{AluImmOp, AluOp, BranchCond, MemWidth, MixClass};
use zkvmopt_riscv::{Inst, Program, Reg};

/// Register-file slot that swallows writes to `x0` and the "result" of ops
/// that have none (stores, branches, ecalls). The engine's register file has
/// one slot per `u8` index; slot 0 is never written, so reads of `x0` stay 0
/// and the hot path stores unconditionally instead of branching on `rd`.
pub const REG_SINK: u8 = 32;

/// What an [`Op`] does — the register–register ALU ops, the
/// register–immediate ones, one code per load/store width and branch
/// condition, and the jumps, so executing an op is a single-level dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[rustfmt::skip]
pub enum OpCode {
    /// `rd = imm`.
    Lui,
    // `rd = rs1 <op> rs2`.
    Add, Sub, Sll, Slt, Sltu, Xor, Srl, Sra, Or, And,
    Mul, Mulh, Mulhsu, Mulhu, Div, Divu, Rem, Remu,
    // `rd = rs1 <op> imm`.
    Addi, Slti, Sltiu, Xori, Ori, Andi, Slli, Srli, Srai,
    // `rd = mem[rs1 + imm]`.
    Lb, Lbu, Lh, Lhu, Lw,
    // `mem[rs1 + imm] = rs2`.
    Sb, Sh, Sw,
    // `if rs1 <cond> rs2 { pc = imm }`.
    Beq, Bne, Blt, Bge, Bltu, Bgeu,
    /// `rd = link; pc = imm`.
    Jal,
    /// `rd = link; pc = (rs1 + imm) / 4`.
    Jalr,
    /// Environment call (falls through except for `halt`).
    Ecall,
}

/// One pre-decoded RV32IM operation, 8 bytes. `rd`/`rs1`/`rs2` index the
/// engine's register file with the `x0`-write remap already applied (an
/// absent source reads `x0`, an absent destination is [`REG_SINK`]); `imm`
/// is the immediate, the `lui` value, the memory offset, or the target code
/// index of a branch or `jal`. Link values are `(pc + 1) * 4`, computed from
/// the pc at execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// The operation.
    pub code: OpCode,
    /// Destination slot.
    pub rd: u8,
    /// First source slot.
    pub rs1: u8,
    /// Second source slot (the stored value for stores).
    pub rs2: u8,
    /// Immediate, offset or target.
    pub imm: u32,
}

/// A maximal fall-through run of code, and where its ops sit in
/// [`DecodedProgram::ops`]. Blocks partition the code contiguously; a
/// block's terminator (if any) is its last op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Index of the block's first op in `ops`.
    pub run: u32,
    /// First code index of the block.
    pub start: u32,
    /// The block's op count `k`. Its run is these `k` ops when the last is
    /// a terminator (the exit op), else these `k` and a synthetic exit.
    pub len: u32,
    /// Static instruction mix of the block. Every op of a block executes
    /// whenever the block runs whole from its head, so this is exactly the
    /// dynamic mix contribution of such a run — and `mix.ecall == 0` is what
    /// makes a block eligible for the engine's fast tier (ecalls can halt
    /// mid-block, commit to the journal, and charge precompile cycles).
    pub mix: InstMix,
}

/// [`DecodedProgram::block_of`] bit of a pc that starts an ecall-free
/// block: where the fast tier may enter.
pub const FAST_HEAD: u32 = 1 << 31;

/// A program decoded once for block-at-a-time dispatch.
///
/// Owns everything the engine needs, so it can be cached and shared across
/// arbitrarily many executions (the batched suite runner compiles + decodes
/// each {workload × profile} pair exactly once).
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    /// The decoded stream: each block's run (its ops, then its exit op; see
    /// the module docs), in code order.
    pub ops: Vec<Op>,
    /// Basic blocks, in code order, contiguously partitioning the code.
    pub blocks: Vec<Block>,
    /// Per pc: the index in `blocks` of the block containing `pc`, with
    /// [`FAST_HEAD`] set where an ecall-free block starts.
    pub block_of: Vec<u32>,
    /// Entry code index (the `_start` stub).
    pub entry: usize,
    /// Initialized globals: (virtual address, bytes).
    pub globals: Vec<(u32, Vec<u8>)>,
}

fn remap_rd(rd: Reg) -> u8 {
    if rd == Reg::ZERO {
        REG_SINK
    } else {
        rd.0
    }
}

#[rustfmt::skip]
fn lower(inst: &Inst<Reg>) -> Op {
    use OpCode as C;
    let op = |code, rd: u8, rs1: Reg, rs2: Reg, imm: u32| Op { code, rd, rs1: rs1.0, rs2: rs2.0, imm };
    match *inst {
        Inst::Lui { rd, imm } => op(C::Lui, remap_rd(rd), Reg::ZERO, Reg::ZERO, imm as u32),
        Inst::Alu { op: alu, rd, rs1, rs2 } => {
            let code = match alu {
                AluOp::Add => C::Add, AluOp::Sub => C::Sub, AluOp::Sll => C::Sll,
                AluOp::Slt => C::Slt, AluOp::Sltu => C::Sltu, AluOp::Xor => C::Xor,
                AluOp::Srl => C::Srl, AluOp::Sra => C::Sra, AluOp::Or => C::Or,
                AluOp::And => C::And, AluOp::Mul => C::Mul, AluOp::Mulh => C::Mulh,
                AluOp::Mulhsu => C::Mulhsu, AluOp::Mulhu => C::Mulhu, AluOp::Div => C::Div,
                AluOp::Divu => C::Divu, AluOp::Rem => C::Rem, AluOp::Remu => C::Remu,
            };
            op(code, remap_rd(rd), rs1, rs2, 0)
        }
        Inst::AluImm { op: alu, rd, rs1, imm } => {
            let code = match alu {
                AluImmOp::Addi => C::Addi, AluImmOp::Slti => C::Slti, AluImmOp::Sltiu => C::Sltiu,
                AluImmOp::Xori => C::Xori, AluImmOp::Ori => C::Ori, AluImmOp::Andi => C::Andi,
                AluImmOp::Slli => C::Slli, AluImmOp::Srli => C::Srli, AluImmOp::Srai => C::Srai,
            };
            op(code, remap_rd(rd), rs1, Reg::ZERO, imm as u32)
        }
        Inst::Load { width, rd, base, offset } => {
            let code = match width {
                MemWidth::Byte => C::Lb, MemWidth::ByteU => C::Lbu, MemWidth::Half => C::Lh,
                MemWidth::HalfU => C::Lhu, MemWidth::Word => C::Lw,
            };
            op(code, remap_rd(rd), base, Reg::ZERO, offset as u32)
        }
        Inst::Store { width, src, base, offset } => {
            let code = match width {
                MemWidth::Byte | MemWidth::ByteU => C::Sb,
                MemWidth::Half | MemWidth::HalfU => C::Sh,
                MemWidth::Word => C::Sw,
            };
            op(code, REG_SINK, base, src, offset as u32)
        }
        Inst::Branch { cond, rs1, rs2, target } => {
            let code = match cond {
                BranchCond::Eq => C::Beq, BranchCond::Ne => C::Bne, BranchCond::Lt => C::Blt,
                BranchCond::Ge => C::Bge, BranchCond::Ltu => C::Bltu, BranchCond::Geu => C::Bgeu,
            };
            op(code, REG_SINK, rs1, rs2, target as u32)
        }
        Inst::Jal { rd, target } => op(C::Jal, remap_rd(rd), Reg::ZERO, Reg::ZERO, target as u32),
        Inst::Jalr { rd, rs1, offset } => op(C::Jalr, remap_rd(rd), rs1, Reg::ZERO, offset as u32),
        Inst::Ecall => op(C::Ecall, REG_SINK, Reg::ZERO, Reg::ZERO, 0),
    }
}

impl Op {
    /// Which instruction-mix bucket a dynamic execution of this op falls
    /// into — the same split as [`Inst::mix_class`]. The engine's stepped
    /// path and the per-block static mixes both use this, so the accounting
    /// cannot drift.
    #[inline]
    pub fn mix_class(&self) -> MixClass {
        use OpCode as C;
        match self.code {
            C::Mul | C::Mulh | C::Mulhsu | C::Mulhu => MixClass::Mul,
            C::Div | C::Divu | C::Rem | C::Remu => MixClass::Div,
            C::Lb | C::Lbu | C::Lh | C::Lhu | C::Lw => MixClass::Load,
            C::Sb | C::Sh | C::Sw => MixClass::Store,
            C::Beq | C::Bne | C::Blt | C::Bge | C::Bltu | C::Bgeu => MixClass::Branch,
            C::Jal | C::Jalr => MixClass::Jump,
            C::Ecall => MixClass::Ecall,
            _ => MixClass::Alu,
        }
    }
}

impl DecodedProgram {
    /// Decode a linked program once for block dispatch.
    pub fn decode(p: &Program) -> DecodedProgram {
        Self::build(&p.code, p.entry, p.globals.clone())
    }

    /// Decode raw RV32IM words (e.g. a real guest binary image) via the
    /// shared [`encode::decode`] decoder.
    ///
    /// # Errors
    /// Returns the code index of the first undecodable word.
    pub fn decode_words(
        words: &[u32],
        entry: usize,
        globals: Vec<(u32, Vec<u8>)>,
    ) -> Result<DecodedProgram, usize> {
        let code = encode::decode_program(words)?;
        Ok(Self::build(&code, entry, globals))
    }

    fn build(code: &[Inst<Reg>], entry: usize, globals: Vec<(u32, Vec<u8>)>) -> DecodedProgram {
        let n = code.len();
        // Leaders: the entry, every static control-flow target, and every
        // fall-through / return point after a terminator (`jalr` return
        // addresses are always `pc + 1` of some `jal`, so this covers every
        // dynamic target the emitter can produce; anything else still runs
        // through the engine's mid-block entry path).
        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        if entry < n {
            leader[entry] = true;
        }
        for (pc, inst) in code.iter().enumerate() {
            if let Some(t) = inst.static_target() {
                if t < n {
                    leader[t] = true;
                }
            }
            if inst.is_terminator() && pc + 1 < n {
                leader[pc + 1] = true;
            }
        }

        let mut ops = Vec::with_capacity(n);
        let mut blocks = Vec::new();
        let mut block_of = vec![0u32; n];
        let mut pc = 0;
        while pc < n {
            let (start, run) = (pc, ops.len());
            let mut mix = InstMix::default();
            loop {
                let op = lower(&code[pc]);
                mix.bump(op.mix_class());
                ops.push(op);
                block_of[pc] = blocks.len() as u32;
                pc += 1;
                if pc >= n || leader[pc] {
                    break;
                }
            }
            if !code[pc - 1].is_terminator() {
                ops.push(lower(&Inst::Jal {
                    rd: Reg::ZERO,
                    target: pc,
                }));
            }
            if mix.ecall == 0 {
                block_of[start] |= FAST_HEAD;
            }
            blocks.push(Block {
                run: run as u32,
                start: start as u32,
                len: (pc - start) as u32,
                mix,
            });
        }

        DecodedProgram {
            ops,
            blocks,
            block_of,
            entry,
            globals,
        }
    }

    /// The ecall-free block that starts at `pc`, with its index, if its
    /// `len` is at most `room`.
    #[inline(always)]
    pub(crate) fn fast_block_at(&self, pc: usize, room: u64) -> Option<(usize, &Block)> {
        // Flipping `FAST_HEAD` clears it on a head and sends every other pc
        // out of range.
        let b = (*self.block_of.get(pc)? ^ FAST_HEAD) as usize;
        let head = self.blocks.get(b)?;
        (u64::from(head.len) <= room).then_some((b, head))
    }

    /// The block containing `pc`, if `pc` is in the code.
    pub(crate) fn block_at(&self, pc: usize) -> Option<&Block> {
        let b = *self.block_of.get(pc)? & !FAST_HEAD;
        self.blocks.get(b as usize)
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.block_of.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.block_of.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program_gen;
    use zkvmopt_passes::{OptLevel, PassConfig, PassManager};
    use zkvmopt_riscv::TargetCostModel;

    /// A block as the oracle sees it: its code range and static mix.
    type OracleBlock = (usize, usize, InstMix);

    /// The decoder the stream replaced, kept as its oracle: one op per pc,
    /// each block, and each pc's block.
    fn oracle(p: &Program) -> (Vec<Op>, Vec<OracleBlock>, Vec<u32>) {
        let n = p.code.len();
        // `leader[n]` stands for the end of the code.
        let mut leader = vec![false; n + 1];
        leader[0] = true;
        leader[p.entry.min(n)] = true;
        for (pc, inst) in p.code.iter().enumerate() {
            if let Some(t) = inst.static_target() {
                leader[t.min(n)] = true;
            }
            leader[pc + 1] |= inst.is_terminator();
        }
        leader[n] = true;
        let ops: Vec<Op> = p.code.iter().map(lower).collect();
        let (mut blocks, mut block_of) = (Vec::new(), vec![0; n]);
        let mut start = 0;
        for end in (1..=n).filter(|&pc| leader[pc]) {
            let mut mix = InstMix::default();
            ops[start..end]
                .iter()
                .for_each(|op| mix.bump(op.mix_class()));
            block_of[start..end].fill(blocks.len() as u32);
            blocks.push((start, end, mix));
            start = end;
        }
        (ops, blocks, block_of)
    }

    fn decode_src(src: &str) -> (Program, DecodedProgram) {
        let m = zkvmopt_lang::compile_guest(src).expect("compiles");
        let p = zkvmopt_riscv::compile_module(&m, &TargetCostModel::zk()).expect("codegen");
        let d = DecodedProgram::decode(&p);
        (p, d)
    }

    #[test]
    fn terminators_end_blocks_and_targets_lead_them() {
        let (p, d) = decode_src(
            "fn f(x: i32) -> i32 { if (x > 0) { return x; } return -x; }
             fn main() -> i32 { return f(-3) + f(4); }",
        );
        for (pc, inst) in p.code.iter().enumerate() {
            if inst.is_terminator() {
                let b = d.block_at(pc).expect("in the code");
                assert_eq!(
                    (b.start + b.len) as usize,
                    pc + 1,
                    "terminator must end its block"
                );
            }
            if let Some(t) = inst.static_target() {
                let b = d.block_at(t).expect("in the code");
                assert_eq!(b.start as usize, t, "target must start a block");
            }
        }
    }

    #[test]
    fn x0_writes_and_resultless_ops_are_redirected_to_the_sink() {
        let (p, d) = decode_src(
            "static A: [i32; 4];
             fn main() -> i32 { A[1] = 7; if (A[1] > 3) { return A[1]; } return 0; }",
        );
        assert_eq!(std::mem::size_of::<Op>(), 8);
        let mut seen = [false; 3];
        for (pc, inst) in p.code.iter().enumerate() {
            let b = d.block_at(pc).expect("in the code");
            let op = d.ops[(b.run + pc as u32 - b.start) as usize];
            match inst {
                Inst::Jal { rd, .. } if *rd == Reg::ZERO => {
                    assert_eq!((op.code, op.rd), (OpCode::Jal, REG_SINK));
                    seen[0] = true;
                }
                Inst::Jal { rd, .. } => assert_eq!(op.rd, rd.0),
                Inst::Store { src, base, .. } => {
                    assert_eq!((op.rd, op.rs1, op.rs2), (REG_SINK, base.0, src.0));
                    seen[1] = true;
                }
                Inst::Branch { target, .. } => {
                    assert_eq!((op.rd, op.imm as usize), (REG_SINK, *target));
                    seen[2] = true;
                }
                _ => {}
            }
        }
        assert_eq!(
            seen, [true; 3],
            "the sample has a jump, a store and a branch"
        );
    }

    /// `p` round-tripped through the binary encoding.
    fn decode_encoded(p: &Program) -> DecodedProgram {
        let words: Vec<u32> = p
            .code
            .iter()
            .enumerate()
            .map(|(pc, i)| encode::encode(i, pc))
            .collect();
        DecodedProgram::decode_words(&words, p.entry, p.globals.clone())
            .expect("round-trips through the binary encoding")
    }

    fn is_control(op: &Op) -> bool {
        matches!(op.mix_class(), MixClass::Branch | MixClass::Jump)
    }

    /// The stream against the [`oracle`] on one program: every block, in
    /// code order, owns one run of `ops`, back to back — the oracle's ops
    /// of the block, then exactly one exit op (its own terminator, or a
    /// synthetic `jal x0, end`) — with the oracle's start, length and mix;
    /// `block_of` is the oracle's with [`FAST_HEAD`] set on exactly the
    /// ecall-free heads; and decoding the binary encoding builds the same
    /// program.
    fn check_stream(p: &Program, what: &str) {
        let d = DecodedProgram::decode(p);
        let (ops, blocks, mut block_of) = oracle(p);
        assert_eq!(d.blocks.len(), blocks.len(), "{what}: block count");
        assert_eq!(d.len(), p.code.len(), "{what}: one entry per pc");
        let mut run = 0;
        for (b, (block, &(start, end, mix))) in d.blocks.iter().zip(&blocks).enumerate() {
            let want = Block {
                run: run as u32,
                start: start as u32,
                len: (end - start) as u32,
                mix,
            };
            assert_eq!(*block, want, "{what}: block {b}");
            let ops = &ops[start..end];
            assert!(
                ops[..ops.len() - 1].iter().all(|op| !is_control(op)),
                "{what}: block {b} has a control op before its last"
            );
            assert_eq!(&d.ops[run..run + ops.len()], ops, "{what}: block {b}");
            run += ops.len();
            if !is_control(&ops[ops.len() - 1]) {
                let exit = lower(&Inst::Jal {
                    rd: Reg::ZERO,
                    target: end,
                });
                assert_eq!(d.ops[run], exit, "{what}: block {b}'s synthetic exit");
                run += 1;
            }
            if mix.ecall == 0 {
                block_of[start] |= FAST_HEAD;
            }
        }
        assert_eq!(run, d.ops.len(), "{what}: runs cover the stream");
        assert_eq!(d.block_of, block_of, "{what}: block_of");
        let d2 = decode_encoded(p);
        assert_eq!(
            (&d2.ops, &d2.blocks, &d2.block_of),
            (&d.ops, &d.blocks, &d.block_of),
            "{what}: decode_words"
        );
    }

    #[test]
    fn stream_matches_the_old_decoder_on_the_suite() {
        for w in zkvmopt_workloads::all() {
            let m = zkvmopt_lang::compile_guest(&w.source).expect("compiles");
            let p = zkvmopt_riscv::compile_module(&m, &TargetCostModel::zk()).expect("codegen");
            check_stream(&p, w.name);
        }
        // The emitter ends every ecall-free block it lays out with a
        // terminator, so only hand-built code has one that falls through
        // into a leader (pc 1, into the `jal`'s target, pc 2), and an ecall
        // block that does (pc 4, into the `bne`'s target, pc 5).
        let addi = |imm| Inst::AluImm {
            op: AluImmOp::Addi,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm,
        };
        let branch = |cond, target| Inst::Branch {
            cond,
            rs1: Reg::A0,
            rs2: Reg::T3,
            target,
        };
        let code = vec![
            Inst::Jal {
                rd: Reg::ZERO,
                target: 2,
            },
            addi(1),
            addi(2),
            branch(BranchCond::Lt, 1),
            Inst::Ecall,
            addi(3),
            branch(BranchCond::Ne, 5),
            Inst::Ecall,
        ];
        let p = Program {
            code,
            entry: 0,
            func_entries: vec![],
            func_names: vec![],
            globals: vec![],
            spilled_vregs: 0,
        };
        check_stream(&p, "fall-through");
        let d = DecodedProgram::decode(&p);
        assert_eq!(d.blocks.len(), 6);
        assert_eq!(
            d.ops.len(),
            d.len() + 3,
            "synthetic exits after pcs 1, 4 and 7"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 12,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The same over the `proptest_passes` generator's programs, as
        /// lowered and at `-O2`.
        #[test]
        fn stream_matches_the_old_decoder_on_generated_programs(
            es in proptest::collection::vec(program_gen::arb_expr(), 1..5),
            trip in 1u8..20,
        ) {
            for src in [program_gen::program(&es, trip), program_gen::program_with_calls(&es, trip)] {
                for level in [None, Some(OptLevel::O2)] {
                    let mut m = zkvmopt_lang::compile_guest(&src).expect("compiles");
                    if let Some(l) = level {
                        PassManager::for_level(l).run(&mut m, &PassConfig::default());
                    }
                    let p = zkvmopt_riscv::compile_module(&m, &TargetCostModel::zk())
                        .expect("codegen");
                    check_stream(&p, "generated");
                }
            }
        }
    }
}
