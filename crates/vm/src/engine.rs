//! The block-dispatch zkVM executor, v3.
//!
//! [`Engine`] runs a [`DecodedProgram`] block-at-a-time through three tiers:
//!
//! - **Pure blocks** (no memory, no ecalls) take a batched straight-line
//!   path: one cycle/segment/mix update per block instead of per
//!   instruction, with the per-instruction segment semantics replayed
//!   arithmetically.
//! - **Memory blocks** (loads/stores, no ecalls) take a batched path with a
//!   per-lane *residency pre-probe*: the page an access resolves to is
//!   cached once per segment, and subsequent same-page accesses skip the
//!   bounds/paging machinery entirely (their paging charge is provably
//!   zero while the page stays resident). Accounting is bit-identical to
//!   the stepped path because residency is monotone within a segment.
//! - **Ecall blocks** and mid-block entries take a stepped path whose
//!   per-instruction accounting replicates the reference step interpreter
//!   bit for bit.
//!
//! On top of block dispatch, hot block heads are chained into
//! **superblocks/traces**: after `TRACE_THRESHOLD` (64) entries, the observed
//! branch direction at each terminator is baked into a trace of up to
//! `TRACE_MAX_BLOCKS` (16) blocks, and execution follows the trace without
//! consulting the dispatch loop until a successor diverges from the trained
//! direction (a *deopt*, counted in [`EngineStats::trace_exits`], which
//! safely falls back to block dispatch — per-block accounting never depends
//! on the successor, so a deopt costs nothing but the early exit).
//!
//! Cycle counts, paging charges, segment splits, instruction mixes,
//! journals, and error classes are guaranteed identical to
//! `crate::machine::Machine` — the suite-wide differential harness
//! (`tests/differential.rs`) enforces this across all 58 workloads × 5
//! profiles × both VM kinds at the full budget, and
//! `tests/engine_vs_reference.rs` enforces it under tiny and random cycle
//! budgets and divergent inputs.

use crate::ecalls::{self, MemIo};
use crate::machine::{alu, alu_imm, ExecConfig, ExecError, ExecutionReport, InstMix};
use crate::mem::{FastMemory, MemFault, STACK_TOP};
use crate::op::{Block, BlockKind, DecodedProgram, Op};
use crate::profile::{EngineStats, VmKind, VmProfile};
use crate::segment::{SegmentRecord, SegmentRecorder};
use std::time::Instant;
use zkvmopt_ir::ecall;
use zkvmopt_riscv::{MemWidth, Program, Reg};

/// Register-file slots per machine state: `x0`–`x31` plus the `x0` write
/// sink (see [`crate::op`]).
const NREGS: usize = 33;

/// Block-head entries before a superblock trace is formed.
const TRACE_THRESHOLD: u32 = 64;
/// Maximum blocks chained into one trace.
const TRACE_MAX_BLOCKS: usize = 16;
/// Hot-counter sentinel: trace formation failed, never retry.
const REJECTED: u32 = u32::MAX;

/// Residency pre-probe sentinel: no page cached this segment. Real page
/// indices never reach this value (`page_size >= 4`, so `addr >> page_shift`
/// tops out at `u32::MAX >> 2`). An *impossible* sentinel matters: the
/// previous sentinel `0` conflated "empty probe" with page 0 itself, so the
/// first access to any page-0 address vacuously "hit" — swallowing the
/// null-guard `MemFault` for `addr < 0x100` and eliding the page-in charge
/// for legal page-0 addresses.
const PROBE_NONE: u32 = u32::MAX;

struct FastIo<'a>(&'a mut FastMemory);

impl MemIo for FastIo<'_> {
    fn read_bytes(&mut self, addr: u32, len: u32) -> Vec<u8> {
        self.0
            .read_bytes_host(addr, len)
            .unwrap_or_else(|_| vec![0; len as usize])
    }

    fn write_bytes(&mut self, addr: u32, data: &[u8]) {
        let _ = self.0.write_bytes_host(addr, data);
    }
}

/// Outcome of executing one block (or trace) for one machine state.
enum StepOut {
    /// Continue at this code index.
    Next(usize),
    /// The guest halted with this exit code.
    Halt(i32),
    /// Execution failed.
    Err(ExecError),
}

/// One machine state's everything-but-registers: memory, accounting,
/// journal, and the residency pre-probe cache.
struct Lane {
    profile: VmProfile,
    inputs: Vec<i32>,
    max_cycles: u64,
    mem: FastMemory,
    journal: Vec<i32>,
    instret: u64,
    user_cycles: u64,
    mix: InstMix,
    segments: u64,
    segment_cycles: u64,
    page_shift: u32,
    page_mask: u32,
    /// Residency pre-probe: the one page known resident this segment
    /// ([`PROBE_NONE`] = no page cached).
    probe_page: u32,
    /// First page the probe may cache. Every byte of a cached page must
    /// clear the `addr < 0x100` null guard, so pages overlapping the
    /// guarded range are never cached and always take the fully-checked
    /// access path — a probe hit can never bypass the validity check.
    min_probe_page: u32,
    /// Whether `probe_page` is known dirty (stores to it charge nothing).
    probe_writable: bool,
    stats: EngineStats,
    /// First global-image byte that failed to load, reported lazily as a
    /// `MemFault` when the lane runs.
    init_fault: Option<u32>,
    /// Per-segment accounting capture, installed only by
    /// [`Engine::run_segmented`] (`None` everywhere else — the boxed option
    /// costs the hot paths nothing).
    recorder: Option<Box<SegmentRecorder>>,
}

impl Lane {
    fn new(profile: VmProfile, config: ExecConfig, globals: &[(u32, Vec<u8>)]) -> Lane {
        let mut mem = FastMemory::new(profile.page_size);
        let mut init_fault = None;
        for (addr, data) in globals {
            if mem.write_bytes_host(*addr, data).is_err() && init_fault.is_none() {
                init_fault = Some(*addr);
            }
        }
        let page_shift = profile.page_size.trailing_zeros();
        let page_mask = profile.page_size - 1;
        let min_probe_page = 0x100u32.div_ceil(profile.page_size);
        Lane {
            max_cycles: config.max_cycles,
            inputs: config.inputs,
            profile,
            mem,
            journal: Vec::new(),
            instret: 0,
            user_cycles: 0,
            mix: InstMix::default(),
            segments: 1,
            segment_cycles: 0,
            page_shift,
            page_mask,
            probe_page: PROBE_NONE,
            min_probe_page,
            probe_writable: false,
            stats: EngineStats::default(),
            init_fault,
            recorder: None,
        }
    }

    /// End the segment: residency drops, so the probe cache must too. When
    /// a [`SegmentRecorder`] is installed ([`Engine::run_segmented`]), the
    /// closing segment's accounting deltas are captured first.
    #[inline]
    fn flush_segment(&mut self) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.close(
                &self.profile,
                self.instret,
                self.user_cycles,
                self.mem.page_ins(),
                self.mem.page_outs(),
                &self.mix,
            );
        }
        self.mem.flush_segment();
        self.probe_page = PROBE_NONE;
        self.probe_writable = false;
    }

    /// Load through the residency pre-probe. Returns the raw value and the
    /// paging cycles charged (zero on a probe hit — the page is already
    /// resident this segment, so the reference charges nothing either).
    #[inline]
    fn load(&mut self, addr: u32, size: u32) -> Result<(u32, u64), MemFault> {
        let page = addr >> self.page_shift;
        // `wrapping_add`: near-u32::MAX addresses wrap into page 0, which
        // is never cached (`min_probe_page >= 1`), so the hit test stays
        // correct without widening.
        if page == self.probe_page && addr.wrapping_add(size - 1) >> self.page_shift == page {
            self.stats.probe_hits += 1;
            return Ok((self.mem.peek_in_page(page, addr & self.page_mask, size), 0));
        }
        self.stats.probe_misses += 1;
        let (v, ins, outs) = self.mem.read_charged(addr, size)?;
        if addr.wrapping_add(size - 1) >> self.page_shift == page && page >= self.min_probe_page {
            self.probe_page = page;
            self.probe_writable = self.mem.page_dirty(page);
        }
        Ok((v, self.profile.paging_cycles(ins, outs)))
    }

    /// Store through the residency pre-probe. Returns the paging cycles
    /// charged (zero on a hit — the page is already dirty this segment).
    #[inline]
    fn store(&mut self, addr: u32, value: u32, size: u32) -> Result<u64, MemFault> {
        let page = addr >> self.page_shift;
        if page == self.probe_page
            && self.probe_writable
            && addr.wrapping_add(size - 1) >> self.page_shift == page
        {
            self.stats.probe_hits += 1;
            self.mem
                .poke_in_page(page, addr & self.page_mask, value, size);
            return Ok(0);
        }
        self.stats.probe_misses += 1;
        let (ins, outs) = self.mem.write_charged(addr, value, size)?;
        if addr.wrapping_add(size - 1) >> self.page_shift == page && page >= self.min_probe_page {
            self.probe_page = page;
            self.probe_writable = true;
        }
        Ok(self.profile.paging_cycles(ins, outs))
    }
}

#[inline]
fn extend(width: MemWidth, raw: u32) -> u32 {
    match width {
        MemWidth::Byte => (raw as u8 as i8) as i32 as u32,
        MemWidth::ByteU => raw & 0xff,
        MemWidth::Half => (raw as u16 as i16) as i32 as u32,
        MemWidth::HalfU => raw & 0xffff,
        MemWidth::Word => raw,
    }
}

/// The stepped path: per-instruction accounting identical to the reference
/// interpreter, from `pc` to the end of its block (or a taken jump, halt,
/// or error). Handles every op class; the batched paths fall back here.
#[allow(clippy::too_many_lines)]
fn exec_stepped(
    prog: &DecodedProgram,
    lane: &mut Lane,
    regs: &mut [u32],
    pc: usize,
    end: usize,
) -> StepOut {
    let seg_limit = lane.profile.segment_cycles;
    let max_cycles = lane.max_cycles;
    let mut i = pc;
    while i < end {
        let mut cost: u64 = 1;
        let mut next = i + 1;
        let mut pcycles: u64 = 0;
        let op = prog.ops[i];
        lane.mix.bump(op.mix_class());
        match op {
            Op::Lui { rd, imm } => regs[rd as usize] = imm as u32,
            Op::Alu { op, rd, rs1, rs2 } => {
                regs[rd as usize] = alu(op, regs[rs1 as usize], regs[rs2 as usize]);
            }
            Op::AluImm { op, rd, rs1, imm } => {
                regs[rd as usize] = alu_imm(op, regs[rs1 as usize], imm);
            }
            Op::Load {
                width,
                rd,
                base,
                offset,
            } => {
                let addr = regs[base as usize].wrapping_add(offset as u32);
                match lane.load(addr, width.bytes()) {
                    Ok((raw, p)) => {
                        regs[rd as usize] = extend(width, raw);
                        pcycles = p;
                    }
                    Err(MemFault { addr }) => {
                        return StepOut::Err(ExecError::MemFault { addr, pc: i });
                    }
                }
            }
            Op::Store {
                width,
                src,
                base,
                offset,
            } => {
                let addr = regs[base as usize].wrapping_add(offset as u32);
                match lane.store(addr, regs[src as usize], width.bytes()) {
                    Ok(p) => pcycles = p,
                    Err(MemFault { addr }) => {
                        return StepOut::Err(ExecError::MemFault { addr, pc: i });
                    }
                }
            }
            Op::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                if cond.eval(regs[rs1 as usize], regs[rs2 as usize]) {
                    next = target as usize;
                }
            }
            Op::Jal { rd, link, target } => {
                regs[rd as usize] = link;
                next = target as usize;
            }
            Op::Jalr {
                rd,
                rs1,
                offset,
                link,
            } => {
                let t = regs[rs1 as usize].wrapping_add(offset as u32) / 4;
                regs[rd as usize] = link;
                next = t as usize;
            }
            Op::Ecall => {
                let code = regs[Reg::T0.0 as usize];
                let args: [i64; 3] = [
                    regs[Reg::A0.0 as usize] as i64,
                    regs[Reg::A1.0 as usize] as i64,
                    regs[Reg::A2.0 as usize] as i64,
                ];
                match code {
                    ecall::HALT => {
                        let exit = regs[Reg::A0.0 as usize] as i32;
                        lane.instret += 1;
                        lane.user_cycles += cost;
                        return StepOut::Halt(exit);
                    }
                    ecall::COMMIT => {
                        lane.journal.push(regs[Reg::A0.0 as usize] as i32);
                        regs[Reg::A0.0 as usize] = 0;
                    }
                    ecall::READ_INPUT => {
                        let idx = regs[Reg::A0.0 as usize] as usize;
                        let v = lane.inputs.get(idx).copied().unwrap_or(0);
                        regs[Reg::A0.0 as usize] = v as u32;
                    }
                    other => {
                        cost += ecalls::precompile_cycles(&lane.profile, other, &args);
                        let r = ecalls::run_precompile(other, &args, &mut FastIo(&mut lane.mem));
                        regs[Reg::A0.0 as usize] = r as u32;
                    }
                }
            }
        }
        lane.instret += 1;
        lane.user_cycles += cost;
        lane.segment_cycles += cost + pcycles;
        if lane.segment_cycles >= seg_limit {
            lane.segments += 1;
            lane.segment_cycles = 0;
            lane.flush_segment();
        }
        if lane.user_cycles > max_cycles {
            return StepOut::Err(ExecError::CycleLimit);
        }
        if next != i + 1 {
            return StepOut::Next(next);
        }
        i = next;
    }
    StepOut::Next(end)
}

/// The pure batched path: execute a memory-free, ecall-free block
/// straight-line against one lane's register window. Accounting is the
/// caller's job ([`account_pure`]).
fn exec_pure(prog: &DecodedProgram, block: &Block, regs: &mut [u32]) -> usize {
    let mut next_pc = block.end as usize;
    for op in &prog.ops[block.start as usize..block.end as usize] {
        match *op {
            Op::Lui { rd, imm } => regs[rd as usize] = imm as u32,
            Op::Alu { op, rd, rs1, rs2 } => {
                regs[rd as usize] = alu(op, regs[rs1 as usize], regs[rs2 as usize]);
            }
            Op::AluImm { op, rd, rs1, imm } => {
                regs[rd as usize] = alu_imm(op, regs[rs1 as usize], imm);
            }
            Op::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                if cond.eval(regs[rs1 as usize], regs[rs2 as usize]) {
                    next_pc = target as usize;
                }
            }
            Op::Jal { rd, link, target } => {
                regs[rd as usize] = link;
                next_pc = target as usize;
            }
            Op::Jalr {
                rd,
                rs1,
                offset,
                link,
            } => {
                let t = regs[rs1 as usize].wrapping_add(offset as u32) / 4;
                regs[rd as usize] = link;
                next_pc = t as usize;
            }
            Op::Load { .. } | Op::Store { .. } | Op::Ecall => {
                debug_assert!(false, "impure op in pure block");
            }
        }
    }
    next_pc
}

/// Batched accounting for one pure-block execution: per-instruction
/// semantics replayed arithmetically (each op adds one segment cycle;
/// crossing the limit resets to zero). The caller guarantees the block
/// fits the cycle budget, so no limit check is needed here.
fn account_pure(lane: &mut Lane, block: &Block) {
    let k = block.len() as u64;
    lane.instret += k;
    lane.user_cycles += k;
    lane.mix.add(&block.mix);
    let seg_limit = lane.profile.segment_cycles;
    if seg_limit == 0 {
        lane.segments += k;
        lane.flush_segment();
    } else {
        let room = seg_limit - lane.segment_cycles;
        if k < room {
            lane.segment_cycles += k;
        } else {
            lane.segments += 1 + (k - room) / seg_limit;
            lane.segment_cycles = (k - room) % seg_limit;
            lane.flush_segment();
        }
    }
}

/// The batched memory path: execute a load/store-bearing (ecall-free)
/// block with loads and stores resolved through the lane's residency
/// pre-probe, charging segment cycles per access exactly as the stepped
/// path would, and batching `instret`/`user_cycles`/mix at the end. The
/// caller guarantees the block fits the cycle budget (so CycleLimit cannot
/// fire mid-block and error ordering matches the stepped path) and that
/// the segment limit is nonzero.
fn exec_mem(prog: &DecodedProgram, block: &Block, lane: &mut Lane, regs: &mut [u32]) -> StepOut {
    let start = block.start as usize;
    let end = block.end as usize;
    let seg_limit = lane.profile.segment_cycles;
    let mut next = end;
    for (j, op) in prog.ops[start..end].iter().enumerate() {
        let mut pcycles: u64 = 0;
        match *op {
            Op::Lui { rd, imm } => regs[rd as usize] = imm as u32,
            Op::Alu { op, rd, rs1, rs2 } => {
                regs[rd as usize] = alu(op, regs[rs1 as usize], regs[rs2 as usize]);
            }
            Op::AluImm { op, rd, rs1, imm } => {
                regs[rd as usize] = alu_imm(op, regs[rs1 as usize], imm);
            }
            Op::Load {
                width,
                rd,
                base,
                offset,
            } => {
                let addr = regs[base as usize].wrapping_add(offset as u32);
                match lane.load(addr, width.bytes()) {
                    Ok((raw, p)) => {
                        regs[rd as usize] = extend(width, raw);
                        pcycles = p;
                    }
                    Err(MemFault { addr }) => {
                        return StepOut::Err(ExecError::MemFault {
                            addr,
                            pc: start + j,
                        });
                    }
                }
            }
            Op::Store {
                width,
                src,
                base,
                offset,
            } => {
                let addr = regs[base as usize].wrapping_add(offset as u32);
                match lane.store(addr, regs[src as usize], width.bytes()) {
                    Ok(p) => pcycles = p,
                    Err(MemFault { addr }) => {
                        return StepOut::Err(ExecError::MemFault {
                            addr,
                            pc: start + j,
                        });
                    }
                }
            }
            Op::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                if cond.eval(regs[rs1 as usize], regs[rs2 as usize]) {
                    next = target as usize;
                }
            }
            Op::Jal { rd, link, target } => {
                regs[rd as usize] = link;
                next = target as usize;
            }
            Op::Jalr {
                rd,
                rs1,
                offset,
                link,
            } => {
                let t = regs[rs1 as usize].wrapping_add(offset as u32) / 4;
                regs[rd as usize] = link;
                next = t as usize;
            }
            Op::Ecall => debug_assert!(false, "ecall in memory block"),
        }
        lane.segment_cycles += 1 + pcycles;
        if lane.segment_cycles >= seg_limit {
            lane.segments += 1;
            lane.segment_cycles = 0;
            lane.flush_segment();
        }
    }
    let k = block.len() as u64;
    lane.instret += k;
    lane.user_cycles += k;
    lane.mix.add(&block.mix);
    StepOut::Next(next)
}

/// Execute the block `bidx` (entered at its head) for one lane, picking the
/// fastest path its kind and the lane's remaining cycle budget allow.
fn exec_block_auto(
    prog: &DecodedProgram,
    bidx: usize,
    lane: &mut Lane,
    regs: &mut [u32],
) -> StepOut {
    let block = &prog.blocks[bidx];
    let k = block.len() as u64;
    let fits = lane.user_cycles.saturating_add(k) <= lane.max_cycles;
    match block.kind {
        BlockKind::Pure if fits => {
            let next = exec_pure(prog, block, regs);
            account_pure(lane, block);
            StepOut::Next(next)
        }
        BlockKind::Mem if fits && lane.profile.segment_cycles > 0 => {
            exec_mem(prog, block, lane, regs)
        }
        _ => exec_stepped(prog, lane, regs, block.start as usize, block.end as usize),
    }
}

/// One step of a superblock trace: the block to execute and the successor
/// pc the trace was trained to expect (`u32::MAX` on the final step — a
/// planned exit, not a deopt).
#[derive(Clone, Copy)]
struct TraceStep {
    block: u32,
    expected: u32,
}

/// A superblock: a chain of blocks along the trained branch directions.
struct Trace {
    steps: Vec<TraceStep>,
}

/// Per-program trace state: hot counters, last observed branch directions,
/// and formed traces, all direct-indexed by block.
struct TraceSet {
    hot: Vec<u32>,
    taken: Vec<bool>,
    traces: Vec<Option<Box<Trace>>>,
}

impl TraceSet {
    fn new(nblocks: usize) -> TraceSet {
        TraceSet {
            hot: vec![0; nblocks],
            taken: vec![false; nblocks],
            traces: (0..nblocks).map(|_| None).collect(),
        }
    }

    /// Count one entry at block `bidx`; at [`TRACE_THRESHOLD`], form a
    /// trace (or reject the head permanently if none can be built).
    fn observe_entry(&mut self, prog: &DecodedProgram, bidx: usize, stats: &mut EngineStats) {
        if self.hot[bidx] == REJECTED || self.traces[bidx].is_some() {
            return;
        }
        self.hot[bidx] += 1;
        if self.hot[bidx] >= TRACE_THRESHOLD {
            match form_trace(prog, &self.taken, bidx) {
                Some(t) => {
                    self.traces[bidx] = Some(Box::new(t));
                    stats.traces_formed += 1;
                }
                None => self.hot[bidx] = REJECTED,
            }
        }
    }

    /// Record the direction a block's terminating branch actually went, so
    /// trace formation chains along observed behavior.
    fn record_branch(&mut self, prog: &DecodedProgram, bidx: usize, next: usize) {
        let block = &prog.blocks[bidx];
        if let Op::Branch { target, .. } = prog.ops[block.end as usize - 1] {
            self.taken[bidx] = next == target as usize;
        }
    }
}

/// Build a trace from `head` by following predicted successors: branches go
/// the last observed direction, `jal` follows its target, fall-throughs
/// continue, and `jalr` (dynamic target) ends the chain. Formation stops
/// before ecall-bearing blocks, at mid-block targets, on revisits, and at
/// [`TRACE_MAX_BLOCKS`]; a chain shorter than two blocks is not worth a
/// trace (`None` → the head is rejected and never reconsidered).
fn form_trace(prog: &DecodedProgram, taken: &[bool], head: usize) -> Option<Trace> {
    let n = prog.ops.len();
    let mut steps: Vec<TraceStep> = Vec::new();
    let mut bidx = head;
    loop {
        let block = &prog.blocks[bidx];
        if block.mix.ecall > 0 {
            break;
        }
        let pred: Option<usize> = match prog.ops[block.end as usize - 1] {
            Op::Branch { target, .. } => {
                if taken[bidx] {
                    Some(target as usize)
                } else {
                    Some(block.end as usize)
                }
            }
            Op::Jal { target, .. } => Some(target as usize),
            Op::Jalr { .. } => None,
            _ => Some(block.end as usize),
        };
        steps.push(TraceStep {
            block: bidx as u32,
            expected: u32::MAX,
        });
        if steps.len() >= TRACE_MAX_BLOCKS {
            break;
        }
        let Some(p) = pred else { break };
        if p >= n {
            break;
        }
        let nb = prog.block_of[p] as usize;
        if prog.blocks[nb].start as usize != p {
            break; // mid-block target: dispatch handles it
        }
        if nb == head || steps.iter().any(|s| s.block as usize == nb) {
            break; // loop closed: let the head's own trace take over
        }
        if let Some(s) = steps.last_mut() {
            s.expected = p as u32;
        }
        bidx = nb;
    }
    if steps.len() >= 2 {
        Some(Trace { steps })
    } else {
        None
    }
}

/// Run a trace for one lane: execute each step's block, continuing while
/// the observed successor matches the trained one. A mismatch before the
/// final step is a deopt (counted, then back to dispatch at the actual pc —
/// always safe, because per-block accounting never depends on the
/// successor).
fn run_trace(prog: &DecodedProgram, trace: &Trace, lane: &mut Lane, regs: &mut [u32]) -> StepOut {
    let len = trace.steps.len();
    let mut i = 0;
    loop {
        let TraceStep { block, expected } = trace.steps[i];
        let out = exec_block_auto(prog, block as usize, lane, regs);
        let StepOut::Next(p) = out else { return out };
        i += 1;
        if i == len {
            return StepOut::Next(p);
        }
        if p as u32 != expected {
            lane.stats.trace_exits += 1;
            return StepOut::Next(p);
        }
    }
}

/// Build the final report for a finished lane.
fn finish(
    lane: &mut Lane,
    regs: &[u32],
    halted: bool,
    exit_code: i32,
    start: Instant,
) -> ExecutionReport {
    let paging_cycles = lane
        .profile
        .paging_cycles(lane.mem.page_ins(), lane.mem.page_outs());
    let total_cycles = lane.user_cycles + paging_cycles;
    let exec_cycles = match lane.profile.kind {
        VmKind::RiscZero => total_cycles,
        VmKind::Sp1 => lane.user_cycles,
    };
    let exec_time_ms = exec_cycles as f64 / lane.profile.emulation_hz * 1e3;
    let exit = if halted {
        exit_code
    } else {
        regs[Reg::A0.0 as usize] as i32
    };
    ExecutionReport {
        kind: lane.profile.kind,
        instret: lane.instret,
        user_cycles: lane.user_cycles,
        paging_cycles,
        total_cycles,
        page_ins: lane.mem.page_ins(),
        page_outs: lane.mem.page_outs(),
        segments: lane.segments,
        exit_code: exit,
        halted,
        journal: std::mem::take(&mut lane.journal),
        mix: lane.mix,
        stats: lane.stats,
        exec_time_ms,
        wall_time_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// The pre-decoded block-dispatch executor.
pub struct Engine<'p> {
    prog: &'p DecodedProgram,
    lane: Lane,
    regs: [u32; NREGS],
}

impl<'p> Engine<'p> {
    /// Set up an engine with globals loaded and `sp` initialized. A global
    /// image that does not fit guest memory is reported as a `MemFault`
    /// from [`Engine::run`], not a panic.
    pub fn new(prog: &'p DecodedProgram, profile: VmProfile, config: ExecConfig) -> Engine<'p> {
        let lane = Lane::new(profile, config, &prog.globals);
        let mut regs = [0u32; NREGS];
        regs[Reg::SP.0 as usize] = STACK_TOP;
        Engine { prog, lane, regs }
    }

    /// Run to halt, producing the metric report.
    ///
    /// # Errors
    /// Returns [`ExecError`] on faults or budget exhaustion, with the same
    /// error classes the reference interpreter reports.
    pub fn run(mut self) -> Result<ExecutionReport, ExecError> {
        let start = Instant::now();
        if let Some(addr) = self.lane.init_fault {
            return Err(ExecError::MemFault { addr, pc: 0 });
        }
        let n = self.prog.ops.len();
        let mut traces = TraceSet::new(self.prog.blocks.len());
        let mut pc = self.prog.entry;
        loop {
            if pc >= n {
                return Err(ExecError::BadPc { pc });
            }
            let bidx = self.prog.block_of[pc] as usize;
            let block = &self.prog.blocks[bidx];
            let out = if pc == block.start as usize {
                if let Some(trace) = traces.traces[bidx].as_deref() {
                    run_trace(self.prog, trace, &mut self.lane, &mut self.regs)
                } else {
                    traces.observe_entry(self.prog, bidx, &mut self.lane.stats);
                    let out = exec_block_auto(self.prog, bidx, &mut self.lane, &mut self.regs);
                    if let StepOut::Next(p) = out {
                        traces.record_branch(self.prog, bidx, p);
                    }
                    out
                }
            } else {
                exec_stepped(
                    self.prog,
                    &mut self.lane,
                    &mut self.regs,
                    pc,
                    block.end as usize,
                )
            };
            match out {
                StepOut::Next(p) => pc = p,
                StepOut::Halt(code) => {
                    return Ok(finish(&mut self.lane, &self.regs, true, code, start));
                }
                StepOut::Err(e) => return Err(e),
            }
        }
    }

    /// Run to halt like [`Engine::run`], additionally splitting the
    /// execution into per-segment accounting records — the input to the
    /// segmented proving pipeline (`zkvmopt-prover`).
    ///
    /// Dispatch is stepped-only: the batched paths replay segment
    /// boundaries arithmetically (one internal segment flush can stand in
    /// for several crossings), which is fine for totals but cannot
    /// attribute cycles to individual segments. The stepped path flushes
    /// exactly once per boundary, so hooking the flush yields exact
    /// per-segment deltas; the report stays bit-identical to [`Engine::run`]
    /// because the stepped path *is* the accounting reference the batched
    /// tiers are verified against.
    ///
    /// Guarantees (gated by tests and the prover throughput bench):
    /// - the returned report equals [`Engine::run`]'s bit for bit
    ///   (advisory [`EngineStats`] excluded);
    /// - records sum bit-identically to the report's totals (`instret`,
    ///   `user_cycles`, paging, page-ins/outs, mix);
    /// - `records.len() == report.segments`.
    ///
    /// Callers supply profiles with nonzero `segment_cycles`; a zero limit
    /// degenerates to one record per instruction.
    ///
    /// # Errors
    /// Returns [`ExecError`] exactly as [`Engine::run`] would.
    pub fn run_segmented(mut self) -> Result<(ExecutionReport, Vec<SegmentRecord>), ExecError> {
        let start = Instant::now();
        if let Some(addr) = self.lane.init_fault {
            return Err(ExecError::MemFault { addr, pc: 0 });
        }
        self.lane.recorder = Some(Box::default());
        let n = self.prog.ops.len();
        let mut pc = self.prog.entry;
        loop {
            if pc >= n {
                return Err(ExecError::BadPc { pc });
            }
            let block = &self.prog.blocks[self.prog.block_of[pc] as usize];
            let out = exec_stepped(
                self.prog,
                &mut self.lane,
                &mut self.regs,
                pc,
                block.end as usize,
            );
            match out {
                StepOut::Next(p) => pc = p,
                StepOut::Halt(code) => {
                    let mut rec = self.lane.recorder.take().expect("recorder installed");
                    // The final (partial) segment never hit the limit, so no
                    // flush closed it; close it now. It is never empty: the
                    // halting ecall itself lands in it.
                    rec.close(
                        &self.lane.profile,
                        self.lane.instret,
                        self.lane.user_cycles,
                        self.lane.mem.page_ins(),
                        self.lane.mem.page_outs(),
                        &self.lane.mix,
                    );
                    let report = finish(&mut self.lane, &self.regs, true, code, start);
                    debug_assert_eq!(rec.records.len() as u64, report.segments);
                    return Ok((report, rec.records));
                }
                StepOut::Err(e) => return Err(e),
            }
        }
    }

    /// Run N jobs over one shared decoded program, returning one result per
    /// job in job order — each exactly what [`Engine::run`] returns for that
    /// job alone, [`EngineStats`] included. The jobs share nothing but the
    /// decode: a convoy scheduler measured 1.11× the cost of solo runs, so
    /// the name is kept only for the callers that use it.
    pub fn run_lockstep(
        prog: &DecodedProgram,
        jobs: &[(VmProfile, ExecConfig)],
    ) -> Vec<Result<ExecutionReport, ExecError>> {
        jobs.iter()
            .map(|(profile, config)| Engine::new(prog, profile.clone(), config.clone()).run())
            .collect()
    }
}

/// Run a decoded program under `kind` with `inputs` — the hot entry point
/// for cached (batched-suite) execution.
///
/// # Errors
/// Propagates [`ExecError`].
pub fn run_decoded(
    prog: &DecodedProgram,
    kind: VmKind,
    inputs: &[i32],
) -> Result<ExecutionReport, ExecError> {
    let profile = VmProfile::for_kind(kind);
    let config = ExecConfig {
        inputs: inputs.to_vec(),
        ..ExecConfig::default()
    };
    Engine::new(prog, profile, config).run()
}

/// Decode-and-run convenience for one-shot executions of a [`Program`].
///
/// # Errors
/// Propagates [`ExecError`].
pub fn run_program(
    program: &Program,
    kind: VmKind,
    inputs: &[i32],
) -> Result<ExecutionReport, ExecError> {
    run_decoded(&DecodedProgram::decode(program), kind, inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use zkvmopt_passes::{OptLevel, PassConfig, PassManager};
    use zkvmopt_riscv::TargetCostModel;

    fn build(src: &str, level: Option<OptLevel>) -> Program {
        let mut m = zkvmopt_lang::compile_guest(src).expect("compiles");
        if let Some(l) = level {
            PassManager::for_level(l).run(&mut m, &PassConfig::default());
        }
        zkvmopt_riscv::compile_module(&m, &TargetCostModel::zk()).expect("codegen")
    }

    /// Every observable and every cost metric must match the reference step
    /// interpreter exactly (wall time and advisory engine stats excluded).
    fn assert_identical(src: &str, inputs: &[i32], level: Option<OptLevel>) {
        let p = build(src, level);
        for kind in VmKind::BOTH {
            let config = ExecConfig {
                inputs: inputs.to_vec(),
                ..ExecConfig::default()
            };
            let old = Machine::new(&p, VmProfile::for_kind(kind), config.clone())
                .run()
                .expect("reference runs");
            let d = DecodedProgram::decode(&p);
            let new = Engine::new(&d, VmProfile::for_kind(kind), config)
                .run()
                .expect("engine runs");
            assert_eq!(new.instret, old.instret, "instret ({kind})");
            assert_eq!(new.user_cycles, old.user_cycles, "user_cycles ({kind})");
            assert_eq!(new.paging_cycles, old.paging_cycles, "paging ({kind})");
            assert_eq!(new.total_cycles, old.total_cycles, "total ({kind})");
            assert_eq!(new.page_ins, old.page_ins, "page_ins ({kind})");
            assert_eq!(new.page_outs, old.page_outs, "page_outs ({kind})");
            assert_eq!(new.segments, old.segments, "segments ({kind})");
            assert_eq!(new.exit_code, old.exit_code, "exit ({kind})");
            assert_eq!(new.halted, old.halted, "halted ({kind})");
            assert_eq!(new.journal, old.journal, "journal ({kind})");
            assert_eq!(new.mix, old.mix, "mix ({kind})");
        }
    }

    #[test]
    fn matches_reference_on_arithmetic_loops() {
        assert_identical(
            "fn main() -> i32 {
               let mut s: i32 = 0;
               for (let mut i: i32 = 1; i <= 200; i += 1) { s += i * i - s / 7; }
               commit(s);
               return s;
             }",
            &[],
            None,
        );
    }

    #[test]
    fn matches_reference_on_memory_and_paging() {
        assert_identical(
            "static A: [i32; 16384];
             fn main() -> i32 {
               for (let mut i: i32 = 0; i < 16384; i += 64) { A[i] = i * 3; }
               let mut s: i32 = 0;
               for (let mut i: i32 = 0; i < 16384; i += 64) { s += A[i]; }
               commit(s);
               return s;
             }",
            &[],
            Some(OptLevel::O2),
        );
    }

    #[test]
    fn matches_reference_on_calls_and_recursion() {
        assert_identical(
            "fn fib(n: i32) -> i32 {
               if (n < 2) { return n; }
               return fib(n - 1) + fib(n - 2);
             }
             fn main() -> i32 { commit(fib(15)); return fib(11); }",
            &[],
            Some(OptLevel::O3),
        );
    }

    #[test]
    fn matches_reference_on_segment_splits() {
        // A long loop over one page: segment flushes re-page the resident
        // set (and invalidate the residency pre-probe), the accounting the
        // batched paths replay arithmetically.
        assert_identical(
            "static A: [i32; 4];
             fn main() -> i32 {
               let mut s: i32 = 0;
               for (let mut i: i32 = 0; i < 400000; i += 1) { A[0] = i; s += A[0]; }
               return s;
             }",
            &[],
            Some(OptLevel::O1),
        );
    }

    #[test]
    fn matches_reference_on_precompiles_and_halt() {
        assert_identical(
            "static MSG: [i8; 3] = \"abc\";
             static OUT: [i8; 32];
             fn main() -> i32 {
               sha256(MSG, 3, OUT);
               commit(OUT[0] as i32);
               halt(OUT[1] as i32);
               return -1;
             }",
            &[],
            None,
        );
    }

    #[test]
    fn matches_reference_on_inputs_and_division_edges() {
        assert_identical(
            "fn main() -> i32 {
               let a: i32 = read_input(0);
               let b: i32 = read_input(1);
               commit(a / b); commit(a % b);
               commit((-2147483647 - 1) / -1); commit((-2147483647 - 1) % -1);
               return a / 8;
             }",
            &[-7, 0],
            None,
        );
    }

    #[test]
    fn cycle_limit_matches_reference() {
        let p = build(
            "fn main() -> i32 { let mut i: i32 = 0; while (true) { i += 1; } return i; }",
            None,
        );
        let cfg = ExecConfig {
            max_cycles: 10_000,
            ..ExecConfig::default()
        };
        let d = DecodedProgram::decode(&p);
        let r = Engine::new(&d, VmProfile::risc_zero(), cfg).run();
        assert_eq!(r.unwrap_err(), ExecError::CycleLimit);
    }

    #[test]
    fn run_decoded_reuses_one_decode_across_vm_kinds() {
        let p = build("fn main() -> i32 { return 6 * 7; }", None);
        let d = DecodedProgram::decode(&p);
        let r0 = run_decoded(&d, VmKind::RiscZero, &[]).unwrap();
        let sp1 = run_decoded(&d, VmKind::Sp1, &[]).unwrap();
        assert_eq!(r0.exit_code, 42);
        assert_eq!(sp1.exit_code, 42);
        assert_eq!(r0.instret, sp1.instret);
    }

    #[test]
    fn hot_loops_form_traces_and_memory_probes_hit() {
        let p = build(
            "static A: [i32; 256];
             fn main() -> i32 {
               let mut s: i32 = 0;
               for (let mut i: i32 = 0; i < 256; i += 1) { A[i] = i; }
               for (let mut j: i32 = 0; j < 2000; j += 1) { s += A[j % 256]; }
               commit(s);
               return s;
             }",
            Some(OptLevel::O2),
        );
        let d = DecodedProgram::decode(&p);
        let r = run_decoded(&d, VmKind::RiscZero, &[]).expect("runs");
        assert!(r.stats.traces_formed >= 1, "hot loop should form a trace");
        assert!(
            r.stats.probe_hits > r.stats.probe_misses,
            "a loop over one array should mostly hit the residency probe \
             (hits {}, misses {})",
            r.stats.probe_hits,
            r.stats.probe_misses
        );
    }

    /// The `run_lockstep` contract: one result per job, in job order, each
    /// equal to the solo run — advisory stats included (wall time is the one
    /// host-dependent field).
    #[test]
    fn lockstep_mixes_vm_kinds_and_budgets() {
        let p = build(
            "fn main() -> i32 {
               let mut s: i32 = 0;
               for (let mut i: i32 = 0; i < 5000; i += 1) { s += i; }
               commit(s);
               return s;
             }",
            None,
        );
        let mut d = DecodedProgram::decode(&p);
        let jobs: Vec<(VmProfile, ExecConfig)> = vec![
            (VmProfile::risc_zero(), ExecConfig::default()),
            (VmProfile::sp1(), ExecConfig::default()),
            (
                VmProfile::risc_zero(),
                ExecConfig {
                    max_cycles: 100,
                    ..ExecConfig::default()
                },
            ),
        ];
        let unwall = |r: Result<ExecutionReport, ExecError>| {
            r.map(|mut rep| {
                rep.wall_time_ms = 0.0;
                rep
            })
        };
        let results = Engine::run_lockstep(&d, &jobs);
        assert_eq!(results.len(), 3);
        for (job, r) in jobs.iter().zip(&results) {
            let solo = Engine::new(&d, job.0.clone(), job.1.clone()).run();
            assert_eq!(unwall(r.clone()), unwall(solo));
        }
        assert!(results[0].as_ref().is_ok_and(|r| r.stats.traces_formed > 0));
        assert!(results[1].is_ok());
        assert_eq!(results[2], Err(ExecError::CycleLimit));

        // A global image that does not fit guest memory (here: inside the
        // null guard) fails every job before its first instruction.
        d.globals.push((0x10, vec![1]));
        for r in Engine::run_lockstep(&d, &jobs) {
            assert_eq!(r, Err(ExecError::MemFault { addr: 0x10, pc: 0 }));
        }
    }
}
