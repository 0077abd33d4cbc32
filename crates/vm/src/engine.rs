//! The block-dispatch zkVM executor.
//!
//! [`Engine`] runs a [`DecodedProgram`] through two tiers that share the
//! semantics of every op: `exec_value` computes what a non-control op
//! writes, `exec_jump` where a branch or jump goes. Only what a tier does
//! with the next pc is its own.
//!
//! - **Fast.** One threaded loop (`exec_fast`) over the decoded `ops`
//!   stream (see [`crate::op`]). Each guest op is one dispatch, with no
//!   per-op accounting; loads and stores are served from the residency table
//!   of [`FastMemory`] (a page the segment already holds charges nothing).
//!   A block's exit op — its terminator, or a synthetic `jal` where it falls
//!   through — is itself an op: it charges the block its `k` ops, counts a
//!   hit that the final report folds into the instruction mix as hit-count ×
//!   static mix, and chains straight into the ecall-free block that starts
//!   at the next pc. `instret`, `user_cycles` and `segment_cycles` are
//!   flushed into the lane once, when the chain stops.
//! - **Stepped.** Everything else — ecall blocks, mid-block entries, blocks
//!   that may meet a segment boundary or the budget — runs with
//!   per-instruction accounting that replicates the reference step
//!   interpreter bit for bit. It reads the same stream, from any pc to the
//!   end of its block, and so never reaches a synthetic exit.
//!
//! **The room invariant.** Between blocks `user_cycles <= max_cycles` and
//! `segment_cycles < limit`, the segment limit (or `segment_cycles == 0`
//! under a zero limit). A chain starts with
//! `room = min(max_cycles − user_cycles, limit − segment_cycles − 1)`,
//! saturated at 0, and enters a block only if the block starts at the pc,
//! has no ecall and its `k <= left`, where `left = room − retired` so far.
//! That is the per-block condition `k <= budget left && segment_cycles + k <
//! limit` evaluated on the lane state the block would see, so a chain never
//! crosses the budget or a segment boundary, and retires exactly what one
//! block at a time would. A zero limit leaves no room: nothing runs fast.
//!
//! **Settle on miss.** A fast block can only meet a segment boundary through
//! a paging charge, and only an access the residency table cannot serve
//! (absent page, first write to a clean page, page-straddling or faulting
//! address) can charge. On such a miss the block settles the ops before it
//! and finishes stepped from the missing op. So every segment flush happens
//! on the stepped path, exactly once per boundary, with exact lane state —
//! which is why [`Engine::run_segmented`] is [`Engine::run`] with a recorder
//! installed, and why the null guard needs no special case: an address below
//! `0x100` is never a hit.
//!
//! **One run, two prices.** A run that meets no segment boundary never
//! finds its segment room too small for a block (every block runs whole
//! and ends below the limit), so only the budget steers its tiers. Two
//! profiles then run a program alike wherever neither meets a boundary and
//! no precompile is charged: [`derive_segmented`] prices such a run under
//! the other profile instead of running it again. It is held to the real
//! run by the `derived_runs_equal_real_runs_*` tests, field for field,
//! over the suite and generated programs on a grid of segment limits
//! around each run's end and of tight budgets.
//!
//! Cycle counts, paging charges, segment splits, instruction mixes,
//! journals, and error classes are guaranteed identical to
//! `crate::machine::Machine` — the suite-wide differential harness
//! (`tests/differential.rs`) enforces this across all 58 workloads × 5
//! profiles × both VM kinds at the full budget, and
//! `tests/engine_vs_reference.rs` enforces it under tiny and random cycle
//! budgets, small segment limits and divergent inputs.

use crate::ecalls::{self, MemIo};
use crate::machine::{alu, alu_imm, ExecConfig, ExecError, ExecutionReport, InstMix};
use crate::mem::{FastMemory, MemFault, STACK_TOP};
use crate::op::{Block, DecodedProgram, Op, OpCode};
use crate::profile::{EngineStats, VmKind, VmProfile};
use crate::segment::{SegmentRecord, SegmentRecorder};
use std::time::Instant;
use zkvmopt_ir::ecall;
use zkvmopt_riscv::{AluImmOp, AluOp, MixClass, Program, Reg};

/// The register file: `x0`–`x31`, the write sink (see [`crate::op`]), and
/// padding to one slot per `u8` index, so that indexing needs no check.
type Regs = [u32; 256];

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

/// Outcome of executing one block for one machine state.
enum StepOut {
    /// Continue at this code index.
    Next(usize),
    /// The guest halted with this exit code.
    Halt(i32),
    /// Execution failed.
    Err(ExecError),
}

/// One machine state's everything-but-registers: memory, accounting and
/// journal.
struct Lane {
    profile: VmProfile,
    inputs: Vec<i32>,
    max_cycles: u64,
    mem: FastMemory,
    journal: Vec<i32>,
    instret: u64,
    user_cycles: u64,
    /// Mix of the ops retired on the stepped path; fast blocks are in
    /// `block_hits` until [`Lane::fold_hits`].
    mix: InstMix,
    /// Per block: how often it ran whole on the fast tier.
    block_hits: Vec<u64>,
    /// Loads and stores that took the charged access path.
    charged_accesses: u64,
    segments: u64,
    segment_cycles: u64,
    /// First global-image byte that failed to load, reported lazily as a
    /// `MemFault` when the lane runs.
    init_fault: Option<u32>,
    /// Per-segment accounting capture, installed only by
    /// [`Engine::run_segmented`].
    recorder: Option<Box<SegmentRecorder>>,
}

impl Lane {
    fn new(profile: VmProfile, config: ExecConfig, prog: &DecodedProgram) -> Lane {
        let mut mem = FastMemory::new();
        let mut init_fault = None;
        for (addr, data) in &prog.globals {
            if mem.write_bytes_host(*addr, data).is_err() && init_fault.is_none() {
                init_fault = Some(*addr);
            }
        }
        Lane {
            max_cycles: config.max_cycles,
            inputs: config.inputs,
            profile,
            mem,
            journal: Vec::new(),
            instret: 0,
            user_cycles: 0,
            mix: InstMix::default(),
            block_hits: vec![0; prog.blocks.len()],
            charged_accesses: 0,
            segments: 1,
            segment_cycles: 0,
            init_fault,
            recorder: None,
        }
    }

    /// Bring `mix` up to date: add hit-count × static mix for every block.
    fn fold_hits(&mut self, prog: &DecodedProgram) {
        for (hits, block) in self.block_hits.iter_mut().zip(&prog.blocks) {
            if *hits != 0 {
                self.mix.add_scaled(&block.mix, std::mem::take(hits));
            }
        }
    }

    /// Account `n` ops that each cost one cycle and charged no paging.
    fn retire(&mut self, n: u64) {
        self.instret += n;
        self.user_cycles += n;
        self.segment_cycles += n;
    }

    /// Capture the closing segment's accounting deltas, if
    /// [`Engine::run_segmented`] installed a recorder.
    fn record_segment(&mut self, prog: &DecodedProgram) {
        let Some(mut rec) = self.recorder.take() else {
            return;
        };
        self.fold_hits(prog);
        rec.close(
            &self.profile,
            self.instret,
            self.user_cycles,
            self.mem.page_ins(),
            self.mem.page_outs(),
            &self.mix,
        );
        self.recorder = Some(rec);
    }
}

/// An `N`-byte load, either from the residency table alone (`FAST`: a miss
/// is reported as a [`MemFault`] whether or not the charged path would
/// fault) or through the charged path.
#[inline(always)]
fn load<const FAST: bool, const N: usize>(
    mem: &mut FastMemory,
    addr: u32,
) -> Result<u32, MemFault> {
    if FAST {
        mem.load_resident::<N>(addr).ok_or(MemFault { addr })
    } else {
        mem.read(addr, N as u32)
    }
}

/// The store counterpart of [`load`].
#[inline(always)]
fn store<const FAST: bool, const N: usize>(
    mem: &mut FastMemory,
    addr: u32,
    value: u32,
) -> Result<(), MemFault> {
    if !FAST {
        mem.write(addr, value, N as u32)
    } else if mem.store_resident::<N>(addr, value) {
        Ok(())
    } else {
        Err(MemFault { addr })
    }
}

/// The value of every op that does not transfer control, shared by both
/// tiers: operands preloaded, one `match`, the result `rd` receives (ops
/// without one write the sink). `FAST` selects how memory is reached (see
/// [`load`]); an `Err` means the op did nothing.
#[inline(always)]
#[rustfmt::skip]
fn exec_value<const FAST: bool>(
    op: Op,
    regs: &Regs,
    mem: &mut FastMemory,
) -> Result<u32, MemFault> {
    use OpCode as C;
    let a = regs[op.rs1 as usize];
    let b = regs[op.rs2 as usize];
    let imm = op.imm;
    let addr = a.wrapping_add(imm);
    Ok(match op.code {
        C::Lui => imm,
        C::Add => alu(AluOp::Add, a, b),
        C::Sub => alu(AluOp::Sub, a, b),
        C::Sll => alu(AluOp::Sll, a, b),
        C::Slt => alu(AluOp::Slt, a, b),
        C::Sltu => alu(AluOp::Sltu, a, b),
        C::Xor => alu(AluOp::Xor, a, b),
        C::Srl => alu(AluOp::Srl, a, b),
        C::Sra => alu(AluOp::Sra, a, b),
        C::Or => alu(AluOp::Or, a, b),
        C::And => alu(AluOp::And, a, b),
        C::Mul => alu(AluOp::Mul, a, b),
        C::Mulh => alu(AluOp::Mulh, a, b),
        C::Mulhsu => alu(AluOp::Mulhsu, a, b),
        C::Mulhu => alu(AluOp::Mulhu, a, b),
        C::Div => alu(AluOp::Div, a, b),
        C::Divu => alu(AluOp::Divu, a, b),
        C::Rem => alu(AluOp::Rem, a, b),
        C::Remu => alu(AluOp::Remu, a, b),
        C::Addi => alu_imm(AluImmOp::Addi, a, imm as i32),
        C::Slti => alu_imm(AluImmOp::Slti, a, imm as i32),
        C::Sltiu => alu_imm(AluImmOp::Sltiu, a, imm as i32),
        C::Xori => alu_imm(AluImmOp::Xori, a, imm as i32),
        C::Ori => alu_imm(AluImmOp::Ori, a, imm as i32),
        C::Andi => alu_imm(AluImmOp::Andi, a, imm as i32),
        C::Slli => alu_imm(AluImmOp::Slli, a, imm as i32),
        C::Srli => alu_imm(AluImmOp::Srli, a, imm as i32),
        C::Srai => alu_imm(AluImmOp::Srai, a, imm as i32),
        C::Lb => load::<FAST, 1>(mem, addr)? as u8 as i8 as u32,
        C::Lbu => load::<FAST, 1>(mem, addr)?,
        C::Lh => load::<FAST, 2>(mem, addr)? as u16 as i16 as u32,
        C::Lhu => load::<FAST, 2>(mem, addr)?,
        C::Lw => load::<FAST, 4>(mem, addr)?,
        C::Sb => { store::<FAST, 1>(mem, addr, b)?; 0 }
        C::Sh => { store::<FAST, 2>(mem, addr, b)?; 0 }
        C::Sw => { store::<FAST, 4>(mem, addr, b)?; 0 }
        C::Beq | C::Bne | C::Blt | C::Bge | C::Bltu | C::Bgeu | C::Jal | C::Jalr | C::Ecall => {
            debug_assert!(false, "control ops and ecalls are each tier's own");
            0
        }
    })
}

/// Where a control op (branch, `jal`, `jalr`) sends the pc, shared by both
/// tiers. `fall` is the code index after the op; its byte address is the
/// link, which `rd` receives (the sink, for branches).
#[inline(always)]
#[rustfmt::skip]
fn exec_jump(op: Op, regs: &mut Regs, fall: usize) -> usize {
    use OpCode as C;
    let a = regs[op.rs1 as usize];
    let b = regs[op.rs2 as usize];
    let target = op.imm as usize;
    let branch = |taken: bool| if taken { target } else { fall };
    let next = match op.code {
        C::Beq => branch(a == b),
        C::Bne => branch(a != b),
        C::Blt => branch((a as i32) < b as i32),
        C::Bge => branch(a as i32 >= b as i32),
        C::Bltu => branch(a < b),
        C::Bgeu => branch(a >= b),
        C::Jal => target,
        C::Jalr => (a.wrapping_add(op.imm) / 4) as usize,
        _ => { debug_assert!(false, "not a control op"); fall }
    };
    regs[op.rd as usize] = fall as u32 * 4;
    next
}

/// The stepped path: per-instruction accounting identical to the reference
/// interpreter, from `pc` to the end of its `block` (or a taken jump, halt,
/// or error). Handles every op class; the fast path falls back here.
fn exec_stepped(
    prog: &DecodedProgram,
    lane: &mut Lane,
    regs: &mut Regs,
    pc: usize,
    block: &Block,
) -> StepOut {
    let seg_limit = lane.profile.segment_cycles;
    // The op at pc `i` is `ops[i + run − start]`, and `run >= start`.
    let run_offset = (block.run - block.start) as usize;
    let end = (block.start + block.len) as usize;
    let mut i = pc;
    while i < end {
        let mut cost: u64 = 1;
        let mut next = i + 1;
        let (ins, outs) = (lane.mem.page_ins(), lane.mem.page_outs());
        let op = prog.ops[i + run_offset];
        let class = op.mix_class();
        lane.mix.bump(class);
        match class {
            MixClass::Ecall => {
                let code = regs[Reg::T0.0 as usize];
                let a0 = regs[Reg::A0.0 as usize];
                let args = [Reg::A0, Reg::A1, Reg::A2].map(|r| regs[r.0 as usize] as i64);
                regs[Reg::A0.0 as usize] = match code {
                    ecall::HALT => {
                        lane.instret += 1;
                        lane.user_cycles += cost;
                        return StepOut::Halt(a0 as i32);
                    }
                    ecall::COMMIT => {
                        lane.journal.push(a0 as i32);
                        0
                    }
                    ecall::READ_INPUT => lane.inputs.get(a0 as usize).copied().unwrap_or(0) as u32,
                    other => {
                        cost += ecalls::precompile_cycles(&lane.profile, other, &args);
                        // Charge before working: a precompile the budget
                        // cannot pay for must not run (its input length is
                        // guest-controlled).
                        if lane.user_cycles + cost > lane.max_cycles {
                            return StepOut::Err(ExecError::CycleLimit);
                        }
                        ecalls::run_precompile(other, &args, &mut FastIo(&mut lane.mem)) as u32
                    }
                };
            }
            MixClass::Branch | MixClass::Jump => next = exec_jump(op, regs, i + 1),
            _ => {
                lane.charged_accesses +=
                    u64::from(matches!(class, MixClass::Load | MixClass::Store));
                match exec_value::<false>(op, regs, &mut lane.mem) {
                    Ok(v) => regs[op.rd as usize] = v,
                    Err(MemFault { addr }) => {
                        return StepOut::Err(ExecError::MemFault { addr, pc: i })
                    }
                }
            }
        }
        let pcycles = lane
            .profile
            .paging_cycles(lane.mem.page_ins() - ins, lane.mem.page_outs() - outs);
        lane.instret += 1;
        lane.user_cycles += cost;
        lane.segment_cycles += cost + pcycles;
        if lane.segment_cycles >= seg_limit {
            lane.segments += 1;
            lane.segment_cycles = 0;
            lane.record_segment(prog);
            lane.mem.flush_segment();
        }
        if lane.user_cycles > lane.max_cycles {
            return StepOut::Err(ExecError::CycleLimit);
        }
        if next != i + 1 {
            return StepOut::Next(next);
        }
        i = next;
    }
    StepOut::Next(end)
}

/// The fast tier: one threaded loop over the `ops` stream, from the head
/// of ecall-free block `b` (which fits `room`), with no per-op accounting.
/// Each op is one dispatch; a block's exit op charges the block its `k` ops
/// at once and chains straight into the block it leads to, while an
/// ecall-free one starts there and fits what is left of `room`. The ops
/// retired are flushed into the lane once, when the chain stops. An access
/// the residency table cannot serve settles the ops before it and hands the
/// rest of its block, that op included, to [`exec_stepped`].
///
/// Out of line on purpose: with its own register allocation the chain's
/// state stays in registers (inlined into the dispatch loop it measured
/// 1.06× slower).
#[inline(never)]
fn exec_fast<'p>(
    prog: &'p DecodedProgram,
    lane: &mut Lane,
    regs: &mut Regs,
    mut b: usize,
    mut head: &'p Block,
    room: u64,
) -> StepOut {
    use OpCode as C;
    let mut left = room;
    let mut i = head.run as usize;
    let next = loop {
        let op = prog.ops[i];
        let end = (head.start + head.len) as usize;
        let next = match op.code {
            C::Beq | C::Bne | C::Blt | C::Bge | C::Bltu | C::Bgeu | C::Jal | C::Jalr => {
                exec_jump(op, regs, end)
            }
            _ => match exec_value::<true>(op, regs, &mut lane.mem) {
                Ok(v) => {
                    regs[op.rd as usize] = v;
                    i += 1;
                    continue;
                }
                Err(_) => {
                    let run = head.run as usize;
                    let done = i - run;
                    lane.retire(room - left + done as u64);
                    for op in &prog.ops[run..i] {
                        lane.mix.bump(op.mix_class());
                    }
                    return exec_stepped(prog, lane, regs, head.start as usize + done, head);
                }
            },
        };
        left -= u64::from(head.len);
        lane.block_hits[b] += 1;
        match prog.fast_block_at(next, left) {
            Some((nb, nhead)) => (b, head, i) = (nb, nhead, nhead.run as usize),
            None => break next,
        }
    };
    lane.retire(room - left);
    StepOut::Next(next)
}

/// Build the final report for a finished lane.
fn finish(
    lane: &mut Lane,
    prog: &DecodedProgram,
    regs: &Regs,
    halted: bool,
    exit_code: i32,
    start: Instant,
) -> ExecutionReport {
    lane.fold_hits(prog);
    let (paging_cycles, total_cycles, exec_time_ms) =
        lane.profile
            .price_run(lane.user_cycles, lane.mem.page_ins(), lane.mem.page_outs());
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
        stats: EngineStats {
            probe_hits: lane.mix.load + lane.mix.store - lane.charged_accesses,
            probe_misses: lane.charged_accesses,
            ..EngineStats::default()
        },
        exec_time_ms,
        wall_time_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// The pre-decoded block-dispatch executor.
pub struct Engine<'p> {
    prog: &'p DecodedProgram,
    lane: Lane,
    regs: Regs,
}

impl<'p> Engine<'p> {
    /// Set up an engine with globals loaded and `sp` initialized. A global
    /// image that does not fit guest memory is reported as a `MemFault`
    /// from [`Engine::run`], not a panic.
    pub fn new(prog: &'p DecodedProgram, profile: VmProfile, config: ExecConfig) -> Engine<'p> {
        let lane = Lane::new(profile, config, prog);
        let mut regs = [0u32; 256];
        regs[Reg::SP.0 as usize] = STACK_TOP;
        Engine { prog, lane, regs }
    }

    /// The dispatch loop: to halt, alternating between fast chains and
    /// stepped blocks, whichever each entry allows. Returns the exit code.
    fn dispatch(&mut self) -> Result<i32, ExecError> {
        if let Some(addr) = self.lane.init_fault {
            return Err(ExecError::MemFault { addr, pc: 0 });
        }
        let (prog, lane) = (self.prog, &mut self.lane);
        let seg_limit = lane.profile.segment_cycles;
        let mut pc = prog.entry;
        loop {
            // `user_cycles <= max_cycles` and `segment_cycles <= seg_limit`
            // hold between blocks, so neither subtraction wraps; a zero
            // segment limit leaves no room.
            let room = (lane.max_cycles - lane.user_cycles)
                .min((seg_limit - lane.segment_cycles).saturating_sub(1));
            let out = match prog.fast_block_at(pc, room) {
                Some((b, head)) => exec_fast(prog, lane, &mut self.regs, b, head, room),
                None => {
                    let Some(block) = prog.block_at(pc) else {
                        return Err(ExecError::BadPc { pc });
                    };
                    exec_stepped(prog, lane, &mut self.regs, pc, block)
                }
            };
            match out {
                StepOut::Next(p) => pc = p,
                StepOut::Halt(code) => return Ok(code),
                StepOut::Err(e) => return Err(e),
            }
        }
    }

    /// Run to halt, producing the metric report.
    ///
    /// # Errors
    /// Returns [`ExecError`] on faults or budget exhaustion, with the same
    /// error classes the reference interpreter reports.
    pub fn run(mut self) -> Result<ExecutionReport, ExecError> {
        let start = Instant::now();
        let code = self.dispatch()?;
        Ok(finish(
            &mut self.lane,
            self.prog,
            &self.regs,
            true,
            code,
            start,
        ))
    }

    /// Run to halt like [`Engine::run`], additionally splitting the
    /// execution into per-segment accounting records — the input to the
    /// segmented proving pipeline (`zkvmopt-prover`).
    ///
    /// Same dispatch loop, same tiers: every segment flush happens on the
    /// stepped path, once per boundary, with `instret`, cycles and paging
    /// counters exact at that instruction (see the module docs), so the
    /// recorder only has to fold the fast tier's block hit counts into the
    /// mix before it takes its deltas.
    ///
    /// Guarantees (gated by tests):
    /// - the returned report equals [`Engine::run`]'s bit for bit;
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
        self.lane.recorder = Some(Box::default());
        let code = self.dispatch()?;
        Ok(self.finish_segmented(code, start))
    }

    fn finish_segmented(
        mut self,
        code: i32,
        start: Instant,
    ) -> (ExecutionReport, Vec<SegmentRecord>) {
        // The final (partial) segment never hit the limit, so no flush
        // closed it; close it now. It is never empty: the halting ecall
        // itself lands in it.
        self.lane.record_segment(self.prog);
        let records = self
            .lane
            .recorder
            .take()
            .map_or_else(Vec::new, |r| r.records);
        let report = finish(&mut self.lane, self.prog, &self.regs, true, code, start);
        debug_assert_eq!(records.len() as u64, report.segments);
        (report, records)
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

/// What [`Engine::run_segmented`] returns under `target`, derived from a
/// run of the same program and [`ExecConfig`] under `source`; or `None`
/// when the two runs may differ in more than their paging price.
///
/// It derives only when the source run has one record, charged no
/// precompile cycles (prices differ per profile; a zero source price
/// would hide a call) and `instret + paging < segment_cycles` holds under
/// `target`'s prices. Then neither run meets a segment boundary, and a run
/// that meets none never finds its segment room too small for a block:
/// every block runs whole, so it ends below the limit. What is left to
/// steer the tiers is the budget, and it sees the same `user_cycles` on
/// both. So both runs retire the same instructions over the same
/// residency and split them alike between the tiers: page-ins/outs, the
/// mix and the [`EngineStats`] are equal.
///
/// The derived run differs from the source only in `kind`, the paging and
/// total cycles and `exec_time_ms` (priced by [`VmProfile::price_run`]) and
/// the record's paging cycles; `wall_time_ms` is 0.0.
pub fn derive_segmented(
    source: &VmProfile,
    (report, records): (&ExecutionReport, &[SegmentRecord]),
    target: &VmProfile,
) -> Option<(ExecutionReport, Vec<SegmentRecord>)> {
    let [record] = records else { return None };
    let prices = [
        source.sha256_block_cycles,
        source.keccak_block_cycles,
        source.sig_verify_cycles,
    ];
    let (ins, outs) = (report.page_ins, report.page_outs);
    if report.user_cycles != report.instret
        || prices.contains(&0)
        || report.instret + target.paging_cycles(ins, outs) >= target.segment_cycles
    {
        return None;
    }
    let (paging_cycles, total_cycles, exec_time_ms) =
        target.price_run(report.user_cycles, ins, outs);
    let derived = ExecutionReport {
        kind: target.kind,
        paging_cycles,
        total_cycles,
        exec_time_ms,
        wall_time_ms: 0.0,
        ..report.clone()
    };
    let record = SegmentRecord {
        paging_cycles,
        ..record.clone()
    };
    Some((derived, vec![record]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::program_gen;
    use zkvmopt_passes::{OptLevel, PassConfig, PassManager};
    use zkvmopt_riscv::{BranchCond, Inst, MemWidth, TargetCostModel};

    impl Engine<'_> {
        /// [`Engine::run_segmented`] with every block stepped: the oracle for
        /// the fast tier's records.
        fn run_segmented_stepped(
            mut self,
        ) -> Result<(ExecutionReport, Vec<SegmentRecord>), ExecError> {
            let start = Instant::now();
            if let Some(addr) = self.lane.init_fault {
                return Err(ExecError::MemFault { addr, pc: 0 });
            }
            self.lane.recorder = Some(Box::default());
            let mut pc = self.prog.entry;
            loop {
                let Some(block) = self.prog.block_at(pc) else {
                    return Err(ExecError::BadPc { pc });
                };
                match exec_stepped(self.prog, &mut self.lane, &mut self.regs, pc, block) {
                    StepOut::Next(p) => pc = p,
                    StepOut::Halt(code) => return Ok(self.finish_segmented(code, start)),
                    StepOut::Err(e) => return Err(e),
                }
            }
        }
    }

    fn build(src: &str, level: Option<OptLevel>) -> Program {
        let mut m = zkvmopt_lang::compile_guest(src).expect("compiles");
        if let Some(l) = level {
            PassManager::for_level(l).run(&mut m, &PassConfig::default());
        }
        zkvmopt_riscv::compile_module(&m, &TargetCostModel::zk()).expect("codegen")
    }

    /// A report without its host-dependent and advisory fields.
    fn strip(mut report: ExecutionReport) -> ExecutionReport {
        report.wall_time_ms = 0.0;
        report.stats = EngineStats::default();
        report
    }

    /// One job through every executor: `run` and `run_segmented` must
    /// report exactly what the reference step interpreter does (every
    /// observable, every cost metric, or the same error; wall time and
    /// advisory engine stats excluded), and the records must equal the
    /// stepped-only oracle's one by one.
    fn check_job(p: &Program, profile: &VmProfile, config: &ExecConfig, ctx: &str) {
        let d = DecodedProgram::decode(p);
        let engine = || Engine::new(&d, profile.clone(), config.clone());
        let oracle = Machine::new(p, profile.clone(), config.clone())
            .run()
            .map(strip);
        assert_eq!(engine().run().map(strip), oracle, "{ctx}: run");
        let segmented = engine().run_segmented().map(|(r, recs)| (strip(r), recs));
        let stepped = engine()
            .run_segmented_stepped()
            .map(|(r, recs)| (strip(r), recs));
        assert_eq!(segmented, stepped, "{ctx}: records vs the stepped oracle");
        assert_eq!(segmented.map(|(r, _)| r), oracle, "{ctx}: run_segmented");
    }

    fn assert_identical(src: &str, inputs: &[i32], level: Option<OptLevel>) {
        let p = build(src, level);
        for kind in VmKind::BOTH {
            let config = ExecConfig {
                inputs: inputs.to_vec(),
                ..ExecConfig::default()
            };
            check_job(&p, &VmProfile::for_kind(kind), &config, kind.name());
        }
    }

    /// [`check_job`] under segment limits that put boundaries everywhere a
    /// block can meet one, and budgets that end the run at its start, in
    /// its middle and never.
    fn check_limits(p: &Program, segment_limits: &[u64], budgets: &[u64], what: &str) {
        for kind in VmKind::BOTH {
            for &segment_cycles in segment_limits {
                let profile = VmProfile {
                    segment_cycles,
                    ..VmProfile::for_kind(kind)
                };
                for &max_cycles in budgets {
                    let config = ExecConfig {
                        inputs: vec![3, -5],
                        max_cycles,
                    };
                    let ctx = format!(
                        "{what} on {kind}, segments of {segment_cycles}, budget {max_cycles}"
                    );
                    check_job(p, &profile, &config, &ctx);
                }
            }
        }
    }

    const BUDGETS: [u64; 6] = [0, 1, 13, 201, 997, 2_000_000_000];

    fn addi(rd: Reg, rs1: Reg, imm: i32) -> Inst<Reg> {
        Inst::AluImm {
            op: AluImmOp::Addi,
            rd,
            rs1,
            imm,
        }
    }

    /// `prelude`, then `body` 100 times as one block (loop counter in `t2`),
    /// then `halt(a0)` in a block of its own.
    fn counted_loop(prelude: &[Inst<Reg>], body: &[Inst<Reg>]) -> Program {
        let mut code = vec![addi(Reg::T2, Reg::ZERO, 0), addi(Reg::T3, Reg::ZERO, 100)];
        code.extend_from_slice(prelude);
        let head = code.len();
        code.extend_from_slice(body);
        code.push(addi(Reg::T2, Reg::T2, 1));
        code.push(Inst::Branch {
            cond: BranchCond::Lt,
            rs1: Reg::T2,
            rs2: Reg::T3,
            target: head,
        });
        code.push(Inst::Ecall);
        Program {
            code,
            entry: 0,
            func_entries: vec![],
            func_names: vec![],
            globals: vec![],
            spilled_vregs: 0,
        }
    }

    /// Every segment limit up to a few blocks' worth, so that over the 100
    /// iterations a boundary falls on each op of the block — inside it, on
    /// its first and on its last — plus the limits the issue names.
    fn limits() -> Vec<u64> {
        (0..=40).chain([64, 1000, 5000]).collect()
    }

    #[test]
    fn segment_boundaries_inside_a_pure_block_match_reference() {
        let body = [addi(Reg::A0, Reg::A0, 3), addi(Reg::A1, Reg::A0, -1)];
        check_limits(&counted_loop(&[], &body), &limits(), &BUDGETS, "pure loop");
    }

    #[test]
    fn segment_boundaries_on_a_missing_load_mid_block_match_reference() {
        // A new page every iteration: the load (and the store after it, on
        // the page-out) misses mid-block, and its paging charge alone
        // crosses every limit below 1130 (RISC Zero) or 188 (SP1) cycles.
        let load = Inst::Load {
            width: MemWidth::Word,
            rd: Reg::A1,
            base: Reg::T1,
            offset: 0,
        };
        let store = Inst::Store {
            width: MemWidth::Half,
            src: Reg::T2,
            base: Reg::T1,
            offset: 6,
        };
        let prelude = [Inst::Lui {
            rd: Reg::T1,
            imm: 0x20000,
        }];
        let body = [
            addi(Reg::A0, Reg::A0, 1),
            load,
            addi(Reg::A0, Reg::A1, 1),
            store,
            addi(Reg::T1, Reg::T1, 1024),
        ];
        check_limits(
            &counted_loop(&prelude, &body),
            &limits(),
            &BUDGETS,
            "paging loop",
        );
    }

    #[test]
    fn resident_pages_and_straddling_accesses_match_reference() {
        // One page revisited (hits after the first iteration of a segment),
        // and a word that straddles two pages (never a hit).
        let prelude = [Inst::Lui {
            rd: Reg::T1,
            imm: 0x20000,
        }];
        let access = |load: bool, offset: i32| {
            if load {
                Inst::Load {
                    width: MemWidth::Word,
                    rd: Reg::A1,
                    base: Reg::T1,
                    offset,
                }
            } else {
                Inst::Store {
                    width: MemWidth::Word,
                    src: Reg::T2,
                    base: Reg::T1,
                    offset,
                }
            }
        };
        let body = [
            access(false, 8),
            access(true, 8),
            access(false, 1022),
            access(true, 1022),
        ];
        check_limits(
            &counted_loop(&prelude, &body),
            &limits(),
            &BUDGETS,
            "resident loop",
        );
    }

    #[test]
    fn a_fall_through_into_a_leader_chains_through_its_synthetic_exit() {
        // The prelude's `jal` makes the body's second op a leader, so the
        // loop body is two blocks: the first falls through into the second
        // through a synthetic `jal x0` exit that retires nothing.
        let head = 3;
        let prelude = [Inst::Jal {
            rd: Reg::ZERO,
            target: head + 1,
        }];
        let body = [addi(Reg::A0, Reg::A0, 3), addi(Reg::A1, Reg::A0, -1)];
        let p = counted_loop(&prelude, &body);
        let d = DecodedProgram::decode(&p);
        let start = |pc| d.block_at(pc).expect("in the code").start as usize;
        assert_eq!((start(head), start(head + 1)), (head, head + 1));
        check_limits(&p, &limits(), &BUDGETS, "split loop");
    }

    #[test]
    fn chains_into_ecall_blocks_match_reference() {
        // Every iteration a fast block jumps into a block that commits: the
        // chain stops there and the stepped tier takes over. In `jumped` the
        // loop head's `jal` leads there. In `fallen` the prelude's `jal` to
        // pc 6 makes the body's fourth op a leader, so the commit's block
        // (pcs 3–5, ecall last) falls through into it: its run ends in a
        // synthetic exit that the stepped tier must neither run nor charge.
        let jal = |target| Inst::Jal {
            rd: Reg::ZERO,
            target,
        };
        let bump = addi(Reg::A0, Reg::A0, 3);
        let commit = addi(Reg::T0, Reg::ZERO, ecall::COMMIT as i32);
        let halt = addi(Reg::T0, Reg::ZERO, ecall::HALT as i32);
        let jumped = counted_loop(&[], &[bump, commit, jal(5), Inst::Ecall, halt]);
        let fallen = counted_loop(&[jal(6)], &[bump, commit, Inst::Ecall, halt]);
        let d = DecodedProgram::decode(&fallen);
        let block = d.block_at(5).expect("in the code");
        assert_eq!((block.start, block.len), (3, 3));
        let exit = d.ops[(block.run + block.len) as usize];
        assert_eq!(
            (exit.code, exit.rd, exit.imm),
            (OpCode::Jal, crate::op::REG_SINK, 6),
            "a synthetic exit"
        );
        for (p, what) in [
            (jumped, "jump into an ecall block"),
            (fallen, "ecall fall-through"),
        ] {
            check_limits(&p, &limits(), &BUDGETS, what);
        }
    }

    #[test]
    fn a_jalr_into_the_middle_of_a_block_matches_reference() {
        // Every iteration the fast head block `jalr`s to the fourth op of
        // the next block, which no decode-time leader marks: a mid-block
        // entry, stepped to the block's end.
        let head = 3;
        let prelude = [addi(Reg::T1, Reg::ZERO, (head as i32 + 4) * 4)];
        let body = [
            addi(Reg::A0, Reg::A0, 3),
            Inst::Jalr {
                rd: Reg::ZERO,
                rs1: Reg::T1,
                offset: 0,
            },
            addi(Reg::A0, Reg::A0, 100),
            addi(Reg::A1, Reg::A0, 1),
            addi(Reg::A0, Reg::A0, -1),
        ];
        let p = counted_loop(&prelude, &body);
        let d = DecodedProgram::decode(&p);
        assert_ne!(
            d.block_at(head + 4).expect("in the code").start as usize,
            head + 4
        );
        check_limits(&p, &limits(), &BUDGETS, "jalr mid-block");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 12,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The same over the `proptest_passes` generator's programs, as
        /// lowered and at `-O2`.
        #[test]
        fn generated_programs_match_reference_at_every_segment_limit(
            es in proptest::collection::vec(program_gen::arb_expr(), 1..5),
            trip in 1u8..20,
        ) {
            for src in [program_gen::program(&es, trip), program_gen::program_with_calls(&es, trip)] {
                for level in [None, Some(OptLevel::O2)] {
                    let p = build(&src, level);
                    check_limits(&p, &[0, 7, 64, 1000], &[997, 2_000_000_000], "generated");
                }
            }
        }

        /// [`check_derivations`] over the same programs.
        #[test]
        fn derived_runs_equal_real_runs_on_generated_programs(
            es in proptest::collection::vec(program_gen::arb_expr(), 1..5),
            trip in 1u8..20,
        ) {
            for src in [program_gen::program(&es, trip), program_gen::program_with_calls(&es, trip)] {
                for level in [None, Some(OptLevel::O2)] {
                    let (derived, _) = check_derivations(&build(&src, level), &[3, -5], "generated");
                    proptest::prop_assert!(derived > 0);
                }
            }
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
        // A long loop over one page: every segment flush empties the
        // resident set, so the next access to the page misses and pays again.
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
    fn hot_loops_match_reference_and_hit_the_residency_table() {
        let src = "static A: [i32; 256];
             fn main() -> i32 {
               let mut s: i32 = 0;
               for (let mut i: i32 = 0; i < 256; i += 1) { A[i] = i; }
               for (let mut j: i32 = 0; j < 2000; j += 1) { s += A[j % 256]; }
               commit(s);
               return s;
             }";
        assert_identical(src, &[], Some(OptLevel::O2));
        let d = DecodedProgram::decode(&build(src, Some(OptLevel::O2)));
        let r = run_decoded(&d, VmKind::RiscZero, &[]).expect("runs");
        assert!(
            r.stats.probe_hits > 20 * r.stats.probe_misses,
            "a loop over one array pays for its page once \
             (hits {}, misses {})",
            r.stats.probe_hits,
            r.stats.probe_misses
        );
        assert_eq!(
            r.stats.probe_hits + r.stats.probe_misses,
            r.mix.load + r.mix.store
        );
        assert_eq!(
            (r.stats.traces_formed, r.stats.trace_exits),
            (0, 0),
            "retired"
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
        assert!(results[0].is_ok());
        assert!(results[1].is_ok());
        assert_eq!(results[2], Err(ExecError::CycleLimit));

        // A global image that does not fit guest memory (here: inside the
        // null guard) fails every job before its first instruction.
        d.globals.push((0x10, vec![1]));
        for r in Engine::run_lockstep(&d, &jobs) {
            assert_eq!(r, Err(ExecError::MemFault { addr: 0x10, pc: 0 }));
        }
    }

    type Segmented = Result<(ExecutionReport, Vec<SegmentRecord>), ExecError>;

    /// A segmented run without its wall-clock time.
    fn unwall((mut report, records): (ExecutionReport, Vec<SegmentRecord>)) -> Segmented {
        report.wall_time_ms = 0.0;
        Ok((report, records))
    }

    /// Whether [`derive_segmented`] must derive `target`'s run from
    /// `source`'s: one segment, no precompile charge under nonzero prices,
    /// and the run's cycles under `target`'s paging prices below its
    /// segment limit.
    fn admitted(
        source: &VmProfile,
        (report, records): (&ExecutionReport, &[SegmentRecord]),
        target: &VmProfile,
    ) -> bool {
        let free = [
            source.sha256_block_cycles,
            source.keccak_block_cycles,
            source.sig_verify_cycles,
        ];
        let cycles = report.instret + target.paging_cycles(report.page_ins, report.page_outs);
        records.len() == 1
            && report.user_cycles == report.instret
            && !free.contains(&0)
            && cycles < target.segment_cycles
    }

    /// Every derivation [`derive_segmented`] makes for `p` is the target's
    /// real `run_segmented` in every field but `wall_time_ms`, and it makes
    /// one exactly where [`admitted`] says it must. The profiles are each
    /// VM's own; variants whose segment limit falls a longest block before
    /// the run's end, one cycle before it, at it, one cycle after it and a
    /// longest block after it; and one with free precompiles. The budgets
    /// are the run's own user cycles, a longest block more, and the
    /// default. Every ordered pair of profiles is derived, same VM too.
    /// Returns how many derivations were made and how many declined.
    fn check_derivations(p: &Program, inputs: &[i32], what: &str) -> (usize, usize) {
        let d = DecodedProgram::decode(p);
        let k_max = d
            .blocks
            .iter()
            .map(|b| u64::from(b.len))
            .max()
            .expect("blocks");
        let config = |max_cycles| ExecConfig {
            inputs: inputs.to_vec(),
            max_cycles,
        };
        let run = |profile: &VmProfile, max_cycles| {
            Engine::new(&d, profile.clone(), config(max_cycles)).run_segmented()
        };
        let (base, _) = run(&VmProfile::risc_zero(), ExecConfig::default().max_cycles)
            .unwrap_or_else(|e| panic!("{what}: {e:?}"));
        let mut profiles = Vec::new();
        for kind in VmKind::BOTH {
            let own = VmProfile::for_kind(kind);
            let end = base.instret + own.paging_cycles(base.page_ins, base.page_outs);
            for limit in [
                end.saturating_sub(k_max),
                end - 1,
                end,
                end + 1,
                end + k_max,
            ] {
                profiles.push(VmProfile {
                    segment_cycles: limit,
                    ..own.clone()
                });
            }
            profiles.push(VmProfile {
                sha256_block_cycles: 0,
                keccak_block_cycles: 0,
                sig_verify_cycles: 0,
                ..own.clone()
            });
            profiles.push(own);
        }
        let (mut derived, mut declined) = (0, 0);
        let budgets = [
            base.user_cycles,
            base.user_cycles + k_max,
            ExecConfig::default().max_cycles,
        ];
        for max_cycles in budgets {
            let runs: Vec<Segmented> = profiles.iter().map(|s| run(s, max_cycles)).collect();
            for (source, run) in profiles.iter().zip(&runs) {
                let Ok((report, records)) = run else { continue };
                for (target, real) in profiles.iter().zip(&runs) {
                    let ctx = format!(
                        "{what}, budget {max_cycles}: {} at {} -> {} at {}",
                        source.kind, source.segment_cycles, target.kind, target.segment_cycles
                    );
                    let got = derive_segmented(source, (report, records), target);
                    let made = got.is_some();
                    if let Some(got) = got {
                        assert_eq!(unwall(got), real.clone().and_then(unwall), "{ctx}");
                    }
                    let must = admitted(source, (report, records), target);
                    assert_eq!(made, must, "{ctx}: derived exactly where admitted");
                    if made {
                        derived += 1;
                    } else {
                        declined += 1;
                    }
                }
            }
        }
        (derived, declined)
    }

    /// [`check_derivations`] over the suite's programs (those in `names`,
    /// or all), as lowered and at `-O2`: derivations made and declined.
    fn check_suite_derivations(names: &[&str]) -> (usize, usize) {
        let mut counts = (0, 0);
        for w in zkvmopt_workloads::all() {
            if !names.is_empty() && !names.contains(&w.name) {
                continue;
            }
            for level in [None, Some(OptLevel::O2)] {
                let what = format!("{} at {level:?}", w.name);
                let (derived, declined) =
                    check_derivations(&build(&w.source, level), &w.inputs, &what);
                counts = (counts.0 + derived, counts.1 + declined);
            }
        }
        counts
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "suite-wide grid is release-only (CI: test-release)"
    )]
    fn derived_runs_equal_real_runs_across_the_suite() {
        let (derived, declined) = check_suite_derivations(&[]);
        assert!(
            derived > 0 && declined > 0,
            "{derived} derived, {declined} declined"
        );
    }

    /// The same on a precompile program (`keccak256`) and two that derive.
    #[test]
    fn derived_runs_equal_real_runs_on_three_programs() {
        let (derived, declined) = check_suite_derivations(&["loop-sum", "keccak256", "tailcall"]);
        assert!(
            derived > 0 && declined > 0,
            "{derived} derived, {declined} declined"
        );
    }
}
