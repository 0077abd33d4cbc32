//! The **reference** zkVM step interpreter plus the execution-report types
//! shared with the block-dispatch engine.
//!
//! [`Machine`] decodes on every step and accounts per instruction; it is the
//! original executor, kept as the differential oracle for
//! [`crate::engine::Engine`]. Production execution goes through the
//! engine.

use crate::ecalls::{self, MemIo};
use crate::mem::{MemFault, PagedMemory, STACK_TOP};
use crate::profile::{EngineStats, VmKind, VmProfile};
use std::fmt;
use zkvmopt_ir::ecall;
use zkvmopt_riscv::inst::{AluImmOp, AluOp, Inst, MemWidth};
use zkvmopt_riscv::{Program, Reg};

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Values served by `read_input`.
    pub inputs: Vec<i32>,
    /// Abort after this many user cycles.
    pub max_cycles: u64,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            inputs: Vec::new(),
            max_cycles: 2_000_000_000,
        }
    }
}

/// Why a run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Guest memory fault.
    MemFault { addr: u32, pc: usize },
    /// Jump outside the code.
    BadPc { pc: usize },
    /// Cycle budget exhausted.
    CycleLimit,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MemFault { addr, pc } => {
                write!(f, "memory fault at {addr:#x} (pc {pc})")
            }
            ExecError::BadPc { pc } => write!(f, "jump outside code (pc {pc})"),
            ExecError::CycleLimit => write!(f, "cycle limit exceeded"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Dynamic instruction-mix counters (feed the proving-cost model's chip
/// tables and the x86 comparison).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstMix {
    /// ALU / immediate ALU operations.
    pub alu: u64,
    /// Multiplies (RV32M).
    pub mul: u64,
    /// Divisions and remainders (RV32M).
    pub div: u64,
    /// Loads.
    pub load: u64,
    /// Stores.
    pub store: u64,
    /// Conditional branches.
    pub branch: u64,
    /// Jumps (`jal`/`jalr`).
    pub jump: u64,
    /// Environment calls.
    pub ecall: u64,
}

impl InstMix {
    /// Count one dynamic instruction of the given class (the canonical
    /// bucketing lives in [`zkvmopt_riscv::inst::MixClass`]).
    #[inline]
    pub fn bump(&mut self, class: zkvmopt_riscv::inst::MixClass) {
        use zkvmopt_riscv::inst::MixClass;
        match class {
            MixClass::Alu => self.alu += 1,
            MixClass::Mul => self.mul += 1,
            MixClass::Div => self.div += 1,
            MixClass::Load => self.load += 1,
            MixClass::Store => self.store += 1,
            MixClass::Branch => self.branch += 1,
            MixClass::Jump => self.jump += 1,
            MixClass::Ecall => self.ecall += 1,
        }
    }

    /// Accumulate `times` copies of another mix (the engine adds a block's
    /// static mix once per run, scaled by how often the block ran whole).
    pub fn add_scaled(&mut self, other: &InstMix, times: u64) {
        self.alu += other.alu * times;
        self.mul += other.mul * times;
        self.div += other.div * times;
        self.load += other.load * times;
        self.store += other.store * times;
        self.branch += other.branch * times;
        self.jump += other.jump * times;
        self.ecall += other.ecall * times;
    }

    /// Per-class difference vs an `earlier` snapshot of the same cumulative
    /// counters (`self - earlier`) — the per-segment mix deltas behind
    /// [`crate::SegmentRecord`]. Every field of `earlier` must be `<=` the
    /// corresponding field of `self`.
    #[must_use]
    pub fn delta_since(&self, earlier: &InstMix) -> InstMix {
        InstMix {
            alu: self.alu - earlier.alu,
            mul: self.mul - earlier.mul,
            div: self.div - earlier.div,
            load: self.load - earlier.load,
            store: self.store - earlier.store,
            branch: self.branch - earlier.branch,
            jump: self.jump - earlier.jump,
            ecall: self.ecall - earlier.ecall,
        }
    }
}

/// Everything the study measures from one guest execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Which VM profile ran this.
    pub kind: VmKind,
    /// Dynamic instruction count (the paper's key cost driver, §5.1).
    pub instret: u64,
    /// Cycles from instruction execution (incl. precompile charges).
    pub user_cycles: u64,
    /// Cycles from page-ins/page-outs.
    pub paging_cycles: u64,
    /// `user_cycles + paging_cycles` — the "cycle count" metric.
    pub total_cycles: u64,
    /// Page-in count.
    pub page_ins: u64,
    /// Page-out count.
    pub page_outs: u64,
    /// Continuation segments (RISC Zero) / proof shards (SP1).
    pub segments: u64,
    /// Exit code (`main`'s return value, or the `halt` argument).
    pub exit_code: i32,
    /// Whether the guest called `halt` explicitly.
    pub halted: bool,
    /// Values committed to the journal.
    pub journal: Vec<i32>,
    /// Instruction mix.
    pub mix: InstMix,
    /// Advisory engine profiling counters (all zero from the reference
    /// interpreter; excluded from the bit-identity contract — see
    /// [`EngineStats`]).
    pub stats: EngineStats,
    /// Modelled zkVM execution (replay) time in milliseconds.
    pub exec_time_ms: f64,
    /// Measured wall-clock time of this simulation (informational).
    pub wall_time_ms: f64,
}

/// The reference step interpreter (decode-per-step, per-instruction
/// accounting). Kept as the differential oracle for the block-dispatch
/// engine.
pub struct Machine<'p> {
    program: &'p Program,
    profile: VmProfile,
    config: ExecConfig,
    regs: [u32; 32],
    pc: usize,
    mem: PagedMemory,
    journal: Vec<i32>,
    /// First global-image byte that failed to load, reported as a
    /// `MemFault` from [`Machine::run`].
    init_fault: Option<u32>,
}

struct PagedIo<'a>(&'a mut PagedMemory);

impl MemIo for PagedIo<'_> {
    fn read_bytes(&mut self, addr: u32, len: u32) -> Vec<u8> {
        self.0
            .read_bytes_host(addr, len)
            .unwrap_or_else(|_| vec![0; len as usize])
    }

    fn write_bytes(&mut self, addr: u32, data: &[u8]) {
        let _ = self.0.write_bytes_host(addr, data);
    }
}

impl<'p> Machine<'p> {
    /// Set up a machine with globals loaded and `sp` initialized. A global
    /// image that does not fit guest memory is reported as a `MemFault`
    /// from [`Machine::run`], as the engine does.
    pub fn new(program: &'p Program, profile: VmProfile, config: ExecConfig) -> Machine<'p> {
        let mut mem = PagedMemory::new();
        let mut init_fault = None;
        for (addr, data) in &program.globals {
            if mem.write_bytes_host(*addr, data).is_err() && init_fault.is_none() {
                init_fault = Some(*addr);
            }
        }
        let mut regs = [0u32; 32];
        regs[Reg::SP.0 as usize] = STACK_TOP;
        Machine {
            program,
            profile,
            config,
            regs,
            pc: program.entry,
            mem,
            journal: Vec::new(),
            init_fault,
        }
    }

    fn reg(&self, r: Reg) -> u32 {
        self.regs[r.0 as usize]
    }

    fn set_reg(&mut self, r: Reg, v: u32) {
        if r != Reg::ZERO {
            self.regs[r.0 as usize] = v;
        }
    }

    /// Run to halt, producing the metric report.
    ///
    /// # Errors
    /// Returns [`ExecError`] on faults or budget exhaustion.
    pub fn run(mut self) -> Result<ExecutionReport, ExecError> {
        if let Some(addr) = self.init_fault {
            return Err(ExecError::MemFault { addr, pc: 0 });
        }
        let start = std::time::Instant::now();
        let mut instret: u64 = 0;
        let mut user_cycles: u64 = 0;
        let mut mix = InstMix::default();
        let mut segments: u64 = 1;
        let mut segment_cycles: u64 = 0;
        #[allow(unused_assignments)]
        let mut exit_code: i32 = 0;
        #[allow(unused_assignments)]
        let mut halted = false;

        'run: loop {
            let Some(inst) = self.program.code.get(self.pc) else {
                return Err(ExecError::BadPc { pc: self.pc });
            };
            let page_ins_before = self.mem.page_ins();
            let page_outs_before = self.mem.page_outs();
            let mut cost: u64 = 1;
            let mut next_pc = self.pc + 1;
            match *inst {
                Inst::Lui { rd, imm } => {
                    mix.alu += 1;
                    self.set_reg(rd, imm as u32);
                }
                Inst::Alu { op, rd, rs1, rs2 } => {
                    let a = self.reg(rs1);
                    let b = self.reg(rs2);
                    match op {
                        AluOp::Mul | AluOp::Mulh | AluOp::Mulhsu | AluOp::Mulhu => mix.mul += 1,
                        AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu => mix.div += 1,
                        _ => mix.alu += 1,
                    }
                    self.set_reg(rd, alu(op, a, b));
                }
                Inst::AluImm { op, rd, rs1, imm } => {
                    mix.alu += 1;
                    let a = self.reg(rs1);
                    self.set_reg(rd, alu_imm(op, a, imm));
                }
                Inst::Load {
                    width,
                    rd,
                    base,
                    offset,
                } => {
                    mix.load += 1;
                    let addr = self.reg(base).wrapping_add(offset as u32);
                    let raw = self
                        .mem
                        .read(addr, width.bytes())
                        .map_err(|MemFault { addr }| ExecError::MemFault { addr, pc: self.pc })?;
                    let v = match width {
                        MemWidth::Byte => (raw as u8 as i8) as i32 as u32,
                        MemWidth::ByteU => raw & 0xff,
                        MemWidth::Half => (raw as u16 as i16) as i32 as u32,
                        MemWidth::HalfU => raw & 0xffff,
                        MemWidth::Word => raw,
                    };
                    self.set_reg(rd, v);
                }
                Inst::Store {
                    width,
                    src,
                    base,
                    offset,
                } => {
                    mix.store += 1;
                    let addr = self.reg(base).wrapping_add(offset as u32);
                    self.mem
                        .write(addr, self.reg(src), width.bytes())
                        .map_err(|MemFault { addr }| ExecError::MemFault { addr, pc: self.pc })?;
                }
                Inst::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => {
                    mix.branch += 1;
                    if cond.eval(self.reg(rs1), self.reg(rs2)) {
                        next_pc = target;
                    }
                }
                Inst::Jal { rd, target } => {
                    mix.jump += 1;
                    self.set_reg(rd, (self.pc as u32 + 1) * 4);
                    next_pc = target;
                }
                Inst::Jalr { rd, rs1, offset } => {
                    mix.jump += 1;
                    let t = self.reg(rs1).wrapping_add(offset as u32) / 4;
                    self.set_reg(rd, (self.pc as u32 + 1) * 4);
                    next_pc = t as usize;
                }
                Inst::Ecall => {
                    mix.ecall += 1;
                    let code = self.reg(Reg::T0);
                    let args: [i64; 3] = [
                        self.reg(Reg::A0) as i64,
                        self.reg(Reg::A1) as i64,
                        self.reg(Reg::A2) as i64,
                    ];
                    match code {
                        ecall::HALT => {
                            exit_code = self.reg(Reg::A0) as i32;
                            halted = true;
                            instret += 1;
                            user_cycles += cost;
                            break 'run;
                        }
                        ecall::COMMIT => {
                            self.journal.push(self.reg(Reg::A0) as i32);
                            self.set_reg(Reg::A0, 0);
                        }
                        ecall::READ_INPUT => {
                            let idx = self.reg(Reg::A0) as usize;
                            let v = self.config.inputs.get(idx).copied().unwrap_or(0);
                            self.set_reg(Reg::A0, v as u32);
                        }
                        other => {
                            cost += ecalls::precompile_cycles(&self.profile, other, &args);
                            // Charge before working: a precompile the
                            // budget cannot pay for must not run (its input
                            // length is guest-controlled).
                            if user_cycles + cost > self.config.max_cycles {
                                return Err(ExecError::CycleLimit);
                            }
                            let r =
                                ecalls::run_precompile(other, &args, &mut PagedIo(&mut self.mem));
                            self.set_reg(Reg::A0, r as u32);
                        }
                    }
                }
            }
            instret += 1;
            user_cycles += cost;
            // Paging cycles from this instruction.
            let dins = self.mem.page_ins() - page_ins_before;
            let douts = self.mem.page_outs() - page_outs_before;
            let pcycles = self.profile.paging_cycles(dins, douts);
            segment_cycles += cost + pcycles;
            if segment_cycles >= self.profile.segment_cycles {
                segments += 1;
                segment_cycles = 0;
                self.mem.flush_segment();
            }
            if user_cycles > self.config.max_cycles {
                return Err(ExecError::CycleLimit);
            }
            self.pc = next_pc;
        }

        let (paging_cycles, total_cycles, exec_time_ms) =
            self.profile
                .price_run(user_cycles, self.mem.page_ins(), self.mem.page_outs());
        // The exit code without an explicit halt is main's return in a0 —
        // the _start stub halts with it, so `halted` distinguishes guest
        // halts only when halt() was called before main returned. Either
        // way the code is in `exit_code` when halted; otherwise read a0.
        let exit = if halted {
            exit_code
        } else {
            self.reg(Reg::A0) as i32
        };
        Ok(ExecutionReport {
            kind: self.profile.kind,
            instret,
            user_cycles,
            paging_cycles,
            total_cycles,
            page_ins: self.mem.page_ins(),
            page_outs: self.mem.page_outs(),
            segments,
            exit_code: exit,
            halted,
            journal: self.journal,
            mix,
            stats: EngineStats::default(),
            exec_time_ms,
            wall_time_ms: start.elapsed().as_secs_f64() * 1e3,
        })
    }
}

/// Evaluate a register-register ALU op with RV32IM semantics (shared with
/// the x86 timing model, and the engine — which calls it with a constant
/// `op` per arm of its own dispatch, so the inner `match` folds away).
#[inline(always)]
pub fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    let (sa, sb) = (a as i32, b as i32);
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl(b & 31),
        AluOp::Slt => (sa < sb) as u32,
        AluOp::Sltu => (a < b) as u32,
        AluOp::Xor => a ^ b,
        AluOp::Srl => a.wrapping_shr(b & 31),
        AluOp::Sra => (sa.wrapping_shr(b & 31)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Mulh => ((sa as i64 * sb as i64) >> 32) as u32,
        AluOp::Mulhsu => ((sa as i64 * b as i64) >> 32) as u32,
        AluOp::Mulhu => ((a as u64 * b as u64) >> 32) as u32,
        AluOp::Div => {
            if b == 0 {
                u32::MAX
            } else if sa == i32::MIN && sb == -1 {
                a
            } else {
                sa.wrapping_div(sb) as u32
            }
        }
        AluOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        AluOp::Rem => {
            if b == 0 {
                a
            } else if sa == i32::MIN && sb == -1 {
                0
            } else {
                sa.wrapping_rem(sb) as u32
            }
        }
        AluOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
    }
}

/// Evaluate a register-immediate ALU op (shared like [`alu`]).
#[inline(always)]
pub fn alu_imm(op: AluImmOp, a: u32, imm: i32) -> u32 {
    let sa = a as i32;
    let b = imm as u32;
    match op {
        AluImmOp::Addi => a.wrapping_add(b),
        AluImmOp::Slti => ((sa) < imm) as u32,
        AluImmOp::Sltiu => (a < b) as u32,
        AluImmOp::Xori => a ^ b,
        AluImmOp::Ori => a | b,
        AluImmOp::Andi => a & b,
        AluImmOp::Slli => a.wrapping_shl(b & 31),
        AluImmOp::Srli => a.wrapping_shr(b & 31),
        AluImmOp::Srai => (sa.wrapping_shr(b & 31)) as u32,
    }
}

/// Run `program` through the **reference** step interpreter — the oracle the
/// differential harness compares the engine against.
///
/// # Errors
/// Propagates [`ExecError`].
pub fn run_program_reference(
    program: &Program,
    kind: VmKind,
    inputs: &[i32],
) -> Result<ExecutionReport, ExecError> {
    let profile = VmProfile::for_kind(kind);
    let config = ExecConfig {
        inputs: inputs.to_vec(),
        ..ExecConfig::default()
    };
    Machine::new(program, profile, config).run()
}
