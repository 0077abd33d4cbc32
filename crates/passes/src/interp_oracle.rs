//! The tree-walking body of `zkvmopt-ir`'s reference interpreter, kept as a
//! test oracle for the pre-decoded one.
//!
//! It lives here rather than beside the interpreter because only this
//! crate's tests can produce the states worth checking — every module after
//! every pass of a random sequence — and `#[cfg(test)]` items of
//! `zkvmopt-ir` are invisible to them. It reads only public API, so it is the
//! old body verbatim save for the imports and for handing its flat memory to
//! the precompile handler through `MemIo`.

use zkvmopt_ir::ecall;
use zkvmopt_ir::func::{BlockId, FuncId, Function, Module, ValueDef, ValueId};
use zkvmopt_ir::inst::{CastKind, Op, Operand, Term};
use zkvmopt_ir::interp::{
    EcallHandler, InterpConfig, InterpError, InterpOutcome, MemIo, MEM_SIZE, STACK_TOP,
};
use zkvmopt_ir::ty::Ty;

enum Flow {
    Return(Option<i64>),
    Halt(i32),
}

/// The interpreter. One instance per run.
pub(crate) struct Interp<'m, H: EcallHandler> {
    module: &'m Module,
    mem: Vec<u8>,
    global_addrs: Vec<u32>,
    sp: u32,
    steps: u64,
    journal: Vec<i32>,
    config: InterpConfig,
    handler: H,
}

impl<'m, H: EcallHandler> Interp<'m, H> {
    /// Create an interpreter over `module` with handler `handler`.
    pub(crate) fn new(module: &'m Module, config: InterpConfig, handler: H) -> Interp<'m, H> {
        let global_addrs = module.layout_globals();
        let mut mem = vec![0u8; MEM_SIZE as usize];
        for (g, &addr) in module.globals.iter().zip(&global_addrs) {
            let end = addr as usize + g.init.len();
            mem[addr as usize..end].copy_from_slice(&g.init);
        }
        Interp {
            module,
            mem,
            global_addrs,
            sp: STACK_TOP,
            steps: 0,
            journal: Vec::new(),
            config,
            handler,
        }
    }

    /// Run the module's `main` function to completion.
    pub(crate) fn run_main(mut self) -> Result<InterpOutcome, InterpError> {
        let main = self.module.main_func().ok_or(InterpError::NoMain)?;
        let flow = self.run_function(main, &[], 0)?;
        let (exit_value, halted) = match flow {
            Flow::Halt(code) => (code as i64, true),
            Flow::Return(v) => (v.unwrap_or(0), false),
        };
        Ok(InterpOutcome {
            exit_value,
            journal: self.journal,
            steps: self.steps,
            halted,
        })
    }

    fn run_function(
        &mut self,
        fid: FuncId,
        args: &[i64],
        depth: usize,
    ) -> Result<Flow, InterpError> {
        if depth > self.config.max_depth {
            return Err(InterpError::DepthLimit);
        }
        let f: &Function = &self.module.funcs[fid.index()];
        let saved_sp = self.sp;
        let mut vals: Vec<i64> = vec![0; f.values.len()];
        for (i, a) in args.iter().enumerate() {
            vals[i] = *a;
        }
        let mut block = f.entry;
        let mut prev: Option<BlockId> = None;
        'blocks: loop {
            // Phi nodes: parallel evaluation against the predecessor edge.
            let insts = &f.blocks[block.index()].insts;
            let mut phi_updates: Vec<(ValueId, i64)> = Vec::new();
            let mut first_non_phi = 0;
            for (i, &v) in insts.iter().enumerate() {
                if let Some(Op::Phi { incoming }) = f.op(v) {
                    let p = prev.ok_or_else(|| {
                        InterpError::Malformed(format!("phi in entry block of @{}", f.name))
                    })?;
                    let (_, o) = incoming.iter().find(|(b, _)| *b == p).ok_or_else(|| {
                        InterpError::Malformed(format!("phi %{} missing edge from bb{}", v.0, p.0))
                    })?;
                    phi_updates.push((v, self.eval(&vals, o)));
                    first_non_phi = i + 1;
                } else {
                    break;
                }
            }
            for (v, x) in phi_updates {
                vals[v.index()] = x;
                self.bump()?;
            }
            for &v in &f.blocks[block.index()].insts[first_non_phi..] {
                self.bump()?;
                let op = match &f.values[v.index()].def {
                    ValueDef::Inst(op) => op,
                    ValueDef::Param { .. } => {
                        return Err(InterpError::Malformed("param in block".into()))
                    }
                };
                match op {
                    Op::Bin { op, a, b } => {
                        let r = op.eval32(self.eval(&vals, a), self.eval(&vals, b));
                        vals[v.index()] = r;
                    }
                    Op::Icmp { pred, a, b } => {
                        vals[v.index()] =
                            pred.eval32(self.eval(&vals, a), self.eval(&vals, b)) as i64;
                    }
                    Op::Select { c, t, f: fo } => {
                        let cv = self.eval(&vals, c);
                        vals[v.index()] = if cv != 0 {
                            self.eval(&vals, t)
                        } else {
                            self.eval(&vals, fo)
                        };
                    }
                    Op::Load { ptr, ty } => {
                        let addr = self.eval(&vals, ptr) as u32;
                        vals[v.index()] = self.load(addr, *ty)?;
                    }
                    Op::Store { ptr, val, ty } => {
                        let addr = self.eval(&vals, ptr) as u32;
                        let x = self.eval(&vals, val);
                        self.store(addr, x, *ty)?;
                    }
                    Op::Alloca { elem, count } => {
                        let bytes = (elem.size_bytes() * count + 3) & !3;
                        self.sp = self
                            .sp
                            .checked_sub(bytes)
                            .ok_or(InterpError::MemFault { addr: 0 })?;
                        if self.sp < zkvmopt_ir::func::GLOBAL_BASE {
                            return Err(InterpError::MemFault { addr: self.sp });
                        }
                        vals[v.index()] = self.sp as i64;
                    }
                    Op::Gep {
                        base,
                        index,
                        stride,
                        offset,
                    } => {
                        let b = self.eval(&vals, base) as u32;
                        let i = self.eval(&vals, index) as u32;
                        let addr = b
                            .wrapping_add(i.wrapping_mul(*stride))
                            .wrapping_add(*offset as u32);
                        vals[v.index()] = addr as i64;
                    }
                    Op::GlobalAddr(g) => {
                        vals[v.index()] = self.global_addrs[g.index()] as i64;
                    }
                    Op::Call { callee, args } => {
                        let a: Vec<i64> = args.iter().map(|o| self.eval(&vals, o)).collect();
                        match self.run_function(*callee, &a, depth + 1)? {
                            Flow::Return(r) => vals[v.index()] = r.unwrap_or(0),
                            Flow::Halt(c) => {
                                self.sp = saved_sp;
                                return Ok(Flow::Halt(c));
                            }
                        }
                    }
                    Op::Ecall { code, args } => {
                        let a: Vec<i64> = args.iter().map(|o| self.eval(&vals, o)).collect();
                        match *code {
                            ecall::HALT => {
                                let code = a.first().copied().unwrap_or(0) as i32;
                                self.sp = saved_sp;
                                return Ok(Flow::Halt(code));
                            }
                            ecall::COMMIT => {
                                self.journal.push(a.first().copied().unwrap_or(0) as i32);
                                vals[v.index()] = 0;
                            }
                            ecall::READ_INPUT => {
                                let idx = a.first().copied().unwrap_or(0) as usize;
                                vals[v.index()] =
                                    self.config.inputs.get(idx).copied().unwrap_or(0) as i64;
                            }
                            other => {
                                vals[v.index()] =
                                    self.handler.handle(other, &a, &mut Flat(&mut self.mem));
                            }
                        }
                    }
                    Op::Phi { .. } => {
                        return Err(InterpError::Malformed("phi after non-phi".into()))
                    }
                    Op::Cast { kind, v: src, to } => {
                        let sv = self.eval(&vals, src);
                        let sty = f
                            .operand_ty(src)
                            .ok_or_else(|| InterpError::Malformed("cast of void".into()))?;
                        vals[v.index()] = match kind {
                            CastKind::Zext => canonical(*to, sty.truncate_u(sv)),
                            CastKind::Sext => canonical(*to, sty.truncate_s(sv)),
                            CastKind::Trunc => canonical(*to, sv),
                        };
                    }
                    Op::Copy(src) => {
                        vals[v.index()] = self.eval(&vals, src);
                    }
                    Op::Nop => {}
                }
            }
            match &f.blocks[block.index()].term {
                Term::Br(b) => {
                    prev = Some(block);
                    block = *b;
                }
                Term::CondBr { c, t, f: fb } => {
                    let cv = self.eval(&vals, c);
                    prev = Some(block);
                    block = if cv != 0 { *t } else { *fb };
                }
                Term::Ret(v) => {
                    let r = v.as_ref().map(|o| self.eval(&vals, o));
                    self.sp = saved_sp;
                    return Ok(Flow::Return(r));
                }
                Term::Unreachable => return Err(InterpError::Unreachable),
            }
            self.bump()?;
            continue 'blocks;
        }
    }

    fn bump(&mut self) -> Result<(), InterpError> {
        self.steps += 1;
        if self.steps > self.config.max_steps {
            return Err(InterpError::StepLimit);
        }
        Ok(())
    }

    fn eval(&self, vals: &[i64], o: &Operand) -> i64 {
        match o {
            Operand::Value(v) => vals[v.index()],
            Operand::Const { value, ty } => canonical(*ty, *value),
        }
    }

    fn load(&self, addr: u32, ty: Ty) -> Result<i64, InterpError> {
        let size = ty.size_bytes();
        if addr < 0x100 || addr.checked_add(size).is_none_or(|e| e > MEM_SIZE) {
            return Err(InterpError::MemFault { addr });
        }
        let a = addr as usize;
        Ok(match ty {
            Ty::I1 => (self.mem[a] & 1) as i64,
            Ty::I8 => self.mem[a] as i64,
            Ty::I32 | Ty::Ptr => {
                let raw = u32::from_le_bytes([
                    self.mem[a],
                    self.mem[a + 1],
                    self.mem[a + 2],
                    self.mem[a + 3],
                ]);
                canonical(ty, raw as i64)
            }
        })
    }

    fn store(&mut self, addr: u32, val: i64, ty: Ty) -> Result<(), InterpError> {
        let size = ty.size_bytes();
        if addr < 0x100 || addr.checked_add(size).is_none_or(|e| e > MEM_SIZE) {
            return Err(InterpError::MemFault { addr });
        }
        let a = addr as usize;
        match ty {
            Ty::I1 => self.mem[a] = (val & 1) as u8,
            Ty::I8 => self.mem[a] = val as u8,
            Ty::I32 | Ty::Ptr => {
                self.mem[a..a + 4].copy_from_slice(&(val as u32).to_le_bytes());
            }
        }
        Ok(())
    }
}

/// The old flat memory as the handler sees it: the body of
/// `zkvmopt_vm::ecalls::FlatMem`, which this crate cannot depend on.
struct Flat<'a>(&'a mut [u8]);

impl MemIo for Flat<'_> {
    fn read_bytes(&mut self, addr: u32, len: u32) -> Vec<u8> {
        let a = addr as usize;
        let e = a.saturating_add(len as usize);
        if e <= self.0.len() {
            self.0[a..e].to_vec()
        } else {
            vec![0; len as usize]
        }
    }

    fn write_bytes(&mut self, addr: u32, data: &[u8]) {
        let a = addr as usize;
        let e = a.saturating_add(data.len());
        if e <= self.0.len() {
            self.0[a..e].copy_from_slice(data);
        }
    }
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

/// A deterministic stand-in for the crypto precompiles that still moves
/// guest memory both ways: FNV-1a over the code and at most 4 KiB at
/// `a0..a0 + a1`, written as 32 bytes at `a2` by the two hash codes; the
/// hash's low bit is the result. Out-of-range traffic reads zeros and
/// writes nothing, as `MemIo` promises.
struct MixEcalls;

impl EcallHandler for MixEcalls {
    fn handle(&mut self, code: u32, args: &[i64], mem: &mut dyn MemIo) -> i64 {
        let a = |i: usize| args.get(i).copied().unwrap_or(0) as u32;
        let data = mem.read_bytes(a(0), a(1).min(4096));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in code.to_le_bytes().iter().chain(&data) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
        if code == ecall::SHA256 || code == ecall::KECCAK256 {
            let out: Vec<u8> = (0..4u64).flat_map(|i| (h ^ i).to_le_bytes()).collect();
            mem.write_bytes(a(2), &out);
        }
        (h & 1) as i64
    }
}

/// Both interpreters on `m` under `config` with [`MixEcalls`]: the same
/// outcome, or the same error (`Malformed` by variant only). Returns it.
fn check(name: &str, m: &Module, config: &InterpConfig) -> Result<InterpOutcome, InterpError> {
    let want = Interp::new(m, config.clone(), MixEcalls).run_main();
    let got = zkvmopt_ir::Interp::new(m, config.clone(), MixEcalls).run_main();
    if !matches!(
        (&got, &want),
        (
            Err(InterpError::Malformed(_)),
            Err(InterpError::Malformed(_))
        )
    ) {
        assert_eq!(got, want, "{name}: interpreter differs from its oracle");
    }
    got
}

/// [`check`] at every step budget from 0 to one past the run's own count
/// (or to 64 for a run that fails).
fn check_every_budget(name: &str, m: &Module, inputs: &[i32]) {
    let config = InterpConfig {
        inputs: inputs.to_vec(),
        ..InterpConfig::default()
    };
    let steps = check(name, m, &config).map_or(64, |o| o.steps);
    for max_steps in 0..=steps + 1 {
        let config = InterpConfig {
            max_steps,
            ..config.clone()
        };
        let _ = check(&format!("{name} at max_steps {max_steps}"), m, &config);
    }
}

mod tests {
    use super::*;
    use crate::{testutil, PassConfig, PassManager};
    use zkvmopt_ir::{BinOp, FunctionBuilder, Pred};

    /// [`check`] on `m` as lowered, after `-O1`, `-O3` and zk-`-O3`, and at
    /// every state along the random sequences `seeds`. Every run but the
    /// lowered one gets eight times its steps, so a miscompiled loop ends
    /// in an equal `StepLimit`.
    fn check_along(name: &str, m: &Module, inputs: &[i32], seeds: std::ops::Range<u64>) {
        let config = InterpConfig {
            inputs: inputs.to_vec(),
            ..InterpConfig::default()
        };
        let steps = check(&format!("{name}@lowered"), m, &config).map_or(1_000_000, |o| o.steps);
        let config = InterpConfig {
            max_steps: 8 * steps + 10_000,
            ..config
        };
        for (level, pm, cfg) in [
            ("O1", PassManager::o1(), PassConfig::default()),
            ("O3", PassManager::o3(), PassConfig::default()),
            ("zkO3", PassManager::o3(), PassConfig::zk_aware()),
        ] {
            let mut opt = m.clone();
            pm.run(&mut opt, &cfg);
            let _ = check(&format!("{name}@{level}"), &opt, &config);
        }
        for seed in seeds {
            testutil::along_random_sequence(m, seed, |i, pass, state| {
                let _ = check(&format!("{name}@seed {seed} [{i}] {pass}"), state, &config);
            });
        }
    }

    /// The 58 suite programs as lowered, at `-O1` / `-O3` / zk-`-O3`, and
    /// after every pass of four seeded random sequences of depth 20 each.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "full-suite sweep is release-only (CI: test-release)"
    )]
    fn interp_matches_its_oracle_on_the_suite() {
        for (i, w) in zkvmopt_workloads::all().iter().enumerate() {
            let m = zkvmopt_lang::compile_guest(&w.source).expect("suite program compiles");
            let i = i as u64;
            check_along(w.name, &m, &w.inputs, 4 * i..4 * i + 4);
        }
    }

    /// The same gate on three suite programs and one sequence each, small
    /// enough for debug builds.
    #[test]
    fn interp_matches_its_oracle_on_three_programs() {
        for (seed, name) in ["loop-sum", "tailcall", "keccak256"].iter().enumerate() {
            let w = zkvmopt_workloads::by_name(name).expect("suite program");
            let m = zkvmopt_lang::compile_guest(&w.source).expect("suite program compiles");
            let seed = seed as u64;
            check_along(w.name, &m, &w.inputs, seed..seed + 1);
        }
    }

    /// Three small programs — loops and phis, calls and recursion, a hash
    /// precompile and a halt — as lowered and at `-O3`, at every step budget.
    #[test]
    fn interp_matches_its_oracle_at_every_step_budget() {
        let sources = [
            "static A: [i32; 8];
             fn main() -> i32 {
               let mut s: i32 = read_input(0);
               for (let mut i: i32 = 0; i < 12; i += 1) {
                 A[i % 8] = s;
                 if (s % 3 == 0) { s = s / 3 + A[(i + 5) % 8]; } else { s = s * 2 - i; }
               }
               commit(s);
               return s % 1000;
             }",
            "fn gcd(a: i32, b: i32) -> i32 {
               if (b == 0) { return a; }
               return gcd(b, a % b);
             }
             fn main() -> i32 {
               let x: i32 = read_input(0);
               let g: i32 = gcd(1071 + x, 462);
               commit(g);
               if (g > 20) { halt(g); }
               return g;
             }",
            "static BUF: [i8; 40];
             static OUT: [i8; 32];
             fn main() -> i32 {
               for (let mut i: i32 = 0; i < 40; i += 1) { BUF[i] = (i * 7 + read_input(0)) as i8; }
               sha256(BUF, 40, OUT);
               keccak256(OUT, 32, BUF);
               commit(OUT[3] + BUF[5]);
               return OUT[0] + 0;
             }",
        ];
        for (k, src) in sources.iter().enumerate() {
            let m = zkvmopt_lang::compile_guest(src).expect("compiles");
            let mut o3 = m.clone();
            PassManager::o3().run(&mut o3, &PassConfig::default());
            for inputs in [[3], [-4]] {
                check_every_budget(&format!("small {k}@lowered"), &m, &inputs);
                check_every_budget(&format!("small {k}@O3"), &o3, &inputs);
            }
        }
    }

    /// Recursion 12 deep at every `max_depth` around it: the same
    /// `DepthLimit`, at the same depth.
    #[test]
    fn interp_matches_its_oracle_past_max_depth() {
        let src = "fn down(n: i32) -> i32 {
                     if (n == 0) { return 1; }
                     return down(n - 1) + n;
                   }
                   fn main() -> i32 { commit(7); return down(read_input(0)); }";
        let m = zkvmopt_lang::compile_guest(src).expect("compiles");
        for max_depth in 0..16 {
            let config = InterpConfig {
                inputs: vec![12],
                max_depth,
                ..InterpConfig::default()
            };
            let got = check(&format!("depth {max_depth}"), &m, &config);
            assert_eq!(got.is_ok(), max_depth >= 13, "max_depth {max_depth}");
        }
    }

    /// A callee's `alloca`s are freed on return: two calls of one leaf see
    /// the same stack address, which `main` commits.
    #[test]
    fn interp_matches_its_oracle_on_stack_reuse() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("leaf", vec![], Some(Ty::Ptr));
        let p = b.alloca(Ty::I32, 3);
        b.ret(Some(Operand::val(p)));
        let leaf = m.add_func(b.finish());
        let mut b = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        for _ in 0..2 {
            let p = b.call(leaf, vec![], Some(Ty::Ptr));
            b.ecall(ecall::COMMIT, vec![Operand::val(p)]);
        }
        b.ret(Some(Operand::i32(0)));
        m.add_func(b.finish());
        let out = check("stack reuse", &m, &InterpConfig::default()).expect("runs");
        assert_eq!(out.journal[0], out.journal[1]);
    }

    /// `main(x)`: branch on `x` to one of two blocks that both jump to a
    /// join, whose phi has an incoming value from the first only.
    fn missing_phi_edge() -> Module {
        let mut b = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        let (left, right, join) = (b.new_block(), b.new_block(), b.new_block());
        let x = b.ecall(ecall::READ_INPUT, vec![Operand::i32(0)]);
        let c = b.icmp(Pred::Ne, Operand::val(x), Operand::i32(0));
        b.cond_br(Operand::val(c), left, right);
        b.switch_to(left);
        let l = b.bin(BinOp::Add, Operand::val(x), Operand::i32(5));
        b.br(join);
        b.switch_to(right);
        b.br(join);
        b.switch_to(join);
        let p = b.phi(Ty::I32, vec![(left, Operand::val(l))]);
        let q = b.bin(BinOp::Mul, Operand::val(p), Operand::i32(3));
        b.ret(Some(Operand::val(q)));
        let mut m = Module::new();
        m.add_func(b.finish());
        m
    }

    /// Malformed IR fails where it is reached, not before: a missing phi
    /// edge taken and not taken, a parameter in a block, a phi after a
    /// non-phi and in the entry block, `unreachable`, and no `main`.
    #[test]
    fn interp_matches_its_oracle_on_malformed_modules() {
        let m = missing_phi_edge();
        check_every_budget("missing phi edge, not taken", &m, &[1]);
        check_every_budget("missing phi edge, taken", &m, &[0]);
        let config = |x| InterpConfig {
            inputs: vec![x],
            ..InterpConfig::default()
        };
        assert_eq!(
            check("not taken", &m, &config(1)).map(|o| o.exit_value),
            Ok(18)
        );
        assert!(matches!(
            check("taken", &m, &config(0)),
            Err(InterpError::Malformed(_))
        ));

        // A parameter listed as an instruction of a callee's block.
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("id", vec![Ty::I32], Some(Ty::I32));
        let p = b.param(0);
        b.ret(Some(Operand::val(p)));
        let mut f = b.finish();
        f.blocks[f.entry.index()].insts.push(p);
        let id = m.add_func(f);
        let mut b = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        b.ecall(ecall::COMMIT, vec![Operand::i32(1)]);
        let r = b.call(id, vec![Operand::i32(4)], Some(Ty::I32));
        b.ret(Some(Operand::val(r)));
        m.add_func(b.finish());
        check_every_budget("param in block", &m, &[]);
        assert!(matches!(
            check("param in block", &m, &config(0)),
            Err(InterpError::Malformed(_))
        ));

        // A phi after a non-phi, and a phi in the entry block.
        let mut m = missing_phi_edge();
        let f = &mut m.funcs[0];
        let join = BlockId(3);
        f.blocks[join.index()].insts.rotate_left(1);
        check_every_budget("phi after non-phi", &m, &[1]);
        assert!(matches!(
            check("phi after non-phi", &m, &config(1)),
            Err(InterpError::Malformed(_))
        ));
        let mut b = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        let entry = b.current_block();
        let p = b.phi(Ty::I32, vec![(entry, Operand::i32(1))]);
        b.ret(Some(Operand::val(p)));
        let mut m = Module::new();
        m.add_func(b.finish());
        check_every_budget("phi in entry block", &m, &[]);
        assert!(matches!(
            check("phi in entry block", &m, &config(0)),
            Err(InterpError::Malformed(_))
        ));

        // `unreachable` after a committed value and a loop.
        let mut b = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        let (head, dead) = (b.new_block(), b.new_block());
        let entry = b.current_block();
        b.ecall(ecall::COMMIT, vec![Operand::i32(9)]);
        b.br(head);
        b.switch_to(head);
        let i = b.phi(Ty::I32, vec![(entry, Operand::i32(0))]);
        let i2 = b.bin(BinOp::Add, Operand::val(i), Operand::i32(1));
        let c = b.icmp(Pred::Slt, Operand::val(i2), Operand::i32(4));
        b.cond_br(Operand::val(c), head, dead);
        b.add_phi_incoming(i, head, Operand::val(i2));
        b.switch_to(dead);
        b.unreachable();
        let mut m = Module::new();
        m.add_func(b.finish());
        check_every_budget("unreachable", &m, &[]);
        assert_eq!(
            check("unreachable", &m, &config(0)),
            Err(InterpError::Unreachable)
        );

        let mut m = Module::new();
        let mut b = FunctionBuilder::new("helper", vec![], None);
        b.ret(None);
        m.add_func(b.finish());
        assert_eq!(check("no main", &m, &config(0)), Err(InterpError::NoMain));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 12,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The `proptest_passes` generator's programs, as lowered and at
        /// `-O2`.
        #[test]
        fn interp_matches_its_oracle_on_generated_programs(
            es in proptest::collection::vec(crate::program_gen::arb_expr(), 1..5),
            trip in 1u8..20,
            x in -1000i32..1000,
            y in -1000i32..1000,
        ) {
            let config = InterpConfig {
                inputs: vec![x, y],
                ..InterpConfig::default()
            };
            for src in [
                crate::program_gen::program(&es, trip),
                crate::program_gen::program_with_calls(&es, trip),
            ] {
                let m = zkvmopt_lang::compile_guest(&src).expect("generated program compiles");
                let _ = check("generated@lowered", &m, &config);
                let mut o2 = m.clone();
                PassManager::o2().run(&mut o2, &PassConfig::default());
                let _ = check("generated@O2", &o2, &config);
            }
        }
    }
}
