//! Benchmark-owned replicas of the compile and evaluate paths, assembled
//! from the layers' public entry points with a span around each call.
//!
//! Every replica follows the code it stands in for line by line — the body
//! of `zkvmopt_riscv::compile_module`, of `PassManager::from_names(..).run`,
//! of `BatchEvaluator::eval_classified` — and the traced run asserts that a
//! replica's result equals the untraced op's result, so the decomposition
//! is of the same computation.

use crate::harness::Reference;
use crate::trace::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use zkvmopt_core::{OptProfile, PipelineError};
use zkvmopt_ir::Module;
use zkvmopt_passes::{PassConfig, PassExecutor};
use zkvmopt_riscv::{emit, isel, regalloc, CodegenError, Program, TargetCostModel};
use zkvmopt_vm::{DecodedProgram, Engine, ExecConfig, ExecutionReport, VmKind, VmProfile};
use zkvmopt_workloads::Workload;

/// `zkvmopt_lang::compile_guest`, spanned.
pub fn lower(t: &mut Tracer, w: &Workload) -> Result<Module, String> {
    t.counts.src_bytes += w.source.len() as u64;
    t.span("lang", "compile_guest", |_| {
        zkvmopt_lang::compile_guest(&w.source)
    })
    .map_err(|e| format!("{}: {e}", w.name))
}

/// `PassManager::from_names(passes).run(m, cfg)`: one fresh `PassExecutor`,
/// `run_entry` per pass — with a span, a changed flag and the IR size
/// entering each pass.
pub fn run_sequence(t: &mut Tracer, m: &mut Module, passes: &[&'static str], cfg: &PassConfig) {
    let entries: Vec<_> = passes
        .iter()
        .map(|p| zkvmopt_passes::find_pass(p).unwrap_or_else(|| panic!("unknown pass `{p}`")))
        .collect();
    let base_size = m.size();
    let mut size = base_size;
    let mut ex = PassExecutor::new();
    for entry in entries {
        let changed = t.span("passes", entry.name, |_| ex.run_entry(entry, m, cfg));
        t.counts.pass_runs += 1;
        t.counts.pass_ir_insts += size as u64;
        if changed {
            t.counts.pass_changed += 1;
            size = m.size();
        }
    }
    note_pipeline(t, base_size, size);
}

/// `OptProfile::apply` under one span: the standard levels run as one unit.
pub fn apply_profile(t: &mut Tracer, profile: &OptProfile, m: &mut Module) {
    let base_size = m.size();
    t.span("passes", "apply", |_| profile.apply(m));
    note_pipeline(t, base_size, m.size());
}

fn note_pipeline(t: &mut Tracer, base_size: usize, post_size: usize) {
    t.counts.pipelines += 1;
    t.counts.ir_size_ratio_ln += (post_size.max(1) as f64 / base_size.max(1) as f64).ln();
}

/// The body of `zkvmopt_riscv::compile_module`, stage by stage.
pub fn codegen(t: &mut Tracer, m: &Module, cm: &TargetCostModel) -> Result<Program, CodegenError> {
    t.counts.codegen_ir_insts += m.size() as u64;
    let main = m.main_func().ok_or_else(|| CodegenError {
        func: "<module>".into(),
        message: "module has no main".into(),
    })?;
    let addrs = m.layout_globals();
    let mut funcs = Vec::with_capacity(m.funcs.len());
    for fi in 0..m.funcs.len() {
        let vf = t.span("riscv", "isel", |_| isel::lower_function(m, fi, cm, &addrs))?;
        funcs.push(t.span("riscv", "regalloc", |_| {
            let mut af = regalloc::allocate(&vf);
            regalloc::cleanup(&mut af);
            af
        }));
    }
    let program = t.span("riscv", "link", |_| {
        let globals: Vec<(u32, Vec<u8>)> = m
            .globals
            .iter()
            .zip(&addrs)
            .map(|(g, &a)| (a, g.init.clone()))
            .collect();
        emit::link(&funcs, globals, main.index())
    })?;
    t.counts.insts_emitted += program.len() as u64;
    t.counts.spilled_vregs += u64::from(program.spilled_vregs);
    Ok(program)
}

/// `DecodedProgram::decode`, spanned.
pub fn decode(t: &mut Tracer, program: &Program) -> DecodedProgram {
    t.span("vm", "decode", |_| DecodedProgram::decode(program))
}

/// Record one execution's simulated counts and engine counters.
pub fn note_exec(t: &mut Tracer, r: &ExecutionReport) {
    let c = &mut t.counts;
    c.instret += r.instret;
    c.total_cycles += r.total_cycles;
    c.paging_cycles += r.paging_cycles;
    c.segments += r.segments;
    c.probe_hits += r.stats.probe_hits;
    c.probe_misses += r.stats.probe_misses;
    c.traces_formed += r.stats.traces_formed;
    c.trace_exits += r.stats.trace_exits;
}

/// What `BatchEvaluator` snapshots per workload, rebuilt from public parts:
/// the lowered module, the inputs, the oracle's observable behaviour and
/// the evaluator's own per-candidate cycle budget.
pub struct EvalTarget<'a> {
    pub module: &'a Module,
    pub inputs: &'a [i32],
    pub reference: &'a Reference,
    pub budget: u64,
}

/// `BatchEvaluator::eval_classified`, stage by stage. `observe` sees the
/// post-pass module (outside every layer span).
pub fn eval_classified(
    t: &mut Tracer,
    target: &EvalTarget<'_>,
    vm: VmKind,
    passes: &[&'static str],
    cfg: &PassConfig,
    observe: impl FnOnce(&Module),
) -> Result<u64, PipelineError> {
    let profile = OptProfile::sequence("candidate", passes.to_vec(), cfg.clone());
    let depth = t.depth();
    let compiled = catch_unwind(AssertUnwindSafe(|| {
        let mut m = t.span("ir", "clone", |_| target.module.clone());
        run_sequence(t, &mut m, passes, &profile.pass_config);
        t.span("ir", "verify", |_| zkvmopt_ir::verify::verify_module(&m))
            .map_err(|err| PipelineError::Verify {
                message: err.to_string(),
            })?;
        observe(&m);
        codegen(t, &m, &profile.backend).map_err(PipelineError::from)
    }));
    t.close_to(depth);
    let program = compiled.unwrap_or_else(|payload| Err(PipelineError::from_panic(payload)))?;
    let decoded = decode(t, &program);
    let config = ExecConfig {
        inputs: target.inputs.to_vec(),
        max_cycles: target.budget,
    };
    let exec = t
        .span("vm", "run", |_| {
            Engine::new(&decoded, VmProfile::for_kind(vm), config).run()
        })
        .map_err(|err| PipelineError::from_exec(err, target.budget))?;
    note_exec(t, &exec);
    if !target.reference.matches(&exec.journal, exec.exit_code) {
        return Err(PipelineError::Divergence);
    }
    Ok(exec.total_cycles)
}
