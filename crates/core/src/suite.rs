//! The batched suite runner: compile once, execute many.
//!
//! Every experiment in the paper re-executes the 58-program suite under
//! many profiles (the opt-level and single-pass matrices). This module
//! holds the crate's three stage functions, which every evaluation path
//! runs ([`Pipeline`](crate::Pipeline) through a fresh runner,
//! [`SuiteRunner`], [`BatchEvaluator`](crate::BatchEvaluator)): [`passes`],
//! [`codegen`] (verifier, backend, pre-decode) and [`execute`] (one
//! segmented engine call, whose records price the run's proving cost,
//! gated by the accounting check). [`SuiteRunner`] caches the compile side,
//! and its caches live exactly as long as the runner, with no bound of
//! their own: a caller that streams unboundedly many programs through one
//! runner should use one runner per batch (the impact matrices use one per
//! workload row).
//!
//! - the **lowered base module** of each workload is cached, so a workload's
//!   source is lexed/parsed/lowered exactly once no matter how many profiles
//!   run it;
//! - each workload is compiled and **pre-decoded once per distinct
//!   pipeline**: the cache is keyed by [`OptProfile::cache_key`], the
//!   resolved pass list plus config and backend, so `-Os` reuses `-O2`'s
//!   entry ([`CompiledWorkload`] holds the emitted [`Program`] and its
//!   [`DecodedProgram`] block cache);
//! - [`SuiteRunner::run_matrix`] runs each **distinct linked program** of a
//!   workload once, optionally across threads, and hands every profile that
//!   linked the same program a copy of that run. Many cells of the study's
//!   matrices are such copies: a level that changes nothing on a program,
//!   or a pass that does not apply to it;
//! - of a program's runs, only the first VM's is **executed** whenever
//!   that can be exact: [`derive_segmented`] prices a one-segment run
//!   without precompile charges under each further VM's profile, and only
//!   where it declines (several segments on either VM, a precompile call)
//!   is that VM's run executed too. On the study's rows (baseline, six
//!   levels, zk-O3) 285 of the 311 distinct programs are derived for SP1.
//!
//! The autotuner's fitness loop does not come through here: it runs on a
//! [`BatchEvaluator`](crate::BatchEvaluator), which shares only the
//! runner's lowered modules. `bench/`'s impact matrices and the report
//! generator run on top of this.

use crate::{Measurement, OptProfile, PipelineError, RunReport};
use std::collections::hash_map::DefaultHasher;
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use zkvmopt_ir::hash::FxHashMap;
use zkvmopt_ir::Module;
use zkvmopt_prover::{backend_for, check_segment_accounting, proving_cost_ms};
use zkvmopt_riscv::{Program, TargetCostModel};
use zkvmopt_vm::{
    derive_segmented, DecodedProgram, Engine, ExecConfig, ExecutionReport, SegmentRecord, VmKind,
    VmProfile,
};
use zkvmopt_workloads::Workload;
use zkvmopt_x86sim::{run_x86, X86Model, X86Report};

/// A workload compiled under one profile: emitted code plus the engine's
/// pre-decoded block representation, shareable across any number of runs.
#[derive(Debug, Clone)]
pub struct CompiledWorkload {
    /// The linked RV32IM program.
    pub program: Program,
    /// The pre-decoded block-dispatch form.
    pub decoded: DecodedProgram,
}

/// A segmented run: its report and per-segment records.
type Run = (ExecutionReport, Vec<SegmentRecord>);

/// The **passes** stage: `profile`'s passes applied to `m`.
///
/// # Errors
/// A pass that panics is reported as [`PipelineError::Panic`].
pub fn passes(mut m: Module, profile: &OptProfile) -> Result<Module, PipelineError> {
    catch_unwind(AssertUnwindSafe(|| {
        profile.apply(&mut m);
        m
    }))
    .map_err(PipelineError::from_panic)
}

/// The **codegen** stage: verify the post-pass module, select instructions,
/// link, and pre-decode the program for the engine.
///
/// # Errors
/// [`PipelineError::Verify`] for IR the verifier rejects (a pass bug),
/// [`PipelineError::Codegen`] for a module the backend rejects, and
/// [`PipelineError::Panic`] for a panic in either.
pub fn codegen(m: &Module, backend: &TargetCostModel) -> Result<CompiledWorkload, PipelineError> {
    let program = catch_unwind(AssertUnwindSafe(|| {
        zkvmopt_ir::verify::verify_module(m).map_err(|err| PipelineError::Verify {
            message: err.to_string(),
        })?;
        zkvmopt_riscv::compile_module(m, backend).map_err(PipelineError::from)
    }))
    .unwrap_or_else(|payload| Err(PipelineError::from_panic(payload)))?;
    Ok(CompiledWorkload {
        decoded: DecodedProgram::decode(&program),
        program,
    })
}

/// The **execute** stage: one segmented engine run of `cw` on `vm` under a
/// cycle `budget`, its records gated by [`check_segment_accounting`].
///
/// # Errors
/// [`PipelineError::Budget`] or [`PipelineError::Trap`] from the engine,
/// [`PipelineError::Accounting`] from the gate.
pub fn execute(
    cw: &CompiledWorkload,
    inputs: &[i32],
    vm: VmKind,
    budget: u64,
) -> Result<(ExecutionReport, Vec<SegmentRecord>), PipelineError> {
    let config = ExecConfig {
        inputs: inputs.to_vec(),
        max_cycles: budget,
    };
    let run = Engine::new(&cw.decoded, VmProfile::for_kind(vm), config)
        .run_segmented()
        .map_err(|e| PipelineError::from_exec(e, budget))?;
    checked(run)
}

/// Gate a run's records by [`check_segment_accounting`], executed or
/// derived: a record set that does not sum exactly to the report is an
/// error here, never a silently wrong proving cost.
fn checked((exec, records): Run) -> Result<Run, PipelineError> {
    check_segment_accounting(&exec, &records).map_err(PipelineError::Accounting)?;
    Ok((exec, records))
}

/// One cell of a `{workload × profile × vm}` execution matrix.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Workload name.
    pub workload: &'static str,
    /// Profile name.
    pub profile: String,
    /// VM kind.
    pub vm: VmKind,
    /// The earliest profile in this cell's row (same workload) that linked
    /// an identical program, when that is not this cell's own profile: this
    /// cell's result is a copy of that profile's run on the same VM.
    pub same_program_as: Option<String>,
    /// Measurement + full report, or the stage error.
    pub result: Result<(Measurement, RunReport), PipelineError>,
}

/// Cache key for one workload: name plus a source hash, so synthetic
/// workloads that reuse a name (parameter sweeps building `Workload`s on the
/// fly) never collide.
fn workload_key(w: &Workload) -> (&'static str, u64) {
    let mut h = DefaultHasher::new();
    w.source.hash(&mut h);
    (w.name, h.finish())
}

type CacheKey = (&'static str, u64, String);

/// The default guest cycle budget ([`SuiteRunner::with_max_cycles`]).
const MAX_CYCLES: u64 = 2_000_000_000;

/// Compile-once execute-many driver for the benchmark suite. Every
/// lowered module and compiled program it builds stays cached until the
/// runner is dropped.
pub struct SuiteRunner {
    max_cycles: u64,
    modules: FxHashMap<(&'static str, u64), Module>,
    compiled: FxHashMap<CacheKey, CompiledWorkload>,
}

impl Default for SuiteRunner {
    fn default() -> SuiteRunner {
        SuiteRunner::new()
    }
}

impl SuiteRunner {
    /// A fresh runner with empty caches.
    pub fn new() -> SuiteRunner {
        SuiteRunner {
            max_cycles: MAX_CYCLES,
            modules: FxHashMap::default(),
            compiled: FxHashMap::default(),
        }
    }

    /// Override the guest cycle budget.
    pub fn with_max_cycles(mut self, max_cycles: u64) -> SuiteRunner {
        self.max_cycles = max_cycles;
        self
    }

    /// Number of `{workload × distinct cache key}` programs the runner holds.
    pub fn cached_programs(&self) -> usize {
        self.compiled.len()
    }

    /// The configured guest cycle budget.
    pub fn max_cycles(&self) -> u64 {
        self.max_cycles
    }

    /// Lower `w`'s source to its base (unoptimized) module, through the
    /// runner's lowered-module cache — one lex/parse/lower per workload no
    /// matter how many profiles or candidates run it.
    ///
    /// # Errors
    /// Returns [`PipelineError::Parse`] on frontend failures.
    pub fn lower(&mut self, w: &Workload) -> Result<Module, PipelineError> {
        let (name, src) = workload_key(w);
        match self.modules.entry((name, src)) {
            Entry::Occupied(e) => Ok(e.get().clone()),
            Entry::Vacant(e) => Ok(e.insert(zkvmopt_lang::compile_guest(&w.source)?).clone()),
        }
    }

    /// Compile (or fetch from cache) `w` under `profile`: [`passes`], then
    /// [`codegen`].
    ///
    /// # Errors
    /// Returns [`PipelineError`] on frontend, pass, verifier or codegen
    /// failures.
    pub fn compile(
        &mut self,
        w: &Workload,
        profile: &OptProfile,
    ) -> Result<&CompiledWorkload, PipelineError> {
        let (name, src) = workload_key(w);
        let key = (name, src, profile.cache_key());
        if !self.compiled.contains_key(&key) {
            let cw = codegen(&passes(self.lower(w)?, profile)?, &profile.backend)?;
            self.compiled.insert(key.clone(), cw);
        }
        Ok(&self.compiled[&key])
    }

    /// [`compile`](Self::compile), also returning the post-pass module; the
    /// passes run even when the program is cached.
    ///
    /// # Errors
    /// As [`compile`](Self::compile).
    pub(crate) fn compile_with_module(
        &mut self,
        w: &Workload,
        profile: &OptProfile,
    ) -> Result<(Module, &CompiledWorkload), PipelineError> {
        let (name, src) = workload_key(w);
        let key = (name, src, profile.cache_key());
        let m = passes(self.lower(w)?, profile)?;
        if !self.compiled.contains_key(&key) {
            let cw = codegen(&m, &profile.backend)?;
            self.compiled.insert(key.clone(), cw);
        }
        Ok((m, &self.compiled[&key]))
    }

    /// Compile (cached) and execute `w` under `profile` on `vm`.
    ///
    /// # Errors
    /// Returns [`PipelineError`] on any stage failure.
    pub fn run(
        &mut self,
        w: &Workload,
        profile: &OptProfile,
        vm: VmKind,
        with_x86: bool,
    ) -> Result<RunReport, PipelineError> {
        let max_cycles = self.max_cycles;
        let cw = self.compile(w, profile)?;
        let run = execute(cw, &w.inputs, vm, max_cycles)?;
        let x86 = with_x86.then(|| run_native(cw, &w.inputs)).transpose()?;
        Ok(run_report(cw, run, x86))
    }

    /// Cached analogue of [`crate::measure`]: compile once, execute, verify
    /// observable behaviour against `baseline` when given.
    ///
    /// # Errors
    /// Returns [`PipelineError::Divergence`] when the journal or exit code
    /// diverge from the baseline run.
    pub fn measure(
        &mut self,
        w: &Workload,
        profile: &OptProfile,
        vm: VmKind,
        with_x86: bool,
        baseline: Option<&RunReport>,
    ) -> Result<(Measurement, RunReport), PipelineError> {
        let r = self.run(w, profile, vm, with_x86)?;
        check_and_measure(w, profile, vm, r, baseline)
    }

    /// Fan out the full `{workload × profile × vm}` matrix.
    ///
    /// Phase 1 compiles each workload once per distinct
    /// [`OptProfile::cache_key`] (serial, cached). Phase 2 groups each
    /// workload's profiles by identical linked [`Program`] and runs each
    /// group once per VM — and once on the x86 model when `with_x86` — across
    /// `threads` workers (`0` = all available cores), the calling thread
    /// among them. A group's first VM is executed; each further
    /// VM's run is derived from it by [`derive_segmented`], and executed only
    /// where that declines, so every cell equals a fresh run of it. Every
    /// profile of a group gets a copy of the group's runs, reported and
    /// measured under its own name, and names the group's first profile in
    /// [`MatrixCell::same_program_as`]. The grouping lives only for this
    /// call. Results are returned in deterministic row-major
    /// (workload, profile, vm) order regardless of scheduling.
    pub fn run_matrix(
        &mut self,
        workloads: &[&Workload],
        profiles: &[OptProfile],
        vms: &[VmKind],
        with_x86: bool,
        threads: usize,
    ) -> Vec<MatrixCell> {
        let profile_keys: Vec<String> = profiles.iter().map(OptProfile::cache_key).collect();
        let mut compiled: Vec<Result<(), PipelineError>> = Vec::new();
        for w in workloads {
            for p in profiles {
                compiled.push(self.compile(w, p).map(|_| ()));
            }
        }
        // One job per distinct program of a workload, listing the row-major
        // `{workload × profile}` slots that linked it, first profile first.
        // A pair that failed to compile fills its slot here.
        struct Job<'a> {
            w: &'a Workload,
            cw: &'a CompiledWorkload,
            slots: Vec<usize>,
        }
        let cell =
            |w: &Workload,
             p: &OptProfile,
             vm: VmKind,
             same_program_as: Option<String>,
             result: Result<(Measurement, RunReport), PipelineError>| MatrixCell {
                workload: w.name,
                profile: p.name.clone(),
                vm,
                same_program_as,
                result,
            };
        let mut jobs: Vec<Job<'_>> = Vec::new();
        let mut results: Vec<OnceLock<Vec<MatrixCell>>> =
            Vec::with_capacity(workloads.len() * profiles.len());
        for w in workloads {
            let (name, src) = workload_key(w);
            let mut job_of: FxHashMap<&Program, usize> = FxHashMap::default();
            for (pi, p) in profiles.iter().enumerate() {
                let slot = results.len();
                if let Err(e) = &compiled[slot] {
                    let cells = vms.iter().map(|&vm| cell(w, p, vm, None, Err(e.clone())));
                    results.push(OnceLock::from(cells.collect::<Vec<_>>()));
                    continue;
                }
                results.push(OnceLock::new());
                let cw = &self.compiled[&(name, src, profile_keys[pi].clone())];
                match job_of.entry(&cw.program) {
                    Entry::Occupied(j) => jobs[*j.get()].slots.push(slot),
                    Entry::Vacant(j) => {
                        j.insert(jobs.len());
                        jobs.push(Job {
                            w,
                            cw,
                            slots: vec![slot],
                        });
                    }
                }
            }
        }
        // Phase 2: the cache is now read-only; fan the jobs out over a shared
        // work queue. The x86 native baseline is VM-independent, so it runs
        // at most once per job and is cloned into each VM's report.
        let max_cycles = self.max_cycles;
        let np = profiles.len();
        let next = AtomicUsize::new(0);
        let workers = if threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            threads
        }
        .min(jobs.len().max(1));
        let work = || {
            while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                let inputs = &job.w.inputs;
                let runs = execute_vms(job.cw, inputs, vms, max_cycles);
                let x86 = with_x86.then(|| run_native(job.cw, inputs)).transpose();
                let first = &profiles[job.slots[0] % np];
                for (k, &slot) in job.slots.iter().enumerate() {
                    let p = &profiles[slot % np];
                    let same_program_as = (k > 0).then(|| first.name.clone());
                    let cells = vms.iter().zip(&runs).map(|(&vm, run)| {
                        let result = run.clone().and_then(|run| {
                            let r = run_report(job.cw, run, x86.clone()?);
                            check_and_measure(job.w, p, vm, r, None)
                        });
                        cell(job.w, p, vm, same_program_as.clone(), result)
                    });
                    let first_write = results[slot].set(cells.collect()).is_ok();
                    debug_assert!(first_write, "slot {slot} belongs to one job");
                }
            }
        };
        // The calling thread is one of the workers, so one worker spawns
        // nothing. A spawned one cost more than its 50–60 µs spawn and join:
        // on the benchmark's `study_matrix` (one worker per row) running it
        // on the calling thread alone took `ops_per_s` from 96 to 110
        // (medians of 6 rounds, 2-vCPU host).
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });
        #[expect(
            clippy::expect_used,
            reason = "every empty slot belongs to a job, and the scope ran every job or \
                      re-raised its worker's panic"
        )]
        let cells = results
            .into_iter()
            .flat_map(|slot| slot.into_inner().expect("all jobs ran"))
            .collect();
        cells
    }
}

/// One job's runs, one per VM in `vms` order: the first VM's is executed,
/// and each further VM's is derived from it by [`derive_segmented`] where
/// that can be done exactly (one segment, no precompile charge; see there),
/// executed otherwise.
fn execute_vms(
    cw: &CompiledWorkload,
    inputs: &[i32],
    vms: &[VmKind],
    max_cycles: u64,
) -> Vec<Result<Run, PipelineError>> {
    let Some((&source, rest)) = vms.split_first() else {
        return Vec::new();
    };
    let first = execute(cw, inputs, source, max_cycles);
    let source = VmProfile::for_kind(source);
    let further: Vec<_> = rest
        .iter()
        .map(|&vm| {
            let target = VmProfile::for_kind(vm);
            let derived = first.as_ref().ok().and_then(|(exec, records)| {
                derive_segmented(&source, (exec, records.as_slice()), &target)
            });
            derived.map_or_else(|| execute(cw, inputs, vm, max_cycles), checked)
        })
        .collect();
    std::iter::once(first).chain(further).collect()
}

/// The VM-independent x86 native baseline for a compiled workload; the
/// model's faults are [`PipelineError::Trap`]s.
fn run_native(cw: &CompiledWorkload, inputs: &[i32]) -> Result<X86Report, PipelineError> {
    run_x86(&cw.program, &X86Model::default(), inputs).map_err(|e| PipelineError::Trap {
        message: e.to_string(),
    })
}

/// Build the full [`RunReport`] for one execution: proving cost of the run's
/// own segments under its VM's backend, x86 timing when measured.
fn run_report(cw: &CompiledWorkload, (exec, records): Run, x86: Option<X86Report>) -> RunReport {
    RunReport {
        prove_ms: proving_cost_ms(backend_for(exec.kind), &records),
        exec_ms: exec.exec_time_ms,
        exec,
        records,
        x86,
        code_size: cw.program.len(),
        spilled_vregs: cw.program.spilled_vregs,
    }
}

/// Verify `r`'s observable behaviour against `baseline` (when given) and
/// flatten it into a [`Measurement`].
///
/// # Errors
/// Returns [`PipelineError::Divergence`] when the journal or exit code
/// diverge from the baseline run.
pub fn check_and_measure(
    w: &Workload,
    profile: &OptProfile,
    vm: VmKind,
    r: RunReport,
    baseline: Option<&RunReport>,
) -> Result<(Measurement, RunReport), PipelineError> {
    if let Some(b) = baseline {
        if r.exec.journal != b.exec.journal || r.exec.exit_code != b.exec.exit_code {
            return Err(PipelineError::Divergence);
        }
    }
    let m = Measurement {
        workload: w.name.to_string(),
        profile: profile.name.clone(),
        vm: vm.name().to_string(),
        cycles: r.exec.total_cycles,
        instret: r.exec.instret,
        paging_cycles: r.exec.paging_cycles,
        exec_ms: r.exec_ms,
        prove_ms: r.prove_ms,
        segments: r.exec.segments,
        x86_ms: r.x86.as_ref().map(|x| x.time_ms),
        code_size: r.code_size,
        spilled_vregs: r.spilled_vregs,
    };
    Ok((m, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{measure, OptLevel};
    use zkvmopt_prover::check_segment_accounting;
    use zkvmopt_tuner::FailureClass;
    use zkvmopt_vm::ExecutionReport;

    #[test]
    fn cached_runs_match_the_uncached_pipeline() {
        let w = zkvmopt_workloads::by_name("loop-sum").unwrap();
        let mut runner = SuiteRunner::new();
        for profile in [OptProfile::baseline(), OptProfile::level(OptLevel::O2)] {
            for vm in VmKind::BOTH {
                let (cm, _) = runner.measure(w, &profile, vm, false, None).unwrap();
                let (um, _) = measure(w, &profile, vm, false, None).unwrap();
                assert_eq!(cm.cycles, um.cycles, "{} on {vm}", profile.name);
                assert_eq!(cm.instret, um.instret);
                assert_eq!(cm.paging_cycles, um.paging_cycles);
                assert_eq!(cm.segments, um.segments);
                assert_eq!(cm.code_size, um.code_size);
            }
        }
        // One compile per {workload × profile}, reused across both VMs.
        assert_eq!(runner.cached_programs(), 2);
    }

    #[test]
    fn run_reports_carry_records_that_sum_to_the_execution() {
        let w = zkvmopt_workloads::by_name("loop-sum").unwrap();
        let mut runner = SuiteRunner::new();
        let profile = OptProfile::level(OptLevel::O2);
        for vm in VmKind::BOTH {
            let r = runner.run(w, &profile, vm, false).unwrap();
            check_segment_accounting(&r.exec, &r.records).unwrap();
            assert_eq!(r.records.len() as u64, r.exec.segments, "{vm}");
            let backend = backend_for(vm);
            assert!(r.prove_ms == proving_cost_ms(backend, &r.records), "{vm}");
        }
    }

    /// The accounting gate every run passes, executed or derived: a record
    /// set whose user cycles sum one past its report is an evaluator bug,
    /// reported as `Accounting` and classed with panics.
    #[test]
    fn a_record_one_cycle_off_fails_the_accounting_gate() {
        let w = zkvmopt_workloads::by_name("loop-sum").unwrap();
        let profile = OptProfile::level(OptLevel::O2);
        let r = SuiteRunner::new()
            .run(w, &profile, VmKind::RiscZero, false)
            .unwrap();
        assert!(checked((r.exec.clone(), r.records.clone())).is_ok());
        let mut records = r.records;
        records[0].user_cycles += 1;
        let err = checked((r.exec, records)).unwrap_err();
        assert!(
            matches!(&err, PipelineError::Accounting(m) if m.field == "user_cycles"),
            "{err}"
        );
        assert_eq!(err.class(), FailureClass::Panic);
    }

    #[test]
    fn compile_cache_is_keyed_by_content_not_name() {
        let w = zkvmopt_workloads::by_name("fibonacci").unwrap();
        let mut runner = SuiteRunner::new();
        let a = OptProfile::sequence("candidate", vec!["mem2reg"], Default::default());
        let b = OptProfile::sequence("candidate", vec!["mem2reg", "gvn"], Default::default());
        runner.run(w, &a, VmKind::RiscZero, false).unwrap();
        runner.run(w, &b, VmKind::RiscZero, false).unwrap();
        assert_eq!(runner.cached_programs(), 2, "same name, distinct programs");
        runner.run(w, &a, VmKind::Sp1, false).unwrap();
        assert_eq!(runner.cached_programs(), 2, "cache hit across VM kinds");
    }

    #[test]
    fn synthetic_workloads_with_one_name_do_not_collide() {
        let make = |body: &str| Workload {
            name: "synthetic",
            suite: zkvmopt_workloads::Suite::Other,
            source: format!("fn main() -> i32 {{ return {body}; }}"),
            inputs: vec![],
            uses_precompile: false,
        };
        let mut runner = SuiteRunner::new();
        let a = runner
            .run(&make("11"), &OptProfile::baseline(), VmKind::Sp1, false)
            .unwrap();
        let b = runner
            .run(&make("22"), &OptProfile::baseline(), VmKind::Sp1, false)
            .unwrap();
        assert_eq!(a.exec.exit_code, 11);
        assert_eq!(b.exec.exit_code, 22);
    }

    /// Pairs already compiled before `run_matrix` asks for them are read
    /// from the cache in phase 2 like the pairs it compiles itself.
    #[test]
    fn matrix_reuses_pairs_cached_before_the_call() {
        let w = zkvmopt_workloads::by_name("loop-sum").unwrap();
        let mut runner = SuiteRunner::new();
        let o2 = OptProfile::level(OptLevel::O2);
        runner.run(w, &o2, VmKind::Sp1, false).unwrap();
        runner
            .run(w, &OptProfile::baseline(), VmKind::Sp1, false)
            .unwrap();
        runner
            .run(w, &OptProfile::level(OptLevel::O1), VmKind::Sp1, false)
            .unwrap();
        let cells = runner.run_matrix(
            &[w],
            &[o2, OptProfile::level(OptLevel::O0)],
            &[VmKind::Sp1],
            false,
            1,
        );
        assert_eq!(cells.len(), 2);
        for c in &cells {
            assert!(c.result.is_ok(), "{}: {:?}", c.profile, c.result);
        }
    }

    /// Everything a cell reports that its run determines: the whole
    /// `Measurement` (floats through their exact `Debug` form) and the
    /// `RunReport` but the engine's wall-clock time.
    fn cell_view(result: &Result<(Measurement, RunReport), PipelineError>) -> String {
        match result {
            Ok((m, r)) => {
                let exec = ExecutionReport {
                    wall_time_ms: 0.0,
                    ..r.exec.clone()
                };
                let (records, x86) = (&r.records, &r.x86);
                let (size, spilled) = (r.code_size, r.spilled_vregs);
                format!("{m:?} {exec:?} {records:?} {size} {spilled} {x86:?}")
            }
            Err(e) => format!("error: {e}"),
        }
    }

    /// Every cell of the study's row set (baseline, six levels, zk-O3)
    /// equals a fresh runner's `run` + `check_and_measure` of that cell
    /// alone, and its `same_program_as` names the first earlier profile of
    /// its row that linked an equal program, exactly when there is one.
    fn assert_matrix_matches_fresh_cells(workloads: &[&Workload], with_x86: bool) {
        let mut profiles = vec![OptProfile::baseline()];
        profiles.extend(OptLevel::ALL.map(OptProfile::level));
        profiles.push(OptProfile::zk_o3());
        let mut runner = SuiteRunner::new();
        let cells = runner.run_matrix(workloads, &profiles, &VmKind::BOTH, with_x86, 0);
        let mut cells = cells.iter();
        for w in workloads {
            let programs: Vec<Program> = profiles
                .iter()
                .map(|p| runner.compile(w, p).expect("compiles").program.clone())
                .collect();
            for (pi, p) in profiles.iter().enumerate() {
                let first = programs.iter().position(|q| *q == programs[pi]);
                let same_program_as = first.filter(|&f| f < pi).map(|f| profiles[f].name.clone());
                for vm in VmKind::BOTH {
                    let at = format!("{} at {} on {vm}", w.name, p.name);
                    let cell = cells.next().expect("one cell per workload × profile × vm");
                    assert_eq!(
                        (cell.workload, cell.profile.as_str(), cell.vm),
                        (w.name, p.name.as_str(), vm)
                    );
                    assert_eq!(cell.same_program_as, same_program_as, "{at}");
                    let fresh = SuiteRunner::new()
                        .run(w, p, vm, with_x86)
                        .and_then(|r| check_and_measure(w, p, vm, r, None));
                    assert_eq!(cell_view(&cell.result), cell_view(&fresh), "{at}");
                }
            }
        }
        assert!(cells.next().is_none(), "no cells beyond the matrix");
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "suite-wide matrix is release-only (CI: test-release)"
    )]
    fn matrix_cells_equal_fresh_runs_across_the_suite() {
        let suite: Vec<&Workload> = zkvmopt_workloads::all().iter().collect();
        assert_matrix_matches_fresh_cells(&suite, false);
    }

    /// The debug-build slice: `keccak256` charges precompile cycles, and
    /// unoptimised `polybench-heat-3d` runs in one RISC Zero segment but
    /// two SP1 shards, so both of `execute_vms`' fallbacks to a real run
    /// are reached besides its derivations.
    #[test]
    fn matrix_cells_equal_fresh_runs_on_five_programs() {
        let five: Vec<&Workload> = [
            "loop-sum",
            "tailcall",
            "merkle",
            "keccak256",
            "polybench-heat-3d",
        ]
        .iter()
        .map(|n| zkvmopt_workloads::by_name(n).unwrap())
        .collect();
        assert_matrix_matches_fresh_cells(&five, true);
    }

    #[test]
    fn matrix_fans_out_in_deterministic_order() {
        let workloads: Vec<&Workload> = ["loop-sum", "fibonacci"]
            .iter()
            .map(|n| zkvmopt_workloads::by_name(n).unwrap())
            .collect();
        let profiles = vec![OptProfile::baseline(), OptProfile::level(OptLevel::O2)];
        let mut runner = SuiteRunner::new();
        let cells = runner.run_matrix(&workloads, &profiles, &VmKind::BOTH, false, 0);
        assert_eq!(cells.len(), 2 * 2 * 2);
        // Row-major order: workload outermost, vm innermost.
        assert_eq!(cells[0].workload, "loop-sum");
        assert_eq!(cells[0].profile, "baseline");
        assert_eq!(cells[0].vm, VmKind::RiscZero);
        assert_eq!(cells[1].vm, VmKind::Sp1);
        assert_eq!(cells[2].profile, "-O2");
        assert_eq!(cells[4].workload, "fibonacci");
        // Parallel and serial execution agree cycle-for-cycle.
        let serial = runner.run_matrix(&workloads, &profiles, &VmKind::BOTH, false, 1);
        for (a, b) in cells.iter().zip(&serial) {
            let (am, _) = a.result.as_ref().unwrap();
            let (bm, _) = b.result.as_ref().unwrap();
            assert_eq!(am.cycles, bm.cycles);
            assert_eq!(am.instret, bm.instret);
        }
    }
}
