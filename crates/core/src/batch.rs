//! Thread-safe batched candidate evaluation — the autotuning service's
//! fitness backend.
//!
//! The island-model tuner evaluates thousands of pass-sequence candidates
//! across worker threads. The compile (passes + codegen on a module clone)
//! owns a traffic-dependent share of each evaluation — the benchmark's
//! `core.compile_share` reads 0.84 on `-O3`-neighbour candidates, 0.08 on
//! random sequences, 0.30 on a cold search — and [`SuiteRunner`]'s
//! compiled-program cache is `&mut self` and would serialize those compiles
//! behind a lock, so the service instead snapshots what it needs up front
//! into a [`BatchEvaluator`]:
//!
//! - each workload's **lowered base module** (lexed/parsed/lowered exactly
//!   once, shared read-only),
//! - its [`stable_module_fingerprint`] (the persistent tune-database key),
//! - a **baseline run** (journal + exit code + cycles) that every candidate
//!   is differentially checked against — a candidate that changes observable
//!   behaviour is a miscompile and evaluates to `None`, the same channel
//!   through which the paper's autotuner surfaced a real SP1 soundness bug,
//! - the `-O3` run the predictor normalizes against, and the linked
//!   [`Program`] of both runs as **references**.
//!
//! Evaluation is then a `&self` function of the candidate, made of the
//! crate's shared stages, in two halves: the **front** is [`passes`] on a
//! clone of the module, the **back half** is [`codegen`] (verify, generate
//! code, pre-decode) and [`execute`] under the candidate budget, then the
//! check against the baseline — the stages and the segmented run the study
//! paths use, so a fitness equals the figure's cycle count for the same
//! program.
//!
//! A candidate whose linked program equals a reference's, and whose
//! reference run used no more user cycles than the candidate budget, takes
//! that run's answer (its cycles, or [`PipelineError::Divergence`] for an
//! `-O3` whose output differs from the baseline's) instead of executing:
//! equal programs execute identically on equal inputs, and the engine
//! stops a run only when its user cycles exceed the budget, so the
//! candidate's run would be that run. Random sequences often leave a
//! program as lowered, and `-O3` neighbours often link `-O3`. The
//! references are runs construction makes anyway, and their number is
//! fixed, so a call costs the same whatever ran before it.
//!
//! The back half is a pure function of the post-pass
//! module and of the entry's fixed context (base program, inputs, VM kind,
//! cycle budget, backend cost model), and on a cold search most candidates
//! that miss the tuner's sequence-keyed cache still produce IR a sibling
//! already produced. So when [`BatchEvaluator::eval_classified`] runs inside
//! a [`zkvmopt_tuner::tune_suite`] fitness call, it keys the back half by
//! (context, post-pass fingerprint) in that search's
//! [`zkvmopt_tuner::PostPassMemo`], and compile and execution run once per
//! distinct post-pass module; the reference rule applies under the memo.
//! Outside a search there is no memo and no fingerprint: only the
//! references are consulted.
//!
//! The memo belongs to the search, not to this evaluator: an
//! evaluator-lifetime map would let every later search (and every round a
//! benchmark replays) start warm from the first one's work, so a search's
//! cost would depend on what ran before it. Apart from that memo, threads
//! evaluating concurrently share nothing mutable (the tuner's workers call
//! `eval_classified` directly). Construct one via
//! [`SuiteRunner::batch_evaluator`], which reuses the runner's lowered-module
//! cache and baseline machinery.
//!
//! Keying by the printed IR relies on code generation reading what the
//! printer writes: functions, globals and the reachable blocks with their
//! instructions. Two reads go past it. Global contents are printed only as
//! a length, but no pass changes a global and the context fixes the base
//! module. Instruction selection's compare-and-branch fusion counts uses in
//! unreachable blocks too. `tests/tuner_service.rs` therefore re-evaluates
//! every call of real searches through the stages alone, with no memo and
//! no reference, and requires equal results; it holds the suite's
//! references to that chain too.

use crate::{codegen, execute, passes, OptLevel, OptProfile, PipelineError, SuiteRunner};
use std::panic::{catch_unwind, AssertUnwindSafe};
use zkvmopt_ir::analysis::stable_fingerprint_bytes;
use zkvmopt_ir::{stable_module_fingerprint, FeatureVector, Module};
use zkvmopt_passes::PassConfig;
use zkvmopt_riscv::{Program, TargetCostModel};
use zkvmopt_tuner::{Candidate, EvalResult, TuneTarget};
use zkvmopt_vm::{ExecutionReport, VmKind};
use zkvmopt_workloads::Workload;

/// Per-candidate cycle-budget headroom over the workload's baseline: an
/// optimizing candidate should finish well under the unoptimized run; one
/// that needs 8× the baseline is runaway (e.g. unrolling gone wrong) and is
/// cut off as a [`PipelineError::Budget`] instead of burning the service's
/// global `max_cycles` allowance.
const BUDGET_HEADROOM: u64 = 8;

/// Floor for the per-candidate budget, so trivially tiny baselines don't
/// starve legitimate candidates of their fixed setup cycles.
const BUDGET_FLOOR: u64 = 4096;

/// One tunable workload snapshot: base module + baseline oracle.
#[derive(Debug, Clone)]
struct Entry {
    name: &'static str,
    module: Module,
    inputs: Vec<i32>,
    fingerprint: u64,
    features: FeatureVector,
    baseline_journal: Vec<i32>,
    baseline_exit: i32,
    baseline_cycles: u64,
    /// Cycles under the fixed `-O3` pipeline — the reference the predictive
    /// tuner normalizes tuned results against.
    o3_cycles: u64,
    /// [`BatchEvaluator::candidate_budget`].
    budget: u64,
    /// Everything besides the post-pass module that the back half's result
    /// depends on, hashed: the post-pass memo's key is (this, the post-pass
    /// fingerprint).
    context: u64,
    /// The baseline and `-O3` runs (module docs).
    references: Vec<Reference>,
}

/// A run construction made: the program it linked, its user cycles, and
/// the answer a candidate linking that program gets.
#[derive(Debug, Clone)]
struct Reference {
    program: Program,
    user_cycles: u64,
    answer: Result<u64, PipelineError>,
}

impl Entry {
    /// A run's answer: its cycles, or [`PipelineError::Divergence`] when its
    /// journal or exit code differs from the baseline's.
    fn answer(&self, exec: &ExecutionReport) -> Result<u64, PipelineError> {
        if exec.journal != self.baseline_journal || exec.exit_code != self.baseline_exit {
            return Err(PipelineError::Divergence); // miscompile: must never win
        }
        Ok(exec.total_cycles)
    }

    /// Keep `exec`, a run of `program` on this entry's inputs and VM, as a
    /// reference.
    fn add_reference(&mut self, program: Program, exec: &ExecutionReport) {
        let answer = self.answer(exec);
        self.references.push(Reference {
            program,
            user_cycles: exec.user_cycles,
            answer,
        });
    }

    /// The answer of a reference run of `program` that stayed within the
    /// candidate budget, so that running `program` under it again would
    /// give the same report; `None` when there is none.
    fn reference_answer(&self, program: &Program) -> Option<Result<u64, PipelineError>> {
        self.references
            .iter()
            .find(|r| r.user_cycles <= self.budget && r.program == *program)
            .map(|r| r.answer.clone())
    }
}

/// Immutable, `Sync` fitness oracle over a fixed set of workloads on one VM.
#[derive(Debug, Clone)]
pub struct BatchEvaluator {
    entries: Vec<Entry>,
    vm: VmKind,
}

impl SuiteRunner {
    /// Build a [`BatchEvaluator`] for `workloads` on `vm`: lower each
    /// workload once (through this runner's module cache), fingerprint the
    /// base IR, and record the unoptimized baseline run each candidate will
    /// be differentially checked against and the `-O3` run, each with its
    /// linked program as a reference.
    ///
    /// # Errors
    /// Returns [`PipelineError`] if any workload fails to compile or its
    /// baseline fails to execute.
    pub fn batch_evaluator(
        &mut self,
        workloads: &[&'static Workload],
        vm: VmKind,
    ) -> Result<BatchEvaluator, PipelineError> {
        let max_cycles = self.max_cycles();
        let mut entries = Vec::with_capacity(workloads.len());
        for w in workloads {
            let module = self.lower(w)?;
            let fingerprint = stable_module_fingerprint(&module);
            let features = FeatureVector::extract(&module);
            let profiles = [OptProfile::baseline(), OptProfile::level(OptLevel::O3)];
            let (_, baseline) = self.measure(w, &profiles[0], vm, false, None)?;
            let (_, o3) = self.measure(w, &profiles[1], vm, false, None)?;
            let budget = max_cycles.min(
                baseline
                    .exec
                    .total_cycles
                    .saturating_mul(BUDGET_HEADROOM)
                    .max(BUDGET_FLOOR),
            );
            let context = stable_fingerprint_bytes(
                format!(
                    "{fingerprint:016x} {:?} {vm:?} {budget} {:?}",
                    w.inputs,
                    candidate_profile(&[], &PassConfig::default()).backend
                )
                .as_bytes(),
            );
            let mut entry = Entry {
                name: w.name,
                module,
                inputs: w.inputs.clone(),
                fingerprint,
                features,
                baseline_journal: baseline.exec.journal.clone(),
                baseline_exit: baseline.exec.exit_code,
                baseline_cycles: baseline.exec.total_cycles,
                o3_cycles: o3.exec.total_cycles,
                budget,
                context,
                references: Vec::with_capacity(profiles.len()),
            };
            for (profile, run) in profiles.iter().zip([&baseline, &o3]) {
                let program = self.compile(w, profile)?.program.clone();
                entry.add_reference(program, &run.exec);
            }
            entries.push(entry);
        }
        Ok(BatchEvaluator { entries, vm })
    }
}

/// The profile a candidate is evaluated under. Its backend cost model does
/// not depend on the passes, so it is part of each entry's fixed context.
fn candidate_profile(passes: &[&'static str], cfg: &PassConfig) -> OptProfile {
    OptProfile::sequence("candidate", passes.to_vec(), cfg.clone())
}

impl BatchEvaluator {
    /// Number of workloads.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the evaluator holds no workloads.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Workload names, in index order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// The VM kind candidates are evaluated on.
    pub fn vm(&self) -> VmKind {
        self.vm
    }

    /// Stable fingerprint of workload `widx`'s lowered base module — the
    /// tune-database key for this program.
    pub fn fingerprint(&self, widx: usize) -> u64 {
        self.entries[widx].fingerprint
    }

    /// Baseline (unoptimized) cycle count of workload `widx`.
    pub fn baseline_cycles(&self, widx: usize) -> u64 {
        self.entries[widx].baseline_cycles
    }

    /// Cycle count of workload `widx` under the fixed `-O3` pipeline — the
    /// reference the predictive tuner's quality ratios are relative to.
    pub fn o3_cycles(&self, widx: usize) -> u64 {
        self.entries[widx].o3_cycles
    }

    /// Structural features of workload `widx`'s lowered base module.
    pub fn features(&self, widx: usize) -> &FeatureVector {
        &self.entries[widx].features
    }

    /// The per-candidate cycle budget for workload `widx`:
    /// `min(global max_cycles, max(baseline × 8, 4096))`. A candidate is an
    /// *optimization attempt* — if it cannot finish within a generous
    /// multiple of the unoptimized baseline, it has blown its budget.
    pub fn candidate_budget(&self, widx: usize) -> u64 {
        self.entries[widx].budget
    }

    /// Evaluate one candidate on workload `widx`: cycles under the
    /// candidate's pipeline, or `None` when the candidate fails to compile,
    /// fails to run, or — the interesting case — **changes observable
    /// behaviour** vs the baseline (journal or exit code). Deterministic and
    /// `&self`: safe to call from any number of threads.
    ///
    /// This is the classification-erasing view of
    /// [`BatchEvaluator::eval_classified`]; use that directly when the
    /// failure reason matters (the fault-tolerant tuning service does).
    pub fn eval(&self, widx: usize, passes: &[&'static str], cfg: &PassConfig) -> Option<u64> {
        self.eval_classified(widx, passes, cfg).ok()
    }

    /// Evaluate one candidate on workload `widx`, classifying every failure
    /// as a [`PipelineError`]. The whole pipeline is isolated: the compile
    /// stages ([`passes`], [`codegen`]) catch panics, so a pass bug that
    /// panics on this candidate's IR is reported as [`PipelineError::Panic`]
    /// instead of unwinding into (and poisoning) the caller; [`execute`]
    /// runs under the per-candidate [`BatchEvaluator::candidate_budget`].
    /// Deterministic and `&self`: safe to call from any number of threads.
    ///
    /// A candidate that links the baseline or `-O3` program takes the answer
    /// of construction's run of it, when that run stayed within the
    /// candidate budget, instead of executing again. Inside a
    /// [`zkvmopt_tuner::tune_suite`] fitness call, everything after the
    /// passes also runs once per distinct post-pass module of that search;
    /// a repeat returns the first result, payload included (module docs).
    ///
    /// # Errors
    /// Every failure mode of the candidate pipeline, classified — see the
    /// [`crate::error`] module docs for the taxonomy.
    pub fn eval_classified(
        &self,
        widx: usize,
        seq: &[&'static str],
        cfg: &PassConfig,
    ) -> Result<u64, PipelineError> {
        let e = &self.entries[widx];
        let profile = candidate_profile(seq, cfg);
        let m = passes(e.module.clone(), &profile)?;
        let back_half = || self.back_half(e, &m, &profile.backend);
        // A module the printer cannot fingerprint is not memoized: the
        // verifier classifies it, as it does outside a search.
        let memo = zkvmopt_tuner::current_postpass_memo().and_then(|memo| {
            let fp = catch_unwind(AssertUnwindSafe(|| stable_module_fingerprint(&m))).ok()?;
            Some((memo, fp))
        });
        match memo {
            Some((memo, fp)) => memo.get_or_compute(e.context, fp, back_half),
            None => back_half(),
        }
    }

    /// [`codegen`] → a reference's answer, or [`execute`] under the
    /// entry's budget → check against the baseline: everything after the
    /// passes, a pure function of the post-pass module `m` and the entry's
    /// context.
    fn back_half(
        &self,
        e: &Entry,
        m: &Module,
        backend: &TargetCostModel,
    ) -> Result<u64, PipelineError> {
        let cw = codegen(m, backend)?;
        if let Some(answer) = e.reference_answer(&cw.program) {
            return answer;
        }
        let (exec, _) = execute(&cw, &e.inputs, self.vm, e.budget)?;
        e.answer(&exec)
    }

    /// The [`TuneTarget`] list for this evaluator's workloads, in index
    /// order — what [`zkvmopt_tuner::tune_suite`] wants alongside
    /// [`BatchEvaluator::classified_fitness`].
    pub fn tune_targets(&self) -> Vec<TuneTarget> {
        self.entries
            .iter()
            .map(|e| {
                TuneTarget::new(e.name, e.fingerprint)
                    .with_prediction(e.features.clone(), e.o3_cycles)
            })
            .collect()
    }

    /// The classified fitness function the fault-tolerant tuning service
    /// consumes: cycles on success, the payload-free
    /// [`zkvmopt_tuner::FailureClass`] on any pipeline failure.
    pub fn classified_fitness(&self) -> impl Fn(usize, &Candidate) -> EvalResult + Sync + '_ {
        move |widx, c| {
            self.eval_classified(widx, &c.passes, &c.pass_config())
                .map_err(|e| e.class())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure;
    use zkvmopt_tuner::{FailureClass, SeedTree};

    fn evaluator(names: &[&str]) -> BatchEvaluator {
        let workloads: Vec<&'static Workload> = names
            .iter()
            .map(|n| zkvmopt_workloads::by_name(n).expect("suite workload"))
            .collect();
        SuiteRunner::new()
            .batch_evaluator(&workloads, VmKind::RiscZero)
            .expect("evaluator")
    }

    #[test]
    fn eval_matches_the_suite_runner_pipeline() {
        let ev = evaluator(&["loop-sum"]);
        let w = zkvmopt_workloads::by_name("loop-sum").unwrap();
        let mut runner = SuiteRunner::new();
        for seq in [&["mem2reg", "gvn"][..], &["mem2reg", "licm", "dce"][..]] {
            let cfg = PassConfig::default();
            let got = ev.eval(0, seq, &cfg).expect("valid candidate");
            let profile = OptProfile::sequence("candidate", seq.to_vec(), cfg);
            let (m, _) = runner
                .measure(w, &profile, VmKind::RiscZero, false, None)
                .unwrap();
            assert_eq!(got, m.cycles, "{seq:?}");
        }
    }

    #[test]
    fn fingerprints_are_stable_and_per_program() {
        let a = evaluator(&["loop-sum", "fibonacci"]);
        let b = evaluator(&["loop-sum"]);
        assert_eq!(a.fingerprint(0), b.fingerprint(0), "same source, same fp");
        assert_ne!(a.fingerprint(0), a.fingerprint(1));
        assert_eq!(a.names(), vec!["loop-sum", "fibonacci"]);
        assert!(a.baseline_cycles(0) > 0);
    }

    /// An evaluator whose baseline cannot even execute must fail at
    /// construction instead of producing an oracle-less fitness function,
    /// and a candidate that exhausts the cycle budget evaluates to `None`.
    #[test]
    fn broken_baselines_and_budget_exhaustion_are_contained() {
        let w = zkvmopt_workloads::by_name("loop-sum").unwrap();
        let mut runner = SuiteRunner::new().with_max_cycles(10);
        assert!(runner.batch_evaluator(&[w], VmKind::Sp1).is_err());
        let ev = evaluator(&["loop-sum"]);
        assert!(ev
            .eval(0, &["mem2reg", "simplifycfg"], &PassConfig::default())
            .is_some());
        assert!(ev.eval(0, &[], &PassConfig::default()).is_some());
    }

    /// The classified path: successes carry cycles, failures carry the
    /// pipeline stage that rejected the candidate, and the plain `eval`
    /// view is exactly `eval_classified().ok()`.
    #[test]
    fn eval_classified_agrees_with_eval_and_budgets_are_derived() {
        let ev = evaluator(&["loop-sum", "fibonacci"]);
        for widx in 0..ev.len() {
            let budget = ev.candidate_budget(widx);
            assert!(budget >= ev.baseline_cycles(widx));
            for seq in [&[][..], &["mem2reg", "gvn"][..], &["reg2mem"][..]] {
                let classified = ev.eval_classified(widx, seq, &PassConfig::default());
                let plain = ev.eval(widx, seq, &PassConfig::default());
                assert_eq!(classified.clone().ok(), plain, "{seq:?}");
                let cycles = classified.unwrap_or_else(|e| panic!("{seq:?}: {e}"));
                assert!(cycles <= budget, "{seq:?} within its own budget");
            }
        }
        let targets = ev.tune_targets();
        assert_eq!(targets.len(), 2);
        assert_eq!(targets[0].name, "loop-sum");
        assert_eq!(targets[0].fingerprint, ev.fingerprint(0));

        // The classified fitness closure mirrors eval_classified, erasing
        // payloads down to the tuner's FailureClass.
        let fit = ev.classified_fitness();
        let c = zkvmopt_tuner::Candidate {
            passes: vec!["mem2reg", "gvn"],
            inline_threshold: 225,
            unroll_threshold: 200,
        };
        assert_eq!(
            fit(0, &c),
            ev.eval_classified(0, &c.passes, &c.pass_config())
                .map_err(|e| e.class())
        );
        assert!(fit(0, &c).is_ok());
    }

    /// The program `seq` links on entry `widx`, and its fresh run under the
    /// candidate budget.
    fn fresh(
        ev: &BatchEvaluator,
        widx: usize,
        seq: &[&'static str],
    ) -> (Program, Result<ExecutionReport, PipelineError>) {
        let e = &ev.entries[widx];
        let profile = candidate_profile(seq, &PassConfig::default());
        let m = passes(e.module.clone(), &profile).expect("passes run");
        let cw = codegen(&m, &profile.backend).expect("program links");
        let run = execute(&cw, &e.inputs, ev.vm, e.budget).map(|(exec, _)| exec);
        (cw.program, run)
    }

    /// The baseline and `-O3` programs take construction's answer, which
    /// equals a fresh run's; any other program gets none.
    #[test]
    fn references_answer_their_own_programs_as_a_fresh_run_would() {
        let ev = evaluator(&["loop-sum", "fibonacci", "bigmem"]);
        let o3 = zkvmopt_passes::PassManager::o3().names();
        let cfg = PassConfig::default();
        for (widx, e) in ev.entries.iter().enumerate() {
            let at = e.name;
            for seq in [&[][..], &o3[..]] {
                let (program, run) = fresh(&ev, widx, seq);
                let answer = run.and_then(|exec| e.answer(&exec));
                assert!(answer.is_ok(), "{at} {seq:?}");
                assert_eq!(e.reference_answer(&program), Some(answer.clone()), "{at}");
                assert_eq!(ev.eval_classified(widx, seq, &cfg), answer, "{at}");
            }
            let (program, _) = fresh(&ev, widx, &["mem2reg"]);
            assert!(e.references.iter().all(|r| r.program != program), "{at}");
            assert_eq!(e.reference_answer(&program), None, "{at}");
        }
    }

    /// A reference whose run used more user cycles than the candidate
    /// budget answers nothing, so the candidate executes and is cut off.
    #[test]
    fn a_reference_over_the_budget_falls_through_to_execution() {
        let mut ev = evaluator(&["loop-sum"]);
        let e = &mut ev.entries[0];
        e.budget = e.references[0].user_cycles / 2;
        let limit = e.budget;
        let (program, _) = fresh(&ev, 0, &[]);
        assert_eq!(ev.entries[0].reference_answer(&program), None);
        assert_eq!(
            ev.eval_classified(0, &[], &PassConfig::default()),
            Err(PipelineError::Budget { limit })
        );
    }

    /// A reference run whose journal differs from the baseline's answers
    /// [`PipelineError::Divergence`] for every candidate linking its program.
    #[test]
    fn a_diverging_reference_answers_divergence() {
        let mut ev = evaluator(&["fibonacci"]);
        let o3 = zkvmopt_passes::PassManager::o3().names();
        let (program, run) = fresh(&ev, 0, &o3);
        let mut exec = run.expect("-O3 runs");
        exec.journal.push(1);
        let e = &mut ev.entries[0];
        e.references.clear();
        e.add_reference(program, &exec);
        assert_eq!(
            ev.eval_classified(0, &o3, &PassConfig::default()),
            Err(PipelineError::Divergence)
        );
    }

    /// The four random draws, `Candidate::random(SeedTree::new(s).seed(2,
    /// i), 20)` on RISC Zero, that emit IR the verifier rejects. The study
    /// paths (`Pipeline::run_source` under `measure`, `SuiteRunner::run`
    /// under its `measure`) and the tuner's `eval_classified` run the same
    /// stages, so each draw gets one outcome on all three: the verifier's
    /// rejection, in debug and release builds alike.
    #[test]
    fn every_path_agrees_on_verifier_rejected_draws() {
        let names = ["bigmem", "spec-631"];
        let draws = [(0, 2, 1057), (0, 2, 1512), (0, 4, 4375), (1, 5, 2813)];
        let workloads: Vec<&'static Workload> = names
            .iter()
            .map(|n| zkvmopt_workloads::by_name(n).expect("suite workload"))
            .collect();
        let mut runner = SuiteRunner::new();
        let ev = runner
            .batch_evaluator(&workloads, VmKind::RiscZero)
            .expect("evaluator");
        for (widx, s, i) in draws {
            let w = workloads[widx];
            let c = Candidate::random(SeedTree::new(s).seed(2, i), 20);
            let profile = OptProfile::sequence("candidate", c.passes.clone(), c.pass_config());
            let vm = VmKind::RiscZero;
            let (_, base) = runner
                .measure(w, &OptProfile::baseline(), vm, false, None)
                .expect("baseline runs");
            let pipeline = measure(w, &profile, vm, false, Some(&base)).map(|(m, _)| m.cycles);
            let suite = runner
                .measure(w, &profile, vm, false, Some(&base))
                .map(|(m, _)| m.cycles);
            let tuner = ev.eval_classified(widx, &c.passes, &c.pass_config());
            let at = format!("{} (s {s}, i {i})", w.name);
            assert_eq!(pipeline, suite, "{at}: Pipeline vs SuiteRunner");
            assert_eq!(suite, tuner, "{at}: SuiteRunner vs BatchEvaluator");
            assert_eq!(
                tuner.map_err(|e| e.class()),
                Err(FailureClass::Verify),
                "{at}"
            );
        }
    }
}
