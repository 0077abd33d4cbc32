//! `eval_pass` and `eval_exec`: tuner traffic through one call,
//! `BatchEvaluator::eval_classified` on RISC Zero, single thread.
//!
//! The two differ only in what they feed it. `eval_pass` evaluates `-O3`
//! neighbours on IR-large, short-running programs, so `passes` does most of
//! the work; `eval_exec` evaluates random shallow sequences on small-IR,
//! long-running programs, so the engine's solo `run` does. Each is the
//! other's bypass workload: a compile-side change must leave `eval_exec`
//! where it was, an engine change must leave `eval_pass`.

use crate::harness::{closed_loop, closed_loop_traced, Base, Round, Verdict, Workload};
use crate::ops;
use crate::replica::{self, EvalTarget};
use crate::trace::{Probe, Tracer};
use std::marker::PhantomData;
use zkvmopt_core::{BatchEvaluator, OptProfile, PipelineError, SuiteRunner};
use zkvmopt_tuner::Candidate;
use zkvmopt_vm::VmKind;

/// The VM the tuner traffic targets.
pub const VM: VmKind = VmKind::RiscZero;

/// What distinguishes the two workloads.
pub trait Traffic {
    const NAME: &'static str;
    const PROGRAMS: &'static [&'static str];
    const OPS_PER_PROGRAM: usize;
    fn candidate(seed: u64, i: usize) -> Candidate;
}

pub struct PassBound;
pub struct ExecBound;

impl Traffic for PassBound {
    const NAME: &'static str = "eval_pass";
    const PROGRAMS: &'static [&'static str] = &ops::EVAL_PASS_PROGRAMS;
    const OPS_PER_PROGRAM: usize = ops::EVAL_PASS_OPS_PER_PROGRAM;
    fn candidate(seed: u64, i: usize) -> Candidate {
        ops::near_o3_candidate(seed, i)
    }
}

impl Traffic for ExecBound {
    const NAME: &'static str = "eval_exec";
    const PROGRAMS: &'static [&'static str] = &ops::EVAL_EXEC_PROGRAMS;
    const OPS_PER_PROGRAM: usize = ops::EVAL_EXEC_OPS_PER_PROGRAM;
    fn candidate(seed: u64, i: usize) -> Candidate {
        ops::random_candidate(seed, i)
    }
}

/// A `BatchEvaluator` over a program set, with what the replica and the
/// checks need beside it.
pub struct Evaluator {
    pub base: Base,
    pub ev: BatchEvaluator,
    /// Suite index of each evaluator workload.
    pub suite_index: Vec<usize>,
}

impl Evaluator {
    /// Build the evaluator (one `core.batch_evaluator` span) and check each
    /// program's baseline run against the IR interpreter's output: the
    /// evaluator compares every candidate with that baseline, so a candidate
    /// it accepts agrees with the interpreter too.
    pub fn build(t: &mut Tracer, programs: &[&str]) -> Result<Evaluator, String> {
        let base = Base::build(t)?;
        let workloads = ops::resolve(programs)?;
        let mut runner = SuiteRunner::new();
        let ev = t
            .span("core", "batch_evaluator", |_| {
                runner.batch_evaluator(&workloads, VM)
            })
            .map_err(|e| e.to_string())?;
        let suite_index: Vec<usize> = workloads.iter().map(|w| base.index_of(w.name)).collect();
        for (w, &si) in workloads.iter().zip(&suite_index) {
            let run = runner
                .run(w, &OptProfile::baseline(), VM, false)
                .map_err(|e| format!("{}: baseline: {e}", w.name))?;
            let reference = &base.refs[si];
            if !reference.matches(&run.exec.journal, run.exec.exit_code) {
                return Err(format!(
                    "{}: baseline output differs from the IR interpreter's",
                    w.name
                ));
            }
        }
        Ok(Evaluator {
            base,
            ev,
            suite_index,
        })
    }

    pub fn target(&self, widx: usize) -> EvalTarget<'_> {
        let si = self.suite_index[widx];
        EvalTarget {
            module: &self.base.modules[si],
            inputs: &self.base.programs[si].inputs,
            reference: &self.base.refs[si],
            budget: self.ev.candidate_budget(widx),
        }
    }

    pub fn name(&self, widx: usize) -> &'static str {
        self.base.programs[self.suite_index[widx]].name
    }
}

pub struct Eval<K: Traffic> {
    evaluator: Evaluator,
    ops: Vec<(usize, Candidate)>,
    kind: PhantomData<K>,
}

/// An evaluation's result as one comparable word.
pub fn result_word(r: &Result<u64, PipelineError>) -> u64 {
    match r {
        Ok(cycles) => *cycles,
        Err(e) => 1 << 63 | e.class() as u64,
    }
}

impl<K: Traffic> Workload for Eval<K> {
    const NAME: &'static str = K::NAME;
    type Out = Vec<Result<u64, PipelineError>>;

    fn setup(seed: u64, t: &mut Tracer) -> Result<Eval<K>, String> {
        let evaluator = Evaluator::build(t, K::PROGRAMS)?;
        let n = K::PROGRAMS.len();
        Ok(Eval {
            evaluator,
            ops: (0..n * K::OPS_PER_PROGRAM)
                .map(|i| (i % n, K::candidate(seed, i)))
                .collect(),
            kind: PhantomData,
        })
    }

    fn oplist_digest(&self) -> u64 {
        ops::digest(&self.ops)
    }

    fn round(&self) -> Round<Self::Out> {
        closed_loop(self.ops.len(), |i| {
            let (widx, c) = &self.ops[i];
            self.evaluator
                .ev
                .eval_classified(*widx, &c.passes, &c.pass_config())
        })
    }

    fn round_traced(&self, probe: &Probe) -> Round<Self::Out> {
        let mut t = probe.take();
        let round = closed_loop_traced(&mut t, self.ops.len(), |t, i| {
            let (widx, c) = &self.ops[i];
            let target = self.evaluator.target(*widx);
            replica::eval_classified(t, &target, VM, &c.passes, &c.pass_config(), |_| ())
        });
        probe.give(t);
        round
    }

    fn signature(&self, out: &Self::Out) -> Vec<u64> {
        out.iter().map(result_word).collect()
    }

    /// The evaluator's answer is correct when an independent re-evaluation
    /// gives the same one: the replica compiles the candidate itself and
    /// compares the run with the IR interpreter's output, so an accepted
    /// candidate really behaves like the program and a rejected one really
    /// does not. A rejection is therefore an answer, not a failed op — random
    /// sequences trip real pass bugs about once in ten thousand draws, which
    /// is the channel the paper's autotuner found its SP1 bug through — and
    /// is counted in `bench.rejected_frac`.
    fn check(&self, out: &Self::Out) -> Result<Verdict, String> {
        let replay = self.round_traced(&Probe::new()).out;
        let mut v = Verdict::default();
        for ((r, again), (widx, c)) in out.iter().zip(&replay).zip(&self.ops) {
            if result_word(r) != result_word(again) {
                v.failures.push(format!(
                    "{} under {c:?}: evaluator says {r:?}, re-evaluation {again:?}",
                    self.evaluator.name(*widx)
                ));
                continue;
            }
            match r {
                Ok(cycles) => v
                    .cost_ratios
                    .push(*cycles as f64 / self.evaluator.ev.baseline_cycles(*widx) as f64),
                Err(_) => v.rejected += 1,
            }
        }
        Ok(v)
    }
}
