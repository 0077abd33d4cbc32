//! Differential gates for the island-model autotuning service, with its own
//! single-population, single-thread geometry as the deterministic oracle.
//!
//! Fitness here is the real pipeline (clone lowered module → apply candidate
//! passes → RISC-V codegen → block-dispatch engine, journal-checked against
//! the baseline), via `SuiteRunner::batch_evaluator`. The gates:
//!
//! 1. **Thread-count independence** — one pinned seed, 1-thread and 4-thread
//!    service runs: bit-identical tune databases.
//! 2. **Oracle** — at the same seed the islands' best must be at least as
//!    good as one population's (`islands: 1, threads: 1`, no migration) at
//!    an equal evaluation budget (island 0 sees the same anchors, plus
//!    migration).
//! 3. **Bit-identical persistence** — every tune-db entry re-measured from
//!    scratch must reproduce its recorded cycle count exactly.
//! 4. **Warm start** — a populated database (reloaded through disk) answers
//!    every workload with zero fitness evaluations.
//! 5. **Post-pass memo** — every fitness call of a search, re-evaluated
//!    through the stages alone (no memo, no reference run), gives the
//!    identical result (payload included); on one thread the memo answers
//!    exactly the calls whose post-pass IR the search had already seen; and
//!    no memo state outlives a search.
//! 6. **Leave-one-out prediction** — over all 58 suite programs, each one
//!    predicted from a database without its own entry lands within 5 % of
//!    its fully-tuned cycles and strictly beats `-O3` (geomeans), and a
//!    predict-first search writes the same database on 1 and 4 threads.
//! 7. **Reference runs** — over all 58 suite programs on both VMs, the
//!    baseline, `-O3` and 20 random candidates each evaluate exactly as the
//!    stages alone do, so a candidate that takes the evaluator's baseline
//!    or `-O3` run gets what executing it would give.
//!
//! The search evaluates hundreds of real compiles, so the suite is
//! release-only, like the suite-wide differential harness:
//!
//! ```text
//! cargo test --release --test tuner_service -- --include-ignored
//! ```

use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Mutex;
use zkvm_opt::stats::geomean;
use zkvm_opt::study::SuiteRunner;
use zkvm_opt::tuner::{
    canonicalize_sequence, predict::o3_fallback, tune_suite, Candidate, EvalResult, Predictor,
    SeedTree, ServiceConfig, ServiceReport, TuneDb, TuneDbEntry, TuneTarget,
};
use zkvm_opt::vm::{ExecutionReport, VmKind};
use zkvmopt_core::{codegen, execute, passes, BatchEvaluator, OptProfile, PipelineError};
use zkvmopt_ir::Module;
use zkvmopt_passes::{PassConfig, PassManager};
use zkvmopt_workloads::Workload;

const WORKLOADS: [&str; 3] = ["loop-sum", "fibonacci", "tailcall"];
const SEED: u64 = 0xC0FFEE;

fn workloads() -> Vec<&'static Workload> {
    WORKLOADS
        .iter()
        .map(|n| zkvm_opt::workloads::by_name(n).expect("suite workload"))
        .collect()
}

fn evaluator() -> BatchEvaluator {
    SuiteRunner::new()
        .batch_evaluator(&workloads(), VmKind::RiscZero)
        .expect("suite workloads compile")
}

/// One evaluator workload evaluated through the stages alone, reusing
/// nothing: what `eval_classified` must answer for every candidate.
struct StageChain {
    module: Module,
    inputs: Vec<i32>,
    vm: VmKind,
    budget: u64,
    baseline: ExecutionReport,
}

impl StageChain {
    /// `passes → codegen → execute` under the candidate budget, then the
    /// journal and exit code against the baseline run.
    fn eval(&self, c: &Candidate) -> Result<u64, PipelineError> {
        let profile = OptProfile::sequence("candidate", c.passes.clone(), c.pass_config());
        let m = passes(self.module.clone(), &profile)?;
        let cw = codegen(&m, &profile.backend)?;
        let (exec, _) = execute(&cw, &self.inputs, self.vm, self.budget)?;
        if exec.journal != self.baseline.journal || exec.exit_code != self.baseline.exit_code {
            return Err(PipelineError::Divergence);
        }
        Ok(exec.total_cycles)
    }
}

/// A stage chain per workload of `ev`, which holds `ws`, each with a
/// baseline run of its own.
fn stage_chains(ev: &BatchEvaluator, ws: &[&'static Workload]) -> Vec<StageChain> {
    let mut runner = SuiteRunner::new();
    ws.iter()
        .enumerate()
        .map(|(widx, w)| StageChain {
            baseline: runner
                .run(w, &OptProfile::baseline(), ev.vm(), false)
                .expect("baseline runs")
                .exec,
            module: runner.lower(w).expect("suite workload lowers"),
            inputs: w.inputs.clone(),
            vm: ev.vm(),
            budget: ev.candidate_budget(widx),
        })
        .collect()
}

fn targets(ev: &BatchEvaluator) -> Vec<TuneTarget> {
    ev.tune_targets()
}

fn candidate_cycles(ev: &BatchEvaluator, widx: usize, c: &Candidate) -> Option<u64> {
    let cfg = PassConfig {
        inline_threshold: c.inline_threshold,
        unroll_threshold: c.unroll_threshold,
        ..PassConfig::default()
    };
    ev.eval(widx, &c.passes, &cfg)
}

/// The structured-error fitness the service consumes: same pipeline as
/// [`candidate_cycles`] but failures keep their [`FailureClass`].
fn classified(ev: &BatchEvaluator, widx: usize, c: &Candidate) -> EvalResult {
    let cfg = PassConfig {
        inline_threshold: c.inline_threshold,
        unroll_threshold: c.unroll_threshold,
        ..PassConfig::default()
    };
    ev.eval_classified(widx, &c.passes, &cfg)
        .map_err(|e| e.class())
}

fn service_config(threads: usize) -> ServiceConfig {
    ServiceConfig {
        islands: 2,
        population: 8,
        generations: 4,
        migration_interval: 2,
        seed: SEED,
        threads,
        ..Default::default()
    }
}

fn run_service(ev: &BatchEvaluator, threads: usize, db: &mut TuneDb) -> ServiceReport {
    tune_suite(&service_config(threads), &targets(ev), db, |widx, c| {
        classified(ev, widx, c)
    })
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "real-compile search is release-only (CI: test-release)"
)]
fn service_is_thread_count_independent_and_entries_remeasure_bit_identically() {
    let ev = evaluator();

    let mut db1 = TuneDb::in_memory();
    let r1 = run_service(&ev, 1, &mut db1);
    let mut db4 = TuneDb::in_memory();
    let r4 = run_service(&ev, 4, &mut db4);

    // Gate 1: same seed, different thread counts — identical databases.
    assert_eq!(
        db1.to_string_pretty(),
        db4.to_string_pretty(),
        "tune database must not depend on thread count"
    );
    assert_eq!(r1.evaluated, r4.evaluated, "equal budgets by construction");
    for (a, b) in r1.workloads.iter().zip(&r4.workloads) {
        assert_eq!(a.best, b.best, "{}", a.name);
        assert_eq!(a.best_fitness, b.best_fitness, "{}", a.name);
    }

    // Gate 3: every persisted entry reproduces its recorded cycles exactly
    // when re-measured from scratch — the cache holds truth, not staleness.
    for (widx, t) in targets(&ev).iter().enumerate() {
        let e = db4.get(t.fingerprint).expect("every workload recorded");
        let stored = Candidate {
            passes: e
                .passes
                .iter()
                .map(|p| {
                    zkvmopt_passes::find_pass(p)
                        .expect("recorded pass exists")
                        .canonical_name()
                })
                .collect(),
            inline_threshold: e.inline_threshold,
            unroll_threshold: e.unroll_threshold,
        };
        let remeasured = candidate_cycles(&ev, widx, &stored);
        assert_eq!(
            remeasured,
            Some(e.cycles),
            "{}: tune-db entry must be bit-identical to re-measurement",
            t.name
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "real-compile search is release-only (CI: test-release)"
)]
fn service_matches_or_beats_the_sequential_oracle_at_equal_budget() {
    let ev = evaluator();
    let svc_cfg = service_config(4);
    let mut db = TuneDb::in_memory();
    let report = run_service(&ev, 4, &mut db);

    // The sequential oracle: the same search as one population on one
    // thread, its generations stretched so the budgets are equal.
    let oracle_cfg = ServiceConfig {
        islands: 1,
        generations: svc_cfg.generations * svc_cfg.islands,
        migration_interval: 0,
        threads: 1,
        ..svc_cfg.clone()
    };
    let mut oracle_db = TuneDb::in_memory();
    let oracle = tune_suite(&oracle_cfg, &targets(&ev), &mut oracle_db, |widx, c| {
        classified(&ev, widx, c)
    });

    for (w, o) in report.workloads.iter().zip(&oracle.workloads) {
        assert_eq!(w.evaluated, svc_cfg.budget_per_workload(), "{}", w.name);
        assert_eq!(o.evaluated, w.evaluated, "{}: equal budgets", w.name);
        let service_best = w.best_fitness.expect("service found a valid candidate");
        let oracle_best = o.best_fitness.expect("oracle found a valid candidate");
        assert!(
            service_best <= oracle_best,
            "{}: islands ({service_best} cycles) must match or beat the \
             single population ({oracle_best} cycles) at an equal budget",
            w.name
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "real-compile search is release-only (CI: test-release)"
)]
fn warm_start_through_disk_performs_zero_redundant_evaluations() {
    let ev = evaluator();
    let dir = std::env::temp_dir().join(format!("zkvmopt-tunedb-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("tune.db");
    let _ = std::fs::remove_file(&path);

    // Cold run, persisted to disk.
    let mut db = TuneDb::open(&path);
    let cold = run_service(&ev, 4, &mut db);
    assert!(cold.fitness_evals > 0);
    assert_eq!(cold.db_hits, 0);
    db.save().expect("tune db saves");

    // Fresh process simulation: reload from disk, tune again.
    let mut reloaded = TuneDb::open(&path);
    assert_eq!(reloaded.len(), WORKLOADS.len());
    let warm = run_service(&ev, 4, &mut reloaded);
    assert_eq!(warm.db_hits, WORKLOADS.len());
    assert_eq!(
        warm.fitness_evals, 0,
        "warm start must perform zero redundant fitness evaluations"
    );
    assert_eq!(warm.evaluated, 0, "warm start must spend no search budget");
    for (c, w) in cold.workloads.iter().zip(&warm.workloads) {
        assert!(w.warm_started, "{}", w.name);
        assert_eq!(w.best, c.best, "{}", w.name);
        assert_eq!(w.best_fitness, c.best_fitness, "{}", w.name);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// One fitness call of a search: the workload, the candidate, and the full
/// result `eval_classified` returned inside the search.
type Call = (usize, Candidate, Result<u64, PipelineError>);

/// A search through the classified fitness that records every call.
fn recorded_search(ev: &BatchEvaluator, threads: usize) -> (ServiceReport, Vec<Call>) {
    let calls = Mutex::new(Vec::new());
    let report = tune_suite(
        &service_config(threads),
        &targets(ev),
        &mut TuneDb::in_memory(),
        |widx, c| {
            let r = ev.eval_classified(widx, &c.passes, &c.pass_config());
            calls.lock().unwrap().push((widx, c.clone(), r.clone()));
            r.map_err(|e| e.class())
        },
    );
    (report, calls.into_inner().unwrap())
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "real-compile search is release-only (CI: test-release)"
)]
fn memoized_results_equal_fresh_evaluations_outside_the_search() {
    let ev = evaluator();
    let chains = stage_chains(&ev, &workloads());
    for threads in [1, 2] {
        let (report, calls) = recorded_search(&ev, threads);
        assert_eq!(calls.len(), report.fitness_evals, "threads={threads}");
        assert!(
            report.postpass_hits > 0,
            "threads={threads}: the search must exercise the memo"
        );
        for (widx, c, in_search) in &calls {
            let fresh = chains[*widx].eval(c);
            assert_eq!(
                in_search, &fresh,
                "threads={threads}: {c:?} on {} answered differently inside the search",
                WORKLOADS[*widx]
            );
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "real-compile search is release-only (CI: test-release)"
)]
fn postpass_hits_are_the_repeated_postpass_modules_of_one_search() {
    let ev = evaluator();
    let mut runner = SuiteRunner::new();
    let bases: Vec<_> = WORKLOADS
        .iter()
        .map(|n| {
            let w = zkvm_opt::workloads::by_name(n).expect("suite workload");
            runner.lower(w).expect("suite workload lowers")
        })
        .collect();
    let (report, calls) = recorded_search(&ev, 1);
    let distinct: BTreeSet<(usize, u64)> = calls
        .iter()
        .map(|(widx, c, _)| {
            let mut m = bases[*widx].clone();
            OptProfile::sequence("candidate", c.passes.clone(), c.pass_config()).apply(&mut m);
            (*widx, zkvmopt_ir::stable_module_fingerprint(&m))
        })
        .collect();
    assert_eq!(calls.len(), report.fitness_evals);
    assert_eq!(report.postpass_hits, calls.len() - distinct.len());

    // The same search again: a memo that outlived the first would answer
    // more of the second.
    let (again, _) = recorded_search(&ev, 1);
    assert_eq!(again.postpass_hits, report.postpass_hits);
    assert_eq!(again.fitness_evals, report.fitness_evals);
}

/// The leave-one-out gate's search geometry: a small budget, so tuning the
/// whole suite three times stays near a second in release.
fn loo_config(predict: bool, threads: usize) -> ServiceConfig {
    ServiceConfig {
        islands: 2,
        population: 4,
        generations: 2,
        migration_interval: 2,
        threads,
        seed: SEED,
        predict,
        ..Default::default()
    }
}

/// Tune `targets[range]` into `db`. The fitness re-bases workload indices so
/// a sub-range of the suite still addresses the right program.
fn tune_range(
    ev: &BatchEvaluator,
    targets: &[TuneTarget],
    range: Range<usize>,
    cfg: &ServiceConfig,
    db: &mut TuneDb,
) -> ServiceReport {
    let fitness = ev.classified_fitness();
    let lo = range.start;
    tune_suite(cfg, &targets[range], db, |widx, c| fitness(lo + widx, c))
}

/// Floor `targets[range]`'s entries at the best of the `-O3` family: the
/// canonical pipeline and the pipeline with its cleanup tail re-run (the
/// fixed tail does not always converge), each at the default thresholds and
/// at the paper's §6.1 zkVM-aware ones (inline far past the hardware
/// default, unroll more aggressively). A database is bootstrapped the same
/// way: the island search explores short specialised sequences rather than
/// rediscovering the 28-pass pipeline, and the per-program winner of these
/// four differs, which is the variation a k-NN predictor exists to transfer.
fn record_o3_floor(
    ev: &BatchEvaluator,
    targets: &[TuneTarget],
    range: Range<usize>,
    db: &mut TuneDb,
) {
    let o3 = o3_fallback();
    let mut tail = o3.passes.clone();
    tail.extend(["gvn", "dse", "instcombine", "adce", "simplifycfg"]);
    let mut family = Vec::new();
    for passes in [o3.passes.clone(), canonicalize_sequence(&tail)] {
        family.push(Candidate {
            passes: passes.clone(),
            ..o3.clone()
        });
        family.push(Candidate {
            passes,
            inline_threshold: 4328,
            unroll_threshold: 512,
        });
    }
    for i in range {
        let t = &targets[i];
        for c in &family {
            if let Some(cycles) = ev.eval(i, &c.passes, &c.pass_config()) {
                db.record(TuneDbEntry {
                    fingerprint: t.fingerprint,
                    passes: c.passes.iter().map(|p| (*p).to_string()).collect(),
                    inline_threshold: c.inline_threshold,
                    unroll_threshold: c.unroll_threshold,
                    cycles,
                    baseline_cycles: t.baseline_cycles.unwrap_or(0),
                    features: t
                        .features
                        .as_ref()
                        .map(|f| f.as_slice().to_vec())
                        .unwrap_or_default(),
                });
            }
        }
    }
}

/// Copy a database by replaying its entries into a fresh in-memory one.
fn clone_db(db: &TuneDb) -> TuneDb {
    let mut out = TuneDb::in_memory();
    for e in db.iter() {
        out.record(e.clone());
    }
    out
}

/// The first half of the suite is tuned cold; the second half is tuned
/// against it predict-first on 1 and 4 threads, and with the predictor off.
/// The predictor-off database, floored at the `-O3` family, holds every
/// program's fully-tuned entry. Each program is then predicted from it minus
/// its own entry (features only: `predict` never runs the fitness) and the
/// predicted candidate is measured once.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "suite-wide real-compile search is release-only (CI: test-release)"
)]
fn leave_one_out_predictions_land_near_tuned_and_beat_o3_across_the_suite() {
    let ws: Vec<&'static Workload> = zkvm_opt::workloads::all().iter().collect();
    let ev = SuiteRunner::new()
        .batch_evaluator(&ws, VmKind::RiscZero)
        .expect("suite workloads compile");
    let targets = targets(&ev);
    let (n, half) = (targets.len(), targets.len() / 2);

    let mut known = TuneDb::in_memory();
    tune_range(&ev, &targets, 0..half, &loo_config(false, 4), &mut known);
    record_o3_floor(&ev, &targets, 0..half, &mut known);

    let [one, four] = [1, 4].map(|threads| {
        let mut db = clone_db(&known);
        let cfg = loo_config(true, threads);
        let report = tune_range(&ev, &targets, half..n, &cfg, &mut db);
        (db.to_string_pretty(), report.predicted_hits)
    });
    assert_eq!(
        one, four,
        "predict-first tune database must not depend on thread count"
    );

    let mut full = known;
    tune_range(&ev, &targets, half..n, &loo_config(false, 4), &mut full);
    record_o3_floor(&ev, &targets, half..n, &mut full);
    assert_eq!(full.len(), n, "every program tuned");

    let k = ServiceConfig::default().predict_k;
    let (mut vs_tuned, mut vs_o3, mut fallbacks) = (Vec::new(), Vec::new(), 0);
    for (i, t) in targets.iter().enumerate() {
        let p = Predictor::from_db_excluding(&full, k, Some(t.fingerprint)).predict(ev.features(i));
        fallbacks += usize::from(p.fallback);
        let o3 = ev.o3_cycles(i);
        // A predicted candidate that fails to validate counts as `-O3`.
        let predicted = ev
            .eval(i, &p.candidate.passes, &p.candidate.pass_config())
            .unwrap_or(o3);
        let tuned = full.get(t.fingerprint).expect("suite was tuned").cycles;
        vs_tuned.push(predicted as f64 / tuned as f64);
        vs_o3.push(predicted as f64 / o3 as f64);
    }
    let (g_tuned, g_o3) = (geomean(&vs_tuned), geomean(&vs_o3));
    println!(
        "leave-one-out over {n} programs: predicted/tuned {g_tuned:.4}, predicted/-O3 {g_o3:.4}, \
         {fallbacks} fallback(s); predict-first {}/{} predicted hits",
        one.1,
        n - half
    );
    assert!(
        g_tuned <= 1.05,
        "predictions must land within 5 % of fully-tuned (geomean {g_tuned:.4})"
    );
    assert!(
        g_o3 < 1.0,
        "predictions must strictly beat -O3 (geomean {g_o3:.4})"
    );
}

/// Every suite program on both VMs: the empty sequence and `-O3`'s names
/// link the evaluator's reference programs, as do many random draws; each
/// candidate must evaluate as the stage chain does.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "suite-wide real-compile evaluation is release-only (CI: test-release)"
)]
fn reference_answers_equal_the_stage_chain_across_the_suite() {
    let ws: Vec<&'static Workload> = zkvm_opt::workloads::all().iter().collect();
    let fixed = |passes| Candidate {
        passes,
        inline_threshold: 225,
        unroll_threshold: 200,
    };
    let mut candidates = vec![fixed(Vec::new()), fixed(PassManager::o3().names())];
    candidates.extend((0..20).map(|i| Candidate::random(SeedTree::new(1).seed(2, i), 20)));
    for vm in [VmKind::RiscZero, VmKind::Sp1] {
        let ev = SuiteRunner::new()
            .batch_evaluator(&ws, vm)
            .expect("suite workloads compile");
        for (widx, chain) in stage_chains(&ev, &ws).iter().enumerate() {
            for c in &candidates {
                assert_eq!(
                    ev.eval_classified(widx, &c.passes, &c.pass_config()),
                    chain.eval(c),
                    "{} on {vm:?} under {c:?}",
                    ws[widx].name
                );
            }
        }
    }
}
