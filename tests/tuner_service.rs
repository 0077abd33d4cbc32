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
//!    outside any search, gives the identical result (payload included); on
//!    one thread the memo answers exactly the calls whose post-pass IR the
//!    search had already seen; and no memo state outlives a search.
//!
//! The search evaluates hundreds of real compiles, so the suite is
//! release-only, like the suite-wide differential harness:
//!
//! ```text
//! cargo test --release --test tuner_service -- --include-ignored
//! ```

use std::collections::BTreeSet;
use std::sync::Mutex;
use zkvm_opt::study::SuiteRunner;
use zkvm_opt::tuner::{tune_suite, Candidate, EvalResult, ServiceConfig, TuneDb, TuneTarget};
use zkvm_opt::vm::VmKind;
use zkvmopt_core::{BatchEvaluator, OptProfile, PipelineError};
use zkvmopt_passes::PassConfig;
use zkvmopt_workloads::Workload;

const WORKLOADS: [&str; 3] = ["loop-sum", "fibonacci", "tailcall"];
const SEED: u64 = 0xC0FFEE;

fn evaluator() -> BatchEvaluator {
    let ws: Vec<&'static Workload> = WORKLOADS
        .iter()
        .map(|n| zkvm_opt::workloads::by_name(n).expect("suite workload"))
        .collect();
    SuiteRunner::new()
        .batch_evaluator(&ws, VmKind::RiscZero)
        .expect("suite workloads compile")
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

fn run_service(
    ev: &BatchEvaluator,
    threads: usize,
    db: &mut TuneDb,
) -> zkvm_opt::tuner::ServiceReport {
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
fn recorded_search(
    ev: &BatchEvaluator,
    threads: usize,
) -> (zkvm_opt::tuner::ServiceReport, Vec<Call>) {
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
    for threads in [1, 2] {
        let (report, calls) = recorded_search(&ev, threads);
        assert_eq!(calls.len(), report.fitness_evals, "threads={threads}");
        assert!(
            report.postpass_hits > 0,
            "threads={threads}: the search must exercise the memo"
        );
        for (widx, c, in_search) in &calls {
            let fresh = ev.eval_classified(*widx, &c.passes, &c.pass_config());
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
