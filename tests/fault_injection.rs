//! Chaos gates for the fault-tolerant tuning service, on the **real**
//! compile-and-execute pipeline:
//!
//! 1. **Persistent faults** — deterministic injected panics, traps, and
//!    budget blowouts at a ≥10% combined rate are final outcomes: they are
//!    quarantined by class, never retried, and the run reaches the
//!    **bit-identical** tune database and quarantine at 1 and at 4 threads.
//! 2. **Kill + resume** — a child process runs the service with
//!    checkpointing and `abort()`s mid-search at an arbitrary point; the
//!    parent resumes from whatever checkpoint survived and must reach the
//!    same database as an uninterrupted run, with no lost entries and no
//!    redundant re-evaluation of checkpointed candidates.
//! 3. **Corrupted-checkpoint recovery** — a garbled checkpoint is salvaged
//!    (`CheckpointStatus::Recovered`), and the run still converges.
//!
//! The search evaluates real compiles, so the suite is release-only:
//!
//! ```text
//! cargo test --release --test fault_injection -- --include-ignored
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use zkvm_opt::study::SuiteRunner;
use zkvm_opt::tuner::{
    tune_suite, Candidate, CheckpointStatus, EvalResult, FailureClass, FaultConfig, FaultPlan,
    ServiceConfig, TuneDb, TuneTarget,
};
use zkvmopt_core::BatchEvaluator;
use zkvmopt_passes::PassConfig;
use zkvmopt_workloads::Workload;

const WORKLOADS: [&str; 3] = ["loop-sum", "fibonacci", "tailcall"];
const SEED: u64 = 0xFA_B1E;

fn evaluator() -> BatchEvaluator {
    let ws: Vec<&'static Workload> = WORKLOADS
        .iter()
        .map(|n| zkvm_opt::workloads::by_name(n).expect("suite workload"))
        .collect();
    SuiteRunner::new()
        .batch_evaluator(&ws, zkvm_opt::vm::VmKind::RiscZero)
        .expect("suite workloads compile")
}

fn targets(ev: &BatchEvaluator) -> Vec<TuneTarget> {
    ev.tune_targets()
}

fn classified(ev: &BatchEvaluator, widx: usize, c: &Candidate) -> EvalResult {
    let cfg = PassConfig {
        inline_threshold: c.inline_threshold,
        unroll_threshold: c.unroll_threshold,
        ..PassConfig::default()
    };
    ev.eval_classified(widx, &c.passes, &cfg)
        .map_err(|e| e.class())
}

/// One shared search shape: every test (and the aborted child process) must
/// use the identical configuration or checkpoint digests will not match.
fn config(threads: usize) -> ServiceConfig {
    ServiceConfig {
        islands: 2,
        population: 4,
        generations: 3,
        migration_interval: 2,
        seed: SEED,
        threads,
        ..Default::default()
    }
}

/// The uninterrupted, fault-free run every gate compares against.
fn reference_run(ev: &BatchEvaluator) -> (TuneDb, zkvm_opt::tuner::ServiceReport) {
    let mut db = TuneDb::in_memory();
    let report = tune_suite(&config(1), &targets(ev), &mut db, |widx, c| {
        classified(ev, widx, c)
    });
    (db, report)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("zkvmopt-fi-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "real-compile chaos run is release-only (CI: chaos)"
)]
fn persistent_faults_at_ten_percent_rates_are_final_and_thread_count_independent() {
    let ev = evaluator();
    let plan = FaultPlan::new(FaultConfig {
        panic_rate: 0.12,
        trap_rate: 0.10,
        budget_rate: 0.06,
        ..Default::default()
    });
    let fitness = plan.wrap(|widx, c: &Candidate| classified(&ev, widx, c));

    let mut runs = Vec::new();
    for threads in [1, 4] {
        let mut db = TuneDb::in_memory();
        let report = tune_suite(&config(threads), &targets(&ev), &mut db, &fitness);
        runs.push((db.to_string_pretty(), report));
    }
    let (db, report) = &runs[0];
    use FailureClass::{Budget, Panic, Trap};
    for class in [Panic, Trap, Budget] {
        let mut held = report.workloads.iter().flat_map(|w| &w.quarantined);
        assert!(
            held.any(|q| q.class == class),
            "no injected {class} was quarantined"
        );
    }
    assert_eq!(report.retries, 0, "no outcome is retried");
    for (text, r) in &runs {
        assert_eq!(text, db, "faulted database must not depend on thread count");
        for (a, b) in r.workloads.iter().zip(&report.workloads) {
            assert_eq!(a.quarantined, b.quarantined, "{}", a.name);
            assert_eq!(a.evaluated, a.fitness_evals + a.cache_hits, "{}", a.name);
        }
    }
}

/// Child half of the kill/resume gate: runs the checkpointing service and
/// `abort()`s after `ZKVMOPT_FI_KILL_AFTER` fitness calls. Spawned by
/// `kill_at_arbitrary_points_then_resume_loses_no_entries`; inert (passes
/// vacuously) when the driving environment variables are absent.
#[test]
#[ignore = "subprocess half of the kill/resume gate; driven via env vars"]
fn kill_resume_child() {
    let (Ok(ckpt), Ok(kill_after)) = (
        std::env::var("ZKVMOPT_FI_CKPT"),
        std::env::var("ZKVMOPT_FI_KILL_AFTER"),
    ) else {
        return;
    };
    let kill_after: usize = kill_after.parse().expect("kill-after count");
    let ev = evaluator();
    let mut cfg = config(1);
    cfg.checkpoint_path = Some(ckpt.into());

    let calls = AtomicUsize::new(0);
    let mut db = TuneDb::in_memory();
    tune_suite(&cfg, &targets(&ev), &mut db, |widx, c| {
        if calls.fetch_add(1, Ordering::Relaxed) + 1 == kill_after {
            std::process::abort(); // simulated crash mid-search
        }
        classified(&ev, widx, c)
    });
    // Reachable only if the kill point exceeds the total fitness calls: the
    // parent always picks one inside the budget, so getting here is a bug.
    std::process::exit(3);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "real-compile kill/resume gate is release-only (CI: chaos)"
)]
fn kill_at_arbitrary_points_then_resume_loses_no_entries() {
    let ev = evaluator();
    let (clean_db, clean) = reference_run(&ev);
    let reference = clean_db.to_string_pretty();
    let dir = temp_dir("killresume");
    let ckpt = dir.join("service.ckpt");
    let exe = std::env::current_exe().expect("test binary path");

    // Kill very early (likely before the first checkpoint barrier), mid-run,
    // and late (most of the search already checkpointed).
    for kill_after in [3usize, 17, 40] {
        let _ = std::fs::remove_file(&ckpt);
        let status = std::process::Command::new(&exe)
            .args(["--exact", "kill_resume_child", "--ignored", "--nocapture"])
            .env("ZKVMOPT_FI_CKPT", &ckpt)
            .env("ZKVMOPT_FI_KILL_AFTER", kill_after.to_string())
            .status()
            .expect("spawn child");
        assert!(
            !status.success(),
            "kill@{kill_after}: child must die mid-search (got {status})"
        );

        // Resume against whatever checkpoint (if any) the crash left behind.
        let mut cfg = config(1);
        cfg.checkpoint_path = Some(ckpt.clone());
        let mut db = TuneDb::in_memory();
        let report = tune_suite(&cfg, &targets(&ev), &mut db, |widx, c| {
            classified(&ev, widx, c)
        });

        assert_eq!(
            db.to_string_pretty(),
            reference,
            "kill@{kill_after}: resumed database must match the uninterrupted run"
        );
        match report.checkpoint_status {
            CheckpointStatus::Absent => {
                assert_eq!(report.resumed_entries, 0, "kill@{kill_after}");
            }
            CheckpointStatus::Loaded { entries } => {
                assert_eq!(report.resumed_entries, entries, "kill@{kill_after}");
                assert!(entries > 0, "kill@{kill_after}: loaded an empty checkpoint");
            }
            ref other => panic!("kill@{kill_after}: unexpected checkpoint status {other:?}"),
        }
        // Zero redundant evaluations: the deterministic replay re-requests
        // exactly the fault-free run's key set, and every checkpointed key
        // is answered from the preload instead of a fitness call.
        assert_eq!(
            report.fitness_evals,
            clean.fitness_evals - report.resumed_entries,
            "kill@{kill_after}: checkpointed work was re-evaluated"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "real-compile recovery gate is release-only (CI: chaos)"
)]
fn corrupted_checkpoints_are_salvaged_and_still_converge() {
    let ev = evaluator();
    let (clean_db, _) = reference_run(&ev);
    let reference = clean_db.to_string_pretty();
    let dir = temp_dir("recover");
    let ckpt = dir.join("service.ckpt");

    // A complete run leaves a full checkpoint behind.
    let mut cfg = config(1);
    cfg.checkpoint_path = Some(ckpt.clone());
    let mut db = TuneDb::in_memory();
    tune_suite(&cfg, &targets(&ev), &mut db, |widx, c| {
        classified(&ev, widx, c)
    });
    assert_eq!(db.to_string_pretty(), reference);

    // Garble the middle of the file: flip one line to junk, truncate the
    // tail mid-line — the salvage path must keep the valid prefix lines.
    let text = std::fs::read_to_string(&ckpt).expect("checkpoint exists");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 4, "expected a populated checkpoint");
    let mut garbled: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    let mid = garbled.len() / 2;
    garbled[mid] = "deadbeef not-a-number parse".to_string();
    let last = garbled.len() - 1;
    garbled[last] = garbled[last][..garbled[last].len() / 2].to_string();
    std::fs::write(&ckpt, garbled.join("\n")).expect("write garbled checkpoint");

    let mut db2 = TuneDb::in_memory();
    let report = tune_suite(&cfg, &targets(&ev), &mut db2, |widx, c| {
        classified(&ev, widx, c)
    });
    match report.checkpoint_status {
        CheckpointStatus::Recovered { kept, dropped, .. } => {
            assert!(dropped > 0, "garbled lines must be counted as dropped");
            assert_eq!(report.resumed_entries, kept);
        }
        ref other => panic!("expected Recovered, got {other:?}"),
    }
    assert_eq!(
        db2.to_string_pretty(),
        reference,
        "salvaged resume must still converge to the uninterrupted database"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
