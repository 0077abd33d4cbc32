//! The autotuning service: tune several workloads concurrently with the
//! island-model search, persist the results in the tune database, and
//! warm-start the second run from it.
//!
//! Run with: `cargo run --release --example autotune_service`
//!
//! Compare `autotune_crypto`, which drives the sequential single-workload
//! tuner. This example uses the parallel path: a `BatchEvaluator` snapshots
//! each workload's lowered module once, then every island evolves candidates
//! concurrently — each evaluation applies the candidate sequence, compiles
//! to RISC-V, and runs the block-dispatch engine with a differential check
//! against the baseline journal. Results land in `target/tune.db`; rerunning
//! the example answers every workload from the database with zero fitness
//! evaluations. Delete the file (or tune new programs) to search again.

use zkvm_opt::study::SuiteRunner;
use zkvm_opt::tuner::{tune_suite, ServiceConfig, TuneDb, TuneTarget};
use zkvm_opt::vm::VmKind;

fn main() {
    let names = ["loop-sum", "fibonacci", "tailcall", "sha2-bench"];
    let workloads: Vec<_> = names
        .iter()
        .map(|n| zkvm_opt::workloads::by_name(n).expect("suite workload"))
        .collect();

    let mut runner = SuiteRunner::new();
    let evaluator = runner
        .batch_evaluator(&workloads, VmKind::RiscZero)
        .expect("suite workloads compile");
    let targets: Vec<TuneTarget> = evaluator.tune_targets();

    // `ZKVMOPT_SEED` overrides the seed; results are identical for a given
    // seed regardless of thread count.
    let config = ServiceConfig {
        islands: 2,
        population: 8,
        generations: 4,
        ..Default::default()
    }
    .with_seed_from_env();
    println!(
        "tuning {} workloads: {} islands x {} population x {} generations \
         = {} evaluations per workload\n",
        targets.len(),
        config.islands,
        config.population,
        config.generations,
        config.budget_per_workload()
    );

    let mut db = TuneDb::open("target/tune.db");
    println!("tune db: target/tune.db ({})\n", db.load_status());

    // The classified fitness isolates panics, enforces per-candidate cycle
    // budgets, and reports every failure as a `FailureClass` the service
    // quarantines.
    let report = tune_suite(&config, &targets, &mut db, evaluator.classified_fitness());
    db.save().expect("tune db saves");

    println!(
        "{:<14} {:>12} {:>12} {:>8}   best sequence",
        "workload", "baseline", "tuned", "gain"
    );
    for (i, w) in report.workloads.iter().enumerate() {
        let base = evaluator.baseline_cycles(i);
        let tuned = w.best_fitness.expect("valid candidate found");
        let seq = w
            .best
            .as_ref()
            .map(|c| c.passes.join(","))
            .unwrap_or_default();
        println!(
            "{:<14} {base:>12} {tuned:>12} {:>7.1}%   {}{seq}",
            w.name,
            100.0 * (base as f64 - tuned as f64) / base as f64,
            if w.warm_started { "[warm] " } else { "" },
        );
    }
    println!(
        "\nbudget spent: {} evaluations ({} fitness calls, {} cache hits, \
         {} answered from the tune db)",
        report.evaluated, report.fitness_evals, report.cache_hits, report.db_hits
    );
    println!(
        "post-pass memo: {} of the {} fitness calls reused the codegen and \
         execution of IR this search had already produced",
        report.postpass_hits, report.fitness_evals
    );
    if report.quarantine_total > 0 {
        println!(
            "fault tolerance: {} candidates quarantined, {} workloads demoted",
            report.quarantine_total, report.demoted
        );
    }
    if report.db_hits == targets.len() {
        println!("everything warm-started — delete target/tune.db to search again");
    }
}
