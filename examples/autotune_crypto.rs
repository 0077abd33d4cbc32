//! Autotune a cryptographic workload (paper §4.2): search pass sequences with
//! the genetic tuner using cycle count as the fitness function, then compare
//! the best sequence against `-O3`.
//!
//! Run with: `cargo run --release --example autotune_crypto`

use zkvm_opt::study::{gain, SuiteRunner};
use zkvm_opt::tuner::{tune_suite, ServiceConfig, TuneDb};
use zkvm_opt::vm::VmKind;

fn main() {
    // The batch evaluator lowers the workload once and measures its baseline
    // and `-O3` reference; every tuner candidate then only pays passes +
    // codegen + engine execution.
    let w = zkvm_opt::workloads::by_name("sha2-bench").expect("suite workload");
    println!(
        "autotuning `{}` on RISC Zero (fitness = cycle count)\n",
        w.name
    );
    let ev = SuiteRunner::new()
        .batch_evaluator(&[w], VmKind::RiscZero)
        .expect("baseline and -O3 run");
    let o3 = ev.o3_cycles(0);
    println!("baseline : {:>12} cycles", ev.baseline_cycles(0));
    println!("-O3      : {o3:>12} cycles");

    // One population of 16 for 5 generations: 80 evaluations. Candidates
    // that miscompile are classed `Divergence` and can never win — the
    // channel through which the paper's autotuner surfaced a real SP1
    // soundness bug.
    let config = ServiceConfig {
        islands: 1,
        population: 16,
        threads: 1,
        migration_interval: 0,
        ..Default::default()
    };
    let report = tune_suite(
        &config,
        &ev.tune_targets(),
        &mut TuneDb::in_memory(),
        ev.classified_fitness(),
    );
    let tuned = &report.workloads[0];
    let best = tuned.best.as_ref().expect("a valid candidate");
    let cycles = tuned.best_fitness.expect("measured");

    println!(
        "tuned    : {cycles:>12} cycles  ({} evaluations, {} quarantined)",
        tuned.evaluated, tuned.quarantine_total
    );
    println!(
        "tuned vs -O3 cycle gain: {:+.1}%",
        gain(o3 as f64, cycles as f64)
    );
    println!(
        "\nbest sequence (inline-threshold {}, unroll-threshold {}):",
        best.inline_threshold, best.unroll_threshold
    );
    for p in &best.passes {
        println!("  - {p}");
    }
}
