//! Predictive tuning: populate the tune database from a handful of
//! workloads, then predict a pass sequence for a held-out program from its
//! structural features alone — no search, no engine cycles — and compare
//! the predicted candidate against the fully-tuned result and `-O3`.
//!
//! Run with: `cargo run --release --example predict_tune`
//!
//! The schema-2 tune database stores each program's [`FeatureVector`]
//! (loop structure, memory density, instruction mix, ...) and its
//! unoptimized baseline next to the winning candidate. The [`Predictor`]
//! z-scores those features and takes a distance-weighted k-NN vote over
//! pass sequences, so a program the service has never tuned gets an answer
//! in microseconds. `tune_suite` with `predict: true` then measures that
//! one candidate and serves it when it lands within the acceptance margin
//! of the database's recorded quality — otherwise the prediction seeds the
//! island search.

use zkvm_opt::study::SuiteRunner;
use zkvm_opt::tuner::{tune_suite, Predictor, ServiceConfig, TuneDb};
use zkvm_opt::vm::VmKind;

fn main() {
    // The knowledge base: a mix of small kernels and PolyBench programs.
    let known = [
        "loop-sum",
        "fibonacci",
        "factorial",
        "polybench-jacobi-1d",
        "polybench-atax",
        "polybench-bicg",
    ];
    // The held-out program the predictor has never seen.
    let held_out = "polybench-trisolv";

    let workloads: Vec<_> = known
        .iter()
        .chain(std::iter::once(&held_out))
        .map(|n| zkvm_opt::workloads::by_name(n).expect("suite workload"))
        .collect();
    let mut runner = SuiteRunner::new();
    let evaluator = runner
        .batch_evaluator(&workloads, VmKind::RiscZero)
        .expect("suite workloads compile");
    let targets = evaluator.tune_targets();
    let held_idx = known.len();

    // Tune the knowledge base (predictor off: these are the examples).
    let config = ServiceConfig {
        islands: 2,
        population: 6,
        generations: 3,
        ..Default::default()
    };
    let mut db = TuneDb::in_memory();
    let report = tune_suite(
        &config,
        &targets[..held_idx],
        &mut db,
        evaluator.classified_fitness(),
    );
    println!(
        "knowledge base: {} programs tuned, {} evaluations spent\n",
        held_idx, report.evaluated
    );

    // Predict for the held-out program: features in, candidate out. This
    // touches neither the compiler nor the engine.
    let predictor = Predictor::from_db(&db, config.predict_k);
    let prediction = predictor.predict(evaluator.features(held_idx));
    println!("held-out program: {held_out}");
    println!(
        "predicted from {} neighbours ({} vote(s){}): {}",
        prediction.neighbors,
        prediction.votes,
        if prediction.fallback {
            ", -O3 fallback"
        } else {
            ""
        },
        prediction.candidate.passes.join(","),
    );
    println!(
        "predicted thresholds: inline {} unroll {}",
        prediction.candidate.inline_threshold, prediction.candidate.unroll_threshold
    );

    // Score the prediction against the alternatives it replaces.
    let predicted = evaluator
        .eval(
            held_idx,
            &prediction.candidate.passes,
            &prediction.candidate.pass_config(),
        )
        .expect("predicted candidate validates");
    let baseline = evaluator.baseline_cycles(held_idx);
    let o3 = evaluator.o3_cycles(held_idx);

    // The fully-tuned reference: what a cold island search would find.
    let tuned_report = tune_suite(
        &config,
        &targets[held_idx..],
        &mut TuneDb::in_memory(),
        |_, c| evaluator.classified_fitness()(held_idx, c),
    );
    let tuned = tuned_report.workloads[0]
        .best_fitness
        .expect("search finds a valid candidate");

    let pct = |c: u64| 100.0 * (baseline as f64 - c as f64) / baseline as f64;
    println!("\n{:<22} {:>12} {:>8}", "variant", "cycles", "gain");
    println!("{:<22} {:>12} {:>8}", "baseline", baseline, "-");
    println!("{:<22} {:>12} {:>7.1}%", "-O3", o3, pct(o3));
    println!(
        "{:<22} {:>12} {:>7.1}%   ({} evals)",
        "fully tuned",
        tuned,
        pct(tuned),
        tuned_report.evaluated
    );
    println!(
        "{:<22} {:>12} {:>7.1}%   (1 eval, prediction cost ~µs)",
        "predicted",
        predicted,
        pct(predicted)
    );
}
