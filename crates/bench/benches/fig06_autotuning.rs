//! Figure 6: autotuning speedup over -O3 (NPB + crypto suites; the paper runs
//! OpenTuner for 1600 iterations — the bench uses a reduced budget, the
//! report binary a larger one).

use criterion::{criterion_group, criterion_main, Criterion};
use zkvmopt_bench::{header, pct};
use zkvmopt_core::{gain, SuiteRunner};
use zkvmopt_tuner::{tune_suite, ServiceConfig, TuneDb};
use zkvmopt_vm::VmKind;

/// Tune one workload as a single population of `population` × 5 generations;
/// returns (`-O3` cycles, tuned cycles).
fn tune_one(name: &str, population: usize) -> (f64, f64) {
    // The batch evaluator lowers the workload once and measures its baseline
    // and -O3 reference; every candidate then pays passes + codegen + engine.
    let w = zkvmopt_workloads::by_name(name).expect("exists");
    let ev = SuiteRunner::new()
        .batch_evaluator(&[w], VmKind::RiscZero)
        .expect("baseline and -O3 run");
    let cfg = ServiceConfig {
        islands: 1,
        population,
        threads: 1,
        migration_interval: 0,
        ..Default::default()
    };
    // A candidate that diverges from the baseline journal is classed invalid
    // and can never win (the paper's SP1-bug channel).
    let report = tune_suite(
        &cfg,
        &ev.tune_targets(),
        &mut TuneDb::in_memory(),
        ev.classified_fitness(),
    );
    let tuned = &report.workloads[0];
    let best = tuned.best.as_ref().expect("a valid candidate");
    assert_eq!(
        ev.eval(0, &best.passes, &best.pass_config()),
        tuned.best_fitness,
        "{name}: tuned candidate re-runs"
    );
    (
        ev.o3_cycles(0) as f64,
        tuned.best_fitness.expect("measured") as f64,
    )
}

fn report() {
    header("Figure 6: autotuned pass sequences vs -O3 (cycle count, RISC Zero)");
    for name in ["npb-mg", "loop-sum", "sha2-bench"] {
        let (o3, tuned) = tune_one(name, 8);
        println!(
            "{name:<14} -O3 {o3:>12.0} cycles | tuned {tuned:>12.0} cycles | tuned vs -O3: {}",
            pct(gain(o3, tuned))
        );
        // The tuner must at least approach -O3 under this tiny budget.
        assert!(tuned <= o3 * 1.6, "{name}: tuner too far behind -O3");
    }
}

fn bench(c: &mut Criterion) {
    report();
    c.bench_function("fig06/tuner_20_iters_loop_sum", |b| {
        b.iter(|| tune_one("loop-sum", 4))
    });
}

criterion_group! { name = benches; config = Criterion::default().sample_size(10); targets = bench }
criterion_main!(benches);
