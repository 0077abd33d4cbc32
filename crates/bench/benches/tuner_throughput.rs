//! Tuner throughput: the island-model autotuning service vs a sequential
//! search at an **equal evaluation budget**.
//!
//! The report partitions the bench workloads into three groups and tunes
//! each group twice through `zkvmopt_tuner::tune_suite` with one pinned
//! seed: once on a single worker thread (the sequential oracle) and once on
//! all cores. Both runs spend exactly the same budget — asserted — and,
//! because the service is deterministic in the seed regardless of thread
//! count, must produce **bit-identical tune databases** — also asserted, on
//! every group. The speedup is therefore pure parallel throughput; its
//! geomean across the groups is printed, not asserted (`benchmark/`'s A/B
//! is the speed gate, and its `tune_cold` workload runs the service on two
//! threads). Smoke scale (`-- --test`) tunes smaller groups at a quarter
//! of the budget.
//!
//! A final warm-start pass re-tunes everything against the populated
//! database and asserts **zero** fitness evaluations — the persistent-cache
//! acceptance criterion.
//!
//! Candidate fitness is real: each evaluation clones the workload's lowered
//! module, applies the candidate sequence, compiles to RISC-V, and runs it
//! on the block-dispatch engine with a differential check against the
//! baseline journal (miscompiles score `None`).

use criterion::{criterion_group, criterion_main, Criterion};
use zkvmopt_core::{BatchEvaluator, SuiteRunner};
use zkvmopt_passes::PassConfig;
use zkvmopt_stats::geomean;
use zkvmopt_tuner::{tune_suite, Candidate, EvalResult, ServiceConfig, TuneDb, TuneTarget};
use zkvmopt_vm::VmKind;
use zkvmopt_workloads::Workload;

/// Workload groups tuned as independent suites (small programs: candidate
/// evaluation cost is compile + execute, so tiny kernels keep the bench
/// quick while still exercising the full pipeline).
fn groups() -> Vec<Vec<&'static str>> {
    if zkvmopt_bench::smoke() {
        vec![
            vec!["loop-sum", "fibonacci"],
            vec!["tailcall", "factorial"],
            vec!["polybench-jacobi-1d", "polybench-trisolv"],
        ]
    } else {
        vec![
            vec!["loop-sum", "fibonacci", "factorial"],
            vec!["tailcall", "polybench-jacobi-1d", "polybench-trisolv"],
            vec!["polybench-atax", "polybench-bicg", "polybench-mvt"],
        ]
    }
}

fn service_config() -> ServiceConfig {
    let scale = if zkvmopt_bench::smoke() { 1 } else { 2 };
    ServiceConfig {
        islands: 2 * scale,
        population: 4,
        generations: 3 * scale,
        migration_interval: 2,
        threads: 0,
        seed: 0xC0FFEE,
        ..Default::default()
    }
}

struct Group {
    evaluator: BatchEvaluator,
    targets: Vec<TuneTarget>,
}

fn build_groups() -> Vec<Group> {
    let mut runner = SuiteRunner::new();
    groups()
        .iter()
        .map(|names| {
            let ws: Vec<&'static Workload> = names
                .iter()
                .map(|n| zkvmopt_workloads::by_name(n).expect("bench workload exists"))
                .collect();
            let evaluator = runner
                .batch_evaluator(&ws, VmKind::RiscZero)
                .expect("bench workloads compile");
            let targets = evaluator.tune_targets();
            Group { evaluator, targets }
        })
        .collect()
}

fn fitness(g: &Group) -> impl Fn(usize, &Candidate) -> EvalResult + Sync + '_ {
    |widx, c: &Candidate| {
        let cfg = PassConfig {
            inline_threshold: c.inline_threshold,
            unroll_threshold: c.unroll_threshold,
            ..PassConfig::default()
        };
        g.evaluator
            .eval_classified(widx, &c.passes, &cfg)
            .map_err(|e| e.class())
    }
}

fn tune(g: &Group, cfg: &ServiceConfig, db: &mut TuneDb) -> zkvmopt_tuner::ServiceReport {
    tune_suite(cfg, &g.targets, db, fitness(g))
}

fn report(suite: &[Group]) {
    zkvmopt_bench::header(
        "Tuner throughput: island-model service vs sequential search (equal budget)",
    );
    let cfg = service_config();
    let sequential = ServiceConfig {
        threads: 1,
        ..cfg.clone()
    };
    println!(
        "config: {} islands x {} population x {} generations = {} evals/workload, seed {:#x}",
        cfg.islands,
        cfg.population,
        cfg.generations,
        cfg.budget_per_workload(),
        cfg.seed
    );

    println!(
        "{:<28} {:>9} {:>12} {:>12} {:>9}",
        "group", "evals", "1-thread ms", "service ms", "speedup"
    );
    let mut speedups = Vec::new();
    let mut total_fitness_evals = 0usize;
    let mut total_cache_hits = 0usize;
    let mut total_postpass_hits = 0usize;
    let mut dbs: Vec<TuneDb> = Vec::new();
    for (gi, g) in suite.iter().enumerate() {
        let t = std::time::Instant::now();
        let mut seq_db = TuneDb::in_memory();
        let seq = tune(g, &sequential, &mut seq_db);
        let seq_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = std::time::Instant::now();
        let mut par_db = TuneDb::in_memory();
        let par = tune(g, &cfg, &mut par_db);
        let par_ms = t.elapsed().as_secs_f64() * 1e3;

        // Equal budget, and — same seed — bit-identical results: thread
        // count must influence wall-clock only.
        assert_eq!(
            seq.evaluated, par.evaluated,
            "group {gi}: budgets must match"
        );
        assert_eq!(
            seq.evaluated,
            g.targets.len() * cfg.budget_per_workload(),
            "group {gi}: budget must be islands x population x generations"
        );
        assert_eq!(
            seq_db.to_string_pretty(),
            par_db.to_string_pretty(),
            "group {gi}: tune database must not depend on thread count"
        );

        let speedup = seq_ms / par_ms;
        let names: Vec<&str> = g.targets.iter().map(|t| t.name.as_str()).collect();
        println!(
            "{:<28} {:>9} {seq_ms:>12.1} {par_ms:>12.1} {speedup:>8.2}x",
            names.join("+"),
            par.evaluated
        );
        speedups.push(speedup);
        total_fitness_evals += par.fitness_evals;
        total_cache_hits += par.cache_hits;
        total_postpass_hits += par.postpass_hits;
        dbs.push(par_db);
    }
    let g = geomean(&speedups);
    let evaluated: usize = suite
        .iter()
        .map(|g| g.targets.len() * cfg.budget_per_workload())
        .sum();
    let hit_rate = total_cache_hits as f64 / evaluated as f64;
    println!("\ngeomean service speedup at equal budget: {g:.2}x");
    println!(
        "cache: {total_cache_hits}/{evaluated} budget served by the sharded cache ({:.0}%)",
        hit_rate * 100.0
    );
    // Of the fitness calls the cache missed, the share whose post-pass IR
    // the same search had already compiled and executed.
    let postpass_hit_rate = total_postpass_hits as f64 / total_fitness_evals.max(1) as f64;
    println!(
        "post-pass memo: {total_postpass_hits}/{total_fitness_evals} fitness calls reused \
         an earlier call's codegen and execution ({:.0}%)",
        postpass_hit_rate * 100.0
    );

    // Warm start: the populated databases answer every workload with zero
    // fitness evaluations — the persistent-cache acceptance gate.
    let mut warm_hits = 0usize;
    for (g, db) in suite.iter().zip(&mut dbs) {
        let warm = tune(g, &cfg, db);
        assert_eq!(
            warm.fitness_evals, 0,
            "warm start must perform zero redundant fitness evaluations"
        );
        assert_eq!(warm.evaluated, 0, "warm start must spend no budget");
        assert_eq!(warm.db_hits, g.targets.len());
        warm_hits += warm.db_hits;
    }
    println!("warm start: {warm_hits} workloads answered from the tune db, 0 fitness evals");
}

fn bench(c: &mut Criterion) {
    let suite = build_groups();
    report(&suite);
    let cfg = service_config();
    c.bench_function("tuner/service-group0", |b| {
        b.iter(|| {
            let mut db = TuneDb::in_memory();
            tune(&suite[0], &cfg, &mut db).evaluated
        })
    });
}

criterion_group! { name = benches; config = Criterion::default().sample_size(10); targets = bench }
criterion_main!(benches);
