//! Pass-pipeline throughput: the analysis-cached [`PassManager`] vs the
//! legacy uncached `run_pass` loop, over the full 58-program suite.
//!
//! Before timing anything, the new manager is proven **bit-identical** to the
//! legacy path: for every workload × {-O2, -O3}, both paths must produce the
//! same printed IR and the same static instruction counts, and the -O2 output
//! must execute to the same cycle count — so every later speedup number
//! describes the *same* optimization outcomes, faster.
//!
//! The timed scenario models the tuner's hot loop: the same pipeline applied
//! repeatedly (duplicate candidates, fixpoint groups). The legacy path pays
//! the full pipeline every time — every pass re-walks every function and
//! rebuilds `Cfg`/`DomTree`/`LoopForest` from scratch; the cached executor
//! converges once and then skips passes that provably cannot change anything.
//! The acceptance bar is a ≥1.5× geomean over the suite (advisory under CI
//! noise via `ZKVMOPT_SPEEDUP_ADVISORY=1`, like `engine_throughput`). Both
//! sides run the same pass bodies, so the ratio says nothing about how fast
//! a pass is — a 3× faster pass layer left it at 2.3×.
//!
//! The pass layer in absolute units is the second table: for every registry
//! entry, ns per IR instruction entering the pass, over the suite from the
//! lowered and the `-O1` starting points. The ten most expensive entries are
//! printed and recorded — the names behind the benchmark's
//! `passes.ms.other` — with the geomean over all entries as the headline
//! (`passes_ns_per_ir_inst_geomean`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use zkvmopt_ir::Module;
use zkvmopt_passes::{
    find_pass, is_noop_pass, pass_names, run_pass, OptLevel, PassConfig, PassExecutor, PassManager,
};
use zkvmopt_stats::geomean;
use zkvmopt_workloads::Workload;

/// Pipeline repetitions per measurement — the tuner's duplicate-candidate /
/// fixpoint shape.
const REPEATS: usize = 8;

/// Lower every workload once; passes run on clones of these base modules.
/// CI smoke mode (`ZKVMOPT_BENCH_SMOKE=1`) uses the reduced representative
/// set so the trajectory job stays fast.
fn lower_suite() -> Vec<(&'static Workload, Module)> {
    let ws: Vec<&'static Workload> = if zkvmopt_bench::smoke() {
        zkvmopt_bench::bench_workloads()
    } else {
        zkvmopt_workloads::all().iter().collect()
    };
    ws.into_iter()
        .map(|w| {
            let m = zkvmopt_lang::compile_guest(&w.source)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            (w, m)
        })
        .collect()
}

fn legacy_apply(pm: &PassManager, m: &mut Module, cfg: &PassConfig, repeats: usize) {
    for _ in 0..repeats {
        for name in pm.names() {
            run_pass(name, m, cfg);
        }
    }
}

fn cached_apply(pm: &PassManager, m: &mut Module, cfg: &PassConfig, repeats: usize) {
    let mut ex = PassExecutor::new();
    for _ in 0..repeats {
        pm.run_with(m, cfg, &mut ex);
    }
}

/// Static instruction count + executed RISC Zero cycles of a module.
fn observe(m: &Module, w: &Workload) -> (usize, u64) {
    let program = zkvmopt_riscv::compile_module(m, &zkvmopt_riscv::TargetCostModel::cpu())
        .unwrap_or_else(|e| panic!("{}: codegen: {e}", w.name));
    let decoded = zkvmopt_vm::DecodedProgram::decode(&program);
    let report = zkvmopt_vm::run_decoded(&decoded, zkvmopt_vm::VmKind::RiscZero, &w.inputs)
        .unwrap_or_else(|e| panic!("{}: exec: {e}", w.name));
    (m.size(), report.total_cycles)
}

/// Gate: legacy and cached execution must be indistinguishable — identical
/// printed IR, static counts, and executed cycles — before anything is timed.
fn bit_identity_gate(suite: &[(&'static Workload, Module)]) {
    let cfg = PassConfig::default();
    for level in [OptLevel::O2, OptLevel::O3] {
        let pm = PassManager::for_level(level);
        for (w, base) in suite {
            for repeats in [1, REPEATS] {
                let mut legacy = base.clone();
                legacy_apply(&pm, &mut legacy, &cfg, repeats);
                let mut cached = base.clone();
                cached_apply(&pm, &mut cached, &cfg, repeats);
                assert_eq!(
                    zkvmopt_ir::print::module_to_string(&legacy),
                    zkvmopt_ir::print::module_to_string(&cached),
                    "{} at {level:?} (×{repeats}): IR diverged",
                    w.name
                );
            }
            // Observable behaviour of the single-run -O2/-O3 output.
            let mut legacy = base.clone();
            legacy_apply(&pm, &mut legacy, &cfg, 1);
            let mut cached = base.clone();
            cached_apply(&pm, &mut cached, &cfg, 1);
            let (lsize, lcycles) = observe(&legacy, w);
            let (csize, ccycles) = observe(&cached, w);
            assert_eq!(lsize, csize, "{} at {level:?}: static count", w.name);
            assert_eq!(lcycles, ccycles, "{} at {level:?}: cycles", w.name);
        }
    }
    println!(
        "bit-identity: {} workloads x {{-O2, -O3}} x {{1, {REPEATS}}} runs OK",
        suite.len()
    );
}

/// ns per IR instruction entering the pass, per (non-no-op) registry entry,
/// most expensive first: each entry runs once, through a fresh executor, on a
/// clone of every suite module as lowered and after `-O1` (best of two).
fn per_pass_cost(suite: &[(&'static Workload, Module)]) -> Vec<(&'static str, f64)> {
    let cfg = PassConfig::default();
    let starts: Vec<Module> = suite
        .iter()
        .flat_map(|(_, base)| {
            let mut o1 = base.clone();
            PassManager::for_level(OptLevel::O1).run(&mut o1, &cfg);
            [base.clone(), o1]
        })
        .collect();
    let insts: usize = starts.iter().map(Module::size).sum();
    let mut rows: Vec<(&'static str, f64)> = pass_names()
        .iter()
        .filter(|name| !is_noop_pass(name))
        .map(|&name| {
            let entry = find_pass(name).expect("registered");
            let ns = (0..2)
                .map(|_| {
                    let mut ns = 0u128;
                    for start in &starts {
                        let mut m = start.clone();
                        let t = std::time::Instant::now();
                        black_box(PassExecutor::new().run_entry(entry, &mut m, &cfg));
                        ns += t.elapsed().as_nanos();
                    }
                    ns
                })
                .min()
                .expect("two rounds");
            (name, ns as f64 / insts as f64)
        })
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows
}

fn report(suite: &[(&'static Workload, Module)]) {
    zkvmopt_bench::header(
        "Pass-pipeline throughput: analysis-cached PassManager vs uncached run_pass (-O2)",
    );
    bit_identity_gate(suite);

    let cfg = PassConfig::default();
    let pm = PassManager::for_level(OptLevel::O2);
    println!(
        "{:<26} {:>12} {:>12} {:>9}   ({}x repeated -O2 pipeline)",
        "workload", "legacy ms", "cached ms", "speedup", REPEATS
    );
    let mut speedups = Vec::new();
    for (w, base) in suite {
        let time = |f: &dyn Fn() -> usize| -> f64 {
            (0..3)
                .map(|_| {
                    let t = std::time::Instant::now();
                    black_box(f());
                    t.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::INFINITY, f64::min)
        };
        let legacy_ms = time(&|| {
            let mut m = base.clone();
            legacy_apply(&pm, &mut m, &cfg, REPEATS);
            m.size()
        });
        let cached_ms = time(&|| {
            let mut m = base.clone();
            cached_apply(&pm, &mut m, &cfg, REPEATS);
            m.size()
        });
        let speedup = legacy_ms / cached_ms;
        println!(
            "{:<26} {legacy_ms:>12.3} {cached_ms:>12.3} {speedup:>8.2}x",
            w.name
        );
        speedups.push(speedup);
    }
    let g = geomean(&speedups);
    println!(
        "\ngeomean speedup over the {}-program suite: {g:.2}x",
        suite.len()
    );

    let costs = per_pass_cost(suite);
    let cost_geomean = geomean(&costs.iter().map(|(_, ns)| *ns).collect::<Vec<_>>());
    println!(
        "\n{:<28} {:>14}   (top 10 of {} registry entries; lowered + -O1 starts)",
        "pass",
        "ns / IR inst",
        costs.len()
    );
    for (name, ns) in costs.iter().take(10) {
        println!("{name:<28} {ns:>14.1}");
    }
    println!("{:<28} {cost_geomean:>14.1}", "geomean, all entries");

    let top: Vec<(String, f64)> = costs
        .iter()
        .take(10)
        .map(|(name, ns)| (format!("ns_per_ir_inst.{name}"), *ns))
        .collect();
    let mut metrics: Vec<(&str, f64)> = vec![
        ("geomean_speedup", g),
        ("workloads", suite.len() as f64),
        ("repeats", REPEATS as f64),
        ("passes_ns_per_ir_inst_geomean", cost_geomean),
    ];
    metrics.extend(top.iter().map(|(k, v)| (k.as_str(), *v)));
    zkvmopt_bench::trajectory::record("pass_pipeline_throughput", &metrics);
    zkvmopt_bench::gate_speedup(
        "cached pass manager vs the uncached loop on repeated pipelines",
        g,
        1.5,
        1,
    );
}

fn bench(c: &mut Criterion) {
    let suite = lower_suite();
    report(&suite);
    let cfg = PassConfig::default();
    let pm = PassManager::for_level(OptLevel::O2);
    c.bench_function(&format!("passes/suite-O2-cached-x{REPEATS}"), |b| {
        b.iter(|| {
            suite
                .iter()
                .map(|(_, base)| {
                    let mut m = base.clone();
                    cached_apply(&pm, &mut m, &cfg, REPEATS);
                    m.size()
                })
                .sum::<usize>()
        })
    });
    c.bench_function(&format!("passes/suite-O2-legacy-x{REPEATS}"), |b| {
        b.iter(|| {
            suite
                .iter()
                .map(|(_, base)| {
                    let mut m = base.clone();
                    legacy_apply(&pm, &mut m, &cfg, REPEATS);
                    m.size()
                })
                .sum::<usize>()
        })
    });
}

criterion_group! { name = benches; config = Criterion::default().sample_size(10); targets = bench }
criterion_main!(benches);
