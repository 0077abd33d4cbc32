//! Pass-layer throughput in absolute units, over the 58-program suite.
//!
//! Two tables. The first is the production shape: one `PassManager::run` per
//! program on a fresh clone of its lowered module (what `OptProfile::apply`
//! does once per evaluation), summed over the suite at `-O2` and `-O3`, best
//! of three. The second is per registry entry: ns per IR instruction
//! entering the pass, over the suite from the lowered and the `-O1` starting
//! points. The ten most expensive entries are printed — the names behind
//! the benchmark's `passes.ms.other` — with the passes in [`TRACKED`]
//! printed on every run, and the geomean over all entries as the headline.
//! Beside them, the analysis substrate in absolute units: `Cfg::new` +
//! `DomTree::new` + `LoopForest::new` over every function of the same
//! starts, ns per block.
//!
//! No ratio is gated here: that a pipeline through one executor prints the
//! same IR as a fresh executor per pass is a test
//! (`manager_matches_uncached_execution` in `zkvmopt-passes`,
//! `tuner_sequences_match_per_pass_execution_on_the_suite` in
//! `tests/proptest_passes.rs`), not a bench.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use zkvmopt_ir::cfg::Cfg;
use zkvmopt_ir::dom::DomTree;
use zkvmopt_ir::loops::LoopForest;
use zkvmopt_ir::Module;
use zkvmopt_passes::{
    find_pass, is_noop_pass, pass_names, OptLevel, PassConfig, PassExecutor, PassManager,
};
use zkvmopt_stats::geomean;

/// Entries whose per-entry cost is printed on every run, in the top ten or
/// not: the kernels made linear in one sweep, so a regression still shows.
const TRACKED: [&str; 5] = [
    "mem2reg",
    "reg2mem",
    "simple-loop-unswitch",
    "loop-extract",
    "function-attrs",
];

/// Lower every workload once; passes run on clones of these base modules.
/// Smoke scale (`-- --test`) uses the reduced representative set.
fn lower_suite() -> Vec<Module> {
    let ws = if zkvmopt_bench::smoke() {
        zkvmopt_bench::bench_workloads()
    } else {
        zkvmopt_workloads::all().iter().collect()
    };
    ws.into_iter()
        .map(|w| {
            zkvmopt_lang::compile_guest(&w.source).unwrap_or_else(|e| panic!("{}: {e}", w.name))
        })
        .collect()
}

/// One pipeline run per suite program, each on a fresh clone; returns the
/// summed post-pass IR size so the work cannot be optimized away.
fn run_suite(pm: &PassManager, suite: &[Module], cfg: &PassConfig) -> usize {
    suite
        .iter()
        .map(|base| {
            let mut m = base.clone();
            pm.run(&mut m, cfg);
            m.size()
        })
        .sum()
}

/// Best-of-three wall time of [`run_suite`] at `level`, in ms.
fn suite_ms(level: OptLevel, suite: &[Module]) -> f64 {
    let (pm, cfg) = (PassManager::for_level(level), PassConfig::default());
    (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            black_box(run_suite(&pm, suite, &cfg));
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Every suite module as lowered and after `-O1`: the starts the per-entry
/// and analysis costs are measured on.
fn lowered_and_o1(suite: &[Module]) -> Vec<Module> {
    suite
        .iter()
        .flat_map(|base| {
            let mut o1 = base.clone();
            PassManager::for_level(OptLevel::O1).run(&mut o1, &PassConfig::default());
            [base.clone(), o1]
        })
        .collect()
}

/// ns per IR instruction entering the pass, per (non-no-op) registry entry,
/// most expensive first: each entry runs once, through a fresh executor, on a
/// clone of every start (best of two).
fn per_pass_cost(starts: &[Module]) -> Vec<(&'static str, f64)> {
    let cfg = PassConfig::default();
    let insts: usize = starts.iter().map(Module::size).sum();
    let mut rows: Vec<(&'static str, f64)> = pass_names()
        .iter()
        .filter(|name| !is_noop_pass(name))
        .map(|&name| {
            let entry = find_pass(name).expect("registered");
            let ns = (0..2)
                .map(|_| {
                    let mut ns = 0u128;
                    for start in starts {
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

/// ns per block of `Cfg::new` + `DomTree::new` + `LoopForest::new` over every
/// function of `starts` (best of three).
fn analysis_ns_per_block(starts: &[Module]) -> f64 {
    let funcs = || starts.iter().flat_map(|m| &m.funcs);
    let blocks: usize = funcs().map(|f| f.blocks.len()).sum();
    let ns = (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            for f in funcs() {
                let cfg = Cfg::new(f);
                let dom = DomTree::new(f, &cfg);
                black_box(LoopForest::new(f, &cfg, &dom));
            }
            t.elapsed().as_nanos()
        })
        .min()
        .expect("three rounds");
    ns as f64 / blocks as f64
}

fn report(suite: &[Module]) {
    zkvmopt_bench::header("Pass-layer throughput: suite pipelines and per-pass cost");
    let (o2_ms, o3_ms) = (suite_ms(OptLevel::O2, suite), suite_ms(OptLevel::O3, suite));
    println!(
        "one PassManager::run per program, {} programs, best of 3: -O2 {o2_ms:.1} ms, -O3 {o3_ms:.1} ms",
        suite.len()
    );

    let starts = lowered_and_o1(suite);
    let costs = per_pass_cost(&starts);
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
    let tracked = costs.iter().skip(10);
    for (name, ns) in tracked.filter(|(name, _)| TRACKED.contains(name)) {
        println!("{name:<28} {ns:>14.1}   (tracked)");
    }
    println!("{:<28} {cost_geomean:>14.1}", "geomean, all entries");
    let analysis_ns = analysis_ns_per_block(&starts);
    println!(
        "\nCfg + DomTree + LoopForest over every function of those starts, best of 3: \
         {analysis_ns:.1} ns per block"
    );
}

fn bench(c: &mut Criterion) {
    let suite = lower_suite();
    report(&suite);
    let cfg = PassConfig::default();
    for level in [OptLevel::O2, OptLevel::O3] {
        let pm = PassManager::for_level(level);
        c.bench_function(&format!("passes/suite{}", level.flag()), |b| {
            b.iter(|| run_suite(&pm, &suite, &cfg))
        });
    }
}

criterion_group! { name = benches; config = Criterion::default().sample_size(10); targets = bench }
criterion_main!(benches);
