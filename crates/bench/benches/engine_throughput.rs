//! Engine throughput in absolute units: guest MIPS of the block-dispatch
//! engine per VM kind and codegen ns per IR instruction, over the 58-program
//! suite at -O2 — beside the engine's ratio to the original decode-per-step
//! interpreter.
//!
//! Before timing anything, every workload is executed on **both** VM kinds
//! through both executors and all cost metrics are asserted identical — the
//! numbers are only meaningful because the engine is bit-exact. The report
//! prints per-workload times, the suite totals, the ratio to the step
//! interpreter and the share of loads and stores the residency table
//! serves; the ratios are printed, not asserted — `benchmark/`'s A/B is the
//! speed gate. Criterion then measures the two full-suite sweeps.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use zkvmopt_core::suite::CompiledWorkload;
use zkvmopt_core::{OptLevel, OptProfile, SuiteRunner};
use zkvmopt_passes::{PassConfig, PassManager};
use zkvmopt_riscv::TargetCostModel;
use zkvmopt_stats::geomean;
use zkvmopt_vm::{run_decoded, run_program_reference, VmKind};
use zkvmopt_workloads::Workload;

/// Compile + pre-decode the whole suite at -O2 once; smoke scale
/// (`-- --test`) uses the reduced representative set.
fn compile_suite() -> Vec<(&'static Workload, CompiledWorkload)> {
    let mut runner = SuiteRunner::new();
    let o2 = OptProfile::level(OptLevel::O2);
    let ws: Vec<&'static Workload> = if zkvmopt_bench::smoke() {
        zkvmopt_bench::bench_workloads()
    } else {
        zkvmopt_workloads::all().iter().collect()
    };
    ws.into_iter()
        .map(|w| {
            let cw = runner
                .compile(w, &o2)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            (w, cw.clone())
        })
        .collect()
}

/// Run one workload through the engine (from the cached decode).
fn run_engine(w: &Workload, cw: &CompiledWorkload, vm: VmKind) -> u64 {
    run_decoded(&cw.decoded, vm, &w.inputs)
        .unwrap_or_else(|e| panic!("{} engine: {e}", w.name))
        .total_cycles
}

/// Run one workload through the reference step interpreter.
fn run_reference(w: &Workload, cw: &CompiledWorkload, vm: VmKind) -> u64 {
    run_program_reference(&cw.program, vm, &w.inputs)
        .unwrap_or_else(|e| panic!("{} reference: {e}", w.name))
        .total_cycles
}

/// Wall clock of `f` in milliseconds, best of 3.
fn best_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn report(suite: &[(&'static Workload, CompiledWorkload)]) {
    zkvmopt_bench::header("Engine throughput: block-dispatch engine vs step interpreter (-O2)");

    // Bit-identity gate on both VM kinds before any timing.
    for (w, cw) in suite {
        for vm in VmKind::BOTH {
            let old = run_program_reference(&cw.program, vm, &w.inputs)
                .unwrap_or_else(|e| panic!("{} reference: {e}", w.name));
            let new = run_decoded(&cw.decoded, vm, &w.inputs)
                .unwrap_or_else(|e| panic!("{} engine: {e}", w.name));
            assert_eq!(new.total_cycles, old.total_cycles, "{} on {vm}", w.name);
            assert_eq!(new.instret, old.instret, "{} on {vm}", w.name);
            assert_eq!(new.paging_cycles, old.paging_cycles, "{} on {vm}", w.name);
            assert_eq!(new.segments, old.segments, "{} on {vm}", w.name);
            assert_eq!(new.journal, old.journal, "{} on {vm}", w.name);
            assert_eq!(new.exit_code, old.exit_code, "{} on {vm}", w.name);
        }
    }
    println!(
        "bit-identity: all {} workloads x both VM kinds OK",
        suite.len()
    );

    // Per-workload wall clock (best of 3 per executor), both VM kinds.
    println!(
        "{:<26} {:>14} {:>12} {:>12} {:>9}",
        "workload", "cycles", "interp ms", "engine ms", "speedup"
    );
    let mut speedups = Vec::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    // Per VM kind: (guest instructions, engine ms) over the suite.
    let mut retired = [(0u64, 0.0f64); 2];
    for (w, cw) in suite {
        let probe = run_decoded(&cw.decoded, VmKind::RiscZero, &w.inputs)
            .unwrap_or_else(|e| panic!("{} engine: {e}", w.name));
        hits += probe.stats.probe_hits;
        misses += probe.stats.probe_misses;
        let old_ms = best_ms(|| run_reference(w, cw, VmKind::RiscZero));
        let mut new_ms = 0.0;
        for (vm, total) in VmKind::BOTH.into_iter().zip(&mut retired) {
            let ms = best_ms(|| run_engine(w, cw, vm));
            *total = (total.0 + probe.instret, total.1 + ms);
            if vm == VmKind::RiscZero {
                new_ms = ms;
            }
        }
        let speedup = old_ms / new_ms;
        println!(
            "{:<26} {:>14} {old_ms:>12.3} {new_ms:>12.3} {speedup:>8.2}x",
            w.name, probe.total_cycles
        );
        speedups.push(speedup);
    }
    let g = geomean(&speedups);
    let [mips_r0, mips_sp1] = retired.map(|(insts, ms)| insts as f64 / ms / 1e3);
    let codegen_ns = codegen_ns_per_ir_inst(suite);
    println!(
        "\nengine: {mips_r0:.0} guest MIPS on RISC Zero, {mips_sp1:.0} on SP1; \
         codegen: {codegen_ns:.0} ns per IR instruction"
    );
    println!(
        "vs the step interpreter over the {}-program suite at -O2: {g:.2}x geomean \
         ({:.2}% of loads and stores served from the residency table)",
        suite.len(),
        100.0 * hits as f64 / (hits + misses).max(1) as f64
    );
}

/// Codegen (isel + register allocation + link) wall clock per IR instruction
/// entering it, over the suite's -O2 modules.
fn codegen_ns_per_ir_inst(suite: &[(&'static Workload, CompiledWorkload)]) -> f64 {
    let (mut insts, mut ns) = (0usize, 0.0f64);
    for (w, _) in suite {
        let mut m = zkvmopt_lang::compile_guest(&w.source).expect("suite program compiles");
        PassManager::o2().run(&mut m, &PassConfig::default());
        insts += m.size();
        let cm = TargetCostModel::default();
        ns +=
            1e6 * best_ms(|| zkvmopt_riscv::compile_module(&m, &cm).expect("suite program lowers"));
    }
    ns / insts as f64
}

fn bench(c: &mut Criterion) {
    let suite = compile_suite();
    report(&suite);
    c.bench_function("engine/suite-O2-risczero", |b| {
        b.iter(|| {
            suite
                .iter()
                .map(|(w, cw)| run_engine(w, cw, VmKind::RiscZero))
                .sum::<u64>()
        })
    });
    c.bench_function("interpreter/suite-O2-risczero", |b| {
        b.iter(|| {
            suite
                .iter()
                .map(|(w, cw)| run_reference(w, cw, VmKind::RiscZero))
                .sum::<u64>()
        })
    });
}

criterion_group! { name = benches; config = Criterion::default().sample_size(10); targets = bench }
criterion_main!(benches);
