//! Engine throughput: the pre-decoded block-dispatch engine vs the original
//! decode-per-step interpreter, executing the full 58-program suite at -O2.
//!
//! Before timing anything, every workload is executed on **both** VM kinds
//! through both executors and all cost metrics are asserted identical — the
//! speedup is only meaningful because the engine is bit-exact. The report
//! prints per-workload speedups and the geomean (the acceptance bar is ≥1.5×
//! overall **and** ≥1.5× on the memory-op-bearing subset, which is what the
//! v3 residency pre-probe targets); Criterion then measures the two
//! full-suite sweeps.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use zkvmopt_core::suite::CompiledWorkload;
use zkvmopt_core::{OptLevel, OptProfile, SuiteRunner};
use zkvmopt_stats::geomean;
use zkvmopt_vm::{run_decoded, run_program_reference, VmKind};
use zkvmopt_workloads::Workload;

/// Compile + pre-decode the whole suite at -O2 once. CI smoke mode
/// (`ZKVMOPT_BENCH_SMOKE=1`) uses the reduced representative set so the
/// trajectory job stays fast.
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

    // Per-workload wall-clock speedup (best of 3 per executor, RISC Zero).
    // Memory-op-bearing workloads are tracked as their own subset: they are
    // the ones the v3 residency pre-probe and batched memory blocks target,
    // and they carry their own geomean bar.
    println!(
        "{:<26} {:>14} {:>12} {:>12} {:>9}  mem?",
        "workload", "cycles", "interp ms", "engine ms", "speedup"
    );
    let mut speedups = Vec::new();
    let mut mem_speedups = Vec::new();
    let mut probe_hits = 0u64;
    let mut probe_misses = 0u64;
    let mut traces_formed = 0u64;
    for (w, cw) in suite {
        let time = |f: &dyn Fn() -> u64| -> f64 {
            (0..3)
                .map(|_| {
                    let t = std::time::Instant::now();
                    black_box(f());
                    t.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::INFINITY, f64::min)
        };
        let probe = run_decoded(&cw.decoded, VmKind::RiscZero, &w.inputs)
            .unwrap_or_else(|e| panic!("{} engine: {e}", w.name));
        let cycles = probe.total_cycles;
        let has_mem = probe.mix.load + probe.mix.store > 0;
        probe_hits += probe.stats.probe_hits;
        probe_misses += probe.stats.probe_misses;
        traces_formed += probe.stats.traces_formed;
        let old_ms = time(&|| run_reference(w, cw, VmKind::RiscZero));
        let new_ms = time(&|| run_engine(w, cw, VmKind::RiscZero));
        let speedup = old_ms / new_ms;
        println!(
            "{:<26} {cycles:>14} {old_ms:>12.3} {new_ms:>12.3} {speedup:>8.2}x  {}",
            w.name,
            if has_mem { "mem" } else { "-" }
        );
        speedups.push(speedup);
        if has_mem {
            mem_speedups.push(speedup);
        }
    }
    let g = geomean(&speedups);
    let g_mem = geomean(&mem_speedups);
    let probe_total = probe_hits + probe_misses;
    let hit_rate = if probe_total == 0 {
        0.0
    } else {
        probe_hits as f64 / probe_total as f64
    };
    println!(
        "\ngeomean speedup over the {}-program suite at -O2: {g:.2}x",
        suite.len()
    );
    println!(
        "memory-op-bearing subset ({} workloads): {g_mem:.2}x geomean, \
         residency probe hit rate {:.1}%, {traces_formed} traces formed",
        mem_speedups.len(),
        hit_rate * 100.0
    );
    zkvmopt_bench::trajectory::record(
        "engine_throughput",
        &[
            ("geomean_speedup", g),
            ("mem_geomean_speedup", g_mem),
            ("probe_hit_rate", hit_rate),
            ("traces_formed", traces_formed as f64),
            ("workloads", suite.len() as f64),
        ],
    );
    // Single-threaded ratios: no minimum core count (the bit-identity
    // checks above always gate).
    zkvmopt_bench::gate_speedup("block-dispatch engine vs step interpreter", g, 1.5, 1);
    zkvmopt_bench::gate_speedup(
        "memory-op-bearing workloads with the residency pre-probe",
        g_mem,
        1.5,
        1,
    );
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
