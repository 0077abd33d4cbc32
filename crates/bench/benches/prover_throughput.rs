//! Segmented proving throughput: execute → segment → prove, in proofs/sec.
//!
//! Before timing anything, two bit-identity gates run over the whole suite
//! (the reduced set at smoke scale, `-- --test`) × both VM kinds:
//!
//! 1. **Segment accounting** — the per-segment records of a segmented run
//!    must sum exactly to the run's `ExecutionReport` totals (instret,
//!    user/paging cycles, page-ins/outs, mix), and the segmented run's
//!    report must equal a plain `Engine::run` under the same profile.
//! 2. **Parallel proving** — proving segments across threads must produce
//!    the same per-segment Merkle commitments, aggregation root, and total
//!    modelled cost as sequential proving, for every backend.
//!
//! The report names the SHA-256 kernel the host dispatches to and prints
//! its rate (`sha256` one lane, `sha256_pair` two lanes, `merkle`, MB/s) —
//! the quantity under every commitment — then the sequential proving wave's
//! padded Mrows/s, the ratio of the parallel per-segment fan-out to
//! sequential proving (printed, not asserted: the benchmark package proves
//! with `threads = 1` only, so this is the one place the fan-out is timed)
//! and end-to-end proofs/sec; Criterion measures the full pipeline.
//! Segment limits are scaled down from the production profiles so every
//! workload splits into several segments — this is the "heavy traffic"
//! shape: a stream of programs, each a bag of parallel segments.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use zkvmopt_core::suite::CompiledWorkload;
use zkvmopt_core::{OptLevel, OptProfile, SuiteRunner};
use zkvmopt_prover::{check_segment_accounting, prove_segmented, standard_backends};
use zkvmopt_stats::geomean;
use zkvmopt_vm::{Engine, ExecConfig, ExecutionReport, SegmentRecord, VmKind, VmProfile};
use zkvmopt_workloads::Workload;

/// Segment limit divisor vs the production profiles: small segments turn
/// every suite program into a multi-segment proving job.
const SEGMENT_SCALE: u64 = 64;

/// The bench's VM profile: production cost model, scaled-down segments.
fn profile(kind: VmKind) -> VmProfile {
    let mut p = VmProfile::for_kind(kind);
    p.segment_cycles = (p.segment_cycles / SEGMENT_SCALE).max(1);
    p
}

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

/// One segmented execution: the proving pipeline's input.
struct SegmentedRun {
    workload: &'static str,
    kind: VmKind,
    report: ExecutionReport,
    records: Vec<SegmentRecord>,
}

/// Execute every workload × both VM kinds with per-segment accounting,
/// gating record/report bit-identity (and segmented-vs-plain dispatch
/// identity) along the way.
fn execute_suite(suite: &[(&'static Workload, CompiledWorkload)]) -> Vec<SegmentedRun> {
    let mut runs = Vec::with_capacity(suite.len() * 2);
    for (w, cw) in suite {
        for kind in VmKind::BOTH {
            let config = ExecConfig {
                inputs: w.inputs.clone(),
                ..ExecConfig::default()
            };
            let (report, records) = Engine::new(&cw.decoded, profile(kind), config.clone())
                .run_segmented()
                .unwrap_or_else(|e| panic!("{} ({kind}): {e}", w.name));
            check_segment_accounting(&report, &records)
                .unwrap_or_else(|e| panic!("{} ({kind}): {e}", w.name));
            let plain = Engine::new(&cw.decoded, profile(kind), config)
                .run()
                .unwrap_or_else(|e| panic!("{} ({kind}) plain: {e}", w.name));
            let ctx = format!("{} ({kind})", w.name);
            assert_eq!(report.instret, plain.instret, "{ctx}: instret");
            assert_eq!(report.total_cycles, plain.total_cycles, "{ctx}: cycles");
            assert_eq!(report.paging_cycles, plain.paging_cycles, "{ctx}: paging");
            assert_eq!(report.segments, plain.segments, "{ctx}: segments");
            assert_eq!(report.journal, plain.journal, "{ctx}: journal");
            runs.push(SegmentedRun {
                workload: w.name,
                kind,
                report,
                records,
            });
        }
    }
    runs
}

/// Prove every run with every backend at the given thread count, returning
/// the summed modelled cost (the timed kernel).
fn prove_all(runs: &[SegmentedRun], threads: usize) -> f64 {
    let mut total = 0.0;
    for run in runs {
        for backend in standard_backends() {
            total += prove_segmented(backend, &run.report, &run.records, threads)
                .unwrap_or_else(|e| panic!("{} ({}): {e}", run.workload, run.kind))
                .total_cost_ms;
        }
    }
    total
}

/// Best wall-clock time of five calls, milliseconds.
fn best_ms<T>(f: impl Fn() -> T) -> f64 {
    (0..5)
        .map(|_| {
            let t = std::time::Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// The hash kernel under every commitment, in absolute units, MB/s:
/// `sha256` over one 64 KiB buffer, `sha256_pair` over its two 32 KiB
/// halves (the two-lane rate the prover hashes leaves at), and a Merkle root
/// over 1 MiB of 1 KiB leaves (the prover's leaf size).
fn hash_rates() -> (f64, f64, f64) {
    let buffer: Vec<u8> = (0..64usize << 10).map(|i| (i * 31) as u8).collect();
    let (left, right) = buffer.split_at(buffer.len() / 2);
    let leaves: Vec<Vec<u8>> = (0..1 << 10)
        .map(|i| buffer[(i % 64) << 10..][..1 << 10].to_vec())
        .collect();
    let sha256_ms = best_ms(|| zkvmopt_crypto::sha256(black_box(&buffer)));
    let pair_ms = best_ms(|| zkvmopt_crypto::sha256_pair(black_box(left), black_box(right)));
    let merkle_ms = best_ms(|| zkvmopt_crypto::MerkleTree::new(black_box(&leaves)).root());
    let mb_per_s = |bytes: usize, ms: f64| bytes as f64 / 1e3 / ms;
    (
        mb_per_s(buffer.len(), sha256_ms),
        mb_per_s(buffer.len(), pair_ms),
        mb_per_s(1 << 20, merkle_ms),
    )
}

fn report(runs: &[SegmentedRun]) {
    zkvmopt_bench::header(&format!(
        "Segmented proving: execute -> segment -> prove (-O2 suite; sha256 kernel: {})",
        zkvmopt_crypto::sha256_kernel()
    ));
    let (sha256_mb_per_s, sha256_pair_mb_per_s, merkle_mb_per_s) = hash_rates();
    println!(
        "hash kernel: sha256 {sha256_mb_per_s:.0} MB/s (64 KiB), \
         sha256_pair {sha256_pair_mb_per_s:.0} MB/s (2 x 32 KiB), \
         merkle {merkle_mb_per_s:.0} MB/s (1 MiB of 1 KiB leaves)"
    );

    // Parallel-vs-sequential identity gate: roots, per-segment proofs, and
    // modelled totals must not depend on the thread count.
    for run in runs {
        for backend in standard_backends() {
            let seq = prove_segmented(backend, &run.report, &run.records, 1)
                .unwrap_or_else(|e| panic!("{}: {e}", run.workload));
            let par = prove_segmented(backend, &run.report, &run.records, 0)
                .unwrap_or_else(|e| panic!("{}: {e}", run.workload));
            let ctx = format!("{} ({}, {})", run.workload, run.kind, backend.name());
            assert_eq!(par.root, seq.root, "{ctx}: root");
            assert_eq!(par.segments, seq.segments, "{ctx}: segments");
            assert!(
                par.total_cost_ms == seq.total_cost_ms,
                "{ctx}: cost {} != {}",
                par.total_cost_ms,
                seq.total_cost_ms
            );
        }
    }
    let nsegments: u64 = runs.iter().map(|r| r.report.segments).sum();
    println!(
        "bit-identity: {} segmented runs ({nsegments} segments) x {} backends OK",
        runs.len(),
        standard_backends().len()
    );

    // Wall-clock: the whole proving wave, sequential vs all cores.
    let seq_ms = best_ms(|| prove_all(runs, 1));
    let par_ms = best_ms(|| prove_all(runs, 0));
    let speedup = seq_ms / par_ms;
    let nproofs = (runs.len() * standard_backends().len()) as f64;
    // Padded trace rows the wave commits to: the hashing work it does.
    let padded_rows: u64 = runs
        .iter()
        .flat_map(|run| {
            standard_backends().into_iter().flat_map(|backend| {
                let rows = run.records.iter().map(|seg| backend.segment_rows(seg));
                rows.map(|rows| backend.padded_rows(rows))
            })
        })
        .sum();
    let padded_mrows_per_s = padded_rows as f64 / 1e6 / (seq_ms / 1e3);
    let proofs_per_sec = nproofs / (par_ms / 1e3);
    let segments_per_program = nsegments as f64 / runs.len() as f64;
    // Geomean over per-run parallel proving rates (risc0 backend), the
    // headline throughput metric.
    let rates: Vec<f64> = runs
        .iter()
        .map(|run| {
            let backend = standard_backends()[0];
            let ms = best_ms(|| {
                prove_segmented(backend, &run.report, &run.records, 0)
                    .expect("gated above")
                    .total_cost_ms
            });
            1e3 / ms.max(1e-6)
        })
        .collect();
    let rate_geomean = geomean(&rates);
    println!(
        "proving wave: {nproofs:.0} proofs, seq {seq_ms:.2} ms, parallel {par_ms:.2} ms \
         ({speedup:.2}x), {proofs_per_sec:.0} proofs/sec"
    );
    println!(
        "segments/program: {segments_per_program:.1}; per-run proof rate geomean: \
         {rate_geomean:.0}/sec; sequential wave {padded_mrows_per_s:.0} padded Mrows/s"
    );
}

fn bench(c: &mut Criterion) {
    let suite = compile_suite();
    let runs = execute_suite(&suite);
    report(&runs);
    c.bench_function("prover/segment-prove-parallel", |b| {
        b.iter(|| prove_all(&runs, 0))
    });
    c.bench_function("prover/segment-prove-sequential", |b| {
        b.iter(|| prove_all(&runs, 1))
    });
    c.bench_function("prover/execute-segment-prove", |b| {
        b.iter(|| {
            let runs = execute_suite(&suite);
            prove_all(&runs, 0)
        })
    });
}

criterion_group! { name = benches; config = Criterion::default().sample_size(10); targets = bench }
criterion_main!(benches);
