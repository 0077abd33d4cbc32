//! One proving-cost model: every `RunReport::prove_ms` is
//! `proving_cost_ms(backend_for(vm), records)` over the segments the engine
//! actually cut for that run, the same number a `SegmentedProof` of those
//! records carries, whichever of the two run paths produced the report.
//!
//! ```text
//! cargo test --release --test prove_cost -- --include-ignored
//! ```

use zkvm_opt::prover::{backend_for, prove_segmented, proving_cost_ms};
use zkvm_opt::study::{OptLevel, OptProfile, Pipeline, SuiteRunner};
use zkvm_opt::vm::VmKind;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-suite sweep is release-only (CI: test-release)"
)]
fn prove_ms_is_the_backend_cost_of_the_runs_own_segments() {
    let profiles = [
        OptProfile::baseline(),
        OptProfile::level(OptLevel::O3),
        OptProfile::zk_o3(),
    ];
    let mut runner = SuiteRunner::new();
    let mut multi_segment = 0;
    for w in zkvm_opt::workloads::all() {
        for p in &profiles {
            for vm in VmKind::BOTH {
                let ctx = format!("{} at {} on {vm}", w.name, p.name);
                let r = runner.run(w, p, vm, false).expect(&ctx);
                let backend = backend_for(vm);
                assert_eq!(r.records.len() as u64, r.exec.segments, "{ctx}");
                assert!(
                    r.prove_ms == proving_cost_ms(backend, &r.records),
                    "{ctx}: prove_ms {} is not the cost of its records",
                    r.prove_ms
                );
                let proof = prove_segmented(backend, &r.exec, &r.records, 1).expect(&ctx);
                assert!(
                    r.prove_ms == proof.total_cost_ms,
                    "{ctx}: prove_ms {} != proof cost {}",
                    r.prove_ms,
                    proof.total_cost_ms
                );
                let uncached = Pipeline::new(p.clone()).run_workload(w, vm).expect(&ctx);
                assert!(
                    uncached.prove_ms == r.prove_ms,
                    "{ctx}: Pipeline {} != SuiteRunner {}",
                    uncached.prove_ms,
                    r.prove_ms
                );
                multi_segment += usize::from(r.records.len() > 1);
            }
        }
    }
    // The sweep must reach cells where segment boundaries matter.
    assert!(multi_segment > 0, "no multi-segment cell in the sweep");
}
