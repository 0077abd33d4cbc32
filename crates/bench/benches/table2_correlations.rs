//! Table 2: monotonic (Kendall τ) and linear (Pearson) relationships between
//! zkVM cost metrics and performance, per benchmark over optimization
//! variants.

use criterion::{criterion_group, criterion_main, Criterion};
use zkvmopt_bench::{header, metric_columns, pass_profiles};
use zkvmopt_core::KEY_PASSES;
use zkvmopt_stats::{kendall_tau, mean, pearson};
use zkvmopt_vm::VmKind;

fn report() {
    let workloads: Vec<_> = [
        "loop-sum",
        "polybench-gemm",
        "npb-mg",
        "fibonacci",
        "polybench-floyd-warshall",
        "tailcall",
    ]
    .iter()
    .map(|n| zkvmopt_workloads::by_name(n).expect("exists"))
    .collect();
    header("Table 2: Kendall tau / Pearson between cost metrics and performance");
    println!(
        "{:<10} {:<16} {:<16} {:>10} {:>10}",
        "zkVM", "perf metric", "cost metric", "Kendall", "Pearson"
    );
    for vm in VmKind::BOTH {
        let mut tau_ie = Vec::new(); // instret vs exec
        let mut r_ie = Vec::new();
        let mut tau_ip = Vec::new(); // instret vs prove
        let mut r_ip = Vec::new();
        let mut tau_pe = Vec::new(); // paging vs exec (R0 only)
        let mut r_pe = Vec::new();
        for w in &workloads {
            let cols = metric_columns(w, &pass_profiles(KEY_PASSES), vm);
            tau_ie.push(kendall_tau(&cols.instret, &cols.exec_ms));
            r_ie.push(pearson(&cols.instret, &cols.exec_ms));
            tau_ip.push(kendall_tau(&cols.instret, &cols.prove_ms));
            r_ip.push(pearson(&cols.instret, &cols.prove_ms));
            if vm == VmKind::RiscZero {
                tau_pe.push(kendall_tau(&cols.paging, &cols.exec_ms));
                r_pe.push(pearson(&cols.paging, &cols.exec_ms));
            }
        }
        println!(
            "{:<10} {:<16} {:<16} {:>10.2} {:>10.2}",
            vm.name(),
            "exec time",
            "executed instr",
            mean(&tau_ie),
            mean(&r_ie)
        );
        println!(
            "{:<10} {:<16} {:<16} {:>10.2} {:>10.2}",
            vm.name(),
            "proving time",
            "executed instr",
            mean(&tau_ip),
            mean(&r_ip)
        );
        if vm == VmKind::RiscZero {
            println!(
                "{:<10} {:<16} {:<16} {:>10.2} {:>10.2}",
                vm.name(),
                "exec time",
                "paging cycles",
                mean(&tau_pe),
                mean(&r_pe)
            );
        }
        // The paper's core claim: strong positive monotonic+linear relation
        // between dynamic instruction count and execution time.
        assert!(
            mean(&tau_ie) > 0.4,
            "tau(instr, exec) = {:.2}",
            mean(&tau_ie)
        );
        assert!(
            mean(&r_ie) > 0.7,
            "pearson(instr, exec) = {:.2}",
            mean(&r_ie)
        );
    }
}

fn bench(c: &mut Criterion) {
    report();
    c.bench_function("table2/kendall_500", |b| {
        let xs: Vec<f64> = (0..500).map(|i| ((i * 37) % 501) as f64).collect();
        let ys: Vec<f64> = (0..500).map(|i| ((i * 91) % 499) as f64).collect();
        b.iter(|| kendall_tau(&xs, &ys))
    });
}

criterion_group! { name = benches; config = Criterion::default().sample_size(10); targets = bench }
criterion_main!(benches);
