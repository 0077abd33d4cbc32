//! Full-scale experiment regeneration: prints every table and figure of the
//! paper from the complete 58-program suite.
//!
//! Usage:
//!   report [--quick] [--fig3] [--fig4] [--fig5] [--table1] [--table2]
//!          [--table6] [--fig14] [--all]
//!
//! With `--quick` the pass axis shrinks to the paper's top-25 and the
//! workload set to a representative subset, keeping the run in minutes.
//! Without flags, `--all --quick` is assumed.

use std::collections::BTreeMap;
use zkvmopt_bench::{
    bench_workloads, header, impact_matrix, level_profiles, mean_gain, pass_profiles, pct, Impact,
};
use zkvmopt_core::{categorize, EffectCategory, OptLevel, OptProfile, SuiteRunner, KEY_PASSES};
use zkvmopt_stats::{kendall_tau, mean, pearson, summarize};
use zkvmopt_vm::VmKind;
use zkvmopt_workloads::Workload;

struct Options {
    quick: bool,
    sections: Vec<String>,
}

fn parse_args() -> Options {
    let mut quick = false;
    let mut sections = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--quick" => quick = true,
            "--all" => sections.push("all".to_string()),
            s if s.starts_with("--") => sections.push(s[2..].to_string()),
            _ => {}
        }
    }
    if sections.is_empty() {
        quick = true;
        sections.push("all".to_string());
    }
    Options { quick, sections }
}

fn want(o: &Options, s: &str) -> bool {
    o.sections.iter().any(|x| x == s || x == "all")
}

fn workload_set(o: &Options) -> Vec<&'static Workload> {
    if o.quick {
        bench_workloads()
    } else {
        zkvmopt_workloads::all().iter().collect()
    }
}

fn pass_axis(o: &Options) -> Vec<&'static str> {
    if o.quick {
        KEY_PASSES.to_vec()
    } else {
        zkvmopt_core::studied_passes().to_vec()
    }
}

fn main() {
    let o = parse_args();
    println!("zkvm-opt experiment report (quick = {})", o.quick);

    let mut pass_impacts: Option<Vec<Impact>> = None;
    let ensure_pass_impacts = |o: &Options| -> Vec<Impact> {
        impact_matrix(
            &workload_set(o),
            &pass_profiles(&pass_axis(o)),
            &VmKind::BOTH,
            false,
        )
    };

    if want(&o, "fig3") || want(&o, "fig4") || want(&o, "table1") {
        pass_impacts = Some(ensure_pass_impacts(&o));
    }

    if want(&o, "fig3") {
        let impacts = pass_impacts.as_ref().expect("computed");
        for vm in VmKind::BOTH {
            header(&format!("Figure 3 ({vm}): mean gain per pass vs baseline"));
            let mut rows: Vec<(String, f64, f64, f64)> = pass_axis(&o)
                .iter()
                .map(|p| {
                    (
                        p.to_string(),
                        mean_gain(impacts, p, vm, |i| i.exec_gain),
                        mean_gain(impacts, p, vm, |i| i.prove_gain),
                        mean_gain(impacts, p, vm, |i| i.cycles_gain),
                    )
                })
                .collect();
            rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN"));
            println!(
                "{:<26} {:>9} {:>9} {:>9}",
                "pass", "exec", "prove", "cycles"
            );
            for (p, e, pr, cy) in rows.iter().take(25) {
                println!("{p:<26} {:>9} {:>9} {:>9}", pct(*e), pct(*pr), pct(*cy));
            }
        }
    }

    if want(&o, "fig4") {
        let impacts = pass_impacts.as_ref().expect("computed");
        for vm in VmKind::BOTH {
            header(&format!(
                "Figure 4 ({vm}): effect categories per pass (exec)"
            ));
            println!(
                "{:<26} {:>6} {:>7} {:>6} {:>6}",
                "pass", "<=-5%", "-5..-2", "2..5", ">=5%"
            );
            for p in pass_axis(&o) {
                let mut c = [0usize; 4];
                for i in impacts.iter().filter(|i| i.profile == p && i.vm == vm) {
                    match categorize(i.exec_gain) {
                        EffectCategory::SevereLoss => c[0] += 1,
                        EffectCategory::ModerateLoss => c[1] += 1,
                        EffectCategory::ModerateGain => c[2] += 1,
                        EffectCategory::SevereGain => c[3] += 1,
                        EffectCategory::Neutral => {}
                    }
                }
                if c.iter().sum::<usize>() > 0 {
                    println!("{p:<26} {:>6} {:>7} {:>6} {:>6}", c[0], c[1], c[2], c[3]);
                }
            }
        }
    }

    if want(&o, "table1") {
        let impacts = pass_impacts.as_ref().expect("computed");
        header("Table 1: gain/loss instance counts (>2% / <-2%)");
        println!(
            "{:<10} {:>12} {:>12} {:>12} {:>12}",
            "zkVM", "exec gain", "exec loss", "prove gain", "prove loss"
        );
        for vm in VmKind::BOTH {
            let count = |sel: &dyn Fn(&Impact) -> f64, pos: bool| {
                impacts
                    .iter()
                    .filter(|i| i.vm == vm)
                    .filter(|i| if pos { sel(i) > 2.0 } else { sel(i) < -2.0 })
                    .count()
            };
            println!(
                "{:<10} {:>12} {:>12} {:>12} {:>12}",
                vm.name(),
                count(&|i| i.exec_gain, true),
                count(&|i| i.exec_gain, false),
                count(&|i| i.prove_gain, true),
                count(&|i| i.prove_gain, false)
            );
        }
    }

    if want(&o, "fig5") {
        let ws = workload_set(&o);
        let impacts = impact_matrix(&ws, &level_profiles(), &VmKind::BOTH, false);
        header("Figure 5: -Ox levels vs baseline");
        println!(
            "{:<6} {:>14} {:>14} {:>14} {:>14}",
            "level", "R0 exec", "R0 prove", "SP1 exec", "SP1 prove"
        );
        for l in OptLevel::ALL {
            println!(
                "{:<6} {:>14} {:>14} {:>14} {:>14}",
                l.flag(),
                pct(mean_gain(&impacts, l.flag(), VmKind::RiscZero, |i| i.exec_gain)),
                pct(mean_gain(&impacts, l.flag(), VmKind::RiscZero, |i| i.prove_gain)),
                pct(mean_gain(&impacts, l.flag(), VmKind::Sp1, |i| i.exec_gain)),
                pct(mean_gain(&impacts, l.flag(), VmKind::Sp1, |i| i.prove_gain)),
            );
        }
        // A level that linked the same program as an earlier profile of its
        // row (the baseline first) reused that run. Sharing is per program,
        // so one VM's cells count it; the flags sort in the table's order.
        let mut census: BTreeMap<(&str, &str), usize> = BTreeMap::new();
        for i in impacts.iter().filter(|i| i.vm == VmKind::RiscZero) {
            if let Some(earlier) = &i.same_program_as {
                *census
                    .entry((i.profile.as_str(), earlier.as_str()))
                    .or_default() += 1;
            }
        }
        for ((level, earlier), n) in census {
            println!("{level} shares {earlier}'s program on {n}/{}", ws.len());
        }
    }

    if want(&o, "table2") {
        header("Table 2: Kendall tau / Pearson (cost metric vs performance)");
        let ws = workload_set(&o);
        for vm in VmKind::BOTH {
            let mut tau_ie = Vec::new();
            let mut r_ie = Vec::new();
            let mut tau_pe = Vec::new();
            let mut r_pe = Vec::new();
            for w in &ws {
                let cols = zkvmopt_bench::metric_columns(w, &pass_profiles(KEY_PASSES), vm);
                tau_ie.push(kendall_tau(&cols.instret, &cols.exec_ms));
                r_ie.push(pearson(&cols.instret, &cols.exec_ms));
                if vm == VmKind::RiscZero {
                    tau_pe.push(kendall_tau(&cols.paging, &cols.exec_ms));
                    r_pe.push(pearson(&cols.paging, &cols.exec_ms));
                }
            }
            println!(
                "{:<10} instr->exec   tau {:>5.2}  pearson {:>5.2}",
                vm.name(),
                mean(&tau_ie),
                mean(&r_ie)
            );
            if vm == VmKind::RiscZero {
                println!(
                    "{:<10} paging->exec  tau {:>5.2}  pearson {:>5.2}",
                    vm.name(),
                    mean(&tau_pe),
                    mean(&r_pe)
                );
            }
        }
    }

    if want(&o, "table6") {
        header("Table 6: baseline statistics (modelled seconds)");
        for vm in VmKind::BOTH {
            let mut exec = Vec::new();
            let mut prove = Vec::new();
            for w in zkvmopt_workloads::all() {
                let r = zkvmopt_core::Pipeline::new(OptProfile::baseline())
                    .run_workload(w, vm)
                    .unwrap_or_else(|e| panic!("{}: {e}", w.name));
                exec.push(r.exec_ms / 1e3);
                prove.push(r.prove_ms / 1e3);
            }
            let e = summarize(&exec);
            let p = summarize(&prove);
            println!(
                "{:<10} exec : min {:.3} max {:.3} mean {:.3} median {:.3}",
                vm.name(),
                e.min,
                e.max,
                e.mean,
                e.median
            );
            println!(
                "{:<10} prove: min {:.3} max {:.3} mean {:.3} median {:.3}",
                vm.name(),
                p.min,
                p.max,
                p.mean,
                p.median
            );
        }
    }

    if want(&o, "fig14") {
        header("Figure 14: zk-aware -O3 vs stock -O3, full suite");
        let ws = workload_set(&o);
        let mut runner = SuiteRunner::new();
        let mut r0_gains = Vec::new();
        let mut sp1_gains = Vec::new();
        for w in &ws {
            for vm in VmKind::BOTH {
                let Ok((o3, o3r)) =
                    runner.measure(w, &OptProfile::level(OptLevel::O3), vm, false, None)
                else {
                    continue;
                };
                let Ok((zk, _)) = runner.measure(w, &OptProfile::zk_o3(), vm, false, Some(&o3r))
                else {
                    continue;
                };
                let g = zkvmopt_core::gain(o3.exec_ms, zk.exec_ms);
                if g.abs() > 2.0 {
                    println!("{:<26} {:<10} {:>8}", w.name, vm.name(), pct(g));
                }
                match vm {
                    VmKind::RiscZero => r0_gains.push(g),
                    VmKind::Sp1 => sp1_gains.push(g),
                }
            }
        }
        println!(
            "-> average: RISC Zero {} | SP1 {}",
            pct(mean(&r0_gains)),
            pct(mean(&sp1_gains))
        );
    }

    println!("\nreport complete.");
}
