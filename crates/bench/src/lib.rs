//! # zkvmopt-bench
//!
//! The experiment harness: shared machinery that regenerates every table and
//! figure of the paper. Each Criterion bench target prints its paper-style
//! rows (on a reduced default scale) and then measures the underlying
//! computation; the `report` binary (`cargo run -p zkvmopt-bench --release
//! --bin report`) runs the full-scale version and emits the data recorded in
//! EXPERIMENTS.md.

use zkvmopt_core::suite::check_and_measure;
use zkvmopt_core::{gain, Measurement, OptLevel, OptProfile, RunReport, StudyError, SuiteRunner};
use zkvmopt_vm::VmKind;
use zkvmopt_workloads::Workload;

pub mod trajectory;

pub use trajectory::smoke;

/// One pass-impact observation: percent gains vs. baseline.
#[derive(Debug, Clone)]
pub struct Impact {
    /// Workload name.
    pub workload: String,
    /// Profile (pass or level) name.
    pub profile: String,
    /// VM.
    pub vm: VmKind,
    /// Gain in zkVM execution time (+ = faster).
    pub exec_gain: f64,
    /// Gain in proving time.
    pub prove_gain: f64,
    /// Gain in cycle count.
    pub cycles_gain: f64,
    /// Gain in dynamic instruction count.
    pub instret_gain: f64,
    /// Gain in paging cycles (negative = more paging).
    pub paging_gain: f64,
    /// Gain in native x86 time (when measured).
    pub x86_gain: Option<f64>,
    /// Raw optimized measurement.
    pub measurement: Measurement,
    /// The earlier profile of the row (the baseline first) that linked the
    /// same program on this workload, as
    /// [`zkvmopt_core::MatrixCell::same_program_as`];
    /// `None` outside [`impact_matrix`].
    pub same_program_as: Option<String>,
}

/// Default reduced workload set for `cargo bench` (representative across
/// suites; the `report` binary uses all 58).
pub fn bench_workloads() -> Vec<&'static Workload> {
    [
        "polybench-floyd-warshall",
        "polybench-gemm",
        "polybench-trmm",
        "polybench-durbin",
        "npb-lu",
        "npb-mg",
        "fibonacci",
        "loop-sum",
        "tailcall",
        "sha2-bench",
    ]
    .iter()
    .map(|n| zkvmopt_workloads::by_name(n).expect("bench workload exists"))
    .collect()
}

/// Baseline runs for a workload on both VMs (+x86 when asked).
pub struct BaselineRuns {
    /// Per-VM baseline (indexed by `VmKind::BOTH` order).
    pub by_vm: Vec<(VmKind, Measurement, RunReport)>,
}

/// Measure the baseline for `w` on the given VMs through the batched runner
/// (the baseline program is compiled once and reused across VMs).
///
/// # Panics
/// Panics when the baseline itself fails — the suite guarantees it cannot.
pub fn baseline(
    runner: &mut SuiteRunner,
    w: &Workload,
    vms: &[VmKind],
    with_x86: bool,
) -> BaselineRuns {
    let by_vm = vms
        .iter()
        .map(|&vm| {
            let (m, r) = runner
                .measure(w, &OptProfile::baseline(), vm, with_x86, None)
                .unwrap_or_else(|e| panic!("baseline {} on {vm}: {e}", w.name));
            (vm, m, r)
        })
        .collect();
    BaselineRuns { by_vm }
}

/// Measure `profile` against an established baseline, producing an [`Impact`].
/// Returns `None` when the profile fails on this workload (reported and
/// skipped, like the paper's invalid autotuner candidates).
pub fn impact_vs_baseline(
    runner: &mut SuiteRunner,
    w: &Workload,
    profile: &OptProfile,
    vm: VmKind,
    base_m: &Measurement,
    base_r: &RunReport,
    with_x86: bool,
) -> Option<Impact> {
    let measured = runner.measure(w, profile, vm, with_x86, Some(base_r));
    impact_of(w, profile, vm, base_m, measured.map(|(m, _)| m), None)
}

/// The [`Impact`] of a measurement checked against its baseline, or the
/// `[skip]` line for a profile that failed.
fn impact_of(
    w: &Workload,
    profile: &OptProfile,
    vm: VmKind,
    base_m: &Measurement,
    measured: Result<Measurement, StudyError>,
    same_program_as: Option<String>,
) -> Option<Impact> {
    match measured {
        Ok(m) => {
            let x86_gain = match (base_m.x86_ms, m.x86_ms) {
                (Some(b), Some(n)) => Some(gain(b, n)),
                _ => None,
            };
            Some(Impact {
                workload: w.name.to_string(),
                profile: profile.name.clone(),
                vm,
                exec_gain: gain(base_m.exec_ms, m.exec_ms),
                prove_gain: gain(base_m.prove_ms, m.prove_ms),
                cycles_gain: gain(base_m.cycles as f64, m.cycles as f64),
                instret_gain: gain(base_m.instret as f64, m.instret as f64),
                paging_gain: gain(
                    base_m.paging_cycles.max(1) as f64,
                    m.paging_cycles.max(1) as f64,
                ),
                x86_gain,
                measurement: m,
                same_program_as,
            })
        }
        Err(e) => {
            eprintln!("  [skip] {} / {} on {vm}: {e}", w.name, profile.name);
            None
        }
    }
}

/// Per-profile metric columns for one workload: the zkVM cost metrics and
/// performance numbers the correlation tables consume, one row per profile
/// that validated. Collected by [`metric_columns`] so Table 2 (bench and
/// report binary) share one collection path.
#[derive(Debug, Clone, Default)]
pub struct MetricColumns {
    /// Dynamic instruction count per profile.
    pub instret: Vec<f64>,
    /// Paging cycles per profile.
    pub paging: Vec<f64>,
    /// zkVM execution time (ms) per profile.
    pub exec_ms: Vec<f64>,
    /// Proving time (ms) per profile.
    pub prove_ms: Vec<f64>,
}

/// Measure `profiles` of `w` on `vm` against the baseline, through
/// [`impact_matrix`], and collect the correlation-table metric columns
/// (failed profiles are skipped, like the paper's invalid autotuner
/// candidates).
pub fn metric_columns(w: &Workload, profiles: &[OptProfile], vm: VmKind) -> MetricColumns {
    let mut cols = MetricColumns::default();
    for i in impact_matrix(&[w], profiles, &[vm], false) {
        cols.instret.push(i.measurement.instret as f64);
        cols.paging.push(i.measurement.paging_cycles as f64);
        cols.exec_ms.push(i.measurement.exec_ms);
        cols.prove_ms.push(i.measurement.prove_ms);
    }
    cols
}

/// Run a (workloads × profiles × vms) impact matrix through one
/// [`SuiteRunner`]: one [`SuiteRunner::run_matrix`] row per workload over
/// the baseline plus `profiles`, so each workload compiles once per
/// distinct pipeline and executes each distinct linked program once per VM
/// (and once on x86). Impacts come in (workload, vm, profile) order; a
/// profile that fails or changes the baseline's observable behaviour is
/// skipped with a `[skip]` line.
///
/// # Panics
/// Panics when a baseline run fails — the suite guarantees it cannot.
pub fn impact_matrix(
    workloads: &[&Workload],
    profiles: &[OptProfile],
    vms: &[VmKind],
    with_x86: bool,
) -> Vec<Impact> {
    let mut runner = SuiteRunner::new();
    let row: Vec<OptProfile> = std::iter::once(OptProfile::baseline())
        .chain(profiles.iter().cloned())
        .collect();
    let mut out = Vec::new();
    for w in workloads {
        let cells = runner.run_matrix(&[w], &row, vms, with_x86, 1);
        for (vi, vm) in vms.iter().enumerate() {
            let (bm, br) = cells[vi]
                .result
                .as_ref()
                .unwrap_or_else(|e| panic!("baseline {} on {vm}: {e}", w.name));
            for (pi, p) in profiles.iter().enumerate() {
                let cell = &cells[(pi + 1) * vms.len() + vi];
                let checked = cell
                    .result
                    .clone()
                    .and_then(|(_, r)| check_and_measure(w, p, *vm, r, Some(br)).map(|(m, _)| m));
                let same = cell.same_program_as.clone();
                out.extend(impact_of(w, p, *vm, bm, checked, same));
            }
        }
    }
    out
}

/// Mean of a selector over impacts matching (profile, vm).
pub fn mean_gain(
    impacts: &[Impact],
    profile: &str,
    vm: VmKind,
    select: impl Fn(&Impact) -> f64,
) -> f64 {
    let xs: Vec<f64> = impacts
        .iter()
        .filter(|i| i.profile == profile && i.vm == vm)
        .map(select)
        .collect();
    zkvmopt_stats::mean(&xs)
}

/// All standard-level profiles (Fig. 5 axis).
pub fn level_profiles() -> Vec<OptProfile> {
    OptLevel::ALL
        .iter()
        .map(|l| OptProfile::level(*l))
        .collect()
}

/// Single-pass profiles for a pass-name list.
pub fn pass_profiles(names: &[&'static str]) -> Vec<OptProfile> {
    names.iter().map(|n| OptProfile::single_pass(n)).collect()
}

/// Enforce a wall-clock speedup bar the way every throughput bench does:
/// `got >= bar` is asserted, unless `ZKVMOPT_SPEEDUP_ADVISORY=1` (CI sets it:
/// shared runners are noisy) or the machine has fewer than `min_cores`
/// cores (it cannot demonstrate a parallel speedup at all) — then a miss is
/// only reported. Bit-identity and determinism gates are not this
/// function's business and always gate.
///
/// # Panics
/// When the bar is missed and the gate is not advisory.
pub fn gate_speedup(what: &str, got: f64, bar: f64, min_cores: usize) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let advisory = std::env::var("ZKVMOPT_SPEEDUP_ADVISORY").is_ok_and(|v| v == "1");
    if advisory || cores < min_cores {
        if got < bar {
            eprintln!(
                "ADVISORY: {what} {got:.2}x below the {bar}x bar \
                 ({cores} cores; noisy or small runner?)"
            );
        }
    } else {
        assert!(
            got >= bar,
            "{what} must be >={bar}x (got {got:.2}x on {cores} cores)"
        );
    }
}

/// Render a percent with sign.
pub fn pct(x: f64) -> String {
    format!("{x:+.1}%")
}

/// Print a paper-style header line.
pub fn header(title: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_workload_set_resolves() {
        let ws = bench_workloads();
        assert_eq!(ws.len(), 10);
    }

    #[test]
    fn impact_math_signs() {
        let w = zkvmopt_workloads::by_name("loop-sum").unwrap();
        let mut runner = SuiteRunner::new();
        let base = baseline(&mut runner, w, &[VmKind::Sp1], false);
        let (vm, bm, br) = &base.by_vm[0];
        let o2 = OptProfile::level(OptLevel::O2);
        let i = impact_vs_baseline(&mut runner, w, &o2, *vm, bm, br, false).expect("runs");
        assert!(
            i.cycles_gain > 0.0,
            "-O2 must speed up loop-sum: {}",
            i.cycles_gain
        );
        assert!(i.instret_gain > 0.0);
    }

    /// The per-cell `impact_matrix` this crate had before it ran on
    /// `run_matrix`: every profile measured on its own against a baseline
    /// measured on its own. The oracle the row version is held to.
    fn impact_matrix_oracle(
        workloads: &[&Workload],
        profiles: &[OptProfile],
        vms: &[VmKind],
        with_x86: bool,
    ) -> Vec<Impact> {
        let mut runner = SuiteRunner::new();
        let mut out = Vec::new();
        for w in workloads {
            let base = baseline(&mut runner, w, vms, with_x86);
            for (vm, bm, br) in &base.by_vm {
                for p in profiles {
                    if let Some(i) = impact_vs_baseline(&mut runner, w, p, *vm, bm, br, with_x86) {
                        out.push(i);
                    }
                }
            }
        }
        out
    }

    /// Impact for impact, every field (floats compared through their exact
    /// `Debug` form) but the sharing note the oracle cannot know.
    fn assert_impacts_match_oracle(
        workloads: &[&Workload],
        profiles: &[OptProfile],
        with_x86: bool,
    ) {
        let view = |i: &Impact| {
            format!(
                "{:?}",
                Impact {
                    same_program_as: None,
                    ..i.clone()
                }
            )
        };
        let got = impact_matrix(workloads, profiles, &VmKind::BOTH, with_x86);
        let want = impact_matrix_oracle(workloads, profiles, &VmKind::BOTH, with_x86);
        assert_eq!(got.len(), want.len(), "impact count");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(view(g), view(w));
        }
        assert!(got.iter().any(|i| i.same_program_as.is_some()));
    }

    fn levels_and_passes() -> Vec<OptProfile> {
        let mut profiles = level_profiles();
        profiles.extend(pass_profiles(zkvmopt_core::studied_passes()));
        profiles
    }

    fn three_programs() -> Vec<&'static Workload> {
        ["loop-sum", "tailcall", "merkle"]
            .iter()
            .map(|n| zkvmopt_workloads::by_name(n).expect("workload exists"))
            .collect()
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "bench-scale matrix is release-only (CI: test-release)"
    )]
    fn impact_matrix_matches_the_per_cell_oracle() {
        let profiles = levels_and_passes();
        assert_impacts_match_oracle(&bench_workloads(), &profiles, false);
        assert_impacts_match_oracle(&three_programs(), &profiles, true);
    }

    #[test]
    fn impact_matrix_matches_the_per_cell_oracle_on_three_programs() {
        assert_impacts_match_oracle(&three_programs(), &level_profiles(), true);
    }
}
