//! # zkvmopt-bench
//!
//! The experiment harness. [`study`] holds one function per table and figure
//! of the paper, each returning typed tables with the paper claims they
//! check; the `report` binary (`cargo run -p zkvmopt-bench --release --bin
//! report`) prints them, and `tests/paper_findings.rs` pins every claim's
//! outcome and every reported number.

use zkvmopt_core::suite::check_and_measure;
use zkvmopt_core::{gain, Measurement, OptProfile, PipelineError, RunReport, SuiteRunner};
use zkvmopt_vm::{SegmentRecord, VmKind};
use zkvmopt_workloads::Workload;

pub mod study;

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
    /// The segments the optimized run was cut into, for pricing it under
    /// another prover backend (Fig. 14b).
    pub records: Vec<SegmentRecord>,
    /// The earlier profile of the row (the baseline first) that linked the
    /// same program on this workload, as
    /// [`zkvmopt_core::MatrixCell::same_program_as`].
    pub same_program_as: Option<String>,
}

/// The suite programs named by `names`, in that order.
///
/// # Panics
/// Panics on a name the suite does not hold.
pub(crate) fn by_names(names: &[&str]) -> Vec<&'static Workload> {
    names
        .iter()
        .map(|n| zkvmopt_workloads::by_name(n).unwrap_or_else(|| panic!("no workload {n}")))
        .collect()
}

/// The reduced workload set: representative across suites, used by
/// `report --quick`.
pub fn bench_workloads() -> Vec<&'static Workload> {
    by_names(&[
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
    ])
}

/// The [`Impact`] of a measurement checked against its baseline, or the
/// `[skip]` line for a profile that failed.
fn impact_of(
    w: &Workload,
    profile: &OptProfile,
    vm: VmKind,
    base_m: &Measurement,
    measured: Result<(Measurement, RunReport), PipelineError>,
    same_program_as: Option<String>,
) -> Option<Impact> {
    match measured {
        Ok((m, r)) => {
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
                records: r.records,
                same_program_as,
            })
        }
        Err(e) => {
            eprintln!("  [skip] {} / {} on {vm}: {e}", w.name, profile.name);
            None
        }
    }
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
                    .and_then(|(_, r)| check_and_measure(w, p, *vm, r, Some(br)));
                let same = cell.same_program_as.clone();
                out.extend(impact_of(w, p, *vm, bm, checked, same));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{level_profiles, pass_profiles};
    use zkvmopt_core::OptLevel;

    #[test]
    fn bench_workload_set_resolves() {
        let ws = bench_workloads();
        assert_eq!(ws.len(), 10);
    }

    #[test]
    fn impact_math_signs() {
        let o2 = OptProfile::level(OptLevel::O2);
        let i = &impact_matrix(&by_names(&["loop-sum"]), &[o2], &[VmKind::Sp1], false)[0];
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
            for &vm in vms {
                let base = runner.measure(w, &OptProfile::baseline(), vm, with_x86, None);
                let (bm, br) = base.expect("the baseline runs");
                for p in profiles {
                    let measured = runner.measure(w, p, vm, with_x86, Some(&br));
                    out.extend(impact_of(w, p, vm, &bm, measured, None));
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
        profiles.extend(pass_profiles(
            zkvmopt_core::studied_passes().iter().copied(),
        ));
        profiles
    }

    fn three_programs() -> Vec<&'static Workload> {
        by_names(&["loop-sum", "tailcall", "merkle"])
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
