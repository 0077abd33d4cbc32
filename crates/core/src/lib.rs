//! # zkvmopt-core
//!
//! The study driver: optimization profiles, the compile→execute→prove→native
//! pipeline, and the measurement matrices every table and figure in the paper
//! is regenerated from.
//!
//! ## One evaluation chain
//!
//! Every path from a lowered module to a cycle count — the cached
//! [`SuiteRunner`] (and [`Pipeline`], a one-off runner) and the tuner's
//! [`BatchEvaluator`] — runs the same three stage functions, and each
//! reports a [`PipelineError`]:
//!
//! - [`passes`]: the profile's passes, a panic caught as
//!   [`PipelineError::Panic`];
//! - [`codegen`]: the IR verifier, instruction selection and linking (a
//!   panic caught likewise), then the engine's pre-decode, giving a
//!   [`CompiledWorkload`];
//! - [`execute`]: one segmented engine run under a cycle budget, its
//!   records gated by
//!   [`check_segment_accounting`](zkvmopt_prover::check_segment_accounting).
//!
//! So a figure and a tuner fitness are the same number for the same
//! program, and neither is ever measured on IR the verifier rejects. Where
//! a program was already executed on the same inputs, both take that run
//! instead of executing again: [`SuiteRunner::run_matrix`] runs each
//! distinct program of a row once, and the [`BatchEvaluator`] answers a
//! candidate that links its baseline or `-O3` program from its own runs.
//!
//! ## Example
//!
//! ```
//! use zkvmopt_core::{OptProfile, Pipeline};
//! use zkvmopt_vm::VmKind;
//!
//! let src = "fn main() -> i32 { let mut s: i32 = 0;
//!            for (let mut i: i32 = 0; i < 50; i += 1) { s += i; }
//!            commit(s); return s; }";
//! let base = Pipeline::new(OptProfile::baseline())
//!     .run_source(src, &[], VmKind::RiscZero).unwrap();
//! let o3 = Pipeline::new(OptProfile::level(zkvmopt_passes::OptLevel::O3))
//!     .run_source(src, &[], VmKind::RiscZero).unwrap();
//! assert_eq!(base.exec.journal, o3.exec.journal);
//! assert!(o3.exec.total_cycles < base.exec.total_cycles);
//! ```

// Untrusted input fails as a value, never a panic: a site that must panic
// carries `#[expect(<lint>, reason = "<the invariant>")]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use serde::Serialize;
use zkvmopt_ir::Module;
use zkvmopt_passes::{PassConfig, PassManager};
use zkvmopt_riscv::TargetCostModel;
use zkvmopt_vm::{ExecutionReport, SegmentRecord, VmKind};
use zkvmopt_workloads::Workload;
use zkvmopt_x86sim::X86Report;

pub mod batch;
pub mod error;
pub mod suite;

pub use batch::BatchEvaluator;
pub use error::PipelineError;
pub use suite::{codegen, execute, passes, CompiledWorkload, MatrixCell, SuiteRunner};
pub use zkvmopt_passes::OptLevel;

/// A named optimization profile: passes + pass parameters + backend cost
/// model.
#[derive(Debug, Clone, PartialEq)]
pub struct OptProfile {
    /// Display name (used in tables/figures).
    pub name: String,
    /// The pass names this profile runs, in order: the resolved pipeline of
    /// a level or zk-O3, `[p]` for a single pass, the sequence itself, and
    /// nothing for the baseline.
    pub passes: Vec<&'static str>,
    /// Pass parameters.
    pub pass_config: PassConfig,
    /// Instruction-selection cost model.
    pub backend: TargetCostModel,
}

impl OptProfile {
    /// The unoptimized baseline (the paper's *baseline* with MIR opts off):
    /// no passes at all.
    pub fn baseline() -> OptProfile {
        OptProfile::sequence("baseline", Vec::new(), PassConfig::default())
    }

    /// A standard `-Ox` pipeline.
    pub fn level(level: OptLevel) -> OptProfile {
        let passes = PassManager::for_level(level).names();
        OptProfile::sequence(level.flag(), passes, PassConfig::default())
    }

    /// One pass in isolation (the RQ1 axis).
    pub fn single_pass(pass: &'static str) -> OptProfile {
        OptProfile::sequence(pass, vec![pass], PassConfig::default())
    }

    /// An explicit sequence (autotuner output, RQ2).
    pub fn sequence(
        name: impl Into<String>,
        passes: Vec<&'static str>,
        cfg: PassConfig,
    ) -> OptProfile {
        OptProfile {
            name: name.into(),
            passes,
            pass_config: cfg,
            backend: TargetCostModel::cpu(),
        }
    }

    /// The paper's zkVM-aware `-O3` (§6.1): `-O3`'s pass list verbatim,
    /// under [`PassConfig::zk_aware`] (e.g. `simplifycfg` stops
    /// if-converting branches) and [`TargetCostModel::zk`].
    pub fn zk_o3() -> OptProfile {
        OptProfile {
            name: "zk-O3".into(),
            passes: PassManager::o3().names(),
            pass_config: PassConfig::zk_aware(),
            backend: TargetCostModel::zk(),
        }
    }

    /// A content-derived cache key: the resolved [`passes`](Self::passes),
    /// the pass config and the backend — everything [`apply`](Self::apply)
    /// and codegen read, so two profiles with equal keys produce the same
    /// code from the same module (`-Os` shares `-O2`'s key; a single pass
    /// shares a one-pass sequence's). Deliberately ignores `name`, so the
    /// autotuner's identically-named candidates never collide in the
    /// [`SuiteRunner`] cache.
    pub fn cache_key(&self) -> String {
        format!(
            "{:?}|{:?}|{:?}",
            self.passes, self.pass_config, self.backend
        )
    }

    /// Apply this profile to a module: its [`passes`](Self::passes) through
    /// one [`PassManager`], so a pipeline's passes share the executor's
    /// analysis caches (a pipeline of one is exactly `run_pass`).
    pub fn apply(&self, m: &mut Module) {
        PassManager::from_names(self.passes.iter().copied()).run(m, &self.pass_config);
    }
}

/// Everything measured from one (program, profile, VM) run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// zkVM execution report (cycles, instret, paging, journal, …).
    pub exec: ExecutionReport,
    /// The segments the engine cut, one record each; they sum to `exec`.
    pub records: Vec<SegmentRecord>,
    /// Modelled proving time (ms): `zkvmopt_prover::proving_cost_ms` of
    /// `records` under the VM's own backend.
    pub prove_ms: f64,
    /// Modelled zkVM execution (replay) time (ms).
    pub exec_ms: f64,
    /// x86 run (when requested).
    pub x86: Option<X86Report>,
    /// Static code size (instructions).
    pub code_size: usize,
    /// Spilled virtual registers (codegen statistic, Fig. 11).
    pub spilled_vregs: u32,
}

/// Compile-and-run pipeline for one profile.
#[derive(Debug, Clone)]
pub struct Pipeline {
    profile: OptProfile,
    /// Also run the x86 timing model.
    pub with_x86: bool,
}

impl Pipeline {
    /// A pipeline for `profile`.
    pub fn new(profile: OptProfile) -> Pipeline {
        Pipeline {
            profile,
            with_x86: false,
        }
    }

    /// Enable the x86 timing model (RQ3).
    pub fn with_x86(mut self) -> Pipeline {
        self.with_x86 = true;
        self
    }

    /// Run `src` on `vm` as a one-off workload: [`Pipeline::run_workload`].
    ///
    /// # Errors
    /// Returns [`PipelineError`] on any stage failure.
    pub fn run_source(
        &self,
        src: &str,
        inputs: &[i32],
        vm: VmKind,
    ) -> Result<RunReport, PipelineError> {
        let w = Workload {
            name: "source",
            suite: zkvmopt_workloads::Suite::Other,
            source: src.to_string(),
            inputs: inputs.to_vec(),
            uses_precompile: false,
        };
        self.run_workload(&w, vm)
    }

    /// Run a workload through a fresh [`SuiteRunner`]: the shared stages,
    /// once, nothing cached.
    ///
    /// # Errors
    /// Returns [`PipelineError`] on any stage failure.
    pub fn run_workload(&self, w: &Workload, vm: VmKind) -> Result<RunReport, PipelineError> {
        SuiteRunner::new().run(w, &self.profile, vm, self.with_x86)
    }
}

/// One row of the study matrix.
#[derive(Debug, Clone, Serialize)]
pub struct Measurement {
    /// Workload name.
    pub workload: String,
    /// Profile name.
    pub profile: String,
    /// VM name.
    pub vm: String,
    /// Total cycles (the paper's "cycle count").
    pub cycles: u64,
    /// Dynamic instruction count.
    pub instret: u64,
    /// Paging cycles (0-modelled on SP1's public metrics).
    pub paging_cycles: u64,
    /// Modelled zkVM execution time (ms).
    pub exec_ms: f64,
    /// Modelled proving time (ms).
    pub prove_ms: f64,
    /// Segments / shards.
    pub segments: u64,
    /// Modelled native x86 time (ms), when measured.
    pub x86_ms: Option<f64>,
    /// Static code size.
    pub code_size: usize,
    /// Spilled virtual registers.
    pub spilled_vregs: u32,
}

/// Run `profile` on `workload`/`vm`, verifying observable behaviour against
/// the supplied baseline run (when given).
///
/// # Errors
/// Returns [`PipelineError::Divergence`] when the journal or exit code
/// diverge from the baseline — the exact failure class of the paper's SP1
/// bug.
pub fn measure(
    w: &Workload,
    profile: &OptProfile,
    vm: VmKind,
    with_x86: bool,
    baseline: Option<&RunReport>,
) -> Result<(Measurement, RunReport), PipelineError> {
    SuiteRunner::new().measure(w, profile, vm, with_x86, baseline)
}

/// Percent performance gain of `new` over `baseline` for a lower-is-better
/// metric (the paper's convention: positive = faster).
pub fn gain(baseline: f64, new: f64) -> f64 {
    zkvmopt_stats::perf_gain(baseline, new)
}

/// The paper's Figure 4 effect categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EffectCategory {
    /// ≤ −5 %.
    SevereLoss,
    /// −5 % to −2 %.
    ModerateLoss,
    /// −2 % to 2 % (not plotted by the paper).
    Neutral,
    /// 2 % to 5 %.
    ModerateGain,
    /// ≥ 5 %.
    SevereGain,
}

/// Categorize a gain percentage into the paper's buckets.
pub fn categorize(gain_pct: f64) -> EffectCategory {
    if gain_pct <= -5.0 {
        EffectCategory::SevereLoss
    } else if gain_pct < -2.0 {
        EffectCategory::ModerateLoss
    } else if gain_pct < 2.0 {
        EffectCategory::Neutral
    } else if gain_pct < 5.0 {
        EffectCategory::ModerateGain
    } else {
        EffectCategory::SevereGain
    }
}

/// The individual-pass axis used by RQ1 (all registered passes).
pub fn studied_passes() -> &'static [&'static str] {
    zkvmopt_passes::pass_names()
}

/// The representative pass subset used by the fast harness paths (top-impact
/// passes from the paper's Figure 3).
pub const KEY_PASSES: &[&str] = &[
    "inline",
    "always-inline",
    "gvn",
    "jump-threading",
    "instcombine",
    "simplifycfg",
    "partial-inliner",
    "tailcall",
    "attributor",
    "sroa",
    "newgvn",
    "ipsccp",
    "early-cse",
    "sccp",
    "instsimplify",
    "mem2reg",
    "loop-instsimplify",
    "reg2mem",
    "sink",
    "loop-rotate",
    "irce",
    "loop-reduce",
    "mldst-motion",
    "loop-extract",
    "licm",
];

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "
        fn main() -> i32 {
          let seed: i32 = read_input(0);
          let mut s: i32 = 0;
          for (let mut i: i32 = 0; i < 3000; i += 1) {
            s += (i * seed) % 31;
          }
          commit(s);
          return s;
        }";

    #[test]
    fn baseline_vs_o3_gain() {
        let w = Workload {
            name: "t",
            suite: zkvmopt_workloads::Suite::Other,
            source: SRC.to_string(),
            inputs: vec![5],
            uses_precompile: false,
        };
        let (_, base) =
            measure(&w, &OptProfile::baseline(), VmKind::RiscZero, false, None).unwrap();
        let (m3, _) = measure(
            &w,
            &OptProfile::level(OptLevel::O3),
            VmKind::RiscZero,
            false,
            Some(&base),
        )
        .unwrap();
        let g = gain(base.exec.total_cycles as f64, m3.cycles as f64);
        assert!(g > 20.0, "-O3 should gain >20% on this loop, got {g:.1}%");
    }

    #[test]
    fn single_pass_profiles_run_and_preserve() {
        let w = zkvmopt_workloads::by_name("loop-sum").unwrap();
        let (_, base) = measure(w, &OptProfile::baseline(), VmKind::Sp1, false, None).unwrap();
        for pass in ["inline", "licm", "mem2reg", "simplifycfg", "reg2mem"] {
            let (m, _) = measure(
                w,
                &OptProfile::single_pass(pass),
                VmKind::Sp1,
                false,
                Some(&base),
            )
            .unwrap_or_else(|e| panic!("{pass}: {e}"));
            assert!(m.cycles > 0);
        }
    }

    #[test]
    fn zk_o3_runs_on_div_heavy_code() {
        let src = "fn main() -> i32 {
                     let mut s: i32 = 0;
                     for (let mut i: i32 = 1; i < 500; i += 1) { s += (i * read_input(0)) / 8; }
                     commit(s); return s;
                   }";
        let w = Workload {
            name: "divs",
            suite: zkvmopt_workloads::Suite::Other,
            source: src.to_string(),
            inputs: vec![3],
            uses_precompile: false,
        };
        let (_, base) =
            measure(&w, &OptProfile::baseline(), VmKind::RiscZero, false, None).unwrap();
        let (o3, _) = measure(
            &w,
            &OptProfile::level(OptLevel::O3),
            VmKind::RiscZero,
            false,
            Some(&base),
        )
        .unwrap();
        let (zk, _) = measure(
            &w,
            &OptProfile::zk_o3(),
            VmKind::RiscZero,
            false,
            Some(&base),
        )
        .unwrap();
        // The zk-aware profile keeps the single div and must beat stock -O3
        // on instruction count for this kernel (paper Fig. 14 mechanism).
        assert!(
            zk.instret < o3.instret,
            "zk-O3 instret {} !< -O3 instret {}",
            zk.instret,
            o3.instret
        );
    }

    #[test]
    fn x86_measurement_populates() {
        let w = Workload {
            name: "t",
            suite: zkvmopt_workloads::Suite::Other,
            source: SRC.to_string(),
            inputs: vec![5],
            uses_precompile: false,
        };
        let (m, _) = measure(
            &w,
            &OptProfile::level(OptLevel::O2),
            VmKind::RiscZero,
            true,
            None,
        )
        .unwrap();
        assert!(m.x86_ms.is_some());
    }

    #[test]
    fn categories_match_paper_thresholds() {
        assert_eq!(categorize(-7.0), EffectCategory::SevereLoss);
        assert_eq!(categorize(-3.0), EffectCategory::ModerateLoss);
        assert_eq!(categorize(0.0), EffectCategory::Neutral);
        assert_eq!(categorize(3.0), EffectCategory::ModerateGain);
        assert_eq!(categorize(12.0), EffectCategory::SevereGain);
    }

    /// Profiles with equal `cache_key`s are interchangeable: from the same
    /// lowered module they print the same post-pass IR and link the same
    /// program — the promise `SuiteRunner`'s compile cache relies on.
    fn assert_equal_keys_compile_alike(
        workloads: &[&Workload],
        pairs: impl IntoIterator<Item = (OptProfile, OptProfile)>,
    ) {
        let lowered: Vec<Module> = workloads
            .iter()
            .map(|w| zkvmopt_lang::compile_guest(&w.source).expect("suite program lowers"))
            .collect();
        for (a, b) in pairs {
            assert_eq!(a.cache_key(), b.cache_key(), "{} vs {}", a.name, b.name);
            for (w, base) in workloads.iter().zip(&lowered) {
                let [(ma, pa), (mb, pb)] = [&a, &b].map(|p| {
                    let mut m = base.clone();
                    p.apply(&mut m);
                    let program = zkvmopt_riscv::compile_module(&m, &p.backend).expect("codegen");
                    (zkvmopt_ir::print::module_to_string(&m), program)
                });
                let at = format!("{}: {} vs {}", w.name, a.name, b.name);
                assert_eq!(ma, mb, "{at}: post-pass IR");
                assert!(pa == pb, "{at}: linked program");
            }
        }
    }

    fn single_pass_pairs() -> impl Iterator<Item = (OptProfile, OptProfile)> {
        studied_passes().iter().map(|&p| {
            let seq = OptProfile::sequence("candidate", vec![p], PassConfig::default());
            (OptProfile::single_pass(p), seq)
        })
    }

    fn os_o2_pair() -> (OptProfile, OptProfile) {
        (
            OptProfile::level(OptLevel::Os),
            OptProfile::level(OptLevel::O2),
        )
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "suite-wide compile is release-only (CI: test-release)"
    )]
    fn equal_cache_keys_compile_alike_across_the_suite() {
        let suite: Vec<&Workload> = zkvmopt_workloads::all().iter().collect();
        assert_equal_keys_compile_alike(&suite, single_pass_pairs().chain([os_o2_pair()]));
    }

    /// Every suite program compiled twice at `-O3` in one process gives
    /// equal printed IR and an equal linked program. Debug builds seed each
    /// hash map on its own, so an output that came to depend on map
    /// iteration order fails here.
    #[test]
    fn o3_compiles_alike_twice_in_one_process() {
        let o3 = OptProfile::level(OptLevel::O3);
        for w in zkvmopt_workloads::all() {
            let compile = || {
                let lowered = zkvmopt_lang::compile_guest(&w.source).expect("suite compiles");
                let m = suite::passes(lowered, &o3).expect("passes run");
                let cw = suite::codegen(&m, &o3.backend).expect("codegen runs");
                (zkvmopt_ir::print::module_to_string(&m), cw.program)
            };
            let (first, second) = (compile(), compile());
            assert_eq!(first.0, second.0, "{}: printed IR", w.name);
            assert!(first.1 == second.1, "{}: linked program", w.name);
        }
    }

    #[test]
    fn equal_cache_keys_compile_alike_on_one_program() {
        let w = [zkvmopt_workloads::by_name("loop-sum").expect("workload exists")];
        assert_equal_keys_compile_alike(&w, single_pass_pairs().chain([os_o2_pair()]));
        // Distinct pipelines keep distinct keys.
        let keys: std::collections::BTreeSet<String> = [
            OptProfile::baseline(),
            OptProfile::level(OptLevel::O0),
            OptProfile::level(OptLevel::O3),
            OptProfile::zk_o3(),
        ]
        .iter()
        .map(OptProfile::cache_key)
        .collect();
        assert_eq!(keys.len(), 4);
    }

    #[test]
    fn key_passes_all_registered() {
        assert_eq!(KEY_PASSES.len(), 25, "paper's top-25 axis");
        for p in KEY_PASSES {
            assert!(
                zkvmopt_passes::find_pass(p).is_some(),
                "{p} missing from registry"
            );
        }
    }
}
