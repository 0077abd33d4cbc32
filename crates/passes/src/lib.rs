//! # zkvmopt-passes
//!
//! Optimization passes mirroring the LLVM passes studied in the paper, plus
//! the pass manager, the standard `-O0 … -Oz` pipelines, and the paper's
//! zkVM-aware pipeline (§6.1 Change sets 1–3).
//!
//! Every pass is a semantics-preserving transformation over `zkvmopt-ir`
//! modules. The workspace's differential tests run random pass sequences and
//! compare guest-visible behaviour against the unoptimized module, so passes
//! here are held to the same bar as LLVM's: *no observable change, ever*.
//!
//! ## Pass framework
//!
//! A pass is a free function plus one row of the registry ([`PASSES`]).
//! Function passes get `&mut Function` plus a per-function
//! [`AnalysisCache`](zkvmopt_ir::analysis::AnalysisCache) of `Cfg` /
//! `DomTree` / dominance frontiers / `LoopForest`; each row
//! declares which analyses the pass preserves ([`PreservedAnalyses`]), and
//! the [`PassExecutor`] a [`PassManager`] run drives keeps the caches alive
//! across the pipeline's passes, invalidating by declaration whenever a pass
//! reports a change. See the [`framework`] module docs for how to write a
//! new pass.
//!
//! ## Pass registry
//!
//! Passes are addressed by their LLVM-style names (`"licm"`, `"inline"`,
//! `"simplifycfg"`, …) through [`run_pass`] / [`pass_names`]. The set matches
//! the paper's studied passes; passes that are no-ops on zkVMs by construction
//! (`loop-data-prefetch`, `hot-cold-splitting`) are registered and do nothing,
//! which is precisely the paper's point about them. `ipconstprop`,
//! `loop-distribute`, and `strip-dead-prototypes` are explicit aliases of
//! `ipsccp`, `loop-fission`, and `globaldce`.
//!
//! ## Example
//!
//! ```
//! use zkvmopt_passes::{PassConfig, PassManager};
//!
//! let mut m = zkvmopt_lang::compile(
//!     "fn main() -> i32 { let mut s: i32 = 0;
//!      for (let mut i: i32 = 0; i < 4; i += 1) { s += i; } return s; }").unwrap();
//! let before = m.size();
//! PassManager::o2().run(&mut m, &PassConfig::default());
//! assert!(m.size() < before);
//! ```

#[cfg(test)]
mod analysis_oracle;
pub mod cse;
pub mod framework;
#[cfg(test)]
mod interp_oracle;
pub mod ipo;
pub mod loopopt;
pub mod mem2reg;
pub mod misc;
#[cfg(test)]
mod print_oracle;
pub mod sccp;
pub mod simplify;
pub mod util;

pub use framework::{FunctionContext, ModuleInfo, PassEntry, PassExecutor, PassRef};

use zkvmopt_ir::analysis::PreservedAnalyses;
use zkvmopt_ir::Module;

/// Tunable knobs shared by the passes — the analogue of LLVM's pass
/// parameters the paper autotunes (`-inline-threshold`, `-unroll-threshold`).
#[derive(Debug, Clone, PartialEq)]
pub struct PassConfig {
    /// Static-instruction budget under which a callee is inlined
    /// (LLVM default 225; the paper's autotuned zk value is 4328).
    pub inline_threshold: usize,
    /// Unrolled-body instruction budget for full loop unrolling.
    pub unroll_threshold: usize,
    /// Maximum speculatable instructions `simplifycfg` will if-convert per
    /// branch arm (LLVM's "speculation" budget). The zk-aware pipeline sets
    /// this to 0 (paper P4: keep branches).
    pub simplifycfg_speculate: usize,
    /// Whether `instcombine` performs CPU-oriented strength reduction
    /// (division → shift sequences, Fig. 2a). The zk-aware pipeline disables
    /// it (paper Change set 1: division is cheap on zkVMs).
    pub strength_reduce_div: bool,
    /// Run the IR verifier after every pass, panicking on broken IR (on by
    /// default in debug builds; the tuner's candidates turn it off so that
    /// codegen's verifier reports a broken sequence).
    pub verify_each: bool,
}

impl Default for PassConfig {
    fn default() -> PassConfig {
        PassConfig {
            inline_threshold: 225,
            unroll_threshold: 200,
            simplifycfg_speculate: 2,
            strength_reduce_div: true,
            verify_each: cfg!(debug_assertions),
        }
    }
}

impl PassConfig {
    /// The zkVM-aware configuration from the paper's §6.1:
    /// higher inline threshold, conservative branch elimination, and no
    /// division strength-reduction.
    pub fn zk_aware() -> PassConfig {
        PassConfig {
            inline_threshold: 4328,
            simplifycfg_speculate: 0,
            strength_reduce_div: false,
            ..PassConfig::default()
        }
    }
}

const KEEP: PreservedAnalyses = PreservedAnalyses::cfg_shape();
const DROP: PreservedAnalyses = PreservedAnalyses::none();

// The three passes that also answer to a historical second name.
const IPSCCP: PassEntry = PassEntry::module("ipsccp", sccp::ipsccp, DROP, false);
const GLOBALDCE: PassEntry = PassEntry::module("globaldce", ipo::globaldce, DROP, true);
const LOOP_FISSION: PassEntry =
    PassEntry::function("loop-fission", loopopt::loop_fission, DROP, false);

/// The pass registry: LLVM-style name → implementation, what it preserves
/// when it changes something, and whether it is idempotent.
///
/// `KEEP` is declared only for passes that never touch terminators or
/// add/remove blocks; `true` (idempotent) only where a second adjacent run is
/// always a no-op (both declarations are covered by tests). Module passes are
/// the interprocedural ones and those needing module-wide cleanup.
///
/// Names marked *(no-op)* are hardware-oriented passes with nothing to do on
/// a zkVM target, or passes whose input shape the frontend never produces
/// (`lower-switch`: the IR has no switch terminator); they are registered so
/// studies can include them, matching the paper's observation that they
/// provide no measurable gain. The three historical double-registrations
/// (`ipconstprop`, `loop-distribute`, `strip-dead-prototypes`) are declared
/// as explicit aliases.
#[rustfmt::skip]
pub static PASSES: &[PassEntry] = &[
    PassEntry::function("mem2reg", mem2reg::mem2reg, KEEP, true),
    PassEntry::function("reg2mem", mem2reg::reg2mem, KEEP, true),
    PassEntry::function("sroa", mem2reg::sroa, KEEP, true),
    PassEntry::function("simplifycfg", simplify::simplifycfg, DROP, false),
    PassEntry::function("instsimplify", simplify::instsimplify, KEEP, true),
    PassEntry::function("instcombine", simplify::instcombine, KEEP, false),
    PassEntry::function("reassociate", simplify::reassociate, KEEP, false),
    PassEntry::function("dce", simplify::dce, KEEP, true),
    PassEntry::function("adce", simplify::adce, DROP, true),
    PassEntry::function("dse", simplify::dse, KEEP, false),
    PassEntry::function("sink", simplify::sink, KEEP, false),
    PassEntry::function("mergereturn", simplify::mergereturn, DROP, true),
    PassEntry::noop("lower-switch"), // (no-op: the frontend emits no switch)
    PassEntry::function("mldst-motion", simplify::mldst_motion, KEEP, false),
    PassEntry::function("early-cse", cse::early_cse, KEEP, false),
    PassEntry::function("gvn", cse::gvn, KEEP, false),
    PassEntry::function("newgvn", cse::newgvn, KEEP, false),
    PassEntry::function("sccp", sccp::sccp, DROP, false),
    IPSCCP,
    PassEntry::function("jump-threading", sccp::jump_threading, DROP, false),
    PassEntry::function("correlated-propagation", sccp::correlated_propagation, KEEP, false),
    PassEntry::module("inline", ipo::inline, DROP, false),
    PassEntry::module("always-inline", ipo::always_inline, DROP, false),
    PassEntry::module("partial-inliner", ipo::partial_inliner, DROP, false),
    PassEntry::function("tailcall", ipo::tailcall, DROP, true),
    PassEntry::module("function-attrs", ipo::function_attrs, KEEP, true),
    PassEntry::module("attributor", ipo::attributor, KEEP, true),
    PassEntry::module("deadargelim", ipo::deadargelim, KEEP, true),
    PassEntry::module("globalopt", ipo::globalopt, KEEP, true),
    GLOBALDCE,
    PassEntry::module("constmerge", ipo::constmerge, KEEP, true),
    PassEntry::alias("ipconstprop", IPSCCP),
    PassEntry::function("loop-simplify", loopopt::loop_simplify, DROP, false),
    PassEntry::function("lcssa", loopopt::lcssa, KEEP, false),
    PassEntry::function("licm", loopopt::licm, DROP, false),
    PassEntry::function("loop-rotate", loopopt::loop_rotate, DROP, false),
    PassEntry::module("loop-unroll", loopopt::loop_unroll, DROP, false),
    PassEntry::module("loop-unroll-and-jam", loopopt::loop_unroll_and_jam, DROP, false),
    PassEntry::function("loop-deletion", loopopt::loop_deletion, DROP, false),
    PassEntry::function("loop-idiom", loopopt::loop_idiom, DROP, false),
    PassEntry::function("indvars", loopopt::indvars, DROP, false),
    PassEntry::function("loop-reduce", loopopt::loop_reduce, DROP, false),
    PassEntry::function("loop-instsimplify", loopopt::loop_instsimplify, KEEP, true),
    LOOP_FISSION,
    PassEntry::alias("loop-distribute", LOOP_FISSION),
    PassEntry::function("simple-loop-unswitch", loopopt::loop_unswitch, DROP, false),
    PassEntry::module("loop-extract", loopopt::loop_extract, DROP, false),
    PassEntry::function("loop-predication", loopopt::loop_predication, DROP, false),
    PassEntry::function("loop-versioning-licm", loopopt::loop_versioning_licm, DROP, false),
    PassEntry::function("irce", loopopt::irce, DROP, false),
    PassEntry::function("speculative-execution", misc::speculative_execution, KEEP, false),
    PassEntry::function("bounds-checking", misc::bounds_checking, DROP, false),
    PassEntry::function("div-rem-pairs", misc::div_rem_pairs, KEEP, false),
    PassEntry::noop("loop-data-prefetch"),
    PassEntry::noop("hot-cold-splitting"),
    PassEntry::noop("slp-vectorizer"), // (no-op: no vector units)
    PassEntry::noop("loop-vectorize"), // (no-op: no vector units)
    PassEntry::noop("alignment-from-assumptions"),
    PassEntry::alias("strip-dead-prototypes", GLOBALDCE),
    PassEntry::noop("partially-inline-libcalls"), // (no-op: no libcalls)
    PassEntry::noop("libcalls-shrinkwrap"),
    PassEntry::noop("float2int"),    // (no-op: no floats)
    PassEntry::noop("lower-expect"), // (no-op: hints only)
    PassEntry::noop("lower-constant-intrinsics"),
];

/// All registered pass names (the "64 individual passes" axis of the study).
/// Computed once; callers on the tuner's hot search loop get a borrowed
/// slice instead of a fresh allocation per call.
pub fn pass_names() -> &'static [&'static str] {
    static NAMES: std::sync::OnceLock<Vec<&'static str>> = std::sync::OnceLock::new();
    NAMES.get_or_init(|| PASSES.iter().map(|e| e.name).collect())
}

/// Look up a pass by its LLVM-style name (aliases included).
pub fn find_pass(name: &str) -> Option<&'static PassEntry> {
    PASSES.iter().find(|e| e.name == name)
}

/// Whether `name` is a registered no-op (hardware-only pass).
pub fn is_noop_pass(name: &str) -> bool {
    find_pass(name).is_some_and(|e| e.noop)
}

/// Run a single pass by name through a fresh [`PassExecutor`]: cold analysis
/// caches, nothing shared with the passes before or after. This is what one
/// pipeline step is *defined* to do; [`PassManager::run`] shares the caches
/// across steps and is tested to print the same IR.
///
/// # Panics
/// Panics if `name` is not registered, or (when `cfg.verify_each` is set) if
/// the pass broke the IR.
pub fn run_pass(name: &str, m: &mut Module, cfg: &PassConfig) -> bool {
    PassExecutor::new().run_entry(registry_entry(name), m, cfg)
}

/// The standard optimization levels, mirroring `-O0 … -Oz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OptLevel {
    O0,
    O1,
    O2,
    O3,
    Os,
    Oz,
}

impl OptLevel {
    /// All levels, in the paper's Figure 5 order.
    pub const ALL: [OptLevel; 6] = [
        OptLevel::O0,
        OptLevel::O1,
        OptLevel::O2,
        OptLevel::O3,
        OptLevel::Os,
        OptLevel::Oz,
    ];

    /// Flag-style name (`"-O2"`).
    pub fn flag(self) -> &'static str {
        match self {
            OptLevel::O0 => "-O0",
            OptLevel::O1 => "-O1",
            OptLevel::O2 => "-O2",
            OptLevel::O3 => "-O3",
            OptLevel::Os => "-Os",
            OptLevel::Oz => "-Oz",
        }
    }
}

/// An ordered pass sequence (pre-resolved to registry rows, so execution
/// never re-scans the registry), run through one [`PassExecutor`].
///
/// The `-O0…-Oz` builders are the paper's fixed pipelines, pass for pass;
/// `run_pass` in a loop is the reference a run is tested against.
#[derive(Clone)]
pub struct PassManager {
    entries: Vec<&'static PassEntry>,
}

impl std::fmt::Debug for PassManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("PassManager").field(&self.names()).finish()
    }
}

fn registry_entry(n: &str) -> &'static PassEntry {
    find_pass(n).unwrap_or_else(|| panic!("unknown pass `{n}`"))
}

impl PassManager {
    /// Build a pipeline from pass names.
    ///
    /// # Panics
    /// Panics if any name is unknown.
    pub fn from_names<'a>(names: impl IntoIterator<Item = &'a str>) -> PassManager {
        PassManager {
            entries: names.into_iter().map(registry_entry).collect(),
        }
    }

    /// The pass names in pipeline order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// Run the pipeline through one fresh executor, so analyses a pass
    /// preserves are served to the passes after it; returns whether any pass
    /// reported a change.
    pub fn run(&self, m: &mut Module, cfg: &PassConfig) -> bool {
        let mut ex = PassExecutor::new();
        let mut changed = false;
        for entry in &self.entries {
            changed |= ex.run_entry(entry, m, cfg);
        }
        changed
    }

    /// `-O0`: frontend simplifications only (the paper's `-O0` still runs
    /// Rust MIR optimizations; our analogue is `instsimplify` + `dce`).
    pub fn o0() -> PassManager {
        PassManager::from_names(["instsimplify", "dce"])
    }

    /// `-O1`: the basic cleanup pipeline.
    pub fn o1() -> PassManager {
        PassManager::from_names([
            "mem2reg",
            "instsimplify",
            "simplifycfg",
            "early-cse",
            "sccp",
            "dce",
            "simplifycfg",
        ])
    }

    /// `-O2`: adds inlining, GVN, and the loop pipeline.
    pub fn o2() -> PassManager {
        PassManager::from_names([
            "mem2reg",
            "instcombine",
            "simplifycfg",
            "inline",
            "function-attrs",
            "sroa",
            "mem2reg",
            "early-cse",
            "sccp",
            "jump-threading",
            "instcombine",
            "simplifycfg",
            "loop-simplify",
            "lcssa",
            "licm",
            "indvars",
            "loop-idiom",
            "loop-deletion",
            "gvn",
            "dse",
            "instcombine",
            "adce",
            "simplifycfg",
        ])
    }

    /// `-O3`: `-O2` plus aggressive unrolling and a second inlining round.
    pub fn o3() -> PassManager {
        PassManager::from_names([
            "mem2reg",
            "instcombine",
            "simplifycfg",
            "inline",
            "function-attrs",
            "inline",
            "sroa",
            "mem2reg",
            "early-cse",
            "sccp",
            "jump-threading",
            "correlated-propagation",
            "instcombine",
            "simplifycfg",
            "loop-simplify",
            "lcssa",
            "loop-rotate",
            "licm",
            "indvars",
            "loop-idiom",
            "loop-deletion",
            "loop-unroll",
            "gvn",
            "dse",
            "mldst-motion",
            "instcombine",
            "adce",
            "simplifycfg",
            "instcombine",
        ])
    }

    /// `-Os`: exactly `-O2`'s pipeline. No pass here trades speed for size,
    /// so `-Os` and `-O2` compile every program to the same code.
    pub fn os() -> PassManager {
        PassManager::o2()
    }

    /// `-Oz`: minimal size — skip inlining and unrolling entirely.
    pub fn oz() -> PassManager {
        PassManager::from_names([
            "mem2reg",
            "instsimplify",
            "simplifycfg",
            "early-cse",
            "sccp",
            "gvn",
            "dse",
            "adce",
            "simplifycfg",
        ])
    }

    /// Pipeline for a standard [`OptLevel`].
    pub fn for_level(level: OptLevel) -> PassManager {
        match level {
            OptLevel::O0 => PassManager::o0(),
            OptLevel::O1 => PassManager::o1(),
            OptLevel::O2 => PassManager::o2(),
            OptLevel::O3 => PassManager::o3(),
            OptLevel::Os => PassManager::os(),
            OptLevel::Oz => PassManager::oz(),
        }
    }

    /// The paper's zkVM-aware `-O3` (§6.1). The pass list is `-O3`'s,
    /// verbatim; the zk-awareness lives in [`PassConfig::zk_aware`] (e.g.
    /// `simplifycfg` stops if-converting branches) and in the backend's
    /// `TargetCostModel::zk`, which the caller pairs with this pipeline.
    pub fn zk_o3() -> PassManager {
        PassManager::o3()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use zkvmopt_ir::interp::{run_module, InterpOutcome};

    /// Compile, snapshot baseline behaviour, run `passes`, verify, re-run,
    /// and assert identical guest-visible behaviour. Returns (before, after)
    /// static sizes.
    pub fn check_pass_preserves(src: &str, passes: &[&str], cfg: &PassConfig) -> (usize, usize) {
        let mut m = zkvmopt_lang::compile(src).expect("test program compiles");
        let baseline: InterpOutcome = run_module(&m, &[1, 2, 3, 4]).expect("baseline runs");
        let before = m.size();
        for p in passes {
            run_pass(p, &mut m, cfg);
        }
        zkvmopt_ir::verify::verify_module(&m)
            .unwrap_or_else(|e| panic!("{passes:?} broke IR: {e}"));
        let after_run = run_module(&m, &[1, 2, 3, 4]).expect("optimized runs");
        assert_eq!(
            (baseline.exit_value, &baseline.journal),
            (after_run.exit_value, &after_run.journal),
            "behaviour changed under {passes:?}"
        );
        (before, m.size())
    }

    /// Every function of `m` in the three states the kernel oracles run on:
    /// as lowered, after `-O1`, and promoted + fully peeled before cleanup.
    pub fn oracle_inputs(name: &str, m: &Module) -> Vec<(String, zkvmopt_ir::Function)> {
        let mut o1 = m.clone();
        PassManager::o1().run(&mut o1, &PassConfig::default());
        let mut out = Vec::new();
        for (state, module) in [("lowered", m), ("O1", &o1)] {
            for f in &module.funcs {
                out.push((format!("{name}/{}@{state}", f.name), f.clone()));
            }
        }
        for f in &m.funcs {
            let peeled = loopopt::oracle::peeled(f);
            out.push((format!("{name}/{}@peeled", f.name), peeled));
        }
        out
    }

    /// Every linear kernel against its quadratic oracle on `f`.
    pub fn check_kernel_oracles(name: &str, f: &zkvmopt_ir::Function) {
        simplify::oracle::check(name, f);
        loopopt::oracle::check(name, f);
        sccp::oracle::check(name, f);
        check_analysis_oracles(name, f);
    }

    /// `Cfg::new`, `LoopForest::new` and `util::sweep_dead` against their
    /// old bodies on `f`.
    pub fn check_analysis_oracles(name: &str, f: &zkvmopt_ir::Function) {
        analysis_oracle::check(name, f);
        util::oracle::check(name, f);
    }

    /// The printer and `stable_module_fingerprint` against the old printer
    /// on `m` as lowered, after `-O1` and after `-O3`.
    pub fn check_printer_oracle(name: &str, m: &Module) {
        crate::print_oracle::check(&format!("{name}@lowered"), m);
        for (level, pm) in [("O1", PassManager::o1()), ("O3", PassManager::o3())] {
            let mut opt = m.clone();
            pm.run(&mut opt, &PassConfig::default());
            crate::print_oracle::check(&format!("{name}@{level}"), &opt);
        }
    }

    /// Each pass whose kernels keep their old bodies as oracles, beside the
    /// same pass built on those bodies (same name and declarations).
    fn pass_oracles() -> Vec<(&'static PassEntry, PassEntry)> {
        let function = |name, run| {
            let e = registry_entry(name);
            (
                e,
                PassEntry::function(name, run, e.preserves(), e.is_idempotent()),
            )
        };
        let module = |name, run| {
            let e = registry_entry(name);
            (
                e,
                PassEntry::module(name, run, e.preserves(), e.is_idempotent()),
            )
        };
        vec![
            function("mem2reg", mem2reg::oracle::mem2reg),
            function("sroa", mem2reg::oracle::sroa),
            function("licm", loopopt::oracle::licm),
            function("loop-versioning-licm", loopopt::oracle::licm),
            function("reg2mem", mem2reg::oracle::reg2mem),
            function("simple-loop-unswitch", loopopt::oracle::loop_unswitch),
            module("loop-extract", loopopt::oracle::loop_extract),
            module("function-attrs", ipo::oracle::function_attrs),
            module("attributor", ipo::oracle::attributor),
        ]
    }

    /// Every pass of [`pass_oracles`] run both ways on `m`, each through a
    /// fresh executor: the same change flag and the same whole `Module`.
    pub fn check_pass_oracles(name: &str, m: &Module) {
        let cfg = PassConfig {
            verify_each: false,
            ..PassConfig::default()
        };
        for (new, old) in pass_oracles() {
            let (mut a, mut b) = (m.clone(), m.clone());
            let changed = PassExecutor::new().run_entry(new, &mut a, &cfg);
            let want = PassExecutor::new().run_entry(&old, &mut b, &cfg);
            assert_eq!(changed, want, "{name}: `{}` change flag", new.name);
            assert!(a == b, "{name}: `{}` differs from its oracle", new.name);
        }
    }

    /// [`check_pass_oracles`] on `m` as lowered, after `-O1` and after
    /// `-O3`, and at every state along one random sequence of 20 registry
    /// passes per seed — the mid-sequence, mostly unoptimised states a
    /// tuning search evaluates.
    pub fn check_pass_oracles_along(name: &str, m: &Module, seeds: std::ops::Range<u64>) {
        check_pass_oracles(&format!("{name}@lowered"), m);
        for (level, pm) in [("O1", PassManager::o1()), ("O3", PassManager::o3())] {
            let mut opt = m.clone();
            pm.run(&mut opt, &PassConfig::default());
            check_pass_oracles(&format!("{name}@{level}"), &opt);
        }
        for seed in seeds {
            along_random_sequence(m, seed, |i, pass, state| {
                check_pass_oracles(&format!("{name}@seed {seed} [{i}] {pass}"), state);
            });
        }
    }

    /// `visit(i, pass, state)` at every state along one random sequence of
    /// 20 registry passes drawn from `seed`, each pass run on `m`'s clone
    /// through a fresh executor without `verify_each`.
    pub fn along_random_sequence(
        m: &Module,
        seed: u64,
        mut visit: impl FnMut(usize, &str, &Module),
    ) {
        let cfg = PassConfig {
            verify_each: false,
            ..PassConfig::default()
        };
        let passes: Vec<&PassEntry> = PASSES.iter().filter(|e| !e.noop).collect();
        let mut state = m.clone();
        let mut x = seed;
        for i in 0..20 {
            // splitmix64
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let entry = passes[((z ^ (z >> 31)) % passes.len() as u64) as usize];
            PassExecutor::new().run_entry(entry, &mut state, &cfg);
            visit(i, entry.name, &state);
        }
    }

    /// [`check_analysis_oracles`] on every function of `m` as lowered and
    /// after each pass of `-O3`, run through one executor as
    /// [`PassManager::run`] does.
    pub fn check_analysis_oracles_along_o3(name: &str, m: &Module) {
        let check_all = |m: &Module, state: &str| {
            for f in &m.funcs {
                check_analysis_oracles(&format!("{name}/{}@{state}", f.name), f);
            }
        };
        let mut m = m.clone();
        check_all(&m, "lowered");
        let mut ex = PassExecutor::new();
        for (i, entry) in PassManager::o3().entries.iter().enumerate() {
            ex.run_entry(entry, &mut m, &PassConfig::default());
            check_all(&m, &format!("O3[{i}] {}", entry.name));
        }
    }
}

/// The random-program generator of `tests/proptest_passes.rs`.
#[cfg(test)]
#[path = "../../../tests/common/program_gen.rs"]
mod program_gen;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_the_studied_pass_axis() {
        let names = pass_names();
        assert!(names.len() >= 60, "registry has {} passes", names.len());
        for key in [
            "inline",
            "licm",
            "loop-unroll",
            "gvn",
            "simplifycfg",
            "mem2reg",
        ] {
            assert!(names.contains(&key), "missing {key}");
        }
    }

    #[test]
    fn pipelines_resolve() {
        for level in OptLevel::ALL {
            let pm = PassManager::for_level(level);
            assert!(!pm.names().is_empty());
        }
        assert!(!PassManager::zk_o3().names().is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown pass")]
    fn unknown_pass_panics() {
        let mut m = Module::new();
        run_pass("no-such-pass", &mut m, &PassConfig::default());
    }

    #[test]
    fn zk_config_matches_paper() {
        let zk = PassConfig::zk_aware();
        assert_eq!(zk.inline_threshold, 4328);
        assert_eq!(zk.simplifycfg_speculate, 0);
        assert!(!zk.strength_reduce_div);
    }

    #[test]
    fn aliases_resolve_to_canonical_passes() {
        for (alias, canonical) in [
            ("ipconstprop", "ipsccp"),
            ("loop-distribute", "loop-fission"),
            ("strip-dead-prototypes", "globaldce"),
        ] {
            let (a, c) = (find_pass(alias).unwrap(), find_pass(canonical).unwrap());
            assert_eq!(a.alias_of, Some(canonical));
            assert_eq!(a.canonical_name(), canonical);
            assert_eq!(c.canonical_name(), canonical);
            assert_eq!(a.preserves(), c.preserves());
            assert_eq!(a.is_idempotent(), c.is_idempotent());
        }
        assert!(is_noop_pass("loop-data-prefetch"));
        assert!(is_noop_pass("lower-switch"));
        assert!(!is_noop_pass("licm"));
        assert!(find_pass("mem2reg").unwrap().is_idempotent());
        assert!(!find_pass("instcombine").unwrap().is_idempotent());
    }

    #[test]
    fn pass_names_is_borrowed_and_stable() {
        let a = pass_names();
        let b = pass_names();
        assert_eq!(a.as_ptr(), b.as_ptr(), "no per-call allocation");
        assert!(a.len() >= 60);
    }

    /// Sources exercising branches, loops, calls and globals —
    /// enough surface for the declaration checks below to bite.
    fn sample_sources() -> Vec<&'static str> {
        vec![
            "fn main() -> i32 {
               let mut s: i32 = 0;
               for (let mut i: i32 = 0; i < 9; i += 1) { s += i * 3; }
               if (s > 10) { s = s - read_input(0); }
               return s;
             }",
            "static T: [i32; 4] = [2, 4, 8, 16];
             static U: [i32; 4] = [2, 4, 8, 16];
             fn helper(x: i32, unused: i32) -> i32 {
               if (x < 0) { return 0; }
               return x * T[1] + U[2];
             }
             fn dead(x: i32) -> i32 { return x + 1; }
             fn main() -> i32 {
               let mut acc: i32 = read_input(0);
               for (let mut i: i32 = 0; i < 5; i += 1) { acc = helper(acc, i * 7); }
               return acc % 1000;
             }",
            "fn gcd(a: i32, b: i32) -> i32 {
               if (b == 0) { return a; }
               return gcd(b, a % b);
             }
             fn main() -> i32 {
               let x: i32 = read_input(0);
               let mut r: i32 = 0;
               if (x == 3) { r = x * 100; } else { r = gcd(1071, 462); }
               return r / 4 + x / 8;
             }",
        ]
    }

    /// Every pass declared idempotent must be a no-op on its own output.
    #[test]
    fn declared_idempotence_holds() {
        let cfg = PassConfig {
            verify_each: true,
            ..PassConfig::default()
        };
        for src in sample_sources() {
            for entry in PASSES.iter().filter(|e| e.is_idempotent() && !e.noop) {
                let mut m = zkvmopt_lang::compile(src).unwrap();
                // Give structural passes realistic SSA input first.
                run_pass("mem2reg", &mut m, &cfg);
                run_pass(entry.name, &mut m, &cfg);
                let once = zkvmopt_ir::print::module_to_string(&m);
                let changed = run_pass(entry.name, &mut m, &cfg);
                let twice = zkvmopt_ir::print::module_to_string(&m);
                assert!(
                    !changed && once == twice,
                    "`{}` is declared idempotent but its second run changed the IR",
                    entry.name
                );
            }
        }
    }

    /// Every function pass declaring `cfg_shape()` preservation must leave
    /// the CFG-shape fingerprint of every function untouched — exercised on
    /// the frontend's raw alloca form *and* on promoted SSA (where the
    /// phi-heavy passes — `lcssa`, `sink`, `gvn`, `reg2mem` — actually have
    /// material to transform).
    #[test]
    fn declared_preservation_holds() {
        use zkvmopt_ir::analysis::{cfg_shape_fingerprint, PreservedAnalyses};
        let cfg = PassConfig {
            verify_each: true,
            ..PassConfig::default()
        };
        for src in sample_sources() {
            let raw = zkvmopt_lang::compile(src).unwrap();
            let mut promoted = raw.clone();
            run_pass("mem2reg", &mut promoted, &cfg);
            for entry in PASSES.iter() {
                let PassRef::Function(_) = entry.pass else {
                    continue;
                };
                if entry.preserves() != PreservedAnalyses::cfg_shape() {
                    continue;
                }
                for base in [&raw, &promoted] {
                    let mut m = base.clone();
                    let before: Vec<u64> = m.funcs.iter().map(cfg_shape_fingerprint).collect();
                    let changed = run_pass(entry.name, &mut m, &cfg);
                    let after: Vec<u64> = m.funcs.iter().map(cfg_shape_fingerprint).collect();
                    assert_eq!(
                        before, after,
                        "`{}` declares cfg_shape() preservation but changed the CFG shape \
                         (changed = {changed})",
                        entry.name
                    );
                }
            }
        }
    }

    /// A pipeline through one executor (caches shared across passes) must
    /// print the same IR as `run_pass` in a loop (fresh caches per pass), for
    /// every standard pipeline and both configs, on all 58 suite programs.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "full-suite sweep is release-only (CI: test-release)"
    )]
    fn manager_matches_uncached_execution() {
        let mut pipelines: Vec<(&str, PassManager)> = OptLevel::ALL
            .iter()
            .map(|&l| (l.flag(), PassManager::for_level(l)))
            .collect();
        pipelines.push(("zk-O3", PassManager::zk_o3()));
        for w in zkvmopt_workloads::all() {
            let base = zkvmopt_lang::compile_guest(&w.source).expect("suite program compiles");
            for (cfg_name, cfg) in [
                ("default", PassConfig::default()),
                ("zk_aware", PassConfig::zk_aware()),
            ] {
                let cfg = PassConfig {
                    verify_each: true,
                    ..cfg
                };
                for (flag, pm) in &pipelines {
                    let mut per_pass = base.clone();
                    for name in pm.names() {
                        run_pass(name, &mut per_pass, &cfg);
                    }
                    let mut managed = base.clone();
                    pm.run(&mut managed, &cfg);
                    assert_eq!(
                        zkvmopt_ir::print::module_to_string(&per_pass),
                        zkvmopt_ir::print::module_to_string(&managed),
                        "{} at {flag} ({cfg_name}): pipeline diverged from per-pass execution",
                        w.name
                    );
                }
            }
        }
    }

    /// The one state transition the executor has: a module pass that moves
    /// the function count (`loop-extract` outlines the loop) followed by a
    /// function pass through the *same* executor must match fresh executors.
    #[test]
    fn executor_restarts_its_caches_when_the_function_count_moves() {
        let cfg = PassConfig {
            verify_each: true,
            ..PassConfig::default()
        };
        let seq = ["mem2reg", "loop-simplify", "loop-extract", "licm", "gvn"];
        let base = zkvmopt_lang::compile(sample_sources()[0]).unwrap();
        let mut fresh = base.clone();
        let mut counts = vec![fresh.funcs.len()];
        for name in seq {
            run_pass(name, &mut fresh, &cfg);
            counts.push(fresh.funcs.len());
        }
        assert!(
            counts.windows(2).any(|w| w[0] != w[1]),
            "`loop-extract` should have outlined a function ({counts:?})"
        );
        let mut shared = base.clone();
        let mut ex = PassExecutor::new();
        for name in seq {
            ex.run_entry(find_pass(name).unwrap(), &mut shared, &cfg);
        }
        assert_eq!(
            zkvmopt_ir::print::module_to_string(&fresh),
            zkvmopt_ir::print::module_to_string(&shared),
        );
    }

    /// Registered no-ops must never report a change (the tuner drops them
    /// during canonicalization on this guarantee).
    #[test]
    fn noop_passes_never_change_anything() {
        let cfg = PassConfig::default();
        for src in sample_sources() {
            let mut m = zkvmopt_lang::compile(src).unwrap();
            let printed = zkvmopt_ir::print::module_to_string(&m);
            for entry in PASSES.iter().filter(|e| e.noop) {
                assert!(!run_pass(entry.name, &mut m, &cfg), "{}", entry.name);
            }
            assert_eq!(printed, zkvmopt_ir::print::module_to_string(&m));
        }
    }

    /// Old == new, as whole `Function`s, over every function of the 58
    /// lowered and `-O1` suite modules (and their peeled forms).
    #[test]
    fn linear_kernels_match_their_oracles_on_the_suite() {
        for w in zkvmopt_workloads::all() {
            let m = zkvmopt_lang::compile_guest(&w.source).expect("suite program compiles");
            for (name, f) in testutil::oracle_inputs(w.name, &m) {
                testutil::check_kernel_oracles(&name, &f);
            }
        }
    }

    /// The passes built on linear kernels against the same passes on the old
    /// rescanning bodies: whole `Module` and change flag, on the 58 suite
    /// programs as lowered, after `-O1` and `-O3`, and along four seeded
    /// random sequences of depth 20 from each.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "full-suite sweep is release-only (CI: test-release)"
    )]
    fn pass_kernels_match_their_oracles_on_the_suite() {
        for (i, w) in zkvmopt_workloads::all().iter().enumerate() {
            let m = zkvmopt_lang::compile_guest(&w.source).expect("suite program compiles");
            let i = i as u64;
            testutil::check_pass_oracles_along(w.name, &m, 4 * i..4 * i + 4);
        }
    }

    /// The same gate on three suite programs, small enough for debug builds.
    #[test]
    fn pass_kernels_match_their_oracles_on_three_programs() {
        for (seed, name) in ["loop-sum", "tailcall", "polybench-atax"]
            .iter()
            .enumerate()
        {
            let w = zkvmopt_workloads::by_name(name).expect("suite program");
            let m = zkvmopt_lang::compile_guest(&w.source).expect("suite program compiles");
            let seed = seed as u64;
            testutil::check_pass_oracles_along(w.name, &m, seed..seed + 1);
        }
    }

    /// The same gate on a slot whose address is stored to memory, a shape no
    /// zklang program lowers to (the language takes no scalar's address):
    /// `mem2reg` must keep `x`, and `function-attrs` must not find `leak`
    /// readnone.
    #[test]
    fn pass_kernels_match_their_oracles_on_a_stored_address() {
        use zkvmopt_ir::{FunctionBuilder, Operand, Ty};
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("leak", vec![], Some(Ty::I32));
        let x = b.alloca(Ty::I32, 1);
        let keep = b.alloca(Ty::Ptr, 1);
        b.store(Operand::val(x), Operand::i32(5), Ty::I32);
        b.store(Operand::val(keep), Operand::val(x), Ty::Ptr);
        let l = b.load(Operand::val(x), Ty::I32);
        b.ret(Some(Operand::val(l)));
        let leak = m.add_func(b.finish());
        let mut b = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        let r = b.call(leak, vec![], Some(Ty::I32));
        b.ret(Some(Operand::val(r)));
        m.add_func(b.finish());
        testutil::check_pass_oracles_along("stored-address", &m, 0..4);
    }

    /// `Cfg::new`, `LoopForest::new` and `util::sweep_dead` against their old
    /// bodies on every function of the 58 suite programs, as lowered and
    /// after every pass of `-O3`.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "full-suite sweep is release-only (CI: test-release)"
    )]
    fn analyses_match_their_oracles_along_o3_on_the_suite() {
        for w in zkvmopt_workloads::all() {
            let m = zkvmopt_lang::compile_guest(&w.source).expect("suite program compiles");
            testutil::check_analysis_oracles_along_o3(w.name, &m);
        }
    }

    /// The streaming printer and the fingerprint it feeds against the old
    /// `String`-building printer, on the 58 suite programs as lowered, after
    /// `-O1` and after `-O3`.
    #[test]
    fn printer_and_fingerprint_match_their_oracle_on_the_suite() {
        for w in zkvmopt_workloads::all() {
            let m = zkvmopt_lang::compile_guest(&w.source).expect("suite program compiles");
            testutil::check_printer_oracle(w.name, &m);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 12,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The printer oracle over the `proptest_passes` generator.
        #[test]
        fn printer_and_fingerprint_match_their_oracle_on_generated_programs(
            es in proptest::collection::vec(program_gen::arb_expr(), 1..5),
            trip in 1u8..20,
        ) {
            for src in [program_gen::program(&es, trip), program_gen::program_with_calls(&es, trip)] {
                let m = zkvmopt_lang::compile_guest(&src).expect("generated program compiles");
                testutil::check_printer_oracle("generated", &m);
            }
        }

        /// The same over the `proptest_passes` generator's programs.
        #[test]
        fn linear_kernels_match_their_oracles_on_generated_programs(
            es in proptest::collection::vec(program_gen::arb_expr(), 1..5),
            trip in 1u8..20,
        ) {
            for src in [program_gen::program(&es, trip), program_gen::program_with_calls(&es, trip)] {
                let m = zkvmopt_lang::compile_guest(&src).expect("generated program compiles");
                for (name, f) in testutil::oracle_inputs("generated", &m) {
                    testutil::check_kernel_oracles(&name, &f);
                }
            }
        }

        /// The pass-kernel oracles over the same generator, along a random
        /// sequence seeded by the trip count.
        #[test]
        #[cfg_attr(
            debug_assertions,
            ignore = "release-only, like the suite sweep (CI: test-release)"
        )]
        fn pass_kernels_match_their_oracles_on_generated_programs(
            es in proptest::collection::vec(program_gen::arb_expr(), 1..5),
            trip in 1u8..20,
        ) {
            for src in [program_gen::program(&es, trip), program_gen::program_with_calls(&es, trip)] {
                let m = zkvmopt_lang::compile_guest(&src).expect("generated program compiles");
                let seed = u64::from(trip);
                testutil::check_pass_oracles_along("generated", &m, seed..seed + 1);
            }
        }

        /// The analysis oracles along `-O3` over the same generator.
        #[test]
        #[cfg_attr(
            debug_assertions,
            ignore = "release-only, like the suite sweep (CI: test-release)"
        )]
        fn analyses_match_their_oracles_along_o3_on_generated_programs(
            es in proptest::collection::vec(program_gen::arb_expr(), 1..5),
            trip in 1u8..20,
        ) {
            for src in [program_gen::program(&es, trip), program_gen::program_with_calls(&es, trip)] {
                let m = zkvmopt_lang::compile_guest(&src).expect("generated program compiles");
                testutil::check_analysis_oracles_along_o3("generated", &m);
            }
        }
    }
}
