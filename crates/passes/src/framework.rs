//! The pass framework: the two pass signatures, the registry row
//! ([`PassEntry`]), the [`PassExecutor`] with its per-function analysis
//! caches, and the shared context types passes run against.
//!
//! # Writing a new pass
//!
//! A pass is a free function plus one row in the registry
//! ([`crate::PASSES`]). Decide its scope first:
//!
//! - **Function pass** — transforms one function at a time and needs at most
//!   read-only module facts. Signature:
//!
//!   ```text
//!   fn my_pass(f: &mut Function, ac: &mut AnalysisCache,
//!              cx: &FunctionContext<'_>, cfg: &PassConfig) -> bool
//!   ```
//!
//!   Get analyses from the cache (`ac.cfg(f)`, `ac.dom(f)`, `ac.frontiers(f)`,
//!   `ac.loops(f)`) instead of constructing them: repeated queries are free
//!   until something invalidates. If the pass mutates terminators or blocks
//!   and then needs analyses again, call `ac.invalidate_all()` first — debug
//!   builds panic if a stale analysis would be served.
//!
//! - **Module pass** — needs `&mut Module` (inlining, IPO, anything adding or
//!   gutting functions). Signature: `fn(&mut Module, &PassConfig) -> bool`.
//!
//! Then add its row, declaring the metadata the executor and the tuner rely
//! on:
//!
//! - `preserves`: [`PreservedAnalyses::cfg_shape`] **only** if the pass never
//!   touches terminators or adds/removes blocks (instruction edits, operand
//!   rewrites, and phi insertion are all shape-preserving); otherwise
//!   [`PreservedAnalyses::none`].
//! - `idempotent`: `true` only if running the pass twice in a row always
//!   equals running it once (the tuner's sequence canonicalization drops the
//!   second of two adjacent runs on this declaration).
//!
//! The **change contract** is load-bearing: a pass must return `true` iff it
//! mutated anything. The executor invalidates a function's cached analyses
//! only when a pass reports a change there, so a false "unchanged" leaves
//! them stale for every later pass of the pipeline. With
//! `PassConfig::verify_each` set, debug builds snapshot each function and
//! panic on dishonest reporting.

use crate::PassConfig;
use zkvmopt_ir::analysis::{AnalysisCache, PreservedAnalyses};
use zkvmopt_ir::{FuncId, Function, Module};

/// Read-only module-level facts available to function passes — the snapshot
/// a function pass may consult without holding `&Module` (which would alias
/// the `&mut Function` it transforms).
#[derive(Debug, Clone)]
pub struct ModuleInfo {
    /// Per function: whether it is `readnone`, and whether it is `readonly`.
    attrs: Vec<(bool, bool)>,
    global_sizes: Vec<u32>,
}

impl ModuleInfo {
    /// Snapshot `m`'s interprocedural facts.
    pub fn of(m: &Module) -> ModuleInfo {
        ModuleInfo {
            attrs: m.funcs.iter().map(|f| (f.readnone, f.readonly)).collect(),
            global_sizes: m.globals.iter().map(|g| g.size).collect(),
        }
    }

    /// Whether function `id` is known `readnone` (no memory access at all).
    pub fn is_readnone(&self, id: FuncId) -> bool {
        self.attrs.get(id.index()).is_some_and(|a| a.0)
    }

    /// Whether function `id` is known `readonly`.
    pub fn is_readonly(&self, id: FuncId) -> bool {
        self.attrs.get(id.index()).is_some_and(|a| a.1)
    }

    /// Byte size of global `i`, or 0 when out of range.
    pub fn global_size(&self, i: usize) -> u32 {
        self.global_sizes.get(i).copied().unwrap_or(0)
    }
}

/// Per-invocation context of a function pass.
#[derive(Debug)]
pub struct FunctionContext<'a> {
    /// The id of the function being transformed (its index in
    /// `Module::funcs`) — e.g. `tailcall` needs it to recognize self-calls.
    pub id: FuncId,
    /// Module-level facts.
    pub info: &'a ModuleInfo,
}

/// Implementation signature of a function pass.
pub type FunctionPassFn =
    fn(&mut Function, &mut AnalysisCache, &FunctionContext<'_>, &PassConfig) -> bool;

/// Implementation signature of a module pass.
pub type ModulePassFn = fn(&mut Module, &PassConfig) -> bool;

/// Either kind of pass, as stored in the registry.
pub enum PassRef {
    /// A module-scoped pass.
    Module(ModulePassFn),
    /// A function-scoped pass.
    Function(FunctionPassFn),
}

/// One registry row: a name bound to a pass and its declarations,
/// optionally as an alias.
pub struct PassEntry {
    /// Registry name this entry answers to.
    pub name: &'static str,
    /// When `Some`, this entry is an explicit alias: same implementation,
    /// canonical name given here (e.g. `ipconstprop` → `ipsccp`).
    pub alias_of: Option<&'static str>,
    /// Registered no-op (hardware-only pass with nothing to do on a zkVM).
    pub noop: bool,
    /// The implementation.
    pub pass: PassRef,
    preserves: PreservedAnalyses,
    idempotent: bool,
}

impl PassEntry {
    /// A function-pass row: `preserves` is what stays valid in a function
    /// the pass changed, `idempotent` whether a second adjacent run is
    /// always a no-op.
    pub const fn function(
        name: &'static str,
        run: FunctionPassFn,
        preserves: PreservedAnalyses,
        idempotent: bool,
    ) -> PassEntry {
        PassEntry {
            name,
            alias_of: None,
            noop: false,
            pass: PassRef::Function(run),
            preserves,
            idempotent,
        }
    }

    /// A module-pass row (`preserves` applies to every function).
    pub const fn module(
        name: &'static str,
        run: ModulePassFn,
        preserves: PreservedAnalyses,
        idempotent: bool,
    ) -> PassEntry {
        PassEntry {
            name,
            alias_of: None,
            noop: false,
            pass: PassRef::Module(run),
            preserves,
            idempotent,
        }
    }

    /// An explicit alias of `canonical`: its implementation and declarations
    /// under another name.
    pub const fn alias(name: &'static str, canonical: PassEntry) -> PassEntry {
        PassEntry {
            name,
            alias_of: Some(canonical.name),
            ..canonical
        }
    }

    /// A registered no-op row.
    pub const fn noop(name: &'static str) -> PassEntry {
        PassEntry {
            noop: true,
            ..PassEntry::module(
                name,
                crate::misc::noop,
                PreservedAnalyses::cfg_shape(),
                true,
            )
        }
    }

    /// The canonical name: the alias target if this entry is an alias.
    pub fn canonical_name(&self) -> &'static str {
        self.alias_of.unwrap_or(self.name)
    }

    /// Declared preservation on change.
    pub fn preserves(&self) -> PreservedAnalyses {
        self.preserves
    }

    /// Idempotence declaration.
    pub fn is_idempotent(&self) -> bool {
        self.idempotent
    }
}

/// Runs passes over one module, keeping an [`AnalysisCache`] per function
/// alive *across* the passes of a pipeline: a pass that reports a change
/// drops what it does not declare preserved, everything else is served to
/// the next pass from the cache. That sharing is the executor's only state
/// and is measured to pay for itself — a fresh cache per pass costs
/// 1.00× / 1.13× / 1.09× of suite pass time at `-O1` / `-O2` / `-O3` — so
/// [`crate::PassManager::run`] drives one executor through the pipeline,
/// while [`crate::run_pass`] (a fresh executor per pass) is the reference
/// the tests hold it to.
#[derive(Default)]
pub struct PassExecutor {
    caches: Vec<AnalysisCache>,
}

impl PassExecutor {
    /// A fresh executor with cold caches.
    pub fn new() -> PassExecutor {
        PassExecutor::default()
    }

    /// Run one registry entry over `m`. Returns whether anything changed.
    ///
    /// # Panics
    /// With `cfg.verify_each` set, panics if the pass broke the IR or (debug
    /// builds) reported no change after mutating it.
    pub fn run_entry(&mut self, entry: &PassEntry, m: &mut Module, cfg: &PassConfig) -> bool {
        // Caches are per function slot: a first run, or a module pass that
        // added or removed functions, starts them cold.
        if self.caches.len() != m.funcs.len() {
            self.caches = vec![AnalysisCache::new(); m.funcs.len()];
        }
        let changed = match entry.pass {
            PassRef::Function(run) => {
                let info = ModuleInfo::of(m);
                let mut changed = false;
                for (i, (f, ac)) in m.funcs.iter_mut().zip(&mut self.caches).enumerate() {
                    let cx = FunctionContext {
                        id: FuncId(i as u32),
                        info: &info,
                    };
                    let snapshot = honest_snapshot(cfg, || f.clone());
                    let func_changed = run(f, ac, &cx, cfg);
                    check_honest(!func_changed, snapshot.as_ref(), f, entry.name);
                    if func_changed {
                        ac.invalidate(&entry.preserves);
                        changed = true;
                    }
                }
                changed
            }
            PassRef::Module(run) => {
                let snapshot = honest_snapshot(cfg, || m.clone());
                let changed = run(m, cfg);
                check_honest(!changed, snapshot.as_ref(), m, entry.name);
                if changed {
                    for ac in &mut self.caches {
                        ac.invalidate(&entry.preserves);
                    }
                }
                changed
            }
        };
        if cfg.verify_each {
            if let Err(e) = zkvmopt_ir::verify::verify_module(m) {
                panic!("pass `{}` broke the IR: {e}", entry.name);
            }
        }
        changed
    }
}

/// Snapshot for the dishonest-change-report check: debug builds with
/// `verify_each` set only (`PassConfig::default()` in debug, and the tests
/// that set it explicitly; the tuner's candidates clear it).
fn honest_snapshot<T>(cfg: &PassConfig, make: impl FnOnce() -> T) -> Option<T> {
    if cfg!(debug_assertions) && cfg.verify_each {
        Some(make())
    } else {
        None
    }
}

fn check_honest<T: PartialEq>(reported_unchanged: bool, snapshot: Option<&T>, now: &T, pass: &str) {
    if reported_unchanged && snapshot.is_some_and(|before| before != now) {
        panic!(
            "pass `{pass}` reported no change but mutated the IR — the \
             executor's analysis-cache invalidation relies on honest change \
             reporting"
        );
    }
}
