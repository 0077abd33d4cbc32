//! Analysis caching: [`AnalysisCache`] and [`PreservedAnalyses`].
//!
//! Mirrors LLVM's new-pass-manager analysis framework, scaled to this IR.
//! Every structural analysis in the workspace — [`Cfg`], [`DomTree`],
//! dominance frontiers, [`LoopForest`] — is a pure function of one thing: the
//! function's *CFG shape* (entry block, block count, and each terminator's
//! successor list). Instruction-level edits (adding phis, removing dead code,
//! rewriting operands) never invalidate them; only terminator/block edits do.
//!
//! The cache hands analyses out as [`Rc`] clones so a pass can hold an
//! analysis while mutating the function. The *contract* is:
//!
//! - cached results are valid for the function as it was when they were
//!   computed;
//! - a pass that changes the CFG shape must invalidate before querying again
//!   ([`AnalysisCache::invalidate`] / [`AnalysisCache::invalidate_all`]);
//! - the pass executor invalidates after each changed pass run according to
//!   the pass's declared [`PreservedAnalyses`].
//!
//! Debug builds enforce the contract: every getter fingerprints the current
//! CFG shape and panics if a cached analysis no longer matches, so a stale
//! analysis can never be served silently.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::func::{BlockId, Function};
use crate::loops::LoopForest;
use std::rc::Rc;

/// What a pass run that changed a function left valid — the executor's
/// invalidation currency (LLVM's `PreservedAnalyses`).
///
/// Every analysis here derives from the CFG shape alone, so there are two
/// answers: [`PreservedAnalyses::cfg_shape`] (the pass touched instructions
/// only, everything cached survives) and [`PreservedAnalyses::none`] (the
/// pass may have changed terminators or blocks, nothing does).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreservedAnalyses {
    cfg_shape: bool,
}

impl PreservedAnalyses {
    /// Nothing survives: the pass may have restructured the CFG.
    pub const fn none() -> PreservedAnalyses {
        PreservedAnalyses { cfg_shape: false }
    }

    /// Every analysis derived from the CFG shape survives: the pass changed
    /// instructions/operands only.
    pub const fn cfg_shape() -> PreservedAnalyses {
        PreservedAnalyses { cfg_shape: true }
    }
}

/// Fingerprint of everything the cached analyses depend on: the entry block,
/// the block count, and each terminator's successor list. FNV-1a over the raw
/// block ids — cheap enough to run on every debug-build cache hit.
pub fn cfg_shape_fingerprint(f: &Function) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(PRIME);
    };
    mix(f.entry.0 as u64);
    mix(f.blocks.len() as u64);
    for b in &f.blocks {
        for s in b.term.succs() {
            mix(s.0 as u64);
        }
        // Separate blocks so successor lists cannot slide across boundaries.
        mix(u64::MAX);
    }
    h
}

/// Stable FNV-1a fingerprint of a whole module's canonical textual form.
///
/// This fingerprint is **stable across processes, platforms, and Rust
/// versions**: it hashes the printed IR ([`crate::print::module_to_string`]),
/// whose format the golden snapshots already pin down. It is the key the
/// persistent tune database uses to recognize a program across runs — two
/// sources that lower to the same IR warm-start from each other's tuning
/// results.
///
/// The printer behind `module_to_string` streams into the hash, so no text
/// is built: the value is [`stable_fingerprint_bytes`] of
/// `module_to_string(m)` without the `String`.
pub fn stable_module_fingerprint(m: &crate::func::Module) -> u64 {
    let mut h = Fnv1a(FNV_OFFSET);
    let _ = crate::print::write_module(&mut h, m); // the sink never fails
    h.0
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// An FNV-1a state that the printer writes into.
struct Fnv1a(u64);

impl Fnv1a {
    fn update(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x100000001b3;
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a over raw bytes — the primitive under
/// [`stable_module_fingerprint`], exposed so callers can fingerprint other
/// stable serializations (e.g. source text) with the same function.
pub fn stable_fingerprint_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a(FNV_OFFSET);
    h.update(bytes);
    h.0
}

/// Serialize a fingerprint as the fixed-width lowercase hex the tune
/// database stores (`16` nibbles, zero-padded).
///
/// ```
/// use zkvmopt_ir::analysis::{fingerprint_from_hex, fingerprint_to_hex};
/// let fp = 0x00ab_cdef_0123_4567;
/// assert_eq!(fingerprint_to_hex(fp), "00abcdef01234567");
/// assert_eq!(fingerprint_from_hex(&fingerprint_to_hex(fp)), Some(fp));
/// ```
pub fn fingerprint_to_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Parse a fingerprint serialized by [`fingerprint_to_hex`]. Returns `None`
/// for anything but exactly 16 lowercase hex digits, so a truncated or
/// hand-edited database line is rejected rather than misread.
pub fn fingerprint_from_hex(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Lazily computed, invalidation-aware per-function analyses.
///
/// See the [module docs](self) for the validity contract. All getters return
/// [`Rc`] clones, so holding an analysis across mutation is cheap and safe
/// (the clone describes the function as of computation time).
#[derive(Debug, Default, Clone)]
pub struct AnalysisCache {
    cfg: Option<Rc<Cfg>>,
    dom: Option<Rc<DomTree>>,
    frontiers: Option<Rc<Vec<Vec<BlockId>>>>,
    loops: Option<Rc<LoopForest>>,
    /// [`cfg_shape_fingerprint`] of the function at compute time
    /// (debug-assertion fuel; absent until something is cached).
    fingerprint: Option<u64>,
}

impl AnalysisCache {
    /// An empty cache.
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
    }

    fn check_fresh(&mut self, f: &Function) {
        match self.fingerprint {
            None => self.fingerprint = Some(cfg_shape_fingerprint(f)),
            Some(fp) => debug_assert_eq!(
                fp,
                cfg_shape_fingerprint(f),
                "stale AnalysisCache: the CFG shape of `{}` changed without \
                 invalidation — a pass mutated terminators/blocks and then \
                 queried (or a pass over-declared its PreservedAnalyses)",
                f.name
            ),
        }
    }

    /// The function's [`Cfg`], computing and caching it on first use.
    pub fn cfg(&mut self, f: &Function) -> Rc<Cfg> {
        self.check_fresh(f);
        if let Some(c) = &self.cfg {
            return Rc::clone(c);
        }
        let c = Rc::new(Cfg::new(f));
        self.cfg = Some(Rc::clone(&c));
        c
    }

    /// The function's [`DomTree`], computing it (and the [`Cfg`]) on demand.
    pub fn dom(&mut self, f: &Function) -> Rc<DomTree> {
        self.check_fresh(f);
        if let Some(d) = &self.dom {
            return Rc::clone(d);
        }
        let cfg = self.cfg(f);
        let d = Rc::new(DomTree::new(f, &cfg));
        self.dom = Some(Rc::clone(&d));
        d
    }

    /// Dominance frontiers of every block (the `mem2reg` phi-placement input).
    pub fn frontiers(&mut self, f: &Function) -> Rc<Vec<Vec<BlockId>>> {
        self.check_fresh(f);
        if let Some(fr) = &self.frontiers {
            return Rc::clone(fr);
        }
        let cfg = self.cfg(f);
        let dom = self.dom(f);
        let fr = Rc::new(dom.dominance_frontiers(&cfg));
        self.frontiers = Some(Rc::clone(&fr));
        fr
    }

    /// The function's [`LoopForest`], computing prerequisites on demand.
    pub fn loops(&mut self, f: &Function) -> Rc<LoopForest> {
        self.check_fresh(f);
        if let Some(l) = &self.loops {
            return Rc::clone(l);
        }
        let cfg = self.cfg(f);
        let dom = self.dom(f);
        let l = Rc::new(LoopForest::new(f, &cfg, &dom));
        self.loops = Some(Rc::clone(&l));
        l
    }

    /// Drop every analysis not covered by `preserved`.
    pub fn invalidate(&mut self, preserved: &PreservedAnalyses) {
        if !preserved.cfg_shape {
            self.invalidate_all();
        }
    }

    /// Drop everything.
    pub fn invalidate_all(&mut self) {
        *self = AnalysisCache::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{Operand, Pred, Term};
    use crate::ty::Ty;

    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("d", vec![Ty::I32], Some(Ty::I32));
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let c = b.icmp(Pred::Sgt, Operand::val(b.param(0)), Operand::i32(0));
        b.cond_br(Operand::val(c), t, e);
        b.switch_to(t);
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.switch_to(j);
        b.ret(Some(Operand::i32(0)));
        b.finish()
    }

    #[test]
    fn lazily_computes_and_reuses() {
        let f = diamond();
        let mut ac = AnalysisCache::new();
        let c1 = ac.cfg(&f);
        let c2 = ac.cfg(&f);
        assert!(Rc::ptr_eq(&c1, &c2), "second query must be a cache hit");
        // dom/frontiers/loops are computed once and share the cached Cfg.
        let (d, fr, l) = (ac.dom(&f), ac.frontiers(&f), ac.loops(&f));
        assert!(Rc::ptr_eq(&d, &ac.dom(&f)));
        assert!(Rc::ptr_eq(&fr, &ac.frontiers(&f)));
        assert!(Rc::ptr_eq(&l, &ac.loops(&f)));
        assert!(
            Rc::ptr_eq(&c1, &ac.cfg(&f)),
            "prerequisites reuse the cached Cfg"
        );
    }

    #[test]
    fn results_match_fresh_computation() {
        let f = diamond();
        let mut ac = AnalysisCache::new();
        let cfg = ac.cfg(&f);
        let fresh = Cfg::new(&f);
        assert_eq!(cfg.rpo(), fresh.rpo());
        let dom = ac.dom(&f);
        let fresh_dom = DomTree::new(&f, &fresh);
        for b in f.block_ids() {
            assert_eq!(dom.idom(b), fresh_dom.idom(b));
        }
        assert_eq!(*ac.frontiers(&f), fresh_dom.dominance_frontiers(&fresh));
        assert_eq!(ac.loops(&f).loops.len(), 0);
    }

    #[test]
    fn invalidate_none_preserved_recomputes() {
        let mut f = diamond();
        let mut ac = AnalysisCache::new();
        assert_eq!(ac.cfg(&f).succs(BlockId(0)).len(), 2);
        // Collapse the branch: entry now goes straight to the join.
        f.blocks[0].term = Term::Br(BlockId(3));
        ac.invalidate(&PreservedAnalyses::none());
        // A stale cache would still say two successors.
        assert_eq!(ac.cfg(&f).succs(BlockId(0)).len(), 1);
        assert!(!ac.cfg(&f).is_reachable(BlockId(1)));
    }

    #[test]
    fn invalidate_all_preserved_keeps_cache() {
        let f = diamond();
        let mut ac = AnalysisCache::new();
        let before = ac.cfg(&f);
        ac.invalidate(&PreservedAnalyses::cfg_shape());
        let after = ac.cfg(&f);
        assert!(Rc::ptr_eq(&before, &after));
    }

    #[test]
    fn stable_fingerprint_is_content_keyed_and_hex_round_trips() {
        let mut m = crate::func::Module::new();
        m.add_func(diamond());
        let fp = stable_module_fingerprint(&m);
        let mut m2 = crate::func::Module::new();
        m2.add_func(diamond());
        assert_eq!(
            fp,
            stable_module_fingerprint(&m2),
            "equal content, equal fp"
        );
        // Any content edit moves the fingerprint.
        m2.funcs[0].blocks[1].term = Term::Br(BlockId(2));
        assert_ne!(fp, stable_module_fingerprint(&m2));
        // Hex serialization round-trips and rejects malformed inputs.
        assert_eq!(fingerprint_from_hex(&fingerprint_to_hex(fp)), Some(fp));
        assert_eq!(fingerprint_from_hex(&fingerprint_to_hex(0)), Some(0));
        for bad in [
            "",
            "abc",
            "00abcdef0123456",
            "00ABCDEF01234567",
            "g0abcdef01234567",
        ] {
            assert_eq!(fingerprint_from_hex(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn instruction_edits_do_not_change_the_fingerprint() {
        let mut f = diamond();
        let before = cfg_shape_fingerprint(&f);
        // Add an instruction: analyses don't depend on it.
        let j = BlockId(3);
        f.add_inst(
            j,
            crate::inst::Op::Bin {
                op: crate::inst::BinOp::Add,
                a: Operand::i32(1),
                b: Operand::i32(2),
            },
            Some(Ty::I32),
        );
        assert_eq!(before, cfg_shape_fingerprint(&f));
        // Retarget a terminator: that *is* a shape change.
        f.blocks[1].term = Term::Br(BlockId(2));
        assert_ne!(before, cfg_shape_fingerprint(&f));
    }

    /// The debug contract: serving a cached analysis after an uninvalidated
    /// CFG-shape change must panic (debug builds only — release trusts the
    /// pass manager's invalidation, which tier-1 tests exercise in debug).
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale AnalysisCache")]
    fn stale_analysis_is_never_served() {
        let mut f = diamond();
        let mut ac = AnalysisCache::new();
        let _ = ac.cfg(&f);
        f.blocks[0].term = Term::Br(BlockId(3)); // CFG change, no invalidate
        let _ = ac.cfg(&f); // must panic, not serve the stale adjacency
    }
}
