//! Program feature extraction for predictive tuning.
//!
//! The tune database keys entries by [`stable_module_fingerprint`], which
//! only ever matches a program *exactly*. Predictive tuning needs the
//! complementary notion — "this unseen program looks like those seen ones" —
//! so this module summarizes a module into a fixed-dimension numeric
//! [`FeatureVector`] over the structural properties the paper's pass-impact
//! study found discriminative: loop structure (count, nesting), memory-op
//! density (the paging-cost driver), branch density (the `simplifycfg` /
//! jump-threading axis), call-graph fan-out (the inlining axis), the
//! instruction mix, and function count/size moments.
//!
//! ## Determinism contract
//!
//! Extraction is **order-stable and process-stable**, like
//! [`stable_module_fingerprint`]: it iterates functions in arena order and
//! blocks in the deterministic [`Function::reachable_blocks`] preorder,
//! accumulates in integer counters, and only converts to `f64` at the end
//! through exact integer-to-float conversion and IEEE division. Two
//! processes (or two runs) extracting from equal IR produce bit-identical
//! vectors, and [`FeatureVector::to_text`] / [`FeatureVector::from_text`]
//! round-trip them losslessly — which is what lets the persistent tune
//! database store features and still be byte-stable across runs.
//!
//! [`stable_module_fingerprint`]: crate::analysis::stable_module_fingerprint

use crate::analysis::AnalysisCache;
use crate::func::{Function, Module};
use crate::inst::{Op, Term};

/// Number of dimensions in a [`FeatureVector`].
pub const FEATURE_DIM: usize = 22;

/// Human-readable name of each dimension, in [`FeatureVector::raw`] order.
pub const FEATURE_LABELS: [&str; FEATURE_DIM] = [
    "func_count",
    "total_insts",
    "func_size_mean",
    "func_size_std",
    "loop_count",
    "loop_max_depth",
    "mem_op_density",
    "branch_density",
    "call_fanout",
    "mix_bin",
    "mix_icmp",
    "mix_select",
    "mix_load",
    "mix_store",
    "mix_alloca",
    "mix_gep",
    "mix_globaladdr",
    "mix_call",
    "mix_ecall",
    "mix_phi",
    "mix_cast",
    "mix_copy",
];

/// A fixed-dimension structural summary of one module.
///
/// Densities and mix entries are fractions in `[0, 1]`; the remaining
/// dimensions are raw counts/moments. The predictor z-score-normalizes
/// every dimension against its database population before measuring
/// distances, so the mixed scales here are intentional — no dimension needs
/// hand-tuned weighting at extraction time.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector {
    /// The feature values, in [`FEATURE_LABELS`] order.
    pub raw: [f64; FEATURE_DIM],
}

/// Integer accumulators for one module walk.
#[derive(Default)]
struct Counts {
    insts: u64,
    blocks: u64,
    branches: u64,
    loops: u64,
    max_depth: u64,
    call_edges: u64,
    mix: [u64; 13],
}

/// Index into [`Counts::mix`] for one op. `Nop` never appears in a block's
/// instruction list, but tolerate it (counted as `copy`-adjacent dead slot
/// would distort nothing: it contributes to no category).
fn mix_slot(op: &Op) -> Option<usize> {
    Some(match op {
        Op::Bin { .. } => 0,
        Op::Icmp { .. } => 1,
        Op::Select { .. } => 2,
        Op::Load { .. } => 3,
        Op::Store { .. } => 4,
        Op::Alloca { .. } => 5,
        Op::Gep { .. } => 6,
        Op::GlobalAddr(_) => 7,
        Op::Call { .. } => 8,
        Op::Ecall { .. } => 9,
        Op::Phi { .. } => 10,
        Op::Cast { .. } => 11,
        Op::Copy(_) => 12,
        Op::Nop => return None,
    })
}

fn walk_function(f: &Function, counts: &mut Counts, sizes: &mut Vec<u64>) {
    let mut size = 0u64;
    let mut callees: Vec<u32> = Vec::new();
    for b in f.reachable_blocks() {
        counts.blocks += 1;
        let data = &f.blocks[b.index()];
        for &v in &data.insts {
            let Some(op) = f.op(v) else { continue };
            if let Some(slot) = mix_slot(op) {
                counts.mix[slot] += 1;
                counts.insts += 1;
                size += 1;
            }
            if let Op::Call { callee, .. } = op {
                if !callees.contains(&callee.0) {
                    callees.push(callee.0);
                }
            }
        }
        if matches!(data.term, Term::CondBr { .. }) {
            counts.branches += 1;
        }
    }
    counts.call_edges += callees.len() as u64;
    sizes.push(size);

    // Loop structure comes from the shared analysis layer (same natural-loop
    // discovery every loop pass consumes), computed on a throwaway cache so
    // extraction never perturbs a caller's invalidation state.
    let mut ac = AnalysisCache::new();
    let loops = ac.loops(f);
    counts.loops += loops.loops.len() as u64;
    for l in &loops.loops {
        counts.max_depth = counts.max_depth.max(l.depth as u64);
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl FeatureVector {
    /// Extract the feature vector of `m`. Deterministic and process-stable;
    /// see the [module docs](self).
    pub fn extract(m: &Module) -> FeatureVector {
        let mut counts = Counts::default();
        let mut sizes: Vec<u64> = Vec::with_capacity(m.funcs.len());
        for f in &m.funcs {
            walk_function(f, &mut counts, &mut sizes);
        }
        let n_funcs = sizes.len() as u64;
        let size_mean = ratio(counts.insts, n_funcs);
        let size_var = if sizes.is_empty() {
            0.0
        } else {
            sizes
                .iter()
                .map(|&s| {
                    let d = s as f64 - size_mean;
                    d * d
                })
                .sum::<f64>()
                / sizes.len() as f64
        };
        let mut raw = [0.0; FEATURE_DIM];
        raw[0] = n_funcs as f64;
        raw[1] = counts.insts as f64;
        raw[2] = size_mean;
        raw[3] = size_var.sqrt();
        raw[4] = counts.loops as f64;
        raw[5] = counts.max_depth as f64;
        raw[6] = ratio(counts.mix[3] + counts.mix[4], counts.insts);
        raw[7] = ratio(counts.branches, counts.blocks);
        raw[8] = ratio(counts.call_edges, n_funcs);
        for (i, &c) in counts.mix.iter().enumerate() {
            raw[9 + i] = ratio(c, counts.insts);
        }
        FeatureVector { raw }
    }

    /// The values as a slice, in [`FEATURE_LABELS`] order.
    pub fn as_slice(&self) -> &[f64] {
        &self.raw
    }

    /// Rebuild a vector from exactly [`FEATURE_DIM`] finite values (e.g. a
    /// deserialized tune-database entry). `None` on wrong arity or any
    /// non-finite value, so a corrupt line is rejected rather than misread.
    pub fn from_slice(values: &[f64]) -> Option<FeatureVector> {
        if values.len() != FEATURE_DIM || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut raw = [0.0; FEATURE_DIM];
        raw.copy_from_slice(values);
        Some(FeatureVector { raw })
    }

    /// Serialize as a single whitespace-free comma-joined field. Uses Rust's
    /// shortest-round-trip `f64` formatting, so `from_text(to_text(v))`
    /// reproduces `v` bit for bit.
    pub fn to_text(&self) -> String {
        let parts: Vec<String> = self.raw.iter().map(|v| format!("{v}")).collect();
        parts.join(",")
    }

    /// Parse [`FeatureVector::to_text`] output. `None` on malformed input.
    pub fn from_text(s: &str) -> Option<FeatureVector> {
        let values: Option<Vec<f64>> = s.split(',').map(|p| p.parse::<f64>().ok()).collect();
        FeatureVector::from_slice(&values?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, Operand, Pred};
    use crate::ty::Ty;

    /// fn loopy(n) { s = 0; for i in 0..n { s += i } return s } — one loop,
    /// a branch, and a simple mix.
    fn loopy_module() -> Module {
        let mut b = FunctionBuilder::new("loopy", vec![Ty::I32], Some(Ty::I32));
        let entry = b.current_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Ty::I32, vec![(entry, Operand::i32(0))]);
        let s = b.phi(Ty::I32, vec![(entry, Operand::i32(0))]);
        let c = b.icmp(Pred::Slt, Operand::val(i), Operand::val(b.param(0)));
        b.cond_br(Operand::val(c), body, exit);
        b.switch_to(body);
        let s2 = b.bin(BinOp::Add, Operand::val(s), Operand::val(i));
        let i2 = b.bin(BinOp::Add, Operand::val(i), Operand::i32(1));
        b.br(header);
        b.add_phi_incoming(i, body, Operand::val(i2));
        b.add_phi_incoming(s, body, Operand::val(s2));
        b.switch_to(exit);
        b.ret(Some(Operand::val(s)));
        let mut m = Module::new();
        m.add_func(b.finish());
        m
    }

    #[test]
    fn extraction_counts_the_obvious_structure() {
        let m = loopy_module();
        let fv = FeatureVector::extract(&m);
        assert_eq!(fv.raw[0], 1.0, "one function");
        assert_eq!(fv.raw[4], 1.0, "one natural loop");
        assert_eq!(fv.raw[5], 1.0, "depth-1 nesting");
        assert!(fv.raw[7] > 0.0, "the loop test is a conditional branch");
        assert_eq!(fv.raw[8], 0.0, "no calls");
        // Mix fractions are a probability distribution over counted insts.
        let mix_sum: f64 = fv.raw[9..].iter().sum();
        assert!(
            (mix_sum - 1.0).abs() < 1e-12,
            "mix sums to 1, got {mix_sum}"
        );
    }

    #[test]
    fn extraction_is_deterministic_and_content_keyed() {
        let a = FeatureVector::extract(&loopy_module());
        let b = FeatureVector::extract(&loopy_module());
        assert_eq!(a, b, "equal IR, bit-equal features");
        let mut m = loopy_module();
        // Adding an instruction must move the vector.
        let entry = m.funcs[0].entry;
        m.funcs[0].add_inst(
            entry,
            Op::Bin {
                op: BinOp::Add,
                a: Operand::i32(1),
                b: Operand::i32(2),
            },
            Some(Ty::I32),
        );
        assert_ne!(a, FeatureVector::extract(&m));
    }

    #[test]
    fn empty_module_extracts_all_zeros() {
        let fv = FeatureVector::extract(&Module::new());
        assert_eq!(fv.raw, [0.0; FEATURE_DIM]);
        assert_eq!(FeatureVector::from_text(&fv.to_text()), Some(fv));
    }

    #[test]
    fn text_round_trip_is_lossless_and_rejects_garbage() {
        let fv = FeatureVector::extract(&loopy_module());
        let text = fv.to_text();
        assert!(!text.contains(' '), "must be a single db field: {text:?}");
        assert_eq!(FeatureVector::from_text(&text), Some(fv.clone()));
        for bad in ["", "1,2,3", "nan", &format!("{text},1.0"), "a,b"] {
            assert_eq!(FeatureVector::from_text(bad), None, "{bad:?}");
        }
        let inf = vec![f64::INFINITY; FEATURE_DIM];
        assert_eq!(FeatureVector::from_slice(&inf), None);
        assert_eq!(FEATURE_LABELS.len(), FEATURE_DIM);
    }
}
