//! Hardware-oriented passes: `speculative-execution`, `bounds-checking`,
//! `div-rem-pairs`, and the registered no-ops.

use crate::framework::FunctionContext;
use crate::PassConfig;
use zkvmopt_ir::analysis::AnalysisCache;
use zkvmopt_ir::{ecall, BinOp, Function, Module, Op, Operand, Pred, Term, Ty};

/// Hoist a few speculatable instructions from both branch targets into the
/// branching block. On out-of-order CPUs this hides latency; on zkVMs it just
/// executes both paths' work unconditionally — the paper's Change set 3
/// disables it for exactly that reason.
pub fn speculative_execution(
    f: &mut Function,
    ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    const PER_ARM_BUDGET: usize = 4;
    let mut changed = false;
    let cfg_ = ac.cfg(f);
    for &b in cfg_.rpo() {
        let Term::CondBr { t, f: fb, .. } = f.blocks[b.index()].term else {
            continue;
        };
        for arm in [t, fb] {
            if cfg_.unique_preds(arm).count() != 1 || arm == b {
                continue;
            }
            // Hoist a leading run of speculatable instructions whose
            // operands are all defined outside the arm.
            let mut hoisted = 0;
            while hoisted < PER_ARM_BUDGET {
                let Some(&v) = f.blocks[arm.index()].insts.first() else {
                    break;
                };
                let Some(op) = f.op(v) else { break };
                if !op.is_speculatable() || op.is_phi() {
                    break;
                }
                let mut local_dep = false;
                op.for_each_operand(|o| {
                    if let Operand::Value(u) = o {
                        local_dep |= f.blocks[arm.index()].insts.contains(u);
                    }
                });
                if local_dep {
                    break;
                }
                f.blocks[arm.index()].insts.remove(0);
                f.blocks[b.index()].insts.push(v);
                hoisted += 1;
                changed = true;
            }
        }
    }
    changed
}

/// Insert a trap-style guard before every dynamically indexed `gep` whose
/// base has a known size (allocas and globals). Models LLVM's
/// `bounds-checking` sanitizer pass; pure overhead on a zkVM, matching its
/// appearance among the cycle-count-worst passes for SP1 (Fig. 3).
pub fn bounds_checking(
    f: &mut Function,
    _ac: &mut AnalysisCache,
    cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    let mut changed = false;
    for b in f.block_ids() {
        let mut i = 0;
        while i < f.blocks[b.index()].insts.len() {
            let v = f.blocks[b.index()].insts[i];
            let Some(Op::Gep {
                base,
                index,
                stride,
                offset: 0,
            }) = f.op(v).cloned()
            else {
                i += 1;
                continue;
            };
            if index.as_const().is_some() {
                i += 1;
                continue;
            }
            let count = match crate::util::ptr_base(f, &base) {
                crate::util::PtrBase::Alloca(a) => match f.op(a) {
                    Some(Op::Alloca { elem, count }) if elem.size_bytes() == stride => Some(*count),
                    _ => None,
                },
                crate::util::PtrBase::Global(g) => {
                    let size = cx.info.global_size(g.index());
                    if stride > 0 && size.is_multiple_of(stride) {
                        Some(size / stride)
                    } else {
                        None
                    }
                }
                crate::util::PtrBase::Unknown => None,
            };
            // Only direct geps off the base are guarded (offset 0 and the
            // base itself), keeping index == element index.
            let direct = matches!(
                &base,
                Operand::Value(bv) if matches!(f.op(*bv), Some(Op::Alloca { .. }) | Some(Op::GlobalAddr(_)))
            );
            let Some(count) = count else {
                i += 1;
                continue;
            };
            if !direct || count == 0 {
                i += 1;
                continue;
            }
            // guard = index uge count  ->  halt(98)
            let guard = f.insert_inst(
                b,
                i,
                Op::Icmp {
                    pred: Pred::Uge,
                    a: index,
                    b: Operand::i32(count as i32),
                },
                Some(Ty::I1),
            );
            let trap_bb = f.add_block();
            let cont_bb = f.add_block();
            // Split: move everything from position i+1 (the gep onwards)
            // into cont_bb.
            let tail: Vec<_> = f.blocks[b.index()].insts.split_off(i + 1);
            f.blocks[cont_bb.index()].insts = tail;
            let old_term = std::mem::replace(&mut f.blocks[b.index()].term, Term::Unreachable);
            // Fix successor phis: they now come from cont_bb.
            for s in old_term.succs() {
                for i in 0..f.blocks[s.index()].insts.len() {
                    let pv = f.blocks[s.index()].insts[i];
                    if let Some(Op::Phi { incoming }) = f.op_mut(pv) {
                        for (p, _) in incoming.iter_mut() {
                            if *p == b {
                                *p = cont_bb;
                            }
                        }
                    }
                }
            }
            f.blocks[cont_bb.index()].term = old_term;
            f.blocks[b.index()].term = Term::CondBr {
                c: Operand::val(guard),
                t: trap_bb,
                f: cont_bb,
            };
            let halt = f.new_value(
                Op::Ecall {
                    code: ecall::HALT,
                    args: vec![Operand::i32(98)],
                },
                Some(Ty::I32),
            );
            f.blocks[trap_bb.index()].insts.push(halt);
            f.blocks[trap_bb.index()].term = Term::Unreachable;
            changed = true;
            // Continue scanning in the continuation block next loop turn.
            break;
        }
    }
    changed
}

/// Keep `x / y` and `x % y` adjacent and, when a division by the same
/// operands exists, rewrite the remainder as `x - (x / y) * y` only on
/// targets where that is cheaper. On RV32IM both exist as single
/// instructions, so this pass only canonicalizes adjacency (near no-op, as
/// the paper observes for most hardware-motivated passes).
pub fn div_rem_pairs(
    f: &mut Function,
    _ac: &mut AnalysisCache,
    _cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    let mut changed = false;
    for b in f.block_ids() {
        // Move a rem directly after a div with identical operands when
        // both are in the same block (adjacency canonicalization).
        let insts = f.blocks[b.index()].insts.clone();
        for (i, &v) in insts.iter().enumerate() {
            let Some(Op::Bin {
                op: BinOp::DivS,
                a,
                b: rhs,
            }) = f.op(v).cloned()
            else {
                continue;
            };
            for (j, &w) in insts.iter().enumerate().skip(i + 2) {
                let Some(Op::Bin {
                    op: BinOp::RemS,
                    a: ra,
                    b: rb,
                }) = f.op(w)
                else {
                    continue;
                };
                if *ra == a && *rb == rhs {
                    // Only safe to move earlier if its operands dominate
                    // position i+1 — they do (same as the div's).
                    let pos_v = f.blocks[b.index()]
                        .insts
                        .iter()
                        .position(|x| *x == v)
                        .expect("div present");
                    f.blocks[b.index()].insts.retain(|x| *x != w);
                    f.blocks[b.index()].insts.insert(pos_v + 1, w);
                    changed = true;
                    break;
                }
                let _ = j;
            }
        }
    }
    changed
}

/// Registered hardware-only passes with nothing to do on a zkVM target
/// (`loop-data-prefetch`, `hot-cold-splitting`, vectorizers, …).
pub fn noop(_m: &mut Module, _cfg: &PassConfig) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use crate::testutil::check_pass_preserves;
    use crate::PassConfig;

    #[test]
    fn speculative_execution_preserves_semantics() {
        let src = "fn main() -> i32 {
                     let x: i32 = read_input(0);
                     let mut r: i32 = 0;
                     if (x > 0) { r = x * 3 + 1; } else { r = x * 5 - 1; }
                     return r;
                   }";
        let cfg = PassConfig::default();
        check_pass_preserves(src, &["mem2reg", "speculative-execution"], &cfg);
    }

    #[test]
    fn bounds_checking_adds_guards_without_changing_valid_runs() {
        let src = "static A: [i32; 8];
                   fn main() -> i32 {
                     let mut s: i32 = 0;
                     for (let mut i: i32 = 0; i < 8; i += 1) { A[i] = i; s += A[i]; }
                     return s;
                   }";
        let cfg = PassConfig::default();
        let (before, after) = check_pass_preserves(src, &["bounds-checking"], &cfg);
        assert!(after > before, "guards must add code: {before} -> {after}");
    }

    #[test]
    fn bounds_checking_traps_out_of_range() {
        let src = "static A: [i32; 4];
                   fn main() -> i32 {
                     let i: i32 = read_input(0) + 100;
                     A[i] = 1;
                     return 0;
                   }";
        let cfg = PassConfig::default();
        let mut m = zkvmopt_lang::compile(src).unwrap();
        crate::run_pass("bounds-checking", &mut m, &cfg);
        let out = zkvmopt_ir::interp::run_module(&m, &[1]).expect("guarded run halts cleanly");
        assert!(out.halted);
        assert_eq!(out.exit_value, 98);
    }

    #[test]
    fn div_rem_pairs_is_behaviour_neutral() {
        let src = "fn main() -> i32 {
                     let x: i32 = read_input(0) + 17;
                     let q: i32 = x / 5;
                     let t: i32 = q * 2;
                     let r: i32 = x % 5;
                     return t + r;
                   }";
        check_pass_preserves(src, &["mem2reg", "div-rem-pairs"], &PassConfig::default());
    }

    #[test]
    fn noops_do_nothing() {
        let src = "fn main() -> i32 { return 7; }";
        let cfg = PassConfig::default();
        let (before, after) = check_pass_preserves(
            src,
            &["loop-data-prefetch", "hot-cold-splitting", "slp-vectorizer"],
            &cfg,
        );
        assert_eq!(before, after);
    }
}
