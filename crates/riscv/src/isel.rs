//! Instruction selection: IR functions → [`VInst`] blocks.
//!
//! The selector is parameterized by a [`TargetCostModel`]: the CPU-tuned
//! model expands signed division by powers of two into the shift-and-add
//! sequence of the paper's Fig. 2a and lowers `select` through a mask
//! (branch-free, division of work favouring ILP); the zk-tuned model keeps
//! the single `div` and lowers `select` through one multiply, minimizing the
//! executed instruction count (Principle 3).

use crate::inst::{AluImmOp, AluOp, BranchCond, MemWidth};
use crate::reg::VReg;
use crate::vinst::VInst;
use crate::TargetCostModel;
use std::fmt;
use zkvmopt_ir::cfg::Cfg;
use zkvmopt_ir::hash::FxHashSet;
use zkvmopt_ir::{
    BinOp, BlockId, CastKind, Function, Module, Op, Operand, Pred, Term, Ty, ValueId,
};

/// A codegen failure (unsupported shape, e.g. more than 8 call arguments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenError {
    /// Function in which lowering failed.
    pub func: String,
    /// Description.
    pub message: String,
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codegen failed in @{}: {}", self.func, self.message)
    }
}

impl std::error::Error for CodegenError {}

/// A lowered function: blocks of [`VInst`] in layout order.
#[derive(Debug, Clone)]
pub struct VFunc {
    /// Symbol name.
    pub name: String,
    /// Blocks in layout order; every block ends with terminators.
    pub blocks: Vec<Vec<VInst<VReg>>>,
    /// Number of virtual registers used.
    pub nvregs: u32,
    /// Bytes of `alloca` storage in the frame.
    pub alloca_bytes: u32,
    /// Module-level function index (for call resolution).
    pub func_index: usize,
}

struct Isel<'a> {
    f: &'a Function,
    cm: &'a TargetCostModel,
    global_addrs: &'a [u32],
    /// IR value → its vreg, once it has one.
    vmap: Vec<Option<VReg>>,
    next_vreg: u32,
    blocks: Vec<Vec<VInst<VReg>>>,
    /// IR block → layout index (`usize::MAX` for an unreachable block).
    layout: Vec<usize>,
    alloca_bytes: u32,
    /// Icmp values fused into their (single) branch user.
    fused: Vec<bool>,
}

impl<'a> Isel<'a> {
    fn fresh(&mut self) -> VReg {
        let v = VReg(self.next_vreg);
        self.next_vreg += 1;
        v
    }

    fn vreg(&mut self, v: ValueId) -> VReg {
        if let Some(r) = self.vmap[v.index()] {
            return r;
        }
        let r = self.fresh();
        self.vmap[v.index()] = Some(r);
        r
    }

    fn emit(&mut self, bi: usize, i: VInst<VReg>) {
        self.blocks[bi].push(i);
    }

    /// Lower an operand into a vreg (materializing constants).
    fn operand(&mut self, bi: usize, o: &Operand) -> VReg {
        match o {
            Operand::Value(v) => self.vreg(*v),
            Operand::Const { value, ty } => {
                let r = self.fresh();
                let imm = match ty {
                    Ty::I32 => *value as i32,
                    t => t.truncate_u(*value) as i32,
                };
                self.emit(bi, VInst::LoadImm { rd: r, imm });
                r
            }
        }
    }

    fn width_of(ty: Ty) -> MemWidth {
        match ty {
            Ty::I1 | Ty::I8 => MemWidth::ByteU,
            Ty::I32 | Ty::Ptr => MemWidth::Word,
        }
    }
}

const IMM12: std::ops::RangeInclusive<i64> = -2048..=2047;

/// Lower one function.
///
/// # Errors
/// Returns [`CodegenError`] for unsupported shapes (e.g. >8 arguments).
pub fn lower_function(
    m: &Module,
    fi: usize,
    cm: &TargetCostModel,
    global_addrs: &[u32],
) -> Result<VFunc, CodegenError> {
    let f = &m.funcs[fi];
    if f.params.len() > 8 {
        return Err(CodegenError {
            func: f.name.clone(),
            message: "more than 8 parameters is unsupported".into(),
        });
    }
    let cfg = Cfg::new(f);
    let order: Vec<BlockId> = cfg.rpo().to_vec();
    let mut layout = vec![usize::MAX; f.blocks.len()];
    for (i, b) in order.iter().enumerate() {
        layout[b.index()] = i;
    }
    let mut isel = Isel {
        f,
        cm,
        global_addrs,
        vmap: vec![None; f.values.len()],
        next_vreg: 0,
        blocks: vec![Vec::new(); order.len()],
        layout,
        alloca_bytes: 0,
        fused: fusible_icmps(f, &order),
    };
    // Pre-create vregs for every parameter and receive them.
    for i in 0..f.params.len() {
        let pv = isel.vreg(f.param(i));
        isel.emit(0, VInst::Param { rd: pv, index: i });
    }
    // Lower block bodies.
    for (bi, &b) in order.iter().enumerate() {
        for &v in &f.blocks[b.index()].insts {
            lower_inst(&mut isel, m, bi, v)?;
        }
    }
    // Lower terminators (with phi edge copies).
    for (bi, &b) in order.iter().enumerate() {
        lower_term(&mut isel, bi, b);
    }
    Ok(VFunc {
        name: f.name.clone(),
        blocks: isel.blocks,
        nvregs: isel.next_vreg,
        alloca_bytes: isel.alloca_bytes,
        func_index: fi,
    })
}

/// Icmps fusible into their branch: the condition of a reachable block's
/// `cond_br`, defined in that block and used nowhere else. Uses are counted
/// by [`Function::use_counts`], in one sweep for the whole function.
fn fusible_icmps(f: &Function, order: &[BlockId]) -> Vec<bool> {
    let uses = f.use_counts();
    let mut fused = vec![false; f.values.len()];
    for &b in order {
        if let Term::CondBr {
            c: Operand::Value(cv),
            ..
        } = &f.blocks[b.index()].term
        {
            if uses[cv.index()] == 1
                && matches!(f.op(*cv), Some(Op::Icmp { .. }))
                && f.blocks[b.index()].insts.contains(cv)
            {
                fused[cv.index()] = true;
            }
        }
    }
    fused
}

fn lower_inst(isel: &mut Isel<'_>, m: &Module, bi: usize, v: ValueId) -> Result<(), CodegenError> {
    let f = isel.f;
    let Some(op) = f.op(v) else {
        return Ok(());
    };
    if isel.fused[v.index()] {
        return Ok(()); // emitted as part of the branch
    }
    match *op {
        Op::Phi { .. } => {
            // Materialized by edge copies; just ensure the vreg exists.
            isel.vreg(v);
        }
        Op::Bin { op: bop, a, b } => lower_bin(isel, bi, v, bop, &a, &b),
        Op::Icmp { pred, a, b } => {
            let rd = isel.vreg(v);
            lower_icmp(isel, bi, rd, pred, &a, &b);
        }
        Op::Select { c, t, f: fo } => {
            let rd = isel.vreg(v);
            let c = isel.operand(bi, &c);
            let tv = isel.operand(bi, &t);
            let fv = isel.operand(bi, &fo);
            if isel.cm.select_via_mul {
                // rd = f + c * (t - f): three instructions, no branch.
                let d = isel.fresh();
                isel.emit(
                    bi,
                    VInst::Alu {
                        op: AluOp::Sub,
                        rd: d,
                        rs1: tv,
                        rs2: fv,
                    },
                );
                let p = isel.fresh();
                isel.emit(
                    bi,
                    VInst::Alu {
                        op: AluOp::Mul,
                        rd: p,
                        rs1: d,
                        rs2: c,
                    },
                );
                isel.emit(
                    bi,
                    VInst::Alu {
                        op: AluOp::Add,
                        rd,
                        rs1: fv,
                        rs2: p,
                    },
                );
            } else {
                // Mask form favoured by CPU backends (no multiply in the
                // dependency chain): mask = 0 - c; rd = (t & mask) | (f & !mask).
                let zero = isel.fresh();
                isel.emit(bi, VInst::LoadImm { rd: zero, imm: 0 });
                let mask = isel.fresh();
                isel.emit(
                    bi,
                    VInst::Alu {
                        op: AluOp::Sub,
                        rd: mask,
                        rs1: zero,
                        rs2: c,
                    },
                );
                let t1 = isel.fresh();
                isel.emit(
                    bi,
                    VInst::Alu {
                        op: AluOp::And,
                        rd: t1,
                        rs1: tv,
                        rs2: mask,
                    },
                );
                let nm = isel.fresh();
                isel.emit(
                    bi,
                    VInst::AluImm {
                        op: AluImmOp::Xori,
                        rd: nm,
                        rs1: mask,
                        imm: -1,
                    },
                );
                let t2 = isel.fresh();
                isel.emit(
                    bi,
                    VInst::Alu {
                        op: AluOp::And,
                        rd: t2,
                        rs1: fv,
                        rs2: nm,
                    },
                );
                isel.emit(
                    bi,
                    VInst::Alu {
                        op: AluOp::Or,
                        rd,
                        rs1: t1,
                        rs2: t2,
                    },
                );
            }
        }
        Op::Load { ptr, ty } => {
            let rd = isel.vreg(v);
            let base = isel.operand(bi, &ptr);
            isel.emit(
                bi,
                VInst::Load {
                    width: Isel::width_of(ty),
                    rd,
                    base,
                    offset: 0,
                },
            );
        }
        Op::Store { ptr, val, ty } => {
            let base = isel.operand(bi, &ptr);
            let src = isel.operand(bi, &val);
            isel.emit(
                bi,
                VInst::Store {
                    width: Isel::width_of(ty),
                    src,
                    base,
                    offset: 0,
                },
            );
        }
        Op::Alloca { elem, count } => {
            let bytes = (elem.size_bytes() * count + 3) & !3;
            let off = isel.alloca_bytes as i32;
            isel.alloca_bytes += bytes;
            let rd = isel.vreg(v);
            isel.emit(bi, VInst::FrameAddr { rd, offset: off });
        }
        Op::Gep {
            base,
            index,
            stride,
            offset,
        } => {
            let rd = isel.vreg(v);
            let b = isel.operand(bi, &base);
            // Constant index: single addi when in range.
            if let Some(i) = index.as_const() {
                let total = i * stride as i64 + offset as i64;
                if IMM12.contains(&total) {
                    isel.emit(
                        bi,
                        VInst::AluImm {
                            op: AluImmOp::Addi,
                            rd,
                            rs1: b,
                            imm: total as i32,
                        },
                    );
                    return Ok(());
                }
            }
            let idx = isel.operand(bi, &index);
            let scaled = if stride == 1 {
                idx
            } else if stride.is_power_of_two() {
                let s = isel.fresh();
                isel.emit(
                    bi,
                    VInst::AluImm {
                        op: AluImmOp::Slli,
                        rd: s,
                        rs1: idx,
                        imm: stride.trailing_zeros() as i32,
                    },
                );
                s
            } else {
                let k = isel.fresh();
                isel.emit(
                    bi,
                    VInst::LoadImm {
                        rd: k,
                        imm: stride as i32,
                    },
                );
                let s = isel.fresh();
                isel.emit(
                    bi,
                    VInst::Alu {
                        op: AluOp::Mul,
                        rd: s,
                        rs1: idx,
                        rs2: k,
                    },
                );
                s
            };
            let sum = isel.fresh();
            isel.emit(
                bi,
                VInst::Alu {
                    op: AluOp::Add,
                    rd: sum,
                    rs1: b,
                    rs2: scaled,
                },
            );
            if offset == 0 {
                isel.emit(bi, VInst::Mv { rd, rs: sum });
            } else if IMM12.contains(&(offset as i64)) {
                isel.emit(
                    bi,
                    VInst::AluImm {
                        op: AluImmOp::Addi,
                        rd,
                        rs1: sum,
                        imm: offset,
                    },
                );
            } else {
                let k = isel.fresh();
                isel.emit(bi, VInst::LoadImm { rd: k, imm: offset });
                isel.emit(
                    bi,
                    VInst::Alu {
                        op: AluOp::Add,
                        rd,
                        rs1: sum,
                        rs2: k,
                    },
                );
            }
        }
        Op::GlobalAddr(g) => {
            let rd = isel.vreg(v);
            let addr = isel.global_addrs[g.index()] as i32;
            isel.emit(bi, VInst::LoadImm { rd, imm: addr });
        }
        Op::Call { callee, ref args } => {
            if args.len() > 8 {
                return Err(CodegenError {
                    func: f.name.clone(),
                    message: "more than 8 call arguments is unsupported".into(),
                });
            }
            let argv: Vec<VReg> = args.iter().map(|a| isel.operand(bi, a)).collect();
            let ret = if m.funcs[callee.index()].ret.is_some() {
                Some(isel.vreg(v))
            } else {
                // Void calls still own a value slot; don't create a vreg.
                None
            };
            isel.emit(
                bi,
                VInst::Call {
                    callee: callee.index(),
                    args: argv,
                    ret,
                },
            );
        }
        Op::Ecall { code, ref args } => {
            if args.len() > 3 {
                return Err(CodegenError {
                    func: f.name.clone(),
                    message: "ecall takes at most 3 arguments".into(),
                });
            }
            let argv: Vec<VReg> = args.iter().map(|a| isel.operand(bi, a)).collect();
            let ret = isel.vreg(v);
            isel.emit(
                bi,
                VInst::Ecall {
                    code,
                    args: argv,
                    ret,
                },
            );
        }
        Op::Cast { kind, v: src, to } => {
            let rd = isel.vreg(v);
            let s = isel.operand(bi, &src);
            let from = f.operand_ty(&src).expect("cast source typed");
            match (kind, from, to) {
                // i1 is always 0/1 and i8 is stored zero-extended, so many
                // casts are free.
                (CastKind::Zext, Ty::I1, _) | (CastKind::Zext, Ty::I8, _) => {
                    isel.emit(bi, VInst::Mv { rd, rs: s });
                }
                (CastKind::Sext, Ty::I8, _) => {
                    let t = isel.fresh();
                    isel.emit(
                        bi,
                        VInst::AluImm {
                            op: AluImmOp::Slli,
                            rd: t,
                            rs1: s,
                            imm: 24,
                        },
                    );
                    isel.emit(
                        bi,
                        VInst::AluImm {
                            op: AluImmOp::Srai,
                            rd,
                            rs1: t,
                            imm: 24,
                        },
                    );
                }
                (CastKind::Sext, Ty::I1, _) => {
                    // 0 -> 0, 1 -> -1.
                    let zero = isel.fresh();
                    isel.emit(bi, VInst::LoadImm { rd: zero, imm: 0 });
                    isel.emit(
                        bi,
                        VInst::Alu {
                            op: AluOp::Sub,
                            rd,
                            rs1: zero,
                            rs2: s,
                        },
                    );
                }
                (CastKind::Trunc, _, Ty::I8) => {
                    isel.emit(
                        bi,
                        VInst::AluImm {
                            op: AluImmOp::Andi,
                            rd,
                            rs1: s,
                            imm: 0xff,
                        },
                    );
                }
                (CastKind::Trunc, _, Ty::I1) => {
                    isel.emit(
                        bi,
                        VInst::AluImm {
                            op: AluImmOp::Andi,
                            rd,
                            rs1: s,
                            imm: 1,
                        },
                    );
                }
                _ => {
                    isel.emit(bi, VInst::Mv { rd, rs: s });
                }
            }
        }
        Op::Copy(src) => {
            let rd = isel.vreg(v);
            let s = isel.operand(bi, &src);
            isel.emit(bi, VInst::Mv { rd, rs: s });
        }
        Op::Nop => {}
    }
    Ok(())
}

fn lower_bin(isel: &mut Isel<'_>, bi: usize, v: ValueId, bop: BinOp, a: &Operand, b: &Operand) {
    let rd = isel.vreg(v);
    // Immediate forms.
    if let Some(c) = b.as_const() {
        let imm_op = match bop {
            BinOp::Add if IMM12.contains(&c) => Some((AluImmOp::Addi, c as i32)),
            BinOp::Sub if IMM12.contains(&(-c)) => Some((AluImmOp::Addi, -c as i32)),
            BinOp::And if IMM12.contains(&c) => Some((AluImmOp::Andi, c as i32)),
            BinOp::Or if IMM12.contains(&c) => Some((AluImmOp::Ori, c as i32)),
            BinOp::Xor if IMM12.contains(&c) => Some((AluImmOp::Xori, c as i32)),
            BinOp::Shl => Some((AluImmOp::Slli, (c & 31) as i32)),
            BinOp::ShrU => Some((AluImmOp::Srli, (c & 31) as i32)),
            BinOp::ShrA => Some((AluImmOp::Srai, (c & 31) as i32)),
            _ => None,
        };
        if let Some((op, imm)) = imm_op {
            let ra = isel.operand(bi, a);
            isel.emit(
                bi,
                VInst::AluImm {
                    op,
                    rd,
                    rs1: ra,
                    imm,
                },
            );
            return;
        }
        // CPU-tuned backends expand sdiv by a power of two (Fig. 2a).
        if bop == BinOp::DivS && isel.cm.expand_sdiv_pow2 && c > 1 {
            let cu = c as u32;
            // A positive power of two only: i32::MIN's pattern is pow2 but
            // the shift-and-add expansion is wrong for a negative divisor.
            if cu.is_power_of_two() && cu > 1 && cu <= (1 << 30) {
                let k = cu.trailing_zeros() as i32;
                let x = isel.operand(bi, a);
                let sign = isel.fresh();
                isel.emit(
                    bi,
                    VInst::AluImm {
                        op: AluImmOp::Srai,
                        rd: sign,
                        rs1: x,
                        imm: 31,
                    },
                );
                let bias = isel.fresh();
                isel.emit(
                    bi,
                    VInst::AluImm {
                        op: AluImmOp::Srli,
                        rd: bias,
                        rs1: sign,
                        imm: 32 - k,
                    },
                );
                let adj = isel.fresh();
                isel.emit(
                    bi,
                    VInst::Alu {
                        op: AluOp::Add,
                        rd: adj,
                        rs1: x,
                        rs2: bias,
                    },
                );
                isel.emit(
                    bi,
                    VInst::AluImm {
                        op: AluImmOp::Srai,
                        rd,
                        rs1: adj,
                        imm: k,
                    },
                );
                return;
            }
        }
    }
    let alu = match bop {
        BinOp::Add => AluOp::Add,
        BinOp::Sub => AluOp::Sub,
        BinOp::Mul => AluOp::Mul,
        BinOp::DivS => AluOp::Div,
        BinOp::DivU => AluOp::Divu,
        BinOp::RemS => AluOp::Rem,
        BinOp::RemU => AluOp::Remu,
        BinOp::And => AluOp::And,
        BinOp::Or => AluOp::Or,
        BinOp::Xor => AluOp::Xor,
        BinOp::Shl => AluOp::Sll,
        BinOp::ShrU => AluOp::Srl,
        BinOp::ShrA => AluOp::Sra,
    };
    let ra = isel.operand(bi, a);
    let rb = isel.operand(bi, b);
    isel.emit(
        bi,
        VInst::Alu {
            op: alu,
            rd,
            rs1: ra,
            rs2: rb,
        },
    );
}

fn lower_icmp(isel: &mut Isel<'_>, bi: usize, rd: VReg, pred: Pred, a: &Operand, b: &Operand) {
    // slti/sltiu folds.
    if let Some(c) = b.as_const() {
        if IMM12.contains(&c) {
            match pred {
                Pred::Slt => {
                    let ra = isel.operand(bi, a);
                    isel.emit(
                        bi,
                        VInst::AluImm {
                            op: AluImmOp::Slti,
                            rd,
                            rs1: ra,
                            imm: c as i32,
                        },
                    );
                    return;
                }
                Pred::Ult => {
                    let ra = isel.operand(bi, a);
                    isel.emit(
                        bi,
                        VInst::AluImm {
                            op: AluImmOp::Sltiu,
                            rd,
                            rs1: ra,
                            imm: c as i32,
                        },
                    );
                    return;
                }
                Pred::Eq | Pred::Ne => {
                    let ra = isel.operand(bi, a);
                    let t = isel.fresh();
                    if c == 0 {
                        // Compare against zero needs no xor.
                        isel.emit(
                            bi,
                            VInst::AluImm {
                                op: AluImmOp::Sltiu,
                                rd: if pred == Pred::Eq { rd } else { t },
                                rs1: ra,
                                imm: 1,
                            },
                        );
                    } else {
                        let x = isel.fresh();
                        isel.emit(
                            bi,
                            VInst::AluImm {
                                op: AluImmOp::Xori,
                                rd: x,
                                rs1: ra,
                                imm: c as i32,
                            },
                        );
                        isel.emit(
                            bi,
                            VInst::AluImm {
                                op: AluImmOp::Sltiu,
                                rd: if pred == Pred::Eq { rd } else { t },
                                rs1: x,
                                imm: 1,
                            },
                        );
                    }
                    if pred == Pred::Ne {
                        isel.emit(
                            bi,
                            VInst::AluImm {
                                op: AluImmOp::Xori,
                                rd,
                                rs1: t,
                                imm: 1,
                            },
                        );
                    }
                    return;
                }
                _ => {}
            }
        }
    }
    let ra = isel.operand(bi, a);
    let rb = isel.operand(bi, b);
    let (op, rs1, rs2, invert) = match pred {
        Pred::Slt => (AluOp::Slt, ra, rb, false),
        Pred::Ult => (AluOp::Sltu, ra, rb, false),
        Pred::Sgt => (AluOp::Slt, rb, ra, false),
        Pred::Ugt => (AluOp::Sltu, rb, ra, false),
        Pred::Sge => (AluOp::Slt, ra, rb, true),
        Pred::Uge => (AluOp::Sltu, ra, rb, true),
        Pred::Sle => (AluOp::Slt, rb, ra, true),
        Pred::Ule => (AluOp::Sltu, rb, ra, true),
        Pred::Eq | Pred::Ne => {
            let x = isel.fresh();
            isel.emit(
                bi,
                VInst::Alu {
                    op: AluOp::Xor,
                    rd: x,
                    rs1: ra,
                    rs2: rb,
                },
            );
            let t = isel.fresh();
            isel.emit(
                bi,
                VInst::AluImm {
                    op: AluImmOp::Sltiu,
                    rd: if pred == Pred::Eq { rd } else { t },
                    rs1: x,
                    imm: 1,
                },
            );
            if pred == Pred::Ne {
                isel.emit(
                    bi,
                    VInst::AluImm {
                        op: AluImmOp::Xori,
                        rd,
                        rs1: t,
                        imm: 1,
                    },
                );
            }
            return;
        }
    };
    if invert {
        let t = isel.fresh();
        isel.emit(
            bi,
            VInst::Alu {
                op,
                rd: t,
                rs1,
                rs2,
            },
        );
        isel.emit(
            bi,
            VInst::AluImm {
                op: AluImmOp::Xori,
                rd,
                rs1: t,
                imm: 1,
            },
        );
    } else {
        isel.emit(bi, VInst::Alu { op, rd, rs1, rs2 });
    }
}

/// Map an IR predicate onto a branch condition, possibly swapping operands.
fn branch_cond(pred: Pred) -> (BranchCond, bool) {
    match pred {
        Pred::Eq => (BranchCond::Eq, false),
        Pred::Ne => (BranchCond::Ne, false),
        Pred::Slt => (BranchCond::Lt, false),
        Pred::Sge => (BranchCond::Ge, false),
        Pred::Sgt => (BranchCond::Lt, true),
        Pred::Sle => (BranchCond::Ge, true),
        Pred::Ult => (BranchCond::Ltu, false),
        Pred::Uge => (BranchCond::Geu, false),
        Pred::Ugt => (BranchCond::Ltu, true),
        Pred::Ule => (BranchCond::Geu, true),
    }
}

fn lower_term(isel: &mut Isel<'_>, bi: usize, b: BlockId) {
    let term = isel.f.blocks[b.index()].term.clone();
    match term {
        Term::Br(t) => {
            emit_phi_copies(isel, bi, b, t);
            let ti = isel.layout[t.index()];
            isel.emit(bi, VInst::Jump { target: ti });
        }
        Term::CondBr { c, t, f: fb } => {
            // Fused compare-and-branch when the condition is a single-use
            // icmp from this block.
            let fused = match &c {
                Operand::Value(cv) if isel.fused[cv.index()] => match isel.f.op(*cv) {
                    Some(Op::Icmp { pred, a, b }) => Some((*pred, *a, *b)),
                    _ => None,
                },
                _ => None,
            };
            let t_edge = edge_target(isel, bi, b, t);
            let f_edge = edge_target(isel, bi, b, fb);
            match fused {
                Some((pred, a, bo)) => {
                    let (cond, swap) = branch_cond(pred);
                    let ra = isel.operand(bi, &a);
                    let rb = isel.operand(bi, &bo);
                    let (rs1, rs2) = if swap { (rb, ra) } else { (ra, rb) };
                    isel.emit(
                        bi,
                        VInst::Branch {
                            cond,
                            rs1,
                            rs2: Some(rs2),
                            target: t_edge,
                        },
                    );
                }
                None => {
                    let cv = isel.operand(bi, &c);
                    isel.emit(
                        bi,
                        VInst::Branch {
                            cond: BranchCond::Ne,
                            rs1: cv,
                            rs2: None,
                            target: t_edge,
                        },
                    );
                }
            }
            isel.emit(bi, VInst::Jump { target: f_edge });
        }
        Term::Ret(v) => {
            let val = v.map(|o| isel.operand(bi, &o));
            isel.emit(bi, VInst::Ret { val });
        }
        Term::Unreachable => {
            // Reaching this is UB; halt deterministically with code 97.
            let a = isel.fresh();
            isel.emit(bi, VInst::LoadImm { rd: a, imm: 97 });
            let r = isel.fresh();
            isel.emit(
                bi,
                VInst::Ecall {
                    code: zkvmopt_ir::ecall::HALT,
                    args: vec![a],
                    ret: r,
                },
            );
            isel.emit(bi, VInst::Jump { target: bi });
        }
    }
}

fn has_phis(f: &Function, b: BlockId) -> bool {
    f.blocks[b.index()]
        .insts
        .iter()
        .any(|&v| matches!(f.op(v), Some(Op::Phi { .. })))
}

/// Resolve the branch target for edge `b -> succ`, inserting an edge block
/// with phi copies when needed.
fn edge_target(isel: &mut Isel<'_>, _bi: usize, b: BlockId, succ: BlockId) -> usize {
    if !has_phis(isel.f, succ) {
        return isel.layout[succ.index()];
    }
    // Create a dedicated edge block carrying the copies.
    let eb = isel.blocks.len();
    isel.blocks.push(Vec::new());
    emit_phi_copies_into(isel, eb, b, succ);
    let ti = isel.layout[succ.index()];
    isel.emit(eb, VInst::Jump { target: ti });
    eb
}

/// Append phi copies for edge `pred -> succ` directly at the end of layout
/// block `bi` (valid when `pred` has a single successor).
fn emit_phi_copies(isel: &mut Isel<'_>, bi: usize, pred: BlockId, succ: BlockId) {
    emit_phi_copies_into(isel, bi, pred, succ);
}

fn emit_phi_copies_into(isel: &mut Isel<'_>, bi: usize, pred: BlockId, succ: BlockId) {
    // Parallel-copy semantics via fresh temporaries: read all sources first.
    let f = isel.f;
    let mut pairs: Vec<(VReg, Operand)> = Vec::new();
    for &v in &f.blocks[succ.index()].insts {
        if let Some(Op::Phi { incoming }) = f.op(v) {
            if let Some((_, o)) = incoming.iter().find(|(p, _)| *p == pred) {
                pairs.push((isel.vreg(v), *o));
            }
        }
    }
    // Fast path: when no destination is also a source, the copies can be
    // applied directly (the overwhelmingly common case — a couple of loop
    // phis). Only genuinely overlapping transfers pay the temp-based
    // parallel-copy sequence.
    let dsts: FxHashSet<VReg> = pairs.iter().map(|(d, _)| *d).collect();
    let overlaps = pairs.iter().any(|(_, o)| match o {
        Operand::Value(v) => isel.vmap[v.index()].is_some_and(|r| dsts.contains(&r)),
        _ => false,
    });
    let emit_src = |isel: &mut Isel<'_>, bi: usize, rd: VReg, o: &Operand| match o {
        Operand::Value(v) => {
            let s = isel.vreg(*v);
            isel.emit(bi, VInst::Mv { rd, rs: s });
        }
        Operand::Const { value, ty } => {
            let imm = match ty {
                Ty::I32 => *value as i32,
                ty => ty.truncate_u(*value) as i32,
            };
            isel.emit(bi, VInst::LoadImm { rd, imm });
        }
    };
    if !overlaps {
        for (dst, o) in &pairs {
            emit_src(isel, bi, *dst, o);
        }
        return;
    }
    let mut temps = Vec::new();
    for (_, o) in &pairs {
        let t = isel.fresh();
        emit_src(isel, bi, t, o);
        temps.push(t);
    }
    for ((dst, _), t) in pairs.iter().zip(temps) {
        isel.emit(bi, VInst::Mv { rd: *dst, rs: t });
    }
}

/// The fusion test as it was, kept as a test oracle: one
/// [`Function::use_count`] sweep of the whole arena per conditional branch.
#[cfg(test)]
mod oracle {
    use super::*;

    pub(super) fn fusible_icmps(f: &Function, order: &[BlockId]) -> FxHashSet<ValueId> {
        let mut fused = FxHashSet::default();
        for &b in order {
            if let Term::CondBr {
                c: Operand::Value(cv),
                ..
            } = &f.blocks[b.index()].term
            {
                if f.blocks[b.index()].insts.contains(cv)
                    && f.use_count(*cv) == 1
                    && matches!(f.op(*cv), Some(Op::Icmp { .. }))
                {
                    fused.insert(*cv);
                }
            }
        }
        fused
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program_gen;
    use zkvmopt_ir::FunctionBuilder;
    use zkvmopt_passes::{PassConfig, PassManager};

    /// The one-sweep fusion test against the per-branch oracle, on every
    /// function of `m` as lowered, after `-O1` and after `-O3`.
    fn check_fusion(name: &str, m: &Module) {
        let (mut o1, mut o3) = (m.clone(), m.clone());
        PassManager::o1().run(&mut o1, &PassConfig::default());
        PassManager::o3().run(&mut o3, &PassConfig::default());
        for (state, m) in [("lowered", m), ("O1", &o1), ("O3", &o3)] {
            for f in &m.funcs {
                let order = Cfg::new(f).rpo().to_vec();
                let new: FxHashSet<ValueId> = fusible_icmps(f, &order)
                    .iter()
                    .enumerate()
                    .filter(|(_, &fused)| fused)
                    .map(|(i, _)| ValueId(i as u32))
                    .collect();
                let old = oracle::fusible_icmps(f, &order);
                assert_eq!(new, old, "{name}/{}@{state}", f.name);
            }
        }
    }

    #[test]
    fn fusion_matches_the_oracle_on_the_suite() {
        for w in zkvmopt_workloads::all() {
            let m = zkvmopt_lang::compile_guest(&w.source).expect("suite program compiles");
            check_fusion(w.name, &m);
        }
    }

    #[test]
    fn fusion_takes_a_single_use_compare_and_skips_a_shared_one() {
        // bb0: %1 = icmp %0 == 0, used by its branch only (fused).
        // bb1: %2 = icmp %0 < 7, used by its branch and by bb2's zext.
        let mut b = FunctionBuilder::new("main", vec![Ty::I32], Some(Ty::I32));
        let x = Operand::val(b.param(0));
        let (b1, b2, b3) = (b.new_block(), b.new_block(), b.new_block());
        let once = b.icmp(Pred::Eq, x, Operand::i32(0));
        b.cond_br(Operand::val(once), b1, b3);
        b.switch_to(b1);
        let twice = b.icmp(Pred::Slt, x, Operand::i32(7));
        b.cond_br(Operand::val(twice), b2, b3);
        b.switch_to(b2);
        let r = b.cast(CastKind::Zext, Operand::val(twice), Ty::I32);
        b.ret(Some(Operand::val(r)));
        b.switch_to(b3);
        b.ret(Some(Operand::i32(1)));
        let mut m = Module::new();
        m.add_func(b.finish());
        let f = &m.funcs[0];
        let fused = fusible_icmps(f, Cfg::new(f).rpo());
        assert!(fused[once.index()] && !fused[twice.index()]);
        check_fusion("hand", &m);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 12,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The same over the `proptest_passes` generator's programs.
        #[test]
        fn fusion_matches_the_oracle_on_generated_programs(
            es in proptest::collection::vec(program_gen::arb_expr(), 1..5),
            trip in 1u8..20,
        ) {
            for src in [program_gen::program(&es, trip), program_gen::program_with_calls(&es, trip)] {
                let m = zkvmopt_lang::compile_guest(&src).expect("generated program compiles");
                check_fusion("generated", &m);
            }
        }
    }
}
