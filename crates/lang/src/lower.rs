//! Type checking and lowering of zklang ASTs to `-O0`-style IR.
//!
//! Mirroring clang at `-O0`, every local (including parameters) lives in an
//! `alloca`; reads are `load`s and writes are `store`s. This is deliberate: it
//! gives the optimization passes the same raw material LLVM's pipeline sees,
//! so `mem2reg`, `sroa`, `licm`, etc. have realistic work to do.

use crate::ast::*;
use std::fmt;
use zkvmopt_ir::{
    ecall, BinOp, BlockId, CastKind, FuncId, Function, Global, GlobalId, Module, Op, Operand, Pred,
    Term, Ty, ValueId,
};

/// A lowering/type error with source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    pub line: u32,
    pub message: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LowerError {}

fn err<T>(line: u32, m: impl Into<String>) -> Result<T, LowerError> {
    Err(LowerError {
        line,
        message: m.into(),
    })
}

/// The type of an evaluated expression, as seen by the checker.
///
/// `I8` and `Bool` expressions are *represented* as `i32`/`i1` IR values; only
/// memory operations use the narrow types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ETy {
    I32,
    U32,
    I8,
    Bool,
    PtrI32,
    PtrI8,
}

impl ETy {
    fn from_src(t: SrcTy) -> ETy {
        match t {
            SrcTy::I32 => ETy::I32,
            SrcTy::U32 => ETy::U32,
            SrcTy::I8 => ETy::I8,
            SrcTy::Bool => ETy::Bool,
            SrcTy::PtrI32 => ETy::PtrI32,
            SrcTy::PtrI8 => ETy::PtrI8,
        }
    }

    fn is_int(self) -> bool {
        matches!(self, ETy::I32 | ETy::U32 | ETy::I8)
    }

    fn is_unsigned(self) -> bool {
        matches!(self, ETy::U32 | ETy::I8 | ETy::PtrI32 | ETy::PtrI8)
    }

    fn is_ptr(self) -> bool {
        matches!(self, ETy::PtrI32 | ETy::PtrI8)
    }

    fn ir(self) -> Ty {
        match self {
            ETy::I32 | ETy::U32 | ETy::I8 => Ty::I32,
            ETy::Bool => Ty::I1,
            ETy::PtrI32 | ETy::PtrI8 => Ty::Ptr,
        }
    }

    /// Memory type for loads/stores of a variable declared with this type.
    fn mem(self) -> Ty {
        match self {
            ETy::I8 => Ty::I8,
            ETy::Bool => Ty::I8,
            other => other.ir(),
        }
    }

    fn stride(self) -> u32 {
        self.mem().size_bytes()
    }

    fn name(self) -> &'static str {
        match self {
            ETy::I32 => "i32",
            ETy::U32 => "u32",
            ETy::I8 => "i8",
            ETy::Bool => "bool",
            ETy::PtrI32 => "*i32",
            ETy::PtrI8 => "*i8",
        }
    }
}

/// Whether `a` can be used where `b` is expected without an explicit cast.
fn compatible(a: ETy, b: ETy) -> bool {
    if a == b {
        return true;
    }
    // i32 and u32 interconvert implicitly (their IR values are identical).
    matches!((a, b), (ETy::I32, ETy::U32) | (ETy::U32, ETy::I32))
}

#[derive(Debug, Clone)]
enum Sym {
    /// A scalar or array local backed by an alloca holding the storage.
    Local {
        ptr: ValueId,
        ty: ETy,
        is_array: bool,
    },
    /// A module global.
    GlobalVar {
        id: GlobalId,
        ty: ETy,
        is_array: bool,
    },
    /// A compile-time constant.
    Const(i64),
}

struct FnSig {
    id: FuncId,
    params: Vec<ETy>,
    ret: Option<ETy>,
}

/// Every symbol table here is keyed by identifiers from the program text,
/// which is untrusted, so it stays on std's keyed SipHash: crafted names
/// cannot be made to collide.
#[expect(
    clippy::disallowed_types,
    reason = "keyed by identifiers from untrusted program text"
)]
type SymbolMap<V> = std::collections::HashMap<String, V>;

struct Lowerer {
    module: Module,
    consts: SymbolMap<i64>,
    globals: SymbolMap<(GlobalId, ETy, bool)>,
    fns: SymbolMap<FnSig>,
}

struct FnCtx {
    func: Function,
    cur: BlockId,
    done: bool,
    scopes: Vec<SymbolMap<Sym>>,
    /// (continue target, break target)
    loop_stack: Vec<(BlockId, BlockId)>,
    ret: Option<ETy>,
    /// Number of allocas inserted at the top of the entry block so far.
    entry_allocas: usize,
}

impl FnCtx {
    fn emit(&mut self, op: Op, ty: Option<Ty>) -> ValueId {
        self.func.add_inst(self.cur, op, ty)
    }

    fn alloca(&mut self, elem: Ty, count: u32) -> ValueId {
        let v = self.func.insert_inst(
            self.func.entry,
            self.entry_allocas,
            Op::Alloca { elem, count },
            Some(Ty::Ptr),
        );
        self.entry_allocas += 1;
        v
    }

    fn seal(&mut self, term: Term) {
        if !self.done {
            self.func.blocks[self.cur.index()].term = term;
            self.done = true;
        }
    }

    fn start_block(&mut self, b: BlockId) {
        self.cur = b;
        self.done = false;
    }

    fn lookup(&self, name: &str) -> Option<&Sym> {
        for s in self.scopes.iter().rev() {
            if let Some(sym) = s.get(name) {
                return Some(sym);
            }
        }
        None
    }

    fn declare(&mut self, name: &str, sym: Sym) {
        // The scope stack is pushed before any declaration by construction,
        // but the frontend runs on untrusted text and must never abort:
        // recover by opening a scope rather than panicking.
        if self.scopes.is_empty() {
            self.scopes.push(SymbolMap::new());
        }
        if let Some(scope) = self.scopes.last_mut() {
            scope.insert(name.to_string(), sym);
        }
    }
}

/// Lower a parsed [`Program`] to an IR [`Module`].
///
/// # Errors
/// Returns the first type or semantic error.
pub fn lower(p: &Program) -> Result<Module, LowerError> {
    let mut lw = Lowerer {
        module: Module::new(),
        consts: SymbolMap::new(),
        globals: SymbolMap::new(),
        fns: SymbolMap::new(),
    };
    for c in &p.consts {
        let v = lw.const_eval(&c.value, c.line)?;
        if lw.consts.insert(c.name.clone(), v).is_some() {
            return err(c.line, format!("duplicate const `{}`", c.name));
        }
    }
    for g in &p.globals {
        lw.lower_global(g)?;
    }
    // Declare all functions first so bodies can call forward.
    for f in &p.funcs {
        if BUILTINS.contains(&f.name.as_str()) {
            return err(f.line, format!("`{}` shadows a builtin", f.name));
        }
        if lw.fns.contains_key(&f.name) {
            return err(f.line, format!("duplicate function `{}`", f.name));
        }
        let params: Vec<ETy> = f.params.iter().map(|(_, t)| ETy::from_src(*t)).collect();
        let ret = f.ret.map(ETy::from_src);
        let ir_params: Vec<Ty> = params.iter().map(|t| t.ir()).collect();
        let mut func = Function::new(f.name.clone(), ir_params, ret.map(|t| t.ir()));
        func.always_inline = f.inline == InlineHint::Always;
        func.no_inline = f.inline == InlineHint::Never;
        let id = lw.module.add_func(func);
        lw.fns.insert(f.name.clone(), FnSig { id, params, ret });
    }
    for f in &p.funcs {
        lw.lower_fn(f)?;
    }
    Ok(lw.module)
}

const BUILTINS: &[&str] = &[
    "commit",
    "halt",
    "read_input",
    "sha256",
    "keccak256",
    "ecdsa_verify",
    "eddsa_verify",
];

impl Lowerer {
    fn const_eval(&self, e: &Expr, line: u32) -> Result<i64, LowerError> {
        let v = match e {
            Expr::Int(v) => *v,
            Expr::Bool(b) => *b as i64,
            Expr::Var(n) => match self.consts.get(n) {
                Some(v) => *v,
                None => return err(line, format!("`{n}` is not a constant")),
            },
            Expr::Unary(op, x) => {
                let x = self.const_eval(x, line)?;
                match op {
                    UnOp::Neg => BinOp::Sub.eval32(0, x),
                    UnOp::Not => BinOp::Xor.eval32(x, -1),
                    UnOp::LNot => (x == 0) as i64,
                }
            }
            Expr::Binary(op, a, b) => {
                let a = self.const_eval(a, line)?;
                let b = self.const_eval(b, line)?;
                let bo = match op {
                    Bin::Add => BinOp::Add,
                    Bin::Sub => BinOp::Sub,
                    Bin::Mul => BinOp::Mul,
                    Bin::Div => BinOp::DivS,
                    Bin::Rem => BinOp::RemS,
                    Bin::And => BinOp::And,
                    Bin::Or => BinOp::Or,
                    Bin::Xor => BinOp::Xor,
                    Bin::Shl => BinOp::Shl,
                    Bin::Shr => BinOp::ShrU,
                    _ => return err(line, "comparison not allowed in constant expression"),
                };
                bo.eval32(a, b)
            }
            Expr::Cast(x, _) => self.const_eval(x, line)?,
            _ => return err(line, "expression is not constant"),
        };
        Ok(v & 0xffff_ffff)
    }

    fn lower_global(&mut self, g: &GlobalDecl) -> Result<(), LowerError> {
        let ety = ETy::from_src(g.elem);
        if ety.is_ptr() {
            return err(g.line, "globals of pointer type are not supported");
        }
        let count = match &g.count {
            Some(e) => {
                let c = self.const_eval(e, g.line)?;
                if c <= 0 || c > 8 * 1024 * 1024 {
                    return err(g.line, "array size out of range");
                }
                c as u32
            }
            None => 1,
        };
        let stride = ety.stride();
        let size = count * stride;
        let mut init = Vec::new();
        match &g.init {
            GlobalInit::Zero => {}
            GlobalInit::Str(s) => {
                if ety != ETy::I8 {
                    return err(g.line, "string initializer requires an i8 array");
                }
                init = s.as_bytes().to_vec();
                if init.len() > size as usize {
                    return err(g.line, "string longer than array");
                }
            }
            GlobalInit::Ints(items) => {
                if items.len() > count as usize {
                    return err(g.line, "too many initializers");
                }
                for it in items {
                    let v = self.const_eval(it, g.line)?;
                    match ety.mem() {
                        Ty::I8 => init.push(v as u8),
                        _ => init.extend_from_slice(&(v as u32).to_le_bytes()),
                    }
                }
            }
        }
        let id = self.module.add_global(Global {
            name: g.name.clone(),
            size,
            init,
            align: stride.max(4),
        });
        if self
            .globals
            .insert(g.name.clone(), (id, ety, g.count.is_some()))
            .is_some()
        {
            return err(g.line, format!("duplicate global `{}`", g.name));
        }
        Ok(())
    }

    fn lower_fn(&mut self, f: &FnDecl) -> Result<(), LowerError> {
        let sig = &self.fns[&f.name];
        let id = sig.id;
        let ret = sig.ret;
        let params = sig.params.clone();
        let func = self.module.funcs[id.index()].clone();
        let mut cx = FnCtx {
            func,
            cur: BlockId(0),
            done: false,
            scopes: vec![SymbolMap::new()],
            loop_stack: Vec::new(),
            ret,
            entry_allocas: 0,
        };
        // Copy parameters into allocas (clang -O0 style).
        for (i, (pname, _)) in f.params.iter().enumerate() {
            let ety = params[i];
            let slot = cx.alloca(ety.mem(), 1);
            let pv = cx.func.param(i);
            self.emit_store(&mut cx, Operand::val(slot), Operand::val(pv), ety);
            cx.declare(
                pname,
                Sym::Local {
                    ptr: slot,
                    ty: ety,
                    is_array: false,
                },
            );
        }
        self.lower_block(&mut cx, &f.body)?;
        if !cx.done {
            match ret {
                None => cx.seal(Term::Ret(None)),
                Some(t) => {
                    let zero = match t.ir() {
                        Ty::I1 => Operand::bool(false),
                        Ty::Ptr => Operand::Const {
                            value: 0,
                            ty: Ty::Ptr,
                        },
                        _ => Operand::i32(0),
                    };
                    cx.seal(Term::Ret(Some(zero)));
                }
            }
        }
        self.module.funcs[id.index()] = cx.func;
        Ok(())
    }

    /// Store `val : ety` through `ptr`, truncating narrow types.
    fn emit_store(&self, cx: &mut FnCtx, ptr: Operand, val: Operand, ety: ETy) {
        match ety.mem() {
            Ty::I8 => {
                // Represented as i32 (or i1 for bool); truncate to a byte.
                let narrow = match ety {
                    ETy::Bool => {
                        let z = cx.emit(
                            Op::Cast {
                                kind: CastKind::Zext,
                                v: val,
                                to: Ty::I32,
                            },
                            Some(Ty::I32),
                        );
                        Operand::val(z)
                    }
                    _ => val,
                };
                let t = cx.emit(
                    Op::Cast {
                        kind: CastKind::Trunc,
                        v: narrow,
                        to: Ty::I8,
                    },
                    Some(Ty::I8),
                );
                cx.emit(
                    Op::Store {
                        ptr,
                        val: Operand::val(t),
                        ty: Ty::I8,
                    },
                    None,
                );
            }
            ty => {
                cx.emit(Op::Store { ptr, val, ty }, None);
            }
        }
    }

    /// Load a value of `ety` from `ptr`, widening narrow types.
    fn emit_load(&self, cx: &mut FnCtx, ptr: Operand, ety: ETy) -> Operand {
        match ety.mem() {
            Ty::I8 => {
                let raw = cx.emit(Op::Load { ptr, ty: Ty::I8 }, Some(Ty::I8));
                match ety {
                    ETy::Bool => {
                        let b = cx.emit(
                            Op::Cast {
                                kind: CastKind::Trunc,
                                v: Operand::val(raw),
                                to: Ty::I1,
                            },
                            Some(Ty::I1),
                        );
                        Operand::val(b)
                    }
                    _ => {
                        let w = cx.emit(
                            Op::Cast {
                                kind: CastKind::Zext,
                                v: Operand::val(raw),
                                to: Ty::I32,
                            },
                            Some(Ty::I32),
                        );
                        Operand::val(w)
                    }
                }
            }
            ty => Operand::val(cx.emit(Op::Load { ptr, ty }, Some(ty))),
        }
    }

    fn lower_block(&mut self, cx: &mut FnCtx, stmts: &[Stmt]) -> Result<(), LowerError> {
        cx.scopes.push(SymbolMap::new());
        for s in stmts {
            self.lower_stmt(cx, s)?;
        }
        cx.scopes.pop();
        Ok(())
    }

    fn lower_stmt(&mut self, cx: &mut FnCtx, s: &Stmt) -> Result<(), LowerError> {
        if cx.done {
            // Code after return/break: emit into a fresh unreachable block so
            // lowering still type-checks it.
            let b = cx.func.add_block();
            cx.start_block(b);
        }
        match s {
            Stmt::Let {
                name,
                ty,
                count,
                init,
                line,
            } => {
                let ety = ETy::from_src(*ty);
                match count {
                    None => {
                        let slot = cx.alloca(ety.mem(), 1);
                        let v = match init {
                            Some(e) => {
                                let (v, vt) = self.lower_expr(cx, e, *line)?;
                                if !compatible(vt, ety) {
                                    return err(
                                        *line,
                                        format!(
                                            "cannot initialize {} with {}",
                                            ety.name(),
                                            vt.name()
                                        ),
                                    );
                                }
                                v
                            }
                            None => match ety.ir() {
                                Ty::I1 => Operand::bool(false),
                                Ty::Ptr => Operand::Const {
                                    value: 0,
                                    ty: Ty::Ptr,
                                },
                                _ => Operand::i32(0),
                            },
                        };
                        self.emit_store(cx, Operand::val(slot), v, ety);
                        cx.declare(
                            name,
                            Sym::Local {
                                ptr: slot,
                                ty: ety,
                                is_array: false,
                            },
                        );
                    }
                    Some(ce) => {
                        if init.is_some() {
                            return err(*line, "array locals cannot have initializers");
                        }
                        if ety.is_ptr() || ety == ETy::Bool {
                            return err(*line, "arrays of this type are not supported");
                        }
                        let n = self.const_eval(ce, *line)?;
                        if n <= 0 || n > 1 << 20 {
                            return err(*line, "array size out of range");
                        }
                        let slot = cx.alloca(ety.mem(), n as u32);
                        // Zero-fill so behaviour is deterministic under every
                        // optimization profile.
                        self.emit_zero_fill(cx, slot, ety, n as u32);
                        cx.declare(
                            name,
                            Sym::Local {
                                ptr: slot,
                                ty: ety,
                                is_array: true,
                            },
                        );
                    }
                }
            }
            Stmt::Assign {
                target,
                op,
                value,
                line,
            } => {
                let (ptr, ety) = self.lower_lvalue(cx, target, *line)?;
                let (mut v, vt) = self.lower_expr(cx, value, *line)?;
                let want = ety;
                if let Some(b) = op {
                    let cur = self.emit_load(cx, ptr, ety);
                    let (r, rt) = self.lower_binop(cx, *b, cur, ety, v, vt, *line)?;
                    if !compatible(rt, want) {
                        return err(*line, "compound assignment type mismatch");
                    }
                    v = r;
                } else if !compatible(vt, want) {
                    return err(
                        *line,
                        format!("cannot assign {} to {}", vt.name(), want.name()),
                    );
                }
                self.emit_store(cx, ptr, v, ety);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                line,
            } => {
                let (c, ct) = self.lower_expr(cx, cond, *line)?;
                if ct != ETy::Bool {
                    return err(*line, "if condition must be bool");
                }
                let then_bb = cx.func.add_block();
                let else_bb = cx.func.add_block();
                let merge_bb = cx.func.add_block();
                cx.seal(Term::CondBr {
                    c,
                    t: then_bb,
                    f: else_bb,
                });
                cx.start_block(then_bb);
                self.lower_block(cx, then_body)?;
                cx.seal(Term::Br(merge_bb));
                cx.start_block(else_bb);
                self.lower_block(cx, else_body)?;
                cx.seal(Term::Br(merge_bb));
                cx.start_block(merge_bb);
            }
            Stmt::While { cond, body, line } => {
                let header = cx.func.add_block();
                let body_bb = cx.func.add_block();
                let exit = cx.func.add_block();
                cx.seal(Term::Br(header));
                cx.start_block(header);
                let (c, ct) = self.lower_expr(cx, cond, *line)?;
                if ct != ETy::Bool {
                    return err(*line, "while condition must be bool");
                }
                cx.seal(Term::CondBr {
                    c,
                    t: body_bb,
                    f: exit,
                });
                cx.start_block(body_bb);
                cx.loop_stack.push((header, exit));
                self.lower_block(cx, body)?;
                cx.loop_stack.pop();
                cx.seal(Term::Br(header));
                cx.start_block(exit);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                line,
            } => {
                cx.scopes.push(SymbolMap::new());
                if let Some(i) = init {
                    self.lower_stmt(cx, i)?;
                }
                let header = cx.func.add_block();
                let body_bb = cx.func.add_block();
                let step_bb = cx.func.add_block();
                let exit = cx.func.add_block();
                cx.seal(Term::Br(header));
                cx.start_block(header);
                match cond {
                    Some(ce) => {
                        let (c, ct) = self.lower_expr(cx, ce, *line)?;
                        if ct != ETy::Bool {
                            return err(*line, "for condition must be bool");
                        }
                        cx.seal(Term::CondBr {
                            c,
                            t: body_bb,
                            f: exit,
                        });
                    }
                    None => cx.seal(Term::Br(body_bb)),
                }
                cx.start_block(body_bb);
                cx.loop_stack.push((step_bb, exit));
                self.lower_block(cx, body)?;
                cx.loop_stack.pop();
                cx.seal(Term::Br(step_bb));
                cx.start_block(step_bb);
                if let Some(st) = step {
                    self.lower_stmt(cx, st)?;
                }
                cx.seal(Term::Br(header));
                cx.start_block(exit);
                cx.scopes.pop();
            }
            Stmt::Return(e, line) => match (e, cx.ret) {
                (None, None) => cx.seal(Term::Ret(None)),
                (Some(e), Some(rt)) => {
                    let (v, vt) = self.lower_expr(cx, e, *line)?;
                    if !compatible(vt, rt) {
                        return err(
                            *line,
                            format!("return type mismatch: {} vs {}", vt.name(), rt.name()),
                        );
                    }
                    cx.seal(Term::Ret(Some(v)));
                }
                (None, Some(_)) => return err(*line, "missing return value"),
                (Some(_), None) => return err(*line, "void function returns a value"),
            },
            Stmt::Break(line) => match cx.loop_stack.last() {
                Some(&(_, brk)) => cx.seal(Term::Br(brk)),
                None => return err(*line, "break outside loop"),
            },
            Stmt::Continue(line) => match cx.loop_stack.last() {
                Some(&(cont, _)) => cx.seal(Term::Br(cont)),
                None => return err(*line, "continue outside loop"),
            },
            Stmt::Expr(e, line) => {
                self.lower_expr(cx, e, *line)?;
            }
        }
        Ok(())
    }

    fn emit_zero_fill(&self, cx: &mut FnCtx, slot: ValueId, ety: ETy, n: u32) {
        // for (i = 0; i < n; i++) slot[i] = 0;
        let idx = cx.alloca(Ty::I32, 1);
        cx.emit(
            Op::Store {
                ptr: Operand::val(idx),
                val: Operand::i32(0),
                ty: Ty::I32,
            },
            None,
        );
        let header = cx.func.add_block();
        let body = cx.func.add_block();
        let exit = cx.func.add_block();
        cx.seal(Term::Br(header));
        cx.start_block(header);
        let i = cx.emit(
            Op::Load {
                ptr: Operand::val(idx),
                ty: Ty::I32,
            },
            Some(Ty::I32),
        );
        let c = cx.emit(
            Op::Icmp {
                pred: Pred::Slt,
                a: Operand::val(i),
                b: Operand::i32(n as i32),
            },
            Some(Ty::I1),
        );
        cx.seal(Term::CondBr {
            c: Operand::val(c),
            t: body,
            f: exit,
        });
        cx.start_block(body);
        let i2 = cx.emit(
            Op::Load {
                ptr: Operand::val(idx),
                ty: Ty::I32,
            },
            Some(Ty::I32),
        );
        let p = cx.emit(
            Op::Gep {
                base: Operand::val(slot),
                index: Operand::val(i2),
                stride: ety.stride(),
                offset: 0,
            },
            Some(Ty::Ptr),
        );
        cx.emit(
            Op::Store {
                ptr: Operand::val(p),
                val: zero_of(ety.mem()),
                ty: ety.mem(),
            },
            None,
        );
        let inc = cx.emit(
            Op::Bin {
                op: BinOp::Add,
                a: Operand::val(i2),
                b: Operand::i32(1),
            },
            Some(Ty::I32),
        );
        cx.emit(
            Op::Store {
                ptr: Operand::val(idx),
                val: Operand::val(inc),
                ty: Ty::I32,
            },
            None,
        );
        cx.seal(Term::Br(header));
        cx.start_block(exit);
    }

    /// Compute the address and element type of an lvalue.
    fn lower_lvalue(
        &mut self,
        cx: &mut FnCtx,
        lv: &LValue,
        line: u32,
    ) -> Result<(Operand, ETy), LowerError> {
        match lv {
            LValue::Var(name) => {
                let sym = cx.lookup(name).cloned().or_else(|| self.module_sym(name));
                match sym {
                    Some(Sym::Local { ptr, ty, is_array }) => {
                        if is_array {
                            return err(line, "cannot assign to an array");
                        }
                        Ok((Operand::val(ptr), ty))
                    }
                    Some(Sym::GlobalVar { id, ty, is_array }) => {
                        if is_array {
                            return err(line, "cannot assign to an array");
                        }
                        let a = cx.emit(Op::GlobalAddr(id), Some(Ty::Ptr));
                        Ok((Operand::val(a), ty))
                    }
                    Some(Sym::Const(_)) => err(line, format!("cannot assign to const `{name}`")),
                    None => err(line, format!("unknown variable `{name}`")),
                }
            }
            LValue::Index(name, idx) => {
                let (base, elem) = self.lower_base_ptr(cx, name, line)?;
                let (iv, it) = self.lower_expr(cx, idx, line)?;
                if !it.is_int() {
                    return err(line, "index must be an integer");
                }
                let p = cx.emit(
                    Op::Gep {
                        base,
                        index: iv,
                        stride: elem.stride(),
                        offset: 0,
                    },
                    Some(Ty::Ptr),
                );
                Ok((Operand::val(p), elem))
            }
        }
    }

    /// Resolve `name` to a base pointer for indexing, with element type.
    fn lower_base_ptr(
        &mut self,
        cx: &mut FnCtx,
        name: &str,
        line: u32,
    ) -> Result<(Operand, ETy), LowerError> {
        let sym = cx.lookup(name).cloned().or_else(|| self.module_sym(name));
        match sym {
            Some(Sym::Local { ptr, ty, is_array }) => {
                if is_array {
                    Ok((Operand::val(ptr), ty))
                } else if ty.is_ptr() {
                    // Scalar local holding a pointer: load it, index pointee.
                    let v = cx.emit(
                        Op::Load {
                            ptr: Operand::val(ptr),
                            ty: Ty::Ptr,
                        },
                        Some(Ty::Ptr),
                    );
                    let elem = if ty == ETy::PtrI8 { ETy::I8 } else { ETy::U32 };
                    Ok((Operand::val(v), elem))
                } else {
                    err(line, format!("`{name}` is not indexable"))
                }
            }
            Some(Sym::GlobalVar { id, ty, is_array }) => {
                if !is_array {
                    return err(line, format!("`{name}` is not an array"));
                }
                let a = cx.emit(Op::GlobalAddr(id), Some(Ty::Ptr));
                Ok((Operand::val(a), ty))
            }
            Some(Sym::Const(_)) => err(line, format!("`{name}` is a constant, not an array")),
            None => err(line, format!("unknown variable `{name}`")),
        }
    }

    fn module_sym(&self, name: &str) -> Option<Sym> {
        if let Some(v) = self.consts.get(name) {
            return Some(Sym::Const(*v));
        }
        if let Some((id, ty, is_array)) = self.globals.get(name) {
            return Some(Sym::GlobalVar {
                id: *id,
                ty: *ty,
                is_array: *is_array,
            });
        }
        None
    }

    #[allow(clippy::too_many_arguments)]
    fn lower_binop(
        &mut self,
        cx: &mut FnCtx,
        op: Bin,
        a: Operand,
        at: ETy,
        b: Operand,
        bt: ETy,
        line: u32,
    ) -> Result<(Operand, ETy), LowerError> {
        use Bin::*;
        match op {
            // Short-circuit ops are handled in lower_expr; reaching here is
            // a frontend bug, reported as an error — never a panic — since
            // this code runs on untrusted program text.
            LAnd | LOr => err(line, "internal: short-circuit op in lower_binop"),
            Lt | Le | Gt | Ge | Eq | Ne => {
                if !(compatible(at, bt) || (at.is_ptr() && at == bt)) {
                    return err(
                        line,
                        format!("cannot compare {} with {}", at.name(), bt.name()),
                    );
                }
                let unsigned = at.is_unsigned() || bt.is_unsigned();
                let pred = match (op, unsigned) {
                    (Eq, _) => Pred::Eq,
                    (Ne, _) => Pred::Ne,
                    (Lt, false) => Pred::Slt,
                    (Le, false) => Pred::Sle,
                    (Gt, false) => Pred::Sgt,
                    (Ge, false) => Pred::Sge,
                    (Lt, true) => Pred::Ult,
                    (Le, true) => Pred::Ule,
                    (Gt, true) => Pred::Ugt,
                    (Ge, true) => Pred::Uge,
                    _ => return err(line, "internal: non-comparison op"),
                };
                let v = cx.emit(Op::Icmp { pred, a, b }, Some(Ty::I1));
                Ok((Operand::val(v), ETy::Bool))
            }
            _ => {
                if !at.is_int() || !bt.is_int() {
                    return err(line, format!("arithmetic on {} / {}", at.name(), bt.name()));
                }
                let unsigned = at.is_unsigned() || bt.is_unsigned();
                let bo = match op {
                    Add => BinOp::Add,
                    Sub => BinOp::Sub,
                    Mul => BinOp::Mul,
                    Div => {
                        if unsigned {
                            BinOp::DivU
                        } else {
                            BinOp::DivS
                        }
                    }
                    Rem => {
                        if unsigned {
                            BinOp::RemU
                        } else {
                            BinOp::RemS
                        }
                    }
                    And => BinOp::And,
                    Or => BinOp::Or,
                    Xor => BinOp::Xor,
                    Shl => BinOp::Shl,
                    Shr => {
                        if unsigned {
                            BinOp::ShrU
                        } else {
                            BinOp::ShrA
                        }
                    }
                    _ => return err(line, "internal: non-arithmetic op"),
                };
                let rt = if at == ETy::U32 || bt == ETy::U32 {
                    ETy::U32
                } else if at == ETy::I8 && bt == ETy::I8 {
                    // Byte arithmetic promotes to i32 but stays unsigned-ish;
                    // report u32 so later div/shr stay unsigned.
                    ETy::U32
                } else {
                    ETy::I32
                };
                let v = cx.emit(Op::Bin { op: bo, a, b }, Some(Ty::I32));
                Ok((Operand::val(v), rt))
            }
        }
    }

    fn lower_expr(
        &mut self,
        cx: &mut FnCtx,
        e: &Expr,
        line: u32,
    ) -> Result<(Operand, ETy), LowerError> {
        match e {
            Expr::Int(v) => Ok((
                Operand::Const {
                    value: (*v as i32) as i64,
                    ty: Ty::I32,
                },
                ETy::I32,
            )),
            Expr::Bool(b) => Ok((Operand::bool(*b), ETy::Bool)),
            Expr::Var(name) => {
                let sym = cx.lookup(name).cloned().or_else(|| self.module_sym(name));
                match sym {
                    Some(Sym::Const(v)) => Ok((
                        Operand::Const {
                            value: (v as i32) as i64,
                            ty: Ty::I32,
                        },
                        ETy::I32,
                    )),
                    Some(Sym::Local { ptr, ty, is_array }) => {
                        if is_array {
                            // Array decays to a pointer to its first element.
                            let pt = if ty == ETy::I8 {
                                ETy::PtrI8
                            } else {
                                ETy::PtrI32
                            };
                            Ok((Operand::val(ptr), pt))
                        } else {
                            Ok((self.emit_load(cx, Operand::val(ptr), ty), ty))
                        }
                    }
                    Some(Sym::GlobalVar { id, ty, is_array }) => {
                        let a = cx.emit(Op::GlobalAddr(id), Some(Ty::Ptr));
                        if is_array {
                            let pt = if ty == ETy::I8 {
                                ETy::PtrI8
                            } else {
                                ETy::PtrI32
                            };
                            Ok((Operand::val(a), pt))
                        } else {
                            Ok((self.emit_load(cx, Operand::val(a), ty), ty))
                        }
                    }
                    None => err(line, format!("unknown variable `{name}`")),
                }
            }
            Expr::Index(name, idx) => {
                let (base, elem) = self.lower_base_ptr(cx, name, line)?;
                let (iv, it) = self.lower_expr(cx, idx, line)?;
                if !it.is_int() {
                    return err(line, "index must be an integer");
                }
                let p = cx.emit(
                    Op::Gep {
                        base,
                        index: iv,
                        stride: elem.stride(),
                        offset: 0,
                    },
                    Some(Ty::Ptr),
                );
                Ok((self.emit_load(cx, Operand::val(p), elem), elem))
            }
            Expr::Unary(op, x) => {
                let (v, vt) = self.lower_expr(cx, x, line)?;
                match op {
                    UnOp::Neg => {
                        if !vt.is_int() {
                            return err(line, "negation of non-integer");
                        }
                        let r = cx.emit(
                            Op::Bin {
                                op: BinOp::Sub,
                                a: Operand::i32(0),
                                b: v,
                            },
                            Some(Ty::I32),
                        );
                        Ok((
                            Operand::val(r),
                            if vt == ETy::U32 { ETy::U32 } else { ETy::I32 },
                        ))
                    }
                    UnOp::Not => {
                        if !vt.is_int() {
                            return err(line, "bitwise not of non-integer");
                        }
                        let r = cx.emit(
                            Op::Bin {
                                op: BinOp::Xor,
                                a: v,
                                b: Operand::i32(-1),
                            },
                            Some(Ty::I32),
                        );
                        Ok((Operand::val(r), vt))
                    }
                    UnOp::LNot => {
                        if vt != ETy::Bool {
                            return err(line, "logical not of non-bool");
                        }
                        let w = cx.emit(
                            Op::Cast {
                                kind: CastKind::Zext,
                                v,
                                to: Ty::I32,
                            },
                            Some(Ty::I32),
                        );
                        let r = cx.emit(
                            Op::Icmp {
                                pred: Pred::Eq,
                                a: Operand::val(w),
                                b: Operand::i32(0),
                            },
                            Some(Ty::I1),
                        );
                        Ok((Operand::val(r), ETy::Bool))
                    }
                }
            }
            Expr::Binary(op @ (Bin::LAnd | Bin::LOr), a, b) => {
                // Short-circuit via a result slot, exactly like clang -O0.
                let slot = cx.alloca(Ty::I8, 1);
                let (av, at) = self.lower_expr(cx, a, line)?;
                if at != ETy::Bool {
                    return err(line, "logical operand must be bool");
                }
                self.emit_store(cx, Operand::val(slot), av, ETy::Bool);
                let rhs_bb = cx.func.add_block();
                let done_bb = cx.func.add_block();
                if *op == Bin::LAnd {
                    cx.seal(Term::CondBr {
                        c: av,
                        t: rhs_bb,
                        f: done_bb,
                    });
                } else {
                    cx.seal(Term::CondBr {
                        c: av,
                        t: done_bb,
                        f: rhs_bb,
                    });
                }
                cx.start_block(rhs_bb);
                let (bv, bt) = self.lower_expr(cx, b, line)?;
                if bt != ETy::Bool {
                    return err(line, "logical operand must be bool");
                }
                self.emit_store(cx, Operand::val(slot), bv, ETy::Bool);
                cx.seal(Term::Br(done_bb));
                cx.start_block(done_bb);
                Ok((self.emit_load(cx, Operand::val(slot), ETy::Bool), ETy::Bool))
            }
            Expr::Binary(op, a, b) => {
                let (av, at) = self.lower_expr(cx, a, line)?;
                let (bv, bt) = self.lower_expr(cx, b, line)?;
                self.lower_binop(cx, *op, av, at, bv, bt, line)
            }
            Expr::Cast(x, to) => {
                let (v, vt) = self.lower_expr(cx, x, line)?;
                let tt = ETy::from_src(*to);
                let r = match (vt, tt) {
                    (a, b) if a == b => v,
                    (ETy::I32, ETy::U32)
                    | (ETy::U32, ETy::I32)
                    | (ETy::I8, ETy::I32)
                    | (ETy::I8, ETy::U32) => v,
                    (ETy::I32, ETy::I8) | (ETy::U32, ETy::I8) => {
                        // Mask to a byte while keeping the i32 representation.
                        let r = cx.emit(
                            Op::Bin {
                                op: BinOp::And,
                                a: v,
                                b: Operand::i32(0xff),
                            },
                            Some(Ty::I32),
                        );
                        Operand::val(r)
                    }
                    (ETy::Bool, ETy::I32) | (ETy::Bool, ETy::U32) => {
                        let r = cx.emit(
                            Op::Cast {
                                kind: CastKind::Zext,
                                v,
                                to: Ty::I32,
                            },
                            Some(Ty::I32),
                        );
                        Operand::val(r)
                    }
                    (ETy::PtrI8, ETy::PtrI32) | (ETy::PtrI32, ETy::PtrI8) => v,
                    _ => {
                        return err(
                            line,
                            format!("unsupported cast {} -> {}", vt.name(), tt.name()),
                        )
                    }
                };
                Ok((r, tt))
            }
            Expr::Call(name, args) => self.lower_call(cx, name, args, line),
        }
    }

    fn lower_call(
        &mut self,
        cx: &mut FnCtx,
        name: &str,
        args: &[Expr],
        line: u32,
    ) -> Result<(Operand, ETy), LowerError> {
        let mut vals = Vec::new();
        let mut tys = Vec::new();
        for a in args {
            let (v, t) = self.lower_expr(cx, a, line)?;
            vals.push(v);
            tys.push(t);
        }
        let arity = |n: usize| -> Result<(), LowerError> {
            if args.len() != n {
                err(
                    line,
                    format!("`{name}` expects {n} arguments, got {}", args.len()),
                )
            } else {
                Ok(())
            }
        };
        let code = match name {
            "commit" => {
                arity(1)?;
                Some(ecall::COMMIT)
            }
            "halt" => {
                arity(1)?;
                Some(ecall::HALT)
            }
            "read_input" => {
                arity(1)?;
                Some(ecall::READ_INPUT)
            }
            "sha256" => {
                arity(3)?;
                Some(ecall::SHA256)
            }
            "keccak256" => {
                arity(3)?;
                Some(ecall::KECCAK256)
            }
            "ecdsa_verify" => {
                arity(3)?;
                Some(ecall::ECDSA_VERIFY)
            }
            "eddsa_verify" => {
                arity(3)?;
                Some(ecall::EDDSA_VERIFY)
            }
            _ => None,
        };
        if let Some(code) = code {
            // Ecall args are raw registers; pointers pass through, i32 pass
            // through, bools widen.
            let mut raw = Vec::new();
            for (v, t) in vals.iter().zip(&tys) {
                let rv = match t {
                    ETy::Bool => {
                        let w = cx.emit(
                            Op::Cast {
                                kind: CastKind::Zext,
                                v: *v,
                                to: Ty::I32,
                            },
                            Some(Ty::I32),
                        );
                        Operand::val(w)
                    }
                    _ => *v,
                };
                raw.push(rv);
            }
            let r = cx.emit(Op::Ecall { code, args: raw }, Some(Ty::I32));
            return Ok((Operand::val(r), ETy::I32));
        }
        let Some(sig) = self.fns.get(name) else {
            return err(line, format!("unknown function `{name}`"));
        };
        if sig.params.len() != args.len() {
            return err(
                line,
                format!(
                    "`{name}` expects {} arguments, got {}",
                    sig.params.len(),
                    args.len()
                ),
            );
        }
        for (i, (have, want)) in tys.iter().zip(&sig.params).enumerate() {
            let ok = compatible(*have, *want) || (have.is_ptr() && want.is_ptr()); // pointer types interconvert at calls
            if !ok {
                return err(
                    line,
                    format!(
                        "argument {} of `{name}`: expected {}, got {}",
                        i + 1,
                        want.name(),
                        have.name()
                    ),
                );
            }
        }
        let id = sig.id;
        let ret = sig.ret;
        let r = cx.emit(
            Op::Call {
                callee: id,
                args: vals,
            },
            ret.map(|t| t.ir()),
        );
        match ret {
            Some(t) => Ok((Operand::val(r), t)),
            None => Ok((Operand::i32(0), ETy::I32)),
        }
    }
}

fn zero_of(ty: Ty) -> Operand {
    match ty {
        Ty::I1 => Operand::bool(false),
        Ty::I8 => Operand::i8(0),
        Ty::I32 => Operand::i32(0),
        Ty::Ptr => Operand::Const {
            value: 0,
            ty: Ty::Ptr,
        },
    }
}
