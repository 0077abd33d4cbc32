//! Textual IR printer (LLVM-flavoured), for debugging and golden tests.
//!
//! One printer writes into a [`fmt::Write`] sink: [`module_to_string`]
//! collects it into a `String`, and
//! [`crate::analysis::stable_module_fingerprint`] hashes the same characters
//! as they stream past, so the two agree byte for byte by construction.

use crate::func::{Function, Module, ValueDef, ValueId};
use crate::inst::{CastKind, Op, Operand, Term};
use std::fmt::{self, Display, Formatter, Write};

/// An operand as printed.
struct Opnd<'a>(&'a Operand);

impl Display for Opnd<'_> {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match self.0 {
            Operand::Value(v) => write!(f, "%{}", v.0),
            Operand::Const { value, ty } => write!(f, "{value}:{ty}"),
        }
    }
}

/// `items`, each printed by the function, joined by `", "`.
struct Commas<'a, T>(&'a [T], fn(&mut Formatter<'_>, &T) -> fmt::Result);

impl<T> Display for Commas<'_, T> {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        for (i, x) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            (self.1)(f, x)?;
        }
        Ok(())
    }
}

fn operands(args: &[Operand]) -> Commas<'_, Operand> {
    Commas(args, |f, a| Opnd(a).fmt(f))
}

fn write_inst(w: &mut impl Write, func: &Function, m: &Module, v: ValueId) -> fmt::Result {
    let data = &func.values[v.index()];
    let op = match &data.def {
        ValueDef::Inst(op) => op,
        ValueDef::Param { index } => return write!(w, "%{} = param {}", v.0, index),
    };
    if let Some(ty) = data.ty {
        write!(w, "%{} = {ty} ", v.0)?;
    }
    match op {
        Op::Bin { op, a, b } => write!(w, "{} {}, {}", op.mnemonic(), Opnd(a), Opnd(b)),
        Op::Icmp { pred, a, b } => {
            write!(w, "icmp {} {}, {}", pred.mnemonic(), Opnd(a), Opnd(b))
        }
        Op::Select { c, t, f } => write!(w, "select {}, {}, {}", Opnd(c), Opnd(t), Opnd(f)),
        Op::Load { ptr, ty } => write!(w, "load {ty}, {}", Opnd(ptr)),
        Op::Store { ptr, val, ty } => write!(w, "store {ty} {}, {}", Opnd(val), Opnd(ptr)),
        Op::Alloca { elem, count } => write!(w, "alloca {elem} x {count}"),
        Op::Gep {
            base,
            index,
            stride,
            offset,
        } => write!(
            w,
            "gep {}, {} * {stride} + {offset}",
            Opnd(base),
            Opnd(index)
        ),
        Op::GlobalAddr(g) => {
            let name = m
                .globals
                .get(g.index())
                .map(|gl| gl.name.as_str())
                .unwrap_or("?");
            write!(w, "global_addr @{name}")
        }
        Op::Call { callee, args } => {
            let name = m
                .funcs
                .get(callee.index())
                .map(|f| f.name.as_str())
                .unwrap_or("?");
            write!(w, "call @{name}({})", operands(args))
        }
        Op::Ecall { code, args } => {
            write!(w, "ecall {}({})", crate::ecall::name(*code), operands(args))
        }
        Op::Phi { incoming } => write!(
            w,
            "phi {}",
            Commas(incoming, |f, (b, o)| write!(f, "[bb{}: {}]", b.0, Opnd(o)))
        ),
        Op::Cast { kind, v, to } => {
            let k = match kind {
                CastKind::Zext => "zext",
                CastKind::Sext => "sext",
                CastKind::Trunc => "trunc",
            };
            write!(w, "{k} {} to {to}", Opnd(v))
        }
        Op::Copy(v) => write!(w, "copy {}", Opnd(v)),
        Op::Nop => w.write_str("nop"),
    }
}

fn write_term(w: &mut impl Write, t: &Term) -> fmt::Result {
    match t {
        Term::Br(b) => write!(w, "br bb{}", b.0),
        Term::CondBr { c, t, f } => write!(w, "br {}, bb{}, bb{}", Opnd(c), t.0, f.0),
        Term::Ret(Some(v)) => write!(w, "ret {}", Opnd(v)),
        Term::Ret(None) => w.write_str("ret"),
        Term::Unreachable => w.write_str("unreachable"),
    }
}

/// Print one function into `w`.
fn write_function(w: &mut impl Write, func: &Function, m: &Module) -> fmt::Result {
    write!(w, "fn @{}(", func.name)?;
    for (i, t) in func.params.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        write!(w, "{sep}%{i}: {t}")?;
    }
    match func.ret {
        Some(t) => writeln!(w, ") -> {t} {{")?,
        None => writeln!(w, ") {{")?,
    }
    for b in func.reachable_blocks() {
        writeln!(w, "bb{}:", b.0)?;
        let block = &func.blocks[b.index()];
        for &v in &block.insts {
            w.write_str("  ")?;
            write_inst(w, func, m, v)?;
            w.write_char('\n')?;
        }
        w.write_str("  ")?;
        write_term(w, &block.term)?;
        w.write_char('\n')?;
    }
    writeln!(w, "}}")
}

/// Print a whole module into `w`: the text [`module_to_string`] returns.
pub(crate) fn write_module(w: &mut impl Write, m: &Module) -> fmt::Result {
    for g in &m.globals {
        writeln!(
            w,
            "global @{}: {} bytes (init {})",
            g.name,
            g.size,
            g.init.len()
        )?;
    }
    for f in &m.funcs {
        write_function(w, f, m)?;
        w.write_char('\n')?;
    }
    Ok(())
}

/// Render one function as text.
pub fn function_to_string(func: &Function, m: &Module) -> String {
    let mut s = String::new();
    let _ = write_function(&mut s, func, m); // writing to a String cannot fail
    s
}

/// Render a whole module as text.
pub fn module_to_string(m: &Module) -> String {
    let mut s = String::new();
    let _ = write_module(&mut s, m); // writing to a String cannot fail
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, Operand};
    use crate::ty::Ty;

    #[test]
    fn prints_readably() {
        let mut b = FunctionBuilder::new("f", vec![Ty::I32], Some(Ty::I32));
        let v = b.bin(BinOp::Add, Operand::val(b.param(0)), Operand::i32(2));
        b.ret(Some(Operand::val(v)));
        let f = b.finish();
        let mut m = Module::new();
        m.add_func(f);
        let text = module_to_string(&m);
        assert!(text.contains("fn @f(%0: i32) -> i32 {"));
        assert!(text.contains("add %0, 2:i32"));
        assert!(text.contains("ret %1"));
    }

    #[test]
    fn prints_memory_and_calls() {
        let mut m = Module::new();
        let g = m.add_global(crate::Global::zeroed("buf", 64));
        let mut b = FunctionBuilder::new("main", vec![], Some(Ty::I32));
        let base = b.global_addr(g);
        let p = b.gep(Operand::val(base), Operand::i32(3), 4, 0);
        b.store(Operand::val(p), Operand::i32(7), Ty::I32);
        let l = b.load(Operand::val(p), Ty::I32);
        b.ret(Some(Operand::val(l)));
        m.add_func(b.finish());
        let text = module_to_string(&m);
        assert!(text.contains("global @buf: 64 bytes"));
        assert!(text.contains("global_addr @buf"));
        assert!(text.contains("store i32"));
        assert!(text.contains("load i32"));
    }
}
