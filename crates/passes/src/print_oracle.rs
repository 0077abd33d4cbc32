//! The `String`-building body of `zkvmopt-ir`'s printer, kept as the test
//! oracle for the streaming printer that `module_to_string` and
//! `stable_module_fingerprint` now share.
//!
//! It lives here, like [`crate::analysis_oracle`], because only this crate's
//! tests produce the modules worth checking (every suite program as lowered,
//! after `-O1` and after `-O3`) and `#[cfg(test)]` items of `zkvmopt-ir` are
//! invisible to them. It reads only public API, so it is the old body
//! verbatim save for the paths.

use std::fmt::Write;
use zkvmopt_ir::analysis::stable_fingerprint_bytes;
use zkvmopt_ir::{CastKind, Function, Module, Op, Operand, Term, ValueDef, ValueId};

fn fmt_operand(_f: &Function, o: &Operand) -> String {
    match o {
        Operand::Value(v) => format!("%{}", v.0),
        Operand::Const { value, ty } => format!("{value}:{ty}"),
    }
}

fn fmt_inst(func: &Function, m: &Module, v: ValueId) -> String {
    let data = &func.values[v.index()];
    let op = match &data.def {
        ValueDef::Inst(op) => op,
        ValueDef::Param { index } => return format!("%{} = param {}", v.0, index),
    };
    let lhs = match data.ty {
        Some(ty) => format!("%{} = ", v.0) + &format!("{ty} "),
        None => String::new(),
    };
    let body = match op {
        Op::Bin { op, a, b } => {
            format!(
                "{} {}, {}",
                op.mnemonic(),
                fmt_operand(func, a),
                fmt_operand(func, b)
            )
        }
        Op::Icmp { pred, a, b } => format!(
            "icmp {} {}, {}",
            pred.mnemonic(),
            fmt_operand(func, a),
            fmt_operand(func, b)
        ),
        Op::Select { c, t, f } => format!(
            "select {}, {}, {}",
            fmt_operand(func, c),
            fmt_operand(func, t),
            fmt_operand(func, f)
        ),
        Op::Load { ptr, ty } => format!("load {ty}, {}", fmt_operand(func, ptr)),
        Op::Store { ptr, val, ty } => format!(
            "store {ty} {}, {}",
            fmt_operand(func, val),
            fmt_operand(func, ptr)
        ),
        Op::Alloca { elem, count } => format!("alloca {elem} x {count}"),
        Op::Gep {
            base,
            index,
            stride,
            offset,
        } => format!(
            "gep {}, {} * {stride} + {offset}",
            fmt_operand(func, base),
            fmt_operand(func, index)
        ),
        Op::GlobalAddr(g) => {
            let name = m
                .globals
                .get(g.index())
                .map(|gl| gl.name.as_str())
                .unwrap_or("?");
            format!("global_addr @{name}")
        }
        Op::Call { callee, args } => {
            let name = m
                .funcs
                .get(callee.index())
                .map(|f| f.name.as_str())
                .unwrap_or("?");
            let a: Vec<String> = args.iter().map(|x| fmt_operand(func, x)).collect();
            format!("call @{name}({})", a.join(", "))
        }
        Op::Ecall { code, args } => {
            let a: Vec<String> = args.iter().map(|x| fmt_operand(func, x)).collect();
            format!("ecall {}({})", zkvmopt_ir::ecall::name(*code), a.join(", "))
        }
        Op::Phi { incoming } => {
            let a: Vec<String> = incoming
                .iter()
                .map(|(b, o)| format!("[bb{}: {}]", b.0, fmt_operand(func, o)))
                .collect();
            format!("phi {}", a.join(", "))
        }
        Op::Cast { kind, v, to } => {
            let k = match kind {
                CastKind::Zext => "zext",
                CastKind::Sext => "sext",
                CastKind::Trunc => "trunc",
            };
            format!("{k} {} to {to}", fmt_operand(func, v))
        }
        Op::Copy(v) => format!("copy {}", fmt_operand(func, v)),
        Op::Nop => "nop".to_string(),
    };
    format!("{lhs}{body}")
}

fn fmt_term(func: &Function, t: &Term) -> String {
    match t {
        Term::Br(b) => format!("br bb{}", b.0),
        Term::CondBr { c, t, f } => {
            format!("br {}, bb{}, bb{}", fmt_operand(func, c), t.0, f.0)
        }
        Term::Ret(Some(v)) => format!("ret {}", fmt_operand(func, v)),
        Term::Ret(None) => "ret".to_string(),
        Term::Unreachable => "unreachable".to_string(),
    }
}

fn function_to_string(func: &Function, m: &Module) -> String {
    let mut s = String::new();
    let params: Vec<String> = func
        .params
        .iter()
        .enumerate()
        .map(|(i, t)| format!("%{i}: {t}"))
        .collect();
    let ret = match func.ret {
        Some(t) => format!(" -> {t}"),
        None => String::new(),
    };
    let _ = writeln!(s, "fn @{}({}){ret} {{", func.name, params.join(", "));
    for b in func.reachable_blocks() {
        let _ = writeln!(s, "bb{}:", b.0);
        for &v in &func.blocks[b.index()].insts {
            let _ = writeln!(s, "  {}", fmt_inst(func, m, v));
        }
        let _ = writeln!(s, "  {}", fmt_term(func, &func.blocks[b.index()].term));
    }
    let _ = writeln!(s, "}}");
    s
}

fn module_to_string(m: &Module) -> String {
    let mut s = String::new();
    for g in &m.globals {
        let _ = writeln!(
            s,
            "global @{}: {} bytes (init {})",
            g.name,
            g.size,
            g.init.len()
        );
    }
    for f in &m.funcs {
        s.push_str(&function_to_string(f, m));
        s.push('\n');
    }
    s
}

/// The printer and the fingerprint against the old body on `m`: the same
/// text, byte for byte, and the FNV-1a of that text.
pub(crate) fn check(name: &str, m: &Module) {
    let old = module_to_string(m);
    assert_eq!(
        zkvmopt_ir::print::module_to_string(m),
        old,
        "{name}: printed text"
    );
    for f in &m.funcs {
        assert_eq!(
            zkvmopt_ir::print::function_to_string(f, m),
            function_to_string(f, m),
            "{name}: @{}",
            f.name
        );
    }
    assert_eq!(
        zkvmopt_ir::stable_module_fingerprint(m),
        stable_fingerprint_bytes(old.as_bytes()),
        "{name}: fingerprint"
    );
}
