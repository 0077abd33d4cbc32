//! # zkvmopt-lang
//!
//! The *zklang* frontend: a small C-like language in which the workspace's 58
//! benchmark programs are written, standing in for the paper's Rust/C sources.
//!
//! zklang compiles to `-O0`-style IR — every local in an `alloca`, every read a
//! `load`, every write a `store` — matching what clang hands LLVM's pass
//! pipeline. That parity is what makes the pass study meaningful: `mem2reg`,
//! `licm`, `inline`, and friends all see the same shapes they would in LLVM.
//!
//! ## Language summary
//!
//! - Types: `i32`, `u32`, `i8`, `bool`, pointers `*i32`/`*i8`, 1-D arrays.
//! - Items: `const N: i32 = ...;`, `static A: [i32; N] = [..];`, `fn`.
//! - Statements: `let`, assignment (`=`, `+=`, …), `if`/`else`, `while`,
//!   `for`, `return`, `break`, `continue`.
//! - Builtins (zkVM ecalls): `commit(x)`, `halt(x)`, `read_input(i)`,
//!   `sha256(in, len, out)`, `keccak256(in, len, out)`,
//!   `ecdsa_verify(msg, pk, sig)`, `eddsa_verify(msg, pk, sig)`.
//! - `#[inline(always)]` / `#[inline(never)]` function attributes.
//!
//! ## Example
//!
//! ```
//! let src = "
//!     fn main() -> i32 {
//!         let mut s: i32 = 0;
//!         for (let mut i: i32 = 0; i < 10; i += 1) { s += i; }
//!         return s;
//!     }";
//! let module = zkvmopt_lang::compile(src).expect("compiles");
//! let out = zkvmopt_ir::interp::run_module(&module, &[]).expect("runs");
//! assert_eq!(out.exit_value, 45);
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

pub mod ast;
pub mod lexer;
pub mod lower;
pub mod parser;

use std::fmt;
use zkvmopt_ir::Module;

/// Any frontend failure: lexing, parsing, or lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CompileError {}

impl From<parser::ParseError> for CompileError {
    fn from(e: parser::ParseError) -> CompileError {
        CompileError {
            line: e.line,
            message: e.message,
        }
    }
}

impl From<lower::LowerError> for CompileError {
    fn from(e: lower::LowerError) -> CompileError {
        CompileError {
            line: e.line,
            message: e.message,
        }
    }
}

/// Compile zklang source to a verified IR [`Module`].
///
/// # Errors
/// Returns a [`CompileError`] on any lexical, syntactic, type, or structural
/// problem (including IR verification failures, which indicate a frontend
/// bug and are reported as line 0).
pub fn compile(src: &str) -> Result<Module, CompileError> {
    let prog = parser::parse(src)?;
    let module = lower::lower(&prog)?;
    if let Err(e) = zkvmopt_ir::verify::verify_module(&module) {
        return Err(CompileError {
            line: 0,
            message: format!("internal: {e}"),
        });
    }
    Ok(module)
}

/// Compile and additionally require a `fn main() -> i32` with no parameters
/// (the guest-program entry contract used by the study pipeline).
///
/// # Errors
/// Like [`compile`], plus an error when `main` is missing or malformed.
pub fn compile_guest(src: &str) -> Result<Module, CompileError> {
    let m = compile(src)?;
    match m.main_func() {
        Some(id) => {
            let f = &m.funcs[id.index()];
            if !f.params.is_empty() || f.ret != Some(zkvmopt_ir::Ty::I32) {
                return Err(CompileError {
                    line: 0,
                    message: "main must be `fn main() -> i32` with no parameters".into(),
                });
            }
        }
        None => {
            return Err(CompileError {
                line: 0,
                message: "guest program must define main".into(),
            })
        }
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkvmopt_ir::interp::run_module;

    fn run(src: &str) -> i64 {
        let m = compile_guest(src).unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
        run_module(&m, &[])
            .unwrap_or_else(|e| panic!("run failed: {e}"))
            .exit_value
    }

    fn run_on_inputs(src: &str, inputs: &[i32]) -> (i64, Vec<i32>) {
        let m = compile_guest(src).unwrap_or_else(|e| panic!("compile failed: {e}"));
        let out = run_module(&m, inputs).unwrap();
        (out.exit_value, out.journal)
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(run("fn main() -> i32 { return 2 + 3 * 4 - 6 / 2; }"), 11);
        assert_eq!(run("fn main() -> i32 { return (2 + 3) * 4 % 7; }"), 6);
        assert_eq!(run("fn main() -> i32 { return 1 << 5 | 3; }"), 35);
    }

    #[test]
    fn signedness_of_division_and_shift() {
        assert_eq!(
            run("fn main() -> i32 { let a: i32 = -7; return a / 2; }"),
            -3
        );
        assert_eq!(
            run("fn main() -> i32 { let a: u32 = 0xfffffff8; return (a >> 1) as i32; }"),
            0x7ffffffc
        );
        assert_eq!(
            run("fn main() -> i32 { let a: i32 = -8; return a >> 1; }"),
            -4
        );
        assert_eq!(
            run("fn main() -> i32 { let a: u32 = 0xffffffff; if (a > 0) { return 1; } return 0; }"),
            1
        );
    }

    #[test]
    fn control_flow_loops() {
        assert_eq!(
            run("fn main() -> i32 { let mut s: i32 = 0; let mut i: i32 = 0;
                 while (i < 10) { s += i; i += 1; } return s; }"),
            45
        );
        assert_eq!(
            run("fn main() -> i32 { let mut s: i32 = 0;
                 for (let mut i: i32 = 0; i < 10; i += 1) {
                   if (i % 2 == 0) { continue; } s += i;
                 } return s; }"),
            25
        );
        assert_eq!(
            run("fn main() -> i32 { let mut s: i32 = 0;
                 for (let mut i: i32 = 0; ; i += 1) {
                   if (i >= 5) { break; } s += 10;
                 } return s; }"),
            50
        );
    }

    #[test]
    fn short_circuit_evaluation() {
        // Division by zero would change the result if RHS evaluated eagerly:
        // RISC-V x/0 == -1, so the guard must skip it.
        assert_eq!(
            run("fn main() -> i32 { let n: i32 = 0;
                 if (n != 0 && 10 / n > 1) { return 1; } return 2; }"),
            2
        );
        assert_eq!(
            run("fn main() -> i32 { let n: i32 = 5;
                 if (n == 5 || 10 / 0 > 1) { return 1; } return 2; }"),
            1
        );
    }

    #[test]
    fn functions_args_and_recursion() {
        assert_eq!(
            run("fn add(a: i32, b: i32) -> i32 { return a + b; }
                 fn main() -> i32 { return add(40, 2); }"),
            42
        );
        assert_eq!(
            run("fn fib(n: i32) -> i32 {
                   if (n < 2) { return n; }
                   return fib(n - 1) + fib(n - 2);
                 }
                 fn main() -> i32 { return fib(10); }"),
            55
        );
    }

    #[test]
    fn arrays_local_and_global() {
        assert_eq!(
            run("static A: [i32; 8];
                 fn main() -> i32 {
                   for (let mut i: i32 = 0; i < 8; i += 1) { A[i] = i * i; }
                   return A[7];
                 }"),
            49
        );
        assert_eq!(
            run("fn main() -> i32 {
                   let mut a: [i32; 4];
                   a[0] = 3; a[3] = 4;
                   return a[0] + a[1] + a[3];
                 }"),
            7
        );
    }

    #[test]
    fn global_initializers() {
        assert_eq!(
            run("static T: [i32; 4] = [10, 20, 30, 40];
                 fn main() -> i32 { return T[1] + T[3]; }"),
            60
        );
        assert_eq!(
            run("static S: [i8; 3] = \"AB\";
                 fn main() -> i32 { return S[0] as i32 + S[1] as i32 + S[2] as i32; }"),
            65 + 66
        );
        assert_eq!(
            run("static X: i32 = 17; fn main() -> i32 { X = X + 1; return X; }"),
            18
        );
    }

    #[test]
    fn consts_fold_in_sizes_and_exprs() {
        assert_eq!(
            run("const N: i32 = 4; const M: i32 = N * 2;
                 static A: [i32; M];
                 fn main() -> i32 { A[M - 1] = N; return A[7]; }"),
            4
        );
    }

    #[test]
    fn pointers_into_arrays() {
        assert_eq!(
            run("fn fill(p: *i32, n: i32) {
                   for (let mut i: i32 = 0; i < n; i += 1) { p[i] = i + 1; }
                 }
                 fn sum(p: *i32, n: i32) -> i32 {
                   let mut s: i32 = 0;
                   for (let mut i: i32 = 0; i < n; i += 1) { s += p[i] as i32; }
                   return s;
                 }
                 static A: [i32; 5];
                 fn main() -> i32 { fill(A, 5); return sum(A, 5); }"),
            15
        );
    }

    #[test]
    fn byte_arrays_and_chars() {
        assert_eq!(
            run("static BUF: [i8; 4];
                 fn main() -> i32 {
                   BUF[0] = 'h' as i8; BUF[1] = 0xff as i8;
                   return BUF[0] as i32 + BUF[1] as i32;
                 }"),
            104 + 255
        );
    }

    #[test]
    fn ecalls_commit_and_inputs() {
        let (exit, journal) = run_on_inputs(
            "fn main() -> i32 {
               let a: i32 = read_input(0);
               let b: i32 = read_input(1);
               commit(a + b);
               commit(a * b);
               return 0;
             }",
            &[6, 7],
        );
        assert_eq!(exit, 0);
        assert_eq!(journal, vec![13, 42]);
    }

    #[test]
    fn halt_builtin() {
        let m = compile_guest("fn main() -> i32 { halt(9); return 1; }").unwrap();
        let out = run_module(&m, &[]).unwrap();
        assert!(out.halted);
        assert_eq!(out.exit_value, 9);
    }

    #[test]
    fn inline_attributes_reach_ir() {
        let m = compile(
            "#[inline(always)] fn a() -> i32 { return 1; }
             #[inline(never)] fn b() -> i32 { return 2; }
             fn main() -> i32 { return a() + b(); }",
        )
        .unwrap();
        let fa = &m.funcs[m.func_by_name("a").unwrap().index()];
        let fb = &m.funcs[m.func_by_name("b").unwrap().index()];
        assert!(fa.always_inline && !fa.no_inline);
        assert!(fb.no_inline && !fb.always_inline);
    }

    #[test]
    fn locals_are_zero_initialized() {
        assert_eq!(run("fn main() -> i32 { let x: i32; return x; }"), 0);
        assert_eq!(
            run("fn main() -> i32 { let a: [i32; 16]; let mut s: i32 = 0;
                 for (let mut i: i32 = 0; i < 16; i += 1) { s += a[i]; } return s; }"),
            0
        );
    }

    #[test]
    fn type_errors_are_reported() {
        assert!(compile("fn main() -> i32 { return true; }").is_err());
        assert!(compile("fn main() -> i32 { let x: bool = 1; return 0; }").is_err());
        assert!(compile("fn main() -> i32 { if (1) { } return 0; }").is_err());
        assert!(compile("fn main() -> i32 { return nosuch(); }").is_err());
        assert!(compile("fn main() -> i32 { break; }").is_err());
        assert!(compile("fn f() {} fn f() {} fn main() -> i32 { return 0; }").is_err());
    }

    #[test]
    fn guest_contract_enforced() {
        assert!(compile_guest("fn notmain() -> i32 { return 0; }").is_err());
        assert!(compile_guest("fn main(x: i32) -> i32 { return x; }").is_err());
        assert!(compile_guest("fn main() { }").is_err());
    }

    #[test]
    fn nested_scopes_shadow() {
        assert_eq!(
            run("fn main() -> i32 {
                   let x: i32 = 1;
                   if (true) { let x: i32 = 2; commit(x); }
                   return x;
                 }"),
            1
        );
    }

    #[test]
    fn dead_code_after_return_is_tolerated() {
        assert_eq!(run("fn main() -> i32 { return 5; return 6; }"), 5);
        assert_eq!(
            run("fn main() -> i32 {
                   for (let mut i: i32 = 0; i < 3; i += 1) { return 7; }
                   return 8;
                 }"),
            7
        );
    }

    #[test]
    fn compound_assign_on_array_elements() {
        assert_eq!(
            run("static A: [i32; 2] = [5, 6];
                 fn main() -> i32 { A[0] += 10; A[1] *= 2; return A[0] + A[1]; }"),
            27
        );
    }

    #[test]
    fn while_with_logical_conditions() {
        assert_eq!(
            run("fn main() -> i32 {
                   let mut i: i32 = 0; let mut s: i32 = 0;
                   while (i < 20 && s < 50) { s += i; i += 1; }
                   return s;
                 }"),
            55
        );
    }
}
