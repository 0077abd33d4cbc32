//! Property tests: the zklang frontend is **total**. Arbitrary input —
//! raw byte soup, token soup, or a valid program with random bytes spliced
//! in — produces `Ok` or a structured `CompileError`; it never panics and
//! never overflows the stack (the parser's nesting guard caps recursion).
//! The IR interpreter is total on every input that compiles: `Ok` or an
//! `InterpError`, never a panic.
//!
//! This is the frontend half of the fault-tolerance story: the tuning
//! service treats program text as untrusted, so the parser is the first
//! isolation boundary and must reject garbage as a value, not a crash.

use proptest::prelude::*;
use zkvm_opt::ir::interp::InterpConfig;
use zkvm_opt::ir::{Interp, NopEcalls};
use zkvm_opt::lang::compile_guest;

/// Token vocabulary for structured soup: every lexeme class the language
/// knows plus a few it doesn't, so the sampler reaches deep into the parser
/// before (usually) being rejected.
const VOCAB: &[&str] = &[
    "fn",
    "main",
    "let",
    "mut",
    "if",
    "else",
    "while",
    "for",
    "return",
    "break",
    "continue",
    "static",
    "i32",
    "commit",
    "read_input",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
    ":",
    "=",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<<",
    ">>",
    "&",
    "|",
    "^",
    "!",
    "~",
    "==",
    "!=",
    "<",
    "<=",
    ">",
    ">=",
    "&&",
    "||",
    "+=",
    "-=",
    "0",
    "1",
    "42",
    "-7",
    "2147483647",
    "-2147483648",
    "99999999999999999999",
    "x",
    "y",
    "v0",
    "A",
    "main",
    "@",
    "#",
    "$",
    "\u{fffd}",
    "\"",
    "'",
];

/// A small well-formed program used as the splice-mutation base.
const SEED_PROGRAM: &str = "static A: [i32; 8];
fn helper(x: i32) -> i32 { if (x % 2 == 0) { return x / 2; } return 3 * x + 1; }
fn main() -> i32 {
  let mut s: i32 = read_input(0);
  for (let mut i: i32 = 0; i < 10; i += 1) { A[i % 8] = helper(s + i); s ^= A[i % 8]; }
  commit(s);
  return s;
}";

/// The single property under test: compiling must return, not crash, and
/// so must interpreting whatever compiles (no precompiles, at most 100 000
/// steps). Each `Result` is intentionally ignored — `Ok` and an error value
/// are both acceptable, only a panic or stack overflow fails the test (as an
/// abort of the test process).
fn must_not_panic(src: &str) {
    if let Ok(m) = compile_guest(src) {
        let config = InterpConfig {
            max_steps: 100_000,
            ..InterpConfig::default()
        };
        let _ = Interp::new(&m, config, NopEcalls).run_main();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_never_panic_the_frontend(
        bytes in prop::collection::vec(0u8..=255u8, 0..512),
    ) {
        must_not_panic(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn token_soup_never_panics_the_frontend(
        picks in prop::collection::vec(0usize..VOCAB.len(), 0..96),
        spaced in 0u8..2,
    ) {
        let sep = if spaced == 1 { " " } else { "" };
        let soup: Vec<&str> = picks.iter().map(|i| VOCAB[*i]).collect();
        must_not_panic(&soup.join(sep));
        // The same soup wrapped where an expression is expected, so it is
        // parsed in statement position rather than rejected at the top level.
        must_not_panic(&format!("fn main() -> i32 {{ return {}; }}", soup.join(" ")));
    }

    #[test]
    fn spliced_valid_programs_never_panic_the_frontend(
        pos in 0usize..SEED_PROGRAM.len(),
        len in 0usize..24,
        junk in prop::collection::vec(0u8..=255u8, 1..24),
    ) {
        let mut bytes = SEED_PROGRAM.as_bytes().to_vec();
        let end = (pos + len).min(bytes.len());
        bytes.splice(pos..end, junk);
        must_not_panic(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn unbounded_nesting_is_rejected_not_overflowed(
        depth in 1usize..4096,
        opener in 0u8..3,
    ) {
        // Deep nesting in expression and statement position: the parser's
        // depth guard must reject it with "nesting too deep" well before the
        // stack runs out, for any depth past the cap.
        let src = match opener {
            0 => format!(
                "fn main() -> i32 {{ return {}1{}; }}",
                "(".repeat(depth),
                ")".repeat(depth)
            ),
            1 => format!("fn main() -> i32 {{ return {}1; }}", "-".repeat(depth)),
            _ => format!(
                "fn main() -> i32 {{ {} return 0; {} return 1; }}",
                "if (1) { ".repeat(depth),
                "} ".repeat(depth)
            ),
        };
        let r = compile_guest(&src);
        if depth >= 256 {
            let e = r.expect_err("deep nesting must be rejected");
            prop_assert!(
                e.message.contains("nesting too deep"),
                "unexpected diagnosis: {}", e
            );
        }
    }
}
