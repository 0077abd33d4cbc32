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
use zkvm_opt::ir::verify::verify_module;
use zkvm_opt::ir::{ecall, Interp, NopEcalls, Op, Operand};
use zkvm_opt::lang::compile_guest;
use zkvm_opt::passes::{pass_names, run_pass, PassConfig, PassManager};

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

/// One counting loop `for (i = init; i <pred> bound; i += step)` whose exit
/// value is committed, and that value under i32 arithmetic, if it is reached
/// without wrapping (`None`: the IV overflows before the test fails).
fn counting_loop(init: i32, pred: &str, bound: i32, step: i32) -> (String, Option<i32>) {
    let src = format!(
        "fn main() -> i32 {{
  let mut i: i32 = {init};
  while (i {pred} {bound}) {{ i += {step}; }}
  commit(i);
  return 0;
}}"
    );
    let (init, bound, step) = (i64::from(init), i64::from(bound), i64::from(step));
    let trips = match pred {
        _ if init >= bound && pred == "<" => 0,
        _ if init > bound && pred == "<=" => 0,
        "<" => (bound - init + step - 1) / step,
        "<=" => (bound - init) / step + 1,
        _ => (bound - init) / step,
    };
    (src, i32::try_from(init + trips * step).ok())
}

/// Hostile loop bounds: counting loops that end at or near `i32::MAX`, from
/// 2·10⁹ trips down to a few, some whose IV would wrap. Every registered
/// pass alone, and `-O3`, must leave IR the verifier accepts, and the exit
/// value `indvars` substitutes for the IV must be the one the loop computes
/// — or, where the IV would wrap, none at all. Nothing is executed: the
/// longest loop here runs 2·10⁹ trips.
#[test]
fn loops_bounded_near_i32_max_compile_to_valid_ir_and_exact_exit_values() {
    const MAX: i32 = i32::MAX;
    let cases = [
        (0, "<", 2_000_000_000, 1),
        (0, "<", MAX, 1),
        (MAX - 10, "<", MAX, 3),
        (MAX - 10, "<", MAX, 5),
        (MAX - 7, "<=", MAX - 1, 2),
        (MAX - 9, "<=", MAX, 1),
        (MAX - 100, "!=", MAX, 1),
        (i32::MIN, "<", MAX, 1 << 20),
        (-5, "<", MAX - 3, 1 << 30),
    ];
    let cfg = PassConfig::default();
    for (init, pred, bound, step) in cases {
        let (src, exit) = counting_loop(init, pred, bound, step);
        let lowered = compile_guest(&src).expect("counting loop compiles");
        let case = format!("i = {init}; i {pred} {bound}; i += {step}");
        for name in pass_names() {
            let mut m = lowered.clone();
            run_pass(name, &mut m, &cfg);
            verify_module(&m).unwrap_or_else(|e| panic!("{case}: `{name}` broke IR: {e}"));
        }
        let mut m = lowered.clone();
        PassManager::o3().run(&mut m, &cfg);
        verify_module(&m).unwrap_or_else(|e| panic!("{case}: -O3 broke IR: {e}"));
        let mut m = lowered.clone();
        for name in ["mem2reg", "indvars"] {
            run_pass(name, &mut m, &cfg);
        }
        let main = m.main_func().expect("main");
        let f = &m.funcs[main.index()];
        let committed = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .find_map(|&v| match f.op(v) {
                Some(Op::Ecall { code, args }) if *code == ecall::COMMIT => Some(args[0]),
                _ => None,
            })
            .expect("the loop's exit value is committed");
        match (exit, committed) {
            (Some(x), Operand::Const { value, .. }) => {
                assert_eq!(value, i64::from(x), "{case}: wrong exit value")
            }
            (Some(x), o) => panic!("{case}: exit value {x} not substituted, commit reads {o:?}"),
            (None, o) => assert!(
                matches!(o, Operand::Value(_)),
                "{case}: the IV wraps, yet {o:?} was substituted"
            ),
        }
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
