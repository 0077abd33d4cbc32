//! The random guest-program generator of `tests/proptest_passes.rs`, in a
//! file of its own so the pass crate's kernel-oracle tests can draw the same
//! programs (`#[path]`-included from both; not a test target itself).

use proptest::prelude::*;

/// A tiny expression/program generator over the zklang subset that is always
/// well-typed and terminating.
#[derive(Debug, Clone)]
pub enum E {
    Const(i32),
    Var(usize),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Div(Box<E>, Box<E>),
    Rem(Box<E>, Box<E>),
    Xor(Box<E>, Box<E>),
    Shl(Box<E>, u8),
}

fn expr_src(e: &E) -> String {
    match e {
        E::Const(c) => format!("{c}"),
        E::Var(i) => format!("v{}", i % 4),
        E::Add(a, b) => format!("({} + {})", expr_src(a), expr_src(b)),
        E::Sub(a, b) => format!("({} - {})", expr_src(a), expr_src(b)),
        E::Mul(a, b) => format!("({} * {})", expr_src(a), expr_src(b)),
        E::Div(a, b) => format!("({} / {})", expr_src(a), expr_src(b)),
        E::Rem(a, b) => format!("({} % {})", expr_src(a), expr_src(b)),
        E::Xor(a, b) => format!("({} ^ {})", expr_src(a), expr_src(b)),
        E::Shl(a, k) => format!("({} << {})", expr_src(a), k % 31),
    }
}

pub fn arb_expr() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![
        (-1000i32..1000).prop_map(E::Const),
        (0usize..4).prop_map(E::Var),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Div(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Rem(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), 0u8..31).prop_map(|(a, k)| E::Shl(Box::new(a), k)),
        ]
    })
}

/// Build a terminating program: seeded vars, a bounded loop with data flow
/// through the generated expressions, a conditional, and an array.
pub fn program(es: &[E], trip: u8) -> String {
    let body: Vec<String> = es
        .iter()
        .enumerate()
        .map(|(i, e)| format!("v{} = {};", i % 4, expr_src(e)))
        .collect();
    format!(
        "static A: [i32; 16];
         fn main() -> i32 {{
           let mut v0: i32 = read_input(0);
           let mut v1: i32 = read_input(1);
           let mut v2: i32 = 3;
           let mut v3: i32 = -7;
           for (let mut i: i32 = 0; i < {trip}; i += 1) {{
             {}
             A[i % 16] = v0 ^ v1;
             if (v2 % 2 == 0) {{ v3 += A[(v1 % 16 + 16) % 16]; }} else {{ v3 -= 1; }}
             v2 += 1;
           }}
           commit(v0); commit(v1); commit(v2); commit(v3);
           return v0 + v1 + v2 + v3;
         }}",
        body.join("\n             ")
    )
}

/// A generated program with cross-function data flow, so the interprocedural
/// (`ipo`) and loop families have real material to transform.
pub fn program_with_calls(es: &[E], trip: u8) -> String {
    let body: Vec<String> = es
        .iter()
        .enumerate()
        .map(|(i, e)| format!("v{} = {};", i % 4, expr_src(e)))
        .collect();
    format!(
        "static A: [i32; 16];
         fn leaf(x: i32, y: i32) -> i32 {{
           if (x % 3 == 0) {{ return x - y; }}
           return x + y * 2;
         }}
         fn mid(x: i32) -> i32 {{
           let mut acc: i32 = x;
           for (let mut j: i32 = 0; j < 4; j += 1) {{ acc = leaf(acc, j); }}
           return acc;
         }}
         fn main() -> i32 {{
           let mut v0: i32 = read_input(0);
           let mut v1: i32 = read_input(1);
           let mut v2: i32 = 5;
           let mut v3: i32 = -9;
           for (let mut i: i32 = 0; i < {trip}; i += 1) {{
             {}
             v0 = mid(v0 % 1000);
             A[i % 16] = v0 ^ v3;
             v3 += leaf(v1, v2);
             v2 += 1;
           }}
           commit(v0); commit(v1); commit(v2); commit(v3);
           return v0 + v1 + v2 + v3;
         }}",
        body.join("\n             ")
    )
}
