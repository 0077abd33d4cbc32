//! # zkvmopt-ir
//!
//! The SSA intermediate representation at the heart of the zkvm-opt workspace.
//!
//! The IR deliberately mirrors the subset of LLVM IR that the reproduced paper's
//! optimization passes act on:
//!
//! - functions made of basic blocks with explicit terminators,
//! - SSA values with phi nodes,
//! - `alloca`/`load`/`store` for stack memory (the `-O0`-style form produced by the
//!   `zkvmopt-lang` frontend, which `mem2reg` then promotes),
//! - `gep`-style address arithmetic ([`Op::Gep`]), the source of the LCSSA-related
//!   memory traffic the paper blames for `licm` regressions,
//! - calls, a small set of casts, and `ecall` for zkVM precompiles.
//!
//! The crate also hosts the *analyses* shared by every pass (CFG utilities,
//! dominator tree, natural-loop forest), the IR *verifier*, a textual *printer*,
//! and a reference *interpreter* used as the semantic oracle by the workspace's
//! differential tests.
//!
//! ## Example
//!
//! ```
//! use zkvmopt_ir::{FunctionBuilder, Module, Ty, BinOp, Operand};
//!
//! // fn add1(x: i32) -> i32 { x + 1 }
//! let mut b = FunctionBuilder::new("add1", vec![Ty::I32], Some(Ty::I32));
//! let x = b.param(0);
//! let one = Operand::i32(1);
//! let sum = b.bin(BinOp::Add, Operand::val(x), one);
//! b.ret(Some(Operand::val(sum)));
//! let f = b.finish();
//! let mut m = Module::new();
//! m.add_func(f);
//! assert!(zkvmopt_ir::verify::verify_module(&m).is_ok());
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

pub mod analysis;
pub mod builder;
pub mod cfg;
pub mod dom;
pub mod ecall;
pub mod features;
pub mod func;
pub mod hash;
pub mod inst;
pub mod interp;
pub mod loops;
pub mod print;
pub mod ty;
pub mod verify;

pub use analysis::{stable_module_fingerprint, AnalysisCache, PreservedAnalyses};
pub use builder::FunctionBuilder;
pub use features::{FeatureVector, FEATURE_DIM, FEATURE_LABELS};
pub use func::{
    BlockData, BlockId, FuncId, Function, Global, GlobalId, Module, ValueData, ValueDef, ValueId,
};
pub use inst::{BinOp, CastKind, Op, Operand, Pred, Term};
pub use interp::{
    EcallHandler, Interp, InterpConfig, InterpError, InterpOutcome, MemIo, NopEcalls,
};
pub use ty::Ty;
