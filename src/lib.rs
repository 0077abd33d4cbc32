//! # zkvm-opt
//!
//! A self-contained reproduction of *“Evaluating Compiler Optimization Impacts on
//! zkVM Performance”* (ASPLOS 2026).
//!
//! This facade crate re-exports every subsystem of the workspace so examples and
//! downstream users can depend on a single crate:
//!
//! - [`ir`] — SSA intermediate representation and analyses
//! - [`lang`] — the zklang frontend (C-like benchmark language)
//! - [`passes`] — 45+ optimization passes mirroring the studied LLVM passes
//! - [`riscv`] — RV32IM code generation with pluggable target cost models
//! - [`vm`] — zkVM executors (RISC Zero–like and SP1-like cost models)
//! - [`prover`] — the STARK-style proving-cost model and the segmented
//!   Merkle-commitment prover
//! - [`x86sim`] — x86-like timing model used for the RQ3 comparison
//! - [`crypto`] — SHA-256 / Keccak / Merkle / toy signature precompile backends
//! - [`workloads`] — the 58-program benchmark suite
//! - [`stats`] — Kendall’s τ, Pearson r, and summary statistics
//! - [`tuner`] — genetic pass-sequence autotuner (OpenTuner substitute) and
//!   the island-model parallel tuning service with its persistent tune db
//! - [`study`] — the experiment driver that regenerates the paper’s tables/figures
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

pub use zkvmopt_core as study;
pub use zkvmopt_crypto as crypto;
pub use zkvmopt_ir as ir;
pub use zkvmopt_lang as lang;
pub use zkvmopt_passes as passes;
pub use zkvmopt_prover as prover;
pub use zkvmopt_riscv as riscv;
pub use zkvmopt_stats as stats;
pub use zkvmopt_tuner as tuner;
pub use zkvmopt_vm as vm;
pub use zkvmopt_workloads as workloads;
pub use zkvmopt_x86sim as x86sim;

/// Common imports for examples and quick experiments.
pub mod prelude {
    pub use zkvmopt_core::{
        gain, measure, MatrixCell, OptLevel, OptProfile, Pipeline, RunReport, SuiteRunner,
    };
    pub use zkvmopt_vm::{DecodedProgram, Engine, VmKind};
}
