//! # zkvmopt-vm
//!
//! zkVM guest executors with the two studied cost models:
//!
//! - [`VmKind::RiscZero`]: near-uniform instruction cost, 1 KiB pages with
//!   ~1130-cycle page-ins/page-outs, segment continuations whose flushes
//!   re-charge the resident set — the machinery behind the paper's paging
//!   findings (P1).
//! - [`VmKind::Sp1`]: shard-based accounting with small memory surcharges and
//!   no public paging metric (Table 2's "N/A").
//!
//! Execution is a **pre-decoded block-dispatch engine** ([`engine::Engine`]):
//! every RV32IM instruction is decoded once into a flat 8-byte [`op::Op`],
//! and ops are grouped into fall-through basic blocks keyed by branch
//! targets, each block one run of the single stream both tiers read.
//! Blocks without ecalls that fit the cycle budget and the current segment
//! run on the fast tier, one threaded loop that chains block to block with
//! no per-instruction accounting, its loads and stores served from
//! [`FastMemory`]'s residency table; an access the table cannot serve, and
//! every block that may meet a boundary, takes the stepped path.
//! Everything stays bit-identical to the original decode-per-step
//! interpreter ([`Machine`]), which is kept as the differential oracle.
//! The engine reports the paper's cost components: **dynamic instruction
//! count**, **paging cycles**, and **total cycles**, plus the journal used
//! by the workspace's differential tests and advisory [`EngineStats`]
//! counters explaining how each run was executed.
//!
//! ## Example
//!
//! ```
//! use zkvmopt_vm::{run_program, VmKind};
//!
//! let m = zkvmopt_lang::compile(
//!     "fn main() -> i32 { let mut s: i32 = 0;
//!      for (let mut i: i32 = 0; i < 10; i += 1) { s += i; } return s; }").unwrap();
//! let prog = zkvmopt_riscv::compile_module(&m, &zkvmopt_riscv::TargetCostModel::zk()).unwrap();
//! let report = run_program(&prog, VmKind::RiscZero, &[]).unwrap();
//! assert_eq!(report.exit_code, 45);
//! assert!(report.total_cycles >= report.instret);
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

pub mod ecalls;
pub mod engine;
pub mod machine;
pub mod mem;
pub mod op;
pub mod profile;
pub mod segment;

pub use ecalls::CryptoEcalls;
pub use engine::{run_decoded, run_program, Engine};
pub use machine::{alu, alu_imm, ExecConfig, ExecError, ExecutionReport, InstMix};
pub use machine::{run_program_reference, Machine};
pub use mem::{FastMemory, PagedMemory};
pub use op::{Block, DecodedProgram, Op, OpCode};
pub use profile::{EngineStats, VmKind, VmProfile};
pub use segment::SegmentRecord;

/// The random-program generator of `tests/proptest_passes.rs`.
#[cfg(test)]
#[path = "../../../tests/common/program_gen.rs"]
mod program_gen;

#[cfg(test)]
mod tests {
    use super::*;
    use zkvmopt_ir::interp::{Interp, InterpConfig};
    use zkvmopt_passes::{run_pass, OptLevel, PassConfig, PassManager};
    use zkvmopt_riscv::TargetCostModel;

    fn build(src: &str, passes: &[&str]) -> zkvmopt_riscv::Program {
        let mut m = zkvmopt_lang::compile_guest(src).expect("compiles");
        let cfg = PassConfig::default();
        for p in passes {
            run_pass(p, &mut m, &cfg);
        }
        zkvmopt_riscv::compile_module(&m, &TargetCostModel::zk()).expect("codegen")
    }

    /// Run source through the interpreter (with real precompiles) and the VM
    /// and demand identical guest-visible behaviour.
    fn differential(src: &str, inputs: &[i32], passes: &[&str]) -> ExecutionReport {
        let m = zkvmopt_lang::compile_guest(src).expect("compiles");
        let config = InterpConfig {
            inputs: inputs.to_vec(),
            ..InterpConfig::default()
        };
        let oracle = Interp::new(&m, config, CryptoEcalls)
            .run_main()
            .expect("oracle runs");
        let prog = build(src, passes);
        let report = run_program(&prog, VmKind::RiscZero, inputs).expect("vm runs");
        assert_eq!(report.exit_code as i64, oracle.exit_value, "exit mismatch");
        assert_eq!(report.journal, oracle.journal, "journal mismatch");
        report
    }

    #[test]
    fn arithmetic_and_loops_match_oracle() {
        differential(
            "fn main() -> i32 {
               let mut s: i32 = 0;
               for (let mut i: i32 = 1; i <= 10; i += 1) { s += i * i; }
               return s;
             }",
            &[],
            &[],
        );
    }

    #[test]
    fn division_semantics_match() {
        differential(
            "fn main() -> i32 {
               let a: i32 = read_input(0);
               let b: i32 = read_input(1);
               commit(a / b); commit(a % b);
               let ua: u32 = a as u32;
               commit((ua / 3) as i32);
               return a / 8;
             }",
            &[-7, 0],
            &[],
        );
    }

    #[test]
    fn calls_recursion_and_journal() {
        differential(
            "fn fib(n: i32) -> i32 {
               if (n < 2) { return n; }
               return fib(n - 1) + fib(n - 2);
             }
             fn main() -> i32 {
               commit(fib(12));
               return fib(10);
             }",
            &[],
            &[],
        );
    }

    #[test]
    fn arrays_and_globals_match() {
        differential(
            "static A: [i32; 32];
             fn main() -> i32 {
               for (let mut i: i32 = 0; i < 32; i += 1) { A[i] = i * 3; }
               let mut s: i32 = 0;
               for (let mut i: i32 = 0; i < 32; i += 1) { s += A[i]; }
               return s;
             }",
            &[],
            &[],
        );
    }

    #[test]
    fn optimized_pipelines_preserve_behaviour() {
        let src = "
            fn work(x: i32) -> i32 {
              let mut acc: i32 = x;
              for (let mut j: i32 = 0; j < 16; j += 1) { acc = acc * 3 + j; }
              return acc;
            }
            fn main() -> i32 {
              let mut s: i32 = 0;
              for (let mut i: i32 = 0; i < 8; i += 1) { s += work(i); }
              commit(s);
              return s % 1000;
            }";
        let m0 = zkvmopt_lang::compile_guest(src).unwrap();
        let base_prog = zkvmopt_riscv::compile_module(&m0, &TargetCostModel::zk()).unwrap();
        let base = run_program(&base_prog, VmKind::RiscZero, &[]).unwrap();
        for level in OptLevel::ALL {
            let mut m = zkvmopt_lang::compile_guest(src).unwrap();
            PassManager::for_level(level).run(&mut m, &PassConfig::default());
            let prog = zkvmopt_riscv::compile_module(&m, &TargetCostModel::zk()).unwrap();
            let r = run_program(&prog, VmKind::RiscZero, &[]).unwrap();
            assert_eq!(r.exit_code, base.exit_code, "{level:?} changed exit");
            assert_eq!(r.journal, base.journal, "{level:?} changed journal");
        }
        // -O3 must beat the unoptimized baseline on cycles.
        let mut m3 = zkvmopt_lang::compile_guest(src).unwrap();
        PassManager::o3().run(&mut m3, &PassConfig::default());
        let p3 = zkvmopt_riscv::compile_module(&m3, &TargetCostModel::zk()).unwrap();
        let r3 = run_program(&p3, VmKind::RiscZero, &[]).unwrap();
        assert!(
            r3.total_cycles < base.total_cycles,
            "-O3 {} !< baseline {}",
            r3.total_cycles,
            base.total_cycles
        );
    }

    #[test]
    fn sha256_precompile_matches_host() {
        let src = "
            static MSG: [i8; 3] = \"abc\";
            static OUT: [i8; 32];
            fn main() -> i32 {
              sha256(MSG, 3, OUT);
              return OUT[0] as i32;
            }";
        let r = differential(src, &[], &[]);
        // First byte of sha256(\"abc\") is 0xba.
        assert_eq!(r.exit_code, 0xba);
    }

    #[test]
    fn signature_precompile_in_guest() {
        let kp = zkvmopt_crypto::sig::keypair_from_seed(5);
        let msg = zkvmopt_crypto::sha256(b"block");
        let s = zkvmopt_crypto::sig::sign(zkvmopt_crypto::sig::Scheme::Ecdsa, &kp, &msg);
        // Bake the vectors into globals.
        let fmt_bytes = |b: &[u8]| -> String {
            b.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let src = format!(
            "static MSG: [i8; 32] = [{}];
             static PK: [i8; 8] = [{}];
             static SIG: [i8; 16] = [{}];
             fn main() -> i32 {{
               return ecdsa_verify(MSG, PK, SIG);
             }}",
            fmt_bytes(&msg),
            fmt_bytes(&kp.public.to_le_bytes()),
            fmt_bytes(
                &s.r.to_le_bytes()
                    .iter()
                    .chain(s.s.to_le_bytes().iter())
                    .copied()
                    .collect::<Vec<u8>>()
            ),
        );
        let r = differential(&src, &[], &[]);
        assert_eq!(r.exit_code, 1, "signature must verify in-guest");
    }

    #[test]
    fn paging_cycles_scale_with_touched_pages() {
        // Touch 64 KiB (64 pages) vs 1 KiB (1 page).
        let big = build(
            "static A: [i32; 16384];
             fn main() -> i32 {
               for (let mut i: i32 = 0; i < 16384; i += 256) { A[i] = i; }
               return 0;
             }",
            &["mem2reg"],
        );
        let small = build(
            "static A: [i32; 16384];
             fn main() -> i32 {
               for (let mut i: i32 = 0; i < 64; i += 1) { A[i] = i; }
               return 0;
             }",
            &["mem2reg"],
        );
        let rb = run_program(&big, VmKind::RiscZero, &[]).unwrap();
        let rs = run_program(&small, VmKind::RiscZero, &[]).unwrap();
        assert!(
            rb.page_outs > rs.page_outs,
            "{} !> {}",
            rb.page_outs,
            rs.page_outs
        );
        assert!(rb.paging_cycles > rs.paging_cycles);
    }

    #[test]
    fn segments_flush_resident_set() {
        // A long loop over one page: one page-in normally, more once the
        // cycle count crosses segment boundaries.
        let prog = build(
            "static A: [i32; 4];
             fn main() -> i32 {
               let mut s: i32 = 0;
               for (let mut i: i32 = 0; i < 400000; i += 1) { A[0] = i; s += A[0]; }
               return s;
             }",
            &["mem2reg"],
        );
        let r = run_program(&prog, VmKind::RiscZero, &[]).unwrap();
        assert!(
            r.segments > 1,
            "expected multiple segments, got {}",
            r.segments
        );
        assert!(r.page_ins >= r.segments - 1, "each segment re-pages");
    }

    #[test]
    fn sp1_and_risczero_report_different_cost_shapes() {
        let prog = build(
            "static A: [i32; 8192];
             fn main() -> i32 {
               for (let mut i: i32 = 0; i < 8192; i += 1) { A[i] = i; }
               return A[17];
             }",
            &["mem2reg"],
        );
        let r0 = run_program(&prog, VmKind::RiscZero, &[]).unwrap();
        let sp1 = run_program(&prog, VmKind::Sp1, &[]).unwrap();
        assert_eq!(r0.exit_code, sp1.exit_code);
        assert_eq!(r0.instret, sp1.instret, "instret is VM-independent");
        assert!(
            r0.paging_cycles > sp1.paging_cycles,
            "paging dominates on RISC Zero: {} vs {}",
            r0.paging_cycles,
            sp1.paging_cycles
        );
    }

    #[test]
    fn halt_mid_program() {
        let r = differential(
            "fn main() -> i32 {
               commit(1);
               halt(77);
               commit(2);
               return 0;
             }",
            &[],
            &[],
        );
        assert!(r.halted);
        assert_eq!(r.exit_code, 77);
        assert_eq!(r.journal, vec![1]);
    }

    #[test]
    fn cycle_limit_enforced() {
        let m = zkvmopt_lang::compile_guest(
            "fn main() -> i32 { let mut i: i32 = 0; while (true) { i += 1; } return i; }",
        )
        .unwrap();
        let prog = zkvmopt_riscv::compile_module(&m, &TargetCostModel::zk()).unwrap();
        let cfg = ExecConfig {
            max_cycles: 10_000,
            ..Default::default()
        };
        let r = Machine::new(&prog, VmProfile::risc_zero(), cfg).run();
        assert_eq!(r.unwrap_err(), ExecError::CycleLimit);
    }

    #[test]
    fn instruction_mix_is_recorded() {
        let prog = build(
            "fn main() -> i32 {
               let a: i32 = read_input(0);
               let mut s: i32 = 0;
               for (let mut i: i32 = 1; i < 50; i += 1) { s += a * i / 3; }
               return s;
             }",
            &["mem2reg"],
        );
        let r = run_program(&prog, VmKind::RiscZero, &[9]).unwrap();
        assert!(r.mix.mul >= 49, "muls: {:?}", r.mix);
        assert!(r.mix.div >= 49);
        assert!(r.mix.branch >= 50);
        let sum = r.mix.alu
            + r.mix.mul
            + r.mix.div
            + r.mix.load
            + r.mix.store
            + r.mix.branch
            + r.mix.jump
            + r.mix.ecall;
        assert_eq!(sum, r.instret, "mix must partition instret");
    }
}
