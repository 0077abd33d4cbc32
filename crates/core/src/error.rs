//! Structured pipeline errors — the service boundary's failure taxonomy.
//!
//! A tuning service evaluates *untrusted* candidate pipelines on untrusted
//! program text, thousands of times per run. Every way an evaluation can go
//! wrong is an expected input, not an exceptional condition, so every path
//! through the lower → passes → codegen → engine chain (the study's and the
//! tuner's alike: both run [`passes`](crate::passes),
//! [`codegen`](crate::codegen) and [`execute`](crate::execute)) reports
//! failures as values of one taxonomy instead of panicking or stringifying:
//!
//! | Variant | Stage | Meaning |
//! |---|---|---|
//! | [`PipelineError::Parse`] | frontend | the program text does not lex/parse/lower |
//! | [`PipelineError::Verify`] | passes | the IR failed verification (a pass bug) |
//! | [`PipelineError::Codegen`] | backend | instruction selection / emission rejected the module |
//! | [`PipelineError::Trap`] | engine | the guest faulted (bad memory access, wild jump) |
//! | [`PipelineError::Budget`] | engine | the per-candidate cycle budget was exhausted |
//! | [`PipelineError::Divergence`] | oracle | observable behaviour differs from the baseline — a miscompile |
//! | [`PipelineError::Panic`] | anywhere | a bug escaped as a panic and was caught at the isolation boundary |
//!
//! [`PipelineError::class`] projects each variant onto the tuner's payload-
//! free [`FailureClass`], which is what the fitness cache, the quarantine
//! and checkpoint files store. Every class is a final outcome: evaluation
//! is a pure function of the program and the candidate, so the service
//! never retries a failure.

use std::fmt;
use zkvmopt_prover::AccountingMismatch;
use zkvmopt_tuner::FailureClass;

/// Any failure along the candidate-evaluation pipeline. See the module docs
/// for the full taxonomy and how each variant maps onto a quarantine
/// class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The program text failed in the frontend (lex, parse, type, lower).
    Parse {
        /// 1-based source line (0 when no location is known).
        line: u32,
        /// Human-readable description.
        message: String,
    },
    /// The IR failed verification after the candidate's passes ran —
    /// evidence of a pass bug, not of a bad program.
    Verify {
        /// The verifier's diagnosis.
        message: String,
    },
    /// Instruction selection or emission rejected the module.
    Codegen {
        /// The backend's diagnosis.
        message: String,
    },
    /// The guest trapped at runtime (memory fault, jump outside code).
    Trap {
        /// The engine's diagnosis.
        message: String,
    },
    /// The guest exhausted its cycle budget.
    Budget {
        /// The budget that was exceeded.
        limit: u64,
    },
    /// A run's segment records do not sum to its report. This is a bug in
    /// the engine, never a property of the candidate, so it classes as
    /// [`FailureClass::Panic`].
    Accounting(AccountingMismatch),
    /// The candidate changed observable behaviour (journal or exit code)
    /// versus the baseline oracle — the miscompile class the paper's
    /// autotuner surfaced in SP1.
    Divergence,
    /// A panic escaped some pipeline stage and was caught at the
    /// `catch_unwind` isolation boundary.
    Panic {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl PipelineError {
    /// The payload-free classification of this error — what the tuning
    /// service caches, quarantines, and checkpoints.
    pub fn class(&self) -> FailureClass {
        match self {
            PipelineError::Parse { .. } => FailureClass::Parse,
            PipelineError::Verify { .. } => FailureClass::Verify,
            PipelineError::Codegen { .. } => FailureClass::Codegen,
            PipelineError::Trap { .. } => FailureClass::Trap,
            PipelineError::Budget { .. } => FailureClass::Budget,
            PipelineError::Divergence => FailureClass::Divergence,
            PipelineError::Accounting(_) | PipelineError::Panic { .. } => FailureClass::Panic,
        }
    }

    /// Classify an engine failure against the budget it ran under.
    pub fn from_exec(e: zkvmopt_vm::ExecError, limit: u64) -> PipelineError {
        match e {
            zkvmopt_vm::ExecError::CycleLimit => PipelineError::Budget { limit },
            other => PipelineError::Trap {
                message: other.to_string(),
            },
        }
    }

    /// Rehydrate a caught panic payload into [`PipelineError::Panic`].
    pub fn from_panic(payload: Box<dyn std::any::Any + Send>) -> PipelineError {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string());
        PipelineError::Panic { message }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            PipelineError::Verify { message } => write!(f, "IR verification failed: {message}"),
            PipelineError::Codegen { message } => write!(f, "codegen error: {message}"),
            PipelineError::Trap { message } => write!(f, "guest trap: {message}"),
            PipelineError::Budget { limit } => {
                write!(f, "cycle budget exhausted (limit {limit})")
            }
            PipelineError::Accounting(m) => write!(f, "{m}"),
            PipelineError::Divergence => {
                write!(f, "observable behaviour diverged from the baseline")
            }
            PipelineError::Panic { message } => write!(f, "caught panic: {message}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<zkvmopt_lang::CompileError> for PipelineError {
    fn from(e: zkvmopt_lang::CompileError) -> PipelineError {
        // The frontend reports its own internal IR-verification failures
        // with an `internal:` prefix on line 0; everything else is the
        // program's fault.
        if e.line == 0 && e.message.starts_with("internal:") {
            PipelineError::Verify { message: e.message }
        } else {
            PipelineError::Parse {
                line: e.line,
                message: e.message,
            }
        }
    }
}

impl From<zkvmopt_riscv::CodegenError> for PipelineError {
    fn from(e: zkvmopt_riscv::CodegenError) -> PipelineError {
        PipelineError::Codegen {
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_classes_onto_the_tuner_taxonomy() {
        let cases: Vec<(PipelineError, FailureClass)> = vec![
            (
                PipelineError::Parse {
                    line: 3,
                    message: "x".into(),
                },
                FailureClass::Parse,
            ),
            (
                PipelineError::Verify {
                    message: "v".into(),
                },
                FailureClass::Verify,
            ),
            (
                PipelineError::Codegen {
                    message: "c".into(),
                },
                FailureClass::Codegen,
            ),
            (
                PipelineError::Trap {
                    message: "t".into(),
                },
                FailureClass::Trap,
            ),
            (PipelineError::Budget { limit: 9 }, FailureClass::Budget),
            (PipelineError::Divergence, FailureClass::Divergence),
            (
                PipelineError::Panic {
                    message: "p".into(),
                },
                FailureClass::Panic,
            ),
            (
                PipelineError::Accounting(AccountingMismatch {
                    field: "instret",
                    expected: 5,
                    got: 6,
                }),
                FailureClass::Panic,
            ),
        ];
        for class in FailureClass::ALL {
            assert!(cases.iter().any(|(_, c)| *c == class), "{class:?} hit");
        }
        for (e, class) in cases {
            assert_eq!(e.class(), class, "{e}");
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn exec_errors_split_into_budget_and_trap() {
        let b = PipelineError::from_exec(zkvmopt_vm::ExecError::CycleLimit, 1000);
        assert_eq!(b, PipelineError::Budget { limit: 1000 });
        let t = PipelineError::from_exec(zkvmopt_vm::ExecError::BadPc { pc: 7 }, 1000);
        assert_eq!(t.class(), FailureClass::Trap);
        let m = PipelineError::from_exec(zkvmopt_vm::ExecError::MemFault { addr: 4, pc: 2 }, 1000);
        assert_eq!(m.class(), FailureClass::Trap);
    }

    #[test]
    fn compile_errors_split_into_parse_and_verify() {
        let p: PipelineError = zkvmopt_lang::CompileError {
            line: 12,
            message: "expected `;`".into(),
        }
        .into();
        assert_eq!(p.class(), FailureClass::Parse);
        assert!(p.to_string().contains("line 12"));
        let v: PipelineError = zkvmopt_lang::CompileError {
            line: 0,
            message: "internal: dominance violated".into(),
        }
        .into();
        assert_eq!(v.class(), FailureClass::Verify);
    }

    #[test]
    fn panic_payloads_rehydrate_to_their_message() {
        let p = std::panic::catch_unwind(|| panic!("boom {}", 1)).unwrap_err();
        assert_eq!(
            PipelineError::from_panic(p),
            PipelineError::Panic {
                message: "boom 1".into()
            }
        );
        let q = std::panic::catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(
            PipelineError::from_panic(q),
            PipelineError::Panic {
                message: "opaque panic payload".into()
            }
        );
    }
}
