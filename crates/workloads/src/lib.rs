//! # zkvmopt-workloads
//!
//! The 58-program benchmark suite mirroring the paper's Appendix B:
//! PolyBench (30), NPB (8), SPEC-like stand-ins (3), cryptography (9), and
//! targeted programs (8). Programs are written in zklang; floating-point
//! kernels are integer/fixed-point ports and inputs are reduced to zkVM
//! scale, exactly as the paper reduced its own inputs (§3.4).
//!
//! Each workload seeds its data from `read_input(0)` so constant propagation
//! cannot fold whole programs away, and commits a checksum so every profile's
//! output is checked against the unoptimized oracle.

use std::sync::OnceLock;

/// Benchmark suite categories (paper Appendix B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// PolyBench/C numerical kernels (Rust port in the paper).
    PolyBench,
    /// NAS Parallel Benchmarks (sequential Rust port in the paper).
    Npb,
    /// SPEC CPU 2017 subset stand-ins (605/619/631).
    Spec,
    /// Cryptographic workloads (a16z + Succinct suites).
    Crypto,
    /// Targeted programs (fibonacci, regex-match, rsp, mnist, …).
    Other,
}

impl Suite {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Suite::PolyBench => "PolyBench",
            Suite::Npb => "NPB",
            Suite::Spec => "SPEC",
            Suite::Crypto => "Crypto",
            Suite::Other => "Other",
        }
    }
}

/// One benchmark program.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Program name (matches the paper's Table 4 where applicable).
    pub name: &'static str,
    /// Suite the program belongs to.
    pub suite: Suite,
    /// zklang source text.
    pub source: String,
    /// `read_input` values fed to the guest.
    pub inputs: Vec<i32>,
    /// Whether the program calls zkVM precompiles (the paper's "Precomp."
    /// column) — these see smaller compiler-optimization gains.
    pub uses_precompile: bool,
}

macro_rules! static_workload {
    ($name:literal, $suite:expr, $pre:expr) => {
        Workload {
            name: $name,
            suite: $suite,
            source: include_str!(concat!("../programs/", $name, ".zk")).to_string(),
            inputs: vec![42],
            uses_precompile: $pre,
        }
    };
}

fn signature_workload(name: &'static str, scheme: zkvmopt_crypto::sig::Scheme) -> Workload {
    use zkvmopt_crypto::sig;
    // Deterministic vectors baked into globals; the guest verifies a batch of
    // signatures (some valid, some corrupted) via the precompile.
    let fmt = |b: &[u8]| -> String {
        b.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut msgs = Vec::new();
    let mut pks = Vec::new();
    let mut sigs = Vec::new();
    const COUNT: usize = 12;
    for i in 0..COUNT {
        let kp = sig::keypair_from_seed(1000 + i as u64);
        let msg = zkvmopt_crypto::sha256(format!("tx payload {i}").as_bytes());
        let mut s = sig::sign(scheme, &kp, &msg);
        if i % 3 == 2 {
            s.s ^= 5; // corrupt every third signature
        }
        msgs.extend_from_slice(&msg);
        pks.extend_from_slice(&kp.public.to_le_bytes());
        sigs.extend_from_slice(&s.r.to_le_bytes());
        sigs.extend_from_slice(&s.s.to_le_bytes());
    }
    let builtin = match scheme {
        sig::Scheme::Ecdsa => "ecdsa_verify",
        sig::Scheme::Eddsa => "eddsa_verify",
    };
    let source = format!(
        "// {name}: batch signature verification via the {builtin} precompile
const COUNT: i32 = {COUNT};
static MSGS: [i8; {ml}] = [{m}];
static PKS: [i8; {pl}] = [{p}];
static SIGS: [i8; {sl}] = [{s}];
static MSG: [i8; 32]; static PK: [i8; 8]; static SG: [i8; 16];
fn main() -> i32 {{
  let mut valid: i32 = 0;
  for (let mut i: i32 = 0; i < COUNT; i += 1) {{
    for (let mut j: i32 = 0; j < 32; j += 1) {{ MSG[j] = MSGS[i*32 + j]; }}
    for (let mut j: i32 = 0; j < 8; j += 1) {{ PK[j] = PKS[i*8 + j]; }}
    for (let mut j: i32 = 0; j < 16; j += 1) {{ SG[j] = SIGS[i*16 + j]; }}
    valid += {builtin}(MSG, PK, SG);
  }}
  commit(valid);
  return valid;
}}
",
        ml = msgs.len(),
        pl = pks.len(),
        sl = sigs.len(),
        m = fmt(&msgs),
        p = fmt(&pks),
        s = fmt(&sigs),
    );
    Workload {
        name,
        suite: Suite::Crypto,
        source,
        inputs: vec![42],
        uses_precompile: true,
    }
}

fn build_all() -> Vec<Workload> {
    use Suite::*;
    let mut v = vec![
        // --- PolyBench (30) ---
        static_workload!("polybench-2mm", PolyBench, false),
        static_workload!("polybench-3mm", PolyBench, false),
        static_workload!("polybench-adi", PolyBench, false),
        static_workload!("polybench-atax", PolyBench, false),
        static_workload!("polybench-bicg", PolyBench, false),
        static_workload!("polybench-cholesky", PolyBench, false),
        static_workload!("polybench-correlation", PolyBench, false),
        static_workload!("polybench-covariance", PolyBench, false),
        static_workload!("polybench-deriche", PolyBench, false),
        static_workload!("polybench-doitgen", PolyBench, false),
        static_workload!("polybench-durbin", PolyBench, false),
        static_workload!("polybench-fdtd-2d", PolyBench, false),
        static_workload!("polybench-floyd-warshall", PolyBench, false),
        static_workload!("polybench-gemm", PolyBench, false),
        static_workload!("polybench-gemver", PolyBench, false),
        static_workload!("polybench-gesummv", PolyBench, false),
        static_workload!("polybench-gramschmidt", PolyBench, false),
        static_workload!("polybench-heat-3d", PolyBench, false),
        static_workload!("polybench-jacobi-1d", PolyBench, false),
        static_workload!("polybench-jacobi-2d", PolyBench, false),
        static_workload!("polybench-lu", PolyBench, false),
        static_workload!("polybench-ludcmp", PolyBench, false),
        static_workload!("polybench-mvt", PolyBench, false),
        static_workload!("polybench-nussinov", PolyBench, false),
        static_workload!("polybench-seidel-2d", PolyBench, false),
        static_workload!("polybench-symm", PolyBench, false),
        static_workload!("polybench-syr2k", PolyBench, false),
        static_workload!("polybench-syrk", PolyBench, false),
        static_workload!("polybench-trisolv", PolyBench, false),
        static_workload!("polybench-trmm", PolyBench, false),
        // --- NPB (8) ---
        static_workload!("npb-bt", Npb, false),
        static_workload!("npb-cg", Npb, false),
        static_workload!("npb-ep", Npb, false),
        static_workload!("npb-ft", Npb, false),
        static_workload!("npb-is", Npb, false),
        static_workload!("npb-lu", Npb, false),
        static_workload!("npb-mg", Npb, false),
        static_workload!("npb-sp", Npb, false),
        // --- SPEC-like (3) ---
        static_workload!("spec-605", Spec, false),
        static_workload!("spec-619", Spec, false),
        static_workload!("spec-631", Spec, false),
        // --- Crypto (9, of which the two signature programs are generated) ---
        static_workload!("sha256", Crypto, false),
        static_workload!("sha2-bench", Crypto, false),
        static_workload!("sha2-chain", Crypto, false),
        static_workload!("sha3-bench", Crypto, false),
        static_workload!("sha3-chain", Crypto, false),
        static_workload!("keccak256", Crypto, true),
        static_workload!("merkle", Crypto, false),
        // --- Others (8) ---
        static_workload!("bigmem", Other, false),
        static_workload!("fibonacci", Other, false),
        static_workload!("factorial", Other, false),
        static_workload!("loop-sum", Other, false),
        static_workload!("tailcall", Other, false),
        static_workload!("regex-match", Other, false),
        static_workload!("rsp", Other, true),
        static_workload!("zkvm-mnist", Other, false),
    ];
    v.push(signature_workload(
        "ecdsa-verify",
        zkvmopt_crypto::sig::Scheme::Ecdsa,
    ));
    v.push(signature_workload(
        "eddsa-verify",
        zkvmopt_crypto::sig::Scheme::Eddsa,
    ));
    v
}

/// The full 58-program suite.
pub fn all() -> &'static [Workload] {
    static ALL: OnceLock<Vec<Workload>> = OnceLock::new();
    ALL.get_or_init(build_all)
}

/// Look up a workload by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    all().iter().find(|w| w.name == name)
}

/// Workloads of one suite.
pub fn suite(s: Suite) -> Vec<&'static Workload> {
    all().iter().filter(|w| w.suite == s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_58_unique_programs() {
        let ws = all();
        assert_eq!(ws.len(), 58, "paper Appendix B count");
        let mut names: Vec<&str> = ws.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 58, "names must be unique");
        assert_eq!(suite(Suite::PolyBench).len(), 30);
        assert_eq!(suite(Suite::Npb).len(), 8);
        assert_eq!(suite(Suite::Spec).len(), 3);
        assert_eq!(suite(Suite::Crypto).len(), 9);
        assert_eq!(suite(Suite::Other).len(), 8);
    }

    #[test]
    fn every_program_compiles() {
        for w in all() {
            zkvmopt_lang::compile_guest(&w.source)
                .unwrap_or_else(|e| panic!("{} fails to compile: {e}", w.name));
        }
    }

    #[test]
    fn every_program_runs_in_the_oracle() {
        for w in all() {
            let m = zkvmopt_lang::compile_guest(&w.source).expect("compiles");
            let cfg = zkvmopt_ir::interp::InterpConfig {
                inputs: w.inputs.clone(),
                ..Default::default()
            };
            let out = zkvmopt_ir::Interp::new(&m, cfg, HostEcalls)
                .run_main()
                .unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
            assert!(
                !out.journal.is_empty() || out.exit_value != 0,
                "{} must produce observable output",
                w.name
            );
        }
    }

    #[test]
    fn signature_batches_verify_expected_count() {
        for name in ["ecdsa-verify", "eddsa-verify"] {
            let w = by_name(name).expect("exists");
            let m = zkvmopt_lang::compile_guest(&w.source).expect("compiles");
            let cfg = zkvmopt_ir::interp::InterpConfig::default();
            let out = zkvmopt_ir::Interp::new(&m, cfg, HostEcalls)
                .run_main()
                .expect("runs");
            // 12 signatures, every third corrupted: 8 valid.
            assert_eq!(out.exit_value, 8, "{name}");
        }
    }

    #[test]
    fn precompile_flags_match_table4() {
        for name in ["keccak256", "ecdsa-verify", "eddsa-verify", "rsp"] {
            assert!(by_name(name).expect("exists").uses_precompile, "{name}");
        }
        for name in ["sha256", "merkle", "sha2-bench", "fibonacci"] {
            assert!(!by_name(name).expect("exists").uses_precompile, "{name}");
        }
    }

    /// Interpreter ecall handler backed by the real crypto (duplicated from
    /// zkvmopt-vm to avoid a dev-dependency cycle; behaviourally identical
    /// because both call into zkvmopt-crypto through the same `MemIo`).
    #[derive(Clone, Copy)]
    struct HostEcalls;

    impl zkvmopt_ir::EcallHandler for HostEcalls {
        fn handle(&mut self, code: u32, args: &[i64], mem: &mut dyn zkvmopt_ir::MemIo) -> i64 {
            use zkvmopt_crypto as c;
            use zkvmopt_ir::ecall;
            let a = |i: usize| args.get(i).copied().unwrap_or(0) as u32;
            match code {
                ecall::SHA256 | ecall::KECCAK256 => {
                    let data = mem.read_bytes(a(0), a(1));
                    let d = if code == ecall::SHA256 {
                        c::sha256(&data)
                    } else {
                        c::keccak256(&data)
                    };
                    mem.write_bytes(a(2), &d);
                    0
                }
                ecall::ECDSA_VERIFY | ecall::EDDSA_VERIFY => {
                    let scheme = if code == ecall::ECDSA_VERIFY {
                        c::sig::Scheme::Ecdsa
                    } else {
                        c::sig::Scheme::Eddsa
                    };
                    let (mut msg, mut pk, mut rs) = ([0u8; 32], [0u8; 8], [0u8; 16]);
                    msg.copy_from_slice(&mem.read_bytes(a(0), 32));
                    pk.copy_from_slice(&mem.read_bytes(a(1), 8));
                    rs.copy_from_slice(&mem.read_bytes(a(2), 16));
                    let pk = u64::from_le_bytes(pk);
                    let r = u64::from_le_bytes(std::array::from_fn(|i| rs[i]));
                    let s = u64::from_le_bytes(std::array::from_fn(|i| rs[8 + i]));
                    c::sig::verify(scheme, pk, &msg, &c::sig::Signature { r, s }) as i64
                }
                _ => 0,
            }
        }
    }
}
