//! Golden snapshots of the suite, each a rendered text held byte for byte to
//! its file by `common/golden.rs`.
//!
//! - `tests/golden_cycles.json` pins every workload at `-O2`: total cycles
//!   on both VM kinds (what the optimized program *does*), and the IR
//!   instruction count and emitted RV32 code size (what the pass pipeline
//!   *produces*). The static counts catch pipeline drift — a pass firing
//!   differently, a manager reordering, an invalidation bug making a pass
//!   miss work — even when the dynamic cost happens to stay put.
//! - `tests/golden_pass_ir.json` pins the output of **every registered pass
//!   run standalone**. The `-O0…-Oz` / `zk-O3` pipelines leave most of the
//!   registry the tuner draws from unexercised, so every suite program is
//!   taken from three starting points (lowered, after `-O1`, after `-O3`)
//!   under `PassConfig::default()` and `PassConfig::zk_aware()`; each
//!   `pass_names()` entry runs on its own clone, and the printed-IR
//!   fingerprint of the result (value and block ids included), the pass's
//!   `changed` flag and the verifier's verdict are folded into one digest
//!   per (program, start, config). The verdict is folded, not asserted:
//!   `loop-extract`'s known verifier rejections are a soundness item of
//!   their own and must not be *changed* silently either. A refactor of
//!   shared rewrite helpers must leave this file untouched.
//!
//! To regenerate after an intentional change to what they pin:
//!
//! ```text
//! ZKVMOPT_BLESS=1 cargo test --release --workspace golden -- --include-ignored
//! ```
//!
//! and commit the updated files alongside the change that moved them.

use std::fmt::Write as _;
use zkvm_opt::ir::analysis::{
    fingerprint_to_hex, stable_fingerprint_bytes, stable_module_fingerprint,
};
use zkvm_opt::ir::verify::verify_module;
use zkvm_opt::ir::Module;
use zkvm_opt::passes::{pass_names, run_pass, PassConfig, PassManager};
use zkvm_opt::study::{OptLevel, OptProfile, SuiteRunner};
use zkvm_opt::vm::VmKind;

#[path = "common/golden.rs"]
mod golden;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-suite snapshot is release-only (CI: test-release)"
)]
fn golden_cycle_counts_are_stable() {
    let mut runner = SuiteRunner::new();
    let o2 = OptProfile::level(OptLevel::O2);
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"zkvmopt-golden-cycles-v2\",\n  \"profile\": \"-O2\",\n");
    s.push_str("  \"workloads\": {\n");
    let all = zkvm_opt::workloads::all();
    for (i, w) in all.iter().enumerate() {
        let name = w.name;
        let [r0, sp1] = [VmKind::RiscZero, VmKind::Sp1].map(|vm| {
            runner
                .run(w, &o2, vm, false)
                .unwrap_or_else(|e| panic!("{name} on {vm:?}: {e}"))
        });
        let (r0, sp1, code) = (r0.exec.total_cycles, sp1.exec.total_cycles, r0.code_size);
        let mut m =
            zkvm_opt::lang::compile_guest(&w.source).unwrap_or_else(|e| panic!("{name}: {e}"));
        o2.apply(&mut m);
        let ir = m.size();
        let comma = if i + 1 == all.len() { "" } else { "," };
        writeln!(
            s,
            "    \"{name}\": {{ \"risc_zero\": {r0}, \"sp1\": {sp1}, \"ir_insts\": {ir}, \
             \"code_size\": {code} }}{comma}"
        )
        .expect("string write");
    }
    s.push_str("  }\n}\n");
    golden::check("tests/golden_cycles.json", &s, |_, _| String::new());
}

/// Column names, in the order a row's digests are stored.
const COLUMNS: [&str; 6] = ["lowered", "lowered_zk", "o1", "o1_zk", "o3", "o3_zk"];

/// The two configurations, with the verifier folded by hand instead of
/// panicking inside `run_pass`.
fn configs() -> [PassConfig; 2] {
    let quiet = |cfg: PassConfig| PassConfig {
        verify_each: false,
        ..cfg
    };
    [quiet(PassConfig::default()), quiet(PassConfig::zk_aware())]
}

/// Per-pass `(name, fingerprint, changed, verifies)` of one (program, start,
/// config) cell, registry order: each entry run standalone on a clone.
fn cell_rows(start: &Module, cfg: &PassConfig) -> Vec<(&'static str, u64, bool, bool)> {
    pass_names()
        .iter()
        .map(|&p| {
            let mut m = start.clone();
            let changed = run_pass(p, &mut m, cfg);
            (
                p,
                stable_module_fingerprint(&m),
                changed,
                verify_module(&m).is_ok(),
            )
        })
        .collect()
}

fn cell_digest(rows: &[(&'static str, u64, bool, bool)]) -> u64 {
    let mut bytes = Vec::with_capacity(rows.len() * 24);
    for (name, fp, changed, ok) in rows {
        bytes.extend_from_slice(name.as_bytes());
        bytes.extend_from_slice(&fp.to_le_bytes());
        bytes.push(*changed as u8);
        bytes.push(*ok as u8);
    }
    stable_fingerprint_bytes(&bytes)
}

/// The six starting modules of one program, in `COLUMNS` order, each with the
/// config its passes run under.
fn starts(source: &str, name: &str) -> Vec<(Module, PassConfig)> {
    let lowered = zkvm_opt::lang::compile_guest(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut out = Vec::with_capacity(6);
    for pipeline in [None, Some(PassManager::o1()), Some(PassManager::o3())] {
        for cfg in configs() {
            let mut m = lowered.clone();
            if let Some(pm) = &pipeline {
                pm.run(&mut m, &cfg);
            }
            out.push((m, cfg));
        }
    }
    out
}

/// `"column": "digest"` as it appears in the rendered file.
fn cell(column: &str, digest: u64) -> String {
    format!("\"{column}\": \"{}\"", fingerprint_to_hex(digest))
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-registry sweep is release-only (CI: test-release)"
)]
fn golden_pass_ir_is_stable() {
    let all = zkvm_opt::workloads::all();
    let rows: Vec<[u64; 6]> = all
        .iter()
        .map(|w| {
            let starts = starts(&w.source, w.name);
            std::array::from_fn(|i| cell_digest(&cell_rows(&starts[i].0, &starts[i].1)))
        })
        .collect();
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"zkvmopt-golden-pass-ir-v1\",\n");
    writeln!(s, "  \"passes\": {},", pass_names().len()).expect("string write");
    s.push_str("  \"workloads\": {\n");
    for (i, (w, digests)) in all.iter().zip(&rows).enumerate() {
        let comma = if i + 1 == all.len() { "" } else { "," };
        let cells: Vec<String> = COLUMNS
            .iter()
            .zip(digests)
            .map(|(c, d)| cell(c, *d))
            .collect();
        writeln!(s, "    \"{}\": {{ {} }}{comma}", w.name, cells.join(", ")).expect("string write");
    }
    s.push_str("  }\n}\n");
    // Print the per-pass fingerprints of each failing cell of the first
    // drifted row, so it can be diffed against the same print-out from
    // another commit.
    golden::check("tests/golden_pass_ir.json", &s, |want, got| {
        let mut out = String::new();
        let row_of = |name: &str| got.trim_start().starts_with(&format!("\"{name}\":"));
        let Some((w, digests)) = all.iter().zip(&rows).find(|(w, _)| row_of(w.name)) else {
            return out;
        };
        for (i, (m, cfg)) in starts(&w.source, w.name).iter().enumerate() {
            if want.contains(&cell(COLUMNS[i], digests[i])) {
                continue;
            }
            writeln!(out, "{}/{}:", w.name, COLUMNS[i]).expect("string write");
            for (pass, fp, changed, ok) in cell_rows(m, cfg) {
                let fp = fingerprint_to_hex(fp);
                writeln!(out, "    {pass}: {fp} changed={changed} verifies={ok}")
                    .expect("string write");
            }
        }
        out
    });
}

/// The helper's diff names the first differing line with both versions, and
/// every line one side has past the other's end. Runs in debug too — it
/// reads no file.
#[test]
fn golden_diff_names_changed_and_trailing_lines() {
    let want = "{\n    \"a\": { \"risc_zero\": 159812 },\n}\n";
    assert_eq!(golden::diff(want, want), None);

    let digit = want.replace("159812", "159813");
    let d = golden::diff(want, &digit).expect("a changed digit differs");
    assert!(d.starts_with("line 2, first of 1 differing:"), "{d}");
    assert!(
        d.contains("golden:     \"a\": { \"risc_zero\": 159812 },"),
        "{d}"
    );
    assert!(
        d.contains("got:     \"a\": { \"risc_zero\": 159813 },"),
        "{d}"
    );

    let appended = format!("{want}extra row\n");
    let d = golden::diff(want, &appended).expect("an appended line differs");
    assert_eq!(d, "line 4: not in the golden file: extra row\n");
    let d = golden::diff(&appended, want).expect("a dropped line differs");
    assert_eq!(d, "line 4: missing from the output: extra row\n");

    let d = golden::diff(want, want.trim_end()).expect("a dropped final newline differs");
    assert!(d.contains("final newline"), "{d}");
}
