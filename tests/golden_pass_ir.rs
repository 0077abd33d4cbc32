//! Golden per-pass IR snapshots: the output of **every registered pass run
//! standalone**, pinned in `tests/golden_pass_ir.json`.
//!
//! `golden_static.json` and `golden_cycles.json` pin the `-O0…-Oz` / `zk-O3`
//! pipelines; the tuner draws from the whole registry, so a pass that rewrites
//! differently only outside those pipelines would slip past both. Here every
//! suite program is taken from three starting points (lowered, after `-O1`,
//! after `-O3`) under `PassConfig::default()` and `PassConfig::zk_aware()`;
//! each `pass_names()` entry runs on its own clone, and the printed-IR
//! fingerprint of the result (value and block ids included), the pass's
//! `changed` flag and the verifier's verdict are folded into one digest per
//! (program, start, config). The verdict is folded, not asserted:
//! `loop-extract`'s known verifier rejections are a soundness item of their
//! own and must not be *changed* silently either.
//!
//! A refactor of shared rewrite helpers must leave this file untouched. To
//! regenerate after an intentional change to what a pass produces:
//!
//! ```text
//! ZKVMOPT_BLESS=1 cargo test --release --test golden_pass_ir -- --include-ignored
//! ```
//!
//! and commit the updated JSON alongside the change that moved the digests.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use zkvm_opt::ir::analysis::{
    fingerprint_from_hex, fingerprint_to_hex, stable_fingerprint_bytes, stable_module_fingerprint,
};
use zkvm_opt::ir::verify::verify_module;
use zkvm_opt::ir::Module;
use zkvm_opt::passes::{pass_names, run_pass, PassConfig, PassManager};

/// Column names, in the order a row's digests are stored.
const COLUMNS: [&str; 6] = ["lowered", "lowered_zk", "o1", "o1_zk", "o3", "o3_zk"];

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_pass_ir.json")
}

/// The two configurations, with the verifier folded by hand instead of
/// panicking inside `run_pass`.
fn configs() -> [PassConfig; 2] {
    let quiet = |cfg: PassConfig| PassConfig {
        verify_each: false,
        ..cfg
    };
    [quiet(PassConfig::default()), quiet(PassConfig::zk_aware())]
}

/// One registry entry run standalone on a clone of `start`:
/// `(fingerprint, changed, verifies)`.
fn run_one(start: &Module, pass: &str, cfg: &PassConfig) -> (u64, bool, bool) {
    let mut m = start.clone();
    let changed = run_pass(pass, &mut m, cfg);
    (
        stable_module_fingerprint(&m),
        changed,
        verify_module(&m).is_ok(),
    )
}

/// Per-pass results of one (program, start, config) cell, registry order.
fn cell_rows(start: &Module, cfg: &PassConfig) -> Vec<(&'static str, u64, bool, bool)> {
    pass_names()
        .iter()
        .map(|&p| {
            let (fp, changed, ok) = run_one(start, p, cfg);
            (p, fp, changed, ok)
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

fn current_digests() -> Vec<(String, [u64; 6])> {
    zkvm_opt::workloads::all()
        .iter()
        .map(|w| {
            let mut row = [0u64; 6];
            for (slot, (m, cfg)) in row.iter_mut().zip(starts(&w.source, w.name)) {
                *slot = cell_digest(&cell_rows(&m, &cfg));
            }
            (w.name.to_string(), row)
        })
        .collect()
}

fn render(rows: &[(String, [u64; 6])]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"zkvmopt-golden-pass-ir-v1\",\n");
    writeln!(s, "  \"passes\": {},", pass_names().len()).expect("string write");
    s.push_str("  \"workloads\": {\n");
    for (i, (name, digests)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let cells: Vec<String> = COLUMNS
            .iter()
            .zip(digests)
            .map(|(c, d)| format!("\"{c}\": \"{}\"", fingerprint_to_hex(*d)))
            .collect();
        writeln!(s, "    \"{name}\": {{ {} }}{comma}", cells.join(", ")).expect("string write");
    }
    s.push_str("  }\n}\n");
    s
}

/// Parse the subset of JSON `render` emits (one workload per line).
fn parse(text: &str) -> BTreeMap<String, [u64; 6]> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with('"') || !line.contains("\"lowered\"") {
            continue;
        }
        let name = line
            .trim_start_matches('"')
            .split('"')
            .next()
            .expect("workload name")
            .to_string();
        let mut row = [0u64; 6];
        for (slot, col) in row.iter_mut().zip(COLUMNS) {
            let key = format!("\"{col}\": \"");
            let at = line
                .find(&key)
                .unwrap_or_else(|| panic!("{name}: missing {col}"));
            let hex = &line[at + key.len()..];
            let hex = hex.get(..16).unwrap_or(hex);
            *slot = fingerprint_from_hex(hex)
                .unwrap_or_else(|| panic!("{name}/{col}: bad digest `{hex}`"));
        }
        out.insert(name, row);
    }
    out
}

fn passes_field(text: &str) -> Option<usize> {
    let line = text.lines().find(|l| l.contains("\"passes\""))?;
    line.chars()
        .filter(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .ok()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-registry sweep is release-only (CI: test-release)"
)]
fn golden_pass_ir_is_stable() {
    let rows = current_digests();
    let path = golden_path();
    if std::env::var("ZKVMOPT_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, render(&rows)).expect("write golden file");
        eprintln!("blessed {} workloads into {}", rows.len(), path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); run with ZKVMOPT_BLESS=1 to generate",
            path.display()
        )
    });
    assert_eq!(
        passes_field(&text),
        Some(pass_names().len()),
        "the registry grew or shrank; rebless with ZKVMOPT_BLESS=1"
    );
    let golden = parse(&text);
    assert_eq!(golden.len(), 58, "golden file must cover the full suite");
    let mut drift = String::new();
    for (w, (name, digests)) in zkvm_opt::workloads::all().iter().zip(&rows) {
        let Some(want) = golden.get(name) else {
            writeln!(drift, "{name}: missing from golden file").expect("string write");
            continue;
        };
        if digests == want {
            continue;
        }
        // Print the per-pass fingerprints of each failing cell, so the row
        // can be diffed against the same print-out from another commit.
        for (i, (m, cfg)) in starts(&w.source, w.name).iter().enumerate() {
            if digests[i] == want[i] {
                continue;
            }
            writeln!(
                drift,
                "{name}/{}: golden {}, got {}",
                COLUMNS[i],
                fingerprint_to_hex(want[i]),
                fingerprint_to_hex(digests[i])
            )
            .expect("string write");
            for (pass, fp, changed, ok) in cell_rows(m, cfg) {
                writeln!(
                    drift,
                    "    {pass}: {} changed={changed} verifies={ok}",
                    fingerprint_to_hex(fp)
                )
                .expect("string write");
            }
        }
    }
    assert!(
        drift.is_empty(),
        "per-pass IR drifted from tests/golden_pass_ir.json — if intentional, \
         rebless with ZKVMOPT_BLESS=1:\n{drift}"
    );
}

/// The golden file itself must stay well-formed and round-trip through the
/// renderer (guards hand edits). Runs in debug too — it executes nothing.
#[test]
fn golden_pass_ir_file_is_well_formed() {
    let text = std::fs::read_to_string(golden_path()).expect("golden file exists");
    let golden = parse(&text);
    assert_eq!(golden.len(), 58);
    let rows: Vec<(String, [u64; 6])> = zkvm_opt::workloads::all()
        .iter()
        .map(|w| {
            let row = *golden
                .get(w.name)
                .unwrap_or_else(|| panic!("{} missing", w.name));
            (w.name.to_string(), row)
        })
        .collect();
    assert_eq!(parse(&render(&rows)), golden, "render/parse round-trip");
}
