//! The one bless-and-compare path behind every golden file.
//!
//! A test renders its numbers as text and hands it to [`check`] with the
//! golden file's path, relative to the including crate's root. With
//! `ZKVMOPT_BLESS=1` the text becomes the file; otherwise it must equal the
//! file byte for byte. Rebless every golden at once with
//!
//! ```text
//! ZKVMOPT_BLESS=1 cargo test --release --workspace golden -- --include-ignored
//! ```

use std::fmt::Write as _;

/// Bless `got` into `rel`, or panic unless it equals the file. On a mismatch
/// the panic shows [`diff`], then whatever `explain` says about the first
/// differing line (given the golden line and the rendered one).
pub fn check(rel: &str, got: &str, explain: impl FnOnce(&str, &str) -> String) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    if std::env::var("ZKVMOPT_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, got).unwrap_or_else(|e| panic!("write {rel}: {e}"));
        eprintln!("blessed {rel}");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {rel} ({e}); run with ZKVMOPT_BLESS=1 to generate"));
    if let Some(d) = diff(&want, got) {
        let first = want.lines().zip(got.lines()).find(|(w, g)| w != g);
        let more = first.map_or_else(String::new, |(w, g)| explain(w, g));
        panic!("{rel} drifted; if intentional, rebless with ZKVMOPT_BLESS=1:\n{d}{more}");
    }
}

/// `None` when `want == got`. Otherwise the first differing line, by number,
/// with both versions, the count of differing lines, and every trailing line
/// one side has and the other lacks.
pub fn diff(want: &str, got: &str) -> Option<String> {
    if want == got {
        return None;
    }
    let (w, g): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let pairs = || w.iter().zip(&g).enumerate().filter(|(_, (a, b))| a != b);
    let mut out = String::new();
    if let Some((i, (a, b))) = pairs().next() {
        let (n, at) = (pairs().count(), i + 1);
        let _ = writeln!(
            out,
            "line {at}, first of {n} differing:\n  golden: {a}\n     got: {b}"
        );
    }
    for (i, line) in w.iter().enumerate().skip(g.len()) {
        let _ = writeln!(out, "line {}: missing from the output: {line}", i + 1);
    }
    for (i, line) in g.iter().enumerate().skip(w.len()) {
        let _ = writeln!(out, "line {}: not in the golden file: {line}", i + 1);
    }
    if out.is_empty() {
        out.push_str("every line matches; the line endings or the final newline differ\n");
    }
    Some(out)
}
