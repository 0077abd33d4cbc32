//! The one persistence layer under the tune database and the run
//! checkpoint.
//!
//! Both are line-oriented text — a `<magic> <version> …` header, one
//! whitespace-separated record per line, a sequence field comma-joined or
//! `-` when empty — published and recovered the same way, decided here once:
//!
//! - [`write_atomic`] / [`read_locked`]: locked temp-file + `fsync` + rename.
//!   A crash mid-save can tear only `<path>.tmp`, two writers of one path
//!   serialize on its [`FileLock`] instead of the survivor silently dropping
//!   the loser's entries, and a load never sees the middle of a save.
//! - [`body`] / [`salvage`]: loading never panics and never fails the
//!   caller. A bad header rejects the whole file, a corrupt line is dropped
//!   while every well-formed line is kept, and either way the caller builds
//!   its `Recovered { kept, dropped, reason }` status from a [`Salvage`].
//! - [`join_seq`] / [`split_seq`]: the sequence-field codec.

use crate::lock::{sidecar_path, FileLock};
use std::fmt::Display;
use std::io::Write;
use std::ops::RangeInclusive;
use std::path::Path;

/// Atomically publish `contents` at `path`. The temp file is `<path>.tmp` —
/// *appended*, never `with_extension`, so two files sharing a stem
/// (`study.risc0`, `study.sp1`, each under its own lock) can never collide
/// on the temp name.
///
/// # Errors
/// Returns the underlying I/O error when the file cannot be written.
pub(crate) fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let _lock = FileLock::acquire(path)?;
    let tmp = sidecar_path(path, ".tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Read `path` under its advisory lock; `None` when there is no such file.
/// Best-effort locking: when the sidecar cannot be opened (read-only
/// directory, exotic filesystem) this degrades to an unlocked read, it
/// never fails the load.
pub(crate) fn read_locked(path: &Path) -> Option<String> {
    let _lock = (!path.as_os_str().is_empty())
        .then(|| FileLock::acquire(path).ok())
        .flatten();
    std::fs::read_to_string(path).ok()
}

/// What survived a load: the records that parsed, and how many lines did
/// not. `reason` is `None` exactly when nothing was wrong.
#[derive(Debug)]
pub(crate) struct Salvage<T> {
    pub kept: Vec<T>,
    pub dropped: usize,
    pub reason: Option<String>,
}

impl<T> Salvage<T> {
    /// The whole file rejected: nothing kept, every body line dropped.
    fn rejected(text: &str, reason: String) -> Salvage<T> {
        Salvage {
            kept: Vec::new(),
            dropped: text.lines().count().saturating_sub(1),
            reason: Some(reason),
        }
    }

    /// [`Salvage::rejected`] for a first line that is not this format's
    /// header.
    pub(crate) fn bad_header(text: &str) -> Salvage<T> {
        let header = text.lines().next().unwrap_or_default();
        Salvage::rejected(text, format!("bad header {header:?}"))
    }
}

/// A versioned file past its header check: the version it declared, the
/// header fields after it, and the record lines.
pub(crate) struct Body<'a> {
    pub version: u32,
    pub header_rest: std::str::SplitAsciiWhitespace<'a>,
    pub lines: std::str::Lines<'a>,
}

/// Check `text`'s `<magic> <version> …` header.
///
/// # Errors
/// A missing or foreign header, or a version outside `supported` (the
/// format may have changed incompatibly), rejects the whole file.
pub(crate) fn body<'a, T>(
    text: &'a str,
    magic: &str,
    supported: RangeInclusive<u32>,
) -> Result<Body<'a>, Salvage<T>> {
    let mut lines = text.lines();
    let Some(header) = lines.next() else {
        return Err(Salvage::rejected(text, "empty file".to_string()));
    };
    let mut fields = header.split_ascii_whitespace();
    match (fields.next(), fields.next().and_then(|v| v.parse().ok())) {
        (Some(m), Some(version)) if m == magic && supported.contains(&version) => Ok(Body {
            version,
            header_rest: fields,
            lines,
        }),
        (Some(m), Some(version)) if m == magic => Err(Salvage::rejected(
            text,
            format!("schema version {version} > supported {}", supported.end()),
        )),
        _ => Err(Salvage::bad_header(text)),
    }
}

/// Parse every non-blank record line, dropping the ones `parse` refuses.
/// The reason names the first dropped line (1-based, header included).
pub(crate) fn salvage<T>(
    lines: std::str::Lines<'_>,
    mut parse: impl FnMut(&str) -> Option<T>,
) -> Salvage<T> {
    let mut out = Salvage {
        kept: Vec::new(),
        dropped: 0,
        reason: None,
    };
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse(line) {
            Some(record) => out.kept.push(record),
            None => {
                out.dropped += 1;
                out.reason
                    .get_or_insert_with(|| format!("malformed line {}", i + 2));
            }
        }
    }
    out
}

/// One whitespace-free sequence field: comma-joined, `-` when empty.
pub(crate) fn join_seq<T: Display>(items: &[T]) -> String {
    if items.is_empty() {
        return "-".to_string();
    }
    let parts: Vec<String> = items.iter().map(T::to_string).collect();
    parts.join(",")
}

/// Inverse of [`join_seq`]; `None` when `item` refuses any element (an
/// empty element included: `a,,b` is never a valid sequence).
pub(crate) fn split_seq<T>(field: &str, item: impl Fn(&str) -> Option<T>) -> Option<Vec<T>> {
    if field == "-" {
        return Some(Vec::new());
    }
    field.split(',').map(item).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The temp name is the full file name plus `.tmp`: paths that differ
    /// only in their extension publish through different temp files.
    #[test]
    fn same_stem_paths_get_distinct_temp_names() {
        let a = sidecar_path(Path::new("out/study.risc0"), ".tmp");
        let b = sidecar_path(Path::new("out/study.sp1"), ".tmp");
        assert_eq!(a, Path::new("out/study.risc0.tmp"));
        assert_eq!(b, Path::new("out/study.sp1.tmp"));
        assert_ne!(a, b);
    }

    #[test]
    fn headers_reject_whole_files_and_lines_salvage_one_by_one() {
        let rejected = |text: &str| body::<u8>(text, "magic", 1..=2).err().expect("rejected");
        let s = rejected("");
        assert_eq!((s.dropped, s.reason.as_deref()), (0, Some("empty file")));
        let s = rejected("magic 3\na\nb\n");
        assert_eq!(s.dropped, 2);
        assert!(s.reason.unwrap().contains("schema version 3 > supported 2"));
        assert!(rejected("other 1\na\n")
            .reason
            .unwrap()
            .contains("bad header"));

        let mut b = body::<u8>("magic 2 extra\n7\n\nx\n9\ny", "magic", 1..=2)
            .ok()
            .unwrap();
        assert_eq!((b.version, b.header_rest.next()), (2, Some("extra")));
        let s = salvage(b.lines, |l| l.parse::<u8>().ok());
        assert_eq!((s.kept, s.dropped), (vec![7, 9], 2));
        assert_eq!(s.reason.as_deref(), Some("malformed line 4"));
    }

    #[test]
    fn sequence_fields_round_trip() {
        assert_eq!(join_seq::<&str>(&[]), "-");
        assert_eq!(join_seq(&["a", "b"]), "a,b");
        assert_eq!(join_seq(&[1.0, 0.5]), "1,0.5");
        let word = |p: &str| (!p.is_empty()).then(|| p.to_string());
        assert_eq!(split_seq("-", word), Some(vec![]));
        assert_eq!(split_seq("a,b", word), Some(vec!["a".into(), "b".into()]));
        assert_eq!(split_seq("a,,b", word), None);
        assert_eq!(split_seq("", word), None);
    }
}
