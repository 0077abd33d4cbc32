//! Crash-consistent checkpoints for an in-flight service run.
//!
//! The island-model search is deterministic: same seed, same config, same
//! targets → the same sequence of candidate evaluations, at any thread
//! count. That turns checkpointing on its head — there is no need to
//! serialize populations, RNG streams, or the scheduler. The fitness cache
//! *is* the run state: every evaluation is a pure function of its
//! `(fingerprint, canonical candidate)` key, the cache is insert-only, and
//! any subset of it is valid. A checkpoint is therefore just an atomic dump
//! of the cache, and `resume` is "replay the search from generation zero
//! with those evaluations pre-answered" — bit-identical results, zero
//! redundant fitness evaluations for everything the lost run had measured.
//!
//! ## File format (schema version 1)
//!
//! Line-oriented UTF-8, mirroring the tune database:
//!
//! ```text
//! zkvmopt-checkpoint 1 <digest:16-hex>
//! <fp:16-hex> <inline> <unroll> <cycles|!class> <pass,pass,...|->
//! ```
//!
//! The header digest binds the checkpoint to the run shape (seed, island
//! geometry, budget, targets): resuming with a different configuration
//! would replay a *different* search, so a digest mismatch discards the
//! file rather than silently warping the results. The value field is the
//! measured cycle count, or `!` + a [`FailureClass`] token for candidates
//! that failed (failures are results too — replaying them costs nothing).
//!
//! ## Failure policy
//!
//! Like [`TuneDb`](crate::TuneDb): loading never panics and never fails the
//! caller. A missing file is an absent checkpoint, a bad header or digest
//! discards the file, and a corrupt line (torn write from a crash mid-save
//! — possible only for the temp file, but operators edit things) is dropped
//! while every well-formed line is kept: a partial checkpoint just resumes
//! a bit further back. Reads and writes go through the same `persist`
//! layer (advisory lock, temp file + rename) as the database.

use crate::cache::FitnessKey;
use crate::fault::{EvalResult, FailureClass};
use crate::persist;
use std::fmt;
use std::path::Path;
use zkvmopt_passes::find_pass;

/// Current on-disk schema version. Bump on any incompatible format change.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 1;

const MAGIC: &str = "zkvmopt-checkpoint";

/// How a checkpoint load went.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointStatus {
    /// No checkpoint file existed (fresh run).
    Absent,
    /// Every line parsed and the digest matched.
    Loaded {
        /// Entries restored into the fitness cache.
        entries: usize,
    },
    /// The digest did not match this run's configuration; nothing restored.
    Mismatch,
    /// Damaged file: well-formed lines were kept, the rest dropped.
    Recovered {
        /// Entries restored.
        kept: usize,
        /// Malformed or stale lines dropped.
        dropped: usize,
        /// Human-readable cause.
        reason: String,
    },
}

impl fmt::Display for CheckpointStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointStatus::Absent => write!(f, "absent"),
            CheckpointStatus::Loaded { entries } => write!(f, "loaded {entries} entries"),
            CheckpointStatus::Mismatch => write!(f, "configuration digest mismatch; discarded"),
            CheckpointStatus::Recovered {
                kept,
                dropped,
                reason,
            } => write!(f, "recovered (kept {kept}, dropped {dropped}): {reason}"),
        }
    }
}

/// Serialize `entries` (a [`crate::FitnessCache::snapshot`]) to the
/// checkpoint text format.
pub fn checkpoint_to_string(digest: u64, entries: &[(FitnessKey, EvalResult)]) -> String {
    let mut out = format!(
        "{MAGIC} {CHECKPOINT_SCHEMA_VERSION} {}\n",
        zkvmopt_ir::analysis::fingerprint_to_hex(digest)
    );
    for (k, v) in entries {
        let value = match v {
            Ok(cycles) => cycles.to_string(),
            Err(class) => format!("!{}", class.token()),
        };
        out.push_str(&format!(
            "{} {} {} {value} {}\n",
            zkvmopt_ir::analysis::fingerprint_to_hex(k.fingerprint),
            k.inline_threshold,
            k.unroll_threshold,
            persist::join_seq(&k.passes),
        ));
    }
    out
}

/// Atomically write a checkpoint (advisory lock, temp file, rename).
///
/// # Errors
/// Returns the underlying I/O error when the file cannot be written.
pub fn save_checkpoint(
    path: &Path,
    digest: u64,
    entries: &[(FitnessKey, EvalResult)],
) -> std::io::Result<()> {
    persist::write_atomic(path, &checkpoint_to_string(digest, entries))
}

/// Load the checkpoint at `path`, accepting it only when its header digest
/// equals `digest`. Never panics and never fails the caller; see the
/// module docs for the recovery policy.
pub fn load_checkpoint(
    path: &Path,
    digest: u64,
) -> (Vec<(FitnessKey, EvalResult)>, CheckpointStatus) {
    let Some(text) = persist::read_locked(path) else {
        return (Vec::new(), CheckpointStatus::Absent);
    };
    let version = CHECKPOINT_SCHEMA_VERSION..=CHECKPOINT_SCHEMA_VERSION;
    let found = match persist::body(&text, MAGIC, version) {
        Ok(mut b) => match b
            .header_rest
            .next()
            .and_then(zkvmopt_ir::analysis::fingerprint_from_hex)
        {
            Some(d) if d == digest => persist::salvage(b.lines, parse_line),
            Some(_) => return (Vec::new(), CheckpointStatus::Mismatch),
            None => persist::Salvage::bad_header(&text),
        },
        Err(rejected) => rejected,
    };
    let kept = found.kept.len();
    let status = match found.reason {
        None => CheckpointStatus::Loaded { entries: kept },
        Some(reason) => CheckpointStatus::Recovered {
            kept,
            dropped: found.dropped,
            reason,
        },
    };
    (found.kept, status)
}

/// Parse one entry line. `None` drops it: malformed fields, trailing junk
/// (reject rather than misread), or a pass name no longer in the registry
/// (a stale checkpoint after a registry change — the candidate can simply
/// be re-evaluated).
fn parse_line(line: &str) -> Option<(FitnessKey, EvalResult)> {
    let mut parts = line.split_ascii_whitespace();
    let fingerprint = zkvmopt_ir::analysis::fingerprint_from_hex(parts.next()?)?;
    let inline_threshold = parts.next()?.parse().ok()?;
    let unroll_threshold = parts.next()?.parse().ok()?;
    let value = parts.next()?;
    let passes = persist::split_seq(parts.next()?, |p| find_pass(p).map(|e| e.canonical_name()))?;
    if parts.next().is_some() {
        return None;
    }
    let value: EvalResult = match value.strip_prefix('!') {
        Some(token) => Err(FailureClass::from_token(token)?),
        None => Ok(value.parse().ok()?),
    };
    Some((
        FitnessKey {
            fingerprint,
            passes,
            inline_threshold,
            unroll_threshold,
        },
        value,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("zkvmopt-ckpt-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entries() -> Vec<(FitnessKey, EvalResult)> {
        vec![
            (
                FitnessKey {
                    fingerprint: 0xA,
                    passes: vec!["mem2reg", "gvn"],
                    inline_threshold: 225,
                    unroll_threshold: 200,
                },
                Ok(512),
            ),
            (
                FitnessKey {
                    fingerprint: 0xB,
                    passes: vec![],
                    inline_threshold: 0,
                    unroll_threshold: 0,
                },
                Err(FailureClass::Divergence),
            ),
        ]
    }

    #[test]
    fn round_trips_values_and_failures() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("run.ckpt");
        save_checkpoint(&path, 0xD16E57, &entries()).unwrap();
        let (got, status) = load_checkpoint(&path, 0xD16E57);
        assert_eq!(status, CheckpointStatus::Loaded { entries: 2 });
        assert_eq!(got, entries());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_absent_and_digest_mismatch_discards() {
        let dir = tmpdir("digest");
        let path = dir.join("run.ckpt");
        assert_eq!(load_checkpoint(&path, 1).1, CheckpointStatus::Absent);
        save_checkpoint(&path, 0xAAAA, &entries()).unwrap();
        let (got, status) = load_checkpoint(&path, 0xBBBB);
        assert_eq!(status, CheckpointStatus::Mismatch);
        assert!(got.is_empty(), "mismatched checkpoints restore nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_lines_are_dropped_and_the_rest_salvaged() {
        let dir = tmpdir("salvage");
        let path = dir.join("run.ckpt");
        let good = checkpoint_to_string(7, &entries());
        std::fs::write(
            &path,
            format!("{good}000000000000000a 1 2 !nonsense mem2reg\ntorn li"),
        )
        .unwrap();
        let (got, status) = load_checkpoint(&path, 7);
        assert_eq!(got, entries());
        match status {
            CheckpointStatus::Recovered {
                kept: 2,
                dropped: 2,
                ..
            } => {}
            other => panic!("expected recovery, got {other}"),
        }
        // Garbage headers restore nothing but never panic.
        std::fs::write(&path, "\u{0}\u{1}binary junk\n").unwrap();
        let (got, status) = load_checkpoint(&path, 7);
        assert!(got.is_empty());
        assert!(matches!(status, CheckpointStatus::Recovered { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_pass_names_drop_only_their_line() {
        let dir = tmpdir("stale");
        let path = dir.join("run.ckpt");
        let mut text = checkpoint_to_string(3, &entries());
        text.push_str("000000000000000c 1 1 10 a-pass-that-never-existed\n");
        std::fs::write(&path, text).unwrap();
        let (got, status) = load_checkpoint(&path, 3);
        assert_eq!(got, entries(), "stale line dropped, the rest kept");
        assert!(matches!(
            status,
            CheckpointStatus::Recovered {
                kept: 2,
                dropped: 1,
                ..
            }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
