//! The persistent tune database: best-known pass sequences, on disk.
//!
//! Autotuning-as-a-service re-sees the same programs constantly (repeated
//! studies, repeated user submissions), and a genetic search costs thousands
//! of fitness evaluations per program. [`TuneDb`] amortizes that: a small
//! on-disk, versioned store keyed by the program's **stable IR fingerprint**
//! (`zkvmopt_ir::stable_module_fingerprint`), mapping fingerprint → the
//! best-known canonical pass sequence, its tuned thresholds, and the cycle
//! count it measured. A service run with a warm database skips the search
//! for every already-known program outright — zero fitness evaluations —
//! and cold programs' results are recorded for the next run.
//!
//! ## File format (schema version 2)
//!
//! A line-oriented UTF-8 text file, one header plus one line per program:
//!
//! ```text
//! zkvmopt-tunedb 2
//! <fp:16-hex> <cycles> <baseline> <inline> <unroll> <pass,pass,...|-> <f,f,...|->
//! ```
//!
//! The sequence field is the comma-joined canonical pass list, or `-` for
//! the empty sequence (a program whose best-known pipeline is "run nothing").
//! Schema 2 adds two prediction fields to each entry: `<baseline>` — the
//! program's `-O3` reference cycle count (`0` = unknown) — and the trailing
//! comma-joined [`FeatureVector`](zkvmopt_ir::FeatureVector) (`-` = not
//! extracted), both consumed by [`crate::predict::Predictor`].
//!
//! **Migration:** schema-1 files (no prediction fields) load transparently —
//! every entry comes up with `baseline_cycles: 0` and empty `features`, and
//! the database is marked dirty so the next [`TuneDb::save`] rewrites it in
//! the v2 format. Versions *newer* than 2 are rejected wholesale, as before.
//!
//! ## Failure policy
//!
//! Loading **never panics** and never fails the caller:
//! - a missing file is a fresh, empty database;
//! - a bad header or a schema version newer than supported rejects the whole
//!   file (the format may have changed incompatibly) and starts empty;
//! - a corrupt *line* (truncated write, hand edit) is logged and dropped
//!   while every well-formed line is kept.
//!
//! The outcome is reported in [`TuneDb::load_status`] so tests (and
//! operators) can tell recovery from a clean load. Reads and writes go
//! through the crate's one persistence layer (`persist`: advisory lock,
//! temp file + rename), so a crash mid-save can truncate at most the temp
//! file, never the database itself — and [`TuneDb::save`] skips the write
//! entirely when nothing changed since load, so a caller saving after every
//! run does not rewrite an unchanged file each time.
//! Refreshing stored entries after a cost-model change follows the
//! golden-snapshot workflow: delete the file (or run with `warm_start` off)
//! and let the next service run re-record — the `ZKVMOPT_BLESS`-style
//! "re-measure and overwrite" flow.

use crate::persist;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Current on-disk schema version. Bump on any incompatible format change.
pub const SCHEMA_VERSION: u32 = 2;

const MAGIC: &str = "zkvmopt-tunedb";

/// One stored result: the best-known tuning outcome for one program.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneDbEntry {
    /// Stable fingerprint of the program's lowered base module.
    pub fingerprint: u64,
    /// Best-known canonical pass sequence.
    pub passes: Vec<String>,
    /// Tuned inline threshold.
    pub inline_threshold: usize,
    /// Tuned unroll threshold.
    pub unroll_threshold: usize,
    /// Measured cycle count under that pipeline.
    pub cycles: u64,
    /// The program's `-O3` reference cycle count (`0` = unknown; entries
    /// migrated from schema 1 have no baseline until re-recorded).
    pub baseline_cycles: u64,
    /// The program's extracted feature vector (empty = not extracted). The
    /// predictor only consumes entries whose length matches the current
    /// [`zkvmopt_ir::FEATURE_DIM`], so a feature-set change degrades stale
    /// entries to warm-start-only instead of corrupting predictions.
    pub features: Vec<f64>,
}

/// How the last [`TuneDb::open`] went.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadStatus {
    /// No file existed: fresh, empty database.
    Fresh,
    /// Every line parsed.
    Loaded {
        /// Entries read.
        entries: usize,
    },
    /// The file was rejected or partially salvaged; searching rebuilds it.
    Recovered {
        /// Well-formed entries kept.
        kept: usize,
        /// Malformed lines dropped.
        dropped: usize,
        /// Human-readable cause (logged to stderr at load time).
        reason: String,
    },
}

impl fmt::Display for LoadStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadStatus::Fresh => write!(f, "fresh (no file)"),
            LoadStatus::Loaded { entries } => write!(f, "loaded {entries} entries"),
            LoadStatus::Recovered {
                kept,
                dropped,
                reason,
            } => write!(f, "recovered (kept {kept}, dropped {dropped}): {reason}"),
        }
    }
}

/// The persistent fingerprint → best-sequence store.
#[derive(Debug)]
pub struct TuneDb {
    path: PathBuf,
    entries: BTreeMap<u64, TuneDbEntry>,
    load_status: LoadStatus,
    /// Whether in-memory state diverged from the backing file since load /
    /// last save. `Cell` so [`TuneDb::save`] can clear it through `&self`.
    dirty: Cell<bool>,
}

impl TuneDb {
    /// Open (or create in memory) the database at `path`. Never fails and
    /// never panics: see the module docs for the recovery policy.
    pub fn open(path: impl Into<PathBuf>) -> TuneDb {
        let path = path.into();
        let Some(text) = persist::read_locked(&path) else {
            return TuneDb {
                path,
                ..TuneDb::in_memory()
            };
        };
        let (found, stale_schema) = match persist::body(&text, MAGIC, 1..=SCHEMA_VERSION) {
            Ok(b) => (
                persist::salvage(b.lines, |line| parse_line(b.version, line)),
                b.version < SCHEMA_VERSION,
            ),
            Err(rejected) => (rejected, false),
        };
        let entries: BTreeMap<u64, TuneDbEntry> =
            found.kept.into_iter().map(|e| (e.fingerprint, e)).collect();
        // A save rewrites a migrated v1 file (clean data in a stale format)
        // as schema 2, and heals a damaged file, even if nothing is
        // recorded afterwards.
        let dirty = stale_schema || found.reason.is_some();
        let load_status = match found.reason {
            None => LoadStatus::Loaded {
                entries: entries.len(),
            },
            Some(reason) => {
                eprintln!(
                    "tuner: tune database {} is damaged ({reason}); \
                     kept {} entries, dropped {} — rebuilding as we search",
                    path.display(),
                    entries.len(),
                    found.dropped,
                );
                LoadStatus::Recovered {
                    kept: entries.len(),
                    dropped: found.dropped,
                    reason,
                }
            }
        };
        TuneDb {
            path,
            entries,
            load_status,
            dirty: Cell::new(dirty),
        }
    }

    /// An in-memory database never backed by a file (tests, dry runs);
    /// [`TuneDb::save`] writes to the given path only when one was opened.
    pub fn in_memory() -> TuneDb {
        TuneDb {
            path: PathBuf::new(),
            entries: BTreeMap::new(),
            load_status: LoadStatus::Fresh,
            dirty: Cell::new(false),
        }
    }

    /// How the backing file loaded.
    pub fn load_status(&self) -> &LoadStatus {
        &self.load_status
    }

    /// The backing file path (empty for [`TuneDb::in_memory`]).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of stored programs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stored best for `fingerprint`, if any.
    pub fn get(&self, fingerprint: u64) -> Option<&TuneDbEntry> {
        self.entries.get(&fingerprint)
    }

    /// All entries in fingerprint order.
    pub fn iter(&self) -> impl Iterator<Item = &TuneDbEntry> {
        self.entries.values()
    }

    /// Whether in-memory state differs from the backing file ([`TuneDb::save`]
    /// is a no-op while this is `false`).
    pub fn is_dirty(&self) -> bool {
        self.dirty.get()
    }

    /// Record `entry`, keeping whichever of (stored, new) measured fewer
    /// cycles — ties keep the stored entry, so repeated equal-seed runs are
    /// idempotent. A kept stored entry that predates schema 2 (no features)
    /// is backfilled with the new entry's features and baseline, so a
    /// migrated database heals into a predictable one as programs are
    /// re-seen. Returns `true` when the database changed.
    pub fn record(&mut self, entry: TuneDbEntry) -> bool {
        match self.entries.get_mut(&entry.fingerprint) {
            Some(old) if old.cycles <= entry.cycles => {
                let mut changed = false;
                if old.features.is_empty() && !entry.features.is_empty() {
                    old.features = entry.features;
                    changed = true;
                }
                if old.baseline_cycles == 0 && entry.baseline_cycles != 0 {
                    old.baseline_cycles = entry.baseline_cycles;
                    changed = true;
                }
                if changed {
                    self.dirty.set(true);
                }
                changed
            }
            _ => {
                self.entries.insert(entry.fingerprint, entry);
                self.dirty.set(true);
                true
            }
        }
    }

    /// Remove the entry for `fingerprint` (the per-program bless/refresh
    /// path: drop, re-search, re-record). Returns the removed entry.
    pub fn remove(&mut self, fingerprint: u64) -> Option<TuneDbEntry> {
        let removed = self.entries.remove(&fingerprint);
        if removed.is_some() {
            self.dirty.set(true);
        }
        removed
    }

    /// Serialize to the schema-versioned text format. Rust's
    /// shortest-round-trip `f64` formatting keeps the feature field
    /// byte-stable across processes for bit-equal features.
    pub fn to_string_pretty(&self) -> String {
        let mut out = format!("{MAGIC} {SCHEMA_VERSION}\n");
        for e in self.entries.values() {
            out.push_str(&format!(
                "{} {} {} {} {} {} {}\n",
                zkvmopt_ir::analysis::fingerprint_to_hex(e.fingerprint),
                e.cycles,
                e.baseline_cycles,
                e.inline_threshold,
                e.unroll_threshold,
                persist::join_seq(&e.passes),
                persist::join_seq(&e.features),
            ));
        }
        out
    }

    /// Atomically persist to the opened path (advisory lock, temp file,
    /// rename). A [`TuneDb::in_memory`] database saves nowhere and returns
    /// `Ok`, and a clean database (nothing changed since load or the last
    /// save) skips the write+rename entirely.
    ///
    /// # Errors
    /// Returns the underlying I/O error when the file cannot be written.
    pub fn save(&self) -> std::io::Result<()> {
        if self.path.as_os_str().is_empty() || !self.dirty.get() {
            return Ok(());
        }
        persist::write_atomic(&self.path, &self.to_string_pretty())?;
        self.dirty.set(false);
        Ok(())
    }
}

/// Parse one entry line of schema `version`. Schema 1 has neither the
/// baseline nor the feature field; `None` rejects the line — trailing junk
/// included (reject rather than misread), and any non-finite feature
/// (NaN/∞ would poison k-NN distances).
fn parse_line(version: u32, line: &str) -> Option<TuneDbEntry> {
    let v2 = version >= 2;
    let mut parts = line.split_ascii_whitespace();
    let fingerprint = zkvmopt_ir::analysis::fingerprint_from_hex(parts.next()?)?;
    let cycles = parts.next()?.parse().ok()?;
    let baseline_cycles = if v2 { parts.next()?.parse().ok()? } else { 0 };
    let inline_threshold = parts.next()?.parse().ok()?;
    let unroll_threshold = parts.next()?.parse().ok()?;
    let passes = persist::split_seq(parts.next()?, |p| (!p.is_empty()).then(|| p.to_string()))?;
    let features = if v2 {
        persist::split_seq(parts.next()?, |f| {
            f.parse::<f64>().ok().filter(|v| v.is_finite())
        })?
    } else {
        Vec::new()
    };
    if parts.next().is_some() {
        return None;
    }
    Some(TuneDbEntry {
        fingerprint,
        passes,
        inline_threshold,
        unroll_threshold,
        cycles,
        baseline_cycles,
        features,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(fp: u64, cycles: u64, passes: &[&str]) -> TuneDbEntry {
        TuneDbEntry {
            fingerprint: fp,
            passes: passes.iter().map(|s| s.to_string()).collect(),
            inline_threshold: 225,
            unroll_threshold: 200,
            cycles,
            baseline_cycles: cycles * 2,
            features: vec![1.0, 0.5, 1.0 / 3.0],
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("zkvmopt-tunedb-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trips_through_disk() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("tune.db");
        let mut db = TuneDb::open(&path);
        assert_eq!(*db.load_status(), LoadStatus::Fresh);
        assert!(db.record(entry(0xA, 500, &["mem2reg", "gvn"])));
        assert!(db.record(entry(0xB, 900, &[])));
        db.save().unwrap();

        let re = TuneDb::open(&path);
        assert_eq!(*re.load_status(), LoadStatus::Loaded { entries: 2 });
        assert_eq!(re.get(0xA), db.get(0xA));
        assert_eq!(re.get(0xB), db.get(0xB));
        assert_eq!(re.get(0xB).unwrap().passes, Vec::<String>::new());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn record_keeps_the_best_and_is_idempotent() {
        let mut db = TuneDb::in_memory();
        assert!(db.record(entry(1, 1000, &["dce"])));
        assert!(!db.record(entry(1, 1000, &["gvn"])), "tie keeps stored");
        assert_eq!(db.get(1).unwrap().passes, vec!["dce"]);
        assert!(!db.record(entry(1, 2000, &["gvn"])), "worse is rejected");
        assert!(db.record(entry(1, 900, &["gvn"])), "better replaces");
        assert_eq!(db.get(1).unwrap().cycles, 900);
        assert!(db.remove(1).is_some());
        assert!(db.is_empty());
    }

    #[test]
    fn schema_version_mismatch_rejects_the_file() {
        let dir = tmpdir("version");
        let path = dir.join("tune.db");
        std::fs::write(
            &path,
            format!(
                "{MAGIC} {}\n{} 500 225 200 mem2reg\n",
                SCHEMA_VERSION + 1,
                zkvmopt_ir::analysis::fingerprint_to_hex(0xA)
            ),
        )
        .unwrap();
        let db = TuneDb::open(&path);
        assert!(db.is_empty(), "future-versioned entries must not load");
        match db.load_status() {
            LoadStatus::Recovered {
                kept: 0,
                dropped: 1,
                reason,
            } => {
                assert!(reason.contains("schema version"), "{reason}");
            }
            other => panic!("expected recovery, got {other:?}"),
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_lines_are_dropped_and_valid_lines_salvaged() {
        let dir = tmpdir("corrupt");
        let path = dir.join("tune.db");
        let good = format!(
            "{} 500 1000 225 200 mem2reg,gvn 1,0.5",
            zkvmopt_ir::analysis::fingerprint_to_hex(0xA)
        );
        // A truncated second record (crash mid-write) plus trailing junk.
        std::fs::write(
            &path,
            format!("{MAGIC} {SCHEMA_VERSION}\n{good}\n00abcdef012 77\nnot a line at all\n"),
        )
        .unwrap();
        let db = TuneDb::open(&path);
        assert_eq!(db.len(), 1, "the well-formed line survives");
        assert_eq!(db.get(0xA).unwrap().passes, vec!["mem2reg", "gvn"]);
        match db.load_status() {
            LoadStatus::Recovered {
                kept: 1,
                dropped: 2,
                ..
            } => {}
            other => panic!("expected recovery, got {other:?}"),
        }
        // Saving heals the file.
        db.save().unwrap();
        let healed = TuneDb::open(&path);
        assert_eq!(*healed.load_status(), LoadStatus::Loaded { entries: 1 });
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn garbage_and_empty_files_recover_to_empty() {
        let dir = tmpdir("garbage");
        for (name, content) in [
            ("binary", "\u{0}\u{1}\u{2}garbage"),
            ("empty", ""),
            ("wrong-magic", "sqlite3 1\n"),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, content).unwrap();
            let db = TuneDb::open(&path);
            assert!(db.is_empty(), "{name}");
            assert!(
                matches!(db.load_status(), LoadStatus::Recovered { .. }),
                "{name}: {:?}",
                db.load_status()
            );
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn save_takes_the_advisory_lock_and_leaves_the_sidecar() {
        let dir = tmpdir("locking");
        let path = dir.join("tune.db");
        let mut db = TuneDb::open(&path);
        db.record(entry(0xC, 300, &["dce"]));
        db.save().unwrap();
        let sidecar = crate::lock::lock_path_for(&path);
        assert!(sidecar.exists(), "save must have created the lock sidecar");
        // A stale sidecar (left by a dead process) never blocks reopening:
        // flock dies with its descriptor.
        let re = TuneDb::open(&path);
        assert_eq!(re.len(), 1);
        // While *we* hold the lock, save from another thread still
        // completes once we release — it blocks rather than corrupts.
        let held = crate::lock::FileLock::acquire(&path).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let t = {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut other = TuneDb::in_memory();
                other.record(entry(0xD, 400, &["gvn"]));
                let other = TuneDb {
                    path,
                    entries: other.entries,
                    load_status: LoadStatus::Fresh,
                    dirty: Cell::new(true),
                };
                other.save().unwrap();
                tx.send(()).unwrap();
            })
        };
        assert!(
            rx.recv_timeout(std::time::Duration::from_millis(200))
                .is_err(),
            "save must wait for the lock holder"
        );
        drop(held);
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("save completes after release");
        t.join().unwrap();
        assert_eq!(TuneDb::open(&path).get(0xD).unwrap().cycles, 400);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Two databases sharing a stem (`study.risc0`, `study.sp1`) hold
    /// *different* locks, so nothing serializes their saves: each must
    /// publish through its own temp file. With a shared `study.tmp` one
    /// saver renames the other's bytes into place, or finds its temp file
    /// already renamed away.
    #[test]
    fn same_stem_databases_save_concurrently_without_crossing() {
        let dir = tmpdir("same-stem");
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for (ext, fp) in [("risc0", 0xA0u64), ("sp1", 0xB0)] {
                let (dir, start) = (&dir, &start);
                s.spawn(move || {
                    let path = dir.join(format!("study.{ext}"));
                    let mut db = TuneDb::open(&path);
                    start.wait();
                    for round in 0..200u64 {
                        db.record(entry(fp + round % 8, 10_000 - round, &[ext]));
                        db.save().expect("own temp file, own rename");
                        let on_disk = TuneDb::open(&path);
                        assert_eq!(
                            on_disk.to_string_pretty(),
                            db.to_string_pretty(),
                            "study.{ext} round {round}: not this database's bytes"
                        );
                    }
                });
            }
        });
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn trailing_junk_on_a_line_is_rejected() {
        let hex = zkvmopt_ir::analysis::fingerprint_to_hex(0xA);
        assert!(parse_line(2, &format!("{hex} 500 1000 225 200 mem2reg 1,2.5")).is_some());
        assert!(parse_line(2, &format!("{hex} 500 1000 225 200 mem2reg 1,2.5 extra")).is_none());
        assert!(parse_line(2, &format!("{hex} 500 1000 225 200 mem2reg,,gvn 1")).is_none());
        assert!(parse_line(2, &format!("{hex} 500 1000 225 200 - -")).is_some());
        assert!(parse_line(2, &format!("{hex} 500 1000 225 200 mem2reg nan")).is_none());
        assert!(parse_line(2, &format!("{hex} 500 1000 225 200 mem2reg inf,1")).is_none());
        assert!(
            parse_line(2, &format!("{hex} 500 225 200 mem2reg")).is_none(),
            "v1 arity"
        );
        assert!(parse_line(1, &format!("{hex} 500 225 200 mem2reg")).is_some());
        assert!(parse_line(1, &format!("{hex} 500 225 200 mem2reg extra")).is_none());
    }

    /// The v1 → v2 migration: a schema-1 file loads cleanly (entries carry
    /// no features / baseline), comes up dirty, and the first save rewrites
    /// it as schema 2 — after which a reload is clean and bit-stable.
    #[test]
    fn v1_files_migrate_to_v2_on_load_and_save() {
        let dir = tmpdir("migrate");
        let path = dir.join("tune.db");
        let hex_a = zkvmopt_ir::analysis::fingerprint_to_hex(0xA);
        let hex_b = zkvmopt_ir::analysis::fingerprint_to_hex(0xB);
        std::fs::write(
            &path,
            format!("{MAGIC} 1\n{hex_a} 500 225 200 mem2reg,gvn\n{hex_b} 900 100 50 -\n"),
        )
        .unwrap();
        let db = TuneDb::open(&path);
        assert_eq!(*db.load_status(), LoadStatus::Loaded { entries: 2 });
        assert!(db.is_dirty(), "stale format must schedule a rewrite");
        let a = db.get(0xA).unwrap();
        assert_eq!(a.passes, vec!["mem2reg", "gvn"]);
        assert_eq!(a.cycles, 500);
        assert_eq!(a.baseline_cycles, 0, "v1 has no baseline");
        assert!(a.features.is_empty(), "v1 has no features");
        db.save().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.starts_with(&format!("{MAGIC} 2\n")),
            "save upgrades the schema: {text:?}"
        );
        let re = TuneDb::open(&path);
        assert!(!re.is_dirty());
        assert_eq!(re.get(0xA), db.get(0xA));
        assert_eq!(re.get(0xB), db.get(0xB));

        // Re-recording a migrated entry with an equal-or-worse result still
        // backfills the prediction fields.
        let mut re = re;
        assert!(re.record(entry(0xA, 500, &["mem2reg", "gvn"])));
        let healed = re.get(0xA).unwrap();
        assert_eq!(healed.cycles, 500);
        assert!(!healed.features.is_empty());
        assert_eq!(healed.baseline_cycles, 1000);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Corrupt v2 lines salvage exactly like corrupt v1 lines always did:
    /// well-formed lines survive, the file heals on save.
    #[test]
    fn corrupt_v2_feature_fields_are_dropped_not_misread() {
        let dir = tmpdir("corrupt-v2");
        let path = dir.join("tune.db");
        let good = format!(
            "{} 500 1000 225 200 mem2reg 1,2,3",
            zkvmopt_ir::analysis::fingerprint_to_hex(0xA)
        );
        let bad_feats = format!(
            "{} 600 1200 225 200 gvn 1,junk,3",
            zkvmopt_ir::analysis::fingerprint_to_hex(0xB)
        );
        std::fs::write(
            &path,
            format!("{MAGIC} {SCHEMA_VERSION}\n{good}\n{bad_feats}\n"),
        )
        .unwrap();
        let db = TuneDb::open(&path);
        assert_eq!(db.len(), 1);
        assert_eq!(db.get(0xA).unwrap().features, vec![1.0, 2.0, 3.0]);
        assert!(matches!(
            db.load_status(),
            LoadStatus::Recovered {
                kept: 1,
                dropped: 1,
                ..
            }
        ));
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Dirty tracking: save is a no-op until something changes, each change
    /// re-arms it, and a successful save disarms it again.
    #[test]
    fn save_skips_the_write_when_nothing_changed() {
        let dir = tmpdir("dirty");
        let path = dir.join("tune.db");
        let mut db = TuneDb::open(&path);
        assert!(!db.is_dirty());
        db.save().unwrap();
        assert!(!path.exists(), "clean fresh db must not touch the disk");

        db.record(entry(0xA, 500, &["dce"]));
        assert!(db.is_dirty());
        db.save().unwrap();
        assert!(!db.is_dirty());
        let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();

        // No change → no rewrite (the rename would bump the inode/mtime).
        std::thread::sleep(std::time::Duration::from_millis(20));
        db.save().unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().modified().unwrap(),
            mtime,
            "clean save must skip the write+rename"
        );

        // A worse record changes nothing: still clean.
        assert!(!db.record(entry(0xA, 900, &["gvn"])));
        assert!(!db.is_dirty());
        // Removal dirties.
        db.remove(0xA);
        assert!(db.is_dirty());
        std::fs::remove_dir_all(dir).unwrap();
    }
}
