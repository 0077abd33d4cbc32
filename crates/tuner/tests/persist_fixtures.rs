//! The on-disk formats, pinned byte for byte.
//!
//! Both files the tuner persists — the tune database (schema 2, and the
//! schema-1 files it still migrates) and the run checkpoint — are held here
//! as string literals taken from the commit *before* the persistence code
//! was consolidated. Each fixture must load cleanly,
//! serialize back to exactly its own bytes and come off the disk writer
//! unchanged; a copy cut mid-line must salvage to the exact
//! `Recovered { kept, dropped }`. Only the public API is used, so the same
//! file runs unmodified against either side of a persistence refactor: a
//! file written by one loads as `Loaded` under the other.

use std::path::PathBuf;
use zkvmopt_tuner::checkpoint::checkpoint_to_string;
use zkvmopt_tuner::{
    load_checkpoint, save_checkpoint, CheckpointStatus, FailureClass, FitnessKey, LoadStatus,
    ServiceConfig, TuneDb, TuneTarget,
};

/// Schema 2: an entry with features, one with neither features nor baseline
/// nor passes, one with passes but no features.
const TUNEDB_V2: &str = "\
zkvmopt-tunedb 2
000000000000000a 500 1000 225 200 mem2reg,gvn 1,0.5,0.3333333333333333
000000000000000b 900 0 100 50 - -
00000000deadbeef 77 154 0 2047 dce -
";

const TUNEDB_V1: &str = "\
zkvmopt-tunedb 1
000000000000000a 500 225 200 mem2reg,gvn
000000000000000b 900 100 50 -
";

/// What [`TUNEDB_V1`] becomes on its first save.
const TUNEDB_V1_MIGRATED: &str = "\
zkvmopt-tunedb 2
000000000000000a 500 0 225 200 mem2reg,gvn -
000000000000000b 900 0 100 50 - -
";

const CHECKPOINT_DIGEST: u64 = 0xD16E57;

/// A cycle count, a failure on the empty sequence, a failure on a sequence.
const CHECKPOINT: &str = "\
zkvmopt-checkpoint 1 0000000000d16e57
000000000000000a 225 200 512 mem2reg,gvn
000000000000000b 0 0 !divergence -
000000000000000c 1 2 !trap dce
";

const RUN_DIGEST_DEFAULT: u64 = 0x2fdd_4441_f6d4_40d4;
const RUN_DIGEST_PREDICT: u64 = 0xfe6d_f0a3_8360_3395;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zkvmopt-fixture-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `text` without the second half of its last line (a torn write).
fn torn(text: &str) -> String {
    let body = text.trim_end();
    let last = body.rfind('\n').expect("more than a header") + 1;
    body[..last + (body.len() - last) / 2].to_string()
}

fn recovered(status: &LoadStatus) -> (usize, usize) {
    match status {
        LoadStatus::Recovered { kept, dropped, .. } => (*kept, *dropped),
        other => panic!("expected Recovered, got {other:?}"),
    }
}

/// Write `db`'s entries through a fresh database's `save` and return the
/// bytes that land on disk.
fn saved_bytes(db: &TuneDb, path: PathBuf) -> String {
    let mut out = TuneDb::open(&path);
    assert_eq!(*out.load_status(), LoadStatus::Fresh);
    for e in db.iter() {
        out.record(e.clone());
    }
    out.save().unwrap();
    std::fs::read_to_string(&path).unwrap()
}

#[test]
fn tunedb_schema_2_round_trips_byte_for_byte() {
    let dir = tmpdir("tunedb-v2");
    let path = dir.join("tune.db");
    std::fs::write(&path, TUNEDB_V2).unwrap();
    let db = TuneDb::open(&path);
    assert_eq!(*db.load_status(), LoadStatus::Loaded { entries: 3 });
    assert!(!db.is_dirty());
    assert_eq!(db.to_string_pretty(), TUNEDB_V2);
    assert_eq!(
        db.get(0xA).unwrap().features,
        vec![1.0, 0.5, 1.0 / 3.0],
        "shortest-round-trip floats are bit-exact"
    );
    assert_eq!(saved_bytes(&db, dir.join("copy.db")), TUNEDB_V2);

    std::fs::write(&path, torn(TUNEDB_V2)).unwrap();
    let cut = TuneDb::open(&path);
    assert_eq!(recovered(cut.load_status()), (2, 1));
    assert!(cut.is_dirty(), "a save must heal the damaged file");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn tunedb_schema_1_migrates_to_the_pinned_schema_2_bytes() {
    let dir = tmpdir("tunedb-v1");
    let path = dir.join("tune.db");
    std::fs::write(&path, TUNEDB_V1).unwrap();
    let db = TuneDb::open(&path);
    assert_eq!(*db.load_status(), LoadStatus::Loaded { entries: 2 });
    assert!(db.is_dirty(), "a stale schema schedules its rewrite");
    assert_eq!(db.to_string_pretty(), TUNEDB_V1_MIGRATED);
    db.save().unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), TUNEDB_V1_MIGRATED);
    let again = TuneDb::open(&path);
    assert_eq!(*again.load_status(), LoadStatus::Loaded { entries: 2 });
    assert!(!again.is_dirty());

    std::fs::write(&path, torn(TUNEDB_V1)).unwrap();
    assert_eq!(recovered(TuneDb::open(&path).load_status()), (1, 1));
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn checkpoint_round_trips_byte_for_byte() {
    let dir = tmpdir("checkpoint");
    let path = dir.join("run.ckpt");
    std::fs::write(&path, CHECKPOINT).unwrap();
    let (entries, status) = load_checkpoint(&path, CHECKPOINT_DIGEST);
    assert_eq!(status, CheckpointStatus::Loaded { entries: 3 });
    let key =
        |fingerprint, passes: &[&'static str], inline_threshold, unroll_threshold| FitnessKey {
            fingerprint,
            passes: passes.to_vec(),
            inline_threshold,
            unroll_threshold,
        };
    assert_eq!(
        entries,
        vec![
            (key(0xA, &["mem2reg", "gvn"], 225, 200), Ok(512)),
            (key(0xB, &[], 0, 0), Err(FailureClass::Divergence)),
            (key(0xC, &["dce"], 1, 2), Err(FailureClass::Trap)),
        ]
    );
    assert_eq!(
        checkpoint_to_string(CHECKPOINT_DIGEST, &entries),
        CHECKPOINT
    );
    let copy = dir.join("copy.ckpt");
    save_checkpoint(&copy, CHECKPOINT_DIGEST, &entries).unwrap();
    assert_eq!(std::fs::read_to_string(&copy).unwrap(), CHECKPOINT);
    assert_eq!(
        load_checkpoint(&copy, CHECKPOINT_DIGEST + 1).1,
        CheckpointStatus::Mismatch
    );

    std::fs::write(&path, torn(CHECKPOINT)).unwrap();
    let (kept, status) = load_checkpoint(&path, CHECKPOINT_DIGEST);
    assert_eq!(kept, entries[..2]);
    match status {
        CheckpointStatus::Recovered {
            kept: 2,
            dropped: 1,
            ..
        } => {}
        other => panic!("expected Recovered {{ kept: 2, dropped: 1 }}, got {other:?}"),
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// The digest a checkpoint header carries is part of the format: a run
/// resumes only from a file whose digest it recomputes exactly.
#[test]
fn run_digest_is_pinned() {
    let targets = [TuneTarget::new("a", 0xA), TuneTarget::new("b", 0xB0B)];
    let cfg = ServiceConfig::default();
    assert_eq!(cfg.run_digest(&targets), RUN_DIGEST_DEFAULT);
    let predicting = ServiceConfig {
        predict: true,
        seed: 7,
        ..cfg
    };
    assert_eq!(predicting.run_digest(&targets[..1]), RUN_DIGEST_PREDICT);
}
