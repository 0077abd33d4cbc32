//! Advisory file locking for the persistent tune state.
//!
//! Two service runs pointed at the same tune database (or checkpoint) must
//! not interleave their temp-file + rename writes: both renames succeed,
//! but the survivor silently drops the loser's entries. [`FileLock`] wraps
//! the OS advisory lock (`std::fs::File::lock`, stable since Rust 1.89) on
//! a `<path>.lock` sidecar file:
//!
//! - the lock is **advisory** — it coordinates cooperating zkvmopt
//!   processes, it does not stop an unrelated program from writing;
//! - it is released automatically when the process exits *or dies* (the
//!   OS drops the lock with the file descriptor), so a killed service run
//!   never wedges the next one — the property the kill/resume chaos test
//!   relies on;
//! - the sidecar file itself is left in place (removing it would race
//!   another process that just opened it).

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};

/// An exclusive advisory lock on `<path>.lock`, held until drop.
#[derive(Debug)]
pub struct FileLock {
    file: File,
    lock_path: PathBuf,
}

/// `path` with `suffix` appended to its full file name (`tune.db` →
/// `tune.db.lock`): files that differ only in extension keep distinct
/// sidecars.
pub(crate) fn sidecar_path(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// The sidecar lock path guarding `path`.
pub fn lock_path_for(path: &Path) -> PathBuf {
    sidecar_path(path, ".lock")
}

impl FileLock {
    /// Block until the exclusive lock on `<path>.lock` is acquired.
    ///
    /// # Errors
    /// Returns the underlying I/O error when the sidecar cannot be created
    /// or the lock operation itself fails.
    pub fn acquire(path: &Path) -> io::Result<FileLock> {
        let lock_path = lock_path_for(path);
        let file = open_sidecar(&lock_path)?;
        file.lock()?;
        Ok(FileLock { file, lock_path })
    }

    /// The sidecar file this lock holds.
    pub fn path(&self) -> &Path {
        &self.lock_path
    }
}

impl Drop for FileLock {
    fn drop(&mut self) {
        // Best-effort: the OS releases the lock with the descriptor anyway.
        let _ = self.file.unlock();
    }
}

fn open_sidecar(lock_path: &Path) -> io::Result<File> {
    if let Some(dir) = lock_path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    File::options()
        .create(true)
        .truncate(false)
        .write(true)
        .open(lock_path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("zkvmopt-lock-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn blocking_acquire_waits_for_the_holder() {
        let dir = tmpdir("blocking");
        let db = dir.join("tune.db");
        let held = FileLock::acquire(&db).expect("first lock");
        assert!(held.path().ends_with("tune.db.lock"));
        let (tx, rx) = std::sync::mpsc::channel();
        let db2 = db.clone();
        let t = std::thread::spawn(move || {
            let l = FileLock::acquire(&db2).expect("eventually acquires");
            tx.send(()).unwrap();
            drop(l);
        });
        assert!(
            rx.recv_timeout(std::time::Duration::from_millis(100))
                .is_err(),
            "waiter must not acquire while we hold the lock"
        );
        drop(held);
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("waiter acquires after release");
        t.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
