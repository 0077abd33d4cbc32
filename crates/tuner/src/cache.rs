//! The search's two cache layers: the fitness cache, keyed by candidate,
//! and the post-pass result memo, keyed by the IR the candidate's passes
//! produced. Each is one map behind one mutex, and both live exactly as
//! long as one [`crate::tune_suite`] call.
//!
//! ## The fitness cache
//!
//! Genetic search re-visits candidates constantly (crossover reassembles
//! parents, mutation undoes itself, no-op passes pad otherwise-equal
//! sequences), and every fitness evaluation re-optimizes and re-runs a whole
//! program. This is the memo that makes a revisit free: one map shared by
//! **every island of every workload** in a service run. Keys carry the
//! workload's stable IR fingerprint and the candidate's *canonical*
//! sequence, so one map serves the whole suite. The lock is held only for a
//! lookup or an insert, never while a fitness call runs. Islands searching
//! the same workload (and duplicate programs across
//! workloads with equal fingerprints) therefore never pay for the same
//! candidate twice.
//!
//! Values are classified [`EvalResult`]s: a failing candidate caches *why*
//! it failed, which is what the quarantine and checkpoint files are derived
//! from.
//!
//! Concurrency contract: fitness is deterministic (cycle counts are), so a
//! benign race — two threads missing on the same key and both evaluating —
//! computes the same value twice and the second insert is a no-op. Search
//! *results* can never depend on scheduling; only the service's per-island
//! hit and fitness-call counters can wobble by the handful of racy
//! duplicates, which is why it reports them as throughput statistics, not
//! as part of the deterministic outcome.
//!
//! ## The post-pass memo
//!
//! Most offspring that miss the fitness cache still collapse, once their
//! passes have run, to IR a sibling already produced. [`PostPassMemo`]
//! lets the evaluator run its back half (codegen and execution) once per
//! distinct post-pass module: it maps an evaluator-chosen
//! `(context, post-pass fingerprint)` pair to the back half's result. The
//! evaluator sits behind the `Fn(usize, &Candidate)` fitness contract, so
//! the memo does not travel as an argument: each fitness call runs with its
//! search's memo as the calling thread's current one, which
//! [`current_postpass_memo`] returns. Outside a search there is none, and an
//! evaluator that finds none skips the lookup (and the fingerprint) entirely.
//!
//! The memo is owned by one search, never by an evaluator, so no search
//! (and no benchmark round) starts warm from another's work. Values are
//! stored type-erased, because the evaluator's result type lives in a crate
//! that depends on this one. The same contract as the fitness cache holds:
//! values are pure functions of their keys, the first insert wins, and debug
//! builds assert that a racing duplicate computed an equal value.

use crate::fault::EvalResult;
use crate::{canonicalize_sequence, lock_unpoisoned, Candidate};
use std::any::Any;
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use zkvmopt_ir::hash::FxHashMap;

/// Cache key: one candidate on one program. Ordered field by field
/// (fingerprint first) — the order snapshots, checkpoints and the
/// quarantine are written in.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FitnessKey {
    /// Stable fingerprint of the target's lowered base module
    /// (`zkvmopt_ir::stable_module_fingerprint`).
    pub fingerprint: u64,
    /// The candidate's **canonical** pass sequence
    /// ([`crate::canonicalize_sequence`]).
    pub passes: Vec<&'static str>,
    /// Inline threshold.
    pub inline_threshold: usize,
    /// Unroll threshold.
    pub unroll_threshold: usize,
}

impl FitnessKey {
    /// The key `c` is cached under on the program with this `fingerprint`:
    /// candidates equal modulo [`canonicalize_sequence`] share one entry.
    pub(crate) fn of(fingerprint: u64, c: &Candidate) -> FitnessKey {
        FitnessKey {
            fingerprint,
            passes: canonicalize_sequence(&c.passes),
            inline_threshold: c.inline_threshold,
            unroll_threshold: c.unroll_threshold,
        }
    }
}

/// The fitness cache's map. The cache is snapshotted into checkpoint files
/// and preloaded from them, and it is off the compile path, so it keeps
/// std's hasher.
#[expect(
    clippy::disallowed_types,
    reason = "persisted tuner structure, off the compile path"
)]
type FitnessMap = std::collections::HashMap<FitnessKey, EvalResult>;

/// A concurrent map from [`FitnessKey`] to its classified evaluation
/// outcome.
#[derive(Debug, Default)]
pub struct FitnessCache {
    map: Mutex<FitnessMap>,
}

impl FitnessCache {
    /// An empty cache.
    pub fn new() -> FitnessCache {
        FitnessCache::default()
    }

    /// Look `key` up.
    pub fn get(&self, key: &FitnessKey) -> Option<EvalResult> {
        lock_unpoisoned(&self.map).get(key).copied()
    }

    /// Record `value` for `key`. First write wins on the benign
    /// evaluate-twice race (both writers hold the same deterministic value).
    pub fn insert(&self, key: FitnessKey, value: EvalResult) {
        lock_unpoisoned(&self.map).entry(key).or_insert(value);
    }

    /// Preload entries (a resumed checkpoint). First write wins, as with
    /// [`Self::insert`]. Returns the number of entries actually added.
    pub fn preload(&self, entries: impl IntoIterator<Item = (FitnessKey, EvalResult)>) -> usize {
        let mut map = lock_unpoisoned(&self.map);
        let mut added = 0usize;
        for (key, value) in entries {
            if let Entry::Vacant(e) = map.entry(key) {
                e.insert(value);
                added += 1;
            }
        }
        added
    }

    /// A point-in-time copy of every cached entry, in a deterministic
    /// order (sorted by key). Because the cache is insert-only and every
    /// value is a pure function of its key, *any* snapshot — even one taken
    /// while workers are mid-generation — is a valid checkpoint: resuming
    /// from it replays the search with those evaluations pre-answered.
    pub fn snapshot(&self) -> Vec<(FitnessKey, EvalResult)> {
        let mut out: Vec<(FitnessKey, EvalResult)> = lock_unpoisoned(&self.map)
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        out.sort_by(|(a, _), (b, _)| a.cmp(b));
        out
    }

    /// Cached entries.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.map).len()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One search's post-pass result memo (see the module docs): a map from
/// `(context, post-pass fingerprint)` to a type-erased value, plus the
/// number of lookups it answered.
#[derive(Debug)]
pub struct PostPassMemo {
    map: Mutex<FxHashMap<(u64, u64), Box<dyn Any + Send + Sync>>>,
    hits: AtomicUsize,
}

impl PostPassMemo {
    /// An empty memo, for one search.
    pub(crate) fn new() -> PostPassMemo {
        PostPassMemo {
            map: Mutex::default(),
            hits: AtomicUsize::new(0),
        }
    }

    /// The value for `(context, fingerprint)`: the stored one, or `compute`'s,
    /// which is then stored. No lock is held while `compute` runs, so two
    /// threads may both compute a key; the first insert wins.
    pub fn get_or_compute<T>(
        &self,
        context: u64,
        fingerprint: u64,
        compute: impl FnOnce() -> T,
    ) -> T
    where
        T: Any + Clone + PartialEq + Send + Sync,
    {
        let key = (context, fingerprint);
        // Nothing panics while the map is held, except the debug assert
        // below, after which the map is still consistent.
        let lock = || self.map.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(v) = lock().get(&key).and_then(|v| v.downcast_ref::<T>()) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v.clone();
        }
        let value = compute();
        match lock().entry(key) {
            Entry::Vacant(e) => {
                e.insert(Box::new(value.clone()));
            }
            Entry::Occupied(e) => debug_assert!(
                e.get()
                    .downcast_ref::<T>()
                    .is_none_or(|first| *first == value),
                "post-pass memo: a racing evaluation of {key:x?} disagreed"
            ),
        }
        value
    }

    /// Lookups answered from the memo so far.
    pub(crate) fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }
}

thread_local! {
    /// The memo of the search whose fitness call this thread is running.
    static CURRENT: RefCell<Option<Arc<PostPassMemo>>> = const { RefCell::new(None) };
}

/// The post-pass memo of the [`crate::tune_suite`] search whose fitness call
/// the calling thread is running, or `None` outside every search.
pub fn current_postpass_memo() -> Option<Arc<PostPassMemo>> {
    CURRENT.with_borrow(Option::clone)
}

/// Run `f` with `memo` as this thread's current post-pass memo; the previous
/// one is restored when `f` returns or unwinds.
pub(crate) fn with_postpass_memo<R>(memo: &Arc<PostPassMemo>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<PostPassMemo>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.set(self.0.take());
        }
    }
    let _restore = Restore(CURRENT.replace(Some(Arc::clone(memo))));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FailureClass;

    fn key(fp: u64, passes: &[&'static str], inline: usize, unroll: usize) -> FitnessKey {
        FitnessKey {
            fingerprint: fp,
            passes: passes.to_vec(),
            inline_threshold: inline,
            unroll_threshold: unroll,
        }
    }

    #[test]
    fn get_insert_round_trip() {
        let c = FitnessCache::new();
        let k = key(7, &["mem2reg", "gvn"], 225, 200);
        assert_eq!(c.get(&k), None);
        c.insert(k.clone(), Ok(1234));
        assert_eq!(c.get(&k), Some(Ok(1234)));
        // Failing candidates cache too, with their class: failure is a
        // result.
        let bad = key(7, &["licm"], 0, 0);
        assert_eq!(c.get(&bad), None);
        c.insert(bad.clone(), Err(FailureClass::Divergence));
        assert_eq!(c.get(&bad), Some(Err(FailureClass::Divergence)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn keys_distinguish_workload_sequence_and_thresholds() {
        let c = FitnessCache::new();
        c.insert(key(1, &["dce"], 10, 20), Ok(1));
        assert_eq!(c.get(&key(2, &["dce"], 10, 20)), None, "fingerprint");
        assert_eq!(c.get(&key(1, &["gvn"], 10, 20)), None, "sequence");
        assert_eq!(c.get(&key(1, &["dce"], 11, 20)), None, "inline");
        assert_eq!(c.get(&key(1, &["dce"], 10, 21)), None, "unroll");
        assert_eq!(c.get(&key(1, &["dce"], 10, 20)), Some(Ok(1)));
    }

    #[test]
    fn first_insert_wins_and_concurrent_use_is_safe() {
        let c = FitnessCache::new();
        let k = key(3, &["sccp"], 1, 2);
        c.insert(k.clone(), Ok(10));
        c.insert(k.clone(), Ok(99)); // racy duplicate: ignored
        assert_eq!(c.get(&k), Some(Ok(10)));

        let shared = FitnessCache::new();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let shared = &shared;
                s.spawn(move || {
                    for i in 0..256u64 {
                        let k = key(i % 32, &["mem2reg"], (t % 2) as usize, i as usize % 8);
                        if shared.get(&k).is_none() {
                            shared.insert(k, Ok(i % 32));
                        }
                    }
                });
            }
        });
        // Every key maps to the deterministic value regardless of which
        // thread inserted it.
        for i in 0..32u64 {
            for inline in 0..2usize {
                for unroll in 0..8usize {
                    if let Some(v) = shared.get(&key(i, &["mem2reg"], inline, unroll)) {
                        assert_eq!(v, Ok(i));
                    }
                }
            }
        }
    }

    #[test]
    fn postpass_memo_computes_each_key_once_and_counts_hits() {
        let memo = PostPassMemo::new();
        let mut runs = 0;
        for _ in 0..3 {
            let v = memo.get_or_compute(1, 7, || {
                runs += 1;
                Err::<u64, String>("payload".into())
            });
            assert_eq!(v, Err("payload".into()), "the payload survives a hit");
        }
        assert_eq!(runs, 1);
        assert_eq!(memo.hits(), 2);
        // Either half of the key tells entries apart.
        assert_eq!(memo.get_or_compute(2, 7, || 5u64), 5);
        assert_eq!(memo.get_or_compute(1, 8, || 6u64), 6);
        assert_eq!(memo.hits(), 2);
    }

    #[test]
    fn the_current_memo_is_scoped_and_restored_on_unwind() {
        assert!(current_postpass_memo().is_none(), "no search, no memo");
        let (outer, inner) = (Arc::new(PostPassMemo::new()), Arc::new(PostPassMemo::new()));
        with_postpass_memo(&outer, || {
            let seen = current_postpass_memo().expect("in scope");
            assert!(Arc::ptr_eq(&seen, &outer));
            let unwound = std::panic::catch_unwind(|| {
                with_postpass_memo(&inner, || panic!("fitness bug"));
            });
            assert!(unwound.is_err());
            let seen = current_postpass_memo().expect("restored");
            assert!(Arc::ptr_eq(&seen, &outer), "the outer scope is back");
        });
        assert!(current_postpass_memo().is_none());
        assert_eq!(Arc::strong_count(&outer), 1, "no thread keeps it alive");
        // Another thread never sees this thread's memo.
        with_postpass_memo(&outer, || {
            std::thread::scope(|s| {
                s.spawn(|| assert!(current_postpass_memo().is_none()));
            });
        });
    }

    #[test]
    fn snapshot_is_sorted_and_preload_round_trips() {
        let c = FitnessCache::new();
        c.insert(key(9, &["gvn"], 1, 1), Ok(50));
        c.insert(key(2, &["dce"], 0, 0), Err(FailureClass::Trap));
        c.insert(key(2, &["mem2reg", "dce"], 0, 0), Ok(7));
        let snap = c.snapshot();
        assert_eq!(snap.len(), 3);
        let fps: Vec<u64> = snap.iter().map(|(k, _)| k.fingerprint).collect();
        assert_eq!(fps, vec![2, 2, 9], "sorted by key");

        let re = FitnessCache::new();
        assert_eq!(re.preload(snap.clone()), 3);
        assert_eq!(re.preload(snap.clone()), 0, "idempotent");
        assert_eq!(re.snapshot(), snap);
    }
}
