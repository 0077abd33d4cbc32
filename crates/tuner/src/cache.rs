//! The concurrent sharded fitness cache.
//!
//! Genetic search re-visits candidates constantly (crossover reassembles
//! parents, mutation undoes itself, no-op passes pad otherwise-equal
//! sequences), and every fitness evaluation re-optimizes and re-runs a whole
//! program. This is the memo that makes a revisit free: a `DashMap`-style
//! sharded map shared by **every island of every workload** in a service
//! run. Keys carry the workload's stable IR fingerprint and the candidate's
//! *canonical* sequence, so one map serves the whole suite, and lock
//! contention is spread over key-hashed shards instead of one global mutex.
//! Islands searching the same workload (and duplicate programs across
//! workloads with equal fingerprints) therefore never pay for the same
//! candidate twice.
//!
//! Values are classified [`EvalResult`]s: a failing candidate caches *why*
//! it failed, which is what the quarantine log and checkpoint files are
//! derived from.
//!
//! Concurrency contract: fitness is deterministic (cycle counts are), so a
//! benign race — two threads missing on the same key and both evaluating —
//! computes the same value twice and the second insert is a no-op. Search
//! *results* can never depend on scheduling; only the service's per-island
//! hit and fitness-call counters can wobble by the handful of racy
//! duplicates, which is why it reports them as throughput statistics, not
//! as part of the deterministic outcome.

use crate::fault::EvalResult;
use crate::{canonicalize_sequence, Candidate};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Cache key: one candidate on one program. Ordered field by field
/// (fingerprint first) — the order snapshots, checkpoints and the
/// quarantine log are written in.
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

/// Number of shards: enough that 8–16 worker threads rarely collide, small
/// enough that an empty cache stays cheap.
const SHARDS: usize = 64;

/// A sharded concurrent map from [`FitnessKey`] to its classified
/// evaluation outcome.
#[derive(Debug)]
pub struct ShardedFitnessCache {
    shards: Vec<Mutex<HashMap<FitnessKey, EvalResult>>>,
}

impl Default for ShardedFitnessCache {
    fn default() -> ShardedFitnessCache {
        ShardedFitnessCache::new()
    }
}

impl ShardedFitnessCache {
    /// An empty cache.
    pub fn new() -> ShardedFitnessCache {
        ShardedFitnessCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// The shard `key` lives in, locked.
    fn locked(&self, key: &FitnessKey) -> MutexGuard<'_, HashMap<FitnessKey, EvalResult>> {
        // FNV-1a over the key's fixed-width fields plus the canonical pass
        // pointers' names; `Hash` for HashMap stays the std one.
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x100000001b3);
        };
        mix(key.fingerprint);
        mix(key.inline_threshold as u64);
        mix(key.unroll_threshold as u64);
        for p in &key.passes {
            for b in p.bytes() {
                mix(b as u64);
            }
            mix(u64::MAX);
        }
        // No code path panics while holding a shard (plain map operations
        // only), so the lock is never poisoned.
        self.shards[(h % SHARDS as u64) as usize]
            .lock()
            .expect("cache shard")
    }

    /// Look `key` up.
    pub fn get(&self, key: &FitnessKey) -> Option<EvalResult> {
        self.locked(key).get(key).copied()
    }

    /// Record `value` for `key`. First write wins on the benign
    /// evaluate-twice race (both writers hold the same deterministic value).
    pub fn insert(&self, key: FitnessKey, value: EvalResult) {
        self.locked(&key).entry(key).or_insert(value);
    }

    /// Preload entries (a resumed checkpoint). First write wins, as with
    /// [`Self::insert`]. Returns the number of entries actually added.
    pub fn preload(&self, entries: impl IntoIterator<Item = (FitnessKey, EvalResult)>) -> usize {
        let mut added = 0usize;
        for (key, value) in entries {
            let mut shard = self.locked(&key);
            if let std::collections::hash_map::Entry::Vacant(e) = shard.entry(key) {
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
        let mut out: Vec<(FitnessKey, EvalResult)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("cache shard")
                    .iter()
                    .map(|(k, v)| (k.clone(), *v))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by(|(a, _), (b, _)| a.cmp(b));
        out
    }

    /// Cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard").len())
            .sum()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
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
        let c = ShardedFitnessCache::new();
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
        let c = ShardedFitnessCache::new();
        c.insert(key(1, &["dce"], 10, 20), Ok(1));
        assert_eq!(c.get(&key(2, &["dce"], 10, 20)), None, "fingerprint");
        assert_eq!(c.get(&key(1, &["gvn"], 10, 20)), None, "sequence");
        assert_eq!(c.get(&key(1, &["dce"], 11, 20)), None, "inline");
        assert_eq!(c.get(&key(1, &["dce"], 10, 21)), None, "unroll");
        assert_eq!(c.get(&key(1, &["dce"], 10, 20)), Some(Ok(1)));
    }

    #[test]
    fn first_insert_wins_and_concurrent_use_is_safe() {
        let c = ShardedFitnessCache::new();
        let k = key(3, &["sccp"], 1, 2);
        c.insert(k.clone(), Ok(10));
        c.insert(k.clone(), Ok(99)); // racy duplicate: ignored
        assert_eq!(c.get(&k), Some(Ok(10)));

        let shared = ShardedFitnessCache::new();
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
    fn snapshot_is_sorted_and_preload_round_trips() {
        let c = ShardedFitnessCache::new();
        c.insert(key(9, &["gvn"], 1, 1), Ok(50));
        c.insert(key(2, &["dce"], 0, 0), Err(FailureClass::Trap));
        c.insert(key(2, &["mem2reg", "dce"], 0, 0), Ok(7));
        let snap = c.snapshot();
        assert_eq!(snap.len(), 3);
        let fps: Vec<u64> = snap.iter().map(|(k, _)| k.fingerprint).collect();
        assert_eq!(fps, vec![2, 2, 9], "sorted by key");

        let re = ShardedFitnessCache::new();
        assert_eq!(re.preload(snap.clone()), 3);
        assert_eq!(re.preload(snap.clone()), 0, "idempotent");
        assert_eq!(re.snapshot(), snap);
    }
}
