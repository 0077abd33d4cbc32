//! Program sets and seeded op-list generators. `--seed` reaches nothing
//! else: the program under test only ever sees the generated op lists.

use zkvmopt_passes::PassManager;
use zkvmopt_tuner::{Candidate, SeedTree};
use zkvmopt_workloads::Workload;

/// `eval_pass`: IR-large, short-running programs — execute share ≤ 0.08 of
/// an `-O3` evaluation on every one. The sub-millisecond merkle/keccak256
/// are left out.
///
/// Both eval sets hold an odd number of programs, every program gets the
/// same number of ops, and here six of the nine are the heavy ones (≈ 6 ms
/// and up; the other three ≈ 3 ms). A program's ops cluster in latency, and
/// the median op must sit inside a cluster: on the border between two — an
/// even count, or as many light programs as heavy ones — it jumps from one
/// cluster to the other with the seed (±6 % with the issue's twelve).
pub const EVAL_PASS_PROGRAMS: [&str; 9] = [
    "polybench-3mm",
    "sha3-bench",
    "polybench-ludcmp",
    "zkvm-mnist",
    "polybench-2mm",
    "polybench-gramschmidt",
    "sha256",
    "npb-bt",
    "npb-mg",
];

/// `eval_exec`: small-IR, long-running programs — the engine owns the op.
pub const EVAL_EXEC_PROGRAMS: [&str; 7] = [
    "bigmem",
    "fibonacci",
    "npb-ep",
    "loop-sum",
    "tailcall",
    "regex-match",
    "spec-631",
];

/// `tune_cold`: six programs from each eval set, so the service sees both
/// pass-bound and execute-bound fitness calls.
pub const TUNE_PROGRAMS: [&str; 12] = [
    "polybench-3mm",
    "sha3-bench",
    "polybench-ludcmp",
    "zkvm-mnist",
    "polybench-2mm",
    "polybench-gramschmidt",
    "bigmem",
    "fibonacci",
    "npb-ep",
    "loop-sum",
    "tailcall",
    "regex-match",
];

/// Ops per program and round of the two `eval_*` workloads: 198 and 1001
/// ops a round, a second or two of work each.
pub const EVAL_PASS_OPS_PER_PROGRAM: usize = 22;
pub const EVAL_EXEC_OPS_PER_PROGRAM: usize = 143;

/// Streams of the seed tree, one per generator, so no two generators ever
/// draw the same numbers from one `--seed`.
const STREAM_PERMUTE: u64 = 1;
const STREAM_RANDOM: u64 = 2;
const STREAM_EDIT: u64 = 3;

/// Resolve a program set against the suite.
///
/// # Errors
/// Names the first program the suite does not hold.
pub fn resolve(names: &[&str]) -> Result<Vec<&'static Workload>, String> {
    names
        .iter()
        .map(|n| zkvmopt_workloads::by_name(n).ok_or_else(|| format!("no suite program `{n}`")))
        .collect()
}

/// The `k`-th draw of `stream`, uniform in `0..n`.
fn draw(seed: u64, stream: u64, k: u64, n: usize) -> usize {
    (SeedTree::new(seed).seed(stream, k) % n as u64) as usize
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, draw(seed, STREAM_PERMUTE, i as u64, i + 1));
    }
    order
}

/// `eval_exec` candidate `i`: the tuner's own random generator, depth ≤ 20
/// — shallow, mostly un-`mem2reg`ed code with no shared prefixes.
pub fn random_candidate(seed: u64, i: usize) -> Candidate {
    Candidate::random(SeedTree::new(seed).seed(STREAM_RANDOM, i as u64), 20)
}

/// `eval_pass` candidate `i`: the `-O3` sequence with 1–3 point edits
/// (replace / delete / adjacent swap) at the `-O3` thresholds — GA offspring
/// near the `-O3` anchor: all distinct, long shared prefixes.
///
/// The thresholds stay put on purpose. Drawn per candidate from the tuner's
/// ranges (0..8192, 0..2048) they decide what `loop-unroll` costs, a few
/// draws own the round, and the round's time swings by a third from seed to
/// seed; `tune_cold` is where thresholds vary.
pub fn near_o3_candidate(seed: u64, i: usize) -> Candidate {
    let names = zkvmopt_passes::pass_names();
    let mut passes = PassManager::o3().names();
    let mut k = (i as u64) << 8;
    let mut next = |n: usize| {
        k += 1;
        draw(seed, STREAM_EDIT, k, n)
    };
    for _ in 0..1 + next(3) {
        let at = next(passes.len());
        match next(3) {
            0 => passes[at] = names[next(names.len())],
            1 if passes.len() > 1 => {
                passes.remove(at);
            }
            _ => {
                let other = (at + 1) % passes.len();
                passes.swap(at, other);
            }
        }
    }
    let o3 = zkvmopt_passes::PassConfig::default();
    Candidate {
        passes,
        inline_threshold: o3.inline_threshold,
        unroll_threshold: o3.unroll_threshold,
    }
}

/// One token that changes whenever the op list does.
pub fn digest<T: std::fmt::Debug>(ops: &[T]) -> u64 {
    crate::stats::fnv1a(format!("{ops:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_sets_resolve_and_do_not_repeat() {
        for set in [
            &EVAL_PASS_PROGRAMS[..],
            &EVAL_EXEC_PROGRAMS[..],
            &TUNE_PROGRAMS[..],
        ] {
            let ws = resolve(set).unwrap();
            let mut names: Vec<&str> = ws.iter().map(|w| w.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), set.len());
        }
        assert!(resolve(&["no-such-program"]).is_err());
        // tune_cold takes six programs from each eval set.
        for (set, n) in [(&EVAL_PASS_PROGRAMS[..], 6), (&EVAL_EXEC_PROGRAMS[..], 6)] {
            let shared = TUNE_PROGRAMS.iter().filter(|p| set.contains(p)).count();
            assert_eq!(shared, n);
        }
    }

    #[test]
    fn permutations_are_seeded_permutations() {
        let a = permutation(1, 58);
        assert_eq!(a, permutation(1, 58));
        assert_ne!(a, permutation(2, 58));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..58).collect::<Vec<_>>());
        assert_eq!(permutation(9, 1), vec![0]);
    }

    #[test]
    fn candidate_generators_are_deterministic_in_the_seed() {
        for make in [random_candidate, near_o3_candidate] {
            let a: Vec<Candidate> = (0..50).map(|i| make(1, i)).collect();
            let b: Vec<Candidate> = (0..50).map(|i| make(1, i)).collect();
            let c: Vec<Candidate> = (0..50).map(|i| make(2, i)).collect();
            assert_eq!(a, b);
            assert_ne!(digest(&a), digest(&c), "hold-out seed changes the list");
            for cand in &a {
                assert!(!cand.passes.is_empty() && cand.passes.len() <= 29);
                for p in &cand.passes {
                    assert!(zkvmopt_passes::find_pass(p).is_some(), "{p}");
                }
            }
        }
    }

    #[test]
    fn near_o3_candidates_stay_near_o3_and_are_distinct() {
        let o3 = PassManager::o3().names();
        let cands: Vec<Candidate> = (0..198).map(|i| near_o3_candidate(1, i)).collect();
        for c in &cands {
            assert!(c.passes.len() + 3 >= o3.len() && c.passes.len() <= o3.len());
            // At most three edits: everything before the first is shared.
            let shared = c.passes.iter().zip(&o3).take_while(|(a, b)| a == b).count();
            let untouched = c.passes.iter().filter(|p| o3.contains(p)).count();
            assert!(untouched + 3 >= c.passes.len(), "{:?}", c.passes);
            assert!(shared <= o3.len());
            assert_eq!((c.inline_threshold, c.unroll_threshold), (225, 200));
        }
        let mut keys: Vec<String> = cands.iter().map(|c| format!("{c:?}")).collect();
        keys.sort_unstable();
        keys.dedup();
        assert!(keys.len() * 10 >= cands.len() * 9, "nearly all distinct");
    }
}
