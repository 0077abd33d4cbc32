//! The tuner's one search: a μ+λ genetic search run as islands, over many
//! programs at once.
//!
//! [`tune_suite`] is the only search loop in the workspace — Figure 6's
//! single-program tuning, the §4.2 example, the benchmark's `tune_cold`
//! workload and the tuning service all call it. It is structured the way GPU-scale
//! combinatorial solvers are: a large population of small, independent
//! evolution steps that worker threads chew through concurrently. One
//! island on one thread is a plain single-population GA; more islands and
//! more threads are the same search run wider, with the same result at any
//! thread count. A call is **admission** (per target, in order: a [`TuneDb`]
//! hit is served at no cost, a prediction inside the margin after one
//! measurement, the rest are cold) →
//! the **search** of the cold targets → **collection** (fold the islands
//! into a best, record it back, report it), and every measurement in all
//! three goes through one evaluate-through-cache step: canonical
//! [`FitnessKey`] → the [`ShardedFitnessCache`] shared across islands *and*
//! workloads → on a miss, one panic-isolated fitness call, run with the
//! call's [`PostPassMemo`] current so an evaluator can skip the back half
//! for IR this search already compiled and ran.
//!
//! ## Shape
//!
//! - **Islands.** Each workload gets `islands` independent populations. An
//!   island evolves alone (its own RNG stream, its own selection pressure)
//!   and every `migration_interval` generations donates its elite to the
//!   next island in the ring — classic island-model diversity with a
//!   periodic exchange of winners.
//! - **Work stealing.** Every `(workload, island, generation)` step is one
//!   task in a shared ready queue; idle workers steal the next ready task
//!   regardless of which workload it belongs to, so a slow program's islands
//!   never leave threads idle while 57 other programs have work.
//! - **Generation barriers per workload.** Islands of one workload advance
//!   in lockstep (generation `g+1` is enqueued only when all of its islands
//!   finished `g`); migration happens at the barrier, in island-index order.
//!   Different workloads proceed completely independently.
//!
//! ## Fault tolerance
//!
//! The service assumes hostile inputs and partial failures:
//!
//! - **Panic isolation.** Every fitness call runs under `catch_unwind`; a
//!   panicking evaluation becomes [`FailureClass::Panic`] instead of
//!   killing the island (and poisoning its lock).
//! - **Final outcomes.** Each candidate is evaluated once and its outcome,
//!   failure or not, is cached as it came back. Fitness is a pure function
//!   of `(fingerprint, candidate)`, so a second call could only repeat the
//!   first answer.
//! - **Quarantine.** Candidates whose outcome is a failure are reported per
//!   workload ([`WorkloadTuneReport::quarantined`]), carrying the canonical
//!   sequence and the failure class.
//! - **Demotion.** A workload whose islands produce *zero* valid candidates
//!   for three consecutive generations stops burning budget: its remaining
//!   generations are cancelled and it falls back to the baseline (empty)
//!   sequence.
//! - **Checkpoint/resume.** With [`ServiceConfig::checkpoint_path`] set,
//!   the fitness cache is dumped atomically at every generation barrier; a
//!   rerun with the same configuration resumes from it with zero redundant
//!   fitness evaluations (see [`crate::checkpoint`]).
//!
//! ## Determinism
//!
//! Same seed → same study, **regardless of thread count**. Every random
//! stream derives from the single root seed via [`SeedTree`] streams keyed
//! by `(workload fingerprint, island index)`; migration happens at fixed
//! generation numbers in fixed order; fitness is deterministic. The only
//! scheduling-dependent observables are the cache-hit/fitness-call
//! *counters* (a benign race can evaluate a shared candidate twice), never
//! the populations, the bests, or the tune-database contents. The fitness
//! function must be a pure function of `(fingerprint, candidate)` — two
//! targets with equal fingerprints must measure identically. Those
//! properties survive faults: a kill + resume replays the identical search
//! with the checkpointed evaluations pre-answered, and injected faults (see
//! [`crate::fault`]) are final outcomes like any other, so they land in the
//! same quarantine at every thread count.

use crate::cache::{with_postpass_memo, FitnessKey, PostPassMemo, ShardedFitnessCache};
use crate::checkpoint::{load_checkpoint, save_checkpoint, CheckpointStatus};
use crate::db::{TuneDb, TuneDbEntry};
use crate::fault::{EvalResult, FailureClass};
use crate::predict::{candidate_from_entry, Predictor};
use crate::rng::SeedTree;
use crate::{
    anchor_candidates, canonicalize_sequence, crossover, lock_unpoisoned, mutate, random_candidate,
    wait_unpoisoned, Candidate,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use zkvmopt_ir::FeatureVector;

/// Quarantine entries kept per workload; the rest are counted in
/// [`WorkloadTuneReport::quarantine_total`].
const QUARANTINE_CAP: usize = 64;

/// Maximum pass-sequence depth (the paper's 20).
const MAX_DEPTH: usize = 20;

/// Cancel a workload's remaining generations after this many *consecutive*
/// generations in which no island produced a single valid candidate.
const DEMOTE_AFTER: usize = 3;

/// Predict-first acceptance margin: a measured prediction is accepted when
/// `measured ≤ baseline × expected_ratio × (1 + PREDICT_MARGIN)`.
const PREDICT_MARGIN: f64 = 0.10;

/// Parallel-service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Independent islands (populations) per workload.
    pub islands: usize,
    /// Population size per island.
    pub population: usize,
    /// Evolution generations per island. Each generation evaluates exactly
    /// `population` candidates, so the per-workload evaluation budget is
    /// `islands × population × generations` ([`ServiceConfig::budget_per_workload`]).
    pub generations: usize,
    /// Donate each island's elite to the ring neighbour every this many
    /// generations (`0` = never migrate).
    pub migration_interval: usize,
    /// Root RNG seed; every island stream splits from it.
    pub seed: u64,
    /// Worker threads (`0` = all available cores).
    pub threads: usize,
    /// Dump the fitness cache here at every generation barrier; on start,
    /// resume from it when its digest matches this run (`None` = no
    /// checkpointing).
    pub checkpoint_path: Option<PathBuf>,
    /// Predict-first mode: before searching a cold workload whose
    /// [`TuneTarget::features`] are known, ask the [`Predictor`] for a
    /// candidate and measure it **once**. Within 10 % of the database's
    /// recorded quality the workload is served on the spot (~1 fitness
    /// evaluation, counted in [`ServiceReport::predicted_hits`]); otherwise
    /// the prediction seeds island 0 and the genetic search runs as offline
    /// refinement.
    pub predict: bool,
    /// Neighbours consulted per prediction (k-NN; `0` is clamped to 1).
    pub predict_k: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            islands: 4,
            population: 8,
            generations: 5,
            migration_interval: 2,
            seed: 0xC0FFEE,
            threads: 0,
            checkpoint_path: None,
            predict: false,
            predict_k: 3,
        }
    }
}

impl ServiceConfig {
    /// Candidate evaluations spent per cold workload (cache hits included —
    /// a hit consumes budget, it just costs no fitness call).
    pub fn budget_per_workload(&self) -> usize {
        self.islands * self.population * self.generations
    }

    /// Digest binding a checkpoint to this run's shape: the search-relevant
    /// configuration plus the target fingerprints. Two runs with equal
    /// digests replay the identical candidate stream, which is what makes
    /// resuming from the other's checkpoint sound.
    pub fn run_digest(&self, targets: &[TuneTarget]) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x100000001b3);
        };
        mix(self.islands as u64);
        mix(self.population as u64);
        mix(self.generations as u64);
        mix(self.migration_interval as u64);
        // Constants now, but checkpoints written while the depth, the retry
        // budget (3), the demotion limit and the margin were config fields
        // carry them in their digest.
        mix(MAX_DEPTH as u64);
        mix(self.seed);
        mix(3);
        mix(DEMOTE_AFTER as u64);
        mix(self.predict as u64);
        mix(self.predict_k as u64);
        mix(PREDICT_MARGIN.to_bits());
        for t in targets {
            mix(t.fingerprint);
        }
        h
    }
}

/// One program to tune.
#[derive(Debug, Clone)]
pub struct TuneTarget {
    /// Display name.
    pub name: String,
    /// Stable fingerprint of the program's lowered base module — the cache
    /// and tune-database key.
    pub fingerprint: u64,
    /// Structural features of the base module, for predict-first mode and
    /// for recording into the schema-2 database (`None` = never predicted;
    /// the workload always searches).
    pub features: Option<FeatureVector>,
    /// The program's `-O3` reference cycles — the denominator of the
    /// predictor's quality ratios and the acceptance test's baseline
    /// (`None` = not measured; predictions for this target never accept).
    pub baseline_cycles: Option<u64>,
}

impl TuneTarget {
    /// A target with no prediction metadata (always searched when cold).
    pub fn new(name: impl Into<String>, fingerprint: u64) -> TuneTarget {
        TuneTarget {
            name: name.into(),
            fingerprint,
            features: None,
            baseline_cycles: None,
        }
    }

    /// Attach the prediction metadata predict-first mode consumes.
    pub fn with_prediction(mut self, features: FeatureVector, baseline_cycles: u64) -> TuneTarget {
        self.features = Some(features);
        self.baseline_cycles = Some(baseline_cycles);
        self
    }
}

/// One quarantined candidate: its canonical form and why it failed.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineEntry {
    /// The failing candidate (canonical sequence).
    pub candidate: Candidate,
    /// The recorded failure class.
    pub class: FailureClass,
}

/// Per-workload outcome.
#[derive(Debug, Clone)]
pub struct WorkloadTuneReport {
    /// Target name.
    pub name: String,
    /// Target fingerprint.
    pub fingerprint: u64,
    /// Best candidate found (canonical form), or `None` when every
    /// evaluated candidate was invalid.
    pub best: Option<Candidate>,
    /// The best candidate's measured cycles.
    pub best_fitness: Option<u64>,
    /// Evaluation budget spent (cache hits included).
    pub evaluated: usize,
    /// Actual fitness-function calls (budget minus cache hits).
    pub fitness_evals: usize,
    /// Evaluations served by the sharded cache.
    pub cache_hits: usize,
    /// Whether the result came straight from the tune database.
    pub warm_started: bool,
    /// Whether the result is an accepted prediction (served with ~1 fitness
    /// evaluation instead of a genetic search).
    pub predicted: bool,
    /// Whether the search was cancelled early (three consecutive generations
    /// without a valid candidate) and the workload fell back to its
    /// baseline sequence.
    pub demoted: bool,
    /// Candidates whose final outcome was a failure (the first 64, in
    /// deterministic key order).
    pub quarantined: Vec<QuarantineEntry>,
    /// Total failing candidates for this workload (may exceed
    /// `quarantined.len()`).
    pub quarantine_total: usize,
}

impl WorkloadTuneReport {
    /// `t` served `best` at `cost`; how (`warm_started` / `predicted` /
    /// `demoted`) and the quarantine are the caller's to fill in.
    fn new(t: &TuneTarget, best: Option<(Candidate, u64)>, cost: Cost) -> WorkloadTuneReport {
        WorkloadTuneReport {
            name: t.name.clone(),
            fingerprint: t.fingerprint,
            best_fitness: best.as_ref().map(|(_, f)| *f),
            best: best.map(|(c, _)| c),
            evaluated: cost.evaluated,
            fitness_evals: cost.fitness_evals,
            cache_hits: cost.cache_hits,
            warm_started: false,
            predicted: false,
            demoted: false,
            quarantined: Vec::new(),
            quarantine_total: 0,
        }
    }
}

/// Whole-run outcome.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Per-workload reports, in target order.
    pub workloads: Vec<WorkloadTuneReport>,
    /// Total evaluation budget spent.
    pub evaluated: usize,
    /// Total fitness-function calls.
    pub fitness_evals: usize,
    /// Total sharded-cache hits.
    pub cache_hits: usize,
    /// Fitness calls whose back half the search's [`PostPassMemo`] answered:
    /// their passes ran, and produced IR an earlier call of this search had
    /// already compiled and executed. A subset of `fitness_evals`, disjoint
    /// from `cache_hits`; always 0 for a fitness that does not consult the
    /// memo.
    pub postpass_hits: usize,
    /// Always 0: every evaluation outcome is final, so nothing is retried.
    /// Kept because the benchmark reads it as `tuner.retries`; both go
    /// together.
    pub retries: usize,
    /// Workloads answered straight from the tune database.
    pub db_hits: usize,
    /// Workloads served by an accepted prediction (predict-first mode).
    pub predicted_hits: usize,
    /// Tune-database entries inserted or improved by this run.
    pub db_updates: usize,
    /// Workloads demoted to their baseline sequence.
    pub demoted: usize,
    /// Total quarantined (failing) candidates across workloads.
    pub quarantine_total: usize,
    /// How the checkpoint (if configured) loaded at start of run.
    pub checkpoint_status: CheckpointStatus,
    /// Checkpoint entries restored into the fitness cache — evaluations
    /// this run will never have to repeat.
    pub resumed_entries: usize,
}

/// What evaluations cost, in the three units the reports count. Always
/// `evaluated == fitness_evals + cache_hits`.
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    evaluated: usize,
    fitness_evals: usize,
    cache_hits: usize,
}

impl std::ops::AddAssign for Cost {
    fn add_assign(&mut self, c: Cost) {
        self.evaluated += c.evaluated;
        self.fitness_evals += c.fitness_evals;
        self.cache_hits += c.cache_hits;
    }
}

/// One `tune_suite` call's shared state: admission, the worker threads and
/// collection all measure through it.
struct Run<'a> {
    config: &'a ServiceConfig,
    cache: ShardedFitnessCache,
    /// Current on the worker's thread during every fitness call.
    postpass: Arc<PostPassMemo>,
    fitness: &'a (dyn Fn(usize, &Candidate) -> EvalResult + Sync),
    /// Where the cache is checkpointed, and the run digest it is bound to.
    checkpoint: Option<(&'a Path, u64)>,
    /// Orders snapshot + write pairs across worker threads, so the file
    /// left after the last barrier holds the last (complete) snapshot.
    checkpoint_lock: Mutex<()>,
}

impl Run<'_> {
    /// The one evaluate-through-cache step: `c`'s outcome on `w`'s target
    /// and what it cost — one unit of budget, paid by a cache hit or by one
    /// fitness call.
    fn measure(&self, w: &WorkState, c: &Candidate) -> (EvalResult, Cost) {
        let key = FitnessKey::of(w.fingerprint, c);
        let (r, hit) = match self.cache.get(&key) {
            Some(r) => (r, true),
            None => {
                let r = self.call(w.widx, c);
                self.cache.insert(key, r);
                (r, false)
            }
        };
        let cost = Cost {
            evaluated: 1,
            fitness_evals: usize::from(!hit),
            cache_hits: usize::from(hit),
        };
        (r, cost)
    }

    /// Call `fitness` once, with panic isolation and with this run's
    /// post-pass memo current. The outcome is final.
    fn call(&self, widx: usize, c: &Candidate) -> EvalResult {
        catch_unwind(AssertUnwindSafe(|| {
            with_postpass_memo(&self.postpass, || (self.fitness)(widx, c))
        }))
        .unwrap_or(Err(FailureClass::Panic))
    }

    /// Resume: restore a previous attempt's evaluations into the cache.
    /// Returns how the checkpoint loaded and how many entries it restored.
    fn resume(&self) -> (CheckpointStatus, usize) {
        let Some((path, digest)) = self.checkpoint else {
            return (CheckpointStatus::Absent, 0);
        };
        let (entries, status) = load_checkpoint(path, digest);
        if matches!(
            status,
            CheckpointStatus::Mismatch | CheckpointStatus::Recovered { .. }
        ) {
            eprintln!(
                "tuner: checkpoint {}: {status}; resuming from what survived",
                path.display()
            );
        }
        (status, self.cache.preload(entries))
    }

    /// Called at every generation barrier: dumps the cache when the run
    /// checkpoints. Best-effort: an unwritable checkpoint degrades to a
    /// longer resume, never a failed run.
    fn write_checkpoint(&self) {
        let Some((path, digest)) = self.checkpoint else {
            return;
        };
        let _guard = lock_unpoisoned(&self.checkpoint_lock);
        if let Err(e) = save_checkpoint(path, digest, &self.cache.snapshot()) {
            eprintln!(
                "tuner: checkpoint write to {} failed ({e}); continuing without",
                path.display()
            );
        }
    }
}

/// What admission decided for one target.
enum Admission {
    /// Answered without a search: a database hit or an accepted prediction.
    Served(WorkloadTuneReport),
    /// Needs the genetic search.
    Cold(WorkState),
}

/// One island's private evolution state.
struct IslandState {
    rng: StdRng,
    /// Population, sorted best-first after every generation.
    pop: Vec<(Candidate, Option<u64>)>,
    best: Option<(Candidate, u64)>,
    /// Elite migrated in from the ring neighbour (arrives with its fitness:
    /// migration never costs budget).
    incoming: Option<(Candidate, Option<u64>)>,
    cost: Cost,
}

/// Shared per-workload search state.
struct WorkState {
    /// Index into the run's targets.
    widx: usize,
    fingerprint: u64,
    /// A rejected prediction: it seeds island 0's initial population
    /// (predict-first mode's refinement path) …
    seed: Option<Candidate>,
    /// … and its one measurement was spent either way: carried into the
    /// search report so the accounting invariant holds.
    spent: Cost,
    islands: Vec<Mutex<IslandState>>,
    /// Islands still running the current generation.
    remaining: AtomicUsize,
    /// Generations fully completed.
    done_gens: AtomicUsize,
    /// Valid (Ok) evaluations in the generation now running.
    valid_in_gen: AtomicUsize,
    /// Consecutive completed generations with zero valid evaluations.
    failed_gens: AtomicUsize,
    /// Whether the workload's remaining generations were cancelled.
    demoted: AtomicBool,
}

impl WorkState {
    /// A cold target about to be searched: every island's random stream
    /// splits from the root seed by `(fingerprint, island index)`.
    fn new(config: &ServiceConfig, widx: usize, fingerprint: u64) -> WorkState {
        let seeds = SeedTree::new(config.seed);
        let island = |i| IslandState {
            rng: seeds.rng(fingerprint, i as u64),
            pop: Vec::new(),
            best: None,
            incoming: None,
            cost: Cost::default(),
        };
        WorkState {
            widx,
            fingerprint,
            seed: None,
            spent: Cost::default(),
            islands: (0..config.islands).map(|i| Mutex::new(island(i))).collect(),
            remaining: AtomicUsize::new(config.islands),
            done_gens: AtomicUsize::new(0),
            valid_in_gen: AtomicUsize::new(0),
            failed_gens: AtomicUsize::new(0),
            demoted: AtomicBool::new(false),
        }
    }
}

/// Tune every target concurrently. `fitness(widx, candidate)` returns the
/// cycle count on `targets[widx]` (or the [`FailureClass`] describing why
/// the candidate failed) and must be deterministic in
/// `(targets[widx].fingerprint, candidate)`. A panicking fitness call is
/// caught and treated as [`FailureClass::Panic`]. Results for known
/// programs come from `db` (pass an empty database for a cold search); new
/// results are recorded into `db` (call [`TuneDb::save`] to persist them).
pub fn tune_suite<F>(
    config: &ServiceConfig,
    targets: &[TuneTarget],
    db: &mut TuneDb,
    fitness: F,
) -> ServiceReport
where
    F: Fn(usize, &Candidate) -> EvalResult + Sync,
{
    assert!(config.islands >= 1, "need at least one island");
    assert!(config.population >= 1, "need a non-empty population");
    assert!(config.generations >= 1, "need at least one generation");

    let digest = config.run_digest(targets);
    let run = Run {
        config,
        cache: ShardedFitnessCache::new(),
        postpass: Arc::new(PostPassMemo::new()),
        fitness: &fitness,
        checkpoint: config.checkpoint_path.as_deref().map(|p| (p, digest)),
        checkpoint_lock: Mutex::new(()),
    };
    let (checkpoint_status, resumed_entries) = run.resume();

    let mut db_updates = 0usize;
    let admissions = admit(&run, targets, db, &mut db_updates);
    let work: Vec<&WorkState> = admissions
        .iter()
        .filter_map(|a| match a {
            Admission::Cold(w) => Some(w),
            Admission::Served(_) => None,
        })
        .collect();
    if !work.is_empty() {
        run_scheduler(&run, &work);
    }

    // Quarantine: every cached failure, grouped per fingerprint. Derived
    // from the cache snapshot so it is deterministic at any thread count
    // (the set of evaluated candidates is; only counters wobble).
    let failures: Vec<(FitnessKey, FailureClass)> = run
        .cache
        .snapshot()
        .into_iter()
        .filter_map(|(k, v)| v.err().map(|class| (k, class)))
        .collect();
    let workloads: Vec<WorkloadTuneReport> = admissions
        .into_iter()
        .zip(targets)
        .map(|(admission, t)| match admission {
            Admission::Served(report) => report,
            Admission::Cold(w) => collect(&run, &w, t, db, &mut db_updates, &failures),
        })
        .collect();

    ServiceReport {
        evaluated: workloads.iter().map(|w| w.evaluated).sum(),
        fitness_evals: workloads.iter().map(|w| w.fitness_evals).sum(),
        cache_hits: workloads.iter().map(|w| w.cache_hits).sum(),
        postpass_hits: run.postpass.hits(),
        retries: 0,
        db_hits: workloads.iter().filter(|w| w.warm_started).count(),
        predicted_hits: workloads.iter().filter(|w| w.predicted).count(),
        db_updates,
        demoted: workloads.iter().filter(|w| w.demoted).count(),
        quarantine_total: failures.len(),
        checkpoint_status,
        resumed_entries,
        workloads,
    }
}

/// Admission, sequential in target order (so fully deterministic). In
/// predict-first mode a cold target with known features has the predicted
/// candidate measured exactly once — through the shared cache, so a
/// subsequent search re-uses it.
fn admit(
    run: &Run<'_>,
    targets: &[TuneTarget],
    db: &mut TuneDb,
    db_updates: &mut usize,
) -> Vec<Admission> {
    let config = run.config;
    let mut admissions: Vec<Admission> = targets
        .iter()
        .enumerate()
        .map(|(widx, t)| {
            let cold = || Admission::Cold(WorkState::new(config, widx, t.fingerprint));
            let Some(e) = db.get(t.fingerprint) else {
                return cold();
            };
            let Some(best) = candidate_from_entry(e) else {
                // A stored pass no longer exists in the registry: the entry
                // is stale. Search fresh and overwrite.
                eprintln!(
                    "tuner: tune-db entry for {} ({:016x}) names an unknown pass; re-searching",
                    t.name, t.fingerprint
                );
                return cold();
            };
            let mut report = WorkloadTuneReport::new(t, Some((best, e.cycles)), Cost::default());
            report.warm_started = true;
            Admission::Served(report)
        })
        .collect();
    let all_served = || admissions.iter().all(|a| matches!(a, Admission::Served(_)));
    if !config.predict || all_served() {
        return admissions;
    }

    // Fit once, over the database as the run found it: predictions accepted
    // below do not vote on the targets after them.
    let predictor = Predictor::from_db(db, config.predict_k);
    for (admission, t) in admissions.iter_mut().zip(targets) {
        let (Admission::Cold(w), Some(features)) = (&mut *admission, &t.features) else {
            continue;
        };
        let prediction = predictor.predict(features);
        let candidate = canonical_candidate(&prediction.candidate);
        let (r, spent) = run.measure(w, &candidate);
        match (r, t.baseline_cycles, prediction.expected_ratio) {
            (Ok(measured), Some(base), Some(ratio))
                if base > 0 && measured as f64 <= base as f64 * ratio * (1.0 + PREDICT_MARGIN) =>
            {
                *db_updates += record(db, t, &candidate, measured);
                let mut report = WorkloadTuneReport::new(t, Some((candidate, measured)), spent);
                report.predicted = true;
                *admission = Admission::Served(report);
            }
            _ => (w.seed, w.spent) = (Some(candidate), spent),
        }
    }
    admissions
}

/// Collection: fold one searched workload's islands into its report and
/// record a fresh best into the database.
fn collect(
    run: &Run<'_>,
    w: &WorkState,
    t: &TuneTarget,
    db: &mut TuneDb,
    db_updates: &mut usize,
    failures: &[(FitnessKey, FailureClass)],
) -> WorkloadTuneReport {
    let mut best: Option<(Candidate, u64)> = None;
    let mut cost = w.spent;
    for island in &w.islands {
        let s = lock_unpoisoned(island);
        cost += s.cost;
        if let Some((c, f)) = &s.best {
            // Strict `<` keeps the lowest island index on ties —
            // deterministic because island order is.
            if best.as_ref().is_none_or(|(_, bf)| f < bf) {
                best = Some((c.clone(), *f));
            }
        }
    }
    let demoted = w.demoted.load(Ordering::SeqCst);
    if demoted && best.is_none() {
        // Graceful degradation: a fully-failing workload falls back to the
        // baseline (empty) sequence — "run nothing" is always a legitimate
        // pipeline, provided it actually evaluates.
        let baseline = Candidate {
            passes: Vec::new(),
            inline_threshold: 225,
            unroll_threshold: 200,
        };
        let (r, spent) = run.measure(w, &baseline);
        cost += spent;
        best = r.ok().map(|f| (baseline, f));
    }
    let best = best.map(|(c, f)| (canonical_candidate(&c), f));
    if let Some((c, f)) = &best {
        *db_updates += record(db, t, c, *f);
    }
    let mut report = WorkloadTuneReport::new(t, best, cost);
    report.demoted = demoted;
    let failed_here = failures
        .iter()
        .filter(|(k, _)| k.fingerprint == t.fingerprint);
    report.quarantine_total = failed_here.clone().count();
    report.quarantined = failed_here
        .take(QUARANTINE_CAP)
        .map(|(k, class)| QuarantineEntry {
            candidate: Candidate {
                passes: k.passes.clone(),
                inline_threshold: k.inline_threshold,
                unroll_threshold: k.unroll_threshold,
            },
            class: *class,
        })
        .collect();
    report
}

/// Record that canonical `c` measured `cycles` on `t`; `1` when that
/// changed the database.
fn record(db: &mut TuneDb, t: &TuneTarget, c: &Candidate, cycles: u64) -> usize {
    usize::from(
        db.record(TuneDbEntry {
            fingerprint: t.fingerprint,
            passes: c.passes.iter().map(|p| p.to_string()).collect(),
            inline_threshold: c.inline_threshold,
            unroll_threshold: c.unroll_threshold,
            cycles,
            baseline_cycles: t.baseline_cycles.unwrap_or(0),
            features: t
                .features
                .as_ref()
                .map(|fv| fv.as_slice().to_vec())
                .unwrap_or_default(),
        }),
    )
}

/// The work-stealing loop: a shared ready queue of `(work index, island)`
/// tasks, per-workload generation barriers, termination via an outstanding
/// task counter.
fn run_scheduler(run: &Run<'_>, work: &[&WorkState]) {
    let config = run.config;
    let queue: Mutex<VecDeque<(usize, usize)>> = Mutex::new(
        (0..work.len())
            .flat_map(|ci| (0..config.islands).map(move |i| (ci, i)))
            .collect(),
    );
    let ready = Condvar::new();
    let outstanding = AtomicUsize::new(work.len() * config.islands * config.generations);
    let workers = if config.threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        config.threads
    }
    .max(1);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Steal the next ready island task, or exit once every
                // island-generation in the run has been processed.
                let task = {
                    let mut q = lock_unpoisoned(&queue);
                    loop {
                        if let Some(t) = q.pop_front() {
                            break Some(t);
                        }
                        if outstanding.load(Ordering::SeqCst) == 0 {
                            break None;
                        }
                        q = wait_unpoisoned(&ready, q);
                    }
                };
                let Some((ci, island_idx)) = task else {
                    return;
                };
                let w = work[ci];
                let gen = w.done_gens.load(Ordering::SeqCst);
                let valid = {
                    let mut island = lock_unpoisoned(&w.islands[island_idx]);
                    run_generation(run, w, &mut island, gen, island_idx)
                };
                w.valid_in_gen.fetch_add(valid, Ordering::SeqCst);
                // Generation barrier: the last island of this generation
                // migrates elites and releases the next generation.
                if w.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                    let done = w.done_gens.fetch_add(1, Ordering::SeqCst) + 1;
                    let valid_total = w.valid_in_gen.swap(0, Ordering::SeqCst);
                    let failed = if valid_total == 0 {
                        w.failed_gens.fetch_add(1, Ordering::SeqCst) + 1
                    } else {
                        w.failed_gens.store(0, Ordering::SeqCst);
                        0
                    };
                    run.write_checkpoint();
                    if done < config.generations {
                        if failed >= DEMOTE_AFTER {
                            // Demote: cancel the remaining generations —
                            // burning the rest of the budget on a workload
                            // that cannot produce a valid candidate starves
                            // the healthy ones. The collection phase falls
                            // back to the baseline sequence.
                            w.demoted.store(true, Ordering::SeqCst);
                            let skipped = (config.generations - done) * config.islands;
                            outstanding.fetch_sub(skipped, Ordering::SeqCst);
                        } else {
                            if config.migration_interval > 0
                                && config.islands > 1
                                && done.is_multiple_of(config.migration_interval)
                            {
                                migrate_ring(w);
                            }
                            w.remaining.store(config.islands, Ordering::SeqCst);
                            let mut q = lock_unpoisoned(&queue);
                            q.extend((0..config.islands).map(|i| (ci, i)));
                            drop(q);
                            ready.notify_all();
                        }
                    }
                }
                if outstanding.fetch_sub(1, Ordering::SeqCst) == 1 {
                    ready.notify_all();
                }
            });
        }
    });
}

/// Evolve one island of `w` by one generation. Deterministic in the
/// island's RNG state and population; costs exactly `config.population`
/// budget. Returns the number of valid (Ok) evaluations, for the demotion
/// policy.
fn run_generation(
    run: &Run<'_>,
    w: &WorkState,
    island: &mut IslandState,
    gen: usize,
    island_idx: usize,
) -> usize {
    let config = run.config;
    let mut valid = 0usize;
    let mut eval = |island: &mut IslandState, c: &Candidate| -> Option<u64> {
        let (r, cost) = run.measure(w, c);
        island.cost += cost;
        valid += usize::from(r.is_ok());
        r.ok()
    };

    if gen == 0 {
        // Initial population: island 0 carries the rejected prediction (if
        // any) plus the known-good anchors; every island fills up with its
        // own random candidates.
        let mut init: Vec<Candidate> = Vec::with_capacity(config.population);
        if island_idx == 0 {
            init.extend(w.seed.clone());
            init.extend(anchor_candidates());
            init.truncate(config.population);
        }
        while init.len() < config.population {
            init.push(random_candidate(&mut island.rng, MAX_DEPTH));
        }
        island.pop = init
            .into_iter()
            .map(|c| {
                let f = eval(island, &c);
                (c, f)
            })
            .collect();
        sort_pop(&mut island.pop);
    } else {
        // Accept the ring migrant (already measured by the donor island).
        if let Some(m) = island.incoming.take() {
            let worst = island.pop.len() - 1;
            island.pop[worst] = m;
            sort_pop(&mut island.pop);
        }
        // μ+λ: breed `population` children, keep the best `population` of
        // parents ∪ children (stable sort: parents win ties).
        let mut children: Vec<(Candidate, Option<u64>)> = Vec::with_capacity(config.population);
        for _ in 0..config.population {
            let p1 = tournament(&mut island.rng, &island.pop);
            let p2 = tournament(&mut island.rng, &island.pop);
            let mut child = if island.rng.gen_bool(0.7) {
                crossover(&mut island.rng, &p1, &p2, MAX_DEPTH)
            } else {
                p1.clone()
            };
            if island.rng.gen_bool(0.9) {
                child = mutate(&mut island.rng, &child, MAX_DEPTH);
            }
            let f = eval(island, &child);
            children.push((child, f));
        }
        island.pop.append(&mut children);
        sort_pop(&mut island.pop);
        island.pop.truncate(config.population);
    }
    // Track the island best (first-found wins ties: deterministic, since
    // evaluation order is).
    for (c, f) in &island.pop {
        if let Some(v) = f {
            if island.best.as_ref().is_none_or(|(_, b)| v < b) {
                island.best = Some((c.clone(), *v));
            }
        }
    }
    valid
}

/// Stable best-first order; invalid candidates (`None`) sink to the back.
fn sort_pop(pop: &mut [(Candidate, Option<u64>)]) {
    pop.sort_by_key(|(_, f)| f.unwrap_or(u64::MAX));
}

/// Tournament selection (size 3) over the island's population.
fn tournament(rng: &mut StdRng, pop: &[(Candidate, Option<u64>)]) -> Candidate {
    let fitness = |i: usize| pop[i].1.unwrap_or(u64::MAX);
    let mut best = rng.gen_range(0..pop.len());
    for _ in 1..3 {
        let i = rng.gen_range(0..pop.len());
        if fitness(i) < fitness(best) {
            best = i;
        }
    }
    pop[best].0.clone()
}

/// Ring migration at a generation barrier: island `i`'s best population
/// member moves to island `i+1 (mod n)`'s inbox. Runs with every island of
/// the workload quiescent, in island-index order — fully deterministic.
fn migrate_ring(w: &WorkState) {
    let n = w.islands.len();
    let elites: Vec<Option<(Candidate, Option<u64>)>> = (0..n)
        .map(|i| {
            let s = lock_unpoisoned(&w.islands[i]);
            s.pop.first().cloned()
        })
        .collect();
    for (i, elite) in elites.into_iter().enumerate() {
        if let Some(e) = elite {
            lock_unpoisoned(&w.islands[(i + 1) % n]).incoming = Some(e);
        }
    }
}

/// A candidate in canonical form (aliases resolved, no-ops dropped) — what
/// the tune database stores and reports present.
fn canonical_candidate(c: &Candidate) -> Candidate {
    Candidate {
        passes: canonicalize_sequence(&c.passes),
        inline_threshold: c.inline_threshold,
        unroll_threshold: c.unroll_threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cheap synthetic fitness: deterministic pure function of
    /// (fingerprint, canonical candidate) — the documented contract.
    fn synthetic(fp: u64, c: &Candidate) -> EvalResult {
        let canon = canonicalize_sequence(&c.passes);
        let mut score = 10_000 + (fp % 7) * 100;
        if canon.first() == Some(&"mem2reg") {
            score -= 4_000;
        }
        if canon.contains(&"inline") {
            score -= 3_000;
        }
        score += canon.len() as u64 * 10;
        score += (c.inline_threshold as u64) % 13;
        if canon.contains(&"licm") {
            return Err(FailureClass::Divergence); // exercise the failure path
        }
        Ok(score)
    }

    fn targets(n: usize) -> Vec<TuneTarget> {
        (0..n)
            .map(|i| TuneTarget::new(format!("w{i}"), 0x1000 + i as u64))
            .collect()
    }

    fn run(cfg: &ServiceConfig, db: &mut TuneDb, n: usize) -> ServiceReport {
        let ts = targets(n);
        tune_suite(cfg, &ts, db, |widx, c| synthetic(ts[widx].fingerprint, c))
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("zkvmopt-service-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn spends_exactly_the_budget_and_finds_good_candidates() {
        let cfg = ServiceConfig {
            threads: 4,
            ..Default::default()
        };
        let mut db = TuneDb::in_memory();
        let r = run(&cfg, &mut db, 3);
        assert_eq!(r.workloads.len(), 3);
        assert_eq!(r.evaluated, 3 * cfg.budget_per_workload());
        assert_eq!(r.db_hits, 0);
        assert_eq!(r.db_updates, 3);
        assert_eq!(r.demoted, 0);
        for w in &r.workloads {
            assert!(!w.warm_started);
            assert_eq!(w.evaluated, cfg.budget_per_workload());
            assert_eq!(w.evaluated, w.fitness_evals + w.cache_hits);
            let f = w.best_fitness.expect("found a valid candidate");
            assert!(f < 7_000, "search should beat the random floor, got {f}");
            assert!(!w.best.as_ref().unwrap().passes.contains(&"licm"));
            assert_eq!(db.get(w.fingerprint).unwrap().cycles, f);
            // Every licm-bearing candidate landed in quarantine, classed.
            assert!(w.quarantine_total >= w.quarantined.len());
            for q in &w.quarantined {
                assert_eq!(q.class, FailureClass::Divergence);
                assert!(q.candidate.passes.contains(&"licm"));
            }
        }
    }

    /// The satellite regression test: two multi-threaded runs with one
    /// pinned seed must produce bit-identical tune databases — thread
    /// scheduling can influence throughput counters only, never results.
    #[test]
    fn four_thread_runs_with_equal_seed_produce_identical_databases() {
        let cfg = ServiceConfig {
            islands: 3,
            population: 6,
            generations: 6,
            threads: 4,
            seed: 0xFEED,
            ..Default::default()
        };
        let mut runs = Vec::new();
        for threads in [4, 4, 1, 8] {
            let cfg = ServiceConfig {
                threads,
                ..cfg.clone()
            };
            let mut db = TuneDb::in_memory();
            let r = run(&cfg, &mut db, 4);
            runs.push((db.to_string_pretty(), r));
        }
        for (text, r) in &runs[1..] {
            assert_eq!(
                *text, runs[0].0,
                "tune database must not depend on thread count"
            );
            for (a, b) in r.workloads.iter().zip(&runs[0].1.workloads) {
                assert_eq!(a.best, b.best);
                assert_eq!(a.best_fitness, b.best_fitness);
                assert_eq!(a.evaluated, b.evaluated);
                assert_eq!(a.quarantine_total, b.quarantine_total, "{}", a.name);
                assert_eq!(a.quarantined, b.quarantined, "{}", a.name);
            }
        }
    }

    #[test]
    fn different_seeds_search_differently() {
        let mut dbs = Vec::new();
        for seed in [1u64, 2] {
            let cfg = ServiceConfig {
                seed,
                threads: 2,
                generations: 3,
                ..Default::default()
            };
            let mut db = TuneDb::in_memory();
            run(&cfg, &mut db, 2);
            dbs.push(db.to_string_pretty());
        }
        assert_ne!(dbs[0], dbs[1], "seed must steer the search");
    }

    /// Warm start: a populated database answers instantly — zero budget,
    /// zero fitness calls, result identical to what was stored.
    #[test]
    fn warm_start_skips_search_with_zero_evaluations() {
        let cfg = ServiceConfig {
            threads: 4,
            ..Default::default()
        };
        let mut db = TuneDb::in_memory();
        let cold = run(&cfg, &mut db, 3);
        assert_eq!(db.len(), 3);

        let warm = run(&cfg, &mut db, 3);
        assert_eq!(warm.db_hits, 3);
        assert_eq!(warm.evaluated, 0, "no budget spent");
        assert_eq!(warm.fitness_evals, 0, "zero redundant fitness evaluations");
        assert_eq!(warm.db_updates, 0);
        for (c, w) in cold.workloads.iter().zip(&warm.workloads) {
            assert!(w.warm_started);
            assert_eq!(w.best_fitness, c.best_fitness);
            assert_eq!(w.best, c.best);
        }
    }

    /// Duplicate programs (equal fingerprints) share the fitness cache
    /// across workloads: the second copy's search runs almost entirely on
    /// cache hits in single-threaded mode.
    #[test]
    fn equal_fingerprints_share_the_cache_across_workloads() {
        let cfg = ServiceConfig {
            threads: 1,
            generations: 3,
            ..Default::default()
        };
        let ts = vec![TuneTarget::new("a", 42), TuneTarget::new("b", 42)];
        let mut db = TuneDb::in_memory();
        let r = tune_suite(&cfg, &ts, &mut db, |_, c| synthetic(42, c));
        let (a, b) = (&r.workloads[0], &r.workloads[1]);
        // Identical RNG streams (same fingerprint) generate identical
        // candidates, so the clone is served from the cache wholesale.
        assert_eq!(b.fitness_evals, 0, "duplicate program re-measured");
        assert_eq!(a.best_fitness, b.best_fitness);
        assert_eq!(r.db_hits, 0);
        assert_eq!(db.len(), 1, "one fingerprint, one entry");
    }

    #[test]
    fn stale_db_entries_with_unknown_passes_are_researched() {
        let cfg = ServiceConfig {
            threads: 2,
            generations: 2,
            ..Default::default()
        };
        let ts = targets(1);
        let mut db = TuneDb::in_memory();
        db.record(TuneDbEntry {
            fingerprint: ts[0].fingerprint,
            passes: vec!["a-pass-that-never-existed".into()],
            inline_threshold: 1,
            unroll_threshold: 1,
            cycles: 1, // "unbeatably good", but unusable
            baseline_cycles: 0,
            features: Vec::new(),
        });
        let r = tune_suite(&cfg, &ts, &mut db, |widx, c| {
            synthetic(ts[widx].fingerprint, c)
        });
        assert_eq!(r.db_hits, 0, "stale entry must not warm-start");
        assert!(r.fitness_evals > 0);
        assert!(r.workloads[0].best.is_some());
    }

    /// One island, one thread, no migration is a plain single-population
    /// GA — the sequential oracle the island geometries are compared with —
    /// and is itself thread-count independent.
    #[test]
    fn single_island_single_thread_degenerates_to_a_plain_ga() {
        let cfg = ServiceConfig {
            islands: 1,
            population: 4,
            generations: 4,
            threads: 1,
            migration_interval: 0,
            ..Default::default()
        };
        let mut db = TuneDb::in_memory();
        let r = run(&cfg, &mut db, 1);
        assert_eq!(r.evaluated, 16);
        assert!(r.workloads[0].best_fitness.is_some());

        let mut wide = TuneDb::in_memory();
        let cfg4 = ServiceConfig { threads: 4, ..cfg };
        let r4 = run(&cfg4, &mut wide, 1);
        assert_eq!(wide.to_string_pretty(), db.to_string_pretty());
        assert_eq!(r4.workloads[0].best, r.workloads[0].best);
    }

    /// Migration must help search: an island that never finds the good
    /// region imports the elite from one that does. With migration off the
    /// islands stay independent (weaker coupling is at least not *worse*
    /// when fitness is unimodal — here we just pin behaviour: results stay
    /// deterministic and valid either way).
    #[test]
    fn migration_interval_zero_disables_migration_deterministically() {
        for interval in [0usize, 1, 3] {
            let cfg = ServiceConfig {
                islands: 2,
                population: 4,
                generations: 4,
                migration_interval: interval,
                threads: 3,
                ..Default::default()
            };
            let mut a = TuneDb::in_memory();
            let mut b = TuneDb::in_memory();
            let ra = run(&cfg, &mut a, 2);
            let rb = run(&cfg, &mut b, 2);
            assert_eq!(
                a.to_string_pretty(),
                b.to_string_pretty(),
                "interval {interval}"
            );
            assert_eq!(ra.evaluated, rb.evaluated);
        }
    }

    /// A workload whose evaluations always fail is demoted after
    /// [`DEMOTE_AFTER`] consecutive empty generations instead of burning its
    /// whole budget, and falls back to the baseline sequence when even that
    /// is all the run ever measured. Healthy workloads are untouched.
    #[test]
    fn hopeless_workloads_are_demoted_and_fall_back_to_baseline() {
        let cfg = ServiceConfig {
            islands: 2,
            population: 4,
            generations: 6,
            threads: 3,
            ..Default::default()
        };
        let ts = targets(2);
        let poisoned = ts[1].fingerprint;
        let mut db = TuneDb::in_memory();
        let r = tune_suite(&cfg, &ts, &mut db, |widx, c| {
            if ts[widx].fingerprint == poisoned {
                // Baseline (empty sequence) still works: demotion has a
                // fallback to land on. Everything else traps.
                if canonicalize_sequence(&c.passes).is_empty() {
                    Ok(77_777)
                } else {
                    Err(FailureClass::Trap)
                }
            } else {
                synthetic(ts[widx].fingerprint, c)
            }
        });

        let healthy = &r.workloads[0];
        assert!(!healthy.demoted);
        assert_eq!(healthy.evaluated, cfg.budget_per_workload());

        let sick = &r.workloads[1];
        assert!(sick.demoted, "all-failing workload must demote");
        assert!(
            sick.evaluated < cfg.budget_per_workload(),
            "demotion must cancel the remaining budget ({} evals)",
            sick.evaluated
        );
        assert_eq!(r.demoted, 1);
        let best = sick.best.as_ref().expect("baseline fallback");
        assert!(best.passes.is_empty(), "fallback is the empty sequence");
        assert_eq!(sick.best_fitness, Some(77_777));
        assert_eq!(db.get(poisoned).unwrap().cycles, 77_777);
        assert!(sick.quarantine_total > 0, "failures were quarantined");
    }

    /// Even a workload with **no** valid outcome at all (baseline included)
    /// completes with `best: None` — the service degrades, never hangs or
    /// panics.
    #[test]
    fn totally_hostile_workloads_complete_with_no_best() {
        let cfg = ServiceConfig {
            islands: 2,
            population: 3,
            generations: 5,
            threads: 2,
            ..Default::default()
        };
        let ts = targets(1);
        let mut db = TuneDb::in_memory();
        let r = tune_suite(&cfg, &ts, &mut db, |_, _c| {
            Err::<u64, _>(FailureClass::Codegen)
        });
        let w = &r.workloads[0];
        assert!(w.demoted);
        assert_eq!(w.best, None);
        assert_eq!(w.best_fitness, None);
        assert!(db.is_empty(), "nothing valid, nothing recorded");
    }

    /// A panicking fitness function (raw `panic!`, no fault plan) is
    /// isolated: the run completes, the panics class as `Panic`, and the
    /// panicking candidates are quarantined.
    #[test]
    fn raw_panics_in_fitness_are_isolated_and_classified() {
        let cfg = ServiceConfig {
            islands: 2,
            population: 4,
            generations: 3,
            threads: 2,
            ..Default::default()
        };
        let ts = targets(1);
        let mut db = TuneDb::in_memory();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let r = tune_suite(&cfg, &ts, &mut db, |widx, c| {
            if canonicalize_sequence(&c.passes).contains(&"gvn") {
                panic!("evaluator bug");
            }
            synthetic(ts[widx].fingerprint, c)
        });
        std::panic::set_hook(prev);
        let w = &r.workloads[0];
        assert!(w.best.is_some(), "search survives panicking candidates");
        assert!(!w.best.as_ref().unwrap().passes.contains(&"gvn"));
        assert!(
            w.quarantined.iter().any(|q| q.class == FailureClass::Panic),
            "panics must be classified and quarantined"
        );
    }

    /// Checkpoint/resume at the unit level: a completed run leaves a
    /// checkpoint holding every evaluation; a second run with the same
    /// configuration resumes from it and needs **zero** fitness calls to
    /// produce the bit-identical database. A corrupted checkpoint degrades
    /// to a partial resume, never a wrong result.
    #[test]
    fn resume_from_checkpoint_repeats_no_evaluations() {
        let dir = tmpdir("resume");
        let ckpt = dir.join("run.ckpt");
        let cfg = ServiceConfig {
            islands: 2,
            population: 5,
            generations: 4,
            threads: 3,
            checkpoint_path: Some(ckpt.clone()),
            ..Default::default()
        };
        let mut db1 = TuneDb::in_memory();
        let first = run(&cfg, &mut db1, 2);
        assert_eq!(first.checkpoint_status, CheckpointStatus::Absent);
        assert!(first.fitness_evals > 0);
        assert!(ckpt.exists(), "barriers must have written the checkpoint");

        let mut db2 = TuneDb::in_memory();
        let resumed = run(&cfg, &mut db2, 2);
        assert!(matches!(
            resumed.checkpoint_status,
            CheckpointStatus::Loaded { .. }
        ));
        assert!(resumed.resumed_entries > 0);
        assert_eq!(
            resumed.fitness_evals, 0,
            "a full checkpoint answers every evaluation"
        );
        assert_eq!(db2.to_string_pretty(), db1.to_string_pretty());

        // Corrupt the checkpoint: tail lines survive, the run completes
        // with the same database.
        let text = std::fs::read_to_string(&ckpt).unwrap();
        let keep = text.lines().count() / 2;
        let mut torn: String = text.lines().take(keep).collect::<Vec<_>>().join("\n");
        torn.push_str("\ntorn-li");
        std::fs::write(&ckpt, torn).unwrap();
        let mut db4 = TuneDb::in_memory();
        let salvaged = run(&cfg, &mut db4, 2);
        assert!(matches!(
            salvaged.checkpoint_status,
            CheckpointStatus::Recovered { .. }
        ));
        assert!(salvaged.resumed_entries > 0);
        assert_eq!(db4.to_string_pretty(), db1.to_string_pretty());

        // A different seed must reject the checkpoint (digest mismatch)
        // rather than resume a different search from it.
        let mut db3 = TuneDb::in_memory();
        let other = run(
            &ServiceConfig {
                seed: cfg.seed + 1,
                ..cfg.clone()
            },
            &mut db3,
            2,
        );
        assert_eq!(other.checkpoint_status, CheckpointStatus::Mismatch);
        assert!(other.fitness_evals > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn fv(x: f64) -> FeatureVector {
        let mut raw = vec![0.5; zkvmopt_ir::FEATURE_DIM];
        raw[0] = x;
        FeatureVector::from_slice(&raw).unwrap()
    }

    /// The synthetic `-O3` reference: the do-nothing score of [`synthetic`],
    /// comfortably above any tuned result (ratio < 1).
    fn synthetic_baseline(fp: u64) -> u64 {
        10_000 + (fp % 7) * 100
    }

    /// Targets with prediction metadata: feature coordinate `i` on axis 0,
    /// baseline from [`synthetic_baseline`].
    fn predictable_targets(n: usize) -> Vec<TuneTarget> {
        (0..n)
            .map(|i| {
                let fp = 0x1000 + i as u64;
                TuneTarget::new(format!("w{i}"), fp)
                    .with_prediction(fv(i as f64), synthetic_baseline(fp))
            })
            .collect()
    }

    /// Predict-first end to end: a database populated by real searches
    /// serves a similar unseen program with exactly one fitness evaluation.
    #[test]
    fn predicted_hit_serves_with_one_evaluation() {
        let cfg = ServiceConfig {
            threads: 2,
            generations: 3,
            ..Default::default()
        };
        let ts = predictable_targets(3);
        let mut db = TuneDb::in_memory();
        tune_suite(&cfg, &ts, &mut db, |widx, c| {
            synthetic(ts[widx].fingerprint, c)
        });
        assert_eq!(db.len(), 3);
        for e in db.iter() {
            assert!(!e.features.is_empty(), "searches record features");
            assert_eq!(e.baseline_cycles, synthetic_baseline(e.fingerprint));
        }

        // An unseen program shaped like w0 (same features, same fp % 7 so
        // the synthetic fitness behaves identically): the predictor lifts
        // w0's sequence and the one measurement lands inside the margin.
        let fp_new = 0x1000 + 7;
        let unseen =
            vec![TuneTarget::new("unseen", fp_new)
                .with_prediction(fv(0.0), synthetic_baseline(fp_new))];
        let pcfg = ServiceConfig {
            predict: true,
            ..cfg.clone()
        };
        let r = tune_suite(&pcfg, &unseen, &mut db, |_, c| synthetic(fp_new, c));
        assert_eq!(r.predicted_hits, 1);
        assert_eq!(r.db_hits, 0);
        let w = &r.workloads[0];
        assert!(w.predicted);
        assert!(!w.warm_started);
        assert_eq!(w.evaluated, 1, "one measurement, no search");
        assert_eq!(w.fitness_evals, 1);
        assert_eq!(
            w.best,
            db.get(0x1000).map(|e| Candidate {
                passes: e
                    .passes
                    .iter()
                    .map(|p| zkvmopt_passes::find_pass(p).unwrap().canonical_name())
                    .collect(),
                inline_threshold: e.inline_threshold,
                unroll_threshold: e.unroll_threshold,
            }),
            "served w0's tuning"
        );
        let e = db.get(fp_new).expect("accepted prediction recorded");
        assert_eq!(Some(e.cycles), w.best_fitness);
        assert_eq!(e.baseline_cycles, synthetic_baseline(fp_new));
        assert!(!e.features.is_empty());

        // Second visit: now a plain warm start.
        let again = tune_suite(&pcfg, &unseen, &mut db, |_, c| synthetic(fp_new, c));
        assert_eq!(again.db_hits, 1);
        assert_eq!(again.predicted_hits, 0);
        assert_eq!(again.evaluated, 0);
    }

    /// A rejected prediction costs its one measurement, then seeds the
    /// genetic search instead of replacing it.
    #[test]
    fn rejected_prediction_seeds_the_search() {
        let cfg = ServiceConfig {
            threads: 2,
            generations: 3,
            ..Default::default()
        };
        let ts = predictable_targets(3);
        let mut db = TuneDb::in_memory();
        tune_suite(&cfg, &ts, &mut db, |widx, c| {
            synthetic(ts[widx].fingerprint, c)
        });

        // A program whose behaviour defies its neighbours: every candidate
        // measures 50 000 cycles, far outside the accepted ratio band.
        let fp_new = 0x1000 + 14;
        let unseen =
            vec![TuneTarget::new("defiant", fp_new)
                .with_prediction(fv(0.0), synthetic_baseline(fp_new))];
        let pcfg = ServiceConfig {
            predict: true,
            ..cfg.clone()
        };
        let r = tune_suite(&pcfg, &unseen, &mut db, |_, _c| Ok(50_000));
        assert_eq!(r.predicted_hits, 0);
        let w = &r.workloads[0];
        assert!(!w.predicted);
        assert_eq!(
            w.evaluated,
            pcfg.budget_per_workload() + 1,
            "full search plus the rejected measurement"
        );
        assert_eq!(w.evaluated, w.fitness_evals + w.cache_hits);
        assert_eq!(w.best_fitness, Some(50_000));
        assert_eq!(db.get(fp_new).unwrap().cycles, 50_000);
    }

    /// Predict-first determinism: with one pre-populated database, runs at
    /// 1, 4, and 8 threads produce bit-identical databases and results —
    /// the satellite acceptance gate.
    #[test]
    fn predict_first_is_deterministic_across_thread_counts() {
        let warm_cfg = ServiceConfig {
            threads: 2,
            generations: 3,
            seed: 0xFEED,
            ..Default::default()
        };
        let seed_ts = predictable_targets(3);
        // Mixed phase-2 suite: one predictable hit, one defiant miss.
        let unseen: Vec<TuneTarget> = vec![
            TuneTarget::new("hit", 0x1000 + 7)
                .with_prediction(fv(0.0), synthetic_baseline(0x1000 + 7)),
            TuneTarget::new("miss", 0x2111).with_prediction(fv(1.0), synthetic_baseline(0x2111)),
        ];
        let fitness = |widx: usize, c: &Candidate| -> EvalResult {
            if unseen[widx].fingerprint == 0x2111 {
                Ok(60_000)
            } else {
                synthetic(unseen[widx].fingerprint, c)
            }
        };
        let mut runs = Vec::new();
        for threads in [1usize, 4, 8] {
            let mut db = TuneDb::in_memory();
            tune_suite(&warm_cfg, &seed_ts, &mut db, |widx, c| {
                synthetic(seed_ts[widx].fingerprint, c)
            });
            let pcfg = ServiceConfig {
                threads,
                predict: true,
                ..warm_cfg.clone()
            };
            let r = tune_suite(&pcfg, &unseen, &mut db, fitness);
            assert_eq!(r.predicted_hits, 1, "threads={threads}");
            runs.push((db.to_string_pretty(), r));
        }
        for (text, r) in &runs[1..] {
            assert_eq!(*text, runs[0].0, "db must not depend on thread count");
            for (a, b) in r.workloads.iter().zip(&runs[0].1.workloads) {
                assert_eq!(a.best, b.best, "{}", a.name);
                assert_eq!(a.best_fitness, b.best_fitness, "{}", a.name);
                assert_eq!(a.predicted, b.predicted, "{}", a.name);
                assert_eq!(a.evaluated, b.evaluated, "{}", a.name);
            }
        }
    }

    /// Each fitness call sees its search's post-pass memo, and only its
    /// search's: on one thread the hits are exactly the calls whose
    /// "post-pass" key (here the canonical length) the search had already
    /// seen, and a second search starts from an empty memo.
    #[test]
    fn fitness_calls_share_one_postpass_memo_per_search() {
        let cfg = ServiceConfig {
            threads: 1,
            generations: 3,
            ..Default::default()
        };
        let ts = targets(2);
        let search = || {
            let keys = Mutex::new(Vec::new());
            let r = tune_suite(&cfg, &ts, &mut TuneDb::in_memory(), |widx, c| {
                let memo = crate::current_postpass_memo().expect("inside a search");
                let key = (ts[widx].fingerprint, canonicalize_sequence(&c.passes).len());
                keys.lock().unwrap().push(key);
                memo.get_or_compute(key.0, key.1 as u64, || Ok(10_000 - key.1 as u64))
            });
            let keys = keys.into_inner().unwrap();
            assert_eq!(keys.len(), r.fitness_evals);
            let distinct: std::collections::BTreeSet<_> = keys.iter().collect();
            assert_eq!(r.postpass_hits, keys.len() - distinct.len());
            assert!(r.postpass_hits > 0);
            r.postpass_hits
        };
        assert_eq!(search(), search(), "no memo state outlives a search");
        assert!(crate::current_postpass_memo().is_none());
    }

    /// The in-report quarantine: every cached failure, classed, in key
    /// order, and identical across reruns and thread counts.
    #[test]
    fn quarantine_is_complete_and_deterministic() {
        let runs: Vec<ServiceReport> = [2, 2, 1]
            .map(|threads| {
                let cfg = ServiceConfig {
                    islands: 2,
                    population: 6,
                    generations: 3,
                    threads,
                    ..Default::default()
                };
                run(&cfg, &mut TuneDb::in_memory(), 2)
            })
            .into();
        let r = &runs[0];
        assert!(r.quarantine_total > 0);
        let per_workload: usize = r.workloads.iter().map(|w| w.quarantine_total).sum();
        assert_eq!(r.quarantine_total, per_workload);
        for w in &r.workloads {
            assert_eq!(w.quarantined.len(), w.quarantine_total.min(QUARANTINE_CAP));
            assert!(w.quarantined.iter().all(
                |q| q.class == FailureClass::Divergence && q.candidate.passes.contains(&"licm")
            ));
            let keys: Vec<FitnessKey> = w
                .quarantined
                .iter()
                .map(|q| FitnessKey::of(w.fingerprint, &q.candidate))
                .collect();
            assert!(keys.is_sorted(), "{}: key order", w.name);
        }
        for again in &runs[1..] {
            assert_eq!(again.quarantine_total, r.quarantine_total);
            for (a, b) in again.workloads.iter().zip(&r.workloads) {
                assert_eq!(a.quarantined, b.quarantined, "{}", a.name);
            }
        }
    }

    /// Every outcome is final: a fitness that traps on its first call for a
    /// key and succeeds afterwards is called once per key, and the trap is
    /// what the quarantine holds and the database does not.
    #[test]
    fn a_failed_evaluation_is_final() {
        let cfg = ServiceConfig {
            islands: 2,
            population: 4,
            generations: 3,
            threads: 1, // no two calls can race for one key
            ..Default::default()
        };
        let ts = targets(1);
        let trapped = canonicalize_sequence(&anchor_candidates()[0].passes);
        let calls: Mutex<Vec<FitnessKey>> = Mutex::new(Vec::new());
        let mut db = TuneDb::in_memory();
        let r = tune_suite(&cfg, &ts, &mut db, |widx, c| {
            let key = FitnessKey::of(ts[widx].fingerprint, c);
            let mut calls = calls.lock().unwrap();
            let first = !calls.contains(&key);
            calls.push(key);
            if first && canonicalize_sequence(&c.passes) == trapped {
                return Err(FailureClass::Trap);
            }
            synthetic(ts[widx].fingerprint, c)
        });
        let calls = calls.into_inner().unwrap();
        let distinct: std::collections::BTreeSet<&FitnessKey> = calls.iter().collect();
        assert_eq!(distinct.len(), calls.len(), "one fitness call per key");
        assert_eq!(r.fitness_evals, calls.len());
        assert_eq!(r.retries, 0);
        let w = &r.workloads[0];
        assert_eq!(w.evaluated, w.fitness_evals + w.cache_hits);
        assert!(
            w.quarantined
                .iter()
                .any(|q| q.class == FailureClass::Trap && q.candidate.passes == trapped),
            "the trap is the outcome the quarantine holds"
        );
        let best = w.best.as_ref().expect("the search found a valid candidate");
        assert_ne!(
            best.passes, trapped,
            "the trapped candidate is not the best"
        );
        let stored = db.get(w.fingerprint).unwrap();
        assert_eq!(Some(stored.cycles), w.best_fitness);
        assert_ne!(
            stored.passes, trapped,
            "the database holds no trapped candidate"
        );
    }
}
