//! O(db) pass-sequence prediction over the feature-indexed tune database.
//!
//! The [`TuneDb`] answers *exact* repeats (same fingerprint → warm start);
//! this module answers *similar* programs. Schema-2 entries carry the
//! program's structural [`FeatureVector`] and its
//! `-O3` baseline cycles, which turns the database into a labelled training
//! set: "programs shaped like this were best served by that sequence, at
//! this fraction of their baseline cost". A [`Predictor`] fit over the
//! database predicts a full `(passes, inline_threshold, unroll_threshold)`
//! candidate for an unseen program with **no engine execution** — the
//! O(1)-per-program amortization tier the paper's service model calls for.
//!
//! ## Model
//!
//! Deliberately simple and fully deterministic:
//!
//! 1. **Fit** (once per database): collect every entry with a
//!    current-dimension feature vector, a known baseline, and a still-valid
//!    pass sequence; fit per-dimension mean/σ ([`zkvmopt_stats::column_stats`])
//!    and z-score every stored vector so no raw scale dominates.
//! 2. **Predict** (per program): z-score the query with the *fitted*
//!    parameters, rank examples by Euclidean distance (ties broken by
//!    fingerprint), and let the `k` nearest vote for their canonical pass
//!    sequence with weight `1 / (distance + ε)`. The winning sequence's
//!    nearest voter supplies the thresholds, and the vote's weighted mean
//!    `cycles / baseline` ratio becomes the prediction's
//!    [`expected_ratio`](Prediction::expected_ratio) — the quality bar the
//!    service's acceptance test measures against.
//! 3. **Fallback**: an empty (or all-stale) database predicts the canonical
//!    `-O3` pipeline with default thresholds — always a sound answer, never
//!    a guess about quality (`expected_ratio: None`).
//!
//! Fit is O(db · dim); each prediction is O(db · dim + db log db) with a
//! tiny constant — microseconds against a database of hundreds, which is
//! what lets a service answer most programs without ever running the
//! genetic search (see `tune_suite`'s predict-first mode).

use crate::db::{TuneDb, TuneDbEntry};
use crate::{canonicalize_sequence, Candidate};
use zkvmopt_ir::{FeatureVector, FEATURE_DIM};
use zkvmopt_passes::{find_pass, PassConfig, PassManager};

/// Default number of neighbours consulted per prediction.
pub const DEFAULT_K: usize = 3;

/// Tie-breaker added to every neighbour distance so an exact feature match
/// (distance 0) gets a large-but-finite weight instead of a division by 0.
const DISTANCE_EPSILON: f64 = 1e-9;

/// One predicted tuning: a complete candidate plus the model's own estimate
/// of how good it should be.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The predicted candidate (canonical sequence, tuned thresholds).
    pub candidate: Candidate,
    /// The voters' weighted mean `cycles / baseline_cycles` — what fraction
    /// of a program's `-O3` baseline the winning sequence achieved on the
    /// programs that elected it. `None` for the `-O3` fallback: the model
    /// has no evidence to promise quality with.
    pub expected_ratio: Option<f64>,
    /// Neighbours consulted (≤ k; 0 for the fallback).
    pub neighbors: usize,
    /// Neighbours that voted for the winning sequence.
    pub votes: usize,
    /// Whether this is the no-evidence `-O3` fallback.
    pub fallback: bool,
}

/// One usable training example distilled from a database entry.
#[derive(Debug, Clone)]
struct Example {
    fingerprint: u64,
    /// Z-scored features (normalized at fit time with the global fit).
    zfeatures: Vec<f64>,
    candidate: Candidate,
    /// `cycles / baseline_cycles` of the stored tuning.
    ratio: f64,
}

/// A fitted k-NN sequence predictor. Immutable and deterministic: equal
/// databases fit equal predictors, and equal queries predict equal
/// candidates, at any thread count and in any process.
#[derive(Debug, Clone)]
pub struct Predictor {
    examples: Vec<Example>,
    means: Vec<f64>,
    sds: Vec<f64>,
    k: usize,
}

/// Rehydrate a stored entry into a canonical [`Candidate`]. `None` when a
/// stored pass name is no longer registered (stale database after a
/// registry change).
pub(crate) fn candidate_from_entry(e: &TuneDbEntry) -> Option<Candidate> {
    let passes: Option<Vec<&'static str>> = e
        .passes
        .iter()
        .map(|p| find_pass(p).map(|entry| entry.canonical_name()))
        .collect();
    Some(Candidate {
        passes: canonicalize_sequence(&passes?),
        inline_threshold: e.inline_threshold,
        unroll_threshold: e.unroll_threshold,
    })
}

/// The evidence-free fallback: the canonical `-O3` pipeline with the
/// default thresholds — the same answer a compiler gives every program it
/// has never seen.
pub fn o3_fallback() -> Candidate {
    let cfg = PassConfig::default();
    Candidate {
        passes: canonicalize_sequence(&PassManager::o3().names()),
        inline_threshold: cfg.inline_threshold,
        unroll_threshold: cfg.unroll_threshold,
    }
}

impl Predictor {
    /// Fit a predictor over every usable entry of `db`. `k = 0` is clamped
    /// to 1. Entries are skipped (degrading them to warm-start-only) when
    /// they carry no current-dimension features, no baseline, or a pass
    /// name the registry no longer knows.
    pub fn from_db(db: &TuneDb, k: usize) -> Predictor {
        Predictor::from_db_excluding(db, k, None)
    }

    /// [`Predictor::from_db`], excluding the entry with fingerprint
    /// `exclude` — the leave-one-out constructor `tests/tuner_service.rs`
    /// gates generalization with.
    pub fn from_db_excluding(db: &TuneDb, k: usize, exclude: Option<u64>) -> Predictor {
        let mut raw: Vec<(&TuneDbEntry, Candidate)> = Vec::new();
        for e in db.iter() {
            if Some(e.fingerprint) == exclude
                || e.features.len() != FEATURE_DIM
                || e.baseline_cycles == 0
            {
                continue;
            }
            if let Some(c) = candidate_from_entry(e) {
                raw.push((e, c));
            }
        }
        let rows: Vec<&[f64]> = raw.iter().map(|(e, _)| e.features.as_slice()).collect();
        let (means, sds) = zkvmopt_stats::column_stats(&rows);
        let examples = raw
            .into_iter()
            .map(|(e, candidate)| Example {
                fingerprint: e.fingerprint,
                zfeatures: normalize(&e.features, &means, &sds),
                candidate,
                ratio: e.cycles as f64 / e.baseline_cycles as f64,
            })
            .collect();
        Predictor {
            examples,
            means,
            sds,
            k: k.max(1),
        }
    }

    /// Number of training examples the fit kept.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Whether the fit kept no examples (every prediction falls back).
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Predict a full candidate for a program with the given features.
    /// Pure: no I/O, no engine execution, no randomness.
    pub fn predict(&self, features: &FeatureVector) -> Prediction {
        if self.examples.is_empty() {
            return Prediction {
                candidate: o3_fallback(),
                expected_ratio: None,
                neighbors: 0,
                votes: 0,
                fallback: true,
            };
        }
        let q = normalize(features.as_slice(), &self.means, &self.sds);
        // Rank every example by distance; fingerprint breaks exact ties so
        // the order (hence the vote) is deterministic.
        let mut scored: Vec<(f64, usize)> = self
            .examples
            .iter()
            .enumerate()
            .map(|(i, e)| (euclidean(&q, &e.zfeatures), i))
            .collect();
        scored.sort_by(|a, b| {
            a.0.total_cmp(&b.0).then_with(|| {
                self.examples[a.1]
                    .fingerprint
                    .cmp(&self.examples[b.1].fingerprint)
            })
        });
        let k = self.k.min(scored.len());

        // Distance-weighted vote, grouped by canonical sequence. Groups are
        // kept in nearest-first insertion order, so a weight tie elects the
        // group with the closest neighbour.
        struct Group {
            key: Vec<&'static str>,
            weight: f64,
            votes: usize,
            nearest: usize,
            ratio_weighted: f64,
        }
        let mut groups: Vec<Group> = Vec::new();
        for &(d, i) in &scored[..k] {
            let e = &self.examples[i];
            let w = 1.0 / (d + DISTANCE_EPSILON);
            match groups.iter_mut().find(|g| g.key == e.candidate.passes) {
                Some(g) => {
                    g.weight += w;
                    g.votes += 1;
                    g.ratio_weighted += w * e.ratio;
                }
                None => groups.push(Group {
                    key: e.candidate.passes.clone(),
                    weight: w,
                    votes: 1,
                    nearest: i,
                    ratio_weighted: w * e.ratio,
                }),
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "`examples` is non-empty here and `k` is at least 1, so one example voted"
        )]
        let winner = groups
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.weight.total_cmp(&b.weight).then(ib.cmp(ia)))
            .map(|(_, g)| g)
            .expect("k >= 1 examples voted");
        Prediction {
            candidate: self.examples[winner.nearest].candidate.clone(),
            expected_ratio: Some(winner.ratio_weighted / winner.weight),
            neighbors: k,
            votes: winner.votes,
            fallback: false,
        }
    }
}

/// Z-score `values` against the fitted per-dimension parameters. A constant
/// dimension (σ = 0) maps to 0 on both sides and contributes nothing to any
/// distance.
fn normalize(values: &[f64], means: &[f64], sds: &[f64]) -> Vec<f64> {
    values
        .iter()
        .enumerate()
        .map(|(i, &v)| zkvmopt_stats::zscore(v, means[i], sds[i]))
        .collect()
}

fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A db entry whose features put it at coordinate `x` on axis 0 (the
    /// remaining dimensions are constant, hence z-score-inert).
    fn entry(fp: u64, x: f64, cycles: u64, baseline: u64, passes: &[&str]) -> TuneDbEntry {
        let mut features = vec![0.5; FEATURE_DIM];
        features[0] = x;
        TuneDbEntry {
            fingerprint: fp,
            passes: passes.iter().map(|s| s.to_string()).collect(),
            inline_threshold: 100 + fp as usize,
            unroll_threshold: 200,
            cycles,
            baseline_cycles: baseline,
            features,
        }
    }

    fn fv(x: f64) -> FeatureVector {
        let mut raw = vec![0.5; FEATURE_DIM];
        raw[0] = x;
        FeatureVector::from_slice(&raw).unwrap()
    }

    #[test]
    fn empty_database_falls_back_to_o3() {
        let db = TuneDb::in_memory();
        let p = Predictor::from_db(&db, 3);
        assert!(p.is_empty());
        let pred = p.predict(&fv(1.0));
        assert!(pred.fallback);
        assert_eq!(pred.expected_ratio, None);
        assert_eq!(pred.neighbors, 0);
        assert_eq!(
            pred.candidate.passes,
            canonicalize_sequence(&PassManager::o3().names())
        );
        assert!(!pred.candidate.passes.is_empty());
    }

    #[test]
    fn nearest_neighbour_wins_and_supplies_thresholds() {
        let mut db = TuneDb::in_memory();
        db.record(entry(1, 0.0, 300, 1000, &["mem2reg", "gvn"]));
        db.record(entry(2, 10.0, 500, 1000, &["dce"]));
        let p = Predictor::from_db(&db, 1);
        assert_eq!(p.len(), 2);
        let near = p.predict(&fv(0.5));
        assert_eq!(near.candidate.passes, vec!["mem2reg", "gvn"]);
        assert_eq!(near.candidate.inline_threshold, 101, "voter's thresholds");
        let r = near.expected_ratio.unwrap();
        assert!((r - 0.3).abs() < 1e-9, "its recorded quality, got {r}");
        assert!(!near.fallback);
        let far = p.predict(&fv(9.5));
        assert_eq!(far.candidate.passes, vec!["dce"]);
        let r = far.expected_ratio.unwrap();
        assert!((r - 0.5).abs() < 1e-9, "got {r}");
    }

    /// Two agreeing moderate neighbours outvote one slightly-nearer loner
    /// when their combined weight wins — and a much nearer loner still wins:
    /// the vote is distance-*weighted*, not majority-ruled.
    #[test]
    fn votes_are_distance_weighted() {
        let mut db = TuneDb::in_memory();
        db.record(entry(1, 2.0, 400, 1000, &["gvn"]));
        db.record(entry(2, 4.0, 440, 1000, &["gvn"]));
        db.record(entry(3, 1.0, 300, 1000, &["mem2reg"]));
        let p = Predictor::from_db(&db, 3);

        // Query on top of the loner: weight ~1/ε dwarfs the pair.
        let on_loner = p.predict(&fv(1.0));
        assert_eq!(on_loner.candidate.passes, vec!["mem2reg"]);
        assert_eq!(on_loner.votes, 1);

        // Query amid the pair: their combined weight beats the loner.
        let amid_pair = p.predict(&fv(3.0));
        assert_eq!(amid_pair.candidate.passes, vec!["gvn"]);
        assert_eq!(amid_pair.votes, 2);
        assert_eq!(amid_pair.neighbors, 3);
        // Expected ratio blends the two voters, so it lies between them.
        let r = amid_pair.expected_ratio.unwrap();
        assert!(r > 0.4 && r < 0.44, "blended ratio, got {r}");
    }

    #[test]
    fn stale_and_unusable_entries_are_skipped_at_fit() {
        let mut db = TuneDb::in_memory();
        db.record(entry(1, 0.0, 300, 1000, &["mem2reg"]));
        // No baseline: warm-start-only.
        db.record(entry(2, 0.0, 300, 0, &["dce"]));
        // Wrong feature arity (e.g. pre-dating a FEATURE_DIM change).
        db.record(TuneDbEntry {
            features: vec![1.0, 2.0],
            ..entry(3, 0.0, 300, 1000, &["dce"])
        });
        // Unknown pass: stale after a registry change.
        db.record(entry(4, 0.0, 300, 1000, &["a-pass-that-never-existed"]));
        let p = Predictor::from_db(&db, 3);
        assert_eq!(p.len(), 1, "only the fully-usable entry trains");
        assert_eq!(p.predict(&fv(0.0)).candidate.passes, vec!["mem2reg"]);
    }

    #[test]
    fn leave_one_out_excludes_exactly_that_entry() {
        let mut db = TuneDb::in_memory();
        db.record(entry(1, 0.0, 300, 1000, &["mem2reg"]));
        db.record(entry(2, 10.0, 500, 1000, &["dce"]));
        let p = Predictor::from_db_excluding(&db, 3, Some(1));
        assert_eq!(p.len(), 1);
        // With its own entry excluded, the query lands on the other one.
        assert_eq!(p.predict(&fv(0.0)).candidate.passes, vec!["dce"]);
    }

    /// The determinism contract: equal databases → bit-identical
    /// predictions, including thresholds and expected ratio.
    #[test]
    fn prediction_is_deterministic() {
        let mut db = TuneDb::in_memory();
        for i in 0..20u64 {
            let passes: &[&str] = if i % 3 == 0 {
                &["mem2reg", "gvn"]
            } else if i % 3 == 1 {
                &["dce", "simplifycfg"]
            } else {
                &["inline"]
            };
            db.record(entry(i, i as f64 * 0.37, 300 + i * 11, 1000 + i, passes));
        }
        let a = Predictor::from_db(&db, 5);
        let b = Predictor::from_db(&db, 5);
        for q in [0.0, 1.7, 3.3, 7.4] {
            assert_eq!(a.predict(&fv(q)), b.predict(&fv(q)), "query {q}");
        }
    }

    /// Exact feature ties are broken by fingerprint, not insertion order.
    #[test]
    fn exact_ties_break_by_fingerprint() {
        let mut db = TuneDb::in_memory();
        db.record(entry(9, 1.0, 400, 1000, &["dce"]));
        db.record(entry(2, 1.0, 300, 1000, &["mem2reg"]));
        let p = Predictor::from_db(&db, 1);
        let pred = p.predict(&fv(1.0));
        assert_eq!(pred.candidate.passes, vec!["mem2reg"], "lower fp wins");
    }
}
