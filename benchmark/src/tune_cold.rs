//! `tune_cold`: the tuning service as users run it. One round is one cold
//! `tune_suite` over twelve programs at the paper's 160-evaluations-per-
//! program budget (`ServiceConfig::default()`: 4 islands × 8 × 5, its own
//! root seed), against a fresh in-memory `TuneDb`, on `min(2, nproc)`
//! threads — the only multi-threaded workload, so caching, scheduling and
//! lock contention show here and nowhere else. One op is one evaluation-
//! budget unit served (cache hits count as served); the latency samples are
//! the individual fitness calls, seen through the benchmark's own closure
//! around `eval_classified`.
//!
//! `--seed` orders the twelve targets, which orders the service's task queue.
//! It does not reach the search's own seed: a genetic search started
//! elsewhere wanders into candidates that cost several times more or less to
//! evaluate, and units served per second then differ by a factor of two
//! between seeds — a property of the draw, not of the service.

use crate::eval::{Evaluator, VM};
use crate::harness::{Extras, Pace, Round, Sample, Verdict, Workload};
use crate::ops;
use crate::replica;
use crate::stats::{fnv1a, median};
use crate::trace::{Counts, Probe, Tracer};
use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Instant;
use zkvmopt_ir::stable_module_fingerprint;
use zkvmopt_tuner::{
    canonicalize_sequence, tune_suite, Candidate, Predictor, ServiceConfig, ServiceReport, TuneDb,
    TuneTarget,
};

pub struct TuneCold {
    evaluator: Evaluator,
    targets: Vec<TuneTarget>,
    config: ServiceConfig,
}

pub struct Tuned {
    report: ServiceReport,
    db: TuneDb,
}

/// One fitness call as the traffic analysis sees it.
struct Call {
    widx: usize,
    canonical: Vec<&'static str>,
    thresholds: (usize, usize),
    /// `stable_module_fingerprint` after the passes ran.
    post_pass_ir: u64,
}

/// A fitness call's name across rounds: the search repeats, its scheduling
/// does not.
fn call_key(widx: usize, c: &Candidate) -> u64 {
    fnv1a(format!("{widx} {c:?}").as_bytes())
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("fitness closures do not panic while holding it")
}

impl TuneCold {
    fn search(
        &self,
        config: &ServiceConfig,
        mut db: TuneDb,
        fitness: impl Fn(usize, &Candidate) -> zkvmopt_tuner::EvalResult + Sync,
    ) -> (f64, Tuned) {
        let start = Instant::now();
        let report = tune_suite(config, &self.targets, &mut db, fitness);
        (start.elapsed().as_secs_f64(), Tuned { report, db })
    }

    fn round_with(
        &self,
        config: &ServiceConfig,
        eval: impl Fn(usize, &Candidate) -> zkvmopt_tuner::EvalResult + Sync,
    ) -> Round<Tuned> {
        let samples = Mutex::new(Vec::new());
        let (wall_s, out) = self.search(config, TuneDb::in_memory(), |widx, c| {
            let start = Instant::now();
            let r = eval(widx, c);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            lock(&samples).push(Sample {
                call: call_key(widx, c),
                ms,
            });
            r
        });
        Round {
            wall_s,
            samples: samples.into_inner().expect("search is over"),
            ops: out.report.evaluated,
            threads: config.threads,
            out,
        }
    }

    fn plain(&self) -> impl Fn(usize, &Candidate) -> zkvmopt_tuner::EvalResult + Sync + '_ {
        |widx, c| {
            self.evaluator
                .ev
                .eval_classified(widx, &c.passes, &c.pass_config())
                .map_err(|e| e.class())
        }
    }

    /// The span-recording fitness closure: the `eval_classified` replica
    /// under a `bench.op` root, on a tracer borrowed for the call.
    fn traced<'a>(
        &'a self,
        probe: &'a Probe,
        calls: Option<&'a Mutex<Vec<Call>>>,
    ) -> impl Fn(usize, &Candidate) -> zkvmopt_tuner::EvalResult + Sync + 'a {
        move |widx, c| {
            let mut t = probe.take();
            t.set_op(call_key(widx, c) as u32);
            let target = self.evaluator.target(widx);
            let mut post_pass_ir = 0;
            let r = t.span("bench", "op", |t: &mut Tracer| {
                replica::eval_classified(t, &target, VM, &c.passes, &c.pass_config(), |m| {
                    if calls.is_some() {
                        post_pass_ir = stable_module_fingerprint(m);
                    }
                })
            });
            probe.give(t);
            if let Some(calls) = calls {
                lock(calls).push(Call {
                    widx,
                    canonical: canonicalize_sequence(&c.passes),
                    thresholds: (c.inline_threshold, c.unroll_threshold),
                    post_pass_ir,
                });
            }
            r.map_err(|e| e.class())
        }
    }

    fn single_threaded(&self) -> ServiceConfig {
        ServiceConfig {
            threads: 1,
            ..self.config.clone()
        }
    }
}

/// Share of pass invocations that lie inside a (program, thresholds,
/// canonical prefix) some other call of the run also evaluates: with a trie
/// of the calls' sequences, every node is one invocation that must run and
/// every further visit one that prefix sharing could skip. Independent of
/// call order.
fn shared_prefix_frac(calls: &[Call]) -> f64 {
    let mut nodes: BTreeSet<(usize, (usize, usize), &[&'static str])> = BTreeSet::new();
    let mut invocations = 0usize;
    for c in calls {
        invocations += c.canonical.len();
        for end in 1..=c.canonical.len() {
            nodes.insert((c.widx, c.thresholds, &c.canonical[..end]));
        }
    }
    if invocations == 0 {
        return 0.0;
    }
    1.0 - nodes.len() as f64 / invocations as f64
}

impl Workload for TuneCold {
    const NAME: &'static str = "tune_cold";
    type Out = Tuned;

    fn setup(seed: u64, t: &mut Tracer) -> Result<TuneCold, String> {
        let order = ops::permutation(seed, ops::TUNE_PROGRAMS.len());
        let programs: Vec<&str> = order.iter().map(|&i| ops::TUNE_PROGRAMS[i]).collect();
        let evaluator = Evaluator::build(t, &programs)?;
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        Ok(TuneCold {
            targets: evaluator.ev.tune_targets(),
            evaluator,
            config: ServiceConfig {
                threads: nproc.min(2),
                ..ServiceConfig::default()
            },
        })
    }

    fn oplist_digest(&self) -> u64 {
        let names: Vec<&str> = self.targets.iter().map(|t| t.name.as_str()).collect();
        ops::digest(&names)
    }

    fn round(&self) -> Round<Tuned> {
        self.round_with(&self.config, self.plain())
    }

    fn round_traced(&self, probe: &Probe) -> Round<Tuned> {
        self.round_with(&self.config, self.traced(probe, None))
    }

    /// The TuneDb bytes, and each target's served best.
    fn signature(&self, out: &Tuned) -> Vec<u64> {
        std::iter::once(fnv1a(out.db.to_string_pretty().as_bytes()))
            .chain(
                out.report
                    .workloads
                    .iter()
                    .map(|w| w.best_fitness.unwrap_or(u64::MAX)),
            )
            .collect()
    }

    /// A target's units fail when its search ends with nothing to serve, or
    /// serves a best that does not re-measure to the cycles it claims (one
    /// failure line per target). A candidate the service evaluates and
    /// rejects is the service working, not a failure; `tuner.quarantined`
    /// counts those.
    fn check(&self, out: &Tuned) -> Result<Verdict, String> {
        let mut v = Verdict::default();
        for (widx, w) in out.report.workloads.iter().enumerate() {
            let (Some(best), Some(cycles)) = (&w.best, w.best_fitness) else {
                v.failures
                    .push(format!("{}: the search served nothing", w.name));
                continue;
            };
            let again = self
                .evaluator
                .ev
                .eval_classified(widx, &best.passes, &best.pass_config());
            if again != Ok(cycles) {
                v.failures.push(format!(
                    "{}: best claims {cycles} cycles, re-measures {again:?}",
                    w.name
                ));
                continue;
            }
            let unoptimised = self.evaluator.ev.baseline_cycles(widx);
            v.cost_ratios.push(cycles as f64 / unoptimised as f64);
        }
        Ok(v)
    }

    fn finish(&self, first: &Tuned, paces: &[Pace], traced: bool) -> Result<Extras, String> {
        let first_bytes = first.db.to_string_pretty();
        let notes = vec![(
            "tunedb_digest",
            format!("{:016x}", fnv1a(first_bytes.as_bytes())),
        )];
        let warm_ms = self.warm_retune(first)?;

        // The same search on one thread must produce the same TuneDb bytes.
        // The traced run takes its counts from that search: on one thread no
        // two islands race to evaluate the same candidate, so they repeat.
        let same_bytes = |reference: &Round<Tuned>| {
            if reference.out.db.to_string_pretty() == first_bytes {
                Ok(())
            } else {
                Err("tune_cold: TuneDb bytes depend on the thread count".to_string())
            }
        };
        let single = self.single_threaded();
        if !traced {
            if self.config.threads > 1 {
                same_bytes(&self.round_with(&single, self.plain()))?;
            }
            return Ok(Extras {
                notes,
                ..Extras::default()
            });
        }
        let mut probe = Probe::new();
        let calls = Mutex::new(Vec::new());
        let reference = self.round_with(&single, self.traced(&probe, Some(&calls)));
        same_bytes(&reference)?;
        let calls = calls.into_inner().expect("search is over");
        let mut counts = Counts::default();
        probe.tracers().iter().for_each(|t| counts.add(&t.counts));

        let r = &reference.out.report;
        let distinct: BTreeSet<u64> = calls.iter().map(|c| c.post_pass_ir).collect();
        // What the workers did not spend inside fitness calls: scheduling,
        // island barriers, the sharded cache, the db.
        let worker_s = |p: &Pace| p.wall_s * p.threads as f64;
        let over = |f: &dyn Fn(&Pace) -> f64| median(&paces.iter().map(f).collect::<Vec<_>>());
        let (predict_us, db_roundtrip_ms) = self.side_timings(first, &first_bytes)?;
        Ok(Extras {
            metrics: vec![
                ("tuner.fitness_calls", calls.len() as f64),
                (
                    "tuner.cache_hit_rate",
                    r.cache_hits as f64 / r.evaluated as f64,
                ),
                ("tuner.retries", r.retries as f64),
                ("tuner.quarantined", r.quarantine_total as f64),
                ("tuner.worker_busy_frac", over(&|p| p.busy_s / worker_s(p))),
                (
                    "tuner.service_overhead_ms",
                    over(&|p| (worker_s(p) - p.busy_s) * 1e3),
                ),
                ("tuner.shared_prefix_frac", shared_prefix_frac(&calls)),
                (
                    "tuner.distinct_postpass_ir_frac",
                    distinct.len() as f64 / calls.len() as f64,
                ),
                ("tuner.warm_tune_ms", warm_ms),
                ("tuner.predict_us", predict_us),
                ("tuner.db_roundtrip_ms", db_roundtrip_ms),
            ],
            notes,
            counts: Some(counts),
        })
    }
}

impl TuneCold {
    /// A warm re-tune against the populated db must spend no evaluation;
    /// returns how long it took, ms.
    fn warm_retune(&self, first: &Tuned) -> Result<f64, String> {
        let mut db = TuneDb::in_memory();
        for e in first.db.iter() {
            db.record(e.clone());
        }
        let (warm_s, warm) = self.search(&self.config, db, self.plain());
        if warm.report.evaluated != 0 || warm.report.fitness_evals != 0 {
            return Err(format!(
                "tune_cold: the warm re-tune spent {} evaluations",
                warm.report.evaluated
            ));
        }
        Ok(warm_s * 1e3)
    }

    /// Median `Predictor::predict` (µs) over the populated db, and a TuneDb
    /// save + open round trip (ms) that must keep the bytes.
    fn side_timings(&self, first: &Tuned, first_bytes: &str) -> Result<(f64, f64), String> {
        let predictor = Predictor::from_db(&first.db, self.config.predict_k);
        let mut predict_us = Vec::new();
        for widx in 0..self.targets.len() {
            for _ in 0..20 {
                let start = Instant::now();
                std::hint::black_box(predictor.predict(self.evaluator.ev.features(widx)));
                predict_us.push(start.elapsed().as_secs_f64() * 1e6);
            }
        }
        let path = std::path::Path::new("benchmark/out/tune_cold.db");
        let _ = std::fs::remove_file(path);
        let start = Instant::now();
        let mut disk = TuneDb::open(path);
        for e in first.db.iter() {
            disk.record(e.clone());
        }
        disk.save()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let reopened = TuneDb::open(path);
        let roundtrip_ms = start.elapsed().as_secs_f64() * 1e3;
        if reopened.to_string_pretty() != first_bytes {
            return Err("tune_cold: TuneDb bytes change across save + open".into());
        }
        Ok((median(&predict_us), roundtrip_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(widx: usize, seq: &[&'static str], inline: usize) -> Call {
        Call {
            widx,
            canonical: seq.to_vec(),
            thresholds: (inline, 0),
            post_pass_ir: 0,
        }
    }

    #[test]
    fn shared_prefixes_are_counted_once_per_program_and_thresholds() {
        assert_eq!(shared_prefix_frac(&[]), 0.0);
        // a-b-c and a-b-d share two of six invocations.
        let two = [call(0, &["a", "b", "c"], 1), call(0, &["a", "b", "d"], 1)];
        assert!((shared_prefix_frac(&two) - 2.0 / 6.0).abs() < 1e-12);
        // Another program or other thresholds share nothing.
        let apart = [
            call(0, &["a", "b"], 1),
            call(1, &["a", "b"], 1),
            call(0, &["a", "b"], 2),
        ];
        assert_eq!(shared_prefix_frac(&apart), 0.0);
        // Order does not matter; a repeated call is shared whole.
        let again = [
            call(0, &["a", "b", "d"], 1),
            call(0, &["a", "b", "c"], 1),
            call(0, &["a"], 1),
        ];
        assert!((shared_prefix_frac(&again) - 3.0 / 7.0).abs() < 1e-12);
    }
}
