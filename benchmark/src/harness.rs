//! The run loop every workload shares: set up (several times, timed), run
//! rounds of the workload's op list for `--seconds`, check every output,
//! and turn rounds into the named metrics.
//!
//! A *round* is one pass over the seed's fixed op list, closed loop: the
//! next op starts when the previous returns. The untraced run times rounds
//! of the real entry points; the traced run spends half its time the same
//! way (the reference results and the reference latencies), then replays
//! the list through the workload's span-recording replica until the time is
//! up, asserting op for op that the replica computes the same results.
//!
//! Every timing is *best-of-R*: a call is timed once per round and keeps
//! its fastest time over the run's R rounds. The work is deterministic, so
//! whatever a round adds to that is the machine, and on a shared two-core
//! box the machine moves between two speeds a third apart, in phases longer
//! than a round (README, "Noise"). A median over rounds lands in whichever
//! phase covered most of the run; the best over rounds finds the fast phase
//! if it covered each call once. Percentiles are then taken over the op
//! list, so they describe how ops differ, not how the machine's minutes do.

use crate::metrics::PER_LAYER;
use crate::stats::{geomean, median, Latency};
use crate::trace::{self_time_by_call, Counts, Probe, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;
use zkvmopt_ir::{stable_module_fingerprint, FeatureVector, Interp, InterpConfig, Module};
use zkvmopt_vm::CryptoEcalls;
use zkvmopt_workloads::Workload as Program;

/// How many times a run sets up: some before the timed region and the rest
/// after it, a run's length apart, so that one slow phase of the machine
/// does not cover them all. `setup_s` is the fastest.
pub const SETUP_REPEATS: usize = 6;
const SETUPS_BEFORE: usize = 2;

/// What the oracle says a program does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    pub journal: Vec<i32>,
    pub exit: i64,
}

impl Reference {
    /// Whether a run with this journal and exit code behaved like the oracle.
    pub fn matches(&self, journal: &[i32], exit_code: i32) -> bool {
        self.journal == journal && self.exit == i64::from(exit_code)
    }
}

/// The part of set-up every workload shares: the 58 programs lowered, and
/// each one's reference output from the IR interpreter on the unoptimised
/// module — independent of passes, codegen and both executors.
pub struct Base {
    pub programs: Vec<&'static Program>,
    pub modules: Vec<Module>,
    pub refs: Vec<Reference>,
}

impl Base {
    /// Lower and interpret the whole suite, spanned into `t`.
    pub fn build(t: &mut Tracer) -> Result<Base, String> {
        let programs: Vec<&'static Program> = zkvmopt_workloads::all().iter().collect();
        let mut modules = Vec::with_capacity(programs.len());
        let mut refs = Vec::with_capacity(programs.len());
        for w in &programs {
            let m = crate::replica::lower(t, w)?;
            let config = InterpConfig {
                inputs: w.inputs.clone(),
                ..InterpConfig::default()
            };
            let oracle = t
                .span("ir", "interp", |_| {
                    Interp::new(&m, config, CryptoEcalls).run_main()
                })
                .map_err(|e| format!("{}: oracle: {e}", w.name))?;
            t.span("ir", "fingerprint", |_| {
                std::hint::black_box((stable_module_fingerprint(&m), FeatureVector::extract(&m)));
            });
            refs.push(Reference {
                journal: oracle.journal,
                exit: oracle.exit_value,
            });
            modules.push(m);
        }
        Ok(Base {
            programs,
            modules,
            refs,
        })
    }

    /// Index of suite program `name`.
    pub fn index_of(&self, name: &str) -> usize {
        self.programs
            .iter()
            .position(|w| w.name == name)
            .unwrap_or_else(|| panic!("program `{name}` is not in the suite"))
    }
}

/// What one round produced.
pub struct Round<O> {
    /// Wall time of the round's timed region, seconds.
    pub wall_s: f64,
    /// One latency sample per timed call.
    pub samples: Vec<Sample>,
    /// Ops completed (the workload's unit of user-visible work).
    pub ops: usize,
    /// Threads that generated the load.
    pub threads: usize,
    /// The raw outputs, for [`Workload::check`].
    pub out: O,
}

impl<O> Round<O> {
    /// The same round with its outputs converted.
    pub fn map<U>(self, f: impl FnOnce(O) -> U) -> Round<U> {
        Round {
            wall_s: self.wall_s,
            samples: self.samples,
            ops: self.ops,
            threads: self.threads,
            out: f(self.out),
        }
    }
}

/// One timed call. `call` names it across rounds: the op's index in a
/// closed loop, a hash of (program, candidate) for `tune_cold`'s fitness
/// calls, whose order depends on scheduling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub call: u64,
    pub ms: f64,
}

/// Keep the smaller of `best[key]` and `value`.
fn keep_best<K: Ord, V: PartialOrd + Copy>(best: &mut BTreeMap<K, V>, key: K, value: V) {
    let slot = best.entry(key).or_insert(value);
    if value < *slot {
        *slot = value;
    }
}

/// The rounds timed so far, distilled: each round's pace, and each call's
/// fastest time over the rounds.
#[derive(Debug, Default)]
pub struct Timed {
    pub paces: Vec<Pace>,
    /// Call → best time, ms. A call that repeats inside a round (the tuning
    /// service retries transient failures) counts once, with its times summed.
    pub best_ms: BTreeMap<u64, f64>,
}

impl Timed {
    pub fn add<O>(&mut self, round: &Round<O>) {
        let mut this_round: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &round.samples {
            *this_round.entry(s.call).or_insert(0.0) += s.ms;
        }
        self.paces.push(Pace {
            wall_s: round.wall_s,
            busy_s: this_round.values().sum::<f64>() / 1e3,
            threads: round.threads,
        });
        for (call, ms) in this_round {
            keep_best(&mut self.best_ms, call, ms);
        }
    }

    /// Σ best times: a round's busy time with the machine's slow phases
    /// taken out, seconds.
    pub fn busy_s(&self) -> f64 {
        self.best_ms.values().sum::<f64>() / 1e3
    }
}

/// Repeats of an auxiliary timing (each side of an A-against-B ratio).
const AUX_REPEATS: usize = 3;

/// Run `f` a few times; its fastest time in seconds, and its last result.
pub fn best_time<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..AUX_REPEATS {
        let start = Instant::now();
        last = Some(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, last.expect("AUX_REPEATS >= 1"))
}

/// Time `n` ops one after the other.
pub fn closed_loop<T>(n: usize, mut op: impl FnMut(usize) -> T) -> Round<Vec<T>> {
    let mut samples = Vec::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    let start = Instant::now();
    for i in 0..n {
        let t = Instant::now();
        out.push(op(i));
        samples.push(Sample {
            call: i as u64,
            ms: t.elapsed().as_secs_f64() * 1e3,
        });
    }
    Round {
        wall_s: start.elapsed().as_secs_f64(),
        samples,
        ops: n,
        threads: 1,
        out,
    }
}

/// [`closed_loop`] with each op under a `bench.op` root span of `t`.
pub fn closed_loop_traced<T>(
    t: &mut Tracer,
    n: usize,
    mut op: impl FnMut(&mut Tracer, usize) -> T,
) -> Round<Vec<T>> {
    closed_loop(n, |i| {
        t.set_op(i as u32);
        t.span("bench", "op", |t| op(t, i))
    })
}

/// What checking a round's outputs against the references found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// One line per failed op.
    pub failures: Vec<String>,
    /// Ops whose correct answer is "this candidate is rejected".
    pub rejected: usize,
    /// Optimised ÷ unoptimised modelled cost, one per successful op that
    /// has an unoptimised partner.
    pub cost_ratios: Vec<f64>,
}

/// One of the five workloads.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// A round's raw outputs.
    type Out;

    /// Everything before the timed region. Spans go to `t`.
    fn setup(seed: u64, t: &mut Tracer) -> Result<Self, String>;

    /// One token that changes whenever the op list does.
    fn oplist_digest(&self) -> u64;

    /// One round through the real entry points.
    fn round(&self) -> Round<Self::Out>;

    /// One round through the span-recording replica.
    fn round_traced(&self, probe: &Probe) -> Round<Self::Out>;

    /// The op-for-op result signature two rounds must share.
    fn signature(&self, out: &Self::Out) -> Vec<u64>;

    /// Check every output against its reference.
    ///
    /// # Errors
    /// A violated gate that is not a single op's failure.
    fn check(&self, out: &Self::Out) -> Result<Verdict, String>;

    /// Checks and measurements after the timed region; returns per-layer
    /// metrics only this workload has. `paces` are the untraced rounds;
    /// `traced` asks for the auxiliary timings too.
    ///
    /// # Errors
    /// A violated gate.
    fn finish(&self, _first: &Self::Out, _paces: &[Pace], _traced: bool) -> Result<Extras, String> {
        Ok(Extras::default())
    }
}

/// What [`Workload::finish`] adds to a report.
#[derive(Debug, Default)]
pub struct Extras {
    /// Per-layer metrics only this workload has (kept in traced runs).
    pub metrics: Vec<(&'static str, f64)>,
    /// `name value` lines that are not metrics (digests).
    pub notes: Vec<(&'static str, String)>,
    /// Counts to report in place of the first traced round's: `tune_cold`
    /// takes them on one thread, where no two islands can race to evaluate
    /// the same candidate, so they repeat exactly.
    pub counts: Option<Counts>,
}

/// A finished run: every metric by name, ready to print.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Ops of a round. None failed, or there would be no report.
    pub attempted: usize,
    /// Untraced rounds timed.
    pub rounds: usize,
    /// Distinct timed calls behind `op_ms_p50` / `op_ms_p95`; each was
    /// timed once per untraced round.
    pub calls: usize,
    pub values: BTreeMap<&'static str, f64>,
    /// Extra `name value` lines (digests) that are not metrics.
    pub notes: Vec<(&'static str, String)>,
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A run in which an op failed reports no number, only which ops.
fn no_failures(name: &str, attempted: usize, v: &Verdict) -> Result<(), String> {
    if v.failures.is_empty() {
        return Ok(());
    }
    let shown: Vec<&str> = v.failures.iter().take(10).map(String::as_str).collect();
    Err(format!(
        "{name}: {} of {attempted} ops failed:\n  {}",
        v.failures.len(),
        shown.join("\n  ")
    ))
}

/// The pace of one untraced round.
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    pub wall_s: f64,
    /// Σ latency samples: what the load generators spent inside ops.
    pub busy_s: f64,
    pub threads: usize,
}

/// Span self time per `(layer, name)`, ms.
type LayerMs = BTreeMap<(&'static str, &'static str), f64>;

/// The run's set-ups so far: each one's wall time, the last one's tracer, and
/// the best self time per call.
struct SetUps {
    seconds: Vec<f64>,
    tracer: Tracer,
    best_ms: LayerMs,
}

impl SetUps {
    /// Set up once more, timed.
    fn again<W: Workload>(&mut self, seed: u64) -> Result<W, String> {
        self.tracer.reset();
        let start = Instant::now();
        let ctx = W::setup(seed, &mut self.tracer)?;
        self.seconds.push(start.elapsed().as_secs_f64());
        let mut this: LayerMs = BTreeMap::new();
        for ((_, layer, name), ns) in self_time_by_call([&self.tracer]) {
            *this.entry((layer, name)).or_insert(0.0) += ns as f64 / 1e6;
        }
        for (call, ms) in this {
            keep_best(&mut self.best_ms, call, ms);
        }
        Ok(ctx)
    }
}

/// `MerkleTree::new(..).root()` over a fixed 1 MiB leaf set, MB/s: the
/// hashing rate under `prover.prove_ms`.
fn merkle_mb_per_s() -> f64 {
    let leaves: Vec<Vec<u8>> = (0..256u32)
        .map(|i| {
            (0..4096u32)
                .map(|j| (i.wrapping_mul(31) ^ j) as u8)
                .collect()
        })
        .collect();
    let (seconds, _root) = best_time(|| zkvmopt_crypto::MerkleTree::new(&leaves).root());
    1.0 / seconds
}

/// Run workload `W` for `seconds`.
///
/// # Errors
/// Any failed op or violated correctness gate: the caller exits non-zero
/// without printing a number.
pub fn run<W: Workload>(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let mut probe = Probe::new();
    let mut setups = SetUps {
        seconds: Vec::with_capacity(SETUP_REPEATS),
        tracer: probe.take(),
        best_ms: BTreeMap::new(),
    };
    let mut ctx: W = setups.again(seed)?;
    for _ in 1..SETUPS_BEFORE {
        drop(ctx);
        ctx = setups.again(seed)?;
    }

    // The first round gives the reference results; every later round, traced
    // or not, must reproduce them op for op. A traced run spends the first
    // half of its time on untraced rounds — the latencies the replica's are
    // compared with — and the second half on traced ones.
    let clock = Instant::now();
    let first = ctx.round();
    let verdict = ctx.check(&first.out)?;
    no_failures(W::NAME, first.ops, &verdict)?;
    let signature = ctx.signature(&first.out);
    let mut plain = Timed::default();
    plain.add(&first);
    let plain_s = if traced { seconds / 2.0 } else { seconds };
    while clock.elapsed().as_secs_f64() < plain_s {
        let round = ctx.round();
        if ctx.signature(&round.out) != signature {
            return Err(format!("{}: two rounds of one op list disagree", W::NAME));
        }
        plain.add(&round);
    }
    let mut replayed = Timed::default();
    let mut span_ns: BTreeMap<(u32, &'static str, &'static str), u64> = BTreeMap::new();
    let mut counts = Counts::default();
    let mut notes = vec![("oplist_digest", format!("{:016x}", ctx.oplist_digest()))];
    while traced && (replayed.paces.is_empty() || clock.elapsed().as_secs_f64() < seconds) {
        probe.tracers().iter_mut().for_each(Tracer::reset);
        let round = ctx.round_traced(&probe);
        if ctx.signature(&round.out) != signature {
            return Err(format!(
                "{}: the traced replica's results differ from the untraced ops'",
                W::NAME
            ));
        }
        let tracers = probe.tracers();
        if replayed.paces.is_empty() {
            tracers.iter().for_each(|t| counts.add(&t.counts));
            let path = format!("benchmark/out/trace-{}.json", W::NAME);
            let threads = std::iter::once(("set-up", &setups.tracer))
                .chain(tracers.iter().map(|t| ("round", t)));
            crate::trace::write_trace(std::path::Path::new(&path), W::NAME, seed, threads)
                .map_err(|e| format!("{path}: {e}"))?;
            notes.push(("trace_file", path));
        }
        for (call, ns) in self_time_by_call(tracers.iter()) {
            keep_best(&mut span_ns, call, ns);
        }
        replayed.add(&round);
    }
    let extras = ctx.finish(&first.out, &plain.paces, traced)?;
    notes.extend(extras.notes);
    let attempted = first.ops;
    let peak_rss_mb = peak_rss_mb()?;
    drop((first, ctx));
    while setups.seconds.len() < SETUP_REPEATS {
        drop(setups.again::<W>(seed)?);
    }

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    if traced {
        let mut ms: LayerMs = BTreeMap::new();
        for ((_, layer, name), ns) in span_ns {
            *ms.entry((layer, name)).or_insert(0.0) += ns as f64 / 1e6;
        }
        let counts = extras.counts.unwrap_or(counts);
        layer_metrics(
            &mut values,
            &ms,
            &counts,
            &setups.best_ms,
            &setups.tracer.counts,
        );
        let layers = ms.iter().filter(|((layer, _), _)| *layer != "bench");
        let layer_s = layers.map(|(_, ms)| ms / 1e3).sum::<f64>();
        values.insert("core.glue_frac", 1.0 - layer_s / plain.busy_s());
        values.insert(
            "bench.trace_overhead_frac",
            replayed.busy_s() / plain.busy_s() - 1.0,
        );
        values.insert("crypto.merkle_mb_per_s", merkle_mb_per_s());
        values.insert("bench.ops", attempted as f64);
        values.insert("bench.failed_frac", 0.0);
        values.insert(
            "bench.rejected_frac",
            verdict.rejected as f64 / attempted as f64,
        );
        values.insert("bench.cost_ratio_geomean", geomean(&verdict.cost_ratios));
        values.extend(extras.metrics);
    } else {
        // A round's wall is the time spent inside its calls ÷ the calls in
        // flight on average (1 for a closed loop, just under `threads` for the
        // tuning service, whose scheduling sits between calls). The time is
        // taken from each call's best round; the concurrency is a ratio of two
        // times of one round, so the machine's phases cancel in it.
        let in_flight: Vec<f64> = plain.paces.iter().map(|p| p.busy_s / p.wall_s).collect();
        let ops_per_s = attempted as f64 * median(&in_flight) / plain.busy_s();
        let lat = Latency::of(plain.best_ms.values().copied().collect());
        values.insert(
            "setup_s",
            setups.seconds.iter().copied().fold(f64::INFINITY, f64::min),
        );
        values.insert("ops_per_s", ops_per_s);
        values.insert("op_ms_p50", lat.p50);
        values.insert("op_ms_p95", lat.p95);
        values.insert("peak_rss_mb", peak_rss_mb);
    }
    Ok(Report {
        workload: W::NAME,
        seed,
        traced,
        attempted,
        rounds: plain.paces.len(),
        calls: plain.best_ms.len(),
        values,
        notes,
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics every workload derives the same way from span
/// self times (`ms`, best-of-R per op, summed over the op list) and the
/// first traced round's counts. Set-up spans stand in where a layer runs
/// only during set-up.
fn layer_metrics(
    values: &mut BTreeMap<&'static str, f64>,
    ms: &LayerMs,
    c: &Counts,
    setup: &LayerMs,
    setup_counts: &Counts,
) {
    let call = |layer, name| ms.get(&(layer, name)).copied().unwrap_or(0.0);
    let setup_ms = |layer, name| setup.get(&(layer, name)).copied().unwrap_or(0.0);
    // Folded from +0.0: an empty `sum()` of floats is -0.0, which prints.
    let layer = |l: &str| -> f64 {
        let calls = ms.iter().filter(|((k, _), _)| *k == l);
        calls.fold(0.0, |total, (_, v)| total + v)
    };

    // `study_matrix` lowers inside its ops (a fresh runner per sweep); the
    // others only during set-up.
    let (lower_ms, src_bytes) = if c.src_bytes > 0 {
        (call("lang", "compile_guest"), c.src_bytes)
    } else {
        (setup_ms("lang", "compile_guest"), setup_counts.src_bytes)
    };
    values.insert("lang.compile_guest_ms", lower_ms);
    values.insert(
        "lang.src_kb_per_s",
        ratio(src_bytes as f64 / 1024.0, lower_ms / 1e3),
    );
    values.insert("ir.clone_ms", call("ir", "clone"));
    values.insert("ir.verify_ms", call("ir", "verify"));
    values.insert("ir.fingerprint_ms", setup_ms("ir", "fingerprint"));
    values.insert("ir.interp_ms", setup_ms("ir", "interp"));
    values.insert(
        "core.batch_evaluator_build_ms",
        setup_ms("core", "batch_evaluator"),
    );

    let passes = layer("passes");
    let per_pass = passes - call("passes", "apply");
    values.insert("passes.busy_ms", passes);
    values.insert("passes.runs", c.pass_runs as f64);
    values.insert(
        "passes.changed_frac",
        ratio(c.pass_changed as f64, c.pass_runs as f64),
    );
    values.insert(
        "passes.ns_per_ir_inst",
        ratio(per_pass * 1e6, c.pass_ir_insts as f64),
    );
    values.insert(
        "passes.ir_size_ratio",
        if c.pipelines > 0 {
            (c.ir_size_ratio_ln / c.pipelines as f64).exp()
        } else {
            0.0
        },
    );
    // `passes.ms.<pass>` for the passes the metric table names; the rest of
    // the per-pass time is `passes.ms.other`.
    let mut named = 0.0;
    for def in PER_LAYER {
        match def.name.strip_prefix("passes.ms.") {
            Some(pass) if pass != "other" => {
                let v = call("passes", pass);
                named += v;
                values.insert(def.name, v);
            }
            _ => {}
        }
    }
    values.insert("passes.ms.other", (per_pass - named).max(0.0));

    let riscv = layer("riscv");
    values.insert("riscv.isel_ms", call("riscv", "isel"));
    values.insert("riscv.regalloc_ms", call("riscv", "regalloc"));
    values.insert("riscv.link_ms", call("riscv", "link"));
    values.insert(
        "riscv.ns_per_ir_inst",
        ratio(riscv * 1e6, c.codegen_ir_insts as f64),
    );
    values.insert("riscv.insts_emitted", c.insts_emitted as f64);
    values.insert("riscv.spilled_vregs", c.spilled_vregs as f64);

    let engine_ms = call("vm", "run") + call("vm", "lockstep") + call("vm", "run_segmented");
    values.insert("vm.decode_ms", call("vm", "decode"));
    values.insert("vm.run_ms", call("vm", "run"));
    values.insert(
        "vm.guest_mips",
        ratio(c.instret as f64 / 1e6, engine_ms / 1e3),
    );
    values.insert("vm.lockstep_ms", call("vm", "lockstep"));
    values.insert("vm.run_segmented_ms", call("vm", "run_segmented"));
    values.insert(
        "vm.probe_hit_rate",
        ratio(c.probe_hits as f64, (c.probe_hits + c.probe_misses) as f64),
    );
    values.insert("vm.traces_formed", c.traces_formed as f64);
    values.insert("vm.trace_exits", c.trace_exits as f64);
    values.insert("vm.instret", c.instret as f64);
    values.insert("vm.total_cycles", c.total_cycles as f64);
    values.insert("vm.paging_cycles", c.paging_cycles as f64);
    values.insert("vm.segments", c.segments as f64);

    let prove_ms = call("prover", "prove");
    values.insert(
        "prover.check_accounting_ms",
        call("prover", "check_accounting"),
    );
    values.insert("prover.prove_ms", prove_ms);
    values.insert("prover.padded_rows", c.padded_rows as f64);
    values.insert(
        "prover.padded_mrows_per_s",
        ratio(c.padded_rows as f64 / 1e6, prove_ms / 1e3),
    );
    values.insert(
        "prover.padding_frac",
        if c.padded_rows > 0 {
            1.0 - c.rows as f64 / c.padded_rows as f64
        } else {
            0.0
        },
    );
    values.insert("prover.segments_proved", c.segments_proved as f64);

    let compile =
        call("ir", "clone") + passes + call("ir", "verify") + riscv + call("vm", "decode");
    let all_layers: f64 = ms
        .iter()
        .filter(|((l, _), _)| *l != "bench")
        .map(|(_, v)| v)
        .sum();
    values.insert("core.compile_share", ratio(compile, all_layers));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(samples: &[(u64, f64)], wall_s: f64) -> Round<()> {
        Round {
            wall_s,
            samples: samples
                .iter()
                .map(|&(call, ms)| Sample { call, ms })
                .collect(),
            ops: samples.len(),
            threads: 1,
            out: (),
        }
    }

    #[test]
    fn each_call_keeps_its_best_round() {
        let mut timed = Timed::default();
        timed.add(&round(&[(0, 10.0), (1, 30.0)], 0.05));
        timed.add(&round(&[(0, 14.0), (1, 20.0)], 0.04));
        timed.add(&round(&[(1, 25.0), (0, 12.0)], 0.04));
        assert_eq!(timed.best_ms[&0], 10.0);
        assert_eq!(timed.best_ms[&1], 20.0);
        assert!((timed.busy_s() - 0.030).abs() < 1e-12);
        assert_eq!(timed.paces.len(), 3);
        assert!((timed.paces[1].busy_s - 0.034).abs() < 1e-12);
    }

    #[test]
    fn a_call_repeated_inside_a_round_counts_once_with_its_times_summed() {
        let mut timed = Timed::default();
        timed.add(&round(&[(7, 1.0), (7, 2.0), (8, 5.0)], 0.01));
        timed.add(&round(&[(7, 1.5), (8, 4.0), (7, 1.0)], 0.01));
        assert_eq!(timed.best_ms.len(), 2);
        assert_eq!(timed.best_ms[&7], 2.5);
        assert_eq!(timed.best_ms[&8], 4.0);
    }

    #[test]
    fn closed_loops_time_every_op_in_order() {
        let r = closed_loop(5, |i| i * i);
        assert_eq!(r.out, vec![0, 1, 4, 9, 16]);
        assert_eq!((r.ops, r.threads, r.samples.len()), (5, 1, 5));
        let calls: Vec<u64> = r.samples.iter().map(|s| s.call).collect();
        assert_eq!(calls, vec![0, 1, 2, 3, 4]);
        assert!(r.samples.iter().all(|s| s.ms >= 0.0));
        assert!(r.wall_s * 1e3 >= r.samples.iter().map(|s| s.ms).sum::<f64>());

        let mut t = Tracer::new(Instant::now());
        let traced = closed_loop_traced(&mut t, 3, |t, i| t.span("vm", "run", |_| i));
        assert_eq!(traced.out, vec![0, 1, 2]);
        let ops: Vec<u32> = t.spans.iter().map(|s| s.op).collect();
        assert_eq!(ops, vec![0, 0, 1, 1, 2, 2], "a root and a child per op");
    }

    #[test]
    fn references_compare_journal_and_sign_extended_exit() {
        let r = Reference {
            journal: vec![1, -2],
            exit: -1,
        };
        assert!(r.matches(&[1, -2], -1));
        assert!(!r.matches(&[1, -2], 0));
        assert!(!r.matches(&[1], -1));
    }
}
