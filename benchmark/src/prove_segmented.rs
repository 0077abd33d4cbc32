//! `prove_segmented`: the proving tier. One op is one program × profile ×
//! VM: `Engine::run_segmented` (segment limit ÷ 64, as the
//! `prover_throughput` bench) → `check_segment_accounting` →
//! `prove_segmented(backend, .., threads = 1)` for all three standard
//! backends. Programs are compiled during set-up, so compile is 0 % of an
//! op; the engine runs its *stepped* recorder-fed path here, not the
//! batched/trace paths `eval_exec` times. Baseline and `-O3` in one list
//! give the paper's proving-gain ratio.

use crate::harness::{
    best_time, closed_loop, closed_loop_traced, Base, Extras, Pace, Round, Verdict, Workload,
};
use crate::replica;
use crate::trace::{Probe, Tracer};
use zkvmopt_core::suite::CompiledWorkload;
use zkvmopt_core::{OptLevel, OptProfile, SuiteRunner};
use zkvmopt_prover::{
    check_segment_accounting, prove_segmented, standard_backends, verify_segmented, SegmentedProof,
};
use zkvmopt_vm::{Engine, ExecConfig, ExecutionReport, SegmentRecord, VmKind, VmProfile};

/// Segment-limit divisor against the production profiles: small segments
/// make every suite program a multi-segment proving job.
const SEGMENT_SCALE: u64 = 64;

/// Profiles per program: index 0 is the unoptimised partner of index 1.
const PROFILES: usize = 2;

fn vm_profile(kind: VmKind) -> VmProfile {
    let mut p = VmProfile::for_kind(kind);
    p.segment_cycles = (p.segment_cycles / SEGMENT_SCALE).max(1);
    p
}

/// One op: which program (suite index), profile (0 baseline, 1 `-O3`), VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Op {
    program: usize,
    profile: usize,
    vm: VmKind,
}

pub struct Proved {
    report: ExecutionReport,
    records: Vec<SegmentRecord>,
    proofs: Vec<SegmentedProof>,
}

impl Proved {
    /// Modelled proving cost over the backend panel, ms.
    fn cost_ms(&self) -> f64 {
        self.proofs.iter().map(|p| p.total_cost_ms).sum()
    }
}

pub struct ProveSegmented {
    base: Base,
    /// `compiled[program][profile]`.
    compiled: Vec<[CompiledWorkload; PROFILES]>,
    ops: Vec<Op>,
}

impl ProveSegmented {
    fn engine(&self, op: Op) -> Engine<'_> {
        let config = ExecConfig {
            inputs: self.base.programs[op.program].inputs.clone(),
            ..ExecConfig::default()
        };
        let decoded = &self.compiled[op.program][op.profile].decoded;
        Engine::new(decoded, vm_profile(op.vm), config)
    }

    fn prove(&self, op: Op) -> Result<Proved, String> {
        let (report, records) = self.engine(op).run_segmented().map_err(|e| e.to_string())?;
        check_segment_accounting(&report, &records).map_err(|e| e.to_string())?;
        let proofs = standard_backends()
            .iter()
            .map(|b| prove_segmented(*b, &report, &records, 1).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        Ok(Proved {
            report,
            records,
            proofs,
        })
    }

    fn prove_traced(&self, t: &mut Tracer, op: Op) -> Result<Proved, String> {
        let engine = self.engine(op);
        let (report, records) = t
            .span("vm", "run_segmented", |_| engine.run_segmented())
            .map_err(|e| e.to_string())?;
        replica::note_exec(t, &report);
        t.span("prover", "check_accounting", |_| {
            check_segment_accounting(&report, &records)
        })
        .map_err(|e| e.to_string())?;
        let mut proofs = Vec::with_capacity(standard_backends().len());
        for backend in standard_backends() {
            let proof = t
                .span("prover", "prove", |_| {
                    prove_segmented(backend, &report, &records, 1)
                })
                .map_err(|e| e.to_string())?;
            t.counts.segments_proved += proof.segments.len() as u64;
            t.counts.rows += proof.segments.iter().map(|s| s.rows).sum::<u64>();
            t.counts.padded_rows += proof.segments.iter().map(|s| s.padded_rows).sum::<u64>();
            proofs.push(proof);
        }
        Ok(Proved {
            report,
            records,
            proofs,
        })
    }

    fn describe(&self, op: Op) -> String {
        let profile = ["baseline", "-O3"][op.profile];
        format!(
            "{} at {profile} on {}",
            self.base.programs[op.program].name, op.vm
        )
    }
}

impl Workload for ProveSegmented {
    const NAME: &'static str = "prove_segmented";
    type Out = Vec<Result<Proved, String>>;

    fn setup(seed: u64, t: &mut Tracer) -> Result<ProveSegmented, String> {
        let base = Base::build(t)?;
        let mut runner = SuiteRunner::new();
        let profiles = [OptProfile::baseline(), OptProfile::level(OptLevel::O3)];
        let mut compiled = Vec::with_capacity(base.programs.len());
        for w in &base.programs {
            let mut compile = |p: &OptProfile| -> Result<CompiledWorkload, String> {
                let cw = runner
                    .compile(w, p)
                    .map_err(|e| format!("{}: {e}", w.name))?;
                Ok(cw.clone())
            };
            compiled.push([compile(&profiles[0])?, compile(&profiles[1])?]);
        }
        let mut all = Vec::with_capacity(base.programs.len() * PROFILES * VmKind::BOTH.len());
        for program in 0..base.programs.len() {
            for profile in 0..PROFILES {
                for vm in VmKind::BOTH {
                    all.push(Op {
                        program,
                        profile,
                        vm,
                    });
                }
            }
        }
        let ops = crate::ops::permutation(seed, all.len())
            .into_iter()
            .map(|i| all[i])
            .collect();
        Ok(ProveSegmented {
            base,
            compiled,
            ops,
        })
    }

    fn oplist_digest(&self) -> u64 {
        crate::ops::digest(&self.ops)
    }

    fn round(&self) -> Round<Self::Out> {
        closed_loop(self.ops.len(), |i| self.prove(self.ops[i]))
    }

    fn round_traced(&self, probe: &Probe) -> Round<Self::Out> {
        let mut t = probe.take();
        let round = closed_loop_traced(&mut t, self.ops.len(), |t, i| {
            self.prove_traced(t, self.ops[i])
        });
        probe.give(t);
        round
    }

    fn signature(&self, out: &Self::Out) -> Vec<u64> {
        let word = |bytes: &[u8; 32]| u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        out.iter()
            .flat_map(|r| match r {
                Ok(p) => std::iter::once(p.report.total_cycles)
                    .chain(p.proofs.iter().map(|proof| word(&proof.root)))
                    .collect::<Vec<u64>>(),
                Err(e) => vec![crate::stats::fnv1a(e.as_bytes())],
            })
            .collect()
    }

    fn check(&self, out: &Self::Out) -> Result<Verdict, String> {
        let mut v = Verdict::default();
        // Unoptimised cost per (program, VM), to pair with the `-O3` op.
        let mut unoptimised = vec![[None; 2]; self.base.programs.len()];
        let vm_slot = |vm: VmKind| VmKind::BOTH.iter().position(|k| *k == vm).expect("listed");
        for (r, &op) in out.iter().zip(&self.ops) {
            let proved = match r {
                Ok(p) => p,
                Err(e) => {
                    v.failures.push(format!("{}: {e}", self.describe(op)));
                    continue;
                }
            };
            let reference = &self.base.refs[op.program];
            if !reference.matches(&proved.report.journal, proved.report.exit_code) {
                v.failures.push(format!(
                    "{}: output differs from the IR interpreter's",
                    self.describe(op)
                ));
                continue;
            }
            let verified = standard_backends()
                .iter()
                .zip(&proved.proofs)
                .all(|(b, proof)| verify_segmented(*b, &proved.report, &proved.records, proof));
            if !verified {
                v.failures
                    .push(format!("{}: a proof does not verify", self.describe(op)));
                continue;
            }
            if op.profile == 0 {
                unoptimised[op.program][vm_slot(op.vm)] = Some(proved.cost_ms());
            }
        }
        for (r, &op) in out.iter().zip(&self.ops) {
            if let (Ok(proved), 1) = (r, op.profile) {
                if let Some(base_ms) = unoptimised[op.program][vm_slot(op.vm)] {
                    v.cost_ratios.push(proved.cost_ms() / base_ms);
                }
            }
        }
        Ok(v)
    }

    /// `vm.segmented_vs_solo`: `run_segmented` against `run` on the same
    /// program, profile and VM — what the stepped recorder-fed path costs
    /// over the batched one (ROADMAP item 2's "segmenting as an accountant").
    fn finish(&self, _first: &Self::Out, _paces: &[Pace], traced: bool) -> Result<Extras, String> {
        if !traced {
            return Ok(Extras::default());
        }
        let (mut segmented_s, mut solo_s) = (0.0, 0.0);
        for &op in &self.ops {
            let (s, segmented) = best_time(|| self.engine(op).run_segmented());
            segmented_s += s;
            let (s, solo) = best_time(|| self.engine(op).run());
            solo_s += s;
            let cycles = (
                segmented.map(|(r, _)| r.total_cycles).ok(),
                solo.map(|r| r.total_cycles).ok(),
            );
            if cycles.0 != cycles.1 {
                return Err(format!(
                    "{}: segmented and solo disagree",
                    self.describe(op)
                ));
            }
        }
        Ok(Extras {
            metrics: vec![("vm.segmented_vs_solo", segmented_s / solo_s)],
            ..Extras::default()
        })
    }
}
