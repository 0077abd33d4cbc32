//! `study_matrix`: the paper's RQ1 traffic, and what `report`/fig05 do.
//!
//! One op is one suite row — `run_matrix(&[w], baseline + 6 levels + zk-O3,
//! both VMs, no x86, threads = 1)` — on a `SuiteRunner` created fresh per
//! sweep, so every {program × level} is lowered and compiled once per round
//! and both VMs execute as one lockstep cohort. It is the only workload on
//! `Engine::run_lockstep`. The seed permutes row order only.

use crate::harness::{
    best_time, closed_loop, closed_loop_traced, Base, Extras, Pace, Round, Verdict, Workload,
};
use crate::replica;
use crate::stats::geomean;
use crate::trace::{Probe, Tracer};
use std::collections::BTreeMap;
use zkvmopt_core::{MatrixCell, OptLevel, OptProfile, SuiteRunner};
use zkvmopt_vm::{Engine, ExecConfig, ExecutionReport, VmKind, VmProfile};

/// What one matrix cell exposes to the checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    cycles: u64,
    journal: Vec<i32>,
    exit: i32,
}

/// One op's cells, profile-major then VM, as `run_matrix` orders them.
type Row = Vec<Result<Cell, String>>;

pub struct StudyMatrix {
    base: Base,
    /// Row order: indices into the suite.
    order: Vec<usize>,
    profiles: Vec<OptProfile>,
    golden: BTreeMap<String, (u64, u64)>,
}

fn cell_of(report: &ExecutionReport) -> Cell {
    Cell {
        cycles: report.total_cycles,
        journal: report.journal.clone(),
        exit: report.exit_code,
    }
}

fn row_of(cells: Vec<MatrixCell>) -> Row {
    cells
        .into_iter()
        .map(|c| match c.result {
            Ok((_, run)) => Ok(cell_of(&run.exec)),
            Err(e) => Err(e.to_string()),
        })
        .collect()
}

fn lanes(inputs: &[i32], max_cycles: u64) -> Vec<(VmProfile, ExecConfig)> {
    VmKind::BOTH
        .iter()
        .map(|&vm| {
            let config = ExecConfig {
                inputs: inputs.to_vec(),
                max_cycles,
            };
            (VmProfile::for_kind(vm), config)
        })
        .collect()
}

impl StudyMatrix {
    /// `run_matrix` for one row, stage by stage: lower once, then per
    /// profile clone → apply → codegen → decode (phase 1), then one lockstep
    /// cohort per profile (phase 2).
    fn row_traced(&self, t: &mut Tracer, max_cycles: u64, program: usize) -> Row {
        let w = self.base.programs[program];
        let lowered = match replica::lower(t, w) {
            Ok(m) => m,
            Err(e) => return vec![Err(e); self.profiles.len() * VmKind::BOTH.len()],
        };
        let compiled: Vec<_> = self
            .profiles
            .iter()
            .map(|p| {
                let mut m = t.span("ir", "clone", |_| lowered.clone());
                replica::apply_profile(t, p, &mut m);
                let program = replica::codegen(t, &m, &p.backend).map_err(|e| e.to_string())?;
                Ok(replica::decode(t, &program))
            })
            .collect();
        let lanes = lanes(&w.inputs, max_cycles);
        let mut row = Vec::with_capacity(compiled.len() * lanes.len());
        for decoded in compiled {
            match decoded {
                Ok(decoded) => {
                    let runs = t.span("vm", "lockstep", |_| Engine::run_lockstep(&decoded, &lanes));
                    for run in runs {
                        row.push(match run {
                            Ok(report) => {
                                replica::note_exec(t, &report);
                                Ok(cell_of(&report))
                            }
                            Err(e) => Err(e.to_string()),
                        });
                    }
                }
                Err(e) => row.extend(lanes.iter().map(|_| Err::<Cell, String>(String::clone(&e)))),
            }
        }
        row
    }
}

impl Workload for StudyMatrix {
    const NAME: &'static str = "study_matrix";
    type Out = Vec<Row>;

    fn setup(seed: u64, t: &mut Tracer) -> Result<StudyMatrix, String> {
        let base = Base::build(t)?;
        let mut profiles = vec![OptProfile::baseline()];
        profiles.extend(OptLevel::ALL.map(OptProfile::level));
        profiles.push(OptProfile::zk_o3());
        Ok(StudyMatrix {
            order: crate::ops::permutation(seed, base.programs.len()),
            base,
            profiles,
            golden: crate::json::scan_golden(crate::GOLDEN_CYCLES)?,
        })
    }

    fn oplist_digest(&self) -> u64 {
        crate::ops::digest(&self.order)
    }

    fn round(&self) -> Round<Vec<Row>> {
        let mut runner = SuiteRunner::new();
        closed_loop(self.order.len(), |i| {
            let w = self.base.programs[self.order[i]];
            runner.run_matrix(&[w], &self.profiles, &VmKind::BOTH, false, 1)
        })
        .map(|rows| rows.into_iter().map(row_of).collect())
    }

    fn round_traced(&self, probe: &Probe) -> Round<Vec<Row>> {
        let max_cycles = SuiteRunner::new().max_cycles();
        let mut t = probe.take();
        let round = closed_loop_traced(&mut t, self.order.len(), |t, i| {
            self.row_traced(t, max_cycles, self.order[i])
        });
        probe.give(t);
        round
    }

    fn signature(&self, out: &Vec<Row>) -> Vec<u64> {
        out.iter()
            .flatten()
            .map(|cell| match cell {
                Ok(c) => c.cycles,
                Err(e) => crate::stats::fnv1a(e.as_bytes()) | 1 << 63,
            })
            .collect()
    }

    fn check(&self, out: &Vec<Row>) -> Result<Verdict, String> {
        let nvm = VmKind::BOTH.len();
        let mut v = Verdict::default();
        for (row, &program) in out.iter().zip(&self.order) {
            let name = self.base.programs[program].name;
            let reference = &self.base.refs[program];
            let golden = self
                .golden
                .get(name)
                .ok_or_else(|| format!("{name}: not in tests/golden_cycles.json"))?;
            let mut ratios = Vec::new();
            let mut problems = Vec::new();
            for (ci, cell) in row.iter().enumerate() {
                let (profile, vm) = (&self.profiles[ci / nvm], VmKind::BOTH[ci % nvm]);
                let at = format!("{name} at {} on {vm}", profile.name);
                let cell = match cell {
                    Ok(cell) => cell,
                    Err(e) => {
                        problems.push(format!("{at}: {e}"));
                        continue;
                    }
                };
                if !reference.matches(&cell.journal, cell.exit) {
                    problems.push(format!("{at}: output differs from the IR interpreter's"));
                }
                if profile.name == OptLevel::O2.flag() {
                    let want = [golden.0, golden.1][ci % nvm];
                    if cell.cycles != want {
                        problems.push(format!("{at}: {} cycles, golden says {want}", cell.cycles));
                    }
                }
                if ci >= nvm {
                    if let Ok(unoptimised) = &row[ci % nvm] {
                        ratios.push(cell.cycles as f64 / unoptimised.cycles as f64);
                    }
                }
            }
            if problems.is_empty() {
                v.cost_ratios.push(geomean(&ratios));
            } else {
                v.failures.push(problems.join("; "));
            }
        }
        Ok(v)
    }

    /// `vm.lockstep_vs_solo`: every {program × profile} cohort against the
    /// same two lanes as solo `Engine::run`s — the evidence ROADMAP item 2
    /// asks for before the cohort machinery is kept or deleted.
    fn finish(&self, _first: &Vec<Row>, _paces: &[Pace], traced: bool) -> Result<Extras, String> {
        if !traced {
            return Ok(Extras::default());
        }
        let mut runner = SuiteRunner::new();
        let max_cycles = runner.max_cycles();
        let (mut cohort_s, mut solo_s) = (0.0, 0.0);
        for w in &self.base.programs {
            let lanes = lanes(&w.inputs, max_cycles);
            for p in &self.profiles {
                let cw = runner
                    .compile(w, p)
                    .map_err(|e| format!("{}: {e}", w.name))?;
                let (s, cohort) = best_time(|| Engine::run_lockstep(&cw.decoded, &lanes));
                cohort_s += s;
                let (s, solo) = best_time(|| {
                    let run = |(profile, config): &(VmProfile, ExecConfig)| {
                        Engine::new(&cw.decoded, profile.clone(), config.clone()).run()
                    };
                    lanes.iter().map(run).collect::<Vec<_>>()
                });
                solo_s += s;
                let cycles = |rs: &[Result<ExecutionReport, _>]| -> Vec<Option<u64>> {
                    rs.iter()
                        .map(|r| r.as_ref().ok().map(|r| r.total_cycles))
                        .collect()
                };
                if cycles(&cohort) != cycles(&solo) {
                    return Err(format!(
                        "{} at {}: lockstep and solo disagree",
                        w.name, p.name
                    ));
                }
            }
        }
        Ok(Extras {
            metrics: vec![("vm.lockstep_vs_solo", cohort_s / solo_s)],
            ..Extras::default()
        })
    }
}
