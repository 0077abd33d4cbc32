//! The paper's tables and figures, one function per figure or table.
//!
//! Each returns [`Table`]s: typed rows, notes, and the paper claims it checks
//! as [`Finding`]s, all rendered by one `Display`. [`STUDIES`] names each
//! function's `report` flag; `tests/paper_findings.rs` pins every finding and
//! the rendered quick-scale output. The suite-level figures (3, 4, 5, 7, 8,
//! 14, 14b, Tables 1 and 2) run on a [`Scale`]; the case studies run their
//! fixed programs.

use std::collections::BTreeMap;
use std::fmt;
use std::iter::once;
use std::sync::OnceLock;

use self::Cell::{Count, Num, Pct, Text, Times};
use crate::{bench_workloads, by_names, impact_matrix, Impact};
use zkvmopt_core::{categorize, gain, OptLevel, OptProfile, Pipeline, RunReport};
use zkvmopt_passes::PassConfig;
use zkvmopt_stats::{kendall_tau, mean, pearson, summarize};
use zkvmopt_vm::VmKind::{self, RiscZero, Sp1};
use zkvmopt_workloads::{Suite, Workload};

/// One paper claim a table checks, and whether this reproduction shows it.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Stable identifier, `<figure>.<claim>[.<vm>]`.
    pub id: String,
    /// The claim, stated strictly.
    pub claim: &'static str,
    /// Whether the claim holds on the table's numbers.
    pub holds: bool,
}

/// Every finding as `id: claim`.
const CLAIMS: &[&str] = &[
    "fig2a.shifts_win_on_x86: shifts run faster than div on x86",
    "fig2a.div_wins_on_zkvm: div executes faster than shifts on the zkVM",
    "fig2b.fission_helps_x86: loop fission runs faster on x86",
    "fig2b.fission_hurts_zkvm: loop fission executes slower on the zkVM",
    "fig3.inline_beats_licm.risc0: inline gains more than licm on average",
    "fig3.inline_beats_licm.sp1: inline gains more than licm on average",
    "fig5.o3_leads: -O3 gains at least as much as every level (R0 exec)",
    "fig5.o3_leads_within_2_5_points: no level beats -O3 by over 2.5 points (R0 exec)",
    "fig5.o2_o3_gain_over_40: -O2 and -O3 each gain over 40% (R0 exec)",
    "fig6.tuned_beats_o3: the tuned sequence beats -O3 on every program",
    "fig6.tuned_within_1_6x_of_o3: the tuned sequence stays within 1.6x of -O3's cycles",
    "fig7.x86_gains_more: x86 gains more than the zkVM on most impactful profiles",
    "fig10.licm_blowup_grows_with_depth: licm's instret and paging increase grows with nest depth",
    "fig11.inlining_adds_spills: inlining the wide-state callee spills more vregs",
    "fig13.if_conversion_helps_x86: if-conversion runs faster on x86",
    "fig13.if_conversion_adds_zkvm_instructions: if-conversion executes more zkVM instructions",
    "fig14.zk_o3_wins_outnumber_losses: zk-O3 beats -O3 on more programs than it loses",
    "fig14.zk_o3_mean_gain_positive: zk-O3's mean gain over -O3 is positive (R0 exec)",
    "fig15.zkvm_exec_far_slower_than_native: zkVM exec is over 10x native on every NPB program",
    "table2.instret_predicts_exec.risc0: instret tracks exec time (tau > 0.4, r > 0.7)",
    "table2.instret_predicts_exec.sp1: instret tracks exec time (tau > 0.4, r > 0.7)",
    "table3.unroll4_executes_fewer: 4x unrolling executes fewer instructions",
    "table3.unroll16_executes_fewer: 16x unrolling executes fewer instructions",
    "table3.unroll16_beats_unroll4: 16x unrolling gains more than 4x (R0 exec)",
    "table6.proving_dominates.risc0: mean proving time exceeds mean execution time",
    "table6.proving_dominates.sp1: mean proving time exceeds mean execution time",
];

/// One table cell: a label, or a number with its printed precision.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label.
    Text(String),
    /// A signed percentage, one decimal.
    Pct(f64),
    /// A number with this many decimals.
    Num(f64, usize),
    /// A ratio, as a whole multiple (`147x`).
    Times(f64),
    /// A count.
    Count(u64),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Text(s) => f.write_str(s),
            Pct(x) => write!(f, "{x:+.1}%"),
            Num(x, prec) => write!(f, "{x:.prec$}"),
            Times(x) => write!(f, "{x:.0}x"),
            Count(n) => write!(f, "{n}"),
        }
    }
}

/// A figure or table: a title, column headers, rows (the first cell labels
/// each), notes, and the findings it checks.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    /// Title line.
    pub title: String,
    /// Column headers.
    pub columns: Vec<&'static str>,
    /// Rows, one cell per column.
    pub rows: Vec<Vec<Cell>>,
    /// Lines printed under the rows.
    pub notes: Vec<String>,
    /// The paper claims this table checks.
    pub findings: Vec<Finding>,
}

impl Table {
    /// A table titled `title` whose `|`-separated `header` names its columns.
    fn new(title: impl Into<String>, header: &'static str) -> Table {
        let (title, columns) = (title.into(), header.split('|').collect());
        Table {
            title,
            columns,
            ..Table::default()
        }
    }

    fn row(&mut self, label: impl Into<String>, cells: impl IntoIterator<Item = Cell>) {
        let label = Text(label.into());
        self.rows.push(once(label).chain(cells).collect());
    }

    fn check(&mut self, id: impl Into<String>, holds: bool) {
        let id = id.into();
        let entry = CLAIMS
            .iter()
            .find_map(|c| c.strip_prefix(&id)?.strip_prefix(": "));
        let claim = entry.expect("every finding has a claim");
        self.findings.push(Finding { id, claim, holds });
    }
}

/// The rule above and below a table's title.
const RULE: &str = "================================================================";

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n{RULE}\n{}\n{RULE}", self.title)?;
        let header = self.columns.iter().map(|h| h.to_string()).collect();
        let cells = self.rows.iter().map(|r| r.iter().map(Cell::to_string));
        let lines: Vec<Vec<String>> = once(header).chain(cells.map(Vec::from_iter)).collect();
        let width = |c: usize| lines.iter().map(|l| l[c].chars().count()).max();
        for line in &lines {
            let mut out = String::new();
            for (c, s) in line.iter().enumerate() {
                let w = width(c).unwrap_or(0);
                let sep = if c == 0 { "" } else { "  " };
                // Labels align left, numbers right.
                if c == 0 || self.rows.iter().all(|r| matches!(r[c], Text(_))) {
                    out += &format!("{sep}{s:<w$}");
                } else {
                    out += &format!("{sep}{s:>w$}");
                }
            }
            writeln!(f, "{}", out.trim_end())?;
        }
        for n in &self.notes {
            writeln!(f, "{n}")?;
        }
        for x in &self.findings {
            let not = if x.holds { "" } else { "NOT " };
            writeln!(f, "[{not}reproduced] {}: {}", x.id, x.claim)?;
        }
        Ok(())
    }
}

/// The workload set and single-pass axis of the suite-level figures, with
/// the pass-impact matrix Figs. 3 and 4 and Tables 1 and 2 share.
pub struct Scale {
    workloads: Vec<&'static Workload>,
    passes: Vec<&'static str>,
    pass_impacts: OnceLock<Vec<Impact>>,
}

impl Scale {
    fn new(workloads: Vec<&'static Workload>, passes: &[&'static str]) -> Scale {
        let (passes, pass_impacts) = (passes.to_vec(), OnceLock::new());
        Scale {
            workloads,
            passes,
            pass_impacts,
        }
    }

    /// `report --quick`: [`bench_workloads`] × [`zkvmopt_core::KEY_PASSES`].
    pub fn quick() -> Scale {
        Scale::new(bench_workloads(), zkvmopt_core::KEY_PASSES)
    }

    /// All 58 programs × [`zkvmopt_core::studied_passes`].
    pub fn full() -> Scale {
        let all = zkvmopt_workloads::all().iter().collect();
        Scale::new(all, zkvmopt_core::studied_passes())
    }

    /// Every pass of the axis against the baseline on both VMs, run once.
    pub fn pass_impacts(&self) -> &[Impact] {
        self.pass_impacts.get_or_init(|| {
            let profiles = pass_profiles(self.passes.iter().copied());
            impact_matrix(&self.workloads, &profiles, &VmKind::BOTH, false)
        })
    }
}

/// A study: one figure or table, as one or more tables.
pub type Study = fn(&Scale) -> Vec<Table>;

/// Every study under its `report` flag, in `report --all` order.
pub const STUDIES: &[(&str, Study)] = &[
    ("fig2", |_| fig2()),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", |_| fig6()),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", |_| fig9()),
    ("fig10", |_| fig10()),
    ("fig11", |_| fig11()),
    ("fig13", |_| fig13()),
    ("fig14", fig14),
    ("fig15", |_| fig15()),
    ("table1", table1),
    ("table2", table2),
    ("table3", |_| table3()),
    ("table6", |_| table6()),
];

/// Every standard level (Fig. 5's axis).
pub(crate) fn level_profiles() -> Vec<OptProfile> {
    OptLevel::ALL.map(OptProfile::level).to_vec()
}

/// One single-pass profile per pass name.
pub(crate) fn pass_profiles(names: impl IntoIterator<Item = &'static str>) -> Vec<OptProfile> {
    names.into_iter().map(OptProfile::single_pass).collect()
}

type Select = fn(&Impact) -> f64;
const EXEC: Select = |i| i.exec_gain;
const PROVE: Select = |i| i.prove_gain;

/// Mean of `select` over the impacts of `profile` on `vm`.
fn mean_gain(impacts: &[Impact], profile: &str, vm: VmKind, select: Select) -> f64 {
    let on = |i: &&Impact| i.profile == profile && i.vm == vm;
    mean(&impacts.iter().filter(on).map(select).collect::<Vec<_>>())
}

/// A finding id's VM suffix.
fn vm_id(vm: VmKind) -> &'static str {
    match vm {
        RiscZero => "risc0",
        Sp1 => "sp1",
    }
}

/// Compile `src` under `profile` and run it on `vm` and the x86 model.
fn run_src(src: &str, inputs: &[i32], profile: OptProfile, vm: VmKind) -> RunReport {
    let r = Pipeline::new(profile)
        .with_x86()
        .run_source(src, inputs, vm);
    r.expect("case-study program runs")
}

/// A run's x86, zkVM exec and prove ms, in [`TIMES`] order.
fn times(r: &RunReport) -> [f64; 3] {
    let x86 = r.x86.as_ref().expect("x86 measured");
    [x86.time_ms, r.exec_ms, r.prove_ms]
}
const TIMES: [&str; 3] = ["x86 native ms", "zkVM exec ms", "zkVM prove ms"];

/// One row per [`TIMES`] entry comparing `a` with `b`: both, then `b`'s gain.
fn versus(t: &mut Table, a: [f64; 3], b: [f64; 3]) {
    for (k, label) in TIMES.iter().enumerate() {
        t.row(*label, [Num(a[k], 4), Num(b[k], 4), Pct(gain(a[k], b[k]))]);
    }
}

const DIV8: &str = "
    fn main() -> i32 {
      let mut s: i32 = 0;
      for (let mut i: i32 = 1; i < 4000; i += 1) { s += (i + read_input(0)) / 8; }
      commit(s); return s;
    }";

const FUSED: &str = "
    const N: i32 = 8192;
    static A: [i32; 8192]; static B: [i32; 8192];
    fn main() -> i32 {
      for (let mut i: i32 = 0; i < N; i += 1) { A[i] = 1; B[i] = 2; }
      commit(A[17] + B[99]); return A[0];
    }";

const FISSIONED: &str = "
    const N: i32 = 8192;
    static A: [i32; 8192]; static B: [i32; 8192];
    fn main() -> i32 {
      for (let mut i: i32 = 0; i < N; i += 1) { A[i] = 1; }
      for (let mut i: i32 = 0; i < N; i += 1) { B[i] = 2; }
      commit(A[17] + B[99]); return A[0];
    }";

/// Figure 2: strength reduction (2a) and loop fission (2b) help x86 but
/// hurt zkVMs.
pub fn fig2() -> Vec<Table> {
    // Same IR; the backend cost model decides (paper: the 'optimized' form
    // is 3.5x faster on x86 but 40% slower to prove on RISC Zero).
    let o1 = || OptProfile::level(OptLevel::O1);
    let mut zk = o1();
    zk.backend = zkvmopt_riscv::TargetCostModel::zk();
    zk.pass_config.strength_reduce_div = false;
    let [shifts, div] = [o1(), zk].map(|p| times(&run_src(DIV8, &[3], p, RiscZero)));
    let title = "Figure 2a: div-by-8 — CPU-tuned isel (shift seq) vs zk isel (div)";
    let mut a = Table::new(title, "|shifts|div|faster|by");
    // Each row names the faster form: shifts on x86, div on the zkVM.
    for (k, faster) in ["shifts", "div", "div"].into_iter().enumerate() {
        let (s, d) = (shifts[k], div[k]);
        let by = if k == 0 { gain(d, s) } else { gain(s, d) };
        a.row(
            TIMES[k],
            [Num(s, 4), Num(d, 4), Text(faster.into()), Pct(by)],
        );
    }
    a.check("fig2a.shifts_win_on_x86", shifts[0] < div[0]);
    a.check("fig2a.div_wins_on_zkvm", div[1] < shifts[1]);

    let [fused, split] = [FUSED, FISSIONED].map(|s| times(&run_src(s, &[3], o1(), RiscZero)));
    let title = "Figure 2b: loop fission — helps x86 locality, duplicates zkVM loop control";
    let mut b = Table::new(title, "|fused|fissioned|fission");
    versus(&mut b, fused, split);
    b.check("fig2b.fission_helps_x86", split[0] < fused[0]);
    b.check("fig2b.fission_hurts_zkvm", split[1] > fused[1]);
    vec![a, b]
}

/// Figure 3: mean gain of each single pass vs baseline per zkVM, ranked by
/// execution gain.
pub fn fig3(scale: &Scale) -> Vec<Table> {
    let impacts = scale.pass_impacts();
    let fig = |vm| {
        let gains = |p| [EXEC, PROVE, |i| i.cycles_gain].map(|f| mean_gain(impacts, p, vm, f));
        let mut rows: Vec<_> = scale.passes.iter().map(|p| (*p, gains(p))).collect();
        rows.sort_by(|a, b| b.1[0].partial_cmp(&a.1[0]).expect("no NaN"));
        let title = format!("Figure 3 ({vm}): mean gain per pass vs baseline");
        let mut t = Table::new(title, "pass|exec|prove|cycles");
        for (p, g) in rows {
            t.row(p, g.map(Pct));
        }
        let (inline, licm) = (gains("inline")[0], gains("licm")[0]);
        let note = format!("-> inline {} vs licm {}", Pct(inline), Pct(licm));
        t.notes.push(note);
        let id = format!("fig3.inline_beats_licm.{}", vm_id(vm));
        t.check(id, inline > licm);
        t
    };
    VmKind::BOTH.map(fig).into()
}

/// Figure 4: per-pass counts of severe/moderate execution gains and losses.
pub fn fig4(scale: &Scale) -> Vec<Table> {
    use zkvmopt_core::EffectCategory::{ModerateGain, ModerateLoss, SevereGain, SevereLoss};
    let fig = |vm| {
        let title = format!("Figure 4 ({vm}): effect categories per pass (exec)");
        let mut t = Table::new(title, "pass|<=-5%|-5..-2|2..5|>=5%");
        for p in &scale.passes {
            let on = |i: &&Impact| i.profile == *p && i.vm == vm;
            let impacts = || scale.pass_impacts().iter().filter(on);
            let n = |c| Count(impacts().filter(|i| categorize(i.exec_gain) == c).count() as u64);
            let categories = [SevereLoss, ModerateLoss, ModerateGain, SevereGain];
            t.row(*p, categories.map(n));
        }
        t
    };
    VmKind::BOTH.map(fig).into()
}

/// Figure 5: the standard -O levels vs baseline, and which levels linked the
/// same program as an earlier profile.
pub fn fig5(scale: &Scale) -> Vec<Table> {
    let impacts = impact_matrix(&scale.workloads, &level_profiles(), &VmKind::BOTH, false);
    let header = "level|R0 exec|R0 prove|SP1 exec|SP1 prove";
    let mut t = Table::new("Figure 5: -Ox levels vs baseline", header);
    let g = |l: OptLevel, vm, f| mean_gain(&impacts, l.flag(), vm, f);
    let columns = [
        (RiscZero, EXEC),
        (RiscZero, PROVE),
        (Sp1, EXEC),
        (Sp1, PROVE),
    ];
    for l in OptLevel::ALL {
        t.row(l.flag(), columns.map(|(vm, f)| Pct(g(l, vm, f))));
    }
    // A level that linked the same program as an earlier profile of its row
    // (the baseline first) reused that run. Sharing is per program, so one
    // VM's cells count it; the flags sort in the table's order.
    let mut census: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for i in impacts.iter().filter(|i| i.vm == RiscZero) {
        if let Some(earlier) = &i.same_program_as {
            *census.entry((&i.profile, earlier)).or_default() += 1;
        }
    }
    let of = scale.workloads.len();
    for ((level, earlier), n) in census {
        let note = format!("{level} shares {earlier}'s program on {n}/{of}");
        t.notes.push(note);
    }
    let exec = |l| g(l, RiscZero, EXEC);
    let o3 = exec(OptLevel::O3);
    let leads_by = |margin| OptLevel::ALL.iter().all(|&l| o3 >= exec(l) - margin);
    t.check("fig5.o3_leads", leads_by(0.0));
    t.check("fig5.o3_leads_within_2_5_points", leads_by(2.5));
    let over_40 = exec(OptLevel::O2) > 40.0 && o3 > 40.0;
    t.check("fig5.o2_o3_gain_over_40", over_40);
    vec![t]
}

/// Tune one workload as one population of 8 × 5 generations from a fixed
/// seed; returns (`-O3` cycles, tuned cycles).
fn tune_one(name: &str) -> (u64, u64) {
    use zkvmopt_tuner::{tune_suite, ServiceConfig, TuneDb};
    // The batch evaluator lowers the workload once and measures its baseline
    // and -O3 reference; every candidate then pays passes + codegen + engine.
    let mut runner = zkvmopt_core::SuiteRunner::new();
    let ev = runner.batch_evaluator(&by_names(&[name]), RiscZero);
    let ev = ev.expect("baseline and -O3 run");
    let cfg = ServiceConfig {
        islands: 1,
        population: 8,
        threads: 1,
        migration_interval: 0,
        seed: 0xC0FFEE,
        ..Default::default()
    };
    // A candidate that diverges from the baseline journal is classed invalid
    // and can never win (the paper's SP1-bug channel).
    let fitness = ev.classified_fitness();
    let report = tune_suite(&cfg, &ev.tune_targets(), &mut TuneDb::in_memory(), fitness);
    let tuned = &report.workloads[0];
    let best = tuned.best.as_ref().expect("a valid candidate");
    let rerun = ev.eval(0, &best.passes, &best.pass_config());
    assert_eq!(rerun, tuned.best_fitness, "{name}: tuned candidate re-runs");
    (ev.o3_cycles(0), tuned.best_fitness.expect("measured"))
}

/// Figure 6: autotuned pass sequences vs -O3 (cycle count, RISC Zero) under
/// a 40-evaluation budget (the paper runs OpenTuner for 1600).
pub fn fig6() -> Vec<Table> {
    let title = "Figure 6: autotuned pass sequences vs -O3 (cycle count, RISC Zero)";
    let mut t = Table::new(title, "workload|-O3 cycles|tuned cycles|tuned vs -O3");
    let (mut beats, mut close) = (true, true);
    for name in ["npb-mg", "loop-sum", "sha2-bench"] {
        let (o3, tuned) = tune_one(name);
        let g = gain(o3 as f64, tuned as f64);
        t.row(name, [Count(o3), Count(tuned), Pct(g)]);
        beats &= tuned < o3;
        close &= tuned as f64 <= o3 as f64 * 1.6;
    }
    t.check("fig6.tuned_beats_o3", beats);
    t.check("fig6.tuned_within_1_6x_of_o3", close);
    vec![t]
}

/// Figure 7: mean gain of each optimization on zkVM exec and prove vs x86
/// (paper: same direction on both, far larger magnitude on x86).
pub fn fig7(scale: &Scale) -> Vec<Table> {
    let passes = "inline,always-inline,gvn,jump-threading,instcombine,simplifycfg,sroa,ipsccp,\
                  reg2mem,loop-extract,licm";
    let levels = [OptLevel::O3, OptLevel::O2, OptLevel::O1].map(OptProfile::level);
    let mut profiles = levels.to_vec();
    profiles.extend(pass_profiles(passes.split(',')));
    let impacts = impact_matrix(&scale.workloads, &profiles, &[RiscZero], true);
    let title = "Figure 7: mean gain per optimization — zkVM exec / prove / x86";
    let mut t = Table::new(title, "profile|zkVM exec|prove|x86");
    let (mut x86_bigger, mut total) = (0, 0);
    for p in &profiles {
        let g = |f| mean_gain(&impacts, &p.name, RiscZero, f);
        let (e, x) = (g(EXEC), g(|i| i.x86_gain.unwrap_or(0.0)));
        t.row(&p.name, [Pct(e), Pct(g(PROVE)), Pct(x)]);
        if e > 2.0 || x > 2.0 {
            total += 1;
            x86_bigger += usize::from(x > e);
        }
    }
    let note = format!("-> x86 gain exceeds zkVM gain on {x86_bigger}/{total} impactful profiles");
    t.notes.push(note);
    t.check("fig7.x86_gains_more", x86_bigger * 2 >= total);
    vec![t]
}

/// Figure 8: programs where a pass diverges between x86 and RISC Zero (gain
/// on one, loss on the other, or lopsided gains).
pub fn fig8(scale: &Scale) -> Vec<Table> {
    let passes = "inline,jump-threading,gvn,simplifycfg,reg2mem,tailcall,loop-extract,\
                  instcombine,licm,sroa";
    let profiles = pass_profiles(passes.split(','));
    let impacts = impact_matrix(&scale.workloads, &profiles, &[RiscZero], true);
    let title = "Figure 8: divergence counts (x86 vs RISC Zero execution)";
    let mut t = Table::new(title, "pass|zk+ x86-|zk+>x86+|x86+>zk+|x86+ zk-");
    for p in passes.split(',') {
        let mut c = [0u64; 4];
        for i in impacts.iter().filter(|i| i.profile == p) {
            let (zk, x86) = (i.exec_gain, i.x86_gain.unwrap_or(0.0));
            let both = zk > 2.0 && x86 > 2.0;
            if zk > 2.0 && x86 < -2.0 {
                c[0] += 1;
            } else if both && zk > x86 + 5.0 {
                c[1] += 1;
            } else if both && x86 > zk + 5.0 {
                c[2] += 1;
            } else if x86 > 2.0 && zk < -2.0 {
                c[3] += 1;
            }
        }
        t.row(p, c.map(Count));
    }
    vec![t]
}

/// Figure 9 (RISC Zero): representative passes' gains beside the cost
/// components behind them — cycles, executed instructions, paging.
pub fn fig9() -> Vec<Table> {
    let passes = [
        ("inline", "polybench-floyd-warshall"),
        ("inline", "tailcall"),
        ("always-inline", "factorial"),
        ("loop-extract", "polybench-trmm"),
        ("licm", "npb-lu"),
        ("licm", "polybench-gemm"),
    ];
    let passes = passes.map(|(p, w)| (OptProfile::single_pass(p), w));
    // -O3 and -O0 for completeness, matching the figure.
    let levels = [OptLevel::O3, OptLevel::O0].map(|l| (OptProfile::level(l), "loop-sum"));
    let title = "Figure 9 (RISC Zero): pass impact vs cost components";
    let mut t = Table::new(title, "pass|workload|exec|prove|cycles|instret|paging");
    for (profile, w) in passes.into_iter().chain(levels) {
        for i in impact_matrix(&by_names(&[w]), &[profile], &[RiscZero], false) {
            let (cycles, instret, paging) = (i.cycles_gain, i.instret_gain, i.paging_gain);
            let g = [i.exec_gain, i.prove_gain, cycles, instret, paging].map(Pct);
            t.row(i.profile, once(Text(w.into())).chain(g));
        }
    }
    vec![t]
}

/// A `depth`-deep loop nest storing into a flat array.
fn nest_src(depth: usize) -> String {
    let n = [20000, 160, 28, 12][depth - 1];
    let mut body = String::from("idx = (idx * 13 + 7) % 16384; V[idx] = 42; acc += idx;");
    for v in ["k", "j", "i", "l"][..depth].iter().rev() {
        body = format!("for (let mut {v}: i32 = 0; {v} < {n}; {v} += 1) {{ {body} }}");
    }
    format!(
        "static V: [i32; 16384];
         fn main() -> i32 {{
           let mut idx: i32 = read_input(0);
           let mut acc: i32 = 0;
           {body}
           commit(V[idx % 16384]);
           commit(acc);
           return V[0];
         }}"
    )
}

/// Figure 10: licm's instruction and paging deltas vs loop nesting depth
/// (paper: depth 4 shows +46% paging and +155% instructions vs +7%/+25% at
/// depth 2).
pub fn fig10() -> Vec<Table> {
    let title = "Figure 10: licm impact vs loop nesting depth (RISC Zero)";
    let mut t = Table::new(title, "depth|instret delta|paging delta");
    let mut deltas: Vec<[f64; 2]> = Vec::new();
    for depth in [1, 2, 4] {
        let w = Workload {
            name: "nest",
            suite: Suite::Other,
            source: nest_src(depth),
            inputs: vec![3],
            uses_precompile: false,
        };
        let licm = [OptProfile::single_pass("licm")];
        let i = impact_matrix(&[&w], &licm, &[RiscZero], false).pop();
        let i = i.expect("licm runs on the nest");
        // Negative gain = increase in the metric.
        let d = [-i.instret_gain, -i.paging_gain];
        t.row(depth.to_string(), d.map(Pct));
        deltas.push(d);
    }
    let grows = |m: usize| deltas.windows(2).all(|p| p[1][m] > p[0][m]);
    t.check("fig10.licm_blowup_grows_with_depth", grows(0) && grows(1));
    vec![t]
}

/// Figure 11: inlining a wide-state callee into a hot caller (the tailcall
/// kernel, RISC Zero) — spills vs the removed call overhead.
pub fn fig11() -> Vec<Table> {
    let noinline = OptProfile::sequence("mem2reg-only", vec!["mem2reg"], PassConfig::default());
    let cfg = PassConfig {
        inline_threshold: 10_000,
        ..Default::default()
    };
    let inline = OptProfile::sequence("mem2reg+inline", vec!["mem2reg", "inline"], cfg);
    let w = by_names(&["tailcall"]);
    let impacts = impact_matrix(&w, &[noinline, inline], &[RiscZero], false);
    let [a, b] = &impacts[..] else {
        panic!("both tailcall profiles run")
    };
    let title = "Figure 11: inlining the tailcall kernel (RISC Zero)";
    let mut t = Table::new(title, "profile|exec|cycles|instret|spilled vregs");
    for i in [a, b] {
        let gains = [i.exec_gain, i.cycles_gain, i.instret_gain].map(Pct);
        let spilled = Count(i.measurement.spilled_vregs.into());
        t.row(&i.profile, gains.into_iter().chain([spilled]));
    }
    let more = b.measurement.spilled_vregs > a.measurement.spilled_vregs;
    t.check("fig11.inlining_adds_spills", more);
    vec![t]
}

const ABS_KERNEL: &str = "
    fn main() -> i32 {
      let mut s: i32 = 0;
      let mut x: u32 = (read_input(0) + 9) as u32;
      for (let mut i: i32 = 0; i < 4000; i += 1) {
        x = x * 1103515245 + 12345;
        let v: i32 = ((x >> 8) % 2001) as i32 - 1000;
        let mut a: i32 = v;
        if (v < 0) { a = 0 - v; }
        s += a;
      }
      commit(s); return s;
    }";

/// Figure 13: simplifycfg's branch-to-select conversion (the nussinov abs
/// kernel) helps x86 via fewer mispredictions but hurts zkVMs, where both
/// paths now execute.
pub fn fig13() -> Vec<Table> {
    let run = |passes| {
        let profile = OptProfile::sequence("abs", passes, PassConfig::default());
        run_src(ABS_KERNEL, &[1], profile, RiscZero)
    };
    let (b, c) = (run(vec!["mem2reg"]), run(vec!["mem2reg", "simplifycfg"]));
    let title = "Figure 13: branchy |x| vs simplifycfg's if-converted form";
    let mut t = Table::new(title, "|branchy|converted|conversion");
    versus(&mut t, times(&b), times(&c));
    let (ib, ic) = (b.exec.instret, c.exec.instret);
    let g = gain(ib as f64, ic as f64);
    t.row("instret", [Count(ib), Count(ic), Pct(g)]);
    t.check("fig13.if_conversion_helps_x86", times(&c)[0] < times(&b)[0]);
    t.check("fig13.if_conversion_adds_zkvm_instructions", ic > ib);
    vec![t]
}

/// Figure 14 / §6.1: the zkVM-aware -O3 (cost model, heuristics, disabled
/// hardware passes) vs stock -O3; and 14b, the same RISC Zero runs' segment
/// records priced under every prover backend's cost shape.
pub fn fig14(scale: &Scale) -> Vec<Table> {
    use zkvmopt_prover::{proving_cost_ms, standard_backends};
    let profiles = [OptProfile::level(OptLevel::O3), OptProfile::zk_o3()];
    let impacts = impact_matrix(&scale.workloads, &profiles, &VmKind::BOTH, false);
    let header = "workload|R0 exec|SP1 exec|R0 instret Δ|R0 prove";
    let mut t = Table::new("Figure 14: zk-aware -O3 vs stock -O3", header);
    let backends = standard_backends();
    let title = "Figure 14b: zk-aware -O3 prove-cost gain per prover backend (RISC Zero runs)";
    let mut b = Table::new(title, "workload");
    b.columns.extend(backends.map(|b| b.name()));
    let (mut r0_gains, mut sp1_gains, mut instr_reduced) = (Vec::new(), Vec::new(), 0);
    let mut backend_gains = vec![Vec::new(); backends.len()];
    for w in &scale.workloads {
        let of = |p: &OptProfile, vm| {
            let on = |i: &&Impact| i.workload == w.name && i.profile == p.name && i.vm == vm;
            impacts.iter().find(on)
        };
        let pair = |vm| Some((of(&profiles[0], vm)?, of(&profiles[1], vm)?));
        let (Some((o3, zk)), Some((sp1_o3, sp1_zk))) = (pair(RiscZero), pair(Sp1)) else {
            continue;
        };
        let (m, z) = (&o3.measurement, &zk.measurement);
        let (r0, dp) = (gain(m.exec_ms, z.exec_ms), gain(m.prove_ms, z.prove_ms));
        let sp1 = gain(sp1_o3.measurement.exec_ms, sp1_zk.measurement.exec_ms);
        let di = gain(m.instret as f64, z.instret as f64);
        t.row(w.name, [r0, sp1, di, dp].map(Pct));
        r0_gains.push(r0);
        sp1_gains.push(sp1);
        instr_reduced += usize::from(di > 0.0);
        let cost = |backend, i: &Impact| proving_cost_ms(backend, &i.records);
        let gains = backends.map(|backend| gain(cost(backend, o3), cost(backend, zk)));
        for (all, g) in backend_gains.iter_mut().zip(gains) {
            all.push(g);
        }
        b.row(w.name, gains.map(Pct));
    }
    b.row("mean", backend_gains.iter().map(|g| Pct(mean(g))));
    let total = r0_gains.len();
    let wins = r0_gains.iter().filter(|g| **g > 0.5).count();
    let losses = r0_gains.iter().filter(|g| **g < -0.5).count();
    let (r0_mean, sp1_mean) = (mean(&r0_gains), mean(&sp1_gains));
    t.notes = vec![
        format!(
            "-> zk-O3 beats -O3 on RISC Zero exec for {wins}/{total} programs ({losses} \
             regressions); instruction count reduced on {instr_reduced}/{total}"
        ),
        format!(
            "-> average: RISC Zero {} | SP1 {}",
            Pct(r0_mean),
            Pct(sp1_mean)
        ),
    ];
    // Paper shape: wins outnumber regressions (39/58 improved, 2 regressed)
    // and the average is positive; ties are programs the cost model leaves
    // untouched.
    t.check("fig14.zk_o3_wins_outnumber_losses", wins > losses);
    t.check("fig14.zk_o3_mean_gain_positive", r0_mean > 0.0);
    vec![t, b]
}

/// Figure 15 / Appendix A: native vs zkVM execution vs proving, NPB suite,
/// unoptimized.
pub fn fig15() -> Vec<Table> {
    let title = "Figure 15: native vs zkVM execution vs proving (NPB, unoptimized)";
    let header = "program|native ms|zk exec ms|prove ms|exec/nat|prove/nat";
    let mut t = Table::new(title, header);
    let mut min_ratio = f64::INFINITY;
    for w in zkvmopt_workloads::suite(Suite::Npb) {
        let r = run_src(&w.source, &w.inputs, OptProfile::baseline(), RiscZero);
        let [x86, exec, prove] = times(&r);
        let ratios = [Times(exec / x86), Times(prove / x86)];
        let ms = [Num(x86, 4), Num(exec, 3), Num(prove, 1)];
        t.row(w.name, ms.into_iter().chain(ratios));
        min_ratio = min_ratio.min(exec / x86);
    }
    t.check("fig15.zkvm_exec_far_slower_than_native", min_ratio > 10.0);
    vec![t]
}

/// Table 1: (program, pass) instances with gains (> 2%) or losses (< -2%).
pub fn table1(scale: &Scale) -> Vec<Table> {
    let title = "Table 1: gain/loss instance counts (>2% / <-2%)";
    let mut t = Table::new(title, "zkVM|exec gain|exec loss|prove gain|prove loss");
    for vm in VmKind::BOTH {
        let on_vm = scale.pass_impacts().iter().filter(|i| i.vm == vm);
        // A loss is a gain below -2%: its negation is above 2%.
        let n = |(f, sign): (Select, f64)| on_vm.clone().filter(|i| sign * f(i) > 2.0).count();
        let counts = [(EXEC, 1.0), (EXEC, -1.0), (PROVE, 1.0), (PROVE, -1.0)].map(n);
        t.row(vm.name(), counts.map(|c| Count(c as u64)));
    }
    vec![t]
}

/// Table 2: Kendall τ and Pearson r between cost metrics and performance,
/// per program over the single-pass variants, averaged over programs.
pub fn table2(scale: &Scale) -> Vec<Table> {
    let title = "Table 2: Kendall tau / Pearson between cost metrics and performance";
    let mut t = Table::new(title, "zkVM|perf metric|cost metric|Kendall|Pearson");
    let instret: Select = |i| i.measurement.instret as f64;
    let paging: Select = |i| i.measurement.paging_cycles as f64;
    let exec: Select = |i| i.measurement.exec_ms;
    let prove: Select = |i| i.measurement.prove_ms;
    let pairs = [
        (RiscZero, "exec time", "executed instr", instret, exec),
        (RiscZero, "proving time", "executed instr", instret, prove),
        (RiscZero, "exec time", "paging cycles", paging, exec),
        (Sp1, "exec time", "executed instr", instret, exec),
        (Sp1, "proving time", "executed instr", instret, prove),
    ];
    for (vm, perf, cost, x, y) in pairs {
        let (mut taus, mut rs) = (Vec::new(), Vec::new());
        for w in &scale.workloads {
            let on = |i: &&Impact| i.workload == w.name && i.vm == vm;
            let cells = scale.pass_impacts().iter().filter(on);
            let (xs, ys): (Vec<f64>, Vec<f64>) = cells.map(|i| (x(i), y(i))).unzip();
            taus.push(kendall_tau(&xs, &ys));
            rs.push(pearson(&xs, &ys));
        }
        let (tau, r) = (mean(&taus), mean(&rs));
        let labels = [Text(perf.into()), Text(cost.into())];
        t.row(
            vm.name(),
            labels.into_iter().chain([Num(tau, 2), Num(r, 2)]),
        );
        if (perf, cost) == ("exec time", "executed instr") {
            // The paper's core claim: a strong monotonic and linear relation
            // between dynamic instruction count and execution time.
            let id = format!("table2.instret_predicts_exec.{}", vm_id(vm));
            t.check(id, tau > 0.4 && r > 0.7);
        }
    }
    vec![t]
}

/// The Fig. 12 5x5 matrix-vector kernel, its row loop unrolled `unroll`
/// times by hand.
fn matvec_src(unroll: usize) -> String {
    // res[row] += mat[col*5+row] * vec[col], repeated 400 times.
    let body: String = match unroll {
        1 => "res[row] += MAT[col*5+row] * VEC[col]; ".into(),
        _ => (0..unroll)
            .map(|k| format!("res[row+{k}] += MAT[col*5+row+{k}] * VEC[col]; "))
            .collect(),
    };
    // 5x5 kernel like the paper's Fig. 12, padded to 80 virtual rows so all
    // factors perform identical work and only the loop bookkeeping differs
    // (the paper unrolled the assembly by hand for the same reason).
    format!(
        "static MAT: [i32; 25]; static VEC: [i32; 5];
         fn main() -> i32 {{
           let seed: i32 = read_input(0) + 3;
           for (let mut i: i32 = 0; i < 25; i += 1) {{ MAT[i] = (i * seed) % 19; }}
           for (let mut i: i32 = 0; i < 5; i += 1) {{ VEC[i] = (i + seed) % 17; }}
           let mut res: [i32; 80];
           let mut chk: i32 = 0;
           for (let mut rep: i32 = 0; rep < 400; rep += 1) {{
             for (let mut col: i32 = 0; col < 5; col += 1) {{
               let mut row: i32 = 0;
               while (row < 80) {{ {body}row += {unroll}; }}
             }}
             chk += res[rep % 80];
           }}
           commit(chk);
           return chk;
         }}"
    )
}

/// Table 3: manual 4x/16x unrolling of the matvec kernel — static
/// instructions rise, but executed instructions (and zkVM time) drop.
pub fn table3() -> Vec<Table> {
    let run = |factor, vm| {
        let profile = OptProfile::sequence("m2r", vec!["mem2reg"], PassConfig::default());
        run_src(&matvec_src(factor), &[5], profile, vm)
    };
    let title = "Table 3: manual loop unrolling of the 5x5 matvec kernel";
    let mut t = Table::new(title, "factor|x86 time|SP1 exec|SP1 prove|R0 exec|R0 prove");
    let (base_sp1, base_r0) = (times(&run(1, Sp1)), run(1, RiscZero));
    let base = times(&base_r0);
    let mut r0_exec = Vec::new();
    for factor in [4, 16] {
        let (sp1, r0) = (times(&run(factor, Sp1)), run(factor, RiscZero));
        let r = times(&r0);
        let g = |k: usize| gain(base[k], r[k]);
        let [sp1_exec, sp1_prove] = [1, 2].map(|k| gain(base_sp1[k], sp1[k]));
        let gains = [g(0), sp1_exec, sp1_prove, g(1), g(2)];
        t.row(factor.to_string(), gains.map(Pct));
        r0_exec.push(g(1));
        // P3: unrolling must reduce executed instructions to pay off.
        let id = format!("table3.unroll{factor}_executes_fewer");
        t.check(id, r0.exec.instret < base_r0.exec.instret);
    }
    t.check("table3.unroll16_beats_unroll4", r0_exec[1] > r0_exec[0]);
    vec![t]
}

/// Table 6: baseline execution and proving time over all 58 programs
/// (modelled seconds; min / max / mean / median per zkVM).
pub fn table6() -> Vec<Table> {
    let title = "Table 6: baseline statistics across all 58 programs (modelled seconds)";
    let mut t = Table::new(title, "zkVM|metric|min|max|mean|median");
    for vm in VmKind::BOTH {
        let run = |w| Pipeline::new(OptProfile::baseline()).run_workload(w, vm);
        let runs: Result<Vec<RunReport>, _> = zkvmopt_workloads::all().iter().map(run).collect();
        let runs = runs.expect("baselines run");
        let secs = |f: fn(&RunReport) -> f64| {
            summarize(&runs.iter().map(|r| f(r) / 1e3).collect::<Vec<_>>())
        };
        let (e, p) = (secs(|r| r.exec_ms), secs(|r| r.prove_ms));
        for (metric, s) in [("exec", &e), ("prove", &p)] {
            let cells = [s.min, s.max, s.mean, s.median].map(|x| Num(x, 3));
            t.row(vm.name(), once(Text(metric.into())).chain(cells));
        }
        let id = format!("table6.proving_dominates.{}", vm_id(vm));
        t.check(id, p.mean > e.mean);
    }
    vec![t]
}
