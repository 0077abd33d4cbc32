//! One candidate evaluation — lower → passes → verify → codegen → decode →
//! execute → (segment → prove) — measured end to end and layer by layer,
//! from outside the program. See `README.md` beside this package.
//!
//! ```text
//! zkvmopt-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! zkvmopt-benchmark all [--seed <n>] [--seconds <s>]
//! zkvmopt-benchmark selfcheck [--seconds <s>]
//! ```

mod eval;
mod harness;
mod json;
mod metrics;
mod ops;
mod prove_segmented;
mod replica;
mod selfcheck;
mod stats;
mod study_matrix;
mod trace;
mod tune_cold;

use harness::Report;
use metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::ExitCode;

/// The `-O2` cycle snapshots `study_matrix` is cross-checked against.
pub const GOLDEN_CYCLES: &str = include_str!("../../tests/golden_cycles.json");

/// The seed `all` and `selfcheck` use, and the one no development run may
/// have looked at.
pub const DEFAULT_SEED: u64 = 1;
pub const HOLD_OUT_SEED: u64 = 2;

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "usage:
  zkvmopt-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
  zkvmopt-benchmark all [--seed <n>] [--seconds <s>]
  zkvmopt-benchmark selfcheck [--seconds <s>]
workloads: study_matrix eval_pass eval_exec tune_cold prove_segmented";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    /// `all`, `selfcheck`, or none for a single workload.
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => out.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds.is_finite() && out.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                out.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "all" | "selfcheck" if out.command.is_none() => out.command = Some(arg.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    match (&out.command, &out.workload) {
        (None, None) => Err("name a workload, `all` or `selfcheck`".into()),
        (Some(c), Some(_)) => Err(format!("`{c}` runs every workload; drop --workload")),
        _ => Ok(out),
    }
}

fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    match name {
        "study_matrix" => harness::run::<study_matrix::StudyMatrix>(seed, seconds, traced),
        "eval_pass" => harness::run::<eval::Eval<eval::PassBound>>(seed, seconds, traced),
        "eval_exec" => harness::run::<eval::Eval<eval::ExecBound>>(seed, seconds, traced),
        "tune_cold" => harness::run::<tune_cold::TuneCold>(seed, seconds, traced),
        "prove_segmented" => harness::run::<prove_segmented::ProveSegmented>(seed, seconds, traced),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    }
}

/// Every metric of the run's mode as `name value unit`, then the one-line
/// JSON result. Nothing is printed unless every value is finite.
fn render(report: &Report) -> Result<String, String> {
    let defs: &[MetricDef] = if report.traced { PER_LAYER } else { END_TO_END };
    let rows: Vec<(&str, f64, &str)> = defs
        .iter()
        .map(|d| {
            (
                d.name,
                report.values.get(d.name).copied().unwrap_or(0.0),
                d.unit,
            )
        })
        .collect();
    // A report exists only when no op failed (`harness::run`).
    let result = json::result_line(true, report.attempted, 0, &rows)?;
    let mut out = format!(
        "# {} seed {} {}: {} rounds, {} ops attempted, 0 failed\n",
        report.workload,
        report.seed,
        if report.traced { "traced" } else { "untraced" },
        report.rounds,
        report.attempted,
    );
    for (name, value, unit) in &rows {
        let note = match *name {
            "setup_s" => format!(" (best of {} set-ups)", harness::SETUP_REPEATS),
            "ops_per_s" | "op_ms_p50" | "op_ms_p95" => format!(
                " (n={} calls, each the best of {} rounds)",
                report.calls, report.rounds
            ),
            _ => String::new(),
        };
        out.push_str(&format!("{name} {} {unit}{note}\n", json::number(*value)));
    }
    for (name, value) in &report.notes {
        out.push_str(&format!("{name} {value}\n"));
    }
    out.push_str(&result);
    Ok(out)
}

/// Re-execute this binary for one workload run, so allocator state and
/// `VmHWM` never leak from one workload into the next.
pub fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> std::process::Command {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    cmd
}

fn all(seed: u64, seconds: f64) -> Result<(), String> {
    for workload in WORKLOADS {
        for traced in [false, true] {
            let status = child(workload, seed, seconds, traced)
                .status()
                .map_err(|e| format!("{workload}: {e}"))?;
            if !status.success() {
                return Err(format!("{workload}: {status}"));
            }
            println!();
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|a| match a.command.as_deref() {
        Some("all") => all(a.seed, a.seconds),
        Some(_) => selfcheck::run(a.seconds),
        None => {
            let workload = a.workload.as_deref().expect("parse_args checked");
            let report = run_workload(workload, a.seed, a.seconds, a.trace)?;
            println!("{}", render(&report)?);
            Ok(())
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("zkvmopt-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn the_contract_command_line_parses() {
        let a = args("--workload eval_exec --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("eval_exec"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        let a = args("all --seed 2").unwrap();
        assert_eq!((a.command.as_deref(), a.seed), (Some("all"), 2));
        assert_eq!(args("selfcheck").unwrap().seed, DEFAULT_SEED);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload",
            "--seed x --workload eval_pass",
            "--workload eval_pass --trace 2",
            "--workload eval_pass --seconds -1",
            "all --workload eval_pass",
            "all all",
            "--bogus",
        ] {
            assert!(args(bad).is_err(), "`{bad}` should be refused");
        }
        assert!(run_workload("nope", 1, 0.0, false).is_err());
    }
}
