//! `selfcheck`: do two sets of runs of the same code agree within the
//! benchmark's own bounds? Every workload runs twice with the default seed
//! (untraced and traced) and once with the hold-out seed. Exact metrics and
//! digests must be bit-identical between the same-seed runs, each timing's
//! two values must differ by less than its own regression bound, and the
//! hold-out op list must differ from the default one.

use crate::metrics::{MetricDef, Repeat, END_TO_END, PER_LAYER, WORKLOADS};
use crate::{DEFAULT_SEED, HOLD_OUT_SEED};
use std::collections::BTreeMap;

/// The `name value ...` lines of one run's output, each value as printed,
/// so exact comparison is of the printed digits.
type Parsed = BTreeMap<String, String>;

pub fn parse(stdout: &str) -> Parsed {
    let mut values = BTreeMap::new();
    for line in stdout.lines() {
        let mut tokens = line.split_whitespace();
        if let (Some(name), Some(value)) = (tokens.next(), tokens.next()) {
            if !name.starts_with(['#', '{']) {
                values.insert(name.to_string(), value.to_string());
            }
        }
    }
    values
}

fn capture(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Parsed, String> {
    let out = crate::child(workload, seed, seconds, traced)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} (seed {seed}, trace {traced}): {}",
            out.status
        ));
    }
    Ok(parse(&String::from_utf8_lossy(&out.stdout)))
}

/// Compare one metric of two same-seed runs; `Err` carries the reason.
pub fn compare(def: &MetricDef, a: &str, b: &str) -> Result<String, String> {
    match def.repeat {
        Repeat::Exact if a == b => Ok("exact".into()),
        Repeat::Exact => Err("must repeat bit for bit".into()),
        Repeat::Info => Ok("-".into()),
        Repeat::Within(bound) => {
            let parse = |s: &str| s.parse::<f64>().map_err(|e| format!("`{s}`: {e}"));
            let (x, y) = (parse(a)?, parse(b)?);
            let diff = (y - x).abs() / x.abs();
            if diff < bound {
                Ok(format!("{:.1}% < {:.0}%", diff * 100.0, bound * 100.0))
            } else {
                Err(format!("{:.1}% >= {:.0}%", diff * 100.0, bound * 100.0))
            }
        }
    }
}

/// # Errors
/// Lists every disagreement, after printing the side-by-side table.
pub fn run(seconds: f64) -> Result<(), String> {
    let mut violations = Vec::new();
    for workload in WORKLOADS {
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut merged = capture(workload, DEFAULT_SEED, seconds, false)?;
            let traced = capture(workload, DEFAULT_SEED, seconds, true)?;
            for (name, value) in traced {
                if let Some(untraced) = merged.get(&name) {
                    if *untraced != value {
                        violations.push(format!(
                            "{workload} {name}: untraced run says {untraced}, traced run {value}"
                        ));
                    }
                }
                merged.insert(name, value);
            }
            runs.push(merged);
        }
        let hold_out = capture(workload, HOLD_OUT_SEED, 0.0, false)?;
        let (a, b) = (&runs[0], &runs[1]);
        println!("# {workload}: seed {DEFAULT_SEED} twice");
        println!("{:<34} {:>22} {:>22}  verdict", "metric", "run 1", "run 2");
        let missing = String::from("missing");
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let (x, y) = (
                a.get(def.name).unwrap_or(&missing),
                b.get(def.name).unwrap_or(&missing),
            );
            let verdict = compare(def, x, y);
            let shown = match &verdict {
                Ok(v) => v.clone(),
                Err(why) => format!("FAIL {why}"),
            };
            println!("{:<34} {x:>22} {y:>22}  {shown}", def.name);
            if let Err(why) = verdict {
                violations.push(format!("{workload} {}: {x} vs {y}: {why}", def.name));
            }
        }
        for digest in ["oplist_digest", "tunedb_digest"] {
            let (x, y) = (a.get(digest), b.get(digest));
            if x != y {
                violations.push(format!("{workload} {digest}: {x:?} vs {y:?}"));
            }
            if let (Some(x), Some(y)) = (x, y) {
                println!("{digest:<34} {x:>22} {y:>22}  exact");
            }
        }
        let held = hold_out.get("oplist_digest");
        println!(
            "{:<34} {:>22}",
            format!("oplist_digest (seed {HOLD_OUT_SEED})"),
            held.unwrap_or(&missing)
        );
        if held.is_none() || held == a.get("oplist_digest") {
            violations.push(format!(
                "{workload}: the hold-out seed gives the default op list"
            ));
        }
        println!();
    }
    if violations.is_empty() {
        println!("selfcheck: all five workloads agree with themselves");
        Ok(())
    } else {
        Err(format!("selfcheck failed:\n  {}", violations.join("\n  ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_lines_parse_back() {
        let p = parse(
            "# eval_pass seed 1 untraced: 5 rounds, 200 ops attempted, 0 failed\n\
             setup_s 0.41 s (best of 6 set-ups)\n\
             op_ms_p50 5.25 ms (n=1000)\n\
             oplist_digest 00ff\n\
             {\"correct\": true}",
        );
        assert_eq!(p.len(), 3);
        assert_eq!(p["setup_s"], "0.41");
        assert_eq!(p["op_ms_p50"], "5.25");
        assert_eq!(p["oplist_digest"], "00ff");
    }

    #[test]
    fn metrics_compare_by_their_own_rule() {
        let def = |repeat| MetricDef {
            name: "x",
            unit: "u",
            repeat,
        };
        assert!(compare(&def(Repeat::Exact), "12", "12").is_ok());
        assert!(compare(&def(Repeat::Exact), "12", "12.0").is_err());
        assert!(compare(&def(Repeat::Within(0.05)), "100", "104.9").is_ok());
        assert!(compare(&def(Repeat::Within(0.05)), "100", "95").is_err());
        assert!(compare(&def(Repeat::Within(0.05)), "100", "nope").is_err());
        assert!(compare(&def(Repeat::Info), "1", "2").is_ok());
    }
}
