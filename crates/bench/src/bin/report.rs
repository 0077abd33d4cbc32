//! Prints the paper's tables and figures from [`zkvmopt_bench::study`].
//!
//! Usage: `report [--quick] [--all | --fig2 --fig3 … --table6]`
//!
//! With `--quick` the suite-level figures run on the reduced workload set and
//! the key-pass axis; without it, on all 58 programs and every studied pass.
//! No section flag means every section; no argument at all means `--quick`.

use std::process::ExitCode;
use zkvmopt_bench::study::{Scale, STUDIES};

/// Whether to run at quick scale, and the chosen indices into [`STUDIES`].
fn parse_args(args: &[String]) -> Result<(bool, Vec<usize>), String> {
    let (mut quick, mut all) = (args.is_empty(), false);
    let mut chosen = vec![false; STUDIES.len()];
    for a in args {
        match a.as_str() {
            "--quick" => quick = true,
            "--all" => all = true,
            _ => {
                let flag = a.strip_prefix("--");
                let i = STUDIES.iter().position(|(f, _)| Some(*f) == flag);
                chosen[i.ok_or_else(|| format!("unknown argument '{a}'"))?] = true;
            }
        }
    }
    all |= !chosen.contains(&true);
    Ok((
        quick,
        (0..STUDIES.len()).filter(|&i| all || chosen[i]).collect(),
    ))
}

fn usage() -> String {
    let flags: Vec<String> = STUDIES.iter().map(|(f, _)| format!("--{f}")).collect();
    let flags = flags.join(" ");
    format!("usage: report [--quick] [--all | SECTION...]\nsections: {flags}")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, sections) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("report: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    println!("zkvm-opt experiment report (quick = {quick})");
    let scale = if quick { Scale::quick() } else { Scale::full() };
    for i in sections {
        for table in (STUDIES[i].1)(&scale) {
            print!("{table}");
        }
    }
    println!("\nreport complete.");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(bool, Vec<usize>), String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_select_sections_and_scale() {
        let all: Vec<usize> = (0..STUDIES.len()).collect();
        for (i, (flag, _)) in STUDIES.iter().enumerate() {
            assert_eq!(parse(&[&format!("--{flag}")]), Ok((false, vec![i])));
        }
        let fig3 = STUDIES.iter().position(|(f, _)| *f == "fig3").unwrap();
        let table2 = STUDIES.iter().position(|(f, _)| *f == "table2").unwrap();
        assert_eq!(
            parse(&["--table2", "--quick", "--fig3"]),
            Ok((true, vec![fig3, table2]))
        );
        assert_eq!(parse(&[]), Ok((true, all.clone())));
        assert_eq!(parse(&["--quick"]), Ok((true, all.clone())));
        assert_eq!(parse(&["--all"]), Ok((false, all)));
    }

    #[test]
    fn unknown_arguments_are_rejected_and_usage_lists_every_flag() {
        for bad in ["--fig99", "--tabel2", "fig3", "--", "-q"] {
            assert!(parse(&["--fig3", bad]).unwrap_err().contains(bad));
        }
        let usage = usage();
        let listed: Vec<&str> = usage.split_whitespace().skip(7).collect();
        let flags: Vec<String> = STUDIES.iter().map(|(f, _)| format!("--{f}")).collect();
        assert_eq!(listed, flags);
    }
}
