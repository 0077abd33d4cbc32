//! Hand-rolled JSON: the workspace is offline and has no serde, so the
//! benchmark writes its result line and trace files itself, and line-scans
//! the one JSON file it reads (`tests/golden_cycles.json`).

use std::collections::BTreeMap;

/// `s` as a JSON string literal, quotes included.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `x` as a JSON number with all its digits (Rust's shortest round-trip
/// form). JSON has no NaN or infinity; those become `null`, and the result
/// line refuses to carry one (see [`result_line`]).
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The one-line result object the benchmark contract asks for.
///
/// # Errors
/// Returns the offending metric's name when a value is not finite: a NaN
/// throughput is a harness bug, never a measurement.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            string(name),
            number(*value),
            string(unit)
        ));
    }
    out.push_str("}}");
    Ok(out)
}

/// Per-workload `-O2` total cycles on `(RISC Zero, SP1)` from the text of
/// `tests/golden_cycles.json`, which holds one workload per line.
///
/// # Errors
/// Returns a message naming the first malformed workload line.
pub fn scan_golden(text: &str) -> Result<BTreeMap<String, (u64, u64)>, String> {
    fn number_after(line: &str, key: &str) -> Result<u64, String> {
        let at = line
            .find(key)
            .ok_or_else(|| format!("missing {key} in `{line}`"))?;
        let value = line[at + key.len()..]
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| format!("no `:` after {key} in `{line}`"))?
            .trim_start();
        let digits: String = value.chars().take_while(char::is_ascii_digit).collect();
        digits
            .parse()
            .map_err(|e| format!("bad number after {key} in `{line}`: {e}"))
    }
    let mut out = BTreeMap::new();
    for line in text.lines().map(str::trim) {
        if !line.starts_with('"') || !line.contains("\"risc_zero\"") {
            continue;
        }
        let name = line[1..]
            .split('"')
            .next()
            .ok_or_else(|| format!("no workload name in `{line}`"))?;
        let cycles = (
            number_after(line, "\"risc_zero\"")?,
            number_after(line, "\"sp1\"")?,
        );
        out.insert(name.to_string(), cycles);
    }
    if out.is_empty() {
        return Err("golden file lists no workloads".to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(string("line\nbreak\ttab\r"), "\"line\\nbreak\\ttab\\r\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
        assert_eq!(string("µs/π"), "\"µs/π\"");
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_json() {
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn result_line_has_the_contract_shape_and_rejects_nan() {
        let line = result_line(
            true,
            10,
            0,
            &[("latency_ms", 1.5, "ms"), ("setup_s", 0.25, "s")],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
        let err = result_line(true, 1, 0, &[("ops_per_s", f64::NAN, "1/s")]).unwrap_err();
        assert!(err.contains("ops_per_s"), "{err}");
    }

    #[test]
    fn golden_scanner_reads_the_checked_in_file() {
        let golden = scan_golden(crate::GOLDEN_CYCLES).unwrap();
        assert_eq!(golden.len(), zkvmopt_workloads::all().len());
        for w in zkvmopt_workloads::all() {
            let (r0, sp1) = golden[w.name];
            assert!(r0 > 0 && sp1 > 0, "{}", w.name);
        }
        assert_eq!(golden["polybench-2mm"], (159812, 150392));
    }

    #[test]
    fn golden_scanner_rejects_garbage() {
        assert!(scan_golden("{}").is_err());
        assert!(scan_golden("\"x\": { \"risc_zero\": 12 }").is_err());
        assert!(scan_golden("\"x\": { \"risc_zero\": , \"sp1\": 3 }").is_err());
    }
}
