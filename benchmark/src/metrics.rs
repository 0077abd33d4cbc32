//! The metric tables: every name the benchmark prints, with its unit and
//! how `selfcheck` compares two runs of it. `BENCHMARK.json` lists the same
//! names (a unit test holds the two together).

/// How two same-seed runs of a metric must agree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Repeat {
    /// Bit-identical: simulated costs and counts.
    Exact,
    /// Host time or memory: within this share of the first run.
    Within(f64),
    /// Reported for reading, not compared (ratios of two timings, rates of
    /// sub-millisecond calls, counts that depend on thread interleaving).
    Info,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub repeat: Repeat,
}

const fn m(name: &'static str, unit: &'static str, repeat: Repeat) -> MetricDef {
    MetricDef { name, unit, repeat }
}

use Repeat::{Exact, Info, Within};

/// What a user of the system sees; measured with tracing off. The bounds
/// are the regression bounds of `BENCHMARK.json`: twice the worst spread ten
/// seeds showed on the builder's machine (README, "Noise").
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Within(0.25)),
    m("ops_per_s", "1/s", Within(0.2)),
    m("op_ms_p50", "ms", Within(0.2)),
    m("op_ms_p95", "ms", Within(0.2)),
    m("peak_rss_mb", "MB", Within(0.25)),
];

/// Single layers; measured in the traced run. A metric whose layer does not
/// run on a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    m("lang.compile_guest_ms", "ms", Info),
    m("lang.src_kb_per_s", "kB/s", Info),
    m("ir.clone_ms", "ms", Info),
    m("ir.verify_ms", "ms", Info),
    m("ir.fingerprint_ms", "ms", Info),
    m("ir.interp_ms", "ms", Info),
    m("passes.busy_ms", "ms", Info),
    m("passes.runs", "count", Exact),
    m("passes.changed_frac", "ratio", Exact),
    m("passes.ns_per_ir_inst", "ns", Info),
    m("passes.ir_size_ratio", "ratio", Info),
    // The twelve passes that own ≈ 94 % of pass time on `eval_pass`.
    m("passes.ms.loop-unroll", "ms", Info),
    m("passes.ms.lcssa", "ms", Info),
    m("passes.ms.licm", "ms", Info),
    m("passes.ms.simplifycfg", "ms", Info),
    m("passes.ms.gvn", "ms", Info),
    m("passes.ms.sccp", "ms", Info),
    m("passes.ms.inline", "ms", Info),
    m("passes.ms.mem2reg", "ms", Info),
    m("passes.ms.early-cse", "ms", Info),
    m("passes.ms.loop-rotate", "ms", Info),
    m("passes.ms.instcombine", "ms", Info),
    m("passes.ms.function-attrs", "ms", Info),
    m("passes.ms.other", "ms", Info),
    m("riscv.isel_ms", "ms", Info),
    m("riscv.regalloc_ms", "ms", Info),
    m("riscv.link_ms", "ms", Info),
    m("riscv.ns_per_ir_inst", "ns", Info),
    m("riscv.insts_emitted", "count", Exact),
    m("riscv.spilled_vregs", "count", Exact),
    m("vm.decode_ms", "ms", Info),
    m("vm.run_ms", "ms", Info),
    m("vm.guest_mips", "MIPS", Info),
    m("vm.lockstep_ms", "ms", Info),
    m("vm.lockstep_vs_solo", "ratio", Info),
    m("vm.run_segmented_ms", "ms", Info),
    m("vm.segmented_vs_solo", "ratio", Info),
    m("vm.probe_hit_rate", "ratio", Info),
    m("vm.traces_formed", "count", Info),
    m("vm.trace_exits", "count", Info),
    m("vm.instret", "count", Exact),
    m("vm.total_cycles", "count", Exact),
    m("vm.paging_cycles", "count", Exact),
    m("vm.segments", "count", Exact),
    m("prover.check_accounting_ms", "ms", Info),
    m("prover.prove_ms", "ms", Info),
    m("prover.padded_rows", "count", Exact),
    m("prover.padded_mrows_per_s", "Mrows/s", Info),
    m("prover.padding_frac", "ratio", Exact),
    m("prover.segments_proved", "count", Exact),
    m("crypto.merkle_mb_per_s", "MB/s", Info),
    m("tuner.fitness_calls", "count", Exact),
    m("tuner.cache_hit_rate", "ratio", Exact),
    m("tuner.retries", "count", Exact),
    m("tuner.quarantined", "count", Exact),
    m("tuner.worker_busy_frac", "ratio", Info),
    m("tuner.service_overhead_ms", "ms", Info),
    m("tuner.shared_prefix_frac", "ratio", Exact),
    m("tuner.distinct_postpass_ir_frac", "ratio", Exact),
    m("tuner.warm_tune_ms", "ms", Info),
    m("tuner.predict_us", "us", Info),
    m("tuner.db_roundtrip_ms", "ms", Info),
    m("core.batch_evaluator_build_ms", "ms", Info),
    m("core.compile_share", "ratio", Info),
    m("core.glue_frac", "ratio", Info),
    m("bench.ops", "count", Exact),
    m("bench.failed_frac", "ratio", Exact),
    m("bench.rejected_frac", "ratio", Exact),
    m("bench.cost_ratio_geomean", "ratio", Exact),
    m("bench.trace_overhead_frac", "ratio", Info),
];

/// The five workloads, in the order `all` and `selfcheck` run them.
pub const WORKLOADS: [&str; 5] = [
    "study_matrix",
    "eval_pass",
    "eval_exec",
    "tune_cold",
    "prove_segmented",
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Quoted strings following `"name":` in the JSON text, in order.
    fn names_in(section: &str) -> Vec<String> {
        section
            .split("\"name\":")
            .skip(1)
            .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let text = include_str!("../../BENCHMARK.json");
        let at = |key: &str| text.find(key).unwrap_or_else(|| panic!("no {key}"));
        let (w, e, p) = (
            at("\"workloads\""),
            at("\"end_to_end\""),
            at("\"per_layer\""),
        );
        assert!(w < e && e < p, "sections in the documented order");
        assert_eq!(names_in(&text[w..e]), WORKLOADS);
        let expect =
            |defs: &[MetricDef]| defs.iter().map(|d| d.name.to_string()).collect::<Vec<_>>();
        assert_eq!(names_in(&text[e..p]), expect(END_TO_END));
        assert_eq!(names_in(&text[p..]), expect(PER_LAYER));
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(text.contains(&entry), "{entry}");
        }
        for d in END_TO_END {
            let Within(bound) = d.repeat else {
                panic!("{} has no bound", d.name)
            };
            let entry = format!("\"name\": \"{}\"", d.name);
            let line = text.lines().find(|l| l.contains(&entry)).unwrap();
            assert!(line.contains(&format!("\"bound\": {bound}")), "{line}");
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        let total = names.len();
        names.dedup();
        assert_eq!(names.len(), total);
        let named: Vec<&str> = PER_LAYER
            .iter()
            .filter_map(|d| d.name.strip_prefix("passes.ms."))
            .filter(|p| *p != "other")
            .collect();
        assert_eq!(named.len(), 12);
        for p in named {
            assert!(zkvmopt_passes::find_pass(p).is_some(), "{p}");
        }
    }
}
