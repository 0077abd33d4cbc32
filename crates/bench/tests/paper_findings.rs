//! The paper's findings as a gate: every `study` function at quick scale.
//!
//! - Each finding's `holds` must equal its row in [`LEDGER`]. A claim this
//!   reproduction does not show is pinned `false`; if it starts to hold, this
//!   test fails too, and the ledger (and the README's findings table) changes
//!   with the code that moved it.
//! - The rendered output must equal `tests/golden_study.txt` byte for byte,
//!   through the workspace's one golden helper (`tests/common/golden.rs`).
//!   Every number is modelled, so the file is deterministic. To rebless after
//!   an intentional change to a reported number:
//!
//! ```text
//! ZKVMOPT_BLESS=1 cargo test --release --workspace golden -- --include-ignored
//! ```

use std::sync::OnceLock;
use zkvmopt_bench::study::{Scale, Table, STUDIES};

#[path = "../../../tests/common/golden.rs"]
mod golden;

/// Every finding id and whether it holds at quick scale.
const LEDGER: &[(&str, bool)] = &[
    ("fig2a.shifts_win_on_x86", true),
    ("fig2a.div_wins_on_zkvm", true),
    ("fig2b.fission_helps_x86", false),
    ("fig2b.fission_hurts_zkvm", true),
    ("fig3.inline_beats_licm.risc0", false),
    ("fig3.inline_beats_licm.sp1", false),
    ("fig5.o3_leads", false),
    ("fig5.o3_leads_within_2_5_points", true),
    ("fig5.o2_o3_gain_over_40", true),
    ("fig6.tuned_beats_o3", false),
    ("fig6.tuned_within_1_6x_of_o3", true),
    ("fig7.x86_gains_more", true),
    ("fig10.licm_blowup_grows_with_depth", false),
    ("fig11.inlining_adds_spills", false),
    ("fig13.if_conversion_helps_x86", true),
    ("fig13.if_conversion_adds_zkvm_instructions", true),
    ("fig14.zk_o3_wins_outnumber_losses", true),
    ("fig14.zk_o3_mean_gain_positive", true),
    ("fig15.zkvm_exec_far_slower_than_native", true),
    ("table2.instret_predicts_exec.risc0", true),
    ("table2.instret_predicts_exec.sp1", true),
    ("table3.unroll4_executes_fewer", true),
    ("table3.unroll16_executes_fewer", true),
    ("table3.unroll16_beats_unroll4", true),
    ("table6.proving_dominates.risc0", true),
    ("table6.proving_dominates.sp1", true),
];

/// Every study's tables at quick scale, computed once for all tests.
fn quick_tables() -> &'static [(&'static str, Vec<Table>)] {
    static TABLES: OnceLock<Vec<(&'static str, Vec<Table>)>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let scale = Scale::quick();
        STUDIES.iter().map(|(flag, f)| (*flag, f(&scale))).collect()
    })
}

fn tables_of(flag: &str) -> &'static [Table] {
    &quick_tables()
        .iter()
        .find(|(f, _)| *f == flag)
        .expect("a study")
        .1
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs every study; release-only (CI: test-release)"
)]
fn every_finding_matches_the_ledger() {
    let found: Vec<(&str, bool)> = quick_tables()
        .iter()
        .flat_map(|(_, ts)| ts)
        .flat_map(|t| &t.findings)
        .map(|x| (x.id.as_str(), x.holds))
        .collect();
    let mut wrong = Vec::new();
    for (id, holds) in &found {
        match LEDGER.iter().find(|(l, _)| l == id) {
            Some((_, want)) if want == holds => {}
            Some((_, want)) => wrong.push(format!("{id}: ledger says {want}, study says {holds}")),
            None => wrong.push(format!("{id}: not in the ledger")),
        }
    }
    for (id, _) in LEDGER {
        if !found.iter().any(|(f, _)| f == id) {
            wrong.push(format!("{id}: in the ledger, but no study reports it"));
        }
    }
    assert!(
        wrong.is_empty(),
        "findings moved:\n  {}",
        wrong.join("\n  ")
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs every study; release-only (CI: test-release)"
)]
fn quick_scale_output_matches_the_golden_file() {
    let got: String = quick_tables()
        .iter()
        .flat_map(|(_, ts)| ts)
        .map(|t| t.to_string())
        .collect();
    golden::check("tests/golden_study.txt", &got, |_, _| String::new());
}

/// Fig. 14b prices Fig. 14's RISC Zero runs under every backend: its `risc0`
/// column is Fig. 14's own "R0 prove" column, value for value.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs every study; release-only (CI: test-release)"
)]
fn fig14b_risc0_column_is_fig14_r0_prove() {
    let [fig14, fig14b] = tables_of("fig14") else {
        panic!("fig14 renders Figure 14 and 14b");
    };
    let column = |t: &Table, name| t.columns.iter().position(|c| *c == name).unwrap();
    let (r0_prove, risc0) = (column(fig14, "R0 prove"), column(fig14b, "risc0"));
    assert!(!fig14.rows.is_empty());
    assert_eq!(
        fig14.rows.len() + 1,
        fig14b.rows.len(),
        "14b adds a mean row"
    );
    for (a, b) in fig14.rows.iter().zip(&fig14b.rows) {
        assert_eq!(a[0], b[0], "the same workload");
        assert_eq!(a[r0_prove], b[risc0], "{:?}", a[0]);
    }
}
