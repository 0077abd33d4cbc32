//! The segmented proving pipeline: per-segment proofs in parallel, then a
//! recursion/aggregation join.
//!
//! Real zkVMs prove long executions as a chain of segments (RISC Zero
//! continuations) or shards (SP1): the executor cuts the run every
//! `segment_cycles`, each cut is proved independently — embarrassingly
//! parallel — and a recursion layer folds the per-segment proofs into one.
//! This module mirrors that shape over the engine's real segment boundaries
//! ([`Engine::run_segmented`](zkvmopt_vm::Engine::run_segmented)):
//!
//! 1. [`check_segment_accounting`] gates the pipeline on the bit-identity
//!    contract — per-segment records must sum exactly to the run's
//!    [`ExecutionReport`] totals;
//! 2. [`prove_segmented`] commits to each segment with a Merkle root
//!    (hashing work proportional to the backend's *padded* trace area),
//!    fanning segments out over worker threads. A leaf is 1049 bytes —
//!    `"seg-chunk"`, the segment index and chunk number as little-endian
//!    `u64`s, then 1024 xorshift64* bytes keyed by the record — written
//!    into one stack buffer per segment, hashed straight into a level of
//!    leaf hashes and folded in place
//!    ([`root_of_leaf_hashes`]):
//!    no leaf and no inner tree level is ever held;
//! 3. the aggregation join commits to the per-segment roots plus the public
//!    journal/exit leaf, in segment order — so parallel and sequential
//!    proving produce the same root and the same total cost, bit for bit.
//!
//! The commitment is a function of the records alone: not of the thread
//! count, and not of which SHA-256 kernel the host dispatches to. The
//! `oracle` module at the end of this file keeps the allocation-per-leaf
//! prover this one replaced as the ground model the tests compare against.
//!
//! Backend cost shapes are pluggable via [`ProverBackend`]: RISC Zero–like
//! (paging rows in the main trace), SP1-like (chip tables charge extra rows
//! for multiplies/divides and memory ops, paging free), and a hypothetical
//! lookup-centric design (cheap rows, memory resolved by lookup arguments,
//! expensive recursion) — so the fig14 zk-aware study runs per backend.

use crate::padded_rows_blend;
use zkvmopt_crypto::merkle::root_of_leaf_hashes;
use zkvmopt_crypto::sha256;
use zkvmopt_vm::{ExecutionReport, SegmentRecord, VmKind};

/// A proving backend's cost shape: how execution activity turns into trace
/// rows, and what rows, segments, and recursion cost.
pub trait ProverBackend: Sync {
    /// Display name ("risc0", "sp1", ...).
    fn name(&self) -> &'static str;

    /// Trace rows one segment's activity implies, before padding.
    fn segment_rows(&self, seg: &SegmentRecord) -> u64;

    /// Fixed per-segment cost (commit phases, FRI setup), milliseconds.
    fn per_segment_ms(&self) -> f64;

    /// Cost per padded trace row, milliseconds.
    fn per_row_ms(&self) -> f64;

    /// Per-segment recursion/aggregation overhead once more than one
    /// segment exists, milliseconds.
    fn aggregation_ms(&self) -> f64;

    /// Rows after padding: the pow2-main-trace / fine-grained-chip-table
    /// blend, the one padding rule.
    fn padded_rows(&self, rows: u64) -> u64 {
        padded_rows_blend(rows)
    }

    /// Modelled cost of proving one segment, milliseconds.
    fn segment_cost_ms(&self, seg: &SegmentRecord) -> f64 {
        self.per_segment_ms() + self.padded_rows(self.segment_rows(seg)) as f64 * self.per_row_ms()
    }
}

/// RISC Zero–like backend: paging activity occupies main-trace rows, so
/// page-heavy segments are expensive to prove.
pub struct RiscZeroBackend;

impl ProverBackend for RiscZeroBackend {
    fn name(&self) -> &'static str {
        "risc0"
    }

    fn segment_rows(&self, seg: &SegmentRecord) -> u64 {
        seg.user_cycles + seg.paging_cycles
    }

    fn per_segment_ms(&self) -> f64 {
        180.0
    }

    fn per_row_ms(&self) -> f64 {
        1.15e-3
    }

    fn aggregation_ms(&self) -> f64 {
        25.0
    }
}

/// SP1-like backend: paging is free (memory is a global argument), but the
/// chip tables charge extra rows for multiplies, divides, and memory ops.
pub struct Sp1Backend;

impl ProverBackend for Sp1Backend {
    fn name(&self) -> &'static str {
        "sp1"
    }

    fn segment_rows(&self, seg: &SegmentRecord) -> u64 {
        seg.user_cycles + seg.mix.mul + 2 * seg.mix.div + (seg.mix.load + seg.mix.store) / 2
    }

    fn per_segment_ms(&self) -> f64 {
        28.0
    }

    fn per_row_ms(&self) -> f64 {
        1.5e-4
    }

    fn aggregation_ms(&self) -> f64 {
        9.0
    }
}

/// Hypothetical lookup-centric backend: memory and paging resolve through
/// log-derivative lookup arguments (three lookup rows per access, a block
/// of rows per paged-in page), per-row cost is very low, and the price is
/// paid in an expensive recursion layer.
pub struct LookupCentricBackend;

impl ProverBackend for LookupCentricBackend {
    fn name(&self) -> &'static str {
        "lookup"
    }

    fn segment_rows(&self, seg: &SegmentRecord) -> u64 {
        seg.user_cycles + 3 * (seg.mix.load + seg.mix.store) + 64 * (seg.page_ins + seg.page_outs)
    }

    fn per_segment_ms(&self) -> f64 {
        12.0
    }

    fn per_row_ms(&self) -> f64 {
        6.0e-5
    }

    fn aggregation_ms(&self) -> f64 {
        55.0
    }
}

/// The standard backend panel for multi-backend studies (fig14, the prover
/// throughput bench).
#[must_use]
pub fn standard_backends() -> [&'static dyn ProverBackend; 3] {
    [&RiscZeroBackend, &Sp1Backend, &LookupCentricBackend]
}

/// The backend that prices `kind`'s own runs (every `RunReport::prove_ms`).
#[must_use]
pub fn backend_for(kind: VmKind) -> &'static dyn ProverBackend {
    match kind {
        VmKind::RiscZero => &RiscZeroBackend,
        VmKind::Sp1 => &Sp1Backend,
    }
}

/// Modelled cost, milliseconds, of proving a run cut into `records`: every
/// segment's cost, summed in segment order (so the f64 total is the same
/// however the segments were proved), plus the aggregation layer once there
/// is more than one segment.
#[must_use]
pub fn proving_cost_ms(backend: &dyn ProverBackend, records: &[SegmentRecord]) -> f64 {
    let mut total = records
        .iter()
        .map(|seg| backend.segment_cost_ms(seg))
        .sum::<f64>();
    if records.len() > 1 {
        total += records.len() as f64 * backend.aggregation_ms();
    }
    total
}

/// One field of the segment-accounting bit-identity contract that failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccountingMismatch {
    /// Which total diverged.
    pub field: &'static str,
    /// The run-wide total from the [`ExecutionReport`].
    pub expected: u64,
    /// The sum over the per-segment records.
    pub got: u64,
}

impl std::fmt::Display for AccountingMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "segment accounting mismatch: {} summed to {} but the report says {}",
            self.field, self.got, self.expected
        )
    }
}

impl std::error::Error for AccountingMismatch {}

/// Gate the pipeline on the segment-accounting contract: the per-segment
/// records must sum *bit-identically* to the report's totals (instret, user
/// and paging cycles, page-ins/outs, instruction mix) and there must be
/// exactly one record per reported segment.
///
/// # Errors
/// Returns the first diverging field.
pub fn check_segment_accounting(
    report: &ExecutionReport,
    records: &[SegmentRecord],
) -> Result<(), AccountingMismatch> {
    let check = |field, expected, got| {
        if expected == got {
            Ok(())
        } else {
            Err(AccountingMismatch {
                field,
                expected,
                got,
            })
        }
    };
    check("segments", report.segments, records.len() as u64)?;
    let sum = |f: fn(&SegmentRecord) -> u64| records.iter().map(f).sum::<u64>();
    check("instret", report.instret, sum(|r| r.instret))?;
    check("user_cycles", report.user_cycles, sum(|r| r.user_cycles))?;
    check(
        "paging_cycles",
        report.paging_cycles,
        sum(|r| r.paging_cycles),
    )?;
    check(
        "total_cycles",
        report.total_cycles,
        sum(SegmentRecord::total_cycles),
    )?;
    check("page_ins", report.page_ins, sum(|r| r.page_ins))?;
    check("page_outs", report.page_outs, sum(|r| r.page_outs))?;
    check("mix.alu", report.mix.alu, sum(|r| r.mix.alu))?;
    check("mix.mul", report.mix.mul, sum(|r| r.mix.mul))?;
    check("mix.div", report.mix.div, sum(|r| r.mix.div))?;
    check("mix.load", report.mix.load, sum(|r| r.mix.load))?;
    check("mix.store", report.mix.store, sum(|r| r.mix.store))?;
    check("mix.branch", report.mix.branch, sum(|r| r.mix.branch))?;
    check("mix.jump", report.mix.jump, sum(|r| r.mix.jump))?;
    check("mix.ecall", report.mix.ecall, sum(|r| r.mix.ecall))
}

/// One proved segment: its trace size under the backend's cost shape, the
/// modelled proving cost, and a Merkle commitment whose hashing work is
/// proportional to the padded trace area.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentProof {
    /// Segment index in execution order.
    pub index: usize,
    /// Unpadded trace rows.
    pub rows: u64,
    /// Rows after the backend's padding rule.
    pub padded_rows: u64,
    /// Modelled proving cost, milliseconds.
    pub cost_ms: f64,
    /// Merkle root over the segment's trace chunks.
    pub commitment: [u8; 32],
}

/// Rows of padded trace each commitment leaf covers: hashing work scales
/// with trace area without hashing row-by-row.
const ROWS_PER_LEAF: u64 = 4096;

/// Body bytes hashed per leaf — one byte per four covered rows, so the
/// prover's real hashing work is proportional to the padded trace area.
const BYTES_PER_LEAF: usize = (ROWS_PER_LEAF / 4) as usize;

/// Bytes ahead of a leaf's body: the `"seg-chunk"` tag, then the segment
/// index and the chunk number as little-endian `u64`s.
const LEAF_HEADER: usize = 9 + 8 + 8;

/// Prove one segment: commit to its (padded) trace area chunk by chunk.
/// Each chunk leaf carries a deterministic [`BYTES_PER_LEAF`]-byte body
/// derived from the segment's accounting, so proving a bigger segment
/// hashes proportionally more data — the toy stand-in for trace columns.
/// One stack buffer is refilled per leaf and hashed straight into the
/// level of leaf hashes; no leaf outlives its hash.
fn prove_segment(backend: &dyn ProverBackend, index: usize, seg: &SegmentRecord) -> SegmentProof {
    let rows = backend.segment_rows(seg);
    let padded = backend.padded_rows(rows);
    let nleaves = padded.div_ceil(ROWS_PER_LEAF).max(1);
    let mut leaf = [0u8; LEAF_HEADER + BYTES_PER_LEAF];
    leaf[..9].copy_from_slice(b"seg-chunk");
    leaf[9..17].copy_from_slice(&(index as u64).to_le_bytes());
    let mut hashes = Vec::with_capacity(nleaves as usize);
    for chunk in 0..nleaves {
        leaf[17..LEAF_HEADER].copy_from_slice(&chunk.to_le_bytes());
        // xorshift64* stream seeded by the chunk identity and the segment's
        // accounting: any change to the record changes every body byte.
        let mut state = 0x9e37_79b9_7f4a_7c15u64
            ^ (index as u64).rotate_left(32)
            ^ chunk.rotate_left(16)
            ^ seg.instret
            ^ seg.user_cycles.rotate_left(8)
            ^ seg.paging_cycles.rotate_left(24)
            ^ seg.page_ins.rotate_left(40)
            ^ seg.page_outs.rotate_left(48);
        for word in leaf[LEAF_HEADER..].chunks_exact_mut(8) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            word.copy_from_slice(&state.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes());
        }
        hashes.push(sha256(&leaf));
    }
    SegmentProof {
        index,
        rows,
        padded_rows: padded,
        cost_ms: backend.segment_cost_ms(seg),
        commitment: root_of_leaf_hashes(hashes),
    }
}

/// A fully aggregated segmented proof: per-segment proofs in execution
/// order plus the recursion join's root binding them to the public outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentedProof {
    /// Which backend proved it.
    pub backend: &'static str,
    /// Per-segment proofs, in segment order.
    pub segments: Vec<SegmentProof>,
    /// Aggregation root over segment commitments + the public leaf.
    pub root: [u8; 32],
    /// Total modelled cost: [`proving_cost_ms`] of the proved records.
    pub total_cost_ms: f64,
}

/// The recursion/aggregation join: a Merkle commitment over the segment
/// roots (in order) plus one public leaf binding the journal and exit code.
fn aggregate(
    backend: &dyn ProverBackend,
    report: &ExecutionReport,
    records: &[SegmentRecord],
    segments: Vec<SegmentProof>,
) -> SegmentedProof {
    // A segment's leaf is its 32-byte commitment, so its leaf hash is the
    // hash of that.
    let mut hashes: Vec<[u8; 32]> = segments.iter().map(|s| sha256(&s.commitment)).collect();
    let mut public = Vec::new();
    public.extend_from_slice(b"journal");
    public.extend_from_slice(&report.exit_code.to_le_bytes());
    for j in &report.journal {
        public.extend_from_slice(&j.to_le_bytes());
    }
    hashes.push(sha256(&public));
    SegmentedProof {
        backend: backend.name(),
        segments,
        root: root_of_leaf_hashes(hashes),
        total_cost_ms: proving_cost_ms(backend, records),
    }
}

/// Prove an execution segment-by-segment and aggregate, fanning the
/// per-segment proofs out over `threads` worker threads (`0` = all
/// available cores, `1` = sequential). The result is identical whatever
/// the thread count: every join runs in segment order.
///
/// # Errors
/// Returns [`AccountingMismatch`] when `records` fail the bit-identity
/// gate against `report` — a report/record pair from different runs, or an
/// engine accounting bug.
pub fn prove_segmented(
    backend: &dyn ProverBackend,
    report: &ExecutionReport,
    records: &[SegmentRecord],
    threads: usize,
) -> Result<SegmentedProof, AccountingMismatch> {
    check_segment_accounting(report, records)?;
    let workers = if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    }
    .min(records.len().max(1));
    let prove = |(i, seg): (usize, &SegmentRecord)| prove_segment(backend, i, seg);
    let segments: Vec<SegmentProof> = if workers <= 1 {
        records.iter().enumerate().map(prove).collect()
    } else {
        // Each worker proves one contiguous run of segments; joining the
        // workers in spawn order puts the proofs back in segment order.
        let run = records.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..records.len())
                .step_by(run)
                .map(|first| {
                    let indexed = records.iter().enumerate().skip(first).take(run);
                    scope.spawn(move || indexed.map(prove).collect::<Vec<_>>())
                })
                .collect();
            #[expect(
                clippy::expect_used,
                reason = "`prove_segment` is total, so a worker unwinds only on a bug, which this \
                          re-raises"
            )]
            let join = |h: std::thread::ScopedJoinHandle<'_, _>| h.join().expect("prover worker");
            handles.into_iter().flat_map(join).collect()
        })
    };
    Ok(aggregate(backend, report, records, segments))
}

/// Verify a segmented proof: re-prove every segment record, rebuild the
/// aggregation root, and check the proof binds this report's journal and
/// exit code. The *whole* proof must equal the rebuilt one — backend label,
/// per-segment proofs, root and total cost — so nothing a
/// [`SegmentedProof`] carries can be edited and still verify (a NaN cost
/// equals nothing, itself included).
#[must_use]
pub fn verify_segmented(
    backend: &dyn ProverBackend,
    report: &ExecutionReport,
    records: &[SegmentRecord],
    proof: &SegmentedProof,
) -> bool {
    prove_segmented(backend, report, records, 1).is_ok_and(|rebuilt| rebuilt == *proof)
}

/// The executable ground model of the commitment scheme: the segment prover
/// and aggregation join exactly as they stood before the hash kernel and the
/// streaming commit were rewritten — one heap `Vec<u8>` per leaf, one
/// `MerkleTree` per segment. Every refinement of [`prove_segmented`] is
/// asserted equal to it, commitment for commitment and root for root (the
/// tests in `lib.rs`), and three of its roots are pinned there as hex
/// literals, so the leaf format cannot drift with every test still agreeing
/// with itself.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{
        ExecutionReport, ProverBackend, SegmentProof, SegmentRecord, BYTES_PER_LEAF, ROWS_PER_LEAF,
    };
    use zkvmopt_crypto::MerkleTree;

    pub(crate) fn prove_segment(
        backend: &dyn ProverBackend,
        index: usize,
        seg: &SegmentRecord,
    ) -> SegmentProof {
        let rows = backend.segment_rows(seg);
        let padded = backend.padded_rows(rows);
        let nleaves = padded.div_ceil(ROWS_PER_LEAF).max(1);
        let mut leaves: Vec<Vec<u8>> = Vec::with_capacity(nleaves as usize);
        for chunk in 0..nleaves {
            let mut leaf = Vec::with_capacity(16 + BYTES_PER_LEAF);
            leaf.extend_from_slice(b"seg-chunk");
            leaf.extend_from_slice(&(index as u64).to_le_bytes());
            leaf.extend_from_slice(&chunk.to_le_bytes());
            let mut state = 0x9e37_79b9_7f4a_7c15u64
                ^ (index as u64).rotate_left(32)
                ^ chunk.rotate_left(16)
                ^ seg.instret
                ^ seg.user_cycles.rotate_left(8)
                ^ seg.paging_cycles.rotate_left(24)
                ^ seg.page_ins.rotate_left(40)
                ^ seg.page_outs.rotate_left(48);
            for _ in 0..BYTES_PER_LEAF / 8 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                leaf.extend_from_slice(&state.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes());
            }
            leaves.push(leaf);
        }
        SegmentProof {
            index,
            rows,
            padded_rows: padded,
            cost_ms: backend.segment_cost_ms(seg),
            commitment: MerkleTree::new(&leaves).root(),
        }
    }

    pub(crate) fn aggregation_root(
        report: &ExecutionReport,
        segments: &[SegmentProof],
    ) -> [u8; 32] {
        let mut leaves: Vec<Vec<u8>> = segments.iter().map(|s| s.commitment.to_vec()).collect();
        let mut public = Vec::new();
        public.extend_from_slice(b"journal");
        public.extend_from_slice(&report.exit_code.to_le_bytes());
        for j in &report.journal {
            public.extend_from_slice(&j.to_le_bytes());
        }
        leaves.push(public);
        MerkleTree::new(&leaves).root()
    }
}
