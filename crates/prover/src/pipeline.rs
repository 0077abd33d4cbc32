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
//!    splitting the segments into one contiguous run per worker thread. A
//!    leaf is 1049 bytes — `"seg-chunk"`, the segment index and chunk number
//!    as little-endian `u64`s, then 1024 xorshift64* bytes keyed by the
//!    record — and depends on nothing else, so a run's leaves are one stream
//!    across its segment boundaries: `prove_run` fills four stack buffers at
//!    a time on four independent xorshift chains, hashes them as two
//!    two-lane [`sha256_pair`] calls into one buffer of leaf hashes for the
//!    run, and folds each segment's slice of that buffer in place
//!    ([`root_of_leaf_hashes`]): no leaf and no inner tree level is ever
//!    held;
//! 3. the aggregation join commits to the per-segment roots plus the public
//!    journal/exit leaf, in segment order, hashing the roots two at a time —
//!    so parallel and sequential proving produce the same root and the same
//!    total cost, bit for bit.
//!
//! The commitment is a function of the records alone: not of the thread
//! count, not of where a run's leaves fall in their groups of four, and not
//! of which SHA-256 kernel the host dispatches to or how many lanes it
//! hashes at once. The `oracle` module at the end of this file keeps the
//! allocation-per-leaf prover this one replaced as the ground model the
//! tests compare against.
//!
//! Backend cost shapes are pluggable via [`ProverBackend`]: RISC Zero–like
//! (paging rows in the main trace), SP1-like (chip tables charge extra rows
//! for multiplies/divides and memory ops, paging free), and a hypothetical
//! lookup-centric design (cheap rows, memory resolved by lookup arguments,
//! expensive recursion) — so the fig14 zk-aware study runs per backend.

use crate::padded_rows_blend;
use zkvmopt_crypto::merkle::root_of_leaf_hashes;
use zkvmopt_crypto::{sha256, sha256_pair};
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

/// The standard backend panel for multi-backend studies (fig14, the
/// benchmark's `prove_segmented` workload).
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

/// Bytes in one leaf.
const LEAF_LEN: usize = LEAF_HEADER + BYTES_PER_LEAF;

/// One commitment leaf of a run: the segment index and chunk number its
/// header carries, and the seed of its xorshift64* body stream.
#[derive(Clone, Copy)]
struct LeafKey {
    index: u64,
    chunk: u64,
    seed: u64,
}

/// Fill four leaves, one per key, on four independent xorshift64* chains
/// stepped in lockstep. The leaves' `"seg-chunk"` tags are already in place.
fn fill_leaves(leaves: &mut [[u8; LEAF_LEN]; 4], keys: &[LeafKey; 4]) {
    let mut state = [0u64; 4];
    for ((leaf, key), state) in leaves.iter_mut().zip(keys).zip(&mut state) {
        leaf[9..17].copy_from_slice(&key.index.to_le_bytes());
        leaf[17..LEAF_HEADER].copy_from_slice(&key.chunk.to_le_bytes());
        *state = key.seed;
    }
    for word in 0..BYTES_PER_LEAF / 8 {
        let at = LEAF_HEADER + 8 * word;
        for (leaf, state) in leaves.iter_mut().zip(&mut state) {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            leaf[at..at + 8]
                .copy_from_slice(&state.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes());
        }
    }
}

/// Leaves in a segment of `padded` rows: one per [`ROWS_PER_LEAF`], at
/// least one.
fn leaf_count(padded: u64) -> usize {
    padded.div_ceil(ROWS_PER_LEAF).max(1) as usize
}

/// Hash each of `messages` into the same slot of `out`, two messages per
/// call.
fn hash_each<const L: usize>(messages: &[[u8; L]], out: &mut [[u8; 32]]) {
    debug_assert_eq!(messages.len(), out.len());
    for (pair, out) in messages.chunks(2).zip(out.chunks_mut(2)) {
        match (pair, out) {
            ([a, b], [x, y]) => [*x, *y] = sha256_pair(a, b),
            ([a], [x]) => *x = sha256(a),
            _ => {}
        }
    }
}

/// Prove a contiguous run of segments, the first of which is segment
/// `first`: commit to each one's (padded) trace area chunk by chunk. Each
/// chunk leaf carries a deterministic [`BYTES_PER_LEAF`]-byte body derived
/// from the segment's accounting, so proving a bigger segment hashes
/// proportionally more data — the toy stand-in for trace columns.
///
/// A leaf's bytes depend only on its segment index, chunk number and
/// record, so the run's leaves form one stream regardless of segment
/// boundaries: four are filled at a time into stack buffers and hashed as
/// two [`sha256_pair`]s into one buffer of leaf hashes, and each segment's
/// commitment is folded in place from its own slice of that buffer. No leaf
/// outlives its hash.
fn prove_run(
    backend: &dyn ProverBackend,
    first: usize,
    records: &[SegmentRecord],
) -> Vec<SegmentProof> {
    let mut proofs = Vec::with_capacity(records.len());
    let mut keys = Vec::new();
    for (index, seg) in (first..).zip(records) {
        let rows = backend.segment_rows(seg);
        let padded = backend.padded_rows(rows);
        proofs.push(SegmentProof {
            index,
            rows,
            padded_rows: padded,
            cost_ms: backend.segment_cost_ms(seg),
            commitment: [0; 32],
        });
        // xorshift64* stream seeded by the chunk identity and the segment's
        // accounting: any change to the record changes every body byte.
        let index = index as u64;
        let seed = 0x9e37_79b9_7f4a_7c15u64
            ^ index.rotate_left(32)
            ^ seg.instret
            ^ seg.user_cycles.rotate_left(8)
            ^ seg.paging_cycles.rotate_left(24)
            ^ seg.page_ins.rotate_left(40)
            ^ seg.page_outs.rotate_left(48);
        keys.extend((0..leaf_count(padded) as u64).map(|chunk| LeafKey {
            index,
            chunk,
            seed: seed ^ chunk.rotate_left(16),
        }));
    }

    let mut hashes = vec![[0u8; 32]; keys.len()];
    let mut leaves = [[0u8; LEAF_LEN]; 4];
    for leaf in &mut leaves {
        leaf[..9].copy_from_slice(b"seg-chunk");
    }
    for (keys, out) in keys.chunks(4).zip(hashes.chunks_mut(4)) {
        // A last group of fewer than four fills its spare leaves from its
        // first key and hashes only its own.
        let mut quad = [keys[0]; 4];
        quad[..keys.len()].copy_from_slice(keys);
        fill_leaves(&mut leaves, &quad);
        hash_each(&leaves[..keys.len()], out);
    }

    let mut level = hashes.as_mut_slice();
    for proof in &mut proofs {
        let (segment, later) = level.split_at_mut(leaf_count(proof.padded_rows));
        proof.commitment = root_of_leaf_hashes(segment);
        level = later;
    }
    proofs
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
    let commitments: Vec<[u8; 32]> = segments.iter().map(|s| s.commitment).collect();
    let mut hashes = vec![[0u8; 32]; commitments.len()];
    hash_each(&commitments, &mut hashes);
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
        root: root_of_leaf_hashes(&mut hashes),
        total_cost_ms: proving_cost_ms(backend, records),
    }
}

/// Padded rows a worker must have to hash before fanning out pays for its
/// spawn. Measured on a 2-vCPU SHA-NI host over the 116 suite runs at
/// segment limit ÷ 64 × three backends: one thread hashed 0.36 ns per
/// padded row, a two-worker call cost 75–90 µs more than half the
/// one-thread time, and two workers were slower than one below about
/// 450 000 padded rows per call. 2^18 rows is ≈ 94 µs of hashing.
const ROWS_PER_WORKER: u64 = 1 << 18;

/// Prove an execution segment-by-segment and aggregate, fanning the
/// per-segment proofs out over at most `threads` worker threads (`0` = all
/// available cores, `1` = sequential), and only as many as have 2^18
/// padded rows each: a run smaller than that is proved on the calling
/// thread. The result is identical whatever the thread
/// count: every join runs in segment order.
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
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    };
    let workers = if threads > 1 {
        let padded = records
            .iter()
            .map(|seg| backend.padded_rows(backend.segment_rows(seg)))
            .sum();
        fan_out(threads, padded)
    } else {
        1
    };
    Ok(prove_on(backend, report, records, workers))
}

/// How many of `threads` workers a run of `padded_rows` padded rows is
/// proved on: one per [`ROWS_PER_WORKER`] rows, and at least one.
pub(crate) fn fan_out(threads: usize, padded_rows: u64) -> usize {
    let affordable = usize::try_from(padded_rows / ROWS_PER_WORKER).unwrap_or(usize::MAX);
    threads.min(affordable).max(1)
}

/// [`prove_segmented`] past its accounting gate, on `workers` worker
/// threads (at most one per segment; `0` or `1` proves on the calling
/// thread).
pub(crate) fn prove_on(
    backend: &dyn ProverBackend,
    report: &ExecutionReport,
    records: &[SegmentRecord],
    workers: usize,
) -> SegmentedProof {
    let workers = workers.min(records.len());
    let segments = if workers <= 1 {
        prove_run(backend, 0, records)
    } else {
        // Each worker proves one contiguous run of segments; joining the
        // workers in spawn order puts the proofs back in segment order.
        let run = records.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = records
                .chunks(run)
                .enumerate()
                .map(|(w, chunk)| scope.spawn(move || prove_run(backend, w * run, chunk)))
                .collect();
            #[expect(
                clippy::expect_used,
                reason = "`prove_run` is total, so a worker unwinds only on a bug, which this \
                          re-raises"
            )]
            let join = |h: std::thread::ScopedJoinHandle<'_, _>| h.join().expect("prover worker");
            handles.into_iter().flat_map(join).collect()
        })
    };
    aggregate(backend, report, records, segments)
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
