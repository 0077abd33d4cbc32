//! Linear-scan register allocation with real spilling.
//!
//! This is where the paper's register-pressure effects become mechanical:
//! inlining and LICM lengthen live ranges; when the 25 allocatable registers
//! run out, values spill to the stack and every spill is a real `lw`/`sw`
//! executed by the zkVM — the Fig. 11 mechanism.

use crate::isel::VFunc;
use crate::reg::{Reg, VReg, ALLOCATABLE};
use crate::vinst::VInst;
use std::fmt;

/// Where a value lives after allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Loc {
    /// A physical register.
    Reg(Reg),
    /// A frame spill slot (index; emission assigns byte offsets).
    Slot(u32),
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Loc::Reg(r) => write!(f, "{r}"),
            Loc::Slot(s) => write!(f, "[slot{s}]"),
        }
    }
}

/// An allocated function, ready for emission.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocatedFunc {
    /// Symbol name.
    pub name: String,
    /// Blocks with locations instead of virtual registers.
    pub blocks: Vec<Vec<VInst<Loc>>>,
    /// Callee-saved registers the prologue must preserve.
    pub used_callee_saved: Vec<Reg>,
    /// Number of 4-byte spill slots.
    pub spill_slots: u32,
    /// Bytes of `alloca` storage.
    pub alloca_bytes: u32,
    /// Module-level function index.
    pub func_index: usize,
    /// Spill statistics: number of spilled virtual registers (exposed for
    /// the Fig. 11 experiment).
    pub spilled_vregs: u32,
}

/// Physical registers as a bit mask indexed by register number.
const fn mask(regs: &[Reg]) -> u32 {
    let mut m = 0;
    let mut i = 0;
    while i < regs.len() {
        m |= 1 << regs[i].0;
        i += 1;
    }
    m
}

const ALLOCATABLE_MASK: u32 = mask(&ALLOCATABLE);
/// `t0`–`t2`, `a0`–`a7`, `t3`–`t6`: [`Reg::is_caller_saved`] as a mask.
const CALLER_SAVED: u32 = 0xf003_fce0;
/// What a call clobbers of the allocatable set.
const CALL_CLOBBERS: u32 = ALLOCATABLE_MASK & CALLER_SAVED;
/// What an ecall clobbers: the code register and the three argument registers.
const ECALL_CLOBBERS: u32 = mask(&[Reg::T0, Reg::A0, Reg::A1, Reg::A2]);

/// Live intervals over linear instruction positions, plus the positions that
/// clobber registers. `start[v] == usize::MAX` marks a vreg never referenced.
struct Ranges {
    start: Vec<usize>,
    end: Vec<usize>,
    /// Positions of calls and of ecalls, ascending.
    calls: Vec<usize>,
    ecalls: Vec<usize>,
}

impl Ranges {
    fn extend(&mut self, v: VReg, p: usize) {
        let i = v.0 as usize;
        if self.start[i] == usize::MAX || p < self.start[i] {
            self.start[i] = p;
        }
        if p > self.end[i] {
            self.end[i] = p;
        }
    }

    /// Registers an interval `[s, e]` must avoid. An interval is clobbered
    /// when it is live *across* position p. `s == p` must count: an
    /// ecall/call argument used again after the instruction starts its
    /// interval exactly at p yet its value has to survive the clobber (the
    /// conservative cost is that defs at p are also excluded, which only
    /// narrows the register pool).
    fn forbidden(&self, s: usize, e: usize) -> u32 {
        let hit = |ps: &[usize]| {
            ps.get(ps.partition_point(|&p| p < s))
                .is_some_and(|&p| p < e)
        };
        let call = if hit(&self.calls) { CALL_CLOBBERS } else { 0 };
        let ecall = if hit(&self.ecalls) { ECALL_CLOBBERS } else { 0 };
        call | ecall
    }
}

/// Backward liveness to the least block fixpoint over gen/kill bitsets, then
/// one interval per referenced vreg.
fn live_ranges(vf: &VFunc) -> Ranges {
    let nblocks = vf.blocks.len();
    let n = vf.nvregs as usize;
    let words = n.div_ceil(64);
    // Successors from terminators; upward-exposed uses and defs per block.
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nblocks];
    let mut gen = vec![0u64; nblocks * words];
    let mut kill = vec![0u64; nblocks * words];
    for (bi, block) in vf.blocks.iter().enumerate() {
        let (gen, kill) = (
            &mut gen[bi * words..][..words],
            &mut kill[bi * words..][..words],
        );
        for inst in block {
            match inst {
                VInst::Branch { target, .. } | VInst::Jump { target }
                    if !succs[bi].contains(target) =>
                {
                    succs[bi].push(*target);
                }
                _ => {}
            }
            inst.for_each_use(|VReg(u)| {
                gen[u as usize / 64] |= (1 << (u % 64)) & !kill[u as usize / 64];
            });
            inst.for_each_def(|VReg(d)| kill[d as usize / 64] |= 1 << (d % 64));
        }
    }
    let mut live_in = gen;
    let mut live_out = vec![0u64; nblocks * words];
    let mut changed = true;
    while changed {
        changed = false;
        for bi in (0..nblocks).rev() {
            for w in 0..words {
                let out = succs[bi].iter().fold(0, |o, &s| o | live_in[s * words + w]);
                let inn = live_in[bi * words + w] | (out & !kill[bi * words + w]);
                changed |= out != live_out[bi * words + w] || inn != live_in[bi * words + w];
                live_out[bi * words + w] = out;
                live_in[bi * words + w] = inn;
            }
        }
    }
    // Linear positions and intervals.
    let mut r = Ranges {
        start: vec![usize::MAX; n],
        end: vec![0; n],
        calls: Vec::new(),
        ecalls: Vec::new(),
    };
    let mut pos = 0usize;
    for (bi, block) in vf.blocks.iter().enumerate() {
        let bstart = pos;
        for inst in block {
            inst.for_each_use(|u| r.extend(u, pos));
            inst.for_each_def(|d| r.extend(d, pos));
            match inst {
                VInst::Call { .. } => r.calls.push(pos),
                VInst::Ecall { .. } => r.ecalls.push(pos),
                _ => {}
            }
            pos += 1;
        }
        let bend = pos.saturating_sub(1);
        for (live, p) in [(&live_in, bstart), (&live_out, bend)] {
            for (w, &word) in live[bi * words..][..words].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    r.extend(VReg((w * 64) as u32 + bits.trailing_zeros()), p);
                    bits &= bits - 1;
                }
            }
        }
    }
    r
}

/// Run liveness + linear scan on a lowered function.
pub fn allocate(vf: &VFunc) -> AllocatedFunc {
    let ranges = live_ranges(vf);
    // (start, end, vreg, forbidden registers), in scan order.
    let mut intervals: Vec<(usize, usize, VReg, u32)> = (0..vf.nvregs)
        .filter(|&i| ranges.start[i as usize] != usize::MAX)
        .map(|i| {
            let (s, e) = (ranges.start[i as usize], ranges.end[i as usize]);
            (s, e, VReg(i), ranges.forbidden(s, e))
        })
        .collect();
    intervals.sort_by_key(|&(s, e, ..)| (s, e));

    // Linear scan. Unreferenced vregs keep the `zero` placeholder.
    let mut assignment = vec![Loc::Reg(Reg::ZERO); vf.nvregs as usize];
    let mut active: Vec<(usize, Reg, VReg)> = Vec::new(); // (end, reg, vreg)
    let mut taken = 0u32;
    let mut next_slot = 0u32;
    let mut used_callee = 0u32;
    for &(start, end, vreg, forbidden) in &intervals {
        active.retain(|&(e, r, _)| {
            let live = e >= start;
            if !live {
                taken &= !(1 << r.0);
            }
            live
        });
        // Preference order: caller-saved first for call-free intervals so
        // callee-saved stay available for call-crossing ones; lowest
        // register number within a class. A clobbered interval takes any
        // permitted register (callee-saved inevitably).
        let free = ALLOCATABLE_MASK & !taken & !forbidden;
        let preferred = if forbidden == 0 && free & CALLER_SAVED != 0 {
            free & CALLER_SAVED
        } else {
            free
        };
        let reg = if preferred != 0 {
            Some(Reg(preferred.trailing_zeros() as u8))
        } else {
            // Steal from the active interval with the furthest end (the last
            // such) whose register the current interval may use.
            let victim = active
                .iter()
                .enumerate()
                .filter(|(_, (_, r, _))| forbidden & (1 << r.0) == 0)
                .max_by_key(|(_, (e, _, _))| *e)
                .map(|(i, x)| (i, *x));
            let (spill, reg) = match victim {
                Some((vi, (ve, vr, vv))) if ve > end => {
                    active.remove(vi);
                    (vv, Some(vr))
                }
                _ => (vreg, None),
            };
            assignment[spill.0 as usize] = Loc::Slot(next_slot);
            next_slot += 1;
            reg
        };
        if let Some(r) = reg {
            assignment[vreg.0 as usize] = Loc::Reg(r);
            taken |= 1 << r.0;
            used_callee |= (1 << r.0) & !CALLER_SAVED;
            active.push((end, r, vreg));
        }
    }

    let blocks: Vec<Vec<VInst<Loc>>> = vf
        .blocks
        .iter()
        .map(|b| {
            b.iter()
                .map(|i| i.map_regs(|v| assignment[v.0 as usize]))
                .collect()
        })
        .collect();
    AllocatedFunc {
        name: vf.name.clone(),
        blocks,
        used_callee_saved: (0..32)
            .filter(|r| used_callee & (1 << r) != 0)
            .map(Reg)
            .collect(),
        spill_slots: next_slot,
        alloca_bytes: vf.alloca_bytes,
        func_index: vf.func_index,
        spilled_vregs: next_slot,
    }
}

/// Re-derive each vreg's location from the rewritten blocks of an allocation
/// not yet through [`cleanup`] (`None`: never referenced).
fn locations(vf: &VFunc, af: &AllocatedFunc) -> Result<Vec<Option<Loc>>, String> {
    let mut loc: Vec<Option<Loc>> = vec![None; vf.nvregs as usize];
    for (i_old, i_new) in vf.blocks.iter().flatten().zip(af.blocks.iter().flatten()) {
        let olds = i_old.uses().into_iter().chain(i_old.defs());
        for (o, n) in olds.zip(i_new.uses().into_iter().chain(i_new.defs())) {
            match loc[o.0 as usize].replace(n) {
                Some(prev) if prev != n => {
                    return Err(format!("{o} mapped to both {prev} and {n}"));
                }
                _ => {}
            }
        }
    }
    Ok(loc)
}

/// Self-check used by tests, on an allocation not yet through [`cleanup`]:
/// every vreg has one location, no two register-allocated intervals that
/// overlap share a register, and no interval holds a register that is
/// clobbered inside it. (Slots are trivially disjoint.)
///
/// # Errors
/// Describes the first violation found.
pub fn verify_no_overlap(vf: &VFunc, af: &AllocatedFunc) -> Result<(), String> {
    let loc = locations(vf, af)?;
    // Recompute the intervals exactly as `allocate` does and sweep them in
    // start order: `holder[r]` is the last interval seen in `r`.
    let ranges = live_ranges(vf);
    let mut order: Vec<usize> = (0..loc.len()).filter(|&v| loc[v].is_some()).collect();
    order.sort_by_key(|&v| ranges.start[v]);
    let mut holder: [Option<usize>; 32] = [None; 32];
    for v in order {
        let Some(Loc::Reg(r)) = loc[v] else { continue };
        let (s, e) = (ranges.start[v], ranges.end[v]);
        if ranges.forbidden(s, e) & (1 << r.0) != 0 {
            return Err(format!("v{v} holds {r} across a clobber in [{s}, {e}]"));
        }
        // Every earlier interval in `r` starts at or before `s`, so it
        // overlaps this one exactly when it ends at or after `s`.
        if let Some(h) = holder[r.0 as usize].filter(|&h| ranges.end[h] >= s) {
            return Err(format!("v{h} and v{v} overlap at {s} and share {r}"));
        }
        holder[r.0 as usize] = Some(v);
    }
    Ok(())
}

/// Simple post-allocation cleanup: drop `mv x, x`. (`li rd, 0 ; add rd2, x,
/// rd` patterns are left to the zkVM — peephole quality is uniform across
/// optimization profiles, which is what the study needs.)
pub fn cleanup(af: &mut AllocatedFunc) {
    for b in &mut af.blocks {
        b.retain(|i| !matches!(i, VInst::Mv { rd, rs } if rd == rs));
    }
}

/// The hash-set allocator the bitset one replaced, kept as the oracle the
/// tests below compare against.
#[cfg(test)]
mod oracle {
    use super::{AllocatedFunc, Loc};
    use crate::isel::VFunc;
    use crate::reg::{Reg, VReg, ALLOCATABLE};
    use crate::vinst::VInst;
    use zkvmopt_ir::hash::{FxHashMap, FxHashSet};

    #[derive(Debug, Clone)]
    struct Interval {
        vreg: VReg,
        start: usize,
        end: usize,
        /// Registers this interval must avoid (clobbered inside its range).
        forbidden: FxHashSet<Reg>,
    }

    /// `allocate` as it was before the bitset rewrite.
    pub fn allocate(vf: &VFunc) -> AllocatedFunc {
        let nblocks = vf.blocks.len();
        // Successor map from terminators.
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nblocks];
        for (bi, block) in vf.blocks.iter().enumerate() {
            for inst in block {
                match inst {
                    VInst::Branch { target, .. } | VInst::Jump { target }
                        if !succs[bi].contains(target) =>
                    {
                        succs[bi].push(*target);
                    }
                    _ => {}
                }
            }
        }
        // Backward liveness to block fixpoint.
        let n = vf.nvregs as usize;
        let mut live_in: Vec<FxHashSet<VReg>> = vec![FxHashSet::default(); nblocks];
        let mut live_out: Vec<FxHashSet<VReg>> = vec![FxHashSet::default(); nblocks];
        let mut changed = true;
        while changed {
            changed = false;
            for bi in (0..nblocks).rev() {
                let mut out: FxHashSet<VReg> = FxHashSet::default();
                for &s in &succs[bi] {
                    out.extend(live_in[s].iter().copied());
                }
                let mut inn = out.clone();
                for inst in vf.blocks[bi].iter().rev() {
                    for d in inst.defs() {
                        inn.remove(&d);
                    }
                    for u in inst.uses() {
                        inn.insert(u);
                    }
                }
                if out != live_out[bi] {
                    live_out[bi] = out;
                    changed = true;
                }
                if inn != live_in[bi] {
                    live_in[bi] = inn;
                    changed = true;
                }
            }
        }
        // Linear positions and intervals.
        let mut pos = 0usize;
        let mut start = vec![usize::MAX; n];
        let mut end = vec![0usize; n];
        let extend = |v: VReg, p: usize, start: &mut Vec<usize>, end: &mut Vec<usize>| {
            let i = v.0 as usize;
            if start[i] == usize::MAX || p < start[i] {
                start[i] = p;
            }
            if p > end[i] {
                end[i] = p;
            }
        };
        // Clobber points: position -> set of clobbered registers.
        let mut clobbers: Vec<(usize, Vec<Reg>)> = Vec::new();
        for (bi, block) in vf.blocks.iter().enumerate() {
            let bstart = pos;
            for inst in block {
                for u in inst.uses() {
                    extend(u, pos, &mut start, &mut end);
                }
                for d in inst.defs() {
                    extend(d, pos, &mut start, &mut end);
                }
                match inst {
                    VInst::Call { .. } => {
                        let cs: Vec<Reg> = ALLOCATABLE
                            .iter()
                            .copied()
                            .filter(|r| r.is_caller_saved())
                            .collect();
                        clobbers.push((pos, cs));
                    }
                    VInst::Ecall { .. } => {
                        clobbers.push((pos, vec![Reg::T0, Reg::A0, Reg::A1, Reg::A2]));
                    }
                    _ => {}
                }
                pos += 1;
            }
            let bend = pos.saturating_sub(1);
            for &v in &live_in[bi] {
                extend(v, bstart, &mut start, &mut end);
            }
            for &v in &live_out[bi] {
                extend(v, bend, &mut start, &mut end);
            }
        }
        let mut intervals: Vec<Interval> = (0..n)
            .filter(|&i| start[i] != usize::MAX)
            .map(|i| {
                let (s, e) = (start[i], end[i]);
                // An interval is clobbered when it is live *across* position p.
                // `s == p` must count: an ecall/call argument used again after
                // the instruction starts its interval exactly at p yet its value
                // has to survive the clobber (the conservative cost is that defs
                // at p are also excluded, which only narrows the register pool).
                let forbidden: FxHashSet<Reg> = clobbers
                    .iter()
                    .filter(|(p, _)| s <= *p && *p < e)
                    .flat_map(|(_, rs)| rs.iter().copied())
                    .collect();
                Interval {
                    vreg: VReg(i as u32),
                    start: s,
                    end: e,
                    forbidden,
                }
            })
            .collect();
        intervals.sort_by_key(|iv| (iv.start, iv.end));

        // Linear scan.
        let mut assignment: FxHashMap<VReg, Loc> = FxHashMap::default();
        let mut active: Vec<(usize, Reg, VReg)> = Vec::new(); // (end, reg, vreg)
        let mut next_slot = 0u32;
        let mut used_callee: FxHashSet<Reg> = FxHashSet::default();
        let mut spilled = 0u32;
        for iv in &intervals {
            active.retain(|(e, _, _)| *e >= iv.start);
            let taken: FxHashSet<Reg> = active.iter().map(|(_, r, _)| *r).collect();
            // Preference order: caller-saved first for call-free intervals so
            // callee-saved stay available for call-crossing ones.
            let crosses_call = iv.forbidden.iter().any(|r| r.is_caller_saved());
            let pick = ALLOCATABLE
                .iter()
                .copied()
                .filter(|r| !taken.contains(r) && !iv.forbidden.contains(r))
                .min_by_key(|r| {
                    if crosses_call {
                        // Any permitted register (callee-saved inevitably).
                        r.0
                    } else if r.is_caller_saved() {
                        r.0 as u32 as u8
                    } else {
                        100 + r.0
                    }
                });
            match pick {
                Some(r) => {
                    assignment.insert(iv.vreg, Loc::Reg(r));
                    if r.is_callee_saved() {
                        used_callee.insert(r);
                    }
                    active.push((iv.end, r, iv.vreg));
                }
                None => {
                    // Steal from the active interval with the furthest end whose
                    // register the current interval may use.
                    let victim = active
                        .iter()
                        .enumerate()
                        .filter(|(_, (_, r, _))| !iv.forbidden.contains(r))
                        .max_by_key(|(_, (e, _, _))| *e)
                        .map(|(i, x)| (i, *x));
                    match victim {
                        Some((vi, (ve, vr, vv))) if ve > iv.end => {
                            assignment.insert(vv, Loc::Slot(next_slot));
                            next_slot += 1;
                            spilled += 1;
                            assignment.insert(iv.vreg, Loc::Reg(vr));
                            active.remove(vi);
                            active.push((iv.end, vr, iv.vreg));
                        }
                        _ => {
                            assignment.insert(iv.vreg, Loc::Slot(next_slot));
                            next_slot += 1;
                            spilled += 1;
                        }
                    }
                }
            }
        }

        // Apply: map vregs to locations.
        let blocks: Vec<Vec<VInst<Loc>>> = vf
            .blocks
            .iter()
            .map(|b| {
                b.iter()
                    .map(|i| i.map_regs(|v| *assignment.get(&v).unwrap_or(&Loc::Reg(Reg::ZERO))))
                    .collect()
            })
            .collect();
        let mut used_callee_saved: Vec<Reg> = used_callee.into_iter().collect();
        used_callee_saved.sort();
        AllocatedFunc {
            name: vf.name.clone(),
            blocks,
            used_callee_saved,
            spill_slots: next_slot,
            alloca_bytes: vf.alloca_bytes,
            func_index: vf.func_index,
            spilled_vregs: spilled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isel::lower_function;
    use crate::program_gen;
    use crate::TargetCostModel;

    fn lower(src: &str) -> Vec<VFunc> {
        let m = zkvmopt_lang::compile(src).expect("compiles");
        let addrs = m.layout_globals();
        (0..m.funcs.len())
            .map(|i| lower_function(&m, i, &TargetCostModel::zk(), &addrs).expect("lowers"))
            .collect()
    }

    #[test]
    fn allocates_simple_function_without_spills() {
        let fs = lower("fn main() -> i32 { let a: i32 = 3; let b: i32 = 4; return a * b; }");
        let af = allocate(&fs[0]);
        assert_eq!(af.spill_slots, 0);
        verify_no_overlap(&fs[0], &af).unwrap();
    }

    #[test]
    fn loop_values_keep_registers_across_backedge() {
        let fs = lower(
            "fn main() -> i32 {
               let mut s: i32 = 0;
               for (let mut i: i32 = 0; i < 10; i += 1) { s += i * i; }
               return s;
             }",
        );
        let af = allocate(&fs[0]);
        verify_no_overlap(&fs[0], &af).unwrap();
    }

    #[test]
    fn high_pressure_spills() {
        // 30 simultaneously-live sums exceed 25 allocatable registers.
        let mut body = String::new();
        let mut ret = String::new();
        for i in 0..30 {
            body.push_str(&format!("let v{i}: i32 = x + {i};\n"));
            if i > 0 {
                ret.push('+');
            }
            ret.push_str(&format!("v{i}"));
        }
        let src = format!(
            "fn main() -> i32 {{ let x: i32 = read_input(0);\n{body} commit(x); return {ret}; }}"
        );
        // The commit keeps all vN live across a statement; the adds at the
        // end use them all.
        let m = zkvmopt_lang::compile(&src).expect("compiles");
        let mut m = m;
        // Promote to SSA so values live in registers, not stack slots.
        zkvmopt_passes::run_pass("mem2reg", &mut m, &zkvmopt_passes::PassConfig::default());
        let addrs = m.layout_globals();
        let vf = lower_function(&m, 0, &TargetCostModel::zk(), &addrs).unwrap();
        let af = allocate(&vf);
        assert!(af.spilled_vregs > 0, "expected spills under pressure");
    }

    #[test]
    fn call_crossing_values_use_callee_saved() {
        let fs = lower(
            "fn g(x: i32) -> i32 { return x + 1; }
             fn main() -> i32 {
               let a: i32 = read_input(0);
               let b: i32 = g(7);
               return a + b;
             }",
        );
        // main is the second function.
        let af = allocate(&fs[1]);
        assert!(
            !af.used_callee_saved.is_empty() || af.spill_slots > 0,
            "a must survive the call via callee-saved or a slot"
        );
    }

    #[test]
    fn register_masks_match_the_register_classes() {
        for r in (0..32).map(Reg) {
            assert_eq!(CALLER_SAVED & (1 << r.0) != 0, r.is_caller_saved(), "{r}");
        }
        let clobbered = ALLOCATABLE.iter().filter(|r| r.is_caller_saved());
        assert_eq!(CALL_CLOBBERS, mask(&clobbered.copied().collect::<Vec<_>>()));
    }

    /// The bitset allocator against the hash-set one it replaced, and the
    /// result against [`verify_no_overlap`].
    fn check_against_oracle(what: &str, vf: &VFunc) {
        let (old, new) = (oracle::allocate(vf), allocate(vf));
        assert_eq!(old, new, "{what}");
        verify_no_overlap(vf, &new).unwrap_or_else(|e| panic!("{what}: {e}"));
    }

    /// Every function of `m` as lowered, after `-O1` and after `-O3`, under
    /// both backends.
    fn check_module(name: &str, m: &zkvmopt_ir::Module) {
        use zkvmopt_passes::{PassConfig, PassManager};
        let (mut o1, mut o3) = (m.clone(), m.clone());
        PassManager::o1().run(&mut o1, &PassConfig::default());
        PassManager::o3().run(&mut o3, &PassConfig::default());
        for (state, m) in [("lowered", m), ("O1", &o1), ("O3", &o3)] {
            let addrs = m.layout_globals();
            for cm in [TargetCostModel::cpu(), TargetCostModel::zk()] {
                for fi in 0..m.funcs.len() {
                    let vf = lower_function(m, fi, &cm, &addrs).expect("lowers");
                    check_against_oracle(&format!("{name}/{}@{state}/{}", vf.name, cm.name), &vf);
                }
            }
        }
    }

    #[test]
    fn bitset_allocator_matches_the_oracle_on_the_suite() {
        for w in zkvmopt_workloads::all() {
            let m = zkvmopt_lang::compile_guest(&w.source).expect("suite program compiles");
            check_module(w.name, &m);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 12,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The same over the `proptest_passes` generator's programs.
        #[test]
        fn bitset_allocator_matches_the_oracle_on_generated_programs(
            es in proptest::collection::vec(program_gen::arb_expr(), 1..5),
            trip in 1u8..20,
        ) {
            for src in [program_gen::program(&es, trip), program_gen::program_with_calls(&es, trip)] {
                let m = zkvmopt_lang::compile_guest(&src).expect("generated program compiles");
                check_module("generated", &m);
            }
        }
    }

    fn vfunc(blocks: Vec<Vec<VInst<VReg>>>, nvregs: u32) -> VFunc {
        VFunc {
            name: "hand".into(),
            blocks,
            nvregs,
            alloca_bytes: 0,
            func_index: 0,
        }
    }

    fn li(rd: u32) -> VInst<VReg> {
        VInst::LoadImm {
            rd: VReg(rd),
            imm: rd as i32,
        }
    }

    fn add(rd: u32, rs1: u32, rs2: u32) -> VInst<VReg> {
        VInst::Alu {
            op: crate::inst::AluOp::Add,
            rd: VReg(rd),
            rs1: VReg(rs1),
            rs2: VReg(rs2),
        }
    }

    fn ret(v: u32) -> VInst<VReg> {
        VInst::Ret { val: Some(VReg(v)) }
    }

    fn loc_of(vf: &VFunc, af: &AllocatedFunc, v: u32) -> Loc {
        locations(vf, af).expect("one location per vreg")[v as usize].expect("referenced")
    }

    #[test]
    fn value_live_across_a_call_and_an_ecall_avoids_both_clobber_sets() {
        let call = VInst::Call {
            callee: 0,
            args: vec![VReg(1)],
            ret: Some(VReg(2)),
        };
        let ecall = VInst::Ecall {
            code: 2,
            args: vec![VReg(2)],
            ret: VReg(3),
        };
        let vf = vfunc(
            vec![vec![li(0), li(1), call, ecall, add(4, 0, 3), ret(4)]],
            5,
        );
        check_against_oracle("call+ecall", &vf);
        let Loc::Reg(r) = loc_of(&vf, &allocate(&vf), 0) else {
            panic!("25 registers for 5 values: nothing spills");
        };
        assert!(r.is_callee_saved(), "v0 crosses a call, got {r}");
    }

    #[test]
    fn interval_starting_exactly_at_a_clobber_is_clobbered() {
        // v1 is defined by the ecall at position 1 and read after it: the
        // interval starts at the clobber and must stay out of t0/a0–a2. v2
        // starts at the call at position 2 the same way.
        let ecall = VInst::Ecall {
            code: 2,
            args: vec![VReg(0)],
            ret: VReg(1),
        };
        let call = VInst::Call {
            callee: 0,
            args: vec![],
            ret: Some(VReg(2)),
        };
        let vf = vfunc(vec![vec![li(0), ecall, call, add(3, 1, 2), ret(3)]], 4);
        check_against_oracle("starts-at-clobber", &vf);
        let af = allocate(&vf);
        for v in [1, 2] {
            let Loc::Reg(r) = loc_of(&vf, &af, v) else {
                panic!("nothing spills here");
            };
            assert!(r.is_callee_saved(), "v{v} got {r}");
        }
    }

    #[test]
    fn thirty_live_values_steal_from_the_furthest_end_or_spill_themselves() {
        // 30 values defined in order; read back in definition order (the
        // late definitions end last, so they spill themselves) or in reverse
        // (the early ones end last, so later ones steal their registers).
        for reverse in [false, true] {
            let mut block: Vec<VInst<VReg>> = (0..30).map(li).collect();
            let mut acc = 30;
            block.push(li(acc));
            for k in 0..30 {
                let v = if reverse { 29 - k } else { k };
                block.push(add(acc + 1, acc, v));
                acc += 1;
            }
            block.push(ret(acc));
            let vf = vfunc(vec![block], acc + 1);
            check_against_oracle(if reverse { "steal" } else { "self-spill" }, &vf);
            let af = allocate(&vf);
            assert!(af.spilled_vregs >= 5, "30 live values, 25 registers");
            assert_eq!(af.spilled_vregs, af.spill_slots);
            let first_is_spilled = matches!(loc_of(&vf, &af, 0), Loc::Slot(_));
            assert_eq!(
                first_is_spilled, reverse,
                "v0 is a steal victim only when it ends last"
            );
        }
    }

    #[test]
    fn use_before_def_across_a_back_edge_stays_live_around_the_loop() {
        // bb1 reads v1 before redefining it, and loops to itself: v1 is live
        // into bb1, out of bb1, and out of bb0 where it is first defined.
        let vf = vfunc(
            vec![
                vec![li(0), li(1), VInst::Jump { target: 1 }],
                vec![
                    add(2, 1, 0),
                    add(1, 2, 0),
                    VInst::Branch {
                        cond: crate::inst::BranchCond::Ne,
                        rs1: VReg(2),
                        rs2: None,
                        target: 1,
                    },
                    VInst::Jump { target: 2 },
                ],
                vec![ret(1)],
            ],
            3,
        );
        check_against_oracle("back edge", &vf);
        let af = allocate(&vf);
        assert_ne!(loc_of(&vf, &af, 0), loc_of(&vf, &af, 1));
        assert_ne!(loc_of(&vf, &af, 1), loc_of(&vf, &af, 2));
    }

    #[test]
    fn verify_rejects_shared_registers_and_clobbered_holders() {
        let call = VInst::Call {
            callee: 0,
            args: vec![],
            ret: None,
        };
        let vf = vfunc(vec![vec![li(0), li(1), call, add(2, 0, 1), ret(2)]], 3);
        let good = allocate(&vf);
        verify_no_overlap(&vf, &good).unwrap();
        let rewrite = |f: &dyn Fn(VReg) -> Loc| AllocatedFunc {
            blocks: vf
                .blocks
                .iter()
                .map(|b| b.iter().map(|i| i.map_regs(f)).collect())
                .collect(),
            ..good.clone()
        };
        // v0 and v1 overlap and share s0.
        let shared = rewrite(&|v| Loc::Reg(if v.0 == 2 { Reg::A0 } else { Reg::S0 }));
        let err = verify_no_overlap(&vf, &shared).unwrap_err();
        assert!(err.contains("share"), "{err}");
        // v0 sits in caller-saved t1 across the call.
        let clobbered = rewrite(&|v| Loc::Reg([Reg::T1, Reg::S1, Reg::A0][v.0 as usize]));
        let err = verify_no_overlap(&vf, &clobbered).unwrap_err();
        assert!(err.contains("clobber"), "{err}");
    }
}
