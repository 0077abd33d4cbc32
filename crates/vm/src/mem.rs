//! Paged guest memory with RISC Zero–style page-in/page-out accounting.
//!
//! Pages are [`PAGE_SIZE`] bytes, fixed at compile time: 1 KiB, the RISC Zero
//! page the paper's paging findings rest on, and the size both profiles
//! model. A constant page lets the engine's hot accesses shift and mask by
//! immediates and index a fixed-size array, with no length check.
//!
//! Two implementations share the same observable counting semantics:
//!
//! - [`PagedMemory`] — the original hash-map-of-pages store, kept as the
//!   independent oracle behind the reference step interpreter. Its byte-wise
//!   touch loop is deliberately untouched so the differential tests compare
//!   two genuinely distinct implementations.
//! - [`FastMemory`] — the block-dispatch engine's store: lazily allocated
//!   pages plus a direct-indexed residency table, with a single page touch
//!   per access side (first and last byte) instead of one per byte.
//!   Page-in/page-out counts are bit-identical to [`PagedMemory`] because a
//!   multi-byte access can only ever touch the pages of its first and last
//!   byte. The residency table is also the engine's only page cache: an
//!   access to a page the segment already holds
//!   ([`FastMemory::load_resident`], [`FastMemory::store_resident`]) is a
//!   table lookup and a copy, with no accounting at all. (A flat 8 MiB
//!   buffer was measured and declined: 0.3 ms of zeroing per engine, no
//!   per-instruction gain.)

/// Total guest memory size (shared with the IR interpreter's map).
pub const MEM_SIZE: u32 = zkvmopt_ir::interp::MEM_SIZE;
/// Initial stack pointer.
pub const STACK_TOP: u32 = zkvmopt_ir::interp::STACK_TOP;
/// Guest page size in bytes (a power of two that covers one word, so an
/// access of at most 4 bytes touches at most two pages).
pub const PAGE_SIZE: u32 = 1024;
const PAGE_SHIFT: u32 = PAGE_SIZE.trailing_zeros();
const PAGE_MASK: u32 = PAGE_SIZE - 1;
const _: () = assert!(PAGE_SIZE.is_power_of_two() && PAGE_SIZE >= 4);
/// Number of pages in guest memory.
const NPAGES: usize = (MEM_SIZE / PAGE_SIZE) as usize;

/// One [`FastMemory`] data page.
type Page = [u8; PAGE_SIZE as usize];

/// A memory access fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// Faulting address.
    pub addr: u32,
}

/// Byte-addressed paged memory.
///
/// Data lives in fixed-size pages allocated on first touch. Within a
/// *segment*, the first access to a page counts one page-in and the first
/// write counts one (deferred) page-out; a segment flush resets the resident
/// set, so the next segment pays again — exactly the continuations cost model
/// the paper attributes licm's regressions to.
#[expect(
    clippy::disallowed_types,
    reason = "the reference memory model the engine is checked against stays as written"
)]
#[derive(Debug, Default)]
pub struct PagedMemory {
    pages: std::collections::HashMap<u32, Vec<u8>>,
    resident: std::collections::HashMap<u32, bool>, // page -> dirty?
    page_ins: u64,
    page_outs: u64,
}

impl PagedMemory {
    /// Fresh zeroed memory.
    pub fn new() -> PagedMemory {
        PagedMemory::default()
    }

    fn page_of(&self, addr: u32) -> u32 {
        addr / PAGE_SIZE
    }

    /// Touch `page` for reading/writing; returns (new page-ins, new
    /// page-outs) charged by this touch.
    fn touch(&mut self, page: u32, write: bool) -> (u64, u64) {
        let mut ins = 0;
        let mut outs = 0;
        match self.resident.get_mut(&page) {
            None => {
                ins = 1;
                if write {
                    outs = 1;
                }
                self.resident.insert(page, write);
            }
            Some(dirty) => {
                if write && !*dirty {
                    *dirty = true;
                    outs = 1;
                }
            }
        }
        self.page_ins += ins;
        self.page_outs += outs;
        (ins, outs)
    }

    fn page_data(&mut self, page: u32) -> &mut Vec<u8> {
        self.pages
            .entry(page)
            .or_insert_with(|| vec![0; PAGE_SIZE as usize])
    }

    /// End the current segment: the resident set is dropped, so the next
    /// segment re-pages everything it touches.
    pub fn flush_segment(&mut self) {
        self.resident.clear();
    }

    /// Cumulative page-ins.
    pub fn page_ins(&self) -> u64 {
        self.page_ins
    }

    /// Cumulative page-outs.
    pub fn page_outs(&self) -> u64 {
        self.page_outs
    }

    /// Pages currently resident.
    pub fn resident_pages(&self) -> usize {
        self.resident.len()
    }

    fn check(&self, addr: u32, size: u32) -> Result<(), MemFault> {
        if addr < 0x100 || addr.checked_add(size).is_none_or(|e| e > MEM_SIZE) {
            return Err(MemFault { addr });
        }
        Ok(())
    }

    /// Read `size` (1, 2, or 4) bytes, little-endian, charging paging.
    ///
    /// # Errors
    /// Faults on null-guard or out-of-range accesses.
    pub fn read(&mut self, addr: u32, size: u32) -> Result<u32, MemFault> {
        self.check(addr, size)?;
        let mut out: u32 = 0;
        for i in 0..size {
            let a = addr + i;
            let page = self.page_of(a);
            self.touch(page, false);
            let off = (a % PAGE_SIZE) as usize;
            let b = self.page_data(page)[off];
            out |= (b as u32) << (8 * i);
        }
        Ok(out)
    }

    /// Write `size` (1, 2, or 4) low bytes of `value`, charging paging.
    ///
    /// # Errors
    /// Faults on null-guard or out-of-range accesses.
    pub fn write(&mut self, addr: u32, value: u32, size: u32) -> Result<(), MemFault> {
        self.check(addr, size)?;
        for i in 0..size {
            let a = addr + i;
            let page = self.page_of(a);
            self.touch(page, true);
            let off = (a % PAGE_SIZE) as usize;
            self.page_data(page)[off] = (value >> (8 * i)) as u8;
        }
        Ok(())
    }

    /// Bulk read without affecting paging counters (host/precompile access
    /// is charged separately as precompile cycles).
    pub fn read_bytes_host(&mut self, addr: u32, len: u32) -> Result<Vec<u8>, MemFault> {
        self.check(addr, len.max(1))?;
        let mut out = Vec::with_capacity(len as usize);
        for i in 0..len {
            let a = addr + i;
            let page = self.page_of(a);
            let off = (a % PAGE_SIZE) as usize;
            out.push(self.page_data(page)[off]);
        }
        Ok(out)
    }

    /// Bulk write without affecting paging counters.
    pub fn write_bytes_host(&mut self, addr: u32, data: &[u8]) -> Result<(), MemFault> {
        self.check(addr, data.len() as u32)?;
        for (i, b) in data.iter().enumerate() {
            let a = addr + i as u32;
            let page = self.page_of(a);
            let off = (a % PAGE_SIZE) as usize;
            self.page_data(page)[off] = *b;
        }
        Ok(())
    }
}

/// Residency states for [`FastMemory`]'s per-page table.
const ABSENT: u8 = 0;
const CLEAN: u8 = 1;
const DIRTY: u8 = 2;

/// Direct-indexed guest memory with the same page-in/page-out accounting as
/// [`PagedMemory`], engineered for the block-dispatch engine's hot path:
/// loads and stores are a bounds check, at most two direct-indexed residency
/// touches, and a little-endian access within one lazily-allocated
/// [`PAGE_SIZE`]-byte page — no hashing, no per-byte touch loop, and
/// (crucially for the batched suite runner, which spins up one memory per
/// execution) no O(guest address space) zeroing at construction.
#[derive(Debug)]
pub struct FastMemory {
    /// Data pages, allocated zeroed on first write (reads of untouched
    /// pages return zero without allocating).
    pages: Box<[Option<Box<Page>>; NPAGES]>,
    resident: Box<[u8; NPAGES]>,
    page_ins: u64,
    page_outs: u64,
}

impl Default for FastMemory {
    fn default() -> FastMemory {
        FastMemory::new()
    }
}

impl FastMemory {
    /// Fresh zeroed memory covering the full guest address space.
    pub fn new() -> FastMemory {
        FastMemory {
            pages: Box::new([const { None }; NPAGES]),
            resident: Box::new([ABSENT; NPAGES]),
            page_ins: 0,
            page_outs: 0,
        }
    }

    #[inline]
    fn page_mut(&mut self, page: usize) -> &mut Page {
        self.pages[page].get_or_insert_with(|| Box::new([0; PAGE_SIZE as usize]))
    }

    #[inline]
    fn touch(&mut self, page: usize, write: bool) {
        let state = self.resident[page];
        if state == ABSENT {
            self.page_ins += 1;
            if write {
                self.page_outs += 1;
                self.resident[page] = DIRTY;
            } else {
                self.resident[page] = CLEAN;
            }
        } else if write && state == CLEAN {
            self.page_outs += 1;
            self.resident[page] = DIRTY;
        }
    }

    #[inline]
    fn check(&self, addr: u32, size: u32) -> Result<(), MemFault> {
        if addr < 0x100 || addr.checked_add(size).is_none_or(|e| e > MEM_SIZE) {
            return Err(MemFault { addr });
        }
        Ok(())
    }

    /// End the current segment: the resident set is dropped, so the next
    /// segment re-pages everything it touches.
    pub fn flush_segment(&mut self) {
        self.resident.fill(ABSENT);
    }

    /// Cumulative page-ins.
    #[inline]
    pub fn page_ins(&self) -> u64 {
        self.page_ins
    }

    /// Cumulative page-outs.
    #[inline]
    pub fn page_outs(&self) -> u64 {
        self.page_outs
    }

    /// Pages currently resident.
    pub fn resident_pages(&self) -> usize {
        self.resident.iter().filter(|&&s| s != ABSENT).count()
    }

    /// Read `size` (1, 2, or 4) bytes, little-endian, charging paging.
    ///
    /// # Errors
    /// Faults on null-guard or out-of-range accesses.
    #[inline]
    pub fn read(&mut self, addr: u32, size: u32) -> Result<u32, MemFault> {
        self.check(addr, size)?;
        let first = (addr >> PAGE_SHIFT) as usize;
        let last = ((addr + size - 1) >> PAGE_SHIFT) as usize;
        self.touch(first, false);
        if last == first {
            let off = (addr & PAGE_MASK) as usize;
            let Some(page) = &self.pages[first] else {
                return Ok(0); // untouched page reads as zero, no allocation
            };
            Ok(match size {
                4 => u32::from_le_bytes([page[off], page[off + 1], page[off + 2], page[off + 3]]),
                2 => u16::from_le_bytes([page[off], page[off + 1]]) as u32,
                _ => page[off] as u32,
            })
        } else {
            self.touch(last, false);
            let mut out: u32 = 0;
            for i in 0..size {
                let a = addr + i;
                let p = (a >> PAGE_SHIFT) as usize;
                let off = (a & PAGE_MASK) as usize;
                let b = self.pages[p].as_ref().map_or(0, |pg| pg[off]);
                out |= (b as u32) << (8 * i);
            }
            Ok(out)
        }
    }

    /// Write `size` (1, 2, or 4) low bytes of `value`, charging paging.
    ///
    /// # Errors
    /// Faults on null-guard or out-of-range accesses.
    #[inline]
    pub fn write(&mut self, addr: u32, value: u32, size: u32) -> Result<(), MemFault> {
        self.check(addr, size)?;
        let first = (addr >> PAGE_SHIFT) as usize;
        let last = ((addr + size - 1) >> PAGE_SHIFT) as usize;
        self.touch(first, true);
        if last == first {
            let off = (addr & PAGE_MASK) as usize;
            let page = self.page_mut(first);
            match size {
                4 => page[off..off + 4].copy_from_slice(&value.to_le_bytes()),
                2 => page[off..off + 2].copy_from_slice(&(value as u16).to_le_bytes()),
                _ => page[off] = value as u8,
            }
        } else {
            self.touch(last, true);
            for i in 0..size {
                let a = addr + i;
                let p = (a >> PAGE_SHIFT) as usize;
                let off = (a & PAGE_MASK) as usize;
                self.page_mut(p)[off] = (value >> (8 * i)) as u8;
            }
        }
        Ok(())
    }

    /// The engine's hit path for an `N`-byte load: the value, if the access
    /// is one the current segment has already paid for — `addr` clears the
    /// null guard, the access stays inside its page, and the page is
    /// resident. Such a load charges nothing and faults never, so it touches
    /// no counter. `None` means "take [`FastMemory::read`]": the page is
    /// absent or out of range, the access straddles two pages, or it faults.
    #[inline(always)]
    pub fn load_resident<const N: usize>(&self, addr: u32) -> Option<u32> {
        let page = (addr >> PAGE_SHIFT) as usize;
        let off = (addr & PAGE_MASK) as usize;
        if addr < 0x100 || off + N > PAGE_SIZE as usize || *self.resident.get(page)? == ABSENT {
            return None;
        }
        let mut raw = [0u8; 4];
        if let Some(pg) = &self.pages[page] {
            raw[..N].copy_from_slice(&pg[off..off + N]);
        }
        Some(u32::from_le_bytes(raw))
    }

    /// The engine's hit path for an `N`-byte store, under the conditions of
    /// [`FastMemory::load_resident`] with the page resident *and dirty* (its
    /// page-out is already charged). Returns whether the store was done;
    /// `false` means "take [`FastMemory::write`]".
    #[inline(always)]
    pub fn store_resident<const N: usize>(&mut self, addr: u32, value: u32) -> bool {
        let page = (addr >> PAGE_SHIFT) as usize;
        let off = (addr & PAGE_MASK) as usize;
        if addr < 0x100 || off + N > PAGE_SIZE as usize || self.resident.get(page) != Some(&DIRTY) {
            return false;
        }
        // A dirty page was written through `write`, which allocated it.
        let Some(pg) = &mut self.pages[page] else {
            return false;
        };
        pg[off..off + N].copy_from_slice(&value.to_le_bytes()[..N]);
        true
    }

    /// Bulk read without affecting paging counters (host/precompile access
    /// is charged separately as precompile cycles).
    ///
    /// # Errors
    /// Faults on null-guard or out-of-range accesses.
    pub fn read_bytes_host(&mut self, addr: u32, len: u32) -> Result<Vec<u8>, MemFault> {
        self.check(addr, len.max(1))?;
        let mut out = Vec::with_capacity(len as usize);
        let mut a = addr;
        let end = addr + len;
        while a < end {
            let p = (a >> PAGE_SHIFT) as usize;
            let off = (a & PAGE_MASK) as usize;
            let n = ((PAGE_SIZE as usize - off) as u32).min(end - a) as usize;
            match &self.pages[p] {
                Some(pg) => out.extend_from_slice(&pg[off..off + n]),
                None => out.resize(out.len() + n, 0),
            }
            a += n as u32;
        }
        Ok(out)
    }

    /// Bulk write without affecting paging counters.
    ///
    /// # Errors
    /// Faults on null-guard or out-of-range accesses.
    pub fn write_bytes_host(&mut self, addr: u32, data: &[u8]) -> Result<(), MemFault> {
        self.check(addr, data.len() as u32)?;
        let mut a = addr;
        let mut rest = data;
        while !rest.is_empty() {
            let p = (a >> PAGE_SHIFT) as usize;
            let off = (a & PAGE_MASK) as usize;
            let n = (PAGE_SIZE as usize - off).min(rest.len());
            self.page_mut(p)[off..off + n].copy_from_slice(&rest[..n]);
            a += n as u32;
            rest = &rest[n..];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut m = PagedMemory::new();
        m.write(0x20000, 0xdead_beef, 4).unwrap();
        assert_eq!(m.read(0x20000, 4).unwrap(), 0xdead_beef);
        assert_eq!(m.read(0x20001, 1).unwrap(), 0xbe);
    }

    #[test]
    fn paging_counts_first_touch_per_segment() {
        let mut m = PagedMemory::new();
        m.read(0x20000, 4).unwrap();
        assert_eq!(m.page_ins(), 1);
        assert_eq!(m.page_outs(), 0);
        m.read(0x20004, 4).unwrap(); // same page: no new page-in
        assert_eq!(m.page_ins(), 1);
        m.write(0x20008, 1, 4).unwrap(); // first write: page-out recorded
        assert_eq!(m.page_outs(), 1);
        m.write(0x2000c, 2, 4).unwrap();
        assert_eq!(m.page_outs(), 1);
        // New segment repeats the charges.
        m.flush_segment();
        m.read(0x20000, 4).unwrap();
        assert_eq!(m.page_ins(), 2);
    }

    #[test]
    fn cross_page_access_touches_both() {
        let mut m = PagedMemory::new();
        m.read(PAGE_SIZE * 33 - 2, 4).unwrap();
        assert_eq!(m.page_ins(), 2);
    }

    #[test]
    fn faults_on_null_and_oob() {
        let mut m = PagedMemory::new();
        assert!(m.read(0x10, 4).is_err());
        assert!(m.write(MEM_SIZE - 2, 0, 4).is_err());
        assert!(m.read(u32::MAX - 1, 4).is_err());
    }

    #[test]
    fn memory_is_zero_initialized() {
        let mut m = PagedMemory::new();
        assert_eq!(m.read(0x50000, 4).unwrap(), 0);
    }

    /// Replay the same access trace on both implementations and demand
    /// identical values, faults, and paging counters.
    #[test]
    fn fast_memory_matches_paged_memory_on_a_mixed_trace() {
        let mut slow = PagedMemory::new();
        let mut fast = FastMemory::new();
        // Deterministic pseudo-random trace: reads, writes, sub-word
        // accesses, cross-page accesses, OOB probes, and segment flushes.
        let mut x: u32 = 0x1234_5678;
        for step in 0..20_000u32 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let addr = x % (MEM_SIZE + 512); // occasionally out of range
            let size = [1, 2, 4][(x >> 8) as usize % 3];
            if step % 997 == 0 {
                slow.flush_segment();
                fast.flush_segment();
            }
            if x & 1 == 0 {
                let v = x.rotate_left(7);
                assert_eq!(slow.write(addr, v, size), fast.write(addr, v, size));
            } else {
                assert_eq!(slow.read(addr, size), fast.read(addr, size));
            }
            assert_eq!(slow.page_ins(), fast.page_ins(), "step {step}");
            assert_eq!(slow.page_outs(), fast.page_outs(), "step {step}");
        }
        assert_eq!(slow.resident_pages(), fast.resident_pages());
    }

    #[test]
    fn fast_memory_cross_page_and_host_access() {
        let mut m = FastMemory::new();
        m.read(PAGE_SIZE * 33 - 2, 4).unwrap();
        assert_eq!(m.page_ins(), 2);
        // Host access moves bytes but charges nothing.
        m.write_bytes_host(0x40000, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.read_bytes_host(0x40000, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(m.page_ins(), 2);
        assert_eq!(m.page_outs(), 0);
        assert!(m.read(0x10, 4).is_err());
        assert!(m.write(MEM_SIZE - 2, 0, 4).is_err());
    }
}
