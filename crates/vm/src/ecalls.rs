//! Shared precompile dispatch used by the zkVM executors, the IR reference
//! interpreter and the x86 timing model, each through its own [`MemIo`],
//! guaranteeing identical guest-visible behaviour — the property the
//! differential tests rely on.

use zkvmopt_crypto::{keccak256, sha256, sig};
use zkvmopt_ir::ecall;
pub use zkvmopt_ir::MemIo;

/// Flat byte-slice adapter (used by the x86 timing model's memory).
pub struct FlatMem<'a>(pub &'a mut [u8]);

impl MemIo for FlatMem<'_> {
    fn read_bytes(&mut self, addr: u32, len: u32) -> Vec<u8> {
        let a = addr as usize;
        let e = a.saturating_add(len as usize);
        if e <= self.0.len() {
            self.0[a..e].to_vec()
        } else {
            vec![0; len as usize]
        }
    }

    fn write_bytes(&mut self, addr: u32, data: &[u8]) {
        let a = addr as usize;
        let e = a.saturating_add(data.len());
        if e <= self.0.len() {
            self.0[a..e].copy_from_slice(data);
        }
    }
}

/// One fixed-size read (zero-filled on fault, like [`MemIo::read_bytes`]).
fn read_array<const N: usize>(mem: &mut dyn MemIo, addr: u32) -> [u8; N] {
    let mut out = [0u8; N];
    for (o, b) in out.iter_mut().zip(mem.read_bytes(addr, N as u32)) {
        *o = b;
    }
    out
}

/// Execute a crypto precompile. `args` are the raw `a0..a2` registers.
/// Returns the value placed in `a0`.
pub fn run_precompile(code: u32, args: &[i64], mem: &mut dyn MemIo) -> i64 {
    let a = |i: usize| args.get(i).copied().unwrap_or(0) as u32;
    match code {
        ecall::SHA256 => {
            let data = mem.read_bytes(a(0), a(1));
            let digest = sha256(&data);
            mem.write_bytes(a(2), &digest);
            0
        }
        ecall::KECCAK256 => {
            let data = mem.read_bytes(a(0), a(1));
            let digest = keccak256(&data);
            mem.write_bytes(a(2), &digest);
            0
        }
        ecall::ECDSA_VERIFY | ecall::EDDSA_VERIFY => {
            let scheme = if code == ecall::ECDSA_VERIFY {
                sig::Scheme::Ecdsa
            } else {
                sig::Scheme::Eddsa
            };
            let msg: [u8; 32] = read_array(mem, a(0));
            let public = u64::from_le_bytes(read_array(mem, a(1)));
            let rs: [u8; 16] = read_array(mem, a(2));
            let r = u64::from_le_bytes(std::array::from_fn(|i| rs[i]));
            let s = u64::from_le_bytes(std::array::from_fn(|i| rs[8 + i]));
            sig::verify(scheme, public, &msg, &sig::Signature { r, s }) as i64
        }
        _ => 0,
    }
}

/// Precompile cycle charge for a call (fixed-cost circuits, per the paper's
/// precompile discussion in §4.2).
#[inline]
pub fn precompile_cycles(profile: &crate::profile::VmProfile, code: u32, args: &[i64]) -> u64 {
    let len = args.get(1).copied().unwrap_or(0).max(0) as u64;
    match code {
        ecall::SHA256 => (len / 64 + 2) * profile.sha256_block_cycles,
        ecall::KECCAK256 => (len / 136 + 1) * profile.keccak_block_cycles,
        ecall::ECDSA_VERIFY | ecall::EDDSA_VERIFY => profile.sig_verify_cycles,
        _ => 0,
    }
}

/// [`zkvmopt_ir::EcallHandler`] implementation backed by the real crypto —
/// plug this into the reference interpreter so it matches the zkVM executor
/// bit for bit.
#[derive(Debug, Default, Clone, Copy)]
pub struct CryptoEcalls;

impl zkvmopt_ir::EcallHandler for CryptoEcalls {
    fn handle(&mut self, code: u32, args: &[i64], mem: &mut dyn MemIo) -> i64 {
        run_precompile(code, args, mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_precompile_via_flat_memory() {
        let mut mem = vec![0u8; 4096];
        mem[100..103].copy_from_slice(b"abc");
        let r = run_precompile(ecall::SHA256, &[100, 3, 200], &mut FlatMem(&mut mem[..]));
        assert_eq!(r, 0);
        assert_eq!(mem[200], 0xba);
        assert_eq!(mem[201], 0x78);
    }

    #[test]
    fn signature_precompile_roundtrip() {
        let kp = sig::keypair_from_seed(9);
        let msg = zkvmopt_crypto::sha256(b"payload");
        let s = sig::sign(sig::Scheme::Ecdsa, &kp, &msg);
        let mut mem = vec![0u8; 4096];
        mem[0..32].copy_from_slice(&msg);
        mem[64..72].copy_from_slice(&kp.public.to_le_bytes());
        mem[96..104].copy_from_slice(&s.r.to_le_bytes());
        mem[104..112].copy_from_slice(&s.s.to_le_bytes());
        let ok = run_precompile(
            ecall::ECDSA_VERIFY,
            &[0, 64, 96],
            &mut FlatMem(&mut mem[..]),
        );
        assert_eq!(ok, 1);
        // Corrupt the message: verification fails.
        mem[0] ^= 1;
        let bad = run_precompile(
            ecall::ECDSA_VERIFY,
            &[0, 64, 96],
            &mut FlatMem(&mut mem[..]),
        );
        assert_eq!(bad, 0);
    }
}
