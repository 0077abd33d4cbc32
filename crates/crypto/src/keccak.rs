//! Keccak-f\[1600\] and Keccak-256 (the Ethereum variant: 0x01 padding),
//! implemented from scratch.

const RC: [u64; 24] = [
    0x0000000000000001,
    0x0000000000008082,
    0x800000000000808a,
    0x8000000080008000,
    0x000000000000808b,
    0x0000000080000001,
    0x8000000080008081,
    0x8000000000008009,
    0x000000000000008a,
    0x0000000000000088,
    0x0000000080008009,
    0x000000008000000a,
    0x000000008000808b,
    0x800000000000008b,
    0x8000000000008089,
    0x8000000000008003,
    0x8000000000008002,
    0x8000000000000080,
    0x000000000000800a,
    0x800000008000000a,
    0x8000000080008081,
    0x8000000000008080,
    0x0000000080000001,
    0x8000000080008008,
];

const RHO: [u32; 24] = [
    1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14, 27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44,
];

const PI: [usize; 24] = [
    10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4, 15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1,
];

/// The Keccak-f\[1600\] permutation over the 25-lane state.
pub fn keccak_f(state: &mut [u64; 25]) {
    for rc in RC {
        // Theta.
        let mut c = [0u64; 5];
        for x in 0..5 {
            c[x] = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                state[x + 5 * y] ^= d;
            }
        }
        // Rho and pi.
        let mut last = state[1];
        for i in 0..24 {
            let j = PI[i];
            let tmp = state[j];
            state[j] = last.rotate_left(RHO[i]);
            last = tmp;
        }
        // Chi.
        for y in 0..5 {
            let row = [
                state[5 * y],
                state[5 * y + 1],
                state[5 * y + 2],
                state[5 * y + 3],
                state[5 * y + 4],
            ];
            for x in 0..5 {
                state[5 * y + x] = row[x] ^ (!row[(x + 1) % 5] & row[(x + 2) % 5]);
            }
        }
        // Iota.
        state[0] ^= rc;
    }
}

/// Keccak-256 (rate 1088 bits / 136 bytes, `0x01` domain padding — the
/// Ethereum `keccak256`, distinct from NIST SHA3-256's `0x06`).
pub fn keccak256(data: &[u8]) -> [u8; 32] {
    const RATE: usize = 136;
    let mut state = [0u64; 25];
    let mut offset = 0;
    // Absorb full blocks.
    while data.len() - offset >= RATE {
        absorb(&mut state, &data[offset..offset + RATE]);
        keccak_f(&mut state);
        offset += RATE;
    }
    // Final block with padding.
    let mut block = [0u8; RATE];
    let rem = &data[offset..];
    block[..rem.len()].copy_from_slice(rem);
    block[rem.len()] ^= 0x01;
    block[RATE - 1] ^= 0x80;
    absorb(&mut state, &block);
    keccak_f(&mut state);
    // Squeeze 32 bytes.
    let mut out = [0u8; 32];
    for i in 0..4 {
        out[8 * i..8 * i + 8].copy_from_slice(&state[i].to_le_bytes());
    }
    out
}

fn absorb(state: &mut [u64; 25], block: &[u8]) {
    for (i, lane) in block.chunks_exact(8).enumerate() {
        state[i] ^= u64::from_le_bytes(lane.try_into().expect("8-byte lane"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn known_vectors() {
        // Ethereum's canonical empty-string keccak256.
        assert_eq!(
            hex(&keccak256(b"")),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
        );
        assert_eq!(
            hex(&keccak256(b"abc")),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
        );
        // The Solidity classic.
        assert_eq!(
            hex(&keccak256(b"hello")),
            "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8"
        );
    }

    #[test]
    fn rate_boundaries() {
        let mut seen = std::collections::BTreeSet::new();
        for len in [0usize, 1, 135, 136, 137, 271, 272, 273] {
            let data = vec![0x5au8; len];
            assert!(seen.insert(keccak256(&data)), "collision at {len}");
        }
    }

    #[test]
    fn permutation_changes_state() {
        let mut s = [0u64; 25];
        keccak_f(&mut s);
        assert_ne!(s, [0u64; 25]);
        // First lane after permuting the zero state is the iota chain value.
        let mut s2 = [0u64; 25];
        keccak_f(&mut s2);
        assert_eq!(s, s2, "permutation must be deterministic");
    }
}
