//! The hasher for maps keyed by compiler-made ids.
//!
//! std's default hasher, SipHash-1-3, resists collision flooding, which keys
//! the compiler makes itself (value, block and register ids, expression
//! keys, linked programs) never need; it costs several times more per key.
//! Tables keyed by text from an untrusted program stay on std's hasher.
//!
//! The mixing step is rustc-hash 2.x's: add the word, multiply by an odd
//! constant. A product's low bits depend only on the input's low bits, and
//! the table picks a bucket by the low bits, so [`Hasher::finish`] rotates
//! the well-mixed high bits down (keys such as byte offsets end in zeros).
//!
//! Release builds hash with one fixed seed. Debug builds give each map its
//! own seed from a per-thread counter with a random start, as `RandomState`
//! does, so an output that came to depend on iteration order shows up as a
//! debug run that disagrees with itself, not as a fixed wrong answer.

use std::hash::{BuildHasher, Hasher};

const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A `HashMap` on [`FxBuildHasher`].
#[expect(clippy::disallowed_types, reason = "the fast hasher's own map")]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` on [`FxBuildHasher`].
#[expect(clippy::disallowed_types, reason = "the fast hasher's own set")]
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Builds [`FxHasher`]s; see the module docs for its seed.
#[derive(Debug, Clone, Copy)]
pub struct FxBuildHasher {
    seed: u64,
}

impl Default for FxBuildHasher {
    fn default() -> FxBuildHasher {
        FxBuildHasher { seed: next_seed() }
    }
}

#[cfg(debug_assertions)]
fn next_seed() -> u64 {
    use std::cell::Cell;
    thread_local! {
        static NEXT: Cell<u64> =
            Cell::new(std::hash::RandomState::new().build_hasher().finish());
    }
    NEXT.with(|n| {
        let seed = n.get();
        n.set(seed.wrapping_add(0x9e37_79b9_7f4a_7c15));
        seed
    })
}

#[cfg(not(debug_assertions))]
fn next_seed() -> u64 {
    0
}

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher { hash: self.seed }
    }
}

/// The multiply-add hasher behind [`FxHashMap`] and [`FxHashSet`].
#[derive(Debug, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.add(u64::from_le_bytes(w));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_with(seed: u64, x: impl std::hash::Hash) -> u64 {
        FxBuildHasher { seed }.hash_one(x)
    }

    #[test]
    fn low_bits_see_high_input_bits() {
        // Byte offsets 0, 8, 16, …: without the final rotation every hash
        // would end in three zero bits and share one bucket in eight.
        let low: FxHashSet<u64> = (0..1024u32).map(|i| hash_with(0, i * 8) & 7).collect();
        assert_eq!(low.len(), 8);
    }

    #[test]
    fn byte_strings_differ_in_every_position_and_length() {
        let words = [
            "",
            "a",
            "ab",
            "abcdefgh",
            "abcdefghi",
            "abcdefgi",
            "bbcdefghi",
        ];
        let hashes: FxHashSet<u64> = words.iter().map(|w| hash_with(0, w)).collect();
        assert_eq!(hashes.len(), words.len());
    }

    #[test]
    fn release_seed_is_fixed_and_debug_seeds_differ() {
        let (s1, s2) = (FxBuildHasher::default().seed, FxBuildHasher::default().seed);
        assert_eq!(s1 == s2, !cfg!(debug_assertions));
    }
}
