//! Splittable seeded randomness for the parallel tuner.
//!
//! The island-model service runs many independent random streams at once —
//! one per `{workload × island}` — on however many worker threads the host
//! has. Reproducibility ("same seed, same study") must therefore not depend
//! on *which thread* evolves which island, only on the island's identity.
//! [`SeedTree`] provides that: every stream is derived from the single root
//! seed plus the stream's stable coordinates (workload fingerprint, island
//! index), never from shared mutable RNG state that threads would race on.
//!
//! The derivation is one round of SplitMix64-style avalanche mixing over
//! `root ⊕ mix(a) ⊕ mix(b)`, which decorrelates adjacent coordinates (seed
//! 1/island 0 vs seed 0/island 1 and so on); the streams themselves are the
//! workspace's deterministic [`StdRng`].

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Finalizing mixer from SplitMix64: full avalanche, bijective on `u64`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A single root seed that every random stream in a tuning run splits from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedTree {
    root: u64,
}

impl SeedTree {
    /// A tree rooted at `root` (the run's one configured seed).
    pub fn new(root: u64) -> SeedTree {
        SeedTree { root }
    }

    /// The root seed.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// The derived seed for stream `(a, b)` — e.g. `(workload fingerprint,
    /// island index)`. Pure function of `(root, a, b)`: thread scheduling
    /// can never perturb it.
    pub fn seed(&self, a: u64, b: u64) -> u64 {
        mix(self.root ^ mix(a) ^ mix(b.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    /// A fresh deterministic generator for stream `(a, b)`.
    pub fn rng(&self, a: u64, b: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn streams_are_deterministic_and_decorrelated() {
        let t = SeedTree::new(42);
        assert_eq!(t.seed(7, 3), t.seed(7, 3));
        // Adjacent coordinates and the transposed pair all land elsewhere.
        let s = t.seed(7, 3);
        for other in [t.seed(7, 4), t.seed(8, 3), t.seed(3, 7), t.seed(0, 0)] {
            assert_ne!(s, other);
        }
        // Different roots shift every stream.
        assert_ne!(SeedTree::new(1).seed(7, 3), t.seed(7, 3));
    }

    #[test]
    fn split_streams_draw_independently() {
        let t = SeedTree::new(0xC0FFEE);
        let mut a = t.rng(1, 0);
        let mut b = t.rng(1, 0);
        let mut c = t.rng(1, 1);
        let draws_a: Vec<u64> = (0..32).map(|_| a.gen_range(0u64..1 << 40)).collect();
        let draws_b: Vec<u64> = (0..32).map(|_| b.gen_range(0u64..1 << 40)).collect();
        let draws_c: Vec<u64> = (0..32).map(|_| c.gen_range(0u64..1 << 40)).collect();
        assert_eq!(draws_a, draws_b, "same stream, same draws");
        assert_ne!(draws_a, draws_c, "sibling streams diverge");
    }
}
