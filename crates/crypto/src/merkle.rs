//! A SHA-256 binary Merkle tree with inclusion proofs.
//!
//! The pairing rule — parent `i` is `sha256(left || right)` of nodes `2i`
//! and `2i + 1`, an odd last node paired with itself — lives once, in
//! `fold_level`, which hashes two parents per [`sha256_pair`] call.
//! [`root_of_leaf_hashes`] folds a slice of leaf hashes down to its root in
//! place, for callers that only want the commitment (the segment prover
//! hashes a whole run's leaves into one buffer and folds each segment's
//! slice of it, never holding a leaf); [`MerkleTree::new`] hashes the
//! leaves two at a time, folds through the same function and keeps a copy
//! of every level for [`MerkleTree::proof`]. The root is a function of the
//! leaf bytes alone, whichever SHA-256 kernel the host dispatches to and
//! however many lanes it hashes at once (see [`mod@crate::sha256`]).

use crate::sha256::{sha256, sha256_pair};

/// A fully-built Merkle tree over leaf byte strings.
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// Levels bottom-up: `levels[0]` are leaf hashes, last level is the root.
    levels: Vec<Vec<[u8; 32]>>,
}

/// The 64-byte message a parent hashes: its two children, left first.
fn children(a: &[u8; 32], b: &[u8; 32]) -> [u8; 64] {
    let mut buf = [0u8; 64];
    buf[..32].copy_from_slice(a);
    buf[32..].copy_from_slice(b);
    buf
}

fn hash_pair(a: &[u8; 32], b: &[u8; 32]) -> [u8; 32] {
    sha256(&children(a, b))
}

/// Replace the front of `level` with its parents, in place, and return how
/// many there are. Parents `i` and `i + 1` are hashed together and read
/// nodes `2i .. 2i + 4`, which no earlier parent has overwritten.
fn fold_level(level: &mut [[u8; 32]]) -> usize {
    let parents = level.len().div_ceil(2);
    let last = level.len() - 1;
    let node = |level: &[[u8; 32]], i: usize| level[i.min(last)];
    let mut i = 0;
    while i + 1 < parents {
        let left = children(&level[2 * i], &level[2 * i + 1]);
        let right = children(&level[2 * i + 2], &node(level, 2 * i + 3));
        [level[i], level[i + 1]] = sha256_pair(&left, &right);
        i += 2;
    }
    if i < parents {
        level[i] = hash_pair(&level[2 * i], &node(level, 2 * i + 1));
    }
    parents
}

/// The Merkle root over `level`, a tree's leaf *hashes*, folded in place:
/// `root_of_leaf_hashes(leaves.map(sha256)) == MerkleTree::new(leaves).root()`
/// without keeping the leaves or the inner levels. `level` is left holding
/// scratch nodes.
///
/// # Panics
/// Panics if `level` is empty.
#[must_use]
pub fn root_of_leaf_hashes(level: &mut [[u8; 32]]) -> [u8; 32] {
    assert!(!level.is_empty(), "merkle tree needs at least one leaf");
    let mut len = level.len();
    while len > 1 {
        len = fold_level(&mut level[..len]);
    }
    level[0]
}

impl MerkleTree {
    /// Build a tree over the given leaves (odd nodes are paired with
    /// themselves).
    ///
    /// # Panics
    /// Panics if `leaves` is empty.
    pub fn new(leaves: &[Vec<u8>]) -> MerkleTree {
        assert!(!leaves.is_empty(), "merkle tree needs at least one leaf");
        let mut level = Vec::with_capacity(leaves.len());
        for pair in leaves.chunks(2) {
            match pair {
                [a, b] => level.extend(sha256_pair(a, b)),
                [a] => level.push(sha256(a)),
                _ => {}
            }
        }
        let mut levels = Vec::new();
        while level.len() > 1 {
            levels.push(level.clone());
            let parents = fold_level(&mut level);
            level.truncate(parents);
        }
        levels.push(level);
        MerkleTree { levels }
    }

    /// The root hash.
    pub fn root(&self) -> [u8; 32] {
        self.levels.last().expect("non-empty")[0]
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// Sibling path for leaf `index`, bottom-up.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn proof(&self, index: usize) -> Vec<[u8; 32]> {
        assert!(index < self.leaf_count(), "leaf index out of range");
        let mut path = Vec::new();
        let mut i = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sib = if i.is_multiple_of(2) {
                (i + 1).min(level.len() - 1)
            } else {
                i - 1
            };
            path.push(level[sib]);
            i /= 2;
        }
        path
    }

    /// Verify an inclusion proof produced by [`MerkleTree::proof`].
    pub fn verify(root: &[u8; 32], leaf: &[u8], index: usize, proof: &[[u8; 32]]) -> bool {
        let mut h = sha256(leaf);
        let mut i = index;
        for sib in proof {
            h = if i.is_multiple_of(2) {
                hash_pair(&h, sib)
            } else {
                hash_pair(sib, &h)
            };
            i /= 2;
        }
        h == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proofs_verify_for_every_leaf() {
        let leaves: Vec<Vec<u8>> = (0..13u8).map(|i| vec![i; 5]).collect();
        let t = MerkleTree::new(&leaves);
        for (i, leaf) in leaves.iter().enumerate() {
            let p = t.proof(i);
            assert!(MerkleTree::verify(&t.root(), leaf, i, &p), "leaf {i}");
        }
    }

    #[test]
    fn tampered_leaf_fails() {
        let leaves: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i]).collect();
        let t = MerkleTree::new(&leaves);
        let p = t.proof(3);
        assert!(!MerkleTree::verify(&t.root(), b"evil", 3, &p));
        assert!(!MerkleTree::verify(&t.root(), &leaves[3], 2, &p));
    }

    #[test]
    fn root_of_leaf_hashes_is_the_tree_root_for_1_to_65_leaves() {
        // Every shape up to one past a power of two: odd nodes at the
        // bottom, in the middle, and at several levels at once.
        for n in 1..=65usize {
            let leaves: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 1 + i % 7]).collect();
            let t = MerkleTree::new(&leaves);
            let mut hashes: Vec<[u8; 32]> = leaves.iter().map(|l| sha256(l)).collect();
            assert_eq!(root_of_leaf_hashes(&mut hashes), t.root(), "{n} leaves");
            for (i, leaf) in leaves.iter().enumerate() {
                let p = t.proof(i);
                assert!(
                    MerkleTree::verify(&t.root(), leaf, i, &p),
                    "{n} leaves, leaf {i}"
                );
            }
        }
    }

    #[test]
    fn single_leaf_tree() {
        let t = MerkleTree::new(&[b"only".to_vec()]);
        assert_eq!(t.leaf_count(), 1);
        assert!(MerkleTree::verify(&t.root(), b"only", 0, &t.proof(0)));
    }
}
