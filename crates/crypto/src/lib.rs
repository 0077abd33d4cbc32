//! # zkvmopt-crypto
//!
//! Host-side implementations of the zkVM precompiles used by the benchmark
//! suite: SHA-256, Keccak-256, a Merkle tree, and toy Schnorr-style signature
//! schemes standing in for the paper's `k256`/`ed25519_dalek` verifies.
//!
//! These back the `ecall` precompile surface of `zkvmopt-vm` — the paper's
//! point that precompiled crypto is charged a *fixed* cycle cost (and thus
//! sees smaller compiler-optimization gains, §4.2) is reproduced by routing
//! these through ecalls rather than guest instructions.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod keccak;
pub mod merkle;
pub mod sha256;
pub mod sig;

pub use keccak::keccak256;
pub use merkle::MerkleTree;
pub use sha256::{sha256, sha256_kernel, sha256_pair};
pub use sig::{sign, verify, KeyPair, Scheme, Signature};
