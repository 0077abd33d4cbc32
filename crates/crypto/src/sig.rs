//! Toy Schnorr-style signatures over the multiplicative group of
//! Z_p (p = 2^61 − 1), standing in for the paper's secp256k1-ECDSA and
//! Ed25519 verifies.
//!
//! **Substitution note:** the study needs precompiled signature
//! verification with (a) deterministic test vectors and (b) a fixed proving
//! cost. The group choice is irrelevant to the compiler measurements, so we
//! use a 61-bit discrete-log group rather than vendoring big-integer curve
//! arithmetic. The verification *dataflow* (hash, exponentiations, group
//! equation) matches Schnorr/EdDSA.

use crate::sha256::sha256;

/// The Mersenne prime 2^61 − 1.
pub const P: u64 = (1 << 61) - 1;
/// Group generator.
pub const G: u64 = 3;

/// Distinguishes the two precompile flavours (domain separation only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Stand-in for secp256k1 ECDSA.
    Ecdsa,
    /// Stand-in for Ed25519.
    Eddsa,
}

impl Scheme {
    fn tag(self) -> u8 {
        match self {
            Scheme::Ecdsa => 0xEC,
            Scheme::Eddsa => 0xED,
        }
    }
}

/// A signing/verification key pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPair {
    /// Secret exponent.
    pub secret: u64,
    /// `G^secret mod P`.
    pub public: u64,
}

/// A signature `(r, s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// Commitment `G^k mod P`.
    pub r: u64,
    /// Response `k + e·d mod (P−1)`.
    pub s: u64,
}

fn mulmod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// `base^exp mod m` by square-and-multiply.
pub fn powmod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    base %= m;
    let mut acc = 1u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mulmod(acc, base, m);
        }
        base = mulmod(base, base, m);
        exp >>= 1;
    }
    acc
}

fn hash_to_scalar(parts: &[&[u8]]) -> u64 {
    let mut buf = Vec::new();
    for p in parts {
        buf.extend_from_slice(p);
    }
    let h = sha256(&buf);
    u64::from_le_bytes(h[..8].try_into().expect("8 bytes")) % (P - 1)
}

/// Derive a key pair from a seed (deterministic, for test vectors).
pub fn keypair_from_seed(seed: u64) -> KeyPair {
    let secret = hash_to_scalar(&[b"key", &seed.to_le_bytes()]).max(2);
    KeyPair {
        secret,
        public: powmod(G, secret, P),
    }
}

/// Sign a 32-byte message hash.
pub fn sign(scheme: Scheme, kp: &KeyPair, msg: &[u8; 32]) -> Signature {
    let k = hash_to_scalar(&[&[scheme.tag()], &kp.secret.to_le_bytes(), msg]).max(2);
    let r = powmod(G, k, P);
    let e = hash_to_scalar(&[&[scheme.tag()], &r.to_le_bytes(), msg]);
    let s = (k as u128 + mulmod(e, kp.secret, P - 1) as u128) % (P - 1) as u128;
    Signature { r, s: s as u64 }
}

/// Verify a signature over a 32-byte message hash: `G^s == r · pub^e`.
pub fn verify(scheme: Scheme, public: u64, msg: &[u8; 32], sig: &Signature) -> bool {
    if sig.r == 0 || sig.r >= P || sig.s >= P - 1 {
        return false;
    }
    let e = hash_to_scalar(&[&[scheme.tag()], &sig.r.to_le_bytes(), msg]);
    let lhs = powmod(G, sig.s, P);
    let rhs = mulmod(sig.r, powmod(public, e, P), P);
    lhs == rhs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip_both_schemes() {
        for scheme in [Scheme::Ecdsa, Scheme::Eddsa] {
            let kp = keypair_from_seed(42);
            let msg = sha256(b"the quick brown fox");
            let sig = sign(scheme, &kp, &msg);
            assert!(verify(scheme, kp.public, &msg, &sig), "{scheme:?}");
        }
    }

    #[test]
    fn wrong_message_or_key_fails() {
        let kp = keypair_from_seed(1);
        let other = keypair_from_seed(2);
        let msg = sha256(b"msg");
        let sig = sign(Scheme::Ecdsa, &kp, &msg);
        assert!(!verify(Scheme::Ecdsa, kp.public, &sha256(b"other"), &sig));
        assert!(!verify(Scheme::Ecdsa, other.public, &msg, &sig));
        // Cross-scheme signatures don't verify (domain separation).
        assert!(!verify(Scheme::Eddsa, kp.public, &msg, &sig));
    }

    #[test]
    fn malformed_signatures_rejected() {
        let kp = keypair_from_seed(7);
        let msg = sha256(b"m");
        assert!(!verify(
            Scheme::Ecdsa,
            kp.public,
            &msg,
            &Signature { r: 0, s: 1 }
        ));
        assert!(!verify(
            Scheme::Ecdsa,
            kp.public,
            &msg,
            &Signature { r: P, s: 1 }
        ));
        assert!(!verify(
            Scheme::Ecdsa,
            kp.public,
            &msg,
            &Signature { r: 5, s: P }
        ));
    }

    #[test]
    fn powmod_matches_naive() {
        for (b, e) in [(3u64, 10u64), (5, 0), (7, 1), (1234567, 13)] {
            let mut naive = 1u64;
            for _ in 0..e {
                naive = ((naive as u128 * b as u128) % P as u128) as u64;
            }
            assert_eq!(powmod(b, e, P), naive);
        }
    }
}
