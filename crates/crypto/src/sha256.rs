//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! **Lanes.** [`sha256`] hashes one message; [`sha256_pair`] hashes two
//! independent messages of equal length in lockstep (unequal lengths fall
//! back to two [`sha256`] calls). Both are one generic `digest` over a lane
//! count `N` — `sha256` is the one-lane case — and each lane keeps its own
//! state, so a pair's digests are exactly the two single ones.
//!
//! **One dispatch point.** Every block goes through `compress_blocks`,
//! which picks the kernel from what it observes about the host and nothing
//! else — no cargo feature, environment variable or config field:
//!
//! * on `x86_64` with the SHA extensions (`sha`, plus the `ssse3` /
//!   `sse4.1` shuffles the kernel uses) `compress_blocks_sha_ni`, one kernel
//!   generic over the lane count: four rounds per `sha256rnds2` pair, the
//!   message schedule in `sha256msg1` / `sha256msg2`, and each lane's state
//!   held in its own two registers across every block of the call — a 1 KiB
//!   Merkle leaf is one call. The lanes' round and schedule steps are
//!   interleaved, so their independent rounds overlap in the pipeline: two
//!   1049-byte leaves hash 1.2× faster as a pair than one after the other,
//!   and three or four lanes measured no faster than two;
//! * everywhere else `compress_blocks_portable`, the **only** portable
//!   kernel, run once per lane: a rolling 16-word schedule with the rounds
//!   unrolled eight at a time, so the working variables rotate by renaming
//!   instead of by eight moves a round. The textbook rolled loop it replaced
//!   is not kept beside it — a second portable path would be one nobody
//!   runs. It is compiled and tested on every host, whichever kernel that
//!   host dispatches to.
//!
//! Both compute the same function (the tests below hold each to the NIST
//! vectors by name, in one lane and in two, and to each other and to
//! themselves across lanes on every length and alignment), so no digest,
//! Merkle root or proof commitment can depend on which one ran or on how
//! many lanes it ran; [`sha256_kernel`] reports the choice for logs only.
//!
//! The hardware kernel is the workspace's only `unsafe`: one `unsafe fn`
//! (it must not run on a CPU without the instructions) and one call site,
//! behind the feature check. The crate denies `unsafe_code`, and each of the
//! two carries its own `#[expect(unsafe_code)]`.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A block-compression kernel over `N` lanes: folds every 64-byte block of
/// `blocks[l]` into `states[l]`, in order, for each lane `l`. Every lane has
/// the same number of blocks.
type Kernel<const N: usize> = fn(&mut [[u32; 8]; N], [&[[u8; 64]]; N]);

/// Whether this host runs the hardware kernel: `x86_64` with the SHA
/// extensions and the SSSE3 / SSE4.1 shuffles it is compiled with. (`std`
/// caches the CPUID probe, so this is a load and a mask.)
fn has_sha_ni() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Which compression kernel [`sha256`] and [`sha256_pair`] run on this
/// host: `"sha-ni"` or `"portable"`. Digests do not depend on it.
#[must_use]
pub fn sha256_kernel() -> &'static str {
    if has_sha_ni() {
        "sha-ni"
    } else {
        "portable"
    }
}

/// The one dispatch point: compress every 64-byte block of each lane of
/// `blocks` into that lane's state with the kernel this host supports.
fn compress_blocks<const N: usize>(states: &mut [[u32; 8]; N], blocks: [&[[u8; 64]]; N]) {
    debug_assert!(blocks.iter().all(|lane| lane.len() == blocks[0].len()));
    #[cfg(target_arch = "x86_64")]
    #[expect(unsafe_code, reason = "the SHA-NI kernel's one call site")]
    if has_sha_ni() {
        // SAFETY: `has_sha_ni` just observed `sha`, `ssse3` and `sse4.1` on
        // this CPU (`sse2` is baseline on x86_64), which is all the kernel
        // requires. It touches memory only through `states` and the 64-byte
        // blocks of each lane, by safe indexing.
        unsafe { compress_blocks_sha_ni(states, blocks) };
        return;
    }
    compress_blocks_portable(states, blocks);
}

/// The portable kernel, run once per lane: rolling 16-word message
/// schedule, eight rounds per loop trip so `a..h` rotate by renaming.
fn compress_blocks_portable<const N: usize>(states: &mut [[u32; 8]; N], blocks: [&[[u8; 64]]; N]) {
    /// One round with the working variables in the given rotation; `$w` is
    /// the round's schedule word.
    macro_rules! round {
        ($a:ident $b:ident $c:ident $d:ident $e:ident $f:ident $g:ident $h:ident, $k:expr, $w:expr) => {
            let t1 = $h
                .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                .wrapping_add($g ^ ($e & ($f ^ $g)))
                .wrapping_add($k)
                .wrapping_add($w);
            $d = $d.wrapping_add(t1);
            $h = t1
                .wrapping_add($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                .wrapping_add(($a & $b) | ($c & ($a | $b)));
        };
    }
    /// Eight rounds from round `$i` (a multiple of eight), each schedule
    /// word produced by `$word(round)`.
    macro_rules! rounds8 {
        ($a:ident $b:ident $c:ident $d:ident $e:ident $f:ident $g:ident $h:ident, $i:expr, $word:expr) => {
            round!($a $b $c $d $e $f $g $h, K[$i], $word($i));
            round!($h $a $b $c $d $e $f $g, K[$i + 1], $word($i + 1));
            round!($g $h $a $b $c $d $e $f, K[$i + 2], $word($i + 2));
            round!($f $g $h $a $b $c $d $e, K[$i + 3], $word($i + 3));
            round!($e $f $g $h $a $b $c $d, K[$i + 4], $word($i + 4));
            round!($d $e $f $g $h $a $b $c, K[$i + 5], $word($i + 5));
            round!($c $d $e $f $g $h $a $b, K[$i + 6], $word($i + 6));
            round!($b $c $d $e $f $g $h $a, K[$i + 7], $word($i + 7));
        };
    }
    for (state, lane) in states.iter_mut().zip(blocks) {
        for block in lane {
            let mut w = [0u32; 16];
            for (slot, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
                *slot = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
            for i in [0, 8] {
                rounds8!(a b c d e f g h, i, |t: usize| w[t]);
            }
            for i in [16, 24, 32, 40, 48, 56] {
                // w[t] for t >= 16 overwrites w[t - 16], the one word of the
                // window no later round reads.
                let mut next = |t: usize| {
                    let (w15, w2) = (w[(t + 1) & 15], w[(t + 14) & 15]);
                    let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                    let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                    w[t & 15] = w[t & 15]
                        .wrapping_add(s0)
                        .wrapping_add(w[(t + 9) & 15])
                        .wrapping_add(s1);
                    w[t & 15]
                };
                rounds8!(a b c d e f g h, i, next);
            }
            for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                *s = s.wrapping_add(v);
            }
        }
    }
}

/// The hardware kernel: the x86 SHA extensions, four rounds per
/// `sha256rnds2` pair, each lane's state in two registers (`ABEF` / `CDGH`)
/// across all blocks of the call. The `N` lanes are independent messages
/// whose steps are interleaved, so their rounds overlap in the pipeline.
///
/// # Safety
/// The CPU must support `sha`, `ssse3` and `sse4.1` (what `has_sha_ni`
/// checks); executing these instructions without them is undefined.
/// Nothing else is required of the caller: blocks are read by safe
/// indexing, and a lane longer than the shortest is compressed only as far
/// as the shortest.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
#[expect(unsafe_code, reason = "undefined on a CPU without the SHA extensions")]
unsafe fn compress_blocks_sha_ni<const N: usize>(
    states: &mut [[u32; 8]; N],
    blocks: [&[[u8; 64]]; N],
) {
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_extract_epi32, _mm_set_epi32,
        _mm_set_epi64x, _mm_setzero_si128, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32,
        _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8,
    };

    // [a, b, c, d] / [e, f, g, h] -> the ABEF / CDGH word order the round
    // instruction wants.
    let mut abef = [_mm_setzero_si128(); N];
    let mut cdgh = [_mm_setzero_si128(); N];
    for l in 0..N {
        let s = states[l].map(|word| word as i32);
        let cdab = _mm_shuffle_epi32::<0xb1>(_mm_set_epi32(s[3], s[2], s[1], s[0]));
        let hgfe = _mm_shuffle_epi32::<0x1b>(_mm_set_epi32(s[7], s[6], s[5], s[4]));
        abef[l] = _mm_alignr_epi8::<8>(cdab, hgfe);
        cdgh[l] = _mm_blend_epi16::<0xf0>(hgfe, cdab);
    }

    /// Four big-endian schedule words per lane from bytes `$at..$at + 16`
    /// of each lane's block `$b`.
    macro_rules! load {
        ($b:ident, $at:expr) => {{
            let mut words = [_mm_setzero_si128(); N];
            for (w, lane) in words.iter_mut().zip(blocks) {
                let mut bytes = [0u8; 16];
                bytes.copy_from_slice(&lane[$b][$at..$at + 16]);
                let bits = u128::from_le_bytes(bytes);
                *w = _mm_shuffle_epi8(
                    _mm_set_epi64x((bits >> 64) as i64, bits as i64),
                    _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203),
                );
            }
            words
        }};
    }
    /// Rounds `4 * $g .. 4 * $g + 4` of every lane on its schedule words
    /// `$w`, one `sha256rnds2` step across all lanes at a time.
    macro_rules! rounds4 {
        ($g:expr, $w:expr) => {{
            let k = _mm_set_epi32(
                K[4 * $g + 3] as i32,
                K[4 * $g + 2] as i32,
                K[4 * $g + 1] as i32,
                K[4 * $g] as i32,
            );
            let mut wk = [k; N];
            for l in 0..N {
                wk[l] = _mm_add_epi32($w[l], k);
            }
            for l in 0..N {
                cdgh[l] = _mm_sha256rnds2_epu32(cdgh[l], abef[l], wk[l]);
            }
            for l in 0..N {
                abef[l] = _mm_sha256rnds2_epu32(abef[l], cdgh[l], _mm_shuffle_epi32::<0x0e>(wk[l]));
            }
        }};
    }
    /// `$next = sha256msg1($next, $cur)` in every lane: the first half of
    /// the schedule words `schedule!` later finishes in `$next`.
    macro_rules! msg1 {
        ($next:ident, $cur:ident) => {
            for l in 0..N {
                $next[l] = _mm_sha256msg1_epu32($next[l], $cur[l]);
            }
        };
    }
    /// Finish the four schedule words after `$cur` in every lane: `$next`
    /// already holds the `sha256msg1` half.
    macro_rules! schedule {
        ($next:ident, $cur:ident, $prev:ident) => {
            for l in 0..N {
                $next[l] = _mm_sha256msg2_epu32(
                    _mm_add_epi32($next[l], _mm_alignr_epi8::<4>($cur[l], $prev[l])),
                    $cur[l],
                );
            }
        };
    }

    let nblocks = blocks.iter().map(|lane| lane.len()).min().unwrap_or(0);
    for b in 0..nblocks {
        let (abef_in, cdgh_in) = (abef, cdgh);

        let mut m0 = load!(b, 0);
        rounds4!(0, m0);
        let mut m1 = load!(b, 16);
        rounds4!(1, m1);
        msg1!(m0, m1);
        let mut m2 = load!(b, 32);
        rounds4!(2, m2);
        msg1!(m1, m2);
        let mut m3 = load!(b, 48);
        rounds4!(3, m3);
        schedule!(m0, m3, m2);
        msg1!(m2, m3);

        // Rounds 16..48: the same four-group rotation, twice.
        macro_rules! four_groups {
            ($g:expr) => {
                rounds4!($g, m0);
                schedule!(m1, m0, m3);
                msg1!(m3, m0);
                rounds4!($g + 1, m1);
                schedule!(m2, m1, m0);
                msg1!(m0, m1);
                rounds4!($g + 2, m2);
                schedule!(m3, m2, m1);
                msg1!(m1, m2);
                rounds4!($g + 3, m3);
                schedule!(m0, m3, m2);
                msg1!(m2, m3);
            };
        }
        four_groups!(4);
        four_groups!(8);

        rounds4!(12, m0);
        schedule!(m1, m0, m3);
        msg1!(m3, m0);
        rounds4!(13, m1);
        schedule!(m2, m1, m0);
        rounds4!(14, m2);
        schedule!(m3, m2, m1);
        rounds4!(15, m3);

        for l in 0..N {
            abef[l] = _mm_add_epi32(abef[l], abef_in[l]);
            cdgh[l] = _mm_add_epi32(cdgh[l], cdgh_in[l]);
        }
    }

    for l in 0..N {
        let feba = _mm_shuffle_epi32::<0x1b>(abef[l]);
        let dchg = _mm_shuffle_epi32::<0xb1>(cdgh[l]);
        let dcba = _mm_blend_epi16::<0xf0>(feba, dchg);
        let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
        states[l] = [
            _mm_extract_epi32::<0>(dcba) as u32,
            _mm_extract_epi32::<1>(dcba) as u32,
            _mm_extract_epi32::<2>(dcba) as u32,
            _mm_extract_epi32::<3>(dcba) as u32,
            _mm_extract_epi32::<0>(hgfe) as u32,
            _mm_extract_epi32::<1>(hgfe) as u32,
            _mm_extract_epi32::<2>(hgfe) as u32,
            _mm_extract_epi32::<3>(hgfe) as u32,
        ];
    }
}

/// SHA-256 of `N` equal-length messages through `compress`, one lane each:
/// whole blocks straight from the messages in one call, then the padded
/// tails (one block each, or two when fewer than nine bytes are free in the
/// last one) from stack buffers in a second.
fn digest<const N: usize>(compress: Kernel<N>, data: [&[u8]; N]) -> [[u8; 32]; N] {
    let len = data.first().map_or(0, |msg| msg.len());
    debug_assert!(data.iter().all(|msg| msg.len() == len));
    let mut states = [H0; N];
    let mut body = [&[][..]; N];
    let mut tails = [[[0u8; 64]; 2]; N];
    let tail_blocks = if len % 64 < 56 { 1 } else { 2 };
    for ((body, tail), msg) in body.iter_mut().zip(&mut tails).zip(data) {
        let (blocks, rem) = msg.as_chunks::<64>();
        *body = blocks;
        let tail = tail.as_flattened_mut();
        tail[..rem.len()].copy_from_slice(rem);
        tail[rem.len()] = 0x80;
        tail[64 * tail_blocks - 8..64 * tail_blocks]
            .copy_from_slice(&(len as u64 * 8).to_be_bytes());
    }
    compress(&mut states, body);
    let mut tail = [&[][..]; N];
    for (tail, buf) in tail.iter_mut().zip(&tails) {
        *tail = &buf[..tail_blocks];
    }
    compress(&mut states, tail);
    let mut out = [[0u8; 32]; N];
    for (out, state) in out.iter_mut().zip(states) {
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
    }
    out
}

/// Hash `data`, returning the 32-byte digest.
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let [out] = digest(compress_blocks, [data]);
    out
}

/// Hash two messages at once: `[sha256(a), sha256(b)]`. Messages of equal
/// length go through the kernel as two interleaved lanes; unequal ones fall
/// back to two [`sha256`] calls.
#[must_use]
pub fn sha256_pair(a: &[u8], b: &[u8]) -> [[u8; 32]; 2] {
    if a.len() == b.len() {
        digest(compress_blocks, [a, b])
    } else {
        [sha256(a), sha256(b)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The hardware kernel by name, when this host can run it: there the
    /// dispatcher *is* `compress_blocks_sha_ni` (its only `unsafe` call
    /// site, so the tests need none of their own). Elsewhere the hardware
    /// cases say they were skipped instead of passing silently.
    fn sha_ni<const N: usize>(test: &str) -> Option<Kernel<N>> {
        if sha256_kernel() == "sha-ni" {
            Some(compress_blocks)
        } else {
            eprintln!("{test}: SKIPPED hardware kernel (host runs \"portable\")");
            None
        }
    }

    /// Both kernels by name; the hardware one only where it can run.
    fn kernels<const N: usize>(test: &str) -> Vec<(&'static str, Kernel<N>)> {
        let portable: Kernel<N> = compress_blocks_portable;
        let mut all = vec![("portable", portable)];
        all.extend(sha_ni(test).map(|k| ("sha-ni", k)));
        all
    }

    /// One message through a one-lane kernel.
    fn digest1(kernel: Kernel<1>, data: &[u8]) -> [u8; 32] {
        let [out] = digest(kernel, [data]);
        out
    }

    fn xorshift_bytes(len: usize, mut state: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            out.extend_from_slice(&state.to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn nist_vectors() {
        let vectors: [(&[u8], &str); 3] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        let (one, two) = (kernels::<1>("nist_vectors"), kernels::<2>("nist_vectors"));
        for (msg, want) in vectors {
            assert_eq!(hex(&sha256(msg)), want, "dispatcher");
            for (name, kernel) in &one {
                assert_eq!(hex(&digest1(*kernel, msg)), want, "{name}");
            }
            let pair = sha256_pair(msg, msg).map(|h| hex(&h));
            assert_eq!(pair, [want, want], "dispatcher, two lanes");
            for (name, kernel) in &two {
                let pair = digest(*kernel, [msg, msg]).map(|h| hex(&h));
                assert_eq!(pair, [want, want], "{name}, two lanes");
            }
        }
    }

    #[test]
    fn pair_lanes_equal_two_single_hashes() {
        let (one, two) = (
            kernels::<1>("pair_lanes_equal_two_single_hashes"),
            kernels::<2>("pair_lanes_equal_two_single_hashes"),
        );
        let data = xorshift_bytes(300 + 128, 0x0123_4567_89ab_cdef);
        // Each lane starts at its own offset, so the two lanes' loads see
        // different alignments; `b` is taken 64 bytes on, so the lanes never
        // carry the same bytes.
        for (at_a, at_b) in [(0, 0), (0, 1), (3, 17), (31, 63), (63, 8)] {
            for len in 0..=300 {
                let (a, b) = (&data[at_a..at_a + len], &data[64 + at_b..64 + at_b + len]);
                let want = [sha256(a), sha256(b)];
                let ctx = format!("length {len}, offsets {at_a} / {at_b}");
                assert_eq!(sha256_pair(a, b), want, "dispatcher, {ctx}");
                for ((name, one), (_, two)) in one.iter().zip(&two) {
                    let singles = [digest1(*one, a), digest1(*one, b)];
                    assert_eq!(singles, want, "{name} one lane, {ctx}");
                    assert_eq!(digest(*two, [a, b]), want, "{name} two lanes, {ctx}");
                }
            }
        }
        // Unequal lengths fall back to one lane each.
        for (len_a, len_b) in [(0, 1), (55, 56), (64, 63), (119, 120), (300, 0)] {
            let (a, b) = (&data[..len_a], &data[7..7 + len_b]);
            assert_eq!(
                sha256_pair(a, b),
                [sha256(a), sha256(b)],
                "lengths {len_a} / {len_b}"
            );
        }
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        let want = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        assert_eq!(hex(&sha256(&data)), want, "dispatcher");
        for (name, kernel) in kernels("million_a") {
            assert_eq!(hex(&digest1(kernel, &data)), want, "{name}");
        }
    }

    #[test]
    fn padding_boundaries_have_fixed_digests() {
        // 0xab repeated: the last length whose padding fits one block (55),
        // the first that spills (56), a full block either side (63 / 64),
        // and the same edge one block later (119 / 120).
        let fixed = [
            (
                55,
                "48d76eab30e51201f4f03ec7a85dab8510fb3409ccd15b54767f9b4435c9f54d",
            ),
            (
                56,
                "a8c9906ade2a2eff868fd8f97a570bbc01a13cddc32c3dfdc9a18f0618d69e55",
            ),
            (
                63,
                "d1036ba30d050c74b1a5ab301fa29ff0c607a27cc55af3412577f7e06dbd190b",
            ),
            (
                64,
                "ec65c8798ecf95902413c40f7b9e6d4b0068885f5f324aba1f9ba1c8e14aea61",
            ),
            (
                119,
                "a773085d98f8978583efd89d0f06e29076a12e2e059103ec533f63e1c6f17dd7",
            ),
            (
                120,
                "3442eea54f994b0d41c1da867e8347d69fa1a40e2d8a437dcde54dae74504922",
            ),
        ];
        let kernels = kernels("padding_boundaries_have_fixed_digests");
        for (len, want) in fixed {
            let data = vec![0xabu8; len];
            for (name, kernel) in &kernels {
                assert_eq!(hex(&digest1(*kernel, &data)), want, "{name} at {len}");
            }
        }
    }

    #[test]
    fn kernels_agree_on_every_short_length() {
        let Some(hw) = sha_ni("kernels_agree_on_every_short_length") else {
            return;
        };
        let data = xorshift_bytes(257, 0x1234_5678_9abc_def1);
        for len in 0..=257 {
            assert_eq!(
                digest1(hw, &data[..len]),
                digest1(compress_blocks_portable, &data[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn kernels_agree_on_unaligned_buffers() {
        let Some(hw) = sha_ni("kernels_agree_on_unaligned_buffers") else {
            return;
        };
        // Every start offset mod 64, so the hardware loads see every
        // alignment; lengths from a few blocks to 64 KiB.
        let data = xorshift_bytes((64 << 10) + 64, 0x9e37_79b9_7f4a_7c15);
        for offset in 0..64 {
            for len in [64, 1049, 4096 + offset, 64 << 10] {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    digest1(hw, slice),
                    digest1(compress_blocks_portable, slice),
                    "offset {offset}, length {len}"
                );
            }
        }
    }
}
