//! CRC-32 (IEEE 802.3, reflected) by carry-less multiplication.
//!
//! Intel, "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//! Instruction" (2009): four 128-bit lanes each fold 16 input bytes per
//! step by multiplying their running remainder by a power of `x` mod P,
//! so four independent `PCLMULQDQ` chains advance 64 bytes per
//! iteration. The lanes then fold into one, the 128-bit remainder
//! shrinks to 64 bits, and a Barrett reduction yields the 32-bit CRC.
//! The bytes after the last whole 16-byte block go through the
//! slice-by-8 tables.
//!
//! This is the crate's only `unsafe` code: the kernel may run only on a
//! CPU with `PCLMULQDQ` and SSE4.1, which [`crc32`] checks at run time
//! before entering it.

use std::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
    _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
};

/// Shortest input the kernel takes: the 64 bytes that seed its four
/// lanes. At that length it already takes a quarter of the table loop's
/// time (7 against 25 ns on a 2-vCPU Xeon VM), so no longer cut-over
/// pays.
pub(super) const MIN_LEN: usize = 64;

// Fold constants for the bit-reflected P(x) = 0x1_04C1_1DB7, each a
// power of x mod P, reflected and shifted left by one: x^(4·128+32) and
// x^(4·128-32) fold a lane across four lanes, x^(128+32) and x^(128-32)
// across one, x^64 takes 128 bits to 64; then P itself and the Barrett
// constant µ = ⌊x^64 / P⌋.
const K1: i64 = 0x1_5444_2bd4;
const K2: i64 = 0x1_c6e4_1596;
const K3: i64 = 0x1_7519_97d0;
const K4: i64 = 0x0_ccaa_009e;
const K5: i64 = 0x1_63cd_6124;
const P_X: i64 = 0x1_DB71_0641;
const MU: i64 = 0x1_F701_1641;

/// The running CRC state (before the final inversion, as the table loop
/// keeps it) after `bytes`, or `None` when `bytes` is shorter than
/// [`MIN_LEN`] or the CPU lacks `PCLMULQDQ` or SSE4.1.
pub(super) fn crc32(state: u32, bytes: &[u8]) -> Option<u32> {
    if bytes.len() < MIN_LEN
        || !is_x86_feature_detected!("pclmulqdq")
        || !is_x86_feature_detected!("sse4.1")
    {
        return None;
    }
    // SAFETY: both target features `fold` enables were detected on this
    // CPU just above.
    Some(unsafe { fold(state, bytes) })
}

/// Folds `bytes` into the CRC state `state`.
///
/// # Safety
///
/// The CPU must support `pclmulqdq` and `sse4.1`.
#[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
unsafe fn fold(state: u32, bytes: &[u8]) -> u32 {
    let (blocks, tail) = bytes.as_chunks::<16>();
    let [b3, b2, b1, b0, blocks @ ..] = blocks else {
        return super::crc32_slice8(state, bytes);
    };
    let mut x3 = _mm_xor_si128(load(b3), _mm_cvtsi32_si128(state as i32));
    let mut x2 = load(b2);
    let mut x1 = load(b1);
    let mut x0 = load(b0);

    // Four lanes, 64 bytes per step.
    let k1k2 = _mm_set_epi64x(K2, K1);
    let (quads, singles) = blocks.as_chunks::<4>();
    for [b3, b2, b1, b0] in quads {
        x3 = fold_16(x3, load(b3), k1k2);
        x2 = fold_16(x2, load(b2), k1k2);
        x1 = fold_16(x1, load(b1), k1k2);
        x0 = fold_16(x0, load(b0), k1k2);
    }

    // Four lanes into one, then the remaining whole blocks.
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut x = fold_16(x3, x2, k3k4);
    x = fold_16(x, x1, k3k4);
    x = fold_16(x, x0, k3k4);
    for b in singles {
        x = fold_16(x, load(b), k3k4);
    }

    // 128 → 64 bits: the low 64 bits fold by K4 onto the high 64, then
    // the low 32 bits of that fold by K5 onto the rest.
    let low32 = _mm_set_epi32(0, 0, 0, -1);
    x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(x, k3k4),
        _mm_srli_si128::<8>(x),
    );
    x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
        _mm_srli_si128::<4>(x),
    );

    // Barrett reduction, bit-reflected: T1 = (R mod x^32)·µ,
    // T2 = (T1 mod x^32)·P, CRC = (R ⊕ T2) / x^32.
    let pu = _mm_set_epi64x(MU, P_X);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
    let c = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;

    super::crc32_slice8(c, tail)
}

/// One lane step: `acc` times the power of x whose two halves `keys`
/// holds, folded onto `data`.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn fold_16(acc: __m128i, data: __m128i, keys: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
    let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
    _mm_xor_si128(_mm_xor_si128(data, lo), hi)
}

/// Loads 16 bytes, unaligned.
#[inline]
fn load(block: &[u8; 16]) -> __m128i {
    // SAFETY: `block` is 16 readable bytes and `_mm_loadu_si128` has no
    // alignment requirement. Its only target feature, SSE2, is part of
    // the x86_64 baseline, so no run-time check is needed.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}
