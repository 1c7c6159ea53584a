//! Little-endian fixed-layout binary codec primitives.
//!
//! Every verification event encodes to a fixed number of bytes determined by
//! its type — the *structural semantics* the Batch mechanism exploits. The
//! [`Writer`] and [`Reader`] here are deliberately minimal: no framing, no
//! lengths, no tags. All framing lives in the packing layers above.

// Writers run on every captured record and readers on peer bytes:
// every index is checked.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::fmt;

/// Error returned when decoding runs out of bytes or sees an invalid value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the fixed layout was fully read.
    UnexpectedEnd {
        /// Bytes still required.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// An event-kind discriminant was out of range.
    BadKind(u8),
    /// Trailing bytes remained after a payload decode that must be exact.
    TrailingBytes(usize),
    /// A transport sequence number was older than the receive window (a
    /// duplicated or replayed packet).
    StaleSequence {
        /// Next sequence number the receiver expects.
        expected: u32,
        /// The stale number that arrived.
        got: u32,
    },
    /// The reorder buffer overflowed: a sequence gap never filled (packet
    /// loss on the link).
    ReorderOverflow {
        /// Sequence number the receiver is still waiting for.
        missing: u32,
    },
    /// The frame's CRC32 trailer did not match its contents: the transfer
    /// was corrupted (or truncated) in flight.
    CrcMismatch {
        /// CRC computed over the received contents.
        expected: u32,
        /// CRC carried in the trailer.
        got: u32,
    },
    /// A structurally invalid field (e.g. an overlong varint).
    Malformed(&'static str),
    /// A transfer named a core the session does not have.
    BadCore {
        /// The core id the transfer carried.
        core: u8,
        /// Cores the session has.
        cores: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEnd { needed, available } => write!(
                f,
                "unexpected end of buffer: needed {needed} bytes, {available} available"
            ),
            CodecError::BadKind(k) => write!(f, "invalid event kind discriminant {k}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            CodecError::StaleSequence { expected, got } => {
                write!(f, "stale packet sequence {got} (expected {expected})")
            }
            CodecError::ReorderOverflow { missing } => {
                write!(f, "reorder buffer overflow: packet {missing} never arrived")
            }
            CodecError::CrcMismatch { expected, got } => {
                write!(
                    f,
                    "frame CRC mismatch: computed {expected:#010x}, trailer {got:#010x}"
                )
            }
            CodecError::Malformed(what) => write!(f, "malformed field: {what}"),
            CodecError::BadCore { core, cores } => {
                write!(f, "core {core} out of range for a {cores}-core session")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends fixed-layout little-endian fields to a byte vector.
#[derive(Debug)]
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// Wraps `buf` for appending.
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        Writer { buf }
    }

    /// Writes a `u8`.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16` little-endian.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32` little-endian.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` little-endian.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a fixed array of `u64` values: one reservation, then a
    /// word-wise fill the compiler turns into a bulk copy (state dumps
    /// are 24–64 words each and dominate the encoded volume).
    #[inline]
    pub fn u64_array(&mut self, vs: &[u64]) {
        let start = self.buf.len();
        self.buf.resize(start + 8 * vs.len(), 0);
        let tail = self.buf.get_mut(start..).unwrap_or_default();
        for (dst, v) in tail.as_chunks_mut::<8>().0.iter_mut().zip(vs) {
            *dst = v.to_le_bytes();
        }
    }

    /// Writes a fixed array of raw bytes.
    #[inline]
    pub fn bytes(&mut self, vs: &[u8]) {
        self.buf.extend_from_slice(vs);
    }
}

/// Reads fixed-layout little-endian fields from a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    /// The bytes not yet consumed.
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps `buf` for reading from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { rest: buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    fn unexpected_end(&self, needed: usize) -> CodecError {
        CodecError::UnexpectedEnd {
            needed,
            available: self.rest.len(),
        }
    }

    /// Consumes the next `n` bytes; a failed take consumes nothing.
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let Some((head, tail)) = self.rest.split_at_checked(n) else {
            return Err(self.unexpected_end(n));
        };
        self.rest = tail;
        Ok(head)
    }

    /// [`take`](Self::take) with the length in the type, so the scalar
    /// readers convert to their byte arrays without a fallible step.
    #[inline]
    fn take_array<const N: usize>(&mut self) -> Result<&'a [u8; N], CodecError> {
        let Some((head, tail)) = self.rest.split_first_chunk::<N>() else {
            return Err(self.unexpected_end(N));
        };
        self.rest = tail;
        Ok(head)
    }

    /// Reads a `u8`.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        let [b] = *self.take_array()?;
        Ok(b)
    }

    /// Reads a `u16` little-endian.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(*self.take_array()?))
    }

    /// Reads a `u32` little-endian.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(*self.take_array()?))
    }

    /// Reads a `u64` little-endian.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(*self.take_array()?))
    }

    /// Reads `N` `u64` values.
    #[inline]
    pub fn u64_array<const N: usize>(&mut self) -> Result<[u64; N], CodecError> {
        let mut out = [0u64; N];
        for slot in &mut out {
            *slot = self.u64()?;
        }
        Ok(out)
    }

    /// Reads `N` raw bytes.
    #[inline]
    pub fn bytes<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(*self.take_array()?)
    }

    /// Reads `n` raw bytes with a run-time length.
    #[inline]
    pub fn bytes_dyn(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Fails unless the reader consumed the buffer exactly.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes(self.remaining()))
        }
    }
}

/// Bytes a CRC32 frame trailer adds to a transfer.
pub const CRC_TRAILER_BYTES: usize = 4;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul;

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) slice-by-8
/// lookup tables, built at compile time: `TABLES[j][b]` is the CRC
/// contribution of byte `b` positioned `j` bytes before the end of an
/// 8-byte group. `TABLES[0]` is the classic byte-at-a-time table (used
/// for the tail).
// Const evaluation fails the build on an out-of-bounds index here, so
// no index in the builder can panic at run time.
#[allow(clippy::indexing_slicing)]
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            t[j][i] = t[0][(t[j - 1][i] & 0xFF) as usize] ^ (t[j - 1][i] >> 8);
            i += 1;
        }
        j += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3) of `bytes`.
///
/// Packet payloads dominate the link's byte volume, and this checksum
/// runs over every one of them on both sides, so it sits squarely on the
/// pack/unpack critical path. On an x86_64 CPU with `PCLMULQDQ` and
/// SSE4.1, an input of at least 64 bytes is folded 64 bytes per step by
/// carry-less multiplication. Shorter inputs, the 0–15 bytes after a
/// long one's last 16-byte block, and every input on other CPUs go
/// through a slice-by-8 table loop. Both compute the same checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(c) = clmul::crc32(!0, bytes) {
        return !c;
    }
    !crc32_slice8(!0, bytes)
}

/// Advances the running CRC state `c` (before the final inversion) over
/// `bytes`, 8 bytes per iteration through 8 independent table lookups,
/// so the serial dependency chain advances once per 8 bytes instead of
/// once per byte.
fn crc32_slice8(mut c: u32, bytes: &[u8]) -> u32 {
    let (groups, tail) = bytes.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in groups {
        let lo = u32::from_le_bytes([b0, b1, b2, b3]) ^ c;
        let hi = u32::from_le_bytes([b4, b5, b6, b7]);
        let [l0, l1, l2, l3] = lo.to_le_bytes();
        let [h0, h1, h2, h3] = hi.to_le_bytes();
        c = crc_table(7, l0)
            ^ crc_table(6, l1)
            ^ crc_table(5, l2)
            ^ crc_table(4, l3)
            ^ crc_table(3, h0)
            ^ crc_table(2, h1)
            ^ crc_table(1, h2)
            ^ crc_table(0, h3);
    }
    for &b in tail {
        c = crc_table(0, c as u8 ^ b) ^ (c >> 8);
    }
    c
}

/// `CRC32_TABLES[j][b]`. A byte always lies within a table, so the
/// lookup compiles to a plain load; a `j` past the last table reads 0.
#[inline(always)]
fn crc_table(j: usize, b: u8) -> u32 {
    CRC32_TABLES
        .get(j)
        .and_then(|t| t.get(usize::from(b)))
        .copied()
        .unwrap_or(0)
}

/// Appends a little-endian CRC32 trailer covering everything currently in
/// `buf`. The matching check is [`verify_crc_frame`].
pub fn append_crc_frame(buf: &mut Vec<u8>) {
    let crc = crc32(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Verifies and strips the CRC32 trailer of a frame, returning the covered
/// contents.
///
/// # Errors
///
/// Returns [`CodecError::UnexpectedEnd`] when the frame is shorter than
/// the trailer itself and [`CodecError::CrcMismatch`] when the trailer
/// does not match the contents (corruption or truncation in flight).
pub fn verify_crc_frame(frame: &[u8]) -> Result<&[u8], CodecError> {
    let Some(body_len) = frame.len().checked_sub(CRC_TRAILER_BYTES) else {
        return Err(CodecError::UnexpectedEnd {
            needed: CRC_TRAILER_BYTES,
            available: frame.len(),
        });
    };
    let (body, trailer) = frame.split_at(body_len);
    let mut raw = [0u8; CRC_TRAILER_BYTES];
    raw.copy_from_slice(trailer);
    let got = u32::from_le_bytes(raw);
    let expected = crc32(body);
    if expected != got {
        return Err(CodecError::CrcMismatch { expected, got });
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, RngExt, SeedableRng};

    #[test]
    fn round_trip_scalars() {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.u8(0xab);
        w.u16(0x1234);
        w.u32(0xdead_beef);
        w.u64(0x0102_0304_0506_0708);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 0x0102_0304_0506_0708);
        r.finish().unwrap();
    }

    #[test]
    fn short_buffer_errors() {
        let buf = [0u8; 3];
        let mut r = Reader::new(&buf);
        assert!(matches!(r.u64(), Err(CodecError::UnexpectedEnd { .. })));
    }

    #[test]
    fn reader_take_is_bounds_checked() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.bytes_dyn(2).unwrap(), &[1, 2]);
        assert_eq!(r.remaining(), 1);
        assert!(matches!(
            r.u16(),
            Err(CodecError::UnexpectedEnd {
                needed: 2,
                available: 1
            })
        ));
        // A failed take consumes nothing.
        assert_eq!(r.u8().unwrap(), 3);
        r.finish().unwrap();
    }

    #[test]
    fn trailing_bytes_detected() {
        let buf = [0u8; 4];
        let mut r = Reader::new(&buf);
        r.u16().unwrap();
        assert_eq!(r.finish(), Err(CodecError::TrailingBytes(2)));
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc_frame_round_trip_and_rejection() {
        let mut frame = vec![1, 2, 3, 4, 5];
        append_crc_frame(&mut frame);
        assert_eq!(frame.len(), 5 + CRC_TRAILER_BYTES);
        assert_eq!(verify_crc_frame(&frame).unwrap(), &[1, 2, 3, 4, 5]);

        // Any single bit flip — contents or trailer — is detected.
        for bit in 0..frame.len() * 8 {
            let mut bad = frame.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(verify_crc_frame(&bad), Err(CodecError::CrcMismatch { .. })),
                "flip of bit {bit} went undetected"
            );
        }

        // Truncation below the trailer is an UnexpectedEnd, above it a
        // CRC mismatch.
        assert!(matches!(
            verify_crc_frame(&frame[..2]),
            Err(CodecError::UnexpectedEnd { .. })
        ));
        assert!(matches!(
            verify_crc_frame(&frame[..frame.len() - 1]),
            Err(CodecError::CrcMismatch { .. })
        ));
    }

    fn random_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; n];
        StdRng::seed_from_u64(seed).fill_bytes(&mut bytes);
        bytes
    }

    #[test]
    fn crc32_matches_slice8_reference_at_every_length_and_offset() {
        // Every length around the kernel's cut-over and its 64- and
        // 16-byte steps, then long frames, each at all 16 alignments.
        // The reference state advances from one length to the next, as
        // the table loop's state composes over concatenation, so the
        // reference side reads each byte once per offset.
        let buf = random_bytes(1, 9000 + 16);
        let lens = (0..=1100).chain((1100..=9000).step_by(61));
        for off in 0..16 {
            let (mut state, mut done) = (!0, 0);
            for len in lens.clone() {
                let bytes = &buf[off..off + len];
                state = crc32_slice8(state, &bytes[done..]);
                done = len;
                assert_eq!(crc32(bytes), !state, "length {len}, offset {off}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_kernel_runs_from_min_len_on_capable_cpus() {
        let buf = random_bytes(2, clmul::MIN_LEN);
        let capable = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        let long = clmul::crc32(!0, &buf);
        assert_eq!(long.is_some(), capable);
        assert!(long.is_none_or(|c| c == crc32_slice8(!0, &buf)));
        assert_eq!(clmul::crc32(!0, &buf[1..]), None);
    }

    #[test]
    fn crc_frame_rejects_every_bit_flip_and_short_burst_on_4k_frame() {
        let mut frame = random_bytes(3, 4096 - CRC_TRAILER_BYTES);
        append_crc_frame(&mut frame);
        let bits = frame.len() * 8;
        let flip = |frame: &mut [u8], bit: usize| frame[bit / 8] ^= 1 << (bit % 8);
        let rejected =
            |frame: &[u8]| matches!(verify_crc_frame(frame), Err(CodecError::CrcMismatch { .. }));
        for bit in 0..bits {
            flip(&mut frame, bit);
            assert!(rejected(&frame), "flip of bit {bit} went undetected");
            flip(&mut frame, bit);
        }
        // A burst of length n flips its first and last bit and any of the
        // n - 2 between; CRC-32 detects every burst up to 32 bits long.
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..4096 {
            let n = rng.random_range(2..=32usize);
            let start = rng.random_range(0..=bits - n);
            let inner = rng.next_u64();
            let burst: Vec<usize> = (0..n)
                .filter(|&i| i == 0 || i == n - 1 || inner >> i & 1 != 0)
                .map(|i| start + i)
                .collect();
            burst.iter().for_each(|&bit| flip(&mut frame, bit));
            assert!(
                rejected(&frame),
                "{n}-bit burst at bit {start} went undetected"
            );
            burst.iter().for_each(|&bit| flip(&mut frame, bit));
        }
        assert!(verify_crc_frame(&frame).is_ok());
    }

    #[test]
    fn arrays_round_trip() {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.u64_array(&[1, 2, 3]);
        w.bytes(&[9, 8]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u64_array::<3>().unwrap(), [1, 2, 3]);
        assert_eq!(r.bytes::<2>().unwrap(), [9, 8]);
    }
}
