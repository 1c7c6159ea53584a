//! Shared little-endian wire helpers.
//!
//! The byte plumbing under the `DTH1`/`DTHR` socket protocol in
//! `difftest-core`:
//!
//! - [`Reader`] walks a byte slice with typed underflow errors
//!   ([`ShortRead`]) instead of panics — callers map [`ShortRead`] onto
//!   their own error enums,
//! - [`w_u8`]/[`w_u32`]/[`w_u64`]/[`w_str`] and the matching
//!   [`r_u8`]/[`r_u32`]/[`r_u64`]/[`r_str`] speak [`std::io`] streams
//!   (the socket protocol's blocking paths).
//!
//! Everything is little-endian, mirroring the RISC-V guest the images
//! describe.

use std::io::{self, Read, Write};

/// A read ran past the end of the slice: the blob is truncated (or a
/// length field lied). Callers translate this into their own typed
/// error (`ProtoError::Truncated`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShortRead;

impl std::fmt::Display for ShortRead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("wire read past end of buffer")
    }
}

impl std::error::Error for ShortRead {}

/// A bounds-checked cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ShortRead> {
        let end = self.pos.checked_add(n).ok_or(ShortRead)?;
        if end > self.bytes.len() {
            return Err(ShortRead);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, ShortRead> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, ShortRead> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ShortRead> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ShortRead> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes still unread.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Writes a `u8` to an [`io::Write`] stream.
pub fn w_u8<W: Write>(w: &mut W, v: u8) -> io::Result<()> {
    w.write_all(&[v])
}

/// Writes a little-endian `u32`.
pub fn w_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Writes a little-endian `u64`.
pub fn w_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Writes a `u32` length prefix followed by the UTF-8 bytes.
pub fn w_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    w_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())
}

/// Reads a `u8` from an [`io::Read`] stream.
pub fn r_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

/// Reads a little-endian `u32`.
pub fn r_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Reads a little-endian `u64`.
pub fn r_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Reads a length-prefixed UTF-8 string, rejecting prefixes beyond
/// `max_len` (a desynchronized or hostile stream) *before* allocating.
pub fn r_str<R: Read>(r: &mut R, max_len: usize) -> io::Result<String> {
    let len = r_u32(r)? as usize;
    if len > max_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "wire string length out of bounds",
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "wire string not utf-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_and_reader_round_trip() {
        let mut blob = vec![0xab];
        blob.extend_from_slice(&0x1234u16.to_le_bytes());
        blob.extend_from_slice(&0xdead_beefu32.to_le_bytes());
        blob.extend_from_slice(&0x0123_4567_89ab_cdefu64.to_le_bytes());
        let mut r = Reader::new(&blob);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert!(r.is_empty());
        assert_eq!(r.u8(), Err(ShortRead));
    }

    #[test]
    fn io_helpers_round_trip() {
        let mut blob = Vec::new();
        w_u8(&mut blob, 7).unwrap();
        w_u32(&mut blob, 42).unwrap();
        w_u64(&mut blob, u64::MAX).unwrap();
        w_str(&mut blob, "difftest").unwrap();
        let mut r = blob.as_slice();
        assert_eq!(r_u8(&mut r).unwrap(), 7);
        assert_eq!(r_u32(&mut r).unwrap(), 42);
        assert_eq!(r_u64(&mut r).unwrap(), u64::MAX);
        assert_eq!(r_str(&mut r, 64).unwrap(), "difftest");
    }

    #[test]
    fn hostile_string_prefix_is_rejected_before_allocation() {
        let mut blob = Vec::new();
        w_u32(&mut blob, u32::MAX).unwrap();
        let err = r_str(&mut blob.as_slice(), 1 << 20).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn reader_take_is_bounds_checked() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.take(2).unwrap(), &[1, 2]);
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.take(2), Err(ShortRead));
        // A failed take consumes nothing.
        assert_eq!(r.take(1).unwrap(), &[3]);
    }
}
