//! Trait over the field types that may appear in an event payload.

// Views read peer bytes: every read of them is checked.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::fmt;

use crate::wire::{CodecError, Reader, Writer};

/// A fixed-width field of an event payload.
///
/// Implemented for the scalar integers and fixed arrays used by the event
/// catalog; the catalog macro sums `LEN` to derive each event's encoded
/// length at compile time, and `view_at` backs the generated borrowed
/// event views (`EventRef` and friends) that read fields straight out of
/// validated wire bytes without materializing the payload struct.
pub trait WireField: Sized {
    /// Encoded length in bytes.
    const LEN: usize;
    /// The all-zeroes value (used by `Default` impls of payload structs).
    const ZERO: Self;
    /// The borrowed form of this field as read from wire bytes: scalars
    /// by value, arrays as lazy views over the little-endian bytes.
    type View<'v>: Copy + fmt::Debug;
    /// Appends this field to the writer.
    fn write(&self, w: &mut Writer<'_>);
    /// Reads this field from the reader.
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError>;
    /// Reads the field's view from `bytes[off..off + Self::LEN]`.
    ///
    /// The caller guarantees the slice is long enough — the generated
    /// event views only exist over exact-length payloads.
    fn view_at(bytes: &[u8], off: usize) -> Self::View<'_>;
    /// Whether a view equals an owned field value (pins the view reads
    /// to the materializing decoder in property tests).
    fn view_matches(view: Self::View<'_>, owned: &Self) -> bool;
}

/// The `N` bytes at `bytes[off..]` as an array. Views only exist over
/// exact-length payloads, so the read always lands and compiles to a
/// plain load; a read past the end would give zeroes, not a panic.
#[inline]
fn array_at<const N: usize>(bytes: &[u8], off: usize) -> [u8; N] {
    bytes
        .get(off..)
        .and_then(<[u8]>::first_chunk)
        .map_or([0; N], |a| *a)
}

/// A borrowed `[u64; N]` field, decoded lazily from little-endian wire
/// bytes on each access instead of being copied out up front.
#[derive(Clone, Copy)]
pub struct U64ArrayView<'a, const N: usize> {
    /// Exactly `N` little-endian words.
    words: &'a [[u8; 8]],
}

impl<'a, const N: usize> U64ArrayView<'a, N> {
    /// Element `i`, decoded from its eight little-endian bytes; 0 when
    /// `i >= N`, as a read past a register file's end reads nothing.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        self.words.get(i).map_or(0, |w| u64::from_le_bytes(*w))
    }

    /// Number of elements (`N`).
    #[inline]
    pub fn len(&self) -> usize {
        N
    }

    /// `true` when `N == 0` (never, for catalog fields).
    #[inline]
    pub fn is_empty(&self) -> bool {
        N == 0
    }

    /// Iterates the decoded elements in order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + 'a {
        self.words.iter().map(|w| u64::from_le_bytes(*w))
    }

    /// Materializes the owned array.
    pub fn to_array(self) -> [u64; N] {
        let mut out = [0u64; N];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.get(i);
        }
        out
    }
}

impl<const N: usize> PartialEq<[u64; N]> for U64ArrayView<'_, N> {
    fn eq(&self, other: &[u64; N]) -> bool {
        self.iter().eq(other.iter().copied())
    }
}

impl<const N: usize> fmt::Debug for U64ArrayView<'_, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl WireField for u8 {
    const LEN: usize = 1;
    const ZERO: Self = 0;
    type View<'v> = u8;
    #[inline]
    fn write(&self, w: &mut Writer<'_>) {
        w.u8(*self);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u8()
    }
    #[inline]
    fn view_at(bytes: &[u8], off: usize) -> u8 {
        bytes.get(off).copied().unwrap_or(0)
    }
    fn view_matches(view: u8, owned: &Self) -> bool {
        view == *owned
    }
}

impl WireField for u16 {
    const LEN: usize = 2;
    const ZERO: Self = 0;
    type View<'v> = u16;
    #[inline]
    fn write(&self, w: &mut Writer<'_>) {
        w.u16(*self);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u16()
    }
    #[inline]
    fn view_at(bytes: &[u8], off: usize) -> u16 {
        u16::from_le_bytes(array_at(bytes, off))
    }
    fn view_matches(view: u16, owned: &Self) -> bool {
        view == *owned
    }
}

impl WireField for u32 {
    const LEN: usize = 4;
    const ZERO: Self = 0;
    type View<'v> = u32;
    #[inline]
    fn write(&self, w: &mut Writer<'_>) {
        w.u32(*self);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u32()
    }
    #[inline]
    fn view_at(bytes: &[u8], off: usize) -> u32 {
        u32::from_le_bytes(array_at(bytes, off))
    }
    fn view_matches(view: u32, owned: &Self) -> bool {
        view == *owned
    }
}

impl WireField for u64 {
    const LEN: usize = 8;
    const ZERO: Self = 0;
    type View<'v> = u64;
    #[inline]
    fn write(&self, w: &mut Writer<'_>) {
        w.u64(*self);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u64()
    }
    #[inline]
    fn view_at(bytes: &[u8], off: usize) -> u64 {
        u64::from_le_bytes(array_at(bytes, off))
    }
    fn view_matches(view: u64, owned: &Self) -> bool {
        view == *owned
    }
}

impl<const N: usize> WireField for [u64; N] {
    const LEN: usize = 8 * N;
    const ZERO: Self = [0; N];
    type View<'v> = U64ArrayView<'v, N>;
    #[inline]
    fn write(&self, w: &mut Writer<'_>) {
        w.u64_array(self);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u64_array::<N>()
    }
    #[inline]
    fn view_at(bytes: &[u8], off: usize) -> U64ArrayView<'_, N> {
        let field = bytes.get(off..).unwrap_or_default();
        let (words, _) = field.as_chunks();
        U64ArrayView {
            words: words.get(..N).unwrap_or(words),
        }
    }
    fn view_matches(view: U64ArrayView<'_, N>, owned: &Self) -> bool {
        view == *owned
    }
}

impl<const N: usize> WireField for [u8; N] {
    const LEN: usize = N;
    const ZERO: Self = [0; N];
    type View<'v> = &'v [u8; N];
    #[inline]
    fn write(&self, w: &mut Writer<'_>) {
        w.bytes(self);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.bytes::<N>()
    }
    #[inline]
    fn view_at(bytes: &[u8], off: usize) -> &[u8; N] {
        // Views only exist over exact-length payloads, so the field's N
        // bytes are there; a read past the end would view zeroes.
        bytes
            .get(off..)
            .and_then(<[u8]>::first_chunk)
            .unwrap_or(&[0; N])
    }
    fn view_matches(view: &[u8; N], owned: &Self) -> bool {
        view == owned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lens() {
        assert_eq!(<u8 as WireField>::LEN, 1);
        assert_eq!(<u64 as WireField>::LEN, 8);
        assert_eq!(<[u64; 32] as WireField>::LEN, 256);
        assert_eq!(<[u8; 64] as WireField>::LEN, 64);
    }

    #[test]
    fn array_round_trip() {
        let mut buf = Vec::new();
        let a: [u64; 4] = [1, 2, 3, u64::MAX];
        a.write(&mut Writer::new(&mut buf));
        let got = <[u64; 4] as WireField>::read(&mut Reader::new(&buf)).unwrap();
        assert_eq!(got, a);
    }

    #[test]
    fn views_read_what_write_wrote() {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.u8(7);
        w.u16(0x1234);
        w.u32(0xdead_beef);
        w.u64(0x0102_0304_0506_0708);
        w.u64_array(&[1, u64::MAX]);
        w.bytes(&[9, 8, 7]);
        assert_eq!(<u8 as WireField>::view_at(&buf, 0), 7);
        assert_eq!(<u16 as WireField>::view_at(&buf, 1), 0x1234);
        assert_eq!(<u32 as WireField>::view_at(&buf, 3), 0xdead_beef);
        assert_eq!(<u64 as WireField>::view_at(&buf, 7), 0x0102_0304_0506_0708);
        let arr = <[u64; 2] as WireField>::view_at(&buf, 15);
        assert_eq!(arr.get(0), 1);
        assert_eq!(arr.get(1), u64::MAX);
        assert_eq!(arr.len(), 2);
        assert!(arr == [1, u64::MAX]);
        assert_eq!(arr.to_array(), [1, u64::MAX]);
        assert_eq!(arr.iter().collect::<Vec<_>>(), vec![1, u64::MAX]);
        assert_eq!(<[u8; 3] as WireField>::view_at(&buf, 31), &[9, 8, 7]);
    }
}
