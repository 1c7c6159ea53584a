//! Wire items: what actually crosses the hardware/software link.
//!
//! The acceleration unit turns monitored events into *wire items*:
//!
//! - [`WireItem::Plain`]: an unmodified event (baseline and Batch-only
//!   configurations),
//! - [`WireItem::Tagged`]: an event transmitted *ahead* of its checking
//!   position, carrying an [`OrderTag`] and replay [`Token`] (Squash's
//!   order-decoupled NDEs and order-sensitive checks, paper §4.3),
//! - [`WireItem::Fused`]: an N-commit fusion record (paper §4.3),
//! - [`WireItem::Diff`]: a differenced event — a change bitmap plus the
//!   changed 64-bit words relative to the previous same-kind event of the
//!   same core (paper §4.3 "Differencing").
//!
//! Every item has a self-describing binary encoding so the Batch parser can
//! compute offsets while walking a packet (structural semantics).
//!
//! Tagged and Diff bodies open with a two-varint header: the order tag
//! and the replay token, each as the zigzag-LEB128 delta against the
//! same core's last *shipped* Tagged or Diff item. Encoder and decoder
//! keep that reference pair in their [`DiffCache`] mirrors, which both
//! advance strictly in packet-sequence order, so the header costs a few
//! bytes instead of two raw `u64`s. A vacuous diff ships nothing and
//! leaves the reference where it was.

use difftest_event::wire::{CodecError, Reader, Writer};
use difftest_event::{Event, EventKind, EventRef, OrderTag, Token};

use crate::squash::FusedCommit;

/// Discriminants of the wire-item classes (high bits of the kind byte).
const CLASS_PLAIN: u8 = 0;
const CLASS_TAGGED: u8 = 1;
const CLASS_FUSED: u8 = 2;
const CLASS_DIFF: u8 = 3;

/// One unit of the hardware→software stream.
#[derive(Debug, Clone, PartialEq)]
pub enum WireItem {
    /// An unmodified event in capture order.
    Plain {
        /// Source core.
        core: u8,
        /// The event.
        event: Event,
    },
    /// An event transmitted ahead of its checking position.
    Tagged {
        /// Source core.
        core: u8,
        /// Commit-order binding.
        tag: OrderTag,
        /// Replay-buffer token.
        token: Token,
        /// The event.
        event: Event,
    },
    /// A fused run of instruction commits.
    Fused {
        /// Source core.
        core: u8,
        /// The fusion record.
        fused: FusedCommit,
    },
    /// A differenced event (already reconstructed on decode).
    Diff {
        /// Source core.
        core: u8,
        /// Commit-order binding.
        tag: OrderTag,
        /// Replay-buffer token.
        token: Token,
        /// The reconstructed event.
        event: Event,
    },
}

impl WireItem {
    /// The source core of the item.
    pub fn core(&self) -> u8 {
        match self {
            WireItem::Plain { core, .. }
            | WireItem::Tagged { core, .. }
            | WireItem::Fused { core, .. }
            | WireItem::Diff { core, .. } => *core,
        }
    }

    /// The wire-kind byte identifying class and payload type.
    pub fn wire_kind(&self) -> WireKind {
        match self {
            WireItem::Plain { event, .. } => WireKind::Plain(event.kind()),
            WireItem::Tagged { event, .. } => WireKind::Tagged(event.kind()),
            WireItem::Fused { .. } => WireKind::Fused,
            WireItem::Diff { event, .. } => WireKind::Diff(event.kind()),
        }
    }
}

/// One unit of the stream as a *borrowed view* — the consumer-side
/// zero-materialization type. It owns nothing.
///
/// Plain and Tagged payloads stay in the packet buffer and are read
/// field-by-field through [`EventRef`]. The two bodies with no fixed
/// layout to view are viewed in the decoder's own buffers: a Diff event
/// is reconstructed in place in its [`DiffCache`] mirror slot and viewed
/// there, and a varint-coded Fused record is refilled into the decoder's
/// scratch [`FusedCommit`] and borrowed. Either buffer is rewritten by
/// the next item, so a view lives until the next decode.
#[derive(Debug, Clone)]
pub enum WireItemRef<'a> {
    /// An unmodified event in capture order, viewed in place.
    Plain {
        /// Source core.
        core: u8,
        /// Borrowed payload view.
        event: EventRef<'a>,
    },
    /// An event transmitted ahead of its checking position.
    Tagged {
        /// Source core.
        core: u8,
        /// Commit-order binding.
        tag: OrderTag,
        /// Replay-buffer token.
        token: Token,
        /// Borrowed payload view.
        event: EventRef<'a>,
    },
    /// A fused run of instruction commits.
    Fused {
        /// Source core.
        core: u8,
        /// The fusion record, borrowed from the decoder's scratch.
        fused: &'a FusedCommit,
    },
    /// A differenced event.
    Diff {
        /// Source core.
        core: u8,
        /// Commit-order binding.
        tag: OrderTag,
        /// Replay-buffer token.
        token: Token,
        /// The reconstructed payload, viewed in its mirror slot.
        event: EventRef<'a>,
    },
}

impl WireItemRef<'_> {
    /// The source core of the item.
    pub fn core(&self) -> u8 {
        match self {
            WireItemRef::Plain { core, .. }
            | WireItemRef::Tagged { core, .. }
            | WireItemRef::Fused { core, .. }
            | WireItemRef::Diff { core, .. } => *core,
        }
    }

    /// Materializes the owned [`WireItem`] — the codec tests' round-trip
    /// form ([`Unpacker::unpack`](crate::batch::Unpacker::unpack));
    /// checking reads the view directly.
    pub fn into_item(self) -> WireItem {
        match self {
            WireItemRef::Plain { core, event } => WireItem::Plain {
                core,
                event: event.to_event(),
            },
            WireItemRef::Tagged {
                core,
                tag,
                token,
                event,
            } => WireItem::Tagged {
                core,
                tag,
                token,
                event: event.to_event(),
            },
            WireItemRef::Fused { core, fused } => WireItem::Fused {
                core,
                fused: fused.clone(),
            },
            WireItemRef::Diff {
                core,
                tag,
                token,
                event,
            } => WireItem::Diff {
                core,
                tag,
                token,
                event: event.to_event(),
            },
        }
    }
}

/// The type tag of a wire item: class plus payload event kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireKind {
    /// Plain event of the given kind.
    Plain(EventKind),
    /// Order-tagged event of the given kind.
    Tagged(EventKind),
    /// Fused instruction commits.
    Fused,
    /// Differenced event of the given kind.
    Diff(EventKind),
}

impl WireKind {
    /// Encodes the kind as one byte: two class bits + kind index.
    pub fn to_u8(self) -> u8 {
        match self {
            WireKind::Plain(k) => (CLASS_PLAIN << 6) | k as u8,
            WireKind::Tagged(k) => (CLASS_TAGGED << 6) | k as u8,
            WireKind::Fused => CLASS_FUSED << 6,
            WireKind::Diff(k) => (CLASS_DIFF << 6) | k as u8,
        }
    }

    /// Decodes the kind byte.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BadKind`] for invalid class/kind combinations.
    pub fn from_u8(v: u8) -> Result<WireKind, CodecError> {
        let class = v >> 6;
        let kind = v & 0x3f;
        Ok(match class {
            CLASS_FUSED if kind == 0 => WireKind::Fused,
            CLASS_PLAIN => WireKind::Plain(EventKind::from_u8(kind)?),
            CLASS_TAGGED => WireKind::Tagged(EventKind::from_u8(kind)?),
            CLASS_DIFF => WireKind::Diff(EventKind::from_u8(kind)?),
            _ => return Err(CodecError::BadKind(v)),
        })
    }
}

/// Bytes a LEB128 varint encoding of `v` occupies (1–10).
pub(crate) fn varint_len(v: u64) -> usize {
    (64 - v.leading_zeros()).max(1).div_ceil(7) as usize
}

/// Appends `v` as a LEB128 varint.
pub(crate) fn write_varint(w: &mut Writer<'_>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            w.u8(byte);
            return;
        }
        w.u8(byte | 0x80);
    }
}

/// Reads one LEB128 varint.
///
/// # Errors
///
/// Returns [`CodecError`] when the varint is truncated or runs past ten
/// bytes.
pub(crate) fn read_varint(r: &mut Reader<'_>) -> Result<u64, CodecError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = r.u8()?;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(CodecError::Malformed("varint overruns 64 bits"))
}

/// Maps a wrapping difference to a value that is small when the
/// difference is small in either direction (0, −1, 1, −2 → 0, 1, 2, 3).
fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Whether bit `w` of a diff body's change bitmap is set.
#[inline]
fn changed(bitmap: &[u8], w: usize) -> bool {
    bitmap.get(w / 8).is_some_and(|b| b & (1 << (w % 8)) != 0)
}

/// Sets bit `w` of the change bitmap that starts at `out[start]`.
#[inline]
fn mark(out: &mut [u8], start: usize, w: usize) {
    if let Some(b) = out.get_mut(start + w / 8) {
        *b |= 1 << (w % 8);
    }
}

/// Appends `bytes`, at most one word, zero-padded to eight bytes.
#[inline]
fn append_word_padded(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(bytes);
    out.resize(out.len() + (8 - bytes.len() % 8) % 8, 0);
}

/// Differences `cur` against the equally long `prev` word by word:
/// marks each changed word in the bitmap at `out[start]`, appends it
/// (a short tail word zero-padded) and patches it into `prev`. Returns
/// the number of changed words.
#[inline]
fn patch_words(prev: &mut [u8], cur: &[u8], start: usize, out: &mut Vec<u8>) -> usize {
    let (cur_words, cur_tail) = cur.as_chunks::<8>();
    let (prev_words, prev_tail) = prev.as_chunks_mut::<8>();
    let mut changed = 0;
    for (w, (new, old)) in cur_words.iter().zip(prev_words).enumerate() {
        if u64::from_ne_bytes(*new) != u64::from_ne_bytes(*old) {
            *old = *new;
            mark(out, start, w);
            out.extend_from_slice(new);
            changed += 1;
        }
    }
    if cur_tail != &*prev_tail {
        prev_tail.copy_from_slice(cur_tail);
        mark(out, start, cur_words.len());
        append_word_padded(out, cur_tail);
        changed += 1;
    }
    changed
}

/// Per-core mirror of what the link last carried, kept identically on
/// the hardware (encoder) and software (decoder) sides: the last
/// transmitted payload of each event kind, so differencing round-trips,
/// and the order tag and token of the last shipped Tagged or Diff item,
/// which the next one's header is coded against.
#[derive(Debug, Clone, Default)]
pub struct DiffCache {
    last: Vec<Option<Vec<u8>>>, // indexed core * COUNT + kind
    // Per core: the (tag, token) pair the next header is a delta against.
    tags: Vec<(u64, u64)>,
    // Scratch an owned event is encoded into before it is differenced.
    scratch: Vec<u8>,
}

impl DiffCache {
    /// Creates a cache for `cores` cores.
    pub fn new(cores: usize) -> Self {
        DiffCache {
            last: vec![None; cores * EventKind::COUNT],
            tags: vec![(0, 0); cores],
            scratch: Vec::new(),
        }
    }

    #[inline]
    fn slot_index(core: u8, kind: EventKind) -> usize {
        core as usize * EventKind::COUNT + kind as usize
    }

    /// The zigzag deltas of `tag` and `token` against `core`'s reference
    /// pair. A core the mirror lacks codes against zero; the decoder
    /// rejects its items.
    fn header_deltas(&self, core: u8, tag: OrderTag, token: Token) -> [u64; 2] {
        let (t, k) = self
            .tags
            .get(usize::from(core))
            .copied()
            .unwrap_or_default();
        [
            zigzag(tag.0.wrapping_sub(t)),
            zigzag(token.0.wrapping_sub(k)),
        ]
    }

    /// Bytes of the header [`write_header`](Self::write_header) appends.
    pub(crate) fn header_len(&self, core: u8, tag: OrderTag, token: Token) -> usize {
        let [t, k] = self.header_deltas(core, tag, token);
        varint_len(t) + varint_len(k)
    }

    /// Appends the header of a Tagged or Diff item of `core`: `tag` and
    /// `token` as zigzag-LEB128 deltas against the core's reference pair.
    /// The reference stays put until [`advance`](Self::advance), so an
    /// item that turns out vacuous leaves it where it was.
    pub(crate) fn write_header(&self, core: u8, tag: OrderTag, token: Token, out: &mut Vec<u8>) {
        let mut w = Writer::new(out);
        for d in self.header_deltas(core, tag, token) {
            write_varint(&mut w, d);
        }
    }

    /// Makes `tag` and `token` the reference of `core`'s next header:
    /// the encoder calls it for each Tagged or Diff item that ships.
    pub(crate) fn advance(&mut self, core: u8, tag: OrderTag, token: Token) {
        if let Some(pair) = self.tags.get_mut(usize::from(core)) {
            *pair = (tag.0, token.0);
        }
    }

    /// Reads a header written by [`write_header`](Self::write_header) and
    /// advances `core`'s reference to it (the decoder's side of the
    /// mirror, in packet-sequence order).
    fn read_header(
        &mut self,
        core: u8,
        r: &mut Reader<'_>,
    ) -> Result<(OrderTag, Token), CodecError> {
        let cores = self.tags.len();
        let pair = self
            .tags
            .get_mut(usize::from(core))
            .ok_or(CodecError::BadCore { core, cores })?;
        let tag = pair.0.wrapping_add(unzigzag(read_varint(r)?));
        let token = pair.1.wrapping_add(unzigzag(read_varint(r)?));
        *pair = (tag, token);
        Ok((OrderTag(tag), Token(token)))
    }

    /// Encodes an owned `event` as a difference: its payload goes through
    /// a scratch buffer into [`diff`](Self::diff).
    pub fn encode(&mut self, core: u8, event: &Event, out: &mut Vec<u8>) -> usize {
        let mut cur = std::mem::take(&mut self.scratch);
        cur.clear();
        event.encode_into(&mut cur);
        let changed = self.diff(core, event.kind(), &cur, out);
        self.scratch = cur;
        changed
    }

    /// Whether `cur`, a payload of `kind`, equals the cached previous one
    /// of `core`: one slice compare, which settles an unchanged payload
    /// before anything is written. `false` before the first payload and
    /// for a core the cache lacks.
    #[inline]
    pub fn unchanged(&self, core: u8, kind: EventKind, cur: &[u8]) -> bool {
        matches!(
            self.last.get(Self::slot_index(core, kind)),
            Some(Some(prev)) if prev.as_slice() == cur
        )
    }

    /// Appends `cur`, a payload of `kind`, as a difference against the
    /// cached previous payload, and patches the changed words into the
    /// cache. Returns the number of changed 64-bit words; zero means the
    /// payload equals the previous one, and then nothing is appended and
    /// the cache is untouched. The first payload of a kind, and any
    /// payload of a core the cache lacks, differences against nothing:
    /// every word ships, and only the first is cached.
    pub fn diff(&mut self, core: u8, kind: EventKind, cur: &[u8], out: &mut Vec<u8>) -> usize {
        let words = cur.len().div_ceil(8);
        let start = out.len();
        out.resize(start + words.div_ceil(8), 0);
        let changed = match self.last.get_mut(Self::slot_index(core, kind)) {
            Some(Some(prev)) if prev.len() == cur.len() => patch_words(prev, cur, start, out),
            slot => {
                for w in 0..words {
                    mark(out, start, w);
                }
                append_word_padded(out, cur);
                if let Some(slot) = slot {
                    let prev = slot.get_or_insert_with(Vec::new);
                    prev.clear();
                    prev.extend_from_slice(cur);
                }
                words
            }
        };
        if changed == 0 {
            out.truncate(start);
        }
        changed
    }

    /// Decodes a diff body produced by [`DiffCache::diff`]: patches the
    /// changed words into the mirror slot in place and returns a view of
    /// the slot, which now holds the full reconstructed payload. Before
    /// the first payload of a kind the slot reads as all zeroes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] when the body is truncated (the slot may
    /// then hold a partial patch) or the cache has no slot for `core`.
    /// Admission validates every body and core first, so the stream
    /// meets neither.
    pub fn decode(
        &mut self,
        core: u8,
        kind: EventKind,
        r: &mut Reader<'_>,
    ) -> Result<EventRef<'_>, CodecError> {
        let len = kind.encoded_len();
        let words = len.div_ceil(8);
        // Borrowed straight from the packet buffer — `bytes_dyn` hands out
        // `&'a [u8]` tied to the buffer, not the reader, so later reads
        // don't conflict and nothing is copied.
        let bitmap = r.bytes_dyn(words.div_ceil(8))?;

        let cores = self.tags.len();
        let cur = self
            .last
            .get_mut(Self::slot_index(core, kind))
            .ok_or(CodecError::BadCore { core, cores })?
            .get_or_insert_with(|| vec![0u8; len]);
        // The slot's words, the last one short when `len` is not a
        // multiple of eight.
        for (w, dst) in cur.chunks_mut(8).enumerate() {
            if changed(bitmap, w) {
                let word = r.bytes::<8>()?;
                for (d, s) in dst.iter_mut().zip(word) {
                    *d = s;
                }
            }
        }
        EventRef::parse(kind, cur)
    }

    /// Advances the reader past one diff body without touching any cache
    /// state (the validation pass; reconstruction must stay strictly
    /// in-order, so only [`DiffCache::decode`] mutates the mirror).
    ///
    /// # Errors
    ///
    /// Returns the same truncation [`CodecError`]s as
    /// [`DiffCache::decode`].
    pub fn skip(kind: EventKind, r: &mut Reader<'_>) -> Result<(), CodecError> {
        let words = kind.encoded_len().div_ceil(8);
        let bitmap = r.bytes_dyn(words.div_ceil(8))?;
        for w in 0..words {
            if changed(bitmap, w) {
                r.bytes_dyn(8)?;
            }
        }
        Ok(())
    }
}

/// Encodes one wire item's body (excluding the kind byte, which packet
/// metadata carries) and advances `diff`'s mirror past it. Returns
/// `false` for a *vacuous* item: a differenced event that is
/// byte-identical to its predecessor, which the hardware drops instead of
/// transmitting (paper §4.3 "only modified ones are transmitted"). The
/// caller must then discard `out`'s new suffix; the header reference has
/// not moved.
pub fn encode_item_body(item: &WireItem, diff: &mut DiffCache, out: &mut Vec<u8>) -> bool {
    match item {
        WireItem::Plain { event, .. } => {
            event.encode_into(out);
            true
        }
        WireItem::Tagged {
            core,
            tag,
            token,
            event,
        } => {
            diff.write_header(*core, *tag, *token, out);
            diff.advance(*core, *tag, *token);
            event.encode_into(out);
            true
        }
        WireItem::Fused { fused, .. } => {
            fused.encode_into(out);
            true
        }
        WireItem::Diff {
            tag,
            token,
            event,
            core,
        } => {
            diff.write_header(*core, *tag, *token, out);
            let shipped = diff.encode(*core, event, out) > 0;
            if shipped {
                diff.advance(*core, *tag, *token);
            }
            shipped
        }
    }
}

/// Decodes one wire item's body as a borrowed view: Plain/Tagged payloads
/// are *not* copied out of the packet buffer, a Diff event is viewed in
/// its `diff` mirror slot and a Fused record is refilled into `fused`,
/// the decoder's scratch, and borrowed from there. A Tagged or Diff
/// header advances `diff`'s reference pair for `core`, so bodies must
/// be decoded in the order they were encoded.
///
/// # Errors
///
/// Returns [`CodecError`] on truncated or malformed bodies, or on a
/// Tagged or Diff item of a core `diff` does not mirror.
#[inline]
pub fn decode_item_ref_body<'a: 'b, 'b>(
    kind: WireKind,
    core: u8,
    diff: &'b mut DiffCache,
    fused: &'b mut FusedCommit,
    r: &mut Reader<'a>,
) -> Result<WireItemRef<'b>, CodecError> {
    Ok(match kind {
        WireKind::Plain(k) => {
            let payload = r.bytes_dyn(k.encoded_len())?;
            WireItemRef::Plain {
                core,
                event: EventRef::parse(k, payload)?,
            }
        }
        WireKind::Tagged(k) => {
            let (tag, token) = diff.read_header(core, r)?;
            let payload = r.bytes_dyn(k.encoded_len())?;
            WireItemRef::Tagged {
                core,
                tag,
                token,
                event: EventRef::parse(k, payload)?,
            }
        }
        WireKind::Fused => {
            fused.read_from(r)?;
            WireItemRef::Fused { core, fused }
        }
        WireKind::Diff(k) => {
            let (tag, token) = diff.read_header(core, r)?;
            WireItemRef::Diff {
                core,
                tag,
                token,
                event: diff.decode(core, k, r)?,
            }
        }
    })
}

/// Advances the reader past one wire item's body without materializing
/// anything or touching the diff mirror: the admission-time validation
/// pass. Walks the exact byte positions [`decode_item_ref_body`] reads,
/// so it fails with the same [`CodecError`] at the same spot — which is
/// what lets the later checking pass stream items straight into the
/// checker without a mid-packet decode error ever splitting a packet's
/// effects in two.
///
/// # Errors
///
/// Returns [`CodecError`] on truncated or malformed bodies.
#[inline]
pub fn validate_item_body(kind: WireKind, r: &mut Reader<'_>) -> Result<(), CodecError> {
    match kind {
        WireKind::Plain(k) => {
            r.bytes_dyn(k.encoded_len())?;
        }
        WireKind::Tagged(k) => {
            read_varint(r)?;
            read_varint(r)?;
            r.bytes_dyn(k.encoded_len())?;
        }
        WireKind::Fused => FusedCommit::skip_from(r)?,
        WireKind::Diff(k) => {
            read_varint(r)?;
            read_varint(r)?;
            DiffCache::skip(k, r)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use difftest_event::{ArchIntRegState, CsrState, StoreEvent};

    #[test]
    fn wire_kind_round_trip() {
        for k in EventKind::ALL {
            for wk in [WireKind::Plain(k), WireKind::Tagged(k), WireKind::Diff(k)] {
                assert_eq!(WireKind::from_u8(wk.to_u8()).unwrap(), wk);
            }
        }
        assert_eq!(
            WireKind::from_u8(WireKind::Fused.to_u8()).unwrap(),
            WireKind::Fused
        );
        assert!(WireKind::from_u8((CLASS_FUSED << 6) | 5).is_err());
    }

    #[test]
    fn diff_round_trip_first_and_incremental() {
        let mut enc = DiffCache::new(1);
        let mut dec = DiffCache::new(1);

        let mut regs = [7u64; 32];
        let e1: Event = ArchIntRegState { regs }.into();
        regs[3] = 8;
        regs[31] = 9;
        let e2: Event = ArchIntRegState { regs }.into();

        for (i, e) in [&e1, &e2].into_iter().enumerate() {
            let mut body = Vec::new();
            enc.encode(0, e, &mut body);
            let mut r = Reader::new(&body);
            let back = dec.decode(0, EventKind::ArchIntRegState, &mut r).unwrap();
            assert_eq!(&back.to_event(), e, "round {i}");
            r.finish().unwrap();
            if i == 1 {
                // Incremental diff: bitmap (4B) + 2 changed words.
                assert_eq!(body.len(), 4 + 16);
            }
        }
    }

    #[test]
    fn diff_caches_are_per_core_and_kind() {
        let mut enc = DiffCache::new(2);
        let e: Event = CsrState { csrs: [5; 24] }.into();
        let mut b0 = Vec::new();
        enc.encode(0, &e, &mut b0);
        let mut b1 = Vec::new();
        enc.encode(1, &e, &mut b1);
        // Core 1 has no cached payload: still a full transmission.
        assert_eq!(b0.len(), b1.len());
        let mut b0b = Vec::new();
        enc.encode(0, &e, &mut b0b);
        assert!(b0b.len() < b0.len(), "unchanged repeat must shrink");
    }

    #[test]
    fn plain_and_tagged_round_trip() {
        let mut diff_enc = DiffCache::new(1);
        let mut diff_dec = DiffCache::new(1);
        let mut fused = FusedCommit::default();
        let ev: Event = StoreEvent {
            addr: 0x8000_0000,
            data: 42,
            mask: 0xff,
        }
        .into();
        for item in [
            WireItem::Plain {
                core: 0,
                event: ev.clone(),
            },
            WireItem::Tagged {
                core: 0,
                tag: OrderTag(77),
                token: Token(5),
                event: ev.clone(),
            },
            WireItem::Diff {
                core: 0,
                tag: OrderTag(78),
                token: Token(6),
                event: ev.clone(),
            },
        ] {
            let mut body = Vec::new();
            encode_item_body(&item, &mut diff_enc, &mut body);
            let mut r = Reader::new(&body);
            let back = decode_item_ref_body(item.wire_kind(), 0, &mut diff_dec, &mut fused, &mut r)
                .unwrap()
                .into_item();
            r.finish().unwrap();
            assert_eq!(back, item);
        }
    }

    /// The differencing `DiffCache::diff` is held to: one paired scan of
    /// the current and the previous payload, appending the bitmap even
    /// when no word changed, then the whole payload copied into the slot.
    fn paired_scan_diff(prev: &mut Option<Vec<u8>>, cur: &[u8], out: &mut Vec<u8>) -> usize {
        let words = cur.len().div_ceil(8);
        let start = out.len();
        out.resize(start + words.div_ceil(8), 0);
        let mut changed = 0;
        let mut cur_words = cur.chunks_exact(8);
        let mut prev_words = prev.as_deref().unwrap_or_default().chunks_exact(8);
        for (w, word) in cur_words.by_ref().enumerate() {
            if prev_words.next() != Some(word) {
                out[start + w / 8] |= 1 << (w % 8);
                out.extend_from_slice(word);
                changed += 1;
            }
        }
        let tail = cur_words.remainder();
        if !tail.is_empty() && (prev.is_none() || prev_words.remainder() != tail) {
            out[start + (words - 1) / 8] |= 1 << ((words - 1) % 8);
            out.extend_from_slice(tail);
            out.resize(out.len() + 8 - tail.len(), 0);
            changed += 1;
        }
        *prev = Some(cur.to_vec());
        changed
    }

    /// The eight state-dump kinds Squash holds and differences.
    const DUMP_KINDS: [EventKind; 8] = [
        EventKind::ArchIntRegState,
        EventKind::CsrState,
        EventKind::ArchFpRegState,
        EventKind::ArchVecRegState,
        EventKind::VecCsrState,
        EventKind::HypervisorCsrState,
        EventKind::TriggerCsrState,
        EventKind::DebugModeState,
    ];

    /// `DiffCache::diff` next to its oracle over one payload stream, and
    /// a decoder mirror reading what it appends. The caches have two
    /// cores; core 2 is one they lack.
    struct OracleRun {
        enc: DiffCache,
        dec: DiffCache,
        oracle: Vec<Option<Vec<u8>>>,
    }

    impl OracleRun {
        fn new() -> Self {
            OracleRun {
                enc: DiffCache::new(2),
                dec: DiffCache::new(2),
                oracle: vec![None; 2 * EventKind::COUNT],
            }
        }

        /// The last payload of `kind` the oracle cached for `core`.
        fn last(&self, core: u8, kind: EventKind) -> Option<&[u8]> {
            self.oracle
                .get(DiffCache::slot_index(core, kind))?
                .as_deref()
        }

        /// Differences `cur` both ways and checks they agree: the same
        /// count, the same bytes when a word changed and none appended
        /// when none did, the same cached payload, and a decoder mirror
        /// that reconstructs `cur`. Returns the count.
        fn step(&mut self, core: u8, kind: EventKind, cur: &[u8]) -> usize {
            let (mut got, mut want) = (vec![0xee], vec![0xee]);
            let mut uncached = None;
            let slot = self
                .oracle
                .get_mut(DiffCache::slot_index(core, kind))
                .unwrap_or(&mut uncached);
            let n = paired_scan_diff(slot, cur, &mut want);
            assert_eq!(self.enc.unchanged(core, kind, cur), n == 0, "{kind:?}");
            assert_eq!(self.enc.diff(core, kind, cur, &mut got), n, "{kind:?}");
            if n == 0 {
                assert_eq!(got, [0xee], "a vacuous diff appends nothing");
                assert!(want[1..].iter().all(|&b| b == 0));
            } else {
                assert_eq!(got, want, "{kind:?} on core {core}");
            }
            let idx = DiffCache::slot_index(core, kind);
            assert_eq!(self.enc.last.get(idx), self.oracle.get(idx));
            if n > 0 && usize::from(core) < 2 {
                let mut r = Reader::new(&got[1..]);
                let back = self.dec.decode(core, kind, &mut r).unwrap();
                assert_eq!(back.wire_bytes(), cur, "{kind:?} mirrored");
                r.finish().unwrap();
            }
            n
        }
    }

    /// `kind`'s payload from `seed`, pseudo-random bytes.
    fn dump_payload(kind: EventKind, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..kind.encoded_len())
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// The edges by name: the first capture, a repeat, a change in the
    /// 1-byte tail word of `HypervisorCsrState`'s 89 bytes alone, a
    /// change in one full word, and a core the cache lacks.
    #[test]
    fn diff_agrees_with_the_paired_scan_at_the_edges() {
        let kind = EventKind::HypervisorCsrState;
        assert_eq!((kind.encoded_len(), kind.encoded_len() % 8), (89, 1));
        let mut run = OracleRun::new();
        let mut cur = dump_payload(kind, 7);
        assert_eq!(run.step(0, kind, &cur), 12, "first capture: every word");
        assert_eq!(run.step(0, kind, &cur), 0, "repeat");
        *cur.last_mut().unwrap() ^= 1;
        assert_eq!(run.step(0, kind, &cur), 1, "tail only");
        cur[8] ^= 0x80;
        assert_eq!(run.step(0, kind, &cur), 1, "one full word");
        for _ in 0..2 {
            assert_eq!(run.step(2, kind, &cur), 12, "a core the cache lacks");
        }
        assert_eq!(run.step(1, kind, &cur), 12, "another core's first");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Over random payload streams of all eight dump kinds, each
        /// payload a repeat, a few words or only the tail changed, or
        /// fresh, on two cached cores and one the cache lacks.
        #[test]
        fn diff_agrees_with_the_paired_scan(
            steps in proptest::collection::vec(
                (0u8..3, 0usize..8, 0u8..4, proptest::prelude::any::<u64>()),
                1..96,
            ),
        ) {
            let mut run = OracleRun::new();
            for (core, k, mode, seed) in steps {
                let kind = DUMP_KINDS[k];
                let mut cur = run
                    .last(core, kind)
                    .map_or_else(|| dump_payload(kind, seed), <[u8]>::to_vec);
                let len = cur.len();
                match mode {
                    0 => {}
                    1 => {
                        for i in 0..=seed % 3 {
                            let at = (seed.rotate_left(i as u32 * 8) as usize) % len;
                            cur[at] = cur[at].wrapping_add(1);
                        }
                    }
                    2 => cur[len - 1 - (seed as usize % (len % 8).max(1))] ^= 0x5a,
                    _ => cur = dump_payload(kind, seed),
                }
                run.step(core, kind, &cur);
            }
        }
    }
}
