//! Batch: tight packing of structurally diverse events (paper §4.2).
//!
//! Batch minimizes communication startup frequency by packing many
//! variable-length wire items into fixed-capacity transmission packets:
//!
//! - **Type level** — the capture arena already holds only valid events:
//!   the monitor appends a record only for an event that fired and that a
//!   slot admitted, the selection paper Fig. 7's prefix-count mux-tree
//!   makes in hardware.
//! - **Cycle level** — different event types of a cycle are laid out
//!   back-to-back, each run described by a [`MetaEntry`] (type, count);
//!   offsets are the running sum of preceding lengths (paper Fig. 5/6).
//! - **Transmission level** — cycle groups fill fixed-size packets, split
//!   at item boundaries so no capacity is wasted (paper §4.2.2 (3)).
//!
//! The software side ([`Unpacker`]) walks the metadata, computes each run's
//! offset from the accumulated lengths, and views each item where its
//! bytes are — differenced payloads in the mirrored [`DiffCache`], fused
//! records in one scratch [`FusedCommit`].
//!
//! Tagged and Diff items open with their order tag and token delta-coded
//! against the same core's previous shipped item ([`crate::wire`]). Both
//! ends advance that reference in packet-sequence order: the packer as
//! it admits an item (a vacuous diff is never admitted, so it moves
//! nothing), the unpacker as it visits one. Admission's validation walk
//! touches no mirror state, so a corrupt, stale or early packet leaves
//! the reference where it was.
//!
//! The module also provides the **fixed-offset baseline** of prior work
//! ([`FixedOffsetPacker`]): every provisioned slot occupies packet space
//! whether valid or not, producing the >60% bubbles of paper §4.2.1.

use difftest_dut::SlotTable;
use difftest_event::record::RecordHeader;
use difftest_event::wire::{
    append_crc_frame, verify_crc_frame, CodecError, Reader, Writer, CRC_TRAILER_BYTES,
};
use difftest_event::{Event, EventKind, EventRef};

use crate::squash::{FusedCommit, SquashSink};
use crate::wire::{
    decode_item_ref_body, encode_item_body, validate_item_body, DiffCache, WireItem, WireItemRef,
    WireKind,
};

/// One metadata record: `count` items of `wire_kind` from `core`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaEntry {
    /// Source core of the run.
    pub core: u8,
    /// Wire kind of the run.
    pub wire_kind: u8,
    /// Number of items in the run.
    pub count: u16,
}

/// Size of one encoded [`MetaEntry`].
pub const META_ENTRY_BYTES: usize = 4;

/// A fully assembled transmission packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// The encoded packet: `[seq:u32][n_meta:u16][meta…][payload…][crc:u32]`.
    ///
    /// The sequence number lets the receiver restore packet order under
    /// the out-of-order delivery non-blocking links can exhibit
    /// (paper §4.5 "ordered parsing"), and the CRC32 trailer covers
    /// everything before it so in-flight corruption or truncation is
    /// *detected* rather than misdecoded. Whoever spends the buffer hands
    /// it back through [`BatchUnit::recycle`] for a later packet.
    pub bytes: Vec<u8>,
    /// Number of wire items inside.
    pub items: u32,
}

impl Packet {
    /// Total encoded length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Returns `true` for a packet with no items (never produced).
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }
}

/// Running statistics of a packer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PackStats {
    /// Packets emitted.
    pub packets: u64,
    /// Total packet bytes emitted.
    pub bytes: u64,
    /// Total payload (non-meta, non-padding) bytes.
    pub payload_bytes: u64,
    /// Items packed.
    pub items: u64,
    /// Differenced items dropped because nothing changed (paper §4.3:
    /// unchanged fields are never transmitted).
    pub diff_dropped: u64,
}

impl PackStats {
    /// Mean packet fill (payload / total).
    pub fn utilization(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            self.payload_bytes as f64 / self.bytes as f64
        }
    }
}

/// Idle buffers a packer's free list retains. Only one cycle's packets
/// (plus the fault model's reorder holds) are ever out at once; the cap
/// bounds what a burst of returns can pin.
pub const DEFAULT_POOL_SLOTS: usize = 64;

/// Counters of a packer's free list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers served by a recycled one.
    pub hits: u64,
    /// Buffers that had to allocate.
    pub misses: u64,
    /// Buffers handed back and kept.
    pub returns: u64,
    /// Buffers handed back to a full list, left to the allocator.
    pub discards: u64,
}

impl PoolStats {
    /// Fraction of buffers served without allocating.
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// One packer's spent transfer buffers, waiting to carry the next
/// transfer. Single-owner: the packer takes from it and the producer
/// that owns the packer hands spent buffers back, on one thread.
#[derive(Debug, Default)]
pub(crate) struct FreeList {
    free: Vec<Vec<u8>>,
    pub(crate) stats: PoolStats,
}

impl FreeList {
    /// An empty buffer, with a recycled one's capacity when any is free.
    pub(crate) fn take(&mut self) -> Vec<u8> {
        let Some(buf) = self.free.pop() else {
            self.stats.misses += 1;
            return Vec::new();
        };
        self.stats.hits += 1;
        buf
    }

    /// Keeps a spent buffer (cleared, capacity kept) unless the list is
    /// full.
    pub(crate) fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.free.len() < DEFAULT_POOL_SLOTS {
            buf.clear();
            self.free.push(buf);
            self.stats.returns += 1;
        } else {
            self.stats.discards += 1;
        }
    }
}

/// The hardware-side tight packer (cycle + transmission levels).
#[derive(Debug)]
pub struct BatchUnit {
    capacity: usize,
    diff: DiffCache,
    meta: Vec<MetaEntry>,
    payload: Vec<u8>,
    /// Scratch for one item's encoded body, reused across items.
    body: Vec<u8>,
    items: u32,
    next_seq: u32,
    stats: PackStats,
    free: FreeList,
}

impl BatchUnit {
    /// Creates a packer emitting packets of at most `capacity` bytes,
    /// drawing their buffers from its own free list.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` cannot hold one maximal item (≤ 1 KiB).
    pub fn new(cores: usize, capacity: usize) -> Self {
        assert!(capacity >= 1024, "packet capacity too small: {capacity}");
        BatchUnit {
            capacity,
            diff: DiffCache::new(cores),
            meta: Vec::new(),
            payload: Vec::new(),
            body: Vec::new(),
            items: 0,
            next_seq: 0,
            stats: PackStats::default(),
            free: FreeList::default(),
        }
    }

    /// Packer statistics.
    pub fn stats(&self) -> &PackStats {
        &self.stats
    }

    /// Hands a spent packet buffer back for a later packet.
    pub fn recycle(&mut self, buf: Vec<u8>) {
        self.free.recycle(buf);
    }

    /// Counters of the packet free list.
    pub fn pool_stats(&self) -> PoolStats {
        self.free.stats
    }

    fn current_len(&self) -> usize {
        4 + 2 + self.meta.len() * META_ENTRY_BYTES + self.payload.len() + CRC_TRAILER_BYTES
    }

    /// Admits one item of `body_len` encoded bytes to the open packet
    /// (transmission level): the packet is flushed first when the item
    /// cannot fit, then the item extends the last meta run or opens a
    /// new one. The caller appends the body to the payload.
    fn admit(&mut self, core: u8, kind: WireKind, body_len: usize, out: &mut Vec<Packet>) {
        let kind = kind.to_u8();
        let extends_run = matches!(
            self.meta.last(),
            Some(m) if m.wire_kind == kind && m.core == core && m.count < u16::MAX
        );
        let needed = body_len + if extends_run { 0 } else { META_ENTRY_BYTES };
        if self.current_len() + needed > self.capacity && self.items > 0 {
            self.flush_packet(out);
        }
        match self.meta.last_mut() {
            Some(m) if m.wire_kind == kind && m.core == core && m.count < u16::MAX => {
                m.count += 1;
            }
            _ => self.meta.push(MetaEntry {
                core,
                wire_kind: kind,
                count: 1,
            }),
        }
        self.items += 1;
    }

    /// Packs one item through the body scratch, for bodies whose size is
    /// only known once encoded. `encode` returns `false` for a vacuous
    /// diff — byte-identical to the previous same-kind event, so the
    /// hardware transmits nothing. Differencing mutates the cache, so an
    /// encoded item is always either admitted or counted as dropped.
    fn push_encoded(
        &mut self,
        core: u8,
        kind: WireKind,
        out: &mut Vec<Packet>,
        encode: impl FnOnce(&mut DiffCache, &mut Vec<u8>) -> bool,
    ) {
        self.body.clear();
        if !encode(&mut self.diff, &mut self.body) {
            self.stats.diff_dropped += 1;
            return;
        }
        self.admit(core, kind, self.body.len(), out);
        self.payload.extend_from_slice(&self.body);
    }

    /// Packs one cycle's wire items, emitting any packets that filled.
    pub fn push_cycle(&mut self, items: &[WireItem], out: &mut Vec<Packet>) {
        for item in items {
            self.push_encoded(item.core(), item.wire_kind(), out, |diff, body| {
                encode_item_body(item, diff, body)
            });
        }
    }

    /// Packs one payload as a Plain item, copying its bytes straight
    /// into the packet's payload buffer. The fixed layout means the
    /// item's size is known up front, so the flush check runs first: no
    /// [`WireItem`] is built, no per-item body scratch is filled.
    #[inline]
    pub fn push_payload(&mut self, core: u8, event: EventRef<'_>, out: &mut Vec<Packet>) {
        let bytes = event.wire_bytes();
        self.admit(core, WireKind::Plain(event.kind()), bytes.len(), out);
        self.payload.extend_from_slice(bytes);
    }

    /// This packer as Squash's output: what `SquashUnit` lends is packed
    /// on the spot, the same bytes [`push_cycle`](Self::push_cycle) makes
    /// of the equivalent [`WireItem`]s.
    pub(crate) fn sink<'a>(&'a mut self, out: &'a mut Vec<Packet>) -> PackSink<'a> {
        PackSink { batch: self, out }
    }

    /// Flushes the partially filled packet, if any.
    pub fn flush(&mut self, out: &mut Vec<Packet>) {
        if self.items > 0 {
            self.flush_packet(out);
        }
    }

    fn flush_packet(&mut self, out: &mut Vec<Packet>) {
        let mut bytes = self.free.take();
        // Room for the largest packet, not just this one: a recycled
        // buffer then never grows when a later packet is a byte longer.
        bytes.reserve(self.capacity.max(self.current_len()));
        let mut w = Writer::new(&mut bytes);
        w.u32(self.next_seq);
        self.next_seq = self.next_seq.wrapping_add(1);
        w.u16(self.meta.len() as u16);
        for m in &self.meta {
            w.u8(m.core);
            w.u8(m.wire_kind);
            w.u16(m.count);
        }
        bytes.extend_from_slice(&self.payload);
        append_crc_frame(&mut bytes);

        self.stats.packets += 1;
        self.stats.bytes += bytes.len() as u64;
        self.stats.payload_bytes += self.payload.len() as u64;
        self.stats.items += self.items as u64;

        out.push(Packet {
            bytes,
            items: self.items,
        });
        self.meta.clear();
        self.payload.clear();
        self.items = 0;
    }
}

/// A [`BatchUnit`] taking Squash's output by reference
/// ([`BatchUnit::sink`]); `out` receives the packets that fill.
pub(crate) struct PackSink<'a> {
    batch: &'a mut BatchUnit,
    out: &'a mut Vec<Packet>,
}

impl SquashSink for PackSink<'_> {
    fn tagged(&mut self, h: &RecordHeader, payload: &[u8]) {
        let batch = &mut *self.batch;
        let len = batch.diff.header_len(h.core, h.order, h.token) + payload.len();
        batch.admit(h.core, WireKind::Tagged(h.kind), len, self.out);
        batch
            .diff
            .write_header(h.core, h.order, h.token, &mut batch.payload);
        batch.diff.advance(h.core, h.order, h.token);
        batch.payload.extend_from_slice(payload);
    }

    fn diff(&mut self, h: &RecordHeader, payload: &[u8]) {
        // An unchanged payload is settled by one compare: no header, no
        // bitmap, and the mirror stays as it is.
        if self.batch.diff.unchanged(h.core, h.kind, payload) {
            self.batch.stats.diff_dropped += 1;
            return;
        }
        self.batch
            .push_encoded(h.core, WireKind::Diff(h.kind), self.out, |diff, body| {
                diff.write_header(h.core, h.order, h.token, body);
                let shipped = diff.diff(h.core, h.kind, payload, body) > 0;
                if shipped {
                    diff.advance(h.core, h.order, h.token);
                }
                shipped
            });
    }

    fn fused(&mut self, core: u8, fused: &FusedCommit) {
        self.batch
            .push_encoded(core, WireKind::Fused, self.out, |_, body| {
                fused.encode_into(body);
                true
            });
    }
}

/// Best-effort read of a packed frame's sequence number (its first four
/// little-endian bytes), without CRC verification. Link recovery uses
/// this to guess which packet a damaged frame was; the value comes from
/// unverified bytes, so callers must validate it (e.g. by retention-ring
/// lookup) before acting on it.
pub fn peek_packet_seq(bytes: &[u8]) -> Option<u32> {
    let raw: [u8; 4] = bytes.get(..4)?.try_into().ok()?;
    Some(u32::from_le_bytes(raw))
}

/// The software-side meta-guided dynamic unpacker (paper §4.2.2), with
/// sequence-based reassembly of out-of-order packets (paper §4.5).
#[derive(Debug)]
pub struct Unpacker {
    /// Cores of the session: a meta entry naming another is malformed.
    cores: usize,
    diff: DiffCache,
    /// Scratch every Fused record is refilled into and viewed from.
    fused: FusedCommit,
    expected_seq: u32,
    /// Early arrivals' item bodies (sequence stripped), waiting for the
    /// sequence gap to fill.
    reorder: std::collections::BTreeMap<u32, Vec<u8>>,
}

impl Unpacker {
    /// Creates an unpacker mirroring `cores` diff caches.
    pub fn new(cores: usize) -> Self {
        Unpacker {
            cores,
            diff: DiffCache::new(cores),
            fused: FusedCommit::default(),
            expected_seq: 0,
            reorder: std::collections::BTreeMap::new(),
        }
    }

    /// Packets received ahead of a sequence gap, not yet deliverable.
    pub fn buffered_packets(&self) -> usize {
        self.reorder.len()
    }

    /// The sequence number the unpacker delivers next. When
    /// [`buffered_packets`](Self::buffered_packets) is non-zero, this is
    /// the missing packet a recovery layer should request retransmission
    /// of.
    pub fn expected_seq(&self) -> u32 {
        self.expected_seq
    }

    /// Admits one packet frame (arrival order may differ from send
    /// order) and materializes every item it releases, buffered
    /// successors included; an early packet is buffered and yields an
    /// empty batch. This is the codec tests' round-trip materializer —
    /// checking streams views through [`admit`](Self::admit) and
    /// [`visit_admitted`](Self::visit_admitted) instead.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on malformed packets or on a
    /// stale/duplicate sequence number (the link never replays old
    /// packets). Packets are validated on admission, so an error never
    /// follows a partial batch.
    pub fn unpack(&mut self, bytes: &[u8]) -> Result<Vec<WireItem>, CodecError> {
        let mut items = Vec::new();
        if let Some(body) = self.admit(bytes)? {
            self.visit_admitted(body, &mut |item: WireItemRef<'_>| {
                items.push(item.into_item());
                true
            })?;
        }
        Ok(items)
    }

    /// Admits one packet frame: CRC verification, stale/duplicate
    /// sequence rejection, reorder buffering, and a structural
    /// validation walk of the body — everything that can *fail*, with no
    /// checker-visible side effects (the diff mirror is untouched).
    ///
    /// Returns the in-order body (after the sequence word), ready for
    /// [`visit_admitted`](Self::visit_admitted), or `None` when the
    /// packet arrived early and was buffered (early packets are
    /// validated before buffering, so draining them cannot fail).
    ///
    /// The CRC trailer is verified *before* any state (sequence window,
    /// diff caches) is touched, so a corrupted or truncated packet is
    /// rejected without desynchronizing the unpacker: a later clean
    /// retransmission of the same packet decodes normally.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on corrupt, malformed, or stale packets.
    pub fn admit<'a>(&mut self, bytes: &'a [u8]) -> Result<Option<&'a [u8]>, CodecError> {
        let body = verify_crc_frame(bytes)?;
        let Some((seq, items)) = body.split_first_chunk::<4>() else {
            return Err(CodecError::UnexpectedEnd {
                needed: 4,
                available: body.len(),
            });
        };
        let seq = u32::from_le_bytes(*seq);
        if seq.wrapping_sub(self.expected_seq) > u32::MAX / 2 {
            // Sequence numerically behind the expectation: a duplicate or
            // a replayed packet.
            return Err(CodecError::StaleSequence {
                expected: self.expected_seq,
                got: seq,
            });
        }
        Self::validate_body(items, self.cores)?;
        if seq != self.expected_seq {
            // Bound the reassembly window: a gap that outlives this many
            // packets means the link lost one, which must surface rather
            // than buffer forever.
            const REORDER_WINDOW: usize = 1024;
            if self.reorder.len() >= REORDER_WINDOW {
                return Err(CodecError::ReorderOverflow {
                    missing: self.expected_seq,
                });
            }
            self.reorder.insert(seq, items.to_vec());
            return Ok(None);
        }
        Ok(Some(items))
    }

    /// Streams the items of an admitted in-order body — plus any buffered
    /// successors it unblocks — through `visit` as borrowed
    /// [`WireItemRef`] views, decoding straight out of the packet bytes.
    /// `body` must be the slice [`admit`](Self::admit) just returned.
    /// Returns the number of items visited; `visit` returns `false` to
    /// stop early (remaining items of the stream are dropped, as a halt
    /// verdict ends the run).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on malformed bodies — unreachable for
    /// bodies that passed admission validation.
    pub fn visit_admitted<F>(&mut self, body: &[u8], visit: &mut F) -> Result<usize, CodecError>
    where
        F: FnMut(WireItemRef<'_>) -> bool,
    {
        let mut n = 0usize;
        let mut stopped = self.visit_body(body, visit, &mut n)?;
        self.expected_seq = self.expected_seq.wrapping_add(1);
        while !stopped {
            let Some(next) = self.reorder.remove(&self.expected_seq) else {
                break;
            };
            stopped = self.visit_body(&next, visit, &mut n)?;
            self.expected_seq = self.expected_seq.wrapping_add(1);
        }
        Ok(n)
    }

    /// Validates one packet body structurally (meta table, each run's
    /// core below `cores`, and every item's byte extent) without
    /// materializing anything or touching the diff mirror. Plain runs
    /// are skipped in O(1) per run; Tagged, Fused and Diff runs are
    /// walked item by item. This is all the per-byte work the admission
    /// path does beyond the CRC.
    fn validate_body(bytes: &[u8], cores: usize) -> Result<(), CodecError> {
        let mut r = Reader::new(bytes);
        let n_meta = r.u16()? as usize;
        let payload_at = 2 + n_meta * META_ENTRY_BYTES;
        let mut pr = Reader::new(bytes.get(payload_at..).unwrap_or_default());
        for _ in 0..n_meta {
            let core = r.u8()?;
            if core as usize >= cores {
                return Err(CodecError::BadCore { core, cores });
            }
            let wire_kind = r.u8()?;
            let count = r.u16()? as usize;
            match WireKind::from_u8(wire_kind)? {
                // The fixed layout: the whole run's extent in one step.
                WireKind::Plain(k) => {
                    pr.bytes_dyn(count * k.encoded_len())?;
                }
                // Varint headers and self-describing bodies must be
                // walked item by item.
                kind => {
                    for _ in 0..count {
                        validate_item_body(kind, &mut pr)?;
                    }
                }
            }
        }
        pr.finish()
    }

    /// Decodes one validated body, streaming each item through `visit`.
    /// Returns `true` when `visit` stopped the stream.
    fn visit_body<F>(
        &mut self,
        bytes: &[u8],
        visit: &mut F,
        n: &mut usize,
    ) -> Result<bool, CodecError>
    where
        F: FnMut(WireItemRef<'_>) -> bool,
    {
        let mut mr = Reader::new(bytes);
        let n_meta = mr.u16()? as usize;
        let payload_at = 2 + n_meta * META_ENTRY_BYTES;
        let mut pr = Reader::new(bytes.get(payload_at..).unwrap_or_default());
        for _ in 0..n_meta {
            let core = mr.u8()?;
            let wire_kind = mr.u8()?;
            let count = mr.u16()?;
            let kind = WireKind::from_u8(wire_kind)?;
            for _ in 0..count {
                let item =
                    decode_item_ref_body(kind, core, &mut self.diff, &mut self.fused, &mut pr)?;
                *n += 1;
                if !visit(item) {
                    return Ok(true);
                }
            }
        }
        pr.finish()?;
        Ok(false)
    }
}

/// The fixed-offset baseline packer of prior work (paper Fig. 5 top):
/// every provisioned slot of the slot table occupies packet space each
/// cycle, valid or not.
#[derive(Debug)]
pub struct FixedOffsetPacker {
    slots: SlotTable,
    cores: u32,
    /// Valid payload bytes seen (for the bubble-ratio statistic).
    pub valid_bytes: u64,
    /// Total layout bytes emitted.
    pub layout_bytes: u64,
}

impl FixedOffsetPacker {
    /// Creates a fixed-offset packer over a DUT's slot provisioning.
    pub fn new(slots: SlotTable, cores: u32) -> Self {
        FixedOffsetPacker {
            slots,
            cores,
            valid_bytes: 0,
            layout_bytes: 0,
        }
    }

    /// Bytes of one per-cycle layout (all cores).
    pub fn cycle_layout_bytes(&self) -> usize {
        self.slots.fixed_layout_bytes() * self.cores as usize
    }

    /// Encodes one cycle: every slot is emitted, bubbles as zeroes.
    /// Returns the encoded layout.
    ///
    /// Events beyond a kind's slot count are dropped (hardware would have
    /// back-pressured; the DUT model already respects the budget).
    pub fn pack_cycle(&mut self, events: &[difftest_event::MonitoredEvent]) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.cycle_layout_bytes());
        let pairs: Vec<(EventKind, u8)> = self.slots.iter().collect();
        for core in 0..self.cores as u8 {
            for (kind, slots) in pairs.iter().copied() {
                let mut filled = 0u8;
                for ev in events
                    .iter()
                    .filter(|e| e.core == core && e.event.kind() == kind)
                {
                    if filled >= slots {
                        break;
                    }
                    bytes.push(1);
                    ev.event.encode_into(&mut bytes);
                    self.valid_bytes += 1 + kind.encoded_len() as u64;
                    filled += 1;
                }
                for _ in filled..slots {
                    bytes.push(0);
                    bytes.resize(bytes.len() + kind.encoded_len(), 0);
                }
            }
        }
        self.layout_bytes += bytes.len() as u64;
        bytes
    }

    /// Decodes a fixed layout back into `(core, event)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncation.
    pub fn unpack_cycle(&self, bytes: &[u8]) -> Result<Vec<(u8, Event)>, CodecError> {
        let mut r = Reader::new(bytes);
        let mut out = Vec::new();
        for core in 0..self.cores as u8 {
            for (kind, slots) in self.slots.iter() {
                for _ in 0..slots {
                    let valid = r.u8()?;
                    let payload = r.bytes_dyn(kind.encoded_len())?;
                    if valid != 0 {
                        out.push((core, Event::decode(kind, payload)?));
                    }
                }
            }
        }
        r.finish()?;
        Ok(out)
    }

    /// Fraction of emitted layout bytes that were bubbles.
    pub fn bubble_ratio(&self) -> f64 {
        if self.layout_bytes == 0 {
            0.0
        } else {
            1.0 - self.valid_bytes as f64 / self.layout_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use difftest_event::{InstrCommit, IntWriteback, MonitoredEvent, OrderTag, StoreEvent, Token};

    fn plain(core: u8, event: Event) -> WireItem {
        WireItem::Plain { core, event }
    }

    fn commit(pc: u64) -> Event {
        InstrCommit {
            pc,
            ..Default::default()
        }
        .into()
    }

    #[test]
    fn pack_unpack_identity() {
        let mut packer = BatchUnit::new(1, 4096);
        let mut unpacker = Unpacker::new(1);
        let items: Vec<WireItem> = (0..10)
            .map(|i| plain(0, commit(0x8000_0000 + 4 * i)))
            .chain((0..3).map(|i| {
                plain(
                    0,
                    StoreEvent {
                        addr: 0x8000_1000 + i,
                        data: i,
                        mask: 0xff,
                    }
                    .into(),
                )
            }))
            .collect();
        let mut out = Vec::new();
        packer.push_cycle(&items, &mut out);
        packer.flush(&mut out);
        assert_eq!(out.len(), 1);
        let back = unpacker.unpack(&out[0].bytes).unwrap();
        assert_eq!(back, items);
    }

    #[test]
    fn runs_share_meta_entries() {
        let mut packer = BatchUnit::new(1, 4096);
        let items: Vec<WireItem> = (0..5).map(|i| plain(0, commit(i))).collect();
        let mut out = Vec::new();
        packer.push_cycle(&items, &mut out);
        packer.flush(&mut out);
        // Sequence (4B) + u16 meta count + one meta entry + 5 commits +
        // CRC trailer.
        let expected =
            4 + 2 + META_ENTRY_BYTES + 5 * EventKind::InstrCommit.encoded_len() + CRC_TRAILER_BYTES;
        assert_eq!(out[0].len(), expected);
    }

    #[test]
    fn packets_split_when_full() {
        let mut packer = BatchUnit::new(1, 1024);
        let mut unpacker = Unpacker::new(1);
        let items: Vec<WireItem> = (0..200).map(|i| plain(0, commit(i))).collect();
        let mut out = Vec::new();
        packer.push_cycle(&items, &mut out);
        packer.flush(&mut out);
        assert!(out.len() > 1, "must split across packets");
        for p in &out {
            assert!(p.len() <= 1024, "packet overflow: {}", p.len());
        }
        let back: Vec<WireItem> = out
            .iter()
            .flat_map(|p| unpacker.unpack(&p.bytes).unwrap())
            .collect();
        assert_eq!(back, items);
        assert!(packer.stats().utilization() > 0.9);
    }

    #[test]
    fn out_of_order_packets_reassemble() {
        let mut packer = BatchUnit::new(1, 1024);
        let mut unpacker = Unpacker::new(1);
        let items: Vec<WireItem> = (0..200).map(|i| plain(0, commit(i))).collect();
        let mut packets = Vec::new();
        packer.push_cycle(&items, &mut packets);
        packer.flush(&mut packets);
        assert!(packets.len() >= 4, "need several packets to shuffle");
        packets.swap(1, 3);
        packets.swap(0, 2);
        let mut decoded = Vec::new();
        for p in &packets {
            decoded.extend(unpacker.unpack(&p.bytes).unwrap());
        }
        assert_eq!(
            decoded, items,
            "arrival order differs, delivery order holds"
        );
        assert_eq!(unpacker.buffered_packets(), 0);
    }

    #[test]
    fn duplicate_packet_is_a_stale_sequence_error() {
        let mut packer = BatchUnit::new(1, 4096);
        let mut unpacker = Unpacker::new(1);
        let items: Vec<WireItem> = (0..3).map(|i| plain(0, commit(i))).collect();
        let mut packets = Vec::new();
        packer.push_cycle(&items, &mut packets);
        packer.flush(&mut packets);
        unpacker.unpack(&packets[0].bytes).unwrap();
        let err = unpacker.unpack(&packets[0].bytes).unwrap_err();
        assert!(matches!(
            err,
            CodecError::StaleSequence {
                expected: 1,
                got: 0
            }
        ));
    }

    /// A packer and unpacker four packets short of the sequence wrap
    /// (seq `u32::MAX - 3` onward, so packet 4 carries seq 0).
    fn pair_at_the_wrap() -> (BatchUnit, Unpacker) {
        let mut packer = BatchUnit::new(1, 1024);
        let mut unpacker = Unpacker::new(1);
        packer.next_seq = u32::MAX - 3;
        unpacker.expected_seq = u32::MAX - 3;
        (packer, unpacker)
    }

    /// [`pair_at_the_wrap`] and the packets of 400 commits at 1 KiB each.
    fn packets_across_the_wrap() -> (Unpacker, Vec<WireItem>, Vec<Packet>) {
        let (mut packer, unpacker) = pair_at_the_wrap();
        let items: Vec<WireItem> = (0..400).map(|i| plain(0, commit(i))).collect();
        let mut packets = Vec::new();
        packer.push_cycle(&items, &mut packets);
        packer.flush(&mut packets);
        assert!(packets.len() >= 7, "need packets on both sides of the wrap");
        (unpacker, items, packets)
    }

    #[test]
    fn reorder_window_overflows_at_the_wrap_and_recovers() {
        // One commit per packet: 1 026 packets, seq u32::MAX - 3 to 1 021.
        let (mut packer, mut unpacker) = pair_at_the_wrap();
        let items: Vec<WireItem> = (0..1026).map(|i| plain(0, commit(i))).collect();
        let mut packets = Vec::new();
        for item in &items {
            packer.push_cycle(std::slice::from_ref(item), &mut packets);
            packer.flush(&mut packets);
        }
        assert_eq!(peek_packet_seq(&packets[1025].bytes), Some(1021));

        // Seq u32::MAX - 3 is held back; the next 1 024 straddle 0 and
        // fill the reorder window.
        for p in &packets[1..1025] {
            assert!(unpacker.unpack(&p.bytes).unwrap().is_empty());
        }
        assert_eq!(unpacker.buffered_packets(), 1024);
        assert_eq!(
            unpacker.unpack(&packets[1025].bytes).unwrap_err(),
            CodecError::ReorderOverflow {
                missing: u32::MAX - 3
            }
        );
        assert_eq!(
            unpacker.buffered_packets(),
            1024,
            "the overflow is not admitted"
        );

        // The held packet drains the window in order across 0, and the
        // rejected packet then decodes as the next in line.
        let mut decoded = unpacker.unpack(&packets[0].bytes).unwrap();
        assert_eq!(decoded, items[..1025]);
        assert_eq!(unpacker.buffered_packets(), 0);
        assert_eq!(unpacker.expected_seq(), 1021);
        decoded.extend(unpacker.unpack(&packets[1025].bytes).unwrap());
        assert_eq!(decoded, items);
    }

    #[test]
    fn sequence_wraps_in_order() {
        let (mut unpacker, items, packets) = packets_across_the_wrap();
        let seqs: Vec<u32> = packets
            .iter()
            .map(|p| peek_packet_seq(&p.bytes).unwrap())
            .collect();
        assert_eq!(
            seqs[..6],
            [u32::MAX - 3, u32::MAX - 2, u32::MAX - 1, u32::MAX, 0, 1]
        );
        let decoded: Vec<WireItem> = packets
            .iter()
            .flat_map(|p| unpacker.unpack(&p.bytes).unwrap())
            .collect();
        assert_eq!(decoded, items);
        assert_eq!(unpacker.expected_seq(), packets.len() as u32 - 4);
    }

    #[test]
    fn early_packets_drain_across_the_wrap_and_pre_wrap_replays_are_stale() {
        let (mut unpacker, items, packets) = packets_across_the_wrap();
        let mut decoded = Vec::new();
        for p in &packets[..3] {
            decoded.extend(unpacker.unpack(&p.bytes).unwrap());
        }
        // Seq u32::MAX goes missing; seqs 0 and 1 arrive early.
        for p in &packets[4..6] {
            assert!(unpacker.unpack(&p.bytes).unwrap().is_empty());
        }
        assert_eq!(unpacker.buffered_packets(), 2);
        assert_eq!(unpacker.expected_seq(), u32::MAX);
        decoded.extend(unpacker.unpack(&packets[3].bytes).unwrap());
        assert_eq!(unpacker.buffered_packets(), 0);
        assert_eq!(unpacker.expected_seq(), 2);
        for p in &packets[6..] {
            decoded.extend(unpacker.unpack(&p.bytes).unwrap());
        }
        assert_eq!(decoded, items);

        // A replay of a packet from before the wrap is behind the window.
        let expected = unpacker.expected_seq();
        assert_eq!(
            unpacker.unpack(&packets[2].bytes).unwrap_err(),
            CodecError::StaleSequence {
                expected,
                got: u32::MAX - 1
            }
        );
    }

    /// A meta entry naming a core the unpacker was not built for is
    /// rejected at admission, before the diff mirror is indexed by it.
    #[test]
    fn a_core_beyond_the_session_is_rejected_at_admission() {
        let mut packer = BatchUnit::new(8, 4096);
        let mut unpacker = Unpacker::new(1);
        let item = WireItem::Diff {
            core: 5,
            tag: OrderTag(0),
            token: Token(0),
            event: difftest_event::ArchIntRegState { regs: [1; 32] }.into(),
        };
        let mut out = Vec::new();
        packer.push_cycle(&[item], &mut out);
        packer.flush(&mut out);
        assert_eq!(
            unpacker.unpack(&out[0].bytes),
            Err(CodecError::BadCore { core: 5, cores: 1 })
        );
        assert_eq!(unpacker.expected_seq(), 0, "no state was touched");
    }

    #[test]
    fn diff_items_survive_packet_boundaries() {
        // Diff caches on both sides must stay in sync even when diffs land
        // in different packets.
        let mut packer = BatchUnit::new(1, 1024);
        let mut unpacker = Unpacker::new(1);
        let mut items = Vec::new();
        let mut regs = [0u64; 32];
        for i in 0..160u64 {
            regs[(i % 32) as usize] = i;
            items.push(WireItem::Diff {
                core: 0,
                tag: OrderTag(i),
                token: Token(i),
                event: difftest_event::ArchIntRegState { regs }.into(),
            });
        }
        let mut out = Vec::new();
        packer.push_cycle(&items, &mut out);
        packer.flush(&mut out);
        assert!(out.len() > 1);
        let back: Vec<WireItem> = out
            .iter()
            .flat_map(|p| unpacker.unpack(&p.bytes).unwrap())
            .collect();
        assert_eq!(back, items);
    }

    /// The tag/token header mirror under stress: two interleaved cores,
    /// Tagged and Diff items, held dumps whose tag steps backwards, a
    /// vacuous diff between two shipped ones, and tags and tokens that
    /// wrap past `u64::MAX`, over 1 KiB packets decoded in order and with
    /// adjacent packets swapped.
    #[test]
    fn header_mirror_survives_interleaving_backsteps_vacuous_diffs_and_wrap() {
        use difftest_event::ArchIntRegState;
        let base = u64::MAX - 5;
        let (mut items, mut vacuous) = (Vec::new(), None);
        let mut regs = [[0u64; 32]; 2];
        for i in 0..240u64 {
            let (core, step) = ((i % 2) as u8, i / 2);
            // Every seventh step the tag falls behind its core's previous
            // one, as when a held dump ships after a newer TLB diff.
            let back = if step % 7 == 3 { 5 } else { 0 };
            let tag = OrderTag(base.wrapping_add(2 * step).wrapping_sub(back));
            let token = Token(base.wrapping_add(3 * step));
            let event: Event = if step % 2 == 0 {
                StoreEvent {
                    addr: 0x8000_0000 + 8 * step,
                    data: step,
                    mask: 0xff,
                }
                .into()
            } else {
                // Core 1's diff at step 41 repeats its previous payload.
                if step == 41 && core == 1 {
                    vacuous = Some(items.len());
                } else {
                    regs[usize::from(core)][(step % 32) as usize] = step;
                }
                ArchIntRegState {
                    regs: regs[usize::from(core)],
                }
                .into()
            };
            items.push(match step % 2 {
                0 => WireItem::Tagged {
                    core,
                    tag,
                    token,
                    event,
                },
                _ => WireItem::Diff {
                    core,
                    tag,
                    token,
                    event,
                },
            });
        }
        let mut packer = BatchUnit::new(2, 1024);
        let mut packets = Vec::new();
        packer.push_cycle(&items, &mut packets);
        packer.flush(&mut packets);
        assert_eq!(packer.stats().diff_dropped, 1);
        assert!(packets.len() >= 4, "need several packets to swap");

        let mut expected = items;
        expected.remove(vacuous.unwrap());
        for swapped in [false, true] {
            let mut arrival: Vec<&Packet> = packets.iter().collect();
            if swapped {
                arrival.chunks_exact_mut(2).for_each(|pair| pair.swap(0, 1));
            }
            let mut unpacker = Unpacker::new(2);
            let back: Vec<WireItem> = arrival
                .iter()
                .flat_map(|p| unpacker.unpack(&p.bytes).unwrap())
                .collect();
            assert_eq!(back, expected, "adjacent packets swapped: {swapped}");
        }
    }

    /// Tagged items one tag and one token apart pay two header bytes
    /// each, not two raw `u64`s.
    #[test]
    fn tagged_headers_one_step_apart_take_two_bytes() {
        let mut packer = BatchUnit::new(1, 4096);
        let items: Vec<WireItem> = (1..=64u64)
            .map(|i| WireItem::Tagged {
                core: 0,
                tag: OrderTag(i),
                token: Token(i),
                event: StoreEvent {
                    addr: 0x8000_0000 + 8 * i,
                    data: i,
                    mask: 0xff,
                }
                .into(),
            })
            .collect();
        let mut out = Vec::new();
        packer.push_cycle(&items, &mut out);
        packer.flush(&mut out);
        assert_eq!(EventKind::StoreEvent.encoded_len(), 17);
        assert_eq!(packer.stats().payload_bytes, 64 * (17 + 2));
        let back = Unpacker::new(1).unpack(&out[0].bytes).unwrap();
        assert_eq!(back, items);
    }

    #[test]
    fn fixed_offset_round_trip_and_bubbles() {
        let slots =
            SlotTable::from_pairs(&[(EventKind::InstrCommit, 4), (EventKind::IntWriteback, 4)]);
        let mut p = FixedOffsetPacker::new(slots, 1);
        let events = vec![
            MonitoredEvent {
                core: 0,
                cycle: 0,
                order: OrderTag(0),
                token: Token(0),
                event: commit(0x8000_0000),
            },
            MonitoredEvent {
                core: 0,
                cycle: 0,
                order: OrderTag(0),
                token: Token(1),
                event: IntWriteback { idx: 3, data: 9 }.into(),
            },
        ];
        let layout = p.pack_cycle(&events);
        assert_eq!(layout.len(), p.cycle_layout_bytes());
        let back = p.unpack_cycle(&layout).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].1, events[0].event);
        // 2 of 8 slots valid: bubbles dominate.
        assert!(p.bubble_ratio() > 0.5, "bubbles {}", p.bubble_ratio());
    }

    #[test]
    fn recycles_returned_capacity() {
        let mut free = FreeList::default();
        let mut b = free.take();
        b.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let cap = b.capacity();
        assert!(cap >= 8);
        free.recycle(b);

        let b2 = free.take();
        assert!(b2.is_empty(), "recycled buffers come back cleared");
        assert!(b2.capacity() >= cap, "capacity survives the round trip");
        let s = free.stats;
        assert_eq!((s.hits, s.misses, s.returns), (1, 1, 1));
    }

    #[test]
    fn grows_past_capacity_and_discards_excess() {
        let mut free = FreeList::default();
        let bufs: Vec<Vec<u8>> = (0..DEFAULT_POOL_SLOTS + 3).map(|_| free.take()).collect();
        assert_eq!(
            free.stats.misses,
            DEFAULT_POOL_SLOTS as u64 + 3,
            "cold list allocates"
        );
        bufs.into_iter().for_each(|b| free.recycle(b));
        let s = free.stats;
        assert_eq!(
            s.returns, DEFAULT_POOL_SLOTS as u64,
            "list keeps only its cap"
        );
        assert_eq!(s.discards, 3, "excess buffers go to the allocator");
    }
}
