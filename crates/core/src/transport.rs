//! The acceleration unit and its software receiver.
//!
//! [`AccelUnit`] is the hardware-side pipeline selected by the
//! configuration:
//!
//! - **per-event** (baseline DiffTest): every captured event is its own
//!   DPI-style transfer,
//! - **batch**: tight packing into transmission packets (paper §4.2),
//! - **squash+batch**: order-decoupled fusion and differencing first, then
//!   tight packing (paper §4.3 + §4.2).
//!
//! Its input is one DUT cycle's capture arena of
//! [`difftest_event::record`]s, read in place: every mode copies (or
//! differences) payload bytes it already has, none re-encodes an event.
//!
//! [`SwUnit`] is the matching software-side receiver: it admits a
//! transfer and streams its items to [`crate::Consumer`] as borrowed
//! [`WireItemRef`] views.

use difftest_event::record::Records;
use difftest_event::wire::{append_crc_frame, verify_crc_frame, CodecError, Reader};
use difftest_event::{EventKind, EventRef};

use crate::batch::{BatchUnit, FreeList, PackStats, Packet, PoolStats, Unpacker};
use crate::squash::{SquashStats, SquashUnit};
use crate::wire::WireItemRef;

/// One hardware→software transfer (one communication startup).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// The raw bytes crossing the link. Once they are written or
    /// checked, [`AccelUnit::recycle`] takes the buffer back for a later
    /// transfer.
    pub bytes: Vec<u8>,
    /// The DUT core this transfer is attributed to: the event's own
    /// core for a per-event transfer, 0 for a packet (its items
    /// interleave every core and carry their own ids). The DTH frame
    /// carries it, and link errors and flight records name it.
    pub core: u8,
    /// Decoded wire items (count), for statistics.
    pub items: u32,
}

#[derive(Debug)]
enum HwMode {
    /// Per-event transfers draw their buffers from this free list.
    PerEvent(FreeList),
    Batch(BatchUnit),
    SquashBatch(SquashUnit, BatchUnit),
}

/// The hardware-side acceleration unit.
#[derive(Debug)]
pub struct AccelUnit {
    mode: HwMode,
    packet_buf: Vec<Packet>,
}

impl AccelUnit {
    /// Baseline: one transfer per verification event.
    pub fn per_event() -> Self {
        AccelUnit {
            mode: HwMode::PerEvent(FreeList::default()),
            packet_buf: Vec::new(),
        }
    }

    /// Batch only: tight packing of plain events.
    pub fn batch(cores: usize, packet_bytes: usize) -> Self {
        AccelUnit {
            mode: HwMode::Batch(BatchUnit::new(cores, packet_bytes)),
            packet_buf: Vec::new(),
        }
    }

    /// Squash + Batch: fusion (order-coupled, for the prior-work
    /// baseline, or not) and differencing (on or off, for the ablations)
    /// feeding the tight packer.
    pub fn squash_batch_with(
        cores: usize,
        packet_bytes: usize,
        fusion_window: u32,
        order_coupled: bool,
        differencing: bool,
    ) -> Self {
        let mut squash = SquashUnit::new(cores, fusion_window);
        squash.set_order_coupled(order_coupled);
        squash.set_differencing(differencing);
        AccelUnit {
            mode: HwMode::SquashBatch(squash, BatchUnit::new(cores, packet_bytes)),
            packet_buf: Vec::new(),
        }
    }

    /// Hands a spent transfer buffer back to the free list its
    /// transfers are drawn from.
    pub fn recycle(&mut self, buf: Vec<u8>) {
        match &mut self.mode {
            HwMode::PerEvent(free) => free.recycle(buf),
            HwMode::Batch(b) | HwMode::SquashBatch(_, b) => b.recycle(buf),
        }
    }

    /// Buffer-recycling counters of that free list.
    pub fn pool_stats(&self) -> PoolStats {
        match &self.mode {
            HwMode::PerEvent(free) => free.stats,
            HwMode::Batch(b) | HwMode::SquashBatch(_, b) => b.pool_stats(),
        }
    }

    /// Squash statistics, when the unit fuses.
    pub fn squash_stats(&self) -> Option<SquashStats> {
        match &self.mode {
            HwMode::SquashBatch(s, _) => Some(*s.stats()),
            _ => None,
        }
    }

    /// Packing statistics, when the unit packs.
    pub fn pack_stats(&self) -> Option<PackStats> {
        match &self.mode {
            HwMode::Batch(b) | HwMode::SquashBatch(_, b) => Some(*b.stats()),
            HwMode::PerEvent(_) => None,
        }
    }

    /// Processes one DUT cycle's records, appending completed transfers.
    pub fn push_records(&mut self, records: &[u8], out: &mut Vec<Transfer>) {
        // `Records` ends after its first error, so each arm walks it
        // with `while let Some(Ok(..))`: the same stop as
        // `map_while(Result::ok)`, without an adapter whose `next` the
        // optimizer may leave out of line.
        let mut records = Records::new(records);
        match &mut self.mode {
            HwMode::PerEvent(free) => {
                // A transfer is the record's core and kind bytes, its
                // payload and the CRC trailer.
                while let Some(Ok(rec)) = records.next() {
                    let payload = rec.payload.wire_bytes();
                    let mut bytes = free.take();
                    bytes.reserve(2 + payload.len() + 4);
                    bytes.push(rec.header.core);
                    bytes.push(rec.header.kind as u8);
                    bytes.extend_from_slice(payload);
                    append_crc_frame(&mut bytes);
                    out.push(Transfer {
                        bytes,
                        // Single-event transfers carry exactly one core's
                        // event, so the transfer's core is the event's own.
                        core: rec.header.core,
                        items: 1,
                    });
                }
            }
            HwMode::Batch(batch) => {
                // Each payload is copied straight into the packer's
                // payload buffer: no WireItem staging.
                while let Some(Ok(rec)) = records.next() {
                    batch.push_payload(rec.header.core, rec.payload, &mut self.packet_buf);
                }
                drain_packets(&mut self.packet_buf, out);
            }
            HwMode::SquashBatch(squash, batch) => {
                // Squash lends each record (and each closed window) to
                // the packer, which packs it in place: no WireItem
                // staging.
                let mut sink = batch.sink(&mut self.packet_buf);
                while let Some(Ok(rec)) = records.next() {
                    squash.push_record(&rec, &mut sink);
                }
                squash.on_cycle_end(&mut sink);
                drain_packets(&mut self.packet_buf, out);
            }
        }
    }

    /// Flushes all buffered state (fusion windows, partial packets).
    pub fn flush(&mut self, out: &mut Vec<Transfer>) {
        match &mut self.mode {
            HwMode::PerEvent(_) => {}
            HwMode::Batch(batch) => {
                batch.flush(&mut self.packet_buf);
                drain_packets(&mut self.packet_buf, out);
            }
            HwMode::SquashBatch(squash, batch) => {
                squash.flush_all(&mut batch.sink(&mut self.packet_buf));
                batch.flush(&mut self.packet_buf);
                drain_packets(&mut self.packet_buf, out);
            }
        }
    }
}

fn drain_packets(packets: &mut Vec<Packet>, out: &mut Vec<Transfer>) {
    for p in packets.drain(..) {
        out.push(Transfer {
            items: p.items,
            bytes: p.bytes,
            core: 0,
        });
    }
}

#[derive(Debug)]
enum SwMode {
    /// Per-event transfers from a session of this many cores.
    PerEvent(usize),
    Packed(Unpacker),
}

/// The software-side receiver matching an [`AccelUnit`].
#[derive(Debug)]
pub struct SwUnit {
    mode: SwMode,
}

impl SwUnit {
    /// Receiver for the per-event baseline from `cores` cores.
    pub fn per_event(cores: usize) -> Self {
        SwUnit {
            mode: SwMode::PerEvent(cores),
        }
    }

    /// Receiver for packed transfers (Batch with or without Squash).
    pub fn packed(cores: usize) -> Self {
        SwUnit {
            mode: SwMode::Packed(Unpacker::new(cores)),
        }
    }

    /// Packets held back waiting for a sequence gap (packed mode only).
    pub fn buffered_packets(&self) -> usize {
        match &self.mode {
            SwMode::PerEvent(_) => 0,
            SwMode::Packed(u) => u.buffered_packets(),
        }
    }

    /// Next packet sequence number the receiver expects (packed mode
    /// only; per-event transfers carry no sequence numbers). Recovery
    /// paths use this to identify which packet a detected gap is
    /// waiting on.
    pub fn expected_seq(&self) -> Option<u32> {
        match &self.mode {
            SwMode::PerEvent(_) => None,
            SwMode::Packed(u) => Some(u.expected_seq()),
        }
    }

    /// Admits one transfer: CRC verification, sequence bookkeeping, and
    /// structural validation, each item's core included — everything
    /// that can fail — without materializing a single event. Returns the
    /// validated body for
    /// [`visit_admitted`](Self::visit_admitted), or `None` when a packed
    /// transfer arrived early and was buffered.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on corrupt, malformed, or stale transfers.
    pub fn admit<'a>(&mut self, transfer: &'a Transfer) -> Result<Option<&'a [u8]>, CodecError> {
        match &mut self.mode {
            SwMode::PerEvent(cores) => {
                let body = verify_crc_frame(&transfer.bytes)?;
                let core = per_event_item(body)?.core();
                if core as usize >= *cores {
                    let cores = *cores;
                    return Err(CodecError::BadCore { core, cores });
                }
                Ok(Some(body))
            }
            SwMode::Packed(unpacker) => unpacker.admit(&transfer.bytes),
        }
    }

    /// Streams the admitted body's items through `visit` as borrowed
    /// [`WireItemRef`] views reading straight from the transfer bytes.
    /// `body` must be the slice [`admit`](Self::admit) just returned.
    /// Returns the number of items visited; `visit` returns `false` to
    /// stop early.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on malformed bodies — unreachable for
    /// bodies that passed admission.
    pub fn visit_admitted<F>(&mut self, body: &[u8], visit: &mut F) -> Result<usize, CodecError>
    where
        F: FnMut(WireItemRef<'_>) -> bool,
    {
        match &mut self.mode {
            SwMode::PerEvent(_) => {
                visit(per_event_item(body)?);
                Ok(1)
            }
            SwMode::Packed(unpacker) => unpacker.visit_admitted(body, visit),
        }
    }
}

/// The one item of a per-event transfer's body: core, kind, payload.
fn per_event_item(body: &[u8]) -> Result<WireItemRef<'_>, CodecError> {
    let mut r = Reader::new(body);
    let core = r.u8()?;
    let kind = EventKind::from_u8(r.u8()?)?;
    let event = EventRef::parse(kind, r.bytes_dyn(kind.encoded_len())?)?;
    r.finish()?;
    Ok(WireItemRef::Plain { core, event })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireItem;
    use difftest_event::{Event, InstrCommit, MonitoredEvent, OrderTag, Token};

    /// Admits `t` and materializes the items it releases.
    fn decode(sw: &mut SwUnit, t: &Transfer) -> Result<Vec<WireItem>, CodecError> {
        let mut items = Vec::new();
        if let Some(body) = sw.admit(t)? {
            sw.visit_admitted(body, &mut |item: WireItemRef<'_>| {
                items.push(item.into_item());
                true
            })?;
        }
        Ok(items)
    }

    fn mev(core: u8, seq: u64, pc: u64) -> MonitoredEvent {
        MonitoredEvent {
            core,
            cycle: seq,
            order: OrderTag(seq),
            token: Token(seq),
            event: InstrCommit {
                pc,
                ..Default::default()
            }
            .into(),
        }
    }

    #[test]
    fn per_event_round_trip() {
        let mut hw = AccelUnit::per_event();
        let mut sw = SwUnit::per_event(2);
        let events = vec![mev(0, 0, 0x8000_0000), mev(1, 0, 0x8000_0004)];
        let mut transfers = Vec::new();
        hw.push_cycle(&events, &mut transfers);
        assert_eq!(transfers.len(), 2);
        let items = decode(&mut sw, &transfers[1]).unwrap();
        assert_eq!(items.len(), 1);
        match &items[0] {
            WireItem::Plain { core, event } => {
                assert_eq!(*core, 1);
                assert_eq!(event.kind(), EventKind::InstrCommit);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn per_event_transfers_carry_event_core() {
        // Regression: per-event mode used to stamp one unit-wide core
        // on every transfer, so `Transfer::core` lied for multi-core
        // Z-config streams.
        let mut hw = AccelUnit::per_event();
        let events = vec![
            mev(0, 0, 0x8000_0000),
            mev(2, 0, 0x8000_0004),
            mev(1, 1, 0x8000_0008),
        ];
        let mut transfers = Vec::new();
        hw.push_cycle(&events, &mut transfers);
        let cores: Vec<u8> = transfers.iter().map(|t| t.core).collect();
        assert_eq!(cores, vec![0, 2, 1]);
    }

    #[test]
    fn per_event_corruption_detected() {
        let mut hw = AccelUnit::per_event();
        let mut sw = SwUnit::per_event(1);
        let mut transfers = Vec::new();
        hw.push_cycle(&[mev(0, 0, 0x8000_0000)], &mut transfers);
        let mut bad = transfers[0].clone();
        bad.bytes[3] ^= 0x40;
        assert!(matches!(
            decode(&mut sw, &bad),
            Err(CodecError::CrcMismatch { .. })
        ));
        // The pristine transfer still decodes.
        assert_eq!(decode(&mut sw, &transfers[0]).unwrap().len(), 1);
    }

    #[test]
    fn batch_round_trip_across_cycles() {
        let mut hw = AccelUnit::batch(1, 1024);
        let mut sw = SwUnit::packed(1);
        let mut transfers = Vec::new();
        let mut sent = Vec::new();
        for cycle in 0..100u64 {
            let evs = vec![mev(0, cycle, 0x8000_0000 + 4 * cycle)];
            sent.extend(evs.iter().map(|e| e.event.clone()));
            hw.push_cycle(&evs, &mut transfers);
        }
        hw.flush(&mut transfers);
        assert!(transfers.len() < 100, "packing must reduce transfers");
        let got: Vec<Event> = transfers
            .iter()
            .flat_map(|t| decode(&mut sw, t).unwrap())
            .map(|i| match i {
                WireItem::Plain { event, .. } => event,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(got, sent);
    }

    #[test]
    fn squash_batch_reduces_bytes() {
        let mut plain = AccelUnit::batch(1, 4096);
        let mut squashed = AccelUnit::squash_batch_with(1, 4096, 32, false, true);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for cycle in 0..500u64 {
            let evs = vec![mev(0, cycle, 0x8000_0000 + 4 * cycle)];
            plain.push_cycle(&evs, &mut a);
            squashed.push_cycle(&evs, &mut b);
        }
        plain.flush(&mut a);
        squashed.flush(&mut b);
        let bytes = |ts: &[Transfer]| ts.iter().map(|t| t.bytes.len()).sum::<usize>();
        assert!(
            bytes(&b) * 4 < bytes(&a),
            "squash {} vs plain {}",
            bytes(&b),
            bytes(&a)
        );
    }
}
