//! Replay: instruction-level debugging after fusion (paper §4.4).
//!
//! Fusion discards per-instruction detail. To restore it without re-running
//! the whole DUT, the hardware buffers the *original, unfused* events in a
//! token-indexed ring; when the software detects a mismatch on the fused
//! stream it reverts the REF to the last checkpoint (compensation log, see
//! `difftest_ref::Journal`), requests retransmission of the token range
//! around the failure, and reprocesses the unfused events to localize the
//! exact instruction and event.

use std::collections::VecDeque;
use std::fmt;

use difftest_event::record::{encode_record, RecordHeader, Records, RECORD_HEADER_BYTES};
use difftest_event::MonitoredEvent;

use crate::checker::Mismatch;

/// Packets the hardware side retains for link-level retransmission, in
/// addition to the event ring (which serves mismatch localization).
const DEFAULT_PACKET_RETENTION: usize = 512;

/// Size of one ring chunk. A record never straddles chunks, so a chunk
/// wastes at most one maximal record (538 B, under 1%) at its tail.
const CHUNK_BYTES: usize = 64 << 10;

/// The result of an event-range retransmission request.
#[derive(Debug, Clone, PartialEq)]
pub struct Retransmission {
    /// The buffered events with tokens in the requested range, in
    /// arrival order.
    pub events: Vec<MonitoredEvent>,
    /// `false` when part of the requested range was already evicted
    /// from the ring, so `events` silently misses the oldest tokens.
    pub complete: bool,
}

/// The hardware-side token-indexed ring of original events (paper §4.4:
/// a ring of raw event bytes). Each event is retained as one
/// [`difftest_event::record`] — header plus payload, about 165 B on a
/// XiangShan stream against 552 B for the value — appended to
/// fixed-size chunks that are recycled as eviction empties them, so a
/// full ring allocates nothing.
#[derive(Debug, Default)]
pub struct ReplayBuffer {
    /// Chunks holding records, oldest first.
    chunks: VecDeque<Vec<u8>>,
    /// Offset of the oldest record in the front chunk.
    head: usize,
    /// Emptied chunks awaiting reuse.
    spare: Vec<Vec<u8>>,
    /// Number of buffered events.
    len: usize,
    capacity: usize,
    dropped: u64,
    /// Highest token evicted from the ring, per core — lets
    /// [`retransmit`](Self::retransmit) tell a genuinely empty range
    /// from one whose events were already overwritten.
    evicted_watermark: Vec<Option<u64>>,
    /// Pristine copies of the most recent packets (recorded before the
    /// link can damage them), indexed by consecutive sequence number.
    packet_ring: VecDeque<Vec<u8>>,
    packet_first_seq: u32,
    packet_capacity: usize,
    packets_evicted: u64,
}

impl ReplayBuffer {
    /// Creates a ring retaining the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        ReplayBuffer {
            capacity: capacity.max(1),
            packet_capacity: DEFAULT_PACKET_RETENTION,
            ..ReplayBuffer::default()
        }
    }

    /// Buffers one captured event (before any optimization touches it).
    pub fn push(&mut self, ev: MonitoredEvent) {
        self.retain(&ev);
    }

    /// Buffers one cycle's captured events — what the engine's monitor
    /// phase runs every cycle. Equivalent to calling
    /// [`push`](Self::push) once per event.
    pub fn push_slice(&mut self, events: &[MonitoredEvent]) {
        for ev in events {
            self.retain(ev);
        }
    }

    /// Encodes `ev` at the tail, evicting the oldest event when full.
    fn retain(&mut self, ev: &MonitoredEvent) {
        if self.len == self.capacity {
            self.evict_oldest();
        }
        let need = RECORD_HEADER_BYTES + ev.encoded_len();
        if !matches!(self.chunks.back(), Some(c) if c.len() + need <= CHUNK_BYTES) {
            let fresh = self.spare.pop();
            self.chunks
                .push_back(fresh.unwrap_or_else(|| Vec::with_capacity(CHUNK_BYTES)));
        }
        if let Some(chunk) = self.chunks.back_mut() {
            encode_record(ev, chunk);
            self.len += 1;
        }
    }

    /// Drops the front record, reading its header only: the kind gives
    /// the length, core and token feed the watermark.
    fn evict_oldest(&mut self) {
        while let Some(chunk) = self.chunks.front() {
            let head = self.head;
            if let Ok((old, len)) = RecordHeader::read(chunk.get(head..).unwrap_or_default()) {
                let idx = old.core as usize;
                if self.evicted_watermark.len() <= idx {
                    self.evicted_watermark.resize(idx + 1, None);
                }
                let slot = &mut self.evicted_watermark[idx];
                *slot = Some(slot.map_or(old.token.0, |w| w.max(old.token.0)));
                // From the local, not `+=` on the field: that form let
                // the head and len updates fuse into one 16-byte load and
                // store, measured slower on xs_squash_engine's retain.
                self.head = head + len;
                self.len -= 1;
                self.dropped += 1;
                return;
            }
            // The front chunk is spent: recycle it.
            self.head = 0;
            if let Some(mut spent) = self.chunks.pop_front() {
                spent.clear();
                self.spare.push(spent);
            }
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events evicted because the ring overflowed (the `replay.dropped`
    /// counter).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retransmits the buffered events with tokens in `[from, to]`, for one
    /// core, in arrival order (which is token order per core), decoding
    /// them from the ring on demand. Tokens also filter out unrelated
    /// events that arrived between the failure and the replay request
    /// (paper §4.4). The result is marked incomplete when the requested
    /// range overlaps tokens already evicted from the ring — the caller
    /// must then treat any localization as partial rather than silently
    /// trusting a truncated replay.
    pub fn retransmit(&self, core: u8, from: u64, to: u64) -> Retransmission {
        let mut events = Vec::new();
        let mut at = self.head;
        for chunk in &self.chunks {
            let records = Records::new(chunk.get(at..).unwrap_or_default());
            for rec in records.map_while(Result::ok) {
                if rec.header.core == core && (from..=to).contains(&rec.header.token.0) {
                    events.push(rec.to_monitored());
                }
            }
            at = 0;
        }
        let complete = match self.evicted_watermark.get(core as usize).copied().flatten() {
            // Tokens up to the watermark are gone; if the range starts
            // at or below it, its oldest events may be missing.
            Some(watermark) => from > watermark,
            None => true,
        };
        Retransmission { events, complete }
    }

    /// Retains a pristine copy of an outgoing packet for link-level
    /// retransmission. Sequence numbers must be consecutive (they are —
    /// the packer stamps them); a discontinuity resets the ring.
    pub fn record_packet(&mut self, seq: u32, bytes: &[u8]) {
        let next = self
            .packet_first_seq
            .wrapping_add(self.packet_ring.len() as u32);
        if self.packet_ring.is_empty() || seq != next {
            self.packets_evicted += self.packet_ring.len() as u64;
            self.packet_ring.clear();
            self.packet_first_seq = seq;
        }
        // A full ring's evicted packet lends its buffer to the new one.
        let mut copy = Vec::new();
        if self.packet_ring.len() == self.packet_capacity {
            copy = self.packet_ring.pop_front().unwrap_or_default();
            copy.clear();
            self.packet_first_seq = self.packet_first_seq.wrapping_add(1);
            self.packets_evicted += 1;
        }
        copy.extend_from_slice(bytes);
        self.packet_ring.push_back(copy);
    }

    /// The retained copy of packet `seq`, if it has not been evicted.
    pub fn retransmit_packet(&self, seq: u32) -> Option<&[u8]> {
        let offset = seq.wrapping_sub(self.packet_first_seq) as usize;
        self.packet_ring.get(offset).map(Vec::as_slice)
    }

    /// The sequence number after the newest retained packet — i.e. how
    /// far the sender's packet stream has advanced. At end of stream, a
    /// receiver expecting less than this has lost tail packets.
    pub fn next_packet_seq(&self) -> Option<u32> {
        if self.packet_ring.is_empty() {
            None
        } else {
            Some(
                self.packet_first_seq
                    .wrapping_add(self.packet_ring.len() as u32),
            )
        }
    }

    /// Packets no longer available for retransmission.
    pub fn packets_evicted(&self) -> u64 {
        self.packets_evicted
    }

    /// Packets currently retained for retransmission.
    pub fn packets_retained(&self) -> usize {
        self.packet_ring.len()
    }
}

/// The outcome of a Replay pass: the coarse (fused-stream) mismatch and the
/// precise instruction-level localization recovered from unfused events.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureReport {
    /// The mismatch observed on the optimized stream.
    pub coarse: Mismatch,
    /// The precise mismatch found by reprocessing unfused events, when the
    /// replay pass reproduced one.
    pub precise: Option<Mismatch>,
    /// Token range retransmitted.
    pub token_range: (u64, u64),
    /// Number of unfused events reprocessed.
    pub replayed_events: usize,
    /// `true` when the requested token range overlapped events already
    /// evicted from the replay ring, so the localization ran on an
    /// incomplete event set (see `replay.dropped`).
    pub partial: bool,
}

impl fmt::Display for FailureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "co-simulation mismatch (fused stream): {}", self.coarse)?;
        writeln!(
            f,
            "replayed {} unfused events over tokens [{}, {}]{}",
            self.replayed_events,
            self.token_range.0,
            self.token_range.1,
            if self.partial {
                " (PARTIAL: range overlaps evicted events)"
            } else {
                ""
            }
        )?;
        match &self.precise {
            Some(p) => write!(f, "instruction-level localization: {p}"),
            None => write!(f, "replay pass did not reproduce the mismatch"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use difftest_event::{InstrCommit, OrderTag, Token};

    fn ev(core: u8, token: u64) -> MonitoredEvent {
        MonitoredEvent {
            core,
            cycle: token,
            order: OrderTag(token),
            token: Token(token),
            event: InstrCommit::default().into(),
        }
    }

    /// The independent oracle: the ring as a deque of event values with
    /// pop-front eviction.
    #[derive(Default)]
    struct Model {
        ring: VecDeque<MonitoredEvent>,
        dropped: u64,
        watermark: [Option<u64>; 2],
    }

    impl Model {
        fn push(&mut self, cap: usize, ev: &MonitoredEvent) {
            if self.ring.len() == cap {
                let old = self.ring.pop_front().unwrap();
                let w = &mut self.watermark[old.core as usize];
                *w = Some(w.map_or(old.token.0, |w| w.max(old.token.0)));
                self.dropped += 1;
            }
            self.ring.push_back(ev.clone());
        }

        fn retransmit_all(&self, core: u8) -> Retransmission {
            Retransmission {
                events: self
                    .ring
                    .iter()
                    .filter(|e| e.core == core)
                    .cloned()
                    .collect(),
                complete: self.watermark[core as usize].is_none(),
            }
        }
    }

    #[test]
    fn push_slice_matches_per_event_push() {
        // Batches straddling every eviction regime: empty ring, partial
        // overflow, and a batch larger than the whole ring.
        for (cap, batches) in [
            (4usize, vec![3usize, 3, 3]),
            (4, vec![6]),
            (2, vec![1, 5, 1]),
            (8, vec![2, 2, 2]),
        ] {
            let mut a = ReplayBuffer::new(cap);
            let mut b = ReplayBuffer::new(cap);
            let mut model = Model::default();
            let mut t = 0u64;
            for n in batches {
                let evs: Vec<MonitoredEvent> =
                    (0..n).map(|i| ev((i % 2) as u8, t + i as u64)).collect();
                t += n as u64;
                for e in &evs {
                    a.push(e.clone());
                    model.push(cap, e);
                }
                b.push_slice(&evs);
                for rb in [&a, &b] {
                    assert_eq!(rb.len(), model.ring.len(), "cap {cap}");
                    assert_eq!(rb.dropped(), model.dropped, "cap {cap}");
                    for core in 0..2 {
                        let got = rb.retransmit(core, 0, u64::MAX);
                        assert_eq!(got, model.retransmit_all(core), "cap {cap} core {core}");
                    }
                }
            }
        }
    }

    #[test]
    fn retransmit_filters_by_core_and_token() {
        let mut rb = ReplayBuffer::new(100);
        for t in 0..20 {
            rb.push(ev((t % 2) as u8, t));
        }
        let got = rb.retransmit(0, 4, 12);
        assert!(got.complete);
        let tokens: Vec<u64> = got.events.iter().map(|e| e.token.0).collect();
        assert_eq!(tokens, vec![4, 6, 8, 10, 12]);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut rb = ReplayBuffer::new(4);
        for t in 0..10 {
            rb.push(ev(0, t));
        }
        assert_eq!(rb.len(), 4);
        assert_eq!(rb.dropped(), 6);
        assert!(rb.retransmit(0, 0, 5).events.is_empty());
        assert_eq!(rb.retransmit(0, 6, 9).events.len(), 4);
    }

    #[test]
    fn retransmit_marks_evicted_overlap_partial() {
        let mut rb = ReplayBuffer::new(4);
        for t in 0..10 {
            rb.push(ev(0, t));
        }
        // Tokens 0..=5 were evicted; any range reaching into them is
        // partial even though it silently returns fewer events.
        assert!(!rb.retransmit(0, 0, 9).complete);
        assert!(!rb.retransmit(0, 5, 9).complete);
        // A range entirely above the watermark is complete.
        assert!(rb.retransmit(0, 6, 9).complete);
        // Eviction on core 0 does not taint core 1 requests.
        rb.push(ev(1, 100));
        assert!(rb.retransmit(1, 90, 110).complete);
    }

    #[test]
    fn packet_ring_retains_and_evicts() {
        let mut rb = ReplayBuffer::new(16);
        for seq in 0..5u32 {
            rb.record_packet(seq, &[seq as u8; 8]);
        }
        assert_eq!(rb.packets_retained(), 5);
        assert_eq!(rb.retransmit_packet(3), Some(&[3u8; 8][..]));
        assert_eq!(rb.retransmit_packet(5), None);
        // A sequence discontinuity defensively resets the ring.
        rb.record_packet(42, &[9; 4]);
        assert_eq!(rb.packets_retained(), 1);
        assert_eq!(rb.packets_evicted(), 5);
        assert_eq!(rb.retransmit_packet(42), Some(&[9u8; 4][..]));
        assert_eq!(rb.retransmit_packet(3), None);
    }

    #[test]
    fn packet_ring_spans_the_sequence_wrap() {
        let mut rb = ReplayBuffer::new(16);
        rb.packet_capacity = 4;
        let seqs: Vec<u32> = (0..6).map(|i| (u32::MAX - 3).wrapping_add(i)).collect();
        for (i, &seq) in seqs.iter().enumerate() {
            rb.record_packet(seq, &[i as u8; 8]);
        }
        // Consecutive across the wrap: no reset, two evicted by capacity.
        assert_eq!(rb.packets_retained(), 4);
        assert_eq!(rb.packets_evicted(), 2);
        assert_eq!(rb.next_packet_seq(), Some(2));
        for (i, &seq) in seqs.iter().enumerate() {
            let bytes = [i as u8; 8];
            let want = (i >= 2).then_some(&bytes[..]);
            assert_eq!(rb.retransmit_packet(seq), want, "seq {seq}");
        }
        assert_eq!(rb.retransmit_packet(2), None);
    }
}
