//! Replay: instruction-level debugging after fusion (paper §4.4).
//!
//! Fusion discards per-instruction detail. To restore it without re-running
//! the whole DUT, the hardware buffers the *original, unfused* events in a
//! token-indexed ring; when the software detects a mismatch on the fused
//! stream it reverts the REF to the last checkpoint (compensation log, see
//! `difftest_ref::Journal`), requests retransmission of the token range
//! around the failure, and re-checks the unfused events to localize the
//! exact instruction and event. The ring retains the monitor's records
//! by copying their bytes, and the retransmission hands the checker those
//! records as they lie, viewed in place.
//!
//! Only the tokens from the checker's last checkpoint on can ever be
//! retransmitted, so the ring holds just those: once the checkpoint of
//! every core a chunk holds has passed all of its records, the consumer
//! [`release`](ReplayBuffer::release)s the whole chunk, as §4.4's
//! hardware frees entries once software has moved on. The capacity is
//! only a memory ceiling, evicting the oldest record on overflow.

use std::collections::VecDeque;
use std::fmt;

use difftest_event::record::{RecordHeader, RecordRef, Records};

use crate::checker::Mismatch;

/// Packets the hardware side retains for link-level retransmission, in
/// addition to the event ring (which serves mismatch localization).
const DEFAULT_PACKET_RETENTION: usize = 512;

/// Size of one ring chunk. A record never straddles chunks, so a chunk
/// wastes at most one maximal record (538 B, under 1%) at its tail.
const CHUNK_BYTES: usize = 64 << 10;

/// The result of an event-range retransmission request, borrowed from
/// the ring.
#[derive(Debug, Clone)]
pub struct Retransmission<'a> {
    /// The buffered records with tokens in the requested range, in
    /// arrival order, viewed in the ring.
    pub records: Vec<RecordRef<'a>>,
    /// `false` when part of the requested range was already evicted
    /// from the ring, so `records` silently misses the oldest tokens.
    pub complete: bool,
}

/// One fixed-size block of the ring, with what release needs to know
/// of its records without walking them.
#[derive(Debug, Default)]
struct Chunk {
    bytes: Vec<u8>,
    /// Records still in the chunk: overflow eviction takes them from
    /// the front one at a time.
    live: usize,
    /// Newest token the chunk holds, per core.
    newest: Vec<Option<u64>>,
}

/// The hardware-side token-indexed ring of original events (paper §4.4:
/// a ring of raw event bytes). Each event is retained as the monitor
/// captured it, one [`difftest_event::record`] — header plus payload,
/// about 165 B on a XiangShan stream — copied into fixed-size chunks.
/// It holds what a localization can still request: whole chunks are
/// [`release`](Self::release)d once every core's checkpoint has passed
/// them, and the capacity is an overflow ceiling that evicts the oldest
/// record. Released and emptied chunks are recycled, metadata and all,
/// so a steady-state ring allocates nothing.
#[derive(Debug, Default)]
pub struct ReplayBuffer {
    /// Chunks holding records, oldest first.
    chunks: VecDeque<Chunk>,
    /// Offset of the oldest record in the front chunk.
    head: usize,
    /// Emptied chunks awaiting reuse.
    spare: Vec<Chunk>,
    /// Number of buffered events.
    len: usize,
    /// The largest `len` so far (the `replay.high_water` counter).
    high_water: usize,
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
    /// Creates a ring retaining at most the `capacity` most recent
    /// events: a memory ceiling, not the working set, which
    /// [`release`](Self::release) keeps far below it.
    pub fn new(capacity: usize) -> Self {
        ReplayBuffer {
            capacity: capacity.max(1),
            packet_capacity: DEFAULT_PACKET_RETENTION,
            ..ReplayBuffer::default()
        }
    }

    /// Retains one cycle's capture arena: its records, before any
    /// optimization touches them, copied to the tail as they lie,
    /// evicting the oldest when full. Each step copies the longest run
    /// of whole records that fits both the back chunk and the remaining
    /// capacity in one piece, then opens a fresh chunk or evicts the
    /// oldest record. The walk reads headers only, for lengths, cores
    /// and tokens.
    pub fn push_records(&mut self, mut records: &[u8]) {
        loop {
            let free = self.capacity - self.len;
            let (count, next) = match self.chunks.back_mut() {
                Some(chunk) => {
                    let room = CHUNK_BYTES.saturating_sub(chunk.bytes.len());
                    let (run, count, next) = run_of(records, room, free, &mut chunk.newest);
                    let (run, rest) = records.split_at(run);
                    chunk.bytes.extend_from_slice(run);
                    chunk.live += count;
                    records = rest;
                    (count, next)
                }
                None => {
                    let (_, count, next) = run_of(records, 0, free, &mut Vec::new());
                    (count, next)
                }
            };
            self.len += count;
            match next {
                Next::End => break,
                Next::Full => self.evict_oldest(),
                Next::NoRoom => {
                    let fresh = self.spare.pop().unwrap_or_else(|| Chunk {
                        bytes: Vec::with_capacity(CHUNK_BYTES),
                        ..Chunk::default()
                    });
                    self.chunks.push_back(fresh);
                }
            }
        }
        self.high_water = self.high_water.max(self.len);
    }

    /// Drops the front record, reading its header only: the kind gives
    /// the length, core and token feed the watermark.
    fn evict_oldest(&mut self) {
        while let Some(chunk) = self.chunks.front_mut() {
            let head = self.head;
            if let Ok((old, len)) = RecordHeader::read(chunk.bytes.get(head..).unwrap_or_default())
            {
                chunk.live -= 1;
                raise(&mut self.evicted_watermark, old.core, old.token.0);
                // From the local, not `+=` on the field: that form let
                // the head and len updates fuse into one 16-byte load and
                // store, measured slower on xs_squash_engine's retain.
                self.head = head + len;
                self.len -= 1;
                self.dropped += 1;
                return;
            }
            // The front chunk is spent: recycle it.
            self.recycle_front();
        }
    }

    /// Releases the front chunks a localization can no longer ask for:
    /// those whose records of every core lie below that core's `floor`
    /// (the token its replay would start from, `None` before its first
    /// checkpoint). The chunk being filled stays, and a chunk holding
    /// records of a core without a floor stays. Each released core's
    /// eviction watermark rises to the chunk's newest token, so a
    /// retransmission from a floor that ever moved backwards reports
    /// itself incomplete. Not an overflow: [`dropped`](Self::dropped)
    /// stays as it is.
    pub fn release(&mut self, floor: impl Fn(u8) -> Option<u64>) {
        while self.chunks.len() > 1 {
            let Some(chunk) = self.chunks.front() else {
                return;
            };
            let passed = chunk.newest.iter().enumerate().all(|(core, newest)| {
                newest.is_none_or(|t| floor(core as u8).is_some_and(|f| t < f))
            });
            if !passed {
                return;
            }
            for (core, newest) in chunk.newest.iter().enumerate() {
                if let Some(t) = *newest {
                    raise(&mut self.evicted_watermark, core as u8, t);
                }
            }
            self.len -= chunk.live;
            self.recycle_front();
        }
    }

    /// Moves the front chunk, emptied, to the spares.
    fn recycle_front(&mut self) {
        self.head = 0;
        if let Some(mut spent) = self.chunks.pop_front() {
            spent.bytes.clear();
            spent.live = 0;
            spent.newest.fill(None);
            self.spare.push(spent);
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
    /// counter); [`release`](Self::release)d events are not counted.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The most events the ring has held at once (the
    /// `replay.high_water` counter).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Retransmits the buffered events with tokens in `[from, to]`, for one
    /// core, in arrival order (which is token order per core), as the
    /// ring's records: each equals its captured event under
    /// [`RecordRef::to_monitored`]. Tokens also filter out unrelated
    /// events that arrived between the failure and the replay request
    /// (paper §4.4). The result is marked incomplete when the requested
    /// range overlaps tokens already evicted from the ring — the caller
    /// must then treat any localization as partial rather than silently
    /// trusting a truncated replay.
    pub fn retransmit(&self, core: u8, from: u64, to: u64) -> Retransmission<'_> {
        let mut records = Vec::new();
        let mut at = self.head;
        for chunk in &self.chunks {
            let walk = Records::new(chunk.bytes.get(at..).unwrap_or_default());
            for rec in walk.map_while(Result::ok) {
                if rec.header.core == core && (from..=to).contains(&rec.header.token.0) {
                    records.push(rec);
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
        Retransmission { records, complete }
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

    /// Packets no longer available for retransmission.
    pub fn packets_evicted(&self) -> u64 {
        self.packets_evicted
    }

    /// Packets currently retained for retransmission.
    pub fn packets_retained(&self) -> usize {
        self.packet_ring.len()
    }
}

/// What ends a run of records at the front of an arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Next {
    /// No whole record follows: the arena is spent (or malformed).
    End,
    /// The ring holds its capacity: the oldest record must go first.
    Full,
    /// The next record does not fit the back chunk.
    NoRoom,
}

/// The longest run of whole records at the front of `records` that
/// fits `room` bytes and `free` records: its byte length, its record
/// count and what stops it. Raises `newest` to each core's newest token
/// in the run, once per stretch of one core's records (an arena holds
/// each core's records together).
fn run_of(
    records: &[u8],
    room: usize,
    free: usize,
    newest: &mut Vec<Option<u64>>,
) -> (usize, usize, Next) {
    let (mut run, mut count) = (0, 0);
    let mut stretch: Option<(u8, u64)> = None;
    let next = loop {
        let rest = records.get(run..).unwrap_or_default();
        let Ok((header, len)) = RecordHeader::read(rest) else {
            break Next::End;
        };
        if len > rest.len() {
            break Next::End;
        }
        if count == free {
            break Next::Full;
        }
        if run + len > room {
            break Next::NoRoom;
        }
        let (core, token) = (header.core, header.token.0);
        stretch = match stretch {
            Some((c, t)) if c == core => Some((c, t.max(token))),
            done => {
                if let Some((c, t)) = done {
                    raise(newest, c, t);
                }
                Some((core, token))
            }
        };
        run += len;
        count += 1;
    };
    if let Some((c, t)) = stretch {
        raise(newest, c, t);
    }
    (run, count, next)
}

/// Raises `core`'s entry of a per-core token maximum to `token`.
fn raise(per_core: &mut Vec<Option<u64>>, core: u8, token: u64) {
    let idx = core as usize;
    if per_core.len() <= idx {
        per_core.resize(idx + 1, None);
    }
    if let Some(max) = per_core.get_mut(idx) {
        *max = (*max).max(Some(token));
    }
}

/// The outcome of a Replay pass: the coarse (fused-stream) mismatch and the
/// precise instruction-level localization recovered from unfused events.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureReport {
    /// The mismatch observed on the optimized stream.
    pub coarse: Mismatch,
    /// The precise mismatch: the one found by reprocessing unfused
    /// events when a replay pass reproduced one, or the coarse one when
    /// the stream was unfused. `None` on a fused stream that Replay did
    /// not localize, or that no Replay pass ran on.
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
        if self.precise.is_none() && self.replayed_events == 0 && self.token_range == (0, 0) {
            return write!(f, "no Replay pass ran: not localized to an instruction");
        }
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
    use difftest_event::{InstrCommit, MonitoredEvent, OrderTag, Token};

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

        fn retransmit_all(&self, core: u8) -> (Vec<MonitoredEvent>, bool) {
            (
                self.ring
                    .iter()
                    .filter(|e| e.core == core)
                    .cloned()
                    .collect(),
                self.watermark[core as usize].is_none(),
            )
        }
    }

    /// A fused mismatch that no Replay pass ran on says so, rather than
    /// claiming a localization or a replay that did not reproduce.
    #[test]
    fn an_unreplayed_failure_names_no_instruction() {
        let coarse = Mismatch {
            core: 0,
            seq: 7,
            check: "fused.first_seq".into(),
            expected: "7".into(),
            actual: "9".into(),
        };
        let mut report = FailureReport {
            coarse: coarse.clone(),
            precise: None,
            token_range: (0, 0),
            replayed_events: 0,
            partial: false,
        };
        let text = report.to_string();
        assert!(text.ends_with("no Replay pass ran: not localized to an instruction"));
        report.precise = Some(coarse);
        assert!(report
            .to_string()
            .contains("instruction-level localization"));
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
                        let got = (
                            got.records.iter().map(RecordRef::to_monitored).collect(),
                            got.complete,
                        );
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
        let tokens: Vec<u64> = got
            .records
            .iter()
            .map(|r| r.to_monitored().token.0)
            .collect();
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
        assert!(rb.retransmit(0, 0, 5).records.is_empty());
        assert_eq!(rb.retransmit(0, 6, 9).records.len(), 4);
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
    fn release_frees_passed_chunks_but_never_the_back_one() {
        let mut rb = ReplayBuffer::new(1 << 20);
        let mut t = 0;
        while rb.chunks.len() < 4 {
            rb.push(ev((t % 2) as u8, t));
            t += 1;
        }
        let len = rb.len();
        let first_of = |rb: &ReplayBuffer, chunk: usize| {
            Records::new(&rb.chunks[chunk].bytes)
                .map_while(Result::ok)
                .map(|r| r.header.token.0)
                .min()
                .unwrap()
        };
        // Core 1 has no checkpoint yet, then a floor inside the front
        // chunk: nothing can go.
        rb.release(|core| (core == 0).then_some(u64::MAX));
        let inside = first_of(&rb, 0) + 2;
        rb.release(|_| Some(inside));
        assert_eq!((rb.len(), rb.chunks.len()), (len, 4));
        // Floors at the third chunk's first token free the two before it.
        let floor = first_of(&rb, 2);
        rb.release(|_| Some(floor));
        assert_eq!((rb.chunks.len(), rb.spare.len()), (2, 2));
        assert!(rb.retransmit(0, floor, u64::MAX).complete);
        assert!(!rb.retransmit(0, floor - 3, u64::MAX).complete);
        // Floors past everything: all but the back chunk go, as
        // releases, not drops, and the high-water mark stays.
        rb.release(|_| Some(u64::MAX));
        assert_eq!(rb.chunks.len(), 1);
        let kept = (0..2).map(|core| rb.retransmit(core, 0, t).records.len());
        assert_eq!(rb.len(), kept.sum::<usize>());
        assert_eq!((rb.dropped(), rb.high_water()), (0, len));
        // The recycled chunks take the next records.
        while rb.chunks.len() < 4 {
            rb.push(ev((t % 2) as u8, t));
            t += 1;
        }
        assert!(rb.spare.is_empty());
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
        for (i, &seq) in seqs.iter().enumerate() {
            let bytes = [i as u8; 8];
            let want = (i >= 2).then_some(&bytes[..]);
            assert_eq!(rb.retransmit_packet(seq), want, "seq {seq}");
        }
        assert_eq!(rb.retransmit_packet(2), None);
    }
}
