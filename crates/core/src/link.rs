//! Transport seam: every runner's link is a [`LinkSink`] on the
//! producer side.
//!
//! The paper's architecture keeps the verification pipeline
//! transport-agnostic: the same pack → transmit → unpack → check flow
//! runs whether the link is a virtual LogGP model or a real socket. This
//! trait is that seam. [`SendLink`] wraps any sink in the
//! shared send path (produced-packet accounting, flight records, fault
//! injection) inside the shared [`Producer`](crate::produce::Producer),
//! so a runner's transport is just an adapter:
//!
//! | runner | sink | receive side | buffer back to the packer |
//! |---|---|---|---|
//! | engine | `Inline` (virtual link) | [`deliver`](LinkSink::deliver), each cycle | after ingest |
//! | socket | `StreamSink` (socket frames) | [`serve_connection`](crate::mux::serve_connection), on the calling thread | after the write |
//! | tests, layer pass | [`QueueSink`] (collects) | driven by hand | by the caller |

use difftest_stats::{FlightKind, FlightRecord, FlightRecorder, SpanBuf, SpanSink};

use crate::batch::peek_packet_seq;
use crate::fault::{FaultStats, FaultyLink};
use crate::replay::ReplayBuffer;
use crate::transport::{AccelUnit, Transfer};

/// The producer side of a link: accepts transfers for delivery.
pub trait LinkSink {
    /// Offers one transfer to the link. A sink done with the bytes once
    /// this returns pushes the buffer onto `spent`, for the packer to
    /// reuse. Returns `false` once the receiver is gone (broken pipe);
    /// the caller stops producing.
    fn send(&mut self, t: Transfer, spent: &mut Vec<Vec<u8>>) -> bool;

    /// The receiver's retention ring, if it keeps one: it gets each
    /// cycle's capture arena, and each packet a fault model may damage.
    fn retention(&mut self) -> Option<&mut ReplayBuffer> {
        None
    }

    /// Called once per DUT cycle after its sends, and once after the
    /// final flush: a receiver on the producer's thread takes what was
    /// sent, hands each buffer back to `accel`, and returns `false` once
    /// it has decided the run.
    fn deliver(&mut self, cycle: u64, accel: &mut AccelUnit) -> bool {
        let _ = (cycle, accel);
        true
    }
}

/// A collecting sink for a caller that drives the receive side by hand
/// (tests, the benchmark's layer pass). Always accepts.
#[derive(Debug, Default)]
pub struct QueueSink {
    /// Sent transfers, in order.
    pub queue: Vec<Transfer>,
}

impl LinkSink for QueueSink {
    fn send(&mut self, t: Transfer, _spent: &mut Vec<Vec<u8>>) -> bool {
        self.queue.push(t);
        true
    }
}

/// The shared send path in front of any [`LinkSink`]: counts every
/// packet *produced* (pre-fault, so the consumer can detect tail loss),
/// records `PacketSent` flight records, and perturbs the stream through
/// the optional [`FaultyLink`], retaining a pristine copy of each packet
/// in the sink's ring first, for ARQ to retransmit.
#[derive(Debug)]
pub struct SendLink<S: LinkSink> {
    sink: S,
    fault: Option<FaultyLink>,
    /// Packets offered to the link, counted before fault injection.
    produced: u32,
    /// Scratch for what emerges on the far side of the fault model.
    wire: Vec<Transfer>,
    /// Buffers the sink is done with, until [`reclaim`](Self::reclaim).
    spent: Vec<Vec<u8>>,
    /// Producer-side span track; disabled (one branch per packet)
    /// unless a tracer is installed.
    spans: SpanSink,
}

impl<S: LinkSink> SendLink<S> {
    /// Wraps `sink`, injecting faults through `fault` when present.
    pub fn new(sink: S, fault: Option<FaultyLink>) -> Self {
        SendLink {
            sink,
            fault,
            produced: 0,
            wire: Vec::new(),
            spent: Vec::new(),
            spans: SpanSink::disabled(),
        }
    }

    /// Installs a span sink: every packet fed through the link records
    /// a `pack` span and a `pkt` flow origin keyed by its seq.
    pub fn with_spans(mut self, spans: SpanSink) -> Self {
        self.spans = spans;
        self
    }

    /// Takes the producer-side span buffer (empty when tracing is off).
    pub fn take_spans(&mut self) -> SpanBuf {
        self.spans.take_buf()
    }

    /// Pushes produced transfers through the (possibly faulty) link into
    /// the sink, draining `transfers`. Returns `false` once the receiver
    /// is gone; undelivered transfers are discarded.
    pub fn feed(
        &mut self,
        transfers: &mut Vec<Transfer>,
        rec: &mut FlightRecorder,
        cycle: u64,
    ) -> bool {
        self.produced = self.produced.wrapping_add(transfers.len() as u32);
        let mut ok = true;
        for t in transfers.drain(..) {
            let sequenced = peek_packet_seq(&t.bytes);
            let seq = sequenced.unwrap_or(0);
            rec.record(FlightRecord {
                kind: FlightKind::PacketSent,
                core: t.core,
                seq,
                cycle,
                value: t.bytes.len() as u64,
            });
            let t0 = self.spans.start();
            match &mut self.fault {
                Some(l) => {
                    if let (Some(rb), Some(seq)) = (self.sink.retention(), sequenced) {
                        rb.record_packet(seq, &t.bytes);
                    }
                    l.transmit(t, &mut self.wire)
                }
                None => self.wire.push(t),
            }
            self.drain_wire(&mut ok);
            self.spans.end("pack", t0, seq as u64);
            self.spans.flow_out("pkt", seq as u64);
        }
        ok
    }

    /// End of stream: releases transfers the fault model still holds for
    /// reordering and delivers them. Returns `false` when the receiver
    /// is gone.
    pub fn finish(&mut self) -> bool {
        if let Some(l) = &mut self.fault {
            l.flush(&mut self.wire);
        }
        let mut ok = true;
        self.drain_wire(&mut ok);
        ok
    }

    fn drain_wire(&mut self, ok: &mut bool) {
        for t in self.wire.drain(..) {
            if *ok && !self.sink.send(t, &mut self.spent) {
                // Receiver gone: drop the rest of this batch.
                *ok = false;
            }
        }
    }

    /// Hands the buffers the sink has finished with back to `accel`.
    pub fn reclaim(&mut self, accel: &mut AccelUnit) {
        for buf in self.spent.drain(..) {
            accel.recycle(buf);
        }
    }

    /// Packets produced so far (pre-fault).
    pub fn produced(&self) -> u32 {
        self.produced
    }

    /// Counters of faults injected so far (`None` on a clean link).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault.as_ref().map(FaultyLink::stats)
    }

    /// The wrapped sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// The wrapped sink, mutably.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }
}

/// Watches an [`AccelUnit`]'s fused-record watermark and emits one
/// `Fusion` flight record per batch that advanced it (not per cycle —
/// the ring holds failure context, not a full trace).
#[derive(Debug, Default)]
pub struct FusionWatch {
    last: u64,
}

impl FusionWatch {
    /// Records a fusion watermark advance, if any. `have_transfers`
    /// gates the record to batches that actually produced output, and
    /// `core` labels the record (the producer passes 0: its stream
    /// interleaves every core).
    pub fn observe(
        &mut self,
        accel: &AccelUnit,
        have_transfers: bool,
        core: u8,
        cycle: u64,
        rec: &mut FlightRecorder,
    ) {
        if !have_transfers {
            return;
        }
        if let Some(s) = accel.squash_stats() {
            if s.fused_records > self.last {
                self.last = s.fused_records;
                rec.record(FlightRecord {
                    kind: FlightKind::Fusion,
                    core,
                    seq: 0,
                    cycle,
                    value: s.fused_records,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn transfer(tag: u8) -> Transfer {
        Transfer {
            bytes: vec![tag; 16],
            core: 0,
            items: 1,
        }
    }

    #[test]
    fn clean_send_link_counts_and_delivers() {
        let mut link = SendLink::new(QueueSink::default(), None);
        let mut rec = FlightRecorder::default();
        let mut batch = vec![transfer(1), transfer(2)];
        assert!(link.feed(&mut batch, &mut rec, 7));
        assert!(batch.is_empty());
        assert_eq!(link.produced(), 2);
        assert_eq!(link.sink_mut().queue.len(), 2);
        assert_eq!(rec.len(), 2, "one PacketSent record per transfer");
        assert!(link.finish());
    }

    #[test]
    fn faulty_send_link_counts_pre_fault() {
        // An all-drop plan: everything is produced, nothing delivered.
        let mut plan = FaultPlan::clean(3);
        plan.drop_per_mille = 1000;
        let mut link = SendLink::new(QueueSink::default(), Some(FaultyLink::new(plan)));
        let mut rec = FlightRecorder::default();
        let mut batch = vec![transfer(1), transfer(2), transfer(3)];
        assert!(link.feed(&mut batch, &mut rec, 0));
        assert!(link.finish());
        assert_eq!(link.produced(), 3, "produced counts before the fault");
        assert_eq!(link.sink_mut().queue.len(), 0);
        assert_eq!(link.fault_stats().map(|s| s.dropped), Some(3));
    }

    #[test]
    fn finish_releases_reorder_holds() {
        let mut plan = FaultPlan::clean(5);
        plan.reorder_per_mille = 1000;
        plan.reorder_depth = 100;
        let mut link = SendLink::new(QueueSink::default(), Some(FaultyLink::new(plan)));
        let mut rec = FlightRecorder::default();
        let mut batch = vec![transfer(1)];
        assert!(link.feed(&mut batch, &mut rec, 0));
        assert_eq!(link.sink_mut().queue.len(), 0, "held for reordering");
        assert!(link.finish());
        assert_eq!(link.sink_mut().queue.len(), 1, "released at end of stream");
    }
}
