//! The flight recorder: a bounded ring of structured pipeline records
//! for post-mortem debugging without re-running the DUT.
//!
//! A verdict alone (`Mismatch`, `LinkError`) says *what* failed, not what
//! the pipeline was doing around the failure. Every runner free-runs a
//! [`FlightRecorder`] — packet sent/received, squash fusion, ARQ
//! retransmit, link error, checker verdict, each stamped with
//! seq/core/cycle — and snapshots it into the failure path. The snapshot
//! dumps as JSONL (the same style as [`crate::trace`]'s binary dump, but
//! human-grep-able), so a failing CI run carries its own picture.
//!
//! Recording is a fixed-capacity ring push: no allocation in the steady
//! state, oldest records evicted first.

use std::collections::VecDeque;
use std::io::{self, Write};

/// What one flight record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A transfer left the producer for the link (`value` = bytes).
    PacketSent,
    /// A transfer arrived at a consumer (`value` = bytes).
    PacketReceived,
    /// Squash fused commits this window (`value` = fused records so far).
    Fusion,
    /// A retention-ring retransmission was issued (`value` = bytes).
    Retransmit,
    /// A typed link error was raised (`value` = error-kind index).
    LinkError,
    /// The checker flagged a DUT/REF divergence (`value` = instruction
    /// sequence number).
    Mismatch,
    /// The checker verified a halting trap (`value` = 1 good, 0 bad).
    Verdict,
}

impl FlightKind {
    /// Every kind, in declaration order: a kind's wire byte is its
    /// index here.
    pub const ALL: [FlightKind; 7] = [
        FlightKind::PacketSent,
        FlightKind::PacketReceived,
        FlightKind::Fusion,
        FlightKind::Retransmit,
        FlightKind::LinkError,
        FlightKind::Mismatch,
        FlightKind::Verdict,
    ];

    /// Stable export name.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::PacketSent => "packet_sent",
            FlightKind::PacketReceived => "packet_received",
            FlightKind::Fusion => "fusion",
            FlightKind::Retransmit => "retransmit",
            FlightKind::LinkError => "link_error",
            FlightKind::Mismatch => "mismatch",
            FlightKind::Verdict => "verdict",
        }
    }

    /// Whether this record describes bytes moving across the link
    /// (sent/received/retransmitted) — the records a failure snapshot
    /// must contain *before* the failure itself to be diagnosable.
    pub fn is_transport(self) -> bool {
        matches!(
            self,
            FlightKind::PacketSent | FlightKind::PacketReceived | FlightKind::Retransmit
        )
    }
}

/// One structured record in the flight ring. Flat and `Copy` so a ring
/// push is a few word moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRecord {
    /// Record classification.
    pub kind: FlightKind,
    /// DUT core involved.
    pub core: u8,
    /// Packet sequence number (0 when not applicable).
    pub seq: u32,
    /// DUT cycle when known (0 on consumer threads without cycle view).
    pub cycle: u64,
    /// Kind-specific payload (bytes, fused count, error kind, …).
    pub value: u64,
}

/// A bounded free-running ring of [`FlightRecord`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: VecDeque<FlightRecord>,
    capacity: usize,
    recorded: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(FlightRecorder::DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// Default ring capacity: enough context around a failure without
    /// holding a whole run.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Creates a recorder retaining the most recent `capacity` records.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            recorded: 0,
        }
    }

    /// Pushes one record, evicting the oldest at capacity.
    #[inline]
    pub fn record(&mut self, r: FlightRecord) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(r);
        self.recorded += 1;
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Returns `true` when nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total records ever pushed (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Copies the retained records, oldest first, into a snapshot.
    pub fn snapshot(&self) -> FlightSnapshot {
        FlightSnapshot {
            records: self.ring.iter().copied().collect(),
            evicted: self.recorded - self.ring.len() as u64,
        }
    }
}

/// An immutable copy of the flight ring, attached to failure reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightSnapshot {
    /// Retained records, oldest first.
    pub records: Vec<FlightRecord>,
    /// Records evicted from the ring before the snapshot (the window
    /// is bounded; old context may be gone).
    pub evicted: u64,
}

impl FlightSnapshot {
    /// Concatenates another snapshot's records after this one's
    /// (producer-side context first, then the failing consumer's view).
    pub fn append(&mut self, other: &FlightSnapshot) {
        self.records.extend_from_slice(&other.records);
        self.evicted += other.evicted;
    }

    /// Index of the first record matching `kind` and `seq`, if any.
    pub fn find(&self, kind: FlightKind, seq: u32) -> Option<usize> {
        self.records
            .iter()
            .position(|r| r.kind == kind && r.seq == seq)
    }

    /// Lifetime total the snapshot stands for: retained records plus
    /// the evicted ones. Derived (not stored), so [`append`](Self::append)
    /// keeps it consistent automatically.
    pub fn recorded(&self) -> u64 {
        self.records.len() as u64 + self.evicted
    }

    /// Writes the snapshot as JSONL, one record per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the writer.
    pub fn to_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(
            w,
            "{{\"type\":\"flight_snapshot\",\"records\":{},\"evicted\":{},\"recorded\":{}}}",
            self.records.len(),
            self.evicted,
            self.recorded()
        )?;
        for r in &self.records {
            writeln!(
                w,
                "{{\"type\":\"flight\",\"kind\":\"{}\",\"core\":{},\"seq\":{},\
                 \"cycle\":{},\"value\":{}}}",
                r.kind.name(),
                r.core,
                r.seq,
                r.cycle,
                r.value
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: FlightKind, seq: u32) -> FlightRecord {
        FlightRecord {
            kind,
            core: 0,
            seq,
            cycle: seq as u64 * 10,
            value: 0,
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut fr = FlightRecorder::new(4);
        for i in 0..10u32 {
            fr.record(rec(FlightKind::PacketSent, i));
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.recorded(), 10);
        let snap = fr.snapshot();
        assert_eq!(snap.evicted, 6);
        let seqs: Vec<u32> = snap.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn find_and_transport_classification() {
        let mut fr = FlightRecorder::default();
        fr.record(rec(FlightKind::PacketSent, 1));
        fr.record(rec(FlightKind::PacketReceived, 1));
        fr.record(rec(FlightKind::LinkError, 2));
        let snap = fr.snapshot();
        let pos = snap.find(FlightKind::LinkError, 2).unwrap();
        assert_eq!(pos, 2);
        assert!(snap.records[..pos].iter().any(|r| r.kind.is_transport()));
        assert!(!FlightKind::Verdict.is_transport());
    }

    #[test]
    fn snapshot_appends_in_order() {
        let mut a = FlightRecorder::new(2);
        a.record(rec(FlightKind::PacketSent, 0));
        let mut b = FlightRecorder::new(2);
        b.record(rec(FlightKind::PacketReceived, 0));
        b.record(rec(FlightKind::LinkError, 1));
        let mut snap = a.snapshot();
        snap.append(&b.snapshot());
        assert_eq!(snap.records.len(), 3);
        assert_eq!(snap.records[0].kind, FlightKind::PacketSent);
        assert_eq!(snap.records[2].kind, FlightKind::LinkError);
    }

    #[test]
    fn snapshot_recorded_total_survives_eviction_and_append() {
        let mut a = FlightRecorder::new(2);
        for i in 0..5u32 {
            a.record(rec(FlightKind::PacketSent, i));
        }
        let mut snap = a.snapshot();
        assert_eq!(snap.recorded(), a.recorded(), "snapshot matches the ring");
        assert_eq!(snap.recorded(), 5);
        assert_eq!(snap.evicted, 3);

        let mut b = FlightRecorder::new(2);
        for i in 0..3u32 {
            b.record(rec(FlightKind::PacketReceived, i));
        }
        snap.append(&b.snapshot());
        assert_eq!(snap.evicted, 3 + 1, "append sums evicted counts");
        assert_eq!(snap.recorded(), 5 + 3, "append keeps the total consistent");

        let mut out = Vec::new();
        snap.to_jsonl(&mut out).unwrap();
        let header = String::from_utf8(out)
            .unwrap()
            .lines()
            .next()
            .unwrap()
            .to_string();
        assert!(header.contains("\"records\":4"), "{header}");
        assert!(header.contains("\"evicted\":4"), "{header}");
        assert!(header.contains("\"recorded\":8"), "{header}");
    }

    #[test]
    fn jsonl_lines_are_wellformed() {
        let mut fr = FlightRecorder::default();
        fr.record(rec(FlightKind::Mismatch, 3));
        let mut buf = Vec::new();
        fr.snapshot().to_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(text.contains("\"kind\":\"mismatch\""));
    }
}
