//! Deterministic fault injection for the host↔accelerator link.
//!
//! The runners normally assume a perfect transport; real accelerator
//! links (PCIe DMA rings, network-attached emulators) drop, duplicate,
//! reorder, truncate, and corrupt transfers. [`FaultyLink`] sits between
//! the [`AccelUnit`](crate::AccelUnit) producer and the
//! [`SwUnit`](crate::SwUnit) consumer and perturbs the transfer stream
//! according to a seeded [`FaultPlan`], so every failure mode the
//! recovery machinery must survive can be reproduced bit-for-bit from a
//! single `u64` seed.
//!
//! Faults are detected downstream by the CRC32 frame trailer
//! ([`difftest_event::wire::verify_crc_frame`]) and the packed
//! transport's sequence numbers, surfacing as typed
//! [`CodecError`]s which the runners classify into [`LinkErrorKind`]s.

use difftest_event::wire::CodecError;

use crate::transport::Transfer;

/// One kind of link-level fault [`FaultyLink`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The transfer silently disappears.
    Drop,
    /// The transfer is delivered twice.
    Duplicate,
    /// The transfer is held back and delivered `reorder_depth` transfers
    /// late.
    Reorder,
    /// The payload loses its tail (delivered shorter than sent).
    Truncate,
    /// A single payload bit is flipped in flight.
    Corrupt,
}

/// Seeded schedule of link faults, expressed as independent per-mille
/// probabilities per transfer. At most one fault applies to any given
/// transfer; the per-mille fields are cumulative slices of a single
/// 0..1000 roll, so their sum must stay ≤ 1000.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// RNG seed; equal seeds reproduce the exact fault schedule.
    pub seed: u64,
    /// Probability (‰) a transfer is dropped.
    pub drop_per_mille: u16,
    /// Probability (‰) a transfer is duplicated.
    pub duplicate_per_mille: u16,
    /// Probability (‰) a transfer is delayed behind later ones.
    pub reorder_per_mille: u16,
    /// Probability (‰) a transfer is truncated.
    pub truncate_per_mille: u16,
    /// Probability (‰) a single payload bit is flipped.
    pub corrupt_per_mille: u16,
    /// How many subsequent transfers overtake a reordered one. Depths
    /// beyond the receiver's reassembly window turn a reorder into an
    /// unrecoverable gap ([`CodecError::ReorderOverflow`]).
    pub reorder_depth: u32,
}

impl FaultPlan {
    /// A schedule that injects nothing (useful for overhead baselines).
    pub fn clean(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_per_mille: 0,
            duplicate_per_mille: 0,
            reorder_per_mille: 0,
            truncate_per_mille: 0,
            corrupt_per_mille: 0,
            reorder_depth: 4,
        }
    }

    /// A schedule giving every fault kind the same per-mille rate.
    pub fn uniform(seed: u64, per_mille: u16) -> Self {
        FaultPlan {
            seed,
            drop_per_mille: per_mille,
            duplicate_per_mille: per_mille,
            reorder_per_mille: per_mille,
            truncate_per_mille: per_mille,
            corrupt_per_mille: per_mille,
            reorder_depth: 4,
        }
    }

    /// Sum of all per-mille rates (must stay ≤ 1000).
    pub fn total_per_mille(&self) -> u32 {
        self.drop_per_mille as u32
            + self.duplicate_per_mille as u32
            + self.reorder_per_mille as u32
            + self.truncate_per_mille as u32
            + self.corrupt_per_mille as u32
    }

    /// Whether this plan can inject any fault at all.
    pub fn is_clean(&self) -> bool {
        self.total_per_mille() == 0
    }
}

/// Counters of faults a [`FaultyLink`] actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transfers that crossed the link unharmed.
    pub delivered: u64,
    /// Transfers silently discarded.
    pub dropped: u64,
    /// Extra copies delivered.
    pub duplicated: u64,
    /// Transfers delivered out of order.
    pub reordered: u64,
    /// Transfers delivered with their tail cut off.
    pub truncated: u64,
    /// Transfers delivered with a flipped bit.
    pub corrupted: u64,
}

impl FaultStats {
    /// Total faults of any kind injected.
    pub fn total_faults(&self) -> u64 {
        self.dropped + self.duplicated + self.reordered + self.truncated + self.corrupted
    }
}

impl std::ops::AddAssign for FaultStats {
    fn add_assign(&mut self, o: FaultStats) {
        self.delivered += o.delivered;
        self.dropped += o.dropped;
        self.duplicated += o.duplicated;
        self.reordered += o.reordered;
        self.truncated += o.truncated;
        self.corrupted += o.corrupted;
    }
}

/// SplitMix64: tiny, deterministic, and statistically adequate for a
/// fault schedule. Kept private so the schedule format can evolve.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound` > 0).
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// A deterministic lossy link between producer and consumer.
///
/// Feed transfers through [`transmit`](Self::transmit); they come out
/// the other side possibly dropped, duplicated, delayed, truncated, or
/// corrupted, per the plan's seeded schedule. Call
/// [`flush`](Self::flush) at end-of-stream to release any transfers
/// still held back for reordering.
#[derive(Debug)]
pub struct FaultyLink {
    plan: FaultPlan,
    rng: SplitMix64,
    /// Transfers held back for reordering: `(due_index, transfer)`.
    held: Vec<(u64, Transfer)>,
    /// Index of the next transfer offered to the link.
    index: u64,
    stats: FaultStats,
}

impl FaultyLink {
    /// Creates a link following `plan`'s schedule.
    ///
    /// # Panics
    ///
    /// Panics if the plan's per-mille rates sum above 1000.
    pub fn new(plan: FaultPlan) -> Self {
        assert!(
            plan.total_per_mille() <= 1000,
            "fault plan rates sum to {}‰ (> 1000‰)",
            plan.total_per_mille()
        );
        FaultyLink {
            rng: SplitMix64(plan.seed ^ 0xD1FF_7E57_0000_0001),
            plan,
            held: Vec::new(),
            index: 0,
            stats: FaultStats::default(),
        }
    }

    /// Counters of faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Rolls the schedule for this transfer: `None` = deliver clean.
    fn roll(&mut self) -> Option<FaultKind> {
        let total = self.plan.total_per_mille();
        if total == 0 {
            return None;
        }
        let r = self.rng.below(1000) as u32;
        let mut edge = self.plan.drop_per_mille as u32;
        if r < edge {
            return Some(FaultKind::Drop);
        }
        edge += self.plan.duplicate_per_mille as u32;
        if r < edge {
            return Some(FaultKind::Duplicate);
        }
        edge += self.plan.reorder_per_mille as u32;
        if r < edge {
            return Some(FaultKind::Reorder);
        }
        edge += self.plan.truncate_per_mille as u32;
        if r < edge {
            return Some(FaultKind::Truncate);
        }
        edge += self.plan.corrupt_per_mille as u32;
        if r < edge {
            return Some(FaultKind::Corrupt);
        }
        None
    }

    /// Releases held transfers whose due index has arrived.
    fn release_due(&mut self, out: &mut Vec<Transfer>) {
        let index = self.index;
        let mut i = 0;
        while i < self.held.len() {
            if self.held.get(i).is_some_and(|(due, _)| *due <= index) {
                let (_, t) = self.held.remove(i);
                self.stats.delivered += 1;
                out.push(t);
            } else {
                i += 1;
            }
        }
    }

    /// Passes one transfer through the link, appending whatever emerges
    /// on the far side (zero, one, or two transfers — plus any earlier
    /// reordered transfers that become due).
    pub fn transmit(&mut self, mut t: Transfer, out: &mut Vec<Transfer>) {
        let fault = self.roll();
        self.index += 1;
        match fault {
            None => {
                self.stats.delivered += 1;
                out.push(t);
            }
            Some(FaultKind::Drop) => {
                self.stats.dropped += 1;
            }
            Some(FaultKind::Duplicate) => {
                // Both copies cross the link.
                self.stats.delivered += 2;
                self.stats.duplicated += 1;
                out.push(t.clone());
                out.push(t);
            }
            Some(FaultKind::Reorder) => {
                self.stats.reordered += 1;
                let due = self.index + self.plan.reorder_depth as u64;
                self.held.push((due, t));
            }
            Some(FaultKind::Truncate) => {
                self.stats.delivered += 1;
                self.stats.truncated += 1;
                if !t.bytes.is_empty() {
                    let keep = self.rng.below(t.bytes.len() as u64) as usize;
                    t.bytes.truncate(keep);
                }
                out.push(t);
            }
            Some(FaultKind::Corrupt) => {
                self.stats.delivered += 1;
                self.stats.corrupted += 1;
                if !t.bytes.is_empty() {
                    let bit = self.rng.below(t.bytes.len() as u64 * 8);
                    if let Some(byte) = t.bytes.get_mut((bit / 8) as usize) {
                        *byte ^= 1 << (bit % 8);
                    }
                }
                out.push(t);
            }
        }
        self.release_due(out);
    }

    /// Releases every transfer still held for reordering (end of
    /// stream). Held transfers are delivered in due order.
    pub fn flush(&mut self, out: &mut Vec<Transfer>) {
        self.held.sort_by_key(|(due, _)| *due);
        for (_, t) in self.held.drain(..) {
            self.stats.delivered += 1;
            out.push(t);
        }
    }
}

/// Classification of a link failure for [`RunOutcome::LinkError`]
/// reporting and per-kind counters.
///
/// [`RunOutcome::LinkError`]: crate::RunOutcome::LinkError
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkErrorKind {
    /// CRC trailer mismatch: payload corrupted in flight.
    Corrupt = 0,
    /// A sequence number older than the receive window (duplicate or
    /// replayed packet).
    Stale = 1,
    /// A sequence gap that never filled (packet loss / reorder beyond
    /// the reassembly window).
    Gap = 2,
    /// The transfer ended before its fixed layout was complete.
    Truncated = 3,
    /// Structurally invalid contents (bad discriminant, trailing
    /// bytes, …) that nonetheless passed the CRC — host-side logic
    /// error or adversarial input.
    Malformed = 4,
}

impl LinkErrorKind {
    /// Every kind, in counter-index order.
    pub const ALL: [LinkErrorKind; 5] = [
        LinkErrorKind::Corrupt,
        LinkErrorKind::Stale,
        LinkErrorKind::Gap,
        LinkErrorKind::Truncated,
        LinkErrorKind::Malformed,
    ];
    /// Maps a decode error onto the link-failure taxonomy.
    pub fn classify(err: &CodecError) -> Self {
        match err {
            CodecError::CrcMismatch { .. } => LinkErrorKind::Corrupt,
            CodecError::StaleSequence { .. } => LinkErrorKind::Stale,
            CodecError::ReorderOverflow { .. } => LinkErrorKind::Gap,
            CodecError::UnexpectedEnd { .. } => LinkErrorKind::Truncated,
            CodecError::BadKind(_)
            | CodecError::TrailingBytes(_)
            | CodecError::Malformed(_)
            | CodecError::BadCore { .. } => LinkErrorKind::Malformed,
        }
    }

    /// Stable counter-key suffix (`link.<name>`).
    pub fn counter_name(&self) -> &'static str {
        match self {
            LinkErrorKind::Corrupt => "corrupt",
            LinkErrorKind::Stale => "stale",
            LinkErrorKind::Gap => "gap",
            LinkErrorKind::Truncated => "truncated",
            LinkErrorKind::Malformed => "malformed",
        }
    }
}

impl std::fmt::Display for LinkErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.counter_name())
    }
}

/// Receive-side link-health counters a runner accumulates: what was
/// detected, what recovery masked, and what the retransmissions cost.
/// Exported as `link.err.<kind>` / `link.recovered` /
/// `link.retransmits` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Decode failures detected, indexed by [`LinkErrorKind`].
    pub detected: [u64; 5],
    /// Stale (duplicate) transfers silently discarded.
    pub stale_dropped: u64,
    /// Detected failures masked by a successful retransmission.
    pub recovered: u64,
    /// Retransmission requests issued.
    pub retransmits: u64,
    /// Bytes re-sent across the link by retransmissions.
    pub retransmit_bytes: u64,
}

impl LinkStats {
    /// Records one detected failure of `kind`.
    pub fn note(&mut self, kind: LinkErrorKind) {
        if let Some(n) = self.detected.get_mut(kind as usize) {
            *n += 1;
        }
    }

    /// Detected failures of `kind`.
    pub fn count(&self, kind: LinkErrorKind) -> u64 {
        self.detected.get(kind as usize).copied().unwrap_or(0)
    }

    /// Detected failures of every kind.
    pub fn total_detected(&self) -> u64 {
        self.detected.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transfer(tag: u8, len: usize) -> Transfer {
        Transfer {
            bytes: vec![tag; len],
            core: 0,
            items: 1,
        }
    }

    fn run_schedule(plan: FaultPlan, n: usize) -> (Vec<Transfer>, FaultStats) {
        let mut link = FaultyLink::new(plan);
        let mut out = Vec::new();
        for i in 0..n {
            link.transmit(transfer(i as u8, 32), &mut out);
        }
        link.flush(&mut out);
        (out, link.stats())
    }

    #[test]
    fn clean_plan_is_identity() {
        let (out, stats) = run_schedule(FaultPlan::clean(1), 100);
        assert_eq!(out.len(), 100);
        assert_eq!(stats.delivered, 100);
        assert_eq!(stats.total_faults(), 0);
        for (i, t) in out.iter().enumerate() {
            assert_eq!(t.bytes[0], i as u8);
        }
    }

    #[test]
    fn schedules_are_deterministic() {
        let plan = FaultPlan::uniform(42, 50);
        let (a, sa) = run_schedule(plan, 500);
        let (b, sb) = run_schedule(plan, 500);
        assert_eq!(sa, sb);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(&*x.bytes, &*y.bytes);
        }
        // A different seed produces a different schedule.
        let (_, sc) = run_schedule(FaultPlan::uniform(43, 50), 500);
        assert_ne!(sa, sc);
    }

    #[test]
    fn faults_actually_inject() {
        let (out, stats) = run_schedule(FaultPlan::uniform(7, 40), 2000);
        assert!(stats.dropped > 0, "{stats:?}");
        assert!(stats.duplicated > 0, "{stats:?}");
        assert!(stats.reordered > 0, "{stats:?}");
        assert!(stats.truncated > 0, "{stats:?}");
        assert!(stats.corrupted > 0, "{stats:?}");
        // Conservation: delivered = sent - dropped + duplicated, and
        // everything held for reorder was flushed.
        assert_eq!(out.len() as u64, 2000 - stats.dropped + stats.duplicated);
        assert_eq!(stats.delivered, out.len() as u64);
    }

    #[test]
    fn reorder_delays_by_depth() {
        let mut plan = FaultPlan::clean(9);
        plan.reorder_per_mille = 1000;
        plan.reorder_depth = 2;
        let mut link = FaultyLink::new(plan);
        let mut out = Vec::new();
        // Every transfer is held; none can emerge until its due index.
        link.transmit(transfer(0, 8), &mut out);
        assert!(out.is_empty());
        link.transmit(transfer(1, 8), &mut out);
        link.transmit(transfer(2, 8), &mut out);
        // Transfer 0 was due at index 1 + 2 = 3 — emitted now.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bytes[0], 0);
        link.flush(&mut out);
        assert_eq!(out.len(), 3);
    }

    #[test]
    #[should_panic(expected = "fault plan rates")]
    fn oversubscribed_plan_rejected() {
        FaultyLink::new(FaultPlan::uniform(0, 250));
    }

    #[test]
    fn classification_covers_codec_errors() {
        use CodecError as E;
        assert_eq!(
            LinkErrorKind::classify(&E::CrcMismatch {
                expected: 1,
                got: 2
            }),
            LinkErrorKind::Corrupt
        );
        assert_eq!(
            LinkErrorKind::classify(&E::StaleSequence {
                expected: 5,
                got: 2
            }),
            LinkErrorKind::Stale
        );
        assert_eq!(
            LinkErrorKind::classify(&E::ReorderOverflow { missing: 3 }),
            LinkErrorKind::Gap
        );
        assert_eq!(
            LinkErrorKind::classify(&E::UnexpectedEnd {
                needed: 4,
                available: 0
            }),
            LinkErrorKind::Truncated
        );
        assert_eq!(
            LinkErrorKind::classify(&E::BadKind(99)),
            LinkErrorKind::Malformed
        );
    }
}
