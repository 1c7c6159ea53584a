//! Squash: fusing verification events with a decoupled checking order
//! (paper §4.3).
//!
//! Squash reduces transmitted data three ways:
//!
//! 1. **Fusion** — runs of instruction commits become one [`FusedCommit`]
//!    carrying the final PC, the commit count and the collective register
//!    write-set. Port-level events whose content the fused record subsumes
//!    (writebacks, non-MMIO loads, redirects, runahead bookkeeping) are
//!    dropped from the wire entirely (they remain in the replay buffer).
//! 2. **Order decoupling** — non-deterministic events and order-sensitive
//!    checks are transmitted *ahead* with [`difftest_event::OrderTag`]s instead of breaking
//!    the fusion window; the software checker reorders them (paper Fig. 8).
//!    The order-coupled baseline (`order_coupled = true`) reproduces prior
//!    work: every NDE flushes the fusion window.
//! 3. **Differencing** — repetitive events (register/CSR state dumps, TLB
//!    fills) transmit only changed 64-bit words (implemented in
//!    [`crate::wire::DiffCache`]; Squash only classifies).

use difftest_event::wire::{CodecError, Reader, Writer};
use difftest_event::{commit_flags, Event, EventKind, MonitoredEvent};

use crate::wire::WireItem;

/// How Squash treats each event kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SquashClass {
    /// Fused into the commit window.
    Fuse,
    /// Dropped from the wire: the fused commit subsumes its content.
    Subsume,
    /// Transmitted ahead with an order tag, full payload.
    TagFull,
    /// Transmitted with an order tag, differenced against the previous
    /// same-kind event.
    Diff,
}

/// Classifies an event under the Squash policy.
pub fn classify(event: &Event) -> SquashClass {
    use EventKind as K;
    match event.kind() {
        K::InstrCommit => SquashClass::Fuse,
        K::IntWriteback | K::FpWriteback | K::Redirect | K::RunaheadEvent => SquashClass::Subsume,
        K::LoadEvent => {
            if event.is_nde() {
                SquashClass::TagFull
            } else {
                SquashClass::Subsume
            }
        }
        // Repetitive state: differencing wins.
        K::ArchIntRegState
        | K::ArchFpRegState
        | K::CsrState
        | K::ArchVecRegState
        | K::VecCsrState
        | K::HypervisorCsrState
        | K::TriggerCsrState
        | K::DebugModeState
        | K::L1TlbEvent
        | K::L2TlbEvent
        | K::PtwEvent => SquashClass::Diff,
        // Order-sensitive or mostly-fresh payloads: ahead, full.
        _ => SquashClass::TagFull,
    }
}

/// A fused run of instruction commits (paper §4.3 "Fusion and Scheduling").
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FusedCommit {
    /// Commit sequence of the first fused instruction.
    pub first_seq: u64,
    /// Number of fused instructions.
    pub count: u32,
    /// PC after the last fused instruction.
    pub final_pc: u64,
    /// Replay token of the first buffered event covered by this record.
    pub token_first: u64,
    /// Replay token of the last buffered event covered by this record.
    pub token_last: u64,
    /// Collective integer register write-set: last value per register.
    pub int_writes: Vec<(u8, u64)>,
    /// Collective floating-point register write-set.
    pub fp_writes: Vec<(u8, u64)>,
}

/// Bytes a LEB128 varint encoding of `v` occupies (1–10).
fn varint_len(v: u64) -> usize {
    (64 - v.leading_zeros()).max(1).div_ceil(7) as usize
}

fn write_varint(w: &mut Writer<'_>, mut v: u64) {
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

fn read_varint(r: &mut Reader<'_>) -> Result<u64, CodecError> {
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

impl FusedCommit {
    /// Encoded size in bytes.
    ///
    /// Scalar fields and write values are LEB128 varints: fused records
    /// dominate BNSD wire traffic, and sequence numbers, commit counts,
    /// and most register values occupy far fewer than 8 significant
    /// bytes, so variable-length encoding is where the squash stream's
    /// byte reduction comes from (paper §4.3 transmits "only modified"
    /// state — this squeezes the modified values themselves).
    pub fn encoded_len(&self) -> usize {
        varint_len(self.first_seq)
            + varint_len(u64::from(self.count))
            + varint_len(self.final_pc)
            + varint_len(self.token_first)
            + varint_len(self.token_last)
            + 1
            + 1
            + self
                .int_writes
                .iter()
                .chain(&self.fp_writes)
                .map(|(_, v)| 1 + varint_len(*v))
                .sum::<usize>()
    }

    /// Appends the self-describing binary layout.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = Writer::new(out);
        write_varint(&mut w, self.first_seq);
        write_varint(&mut w, u64::from(self.count));
        write_varint(&mut w, self.final_pc);
        write_varint(&mut w, self.token_first);
        write_varint(&mut w, self.token_last);
        w.u8(self.int_writes.len() as u8);
        w.u8(self.fp_writes.len() as u8);
        for (r, v) in self.int_writes.iter().chain(&self.fp_writes) {
            w.u8(*r);
            write_varint(&mut w, *v);
        }
    }

    /// Refills this record from the reader. The write-set vectors are
    /// cleared, never taken, so a decoder refilling one scratch record
    /// allocates nothing once they have grown to a window's write-set.
    /// On error the record holds a partial refill.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on a truncated or malformed record.
    pub fn read_from(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        self.first_seq = read_varint(r)?;
        self.count = u32::try_from(read_varint(r)?)
            .map_err(|_| CodecError::Malformed("fused count overruns 32 bits"))?;
        self.final_pc = read_varint(r)?;
        self.token_first = read_varint(r)?;
        self.token_last = read_varint(r)?;
        let n_int = r.u8()? as usize;
        let n_fp = r.u8()? as usize;
        for (set, n) in [(&mut self.int_writes, n_int), (&mut self.fp_writes, n_fp)] {
            set.clear();
            for _ in 0..n {
                let reg = r.u8()?;
                set.push((reg, read_varint(r)?));
            }
        }
        Ok(())
    }

    /// Advances the reader past one encoded record without materializing
    /// it — the packet-admission validation pass walks bodies with this
    /// so the later checking pass cannot hit a codec error mid-stream.
    ///
    /// # Errors
    ///
    /// Returns the same [`CodecError`]s as [`Self::read_from`].
    pub fn skip_from(r: &mut Reader<'_>) -> Result<(), CodecError> {
        read_varint(r)?; // first_seq
        u32::try_from(read_varint(r)?)
            .map_err(|_| CodecError::Malformed("fused count overruns 32 bits"))?;
        read_varint(r)?; // final_pc
        read_varint(r)?; // token_first
        read_varint(r)?; // token_last
        let n_int = r.u8()? as usize;
        let n_fp = r.u8()? as usize;
        for _ in 0..n_int + n_fp {
            r.u8()?;
            read_varint(r)?;
        }
        Ok(())
    }
}

/// Counters the Squash unit maintains (paper §5: fusion ratios).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SquashStats {
    /// Commits absorbed into fused records.
    pub commits_fused: u64,
    /// Fused records emitted.
    pub fused_records: u64,
    /// Events dropped as subsumed.
    pub subsumed: u64,
    /// Events transmitted ahead with tags.
    pub tagged: u64,
    /// Events classified for differencing.
    pub diffed: u64,
    /// Fusion windows broken by NDEs (order-coupled baseline only).
    pub nde_breaks: u64,
}

impl SquashStats {
    /// Mean commits per fused record.
    pub fn fusion_ratio(&self) -> f64 {
        if self.fused_records == 0 {
            0.0
        } else {
            self.commits_fused as f64 / self.fused_records as f64
        }
    }
}

/// One core's fusion window. The record's write-set vectors are cleared
/// on reopening, never taken, so a steady stream of windows allocates
/// nothing.
#[derive(Debug, Default)]
struct WindowState {
    open: bool,
    age: u32,
    rec: FusedCommit,
}

impl WindowState {
    fn absorb(&mut self, ev: &MonitoredEvent, c: &difftest_event::InstrCommit) {
        let rec = &mut self.rec;
        if !self.open {
            self.open = true;
            self.age = 0;
            rec.first_seq = ev.order.0;
            rec.count = 0;
            rec.token_first = ev.token.0;
            rec.int_writes.clear();
            rec.fp_writes.clear();
        }
        rec.count += 1;
        rec.token_last = ev.token.0;
        rec.final_pc = next_pc_of(c);
        if c.wen != 0 {
            let set = if c.flags & commit_flags::FP_WEN != 0 {
                &mut rec.fp_writes
            } else {
                &mut rec.int_writes
            };
            match set.iter_mut().find(|(r, _)| *r == c.wdest) {
                Some(slot) => slot.1 = c.wdata,
                None => set.push((c.wdest, c.wdata)),
            }
        }
    }
}

/// PC after a committed instruction: the branch/jump target when taken,
/// the fall-through otherwise. Taken control flow always ends a DUT commit
/// group, so within a fused window every instruction except the last falls
/// through — but the *last* one may redirect, and the hardware knows the
/// target from the next fetch. We reconstruct it the same way the RTL
/// monitor does: from the commit record itself.
fn next_pc_of(c: &difftest_event::InstrCommit) -> u64 {
    if c.flags & commit_flags::BRANCH_TAKEN != 0 || is_jump(c.instr) {
        // Taken control flow: the target is the next sequential fetch PC,
        // which the monitor records as the *link* for jal/jalr (wdata) or
        // recomputes from the immediate for branches/jumps.
        decode_target(c)
    } else {
        c.pc.wrapping_add(4)
    }
}

fn is_jump(raw: u32) -> bool {
    matches!(raw & 0x7f, 0x6f | 0x67) || raw == 0x3020_0073 // jal/jalr/mret
}

fn decode_target(c: &difftest_event::InstrCommit) -> u64 {
    use difftest_isa::{decode, Op};
    let insn = decode(c.instr);
    match insn.op {
        Op::Jal | Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu => {
            c.pc.wrapping_add(insn.imm as u64)
        }
        // jalr/mret targets depend on register/CSR state the commit record
        // does not carry; the monitor marks them with a zero final PC and
        // the checker falls back to comparing the next commit's PC.
        _ => 0,
    }
}

/// Where Squash's output goes: the one seam between classification and
/// fusion on this side and encoding on the other. Events and the fusion
/// record are lent, never moved, so a sink that encodes (the packer
/// inside [`AccelUnit`](crate::AccelUnit)) copies each payload once,
/// into its packet, and only a sink that keeps items (`Vec<WireItem>`)
/// pays for a clone.
pub trait SquashSink {
    /// An event scheduled ahead with its order tag, full payload.
    fn tagged(&mut self, ev: &MonitoredEvent);
    /// An event to difference against the previous one of its kind.
    fn diff(&mut self, ev: &MonitoredEvent);
    /// A closed fusion window of `core`.
    fn fused(&mut self, core: u8, fused: &FusedCommit);
}

impl SquashSink for Vec<WireItem> {
    fn tagged(&mut self, ev: &MonitoredEvent) {
        self.push(WireItem::Tagged {
            core: ev.core,
            tag: ev.order,
            token: ev.token,
            event: ev.event.clone(),
        });
    }

    fn diff(&mut self, ev: &MonitoredEvent) {
        self.push(WireItem::Diff {
            core: ev.core,
            tag: ev.order,
            token: ev.token,
            event: ev.event.clone(),
        });
    }

    fn fused(&mut self, core: u8, fused: &FusedCommit) {
        self.push(WireItem::Fused {
            core,
            fused: fused.clone(),
        });
    }
}

/// The hardware-side Squash unit.
#[derive(Debug)]
pub struct SquashUnit {
    windows: Vec<WindowState>,
    window_limit: u32,
    max_age: u32,
    order_coupled: bool,
    differencing: bool,
    stats: SquashStats,
}

impl SquashUnit {
    /// Creates a unit for `cores` cores fusing up to `window_limit` commits.
    pub fn new(cores: usize, window_limit: u32) -> Self {
        SquashUnit {
            windows: (0..cores).map(|_| WindowState::default()).collect(),
            window_limit: window_limit.max(1),
            max_age: 64,
            order_coupled: false,
            differencing: true,
            stats: SquashStats::default(),
        }
    }

    /// Disables differencing (ablation): diff-class events are transmitted
    /// ahead with full payloads instead.
    pub fn set_differencing(&mut self, on: bool) {
        self.differencing = on;
    }

    /// Switches to the order-coupled baseline: NDEs break fusion windows
    /// and everything is transmitted in checking order (prior work's
    /// behaviour, paper Fig. 8 left).
    pub fn set_order_coupled(&mut self, coupled: bool) {
        self.order_coupled = coupled;
    }

    /// Fusion statistics so far.
    pub fn stats(&self) -> &SquashStats {
        &self.stats
    }

    /// Processes one monitored event, handing what it puts on the wire
    /// to `out`.
    pub fn push<S: SquashSink>(&mut self, ev: &MonitoredEvent, out: &mut S) {
        let core = ev.core as usize;
        let mut class = classify(&ev.event);
        if class == SquashClass::Diff && !self.differencing {
            class = SquashClass::TagFull;
        }
        match class {
            SquashClass::Fuse => {
                let Event::InstrCommit(c) = &ev.event else {
                    unreachable!("only commits fuse")
                };
                // A skipped (MMIO) commit is itself an NDE: its observed
                // value must reach the checker even on configurations whose
                // event coverage has no LoadEvent (e.g. NutShell). Schedule
                // it ahead with its order tag before fusing it.
                if ev.is_nde() {
                    self.stats.tagged += 1;
                    out.tagged(ev);
                }
                self.windows[core].absorb(ev, c);
                self.stats.commits_fused += 1;
                if self.windows[core].rec.count >= self.window_limit {
                    self.flush_core(ev.core, out);
                }
            }
            SquashClass::Subsume => {
                self.stats.subsumed += 1;
            }
            SquashClass::TagFull => {
                if self.order_coupled && ev.is_nde() {
                    // Prior work: an NDE forces the fused window out first
                    // so transmission order equals checking order.
                    if self.windows[core].open {
                        self.stats.nde_breaks += 1;
                        self.flush_core(ev.core, out);
                    }
                }
                self.stats.tagged += 1;
                out.tagged(ev);
            }
            SquashClass::Diff => {
                self.stats.diffed += 1;
                out.diff(ev);
            }
        }
    }

    /// Ends one DUT cycle: ages open windows and flushes stale ones.
    pub fn on_cycle_end<S: SquashSink>(&mut self, out: &mut S) {
        for core in 0..self.windows.len() {
            if self.windows[core].open {
                self.windows[core].age += 1;
                if self.windows[core].age >= self.max_age {
                    self.flush_core(core as u8, out);
                }
            }
        }
    }

    /// Flushes one core's open fusion window.
    pub fn flush_core<S: SquashSink>(&mut self, core: u8, out: &mut S) {
        let w = &mut self.windows[core as usize];
        if w.open {
            w.open = false;
            self.stats.fused_records += 1;
            out.fused(core, &w.rec);
        }
    }

    /// Flushes every open window (end of simulation, replay requests).
    pub fn flush_all<S: SquashSink>(&mut self, out: &mut S) {
        for core in 0..self.windows.len() as u8 {
            self.flush_core(core, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use difftest_event::{ArchEvent, InstrCommit, LoadEvent, OrderTag, Token};

    fn commit(seq: u64, token: u64, pc: u64, wdest: u8, wdata: u64) -> MonitoredEvent {
        MonitoredEvent {
            core: 0,
            cycle: seq,
            order: OrderTag(seq),
            token: Token(token),
            event: InstrCommit {
                pc,
                instr: 0x13,
                wen: 1,
                wdest,
                wdata,
                flags: 0,
                rob_idx: 0,
            }
            .into(),
        }
    }

    fn mmio_load(seq: u64, token: u64) -> MonitoredEvent {
        MonitoredEvent {
            core: 0,
            cycle: seq,
            order: OrderTag(seq),
            token: Token(token),
            event: LoadEvent {
                is_mmio: 1,
                ..Default::default()
            }
            .into(),
        }
    }

    #[test]
    fn fuses_up_to_window_limit() {
        let mut sq = SquashUnit::new(1, 4);
        let mut out = Vec::new();
        for i in 0..8 {
            sq.push(&commit(i, i, 0x8000_0000 + 4 * i, 10, i), &mut out);
        }
        assert_eq!(out.len(), 2);
        match &out[0] {
            WireItem::Fused { fused, .. } => {
                assert_eq!(fused.first_seq, 0);
                assert_eq!(fused.count, 4);
                assert_eq!(fused.final_pc, 0x8000_0010);
                // Last write wins in the write-set.
                assert_eq!(fused.int_writes, vec![(10, 3)]);
                assert_eq!((fused.token_first, fused.token_last), (0, 3));
            }
            other => panic!("expected fused, got {other:?}"),
        }
        assert!((sq.stats().fusion_ratio() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn decoupled_ndes_do_not_break_fusion() {
        let mut sq = SquashUnit::new(1, 8);
        let mut out = Vec::new();
        sq.push(&commit(0, 0, 0x8000_0000, 1, 1), &mut out);
        sq.push(&mmio_load(1, 1), &mut out);
        sq.push(&commit(1, 2, 0x8000_0004, 1, 2), &mut out);
        // Only the tagged NDE is out; the window is still open.
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], WireItem::Tagged { .. }));
        assert_eq!(sq.stats().nde_breaks, 0);
        sq.flush_all(&mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn coupled_ndes_break_fusion() {
        let mut sq = SquashUnit::new(1, 8);
        sq.set_order_coupled(true);
        let mut out = Vec::new();
        sq.push(&commit(0, 0, 0x8000_0000, 1, 1), &mut out);
        sq.push(&mmio_load(1, 1), &mut out);
        // The fused window is forced out *before* the NDE.
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0], WireItem::Fused { .. }));
        assert!(matches!(out[1], WireItem::Tagged { .. }));
        assert_eq!(sq.stats().nde_breaks, 1);
    }

    #[test]
    fn stale_windows_flush_by_age() {
        let mut sq = SquashUnit::new(1, 1000);
        let mut out = Vec::new();
        sq.push(&commit(0, 0, 0x8000_0000, 1, 1), &mut out);
        for _ in 0..63 {
            sq.on_cycle_end(&mut out);
        }
        assert!(out.is_empty());
        sq.on_cycle_end(&mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn fused_commit_codec_round_trip() {
        let f = FusedCommit {
            first_seq: 100,
            count: 16,
            final_pc: 0x8000_1000,
            token_first: 7,
            token_last: 99,
            int_writes: vec![(1, 2), (3, 4)],
            fp_writes: vec![(5, 6)],
        };
        let mut buf = Vec::new();
        f.encode_into(&mut buf);
        assert_eq!(buf.len(), f.encoded_len());
        let mut r = Reader::new(&buf);
        let mut back = FusedCommit::default();
        back.read_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn interrupts_are_tag_full() {
        let ev: Event = ArchEvent {
            is_interrupt: 1,
            ..Default::default()
        }
        .into();
        assert_eq!(classify(&ev), SquashClass::TagFull);
        let plain_load: Event = LoadEvent::default().into();
        assert_eq!(classify(&plain_load), SquashClass::Subsume);
    }
}
