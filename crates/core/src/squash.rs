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
//!
//! State dumps are also squashed in time: the monitor captures one every
//! commit cycle, but Squash holds the newest of each kind per core and
//! ships it once per fusion window (see [`SquashUnit`] for when).
//!
//! Squash reads the monitor's records in place, header first
//! ([`SquashUnit::push_record`]). A state dump is never viewed: Squash holds
//! it as its [`RecordHeader`] and a copy of its payload bytes, and at a
//! ship point sorts the core's due dumps by token once and lends each
//! header and payload to the [`SquashSink`]. Every other record is
//! classified by kind and its [`EventRef`] view, and commits fuse from
//! their [`InstrCommitRef`] fields.

use difftest_dut::{state_dump_slot, STATE_DUMPS};
use difftest_event::record::RecordHeader;
use difftest_event::wire::{CodecError, Reader, Writer};
use difftest_event::{commit_flags, EventKind, EventRef, InstrCommitRef};

use crate::wire::{read_varint, varint_len, write_varint};

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
    /// A state dump: held, newest per core and kind, and transmitted
    /// like [`Diff`](Self::Diff) once per fusion window.
    State,
}

/// Number of state-dump kinds Squash holds, each in its
/// [`state_dump_slot`]: a dump is a whole register file or CSR group, so
/// the newest one a window captured carries everything its older ones
/// did.
const HELD_SLOTS: usize = STATE_DUMPS.len();

/// Cycles a fusion window stays open, however few commits it holds.
pub const MAX_WINDOW_AGE: u32 = 64;

/// How far an order tag can lead its core's checker. Squash sends a
/// tagged or differenced item while its window is open, behind every
/// fused record closed before it, so the item leads by at most the
/// window's commits: [`MAX_WINDOW_AGE`] cycles of at most 6 (the widest
/// preset's commit group), whatever the window's commit limit.
pub const MAX_TAG_LEAD: u64 = MAX_WINDOW_AGE as u64 * 6;
/// How many items a core's checker parks at most: an item waits for the
/// record of its own window or, captured in a stall before that window
/// opened, of the next; two windows' cycles of at most 88 events (the
/// widest preset's slots per core and cycle).
pub const MAX_PARKED: usize = 2 * MAX_WINDOW_AGE as usize * 88;

/// Classifies an event under the Squash policy.
pub fn classify(event: &EventRef<'_>) -> SquashClass {
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
        // Repetitive state: held per window, then differenced.
        k if state_dump_slot(k).is_some() => SquashClass::State,
        // Repetitive fills: differencing wins, but each fill is checked.
        K::L1TlbEvent | K::L2TlbEvent | K::PtwEvent => SquashClass::Diff,
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
    /// Events transmitted differenced.
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

/// A held state dump: its record's header and a copy of its payload.
#[derive(Debug)]
struct HeldDump {
    header: RecordHeader,
    payload: Vec<u8>,
}

/// One core's fusion window and held state dumps. The record's write-set
/// vectors are cleared on reopening, never taken, and each dump's payload
/// is copied into its slot's buffer in place, so a steady stream of
/// windows allocates nothing.
#[derive(Debug)]
struct WindowState {
    open: bool,
    age: u32,
    rec: FusedCommit,
    /// The newest dump of each held kind, `None` until the first.
    dumps: [Option<HeldDump>; HELD_SLOTS],
    /// Bit `i` set: `dumps[i]` is held and not yet shipped.
    due: u8,
    /// A trap or interrupt entry has shipped: the core's next dump set
    /// ships at the end of its cycle.
    after_trap: bool,
    /// Order tag of the last MMIO `LoadEvent` shipped: the skipped load
    /// commit of the same tag has nothing left to tell the checker.
    mmio_load_tag: Option<u64>,
}

impl WindowState {
    fn new() -> Self {
        WindowState {
            open: false,
            age: 0,
            rec: FusedCommit::default(),
            dumps: Default::default(),
            due: 0,
            after_trap: false,
            mmio_load_tag: None,
        }
    }

    /// Makes `payload` the held dump of `slot`, due at the next ship
    /// point.
    fn hold(&mut self, slot: usize, header: &RecordHeader, payload: &[u8]) {
        let Some(held) = self.dumps.get_mut(slot) else {
            return;
        };
        match held {
            Some(dump) => {
                dump.header = *header;
                dump.payload.clear();
                dump.payload.extend_from_slice(payload);
            }
            None => {
                *held = Some(HeldDump {
                    header: *header,
                    payload: payload.to_vec(),
                });
            }
        }
        self.due |= 1 << slot;
    }

    /// Clears the due set and returns its slots in capture order, written
    /// into `order`. Tokens are unique, so one sort of at most
    /// [`HELD_SLOTS`] keys fixes the order.
    fn take_due<'a>(&mut self, order: &'a mut [(u64, usize); HELD_SLOTS]) -> &'a [(u64, usize)] {
        let mut n = 0;
        for (slot, held) in self.dumps.iter().enumerate() {
            let Some(dump) = held.as_ref().filter(|_| self.due & (1 << slot) != 0) else {
                continue;
            };
            if let Some(entry) = order.get_mut(n) {
                *entry = (dump.header.token.0, slot);
                n += 1;
            }
        }
        self.due = 0;
        let due = order.get_mut(..n).unwrap_or_default();
        due.sort_unstable();
        due
    }

    fn absorb(&mut self, header: &RecordHeader, c: InstrCommitRef<'_>) {
        let rec = &mut self.rec;
        if !self.open {
            self.open = true;
            self.age = 0;
            rec.first_seq = header.order.0;
            rec.count = 0;
            rec.token_first = header.token.0;
            rec.int_writes.clear();
            rec.fp_writes.clear();
        }
        rec.count += 1;
        rec.token_last = header.token.0;
        rec.final_pc = next_pc_of(c);
        if c.wen() != 0 {
            let set = if c.flags() & commit_flags::FP_WEN != 0 {
                &mut rec.fp_writes
            } else {
                &mut rec.int_writes
            };
            let (dest, data) = (c.wdest(), c.wdata());
            match set.iter_mut().find(|(r, _)| *r == dest) {
                Some(slot) => slot.1 = data,
                None => set.push((dest, data)),
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
fn next_pc_of(c: InstrCommitRef<'_>) -> u64 {
    if c.flags() & commit_flags::BRANCH_TAKEN != 0 || is_jump(c.instr()) {
        // Taken control flow: the target is the next sequential fetch PC,
        // which the monitor records as the *link* for jal/jalr (wdata) or
        // recomputes from the immediate for branches/jumps.
        decode_target(c)
    } else {
        c.pc().wrapping_add(4)
    }
}

fn is_jump(raw: u32) -> bool {
    matches!(raw & 0x7f, 0x6f | 0x67) || raw == 0x3020_0073 // jal/jalr/mret
}

fn decode_target(c: InstrCommitRef<'_>) -> u64 {
    use difftest_isa::{decode, Op};
    let insn = decode(c.instr());
    match insn.op {
        Op::Jal | Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu => {
            c.pc().wrapping_add(insn.imm as u64)
        }
        // jalr/mret targets depend on register/CSR state the commit record
        // does not carry; the monitor marks them with a zero final PC and
        // the checker falls back to comparing the next commit's PC.
        _ => 0,
    }
}

/// Where Squash's output goes: the one seam between classification and
/// fusion on this side and encoding on the other. Each record is lent as
/// its header and payload bytes, and the fusion record by reference,
/// never moved, so a sink that encodes (the packer inside
/// [`AccelUnit`](crate::AccelUnit)) copies each payload once, into its
/// packet. A payload is exactly its kind's length.
pub trait SquashSink {
    /// A record scheduled ahead with its order tag, full payload.
    fn tagged(&mut self, header: &RecordHeader, payload: &[u8]);
    /// A record to difference against the previous one of its kind.
    fn diff(&mut self, header: &RecordHeader, payload: &[u8]);
    /// A closed fusion window of `core`.
    fn fused(&mut self, core: u8, fused: &FusedCommit);
}

/// The hardware-side Squash unit.
///
/// State dumps (the [`SquashClass::State`] kinds) do not go out as they
/// arrive. Each core keeps the newest dump of each kind, as its header
/// and payload bytes, and ships the held ones, in capture (token) order,
/// at four points:
///
/// 1. **Window close**: every [`flush_core`](Self::flush_core), just
///    before the `Fused` record. A dump therefore reaches the checker
///    before the record that steps the REF past its tag.
/// 2. **Tagged events and skipped commits**: before every tagged event
///    and every skipped (MMIO) commit of the core, so no NDE of an equal
///    tag is applied before a dump captured ahead of it. The skipped
///    commit itself ships (tagged) only when it carries a skip value the
///    checker would otherwise not get: it is a load, and the core has not
///    already shipped an MMIO `LoadEvent` with its tag.
/// 3. **Trap entry**: after an `ArchEvent`, the core's next dump set
///    ships at the end of its cycle, keeping trap-entry state visible at
///    the handler's first cycle.
/// 4. **Differencing off** (ablation): the same points, as `Tagged` full
///    payloads.
///
/// Every dump still enters the retention ring, so Replay re-checks each
/// one at instruction granularity.
///
/// A record of a core the unit has no window for is forwarded as it is,
/// [`tagged`](SquashSink::tagged), for the consumer's admission to
/// reject.
#[derive(Debug)]
pub struct SquashUnit {
    windows: Vec<WindowState>,
    window_limit: u32,
    order_coupled: bool,
    differencing: bool,
    stats: SquashStats,
}

impl SquashUnit {
    /// Creates a unit for `cores` cores fusing up to `window_limit` commits.
    pub fn new(cores: usize, window_limit: u32) -> Self {
        SquashUnit {
            windows: (0..cores).map(|_| WindowState::new()).collect(),
            window_limit: window_limit.max(1),
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

    /// Processes one monitored record, given as its header and payload
    /// bytes, and hands what it puts on the wire to `out`. A state dump
    /// is held as its bytes, never viewed; every other kind is viewed
    /// first. [`Records::next_raw`] yields records in this form.
    ///
    /// [`Records::next_raw`]: difftest_event::record::Records::next_raw
    ///
    /// # Errors
    ///
    /// [`EventRef::parse`]'s error when `payload` is not its kind's
    /// length; nothing of the record is taken then.
    #[inline]
    pub fn push_record<S: SquashSink>(
        &mut self,
        header: &RecordHeader,
        payload: &[u8],
        out: &mut S,
    ) -> Result<(), CodecError> {
        match state_dump_slot(header.kind) {
            Some(slot) if payload.len() == header.kind.encoded_len() => {
                self.hold(slot, header, payload, out);
            }
            _ => self.push_view(header, EventRef::parse(header.kind, payload)?, out),
        }
        Ok(())
    }

    /// Forwards a record of a core without a window as it is.
    fn forward<S: SquashSink>(&mut self, header: &RecordHeader, payload: &[u8], out: &mut S) {
        self.stats.tagged += 1;
        out.tagged(header, payload);
    }

    /// Holds a state dump in its core's `slot`.
    fn hold<S: SquashSink>(
        &mut self,
        slot: usize,
        header: &RecordHeader,
        payload: &[u8],
        out: &mut S,
    ) {
        match self.windows.get_mut(usize::from(header.core)) {
            Some(w) => w.hold(slot, header, payload),
            None => self.forward(header, payload, out),
        }
    }

    /// Processes a record that is not a state dump, through its view.
    fn push_view<S: SquashSink>(
        &mut self,
        header: &RecordHeader,
        event: EventRef<'_>,
        out: &mut S,
    ) {
        let core = usize::from(header.core);
        let Some(w) = self.windows.get_mut(core) else {
            return self.forward(header, event.wire_bytes(), out);
        };
        let mut class = classify(&event);
        if class == SquashClass::Diff && !self.differencing {
            class = SquashClass::TagFull;
        }
        match class {
            SquashClass::Fuse => {
                let EventRef::InstrCommit(c) = event else {
                    unreachable!("only commits fuse")
                };
                // A skipped (MMIO) commit is itself an NDE. A load's
                // observed value must reach the checker even where no
                // LoadEvent carried it (NutShell has no LoadEvent slots,
                // atomics get none, the cycle budget may drop one), so
                // such a commit is scheduled ahead with its order tag
                // before fusing it. A store's arms nothing, and neither
                // does a load's whose LoadEvent already shipped.
                if event.is_nde() {
                    let covered = w.mmio_load_tag == Some(header.order.0);
                    self.ship_dumps(core, out);
                    if c.flags() & commit_flags::LOAD != 0 && !covered {
                        self.stats.tagged += 1;
                        out.tagged(header, event.wire_bytes());
                    }
                }
                let Some(w) = self.windows.get_mut(core) else {
                    return;
                };
                w.absorb(header, c);
                self.stats.commits_fused += 1;
                if w.rec.count >= self.window_limit {
                    self.flush_core(header.core, out);
                }
            }
            SquashClass::Subsume => {
                self.stats.subsumed += 1;
            }
            SquashClass::TagFull => {
                if self.order_coupled && event.is_nde() && w.open {
                    // Prior work: an NDE forces the fused window out first
                    // so transmission order equals checking order.
                    self.stats.nde_breaks += 1;
                    self.flush_core(header.core, out);
                }
                self.ship_dumps(core, out);
                if let Some(w) = self.windows.get_mut(core) {
                    match header.kind {
                        EventKind::ArchEvent => w.after_trap = true,
                        EventKind::LoadEvent => w.mmio_load_tag = Some(header.order.0),
                        _ => {}
                    }
                }
                self.stats.tagged += 1;
                out.tagged(header, event.wire_bytes());
            }
            SquashClass::Diff => {
                self.stats.diffed += 1;
                out.diff(header, event.wire_bytes());
            }
            SquashClass::State => unreachable!("state dumps are held before they are viewed"),
        }
    }

    /// Ships `core`'s held dumps in capture (token) order.
    fn ship_dumps<S: SquashSink>(&mut self, core: usize, out: &mut S) {
        let Some(w) = self.windows.get_mut(core) else {
            return;
        };
        if w.due == 0 {
            return;
        }
        let mut order = [(0, 0); HELD_SLOTS];
        for &(_, slot) in w.take_due(&mut order) {
            let Some(Some(dump)) = w.dumps.get(slot) else {
                continue;
            };
            if self.differencing {
                self.stats.diffed += 1;
                out.diff(&dump.header, &dump.payload);
            } else {
                self.stats.tagged += 1;
                out.tagged(&dump.header, &dump.payload);
            }
        }
    }

    /// Ends one DUT cycle: ships the first dump set after a trap entry,
    /// ages open windows and flushes stale ones.
    pub fn on_cycle_end<S: SquashSink>(&mut self, out: &mut S) {
        for core in 0..self.windows.len() {
            if let Some(w) = self.windows.get_mut(core) {
                if w.after_trap && w.due != 0 {
                    w.after_trap = false;
                    self.ship_dumps(core, out);
                }
            }
            if let Some(w) = self.windows.get_mut(core) {
                if w.open {
                    w.age += 1;
                    if w.age >= MAX_WINDOW_AGE {
                        self.flush_core(core as u8, out);
                    }
                }
            }
        }
    }

    /// Ships one core's held dumps, then its open fusion window.
    pub fn flush_core<S: SquashSink>(&mut self, core: u8, out: &mut S) {
        self.ship_dumps(usize::from(core), out);
        if let Some(w) = self.windows.get_mut(usize::from(core)) {
            if w.open {
                w.open = false;
                self.stats.fused_records += 1;
                out.fused(core, &w.rec);
            }
        }
    }

    /// Flushes every core's held dumps and open window (end of
    /// simulation, replay requests).
    pub fn flush_all<S: SquashSink>(&mut self, out: &mut S) {
        for core in 0..self.windows.len() as u8 {
            self.flush_core(core, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireItem;
    use difftest_event::{
        ArchEvent, ArchIntRegState, CsrState, Event, InstrCommit, LoadEvent, MonitoredEvent,
        OrderTag, Token,
    };

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

    fn at(seq: u64, token: u64, event: Event) -> MonitoredEvent {
        MonitoredEvent {
            core: 0,
            cycle: seq,
            order: OrderTag(seq),
            token: Token(token),
            event,
        }
    }

    fn xregs(seq: u64, token: u64, v: u64) -> MonitoredEvent {
        at(seq, token, ArchIntRegState { regs: [v; 32] }.into())
    }

    fn csrs(seq: u64, token: u64) -> MonitoredEvent {
        at(seq, token, CsrState::default().into())
    }

    /// `event`'s payload, viewed.
    fn view(event: &Event) -> EventRef<'static> {
        let mut bytes = Vec::new();
        event.encode_into(&mut bytes);
        EventRef::parse(event.kind(), bytes.leak()).unwrap()
    }

    /// Each item as `class:kind@token`, a fusion record as `fused`.
    fn shape(items: &[WireItem]) -> Vec<String> {
        items
            .iter()
            .map(|item| match item {
                WireItem::Plain { event, .. } => format!("plain:{:?}", event.kind()),
                WireItem::Tagged { token, event, .. } => {
                    format!("tagged:{:?}@{}", event.kind(), token.0)
                }
                WireItem::Diff { token, event, .. } => {
                    format!("diff:{:?}@{}", event.kind(), token.0)
                }
                WireItem::Fused { .. } => "fused".to_owned(),
            })
            .collect()
    }

    /// Each held kind owns a slot of its own, its capture position.
    #[test]
    fn held_kinds_own_distinct_slots() {
        let mut slots: Vec<usize> = EventKind::ALL
            .into_iter()
            .filter_map(state_dump_slot)
            .collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..HELD_SLOTS).collect::<Vec<_>>());
        for kind in EventKind::ALL {
            let at = STATE_DUMPS.iter().position(|&k| k == kind);
            assert_eq!(state_dump_slot(kind), at, "{kind:?}");
        }
    }

    /// Rule 1: a window's held dumps go out just before its record, in
    /// capture order, and only the newest of each kind.
    #[test]
    fn held_dumps_ship_before_fused_in_token_order() {
        let mut sq = SquashUnit::new(1, 2);
        let mut out = Vec::new();
        sq.push(&commit(0, 0, 0x8000_0000, 1, 1), &mut out);
        // CSRs captured before the register file: token order, not slot
        // order, decides what ships first.
        sq.push(&csrs(1, 1), &mut out);
        sq.push(&xregs(1, 2, 7), &mut out);
        sq.push(&xregs(1, 3, 8), &mut out);
        sq.on_cycle_end(&mut out);
        assert!(out.is_empty(), "dumps are held: {:?}", shape(&out));
        sq.push(&commit(1, 4, 0x8000_0004, 1, 2), &mut out);
        assert_eq!(
            shape(&out),
            ["diff:CsrState@1", "diff:ArchIntRegState@3", "fused"]
        );
        assert_eq!(sq.stats().diffed, 2);
    }

    /// Rule 2: a tagged event of the core, an NDE load or a skipped MMIO
    /// load no `LoadEvent` covered, ships the held dumps ahead of itself
    /// and leaves the window open.
    #[test]
    fn tagged_events_ship_held_dumps_first() {
        let mut sq = SquashUnit::new(1, 8);
        let mut out = Vec::new();
        sq.push(&commit(0, 0, 0x8000_0000, 1, 1), &mut out);
        sq.push(&xregs(1, 1, 7), &mut out);
        sq.push(&mmio_load(1, 2), &mut out);
        assert_eq!(
            shape(&out),
            ["diff:ArchIntRegState@1", "tagged:LoadEvent@2"]
        );

        out.clear();
        sq.push(&xregs(1, 3, 8), &mut out);
        let mut skipped = commit(2, 4, 0x8000_0004, 1, 2);
        if let Event::InstrCommit(c) = &mut skipped.event {
            c.flags |= commit_flags::SKIP | commit_flags::LOAD;
        }
        sq.push(&skipped, &mut out);
        assert_eq!(
            shape(&out),
            ["diff:ArchIntRegState@3", "tagged:InstrCommit@4"]
        );
        assert!(sq.windows[0].open);
    }

    /// A skipped (MMIO) commit of instruction `seq` with `flags` added.
    fn skipped(seq: u64, token: u64, flags: u8) -> MonitoredEvent {
        let mut ev = commit(seq, token, 0x8000_0000 + 4 * seq, 1, 0xab);
        if let Event::InstrCommit(c) = &mut ev.event {
            c.flags |= commit_flags::SKIP | flags;
        }
        ev
    }

    /// An MMIO load's value crosses the link once: its `LoadEvent` ships
    /// tagged, and the skipped load commit of the same tag does not.
    #[test]
    fn skipped_load_after_its_load_event_ships_the_load_event_only() {
        let mut sq = SquashUnit::new(1, 8);
        let mut out = Vec::new();
        sq.push(&commit(0, 0, 0x8000_0000, 1, 1), &mut out);
        sq.push(&mmio_load(1, 1), &mut out);
        sq.push(&skipped(1, 2, commit_flags::LOAD), &mut out);
        assert_eq!(shape(&out), ["tagged:LoadEvent@1"]);
        assert_eq!(sq.stats().tagged, 1);
        assert_eq!(sq.windows[0].rec.count, 2, "the commit still fuses");
    }

    /// A skipped load with no `LoadEvent` ahead of it (NutShell, an MMIO
    /// atomic, a budget-dropped event) carries the only copy of its skip
    /// value, so it ships tagged.
    #[test]
    fn skipped_load_without_a_load_event_ships_tagged() {
        let mut sq = SquashUnit::new(1, 8);
        let mut out = Vec::new();
        sq.push(&skipped(0, 0, commit_flags::LOAD), &mut out);
        assert_eq!(shape(&out), ["tagged:InstrCommit@0"]);
    }

    /// Only a `LoadEvent` of the same order tag stands in for the commit:
    /// one tagged to the previous instruction does not.
    #[test]
    fn load_event_of_another_tag_does_not_cover_a_skipped_load() {
        let mut sq = SquashUnit::new(1, 8);
        let mut out = Vec::new();
        sq.push(&mmio_load(4, 1), &mut out);
        sq.push(&skipped(5, 2, commit_flags::LOAD), &mut out);
        assert_eq!(shape(&out), ["tagged:LoadEvent@1", "tagged:InstrCommit@2"]);
    }

    /// A skipped store arms nothing at the checker, so it never ships
    /// tagged; the core's held dumps still go out at that point.
    #[test]
    fn skipped_store_ships_held_dumps_but_not_itself() {
        let mut sq = SquashUnit::new(1, 8);
        let mut out = Vec::new();
        sq.push(&commit(0, 0, 0x8000_0000, 1, 1), &mut out);
        sq.push(&xregs(1, 1, 7), &mut out);
        sq.push(&skipped(1, 2, commit_flags::STORE), &mut out);
        assert_eq!(shape(&out), ["diff:ArchIntRegState@1"]);
        assert_eq!(sq.stats().tagged, 0);
        assert!(sq.windows[0].open);
    }

    /// Rule 3: after a trap or interrupt entry, the core's next dump set
    /// ships at the end of its cycle; the set after that is held again.
    #[test]
    fn trap_entry_ships_the_next_dump_set_at_cycle_end() {
        let mut sq = SquashUnit::new(1, 32);
        let mut out = Vec::new();
        sq.push(&commit(0, 0, 0x8000_0000, 1, 1), &mut out);
        let entry = ArchEvent {
            is_interrupt: 1,
            ..Default::default()
        };
        sq.push(&at(1, 1, entry.into()), &mut out);
        sq.on_cycle_end(&mut out);
        assert_eq!(shape(&out), ["tagged:ArchEvent@1"]);

        sq.push(&commit(1, 2, 0x8000_0100, 1, 2), &mut out);
        sq.push(&xregs(2, 3, 7), &mut out);
        sq.push(&csrs(2, 4), &mut out);
        sq.on_cycle_end(&mut out);
        assert_eq!(
            shape(&out[1..]),
            ["diff:ArchIntRegState@3", "diff:CsrState@4"]
        );

        out.clear();
        sq.push(&commit(2, 5, 0x8000_0104, 1, 3), &mut out);
        sq.push(&xregs(3, 6, 8), &mut out);
        sq.on_cycle_end(&mut out);
        assert!(out.is_empty(), "held again: {:?}", shape(&out));
    }

    /// `flush_all` ships held dumps even when no window is open.
    #[test]
    fn flush_all_ships_held_dumps_without_an_open_window() {
        let mut sq = SquashUnit::new(1, 1);
        let mut out = Vec::new();
        sq.push(&commit(0, 0, 0x8000_0000, 1, 1), &mut out);
        sq.push(&xregs(1, 1, 7), &mut out);
        assert_eq!(shape(&out), ["fused"]);
        sq.flush_all(&mut out);
        assert_eq!(shape(&out), ["fused", "diff:ArchIntRegState@1"]);
    }

    /// Rule 4: without differencing, dumps ship as full `Tagged` payloads
    /// at the same points: once per window, not once per cycle.
    #[test]
    fn without_differencing_dumps_ship_tagged_once_per_window() {
        let mut sq = SquashUnit::new(1, 4);
        sq.set_differencing(false);
        let mut out = Vec::new();
        for i in 0..4 {
            sq.push(&commit(i, 2 * i, 0x8000_0000 + 4 * i, 1, i), &mut out);
            sq.push(&xregs(i + 1, 2 * i + 1, i), &mut out);
            sq.on_cycle_end(&mut out);
        }
        sq.flush_all(&mut out);
        assert_eq!(
            shape(&out),
            [
                "tagged:ArchIntRegState@5",
                "fused",
                "tagged:ArchIntRegState@7"
            ]
        );
        assert_eq!((sq.stats().tagged, sq.stats().diffed), (2, 0));
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
        assert_eq!(classify(&view(&ev)), SquashClass::TagFull);
        let plain_load: Event = LoadEvent::default().into();
        assert_eq!(classify(&view(&plain_load)), SquashClass::Subsume);
    }
}
