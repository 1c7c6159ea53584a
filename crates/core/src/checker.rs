//! The ISA checker: drives the REF from the wire stream and compares.
//!
//! The checker consumes wire items ([`WireItemRef`] views over the packet
//! bytes, fed by [`crate::Consumer`]) in arrival order. In plain mode
//! (baseline / Batch-only) arrival order *is* checking order. In Squash
//! mode, order-decoupled items carry [`difftest_event::OrderTag`]s and are
//! parked until the fused commit covering their position arrives; the
//! checker then restores the required checking order (paper §4.3
//! "reordering"): for each fused instruction it first applies/checks the
//! *pre* events bound to that sequence number (interrupt entries, MMIO
//! skips, state dumps, TLB and i-cache fills), steps the REF, then checks
//! the *post* events (stores, atomics, redirect-class checks).
//!
//! Every event is checked through its [`EventRef`] view, by one compare
//! routine whatever route it took: a plain item is viewed in its packet, a
//! Replay record in the retention ring, and a parked item in a copy of its
//! payload bytes, kept in a recycled buffer until its position is reached.
//! Only commits copy their small fixed struct off the view.
//!
//! Checkpoints for the Replay mechanism are taken before each fused record
//! when replay support is enabled.

use std::collections::VecDeque;
use std::fmt;

use difftest_dut::{dump_words, state_dump_slot, write_state_dump};
use difftest_event::record::RecordRef;
use difftest_event::{commit_flags, EventKind, EventRef, InstrCommit, Token};
use difftest_isa::csr::CsrIndex;
use difftest_isa::trap::Interrupt;
use difftest_ref::exec::Effect;
use difftest_ref::{DecodeCacheStats, RefModel, StepOutcome};

use crate::squash::{FusedCommit, MAX_PARKED, MAX_TAG_LEAD};
use crate::wire::WireItemRef;

/// A detected divergence between the DUT and the REF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Core on which the divergence was detected.
    pub core: u8,
    /// Instruction sequence number at detection.
    pub seq: u64,
    /// The check that failed (e.g. `"commit.pc"`, `"csr mstatus"`).
    pub check: String,
    /// Expected (REF) value rendering.
    pub expected: String,
    /// Actual (DUT) value rendering.
    pub actual: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "core {} @ instruction {}: {} expected {} got {}",
            self.core, self.seq, self.check, self.expected, self.actual
        )
    }
}

/// Flow decision after processing an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Keep going.
    Continue,
    /// The simulation-terminating trap was verified.
    Halt {
        /// Core that trapped.
        core: u8,
        /// `true` for a good trap.
        good: bool,
        /// Trap PC.
        pc: u64,
    },
}

/// Checker-side statistics (drives the software-processing cost model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Events checked (all kinds).
    pub events: u64,
    /// REF instructions stepped.
    pub instructions: u64,
    /// MMIO skips synchronized.
    pub skips: u64,
    /// Interrupts synchronized.
    pub interrupts: u64,
    /// Exceptions verified.
    pub exceptions: u64,
    /// Fused records processed.
    pub fused_records: u64,
    /// Payload bytes compared.
    pub bytes: u64,
}

/// Whether an order-tagged event is checked *before* stepping its tagged
/// instruction (state it describes precedes the instruction) or *after*.
fn is_pre(event: &EventRef<'_>) -> bool {
    use EventKind as K;
    match event.kind() {
        K::ArchEvent
        | K::TrapEvent
        | K::VirtualInterrupt
        | K::GuestPageFault
        | K::L1TlbEvent
        | K::L2TlbEvent
        | K::PtwEvent => true,
        K::LoadEvent | K::InstrCommit => event.is_nde(), // MMIO skips arm pre-step
        K::RefillEvent => matches!(event, EventRef::RefillEvent(r) if r.refill_type() != 0),
        // A state dump describes the state before its instruction.
        k => state_dump_slot(k).is_some(),
    }
}

/// Whether a commit's flags mark an MMIO load whose value the REF must
/// skip to rather than compute.
fn is_skip_load(flags: u8) -> bool {
    flags & commit_flags::SKIP != 0 && flags & commit_flags::LOAD != 0
}

/// An order-tagged item waiting for its checking position: the payload
/// bytes it arrived with, copied into a buffer of the spare list.
#[derive(Debug)]
struct Parked {
    tag: u64,
    token: Token,
    kind: EventKind,
    /// [`is_pre`] of the payload, classified once on arrival.
    pre: bool,
    bytes: Vec<u8>,
}

/// The small-dump fields a mismatch names, as `(kind, offset, length,
/// name)`; any other small-dump byte is named by its offset.
const DUMP_FIELDS: [(EventKind, usize, usize, &str); 8] = [
    (EventKind::VecCsrState, 0, 8, "vstart"),
    (EventKind::VecCsrState, 8, 8, "vl"),
    (EventKind::VecCsrState, 16, 8, "vtype"),
    (EventKind::VecCsrState, 24, 8, "vcsr"),
    (EventKind::HypervisorCsrState, 0, 8, "hstatus"),
    (EventKind::HypervisorCsrState, 8, 8, "hedeleg"),
    (EventKind::TriggerCsrState, 0, 8, "tselect"),
    (EventKind::DebugModeState, 0, 1, "debug_mode"),
];

/// The field of a `kind` dump that holds byte `off`: its name, offset
/// and length.
fn dump_field(kind: EventKind, off: usize) -> (String, usize, usize) {
    use EventKind as K;
    let i = off / 8;
    let word = |name| (name, 8 * i, 8);
    match kind {
        K::ArchIntRegState => word(format!("xreg x{i}")),
        K::ArchFpRegState => word(format!("freg f{i}")),
        K::CsrState => word(format!(
            "csr {}",
            CsrIndex::from_dense(i).map_or("?", |c| c.name())
        )),
        K::ArchVecRegState => word(format!("vreg half {i}")),
        _ => DUMP_FIELDS
            .iter()
            .find(|&&(k, at, len, _)| k == kind && (at..at + len).contains(&off))
            .map_or(
                (format!("{} byte {off}", kind.name()), off, 1),
                |&(_, at, len, name)| (name.to_owned(), at, len),
            ),
    }
}

#[derive(Debug, Clone, Copy)]
struct Checkpoint {
    seq: u64,
    token: u64,
}

#[derive(Debug)]
struct CoreChecker {
    core: u8,
    refm: RefModel,
    /// Sequence number of the next instruction to check.
    seq: u64,
    last_effect: Option<Effect>,
    /// Parked items, sorted by tag and in arrival (capture) order within
    /// a tag.
    pending: VecDeque<Parked>,
    /// Byte buffers of checked or discarded parked items, for reuse.
    spare: Vec<Vec<u8>>,
    token_watermark: u64,
    ckpt: Option<Checkpoint>,
    replay_support: bool,
    /// The REF's rendering of the dump being compared, reused.
    dump: Vec<u8>,
}

macro_rules! mismatch {
    ($self:expr, $check:expr, $expected:expr, $actual:expr) => {
        return Err(Mismatch {
            core: $self.core,
            seq: $self.seq,
            check: $check.to_string(),
            expected: format!("{:#x}", $expected),
            actual: format!("{:#x}", $actual),
        })
    };
}

impl CoreChecker {
    /// A checker for `core` that has checked `seq` instructions so far.
    /// `replay_support` turns on the REF journal the Replay revert needs.
    fn new(core: u8, mut refm: RefModel, seq: u64, replay_support: bool) -> Self {
        refm.set_journal_enabled(replay_support);
        CoreChecker {
            core,
            refm,
            seq,
            last_effect: None,
            pending: VecDeque::new(),
            spare: Vec::new(),
            token_watermark: 0,
            ckpt: None,
            replay_support,
            dump: Vec::new(),
        }
    }

    fn ensure(
        &self,
        cond: bool,
        check: impl Into<String>,
        expected: impl fmt::LowerHex,
        actual: impl fmt::LowerHex,
    ) -> Result<(), Mismatch> {
        if cond {
            Ok(())
        } else {
            Err(Mismatch {
                core: self.core,
                seq: self.seq,
                check: check.into(),
                expected: format!("{expected:#x}"),
                actual: format!("{actual:#x}"),
            })
        }
    }

    /// Checks named DUT CSR values against the REF's, in order.
    fn check_csrs<const N: usize>(&self, csrs: [(&str, CsrIndex, u64); N]) -> Result<(), Mismatch> {
        for (name, csr, dut) in csrs {
            let want = self.refm.state().csr(csr);
            self.ensure(dut == want, name, want, dut)?;
        }
        Ok(())
    }

    /// Checks one plain instruction commit: PC, step, destination value.
    fn check_commit(&mut self, c: &InstrCommit, stats: &mut CheckStats) -> Result<(), Mismatch> {
        self.ensure(
            self.refm.state().pc() == c.pc,
            "commit.pc",
            self.refm.state().pc(),
            c.pc,
        )?;

        if is_skip_load(c.flags) {
            self.refm.skip_next(c.wdata);
            stats.skips += 1;
        }

        match self.refm.step() {
            StepOutcome::Retired { effect, .. } => {
                if c.wen != 0 {
                    let got = if c.flags & commit_flags::FP_WEN != 0 {
                        effect.fw.map(|(r, v)| (r.index() as u8, v))
                    } else {
                        effect.xw.map(|(r, v)| (r.index() as u8, v))
                    };
                    match got {
                        Some((rd, v)) => {
                            self.ensure(rd == c.wdest, "commit.wdest", rd, c.wdest)?;
                            self.ensure(v == c.wdata, "commit.wdata", v, c.wdata)?;
                        }
                        None => mismatch!(self, "commit.wen", 0u64, c.wen as u64),
                    }
                }
                self.last_effect = Some(effect);
            }
            StepOutcome::Skipped { .. } => {
                self.last_effect = None;
            }
            StepOutcome::Trapped { trap, .. } => {
                mismatch!(self, "commit.step: REF trapped", trap.mcause(), c.pc)
            }
        }
        stats.instructions += 1;
        self.seq += 1;
        Ok(())
    }

    /// Compares one state dump's payload against the REF's state. A
    /// register-file dump compares its words in place; a small dump is
    /// rendered from the REF by the monitor's own writer and compared as
    /// bytes. The divergent field is named only on failure, so a clean
    /// dump costs no allocation.
    fn check_dump(&mut self, kind: EventKind, got: &[u8]) -> Result<(), Mismatch> {
        let st = self.refm.state();
        let same = match dump_words(kind, st) {
            Some(want) => (got.as_chunks::<8>().0.iter())
                .zip(want)
                .all(|(g, w)| u64::from_le_bytes(*g) == *w),
            None => {
                self.dump.clear();
                write_state_dump(kind, st, &mut self.dump);
                self.dump == got
            }
        };
        if same {
            return Ok(());
        }
        self.dump.clear();
        write_state_dump(kind, st, &mut self.dump);
        let off = self.dump.iter().zip(got).position(|(w, g)| w != g);
        let (check, at, len) = dump_field(kind, off.unwrap_or(0));
        let field = |b: &[u8]| {
            b.get(at..at + len)
                .map_or(0, |f| f.iter().rfold(0, |v, &x| v << 8 | u64::from(x)))
        };
        self.ensure(false, check, field(&self.dump), field(got))
    }

    /// Checks one event view against the current REF state: the
    /// checker's one compare routine, for every kind on every route. A
    /// plain item is viewed in its packet, a Replay record in the ring,
    /// and a parked item in its copy, with `tag` its order tag. The event
    /// is counted before the verdict, so a divergent one charges the same
    /// stats on every route. Commits copy their small fixed struct off
    /// the view; every other kind reads its fields in place.
    fn check_event(
        &mut self,
        ev: &EventRef<'_>,
        tag: Option<u64>,
        stats: &mut CheckStats,
    ) -> Result<Option<Verdict>, Mismatch> {
        stats.events += 1;
        stats.bytes += ev.wire_bytes().len() as u64;
        let refm = &self.refm;
        match *ev {
            EventRef::InstrCommit(c) => match tag {
                // An order-tagged skip-commit only arms its
                // synchronization; the fused window performs the
                // architectural step.
                Some(tag) => {
                    if is_skip_load(c.flags()) {
                        self.arm_skip(tag, c.wdata(), stats);
                    }
                }
                None => self.check_commit(&c.to_owned(), stats)?,
            },
            EventRef::TrapEvent(t) => {
                // Simulation end.
                let pc = self.refm.state().pc();
                self.ensure(pc == t.pc(), "trap.pc", pc, t.pc())?;
                return Ok(Some(Verdict::Halt {
                    core: self.core,
                    good: t.code() == 0,
                    pc: t.pc(),
                }));
            }
            EventRef::ArchEvent(a) => {
                if a.is_interrupt() != 0 {
                    // NDE synchronization: force the REF to take the DUT's
                    // interrupt at this boundary.
                    self.ensure(
                        refm.state().pc() == a.pc(),
                        "interrupt.pc",
                        refm.state().pc(),
                        a.pc(),
                    )?;
                    let code = a.cause() & 0x3ff;
                    let Some(intr) = Interrupt::from_code(code) else {
                        mismatch!(self, "interrupt.cause (unknown)", 7u64, code);
                    };
                    self.refm.raise_interrupt(intr);
                    stats.interrupts += 1;
                } else {
                    // Exception: the REF must trap identically.
                    match self.refm.step() {
                        StepOutcome::Trapped { pc, trap } => {
                            self.ensure(pc == a.pc(), "exception.pc", pc, a.pc())?;
                            self.ensure(
                                trap.mcause() == a.cause(),
                                "exception.cause",
                                trap.mcause(),
                                a.cause(),
                            )?;
                            self.ensure(
                                trap.mtval() == a.tval(),
                                "exception.tval",
                                trap.mtval(),
                                a.tval(),
                            )?;
                        }
                        other => {
                            mismatch!(
                                self,
                                format!("exception: REF outcome {other:?}"),
                                a.cause(),
                                0u64
                            )
                        }
                    }
                    stats.exceptions += 1;
                }
            }
            EventRef::ArchIntRegState(_)
            | EventRef::ArchFpRegState(_)
            | EventRef::CsrState(_)
            | EventRef::ArchVecRegState(_)
            | EventRef::VecCsrState(_)
            | EventRef::HypervisorCsrState(_)
            | EventRef::TriggerCsrState(_)
            | EventRef::DebugModeState(_) => self.check_dump(ev.kind(), ev.wire_bytes())?,
            EventRef::IntWriteback(w) => {
                let want = refm.state().xreg(difftest_isa::Reg::new(w.idx()));
                if w.data() != want {
                    self.ensure(false, format!("int writeback x{}", w.idx()), want, w.data())?;
                }
            }
            EventRef::FpWriteback(w) => {
                let want = refm.state().freg(difftest_isa::FReg::new(w.idx()));
                if w.data() != want {
                    self.ensure(false, format!("fp writeback f{}", w.idx()), want, w.data())?;
                }
            }
            EventRef::LoadEvent(l) => {
                if l.is_mmio() != 0 {
                    // On the stream the commit's SKIP flag arms and
                    // consumes the synchronization, and the event itself
                    // is informational. An order-tagged MMIO load (Squash
                    // mode) arms the skip of the instruction it is tagged
                    // to.
                    if let Some(tag) = tag {
                        self.arm_skip(tag, l.data(), stats);
                    }
                } else if let Some(eff) = &self.last_effect {
                    if let Some(m) = eff.memr {
                        self.ensure(l.addr() == m.addr, "load.addr", m.addr, l.addr())?;
                    }
                    if let Some((_, v)) = eff.xw.or(eff
                        .fw
                        .map(|(r, v)| (difftest_isa::Reg::new(r.index() as u8), v)))
                    {
                        self.ensure(l.data() == v, "load.data", v, l.data())?;
                    }
                }
            }
            EventRef::StoreEvent(s) => {
                let Some(w) = self.last_effect.as_ref().and_then(|e| e.memw) else {
                    mismatch!(self, "store event without REF store", 0u64, s.addr());
                };
                let base = w.addr & !7;
                let off = (w.addr - base) as u32;
                let mask = (((1u16 << w.len) - 1) as u8) << off;
                let data = w.value << (8 * off);
                self.ensure(s.addr() == base, "store.addr", base, s.addr())?;
                self.ensure(s.mask() == mask, "store.mask", mask, s.mask())?;
                // Compare only the bytes the mask enables.
                let mut bitmask = 0u64;
                for b in 0..8 {
                    if mask & (1 << b) != 0 {
                        bitmask |= 0xffu64 << (8 * b);
                    }
                }
                self.ensure(
                    s.data() & bitmask == data & bitmask,
                    "store.data",
                    data & bitmask,
                    s.data() & bitmask,
                )?;
            }
            EventRef::AtomicEvent(a) => {
                let Some(w) = self.last_effect.as_ref().and_then(|e| e.memw) else {
                    mismatch!(self, "atomic event without REF store", 0u64, a.addr());
                };
                self.ensure(a.addr() == w.addr, "atomic.addr", w.addr, a.addr())?;
                if let Some((_, v)) = self.last_effect.as_ref().and_then(|e| e.xw) {
                    self.ensure(a.out() == v, "atomic.out", v, a.out())?;
                }
            }
            EventRef::LrScEvent(l) => {
                if l.valid() != 0 {
                    let want = self
                        .last_effect
                        .as_ref()
                        .and_then(|e| e.xw)
                        .map(|(_, v)| (v == 0) as u8)
                        .unwrap_or(0);
                    self.ensure(l.success() == want, "sc.success", want, l.success())?;
                }
            }
            EventRef::SbufferEvent(s) => {
                let (addr, mask, data) = (s.addr(), s.mask(), s.data());
                for (b, &got) in (0..64u64).zip(data) {
                    if mask & (1 << b) != 0 {
                        let want = self.refm.mem().read_u8(addr + b);
                        if got != want {
                            self.ensure(false, format!("sbuffer byte {b}"), want, got)?;
                        }
                    } else if got != 0 {
                        self.ensure(false, format!("sbuffer bubble {b}"), 0u8, got)?;
                    }
                }
            }
            EventRef::RefillEvent(r) => {
                let line = r.addr() & !63;
                for (i, beat) in r.data().iter().enumerate() {
                    let want = self.refm.mem().read(line + 8 * i as u64, 8);
                    if beat != want {
                        self.ensure(false, format!("refill beat {i}"), want, beat)?;
                    }
                }
            }
            EventRef::L1TlbEvent(t) => {
                if t.valid() != 0 {
                    self.ensure(t.ppn() == t.vpn(), "l1tlb identity", t.vpn(), t.ppn())?;
                    let satp = self.refm.state().csr(CsrIndex::Satp);
                    self.ensure(t.satp() == satp, "l1tlb.satp", satp, t.satp())?;
                }
            }
            EventRef::L2TlbEvent(t) => {
                if t.valid() != 0 {
                    let vpn = t.vpn();
                    for (i, p) in t.ppns().iter().enumerate() {
                        if p != vpn + i as u64 {
                            self.ensure(false, format!("l2tlb ppn {i}"), vpn + i as u64, p)?;
                        }
                    }
                }
            }
            EventRef::PtwEvent(p) => {
                let leaf = p.levels().get(3);
                self.ensure(p.pf() == 0, "ptw.pf", 0u8, p.pf())?;
                self.ensure(leaf == p.vpn(), "ptw leaf", p.vpn(), leaf)?;
            }
            EventRef::Redirect(r) => {
                let want = self.refm.state().pc();
                self.ensure(r.target() == want, "redirect.target", want, r.target())?;
            }
            EventRef::RunaheadEvent(r) => {
                if r.valid() != 0 {
                    let want = (self.seq.wrapping_sub(1) & 0xffff) as u16;
                    self.ensure(
                        r.checkpoint_id() == want,
                        "runahead.id",
                        want,
                        r.checkpoint_id(),
                    )?;
                }
            }
            EventRef::FpCsrUpdate(u) => {
                let want = self.refm.state().csr(CsrIndex::Fcsr);
                self.ensure(u.data() == want, "fcsr.data", want, u.data())?;
                self.ensure(
                    u.fflags() as u64 == want & 0x1f,
                    "fcsr.fflags",
                    want & 0x1f,
                    u.fflags() as u64,
                )?;
            }
            EventRef::VecConfig(v) => self.check_csrs([
                ("vecconfig.vl", CsrIndex::Vl, v.vl()),
                ("vecconfig.vtype", CsrIndex::Vtype, v.vtype()),
            ])?,
            EventRef::HCsrUpdate(h) => {
                if let Some(c) = CsrIndex::from_address(h.addr()) {
                    let want = self.refm.state().csr(c);
                    self.ensure(
                        h.data() == want,
                        format!("hcsr {}", c.name()),
                        want,
                        h.data(),
                    )?;
                }
            }
            // Rarely-emitted extension events: structural validity only.
            EventRef::VecWriteback(_) | EventRef::VecLoad(_) | EventRef::VecStore(_) => {}
            EventRef::VirtualInterrupt(v) => {
                self.ensure(
                    v.valid() == 0,
                    "virtual interrupt (unsupported)",
                    0u8,
                    v.valid(),
                )?;
            }
            EventRef::GuestPageFault(g) => {
                self.ensure(
                    g.fault_type() == 0,
                    "guest page fault (unsupported)",
                    0u8,
                    g.fault_type(),
                )?;
            }
        }
        Ok(None)
    }

    /// Arms the NDE synchronization an order-tagged event carries: an
    /// MMIO load's observed value becomes the skip value of the
    /// instruction it is tagged to. Arming only applies when the tagged
    /// instruction is the next to step; a stale event (the instruction
    /// already stepped) must not poison a later one.
    fn arm_skip(&mut self, tag: u64, value: u64, stats: &mut CheckStats) {
        if tag == self.seq {
            self.refm.skip_next(value);
            stats.skips += 1;
        }
    }

    /// Accepts an order-tagged item: checks it now when its position has
    /// been reached, parks it otherwise.
    fn accept_tagged(
        &mut self,
        tag: u64,
        token: Token,
        event: &EventRef<'_>,
        stats: &mut CheckStats,
    ) -> Result<Option<Verdict>, Mismatch> {
        let limit = self.seq.saturating_add(MAX_TAG_LEAD);
        self.ensure(tag <= limit, "wire.tag out of range", limit, tag)?;
        let n = self.pending.len();
        self.ensure(n < MAX_PARKED, "wire.parked over cap", MAX_PARKED, n + 1)?;
        self.token_watermark = self.token_watermark.max(token.0);
        // Pre events tagged `t` become checkable once seq reaches the tag;
        // post events once instruction `t` has stepped (seq > t). Always
        // park first so same-tag events are checked in capture (token)
        // order — a newly arrived event must not jump ahead of earlier
        // pending ones (e.g. an interrupt entry must not be applied before
        // the state dumps captured ahead of it are compared).
        let pre = is_pre(event);
        let ready = if pre { tag <= self.seq } else { tag < self.seq };
        self.park(tag, token, event, pre);
        if ready {
            if let Some(v) = self.drain_pending(tag, true, stats)? {
                return Ok(Some(v));
            }
            if tag < self.seq {
                if let Some(v) = self.drain_pending(tag, false, stats)? {
                    return Ok(Some(v));
                }
            }
        }
        Ok(None)
    }

    /// Copies `event`'s payload into a spare buffer and parks it behind
    /// every item of an equal or lower tag. Items arrive nearly in tag
    /// order, so the walk back from the tail is short.
    fn park(&mut self, tag: u64, token: Token, event: &EventRef<'_>, pre: bool) {
        let mut bytes = self.spare.pop().unwrap_or_default();
        bytes.clear();
        bytes.extend_from_slice(event.wire_bytes());
        let at = self
            .pending
            .iter()
            .rposition(|p| p.tag <= tag)
            .map_or(0, |i| i + 1);
        self.pending.insert(
            at,
            Parked {
                tag,
                token,
                kind: event.kind(),
                pre,
                bytes,
            },
        );
    }

    /// Checks the parked events of tag `seq` in the phase `pre` selects
    /// relative to instruction `seq`, in capture order. A decided item
    /// (halt or mismatch) ends the stream, and the rest of the tag is
    /// dropped with it.
    fn drain_pending(
        &mut self,
        seq: u64,
        pre: bool,
        stats: &mut CheckStats,
    ) -> Result<Option<Verdict>, Mismatch> {
        let start = self.pending.partition_point(|p| p.tag < seq);
        let mut i = start;
        while let Some(p) = self.pending.get(i).filter(|p| p.tag == seq) {
            if p.pre != pre {
                i += 1;
                continue;
            }
            let Some(p) = self.pending.remove(i) else {
                break;
            };
            let checked = self.check_parked(&p, stats);
            self.spare.push(p.bytes);
            if !matches!(checked, Ok(None)) {
                let end = self.pending.partition_point(|p| p.tag <= seq);
                self.spare
                    .extend(self.pending.drain(start..end).map(|p| p.bytes));
                return checked;
            }
        }
        Ok(None)
    }

    /// Checks one parked event at its position, viewed in its copy.
    fn check_parked(
        &mut self,
        p: &Parked,
        stats: &mut CheckStats,
    ) -> Result<Option<Verdict>, Mismatch> {
        let Ok(event) = EventRef::parse(p.kind, &p.bytes) else {
            unreachable!("parked bytes are a validated payload of their kind")
        };
        self.check_event(&event, Some(p.tag), stats)
    }

    /// Processes one fused commit record (Squash mode).
    fn process_fused(
        &mut self,
        f: &FusedCommit,
        stats: &mut CheckStats,
    ) -> Result<Option<Verdict>, Mismatch> {
        stats.fused_records += 1;
        stats.events += 1;
        stats.bytes += f.encoded_len() as u64;
        self.token_watermark = self.token_watermark.max(f.token_last);

        if self.replay_support {
            self.refm.checkpoint();
            let min_pending = self
                .pending
                .iter()
                .map(|p| p.token.0)
                .min()
                .unwrap_or(u64::MAX);
            self.ckpt = Some(Checkpoint {
                seq: self.seq,
                token: f.token_first.min(min_pending),
            });
        }

        self.ensure(
            f.first_seq == self.seq,
            "fused.first_seq",
            self.seq,
            f.first_seq,
        )?;

        for _ in 0..f.count {
            // Order-tagged events are the exception, not the rule: the
            // common window has nothing pending, and `pending` can only
            // shrink while this loop runs (`accept_tagged` is the only
            // grower), so one emptiness check hoists both per-instruction
            // queue searches out of the batch-stepping path.
            if !self.pending.is_empty() {
                if let Some(v) = self.drain_pending(self.seq, true, stats)? {
                    return Ok(Some(v));
                }
            }
            match self.refm.step() {
                StepOutcome::Retired { effect, .. } => self.last_effect = Some(effect),
                StepOutcome::Skipped { .. } => {
                    // The arming LoadEvent already counted the skip.
                    self.last_effect = None;
                }
                StepOutcome::Trapped { trap, .. } => {
                    mismatch!(self, "fused.step: REF trapped", trap.mcause(), self.seq)
                }
            }
            stats.instructions += 1;
            self.seq += 1;
            if !self.pending.is_empty() {
                if let Some(v) = self.drain_pending(self.seq - 1, false, stats)? {
                    return Ok(Some(v));
                }
            }
        }

        if f.final_pc != 0 {
            self.ensure(
                self.refm.state().pc() == f.final_pc,
                "fused.final_pc",
                self.refm.state().pc(),
                f.final_pc,
            )?;
        }
        for (r, v) in &f.int_writes {
            let want = self.refm.state().xreg(difftest_isa::Reg::new(*r));
            if want != *v {
                self.ensure(false, format!("fused write x{r}"), want, *v)?;
            }
        }
        for (r, v) in &f.fp_writes {
            let want = self.refm.state().freg(difftest_isa::FReg::new(*r));
            if want != *v {
                self.ensure(false, format!("fused write f{r}"), want, *v)?;
            }
        }

        if self.replay_support {
            self.refm.prune_checkpoints(2);
        }
        Ok(None)
    }

    /// Checks one plain (unfused, untagged) item in stream order: an
    /// item viewed in its packet, or a Replay record viewed in the ring.
    fn process_plain_ref(
        &mut self,
        event: &EventRef<'_>,
        stats: &mut CheckStats,
    ) -> Result<Verdict, Mismatch> {
        Ok(self
            .check_event(event, None, stats)?
            .unwrap_or(Verdict::Continue))
    }
}

/// The multi-core ISA checker.
///
/// A checker owns core ids `0 .. cores`: items whose
/// [`WireItemRef::core`] falls in that range are checked, anything else
/// is reported as a transport fault.
#[derive(Debug)]
pub struct Checker {
    cores: Vec<CoreChecker>,
    stats: CheckStats,
}

impl Checker {
    /// Creates a checker over one REF per core. `replay_support` enables
    /// journaling and checkpointing for the Replay mechanism.
    pub fn new(refs: Vec<RefModel>, replay_support: bool) -> Self {
        let cores = refs
            .into_iter()
            .enumerate()
            .map(|(i, refm)| CoreChecker::new(i as u8, refm, 0, replay_support))
            .collect();
        Checker {
            cores,
            stats: CheckStats::default(),
        }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &CheckStats {
        &self.stats
    }

    /// The REF decode-cache counters summed across all cores. Feeds the
    /// `decode.*` observability counters.
    pub fn ref_cache_stats(&self) -> DecodeCacheStats {
        let mut decode = DecodeCacheStats::default();
        for c in &self.cores {
            decode.merge(&c.refm.decode_cache_stats());
        }
        decode
    }

    /// Borrows the per-core REF states and progress for an external snapshot
    /// (the prior-work debugging strategy compared in `crate::snapshot`).
    /// Callers that need the state beyond the borrow clone at the call
    /// site; the checker itself never copies a `RefModel`.
    ///
    /// # Panics
    ///
    /// Panics if order-tagged items are still pending — snapshots must be
    /// taken at quiesced points (flush the acceleration unit and process
    /// everything first).
    pub fn snapshot_refs(&self) -> Vec<(&RefModel, u64)> {
        assert_eq!(
            self.pending_items(),
            0,
            "snapshot requires a quiesced checker"
        );
        self.cores.iter().map(|c| (&c.refm, c.seq)).collect()
    }

    /// Rebuilds a checker from snapshotted REF states and progress.
    pub fn resume(refs: Vec<(RefModel, u64)>, replay_support: bool) -> Self {
        let cores = refs
            .into_iter()
            .enumerate()
            .map(|(i, (refm, seq))| CoreChecker::new(i as u8, refm, seq, replay_support))
            .collect();
        Checker {
            cores,
            stats: CheckStats::default(),
        }
    }

    /// Instructions checked so far on `core`, 0 for a core the checker
    /// lacks.
    pub fn seq(&self, core: u8) -> u64 {
        self.cores.get(core as usize).map_or(0, |c| c.seq)
    }

    /// The checker that owns wire core id `core`, with the shared stats.
    /// A corrupted transport can smuggle an out-of-range core id; that
    /// surfaces as a checkable failure instead of a panic.
    fn route(&mut self, core: u8) -> Result<(&mut CoreChecker, &mut CheckStats), Mismatch> {
        let n = self.cores.len();
        match self.cores.get_mut(core as usize) {
            Some(c) => Ok((c, &mut self.stats)),
            None => Err(Mismatch {
                core,
                seq: 0,
                check: "wire.core out of range".to_owned(),
                expected: format!("{n:#x}"),
                actual: format!("{core:#x}"),
            }),
        }
    }

    /// Processes one borrowed wire item straight off the packet bytes —
    /// the checker's stream entry point, driven by [`crate::Consumer`].
    /// Plain payloads are checked in place (see `process_plain_ref`);
    /// order-tagged payloads, Tagged and Diff alike, are parked as a copy
    /// of their payload bytes until their checking position is reached.
    ///
    /// # Errors
    ///
    /// Returns the [`Mismatch`] that aborted checking.
    pub fn process_ref(&mut self, item: WireItemRef<'_>) -> Result<Verdict, Mismatch> {
        let (core, stats) = self.route(item.core())?;
        match item {
            WireItemRef::Plain { event, .. } => core.process_plain_ref(&event, stats),
            WireItemRef::Tagged {
                tag, token, event, ..
            }
            | WireItemRef::Diff {
                tag, token, event, ..
            } => Ok(core
                .accept_tagged(tag.0, token, &event, stats)?
                .unwrap_or(Verdict::Continue)),
            WireItemRef::Fused { fused, .. } => Ok(core
                .process_fused(fused, stats)?
                .unwrap_or(Verdict::Continue)),
        }
    }

    /// Drains pending items whose position has been reached (called by
    /// [`crate::Consumer::finish_stream`] at a stream boundary). Returns a halt verdict if the trap event was
    /// pending.
    ///
    /// # Errors
    ///
    /// Returns the [`Mismatch`] that aborted checking.
    pub fn finalize(&mut self) -> Result<Verdict, Mismatch> {
        for core in &mut self.cores {
            // Both phases of the lowest due tag empty it, so the front
            // advances to the next tag each round.
            while let Some(seq) = core.pending.front().map(|p| p.tag) {
                if seq > core.seq {
                    break;
                }
                for pre in [true, false] {
                    if let Some(v) = core.drain_pending(seq, pre, &mut self.stats)? {
                        return Ok(v);
                    }
                }
            }
        }
        Ok(Verdict::Continue)
    }

    /// Number of pending (not yet checkable) items across cores.
    pub fn pending_items(&self) -> usize {
        self.cores.iter().map(|c| c.pending.len()).sum()
    }

    /// `core`'s replay floor: the first token a localization started now
    /// would retransmit (its last checkpoint's), or `None` before its
    /// first checkpoint or without Replay support. Retained events below
    /// it can no longer be asked for.
    pub fn replay_floor(&self, core: u8) -> Option<u64> {
        Some(self.cores.get(core as usize)?.ckpt?.token)
    }

    /// Reverts `core`'s REF to the last checkpoint for a replay pass,
    /// clearing its pending queue. Returns the token range
    /// `(checkpoint, watermark)` to retransmit, or `None` when no
    /// checkpoint exists or `core` is out of range (the mismatch is
    /// already precise).
    pub fn revert_for_replay(&mut self, core: u8) -> Option<(u64, u64)> {
        let c = self.cores.get_mut(core as usize)?;
        let ckpt = c.ckpt.take()?;
        if !c.refm.revert() {
            return None;
        }
        c.seq = ckpt.seq;
        c.last_effect = None;
        c.spare.extend(c.pending.drain(..).map(|p| p.bytes));
        Some((ckpt.token, c.token_watermark))
    }

    /// Re-checks retransmitted, unfused records in plain mode after a
    /// revert, viewed in the ring, returning the precise mismatch if one
    /// reproduces.
    pub fn replay_unfused(&mut self, core: u8, records: &[RecordRef<'_>]) -> Option<Mismatch> {
        let stats = &mut self.stats;
        let c = self.cores.get_mut(core as usize)?;
        for rec in records.iter().filter(|r| r.header.core == core) {
            if let Err(m) = c.process_plain_ref(&rec.payload, stats) {
                return Some(m);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_item_ref_body, encode_item_body, DiffCache, WireItem};
    use difftest_event::wire::Reader;
    use difftest_event::{
        ArchEvent, ArchIntRegState, CsrState, Event, LoadEvent, MonitoredEvent, OrderTag,
        StoreEvent,
    };
    use difftest_isa::{encode, Reg};
    use difftest_ref::Memory;

    /// Feeds one item through the wire as the stream does: encode its
    /// body, view it back, check the view.
    fn process(ck: &mut Checker, item: WireItem) -> Result<Verdict, Mismatch> {
        let cores = usize::from(item.core()) + 1;
        let mut body = Vec::new();
        encode_item_body(&item, &mut DiffCache::new(cores), &mut body);
        let mut r = Reader::new(&body);
        let (mut mirror, mut fused) = (DiffCache::new(cores), FusedCommit::default());
        let kind = item.wire_kind();
        let view = decode_item_ref_body(kind, item.core(), &mut mirror, &mut fused, &mut r)
            .expect("an encoded body decodes");
        ck.process_ref(view)
    }

    fn ref_with(words: &[u32]) -> RefModel {
        let mut mem = Memory::new();
        mem.load_words(Memory::RAM_BASE, words);
        RefModel::new(mem)
    }

    fn commit(pc: u64, instr: u32, wdest: u8, wdata: u64) -> InstrCommit {
        InstrCommit {
            pc,
            instr,
            wen: 1,
            wdest,
            wdata,
            flags: 0,
            rob_idx: 0,
        }
    }

    #[test]
    fn plain_commit_checks_pass_and_fail() {
        let w = encode::addi(Reg::A0, Reg::ZERO, 7);
        let mut ck = Checker::new(vec![ref_with(&[w, w])], false);
        let ok = WireItem::Plain {
            core: 0,
            event: commit(Memory::RAM_BASE, w, 10, 7).into(),
        };
        assert_eq!(process(&mut ck, ok).unwrap(), Verdict::Continue);

        let bad = WireItem::Plain {
            core: 0,
            event: commit(Memory::RAM_BASE + 4, w, 10, 8).into(),
        };
        let m = process(&mut ck, bad).unwrap_err();
        assert_eq!(m.check, "commit.wdata");
        assert_eq!(m.seq, 1);
    }

    #[test]
    fn fused_window_steps_and_verifies_write_set() {
        let words = [
            encode::addi(Reg::A0, Reg::ZERO, 1),
            encode::addi(Reg::A1, Reg::A0, 2),
            encode::addi(Reg::A0, Reg::A1, 3),
        ];
        let mut ck = Checker::new(vec![ref_with(&words)], false);
        let fused = FusedCommit {
            first_seq: 0,
            count: 3,
            final_pc: Memory::RAM_BASE + 12,
            int_writes: vec![(10, 6), (11, 3)],
            ..Default::default()
        };
        let item = WireItem::Fused { core: 0, fused };
        assert_eq!(process(&mut ck, item).unwrap(), Verdict::Continue);
        assert_eq!(ck.seq(0), 3);
    }

    #[test]
    fn fused_write_set_mismatch_detected() {
        let words = [encode::addi(Reg::A0, Reg::ZERO, 1)];
        let mut ck = Checker::new(vec![ref_with(&words)], false);
        let fused = FusedCommit {
            first_seq: 0,
            count: 1,
            final_pc: 0,
            int_writes: vec![(10, 99)],
            ..Default::default()
        };
        let m = process(&mut ck, WireItem::Fused { core: 0, fused }).unwrap_err();
        assert_eq!(m.check, "fused write x10");
    }

    #[test]
    fn tagged_nde_reorders_into_fused_window() {
        // Instruction 1 is an MMIO load; its LoadEvent is transmitted ahead
        // with tag 1 and must arm the skip inside the fused window.
        let words = [
            encode::addi(Reg::A1, Reg::ZERO, 0x100),
            encode::lw(Reg::A0, Reg::A1, 0), // a1 = 0x100 -> MMIO
            encode::addi(Reg::A2, Reg::A0, 1),
        ];
        let mut ck = Checker::new(vec![ref_with(&words)], false);
        let nde = WireItem::Tagged {
            core: 0,
            tag: OrderTag(1),
            token: Token(1),
            event: difftest_event::LoadEvent {
                pc: Memory::RAM_BASE + 4,
                addr: 0x100,
                data: 0xab,
                len: 4,
                is_mmio: 1,
                fu_type: 0,
                op_type: 0,
            }
            .into(),
        };
        assert_eq!(process(&mut ck, nde).unwrap(), Verdict::Continue);
        assert_eq!(ck.pending_items(), 1);

        let fused = FusedCommit {
            first_seq: 0,
            count: 3,
            final_pc: Memory::RAM_BASE + 12,
            int_writes: vec![(11, 0x100), (10, 0xab), (12, 0xac)],
            ..Default::default()
        };
        assert_eq!(
            process(&mut ck, WireItem::Fused { core: 0, fused }).unwrap(),
            Verdict::Continue
        );
        assert_eq!(ck.pending_items(), 0);
        assert_eq!(ck.stats().skips, 1);
    }

    #[test]
    fn interrupt_event_syncs_ref() {
        let words = [encode::nop(), encode::nop()];
        let mut r = ref_with(&words);
        r.state_mut()
            .set_csr(CsrIndex::Mtvec, Memory::RAM_BASE + 0x40);
        let mut ck = Checker::new(vec![r], false);
        let intr = WireItem::Plain {
            core: 0,
            event: ArchEvent {
                pc: Memory::RAM_BASE,
                cause: (1 << 63) | 7,
                tval: 0,
                is_interrupt: 1,
            }
            .into(),
        };
        assert_eq!(process(&mut ck, intr).unwrap(), Verdict::Continue);
        assert_eq!(ck.stats().interrupts, 1);
    }

    #[test]
    fn trap_event_halts() {
        let words = [encode::ebreak()];
        let mut ck = Checker::new(vec![ref_with(&words)], false);
        let trap = WireItem::Plain {
            core: 0,
            event: difftest_event::TrapEvent {
                pc: Memory::RAM_BASE,
                code: 0,
                has_trap: 1,
                cycle: 5,
            }
            .into(),
        };
        assert_eq!(
            process(&mut ck, trap).unwrap(),
            Verdict::Halt {
                core: 0,
                good: true,
                pc: Memory::RAM_BASE
            }
        );
    }

    #[test]
    fn revert_for_replay_restores_checkpoint() {
        let words = [
            encode::addi(Reg::A0, Reg::ZERO, 1),
            encode::addi(Reg::A0, Reg::A0, 1),
        ];
        let mut ck = Checker::new(vec![ref_with(&words)], true);
        let fused = FusedCommit {
            first_seq: 0,
            count: 2,
            final_pc: 0,
            token_first: 5,
            token_last: 6,
            int_writes: vec![(10, 2)],
            ..Default::default()
        };
        process(&mut ck, WireItem::Fused { core: 0, fused }).unwrap();
        assert_eq!(ck.seq(0), 2);
        let (from, _to) = ck.revert_for_replay(0).expect("checkpoint exists");
        assert_eq!(from, 5);
        assert_eq!(ck.seq(0), 0);
    }

    fn tagged(tag: u64, token: u64, event: Event) -> WireItem {
        WireItem::Tagged {
            core: 0,
            tag: OrderTag(tag),
            token: Token(token),
            event,
        }
    }

    fn diffed(tag: u64, token: u64, event: Event) -> WireItem {
        WireItem::Diff {
            core: 0,
            tag: OrderTag(tag),
            token: Token(token),
            event,
        }
    }

    fn fused(count: u32, final_pc: u64, int_writes: Vec<(u8, u64)>) -> WireItem {
        let fused = FusedCommit {
            first_seq: 0,
            count,
            final_pc,
            int_writes,
            ..Default::default()
        };
        WireItem::Fused { core: 0, fused }
    }

    /// A tag further ahead of the core's position than any window can
    /// lead is a mismatch on the stream, not an item parked forever.
    #[test]
    fn a_far_future_tag_is_a_mismatch_not_a_park() {
        let mut ck = Checker::new(vec![ref_with(&[encode::ebreak()])], false);
        let edge = tagged(MAX_TAG_LEAD, 0, StoreEvent::default().into());
        assert_eq!(process(&mut ck, edge).unwrap(), Verdict::Continue);
        let far = tagged(MAX_TAG_LEAD + 1, 1, StoreEvent::default().into());
        let m = process(&mut ck, far).unwrap_err();
        assert_eq!(m.check, "wire.tag out of range");
        assert_eq!(ck.pending_items(), 1, "only the in-range item parked");
    }

    /// Parked items are checked in tag order, not arrival order: the
    /// loads of two MMIO instructions arrive last-first, and each still
    /// arms its own instruction's skip.
    #[test]
    fn parked_items_are_checked_in_tag_order() {
        let words = [
            encode::addi(Reg::A1, Reg::ZERO, 0x100),
            encode::lw(Reg::A0, Reg::A1, 0),
            encode::lw(Reg::A2, Reg::A1, 0),
        ];
        let mut ck = Checker::new(vec![ref_with(&words)], false);
        for (tag, data) in [(2, 0xcd), (1, 0xab)] {
            let load = LoadEvent {
                pc: Memory::RAM_BASE + 4 * tag,
                addr: 0x100,
                data,
                len: 4,
                is_mmio: 1,
                fu_type: 0,
                op_type: 0,
            };
            process(&mut ck, tagged(tag, tag, load.into())).unwrap();
        }
        let window = fused(
            3,
            Memory::RAM_BASE + 12,
            vec![(11, 0x100), (10, 0xab), (12, 0xcd)],
        );
        assert_eq!(process(&mut ck, window).unwrap(), Verdict::Continue);
        assert_eq!(ck.stats().skips, 2);
        assert_eq!(ck.pending_items(), 0);
    }

    /// Same-tag items keep capture order: an interrupt entry parked after
    /// the state dumps captured ahead of it is applied only once they
    /// have compared against the pre-interrupt REF.
    #[test]
    fn same_tag_items_keep_capture_order() {
        let words = [encode::nop(); 17];
        let trap_vector = Memory::RAM_BASE + 0x40;
        let setup = || {
            let mut r = ref_with(&words);
            r.state_mut().set_csr(CsrIndex::Mtvec, trap_vector);
            r
        };
        let mut probe = setup();
        probe.step();
        let st = probe.state();
        let dumps: [Event; 2] = [
            ArchIntRegState { regs: *st.xregs() }.into(),
            CsrState { csrs: *st.csrs() }.into(),
        ];

        let mut ck = Checker::new(vec![setup()], false);
        for (token, dump) in (1..).zip(dumps) {
            process(&mut ck, diffed(1, token, dump)).unwrap();
        }
        let interrupt = ArchEvent {
            pc: Memory::RAM_BASE + 4,
            cause: (1 << 63) | 7,
            tval: 0,
            is_interrupt: 1,
        };
        process(&mut ck, tagged(1, 3, interrupt.into())).unwrap();
        assert_eq!(ck.pending_items(), 3);

        let window = fused(2, trap_vector + 4, Vec::new());
        assert_eq!(process(&mut ck, window).unwrap(), Verdict::Continue);
        assert_eq!(ck.stats().interrupts, 1);
        assert_eq!(ck.pending_items(), 0);
    }

    /// A post event parked ahead of a same-tag pre event is still checked
    /// after its instruction steps: instruction 1's store arrives before
    /// the register dump tagged 1, and compares against the REF's store.
    #[test]
    fn post_items_parked_first_wait_for_the_step() {
        let words = [encode::auipc(Reg::A1, 0), encode::sd(Reg::A1, Reg::A1, 64)];
        let mut probe = ref_with(&words);
        probe.step();
        let xregs = *probe.state().xregs();

        let mut ck = Checker::new(vec![ref_with(&words)], false);
        let store = StoreEvent {
            addr: Memory::RAM_BASE + 64,
            data: Memory::RAM_BASE,
            mask: 0xff,
        };
        process(&mut ck, tagged(1, 1, store.into())).unwrap();
        let dump = ArchIntRegState { regs: xregs };
        process(&mut ck, diffed(1, 2, dump.into())).unwrap();
        assert_eq!(ck.pending_items(), 2);

        let window = fused(2, Memory::RAM_BASE + 8, vec![(11, Memory::RAM_BASE)]);
        assert_eq!(process(&mut ck, window).unwrap(), Verdict::Continue);
        assert_eq!(ck.pending_items(), 0);
        assert_eq!(ck.stats().events, 3);
    }

    /// A Replay revert empties the parked queue, and the retransmit range
    /// starts at the oldest parked token when it precedes the window's.
    #[test]
    fn revert_for_replay_empties_the_parked_queue() {
        let words = [
            encode::addi(Reg::A0, Reg::ZERO, 1),
            encode::addi(Reg::A0, Reg::A0, 1),
        ];
        let mut ck = Checker::new(vec![ref_with(&words)], true);
        let ahead = ArchIntRegState { regs: [0; 32] };
        process(&mut ck, diffed(9, 3, ahead.into())).unwrap();
        let window = FusedCommit {
            first_seq: 0,
            count: 2,
            token_first: 5,
            token_last: 6,
            int_writes: vec![(10, 2)],
            ..Default::default()
        };
        process(
            &mut ck,
            WireItem::Fused {
                core: 0,
                fused: window,
            },
        )
        .unwrap();
        assert_eq!(ck.pending_items(), 1);

        let (from, _to) = ck.revert_for_replay(0).expect("checkpoint exists");
        assert_eq!(from, 3);
        assert_eq!(ck.pending_items(), 0);
        assert_eq!(ck.seq(0), 0);
    }

    /// Replay on a checker whose core id is out of range finds no
    /// checkpoint to revert to: the "wire.core out of range" mismatch
    /// stays precise instead of panicking.
    #[test]
    fn revert_for_replay_of_an_unknown_core_is_none() {
        let mut ck = Checker::new(vec![ref_with(&[encode::nop()])], true);
        assert_eq!(ck.revert_for_replay(5), None);
        assert_eq!(ck.seq(5), 0, "an unknown core has checked nothing");
    }

    /// Every kind has one comparison routine: a divergent event yields the
    /// identical `Mismatch` and stats checked on the stream (viewed in its
    /// packet) and re-checked by Replay (viewed in a ring record); a pre
    /// kind parked at its tag renders the same text again. The rows flip
    /// every field word of every state dump, in turn, in the REF's own
    /// dump, so each field is compared and named. The shared dump writer
    /// is pinned first to each owned payload built field by field, so a
    /// wrong mapping in it cannot hide behind code both sides share.
    #[test]
    fn dump_divergence_renders_one_mismatch_on_both_paths() {
        use difftest_dut::{write_state_dump, STATE_DUMPS};
        use difftest_event::record::{encode_record, Records};
        use difftest_event::{
            ArchFpRegState, ArchVecRegState, DebugModeState, FpCsrUpdate, HypervisorCsrState,
            IntWriteback, Redirect, TriggerCsrState, VecCsrState,
        };
        use difftest_isa::FReg;
        use EventKind as K;
        let words = [encode::nop()];
        // Every register and CSR distinct, so a field read from the wrong
        // place shows.
        let setup = || {
            let mut refm = ref_with(&words);
            let st = refm.state_mut();
            for i in 1..32u8 {
                st.set_xreg(Reg::new(i), 0x1000 + u64::from(i));
                st.set_freg(FReg::new(i), 0x2000 + u64::from(i));
            }
            for (i, &c) in CsrIndex::ALL.iter().enumerate() {
                st.set_csr(c, 0x3000 + i as u64);
            }
            refm
        };
        let refm = setup();
        let st = refm.state();

        let csr = |c| st.csr(c);
        let mut hcsrs = [0; 11];
        hcsrs[0] = csr(CsrIndex::Hstatus);
        hcsrs[1] = csr(CsrIndex::Hedeleg);
        let owned: [Event; 8] = [
            ArchIntRegState { regs: *st.xregs() }.into(),
            CsrState { csrs: *st.csrs() }.into(),
            ArchFpRegState { regs: *st.fregs() }.into(),
            ArchVecRegState { regs: [0; 64] }.into(),
            VecCsrState {
                vstart: csr(CsrIndex::Vstart),
                vl: csr(CsrIndex::Vl),
                vtype: csr(CsrIndex::Vtype),
                vcsr: csr(CsrIndex::Vcsr),
                vlenb: 16,
                vill: 0,
            }
            .into(),
            HypervisorCsrState {
                csrs: hcsrs,
                virt_mode: 0,
            }
            .into(),
            TriggerCsrState::default().into(),
            DebugModeState::default().into(),
        ];
        for (kind, owned) in STATE_DUMPS.into_iter().zip(owned) {
            assert_eq!(owned.kind(), kind);
            let (mut written, mut encoded) = (Vec::new(), Vec::new());
            write_state_dump(kind, st, &mut written);
            owned.encode_into(&mut encoded);
            assert_eq!(written, encoded, "{kind:?}");
        }

        // `(kind, byte offset of a field word, check)`.
        let mut fields: Vec<(EventKind, usize, String)> = Vec::new();
        for i in 0..32 {
            fields.push((K::ArchIntRegState, 8 * i, format!("xreg x{i}")));
            fields.push((K::ArchFpRegState, 8 * i, format!("freg f{i}")));
        }
        for (i, c) in CsrIndex::ALL.iter().enumerate() {
            fields.push((K::CsrState, 8 * i, format!("csr {}", c.name())));
        }
        for i in 0..64 {
            fields.push((K::ArchVecRegState, 8 * i, format!("vreg half {i}")));
        }
        // The small dumps' field words by offset; the first ones keep
        // their field names, the rest are named by kind and offset.
        let small: [(EventKind, &[&str], Vec<usize>); 4] = [
            (
                K::VecCsrState,
                &["vstart", "vl", "vtype", "vcsr"],
                vec![0, 8, 16, 24, 32, 40],
            ),
            (
                K::HypervisorCsrState,
                &["hstatus", "hedeleg"],
                (0..=88).step_by(8).collect(),
            ),
            (
                K::TriggerCsrState,
                &["tselect"],
                (0..=64).step_by(8).collect(),
            ),
            (K::DebugModeState, &["debug_mode"], vec![0, 1, 9, 17, 25]),
        ];
        for (kind, names, offsets) in small {
            for (j, at) in offsets.into_iter().enumerate() {
                let check = names
                    .get(j)
                    .map_or_else(|| format!("{} byte {at}", kind.name()), |n| n.to_string());
                fields.push((kind, at, check));
            }
        }
        let mut cases: Vec<(Event, String)> = fields
            .into_iter()
            .map(|(kind, at, check)| {
                let mut bytes = Vec::new();
                write_state_dump(kind, st, &mut bytes);
                bytes[at] ^= 1;
                (Event::decode(kind, &bytes).unwrap(), check)
            })
            .collect();
        cases.extend([
            (
                Redirect {
                    pc: st.pc(),
                    target: st.pc() + 4,
                    taken: 1,
                    branch_type: 0,
                }
                .into(),
                "redirect.target".to_owned(),
            ),
            (
                FpCsrUpdate {
                    fflags: 0,
                    frm: 0,
                    data: st.csr(CsrIndex::Fcsr) ^ 0x20,
                }
                .into(),
                "fcsr.data".to_owned(),
            ),
            (
                IntWriteback {
                    idx: 5,
                    data: st.xreg(Reg::new(5)) ^ 0xdead,
                }
                .into(),
                "int writeback x5".to_owned(),
            ),
        ]);
        for (event, check) in cases {
            let mut viewed = Checker::new(vec![setup()], false);
            let plain = WireItem::Plain {
                core: 0,
                event: event.clone(),
            };
            let via_view = process(&mut viewed, plain).expect_err("divergent event");
            assert_eq!(via_view.check, check);
            assert_ne!(via_view.expected, via_view.actual, "{check}");
            assert_eq!(viewed.stats().events, 1, "counted before the verdict");

            let mut record = Vec::new();
            let monitored = MonitoredEvent {
                core: 0,
                cycle: 0,
                order: OrderTag(0),
                token: Token(0),
                event: event.clone(),
            };
            encode_record(&monitored, &mut record);
            let rec = Records::new(&record)
                .next()
                .expect("one record")
                .expect("a well-formed record");
            let mut replayed = Checker::new(vec![setup()], false);
            let via_record = replayed.replay_unfused(0, &[rec]).expect("divergent event");
            assert_eq!(via_view, via_record, "{check}");
            assert_eq!(viewed.stats(), replayed.stats(), "{check}");

            if is_pre(&rec.payload) {
                let mut parked = Checker::new(vec![setup()], false);
                let via_parked =
                    process(&mut parked, tagged(0, 0, event)).expect_err("divergent event");
                assert_eq!(via_view, via_parked, "{check}");
                assert_eq!(viewed.stats(), parked.stats(), "{check}");
            }
        }
    }
}
