//! The cycle-level model of one DUT core.
//!
//! Each core owns its own architectural state, memory image, devices and
//! memory-hierarchy models, and commits up to `commit_width` instructions
//! per cycle under a deterministic stall model. Instruction *semantics*
//! reuse the pure executor of `difftest-ref` (see `DESIGN.md` §1 — in the
//! paper the DUT is RTL; here the microarchitectural wrapper plus the
//! bug-injection framework provide the divergence that co-simulation must
//! detect), while every architectural side effect flows through the monitor
//! as verification events.

use difftest_event::record::RecordHeader;
use difftest_event::{
    commit_flags, ArchEvent, AtomicEvent, Event, EventKind, FpCsrUpdate, FpWriteback, HCsrUpdate,
    InstrCommit, IntWriteback, L1TlbEvent, L2TlbEvent, LoadEvent, LrScEvent, OrderTag, PtwEvent,
    Redirect, RefillEvent, RunaheadEvent, StoreEvent, Token, TrapEvent, VecConfig,
};
use difftest_isa::csr::{mi, mstatus, CsrIndex};
use difftest_isa::trap::{Interrupt, Trap};
use difftest_isa::{decode, Insn, Op};
use difftest_ref::exec::{execute, Effect};
use difftest_ref::{ArchState, Memory};

use crate::bugs::BugInjector;
use crate::cache::{Cache, Sbuffer, Tlb};
use crate::config::DutConfig;
use crate::device::Devices;
use crate::dump::{write_state_dump, STATE_DUMPS};
use crate::pipeline::StallModel;

/// Extends a raw MMIO device value the way the load instruction would.
fn mmio_extend(op: Op, raw: u64) -> u64 {
    match op {
        Op::Lb => raw as u8 as i8 as i64 as u64,
        Op::Lh => raw as u16 as i16 as i64 as u64,
        Op::Lw => raw as u32 as i32 as i64 as u64,
        Op::Lbu => raw as u8 as u64,
        Op::Lhu => raw as u16 as u64,
        Op::Lwu => raw as u32 as u64,
        _ => raw,
    }
}

/// Per-cycle event-slot budget: hardware provisions a fixed number of
/// instances per event type per cycle, and the commit group must end when a
/// required slot would overflow.
#[derive(Debug)]
struct CycleBudget {
    used: [u8; EventKind::COUNT],
}

impl CycleBudget {
    fn new() -> Self {
        CycleBudget {
            used: [0; EventKind::COUNT],
        }
    }

    fn available(&self, cfg: &DutConfig, kind: EventKind) -> bool {
        self.used[kind as usize] < cfg.slots.slots(kind)
    }

    /// Takes a slot of `kind` if one is left.
    fn admit(&mut self, cfg: &DutConfig, kind: EventKind) -> bool {
        let free = self.available(cfg, kind);
        if free {
            self.used[kind as usize] += 1;
        }
        free
    }
}

/// The monitor port a core's cycle writes through: each captured event is
/// stamped with core, cycle, order tag and the next replay token and
/// appended to the caller's arena as one [`difftest_event::record`].
#[derive(Debug)]
pub struct MonitorPort<'a> {
    /// The cycle being captured.
    pub cycle: u64,
    /// Where the stamped records land, back to back in token order.
    pub out: &'a mut Vec<u8>,
    /// The replay-token counter all cores share.
    pub next_token: &'a mut u64,
}

impl MonitorPort<'_> {
    /// Writes the header of a `kind` record, stamped with the next
    /// token, and returns the arena, where the payload's layout goes
    /// next.
    #[inline]
    fn stamp(&mut self, core: u8, seq: u64, kind: EventKind) -> &mut Vec<u8> {
        let token = Token(*self.next_token);
        *self.next_token += 1;
        let header = RecordHeader {
            core,
            kind,
            cycle: self.cycle,
            order: OrderTag(seq),
            token,
        };
        header.write(self.out);
        self.out
    }

    fn capture(&mut self, core: u8, seq: u64, event: &Event) {
        event.encode_into(self.stamp(core, seq, event.kind()));
    }
}

/// One core of the design under test.
#[derive(Debug, Clone)]
pub struct DutCore {
    id: u8,
    cfg: DutConfig,
    state: ArchState,
    mem: Memory,
    dev: Devices,
    icache: Cache,
    dcache: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    sbuffer: Sbuffer,
    stalls: StallModel,
    injector: BugInjector,
    /// Commit sequence number of the next instruction to commit.
    seq: u64,
    stall: u32,
    halt: Option<TrapEvent>,
    commit_cycles: u64,
    fp_dirty: bool,
    vec_dirty: bool,
}

impl DutCore {
    /// Creates a core over a private copy of the program image.
    pub fn new(id: u8, cfg: DutConfig, mem: Memory, injector: BugInjector) -> Self {
        let stalls = StallModel::new(cfg.pipeline, 0xd1f7_0000 + id as u64);
        DutCore {
            id,
            cfg,
            state: ArchState::new(Memory::RAM_BASE),
            mem,
            dev: Devices::new(0xc0ffee ^ id as u64),
            icache: Cache::new(512),
            dcache: Cache::new(512),
            itlb: Tlb::new(32),
            dtlb: Tlb::new(32),
            sbuffer: Sbuffer::new(),
            stalls,
            injector,
            seq: 0,
            stall: 0,
            halt: None,
            commit_cycles: 0,
            fp_dirty: false,
            vec_dirty: false,
        }
    }

    /// The core's identifier.
    pub fn id(&self) -> u8 {
        self.id
    }

    /// The core's architectural state (tests, debugging reports).
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// The core's memory image.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// The device complex (UART transcript inspection).
    pub fn devices(&self) -> &Devices {
        &self.dev
    }

    /// The terminating trap, once the core has halted.
    pub fn halt(&self) -> Option<&TrapEvent> {
        self.halt.as_ref()
    }

    /// Commit sequence number of the next instruction.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Runs cycle `out.cycle`, capturing its events through the monitor
    /// port. Returns the number of instructions committed.
    pub fn tick(&mut self, out: &mut MonitorPort<'_>) -> u32 {
        let cycle = out.cycle;
        self.dev.tick();
        if self.halt.is_some() {
            return 0;
        }
        if self.stall > 0 {
            self.stall -= 1;
            return 0;
        }

        let mut budget = CycleBudget::new();

        // Asynchronous interrupts are sampled at cycle boundaries. They are
        // DUT-timing-specific (the CLINT counts cycles), hence NDEs the
        // checker must replay into the REF before instruction `seq`.
        if let Some(intr) = self.pending_interrupt() {
            self.emit(
                out,
                &mut budget,
                self.seq,
                ArchEvent {
                    pc: self.state.pc(),
                    cause: intr.cause(),
                    tval: 0,
                    is_interrupt: 1,
                }
                .into(),
            );
            self.trap_entry(Trap::Interrupt(intr));
            self.stall = 3; // redirect penalty
            return 0;
        }

        if self.stalls.frontend_stall(cycle) {
            return 0;
        }

        let mut committed = 0u32;
        while committed < self.cfg.commit_width {
            if !budget.available(&self.cfg, EventKind::InstrCommit) {
                break;
            }
            let pc = self.state.pc();

            // Front-end: i-TLB and i-cache.
            let fetch_miss = self.fetch_access(pc, cycle, out, &mut budget);
            let insn = decode(self.mem.fetch(pc));

            if insn.op == Op::Ebreak {
                // Simulation-terminating trap: good when a0 == 0.
                let code = (self.state.xreg(difftest_isa::Reg::A0) != 0) as u8;
                let trap = TrapEvent {
                    pc,
                    code,
                    has_trap: 1,
                    cycle,
                };
                self.emit(out, &mut budget, self.seq, trap.clone().into());
                self.halt = Some(trap);
                return committed;
            }

            // Pre-check slot budget for the event classes this instruction
            // must emit (hardware backpressure ends the commit group).
            if !self.budget_allows(&budget, &insn) {
                break;
            }

            let mut effect = execute(&self.state, &self.mem, &insn);

            if let Some(trap) = effect.trap {
                // Synchronous exception: the instruction does not commit.
                self.emit(
                    out,
                    &mut budget,
                    self.seq,
                    ArchEvent {
                        pc,
                        cause: trap.mcause(),
                        tval: trap.mtval(),
                        is_interrupt: 0,
                    }
                    .into(),
                );
                self.trap_entry(trap);
                self.stall = 2;
                return committed;
            }

            // MMIO resolution: device reads/writes happen here, making the
            // value timing-dependent (NDE).
            let mmio = effect.mmio;
            if mmio {
                self.resolve_mmio(&insn, &mut effect, cycle);
            }

            self.injector
                .perturb_effect(self.seq, &mut effect, &self.mem);

            let group_end = self.apply_and_emit(&insn, &effect, mmio, cycle, out, &mut budget);
            committed += 1;
            self.seq += 1;

            if group_end || fetch_miss || self.stalls.group_break(cycle, committed) {
                break;
            }
        }

        if committed > 0 {
            self.commit_cycles += 1;
            self.injector.perturb_state(self.seq, &mut self.state);
            if self
                .commit_cycles
                .is_multiple_of(self.cfg.state_dump_period as u64)
            {
                self.emit_state_dumps(out, &mut budget);
            }
        }
        committed
    }

    fn pending_interrupt(&self) -> Option<Interrupt> {
        let status = self.state.csr(CsrIndex::Mstatus);
        if status & mstatus::MIE == 0 {
            return None;
        }
        let mie = self.state.csr(CsrIndex::Mie);
        if self.dev.clint.timer_pending() && mie & mi::MTI != 0 {
            Some(Interrupt::MachineTimer)
        } else if self.dev.clint.software_pending() && mie & mi::MSI != 0 {
            Some(Interrupt::MachineSoftware)
        } else {
            None
        }
    }

    /// Resolves an MMIO load against the devices: the observed value is
    /// timing-dependent, which is exactly why it must be forwarded to the
    /// checker as a non-deterministic event.
    fn resolve_mmio(&mut self, insn: &Insn, effect: &mut Effect, cycle: u64) {
        if let Some(m) = effect.memr {
            let raw = self.dev.read(m.addr, cycle);
            let v = mmio_extend(insn.op, raw);
            if insn.op.writes_fp_rd() {
                effect.fw = Some((insn.frd(), v));
            } else if insn.op.writes_int_rd() {
                effect.xw = Some((insn.rd, v));
            }
        }
        // MMIO stores are routed to the devices at apply time.
    }

    /// Performs machine-mode trap entry on the DUT state, with bug hooks.
    fn trap_entry(&mut self, trap: Trap) {
        let mut mepc = self.state.pc();
        let mut mcause = trap.mcause();
        let mut mtval = trap.mtval();
        let status = self.state.csr(CsrIndex::Mstatus);
        let mut new_status = status;
        if status & mstatus::MIE != 0 {
            new_status |= mstatus::MPIE;
        } else {
            new_status &= !mstatus::MPIE;
        }
        new_status &= !mstatus::MIE;
        new_status = (new_status & !mstatus::MPP_MASK) | (0b11 << mstatus::MPP_SHIFT);

        let extra_off = self.injector.perturb_trap_entry(
            self.seq,
            &mut mepc,
            &mut mcause,
            &mut mtval,
            &mut new_status,
        );

        self.state.set_csr(CsrIndex::Mepc, mepc);
        self.state.set_csr(CsrIndex::Mcause, mcause);
        self.state.set_csr(CsrIndex::Mtval, mtval);
        self.state.set_csr(CsrIndex::Mstatus, new_status);
        let target = (self.state.csr(CsrIndex::Mtvec) & !0b11).wrapping_add(extra_off);
        self.state.set_pc(target);
    }

    /// Front-end access: returns `true` when the fetch missed the i-cache
    /// (ends the commit group with a penalty).
    fn fetch_access(
        &mut self,
        pc: u64,
        _cycle: u64,
        out: &mut MonitorPort<'_>,
        budget: &mut CycleBudget,
    ) -> bool {
        if self.cfg.slots.slots(EventKind::L1TlbEvent) > 0 {
            if let Some(vpn) = self.itlb.access(pc) {
                self.emit_hierarchy_fill(out, budget, vpn, 2);
            }
        }
        if !self.icache.access(pc) {
            if budget.available(&self.cfg, EventKind::RefillEvent) {
                let refill = RefillEvent {
                    addr: Cache::line_addr(pc),
                    data: Cache::read_line(&self.mem, pc),
                    refill_type: 1,
                };
                self.emit(out, budget, self.seq, refill.into());
            }
            self.stall = self.stall.max(1);
            return true;
        }
        false
    }

    /// Emits L1 TLB fill plus (paced) L2 TLB / PTW events.
    fn emit_hierarchy_fill(
        &mut self,
        out: &mut MonitorPort<'_>,
        budget: &mut CycleBudget,
        vpn: u64,
        source: u8,
    ) {
        let satp = self.state.csr(CsrIndex::Satp);
        self.emit(
            out,
            budget,
            self.seq,
            L1TlbEvent {
                satp,
                vpn,
                ppn: vpn, // bare translation: identity mapping
                valid: 1,
            }
            .into(),
        );
        // Every fourth miss escalates to the L2 TLB and a page walk.
        let misses = self.itlb.misses() + self.dtlb.misses();
        if misses.is_multiple_of(4) {
            self.emit(
                out,
                budget,
                self.seq,
                L2TlbEvent {
                    valid: 1,
                    vpn,
                    pte_idx: (vpn % 6) as u8,
                    ppns: [vpn, vpn + 1, vpn + 2, vpn + 3, vpn + 4, vpn + 5],
                    perm: 0xf,
                }
                .into(),
            );
            self.emit(
                out,
                budget,
                self.seq,
                PtwEvent {
                    vpn,
                    levels: [vpn >> 27, vpn >> 18, vpn >> 9, vpn],
                    pf: 0,
                    source,
                }
                .into(),
            );
        }
    }

    /// Conservative pre-check that the slots this instruction's mandatory
    /// events need are still free this cycle; a kind with no slots is
    /// never emitted, so it never ends the group.
    fn budget_allows(&self, budget: &CycleBudget, insn: &Insn) -> bool {
        let full = |kind| self.cfg.slots.slots(kind) > 0 && !budget.available(&self.cfg, kind);
        !(insn.op.is_load() && full(EventKind::LoadEvent)
            || insn.op.is_store() && full(EventKind::StoreEvent)
            || insn.op.is_atomic() && full(EventKind::AtomicEvent))
    }

    /// Applies the (possibly perturbed) effect and emits this commit's
    /// events. Returns `true` when the commit group must end (taken
    /// control flow, serialization, MMIO, d-cache miss).
    fn apply_and_emit(
        &mut self,
        insn: &Insn,
        effect: &Effect,
        mmio: bool,
        cycle: u64,
        out: &mut MonitorPort<'_>,
        budget: &mut CycleBudget,
    ) -> bool {
        let pc = self.state.pc();
        let seq = self.seq;
        let mut group_end = false;
        // Source operands as read at execute time (the effect application
        // below may overwrite rs1/rs2 when rd aliases them).
        let src_rs1 = self.state.xreg(insn.rs1);
        let src_rs2 = self.state.xreg(insn.rs2);

        // ---- apply architectural effect --------------------------------
        if let Some((r, v)) = effect.xw {
            self.state.set_xreg(r, v);
        }
        if let Some((r, v)) = effect.fw {
            self.state.set_freg(r, v);
            self.fp_dirty = true;
        }
        for (c, v) in effect.csrw.iter().flatten() {
            self.state.set_csr(*c, *v);
            match c {
                CsrIndex::Fcsr => self.fp_dirty = true,
                CsrIndex::Vstart
                | CsrIndex::Vxsat
                | CsrIndex::Vxrm
                | CsrIndex::Vcsr
                | CsrIndex::Vl
                | CsrIndex::Vtype => self.vec_dirty = true,
                _ => {}
            }
        }
        if let Some(new) = effect.set_reservation {
            self.state.set_reservation(new);
        }
        if let Some(w) = effect.memw {
            if Memory::is_mmio(w.addr) {
                self.dev.write(w.addr, w.value);
            } else {
                self.mem.write(w.addr, w.len as usize, w.value);
            }
        }
        self.state.set_pc(effect.next_pc);
        let instret = self.state.instret() + 1;
        self.state.set_instret(instret);

        // ---- commit event ----------------------------------------------
        let mut flags = 0u8;
        if mmio {
            flags |= commit_flags::SKIP;
        }
        if insn.op.is_load() {
            flags |= commit_flags::LOAD;
        }
        if insn.op.is_store() {
            flags |= commit_flags::STORE;
        }
        if effect.branch_taken {
            flags |= commit_flags::BRANCH_TAKEN;
        }
        // Non-deterministic MMIO loads are emitted *before* their commit:
        // the hardware schedules NDEs ahead (paper §4.3), which also
        // guarantees the checker sees the observed value before any fusion
        // window containing the commit can close.
        if mmio && insn.op.is_load() && !insn.op.is_atomic() {
            let value = effect.xw.map(|(_, v)| v).or(effect.fw.map(|(_, v)| v));
            self.emit(
                out,
                budget,
                seq,
                LoadEvent {
                    pc,
                    addr: effect.memr.map_or(0, |m| m.addr),
                    data: value.unwrap_or(0),
                    len: effect.memr.map_or(0, |m| m.len),
                    is_mmio: 1,
                    fu_type: 0,
                    op_type: 0,
                }
                .into(),
            );
            group_end = true; // MMIO serializes
        }

        let (wen, wdest, wdata) = match (effect.xw, effect.fw) {
            (Some((r, v)), _) => (1u8, r.index() as u8, v),
            (None, Some((r, v))) => {
                flags |= commit_flags::FP_WEN;
                (1u8, r.index() as u8, v)
            }
            (None, None) => (0u8, 0u8, 0u64),
        };
        self.emit(
            out,
            budget,
            seq,
            InstrCommit {
                pc,
                instr: insn.raw,
                wen,
                wdest,
                wdata,
                flags,
                rob_idx: (seq % 192) as u16,
            }
            .into(),
        );

        // ---- port-level events ------------------------------------------
        if let Some((r, v)) = effect.xw {
            self.emit(
                out,
                budget,
                seq,
                IntWriteback {
                    idx: r.index() as u8,
                    data: v,
                }
                .into(),
            );
        }
        if let Some((r, v)) = effect.fw {
            self.emit(
                out,
                budget,
                seq,
                FpWriteback {
                    idx: r.index() as u8,
                    data: v,
                }
                .into(),
            );
        }

        // ---- memory events ----------------------------------------------
        // An MMIO load's event went out ahead of the commit above.
        if insn.op.is_load() && !insn.op.is_atomic() && !mmio {
            if let Some(m) = effect.memr {
                let value = effect.xw.map(|(_, v)| v).or(effect.fw.map(|(_, v)| v));
                self.emit(
                    out,
                    budget,
                    seq,
                    LoadEvent {
                        pc,
                        addr: m.addr,
                        data: value.unwrap_or(0),
                        len: m.len,
                        is_mmio: 0,
                        fu_type: 0,
                        op_type: 1,
                    }
                    .into(),
                );
            }
        }

        if let Some(w) = effect.memw {
            if Memory::is_mmio(w.addr) {
                group_end = true; // MMIO store serializes
            } else if insn.op.is_atomic() {
                let out_v = effect.xw.map_or(0, |(_, v)| v);
                self.emit(
                    out,
                    budget,
                    seq,
                    AtomicEvent {
                        addr: w.addr,
                        data: w.value,
                        mask: ((1u16 << w.len) - 1) as u8,
                        out: out_v,
                        fu_op: insn.op as u8,
                    }
                    .into(),
                );
            } else {
                let base = w.addr & !7;
                let off = (w.addr - base) as u32;
                let mask = (((1u16 << w.len) - 1) as u8) << off;
                self.emit(
                    out,
                    budget,
                    seq,
                    StoreEvent {
                        addr: base,
                        data: w.value << (8 * off),
                        mask,
                    }
                    .into(),
                );
                if self.cfg.slots.slots(EventKind::SbufferEvent) > 0 {
                    if let Some(f) = self.sbuffer.store(w.addr, w.len, w.value) {
                        self.emit(
                            out,
                            budget,
                            seq,
                            difftest_event::SbufferEvent {
                                addr: f.addr,
                                data: f.data,
                                mask: f.mask,
                            }
                            .into(),
                        );
                    }
                }
            }
        }

        // SC completion (success or failure) reports the reservation check.
        if matches!(insn.op, Op::ScW | Op::ScD) {
            let success = effect.xw.map_or(0, |(_, v)| (v == 0) as u8);
            self.emit(
                out,
                budget,
                seq,
                LrScEvent {
                    valid: 1,
                    success,
                    addr: src_rs1,
                    data: src_rs2,
                }
                .into(),
            );
        }

        // ---- d-side hierarchy -------------------------------------------
        if let Some(m) = effect
            .memr
            .or(effect.memw.map(|w| difftest_ref::exec::MemRead {
                addr: w.addr,
                len: w.len,
            }))
        {
            if !Memory::is_mmio(m.addr) {
                if self.cfg.slots.slots(EventKind::L1TlbEvent) > 0 {
                    if let Some(vpn) = self.dtlb.access(m.addr) {
                        self.emit_hierarchy_fill(out, budget, vpn, insn.op.is_store() as u8);
                    }
                }
                if !self.dcache.access(m.addr) {
                    if budget.available(&self.cfg, EventKind::RefillEvent) {
                        let refill = RefillEvent {
                            addr: Cache::line_addr(m.addr),
                            data: Cache::read_line(&self.mem, m.addr),
                            refill_type: 0,
                        };
                        self.emit(out, budget, seq, refill.into());
                    }
                    self.stall = self.stall.max(self.stalls.l1_miss_penalty());
                    group_end = true;
                } else if insn.op.is_load() {
                    if let Some(penalty) = self.stalls.l2_miss_penalty(cycle, m.addr) {
                        self.stall = self.stall.max(penalty);
                        group_end = true;
                    }
                }
            }
        }

        // ---- control flow -----------------------------------------------
        if effect.branch_taken || matches!(insn.op, Op::Jal | Op::Jalr | Op::Mret) {
            self.emit(
                out,
                budget,
                seq,
                Redirect {
                    pc,
                    target: effect.next_pc,
                    taken: effect.branch_taken as u8,
                    branch_type: if insn.op.is_branch() { 0 } else { 1 },
                }
                .into(),
            );
            self.emit(
                out,
                budget,
                seq,
                RunaheadEvent {
                    valid: 1,
                    checkpoint_id: (seq & 0xffff) as u16,
                }
                .into(),
            );
            group_end = true;
        }

        // ---- CSR-derived extension events -------------------------------
        if insn.op.is_csr() {
            group_end = true; // CSR ops serialize the pipeline
            if let Some((c, v)) = effect.csrw[0] {
                match c {
                    CsrIndex::Fcsr => {
                        self.emit(
                            out,
                            budget,
                            seq,
                            FpCsrUpdate {
                                fflags: (v & 0x1f) as u8,
                                frm: ((v >> 5) & 0x7) as u8,
                                data: v,
                            }
                            .into(),
                        );
                    }
                    CsrIndex::Hstatus | CsrIndex::Hedeleg => {
                        self.emit(
                            out,
                            budget,
                            seq,
                            HCsrUpdate {
                                addr: c.address(),
                                data: v,
                                virt: 0,
                            }
                            .into(),
                        );
                    }
                    CsrIndex::Vl | CsrIndex::Vtype => {
                        self.emit(
                            out,
                            budget,
                            seq,
                            VecConfig {
                                vl: self.state.csr(CsrIndex::Vl),
                                vtype: self.state.csr(CsrIndex::Vtype),
                                set_by: 0,
                            }
                            .into(),
                        );
                    }
                    _ => {}
                }
            }
        }
        if insn.op == Op::Mret {
            group_end = true;
        }

        group_end
    }

    /// Emits the periodic architectural state dumps, each written into
    /// its record straight from the state by the one dump writer: no
    /// payload struct or event is built. No bug hooks a dump kind as an
    /// event (`bug_catalog`'s hooks are pinned by a test), so skipping
    /// `perturb_event` changes nothing; `perturb_state` has already
    /// acted on the state itself.
    fn emit_state_dumps(&self, out: &mut MonitorPort<'_>, budget: &mut CycleBudget) {
        for kind in STATE_DUMPS {
            if let Some(buf) = self.dump(out, budget, kind) {
                write_state_dump(kind, &self.state, buf);
            }
        }
    }

    /// Stamps a dump record of `kind` if the configuration provisions
    /// slots for it and the cycle budget allows, and returns the arena
    /// its payload goes into.
    fn dump<'o>(
        &self,
        out: &'o mut MonitorPort<'_>,
        budget: &mut CycleBudget,
        kind: EventKind,
    ) -> Option<&'o mut Vec<u8>> {
        if !budget.admit(&self.cfg, kind) {
            return None;
        }
        Some(out.stamp(self.id, self.seq, kind))
    }

    /// Pushes an event if the configuration provisions slots for its kind
    /// and the cycle budget allows, applying event-hook bug perturbation.
    fn emit(
        &mut self,
        out: &mut MonitorPort<'_>,
        budget: &mut CycleBudget,
        seq: u64,
        mut event: Event,
    ) {
        if !budget.admit(&self.cfg, event.kind()) {
            return;
        }
        self.injector.perturb_event(seq, &mut event);
        out.capture(self.id, seq, &event);
    }
}
