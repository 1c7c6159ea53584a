//! The steppable reference model with NDE synchronization and revert.

use difftest_isa::csr::{mstatus, CsrIndex};
use difftest_isa::trap::{Interrupt, Trap};
use difftest_isa::{decode, FReg, Insn, Reg};

use crate::exec::{execute, Effect};
use crate::icache::{DecodeCache, DecodeCacheStats};
use crate::journal::{Journal, JournalEntry};
use crate::{ArchState, Memory};

/// What one call to [`RefModel::step`] did.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome {
    /// An instruction retired normally.
    Retired {
        /// PC of the retired instruction.
        pc: u64,
        /// The instruction.
        insn: Insn,
        /// Its applied effect.
        effect: Effect,
    },
    /// The instruction raised an exception; trap entry was performed and the
    /// instruction did **not** retire.
    Trapped {
        /// PC of the excepting instruction.
        pc: u64,
        /// The trap taken.
        trap: Trap,
    },
    /// A pending MMIO skip was applied: the instruction's destination was
    /// forced to the DUT-provided value and the PC advanced without
    /// executing (DiffTest's "skip" synchronization).
    Skipped {
        /// PC of the skipped instruction.
        pc: u64,
        /// The instruction that was skipped.
        insn: Insn,
    },
}

/// The golden reference model: architectural state + memory + journal.
///
/// # Non-deterministic event synchronization
///
/// - [`RefModel::skip_next`] arms an MMIO-load skip for the next step.
/// - [`RefModel::raise_interrupt`] performs trap entry for a DUT-observed
///   interrupt at the current instruction boundary.
///
/// # Checkpoint / revert
///
/// With the journal enabled ([`RefModel::set_journal_enabled`]) the model
/// records compensation entries for every mutation. [`RefModel::checkpoint`]
/// marks a position and [`RefModel::revert`] rolls state and memory back to
/// the most recent mark — the mechanism Replay uses to reprocess unfused
/// events after a mismatch.
///
/// # Execution tiers
///
/// Two tiers share one set of semantics ([`crate::exec`]):
///
/// 1. **Per-insn decode cache** (default, and the only path production
///    runs): `step` fetches the raw word and probes the [`DecodeCache`]
///    before decoding.
/// 2. **Uncached interpreter**: the cache disabled
///    ([`RefModel::set_decode_cache_enabled`]) — the oracle the lockstep
///    coherence suite compares against.
#[derive(Debug, Clone)]
pub struct RefModel {
    state: ArchState,
    mem: Memory,
    journal: Journal,
    pending_skip: Option<u64>,
    icache: DecodeCache,
}

/// What [`RefModel::block_cache_stats`] returns: always zero.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct RetiredBlockStats {
    pub hits: u64,
    pub misses: u64,
}

impl RefModel {
    /// Creates a model over `mem`, starting at the RAM base (the reset PC
    /// used throughout the project).
    pub fn new(mem: Memory) -> Self {
        Self::with_pc(mem, Memory::RAM_BASE)
    }

    /// Creates a model with an explicit reset PC.
    pub fn with_pc(mem: Memory, reset_pc: u64) -> Self {
        RefModel {
            state: ArchState::new(reset_pc),
            mem,
            journal: Journal::new(),
            pending_skip: None,
            icache: DecodeCache::default(),
        }
    }

    /// Enables or disables the per-insn pre-decoded instruction cache (on
    /// by default). The coherence suite disables it to run a fully
    /// uncached oracle twin of the model.
    pub fn set_decode_cache_enabled(&mut self, enabled: bool) {
        self.icache.set_enabled(enabled);
    }

    /// Decode-cache hit/miss counters.
    pub fn decode_cache_stats(&self) -> DecodeCacheStats {
        self.icache.stats()
    }

    // The block-compiled tier is gone; `benchmark/src/adapter.rs` still
    // calls this and may only change in a benchmark-only PR. The paired
    // one that drops `ref.step_noblocks_ns_per_insn` deletes this shim.
    #[doc(hidden)]
    pub fn set_block_mode(&mut self, _: bool) {}

    // As above: deleted by the paired benchmark-only PR that drops
    // `ref.block_hit_ratio`.
    #[doc(hidden)]
    pub fn block_cache_stats(&self) -> RetiredBlockStats {
        RetiredBlockStats::default()
    }

    /// The architectural state.
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// Mutable access to the architectural state (test setup, fault studies).
    pub fn state_mut(&mut self) -> &mut ArchState {
        &mut self.state
    }

    /// The memory image.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Enables or disables the compensation journal.
    pub fn set_journal_enabled(&mut self, enabled: bool) {
        self.journal.set_enabled(enabled);
    }

    /// The journal (stats, tests).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Marks a checkpoint the model can later [`revert`](Self::revert) to.
    pub fn checkpoint(&mut self) {
        self.journal.checkpoint();
    }

    /// Rolls state and memory back to the most recent checkpoint.
    ///
    /// Returns `false` if no checkpoint exists.
    pub fn revert(&mut self) -> bool {
        if !self.journal.has_checkpoint() {
            return false;
        }
        self.pending_skip = None;
        self.journal.revert_into(&mut self.state, &mut self.mem)
    }

    /// Keeps only the most recent `keep` checkpoints (bounds journal memory).
    pub fn prune_checkpoints(&mut self, keep: usize) {
        self.journal.prune(keep);
    }

    /// Arms an MMIO skip: the next stepped instruction will not execute;
    /// instead its integer destination register is forced to `value`.
    pub fn skip_next(&mut self, value: u64) {
        self.pending_skip = Some(value);
    }

    /// Performs trap entry for a DUT-synchronized interrupt at the current
    /// instruction boundary (before the instruction at the current PC).
    pub fn raise_interrupt(&mut self, intr: Interrupt) {
        self.take_trap(Trap::Interrupt(intr));
    }

    /// Executes (or skips) one instruction.
    pub fn step(&mut self) -> StepOutcome {
        let pc = self.state.pc();
        // The raw word is fetched unconditionally and is part of the
        // cache key, so a hit is bit-identical to decoding by construction.
        let raw = self.mem.fetch(pc);
        let insn = match self.icache.lookup(pc, raw) {
            Some(insn) => insn,
            None => {
                let insn = decode(raw);
                self.icache.insert(pc, raw, insn);
                insn
            }
        };

        if let Some(value) = self.pending_skip.take() {
            // MMIO skip: force the destination, advance, retire.
            if insn.op.writes_fp_rd() {
                self.write_freg(insn.frd(), value);
            } else if insn.op.writes_int_rd() {
                self.write_xreg(insn.rd, value);
            }
            self.set_pc(pc.wrapping_add(4));
            self.bump_instret();
            return StepOutcome::Skipped { pc, insn };
        }

        let effect = execute(&self.state, &self.mem, &insn);

        if let Some(trap) = effect.trap {
            self.take_trap(trap);
            return StepOutcome::Trapped { pc, trap };
        }

        self.apply(&effect);
        self.bump_instret();
        StepOutcome::Retired { pc, insn, effect }
    }

    /// Steps `n` instructions, returning the outcomes.
    pub fn step_n(&mut self, n: usize) -> Vec<StepOutcome> {
        (0..n).map(|_| self.step()).collect()
    }

    fn apply(&mut self, effect: &Effect) {
        if let Some((r, v)) = effect.xw {
            self.write_xreg(r, v);
        }
        if let Some((r, v)) = effect.fw {
            self.write_freg(r, v);
        }
        for w in effect.csrw.iter().flatten() {
            self.write_csr(w.0, w.1);
        }
        if let Some(w) = effect.memw {
            if w.addr >= Memory::RAM_BASE {
                self.write_mem(w.addr, w.len, w.value);
            }
            // MMIO stores are device-side effects owned by the DUT; the REF
            // discards them (the checker compares the store event itself).
        }
        if let Some(new) = effect.set_reservation {
            let old = self.state.reservation();
            self.journal.record(JournalEntry::Reservation(old));
            self.state.set_reservation(new);
        }
        self.set_pc(effect.next_pc);
    }

    fn take_trap(&mut self, trap: Trap) {
        let pc = self.state.pc();
        self.write_csr(CsrIndex::Mepc, pc);
        self.write_csr(CsrIndex::Mcause, trap.mcause());
        self.write_csr(CsrIndex::Mtval, trap.mtval());
        let status = self.state.csr(CsrIndex::Mstatus);
        let mut new_status = status;
        if status & mstatus::MIE != 0 {
            new_status |= mstatus::MPIE;
        } else {
            new_status &= !mstatus::MPIE;
        }
        new_status &= !mstatus::MIE;
        new_status = (new_status & !mstatus::MPP_MASK) | (0b11 << mstatus::MPP_SHIFT);
        self.write_csr(CsrIndex::Mstatus, new_status);
        let target = self.state.csr(CsrIndex::Mtvec) & !0b11;
        self.set_pc(target);
    }

    // Journaled writers ----------------------------------------------------

    fn set_pc(&mut self, pc: u64) {
        self.journal.record(JournalEntry::Pc(self.state.pc()));
        self.state.set_pc(pc);
    }

    fn write_xreg(&mut self, r: Reg, v: u64) {
        self.journal
            .record(JournalEntry::Xreg(r, self.state.xreg(r)));
        self.state.set_xreg(r, v);
    }

    fn write_freg(&mut self, r: FReg, v: u64) {
        self.journal
            .record(JournalEntry::Freg(r, self.state.freg(r)));
        self.state.set_freg(r, v);
    }

    fn write_csr(&mut self, c: CsrIndex, v: u64) {
        self.journal.record(JournalEntry::Csr(c, self.state.csr(c)));
        self.state.set_csr(c, v);
    }

    fn write_mem(&mut self, addr: u64, len: u8, value: u64) {
        let old = self.mem.read(addr, len as usize);
        self.journal.record(JournalEntry::Mem { addr, len, old });
        self.mem.write(addr, len as usize, value);
    }

    fn bump_instret(&mut self) {
        self.journal
            .record(JournalEntry::Instret(self.state.instret()));
        let next = self.state.instret() + 1;
        self.state.set_instret(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use difftest_isa::encode;

    fn model_with(words: &[u32]) -> RefModel {
        let mut mem = Memory::new();
        mem.load_words(Memory::RAM_BASE, words);
        RefModel::new(mem)
    }

    #[test]
    fn straight_line_execution() {
        let mut m = model_with(&[
            encode::addi(Reg::A0, Reg::ZERO, 3),
            encode::addi(Reg::A1, Reg::A0, 4),
            encode::add(Reg::A2, Reg::A0, Reg::A1),
        ]);
        m.step_n(3);
        assert_eq!(m.state().xreg(Reg::A2), 10);
        assert_eq!(m.state().instret(), 3);
        assert_eq!(m.state().pc(), Memory::RAM_BASE + 12);
    }

    #[test]
    fn store_then_load() {
        let mut m = model_with(&[
            encode::lui(Reg::A1, 0x8000_1000u32 as i64),
            encode::addi(Reg::A0, Reg::ZERO, 55),
            encode::sd(Reg::A0, Reg::A1, 0),
            encode::ld(Reg::A2, Reg::A1, 0),
        ]);
        // lui sign-extends on RV64: 0x8000_1000 has bit31 set, producing a
        // negative value; use explicit register setup instead.
        m.state_mut().set_xreg(Reg::A1, Memory::RAM_BASE + 0x1000);
        m.step(); // lui overwritten below
        m.state_mut().set_xreg(Reg::A1, Memory::RAM_BASE + 0x1000);
        m.step_n(3);
        assert_eq!(m.state().xreg(Reg::A2), 55);
    }

    #[test]
    fn exception_enters_trap_handler() {
        let mut m = model_with(&[encode::ecall()]);
        m.state_mut()
            .set_csr(CsrIndex::Mtvec, Memory::RAM_BASE + 0x100);
        let out = m.step();
        assert!(matches!(out, StepOutcome::Trapped { .. }));
        assert_eq!(m.state().pc(), Memory::RAM_BASE + 0x100);
        assert_eq!(m.state().csr(CsrIndex::Mepc), Memory::RAM_BASE);
        assert_eq!(m.state().csr(CsrIndex::Mcause), 11);
        // Excepting instructions do not retire.
        assert_eq!(m.state().instret(), 0);
    }

    #[test]
    fn mret_round_trip() {
        let mut m = model_with(&[encode::ecall()]);
        let handler = Memory::RAM_BASE + 0x100;
        m.state_mut().set_csr(CsrIndex::Mtvec, handler);
        m.state_mut().set_csr(CsrIndex::Mstatus, mstatus::MIE);
        m.step();
        // Place an mret at the handler; it should return to mepc.
        let mepc = m.state().csr(CsrIndex::Mepc);
        let mut mem2 = m.mem().clone();
        mem2.load_words(handler, &[encode::mret()]);
        let mut m2 = RefModel::with_pc(mem2, handler);
        m2.state_mut().set_csr(CsrIndex::Mepc, mepc);
        m2.state_mut()
            .set_csr(CsrIndex::Mstatus, m.state().csr(CsrIndex::Mstatus));
        m2.step();
        assert_eq!(m2.state().pc(), mepc);
        assert!(m2.state().csr(CsrIndex::Mstatus) & mstatus::MIE != 0);
    }

    #[test]
    fn skip_forces_destination() {
        // lw a0, 0(a1) from MMIO; the checker arms a skip with the DUT value.
        let mut m = model_with(&[encode::lw(Reg::A0, Reg::A1, 0)]);
        m.state_mut().set_xreg(Reg::A1, 0x1000_0000);
        m.skip_next(0xabcd);
        let out = m.step();
        assert!(matches!(out, StepOutcome::Skipped { .. }));
        assert_eq!(m.state().xreg(Reg::A0), 0xabcd);
        assert_eq!(m.state().instret(), 1);
    }

    #[test]
    fn interrupt_entry() {
        let mut m = model_with(&[encode::nop()]);
        m.state_mut()
            .set_csr(CsrIndex::Mtvec, Memory::RAM_BASE + 0x40);
        m.raise_interrupt(Interrupt::MachineTimer);
        assert_eq!(m.state().pc(), Memory::RAM_BASE + 0x40);
        assert_eq!(m.state().csr(CsrIndex::Mcause) & 0xff, 7);
        assert_eq!(m.state().csr(CsrIndex::Mcause) >> 63, 1);
    }

    #[test]
    fn checkpoint_revert_restores_everything() {
        let mut m = model_with(&[
            encode::addi(Reg::A0, Reg::ZERO, 1),
            encode::sd(Reg::A0, Reg::A1, 0),
            encode::addi(Reg::A0, Reg::A0, 1),
        ]);
        m.state_mut().set_xreg(Reg::A1, Memory::RAM_BASE + 0x800);
        m.set_journal_enabled(true);

        let before_state = m.state().clone();
        let before_word = m.mem().read(Memory::RAM_BASE + 0x800, 8);
        m.checkpoint();
        m.step_n(3);
        assert_ne!(m.state(), &before_state);
        assert!(m.revert());
        assert_eq!(m.state(), &before_state);
        assert_eq!(m.mem().read(Memory::RAM_BASE + 0x800, 8), before_word);
    }

    #[test]
    fn revert_then_reexecute_is_deterministic() {
        let mut m = model_with(&[
            encode::addi(Reg::A0, Reg::ZERO, 7),
            encode::slli(Reg::A0, Reg::A0, 3),
        ]);
        m.set_journal_enabled(true);
        m.checkpoint();
        m.step_n(2);
        let final_a0 = m.state().xreg(Reg::A0);
        m.revert();
        m.checkpoint();
        m.step_n(2);
        assert_eq!(m.state().xreg(Reg::A0), final_a0);
    }

    #[test]
    fn mmio_store_does_not_touch_ref_memory() {
        let mut m = model_with(&[encode::sw(Reg::A0, Reg::A1, 0)]);
        m.state_mut().set_xreg(Reg::A0, 0x55);
        m.state_mut().set_xreg(Reg::A1, 0x1000_0000);
        let pages_before = m.mem().resident_pages();
        m.step();
        assert_eq!(m.mem().resident_pages(), pages_before);
    }
}
