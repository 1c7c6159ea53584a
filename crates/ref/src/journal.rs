//! Compensation log for lightweight state revert (paper §4.4).
//!
//! Snapshotting the whole REF at every checkpoint would be prohibitively
//! expensive, so Replay records only the *old values* of mutations between
//! consecutive checkpoints. Reverting writes the log back in reverse order.

use difftest_isa::csr::CsrIndex;
use difftest_isa::{FReg, Reg};

use crate::{ArchState, Memory};

/// One recorded mutation: the value a location held *before* the write.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JournalEntry {
    /// Previous program counter.
    Pc(u64),
    /// Previous value of an integer register.
    Xreg(Reg, u64),
    /// Previous value of a floating-point register.
    Freg(FReg, u64),
    /// Previous value of a CSR.
    Csr(CsrIndex, u64),
    /// Previous bytes at a memory location.
    Mem {
        /// Byte address of the overwritten range.
        addr: u64,
        /// Width in bytes.
        len: u8,
        /// The old little-endian value.
        old: u64,
    },
    /// Previous LR/SC reservation.
    Reservation(Option<u64>),
    /// Previous retired-instruction count.
    Instret(u64),
}

/// A compensation log with a stack of checkpoints.
///
/// The log is disabled by default; the co-simulation engine enables it when
/// Replay support is requested. While disabled, [`Journal::record`] is a
/// no-op so the fast path costs one branch.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    entries: Vec<JournalEntry>,
    checkpoints: Vec<usize>,
    enabled: bool,
}

impl Journal {
    /// Creates a disabled journal.
    pub fn new() -> Self {
        Journal::default()
    }

    /// Enables or disables recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records a mutation's old value (no-op while disabled).
    #[inline]
    pub fn record(&mut self, entry: JournalEntry) {
        if self.enabled {
            self.entries.push(entry);
        }
    }

    /// Pushes a checkpoint marking the current log position.
    pub fn checkpoint(&mut self) {
        self.checkpoints.push(self.entries.len());
    }

    /// Number of live checkpoints.
    pub fn checkpoint_count(&self) -> usize {
        self.checkpoints.len()
    }

    /// Returns `true` if a [`revert_into`](Self::revert_into) would have a
    /// checkpoint to consume. Callers use this to skip revert side effects
    /// when a revert is a guaranteed no-op.
    pub fn has_checkpoint(&self) -> bool {
        !self.checkpoints.is_empty()
    }

    /// Number of recorded entries (for stats and tests).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The recorded entries, oldest first (tests compare whole journals).
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Returns `true` when no entries are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Reverts `state` and `mem` to the most recent checkpoint, consuming it.
    ///
    /// Returns `false` (and does nothing) if no checkpoint exists.
    pub fn revert_into(&mut self, state: &mut ArchState, mem: &mut Memory) -> bool {
        let Some(mark) = self.checkpoints.pop() else {
            return false;
        };
        for entry in self.entries.drain(mark..).rev() {
            match entry {
                JournalEntry::Pc(old) => state.set_pc(old),
                JournalEntry::Xreg(r, old) => state.set_xreg(r, old),
                JournalEntry::Freg(r, old) => state.set_freg(r, old),
                JournalEntry::Csr(c, old) => state.set_csr(c, old),
                JournalEntry::Mem { addr, len, old } => mem.write(addr, len as usize, old),
                JournalEntry::Reservation(old) => {
                    state.set_reservation(old);
                }
                JournalEntry::Instret(old) => state.set_instret(old),
            }
        }
        true
    }

    /// Keeps only the most recent `keep` checkpoints, discarding older log
    /// prefix so memory stays bounded during long runs.
    ///
    /// `prune(0)` drops every checkpoint — and, since nothing is revertible
    /// without one, the whole log (including entries recorded after the
    /// newest checkpoint).
    pub fn prune(&mut self, keep: usize) {
        if self.checkpoints.len() <= keep {
            return;
        }
        if keep == 0 {
            self.checkpoints.clear();
            self.entries.clear();
            return;
        }
        let drop_count = self.checkpoints.len() - keep;
        let cut = self.checkpoints[drop_count];
        self.checkpoints.drain(..drop_count);
        self.entries.drain(..cut);
        for c in &mut self.checkpoints {
            *c -= cut;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_journal_records_nothing() {
        let mut j = Journal::new();
        j.record(JournalEntry::Pc(4));
        assert!(j.is_empty());
    }

    #[test]
    fn revert_restores_in_reverse_order() {
        let mut j = Journal::new();
        j.set_enabled(true);
        let mut state = ArchState::new(0x100);
        let mut mem = Memory::new();

        j.checkpoint();
        // Two writes to the same register: revert must land on the first old
        // value, which requires reverse-order application.
        j.record(JournalEntry::Xreg(Reg::A0, 0));
        state.set_xreg(Reg::A0, 1);
        j.record(JournalEntry::Xreg(Reg::A0, 1));
        state.set_xreg(Reg::A0, 2);
        j.record(JournalEntry::Mem {
            addr: Memory::RAM_BASE,
            len: 8,
            old: 0,
        });
        mem.write(Memory::RAM_BASE, 8, 77);

        assert!(j.revert_into(&mut state, &mut mem));
        assert_eq!(state.xreg(Reg::A0), 0);
        assert_eq!(mem.read(Memory::RAM_BASE, 8), 0);
        assert!(j.is_empty());
    }

    #[test]
    fn revert_without_checkpoint_is_noop() {
        let mut j = Journal::new();
        let mut state = ArchState::new(0);
        let mut mem = Memory::new();
        assert!(!j.revert_into(&mut state, &mut mem));
    }

    #[test]
    fn prune_keeps_recent_checkpoints_valid() {
        let mut j = Journal::new();
        j.set_enabled(true);
        let mut state = ArchState::new(0);
        let mut mem = Memory::new();

        for round in 0..4u64 {
            j.checkpoint();
            j.record(JournalEntry::Xreg(Reg::A1, round));
            state.set_xreg(Reg::A1, round + 1);
        }
        j.prune(2);
        assert_eq!(j.checkpoint_count(), 2);
        // Reverting twice walks back the two most recent rounds.
        assert!(j.revert_into(&mut state, &mut mem));
        assert_eq!(state.xreg(Reg::A1), 3);
        assert!(j.revert_into(&mut state, &mut mem));
        assert_eq!(state.xreg(Reg::A1), 2);
        assert!(!j.revert_into(&mut state, &mut mem));
    }

    /// Regression: `prune(0)` used to index `checkpoints[len]` and panic.
    /// It must instead drain everything — checkpoints, the log prefix they
    /// guard, *and* the post-checkpoint tail — leaving nothing revertible.
    #[test]
    fn prune_zero_drains_everything() {
        let mut j = Journal::new();
        j.set_enabled(true);
        let mut state = ArchState::new(0);
        let mut mem = Memory::new();

        for round in 0..3u64 {
            j.checkpoint();
            j.record(JournalEntry::Xreg(Reg::A1, round));
            state.set_xreg(Reg::A1, round + 1);
        }
        // Entries after the newest checkpoint go too: with zero checkpoints
        // left they could never be replayed.
        j.record(JournalEntry::Pc(0x1234));

        j.prune(0);
        assert_eq!(j.checkpoint_count(), 0);
        assert!(j.is_empty());
        assert!(!j.revert_into(&mut state, &mut mem));
        assert_eq!(state.xreg(Reg::A1), 3, "prune must not touch state");

        // The journal keeps working after a full drain.
        j.checkpoint();
        j.record(JournalEntry::Xreg(Reg::A1, 3));
        state.set_xreg(Reg::A1, 9);
        assert!(j.revert_into(&mut state, &mut mem));
        assert_eq!(state.xreg(Reg::A1), 3);

        // prune(0) on an already-empty journal is a no-op, not a panic.
        j.prune(0);
        assert_eq!(j.checkpoint_count(), 0);
    }
}
