//! Architectural state: PC, integer/floating-point register files, CSRs.

use difftest_isa::csr::{CsrIndex, CSR_COUNT};
use difftest_isa::{FReg, Reg};

/// The complete architectural state of one hart.
///
/// Both the reference model and the DUT model carry an `ArchState`; the
/// checker compares fields of the two after each (fused group of)
/// instruction(s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    pc: u64,
    xregs: [u64; 32],
    fregs: [u64; 32],
    csrs: [u64; CSR_COUNT],
    /// LR/SC reservation address, if any.
    reservation: Option<u64>,
    /// Retired-instruction counter (mirrors `minstret`).
    instret: u64,
}

impl ArchState {
    /// Creates the reset state with the program counter at `reset_pc`.
    pub fn new(reset_pc: u64) -> Self {
        let mut csrs = [0u64; CSR_COUNT];
        // RV64, I+M+A+D extensions advertised in misa.
        csrs[CsrIndex::Misa.dense()] = (2u64 << 62) | (1 << 8) | (1 << 12) | (1 << 0) | (1 << 3);
        ArchState {
            pc: reset_pc,
            xregs: [0; 32],
            fregs: [0; 32],
            csrs,
            reservation: None,
            instret: 0,
        }
    }

    /// The current program counter.
    #[inline]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Sets the program counter.
    #[inline]
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
    }

    /// Reads an integer register (`x0` always reads zero).
    #[inline]
    pub fn xreg(&self, r: Reg) -> u64 {
        self.xregs[r.index()]
    }

    /// Writes an integer register (writes to `x0` are discarded).
    #[inline]
    pub fn set_xreg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.xregs[r.index()] = value;
        }
    }

    /// Reads a floating-point register as raw bits.
    #[inline]
    pub fn freg(&self, r: FReg) -> u64 {
        self.fregs[r.index()]
    }

    /// Writes a floating-point register as raw bits.
    #[inline]
    pub fn set_freg(&mut self, r: FReg, value: u64) {
        self.fregs[r.index()] = value;
    }

    /// Reads a tracked CSR.
    #[inline]
    pub fn csr(&self, c: CsrIndex) -> u64 {
        self.csrs[c.dense()]
    }

    /// Writes a tracked CSR.
    #[inline]
    pub fn set_csr(&mut self, c: CsrIndex, value: u64) {
        self.csrs[c.dense()] = value;
    }

    /// A borrowed view of the full integer register file.
    #[inline]
    pub fn xregs(&self) -> &[u64; 32] {
        &self.xregs
    }

    /// A borrowed view of the full floating-point register file.
    #[inline]
    pub fn fregs(&self) -> &[u64; 32] {
        &self.fregs
    }

    /// A borrowed view of the dense CSR file (indexed by [`CsrIndex`]).
    #[inline]
    pub fn csrs(&self) -> &[u64; CSR_COUNT] {
        &self.csrs
    }

    /// The current LR/SC reservation address.
    #[inline]
    pub fn reservation(&self) -> Option<u64> {
        self.reservation
    }

    /// Replaces the LR/SC reservation, returning the previous one.
    #[inline]
    pub fn set_reservation(&mut self, r: Option<u64>) -> Option<u64> {
        std::mem::replace(&mut self.reservation, r)
    }

    /// The number of retired instructions.
    #[inline]
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// Sets the retired-instruction counter (mirrored into `minstret`).
    #[inline]
    pub fn set_instret(&mut self, value: u64) {
        self.instret = value;
        self.csrs[CsrIndex::Minstret.dense()] = value;
    }
}

impl Default for ArchState {
    fn default() -> Self {
        ArchState::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x0_is_hardwired() {
        let mut s = ArchState::new(0x8000_0000);
        s.set_xreg(Reg::ZERO, 0xdead);
        assert_eq!(s.xreg(Reg::ZERO), 0);
        s.set_xreg(Reg::A0, 0xdead);
        assert_eq!(s.xreg(Reg::A0), 0xdead);
    }

    #[test]
    fn instret_mirrors_minstret() {
        let mut s = ArchState::new(0);
        s.set_instret(41);
        assert_eq!(s.csr(CsrIndex::Minstret), 41);
    }

    #[test]
    fn reset_state() {
        let s = ArchState::new(0x8000_0000);
        assert_eq!(s.pc(), 0x8000_0000);
        assert_eq!(s.instret(), 0);
        assert!(s.reservation().is_none());
        assert_ne!(s.csr(CsrIndex::Misa), 0);
    }

    #[test]
    fn reservation_swap() {
        let mut s = ArchState::new(0);
        assert_eq!(s.set_reservation(Some(16)), None);
        assert_eq!(s.set_reservation(None), Some(16));
    }
}
