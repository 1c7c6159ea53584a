//! Exception and interrupt cause codes.

use std::fmt;

/// Synchronous exception causes (the subset raised by this project).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Exception {
    /// Instruction address misaligned (cause 0).
    InstrMisaligned = 0,
    /// Instruction access fault (cause 1).
    InstrAccessFault = 1,
    /// Illegal instruction (cause 2).
    IllegalInstr = 2,
    /// Breakpoint (cause 3).
    Breakpoint = 3,
    /// Load address misaligned (cause 4).
    LoadMisaligned = 4,
    /// Load access fault (cause 5).
    LoadAccessFault = 5,
    /// Store/AMO address misaligned (cause 6).
    StoreMisaligned = 6,
    /// Store/AMO access fault (cause 7).
    StoreAccessFault = 7,
    /// Environment call from U-mode (cause 8).
    EcallU = 8,
    /// Environment call from M-mode (cause 11).
    EcallM = 11,
}

impl Exception {
    /// The `mcause` code for this exception (interrupt bit clear).
    #[inline]
    pub const fn cause(self) -> u64 {
        self as u64
    }

    /// Reconstructs an exception from an `mcause` code.
    pub fn from_cause(cause: u64) -> Option<Exception> {
        use Exception::*;
        Some(match cause {
            0 => InstrMisaligned,
            1 => InstrAccessFault,
            2 => IllegalInstr,
            3 => Breakpoint,
            4 => LoadMisaligned,
            5 => LoadAccessFault,
            6 => StoreMisaligned,
            7 => StoreAccessFault,
            8 => EcallU,
            11 => EcallM,
            _ => return None,
        })
    }
}

impl fmt::Display for Exception {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Exception::InstrMisaligned => "instruction address misaligned",
            Exception::InstrAccessFault => "instruction access fault",
            Exception::IllegalInstr => "illegal instruction",
            Exception::Breakpoint => "breakpoint",
            Exception::LoadMisaligned => "load address misaligned",
            Exception::LoadAccessFault => "load access fault",
            Exception::StoreMisaligned => "store/AMO address misaligned",
            Exception::StoreAccessFault => "store/AMO access fault",
            Exception::EcallU => "environment call from U-mode",
            Exception::EcallM => "environment call from M-mode",
        };
        f.write_str(s)
    }
}

/// Asynchronous interrupt causes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Interrupt {
    /// Machine software interrupt (cause 3).
    MachineSoftware = 3,
    /// Machine timer interrupt (cause 7).
    MachineTimer = 7,
    /// Machine external interrupt (cause 11).
    MachineExternal = 11,
}

impl Interrupt {
    /// The `mcause` code with the interrupt bit (bit 63) set.
    #[inline]
    pub const fn cause(self) -> u64 {
        (1u64 << 63) | self as u64
    }

    /// The corresponding `mip`/`mie` bit mask.
    #[inline]
    pub const fn pending_bit(self) -> u64 {
        1u64 << (self as u32)
    }

    /// Reconstructs an interrupt from the low bits of an `mcause` code.
    pub fn from_code(code: u64) -> Option<Interrupt> {
        Some(match code {
            3 => Interrupt::MachineSoftware,
            7 => Interrupt::MachineTimer,
            11 => Interrupt::MachineExternal,
            _ => return None,
        })
    }
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Interrupt::MachineSoftware => "machine software interrupt",
            Interrupt::MachineTimer => "machine timer interrupt",
            Interrupt::MachineExternal => "machine external interrupt",
        };
        f.write_str(s)
    }
}

/// A trap: either a synchronous exception or an asynchronous interrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trap {
    /// A synchronous exception with its trap value (`mtval`).
    Exception(Exception, u64),
    /// An asynchronous interrupt.
    Interrupt(Interrupt),
}

impl Trap {
    /// The value written to `mcause` when this trap is taken.
    pub fn mcause(self) -> u64 {
        match self {
            Trap::Exception(e, _) => e.cause(),
            Trap::Interrupt(i) => i.cause(),
        }
    }

    /// The value written to `mtval` when this trap is taken.
    pub fn mtval(self) -> u64 {
        match self {
            Trap::Exception(_, tval) => tval,
            Trap::Interrupt(_) => 0,
        }
    }
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::Exception(e, tval) => write!(f, "{e} (tval={tval:#x})"),
            Trap::Interrupt(i) => write!(f, "{i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exception_cause_round_trip() {
        for e in [
            Exception::InstrMisaligned,
            Exception::IllegalInstr,
            Exception::Breakpoint,
            Exception::LoadMisaligned,
            Exception::LoadAccessFault,
            Exception::StoreMisaligned,
            Exception::StoreAccessFault,
            Exception::EcallU,
            Exception::EcallM,
        ] {
            assert_eq!(Exception::from_cause(e.cause()), Some(e));
        }
        assert_eq!(Exception::from_cause(31), None);
    }

    #[test]
    fn interrupt_bit_set() {
        let c = Interrupt::MachineTimer.cause();
        assert_eq!(c >> 63, 1);
        assert_eq!(c & 0xff, 7);
        assert_eq!(Interrupt::MachineTimer.pending_bit(), 1 << 7);
    }

    #[test]
    fn trap_mcause() {
        assert_eq!(Trap::Exception(Exception::IllegalInstr, 0xdead).mcause(), 2);
        assert_eq!(
            Trap::Exception(Exception::IllegalInstr, 0xdead).mtval(),
            0xdead
        );
        assert_eq!(Trap::Interrupt(Interrupt::MachineTimer).mtval(), 0);
    }
}
