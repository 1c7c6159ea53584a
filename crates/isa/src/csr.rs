//! Control-and-status register map.
//!
//! The project tracks a fixed set of machine-mode, supervisor-lite and
//! "extension" CSRs. Rather than modelling the full 4096-entry CSR space the
//! architectural state keeps a dense array indexed by [`CsrIndex`]; the
//! mapping between RISC-V CSR addresses and dense indices lives here so that
//! the reference model, the DUT model and the verification events all agree.

use std::fmt;

/// Number of CSRs tracked in the dense architectural CSR file.
pub const CSR_COUNT: usize = 24;

macro_rules! csr_table {
    ($(($variant:ident, $addr:expr, $name:expr, $doc:expr)),* $(,)?) => {
        /// Dense index of a tracked CSR.
        ///
        /// The discriminants are contiguous in `0..CSR_COUNT` so the type can
        /// index the architectural CSR array directly.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u8)]
        #[allow(missing_docs)]
        pub enum CsrIndex {
            $(#[doc = $doc] $variant),*
        }

        impl CsrIndex {
            /// All tracked CSRs in dense-index order.
            pub const ALL: [CsrIndex; CSR_COUNT] = [$(CsrIndex::$variant),*];

            /// The RISC-V CSR address of this register.
            pub const fn address(self) -> u16 {
                match self {
                    $(CsrIndex::$variant => $addr),*
                }
            }

            /// The assembler name of this register.
            pub const fn name(self) -> &'static str {
                match self {
                    $(CsrIndex::$variant => $name),*
                }
            }

            /// Looks up a tracked CSR by RISC-V address.
            pub fn from_address(addr: u16) -> Option<CsrIndex> {
                match addr {
                    $($addr => Some(CsrIndex::$variant),)*
                    _ => None,
                }
            }
        }
    };
}

csr_table! {
    (Mstatus,  0x300, "mstatus",  "Machine status."),
    (Misa,     0x301, "misa",     "ISA and extensions."),
    (Medeleg,  0x302, "medeleg",  "Machine exception delegation."),
    (Mideleg,  0x303, "mideleg",  "Machine interrupt delegation."),
    (Mie,      0x304, "mie",      "Machine interrupt enable."),
    (Mtvec,    0x305, "mtvec",    "Machine trap vector base."),
    (Mscratch, 0x340, "mscratch", "Machine scratch."),
    (Mepc,     0x341, "mepc",     "Machine exception PC."),
    (Mcause,   0x342, "mcause",   "Machine trap cause."),
    (Mtval,    0x343, "mtval",    "Machine trap value."),
    (Mip,      0x344, "mip",      "Machine interrupt pending."),
    (Mcycle,   0xb00, "mcycle",   "Machine cycle counter."),
    (Minstret, 0xb02, "minstret", "Machine instructions-retired counter."),
    (Mhartid,  0xf14, "mhartid",  "Hart ID."),
    (Satp,     0x180, "satp",     "Supervisor address translation and protection."),
    (Fcsr,     0x003, "fcsr",     "Floating-point control and status."),
    // Vector-extension state. The DUT does not execute V instructions but
    // models vector-unit bookkeeping through these CSRs, which is what the
    // vector verification events of the paper's Table 1 carry.
    (Vstart,   0x008, "vstart",   "Vector start index."),
    (Vxsat,    0x009, "vxsat",    "Vector fixed-point saturation flag."),
    (Vxrm,     0x00a, "vxrm",     "Vector fixed-point rounding mode."),
    (Vcsr,     0x00f, "vcsr",     "Vector control and status."),
    (Vl,       0xc20, "vl",       "Vector length."),
    (Vtype,    0xc21, "vtype",    "Vector data type."),
    // Hypervisor-extension bookkeeping (exercised by virtualization events).
    (Hstatus,  0x600, "hstatus",  "Hypervisor status."),
    (Hedeleg,  0x602, "hedeleg",  "Hypervisor exception delegation."),
}

impl CsrIndex {
    /// Returns the dense index in `0..CSR_COUNT`.
    #[inline]
    pub const fn dense(self) -> usize {
        self as usize
    }

    /// Looks up a tracked CSR by dense index.
    pub fn from_dense(index: usize) -> Option<CsrIndex> {
        Self::ALL.get(index).copied()
    }
}

impl fmt::Display for CsrIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Interesting bit positions inside `mstatus`.
pub mod mstatus {
    /// Machine-mode global interrupt enable.
    pub const MIE: u64 = 1 << 3;
    /// Previous machine-mode interrupt enable.
    pub const MPIE: u64 = 1 << 7;
    /// Previous privilege mode (two bits).
    pub const MPP_SHIFT: u32 = 11;
    /// Mask of the previous-privilege field.
    pub const MPP_MASK: u64 = 0b11 << MPP_SHIFT;
    /// Floating-point unit status field.
    pub const FS_SHIFT: u32 = 13;
    /// Mask of the FS field.
    pub const FS_MASK: u64 = 0b11 << FS_SHIFT;
    /// Vector unit status field.
    pub const VS_SHIFT: u32 = 9;
    /// Mask of the VS field.
    pub const VS_MASK: u64 = 0b11 << VS_SHIFT;
}

/// Interesting bit positions inside `mie`/`mip`.
pub mod mi {
    /// Machine software interrupt.
    pub const MSI: u64 = 1 << 3;
    /// Machine timer interrupt.
    pub const MTI: u64 = 1 << 7;
    /// Machine external interrupt.
    pub const MEI: u64 = 1 << 11;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_indices_are_contiguous() {
        for (i, csr) in CsrIndex::ALL.iter().enumerate() {
            assert_eq!(csr.dense(), i);
            assert_eq!(CsrIndex::from_dense(i), Some(*csr));
        }
        assert_eq!(CsrIndex::from_dense(CSR_COUNT), None);
    }

    #[test]
    fn address_round_trip() {
        for csr in CsrIndex::ALL {
            assert_eq!(CsrIndex::from_address(csr.address()), Some(csr));
        }
    }

    #[test]
    fn unknown_address() {
        assert_eq!(CsrIndex::from_address(0x7ff), None);
    }

    #[test]
    fn addresses_are_distinct() {
        let mut addrs: Vec<_> = CsrIndex::ALL.iter().map(|c| c.address()).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), CSR_COUNT);
    }

    #[test]
    fn display_uses_name() {
        assert_eq!(CsrIndex::Mstatus.to_string(), "mstatus");
    }
}
