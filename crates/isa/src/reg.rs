//! Integer and floating-point register identifiers.

use std::fmt;

/// An integer (x) register index in `0..32`.
///
/// The type statically guarantees a valid index: constructing a `Reg` from an
/// out-of-range value is only possible through [`Reg::new`], which masks to
/// five bits, or through the named constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Creates a register from a raw index, keeping only the low five bits.
    #[inline]
    pub const fn new(index: u8) -> Self {
        Reg(index & 0x1f)
    }

    /// Returns the raw register index in `0..32`.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` for `x0`, the hard-wired zero register.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// ABI name of the register, e.g. `"a0"` for `x10`.
    pub const fn abi_name(self) -> &'static str {
        ABI_NAMES[self.0 as usize]
    }

    /// Iterates over all 32 integer registers in index order.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0u8..32).map(Reg::new)
    }
}

const ABI_NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

macro_rules! reg_consts {
    ($($name:ident = $idx:expr),* $(,)?) => {
        impl Reg {
            $(
                #[doc = concat!("The `", stringify!($name), "` register.")]
                pub const $name: Reg = Reg($idx);
            )*
        }
    };
}

reg_consts! {
    ZERO = 0, RA = 1, SP = 2, GP = 3, TP = 4,
    T0 = 5, T1 = 6, T2 = 7,
    S0 = 8, S1 = 9,
    A0 = 10, A1 = 11, A2 = 12, A3 = 13, A4 = 14, A5 = 15, A6 = 16, A7 = 17,
    S2 = 18, S3 = 19, S4 = 20, S5 = 21, S6 = 22, S7 = 23, S8 = 24, S9 = 25,
    S10 = 26, S11 = 27,
    T3 = 28, T4 = 29, T5 = 30, T6 = 31,
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_name())
    }
}

impl From<Reg> for usize {
    fn from(r: Reg) -> usize {
        r.index()
    }
}

/// A floating-point (f) register index in `0..32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FReg(u8);

impl FReg {
    /// Creates a floating-point register from a raw index (masked to 5 bits).
    #[inline]
    pub const fn new(index: u8) -> Self {
        FReg(index & 0x1f)
    }

    /// Returns the raw register index in `0..32`.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterates over all 32 floating-point registers in index order.
    pub fn all() -> impl Iterator<Item = FReg> {
        (0u8..32).map(FReg::new)
    }
}

impl fmt::Display for FReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl From<FReg> for usize {
    fn from(r: FReg) -> usize {
        r.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_to_five_bits() {
        assert_eq!(Reg::new(33), Reg::new(1));
        assert_eq!(FReg::new(0xff).index(), 31);
    }

    #[test]
    fn zero_register() {
        assert!(Reg::ZERO.is_zero());
        assert!(!Reg::A0.is_zero());
    }

    #[test]
    fn abi_names_are_distinct() {
        let mut names: Vec<_> = Reg::all().map(Reg::abi_name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 32);
    }

    #[test]
    fn display_matches_abi() {
        assert_eq!(Reg::A0.to_string(), "a0");
        assert_eq!(Reg::SP.to_string(), "sp");
        assert_eq!(FReg::new(3).to_string(), "f3");
    }

    #[test]
    fn all_yields_32() {
        assert_eq!(Reg::all().count(), 32);
        assert_eq!(FReg::all().count(), 32);
    }
}
