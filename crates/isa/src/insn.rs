//! Decoded instruction representation.

use std::fmt;

use crate::{FReg, Reg};

/// The operation performed by an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Op {
    // RV64I: upper immediates and jumps.
    Lui,
    Auipc,
    Jal,
    Jalr,
    // Conditional branches.
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    // Loads.
    Lb,
    Lh,
    Lw,
    Ld,
    Lbu,
    Lhu,
    Lwu,
    // Stores.
    Sb,
    Sh,
    Sw,
    Sd,
    // Integer register-immediate.
    Addi,
    Slti,
    Sltiu,
    Xori,
    Ori,
    Andi,
    Slli,
    Srli,
    Srai,
    Addiw,
    Slliw,
    Srliw,
    Sraiw,
    // Integer register-register.
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    Addw,
    Subw,
    Sllw,
    Srlw,
    Sraw,
    // RV64M.
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
    Mulw,
    Divw,
    Divuw,
    Remw,
    Remuw,
    // RV64A.
    LrW,
    ScW,
    LrD,
    ScD,
    AmoSwapW,
    AmoAddW,
    AmoXorW,
    AmoAndW,
    AmoOrW,
    AmoMinW,
    AmoMaxW,
    AmoMinuW,
    AmoMaxuW,
    AmoSwapD,
    AmoAddD,
    AmoXorD,
    AmoAndD,
    AmoOrD,
    AmoMinD,
    AmoMaxD,
    AmoMinuD,
    AmoMaxuD,
    // Zbb (basic bit manipulation; the B-extension subset XiangShan ships).
    Andn,
    Orn,
    Xnor,
    Min,
    Minu,
    Max,
    Maxu,
    Rol,
    Ror,
    Rori,
    Clz,
    Ctz,
    Cpop,
    SextB,
    SextH,
    ZextH,
    Rev8,
    OrcB,
    // System.
    Fence,
    Ecall,
    Ebreak,
    Mret,
    Wfi,
    // Zicsr.
    Csrrw,
    Csrrs,
    Csrrc,
    Csrrwi,
    Csrrsi,
    Csrrci,
    // D-extension slice: loads/stores, moves, basic arithmetic.
    Fld,
    Fsd,
    FmvDX,
    FmvXD,
    FaddD,
    FsubD,
    FmulD,
    FdivD,
    /// Anything the decoder does not recognise.
    Illegal,
}

impl Op {
    /// Returns `true` if the instruction is a conditional branch.
    pub fn is_branch(self) -> bool {
        matches!(
            self,
            Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu
        )
    }

    /// Returns `true` if the instruction reads memory (loads, LR, AMOs).
    pub fn is_load(self) -> bool {
        matches!(
            self,
            Op::Lb
                | Op::Lh
                | Op::Lw
                | Op::Ld
                | Op::Lbu
                | Op::Lhu
                | Op::Lwu
                | Op::Fld
                | Op::LrW
                | Op::LrD
        ) || self.is_amo()
    }

    /// Returns `true` if the instruction writes memory (stores, SC, AMOs).
    pub fn is_store(self) -> bool {
        matches!(
            self,
            Op::Sb | Op::Sh | Op::Sw | Op::Sd | Op::Fsd | Op::ScW | Op::ScD
        ) || self.is_amo()
    }

    /// Returns `true` for read-modify-write AMOs (not LR/SC).
    pub fn is_amo(self) -> bool {
        matches!(
            self,
            Op::AmoSwapW
                | Op::AmoAddW
                | Op::AmoXorW
                | Op::AmoAndW
                | Op::AmoOrW
                | Op::AmoMinW
                | Op::AmoMaxW
                | Op::AmoMinuW
                | Op::AmoMaxuW
                | Op::AmoSwapD
                | Op::AmoAddD
                | Op::AmoXorD
                | Op::AmoAndD
                | Op::AmoOrD
                | Op::AmoMinD
                | Op::AmoMaxD
                | Op::AmoMinuD
                | Op::AmoMaxuD
        )
    }

    /// Returns `true` for atomic memory operations (LR/SC/AMO).
    pub fn is_atomic(self) -> bool {
        matches!(self, Op::LrW | Op::ScW | Op::LrD | Op::ScD) || self.is_amo()
    }

    /// Returns `true` for Zicsr operations.
    pub fn is_csr(self) -> bool {
        matches!(
            self,
            Op::Csrrw | Op::Csrrs | Op::Csrrc | Op::Csrrwi | Op::Csrrsi | Op::Csrrci
        )
    }

    /// Returns `true` for the floating-point slice.
    pub fn is_fp(self) -> bool {
        matches!(
            self,
            Op::Fld
                | Op::Fsd
                | Op::FmvDX
                | Op::FmvXD
                | Op::FaddD
                | Op::FsubD
                | Op::FmulD
                | Op::FdivD
        )
    }

    /// Returns `true` if the op writes an integer destination register.
    pub fn writes_int_rd(self) -> bool {
        !(self.is_branch()
            || matches!(
                self,
                Op::Sb
                    | Op::Sh
                    | Op::Sw
                    | Op::Sd
                    | Op::Fsd
                    | Op::Fence
                    | Op::Ecall
                    | Op::Ebreak
                    | Op::Mret
                    | Op::Wfi
                    | Op::Fld
                    | Op::FmvDX
                    | Op::FaddD
                    | Op::FsubD
                    | Op::FmulD
                    | Op::FdivD
                    | Op::Illegal
            ))
    }

    /// Returns `true` if the op writes a floating-point destination register.
    pub fn writes_fp_rd(self) -> bool {
        matches!(
            self,
            Op::Fld | Op::FmvDX | Op::FaddD | Op::FsubD | Op::FmulD | Op::FdivD
        )
    }
}

/// A fully decoded instruction.
///
/// Operand fields that an operation does not use are left at their decoded
/// bit-field values and are ignored by the executors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Insn {
    /// The raw 32-bit machine word.
    pub raw: u32,
    /// The decoded operation.
    pub op: Op,
    /// Destination register.
    pub rd: Reg,
    /// First source register (also the `zimm` field of `csrr*i`).
    pub rs1: Reg,
    /// Second source register.
    pub rs2: Reg,
    /// Sign-extended immediate (branch/jump offsets, load/store offsets, ...).
    pub imm: i64,
    /// CSR address for Zicsr operations, zero otherwise.
    pub csr: u16,
}

impl Insn {
    /// The floating-point view of the destination register field.
    #[inline]
    pub fn frd(&self) -> FReg {
        FReg::new(self.rd.index() as u8)
    }

    /// The floating-point view of the first source register field.
    #[inline]
    pub fn frs1(&self) -> FReg {
        FReg::new(self.rs1.index() as u8)
    }

    /// The floating-point view of the second source register field.
    #[inline]
    pub fn frs2(&self) -> FReg {
        FReg::new(self.rs2.index() as u8)
    }

    /// The `zimm` immediate of `csrr*i` instructions (held in the rs1 field).
    #[inline]
    pub fn zimm(&self) -> u64 {
        self.rs1.index() as u64
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::disasm::fmt_insn(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifiers_are_consistent() {
        assert!(Op::Beq.is_branch());
        assert!(!Op::Beq.writes_int_rd());
        assert!(Op::Ld.is_load());
        assert!(!Op::Ld.is_store());
        assert!(Op::Sd.is_store());
        assert!(Op::AmoAddW.is_load() && Op::AmoAddW.is_store() && Op::AmoAddW.is_atomic());
        assert!(Op::Csrrw.is_csr());
        assert!(Op::Fld.is_fp() && Op::Fld.writes_fp_rd() && !Op::Fld.writes_int_rd());
        assert!(Op::FmvXD.writes_int_rd() && !Op::FmvXD.writes_fp_rd());
        assert!(!Op::Illegal.writes_int_rd());
    }
}
