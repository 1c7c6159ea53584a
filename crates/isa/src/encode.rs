//! Instruction encoders (a tiny assembler).
//!
//! Each function produces the raw 32-bit machine word for one instruction.
//! The workload generators build programs from these, and the decoder tests
//! round-trip through them.
//!
//! # Panics
//!
//! Encoders panic (via `debug_assert!`) when an immediate does not fit its
//! field in debug builds; release builds silently truncate, mirroring what an
//! assembler's output would contain.

use crate::{FReg, Reg};

#[inline]
fn r_type(opcode: u32, rd: Reg, funct3: u32, rs1: Reg, rs2: Reg, funct7: u32) -> u32 {
    opcode
        | ((rd.index() as u32) << 7)
        | (funct3 << 12)
        | ((rs1.index() as u32) << 15)
        | ((rs2.index() as u32) << 20)
        | (funct7 << 25)
}

#[inline]
fn i_type(opcode: u32, rd: Reg, funct3: u32, rs1: Reg, imm: i64) -> u32 {
    debug_assert!(
        (-2048..=2047).contains(&imm),
        "I-immediate out of range: {imm}"
    );
    opcode
        | ((rd.index() as u32) << 7)
        | (funct3 << 12)
        | ((rs1.index() as u32) << 15)
        | (((imm as u32) & 0xfff) << 20)
}

#[inline]
fn s_type(opcode: u32, funct3: u32, rs1: Reg, rs2: Reg, imm: i64) -> u32 {
    debug_assert!(
        (-2048..=2047).contains(&imm),
        "S-immediate out of range: {imm}"
    );
    let imm = imm as u32;
    opcode
        | ((imm & 0x1f) << 7)
        | (funct3 << 12)
        | ((rs1.index() as u32) << 15)
        | ((rs2.index() as u32) << 20)
        | (((imm >> 5) & 0x7f) << 25)
}

#[inline]
fn b_type(funct3: u32, rs1: Reg, rs2: Reg, imm: i64) -> u32 {
    debug_assert!(
        (-4096..=4095).contains(&imm) && imm % 2 == 0,
        "B-immediate out of range or misaligned: {imm}"
    );
    let imm = imm as u32;
    0x63 | (((imm >> 11) & 1) << 7)
        | (((imm >> 1) & 0xf) << 8)
        | (funct3 << 12)
        | ((rs1.index() as u32) << 15)
        | ((rs2.index() as u32) << 20)
        | (((imm >> 5) & 0x3f) << 25)
        | (((imm >> 12) & 1) << 31)
}

#[inline]
fn u_type(opcode: u32, rd: Reg, imm: i64) -> u32 {
    opcode | ((rd.index() as u32) << 7) | ((imm as u32) & 0xffff_f000)
}

#[inline]
fn j_type(rd: Reg, imm: i64) -> u32 {
    debug_assert!(
        (-(1 << 20)..(1 << 20)).contains(&imm) && imm % 2 == 0,
        "J-immediate out of range or misaligned: {imm}"
    );
    let imm = imm as u32;
    0x6f | ((rd.index() as u32) << 7)
        | (imm & 0xff000)
        | (((imm >> 11) & 1) << 20)
        | (((imm >> 1) & 0x3ff) << 21)
        | (((imm >> 20) & 1) << 31)
}

macro_rules! i_ops {
    ($(($fn:ident, $opcode:expr, $funct3:expr, $doc:expr)),* $(,)?) => {
        $(
            #[doc = $doc]
            pub fn $fn(rd: Reg, rs1: Reg, imm: i64) -> u32 {
                i_type($opcode, rd, $funct3, rs1, imm)
            }
        )*
    };
}

i_ops! {
    (addi,  0x13, 0, "`addi rd, rs1, imm`"),
    (slti,  0x13, 2, "`slti rd, rs1, imm`"),
    (sltiu, 0x13, 3, "`sltiu rd, rs1, imm`"),
    (xori,  0x13, 4, "`xori rd, rs1, imm`"),
    (ori,   0x13, 6, "`ori rd, rs1, imm`"),
    (andi,  0x13, 7, "`andi rd, rs1, imm`"),
    (addiw, 0x1b, 0, "`addiw rd, rs1, imm`"),
    (jalr,  0x67, 0, "`jalr rd, imm(rs1)`"),
    (lb,    0x03, 0, "`lb rd, imm(rs1)`"),
    (lh,    0x03, 1, "`lh rd, imm(rs1)`"),
    (lw,    0x03, 2, "`lw rd, imm(rs1)`"),
    (ld,    0x03, 3, "`ld rd, imm(rs1)`"),
    (lbu,   0x03, 4, "`lbu rd, imm(rs1)`"),
    (lhu,   0x03, 5, "`lhu rd, imm(rs1)`"),
    (lwu,   0x03, 6, "`lwu rd, imm(rs1)`"),
}

macro_rules! shift_ops {
    ($(($fn:ident, $opcode:expr, $funct3:expr, $hi:expr, $max:expr, $doc:expr)),* $(,)?) => {
        $(
            #[doc = $doc]
            pub fn $fn(rd: Reg, rs1: Reg, shamt: u32) -> u32 {
                debug_assert!(shamt <= $max, "shift amount out of range: {shamt}");
                i_type($opcode, rd, $funct3, rs1, (shamt | $hi) as i64)
            }
        )*
    };
}

shift_ops! {
    (slli,  0x13, 1, 0,     63, "`slli rd, rs1, shamt` (RV64, 6-bit shamt)"),
    (srli,  0x13, 5, 0,     63, "`srli rd, rs1, shamt`"),
    (srai,  0x13, 5, 0x400, 63, "`srai rd, rs1, shamt`"),
    (slliw, 0x1b, 1, 0,     31, "`slliw rd, rs1, shamt`"),
    (srliw, 0x1b, 5, 0,     31, "`srliw rd, rs1, shamt`"),
    (sraiw, 0x1b, 5, 0x400, 31, "`sraiw rd, rs1, shamt`"),
}

macro_rules! r_ops {
    ($(($fn:ident, $opcode:expr, $funct3:expr, $funct7:expr, $doc:expr)),* $(,)?) => {
        $(
            #[doc = $doc]
            pub fn $fn(rd: Reg, rs1: Reg, rs2: Reg) -> u32 {
                r_type($opcode, rd, $funct3, rs1, rs2, $funct7)
            }
        )*
    };
}

r_ops! {
    (add,    0x33, 0, 0x00, "`add rd, rs1, rs2`"),
    (sub,    0x33, 0, 0x20, "`sub rd, rs1, rs2`"),
    (sll,    0x33, 1, 0x00, "`sll rd, rs1, rs2`"),
    (slt,    0x33, 2, 0x00, "`slt rd, rs1, rs2`"),
    (sltu,   0x33, 3, 0x00, "`sltu rd, rs1, rs2`"),
    (xor,    0x33, 4, 0x00, "`xor rd, rs1, rs2`"),
    (srl,    0x33, 5, 0x00, "`srl rd, rs1, rs2`"),
    (sra,    0x33, 5, 0x20, "`sra rd, rs1, rs2`"),
    (or,     0x33, 6, 0x00, "`or rd, rs1, rs2`"),
    (and,    0x33, 7, 0x00, "`and rd, rs1, rs2`"),
    (addw,   0x3b, 0, 0x00, "`addw rd, rs1, rs2`"),
    (subw,   0x3b, 0, 0x20, "`subw rd, rs1, rs2`"),
    (sllw,   0x3b, 1, 0x00, "`sllw rd, rs1, rs2`"),
    (srlw,   0x3b, 5, 0x00, "`srlw rd, rs1, rs2`"),
    (sraw,   0x3b, 5, 0x20, "`sraw rd, rs1, rs2`"),
    (mul,    0x33, 0, 0x01, "`mul rd, rs1, rs2`"),
    (mulh,   0x33, 1, 0x01, "`mulh rd, rs1, rs2`"),
    (mulhsu, 0x33, 2, 0x01, "`mulhsu rd, rs1, rs2`"),
    (mulhu,  0x33, 3, 0x01, "`mulhu rd, rs1, rs2`"),
    (div,    0x33, 4, 0x01, "`div rd, rs1, rs2`"),
    (divu,   0x33, 5, 0x01, "`divu rd, rs1, rs2`"),
    (rem,    0x33, 6, 0x01, "`rem rd, rs1, rs2`"),
    (remu,   0x33, 7, 0x01, "`remu rd, rs1, rs2`"),
    (mulw,   0x3b, 0, 0x01, "`mulw rd, rs1, rs2`"),
    (divw,   0x3b, 4, 0x01, "`divw rd, rs1, rs2`"),
    (divuw,  0x3b, 5, 0x01, "`divuw rd, rs1, rs2`"),
    (remw,   0x3b, 6, 0x01, "`remw rd, rs1, rs2`"),
    (remuw,  0x3b, 7, 0x01, "`remuw rd, rs1, rs2`"),
}

macro_rules! b_ops {
    ($(($fn:ident, $funct3:expr, $doc:expr)),* $(,)?) => {
        $(
            #[doc = $doc]
            pub fn $fn(rs1: Reg, rs2: Reg, offset: i64) -> u32 {
                b_type($funct3, rs1, rs2, offset)
            }
        )*
    };
}

b_ops! {
    (beq,  0, "`beq rs1, rs2, offset`"),
    (bne,  1, "`bne rs1, rs2, offset`"),
    (blt,  4, "`blt rs1, rs2, offset`"),
    (bge,  5, "`bge rs1, rs2, offset`"),
    (bltu, 6, "`bltu rs1, rs2, offset`"),
    (bgeu, 7, "`bgeu rs1, rs2, offset`"),
}

macro_rules! s_ops {
    ($(($fn:ident, $opcode:expr, $funct3:expr, $doc:expr)),* $(,)?) => {
        $(
            #[doc = $doc]
            pub fn $fn(rs2: Reg, rs1: Reg, imm: i64) -> u32 {
                s_type($opcode, $funct3, rs1, rs2, imm)
            }
        )*
    };
}

s_ops! {
    (sb, 0x23, 0, "`sb rs2, imm(rs1)`"),
    (sh, 0x23, 1, "`sh rs2, imm(rs1)`"),
    (sw, 0x23, 2, "`sw rs2, imm(rs1)`"),
    (sd, 0x23, 3, "`sd rs2, imm(rs1)`"),
}

/// `lui rd, imm` — `imm` is the full 32-bit value whose low 12 bits are zero.
pub fn lui(rd: Reg, imm: i64) -> u32 {
    u_type(0x37, rd, imm)
}

/// `auipc rd, imm` — `imm` is the full 32-bit value whose low 12 bits are zero.
pub fn auipc(rd: Reg, imm: i64) -> u32 {
    u_type(0x17, rd, imm)
}

/// `jal rd, offset`.
pub fn jal(rd: Reg, offset: i64) -> u32 {
    j_type(rd, offset)
}

/// `fence` (treated as a no-op by the executors).
pub fn fence() -> u32 {
    0x0000_000f
}

/// `ecall`.
pub fn ecall() -> u32 {
    0x0000_0073
}

/// `ebreak`.
pub fn ebreak() -> u32 {
    0x0010_0073
}

/// `mret`.
pub fn mret() -> u32 {
    0x3020_0073
}

/// `wfi`.
pub fn wfi() -> u32 {
    0x1050_0073
}

/// The canonical NOP (`addi x0, x0, 0`).
pub fn nop() -> u32 {
    addi(Reg::ZERO, Reg::ZERO, 0)
}

macro_rules! csr_ops {
    ($(($fn:ident, $funct3:expr, $doc:expr)),* $(,)?) => {
        $(
            #[doc = $doc]
            pub fn $fn(rd: Reg, csr: u16, rs1: Reg) -> u32 {
                0x73 | ((rd.index() as u32) << 7)
                    | ($funct3 << 12)
                    | ((rs1.index() as u32) << 15)
                    | ((csr as u32) << 20)
            }
        )*
    };
}

csr_ops! {
    (csrrw, 1, "`csrrw rd, csr, rs1`"),
    (csrrs, 2, "`csrrs rd, csr, rs1`"),
    (csrrc, 3, "`csrrc rd, csr, rs1`"),
}

macro_rules! csri_ops {
    ($(($fn:ident, $funct3:expr, $doc:expr)),* $(,)?) => {
        $(
            #[doc = $doc]
            pub fn $fn(rd: Reg, csr: u16, zimm: u8) -> u32 {
                debug_assert!(zimm < 32, "zimm out of range: {zimm}");
                0x73 | ((rd.index() as u32) << 7)
                    | ($funct3 << 12)
                    | (((zimm & 0x1f) as u32) << 15)
                    | ((csr as u32) << 20)
            }
        )*
    };
}

csri_ops! {
    (csrrwi, 5, "`csrrwi rd, csr, zimm`"),
    (csrrsi, 6, "`csrrsi rd, csr, zimm`"),
    (csrrci, 7, "`csrrci rd, csr, zimm`"),
}

macro_rules! amo_ops {
    ($(($fn:ident, $funct5:expr, $funct3:expr, $doc:expr)),* $(,)?) => {
        $(
            #[doc = $doc]
            pub fn $fn(rd: Reg, rs1: Reg, rs2: Reg) -> u32 {
                r_type(0x2f, rd, $funct3, rs1, rs2, $funct5 << 2)
            }
        )*
    };
}

amo_ops! {
    (sc_w,      0x03, 2, "`sc.w rd, rs2, (rs1)`"),
    (sc_d,      0x03, 3, "`sc.d rd, rs2, (rs1)`"),
    (amoswap_w, 0x01, 2, "`amoswap.w rd, rs2, (rs1)`"),
    (amoadd_w,  0x00, 2, "`amoadd.w rd, rs2, (rs1)`"),
    (amoxor_w,  0x04, 2, "`amoxor.w rd, rs2, (rs1)`"),
    (amoand_w,  0x0c, 2, "`amoand.w rd, rs2, (rs1)`"),
    (amoor_w,   0x08, 2, "`amoor.w rd, rs2, (rs1)`"),
    (amomin_w,  0x10, 2, "`amomin.w rd, rs2, (rs1)`"),
    (amomax_w,  0x14, 2, "`amomax.w rd, rs2, (rs1)`"),
    (amominu_w, 0x18, 2, "`amominu.w rd, rs2, (rs1)`"),
    (amomaxu_w, 0x1c, 2, "`amomaxu.w rd, rs2, (rs1)`"),
    (amoswap_d, 0x01, 3, "`amoswap.d rd, rs2, (rs1)`"),
    (amoadd_d,  0x00, 3, "`amoadd.d rd, rs2, (rs1)`"),
    (amoxor_d,  0x04, 3, "`amoxor.d rd, rs2, (rs1)`"),
    (amoand_d,  0x0c, 3, "`amoand.d rd, rs2, (rs1)`"),
    (amoor_d,   0x08, 3, "`amoor.d rd, rs2, (rs1)`"),
    (amomin_d,  0x10, 3, "`amomin.d rd, rs2, (rs1)`"),
    (amomax_d,  0x14, 3, "`amomax.d rd, rs2, (rs1)`"),
    (amominu_d, 0x18, 3, "`amominu.d rd, rs2, (rs1)`"),
    (amomaxu_d, 0x1c, 3, "`amomaxu.d rd, rs2, (rs1)`"),
}

r_ops! {
    (andn, 0x33, 7, 0x20, "`andn rd, rs1, rs2` (Zbb)"),
    (orn,  0x33, 6, 0x20, "`orn rd, rs1, rs2` (Zbb)"),
    (xnor, 0x33, 4, 0x20, "`xnor rd, rs1, rs2` (Zbb)"),
    (min,  0x33, 4, 0x05, "`min rd, rs1, rs2` (Zbb)"),
    (minu, 0x33, 5, 0x05, "`minu rd, rs1, rs2` (Zbb)"),
    (max,  0x33, 6, 0x05, "`max rd, rs1, rs2` (Zbb)"),
    (maxu, 0x33, 7, 0x05, "`maxu rd, rs1, rs2` (Zbb)"),
    (rol,  0x33, 1, 0x30, "`rol rd, rs1, rs2` (Zbb)"),
    (ror,  0x33, 5, 0x30, "`ror rd, rs1, rs2` (Zbb)"),
}

macro_rules! zbb_unary {
    ($(($fn:ident, $funct12:expr, $funct3:expr, $doc:expr)),* $(,)?) => {
        $(
            #[doc = $doc]
            pub fn $fn(rd: Reg, rs1: Reg) -> u32 {
                0x13 | ((rd.index() as u32) << 7)
                    | ($funct3 << 12)
                    | ((rs1.index() as u32) << 15)
                    | ($funct12 << 20)
            }
        )*
    };
}

zbb_unary! {
    (clz,    0x600, 1, "`clz rd, rs1` (Zbb)"),
    (ctz,    0x601, 1, "`ctz rd, rs1` (Zbb)"),
    (cpop,   0x602, 1, "`cpop rd, rs1` (Zbb)"),
    (sext_b, 0x604, 1, "`sext.b rd, rs1` (Zbb)"),
    (sext_h, 0x605, 1, "`sext.h rd, rs1` (Zbb)"),
    (rev8,   0x6b8, 5, "`rev8 rd, rs1` (Zbb, RV64)"),
    (orc_b,  0x287, 5, "`orc.b rd, rs1` (Zbb)"),
}

/// `rori rd, rs1, shamt` (Zbb, RV64 6-bit shamt).
pub fn rori(rd: Reg, rs1: Reg, shamt: u32) -> u32 {
    debug_assert!(shamt <= 63, "shift amount out of range: {shamt}");
    i_type(0x13, rd, 5, rs1, (shamt | 0x600) as i64)
}

/// `zext.h rd, rs1` (Zbb, RV64 encoding).
pub fn zext_h(rd: Reg, rs1: Reg) -> u32 {
    r_type(0x3b, rd, 4, rs1, Reg::ZERO, 0x04)
}

/// `lr.d rd, (rs1)`.
pub fn lr_d(rd: Reg, rs1: Reg) -> u32 {
    r_type(0x2f, rd, 3, rs1, Reg::ZERO, 0x02 << 2)
}

/// `fld frd, imm(rs1)`.
pub fn fld(frd: FReg, rs1: Reg, imm: i64) -> u32 {
    i_type(0x07, Reg::new(frd.index() as u8), 3, rs1, imm)
}

/// `fsd frs2, imm(rs1)`.
pub fn fsd(frs2: FReg, rs1: Reg, imm: i64) -> u32 {
    s_type(0x27, 3, rs1, Reg::new(frs2.index() as u8), imm)
}

/// `fmv.d.x frd, rs1` — move integer bits into a floating-point register.
pub fn fmv_d_x(frd: FReg, rs1: Reg) -> u32 {
    r_type(
        0x53,
        Reg::new(frd.index() as u8),
        0,
        rs1,
        Reg::ZERO,
        0b1111001,
    )
}

macro_rules! fp_r_ops {
    ($(($fn:ident, $funct7:expr, $doc:expr)),* $(,)?) => {
        $(
            #[doc = $doc]
            pub fn $fn(frd: FReg, frs1: FReg, frs2: FReg) -> u32 {
                // funct3 = 0b000 selects RNE rounding; both executors use
                // Rust's f64 arithmetic which rounds to nearest-even.
                r_type(
                    0x53,
                    Reg::new(frd.index() as u8),
                    0,
                    Reg::new(frs1.index() as u8),
                    Reg::new(frs2.index() as u8),
                    $funct7,
                )
            }
        )*
    };
}

fp_r_ops! {
    (fadd_d, 0b0000001, "`fadd.d frd, frs1, frs2`"),
    (fsub_d, 0b0000101, "`fsub.d frd, frs1, frs2`"),
    (fmul_d, 0b0001001, "`fmul.d frd, frs1, frs2`"),
    (fdiv_d, 0b0001101, "`fdiv.d frd, frs1, frs2`"),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode, Op};

    #[test]
    fn nop_is_canonical() {
        assert_eq!(nop(), 0x0000_0013);
    }

    #[test]
    fn round_trip_arith() {
        let w = add(Reg::A0, Reg::A1, Reg::A2);
        let i = decode(w);
        assert_eq!(
            (i.op, i.rd, i.rs1, i.rs2),
            (Op::Add, Reg::A0, Reg::A1, Reg::A2)
        );
    }

    #[test]
    fn round_trip_branch_negative() {
        let w = bne(Reg::T0, Reg::T1, -256);
        let i = decode(w);
        assert_eq!(i.op, Op::Bne);
        assert_eq!(i.imm, -256);
    }

    #[test]
    fn round_trip_jal() {
        for off in [-1048576i64, -4, 0, 2, 4096, 1048574] {
            let i = decode(jal(Reg::RA, off));
            assert_eq!(i.op, Op::Jal, "offset {off}");
            assert_eq!(i.imm, off, "offset {off}");
        }
    }

    #[test]
    fn round_trip_store() {
        let i = decode(sd(Reg::A0, Reg::SP, -16));
        assert_eq!(i.op, Op::Sd);
        assert_eq!(i.rs1, Reg::SP);
        assert_eq!(i.rs2, Reg::A0);
        assert_eq!(i.imm, -16);
    }

    #[test]
    fn round_trip_lui() {
        let i = decode(lui(Reg::A0, 0x8000_0000u32 as i64));
        assert_eq!(i.op, Op::Lui);
        // imm_u sign-extends bit 31.
        assert_eq!(i.imm as i32, i32::MIN);
    }

    #[test]
    fn round_trip_csri() {
        let i = decode(csrrwi(Reg::ZERO, 0x305, 7));
        assert_eq!(i.op, Op::Csrrwi);
        assert_eq!(i.csr, 0x305);
        assert_eq!(i.zimm(), 7);
    }

    #[test]
    fn round_trip_fp() {
        let i = decode(fadd_d(FReg::new(1), FReg::new(2), FReg::new(3)));
        assert_eq!(i.op, Op::FaddD);
        assert_eq!(i.frd().index(), 1);
        assert_eq!(i.frs1().index(), 2);
        assert_eq!(i.frs2().index(), 3);
    }

    #[test]
    fn round_trip_lr_sc() {
        assert_eq!(decode(lr_d(Reg::A0, Reg::A1)).op, Op::LrD);
        let i = decode(sc_d(Reg::A0, Reg::A1, Reg::A2));
        assert_eq!(i.op, Op::ScD);
    }
}
