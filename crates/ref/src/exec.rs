//! Pure RV64 instruction semantics.
//!
//! Each operation has a dedicated executor function with one uniform
//! signature; [`execute`] resolves the executor for the opcode and calls it.
//!
//! An executor evaluates one instruction against an immutable view of the
//! architectural state and memory, and returns an [`Effect`] describing every
//! state mutation the instruction performs. The caller (the reference model,
//! or the DUT's commit stage) applies the effect — possibly through a
//! compensation journal, possibly with injected faults.
//!
//! Keeping semantics pure gives three things the project relies on:
//! deterministic replay, journaled application for checkpoint/revert, and a
//! single place where the DUT and REF semantics are defined (the DUT's
//! *microarchitecture* and its injected bugs provide the divergence that
//! co-simulation detects).

use difftest_isa::csr::CsrIndex;
use difftest_isa::trap::{Exception, Trap};
use difftest_isa::{FReg, Insn, Op, Reg};

use crate::{ArchState, Memory};

/// A memory write performed by an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemWrite {
    /// Byte address of the write.
    pub addr: u64,
    /// Width in bytes (1, 2, 4 or 8).
    pub len: u8,
    /// The value written (low `len` bytes significant).
    pub value: u64,
}

/// A memory read performed by an instruction (informational; the loaded
/// value appears in the register-write field of the effect).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRead {
    /// Byte address of the read.
    pub addr: u64,
    /// Width in bytes (1, 2, 4 or 8).
    pub len: u8,
}

/// Every architectural mutation one instruction performs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Effect {
    /// The PC of the next instruction.
    pub next_pc: u64,
    /// Integer register write, if any.
    pub xw: Option<(Reg, u64)>,
    /// Floating-point register write, if any.
    pub fw: Option<(FReg, u64)>,
    /// Up to two CSR writes (CSR instructions write one; `mret` writes
    /// `mstatus` and consumes `mepc`).
    pub csrw: [Option<(CsrIndex, u64)>; 2],
    /// Memory write, if any.
    pub memw: Option<MemWrite>,
    /// Memory read, if any.
    pub memr: Option<MemRead>,
    /// `Some(new)` replaces the LR/SC reservation.
    pub set_reservation: Option<Option<u64>>,
    /// The memory access (if any) touched the MMIO hole. For loads the
    /// effect's register value is a placeholder; the DUT resolves it against
    /// its devices and the REF must be synchronized via `skip_next`.
    pub mmio: bool,
    /// Exception raised; when set, no other field applies.
    pub trap: Option<Trap>,
    /// A conditional branch evaluated taken.
    pub branch_taken: bool,
}

impl Effect {
    fn fall_through(pc: u64) -> Effect {
        Effect {
            next_pc: pc.wrapping_add(4),
            ..Effect::default()
        }
    }

    fn trap(t: Trap) -> Effect {
        Effect {
            trap: Some(t),
            ..Effect::default()
        }
    }
}

/// The signature every per-op executor shares.
type ExecFn = fn(&ArchState, &Memory, &Insn) -> Effect;

#[inline]
fn sext(value: u64, len: u8) -> u64 {
    let bits = len as u32 * 8;
    if bits == 64 {
        value
    } else {
        let shift = 64 - bits;
        (((value << shift) as i64) >> shift) as u64
    }
}

fn csr_read(state: &ArchState, addr: u16) -> Result<(CsrIndex, u64), Trap> {
    match CsrIndex::from_address(addr) {
        Some(c) => Ok((c, state.csr(c))),
        None => Err(Trap::Exception(Exception::IllegalInstr, 0)),
    }
}

// Executor bodies -----------------------------------------------------------
//
// The macros below keep each family's boilerplate (operand reads, x0
// suppression, the MMIO/fault ladder) in exactly one place; the per-op
// expression is the only thing that varies, mirroring the arms of the old
// monolithic `match`.

/// Register-writing ops with no memory access or control transfer. The
/// header names the operand bindings (`state`, `insn`, `pc`, `rs1`, `rs2`,
/// `imm`) at the call site so the per-op expressions can see them through
/// macro hygiene.
macro_rules! alu {
    (($state:ident, $insn:ident, $pc:ident, $rs1:ident, $rs2:ident, $imm:ident)
     $($name:ident => $v:expr;)*) => {$(
        #[allow(unused_variables)]
        fn $name($state: &ArchState, _mem: &Memory, $insn: &Insn) -> Effect {
            let $pc = $state.pc();
            let $rs1 = $state.xreg($insn.rs1);
            let $rs2 = $state.xreg($insn.rs2);
            let $imm = $insn.imm;
            let mut eff = Effect::fall_through($pc);
            let v: u64 = $v;
            // Writes to x0 are architectural no-ops and never reported as
            // register-write effects (the monitor would otherwise emit
            // commits whose destination value the REF cannot mirror).
            if !$insn.rd.is_zero() {
                eff.xw = Some(($insn.rd, v));
            }
            eff
        }
    )*};
}

alu! {
    (state, insn, pc, rs1, rs2, imm)
    x_lui => imm as u64;
    x_auipc => pc.wrapping_add(imm as u64);
    x_addi => rs1.wrapping_add(imm as u64);
    x_slti => ((rs1 as i64) < imm) as u64;
    x_sltiu => (rs1 < imm as u64) as u64;
    x_xori => rs1 ^ imm as u64;
    x_ori => rs1 | imm as u64;
    x_andi => rs1 & imm as u64;
    x_slli => rs1 << (imm as u32 & 63);
    x_srli => rs1 >> (imm as u32 & 63);
    x_srai => ((rs1 as i64) >> (imm as u32 & 63)) as u64;
    x_addiw => sext(rs1.wrapping_add(imm as u64) & 0xffff_ffff, 4);
    x_slliw => sext(((rs1 as u32) << (imm as u32 & 31)) as u64, 4);
    x_srliw => sext(((rs1 as u32) >> (imm as u32 & 31)) as u64, 4);
    x_sraiw => sext((((rs1 as i32) >> (imm as u32 & 31)) as u32) as u64, 4);
    x_add => rs1.wrapping_add(rs2);
    x_sub => rs1.wrapping_sub(rs2);
    x_sll => rs1 << (rs2 & 63);
    x_slt => ((rs1 as i64) < (rs2 as i64)) as u64;
    x_sltu => (rs1 < rs2) as u64;
    x_xor => rs1 ^ rs2;
    x_srl => rs1 >> (rs2 & 63);
    x_sra => ((rs1 as i64) >> (rs2 & 63)) as u64;
    x_or => rs1 | rs2;
    x_and => rs1 & rs2;
    x_addw => sext(rs1.wrapping_add(rs2) & 0xffff_ffff, 4);
    x_subw => sext(rs1.wrapping_sub(rs2) & 0xffff_ffff, 4);
    x_sllw => sext(((rs1 as u32) << (rs2 & 31)) as u64, 4);
    x_srlw => sext(((rs1 as u32) >> (rs2 & 31)) as u64, 4);
    x_sraw => sext((((rs1 as i32) >> (rs2 & 31)) as u32) as u64, 4);
    x_mul => rs1.wrapping_mul(rs2);
    x_mulh => (((rs1 as i64 as i128) * (rs2 as i64 as i128)) >> 64) as u64;
    x_mulhsu => (((rs1 as i64 as i128) * (rs2 as u128 as i128)) >> 64) as u64;
    x_mulhu => (((rs1 as u128) * (rs2 as u128)) >> 64) as u64;
    x_div => {
        let (a, b) = (rs1 as i64, rs2 as i64);
        if b == 0 {
            u64::MAX
        } else if a == i64::MIN && b == -1 {
            a as u64
        } else {
            (a / b) as u64
        }
    };
    x_divu => rs1.checked_div(rs2).unwrap_or(u64::MAX);
    x_rem => {
        let (a, b) = (rs1 as i64, rs2 as i64);
        if b == 0 {
            a as u64
        } else if a == i64::MIN && b == -1 {
            0
        } else {
            (a % b) as u64
        }
    };
    x_remu => if rs2 == 0 { rs1 } else { rs1 % rs2 };
    x_mulw => sext((rs1 as u32).wrapping_mul(rs2 as u32) as u64, 4);
    x_divw => {
        let (a, b) = (rs1 as i32, rs2 as i32);
        sext(
            if b == 0 {
                u32::MAX as u64
            } else if a == i32::MIN && b == -1 {
                a as u32 as u64
            } else {
                (a / b) as u32 as u64
            },
            4,
        )
    };
    x_divuw => {
        let (a, b) = (rs1 as u32, rs2 as u32);
        sext(a.checked_div(b).unwrap_or(u32::MAX) as u64, 4)
    };
    x_remw => {
        let (a, b) = (rs1 as i32, rs2 as i32);
        sext(
            if b == 0 {
                a as u32 as u64
            } else if a == i32::MIN && b == -1 {
                0
            } else {
                (a % b) as u32 as u64
            },
            4,
        )
    };
    x_remuw => {
        let (a, b) = (rs1 as u32, rs2 as u32);
        sext(if b == 0 { a as u64 } else { (a % b) as u64 }, 4)
    };
    x_andn => rs1 & !rs2;
    x_orn => rs1 | !rs2;
    x_xnor => !(rs1 ^ rs2);
    x_min => (rs1 as i64).min(rs2 as i64) as u64;
    x_minu => rs1.min(rs2);
    x_max => (rs1 as i64).max(rs2 as i64) as u64;
    x_maxu => rs1.max(rs2);
    x_rol => rs1.rotate_left((rs2 & 63) as u32);
    x_ror => rs1.rotate_right((rs2 & 63) as u32);
    x_rori => rs1.rotate_right(imm as u32 & 63);
    x_clz => rs1.leading_zeros() as u64;
    x_ctz => rs1.trailing_zeros() as u64;
    x_cpop => rs1.count_ones() as u64;
    x_sext_b => rs1 as u8 as i8 as i64 as u64;
    x_sext_h => rs1 as u16 as i16 as i64 as u64;
    x_zext_h => rs1 as u16 as u64;
    x_rev8 => rs1.swap_bytes();
    x_orc_b => {
        let mut v = 0u64;
        for byte in 0..8 {
            if (rs1 >> (8 * byte)) & 0xff != 0 {
                v |= 0xffu64 << (8 * byte);
            }
        }
        v
    };
    x_fmv_x_d => state.freg(insn.frs1());
}

/// Conditional branches: the expression evaluates "taken" over the
/// call-site-named `rs1`/`rs2` bindings.
macro_rules! branch {
    (($rs1:ident, $rs2:ident) $($name:ident => $taken:expr;)*) => {$(
        fn $name(state: &ArchState, _mem: &Memory, insn: &Insn) -> Effect {
            let pc = state.pc();
            let $rs1 = state.xreg(insn.rs1);
            let $rs2 = state.xreg(insn.rs2);
            let mut eff = Effect::fall_through(pc);
            let taken: bool = $taken;
            if taken {
                eff.next_pc = pc.wrapping_add(insn.imm as u64);
                eff.branch_taken = true;
            }
            eff
        }
    )*};
}

branch! {
    (rs1, rs2)
    x_beq => rs1 == rs2;
    x_bne => rs1 != rs2;
    x_blt => (rs1 as i64) < (rs2 as i64);
    x_bge => (rs1 as i64) >= (rs2 as i64);
    x_bltu => rs1 < rs2;
    x_bgeu => rs1 >= rs2;
}

/// Integer loads: the MMIO placeholder, the RAM bounds fault and the
/// sign-extension rule are shared; only width and signedness vary.
macro_rules! load {
    ($($name:ident => ($len:expr, $signed:expr);)*) => {$(
        fn $name(state: &ArchState, mem: &Memory, insn: &Insn) -> Effect {
            let pc = state.pc();
            let addr = state.xreg(insn.rs1).wrapping_add(insn.imm as u64);
            let len: u8 = $len;
            let mut eff = Effect::fall_through(pc);
            if Memory::is_mmio(addr) {
                eff.mmio = true;
                eff.memr = Some(MemRead { addr, len });
                // Placeholder: resolved by the device / skip sync.
                if !insn.rd.is_zero() {
                    eff.xw = Some((insn.rd, 0));
                }
            } else if !Memory::in_ram(addr, len as u64) {
                return Effect::trap(Trap::Exception(Exception::LoadAccessFault, addr));
            } else {
                let raw = mem.read(addr, len as usize);
                eff.memr = Some(MemRead { addr, len });
                let v = if $signed { sext(raw, len) } else { raw };
                if !insn.rd.is_zero() {
                    eff.xw = Some((insn.rd, v));
                }
            }
            eff
        }
    )*};
}

load! {
    x_lb => (1, true);
    x_lh => (2, true);
    x_lw => (4, true);
    x_ld => (8, true);
    x_lbu => (1, false);
    x_lhu => (2, false);
    x_lwu => (4, false);
}

fn store_common(state: &ArchState, insn: &Insn, len: u8, value: u64) -> Effect {
    let pc = state.pc();
    let addr = state.xreg(insn.rs1).wrapping_add(insn.imm as u64);
    let mut eff = Effect::fall_through(pc);
    if Memory::is_mmio(addr) {
        eff.mmio = true;
        eff.memw = Some(MemWrite { addr, len, value });
    } else if !Memory::in_ram(addr, len as u64) {
        return Effect::trap(Trap::Exception(Exception::StoreAccessFault, addr));
    } else {
        eff.memw = Some(MemWrite { addr, len, value });
    }
    eff
}

macro_rules! store {
    ($($name:ident => $len:expr;)*) => {$(
        fn $name(state: &ArchState, _mem: &Memory, insn: &Insn) -> Effect {
            store_common(state, insn, $len, state.xreg(insn.rs2))
        }
    )*};
}

store! {
    x_sb => 1;
    x_sh => 2;
    x_sw => 4;
    x_sd => 8;
}

fn x_fsd(state: &ArchState, _mem: &Memory, insn: &Insn) -> Effect {
    store_common(state, insn, 8, state.freg(insn.frs2()))
}

fn x_fld(state: &ArchState, mem: &Memory, insn: &Insn) -> Effect {
    let pc = state.pc();
    let addr = state.xreg(insn.rs1).wrapping_add(insn.imm as u64);
    let mut eff = Effect::fall_through(pc);
    if Memory::is_mmio(addr) {
        eff.mmio = true;
        eff.memr = Some(MemRead { addr, len: 8 });
        eff.fw = Some((insn.frd(), 0));
    } else if !Memory::in_ram(addr, 8) {
        return Effect::trap(Trap::Exception(Exception::LoadAccessFault, addr));
    } else {
        eff.memr = Some(MemRead { addr, len: 8 });
        eff.fw = Some((insn.frd(), mem.read(addr, 8)));
    }
    eff
}

fn lr_common(state: &ArchState, mem: &Memory, insn: &Insn, len: u8) -> Effect {
    let addr = state.xreg(insn.rs1);
    if !Memory::in_ram(addr, len as u64) {
        return Effect::trap(Trap::Exception(Exception::LoadAccessFault, addr));
    }
    let mut eff = Effect::fall_through(state.pc());
    let raw = mem.read(addr, len as usize);
    eff.memr = Some(MemRead { addr, len });
    if !insn.rd.is_zero() {
        eff.xw = Some((insn.rd, sext(raw, len)));
    }
    eff.set_reservation = Some(Some(addr));
    eff
}

fn x_lr_w(state: &ArchState, mem: &Memory, insn: &Insn) -> Effect {
    lr_common(state, mem, insn, 4)
}

fn x_lr_d(state: &ArchState, mem: &Memory, insn: &Insn) -> Effect {
    lr_common(state, mem, insn, 8)
}

fn sc_common(state: &ArchState, insn: &Insn, len: u8) -> Effect {
    let addr = state.xreg(insn.rs1);
    if !Memory::in_ram(addr, len as u64) {
        return Effect::trap(Trap::Exception(Exception::StoreAccessFault, addr));
    }
    let mut eff = Effect::fall_through(state.pc());
    let success = state.reservation() == Some(addr);
    if success {
        eff.memw = Some(MemWrite {
            addr,
            len,
            value: state.xreg(insn.rs2),
        });
    }
    if !insn.rd.is_zero() {
        eff.xw = Some((insn.rd, u64::from(!success)));
    }
    eff.set_reservation = Some(None);
    eff
}

fn x_sc_w(state: &ArchState, _mem: &Memory, insn: &Insn) -> Effect {
    sc_common(state, insn, 4)
}

fn x_sc_d(state: &ArchState, _mem: &Memory, insn: &Insn) -> Effect {
    sc_common(state, insn, 8)
}

/// Read-modify-write atomics. The closure computes the new memory value from
/// the sign-extended views `a`/`b` (W-form: 32-bit views) plus the raw
/// sign-extended old value and rs2, exactly as the old `match` arm did.
macro_rules! amo {
    ($($name:ident => ($len:expr, $new:expr);)*) => {$(
        #[allow(clippy::redundant_closure_call)]
        fn $name(state: &ArchState, mem: &Memory, insn: &Insn) -> Effect {
            let addr = state.xreg(insn.rs1);
            let rs2 = state.xreg(insn.rs2);
            let len: u8 = $len;
            if !Memory::in_ram(addr, len as u64) {
                return Effect::trap(Trap::Exception(Exception::StoreAccessFault, addr));
            }
            let old = sext(mem.read(addr, len as usize), len);
            // W-form AMOs operate on the sign-extended 32-bit views.
            let (a, b) = if len == 4 {
                (old as i32 as i64, rs2 as i32 as i64)
            } else {
                (old as i64, rs2 as i64)
            };
            let mut eff = Effect::fall_through(state.pc());
            let new: u64 = ($new)(a, b, old, rs2);
            eff.memr = Some(MemRead { addr, len });
            eff.memw = Some(MemWrite { addr, len, value: new });
            if !insn.rd.is_zero() {
                eff.xw = Some((insn.rd, old));
            }
            eff
        }
    )*};
}

amo! {
    x_amoswap_w => (4, |_a: i64, _b: i64, _old: u64, rs2: u64| rs2);
    x_amoadd_w => (4, |a: i64, b: i64, _old: u64, _rs2: u64| a.wrapping_add(b) as u64);
    x_amoxor_w => (4, |a: i64, b: i64, _old: u64, _rs2: u64| (a ^ b) as u64);
    x_amoand_w => (4, |a: i64, b: i64, _old: u64, _rs2: u64| (a & b) as u64);
    x_amoor_w => (4, |a: i64, b: i64, _old: u64, _rs2: u64| (a | b) as u64);
    x_amomin_w => (4, |a: i64, b: i64, _old: u64, _rs2: u64| a.min(b) as u64);
    x_amomax_w => (4, |a: i64, b: i64, _old: u64, _rs2: u64| a.max(b) as u64);
    x_amominu_w => (4, |_a: i64, _b: i64, old: u64, rs2: u64| (old as u32).min(rs2 as u32) as u64);
    x_amomaxu_w => (4, |_a: i64, _b: i64, old: u64, rs2: u64| (old as u32).max(rs2 as u32) as u64);
    x_amoswap_d => (8, |_a: i64, _b: i64, _old: u64, rs2: u64| rs2);
    x_amoadd_d => (8, |a: i64, b: i64, _old: u64, _rs2: u64| a.wrapping_add(b) as u64);
    x_amoxor_d => (8, |a: i64, b: i64, _old: u64, _rs2: u64| (a ^ b) as u64);
    x_amoand_d => (8, |a: i64, b: i64, _old: u64, _rs2: u64| (a & b) as u64);
    x_amoor_d => (8, |a: i64, b: i64, _old: u64, _rs2: u64| (a | b) as u64);
    x_amomin_d => (8, |a: i64, b: i64, _old: u64, _rs2: u64| a.min(b) as u64);
    x_amomax_d => (8, |a: i64, b: i64, _old: u64, _rs2: u64| a.max(b) as u64);
    x_amominu_d => (8, |_a: i64, _b: i64, old: u64, rs2: u64| old.min(rs2));
    x_amomaxu_d => (8, |_a: i64, _b: i64, old: u64, rs2: u64| old.max(rs2));
}

/// Zicsr ops. The closure maps `(old, operand)` to the optional write; the
/// "no write when the mask operand is x0/zero-imm" rule collapses to
/// `operand == 0` because x0 always reads zero.
macro_rules! csr_op {
    ($($name:ident => ($immform:expr, $write:expr);)*) => {$(
        #[allow(clippy::redundant_closure_call)]
        fn $name(state: &ArchState, _mem: &Memory, insn: &Insn) -> Effect {
            let (c, old) = match csr_read(state, insn.csr) {
                Ok(v) => v,
                Err(t) => return Effect::trap(t),
            };
            let operand: u64 = if $immform {
                insn.zimm()
            } else {
                state.xreg(insn.rs1)
            };
            let mut eff = Effect::fall_through(state.pc());
            let write: Option<u64> = ($write)(old, operand);
            if let Some(v) = write {
                eff.csrw[0] = Some((c, v));
            }
            if !insn.rd.is_zero() {
                eff.xw = Some((insn.rd, old));
            }
            eff
        }
    )*};
}

csr_op! {
    x_csrrw => (false, |_old: u64, operand: u64| Some(operand));
    x_csrrs => (false, |old: u64, operand: u64| {
        if operand == 0 { None } else { Some(old | operand) }
    });
    x_csrrc => (false, |old: u64, operand: u64| {
        if operand == 0 { None } else { Some(old & !operand) }
    });
    x_csrrwi => (true, |_old: u64, operand: u64| Some(operand));
    x_csrrsi => (true, |old: u64, operand: u64| {
        if operand == 0 { None } else { Some(old | operand) }
    });
    x_csrrci => (true, |old: u64, operand: u64| {
        if operand == 0 { None } else { Some(old & !operand) }
    });
}

fn x_jal(state: &ArchState, _mem: &Memory, insn: &Insn) -> Effect {
    let pc = state.pc();
    let mut eff = Effect::fall_through(pc);
    if !insn.rd.is_zero() {
        eff.xw = Some((insn.rd, pc.wrapping_add(4)));
    }
    eff.next_pc = pc.wrapping_add(insn.imm as u64);
    eff
}

fn x_jalr(state: &ArchState, _mem: &Memory, insn: &Insn) -> Effect {
    let pc = state.pc();
    let mut eff = Effect::fall_through(pc);
    if !insn.rd.is_zero() {
        eff.xw = Some((insn.rd, pc.wrapping_add(4)));
    }
    eff.next_pc = state.xreg(insn.rs1).wrapping_add(insn.imm as u64) & !1;
    eff
}

/// `fence` and `wfi`: architecturally a fall-through no-op here (the model
/// layer owns the cache-flush side of `fence`).
fn x_nop_sys(state: &ArchState, _mem: &Memory, _insn: &Insn) -> Effect {
    Effect::fall_through(state.pc())
}

fn x_ecall(_state: &ArchState, _mem: &Memory, _insn: &Insn) -> Effect {
    Effect::trap(Trap::Exception(Exception::EcallM, 0))
}

fn x_ebreak(state: &ArchState, _mem: &Memory, _insn: &Insn) -> Effect {
    Effect::trap(Trap::Exception(Exception::Breakpoint, state.pc()))
}

fn x_mret(state: &ArchState, _mem: &Memory, _insn: &Insn) -> Effect {
    use difftest_isa::csr::mstatus;
    let mut eff = Effect::fall_through(state.pc());
    let status = state.csr(CsrIndex::Mstatus);
    let mpie = (status & mstatus::MPIE) != 0;
    let mut new_status = status;
    if mpie {
        new_status |= mstatus::MIE;
    } else {
        new_status &= !mstatus::MIE;
    }
    new_status |= mstatus::MPIE;
    eff.csrw[0] = Some((CsrIndex::Mstatus, new_status));
    eff.next_pc = state.csr(CsrIndex::Mepc);
    eff
}

fn x_fmv_d_x(state: &ArchState, _mem: &Memory, insn: &Insn) -> Effect {
    let mut eff = Effect::fall_through(state.pc());
    eff.fw = Some((insn.frd(), state.xreg(insn.rs1)));
    eff
}

macro_rules! fp_arith {
    ($($name:ident => $f:expr;)*) => {$(
        #[allow(clippy::redundant_closure_call)]
        fn $name(state: &ArchState, _mem: &Memory, insn: &Insn) -> Effect {
            let a = f64::from_bits(state.freg(insn.frs1()));
            let b = f64::from_bits(state.freg(insn.frs2()));
            let mut eff = Effect::fall_through(state.pc());
            let r: f64 = ($f)(a, b);
            eff.fw = Some((insn.frd(), r.to_bits()));
            eff
        }
    )*};
}

fp_arith! {
    x_fadd_d => |a: f64, b: f64| a + b;
    x_fsub_d => |a: f64, b: f64| a - b;
    x_fmul_d => |a: f64, b: f64| a * b;
    x_fdiv_d => |a: f64, b: f64| a / b;
}

fn x_illegal(_state: &ArchState, _mem: &Memory, insn: &Insn) -> Effect {
    Effect::trap(Trap::Exception(Exception::IllegalInstr, insn.raw as u64))
}

/// Resolves the executor for `op` — the only opcode `match` on the
/// execution path.
fn exec_fn(op: Op) -> ExecFn {
    use Op::*;
    match op {
        Lui => x_lui,
        Auipc => x_auipc,
        Jal => x_jal,
        Jalr => x_jalr,
        Beq => x_beq,
        Bne => x_bne,
        Blt => x_blt,
        Bge => x_bge,
        Bltu => x_bltu,
        Bgeu => x_bgeu,
        Lb => x_lb,
        Lh => x_lh,
        Lw => x_lw,
        Ld => x_ld,
        Lbu => x_lbu,
        Lhu => x_lhu,
        Lwu => x_lwu,
        Sb => x_sb,
        Sh => x_sh,
        Sw => x_sw,
        Sd => x_sd,
        Addi => x_addi,
        Slti => x_slti,
        Sltiu => x_sltiu,
        Xori => x_xori,
        Ori => x_ori,
        Andi => x_andi,
        Slli => x_slli,
        Srli => x_srli,
        Srai => x_srai,
        Addiw => x_addiw,
        Slliw => x_slliw,
        Srliw => x_srliw,
        Sraiw => x_sraiw,
        Add => x_add,
        Sub => x_sub,
        Sll => x_sll,
        Slt => x_slt,
        Sltu => x_sltu,
        Xor => x_xor,
        Srl => x_srl,
        Sra => x_sra,
        Or => x_or,
        And => x_and,
        Addw => x_addw,
        Subw => x_subw,
        Sllw => x_sllw,
        Srlw => x_srlw,
        Sraw => x_sraw,
        Mul => x_mul,
        Mulh => x_mulh,
        Mulhsu => x_mulhsu,
        Mulhu => x_mulhu,
        Div => x_div,
        Divu => x_divu,
        Rem => x_rem,
        Remu => x_remu,
        Mulw => x_mulw,
        Divw => x_divw,
        Divuw => x_divuw,
        Remw => x_remw,
        Remuw => x_remuw,
        LrW => x_lr_w,
        ScW => x_sc_w,
        LrD => x_lr_d,
        ScD => x_sc_d,
        AmoSwapW => x_amoswap_w,
        AmoAddW => x_amoadd_w,
        AmoXorW => x_amoxor_w,
        AmoAndW => x_amoand_w,
        AmoOrW => x_amoor_w,
        AmoMinW => x_amomin_w,
        AmoMaxW => x_amomax_w,
        AmoMinuW => x_amominu_w,
        AmoMaxuW => x_amomaxu_w,
        AmoSwapD => x_amoswap_d,
        AmoAddD => x_amoadd_d,
        AmoXorD => x_amoxor_d,
        AmoAndD => x_amoand_d,
        AmoOrD => x_amoor_d,
        AmoMinD => x_amomin_d,
        AmoMaxD => x_amomax_d,
        AmoMinuD => x_amominu_d,
        AmoMaxuD => x_amomaxu_d,
        Andn => x_andn,
        Orn => x_orn,
        Xnor => x_xnor,
        Min => x_min,
        Minu => x_minu,
        Max => x_max,
        Maxu => x_maxu,
        Rol => x_rol,
        Ror => x_ror,
        Rori => x_rori,
        Clz => x_clz,
        Ctz => x_ctz,
        Cpop => x_cpop,
        SextB => x_sext_b,
        SextH => x_sext_h,
        ZextH => x_zext_h,
        Rev8 => x_rev8,
        OrcB => x_orc_b,
        Fence => x_nop_sys,
        Ecall => x_ecall,
        Ebreak => x_ebreak,
        Mret => x_mret,
        Wfi => x_nop_sys,
        Csrrw => x_csrrw,
        Csrrs => x_csrrs,
        Csrrc => x_csrrc,
        Csrrwi => x_csrrwi,
        Csrrsi => x_csrrsi,
        Csrrci => x_csrrci,
        Fld => x_fld,
        Fsd => x_fsd,
        FmvDX => x_fmv_d_x,
        FmvXD => x_fmv_x_d,
        FaddD => x_fadd_d,
        FsubD => x_fsub_d,
        FmulD => x_fmul_d,
        FdivD => x_fdiv_d,
        Illegal => x_illegal,
    }
}

/// Evaluates `insn` at `state.pc()` against `state` and `mem`.
///
/// The returned [`Effect`] is not applied; callers decide how (journaled,
/// fault-injected, ...). MMIO loads return a zero placeholder value with
/// [`Effect::mmio`] set — resolving the device value is the caller's job.
pub fn execute(state: &ArchState, mem: &Memory, insn: &Insn) -> Effect {
    exec_fn(insn.op)(state, mem, insn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use difftest_isa::{decode, encode};

    fn setup() -> (ArchState, Memory) {
        (ArchState::new(Memory::RAM_BASE), Memory::new())
    }

    fn run(state: &ArchState, mem: &Memory, word: u32) -> Effect {
        execute(state, mem, &decode(word))
    }

    #[test]
    fn addi_and_fall_through() {
        let (s, m) = setup();
        let e = run(&s, &m, encode::addi(Reg::A0, Reg::ZERO, -7));
        assert_eq!(e.xw, Some((Reg::A0, (-7i64) as u64)));
        assert_eq!(e.next_pc, Memory::RAM_BASE + 4);
        assert!(e.trap.is_none());
    }

    #[test]
    fn branch_taken_and_not_taken() {
        let (mut s, m) = setup();
        s.set_xreg(Reg::A0, 1);
        let e = run(&s, &m, encode::beq(Reg::A0, Reg::ZERO, 16));
        assert!(!e.branch_taken);
        assert_eq!(e.next_pc, Memory::RAM_BASE + 4);
        let e = run(&s, &m, encode::bne(Reg::A0, Reg::ZERO, 16));
        assert!(e.branch_taken);
        assert_eq!(e.next_pc, Memory::RAM_BASE + 16);
    }

    #[test]
    fn load_sign_extension() {
        let (mut s, mut m) = setup();
        m.write(Memory::RAM_BASE + 0x100, 1, 0x80);
        s.set_xreg(Reg::A1, Memory::RAM_BASE + 0x100);
        let e = run(&s, &m, encode::lb(Reg::A0, Reg::A1, 0));
        assert_eq!(e.xw, Some((Reg::A0, 0xffff_ffff_ffff_ff80)));
        let e = run(&s, &m, encode::lbu(Reg::A0, Reg::A1, 0));
        assert_eq!(e.xw, Some((Reg::A0, 0x80)));
    }

    #[test]
    fn mmio_load_is_flagged() {
        let (mut s, m) = setup();
        s.set_xreg(Reg::A1, 0x1000_0000);
        let e = run(&s, &m, encode::lw(Reg::A0, Reg::A1, 0));
        assert!(e.mmio);
        assert_eq!(e.xw, Some((Reg::A0, 0)));
        assert!(e.trap.is_none());
    }

    #[test]
    fn out_of_range_faults() {
        let (mut s, m) = setup();
        s.set_xreg(Reg::A1, Memory::RAM_BASE + Memory::RAM_SIZE);
        let e = run(&s, &m, encode::lw(Reg::A0, Reg::A1, 0));
        assert!(matches!(
            e.trap,
            Some(Trap::Exception(Exception::LoadAccessFault, _))
        ));
        let e = run(&s, &m, encode::sw(Reg::A0, Reg::A1, 0));
        assert!(matches!(
            e.trap,
            Some(Trap::Exception(Exception::StoreAccessFault, _))
        ));
    }

    #[test]
    fn division_edge_cases() {
        let (mut s, m) = setup();
        s.set_xreg(Reg::A1, 5);
        s.set_xreg(Reg::A2, 0);
        let e = run(&s, &m, encode::div(Reg::A0, Reg::A1, Reg::A2));
        assert_eq!(e.xw, Some((Reg::A0, u64::MAX)));
        let e = run(&s, &m, encode::rem(Reg::A0, Reg::A1, Reg::A2));
        assert_eq!(e.xw, Some((Reg::A0, 5)));
        s.set_xreg(Reg::A1, i64::MIN as u64);
        s.set_xreg(Reg::A2, (-1i64) as u64);
        let e = run(&s, &m, encode::div(Reg::A0, Reg::A1, Reg::A2));
        assert_eq!(e.xw, Some((Reg::A0, i64::MIN as u64)));
        let e = run(&s, &m, encode::rem(Reg::A0, Reg::A1, Reg::A2));
        assert_eq!(e.xw, Some((Reg::A0, 0)));
    }

    #[test]
    fn mulh_wideness() {
        let (mut s, m) = setup();
        s.set_xreg(Reg::A1, u64::MAX);
        s.set_xreg(Reg::A2, u64::MAX);
        let e = run(&s, &m, encode::mulhu(Reg::A0, Reg::A1, Reg::A2));
        assert_eq!(e.xw, Some((Reg::A0, u64::MAX - 1)));
        let e = run(&s, &m, encode::mulh(Reg::A0, Reg::A1, Reg::A2));
        assert_eq!(e.xw, Some((Reg::A0, 0))); // (-1) * (-1) = 1, high = 0
    }

    #[test]
    fn lr_sc_success_and_failure() {
        let (mut s, mut m) = setup();
        let addr = Memory::RAM_BASE + 0x40;
        m.write(addr, 8, 99);
        s.set_xreg(Reg::A1, addr);
        s.set_xreg(Reg::A2, 123);

        let e = run(&s, &m, encode::lr_d(Reg::A0, Reg::A1));
        assert_eq!(e.xw, Some((Reg::A0, 99)));
        assert_eq!(e.set_reservation, Some(Some(addr)));
        s.set_reservation(Some(addr));

        let e = run(&s, &m, encode::sc_d(Reg::A0, Reg::A1, Reg::A2));
        assert_eq!(e.xw, Some((Reg::A0, 0)));
        assert_eq!(
            e.memw,
            Some(MemWrite {
                addr,
                len: 8,
                value: 123
            })
        );

        s.set_reservation(None);
        let e = run(&s, &m, encode::sc_d(Reg::A0, Reg::A1, Reg::A2));
        assert_eq!(e.xw, Some((Reg::A0, 1)));
        assert!(e.memw.is_none());
    }

    #[test]
    fn amoadd() {
        let (mut s, mut m) = setup();
        let addr = Memory::RAM_BASE + 0x80;
        m.write(addr, 4, 10);
        s.set_xreg(Reg::A1, addr);
        s.set_xreg(Reg::A2, 32);
        let e = run(&s, &m, encode::amoadd_w(Reg::A0, Reg::A1, Reg::A2));
        assert_eq!(e.xw, Some((Reg::A0, 10)));
        assert_eq!(e.memw.unwrap().value, 42);
    }

    #[test]
    fn csr_rw_returns_old() {
        let (mut s, m) = setup();
        s.set_csr(CsrIndex::Mscratch, 7);
        s.set_xreg(Reg::A1, 9);
        let e = run(&s, &m, encode::csrrw(Reg::A0, 0x340, Reg::A1));
        assert_eq!(e.xw, Some((Reg::A0, 7)));
        assert_eq!(e.csrw[0], Some((CsrIndex::Mscratch, 9)));
    }

    #[test]
    fn csrrs_with_x0_does_not_write() {
        let (mut s, m) = setup();
        s.set_csr(CsrIndex::Mscratch, 7);
        let e = run(&s, &m, encode::csrrs(Reg::A0, 0x340, Reg::ZERO));
        assert_eq!(e.xw, Some((Reg::A0, 7)));
        assert_eq!(e.csrw[0], None);
    }

    #[test]
    fn unknown_csr_is_illegal() {
        let (s, m) = setup();
        let e = run(&s, &m, encode::csrrw(Reg::A0, 0x7c0, Reg::A1));
        assert!(matches!(
            e.trap,
            Some(Trap::Exception(Exception::IllegalInstr, _))
        ));
    }

    #[test]
    fn ecall_traps() {
        let (s, m) = setup();
        let e = run(&s, &m, encode::ecall());
        assert_eq!(e.trap, Some(Trap::Exception(Exception::EcallM, 0)));
    }

    #[test]
    fn mret_restores() {
        use difftest_isa::csr::mstatus;
        let (mut s, m) = setup();
        s.set_csr(CsrIndex::Mepc, 0x8000_1234);
        s.set_csr(CsrIndex::Mstatus, mstatus::MPIE);
        let e = run(&s, &m, encode::mret());
        assert_eq!(e.next_pc, 0x8000_1234);
        let (c, v) = e.csrw[0].unwrap();
        assert_eq!(c, CsrIndex::Mstatus);
        assert!(v & mstatus::MIE != 0);
        assert!(v & mstatus::MPIE != 0);
    }

    #[test]
    fn fp_ops() {
        let (mut s, m) = setup();
        s.set_freg(FReg::new(1), 2.5f64.to_bits());
        s.set_freg(FReg::new(2), 0.5f64.to_bits());
        let e = run(
            &s,
            &m,
            encode::fadd_d(FReg::new(0), FReg::new(1), FReg::new(2)),
        );
        assert_eq!(e.fw, Some((FReg::new(0), 3.0f64.to_bits())));
        let e = run(
            &s,
            &m,
            encode::fdiv_d(FReg::new(0), FReg::new(1), FReg::new(2)),
        );
        assert_eq!(e.fw, Some((FReg::new(0), 5.0f64.to_bits())));
    }

    #[test]
    fn word_ops_sign_extend() {
        let (mut s, m) = setup();
        s.set_xreg(Reg::A1, 0x7fff_ffff);
        s.set_xreg(Reg::A2, 1);
        let e = run(&s, &m, encode::addw(Reg::A0, Reg::A1, Reg::A2));
        assert_eq!(e.xw, Some((Reg::A0, 0xffff_ffff_8000_0000)));
    }
}
