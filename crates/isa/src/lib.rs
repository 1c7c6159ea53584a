//! RV64 instruction-set definitions shared by the reference model, the DUT
//! model and the workload generators.
//!
//! The crate provides:
//!
//! - [`Reg`]: integer register identifiers with ABI names,
//! - [`FReg`]: floating-point register identifiers,
//! - [`Op`] / [`Insn`]: decoded instruction representation,
//! - [`decode`]: a decoder from raw 32-bit machine words,
//! - [`encode`]: an assembler producing raw machine words (used by the
//!   workload generators and for round-trip testing),
//! - [`csr`]: the control-and-status register map used across the project,
//! - [`trap`]: exception and interrupt cause codes.
//!
//! The supported subset is RV64IM + Zicsr + `ecall`/`ebreak`/`mret`/`wfi` +
//! a small slice of D-extension moves and arithmetic (enough to exercise the
//! floating-point verification events of the co-simulation framework).
//!
//! # Examples
//!
//! ```
//! use difftest_isa::{decode, encode, Op, Reg};
//!
//! let word = encode::addi(Reg::A0, Reg::ZERO, 42);
//! let insn = decode(word);
//! assert_eq!(insn.op, Op::Addi);
//! assert_eq!(insn.rd, Reg::A0);
//! assert_eq!(insn.imm, 42);
//! ```

#![warn(missing_docs)]
// Decode runs inside every REF step; a panic there aborts a whole
// co-simulation. Non-test code is held to the no-unwrap bar
// mechanically.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod csr;
mod decode;
mod disasm;
pub mod encode;
mod insn;
mod reg;
pub mod trap;

pub use decode::decode;
pub use insn::{Insn, Op};
pub use reg::{FReg, Reg};
