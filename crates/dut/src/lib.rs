//! The design under test: a cycle-level, multi-wide-commit processor model
//! with devices, memory hierarchy, monitor probes and bug injection.
//!
//! In the paper the DUT is the XiangShan RTL running on an emulator or
//! FPGA. The communication layer under study only observes the DUT through
//! its *verification event stream*, so this crate substitutes a cycle-level
//! Rust model that produces the same stream (see `DESIGN.md` §1): per-cycle
//! commit groups, register/CSR state dumps, memory and hierarchy events,
//! and — crucially — the two classes of non-determinism that make
//! co-simulation hard: cycle-timed CLINT interrupts and device-dependent
//! MMIO load values.
//!
//! - [`DutConfig`]: NutShell / XiangShan-minimal / -default / -dual presets
//!   (paper Tables 3/4),
//! - [`Dut`] / [`DutCore`]: the model itself,
//! - [`BugSpec`] / [`BugKind`] / [`bug_catalog`]: the 19-entry injectable
//!   fault catalog mirroring Table 6,
//! - [`device`] / [`cache`]: CLINT, UART, caches, TLBs, store buffer.
//!
//! # Examples
//!
//! ```
//! use difftest_dut::{Dut, DutConfig};
//! use difftest_isa::{encode, Reg};
//! use difftest_ref::Memory;
//!
//! let mut image = Memory::new();
//! image.load_words(Memory::RAM_BASE, &[
//!     encode::addi(Reg::A0, Reg::ZERO, 0),
//!     encode::ebreak(), // good trap
//! ]);
//! let mut dut = Dut::new(DutConfig::nutshell(), &image, Vec::new());
//! dut.run_to_halt(1_000);
//! assert!(dut.halted().expect("halts").good);
//! ```

#![warn(missing_docs)]
// The DUT ticks inside every runner's produce loop; a panic there aborts
// a whole co-simulation. Non-test code is held to the no-unwrap bar
// mechanically.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bugs;
pub mod cache;
mod config;
mod core;
pub mod device;
mod dump;
mod dut;
mod pipeline;

pub use bugs::{bug_catalog, BugInjector, BugKind, BugSpec, Hook};
pub use config::{DutConfig, PipelineParams, SlotTable};
pub use core::{DutCore, MonitorPort};
pub use dump::{dump_words, state_dump_slot, write_state_dump, STATE_DUMPS};
pub use dut::{CycleOutput, CycleSummary, Dut, HaltInfo};
pub use pipeline::{mix, StallModel};
