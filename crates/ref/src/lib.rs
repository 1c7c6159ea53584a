//! The golden reference model (REF) of the co-simulation framework.
//!
//! In the paper's deployment the REF is a software instruction-set simulator
//! (NEMU or Spike) driven by the ISA checker. This crate provides the same
//! component written from scratch in Rust:
//!
//! - [`ArchState`]: the architectural state (PC, x/f register files, CSRs),
//! - [`Memory`]: a sparse physical memory with an MMIO hole,
//! - [`exec`]: pure RV64 instruction semantics producing an [`exec::Effect`],
//! - [`RefModel`]: the steppable simulator with non-deterministic-event
//!   synchronization hooks (`skip_next` for MMIO loads, `raise_interrupt`)
//!   and compensation-log checkpointing (`checkpoint` / `revert`) used by
//!   the Replay debugging mechanism (paper §4.4). It has two execution
//!   tiers: `step` through the per-instruction [`DecodeCache`] (the
//!   default), and the same `step` uncached — the oracle the coherence
//!   suite compares against.
//!
//! # Examples
//!
//! ```
//! use difftest_isa::{encode, Reg};
//! use difftest_ref::{Memory, RefModel, StepOutcome};
//!
//! let mut mem = Memory::new();
//! mem.load_words(Memory::RAM_BASE, &[
//!     encode::addi(Reg::A0, Reg::ZERO, 5),
//!     encode::addi(Reg::A0, Reg::A0, 1),
//! ]);
//! let mut m = RefModel::new(mem);
//! m.step();
//! assert!(matches!(m.step(), StepOutcome::Retired { .. }));
//! assert_eq!(m.state().xreg(Reg::A0), 6);
//! ```

#![warn(missing_docs)]
// The REF steps inside every checker; a panic there aborts a whole
// co-simulation. Non-test code is held to the no-unwrap bar mechanically.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod exec;
mod icache;
mod journal;
pub mod map;
mod mem;
mod model;
mod state;

pub use icache::{DecodeCache, DecodeCacheStats};
pub use journal::{Journal, JournalEntry};
pub use mem::Memory;
pub use model::{RefModel, StepOutcome};
pub use state::ArchState;
