//! Verification events: the vocabulary of the co-simulation framework.
//!
//! A co-simulation framework extracts *verification events* from the design
//! under test — instruction commits, register updates, memory operations,
//! cache and TLB activity, extension state — and checks them against a
//! golden reference model. This crate defines the 32-type event catalog of
//! the paper's Table 1 together with its binary codecs:
//!
//! - [`Event`] / [`EventKind`] / [`Category`]: the catalog itself, with
//!   encoded sizes spanning 3 B – 512 B (the 170× structural diversity that
//!   motivates semantic-aware packing),
//! - [`MonitoredEvent`] / [`OrderTag`] / [`Token`]: monitor-side stamps for
//!   order-decoupled fusion (Squash) and range-selected replay,
//! - [`record`]: the one byte layout of a monitored event, shared by the
//!   Replay ring and the trace file,
//! - [`wire`]: the little-endian fixed-layout codec primitives.
//!
//! # Examples
//!
//! ```
//! use difftest_event::{Event, EventKind, InstrCommit};
//!
//! let commit = InstrCommit { pc: 0x8000_0000, wen: 1, wdest: 10, wdata: 42,
//!                            ..Default::default() };
//! let ev: Event = commit.into();
//! let mut bytes = Vec::new();
//! ev.encode_into(&mut bytes);
//! assert_eq!(bytes.len(), EventKind::InstrCommit.encoded_len());
//! assert_eq!(Event::decode(EventKind::InstrCommit, &bytes)?, ev);
//! # Ok::<(), difftest_event::CodecError>(())
//! ```

#![warn(missing_docs)]
// Every consumer path reads its fields through these codecs; a panic
// there aborts a whole co-simulation. Non-test code is held to the
// no-unwrap bar mechanically.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// No unsafe code either, except in the CRC's carry-less-multiply kernel
// (`wire::clmul`, x86_64 only), which opts back in: every unsafe block
// there states why it is sound, every unsafe fn what its caller owes.
#![deny(
    unsafe_code,
    clippy::undocumented_unsafe_blocks,
    clippy::missing_safety_doc
)]

mod catalog;
mod field;
mod monitor;
pub mod record;
pub mod wire;

pub use catalog::{
    commit_flags, ArchEvent, ArchEventRef, ArchFpRegState, ArchFpRegStateRef, ArchIntRegState,
    ArchIntRegStateRef, ArchVecRegState, ArchVecRegStateRef, AtomicEvent, AtomicEventRef, Category,
    CsrState, CsrStateRef, DebugModeState, DebugModeStateRef, Event, EventKind, EventRef,
    FpCsrUpdate, FpCsrUpdateRef, FpWriteback, FpWritebackRef, GuestPageFault, GuestPageFaultRef,
    HCsrUpdate, HCsrUpdateRef, HypervisorCsrState, HypervisorCsrStateRef, InstrCommit,
    InstrCommitRef, IntWriteback, IntWritebackRef, L1TlbEvent, L1TlbEventRef, L2TlbEvent,
    L2TlbEventRef, LoadEvent, LoadEventRef, LrScEvent, LrScEventRef, PtwEvent, PtwEventRef,
    Redirect, RedirectRef, RefillEvent, RefillEventRef, RunaheadEvent, RunaheadEventRef,
    SbufferEvent, SbufferEventRef, StoreEvent, StoreEventRef, TrapEvent, TrapEventRef,
    TriggerCsrState, TriggerCsrStateRef, VecConfig, VecConfigRef, VecCsrState, VecCsrStateRef,
    VecLoad, VecLoadRef, VecStore, VecStoreRef, VecWriteback, VecWritebackRef, VirtualInterrupt,
    VirtualInterruptRef,
};
pub use field::{U64ArrayView, WireField};
pub use monitor::{MonitoredEvent, OrderTag, Token};
pub use wire::CodecError;
