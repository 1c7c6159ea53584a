//! DiffTest-H core: semantic-aware communication for hardware-accelerated
//! processor co-simulation.
//!
//! This crate implements the paper's contribution on top of the substrate
//! crates (`difftest-dut`, `difftest-ref`, `difftest-event`,
//! `difftest-platform`):
//!
//! - [`batch`]: **Batch** — tight packing of structurally diverse events
//!   with meta-guided dynamic unpacking (paper §4.2), plus the
//!   fixed-offset baseline of prior work; each packer owns the free
//!   list its transfer buffers return to,
//! - [`squash`]: **Squash** — order-decoupled fusion of instruction
//!   commits, NDE scheduling with order tags, and XOR differencing
//!   (paper §4.3), plus the order-coupled baseline,
//! - [`replay`]: **Replay** — token-ranged retransmission of unfused
//!   events and compensation-log REF revert for instruction-level
//!   debugging after fusion (paper §4.4),
//! - [`snapshot`]: the prior-work whole-DUT snapshot/re-execution baseline
//!   Replay is compared against (paper Fig. 10),
//! - [`checker`]: the ISA checker with non-deterministic-event
//!   synchronization and order restoration,
//! - [`engine`]: the co-simulation engine with LogGP virtual-time
//!   accounting, blocking and non-blocking (paper §4.5) transmission,
//! - [`prior`]: models of IBI-check, SBS-check and Fromajo for the
//!   Table 7 comparison.
//!
//! The runners share one transport-agnostic pipeline:
//!
//! - [`session`]: the shared setup layer ([`Session`]) plus the
//!   [`RunnerKind`]/[`run_session`] dispatch entry point,
//! - [`link`]: the [`LinkSink`] transport seam and the shared
//!   fault-injecting send path ([`SendLink`]), which hands the buffers
//!   a sink has written back to the packer,
//! - [`produce`]: the send-side state machine ([`Producer`]: tick →
//!   monitor → pack → feed) every runner drives,
//! - [`consume`]: the receive-side state machine ([`Consumer`]: CRC
//!   verify → unpack → check → bounded ARQ recovery) every runner
//!   drives,
//! - [`proto`]: the DTH wire protocol itself — typed handshake and
//!   frame codecs with incremental, bounded-allocation decoding,
//! - [`mux`]: the one socket consumer loop over that protocol
//!   ([`serve_connection`]), which hands its verdict to its caller,
//! - [`socket`]: the wall-clock runner — a producer thread and a
//!   consumer on the calling thread speaking [`proto`] over a
//!   Unix-domain socket pair: the paper's hardware/software parallelism
//!   behind a bounded sending queue (§4.5), with real bytes through the
//!   kernel.
//!
//! # Quick start
//!
//! ```
//! use difftest_core::{CoSimulation, DiffConfig, RunOutcome, Session};
//! use difftest_dut::DutConfig;
//! use difftest_platform::Platform;
//! use difftest_workload::Workload;
//!
//! let workload = Workload::microbench().seed(7).iterations(20).build();
//! let session = Session::new(
//!     DutConfig::nutshell(),
//!     DiffConfig::BNSD,
//!     &workload,
//!     Vec::new(), // no injected bugs
//!     200_000,    // cycle budget
//!     8,          // in-flight queue depth
//!     None,       // clean link
//! )
//! .with_platform(Platform::palladium());
//! let mut sim = CoSimulation::new(session)?;
//! let report = sim.run();
//! assert_eq!(report.outcome, RunOutcome::GoodTrap);
//! assert!(report.speed_hz > 0.0);
//! # Ok::<(), difftest_core::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A panic in the decode/check path aborts a whole co-simulation; link
// faults must surface as typed outcomes instead. Non-test code is held
// to that bar mechanically (tests may still unwrap freely).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod batch;
pub mod checker;
pub mod consume;
pub mod engine;
pub mod fault;
pub mod link;
pub mod mux;
pub mod prior;
pub mod produce;
pub mod proto;
pub mod replay;
pub mod session;
#[doc(hidden)]
pub mod shim;
pub mod snapshot;
pub mod socket;
pub mod squash;
pub mod transport;
pub mod wire;

pub use batch::PoolStats;
pub use checker::{CheckStats, Checker, Mismatch, Verdict};
pub use consume::{
    ChargeObserver, Consumer, ConsumerOutput, NoCharge, Step, MAX_REDELIVERY_DEPTH, RECOVERY_BUDGET,
};
pub use engine::{BuildError, CoSimulation, RunReport};
pub use fault::{FaultKind, FaultPlan, FaultStats, FaultyLink, LinkErrorKind, LinkStats};
pub use link::{FusionWatch, LinkSink, QueueSink, SendLink};
pub use mux::{serve_connection, CloseReason, Served};
pub use produce::{Producer, ProducerOutput};
pub use proto::{ClientMsg, FrameDecoder, Hello, ProtoError};
pub use replay::{FailureReport, ReplayBuffer, Retransmission};
pub use session::{
    run_runner, run_session, DiffConfig, RunCommon, RunOutcome, RunnerKind, RunnerReport, Session,
};
#[doc(hidden)]
pub use shim::*;
pub use snapshot::{snapshot_debug_run, SnapshotReport};
pub use socket::{child_entry, run_socket_session, SocketReport};
pub use squash::{FusedCommit, SquashStats, SquashUnit};
pub use transport::{AccelUnit, SwUnit, Transfer};
pub use wire::{WireItem, WireKind};
