//! DiffTest-H: a semantic-aware, hardware-accelerated co-simulation framework
//! for processor verification, reproduced as a pure-Rust system.
//!
//! This umbrella crate re-exports every sub-crate of the workspace so that
//! examples, integration tests and downstream users can depend on a single
//! package:
//!
//! - [`isa`]: RV64 instruction definitions, decoder and assembler.
//! - [`ref_model`]: the golden reference model (instruction-set simulator).
//! - [`event`]: the 32-type verification event catalog and codecs.
//! - [`dut`]: the cycle-level design-under-test model with bug injection.
//! - [`platform`]: LogGP link models of Palladium, FPGA and Verilator hosts.
//! - [`core`]: Batch, Squash, Replay and the co-simulation engine.
//! - [`workload`]: RV64 workload generators.
//! - [`stats`]: performance counters, report tables and the trace toolkit.
//!
//! # Quick start
//!
//! ```
//! use difftest_h::core::{CoSimulation, DiffConfig, RunOutcome};
//! use difftest_h::dut::DutConfig;
//! use difftest_h::platform::Platform;
//! use difftest_h::workload::Workload;
//!
//! let workload = Workload::microbench().seed(7).iterations(20).build();
//! let mut sim = CoSimulation::builder()
//!     .dut(DutConfig::nutshell())
//!     .platform(Platform::palladium())
//!     .config(DiffConfig::BNSD)
//!     .max_cycles(200_000)
//!     .build(&workload)
//!     .expect("valid co-simulation setup");
//! let report = sim.run();
//! assert_eq!(report.outcome, RunOutcome::GoodTrap);
//! ```

pub use difftest_core as core;
pub use difftest_dut as dut;
pub use difftest_event as event;
pub use difftest_isa as isa;
pub use difftest_platform as platform;
pub use difftest_ref as ref_model;
pub use difftest_stats as stats;
pub use difftest_workload as workload;
