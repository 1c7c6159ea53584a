//! Hardware-platform models for hardware-accelerated co-simulation.
//!
//! The paper deploys the design under test on a Cadence Palladium emulator
//! and a Xilinx VU19P FPGA, with the reference model on an x86 host. Those
//! machines are hardware we cannot ship in a Rust crate, so this crate
//! substitutes *calibrated analytical models* (see `DESIGN.md` §1): the
//! paper's own LogGP overhead decomposition (Eq. 1) implemented as explicit
//! types, with constants anchored to the paper's measured DUT-only speeds.
//!
//! - [`Platform`]: Palladium / FPGA / Verilator capacity + link + host models,
//! - [`LinkParams`] / [`OverheadBreakdown`]: the LogGP accounting
//!   primitives used by the co-simulation engine,
//! - [`AreaModel`]: the gate-count model behind Figure 15.
//!
//! # Examples
//!
//! ```
//! use difftest_platform::Platform;
//!
//! let palladium = Platform::palladium();
//! let hz = palladium.dut_only_hz(57.6e6); // XiangShan default
//! assert!((460e3..500e3).contains(&hz));
//! ```

#![warn(missing_docs)]
// The LogGP model prices every transfer of the engine's run; non-test
// code is held to the no-unwrap bar mechanically.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod area;
mod loggp;
mod platform;

pub use area::{AreaBreakdown, AreaFeatures, AreaModel};
pub use loggp::{LinkParams, OverheadBreakdown};
pub use platform::{HostParams, Platform, PlatformKind};
