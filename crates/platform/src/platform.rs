//! Platform models: Palladium emulator, FPGA prototype, RTL simulator.
//!
//! Each platform bundles
//!
//! - a *capacity model* mapping design size (gates) to the DUT-only
//!   simulation speed the platform sustains,
//! - [`LinkParams`] for the hardware↔software link, and
//! - [`HostParams`] for the host-side software processing costs.
//!
//! The constants are calibrated once against the paper's *measured anchor
//! points* (Table 2, Table 5 baseline rows, Table 7 DUT-only column); every
//! derived number in the reproduced tables then comes from the actual
//! packing/fusion algorithms run over these models. Derivations are noted
//! inline.

use crate::loggp::LinkParams;

/// The deployment class of a platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformKind {
    /// A hardware emulator (Cadence Palladium class).
    Emulator,
    /// An FPGA prototype (Xilinx VU19P class).
    Fpga,
    /// A software RTL simulator (Verilator class).
    RtlSimulator,
}

/// Host-side software processing cost parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostParams {
    /// Seconds to step the REF by one instruction.
    pub ref_step_s: f64,
    /// Fixed seconds to dispatch/unpack/check one verification event.
    pub event_fixed_s: f64,
    /// Additional seconds per payload byte compared.
    pub event_per_byte_s: f64,
}

/// A co-simulation deployment platform.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    name: String,
    kind: PlatformKind,
    link: LinkParams,
    host: HostParams,
    /// Per-cycle hardware/software synchronization cost in step-and-compare
    /// mode (the baseline's clock-control handshake on emulators; zero on
    /// platforms whose baseline already syncs per event only).
    step_sync_s: f64,
    /// Capacity model: `dut_only_hz = cap_a / (gates + cap_b)` for size-
    /// sensitive platforms, or a fixed clock when `cap_b` is zero and
    /// `cap_a` is the clock (FPGA).
    cap_a: f64,
    cap_b: f64,
    fixed_clock_hz: Option<f64>,
}

impl Platform {
    /// The Cadence Palladium-class emulator model.
    ///
    /// Anchors: XiangShan-default (57.6 M gates) runs DUT-only at ~480 KHz
    /// (paper Table 7); NutShell (0.6 M gates) at ~1.3 MHz. Solving
    /// `hz = A / (gates + B)` for the two anchors gives
    /// `B = 32.8 M gates`, `A = 4.34e13 gate·Hz`.
    ///
    /// Link: Palladium performs a hardware/software synchronization at
    /// every DPI-C invocation (paper §3.1) — `T_sync = 11 µs` — plus a
    /// per-cycle clock-control sync of 55 µs in step-and-compare mode,
    /// over an internal link of ~100 MB/s. Hosts attached to emulators
    /// are shared machines; REF stepping is calibrated at
    /// 1.0 µs/instruction. These constants jointly anchor the Table 5
    /// baseline column (XiangShan ≈ 6 KHz, NutShell ≈ 14 KHz).
    pub fn palladium() -> Self {
        Platform {
            name: "Palladium".to_owned(),
            kind: PlatformKind::Emulator,
            link: LinkParams::new(11e-6, 100e6),
            host: HostParams {
                ref_step_s: 1.0e-6,
                event_fixed_s: 0.5e-6,
                event_per_byte_s: 2.0e-9,
            },
            step_sync_s: 55e-6,
            cap_a: 4.34e13,
            cap_b: 32.8e6,
            fixed_clock_hz: None,
        }
    }

    /// The Xilinx VU19P-class FPGA prototype model.
    ///
    /// Anchors: the DUT maps at a fixed 50 MHz design clock (paper Table 7).
    /// The PCIe/XDMA link has a higher handshake latency than Palladium's
    /// internal link but far higher bandwidth (paper §3.2 / Figure 2):
    /// `T_sync = 1.1 µs`, `BW = 3 GB/s` (anchoring the Table 5 FPGA
    /// baseline at ≈ 0.1 MHz). FPGA hosts are dedicated x86 servers; REF
    /// stepping is calibrated at 0.11 µs/instruction.
    pub fn fpga() -> Self {
        Platform {
            name: "FPGA".to_owned(),
            kind: PlatformKind::Fpga,
            link: LinkParams::new(1.1e-6, 3e9),
            host: HostParams {
                ref_step_s: 0.11e-6,
                event_fixed_s: 0.03e-6,
                event_per_byte_s: 0.15e-9,
            },
            step_sync_s: 0.0,
            cap_a: 0.0,
            cap_b: 0.0,
            fixed_clock_hz: Some(50e6),
        }
    }

    /// A 16-thread Verilator-class RTL simulator.
    ///
    /// Anchor: 16-thread Verilator simulates XiangShan-default at ~4 KHz
    /// (paper §6: DiffTest-H at 478 KHz / 7.8 MHz is 119× / 1945× faster).
    /// Model: `hz = threads_factor × 230e9 / gates`. Communication is
    /// in-process (DPI-C function call), so the link is effectively free;
    /// the simulator clock dominates.
    pub fn verilator(threads: u32) -> Self {
        // Verilator multi-threading saturates quickly; 16 threads ≈ 1.0
        // relative factor by construction of the anchor.
        let threads_factor = (threads as f64 / 16.0).powf(0.6).min(1.25);
        Platform {
            name: format!("Verilator-{threads}T"),
            kind: PlatformKind::RtlSimulator,
            link: LinkParams::new(30e-9, 8e9),
            host: HostParams {
                ref_step_s: 0.11e-6,
                event_fixed_s: 0.03e-6,
                event_per_byte_s: 0.15e-9,
            },
            step_sync_s: 0.0,
            cap_a: threads_factor * 230e9,
            cap_b: 0.0,
            fixed_clock_hz: None,
        }
    }

    /// Display name (e.g. `"Palladium"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Deployment class.
    pub fn kind(&self) -> PlatformKind {
        self.kind
    }

    /// Link parameters of the hardware↔software channel.
    pub fn link(&self) -> &LinkParams {
        &self.link
    }

    /// Host-side software processing parameters.
    pub fn host(&self) -> &HostParams {
        &self.host
    }

    /// Per-cycle synchronization cost of step-and-compare (baseline) mode.
    pub fn step_sync_s(&self) -> f64 {
        self.step_sync_s
    }

    /// DUT-only simulation speed for a design of `gates` gates, in Hz —
    /// the theoretical maximum co-simulation speed on this platform.
    pub fn dut_only_hz(&self, gates: f64) -> f64 {
        if let Some(clock) = self.fixed_clock_hz {
            return clock;
        }
        if self.cap_b == 0.0 {
            self.cap_a / gates
        } else {
            self.cap_a / (gates + self.cap_b)
        }
    }

    /// Seconds of hardware time per DUT cycle for a design of `gates`.
    pub fn cycle_time_s(&self, gates: f64) -> f64 {
        1.0 / self.dut_only_hz(gates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const XS_DEFAULT_GATES: f64 = 57.6e6;
    const NUTSHELL_GATES: f64 = 0.6e6;

    #[test]
    fn palladium_anchors() {
        let p = Platform::palladium();
        let xs = p.dut_only_hz(XS_DEFAULT_GATES);
        assert!((xs - 480e3).abs() / 480e3 < 0.03, "XS default: {xs}");
        let ns = p.dut_only_hz(NUTSHELL_GATES);
        assert!((ns - 1.3e6).abs() / 1.3e6 < 0.03, "NutShell: {ns}");
    }

    #[test]
    fn fpga_is_fixed_clock() {
        let f = Platform::fpga();
        assert_eq!(f.dut_only_hz(1e6), 50e6);
        assert_eq!(f.dut_only_hz(100e6), 50e6);
    }

    #[test]
    fn verilator_anchor() {
        let v = Platform::verilator(16);
        let xs = v.dut_only_hz(XS_DEFAULT_GATES);
        assert!((xs - 4e3).abs() / 4e3 < 0.03, "XS default: {xs}");
        // Fewer threads are slower; more threads saturate.
        assert!(Platform::verilator(1).dut_only_hz(XS_DEFAULT_GATES) < xs);
        assert!(Platform::verilator(64).dut_only_hz(XS_DEFAULT_GATES) <= xs * 1.3);
    }

    #[test]
    fn fpga_link_tradeoff_vs_palladium() {
        // Paper §3.2: FPGA has higher handshake cost but higher bandwidth.
        let p = Platform::palladium();
        let f = Platform::fpga();
        assert!(f.link().bandwidth_bps > p.link().bandwidth_bps);
        // Palladium's per-invoke sync is the larger of the two in absolute
        // terms, but relative to its cycle time the FPGA handshake dominates
        // (50 MHz cycles are 20 ns while the handshake is 620 ns).
        let f_cycles_per_sync = f.link().t_sync_s * f.dut_only_hz(57.6e6);
        let p_cycles_per_sync = p.link().t_sync_s * p.dut_only_hz(57.6e6);
        assert!(f_cycles_per_sync > p_cycles_per_sync);
    }

    #[test]
    fn cycle_time_inverse() {
        let p = Platform::palladium();
        let hz = p.dut_only_hz(XS_DEFAULT_GATES);
        assert!((p.cycle_time_s(XS_DEFAULT_GATES) * hz - 1.0).abs() < 1e-12);
    }
}
