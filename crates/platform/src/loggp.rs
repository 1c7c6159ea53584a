//! LogGP-style communication cost model (paper §3).
//!
//! The paper models hardware/software communication overhead as
//!
//! ```text
//! Overhead = N_invokes × T_sync + N_bytes / BW + T_software     (Eq. 1)
//! ```
//!
//! This module implements the equation as explicit types: [`LinkParams`]
//! charges startup and transmission time, and [`OverheadBreakdown`] keeps
//! the per-phase attribution that Figure 2 of the paper reports. The
//! engine's LogGP timing model advances its own simulated clocks with
//! them.

/// Parameters of one hardware↔software link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Per-invocation synchronization/handshake latency in seconds
    /// (Palladium DPI-C sync, FPGA XDMA descriptor round-trip, ...).
    pub t_sync_s: f64,
    /// Sustained link bandwidth in bytes per second.
    pub bandwidth_bps: f64,
}

impl LinkParams {
    /// Creates link parameters from a sync latency and bandwidth.
    pub fn new(t_sync_s: f64, bandwidth_bps: f64) -> Self {
        LinkParams {
            t_sync_s,
            bandwidth_bps,
        }
    }

    /// Startup cost of `invokes` communication invocations.
    #[inline]
    pub fn startup_time(&self, invokes: u64) -> f64 {
        invokes as f64 * self.t_sync_s
    }

    /// Wire time of `bytes` payload bytes.
    #[inline]
    pub fn transmission_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bandwidth_bps
    }

    /// Total link cost of one transfer carrying `bytes` bytes.
    #[inline]
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.t_sync_s + self.transmission_time(bytes)
    }
}

/// Per-phase attribution of communication overhead (Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OverheadBreakdown {
    /// Seconds spent in communication startup (handshakes).
    pub startup_s: f64,
    /// Seconds spent in data transmission.
    pub transmission_s: f64,
    /// Seconds spent in software processing (unpack + REF + compare).
    pub software_s: f64,
}

impl OverheadBreakdown {
    /// Total overhead seconds across the three phases.
    pub fn total(&self) -> f64 {
        self.startup_s + self.transmission_s + self.software_s
    }

    /// Fractions of the three phases, in `[0, 1]`, summing to 1 when the
    /// total is non-zero.
    pub fn fractions(&self) -> [f64; 3] {
        let t = self.total();
        if t == 0.0 {
            [0.0; 3]
        } else {
            [
                self.startup_s / t,
                self.transmission_s / t,
                self.software_s / t,
            ]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_costs() {
        let l = LinkParams::new(1e-6, 1e9);
        assert!((l.startup_time(10) - 1e-5).abs() < 1e-18);
        assert_eq!(l.transmission_time(1000), 1e-6);
        assert!((l.transfer_time(1000) - 2e-6).abs() < 1e-15);
    }

    #[test]
    fn breakdown_fractions() {
        let b = OverheadBreakdown {
            startup_s: 2.0,
            transmission_s: 1.0,
            software_s: 1.0,
        };
        assert_eq!(b.total(), 4.0);
        assert_eq!(b.fractions(), [0.5, 0.25, 0.25]);
        assert_eq!(OverheadBreakdown::default().fractions(), [0.0; 3]);
    }
}
