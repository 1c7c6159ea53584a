//! Gate-count area model for the verification units (paper §6.4, Fig. 15).
//!
//! The paper reports that DiffTest-H adds ≈6% area over the DUT when the
//! Batch packing unit is disabled (monitor + squash + replay + simple
//! communication), growing to ≈25% on average with Batch enabled (the
//! unified hardware/software packing interface is the dominant cost).

/// Which verification units are instantiated on the hardware side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaFeatures {
    /// Tight-packing (Batch) unit present.
    pub batch: bool,
    /// Fusion/differencing (Squash) unit present.
    pub squash: bool,
    /// Replay buffer present.
    pub replay: bool,
}

impl AreaFeatures {
    /// The full DiffTest-H configuration.
    pub fn full() -> Self {
        AreaFeatures {
            batch: true,
            squash: true,
            replay: true,
        }
    }

    /// DiffTest-H without the Batch packing unit.
    pub fn without_batch() -> Self {
        AreaFeatures {
            batch: false,
            squash: true,
            replay: true,
        }
    }
}

/// Estimated gate counts of the DUT and each verification unit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaBreakdown {
    /// The design under test itself.
    pub dut_gates: f64,
    /// Monitor probes wired into the DUT.
    pub monitor_gates: f64,
    /// Squash fusion/differencing unit.
    pub squash_gates: f64,
    /// Replay buffer and token management.
    pub replay_gates: f64,
    /// Batch packing unit and the unified communication interface.
    pub batch_gates: f64,
}

impl AreaBreakdown {
    /// Total gates including the DUT.
    pub fn total(&self) -> f64 {
        self.dut_gates + self.overhead_gates()
    }

    /// Gates added by the verification units.
    pub fn overhead_gates(&self) -> f64 {
        self.monitor_gates + self.squash_gates + self.replay_gates + self.batch_gates
    }

    /// Verification-unit area as a fraction of the DUT area.
    pub fn overhead_fraction(&self) -> f64 {
        self.overhead_gates() / self.dut_gates
    }
}

/// Per-probe and per-unit cost constants of the area model.
///
/// Calibrated against the paper: 128 probes per core covering 32 event
/// types, ≈6% overhead without Batch, ≈25% with Batch across XiangShan
/// configurations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// Gates per monitor probe (wiring + capture register).
    pub gates_per_probe: f64,
    /// Monitor mux/valid logic as a fraction of DUT gates.
    pub monitor_fraction: f64,
    /// Squash unit as a fraction of DUT gates.
    pub squash_fraction: f64,
    /// Replay buffer as a fraction of DUT gates.
    pub replay_fraction: f64,
    /// Batch packing unit as a fraction of DUT gates (offset adders,
    /// mux-trees, transmission assembly).
    pub batch_fraction: f64,
}

impl Default for AreaModel {
    fn default() -> Self {
        AreaModel {
            gates_per_probe: 2_200.0,
            monitor_fraction: 0.017,
            squash_fraction: 0.022,
            replay_fraction: 0.018,
            batch_fraction: 0.185,
        }
    }
}

impl AreaModel {
    /// Estimates areas for a DUT of `dut_gates` gates with `probes_per_core`
    /// probes on each of `cores` cores.
    pub fn estimate(
        &self,
        dut_gates: f64,
        cores: u32,
        probes_per_core: u32,
        features: AreaFeatures,
    ) -> AreaBreakdown {
        let probe_gates = self.gates_per_probe * (probes_per_core as f64) * (cores as f64);
        AreaBreakdown {
            dut_gates,
            monitor_gates: probe_gates + self.monitor_fraction * dut_gates,
            squash_gates: if features.squash {
                self.squash_fraction * dut_gates
            } else {
                0.0
            },
            replay_gates: if features.replay {
                self.replay_fraction * dut_gates
            } else {
                0.0
            },
            batch_gates: if features.batch {
                self.batch_fraction * dut_gates
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_percent_without_batch() {
        let m = AreaModel::default();
        let a = m.estimate(57.6e6, 1, 128, AreaFeatures::without_batch());
        let f = a.overhead_fraction();
        assert!((0.05..0.08).contains(&f), "overhead {f}");
    }

    #[test]
    fn quarter_with_batch() {
        let m = AreaModel::default();
        let a = m.estimate(57.6e6, 1, 128, AreaFeatures::full());
        let f = a.overhead_fraction();
        assert!((0.22..0.28).contains(&f), "overhead {f}");
    }

    #[test]
    fn totals_are_consistent() {
        let m = AreaModel::default();
        let a = m.estimate(39.4e6, 2, 128, AreaFeatures::full());
        assert!((a.total() - a.dut_gates - a.overhead_gates()).abs() < 1.0);
        assert!(a.batch_gates > a.squash_gates);
    }

    #[test]
    fn probes_matter_more_on_small_duts() {
        let m = AreaModel::default();
        let small = m.estimate(0.6e6, 1, 32, AreaFeatures::without_batch());
        let large = m.estimate(111.8e6, 2, 128, AreaFeatures::without_batch());
        assert!(small.overhead_fraction() > large.overhead_fraction() * 0.9);
    }
}
