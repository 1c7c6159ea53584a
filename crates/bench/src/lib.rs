//! Shared harness utilities for the per-table/per-figure benchmarks.
//!
//! Every bench target regenerates one table or figure of the paper by
//! running the co-simulation engine and printing a paper-shaped text table
//! with the paper's reported values alongside (`DESIGN.md` §4 maps each
//! experiment to its target; `EXPERIMENTS.md` records the outcomes).

use difftest_core::{CoSimulation, DiffConfig, RunOutcome, RunReport};
use difftest_dut::DutConfig;
use difftest_platform::Platform;
use difftest_workload::Workload;

pub use difftest_stats::{fmt_hz, fmt_pct, fmt_ratio, Table};

/// One evaluated deployment: DUT configuration on a platform.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Display name (e.g. `"XiangShan on Palladium"`).
    pub name: String,
    /// The DUT.
    pub dut: DutConfig,
    /// The platform.
    pub platform: Platform,
}

impl Setup {
    /// The three optimization-breakdown setups of Table 5.
    pub fn table5() -> Vec<Setup> {
        vec![
            Setup {
                name: "NutShell on Palladium".to_owned(),
                dut: DutConfig::nutshell(),
                platform: Platform::palladium(),
            },
            Setup {
                name: "XiangShan on Palladium".to_owned(),
                dut: DutConfig::xiangshan_default(),
                platform: Platform::palladium(),
            },
            Setup {
                name: "XiangShan on FPGA".to_owned(),
                dut: DutConfig::xiangshan_default(),
                platform: Platform::fpga(),
            },
        ]
    }

    /// The four DUT scales of Figure 13 (all on Palladium + Verilator).
    pub fn dut_scales() -> Vec<DutConfig> {
        vec![
            DutConfig::nutshell(),
            DutConfig::xiangshan_minimal(),
            DutConfig::xiangshan_default(),
            DutConfig::xiangshan_dual(),
        ]
    }
}

/// The standard benchmark workload (the paper's Linux-boot regime).
pub fn boot_workload() -> Workload {
    Workload::linux_boot().seed(5).iterations(600).build()
}

/// Runs one configuration to completion (or the cycle cap) and returns the
/// report.
///
/// # Panics
///
/// Panics when the run detects a mismatch — benchmark runs are bug-free by
/// construction, so a mismatch is an engine defect worth failing loudly on.
pub fn run(
    dut: &DutConfig,
    platform: &Platform,
    config: DiffConfig,
    workload: &Workload,
    max_cycles: u64,
) -> RunReport {
    let mut sim = CoSimulation::builder()
        .dut(dut.clone())
        .platform(platform.clone())
        .config(config)
        .max_cycles(max_cycles)
        .build(workload)
        .expect("benchmark setup is valid");
    let report = sim.run();
    assert!(
        matches!(report.outcome, RunOutcome::GoodTrap | RunOutcome::MaxCycles),
        "benchmark run diverged: {:?} ({})",
        report.outcome,
        report
            .failure
            .as_ref()
            .map(|f| f.to_string())
            .unwrap_or_default()
    );
    report
}

/// Default cycle budget for bench runs: long enough for representative
/// event mixes, short enough to keep `cargo bench` minutes-scale.
pub const BENCH_CYCLES: u64 = 150_000;
