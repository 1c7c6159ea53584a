//! Differential fuzzing: randomized programs (interrupts racing random
//! blocks of arithmetic, memory, CSR, FP, atomic, MMIO and exception
//! traffic) must verify cleanly under both the baseline and the fully
//! optimized configuration, across seeds.

use difftest_h::core::{CoSimulation, DiffConfig, RunOutcome, Session};
use difftest_h::dut::DutConfig;
use difftest_h::platform::Platform;
use difftest_h::workload::Workload;

#[test]
fn random_programs_verify_under_baseline_and_bnsd() {
    for seed in 0..6u64 {
        let w = Workload::fuzz().seed(seed).iterations(60).build();
        for config in [DiffConfig::Z, DiffConfig::BNSD] {
            let session = Session::new(
                DutConfig::xiangshan_minimal(),
                config,
                &w,
                Vec::new(),
                400_000,
                8,
                None,
            )
            .with_platform(Platform::palladium());
            let mut sim = CoSimulation::new(session).expect("valid setup");
            let report = sim.run();
            assert_eq!(
                report.outcome,
                RunOutcome::GoodTrap,
                "seed {seed} under {config:?}: {:?}",
                report.failure
            );
        }
    }
}

#[test]
fn random_programs_verify_on_every_dut_width() {
    let w = Workload::fuzz().seed(99).iterations(60).build();
    for dut in [
        DutConfig::nutshell(),
        DutConfig::xiangshan_minimal(),
        DutConfig::xiangshan_default(),
    ] {
        let name = dut.name.clone();
        let session = Session::new(dut, DiffConfig::BNSD, &w, Vec::new(), 400_000, 8, None)
            .with_platform(Platform::palladium());
        let mut sim = CoSimulation::new(session).expect("valid setup");
        let report = sim.run();
        assert_eq!(
            report.outcome,
            RunOutcome::GoodTrap,
            "{name}: {:?}",
            report.failure
        );
    }
}
