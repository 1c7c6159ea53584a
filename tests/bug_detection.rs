//! Replay under every injectable fault of the Table 6 catalog: no range a
//! localization asks for has been released, and a bug-free run with the
//! retention ring on still reaches its good trap. Which
//! configuration catches which bug, and where Replay localizes it, is a
//! row set of the conformance matrix (`tests/conformance.rs`).

use difftest_h::core::{CoSimulation, DiffConfig, RunOutcome, Session};
use difftest_h::dut::{bug_catalog, BugSpec, DutConfig};
use difftest_h::platform::Platform;
use difftest_h::workload::Workload;

#[test]
fn bug_free_runs_stay_clean_with_replay_enabled() {
    let workload = Workload::linux_boot().seed(13).iterations(150).build();
    let session = Session::new(
        DutConfig::xiangshan_minimal(),
        DiffConfig::BNSD,
        &workload,
        Vec::new(),
        250_000,
        8,
        None,
    )
    .with_platform(Platform::palladium());
    let mut sim = CoSimulation::new(session).expect("valid setup");
    assert_eq!(sim.run().outcome, RunOutcome::GoodTrap);
}

#[test]
fn replay_ranges_are_never_released_before_localization() {
    // The ring releases whole chunks once the checker's checkpoints have
    // passed them: every range a localization asks for must still be
    // whole, on one core and on two.
    let workload = Workload::linux_boot().seed(13).iterations(400).build();
    for dut in [DutConfig::xiangshan_minimal(), DutConfig::xiangshan_dual()] {
        let (mut localized, mut high_water) = (0, 0);
        for kind in bug_catalog().into_iter().map(|b| b.kind) {
            let session = Session::new(
                dut.clone(),
                DiffConfig::BNSD,
                &workload,
                vec![BugSpec::new(kind, 8_000)],
                250_000,
                8,
                None,
            )
            .with_platform(Platform::palladium());
            let mut sim = CoSimulation::new(session).expect("valid setup");
            let report = sim.run();
            high_water = high_water.max(report.replay_high_water);
            if let Some(f) = &report.failure {
                assert!(!f.partial, "{kind:?} on {} cores: {f}", dut.cores);
                localized += usize::from(f.replayed_events > 0);
            }
        }
        assert!(localized > 0, "no Replay ran on {} cores", dut.cores);
        eprintln!(
            "{} cores: {localized} localized, replay.high_water {high_water}",
            dut.cores
        );
    }
}
