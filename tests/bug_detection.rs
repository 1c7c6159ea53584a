//! Replay under every injectable fault of the Table 6 catalog: no range a
//! localization asks for has been released. Which configuration catches
//! which bug, where Replay localizes it, and that a bug-free run with the
//! retention ring on still traps, are row sets of the conformance matrix
//! (`tests/conformance.rs`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use difftest_h::core::{CoSimulation, DiffConfig, Session};
use difftest_h::dut::{bug_catalog, BugKind, BugSpec, DutConfig};
use difftest_h::platform::Platform;
use difftest_h::workload::Workload;

#[test]
fn replay_ranges_are_never_released_before_localization() {
    // The ring releases whole chunks once the checker's checkpoints have
    // passed them: every range a localization asks for must still be
    // whole, on one core and on two. The sessions are independent, so
    // they run on one worker per available CPU.
    let workload = Workload::linux_boot().seed(13).iterations(400).build();
    let duts = [DutConfig::xiangshan_minimal(), DutConfig::xiangshan_dual()];
    let jobs: Vec<(&DutConfig, BugKind)> = duts
        .iter()
        .flat_map(|dut| bug_catalog().into_iter().map(move |b| (dut, b.kind)))
        .collect();
    let next = AtomicUsize::new(0);
    let workers = thread::available_parallelism().map_or(1, |n| n.get());
    // `(cores, replay high water, localized)` per session.
    let runs: Vec<(u32, u64, bool)> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(jobs.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut runs = Vec::new();
                    while let Some(&(dut, kind)) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
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
                        let mut localized = false;
                        if let Some(f) = &report.failure {
                            assert!(!f.partial, "{kind:?} on {} cores: {f}", dut.cores);
                            localized = f.replayed_events > 0;
                        }
                        runs.push((dut.cores, report.replay_high_water, localized));
                    }
                    runs
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker finished"))
            .collect()
    });
    for dut in &duts {
        let (mut localized, mut high_water) = (0, 0);
        for &(_, hw, loc) in runs.iter().filter(|r| r.0 == dut.cores) {
            high_water = high_water.max(hw);
            localized += usize::from(loc);
        }
        assert!(localized > 0, "no Replay ran on {} cores", dut.cores);
        eprintln!(
            "{} cores: {localized} localized, replay.high_water {high_water}",
            dut.cores
        );
    }
}
