//! Bug hunt: inject a microarchitectural bug, detect it on the optimized
//! (fused) stream, and let Replay recover instruction-level localization.
//!
//! ```text
//! cargo run --release --example bug_hunt
//! ```

use difftest_h::core::{CoSimulation, DiffConfig, RunOutcome, Session};
use difftest_h::dut::{BugKind, BugSpec, DutConfig};
use difftest_h::platform::Platform;
use difftest_h::workload::Workload;

fn main() {
    let workload = Workload::linux_boot().seed(7).iterations(300).build();

    // A store silently commits a flipped data bit after ~25k instructions —
    // the kind of latent memory-hierarchy bug of the paper's Table 6.
    let bug = BugSpec::new(BugKind::StoreValueCorruption, 25_000);
    println!("injecting: {:?} ({})\n", bug.kind, bug.kind.category());

    for config in [DiffConfig::B, DiffConfig::BNSD] {
        let session = Session::new(
            DutConfig::xiangshan_default(),
            config,
            &workload,
            vec![bug.clone()],
            300_000,
            8,
            None,
        )
        .with_platform(Platform::palladium());
        let mut sim = CoSimulation::new(session).expect("valid setup");
        let report = sim.run();

        println!("== {config} ==");
        assert_eq!(report.outcome, RunOutcome::Mismatch, "bug must be caught");
        println!(
            "detected at cycle {} after {} instructions",
            report.cycles, report.instructions
        );
        let failure = report.failure.expect("mismatch carries a report");
        println!("{failure}");
        match config {
            DiffConfig::BNSD => {
                // The fused stream lost per-instruction detail; Replay
                // re-transmitted the buffered unfused events and localized
                // the exact instruction.
                let precise = failure.precise.expect("replay localizes");
                println!(
                    "-> Replay reprocessed {} events over tokens [{}, {}] and pinned \
                     instruction {} ({})",
                    failure.replayed_events,
                    failure.token_range.0,
                    failure.token_range.1,
                    precise.seq,
                    precise.check
                );
            }
            _ => println!("-> unfused stream: the mismatch is already instruction-precise"),
        }
        println!();
    }
}
