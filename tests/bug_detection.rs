//! End-to-end bug detection: every injectable fault of the Table 6 catalog
//! is caught by the full DiffTest-H configuration, and Replay localizes it
//! to a concrete instruction and check.

use difftest_h::core::{CoSimulation, DiffConfig, RunOutcome, Session};
use difftest_h::dut::{BugKind, BugSpec, DutConfig};
use difftest_h::platform::Platform;
use difftest_h::workload::Workload;

const ALL_BUGS: [BugKind; 19] = [
    BugKind::CorruptMepc,
    BugKind::WrongTrapCause,
    BugKind::WrongTval,
    BugKind::WrongTrapVector,
    BugKind::MstatusMieLeak,
    BugKind::WrongMpp,
    BugKind::StoreValueCorruption,
    BugKind::LostStore,
    BugKind::LoadValueCorruption,
    BugKind::StoreQueueAddrError,
    BugKind::SbufferMaskError,
    BugKind::RefillCorruption,
    BugKind::WrongVstart,
    BugKind::VsDirtyNotSet,
    BugKind::RegWriteCorruption,
    BugKind::WrongBranchTarget,
    BugKind::RedirectCorruption,
    BugKind::FpCsrStale,
    BugKind::VecConfigError,
];

fn detect(kind: BugKind, config: DiffConfig) -> (RunOutcome, Option<u64>) {
    detect_in(13, &[8_000], kind, config)
}

/// Runs `kind` armed at each commit count of `triggers` on the boot-like
/// program of `seed`, which exercises every event class the bugs corrupt
/// (traps, stores, CSRs, vector config, floating point, refills).
fn detect_in(
    seed: u64,
    triggers: &[u64],
    kind: BugKind,
    config: DiffConfig,
) -> (RunOutcome, Option<u64>) {
    let workload = Workload::linux_boot().seed(seed).iterations(400).build();
    let session = Session::new(
        DutConfig::xiangshan_minimal(),
        config,
        &workload,
        triggers.iter().map(|&at| BugSpec::new(kind, at)).collect(),
        250_000,
        8,
        None,
    )
    .with_platform(Platform::palladium());
    let mut sim = CoSimulation::new(session).expect("valid setup");
    let report = sim.run();
    let precise_seq = report
        .failure
        .as_ref()
        .and_then(|f| f.precise.as_ref())
        .map(|m| m.seq);
    (report.outcome, precise_seq)
}

#[test]
fn every_catalog_bug_is_detected_by_bnsd() {
    for kind in ALL_BUGS {
        // Redirect events are subsumed by fusion (their content is implied
        // by the commit stream), so a monitor-side corruption of *only* the
        // redirect payload is invisible to the squashed stream — the one
        // coverage trade-off fusion makes. See the dedicated test below.
        if kind == BugKind::RedirectCorruption {
            continue;
        }
        let (outcome, precise) = detect(kind, DiffConfig::BNSD);
        assert_eq!(
            outcome,
            RunOutcome::Mismatch,
            "{kind:?} escaped the full DiffTest-H configuration"
        );
        assert!(
            precise.is_some(),
            "{kind:?} detected but not localized by Replay"
        );
    }
}

#[test]
fn subsumed_event_corruption_is_the_fusion_trade_off() {
    // A fault visible only in a subsumed event's payload is caught by the
    // unfused configurations but traded away by Squash.
    let (unfused, _) = detect(BugKind::RedirectCorruption, DiffConfig::B);
    assert_eq!(unfused, RunOutcome::Mismatch);
    let (fused, _) = detect(BugKind::RedirectCorruption, DiffConfig::BNSD);
    assert_eq!(fused, RunOutcome::GoodTrap);
}

#[test]
fn every_catalog_bug_is_detected_by_baseline() {
    // The unoptimized stream must catch the same faults (optimizations may
    // not change what is detectable).
    for kind in ALL_BUGS {
        let (outcome, precise) = detect(kind, DiffConfig::Z);
        assert_eq!(
            outcome,
            RunOutcome::Mismatch,
            "{kind:?} escaped the baseline"
        );
        assert!(precise.is_some(), "{kind:?} baseline mismatch lacks detail");
    }
}

#[test]
fn replay_localization_matches_unfused_detection() {
    // For architectural-state bugs the instruction Replay pins must equal
    // the instruction the plain (unfused) stream reports.
    for kind in [
        BugKind::RegWriteCorruption,
        BugKind::StoreValueCorruption,
        BugKind::LoadValueCorruption,
        BugKind::WrongBranchTarget,
    ] {
        let (_, plain_seq) = detect(kind, DiffConfig::B);
        let (_, replay_seq) = detect(kind, DiffConfig::BNSD);
        assert_eq!(
            plain_seq, replay_seq,
            "{kind:?}: Replay localization diverges from the unfused stream"
        );
    }
    // A program armed the way the benchmark's bug sweep arms it, twelve
    // triggers 250 commits apart. Its trap-entry bugs (`MstatusMieLeak`)
    // are visible only in the register state the handler starts with, so
    // the squashed stream must still ship that state. Every bug the
    // squashed stream can see is caught, at the unfused instruction.
    let triggers: Vec<u64> = (0..12).map(|i| 8_000 + i * 250).collect();
    for kind in ALL_BUGS {
        if kind == BugKind::RedirectCorruption {
            continue;
        }
        let (_, plain_seq) = detect_in(7006, &triggers, kind, DiffConfig::B);
        let (outcome, replay_seq) = detect_in(7006, &triggers, kind, DiffConfig::BNSD);
        assert_eq!(outcome, RunOutcome::Mismatch, "{kind:?} escaped on 7006");
        assert_eq!(
            plain_seq, replay_seq,
            "{kind:?}: Replay localization diverges from the unfused stream on 7006"
        );
    }
}

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
        for kind in ALL_BUGS {
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
