//! Cross-runner fault acceptance (deterministic): under seeded
//! drop/duplicate/reorder/truncate/corrupt schedules, every runner —
//! virtual-time engine and socket — terminates with a typed
//! [`RunOutcome::LinkError`] or a cleanly recovered verdict, never a
//! panic and never a phantom mismatch. The engine's BNSD configuration
//! additionally *recovers*: its packet retention ring retransmits lost
//! or damaged packets, masking fault schedules the report-only socket
//! runner must surface as errors.

use difftest_core::{
    run_socket_session, CoSimulation, DiffConfig, FaultPlan, LinkErrorKind, RunOutcome, RunReport,
    Session, SocketReport,
};
use difftest_dut::DutConfig;
use difftest_platform::Platform;
use difftest_stats::{FlightKind, FlightSnapshot};
use difftest_workload::Workload;

/// The schedule grid: a handful of seeds crossed with per-fault rates
/// from gentle to hostile (a uniform plan applies its rate to all five
/// fault kinds, so 40‰ ≈ one fault per five packets).
const SEEDS: [u64; 3] = [11, 29, 4242];
const RATES: [u16; 3] = [5, 20, 40];

fn workload() -> Workload {
    Workload::microbench().seed(3).iterations(60).build()
}

fn engine_run(config: DiffConfig, plan: Option<FaultPlan>) -> RunReport {
    let session = Session::new(
        DutConfig::nutshell(),
        config,
        &workload(),
        Vec::new(),
        400_000,
        8,
        plan,
    )
    .with_platform(Platform::palladium());
    let mut sim = CoSimulation::new(session).expect("build");
    sim.run()
}

/// A faulted run may end recovered-clean or with a typed link error —
/// anything else (mismatch, cycle exhaustion) means a fault leaked past
/// the link layer into the checker.
fn assert_contained(outcome: RunOutcome, ctx: &str) {
    assert!(
        matches!(outcome, RunOutcome::GoodTrap | RunOutcome::LinkError { .. }),
        "{ctx}: fault must be recovered or typed, got {outcome:?}"
    );
}

/// On a typed link error the attached flight snapshot must hold the
/// failing sequence's link-error record with at least one transport
/// record (send/receive/retransmit) before it — the minimum context a
/// post-mortem needs.
fn assert_flight_diagnosable(flight: Option<&FlightSnapshot>, seq: u32, ctx: &str) {
    let snap = flight.unwrap_or_else(|| panic!("{ctx}: link error without a flight snapshot"));
    let pos = snap
        .find(FlightKind::LinkError, seq)
        .unwrap_or_else(|| panic!("{ctx}: snapshot missing link_error record for seq {seq}"));
    assert!(
        snap.records[..pos].iter().any(|r| r.kind.is_transport()),
        "{ctx}: no transport record precedes the link error (pos {pos} of {})",
        snap.records.len()
    );
}

#[test]
fn engine_contains_faults_across_the_schedule_grid() {
    for config in [DiffConfig::B, DiffConfig::BN, DiffConfig::BNSD] {
        for seed in SEEDS {
            for rate in RATES {
                let plan = FaultPlan::uniform(seed, rate);
                let r = engine_run(config, Some(plan));
                let ctx = format!("{config:?} seed={seed} rate={rate}‰");
                assert_contained(r.outcome, &ctx);
                assert!(
                    r.failure.is_none(),
                    "{ctx}: phantom mismatch {:?}",
                    r.failure
                );
                let fault = r.fault.expect("fault stats present when a plan is set");
                if let RunOutcome::LinkError { seq, .. } = r.outcome {
                    assert!(
                        fault.total_faults() > 0,
                        "{ctx}: link error without an injected fault"
                    );
                    assert!(r.link.total_detected() > 0, "{ctx}: untyped link error");
                    assert_flight_diagnosable(r.flight.as_ref(), seq, &ctx);
                } else {
                    assert!(r.flight.is_none(), "{ctx}: clean run carries a snapshot");
                }
            }
        }
    }
}

#[test]
fn engine_bnsd_recovers_via_packet_retransmission() {
    // Across the grid the BNSD retention ring must mask at least some
    // schedules end-to-end: faults injected, packets re-sent, clean trap.
    let mut recovered_runs = 0u32;
    let mut retransmit_bytes = 0u64;
    for seed in SEEDS {
        for rate in RATES {
            let r = engine_run(DiffConfig::BNSD, Some(FaultPlan::uniform(seed, rate)));
            if r.outcome == RunOutcome::GoodTrap
                && r.fault.is_some_and(|f| f.total_faults() > 0)
                && r.link.recovered > 0
            {
                recovered_runs += 1;
                retransmit_bytes += r.link.retransmit_bytes;
                // Retransmissions are charged through the LogGP model,
                // not smuggled: bytes crossed the link twice.
                assert!(r.link.retransmits >= r.link.recovered);
            }
        }
    }
    assert!(
        recovered_runs > 0,
        "no BNSD run recovered from an injected fault across the grid"
    );
    assert!(retransmit_bytes > 0, "recovery re-sent zero bytes");
}

#[test]
fn engine_fault_outcomes_replay_from_their_seed() {
    for rate in RATES {
        let plan = FaultPlan::uniform(77, rate);
        let a = engine_run(DiffConfig::BNSD, Some(plan));
        let b = engine_run(DiffConfig::BNSD, Some(plan));
        assert_eq!(a.outcome, b.outcome, "rate={rate}‰");
        assert_eq!(a.link, b.link, "rate={rate}‰");
        assert_eq!(a.fault, b.fault, "rate={rate}‰");
    }
}

#[test]
fn engine_clean_plan_changes_nothing() {
    let clean = engine_run(DiffConfig::BNSD, Some(FaultPlan::clean(5)));
    assert_eq!(clean.outcome, RunOutcome::GoodTrap);
    assert_eq!(clean.link.total_detected(), 0);
    assert_eq!(clean.fault.expect("plan set").total_faults(), 0);
    let bare = engine_run(DiffConfig::BNSD, None);
    assert_eq!(bare.outcome, RunOutcome::GoodTrap);
    assert!(bare.fault.is_none());
    assert_eq!(clean.instructions, bare.instructions);
}

/// The socket runner, BNSD on the shared workload, behind `plan`.
fn socket_run(w: &Workload, plan: FaultPlan) -> SocketReport {
    let session = Session::new(
        DutConfig::nutshell(),
        DiffConfig::BNSD,
        w,
        Vec::new(),
        400_000,
        8,
        Some(plan),
    );
    run_socket_session(session)
}

#[test]
fn socket_runner_contains_faults() {
    let w = workload();
    for seed in SEEDS {
        for rate in RATES {
            let r = socket_run(&w, FaultPlan::uniform(seed, rate));
            let ctx = format!("socket seed={seed} rate={rate}‰");
            assert_contained(r.outcome, &ctx);
            assert!(r.mismatch.is_none(), "{ctx}: phantom mismatch");
            if let RunOutcome::LinkError { seq, .. } = r.outcome {
                assert!(r.link.total_detected() > 0, "{ctx}: untyped link error");
                assert!(
                    r.fault.is_some_and(|f| f.total_faults() > 0),
                    "{ctx}: link error without an injected fault"
                );
                assert_flight_diagnosable(r.flight.as_ref(), seq, &ctx);
            } else {
                assert!(r.flight.is_none(), "{ctx}: clean run carries a snapshot");
            }
        }
    }
}

/// A socket report exports the engine's link-health rows: one
/// `link.err.<kind>` per kind and the `fault.*` tallies, each equal to
/// the report's own `link` and `fault` fields.
#[test]
fn socket_report_exports_link_and_fault_counters() {
    let session = Session::new(
        DutConfig::nutshell(),
        DiffConfig::BN,
        &workload(),
        Vec::new(),
        400_000,
        8,
        Some(FaultPlan::uniform(11, 20)),
    );
    let r = run_socket_session(session);
    let c = &r.metrics.counters;
    assert!(r.link.total_detected() > 0, "the plan must fault the link");
    for kind in LinkErrorKind::ALL {
        let name = format!("link.err.{}", kind.counter_name());
        assert_eq!(c.get(&name), r.link.count(kind), "{name}");
    }
    let f = r.fault.expect("plan set");
    for (name, v) in [
        ("fault.delivered", f.delivered),
        ("fault.dropped", f.dropped),
        ("fault.duplicated", f.duplicated),
        ("fault.reordered", f.reordered),
        ("fault.truncated", f.truncated),
        ("fault.corrupted", f.corrupted),
    ] {
        assert_eq!(c.get(name), v, "{name}");
    }
}

#[test]
fn socket_clean_link_still_passes() {
    let r = socket_run(&workload(), FaultPlan::clean(1));
    assert_eq!(r.outcome, RunOutcome::GoodTrap);
    assert_eq!(r.link.total_detected(), 0);
}

/// Drop-only schedules are the pure ARQ case: every loss is recoverable
/// from the retention ring, so the BNSD engine must finish clean while
/// counting each recovery.
#[test]
fn engine_bnsd_masks_pure_packet_loss() {
    let mut plan = FaultPlan::clean(13);
    plan.drop_per_mille = 60;
    let r = engine_run(DiffConfig::BNSD, Some(plan));
    let dropped = r.fault.expect("plan set").dropped;
    assert!(dropped > 0, "schedule never dropped a packet");
    assert_eq!(
        r.outcome,
        RunOutcome::GoodTrap,
        "pure loss must be fully recoverable (dropped={dropped}, link={:?})",
        r.link
    );
    assert!(r.link.recovered > 0);
    assert_eq!(r.link.recovered, r.link.retransmits);
}
