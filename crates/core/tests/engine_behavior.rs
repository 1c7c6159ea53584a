//! Engine-level behavioral tests: parameter validation, timing-mode
//! semantics, replay toggles and report consistency.

use difftest_core::{
    run_session, BuildError, CoSimulation, DiffConfig, RunOutcome, RunReport, RunnerKind,
    RunnerReport, Session,
};
use difftest_dut::{BugKind, BugSpec, DutConfig};
use difftest_platform::Platform;
use difftest_workload::Workload;

fn small_workload() -> Workload {
    Workload::linux_boot().seed(9).iterations(120).build()
}

/// A NutShell session over [`small_workload`] on Palladium.
fn session(config: DiffConfig, bugs: Vec<BugSpec>, queue_depth: usize) -> Session {
    Session::new(
        DutConfig::nutshell(),
        config,
        &small_workload(),
        bugs,
        400_000,
        queue_depth,
        None,
    )
    .with_platform(Platform::palladium())
}

fn run(session: Session) -> RunReport {
    CoSimulation::new(session).expect("valid").run()
}

/// `session` through the dispatcher's engine arm.
fn run_engine(session: Session) -> RunReport {
    match run_session(RunnerKind::Engine, session) {
        RunnerReport::Engine(r) => r,
        RunnerReport::Socket(_) => unreachable!("the engine arm reports an engine run"),
    }
}

#[test]
fn new_rejects_bad_parameters() {
    let w = small_workload();
    let xs = |max_cycles| {
        Session::new(
            DutConfig::xiangshan_default(),
            DiffConfig::BNSD,
            &w,
            Vec::new(),
            max_cycles,
            8,
            None,
        )
    };
    assert_eq!(
        CoSimulation::new(xs(0)).unwrap_err(),
        BuildError::ZeroCycles
    );
    assert_eq!(
        CoSimulation::new(xs(1_000_000).with_packet_bytes(16)).unwrap_err(),
        BuildError::PacketTooSmall(16)
    );
    assert_eq!(
        CoSimulation::new(xs(1_000_000).with_fusion_window(0)).unwrap_err(),
        BuildError::ZeroWindow
    );
}

#[test]
fn run_session_times_the_engine_on_the_sessions_platform() {
    let s = session(DiffConfig::BNSD, Vec::new(), 8);
    let gates = s.dut_cfg().gates;
    let fpga = run_engine(s.clone().with_platform(Platform::fpga()));
    assert_eq!(fpga.outcome, RunOutcome::GoodTrap);
    assert_eq!(fpga.dut_only_hz, Platform::fpga().dut_only_hz(gates));
    let palladium = run_engine(s);
    assert_eq!(
        palladium.dut_only_hz,
        Platform::palladium().dut_only_hz(gates)
    );
    assert_ne!(fpga.dut_only_hz, palladium.dut_only_hz);
}

#[test]
fn run_session_honours_the_sessions_replay_switch() {
    let bugs = vec![BugSpec::new(BugKind::StoreValueCorruption, 3_000)];
    let s = session(DiffConfig::BNSD, bugs, 8);
    // Without a retention ring nothing is replayed: the report's
    // instruction-level mismatch is the fused stream's own.
    let without = run_engine(s.clone().with_replay(false));
    assert_eq!(without.outcome, RunOutcome::Mismatch);
    let f = without.failure.expect("failure report");
    assert_eq!(f.replayed_events, 0, "no replay without Replay");
    assert_eq!(f.precise.as_ref(), Some(&f.coarse));
    let with = run_engine(s);
    let f = with.failure.expect("failure report");
    assert!(f.replayed_events > 0, "replay ran");
    assert!(f.precise.is_some());
}

#[test]
fn report_accounting_is_self_consistent() {
    let r = run(session(DiffConfig::BNSD, Vec::new(), 8));
    assert_eq!(r.outcome, RunOutcome::GoodTrap);
    // Virtual time can never undercut the DUT-only time.
    let dut_time = r.cycles as f64 / r.dut_only_hz;
    assert!(
        r.sim_time_s >= dut_time * 0.999,
        "{} < {dut_time}",
        r.sim_time_s
    );
    // Speed is cycles / time.
    assert!((r.speed_hz - r.cycles as f64 / r.sim_time_s).abs() / r.speed_hz < 1e-9);
    // The checker stepped every committed instruction.
    assert_eq!(r.check.instructions, r.instructions);
    // Overhead phases sum to something smaller than total time in
    // non-blocking mode (phases overlap).
    assert!(r.overhead.total() > 0.0);
    assert!(r.comm_overhead_fraction() >= 0.0 && r.comm_overhead_fraction() < 1.0);
}

#[test]
fn blocking_overhead_is_additive() {
    // In the blocking baseline, total time == DUT time + all overhead.
    let r = run(session(DiffConfig::Z, Vec::new(), 8));
    let dut_time = r.cycles as f64 / r.dut_only_hz;
    let expected = dut_time + r.overhead.total();
    assert!(
        (r.sim_time_s - expected).abs() / expected < 1e-6,
        "blocking time {} != dut {} + overhead {}",
        r.sim_time_s,
        dut_time,
        r.overhead.total()
    );
}

#[test]
fn squash_reduces_bytes_and_invokes() {
    let plain = run(session(DiffConfig::BN, Vec::new(), 8));
    let squashed = run(session(DiffConfig::BNSD, Vec::new(), 8));
    assert!(
        squashed.bytes * 4 < plain.bytes,
        "{} vs {}",
        squashed.bytes,
        plain.bytes
    );
    assert!(squashed.invokes <= plain.invokes);
    let s = squashed.squash.expect("squash stats present");
    assert!(s.fusion_ratio() > 8.0);
    assert!(plain.squash.is_none());
}

#[test]
fn replay_can_be_disabled() {
    let bugs = vec![BugSpec::new(BugKind::RegWriteCorruption, 2_000)];
    let with = run(session(DiffConfig::BNSD, bugs.clone(), 8).with_replay(true));
    assert_eq!(with.outcome, RunOutcome::Mismatch);
    let f = with.failure.expect("failure report");
    assert!(f.replayed_events > 0, "replay ran");
    assert!(f.precise.is_some());

    let without = run(session(DiffConfig::BNSD, bugs, 8).with_replay(false));
    assert_eq!(without.outcome, RunOutcome::Mismatch);
    let f = without.failure.expect("failure report");
    assert_eq!(f.replayed_events, 0, "no replay without support");
}

#[test]
fn queue_depth_bounds_the_pipeline() {
    // A deeper in-flight queue can only help (or not hurt) non-blocking
    // throughput.
    let shallow = run(session(DiffConfig::BN, Vec::new(), 1));
    let deep = run(session(DiffConfig::BN, Vec::new(), 64));
    assert!(
        deep.speed_hz >= shallow.speed_hz * 0.999,
        "deep {} < shallow {}",
        deep.speed_hz,
        shallow.speed_hz
    );
}

#[test]
fn coarse_detection_seq_is_no_earlier_than_precise() {
    // Fusion delays detection; Replay walks it back.
    let bugs = vec![BugSpec::new(BugKind::StoreValueCorruption, 3_000)];
    let r = run(session(DiffConfig::BNSD, bugs, 8));
    let f = r.failure.expect("mismatch");
    let precise = f.precise.expect("localized");
    assert!(f.coarse.seq >= precise.seq);
}

#[test]
fn long_clean_runs_release_the_replay_ring_instead_of_wrapping_it() {
    // The engine's ring ceiling, in records. Every commit is captured as
    // at least one record, so this run retains several ceilings' worth.
    const CEILING: u64 = 1 << 16;
    let w = Workload::microbench().seed(7).iterations(1_000_000).build();
    let session = Session::new(
        DutConfig::xiangshan_default(),
        DiffConfig::BNSD,
        &w,
        Vec::new(),
        300_000,
        8,
        None,
    );
    let mut sim = CoSimulation::new(session).expect("valid");
    let r = sim.run();
    assert_eq!(r.outcome, RunOutcome::MaxCycles);
    assert!(r.instructions > 4 * CEILING, "{} commits", r.instructions);
    // Released chunks are not overflow: nothing a localization could
    // ask for was evicted, and the working set is a few packets' worth.
    assert_eq!(r.replay_dropped, 0);
    let high_water = r.counters().get("replay.high_water");
    assert_eq!(high_water, r.replay_high_water);
    assert!(
        high_water > 0 && high_water < CEILING / 8,
        "replay.high_water {high_water}"
    );
}
