//! Engine-level behavioral tests: builder validation, timing-mode
//! semantics, replay toggles and report consistency.

use difftest_core::{BuildError, CoSimulation, DiffConfig, RunOutcome, RunReport};
use difftest_dut::{BugKind, BugSpec, DutConfig};
use difftest_platform::Platform;
use difftest_workload::Workload;

fn small_workload() -> Workload {
    Workload::linux_boot().seed(9).iterations(120).build()
}

fn run(
    configure: impl FnOnce(difftest_core::CoSimulationBuilder) -> difftest_core::CoSimulationBuilder,
) -> RunReport {
    let b = CoSimulation::builder()
        .dut(DutConfig::nutshell())
        .platform(Platform::palladium())
        .max_cycles(400_000);
    let mut sim = configure(b).build(&small_workload()).expect("valid");
    sim.run()
}

#[test]
fn builder_rejects_bad_parameters() {
    let w = small_workload();
    assert_eq!(
        CoSimulation::builder().max_cycles(0).build(&w).unwrap_err(),
        BuildError::ZeroCycles
    );
    assert_eq!(
        CoSimulation::builder()
            .packet_bytes(16)
            .build(&w)
            .unwrap_err(),
        BuildError::PacketTooSmall(16)
    );
    assert_eq!(
        CoSimulation::builder()
            .fusion_window(0)
            .build(&w)
            .unwrap_err(),
        BuildError::ZeroWindow
    );
}

#[test]
fn report_accounting_is_self_consistent() {
    let r = run(|b| b.config(DiffConfig::BNSD));
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
    let r = run(|b| b.config(DiffConfig::Z));
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
    let plain = run(|b| b.config(DiffConfig::BN));
    let squashed = run(|b| b.config(DiffConfig::BNSD));
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
    let with = run(|b| b.config(DiffConfig::BNSD).bugs(bugs.clone()).replay(true));
    assert_eq!(with.outcome, RunOutcome::Mismatch);
    let f = with.failure.expect("failure report");
    assert!(f.replayed_events > 0, "replay ran");
    assert!(f.precise.is_some());

    let without = run(|b| b.config(DiffConfig::BNSD).bugs(bugs).replay(false));
    assert_eq!(without.outcome, RunOutcome::Mismatch);
    let f = without.failure.expect("failure report");
    assert_eq!(f.replayed_events, 0, "no replay without support");
}

#[test]
fn queue_depth_bounds_the_pipeline() {
    // A deeper in-flight queue can only help (or not hurt) non-blocking
    // throughput.
    let shallow = run(|b| b.config(DiffConfig::BN).queue_depth(1));
    let deep = run(|b| b.config(DiffConfig::BN).queue_depth(64));
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
    let r = run(|b| b.config(DiffConfig::BNSD).bugs(bugs));
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
    let mut sim = CoSimulation::builder()
        .dut(DutConfig::xiangshan_default())
        .config(DiffConfig::BNSD)
        .max_cycles(300_000)
        .build(&w)
        .expect("valid");
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
