//! End-to-end acceptance for the process-separated socket runner.
//!
//! This test is harness-free (`harness = false` in Cargo.toml) because
//! the runner re-executes the current binary as its consumer process:
//! under the default libtest harness that re-exec would re-run the whole
//! suite recursively. Instead `main` hands consumer processes over to
//! [`difftest_h::core::child_entry`] first, then runs the checks below
//! sequentially, libtest-style.
//!
//! Coverage: clean and buggy runs are verdict-identical to the engine,
//! the producer-side fault grid stays typed (never a panic, never a
//! phantom mismatch), a consumer process killed mid-run surfaces as
//! [`RunOutcome::LinkError`] with the kill's exit code, and a consumer
//! process can never spawn a second generation of consumers.

use difftest_h::core::{
    run_runner, run_socket_session, DiffConfig, LinkErrorKind, RunOutcome, RunnerKind,
    RunnerReport, Session, SocketTuning, KILLED_EXIT,
};
use difftest_h::dut::{BugKind, BugSpec, DutConfig};
use difftest_h::stats::{parse_json, validate_trace, FlightKind, Json, TRACE_ENV};
use difftest_h::workload::Workload;

const MAX_CYCLES: u64 = 400_000;
const QUEUE_DEPTH: usize = 8;

fn run(kind: RunnerKind, config: DiffConfig, w: &Workload, bugs: Vec<BugSpec>) -> RunnerReport {
    run_runner(
        kind,
        DutConfig::nutshell(),
        config,
        w,
        bugs,
        MAX_CYCLES,
        QUEUE_DEPTH,
        None,
    )
}

/// Clean runs: the socket runner must reach the same verdict, check the
/// same item volume and commit the same instruction count as the
/// virtual-time engine — the transport is the only thing that changed.
fn clean_matches_engine() {
    let w = Workload::microbench().seed(11).iterations(40).build();
    for config in [DiffConfig::BN, DiffConfig::BNSD] {
        let e = run(RunnerKind::Engine, config, &w, Vec::new());
        let s = run(RunnerKind::Socket, config, &w, Vec::new());
        assert_eq!(s.outcome, RunOutcome::GoodTrap, "{config:?}");
        assert_eq!(s.outcome, e.outcome, "{config:?}");
        assert_eq!(s.items, e.items, "{config:?}: same stream, same items");
        assert_eq!(s.instructions, e.instructions, "{config:?}");
        assert!(
            s.flight.is_none(),
            "{config:?}: clean run carries a snapshot"
        );
    }
}

/// Buggy runs: an injected DUT bug must produce byte-for-byte the same
/// first mismatch on both sides of the process boundary (single core,
/// so arrival order is identical).
fn buggy_matches_engine() {
    let w = Workload::linux_boot().seed(7).iterations(300).build();
    let bugs = vec![BugSpec::new(BugKind::RegWriteCorruption, 2_000)];
    for config in [DiffConfig::BN, DiffConfig::BNSD] {
        let e = run(RunnerKind::Engine, config, &w, bugs.clone());
        let s = run(RunnerKind::Socket, config, &w, bugs.clone());
        assert_eq!(s.outcome, RunOutcome::Mismatch, "{config:?}");
        assert_eq!(s.outcome, e.outcome, "{config:?}");
        assert_eq!(s.mismatch, e.mismatch, "{config:?}: mismatch identity");
        let m = s.mismatch.as_ref().expect("mismatch report");
        let snap = s.flight.as_ref().expect("mismatch without flight snapshot");
        assert!(
            snap.records
                .iter()
                .any(|r| r.kind == FlightKind::Mismatch && r.value == m.seq),
            "{config:?}: snapshot missing the mismatch record"
        );
    }
}

/// Producer-side fault grid: the socket runner is report-only (no
/// retention ring), exactly like the threaded runner — on
/// the report-only BN pipeline its typed outcome must equal the
/// engine's on every schedule, and a fault must never surface as a
/// phantom mismatch or a panic.
fn fault_grid_matches_engine() {
    use difftest_h::core::FaultPlan;
    let w = Workload::microbench().seed(3).iterations(60).build();
    for seed in [11u64, 29, 4242] {
        for rate in [5u16, 20, 40] {
            let plan = FaultPlan::uniform(seed, rate);
            let ctx = format!("seed={seed} rate={rate}‰");
            let run_faulty = |kind| {
                run_runner(
                    kind,
                    DutConfig::nutshell(),
                    DiffConfig::BN,
                    &w,
                    Vec::new(),
                    MAX_CYCLES,
                    QUEUE_DEPTH,
                    Some(plan),
                )
            };
            let e = run_faulty(RunnerKind::Engine);
            let s = run_faulty(RunnerKind::Socket);
            assert!(
                matches!(
                    s.outcome,
                    RunOutcome::GoodTrap | RunOutcome::LinkError { .. }
                ),
                "{ctx}: fault must be recovered or typed, got {:?}",
                s.outcome
            );
            assert!(s.mismatch.is_none(), "{ctx}: phantom mismatch");
            assert_eq!(
                s.outcome, e.outcome,
                "{ctx}: same plan, same packet stream, same typed verdict"
            );
            if let RunOutcome::LinkError { seq, .. } = s.outcome {
                assert!(s.link.total_detected() > 0, "{ctx}: untyped link error");
                let snap = s
                    .flight
                    .as_ref()
                    .unwrap_or_else(|| panic!("{ctx}: link error without a flight snapshot"));
                assert!(
                    snap.find(FlightKind::LinkError, seq).is_some(),
                    "{ctx}: snapshot missing the link_error record"
                );
            }
        }
    }
}

/// Consumer-process death mid-run is a typed outcome, not a panic: the
/// producer sees EPIPE on the frame stream (or a short result blob),
/// reports [`LinkErrorKind::Gap`] attributed to the produced count, and
/// still reaps the child's exit code.
fn killed_consumer_is_a_typed_link_error() {
    let w = Workload::linux_boot().seed(7).iterations(300).build();
    let r = run_socket_session(
        Session::new(
            DutConfig::nutshell(),
            DiffConfig::BNSD,
            &w,
            Vec::new(),
            MAX_CYCLES,
            QUEUE_DEPTH,
            None,
        ),
        None,
        SocketTuning {
            kill_consumer_after: Some(2),
        },
    );
    match r.outcome {
        RunOutcome::LinkError { kind, .. } => {
            assert_eq!(kind, LinkErrorKind::Gap, "death mid-run is a gap")
        }
        other => panic!("consumer death must be typed, got {other:?}"),
    }
    assert_eq!(
        r.consumer_exit,
        Some(KILLED_EXIT),
        "producer reaps the killed consumer's exit code"
    );
    assert!(r.mismatch.is_none(), "no phantom mismatch from a dead pipe");
    assert!(r.cycles > 0, "the DUT side still ran");
    let snap = r
        .flight
        .as_ref()
        .expect("link error without flight snapshot");
    assert!(
        snap.records.iter().any(|x| x.kind == FlightKind::LinkError),
        "snapshot missing the link_error record"
    );
}

/// A process already marked as a socket consumer must refuse to start a
/// producer (which would spawn a consumer, which could spawn...): the
/// guard reports a typed setup failure instead.
fn consumer_processes_cannot_spawn_consumers() {
    let w = Workload::microbench().seed(1).iterations(5).build();
    std::env::set_var("DIFFTEST_SOCKET_ROLE", "stale");
    let r = run_socket_session(
        Session::new(
            DutConfig::nutshell(),
            DiffConfig::BN,
            &w,
            Vec::new(),
            10_000,
            QUEUE_DEPTH,
            None,
        ),
        None,
        SocketTuning::default(),
    );
    std::env::remove_var("DIFFTEST_SOCKET_ROLE");
    assert!(
        matches!(
            r.outcome,
            RunOutcome::LinkError {
                kind: LinkErrorKind::Malformed,
                ..
            }
        ),
        "fork-bomb guard must trip, got {:?}",
        r.outcome
    );
    assert_eq!(r.cycles, 0, "guard trips before the DUT runs");
}

/// `DIFFTEST_TRACE` on the socket runner produces ONE merged
/// Chrome/Perfetto trace: the handshake ships the producer's clock
/// epoch to the child, the result blob ships the child's span buffers
/// back, and the export interleaves both processes' tracks. This test
/// is env-var-driven on purpose — it lives in this harness-free binary
/// (single-threaded `main`), where process-global `set_var` cannot race
/// another test thread.
fn trace_env_merges_both_processes() {
    let path =
        std::env::temp_dir().join(format!("difftest-socket-trace-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    std::env::set_var(TRACE_ENV, &path);
    let w = Workload::microbench().seed(11).iterations(40).build();
    let r = run_socket_session(
        Session::new(
            DutConfig::nutshell(),
            DiffConfig::BNSD,
            &w,
            Vec::new(),
            MAX_CYCLES,
            QUEUE_DEPTH,
            None,
        ),
        None,
        SocketTuning::default(),
    );
    std::env::remove_var(TRACE_ENV);
    assert_eq!(r.outcome, RunOutcome::GoodTrap);
    assert!(
        r.metrics.counters.get("trace.spans_recorded") > 0,
        "trace counters missing from the report"
    );

    let text = std::fs::read_to_string(&path).expect("merged trace written");
    let summary = validate_trace(&text).expect("well-formed trace");
    assert_eq!(summary.tracks, 2, "producer + consumer track");
    assert!(summary.spans > 0, "no duration events");
    assert!(
        summary.flows > 0,
        "no matched pack→unpack flows across the process boundary"
    );

    // Both processes contributed: pack spans and flow starts on the
    // producer pid, unpack/check spans and flow ends on the consumer
    // pid — causally linked per sequence number.
    let root = parse_json(&text).expect("parse");
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let mut pack_ids = std::collections::BTreeSet::new();
    let mut unpack_ids = std::collections::BTreeSet::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        let name = ev.get("name").and_then(Json::as_str).expect("name");
        let pid = ev.get("pid").and_then(Json::as_num).expect("pid") as u32;
        let id = || {
            ev.get("args")
                .and_then(|a| a.get("id"))
                .and_then(Json::as_num)
                .expect("span id") as u64
        };
        match (ph, name) {
            ("X", "pack") => {
                assert_eq!(pid, 1, "pack on the producer pid");
                pack_ids.insert(id());
            }
            ("X", "unpack") => {
                assert_eq!(pid, 2, "unpack on the consumer pid");
                unpack_ids.insert(id());
            }
            ("s", _) => assert_eq!((name, pid), ("pkt", 1)),
            ("f", _) => assert_eq!((name, pid), ("pkt", 2)),
            _ => {}
        }
    }
    assert!(!pack_ids.is_empty(), "producer contributed no pack spans");
    assert_eq!(
        pack_ids, unpack_ids,
        "every packed seq is unpacked in the other process"
    );
    let _ = std::fs::remove_file(&path);
}

/// One producer behind every runner: all four reports time the same
/// phases, the producer's tick/pack/transport among them, and the
/// monitor phase exactly where a monitor hook ran (the engine's
/// retention ring).
fn runners_share_one_phase_attribution() {
    use difftest_h::stats::Phase;
    let w = Workload::microbench().seed(11).iterations(40).build();
    let engine = run(RunnerKind::Engine, DiffConfig::BNSD, &w, Vec::new());
    let keys = |r: &RunnerReport| -> Vec<&'static str> {
        r.metrics.phases.iter().map(|(p, _)| p.name()).collect()
    };
    for kind in RunnerKind::ALL {
        let r = run(kind, DiffConfig::BNSD, &w, Vec::new());
        assert_eq!(r.outcome, RunOutcome::GoodTrap, "{kind}");
        assert_eq!(keys(&r), keys(&engine), "{kind}: phase key set");
        for phase in [Phase::Tick, Phase::Pack, Phase::Transport] {
            assert!(r.metrics.phases.get(phase) > 0, "{kind}: {phase} untimed");
        }
        assert_eq!(
            r.metrics.phases.get(Phase::Monitor) > 0,
            kind == RunnerKind::Engine,
            "{kind}: monitor phase"
        );
    }
}

fn main() {
    // MUST be first: a spawned consumer process diverges here and never
    // reaches the test list below.
    difftest_h::core::child_entry();

    let tests: &[(&str, fn())] = &[
        ("clean_matches_engine", clean_matches_engine),
        (
            "trace_env_merges_both_processes",
            trace_env_merges_both_processes,
        ),
        ("buggy_matches_engine", buggy_matches_engine),
        ("fault_grid_matches_engine", fault_grid_matches_engine),
        (
            "killed_consumer_is_a_typed_link_error",
            killed_consumer_is_a_typed_link_error,
        ),
        (
            "consumer_processes_cannot_spawn_consumers",
            consumer_processes_cannot_spawn_consumers,
        ),
        (
            "runners_share_one_phase_attribution",
            runners_share_one_phase_attribution,
        ),
    ];
    println!("\nrunning {} socket runner tests", tests.len());
    for (name, test) in tests {
        print!("test {name} ... ");
        test();
        println!("ok");
    }
    println!(
        "\ntest result: ok. {} passed; 0 failed (socket_runner)\n",
        tests.len()
    );
}
