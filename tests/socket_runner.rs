//! End-to-end acceptance for the socket runner's one-shot path: the
//! producer and a consumer on the two ends of a Unix socket pair,
//! speaking the framed wire protocol.
//!
//! Coverage: clean and buggy runs are verdict-identical to the engine,
//! the producer-side fault grid stays typed (never a panic, never a
//! phantom mismatch), a consumer killed mid-run surfaces as
//! [`RunOutcome::LinkError`] and stops the producer, the merged span
//! trace links both sides, and concurrent one-shot runs keep their own
//! verdicts.

use difftest_h::core::{
    run_runner, run_socket_session, DiffConfig, LinkErrorKind, RunOutcome, RunnerKind,
    RunnerReport, Session, SocketReport, SocketTuning,
};
use difftest_h::dut::{BugKind, BugSpec, DutConfig};
use difftest_h::stats::{parse_json, validate_trace, FlightKind, Json, Tracer};
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

fn session(config: DiffConfig, w: &Workload, bugs: Vec<BugSpec>) -> Session {
    Session::new(
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
#[test]
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
/// first mismatch on both ends of the socket (single core, so arrival
/// order is identical).
#[test]
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
/// retention ring) — on the report-only BN pipeline its typed outcome
/// must equal the engine's on every schedule, and a fault must never
/// surface as a phantom mismatch or a panic.
#[test]
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

/// Consumer death mid-run is a typed outcome, not a panic: the producer
/// sees EPIPE on the frame stream (or a short result blob), stops, and
/// reports [`LinkErrorKind::Gap`] attributed to the produced count.
#[test]
fn killed_consumer_is_a_typed_link_error() {
    let w = Workload::linux_boot().seed(7).iterations(300).build();
    let clean = run_socket_session(
        session(DiffConfig::BNSD, &w, Vec::new()),
        None,
        SocketTuning::default(),
    );
    let r = run_socket_session(
        session(DiffConfig::BNSD, &w, Vec::new()),
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
    assert!(r.mismatch.is_none(), "no phantom mismatch from a dead pipe");
    assert!(r.cycles > 0, "the DUT side still ran");
    assert!(
        r.cycles < clean.cycles,
        "the producer stops on EPIPE: {} cycles killed vs {} clean",
        r.cycles,
        clean.cycles
    );
    let snap = r
        .flight
        .as_ref()
        .expect("link error without flight snapshot");
    assert!(
        snap.records.iter().any(|x| x.kind == FlightKind::LinkError),
        "snapshot missing the link_error record"
    );
}

/// A traced socket run produces ONE merged Chrome/Perfetto trace: the
/// handshake ships the producer's clock epoch to the consumer, the
/// result blob ships the consumer's span buffers back, and the export
/// interleaves both sides' tracks. The tracer is injected rather than
/// set through `DIFFTEST_TRACE`, which parallel test threads would race
/// on; `make trace` covers the environment-driven path.
#[test]
fn trace_env_merges_both_processes() {
    let path =
        std::env::temp_dir().join(format!("difftest-socket-trace-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let w = Workload::microbench().seed(11).iterations(40).build();
    let r = run_socket_session(
        session(DiffConfig::BNSD, &w, Vec::new()).with_tracer(Some(Tracer::to_path(&path))),
        None,
        SocketTuning::default(),
    );
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
        "no matched pack→unpack flows across the socket"
    );

    // Both sides contributed: pack spans and flow starts on the
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
        "every packed seq is unpacked on the other end"
    );
    let _ = std::fs::remove_file(&path);
}

/// One producer behind every runner: all four reports time the same
/// phases, the producer's tick/pack/transport among them, and the
/// monitor phase exactly where a monitor hook ran (the engine's
/// retention ring).
#[test]
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
        // One observation bundle per side, merged the same way: the
        // consumer's counters and histograms cross the socket whole.
        let (m, e) = (&r.metrics, &engine.metrics);
        for key in ["obs.items", "obs.transfers", "obs.bytes"] {
            assert_eq!(m.counters.get(key), e.counters.get(key), "{kind}: {key}");
        }
        let decoded = |m: &difftest_h::stats::Metrics| {
            m.counters.get("decode.hits") + m.counters.get("decode.misses")
        };
        assert!(decoded(e) > 0, "engine: decode cache never probed");
        assert_eq!(
            decoded(m),
            decoded(e),
            "{kind}: decode.hits + decode.misses"
        );
        let packets =
            |m: &difftest_h::stats::Metrics| m.histogram("packet.bytes").map(|h| h.count());
        assert_eq!(packets(m), packets(e), "{kind}: packet.bytes count");
    }
}

/// The one-shot path holds no process-global state: four runs started
/// together on parallel threads, three clean and one with a DUT bug,
/// each reach their own engine verdict and mismatch.
#[test]
fn concurrent_one_shot_runs_keep_their_own_verdicts() {
    let clean = |seed| {
        (
            Workload::microbench().seed(seed).iterations(40).build(),
            Vec::new(),
        )
    };
    let boot = Workload::linux_boot().seed(7).iterations(300).build();
    let cases: Vec<(Workload, Vec<BugSpec>)> = vec![
        clean(11),
        clean(12),
        clean(13),
        (boot, vec![BugSpec::new(BugKind::RegWriteCorruption, 2_000)]),
    ];
    let gate = std::sync::Barrier::new(cases.len());
    let reports: Vec<SocketReport> = std::thread::scope(|s| {
        let runs: Vec<_> = cases
            .iter()
            .map(|(w, bugs)| {
                let gate = &gate;
                s.spawn(move || {
                    gate.wait();
                    run_socket_session(
                        session(DiffConfig::BNSD, w, bugs.clone()),
                        None,
                        SocketTuning::default(),
                    )
                })
            })
            .collect();
        runs.into_iter()
            .map(|h| h.join().expect("socket run panicked"))
            .collect()
    });
    for (i, ((w, bugs), r)) in cases.iter().zip(&reports).enumerate() {
        let e = run(RunnerKind::Engine, DiffConfig::BNSD, w, bugs.clone());
        let expected = if bugs.is_empty() {
            RunOutcome::GoodTrap
        } else {
            RunOutcome::Mismatch
        };
        assert_eq!(r.outcome, expected, "run {i}");
        assert_eq!(r.outcome, e.outcome, "run {i}");
        assert_eq!(r.mismatch, e.mismatch, "run {i}: mismatch identity");
    }
}
