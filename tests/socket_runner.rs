//! End-to-end acceptance for the socket runner's one-shot path: the
//! producer and a consumer on the two ends of a Unix socket pair,
//! speaking the framed wire protocol.
//!
//! Coverage: the merged span trace links both sides, every runner times
//! the same phases, and concurrent one-shot runs keep their own verdicts.
//! That a socket run's verdict, first mismatch and flight snapshot equal
//! the engine's is the conformance matrix's (`tests/conformance.rs`).

use difftest_h::core::{
    run_runner, run_socket_session, DiffConfig, RunOutcome, RunnerKind, RunnerReport, Session,
    SocketReport,
};
use difftest_h::dut::{BugKind, BugSpec, DutConfig};
use difftest_h::stats::{parse_json, validate_trace, Json, Tracer};
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

/// A traced socket run produces ONE merged Chrome/Perfetto trace: the
/// consumer takes its span sink from the producer's `Session`, so both
/// sides read the tracer's one clock, and the export interleaves both
/// sides' tracks. The tracer is injected rather than
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
        // consumer's counters and histograms reach the report whole.
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
                    run_socket_session(session(DiffConfig::BNSD, w, bugs.clone()))
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
