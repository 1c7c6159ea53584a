//! Span-tracing integration tests (DESIGN.md §15): a FakeClock-driven
//! engine run exports a deterministic, well-formed Chrome trace whose
//! pack → unpack → check spans are linked by `pkt` flow arrows per
//! sequence number, and enabling tracing never changes any runner's
//! verdict, item count or mismatch identity.
//!
//! Tracers are injected through `Session::with_tracer` rather than
//! `DIFFTEST_TRACE` — libtest runs these cases on parallel threads, so
//! process-global env mutation would race. The socket runner's merged
//! trace is tested in the umbrella crate's `tests/socket_runner.rs`,
//! and the env-var path by `make trace`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use difftest_core::{
    run_socket_session, CoSimulation, DiffConfig, RunOutcome, RunReport, Session, SocketReport,
};
use difftest_dut::{BugKind, BugSpec, DutConfig};
use difftest_stats::{parse_json, validate_trace, FakeClock, Json, Tracer};
use difftest_workload::Workload;
use proptest::prelude::*;

static NEXT_TRACE: AtomicU64 = AtomicU64::new(0);

/// A collision-free trace path: cases run on parallel libtest threads,
/// possibly next to a concurrent `cargo test` of the same crate.
fn trace_path(tag: &str) -> PathBuf {
    let n = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "difftest-span-{}-{tag}-{n}.json",
        std::process::id()
    ))
}

/// A deterministic tracer: every timestamp reads 0 from the FakeClock,
/// so the exported bytes are a pure function of the event stream.
fn fake_tracer(path: &Path) -> Tracer {
    Tracer::with_clock(path.to_path_buf(), Arc::new(FakeClock::default()), 0)
}

fn session(dut: DutConfig, w: &Workload, bugs: Vec<BugSpec>) -> Session {
    Session::new(dut, DiffConfig::BNSD, w, bugs, 500_000, 8, None)
}

fn socket(session: Session) -> SocketReport {
    run_socket_session(session)
}

fn engine_report(path: &Path) -> RunReport {
    let w = Workload::microbench().seed(11).iterations(40).build();
    let session = session(DutConfig::nutshell(), &w, Vec::new());
    let mut sim = CoSimulation::new(session.with_tracer(Some(fake_tracer(path)))).expect("build");
    sim.run()
}

#[test]
fn engine_trace_is_deterministic_and_causally_linked() {
    let p1 = trace_path("engine-a");
    let p2 = trace_path("engine-b");
    let r1 = engine_report(&p1);
    let r2 = engine_report(&p2);
    assert_eq!(r1.common.outcome, RunOutcome::GoodTrap);
    assert_eq!(r2.common.outcome, RunOutcome::GoodTrap);
    assert!(r1.common.metrics.counters.get("trace.spans_recorded") > 0);
    assert_eq!(r1.common.metrics.counters.get("trace.spans_dropped"), 0);

    let text = std::fs::read_to_string(&p1).expect("trace written");
    // Same workload, same FakeClock: two runs must export identical
    // bytes — event order, ids and (all-zero) timestamps included.
    assert_eq!(text, std::fs::read_to_string(&p2).expect("trace written"));

    let summary = validate_trace(&text).expect("well-formed trace");
    assert_eq!(summary.tracks, 2, "one producer + one consumer track");
    assert!(summary.spans > 0, "duration events present");
    assert!(summary.flows > 0, "matched flow pairs present");

    // Exact span vocabulary, track placement and per-seq causality.
    let root = parse_json(&text).expect("parse");
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let mut pack = BTreeSet::new();
    let mut unpack = BTreeSet::new();
    let mut check = BTreeSet::new();
    let (mut flow_out, mut flow_in) = (0usize, 0usize);
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        let name = ev.get("name").and_then(Json::as_str).expect("name");
        let pid = ev.get("pid").and_then(Json::as_num).expect("pid") as u32;
        match ph {
            "X" => {
                let id = ev
                    .get("args")
                    .and_then(|a| a.get("id"))
                    .and_then(Json::as_num)
                    .expect("span id") as u64;
                match name {
                    "pack" => {
                        assert_eq!(pid, 1, "pack lives on the producer");
                        pack.insert(id);
                    }
                    "unpack" => {
                        assert_eq!(pid, 2, "unpack lives on the consumer");
                        unpack.insert(id);
                    }
                    "check" => {
                        assert_eq!(pid, 2, "check lives on the consumer");
                        check.insert(id);
                    }
                    other => panic!("unexpected span name {other:?}"),
                }
            }
            "s" => {
                assert_eq!((name, pid), ("pkt", 1));
                flow_out += 1;
            }
            "f" => {
                assert_eq!((name, pid), ("pkt", 2));
                flow_in += 1;
            }
            _ => {}
        }
    }
    assert!(!pack.is_empty());
    assert_eq!(pack, unpack, "every packed seq is unpacked");
    assert_eq!(unpack, check, "every unpacked seq is checked");
    // Clean link: every packet's flow arrow is matched end-to-end.
    assert_eq!(flow_out, pack.len());
    assert_eq!(flow_in, pack.len());
    assert_eq!(summary.flows, pack.len());

    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tracing is observation only: a traced run and an untraced run of
    /// the same session agree on verdict, items and instructions on
    /// both runners.
    #[test]
    fn tracing_never_changes_clean_verdicts(seed in 0u64..1_000) {
        let w = Workload::microbench().seed(seed).iterations(40).build();

        let base = engine_untraced(&w);
        let p = trace_path("prop-engine");
        let traced = {
            let session = session(DutConfig::nutshell(), &w, Vec::new());
            let mut sim =
                CoSimulation::new(session.with_tracer(Some(fake_tracer(&p)))).expect("build");
            sim.run()
        };
        prop_assert_eq!(traced.common.outcome, base.common.outcome);
        prop_assert_eq!(traced.common.items, base.common.items);
        prop_assert_eq!(traced.common.instructions, base.common.instructions);
        let _ = std::fs::remove_file(&p);

        let base = socket(session(DutConfig::nutshell(), &w, Vec::new()));
        let p = trace_path("prop-socket");
        let traced = socket(
            session(DutConfig::nutshell(), &w, Vec::new()).with_tracer(Some(fake_tracer(&p))),
        );
        prop_assert_eq!(traced.common.outcome, base.common.outcome);
        prop_assert_eq!(traced.common.items, base.common.items);
        prop_assert_eq!(traced.common.instructions, base.common.instructions);
        let _ = std::fs::remove_file(&p);
    }

    /// Same property on failing runs: the first detected divergence is
    /// byte-for-byte identical with tracing enabled.
    #[test]
    fn tracing_never_changes_mismatch_identity(
        seed in 0u64..200,
        bug_cycle in 1_000u64..6_000,
    ) {
        let w = Workload::linux_boot().seed(seed).iterations(300).build();
        let bugs = vec![BugSpec::new(BugKind::RegWriteCorruption, bug_cycle)];
        let base = socket(session(DutConfig::nutshell(), &w, bugs.clone()));
        let p = trace_path("prop-bug");
        let traced = socket(
            session(DutConfig::nutshell(), &w, bugs).with_tracer(Some(fake_tracer(&p))),
        );
        prop_assert_eq!(traced.common.outcome, base.common.outcome);
        prop_assert_eq!(traced.common.mismatch, base.common.mismatch);
        prop_assert_eq!(traced.common.items, base.common.items);
        let _ = std::fs::remove_file(&p);
    }
}

fn engine_untraced(w: &Workload) -> RunReport {
    let mut sim = CoSimulation::new(session(DutConfig::nutshell(), w, Vec::new())).expect("build");
    sim.run()
}
