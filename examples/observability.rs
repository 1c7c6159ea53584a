//! Observability smoke: run every runner with `DIFFTEST_OBS` set and
//! validate the exported JSONL — all seven phases present, packet
//! histograms populated, and a flight-recorder snapshot attached to the
//! fault-injected failure. The engine run and the lossy-link socket run
//! additionally export Chrome/Perfetto span traces (DESIGN.md §15) that
//! are validated in-process and counted via the `trace.*` counters.
//!
//! ```text
//! DIFFTEST_OBS=metrics.jsonl DIFFTEST_TRACE=trace.json \
//!     cargo run --release --example observability
//! ```
//!
//! Without the env vars the example exports to temporary files so
//! `make obs` is self-contained. `DIFFTEST_TRACE` is treated as a stem:
//! the two traced runs write `<stem>.engine.json` and
//! `<stem>.socket.json`.

use std::collections::BTreeSet;
use std::path::PathBuf;

use difftest_h::core::{
    run_socket_session, CoSimulation, DiffConfig, FaultPlan, RunOutcome, Session,
};
use difftest_h::dut::DutConfig;
use difftest_h::platform::Platform;
use difftest_h::stats::{validate_trace, Metrics, Phase, TraceSummary, Tracer, OBS_ENV, TRACE_ENV};
use difftest_h::workload::Workload;

/// Reads back a runner's exported trace, checks its structural
/// invariants and the `trace.*` counters it accounted.
fn check_trace(runner: &str, path: &PathBuf, metrics: &Metrics) -> TraceSummary {
    let recorded = metrics.counters.get("trace.spans_recorded");
    assert!(recorded > 0, "{runner}: trace.spans_recorded missing");
    assert_eq!(
        metrics.counters.get("trace.spans_dropped"),
        0,
        "{runner}: span buffers overflowed"
    );
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{runner}: trace not written to {}: {e}", path.display()));
    let summary = validate_trace(&text).unwrap_or_else(|e| panic!("{runner}: invalid trace: {e}"));
    assert!(summary.spans > 0, "{runner}: no duration events");
    assert!(summary.flows > 0, "{runner}: no pack→unpack flow arrows");
    println!(
        "          trace {}: {} spans, {} flows, {} tracks, {} recorded",
        path.display(),
        summary.spans,
        summary.flows,
        summary.tracks,
        recorded
    );
    summary
}

fn main() {
    let path = match std::env::var_os(OBS_ENV) {
        Some(p) if !p.is_empty() => std::path::PathBuf::from(p),
        _ => {
            let p = std::env::temp_dir().join("difftest-obs-smoke.jsonl");
            std::env::set_var(OBS_ENV, &p);
            p
        }
    };
    // Start from a clean export: the runners append.
    let _ = std::fs::remove_file(&path);
    println!("exporting observability JSONL to {}\n", path.display());

    // Per-runner trace paths. The stem comes from `DIFFTEST_TRACE` when
    // set; the var is then cleared and tracers are injected through the
    // session seam instead, so the runners don't truncate one shared
    // file (and the untraced socket leg stays dormant).
    let trace_stem = match std::env::var_os(TRACE_ENV) {
        Some(p) if !p.is_empty() => {
            std::env::remove_var(TRACE_ENV);
            PathBuf::from(p)
        }
        _ => std::env::temp_dir().join("difftest-obs-trace.json"),
    };
    let trace_for = |runner: &str| trace_stem.with_extension(format!("{runner}.json"));

    let w = Workload::microbench().seed(11).iterations(60).build();

    // 1. Virtual-time engine, BNSD: clean run, no snapshot expected.
    let engine_trace = trace_for("engine");
    let session = Session::new(
        DutConfig::nutshell(),
        DiffConfig::BNSD,
        &w,
        Vec::new(),
        400_000,
        8,
        None,
    )
    .with_platform(Platform::palladium())
    .with_tracer(Some(Tracer::to_path(&engine_trace)));
    let mut sim = CoSimulation::new(session).expect("valid setup");
    let engine = sim.run();
    assert_eq!(engine.outcome, RunOutcome::GoodTrap);
    assert!(
        engine.flight.is_none(),
        "clean run must not attach a snapshot"
    );
    println!(
        "engine:   {:?}, packet.bytes p50 {}",
        engine.outcome,
        engine
            .metrics
            .histogram("packet.bytes")
            .map_or(0, |h| h.percentile(50.0))
    );
    let engine_summary = check_trace("engine", &engine_trace, &engine.metrics);
    assert_eq!(engine_summary.tracks, 2, "engine: producer + consumer");

    // 2. Socket runner: clean run, wall-clock phase attribution.
    let t = run_socket_session(Session::new(
        DutConfig::nutshell(),
        DiffConfig::BNSD,
        &w,
        Vec::new(),
        400_000,
        8,
        None,
    ));
    assert_eq!(t.outcome, RunOutcome::GoodTrap);
    // No tracer injected and the env var is cleared: the socket leg
    // demonstrates the dormant path — zero spans accounted.
    assert_eq!(
        t.metrics.counters.get("trace.spans_recorded"),
        0,
        "untraced run must not account spans"
    );
    println!(
        "socket:   {:?}, check phase {} ns (untraced: 0 spans)",
        t.outcome,
        t.metrics.phases.get(Phase::Check)
    );

    // 3. Socket runner behind a hostile link: a typed failure with a
    //    flight snapshot (seed/rate chosen so the grid reliably faults).
    //    The trace still exports — the producer track plus whatever the
    //    consumer checked before the link gave out.
    let lossy_trace = trace_for("socket");
    let s = run_socket_session(
        Session::new(
            DutConfig::nutshell(),
            DiffConfig::BNSD,
            &w,
            Vec::new(),
            400_000,
            8,
            Some(FaultPlan::uniform(4242, 40)),
        )
        .with_tracer(Some(Tracer::to_path(&lossy_trace))),
    );
    println!("socket (lossy link): {:?}", s.outcome);
    check_trace("socket", &lossy_trace, &s.metrics);
    if let RunOutcome::LinkError { .. } = s.outcome {
        let snap = s
            .flight
            .as_ref()
            .expect("link error must attach a snapshot");
        assert!(!snap.records.is_empty(), "snapshot must carry records");
    }

    // Validate the export: parse every line, collect phases per runner.
    let text = std::fs::read_to_string(&path).expect("export file written");
    let mut phases: BTreeSet<String> = BTreeSet::new();
    let mut runs = 0usize;
    let mut histograms = 0usize;
    let mut flight_snapshots = 0usize;
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "malformed JSONL line: {line}"
        );
        if line.contains("\"type\":\"run\"") {
            runs += 1;
        } else if line.contains("\"type\":\"histogram\"") {
            histograms += 1;
        } else if line.contains("\"type\":\"flight_snapshot\"") {
            flight_snapshots += 1;
        } else if let Some(rest) = line.split("\"type\":\"phase\",\"name\":\"").nth(1) {
            if let Some(name) = rest.split('"').next() {
                phases.insert(name.to_owned());
            }
        }
    }
    assert_eq!(runs, 3, "all three runs must have exported");
    for phase in Phase::ALL {
        assert!(
            phases.contains(phase.name()),
            "phase {phase} missing from export (got {phases:?})"
        );
    }
    assert!(histograms >= 2, "packet histograms missing from export");
    if matches!(s.outcome, RunOutcome::LinkError { .. }) {
        assert!(
            flight_snapshots >= 1,
            "link error exported without a flight snapshot"
        );
    }
    println!(
        "\nexport OK: {} lines, {} runs, {} histogram summaries, all {} phases, \
         {} flight snapshot(s)",
        text.lines().count(),
        runs,
        histograms,
        Phase::COUNT,
        flight_snapshots
    );
}
