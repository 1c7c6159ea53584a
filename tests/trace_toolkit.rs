//! The §5 tuning toolkit end-to-end: trace dump/reload, offline query
//! analysis, and DUT-decoupled trace-driven verification.

use difftest_h::core::{
    run_runner, AccelUnit, Checker, Consumer, ConsumerOutput, DiffConfig, NoCharge, RunOutcome,
    RunnerKind, Step, SwUnit, Verdict,
};
use difftest_h::dut::{BugKind, BugSpec, Dut, DutConfig};
use difftest_h::event::{EventKind, MonitoredEvent};
use difftest_h::ref_model::{Memory, RefModel};
use difftest_h::stats::{trace, TraceQuery};
use difftest_h::workload::Workload;

const MAX_CYCLES: u64 = 300_000;

fn workload(iterations: u32) -> Workload {
    Workload::linux_boot()
        .seed(21)
        .iterations(iterations)
        .build()
}

/// Records the monitored event stream of a DUT run with `bugs` armed,
/// plus whether (and how) the DUT halted.
fn record_with(w: &Workload, bugs: Vec<BugSpec>) -> (Memory, Vec<MonitoredEvent>, Option<bool>) {
    let mut image = Memory::new();
    image.load_words(Memory::RAM_BASE, w.words());
    let mut dut = Dut::new(DutConfig::xiangshan_default(), &image, bugs);
    let mut events = Vec::new();
    while dut.halted().is_none() && dut.cycles() < MAX_CYCLES {
        events.extend(dut.tick().events);
    }
    (image, events, dut.halted().map(|h| h.good))
}

fn record(iterations: u32) -> (Memory, Vec<MonitoredEvent>) {
    let (image, events, halt) = record_with(&workload(iterations), Vec::new());
    assert!(halt.expect("trace run halts"));
    (image, events)
}

/// Replays a recorded trace through the per-event pipeline — the
/// baseline stream, checked by the same consumer every runner drives —
/// with no DUT in the loop.
fn replay(image: &Memory, events: &[MonitoredEvent]) -> ConsumerOutput {
    let mut hw = AccelUnit::per_event();
    let checker = Checker::new(vec![RefModel::new(image.clone())], false);
    let mut consumer = Consumer::new(SwUnit::per_event(1), checker);
    let mut transfers = Vec::new();
    'trace: for cycle in events.chunk_by(|a, b| a.cycle == b.cycle) {
        hw.push_cycle(cycle, &mut transfers);
        for t in transfers.drain(..) {
            if consumer.ingest(&t, cycle[0].cycle, &mut NoCharge) == Step::Stop {
                break 'trace;
            }
        }
    }
    consumer.finish_stream(None, 0, &mut NoCharge);
    consumer.finish()
}

#[test]
fn dump_reload_preserves_the_stream() {
    let (_, events) = record(40);
    let mut file = Vec::new();
    trace::dump(&mut file, &events).expect("dump succeeds");
    let reloaded = trace::reload(&file[..]).expect("reload succeeds");
    assert_eq!(reloaded, events);
}

#[test]
fn trace_driven_checking_reproduces_the_live_verdict() {
    // Iterative debugging support: drive the verification logic from the
    // recorded trace with no DUT in the loop.
    let (image, events) = record(40);
    let out = replay(&image, &events);
    assert!(
        out.mismatch.is_none(),
        "clean trace verifies: {:?}",
        out.mismatch
    );
    assert!(
        matches!(out.verdict, Some(Verdict::Halt { good: true, .. })),
        "trace must reach the good trap"
    );
}

#[test]
fn trace_replay_localizes_like_the_live_baseline() {
    // A recorded buggy trace, replayed offline, must report exactly the
    // mismatch the live per-event baseline reports for the same bug.
    let w = workload(40);
    let bugs = vec![BugSpec::new(BugKind::MstatusMieLeak, 4_000)];
    let (image, events, _) = record_with(&w, bugs.clone());
    let offline = replay(&image, &events)
        .mismatch
        .expect("the armed bug diverges");

    let live = run_runner(
        RunnerKind::Engine,
        DutConfig::xiangshan_default(),
        DiffConfig::Z,
        &w,
        bugs,
        MAX_CYCLES,
        8,
        None,
    );
    assert_eq!(live.outcome, RunOutcome::Mismatch);
    let live = live.mismatch.clone().expect("the live run reports it");
    // The bug surfaces in a CSR state dump: the view comparison path.
    assert!(offline.check.starts_with("csr "), "{offline}");
    // Core, seq, check, expected and actual all agree.
    assert_eq!(offline, live);
}

#[test]
fn query_engine_answers_offline_questions() {
    let (_, events) = record(40);
    let q = TraceQuery::new(&events);

    // Commits dominate control flow; NDEs exist; commits outnumber stores.
    let commits = TraceQuery::new(&events).kind(EventKind::InstrCommit);
    let stores = TraceQuery::new(&events).kind(EventKind::StoreEvent);
    let ndes = TraceQuery::new(&events).nde();
    assert!(commits.len() > stores.len());
    assert!(!ndes.is_empty());

    // Grouping accounts for every event exactly once.
    let by_kind = q.group_by_kind();
    let total: u64 = by_kind.values().map(|s| s.count).sum();
    assert_eq!(total as usize, events.len());

    // Byte accounting is consistent between groupings.
    let by_cat = q.group_by_category();
    let cat_bytes: u64 = by_cat.values().map(|s| s.bytes).sum();
    assert_eq!(cat_bytes, q.total_bytes());

    // Cycle-range filters compose.
    let early = TraceQuery::new(&events).cycles(0, 1_000);
    let late = TraceQuery::new(&events).filter(|e| e.cycle >= 1_000);
    assert_eq!(early.len() + late.len(), events.len());
}
