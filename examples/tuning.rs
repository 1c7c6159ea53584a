//! The tuning toolkit (paper §5): trace dump/reload for DUT-decoupled
//! iterative debugging, offline query analysis, and performance counters.
//!
//! ```text
//! cargo run --release --example tuning
//! ```

use difftest_h::core::{AccelUnit, Checker, Consumer, NoCharge, Step, SwUnit, Verdict};
use difftest_h::dut::{Dut, DutConfig};
use difftest_h::event::Category;
use difftest_h::ref_model::{Memory, RefModel};
use difftest_h::stats::{trace, Counters, Table, TraceQuery};
use difftest_h::workload::Workload;

fn main() {
    let workload = Workload::linux_boot().seed(11).iterations(150).build();
    let mut image = Memory::new();
    image.load_words(Memory::RAM_BASE, workload.words());

    // --- 1. Record a DUT trace (the expensive part, done once) -----------
    let mut dut = Dut::new(DutConfig::xiangshan_default(), &image, Vec::new());
    let mut events = Vec::new();
    while dut.halted().is_none() && dut.cycles() < 100_000 {
        events.extend(dut.tick().events);
    }
    println!(
        "recorded {} events over {} cycles ({} instructions)",
        events.len(),
        dut.cycles(),
        dut.total_commits()
    );

    let mut file = Vec::new();
    trace::dump(&mut file, &events).expect("trace serializes");
    println!("trace size on disk: {} bytes\n", file.len());

    // --- 2. Offline analysis (SQL-substitute query engine) ---------------
    let reloaded = trace::reload(&file[..]).expect("trace reloads");
    assert_eq!(reloaded, events);

    let q = TraceQuery::new(&reloaded);
    let mut table = Table::new(
        "Events by category (trace query)",
        &["Category", "Count", "Bytes", "Rate/cycle"],
    );
    for (cat, stats) in q.group_by_category() {
        table.row(&[
            cat.name().to_owned(),
            format!("{}", stats.count),
            format!("{}", stats.bytes),
            format!("{:.3}", stats.rate_per_cycle()),
        ]);
    }
    println!("{table}");

    let ndes = TraceQuery::new(&reloaded).nde();
    println!(
        "non-deterministic events: {} ({} bytes); control-flow share: {}\n",
        ndes.len(),
        ndes.total_bytes(),
        TraceQuery::new(&reloaded)
            .category(Category::ControlFlow)
            .len()
    );

    // --- 3. DUT-decoupled iterative debugging ----------------------------
    // Drive the verification logic from the trace alone — no DUT run: the
    // trace replays through the per-event baseline stream into the same
    // consumer every runner drives.
    let mut hw = AccelUnit::per_event();
    let checker = Checker::new(vec![RefModel::new(image)], false);
    let mut consumer = Consumer::new(SwUnit::per_event(1), checker);
    let mut transfers = Vec::new();
    let mut counters = Counters::new();
    'trace: for cycle in reloaded.chunk_by(|a, b| a.cycle == b.cycle) {
        hw.push_cycle(cycle, &mut transfers);
        for t in transfers.drain(..) {
            counters.inc("toolkit.events_replayed");
            counters.add("toolkit.bytes_replayed", t.bytes.len() as u64);
            if consumer.ingest(&t, cycle[0].cycle, &mut NoCharge) == Step::Stop {
                break 'trace;
            }
        }
    }
    consumer.finish_stream(None, 0, &mut NoCharge);
    assert!(
        consumer.mismatch().is_none(),
        "clean trace verifies: {:?}",
        consumer.mismatch()
    );
    if let Some(Verdict::Halt { good, .. }) = consumer.verdict() {
        counters.inc("toolkit.good_traps");
        assert!(good);
    }
    println!("trace-driven checking finished:\n{counters}");
}
