//! Process-separated co-simulation: the DUT producer and the checking
//! consumer live in different OS processes, joined by a Unix-domain
//! socket carrying the CRC-framed wire format.
//!
//! The isolation is the point: a consumer that crashes — simulated here
//! with [`SocketTuning::kill_consumer_after`] — takes down its own
//! address space only, and the producer reports a typed
//! [`RunOutcome::LinkError`] with the child's exit code instead of
//! panicking or wedging.
//!
//! ```text
//! cargo run --release --example socket
//! ```
//!
//! With `DIFFTEST_TRACE=<path>` the clean run exports one merged
//! Chrome/Perfetto trace spanning both processes: the handshake carries
//! the producer's clock epoch, so the consumer's spans land on the same
//! timeline (`make trace` gates this through `scripts/trace_check`).

use difftest_h::core::{
    run_socket_session, DiffConfig, RunOutcome, Session, SocketTuning, KILLED_EXIT,
};
use difftest_h::dut::DutConfig;
use difftest_h::stats::TRACE_ENV;
use difftest_h::workload::Workload;

fn main() {
    // MUST be first: the runner re-executes this binary as its consumer
    // process, which diverges here and never returns.
    difftest_h::core::child_entry();

    let workload = Workload::linux_boot().seed(42).iterations(1_000).build();
    let session = || {
        Session::new(
            DutConfig::xiangshan_default(),
            DiffConfig::BNSD,
            &workload,
            Vec::new(),
            400_000,
            8,
            None,
        )
    };

    // A healthy run: verdict-identical to the in-process runners, but
    // every packet genuinely crossed a process boundary.
    let report = run_socket_session(session(), None, SocketTuning::default());
    assert_eq!(report.outcome, RunOutcome::GoodTrap);
    println!("== clean run ==");
    println!(
        "{} cycles, {} instructions, {} items checked in {:.2}s \
         ({:.0} Kcycles/s across the socket)",
        report.cycles,
        report.instructions,
        report.items,
        report.wall_s,
        report.cycles_per_sec / 1e3,
    );
    println!(
        "consumer process exited {:?}; checker saw {} transfers, {} bytes",
        report.consumer_exit,
        report.metrics.counters.get("obs.transfers"),
        report.metrics.counters.get("obs.bytes"),
    );

    if let Some(p) = std::env::var_os(TRACE_ENV) {
        // The clean run above wrote one merged trace covering both
        // processes. Clear the var so the kill-run below — whose child
        // dies mid-stream — doesn't truncate it with a producer-only
        // export.
        std::env::remove_var(TRACE_ENV);
        println!(
            "merged socket trace written to {}",
            std::path::PathBuf::from(p).display()
        );
    }

    // The same run with the consumer process dying after two packets.
    let report = run_socket_session(
        session(),
        None,
        SocketTuning {
            kill_consumer_after: Some(2),
        },
    );
    println!("\n== consumer killed after 2 packets ==");
    match report.outcome {
        RunOutcome::LinkError { kind, seq, .. } => println!(
            "typed outcome: {kind} at seq {seq} (consumer exit {:?}, expected {KILLED_EXIT})",
            report.consumer_exit,
        ),
        other => panic!("consumer death must surface as a link error, got {other:?}"),
    }
    let snapshot = report
        .flight
        .as_ref()
        .expect("failure carries flight records");
    println!(
        "flight recorder kept {} records for the post-mortem",
        snapshot.records.len()
    );
}
