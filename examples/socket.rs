//! Co-simulation over the wire: the DUT producer and the checking
//! consumer are joined by a Unix-domain socket pair carrying the
//! CRC-framed, length-prefixed wire format, and the verdict comes back
//! as a serialized result blob.
//!
//! A consumer that dies mid-run — simulated here with
//! [`SocketTuning::kill_consumer_after`] — shows up at the producer as a
//! typed [`RunOutcome::LinkError`] instead of a panic or a hang.
//!
//! ```text
//! cargo run --release --example socket
//! ```
//!
//! Both ends run in this process. For a consumer in a process of its
//! own, start the `difftest-serve` daemon and point the runner at it
//! with `DIFFTEST_SERVE_ADDR=unix:<path>` (or `tcp:<host:port>`); the
//! same calls below then check every session in the daemon.
//!
//! With `DIFFTEST_TRACE=<path>` the clean run exports one merged
//! Chrome/Perfetto trace of producer and consumer: the handshake carries
//! the producer's clock epoch, so the consumer's spans land on the same
//! timeline (`make trace` gates this through `scripts/trace_check`).

use difftest_h::core::{run_socket_session, DiffConfig, RunOutcome, Session, SocketTuning};
use difftest_h::dut::DutConfig;
use difftest_h::stats::TRACE_ENV;
use difftest_h::workload::Workload;

fn main() {
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

    // A healthy run: verdict-identical to the engine, but every packet
    // crossed a kernel socket as framed bytes.
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
        "checker saw {} transfers, {} bytes",
        report.metrics.counters.get("obs.transfers"),
        report.metrics.counters.get("obs.bytes"),
    );

    if let Some(p) = std::env::var_os(TRACE_ENV) {
        // The clean run above wrote one merged trace covering producer
        // and consumer. Clear the var so the kill-run below — whose
        // consumer dies mid-stream — doesn't truncate it with a
        // producer-only export.
        std::env::remove_var(TRACE_ENV);
        println!(
            "merged socket trace written to {}",
            std::path::PathBuf::from(p).display()
        );
    }

    // The same run with the consumer dying when its second packet
    // arrives.
    let report = run_socket_session(
        session(),
        None,
        SocketTuning {
            kill_consumer_after: Some(2),
        },
    );
    println!("\n== consumer killed as its 2nd packet arrives ==");
    match report.outcome {
        RunOutcome::LinkError { kind, seq, .. } => println!(
            "typed outcome: {kind} at seq {seq} after {} cycles",
            report.cycles
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
