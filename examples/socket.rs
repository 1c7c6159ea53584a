//! Co-simulation over the wire: the DUT producer and the checking
//! consumer are joined by a Unix-domain socket pair carrying the
//! CRC-framed, length-prefixed wire format. Both ends run in this
//! process; the socket carries producer-to-consumer bytes only, and the
//! runner takes the verdict straight from the consumer loop.
//!
//! ```text
//! cargo run --release --example socket
//! ```
//!
//! With `DIFFTEST_TRACE=<path>` the clean run exports one merged
//! Chrome/Perfetto trace of producer and consumer: both are built from
//! one `Session`, so their spans read the tracer's one clock and land on
//! the same timeline (`make trace` gates this through
//! `scripts/trace_check`).

use difftest_h::core::{run_socket_session, DiffConfig, RunOutcome, Session};
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
    let report = run_socket_session(session());
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
        println!(
            "merged socket trace written to {}",
            std::path::PathBuf::from(p).display()
        );
    }
}
