//! Hardware/software parallelism on real OS substrates (paper §4.5).
//!
//! The producer runs the DUT and the acceleration unit; the consumer
//! unpacks and checks; a bounded link between them is the sending queue
//! with backpressure. All wall-clock runners are one [`run_session`]
//! dispatch away from each other — same pipeline, different substrate:
//! two threads on a bounded channel (threaded), or two threads on a
//! Unix socket pair carrying framed bytes (socket).
//!
//! ```text
//! cargo run --release --example threaded
//! ```

use difftest_h::core::{run_session, DiffConfig, RunOutcome, RunnerKind, Session};
use difftest_h::dut::DutConfig;
use difftest_h::workload::Workload;

fn main() {
    let workload = Workload::linux_boot().seed(17).iterations(2_000).build();

    for config in [DiffConfig::BN, DiffConfig::BNSD] {
        for kind in [RunnerKind::Threaded, RunnerKind::Socket] {
            let report = run_session(
                kind,
                Session::new(
                    DutConfig::xiangshan_default(),
                    config,
                    &workload,
                    Vec::new(),
                    400_000,
                    8,
                    None,
                ),
            );
            assert_eq!(report.outcome, RunOutcome::GoodTrap);
            let (wall_s, cycles_per_sec) = report.wall().expect("wall-clock runner");
            println!(
                "{config:10} {kind:10} {} cycles, {} instructions, {} items checked \
                 in {wall_s:.2}s  ->  {:.0} Kcycles/s host throughput",
                report.cycles,
                report.instructions,
                report.items,
                cycles_per_sec / 1e3,
            );
        }
        println!();
    }
    println!(
        "Squash hands the checker far fewer items for the same cycles — \
         the software-side win that non-blocking transmission then overlaps. \
         The socket runner pays for framing every packet through a kernel \
         socket: the protocol a difftest-serve daemon speaks, and a dead \
         consumer is a typed link error."
    );
}
