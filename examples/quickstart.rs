//! Quick start: run a full DiffTest-H co-simulation and print the report.
//!
//! Every transport substrate drives the identical pipeline, so the
//! runner is just a command-line choice dispatched through
//! [`run_session`]:
//!
//! ```text
//! cargo run --release --example quickstart                    # engine
//! cargo run --release --example quickstart -- socket
//! ```

use difftest_h::core::{run_session, DiffConfig, RunnerKind, RunnerReport, Session};
use difftest_h::dut::DutConfig;
use difftest_h::stats::fmt_hz;
use difftest_h::workload::Workload;

fn main() {
    let kind = match std::env::args().nth(1).as_deref() {
        None | Some("engine") => RunnerKind::Engine,
        Some("socket") => RunnerKind::Socket,
        Some(other) => {
            eprintln!("unknown runner {other:?}; expected engine|socket");
            std::process::exit(2);
        }
    };

    // 1. Generate a workload: a boot-like program with CSR churn, timer
    //    interrupts, UART MMIO and exceptions — the non-deterministic mix
    //    that makes co-simulation hard.
    let workload = Workload::linux_boot().seed(42).iterations(300).build();

    // 2-3. Run the full DiffTest-H pipeline (Batch + NonBlock + Squash +
    //    Differencing + Replay) on a XiangShan-class DUT, on the chosen
    //    substrate, to the workload's good trap.
    let report = run_session(
        kind,
        Session::new(
            DutConfig::xiangshan_default(),
            DiffConfig::BNSD,
            &workload,
            Vec::new(),
            200_000,
            64,
            None,
        ),
    );

    // The shared report core every runner fills in.
    println!("runner:            {kind}");
    println!("outcome:           {:?}", report.outcome);
    println!("cycles simulated:  {}", report.cycles);
    println!("instructions:      {}", report.instructions);
    println!("items checked:     {}", report.items);
    if let Some((wall_s, cycles_per_sec)) = report.wall() {
        println!(
            "host wall clock:   {wall_s:.2}s ({:.0} Kcycles/s)",
            cycles_per_sec / 1e3
        );
    }

    // What only the virtual-time engine can say: simulated speeds and
    // the LogGP communication-overhead breakdown of the paper's §5.
    if let RunnerReport::Engine(report) = &report {
        println!("co-sim speed:      {}", fmt_hz(report.speed_hz));
        println!("DUT-only speed:    {}", fmt_hz(report.dut_only_hz));
        println!(
            "comm overhead:     {:.1}%",
            report.comm_overhead_fraction() * 100.0
        );
        println!("transfers:         {}", report.invokes);
        println!("bytes transferred: {}", report.bytes);
        if let Some(squash) = report.squash {
            println!(
                "fusion ratio:      {:.1} commits/record",
                squash.fusion_ratio()
            );
        }
        println!(
            "checker: {} events, {} instructions, {} skips, {} interrupts",
            report.check.events,
            report.check.instructions,
            report.check.skips,
            report.check.interrupts
        );
        println!(
            "\nperformance counters (paper \u{a7}5):\n{}",
            report.counters()
        );
    }
}
