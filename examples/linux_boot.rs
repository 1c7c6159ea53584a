//! Boot-workload sweep: the paper's headline scenario across every
//! optimization level and both hardware platforms.
//!
//! ```text
//! cargo run --release --example linux_boot
//! ```

use difftest_h::core::{CoSimulation, DiffConfig, RunOutcome, Session};
use difftest_h::dut::DutConfig;
use difftest_h::platform::Platform;
use difftest_h::stats::{fmt_hz, fmt_pct, fmt_ratio, Table};
use difftest_h::workload::Workload;

fn main() {
    let workload = Workload::linux_boot().seed(5).iterations(500).build();

    for platform in [Platform::palladium(), Platform::fpga()] {
        let mut table = Table::new(
            format!("XiangShan boot on {}", platform.name()),
            &[
                "Config",
                "Speed",
                "Speedup",
                "Transfers",
                "Bytes",
                "Overhead",
            ],
        );
        let mut base = 0.0;
        let mut transcript = Vec::new();
        for (i, config) in DiffConfig::ALL.into_iter().enumerate() {
            let session = Session::new(
                DutConfig::xiangshan_default(),
                config,
                &workload,
                Vec::new(),
                150_000,
                8,
                None,
            )
            .with_platform(platform.clone());
            let mut sim = CoSimulation::new(session).expect("valid setup");
            let report = sim.run();
            assert_ne!(
                report.outcome,
                RunOutcome::Mismatch,
                "boot must verify cleanly"
            );
            if i == 0 {
                base = report.speed_hz;
            }
            transcript = sim.dut().cores()[0].devices().uart.transcript().to_vec();
            table.row(&[
                config.label().to_owned(),
                fmt_hz(report.speed_hz),
                fmt_ratio(report.speed_hz / base),
                format!("{}", report.invokes),
                format!("{}", report.bytes),
                fmt_pct(report.comm_overhead_fraction()),
            ]);
        }
        println!("{table}");
        let shown: String = transcript.iter().take(48).map(|b| *b as char).collect();
        println!("UART transcript (first bytes): {shown:?}\n");
    }
}
