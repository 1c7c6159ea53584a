//! Quick preview of the Table 5 optimization breakdown (the full harness
//! lives in `crates/bench/benches/table5.rs`).
use difftest_core::{CoSimulation, DiffConfig, Session};
use difftest_dut::DutConfig;
use difftest_platform::Platform;
use difftest_workload::Workload;

fn main() {
    let paper: [(&str, [f64; 4]); 3] = [
        ("NutShell-PLDM", [14.0, 102.0, 389.0, 1030.0]),
        ("XiangShan-PLDM", [6.0, 24.0, 71.0, 478.0]),
        ("XiangShan-FPGA", [100.0, 1300.0, 2200.0, 7800.0]),
    ];
    let setups = [
        (DutConfig::nutshell(), Platform::palladium()),
        (DutConfig::xiangshan_default(), Platform::palladium()),
        (DutConfig::xiangshan_default(), Platform::fpga()),
    ];
    for ((dut, plat), (name, rows)) in setups.into_iter().zip(paper) {
        print!("{name:16}");
        let mut base = 0.0;
        for (i, cfg) in DiffConfig::ALL.into_iter().enumerate() {
            let w = Workload::linux_boot().seed(5).iterations(200).build();
            let session = Session::new(dut.clone(), cfg, &w, Vec::new(), 120_000, 8, None)
                .with_platform(plat.clone());
            let mut sim = CoSimulation::new(session).expect("valid setup");
            let r = sim.run();
            if i == 0 {
                base = r.speed_hz;
            }
            print!(
                "  {:>8.1}KHz({:>5.1}x| paper {:>6.0}K)",
                r.speed_hz / 1e3,
                r.speed_hz / base,
                rows[i]
            );
            assert!(
                !matches!(r.outcome, difftest_core::RunOutcome::Mismatch),
                "unexpected mismatch: {:?}",
                r.failure
            );
        }
        println!();
    }
}
