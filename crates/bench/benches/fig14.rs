//! Figure 14 (and Table 6): bug detection time.
//!
//! Two parts:
//!
//! 1. **Measured**: a sample of catalog bugs is injected at small trigger
//!    points and detected end-to-end by the full DiffTest-H configuration,
//!    demonstrating that detection + Replay localization actually work.
//! 2. **Projected**: for all 19 paper-scale bugs (manifestation counts of
//!    millions to billions of cycles, Table 6 pull requests), detection
//!    time = manifestation cycles / platform co-simulation speed — the
//!    paper's "up to 2 months on Verilator vs within 11 hours on
//!    Palladium with DiffTest-H".

use difftest_bench::{boot_workload, fmt_hz, run, Table, BENCH_CYCLES};
use difftest_core::{CoSimulation, DiffConfig, RunOutcome, Session};
use difftest_dut::{bug_catalog, BugKind, BugSpec, DutConfig};
use difftest_platform::Platform;

fn hours(cycles: u64, hz: f64) -> f64 {
    cycles as f64 / hz / 3600.0
}

fn main() {
    let workload = boot_workload();
    let dut = DutConfig::xiangshan_default();
    let palladium = Platform::palladium();

    // Measure the two speeds that convert cycles into wall-clock time.
    let h = run(&dut, &palladium, DiffConfig::BNSD, &workload, BENCH_CYCLES);
    let v = run(
        &dut,
        &Platform::verilator(16),
        DiffConfig::Z,
        &workload,
        BENCH_CYCLES / 3,
    );
    println!(
        "Figure 14: bug detection time (DiffTest-H on Palladium at {}, \
         16-thread Verilator at {})\n",
        fmt_hz(h.speed_hz),
        fmt_hz(v.speed_hz)
    );

    // Part 1: measured end-to-end detection of injected bugs.
    let mut measured = Table::new(
        "Measured: injected bugs detected end-to-end (DiffTest-H, BNSD)",
        &["Bug", "Category", "Detected", "Localized by Replay"],
    );
    for kind in [
        BugKind::RegWriteCorruption,
        BugKind::StoreValueCorruption,
        BugKind::WrongVstart,
        BugKind::CorruptMepc,
        BugKind::RefillCorruption,
        BugKind::WrongBranchTarget,
    ] {
        let session = Session::new(
            dut.clone(),
            DiffConfig::BNSD,
            &workload,
            vec![BugSpec::new(kind, 20_000)],
            BENCH_CYCLES,
            8,
            None,
        )
        .with_platform(palladium.clone());
        let mut sim = CoSimulation::new(session).expect("valid setup");
        let report = sim.run();
        let detected = report.outcome == RunOutcome::Mismatch;
        let localized = report
            .failure
            .as_ref()
            .and_then(|f| f.precise.as_ref())
            .is_some();
        measured.row(&[
            format!("{kind:?}"),
            kind.category().split(' ').next().unwrap_or("?").to_owned(),
            if detected { "yes" } else { "NO" }.to_owned(),
            if localized { "yes" } else { "NO" }.to_owned(),
        ]);
    }
    println!("{measured}");

    // Part 2: projected detection times for the paper-scale catalog.
    let mut projected = Table::new(
        "Projected: Table 6 catalog at paper-scale manifestation counts",
        &[
            "PR",
            "Bug",
            "Manifest cycles",
            "Verilator-16T",
            "DiffTest-H PLDM",
        ],
    );
    let mut worst_verilator: f64 = 0.0;
    let mut worst_h: f64 = 0.0;
    for bug in bug_catalog() {
        let tv = hours(bug.manifest_cycles, v.speed_hz);
        let th = hours(bug.manifest_cycles, h.speed_hz);
        worst_verilator = worst_verilator.max(tv);
        worst_h = worst_h.max(th);
        projected.row(&[
            bug.label.clone(),
            format!("{:?}", bug.kind),
            format!("{:.2e}", bug.manifest_cycles as f64),
            format!("{:.1} days", tv / 24.0),
            format!("{th:.1} h"),
        ]);
    }
    println!("{projected}");
    println!(
        "worst case: {:.0} days on Verilator vs {:.1} h with DiffTest-H \
         (paper: up to ~2 months vs within 11 hours)",
        worst_verilator / 24.0,
        worst_h
    );
}
