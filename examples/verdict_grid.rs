//! Golden verdict grid: what the full DiffTest-H configuration (BNSD)
//! concludes, cell by cell, over a fixed grid of injected bugs and clean
//! runs.
//!
//! Bug cells: the first 14 kinds of the Table 6 catalog (`CorruptMepc`
//! through `VsDirtyNotSet`), each armed at twelve triggers 250 commits
//! apart from 3 000 or from 8 000, on `linux_boot` and `mmio_heavy` (400
//! iterations) with seeds 13, 7006 and 41, on XiangShan Default, Dual and
//! Minimal and on NutShell: 672 cells, each printing its outcome and the
//! instruction and check Replay localized. Clean cells: six presets
//! (300 iterations) with seeds 1–6 on the same four designs: 144 cells,
//! each printing its outcome and cycle count.
//!
//! Every line is deterministic, so the output is compared byte for byte
//! against `reference/verdict_grid.txt`: a change that moves a verdict, a
//! localization or a clean run's length shows as a diff there.
//!
//! ```text
//! cargo run --release --example verdict_grid > verdict_grid.txt
//! make verdict-grid    # regenerates into a temp dir and diffs
//! ```

use difftest_h::core::{CoSimulation, DiffConfig};
use difftest_h::dut::{BugKind, BugSpec, DutConfig};
use difftest_h::platform::Platform;
use difftest_h::workload::{Workload, WorkloadBuilder};

const KINDS: [BugKind; 14] = [
    BugKind::CorruptMepc,
    BugKind::WrongTrapCause,
    BugKind::WrongTval,
    BugKind::WrongTrapVector,
    BugKind::MstatusMieLeak,
    BugKind::WrongMpp,
    BugKind::StoreValueCorruption,
    BugKind::LostStore,
    BugKind::LoadValueCorruption,
    BugKind::StoreQueueAddrError,
    BugKind::SbufferMaskError,
    BugKind::RefillCorruption,
    BugKind::WrongVstart,
    BugKind::VsDirtyNotSet,
];

const BUG_SEEDS: [u64; 3] = [13, 7006, 41];
const TRIGGER_BASES: [u64; 2] = [3_000, 8_000];

fn duts() -> [DutConfig; 4] {
    [
        DutConfig::xiangshan_default(),
        DutConfig::xiangshan_dual(),
        DutConfig::xiangshan_minimal(),
        DutConfig::nutshell(),
    ]
}

/// One cell of the grid: a bug kind armed at twelve triggers from a base
/// commit count, or a clean run.
struct Cell {
    dut: DutConfig,
    preset: fn() -> WorkloadBuilder,
    seed: u64,
    bug: Option<(BugKind, u64)>,
}

impl Cell {
    fn run(&self) -> String {
        let (iterations, max_cycles) = if self.bug.is_some() {
            (400, 250_000)
        } else {
            (300, 120_000)
        };
        let workload = (self.preset)()
            .seed(self.seed)
            .iterations(iterations)
            .build();
        let bugs = self.bug.map_or_else(Vec::new, |(kind, base)| {
            (0..12)
                .map(|i| BugSpec::new(kind, base + i * 250))
                .collect()
        });
        let mut sim = CoSimulation::builder()
            .dut(self.dut.clone())
            .platform(Platform::palladium())
            .config(DiffConfig::BNSD)
            .bugs(bugs)
            .max_cycles(max_cycles)
            .build(&workload)
            .expect("valid setup");
        let report = sim.run();
        let head = format!("{} {} seed {}", self.dut.name, workload.name(), self.seed);
        match self.bug {
            Some((kind, base)) => {
                let precise = report.failure.as_ref().and_then(|f| f.precise.as_ref());
                let (seq, check) = precise.map_or(("-".to_owned(), "-"), |m| {
                    (m.seq.to_string(), m.check.as_str())
                });
                format!(
                    "{head} {kind:?} @{base}: {:?} at {seq} ({check})",
                    report.outcome
                )
            }
            None => format!(
                "{head} clean: {:?} after {} cycles",
                report.outcome, report.cycles
            ),
        }
    }
}

fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for dut in duts() {
        for preset in [Workload::linux_boot, Workload::mmio_heavy] {
            for seed in BUG_SEEDS {
                for kind in KINDS {
                    for base in TRIGGER_BASES {
                        cells.push(Cell {
                            dut: dut.clone(),
                            preset,
                            seed,
                            bug: Some((kind, base)),
                        });
                    }
                }
            }
        }
    }
    let presets: [fn() -> WorkloadBuilder; 6] = [
        Workload::linux_boot,
        Workload::mmio_heavy,
        Workload::trap_heavy,
        Workload::fuzz,
        Workload::spec_like,
        Workload::microbench,
    ];
    for dut in duts() {
        for preset in presets {
            for seed in 1..=6 {
                cells.push(Cell {
                    dut: dut.clone(),
                    preset,
                    seed,
                    bug: None,
                });
            }
        }
    }
    cells
}

fn main() {
    for cell in cells() {
        println!("{}", cell.run());
    }
}
