//! The conformance matrix: the checker's verdict does not depend on the
//! transport, the optimization level or Replay (Batch, Squash and the
//! non-blocking link change communication, never semantics: §4.2–4.5).
//!
//! A cell is a [`Row`] (design, program, bugs, fault plan) run under a
//! [`Column`] (configuration, runner, Replay) by [`verdict`];
//! [`check_row`] holds it to every [`Oracle`]. A cell that breaks a
//! checker oracle fails unless [`ALLOW`] pins its measured tuple: that list
//! is the measured statement of what the checker does not see. Each row set
//! is a `#[test]` naming the columns it runs, the large ones split by
//! design or Table 6 section. Runner agreement, configuration agreement,
//! fault containment and flight diagnosis are all asserted here and only
//! here; tracing agreement is still `span_tracing`'s, until this table has
//! a traced column.

use std::collections::BTreeSet;

use difftest_h::core::{
    run_session, DiffConfig, FaultPlan, Mismatch as Diverged, RunOutcome, RunnerKind, RunnerReport,
    Session,
};
use difftest_h::dut::{bug_catalog, BugKind, BugSpec, DutConfig};
use difftest_h::stats::FlightKind;
use difftest_h::workload::Workload;
use RunOutcome::{GoodTrap, LinkError, MaxCycles, Mismatch};
use RunnerKind::{Engine, Socket};

/// What runs: a design, a program, the bugs armed in it and the link's
/// fault plan.
struct Row {
    name: String,
    dut: DutConfig,
    program: Workload,
    bugs: Vec<BugSpec>,
    plan: Option<FaultPlan>,
}

/// A row named `set/design/program#seed`, then its first bug's kind and
/// trigger and its plan's seed and per-kind rate.
fn row(
    set: &str,
    dut: &DutConfig,
    program: Workload,
    bugs: Vec<BugSpec>,
    plan: Option<FaultPlan>,
) -> Row {
    let mut name = format!("{set}/{}", dut.name);
    if dut.cores > 1 {
        name += &format!(" ×{}", dut.cores);
    }
    name += &format!("/{}#{}", program.name(), program.seed());
    if let Some(b) = bugs.first() {
        name += &format!("/{:?}@{}", b.kind, b.trigger_instret);
    }
    if let Some(p) = plan {
        name += &format!("/faults#{}@{}‰", p.seed, p.drop_per_mille);
    }
    Row {
        name,
        dut: dut.clone(),
        program,
        bugs,
        plan,
    }
}

/// How it runs: a configuration on a runner, with Replay on or off (only
/// the engine's BNSD has a ring to replay from).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Column {
    name: &'static str,
    config: DiffConfig,
    runner: RunnerKind,
    replay: bool,
}

const fn col(name: &'static str, config: DiffConfig, runner: RunnerKind, replay: bool) -> Column {
    Column {
        name,
        config,
        runner,
        replay,
    }
}

/// The column table.
const Z: Column = col("Z", DiffConfig::Z, Engine, true);
const B: Column = col("B", DiffConfig::B, Engine, true);
const BN: Column = col("BN", DiffConfig::BN, Engine, true);
const BN_SOCK: Column = col("BN·socket", DiffConfig::BN, Socket, true);
const BNSD: Column = col("BNSD", DiffConfig::BNSD, Engine, true);
const BNSD_SOCK: Column = col("BNSD·socket", DiffConfig::BNSD, Socket, true);
const NO_REPLAY: Column = col("BNSD·no-replay", DiffConfig::BNSD, Engine, false);

/// What a cell concluded. `volume` is `(cycles, instructions, items)`,
/// kept only when the run ended `GoodTrap` or `MaxCycles`: after an early
/// stop the socket producer's fields depend on timing. `localized` is the
/// engine's failure report: the precise `(seq, check)` and whether Replay
/// ran on a partial range. `flight` is what the flight snapshot, if one
/// came back, holds of the run's end; `link` is whether the link detected
/// an error and whether the plan injected a fault.
#[derive(Debug, Clone, PartialEq)]
struct Tuple {
    outcome: RunOutcome,
    mismatch: Option<Diverged>,
    volume: Option<(u64, u64, u64)>,
    localized: Option<(Option<(u64, String)>, bool)>,
    flight: Option<Flight>,
    link: (bool, bool),
}

/// Whether a flight snapshot holds a `Mismatch` record whose value is the
/// mismatch's instruction, and the outcome's `LinkError` record with a
/// transport record before it.
#[derive(Debug, Clone, PartialEq)]
struct Flight {
    mismatch: bool,
    link_error: bool,
}

/// Runs one cell: the only place in this file that starts a run.
fn verdict(row: &Row, col: &Column) -> Tuple {
    let (dut, bugs) = (row.dut.clone(), row.bugs.clone());
    let session = Session::new(dut, col.config, &row.program, bugs, 400_000, 8, row.plan);
    let r = run_session(col.runner, session.with_replay(col.replay));
    let failure = match &r {
        RunnerReport::Engine(e) => e.failure.clone(),
        RunnerReport::Socket(_) => None,
    };
    let flight = r.flight.as_ref().map(|s| Flight {
        mismatch: (r.mismatch.as_ref()).is_some_and(|m| {
            (s.records.iter()).any(|x| x.kind == FlightKind::Mismatch && x.value == m.seq)
        }),
        link_error: match r.outcome {
            LinkError { seq, .. } => s
                .find(FlightKind::LinkError, seq)
                .is_some_and(|at| s.records[..at].iter().any(|x| x.kind.is_transport())),
            _ => false,
        },
    });
    let whole = matches!(r.outcome, GoodTrap | MaxCycles);
    Tuple {
        outcome: r.outcome,
        mismatch: r.mismatch.clone(),
        volume: whole.then_some((r.cycles, r.instructions, r.items)),
        localized: failure.map(|f| (f.precise.map(|p| (p.seq, p.check)), f.partial)),
        flight,
        link: (
            r.link.total_detected() > 0,
            r.fault.is_some_and(|f| f.total_faults() > 0),
        ),
    }
}

/// The properties every cell is held to, each stated once.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Oracle {
    /// The socket's tuple equals the engine's where neither runner
    /// recovers a fault: BN everywhere, BNSD on rows without a plan. Not a
    /// checker blind spot: `ALLOW` never excuses it.
    RunnerAgreement,
    /// On a link that injects nothing, every configuration reaches the
    /// row's outcome: each armed bug is caught, a clean run traps.
    ConfigAgreement,
    /// On a clean row without faults, every engine column runs the same
    /// cycles and instructions: the DUT does not depend on the transport.
    VolumeAgreement,
    /// An unfused stream's mismatch is already precise; BNSD's Replay pins
    /// the unfused stream's instruction over a whole range; without Replay,
    /// BNSD reports the same mismatch and localizes nothing.
    Localization,
    /// A faulted cell ends `GoodTrap` or a typed `LinkError` and reports no
    /// mismatch; no cell detects a link error where no fault was injected.
    Containment,
    /// A cell that traps carries no flight snapshot; a mismatch's snapshot
    /// records it; a link error's records it after a transport record, on
    /// a link that detected an error the plan injected.
    Diagnosable,
}

/// Known blind spots, by reason. Each cell is `row × column: tuple` as
/// measured, one per column it stands for.
const ALLOW: &[(&str, &[&str])] = &[
    (
        "Squash subsumes redirect events into the fused commit stream, so a corruption of \
         only the redirect payload never reaches the checker (DESIGN.md §3.5)",
        &[
            "d/linux_boot#13/RedirectCorruption@8000 × BNSD: Tuple { outcome: GoodTrap, mismatch: None, volume: Some((74983, 56426, 32552)), localized: None, flight: None, link: (false, false) }",
            "d/linux_boot#13/RedirectCorruption@8000 × BNSD·no-replay: Tuple { outcome: GoodTrap, mismatch: None, volume: Some((74983, 56426, 32552)), localized: None, flight: None, link: (false, false) }",
            "e/linux_boot#7006/RedirectCorruption@8000 × BNSD: Tuple { outcome: GoodTrap, mismatch: None, volume: Some((77341, 58435, 33666)), localized: None, flight: None, link: (false, false) }",
        ],
    ),
    (
        "the corrupted register is overwritten inside the same fusion window before anything \
         reads it, so neither the window's write-set nor its last dump shows it; B catches it \
         at the write (DESIGN.md §3.5)",
        &[
            "c/NutShell/linux_boot#934/RegWriteCorruption@4205 × BNSD: Tuple { outcome: GoodTrap, mismatch: None, volume: Some((96093, 41325, 11154)), localized: None, flight: None, link: (false, false) }",
            "c/NutShell/linux_boot#934/RegWriteCorruption@4205 × BNSD·socket: Tuple { outcome: GoodTrap, mismatch: None, volume: Some((96093, 41325, 11154)), localized: None, flight: None, link: (false, false) }",
            "c/NutShell/linux_boot#13/RegWriteCorruption@3550 × BNSD: Tuple { outcome: GoodTrap, mismatch: None, volume: Some((98401, 42543, 11325)), localized: None, flight: None, link: (false, false) }",
            "c/NutShell/linux_boot#13/RegWriteCorruption@3550 × BNSD·socket: Tuple { outcome: GoodTrap, mismatch: None, volume: Some((98401, 42543, 11325)), localized: None, flight: None, link: (false, false) }",
            "c/XiangShan (Minimal) ×2/linux_boot#13/RegWriteCorruption@3550 × BNSD: Tuple { outcome: GoodTrap, mismatch: None, volume: Some((56088, 84600, 48793)), localized: None, flight: None, link: (false, false) }",
            "c/XiangShan (Minimal) ×2/linux_boot#13/RegWriteCorruption@3550 × BNSD·socket: Tuple { outcome: GoodTrap, mismatch: None, volume: Some((56088, 84600, 48793)), localized: None, flight: None, link: (false, false) }",
            "g/NutShell/linux_boot#256/RegWriteCorruption@3000 × BNSD: Tuple { outcome: GoodTrap, mismatch: None, volume: Some((102528, 44366, 12750)), localized: None, flight: None, link: (false, false) }",
            "g/NutShell/linux_boot#777/RegWriteCorruption@3600 × BNSD: Tuple { outcome: GoodTrap, mismatch: None, volume: Some((103192, 44661, 13276)), localized: None, flight: None, link: (false, false) }",
            "g/NutShell/linux_boot#901/RegWriteCorruption@1250 × BNSD: Tuple { outcome: GoodTrap, mismatch: None, volume: Some((104131, 44969, 12785)), localized: None, flight: None, link: (false, false) }",
            "g/XiangShan (Minimal) ×2/linux_boot#7/RegWriteCorruption@2000 × BNSD: Tuple { outcome: GoodTrap, mismatch: None, volume: Some((56443, 84792, 45433)), localized: None, flight: None, link: (false, false) }",
            "g/XiangShan (Minimal) ×2/linux_boot#640/RegWriteCorruption@5100 × BNSD: Tuple { outcome: GoodTrap, mismatch: None, volume: Some((57461, 86838, 52883)), localized: None, flight: None, link: (false, false) }",
        ],
    ),
];

/// Holds one row's cells to every oracle. A broken checker oracle is a
/// failure unless `ALLOW` holds the cell as measured, which goes into
/// `allowed`.
fn check_row(row: &Row, cells: &[(Column, Tuple)], allowed: &mut BTreeSet<String>) -> Vec<String> {
    let mut failures = Vec::new();
    let mut judge = |oracle: Oracle, c: &Column, t: &Tuple, ok: bool| {
        let key = format!("{} × {}: {t:?}", row.name, c.name);
        if ok {
            return;
        }
        let blind = ALLOW.iter().any(|(_, cells)| cells.contains(&key.as_str()));
        if blind && oracle != Oracle::RunnerAgreement {
            allowed.insert(key);
        } else {
            failures.push(format!("{oracle:?} broken at {key}"));
        }
    };
    let cell = |c: Column| cells.iter().find(|(k, _)| *k == c).map(|(_, t)| t);
    let (clean, faulted) = (row.bugs.is_empty(), row.plan.is_some_and(|p| !p.is_clean()));

    for (engine, socket) in [(BN, BN_SOCK), (BNSD, BNSD_SOCK)] {
        let recovers = row.plan.is_some() && engine.config.squash();
        if let (Some(e), Some(s), false) = (cell(engine), cell(socket), recovers) {
            let mut shared = e.clone();
            shared.localized = None;
            judge(Oracle::RunnerAgreement, &socket, s, *s == shared);
        }
    }

    let expected = if clean { GoodTrap } else { Mismatch };
    let length = |t: &Tuple| t.volume.map(|v| (v.0, v.1));
    let first_engine = cells.iter().find(|(c, _)| c.runner == Engine);
    for (c, t) in cells {
        let flight = t.flight.as_ref();
        let diagnosed = match t.outcome {
            Mismatch => flight.is_some_and(|f| f.mismatch),
            LinkError { .. } => flight.is_some_and(|f| f.link_error) && t.link == (true, true),
            _ => flight.is_none(),
        };
        judge(Oracle::Diagnosable, c, t, diagnosed);

        let (detected, injected) = t.link;
        let typed = matches!(t.outcome, GoodTrap | LinkError { .. }) && t.mismatch.is_none();
        let contained = (typed || !faulted) && (injected || !detected);
        judge(Oracle::Containment, c, t, contained);
        if faulted {
            continue;
        }
        judge(Oracle::ConfigAgreement, c, t, t.outcome == expected);
        if clean && c.runner == Engine {
            let same = first_engine.is_none_or(|(_, f)| length(f) == length(t));
            judge(Oracle::VolumeAgreement, c, t, same);
        }
    }

    let unfused = cells.iter().find(|(c, _)| !c.config.squash());
    let unfused = unfused
        .and_then(|(_, t)| t.mismatch.as_ref())
        .map(|m| m.seq);
    for (c, t) in cells.iter().filter(|(c, _)| !clean && c.runner == Engine) {
        let (pinned, partial) = t.localized.clone().unwrap_or((None, false));
        let ok = match (c.config.squash(), c.replay) {
            (false, _) => pinned == t.mismatch.as_ref().map(|m| (m.seq, m.check.clone())),
            (true, true) => !partial && pinned.is_some_and(|p| unfused.is_none_or(|u| u == p.0)),
            (true, false) => {
                pinned.is_none() && cell(BNSD).is_none_or(|r| r.mismatch == t.mismatch)
            }
        };
        judge(Oracle::Localization, c, t, ok);
    }
    failures
}

/// Runs every cell of `rows` × `columns` and checks each row. Every
/// `ALLOW` cell whose row and column ran must still be observed: a blind
/// spot that closes leaves the list.
fn conform(rows: Vec<Row>, columns: &[Column]) {
    let (mut failures, mut allowed, mut reached) = (Vec::new(), BTreeSet::new(), Vec::new());
    for row in &rows {
        let cells: Vec<(Column, Tuple)> = columns.iter().map(|c| (*c, verdict(row, c))).collect();
        reached.extend(
            columns
                .iter()
                .map(|c| format!("{} × {}: ", row.name, c.name)),
        );
        failures.extend(check_row(row, &cells, &mut allowed));
    }
    for cell in ALLOW.iter().flat_map(|(_, cells)| *cells) {
        let here = reached.iter().any(|k| cell.starts_with(k.as_str()));
        if here && !allowed.contains(*cell) {
            failures.push(format!("ALLOW cell no longer observed: {cell}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// XiangShan Minimal on two cores: one stream interleaves both cores.
fn dual() -> DutConfig {
    let mut dut = DutConfig::xiangshan_minimal();
    dut.cores = 2;
    dut
}

/// (a) The five clean presets on XiangShan Minimal.
fn presets() -> Vec<Row> {
    let presets = [
        Workload::microbench().iterations(60),
        Workload::linux_boot().iterations(60),
        Workload::spec_like().iterations(60),
        Workload::mmio_heavy().iterations(120),
        Workload::trap_heavy().iterations(120),
    ];
    let dut = DutConfig::xiangshan_minimal();
    presets
        .map(|p| row("a", &dut, p.seed(3).build(), Vec::new(), None))
        .into()
}

/// (a) A longer clean boot, with the Replay ring retaining all along.
fn clean_boot() -> Vec<Row> {
    let program = Workload::linux_boot().seed(13).iterations(150).build();
    vec![row(
        "a",
        &DutConfig::xiangshan_minimal(),
        program,
        Vec::new(),
        None,
    )]
}

/// The seeds a ten-case property test drew for clean microbenchmarks.
const CLEAN_SEEDS: [u64; 10] = [669, 388, 116, 75, 274, 346, 448, 801, 887, 763];

/// (b) Clean microbenchmarks.
fn microbench(dut: &DutConfig, seeds: &[u64]) -> Vec<Row> {
    let program = |seed| Workload::microbench().seed(seed).iterations(40).build();
    (seeds.iter())
        .map(|&s| row("b", dut, program(s), Vec::new(), None))
        .collect()
}

/// The `(seed, trigger)` pairs a ten-case property test drew for boot
/// programs with one corrupted register write.
const CORRUPTION_DRAWS: [(u64, u64); 10] = [
    (368, 2917),
    (955, 4069),
    (565, 1960),
    (934, 4205),
    (168, 2742),
    (859, 1763),
    (223, 3706),
    (514, 2384),
    (117, 2620),
    (13, 3550),
];

/// (c, g) Boot programs with one corrupted register write, armed at each
/// `(seed, trigger)`.
fn register_corruption(set: &str, dut: &DutConfig, cases: &[(u64, u64)]) -> Vec<Row> {
    let program = |seed| Workload::linux_boot().seed(seed).iterations(300).build();
    let bug = |at| vec![BugSpec::new(BugKind::RegWriteCorruption, at)];
    (cases.iter())
        .map(|&(s, at)| row(set, dut, program(s), bug(at), None))
        .collect()
}

/// (d, e) The catalog bugs of one Table 6 section on XiangShan Minimal,
/// each armed at every instruction count of `at`, on a boot program that
/// exercises every event class they corrupt (traps, stores, CSRs, vector,
/// floating point, refills).
fn catalog(set: &str, section: &str, seed: u64, at: &[u64]) -> Vec<Row> {
    let program = Workload::linux_boot().seed(seed).iterations(400).build();
    let kinds = bug_catalog().into_iter().map(|b| b.kind);
    (kinds.filter(|k| k.category().starts_with(section)))
        .map(|k| Row {
            name: format!("{set}/linux_boot#{seed}/{k:?}@{}", at[0]),
            dut: DutConfig::xiangshan_minimal(),
            program: program.clone(),
            bugs: at.iter().map(|&n| BugSpec::new(k, n)).collect(),
            plan: None,
        })
        .collect()
}

/// (d) Each bug armed once.
fn armed_once(section: &str) -> Vec<Row> {
    catalog("d", section, 13, &[8_000])
}

/// (e) Twelve triggers 250 instructions apart, as the benchmark's bug
/// sweep arms them. Trap-entry bugs are visible only in the state the
/// handler starts with, which Squash must still ship.
fn armed_twelve(section: &str) -> Vec<Row> {
    let at: Vec<u64> = (0..12).map(|i| 8_000 + i * 250).collect();
    catalog("e", section, 7006, &at)
}

/// The NutShell `microbench` #3 ×60 the fault rows share.
fn fault_row(plan: FaultPlan) -> Row {
    let program = Workload::microbench().seed(3).iterations(60).build();
    row("f", &DutConfig::nutshell(), program, Vec::new(), Some(plan))
}

/// (f) Seeded drop/duplicate/reorder/truncate/corrupt schedules from
/// gentle to hostile (40‰ of each is about one fault per five packets).
fn fault_grid() -> Vec<Row> {
    let plans = [11, 29, 4242].map(|seed| [5, 20, 40].map(|rate| FaultPlan::uniform(seed, rate)));
    plans.concat().into_iter().map(fault_row).collect()
}

/// The `(seed, rate)` pairs a ten-case property test drew for BN fault
/// plans: the microbenchmark's seed, from which the plan's is mixed.
const FAULT_DRAWS: [(u64, u16); 10] = [
    (948, 24),
    (579, 9),
    (276, 17),
    (243, 24),
    (48, 32),
    (474, 30),
    (437, 19),
    (719, 34),
    (836, 10),
    (142, 21),
];

/// (f) Microbenchmarks behind the drawn uniform plans.
fn drawn_faults(dut: &DutConfig) -> Vec<Row> {
    let program = |seed| Workload::microbench().seed(seed).iterations(60).build();
    let plan = |seed, rate| Some(FaultPlan::uniform(seed ^ 0x9e37, rate));
    (FAULT_DRAWS.iter())
        .map(|&(s, rate)| row("f", dut, program(s), Vec::new(), plan(s, rate)))
        .collect()
}

/// (f) A drop-only plan whose one drop is the stream's last packet: a loss
/// that only the end frame's produced count reveals.
fn tail_drop() -> Vec<Row> {
    let mut plan = FaultPlan::clean(60);
    plan.drop_per_mille = 5;
    let name = "f/NutShell/microbench#3/drop-last".into();
    vec![Row {
        name,
        ..fault_row(plan)
    }]
}

/// (f) A plan that injects nothing.
fn clean_plan() -> Vec<Row> {
    vec![fault_row(FaultPlan::clean(1))]
}

/// The row table: one test per row set, with the columns it runs. B
/// beside BNSD is the unfused reference a dead-write cell is told by.
macro_rules! row_sets {
    ($($test:ident: $rows:expr => $columns:expr;)*) => {$(
        #[test]
        fn $test() {
            conform($rows, &$columns);
        }
    )*};
}

row_sets! {
    a_clean_presets_under_every_config: presets() => [Z, B, BN, BNSD];
    a_clean_boot_with_replay_retaining: clean_boot() => [BNSD];
    b_clean_microbench_on_nutshell: microbench(&DutConfig::nutshell(), &CLEAN_SEEDS)
        => [BNSD, BNSD_SOCK];
    b_clean_microbench_on_two_cores: microbench(&dual(), &CLEAN_SEEDS) => [BNSD, BNSD_SOCK];
    b_clean_microbench_on_both_links: microbench(&DutConfig::nutshell(), &[11])
        => [BN, BN_SOCK, BNSD, BNSD_SOCK];
    c_register_corruption_on_nutshell:
        register_corruption("c", &DutConfig::nutshell(), &CORRUPTION_DRAWS)
        => [B, BNSD, BNSD_SOCK];
    c_register_corruption_on_two_cores: register_corruption("c", &dual(), &CORRUPTION_DRAWS)
        => [B, BNSD, BNSD_SOCK];
    c_register_corruption_on_both_links:
        register_corruption("c", &DutConfig::nutshell(), &[(7, 2_000)])
        => [BN, BN_SOCK, BNSD, BNSD_SOCK];
    d_exception_bugs_armed_once: armed_once("Exception") => [Z, BNSD, NO_REPLAY];
    d_memory_bugs_armed_once: armed_once("Memory") => [Z, BNSD, NO_REPLAY];
    d_vector_and_control_bugs_armed_once: armed_once("Vector") => [Z, BNSD, NO_REPLAY];
    e_exception_bugs_armed_twelve_times: armed_twelve("Exception") => [B, BNSD];
    e_memory_bugs_armed_twelve_times: armed_twelve("Memory") => [B, BNSD];
    e_vector_and_control_bugs_armed_twelve_times: armed_twelve("Vector") => [B, BNSD];
    f_a_fault_grid_on_the_engine: fault_grid() => [B, BN, BNSD];
    f_a_fault_grid_on_both_runners: fault_grid() => [BN, BN_SOCK];
    f_a_fault_grid_on_the_socket: fault_grid() => [BNSD_SOCK];
    f_drawn_fault_plans_on_nutshell: drawn_faults(&DutConfig::nutshell()) => [BN, BN_SOCK];
    f_drawn_fault_plans_on_two_cores: drawn_faults(&dual()) => [BN, BN_SOCK];
    f_a_lost_last_packet_on_both_runners: tail_drop() => [BN, BN_SOCK];
    f_a_clean_plan_on_the_socket: clean_plan() => [BNSD_SOCK];
    g_dead_register_writes_on_nutshell:
        register_corruption("g", &DutConfig::nutshell(), &[(256, 3_000), (777, 3_600), (901, 1_250)])
        => [B, BNSD];
    g_dead_register_writes_on_two_cores:
        register_corruption("g", &dual(), &[(7, 2_000), (640, 5_100)]) => [B, BNSD];
}
