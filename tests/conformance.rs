//! The conformance matrix: the checker's verdict does not depend on the
//! transport, the optimization level or Replay (Batch, Squash and the
//! non-blocking link change communication, never semantics: §4.2–4.5).
//!
//! A cell is a [`Row`] (design, program, bugs, fault plan) run under a
//! [`Column`] (configuration, runner, Replay) by [`verdict`];
//! [`check_row`] holds it to every [`Oracle`]. A cell that breaks a
//! checker oracle fails unless [`ALLOW`] pins its measured tuple: that list
//! is the measured statement of what the checker does not see. Each row set
//! is a `#[test]`, the catalog ones split by Table 6 section. Clean-run,
//! buggy-run and fault-grid agreement between the runners, and tracing
//! agreement, are still the pairwise suites' (`runner_equivalence`,
//! `socket_runner`, `fault_runners`, `span_tracing`); their rows join this
//! table as those suites retire.

use std::collections::BTreeSet;

use difftest_h::core::{
    run_session, DiffConfig, FaultPlan, RunOutcome, RunnerKind, RunnerReport, Session,
};
use difftest_h::dut::{bug_catalog, BugSpec, DutConfig};
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
const NO_REPLAY: Column = col("BNSD·no-replay", DiffConfig::BNSD, Engine, false);

/// What a cell concluded. `volume` is `(cycles, instructions, items)`,
/// kept only when the run ended `GoodTrap` or `MaxCycles`: after an early
/// stop the socket producer's fields depend on timing. `localized` is the
/// engine's failure report: the precise `(seq, check)` and whether Replay
/// ran on a partial range.
#[derive(Debug, Clone, PartialEq)]
struct Tuple {
    outcome: RunOutcome,
    mismatch: Option<(u8, u64, String)>,
    volume: Option<(u64, u64, u64)>,
    localized: Option<(Option<(u64, String)>, bool)>,
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
    let whole = matches!(r.outcome, GoodTrap | MaxCycles);
    Tuple {
        outcome: r.outcome,
        mismatch: (r.mismatch.as_ref()).map(|m| (m.core, m.seq, m.check.clone())),
        volume: whole.then_some((r.cycles, r.instructions, r.items)),
        localized: failure.map(|f| (f.precise.map(|p| (p.seq, p.check)), f.partial)),
    }
}

/// The properties every cell is held to, each stated once.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Oracle {
    /// The socket's tuple equals the engine's on BN, where neither runner
    /// recovers a fault. Not a checker blind spot: `ALLOW` never excuses it.
    RunnerAgreement,
    /// On a link that injects nothing, every configuration reaches the
    /// row's outcome: each armed bug is caught, a clean run traps.
    ConfigAgreement,
    /// An unfused stream's mismatch is already precise; BNSD's Replay pins
    /// the unfused stream's instruction over a whole range; without Replay,
    /// BNSD reports the same mismatch and localizes nothing.
    Localization,
    /// A faulted cell ends `GoodTrap` or a typed `LinkError`.
    Containment,
}

/// Known blind spots, by reason. Each cell is `row × column: tuple` as
/// measured, one per column it stands for.
const ALLOW: &[(&str, &[&str])] = &[(
    "Squash subsumes redirect events into the fused commit stream, so a corruption of \
     only the redirect payload never reaches the checker (DESIGN.md §3.5)",
    &[
        "d/linux_boot#13/RedirectCorruption@8000 × BNSD: Tuple { outcome: GoodTrap, mismatch: None, volume: Some((74983, 56426, 32552)), localized: None }",
        "d/linux_boot#13/RedirectCorruption@8000 × BNSD·no-replay: Tuple { outcome: GoodTrap, mismatch: None, volume: Some((74983, 56426, 32552)), localized: None }",
        "e/linux_boot#7006/RedirectCorruption@8000 × BNSD: Tuple { outcome: GoodTrap, mismatch: None, volume: Some((77341, 58435, 33666)), localized: None }",
    ],
)];

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

    if let (Some(e), Some(s)) = (cell(BN), cell(BN_SOCK)) {
        let mut shared = e.clone();
        shared.localized = None;
        judge(Oracle::RunnerAgreement, &BN_SOCK, s, *s == shared);
    }

    let expected = if clean { GoodTrap } else { Mismatch };
    for (c, t) in cells {
        if faulted {
            let typed = matches!(t.outcome, GoodTrap | LinkError { .. });
            judge(Oracle::Containment, c, t, typed);
        } else {
            judge(Oracle::ConfigAgreement, c, t, t.outcome == expected);
        }
    }

    let unfused = cells.iter().find(|(c, _)| !c.config.squash());
    let unfused = unfused.and_then(|(_, t)| t.mismatch.as_ref()).map(|m| m.1);
    for (c, t) in cells.iter().filter(|(c, _)| !clean && c.runner == Engine) {
        let (pinned, partial) = t.localized.clone().unwrap_or((None, false));
        let ok = match (c.config.squash(), c.replay) {
            (false, _) => pinned == t.mismatch.as_ref().map(|m| (m.1, m.2.clone())),
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

/// The catalog bugs of one Table 6 section on XiangShan Minimal, each armed
/// at every instruction count of `at`, on a boot program that exercises
/// every event class they corrupt (traps, stores, CSRs, vector, floating
/// point, refills).
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

/// (f) A drop-only plan whose one drop is the stream's last packet: a loss
/// that only the end frame's produced count reveals.
fn tail_drop() -> Vec<Row> {
    let mut plan = FaultPlan::clean(60);
    plan.drop_per_mille = 5;
    vec![Row {
        name: "f/NutShell/microbench#3/drop-last".into(),
        dut: DutConfig::nutshell(),
        program: Workload::microbench().seed(3).iterations(60).build(),
        bugs: Vec::new(),
        plan: Some(plan),
    }]
}

/// The row table: one test per row set and catalog section, with the
/// columns it runs.
macro_rules! row_sets {
    ($($test:ident: $rows:expr => $columns:expr;)*) => {$(
        #[test]
        fn $test() {
            conform($rows, &$columns);
        }
    )*};
}

row_sets! {
    d_exception_bugs_armed_once: armed_once("Exception") => [Z, BNSD, NO_REPLAY];
    d_memory_bugs_armed_once: armed_once("Memory") => [Z, BNSD, NO_REPLAY];
    d_vector_and_control_bugs_armed_once: armed_once("Vector") => [Z, BNSD, NO_REPLAY];
    e_exception_bugs_armed_twelve_times: armed_twelve("Exception") => [B, BNSD];
    e_memory_bugs_armed_twelve_times: armed_twelve("Memory") => [B, BNSD];
    e_vector_and_control_bugs_armed_twelve_times: armed_twelve("Vector") => [B, BNSD];
    f_a_lost_last_packet_on_both_runners: tail_drop() => [BN, BN_SOCK];
}
