//! Host hot-path throughput baseline: events/sec and simulated-cycles/sec
//! per runner × {Batch, Squash} × {clean, faulty link}, with the seven-phase
//! PhaseTimer breakdown, on the 6-wide XiangShan (Default) DUT.
//!
//! Unlike the paper-table benches (which report *simulated* co-simulation
//! speed), this bench measures the *host* — how fast the software side
//! unpacks and checks the event stream. The figure of merit is
//! `uc_events_per_sec`: checked events divided by the wall time attributed
//! to the unpack+check phases alone (see DESIGN.md §11).
//!
//! Modes:
//!   (none)               print the table, touch nothing
//!   --test               short smoke run (CI), no recording
//!   --record <path>      full run; refresh the `current` section of the
//!                        artifact, preserving its committed `baseline`
//!                        (first recording writes baseline = current)
//!   --compare <path>     full run of the gated (engine + socket)
//!                        scenarios; fail when events_per_sec regresses
//!                        more than DIFFTEST_BENCH_TOL percent (default
//!                        10) vs the artifact's `current` section

use std::time::Instant;

use difftest_bench::record::{
    extract_num, extract_object, render_artifact, render_section, ScenarioStats,
};
use difftest_bench::Table;
use difftest_core::engine::DiffConfig;
use difftest_core::{run_session, CoSimulation, FaultPlan, RunOutcome, RunnerKind, Session};
use difftest_dut::DutConfig;
use difftest_platform::Platform;
use difftest_stats::{Metrics, Phase, TRACE_ENV};
use difftest_workload::Workload;

const FULL_CYCLES: u64 = 150_000;
const SMOKE_CYCLES: u64 = 20_000;
const QUEUE_DEPTH: usize = 64;
const WORKLOAD_SEED: u64 = 7;
/// Large enough that the cycle budget, not the good trap, ends the run.
const WORKLOAD_ITERS: u32 = 1_000_000;
const FAULT_SEED: u64 = 9;
const FAULT_PER_MILLE: u16 = 5;

fn workload() -> Workload {
    Workload::microbench()
        .seed(WORKLOAD_SEED)
        .iterations(WORKLOAD_ITERS)
        .build()
}

/// The REF execution-cache counters every scenario surfaces (see
/// DESIGN.md §10/§13): the block trace-cache tier and the per-insn
/// decode-cache tier, including their invalidation traffic.
const CACHE_KEYS: [&str; 11] = [
    "block.hits",
    "block.misses",
    "block.store_invalidations",
    "block.flushes",
    "block.early_exits",
    "block.completed",
    "block.uop_steps",
    "decode.hits",
    "decode.misses",
    "decode.store_invalidations",
    "decode.flushes",
];

fn phase_stats(metrics: &Metrics, s: &mut ScenarioStats) {
    // Dormant-tracing guarantee (DESIGN.md §15): the gated baselines
    // are recorded with span tracing off, so a run that silently
    // started accounting spans would invalidate every comparison.
    if std::env::var_os(TRACE_ENV).is_none() {
        assert_eq!(
            metrics.counters.get("trace.spans_recorded"),
            0,
            "bench scenario ran with span tracing active"
        );
    }
    s.pack_ns = metrics.phases.get(Phase::Pack);
    s.unpack_ns = metrics.phases.get(Phase::Unpack);
    s.check_ns = metrics.phases.get(Phase::Check);
    s.phases = metrics
        .phases
        .iter()
        .map(|(p, ns)| (p.name(), ns))
        .collect();
    s.caches = CACHE_KEYS
        .iter()
        .map(|&k| (k, metrics.counters.get(k)))
        .collect();
}

fn ok_outcome(outcome: &RunOutcome, faulty: bool) -> bool {
    matches!(outcome, RunOutcome::GoodTrap | RunOutcome::MaxCycles)
        || (faulty && matches!(outcome, RunOutcome::LinkError { .. }))
}

fn run_engine(config: DiffConfig, faulty: bool, cycles: u64, w: &Workload) -> ScenarioStats {
    let mut b = CoSimulation::builder()
        .dut(DutConfig::xiangshan_default())
        .platform(Platform::palladium())
        .config(config)
        .max_cycles(cycles);
    if faulty {
        b = b.fault_plan(FaultPlan::uniform(FAULT_SEED, FAULT_PER_MILLE));
    }
    let mut sim = b.build(w).expect("bench setup is valid");
    let start = Instant::now();
    let report = sim.run();
    let wall_ns = start.elapsed().as_nanos() as u64;
    assert!(
        ok_outcome(&report.outcome, faulty),
        "engine bench run diverged: {:?}",
        report.outcome
    );
    let mut s = ScenarioStats {
        events: report.check.events,
        instructions: report.instructions,
        cycles: report.cycles,
        wall_ns,
        ..Default::default()
    };
    phase_stats(&report.metrics, &mut s);
    s.finish()
}

/// Every wall-clock substrate through the one dispatch entry point: the
/// reports share [`RunCommon`](difftest_core::RunCommon), so the bench
/// reads the same fields whichever runner produced them.
fn run_parallel(kind: RunnerKind, faulty: bool, cycles: u64, w: &Workload) -> ScenarioStats {
    run_parallel_cfg(kind, DiffConfig::BNSD, faulty, cycles, w)
}

fn run_parallel_cfg(
    kind: RunnerKind,
    config: DiffConfig,
    faulty: bool,
    cycles: u64,
    w: &Workload,
) -> ScenarioStats {
    let plan = faulty.then(|| FaultPlan::uniform(FAULT_SEED, FAULT_PER_MILLE));
    let r = run_session(
        kind,
        Session::new(
            DutConfig::xiangshan_default(),
            config,
            w,
            Vec::new(),
            cycles,
            QUEUE_DEPTH,
            plan,
        ),
    );
    assert!(
        ok_outcome(&r.outcome, faulty),
        "{kind} bench run diverged: {:?}",
        r.outcome
    );
    let (wall_s, _) = r.wall().expect("parallel runners measure wall time");
    let mut s = ScenarioStats {
        events: r.items,
        instructions: r.instructions,
        cycles: r.cycles,
        wall_ns: (wall_s * 1e9) as u64,
        ..Default::default()
    };
    phase_stats(&r.metrics, &mut s);
    s.finish()
}

/// Raw REF stepping microbench: the same workload image stepped directly
/// through `RefModel` with block-compiled execution on or off — the
/// `ref/blocks/{on,off}` pair isolates the block cache's win from the
/// rest of the pipeline. The model runs as the checker runs it: journal
/// enabled (replay support), checkpointing and pruning on a fused-window
/// cadence. All wall time is REF stepping, so it is attributed to the
/// check phase and `uc_events_per_sec` is meaningful.
fn run_ref_steps(blocks_on: bool, cycles: u64, w: &Workload) -> ScenarioStats {
    use difftest_ref::{Memory, RefModel};
    // A cycle budget feeds the 6-wide DUT multiple commits per cycle;
    // step a comparable instruction count through the bare REF.
    let steps = (cycles as usize) * 8;
    const WINDOW: usize = 1024;
    let mut mem = Memory::new();
    mem.load_words(Memory::RAM_BASE, w.words());
    let mut m = RefModel::new(mem);
    m.set_block_mode(blocks_on);
    m.set_journal_enabled(true);
    let start = Instant::now();
    for i in 0..steps {
        if i % WINDOW == 0 {
            m.checkpoint();
            m.prune_checkpoints(2);
        }
        m.step();
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let blocks = m.block_cache_stats();
    let decode = m.decode_cache_stats();
    let mut s = ScenarioStats {
        events: steps as u64,
        instructions: m.state().instret(),
        cycles,
        wall_ns,
        check_ns: wall_ns,
        ..Default::default()
    };
    s.phases = Phase::ALL.iter().map(|p| (p.name(), 0)).collect();
    s.phases[Phase::Check as usize].1 = wall_ns;
    s.caches = CACHE_KEYS
        .iter()
        .map(|&k| {
            let v = match k {
                "block.hits" => blocks.hits,
                "block.misses" => blocks.misses,
                "block.store_invalidations" => blocks.store_invalidations,
                "block.flushes" => blocks.flushes,
                "block.early_exits" => blocks.early_exits,
                "block.completed" => blocks.completed,
                "block.uop_steps" => blocks.uop_steps,
                "decode.hits" => decode.hits,
                "decode.misses" => decode.misses,
                "decode.store_invalidations" => decode.store_invalidations,
                "decode.flushes" => decode.flushes,
                _ => unreachable!(),
            };
            (k, v)
        })
        .collect();
    s.finish()
}

/// `(name, gated, closure)` for every scenario of the artifact. Gated
/// scenarios (the engine's, whose virtual-time runs are steady enough
/// to gate on, plus the socket clean run the CI smoke watches) are the
/// ones `--compare` measures and enforces.
type Runner = Box<dyn Fn(u64, &Workload) -> ScenarioStats>;

fn scenarios() -> Vec<(&'static str, bool, Runner)> {
    vec![
        (
            "engine/batch/clean",
            true,
            Box::new(|c, w| run_engine(DiffConfig::B, false, c, w)),
        ),
        (
            "engine/squash/clean",
            true,
            Box::new(|c, w| run_engine(DiffConfig::BNSD, false, c, w)),
        ),
        (
            "engine/batch/faults",
            true,
            Box::new(|c, w| run_engine(DiffConfig::B, true, c, w)),
        ),
        (
            "engine/squash/faults",
            true,
            Box::new(|c, w| run_engine(DiffConfig::BNSD, true, c, w)),
        ),
        (
            "threaded/squash/clean",
            false,
            Box::new(|c, w| run_parallel(RunnerKind::Threaded, false, c, w)),
        ),
        (
            "threaded/squash/faults",
            false,
            Box::new(|c, w| run_parallel(RunnerKind::Threaded, true, c, w)),
        ),
        (
            "sharded/squash/clean",
            false,
            Box::new(|c, w| run_parallel(RunnerKind::Sharded, false, c, w)),
        ),
        (
            "sharded/squash/faults",
            false,
            Box::new(|c, w| run_parallel(RunnerKind::Sharded, true, c, w)),
        ),
        (
            "socket/squash/clean",
            true,
            Box::new(|c, w| run_parallel(RunnerKind::Socket, false, c, w)),
        ),
        (
            "socket/squash/faults",
            false,
            Box::new(|c, w| run_parallel(RunnerKind::Socket, true, c, w)),
        ),
        // The batch (BN) run ships ~5x the events of the Squash one,
        // so unpack+check weigh most against the producer here.
        (
            "threaded/batch/clean",
            false,
            Box::new(|c, w| run_parallel_cfg(RunnerKind::Threaded, DiffConfig::BN, false, c, w)),
        ),
        (
            "ref/blocks/on",
            true,
            Box::new(|c, w| run_ref_steps(true, c, w)),
        ),
        (
            "ref/blocks/off",
            false,
            Box::new(|c, w| run_ref_steps(false, c, w)),
        ),
    ]
}

fn measure(cycles: u64, reps: usize, gated_only: bool) -> Vec<(String, ScenarioStats)> {
    let w = workload();
    let mut out = Vec::new();
    for (name, gated, f) in scenarios() {
        if gated_only && !gated {
            continue;
        }
        // Best-of-N damps scheduler noise. Select on the unpack+check
        // phase time (the figure-of-merit denominator) rather than total
        // wall: engine wall is dominated by DUT tick simulation, so the
        // best-wall rep is not necessarily the best hot-path rep.
        let mut best: Option<ScenarioStats> = None;
        for _ in 0..reps {
            let s = f(cycles, &w);
            let key = |x: &ScenarioStats| (x.unpack_ns + x.check_ns, x.wall_ns);
            if best.as_ref().is_none_or(|b| key(&s) < key(b)) {
                best = Some(s);
            }
        }
        out.push((name.to_owned(), best.expect("at least one rep")));
    }
    out
}

fn print_table(results: &[(String, ScenarioStats)]) {
    let mut table = Table::new(
        "Host hot-path throughput (6-wide XiangShan Default)",
        &[
            "scenario",
            "events",
            "events/s",
            "cycles/s",
            "pack ms",
            "unpack ms",
            "check ms",
            "u+c ev/s",
        ],
    );
    for (name, s) in results {
        table.row(&[
            name.clone(),
            s.events.to_string(),
            format!("{:.0}", s.events_per_sec),
            format!("{:.0}", s.cycles_per_sec),
            format!("{:.2}", s.pack_ns as f64 / 1e6),
            format!("{:.2}", s.unpack_ns as f64 / 1e6),
            format!("{:.2}", s.check_ns as f64 / 1e6),
            format!("{:.0}", s.uc_events_per_sec),
        ]);
    }
    println!("{table}");
}

fn meta() -> Vec<(&'static str, String)> {
    vec![
        ("dut", "xiangshan_default (6-wide commit)".to_owned()),
        (
            "workload",
            format!("microbench seed={WORKLOAD_SEED} (cycle-budget bounded)"),
        ),
        ("cycles_budget", FULL_CYCLES.to_string()),
        (
            "note",
            "uc_events_per_sec = events / (unpack_ns + check_ns); \
             baseline is frozen at first recording, current refreshes on \
             every `make bench-record`"
                .to_owned(),
        ),
    ]
}

fn record(path: &str) {
    let results = measure(FULL_CYCLES, 5, false);
    print_table(&results);
    let current = render_section(&results);
    let baseline = match std::fs::read_to_string(path) {
        Ok(existing) => extract_object(&existing, "baseline")
            .map(str::to_owned)
            .unwrap_or_else(|| current.clone()),
        Err(_) => current.clone(),
    };
    let doc = render_artifact(&meta(), &baseline, &current);
    std::fs::write(path, &doc).expect("write artifact");
    println!("recorded {} scenarios to {path}", results.len());
    // Convenience: print the headline before/after on the 6-wide Squash run.
    let key = "engine/squash/clean";
    if let (Some(b), Some(c)) = (
        extract_object(&baseline, key).and_then(|o| extract_num(o, "uc_events_per_sec")),
        extract_object(&current, key).and_then(|o| extract_num(o, "uc_events_per_sec")),
    ) {
        println!("{key}: unpack+check {b:.0} -> {c:.0} ev/s ({:.2}x)", c / b);
    }
}

fn compare(path: &str) {
    let tol: f64 = std::env::var("DIFFTEST_BENCH_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10.0);
    let committed = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_compare: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let current = extract_object(&committed, "current").unwrap_or_else(|| {
        eprintln!("bench_compare: {path} has no `current` section");
        std::process::exit(2);
    });
    let results = measure(FULL_CYCLES, 5, true);
    print_table(&results);
    let mut failed = false;
    for (name, s) in &results {
        let Some(obj) = extract_object(current, name) else {
            println!("{name}: not in committed artifact, skipping");
            continue;
        };
        let Some(rec) = extract_num(obj, "events_per_sec") else {
            println!("{name}: no events_per_sec in committed artifact, skipping");
            continue;
        };
        // Faulty non-ARQ runs stop on the first unrecoverable link error
        // after a handful of events — their rates are too noisy to gate on.
        if extract_num(obj, "events").unwrap_or(0.0) < 10_000.0 {
            println!("{name}: recorded run too short to gate on, skipping");
            continue;
        }
        let delta_pct = (s.events_per_sec - rec) / rec.max(1e-9) * 100.0;
        let verdict = if delta_pct < -tol {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "{name}: {:.0} ev/s vs recorded {rec:.0} ({delta_pct:+.1}%) {verdict}",
            s.events_per_sec
        );
        // Producer-side gate: the push-encode pack phase must not
        // silently regress either (skipped where the recorded run has
        // no consumer-visible pack attribution, e.g. the ref scenarios
        // and runners whose producer runs in another thread/process).
        let rec_pack = extract_num(obj, "pack_ns").unwrap_or(0.0);
        if rec_pack > 1e6 && s.pack_ns > 0 {
            let pack_delta_pct = (s.pack_ns as f64 - rec_pack) / rec_pack * 100.0;
            let verdict = if pack_delta_pct > tol {
                failed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "{name}: pack {:.0} ms vs recorded {:.0} ms ({pack_delta_pct:+.1}%) {verdict}",
                s.pack_ns as f64 / 1e6,
                rec_pack / 1e6
            );
        }
    }
    if failed {
        eprintln!("bench_compare: events/sec regressed more than {tol}% — rerun `make bench-record` if intentional");
        std::process::exit(1);
    }
    println!("bench_compare: within {tol}% of {path}");
}

/// Anchors relative artifact paths at the workspace root: cargo runs
/// bench executables with the *package* directory as CWD, but the
/// artifact lives (and is committed) at the repo root.
fn resolve(path: &str) -> String {
    if std::path::Path::new(path).is_absolute() {
        return path.to_owned();
    }
    format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"))
}

fn main() {
    // MUST be first: the socket scenarios re-execute this binary as
    // their consumer process, which diverges here.
    difftest_core::child_entry();
    let args: Vec<String> = std::env::args().collect();
    let flag = |f: &str| args.iter().position(|a| a == f);
    if let Some(i) = flag("--record") {
        record(&resolve(
            args.get(i + 1).map_or("BENCH_hotpath.json", |s| s),
        ));
    } else if let Some(i) = flag("--compare") {
        compare(&resolve(
            args.get(i + 1).map_or("BENCH_hotpath.json", |s| s),
        ));
    } else if flag("--test").is_some() {
        // CI smoke: every scenario completes at a short cycle budget.
        let results = measure(SMOKE_CYCLES, 1, false);
        print_table(&results);
        assert_eq!(results.len(), scenarios().len());
        println!("hotpath smoke: {} scenarios ok", results.len());
    } else {
        print_table(&measure(FULL_CYCLES, 2, false));
    }
}
