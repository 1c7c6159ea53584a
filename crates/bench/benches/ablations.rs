//! Ablation studies for the design choices DESIGN.md §6 calls out:
//!
//! 1. packet-capacity sweep (transmission-level packing),
//! 2. fusion-window sweep (Squash fusion depth),
//! 3. order-coupled vs order-decoupled fusion under rising NDE pressure
//!    (the paper's Fig. 8 motivation: I/O-heavy workloads break coupled
//!    fusion), and
//! 4. differencing on/off (data-volume contribution of XOR differencing),
//! 5. fixed-offset vs tight packing (paper §4.2.1: fixed-offset padding
//!    leaves >60% bubbles and needs ~1.67x more communications),
//! 6. Replay vs whole-DUT snapshot debugging (paper Fig. 10).

use difftest_bench::{boot_workload, fmt_hz, fmt_pct, Table, BENCH_CYCLES};
use difftest_core::batch::{BatchUnit, FixedOffsetPacker};
use difftest_core::snapshot::snapshot_debug_run;
use difftest_core::{CoSimulation, DiffConfig, RunOutcome, Session, WireItem};
use difftest_dut::{BugKind, BugSpec};
use difftest_dut::{Dut, DutConfig};
use difftest_platform::Platform;
use difftest_ref::Memory;
use difftest_workload::Workload;

/// XiangShan default on Palladium, BNSD, for [`BENCH_CYCLES`].
fn session(workload: &Workload, bugs: Vec<BugSpec>) -> Session {
    Session::new(
        DutConfig::xiangshan_default(),
        DiffConfig::BNSD,
        workload,
        bugs,
        BENCH_CYCLES,
        8,
        None,
    )
    .with_platform(Platform::palladium())
}

fn run_with(
    workload: &Workload,
    configure: impl FnOnce(Session) -> Session,
) -> difftest_core::RunReport {
    let session = configure(session(workload, Vec::new()));
    let mut sim = CoSimulation::new(session).expect("valid setup");
    let report = sim.run();
    assert!(
        matches!(report.outcome, RunOutcome::GoodTrap | RunOutcome::MaxCycles),
        "ablation run diverged: {:?}",
        report.outcome
    );
    report
}

fn main() {
    let workload = boot_workload();
    println!("Ablations (XiangShan default on Palladium, BNSD unless noted)\n");

    // 1. Packet capacity sweep.
    let mut t = Table::new(
        "Packet capacity sweep",
        &["Capacity", "Transfers", "Speed", "Comm overhead"],
    );
    for cap in [1024usize, 2048, 4096, 8192, 16384] {
        let r = run_with(&workload, |s| s.with_packet_bytes(cap));
        t.row(&[
            format!("{cap} B"),
            format!("{}", r.invokes),
            fmt_hz(r.speed_hz),
            fmt_pct(r.comm_overhead_fraction()),
        ]);
    }
    println!("{t}");

    // 2. Fusion window sweep.
    let mut t = Table::new(
        "Fusion window sweep",
        &["Window", "Fusion ratio", "Bytes", "Speed"],
    );
    for window in [4u32, 8, 16, 32, 64, 128] {
        let r = run_with(&workload, |s| s.with_fusion_window(window));
        t.row(&[
            format!("{window}"),
            format!("{:.1}", r.squash.map(|s| s.fusion_ratio()).unwrap_or(0.0)),
            format!("{}", r.bytes),
            fmt_hz(r.speed_hz),
        ]);
    }
    println!("{t}");

    // 3. Order-coupled vs decoupled fusion under rising NDE pressure.
    let mut t = Table::new(
        "Order semantics: coupled vs decoupled fusion (paper Fig. 8)",
        &[
            "Workload",
            "Coupled ratio",
            "Decoupled ratio",
            "NDE breaks",
            "Coupled speed",
            "Decoupled speed",
        ],
    );
    for (name, w) in [
        (
            "microbench (no NDEs)",
            Workload::microbench().seed(5).iterations(600).build(),
        ),
        ("linux_boot", boot_workload()),
        (
            "mmio_heavy",
            Workload::mmio_heavy().seed(5).iterations(900).build(),
        ),
    ] {
        let coupled = run_with(&w, |s| s.with_order_coupled(true));
        let decoupled = run_with(&w, |s| s.with_order_coupled(false));
        t.row(&[
            name.to_owned(),
            format!(
                "{:.1}",
                coupled.squash.map(|s| s.fusion_ratio()).unwrap_or(0.0)
            ),
            format!(
                "{:.1}",
                decoupled.squash.map(|s| s.fusion_ratio()).unwrap_or(0.0)
            ),
            format!("{}", coupled.squash.map(|s| s.nde_breaks).unwrap_or(0)),
            fmt_hz(coupled.speed_hz),
            fmt_hz(decoupled.speed_hz),
        ]);
    }
    println!("{t}");

    // 4. Differencing on/off.
    let with = run_with(&workload, |s| s.with_differencing(true));
    let without = run_with(&workload, |s| s.with_differencing(false));
    let mut t = Table::new(
        "Differencing contribution",
        &["Differencing", "Bytes transferred", "Speed"],
    );
    t.row(&[
        "on".to_owned(),
        format!("{}", with.bytes),
        fmt_hz(with.speed_hz),
    ]);
    t.row(&[
        "off".to_owned(),
        format!("{}", without.bytes),
        fmt_hz(without.speed_hz),
    ]);
    println!("{t}");
    println!(
        "differencing removes {} of squashed traffic",
        fmt_pct(1.0 - with.bytes as f64 / without.bytes as f64)
    );

    // 5. Structural semantics: fixed-offset vs tight packing over the same
    //    recorded event stream.
    let mut image = Memory::new();
    image.load_words(Memory::RAM_BASE, workload.words());
    let dut_cfg = DutConfig::xiangshan_default();
    let mut fixed = FixedOffsetPacker::new(dut_cfg.slots.clone(), dut_cfg.cores);
    let mut tight = BatchUnit::new(dut_cfg.cores as usize, 4096);
    let mut dut = Dut::new(dut_cfg, &image, Vec::new());
    let mut fixed_bytes = 0u64;
    let mut packets = Vec::new();
    while dut.halted().is_none() && dut.cycles() < 60_000 {
        let out = dut.tick();
        if !out.events.is_empty() {
            fixed_bytes += fixed.pack_cycle(&out.events).len() as u64;
        }
        let items: Vec<WireItem> = out
            .events
            .iter()
            .map(|e| WireItem::Plain {
                core: e.core,
                event: e.event.clone(),
            })
            .collect();
        tight.push_cycle(&items, &mut packets);
    }
    packets.clear();
    tight.flush(&mut packets);
    let tight_bytes = tight.stats().bytes;
    let mut t = Table::new(
        "Structural semantics: fixed-offset vs tight packing (paper §4.2.1)",
        &["Scheme", "Bytes on wire", "4 KiB packets", "Bubbles"],
    );
    t.row(&[
        "fixed-offset".to_owned(),
        format!("{fixed_bytes}"),
        format!("{}", fixed_bytes.div_ceil(4096)),
        fmt_pct(fixed.bubble_ratio()),
    ]);
    t.row(&[
        "tight (Batch)".to_owned(),
        format!("{tight_bytes}"),
        format!("{}", tight.stats().packets),
        fmt_pct(1.0 - tight.stats().utilization()),
    ]);
    println!("{t}");
    println!(
        "fixed-offset needs {:.2}x the communications of tight packing \
         (paper: 1.67x more)\n",
        fixed_bytes as f64 / tight_bytes as f64
    );

    // 6. Behavioral semantics: Replay vs snapshot debugging (Fig. 10).
    let bug = BugSpec::new(BugKind::StoreValueCorruption, 40_000);
    let replayed = run_with_mismatch(&workload, bug.clone());
    let snap = snapshot_debug_run(&session(&workload, vec![bug]), 5_000);
    assert_eq!(snap.outcome, RunOutcome::Mismatch);
    let f = replayed.failure.expect("replay run mismatches");
    let mut t = Table::new(
        "Behavioral semantics: Replay vs whole-DUT snapshots (paper Fig. 10)",
        &["Strategy", "Recovery work", "Storage", "Localized"],
    );
    t.row(&[
        "Replay (DiffTest-H)".to_owned(),
        format!("{} buffered events retransmitted", f.replayed_events),
        format!("token ring slice (~{} KB)", f.replayed_events * 150 / 1024),
        if f.precise.is_some() { "yes" } else { "no" }.to_owned(),
    ]);
    t.row(&[
        "Snapshot (prior work)".to_owned(),
        format!(
            "{} DUT cycles re-executed, {} events regenerated",
            snap.reexecuted_cycles, snap.regenerated_events
        ),
        format!(
            "{} snapshots x {} KB + per-snapshot pipeline quiesce",
            snap.snapshots,
            snap.snapshot_bytes / 1024
        ),
        if snap.precise.is_some() { "yes" } else { "no" }.to_owned(),
    ]);
    println!("{t}");
}

fn run_with_mismatch(workload: &Workload, bug: BugSpec) -> difftest_core::RunReport {
    let mut sim = CoSimulation::new(session(workload, vec![bug])).expect("valid setup");
    let r = sim.run();
    assert_eq!(r.outcome, RunOutcome::Mismatch);
    r
}
