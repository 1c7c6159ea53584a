//! Host-side parallelism: single-consumer threaded runner vs the per-core
//! sharded runner, on a dual-core XiangShan (Minimal) DUT.
//!
//! Both runners use the pooled zero-copy transport; the comparison
//! isolates the checking topology (one consumer thread for all cores vs
//! one worker per core). Also reports the producer-side buffer-pool
//! recycle rate, which should be ~100% after warmup.

use difftest_bench::{fmt_pct, Table};
use difftest_core::engine::DiffConfig;
use difftest_core::{run_sharded_session, run_threaded_session, FaultPlan, RunOutcome, Session};
use difftest_dut::DutConfig;
use difftest_workload::Workload;

fn dual_core_minimal() -> DutConfig {
    let mut cfg = DutConfig::xiangshan_minimal();
    cfg.cores = 2;
    cfg
}

fn main() {
    // `cargo bench -- --test` smoke mode runs one short repetition.
    let smoke = std::env::args().any(|a| a == "--test");
    let (iters, reps) = if smoke { (200, 1) } else { (3_000, 3) };
    let w = Workload::microbench().seed(11).iterations(iters).build();
    let max_cycles = 50_000_000;
    let depth = 64;

    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!("Host-side parallelism: threaded (1 consumer) vs sharded (1 worker/core)");
    println!("dual-core XiangShan (Minimal), BNSD, queue depth {depth}, host CPUs {host_cpus}\n");
    if host_cpus < 3 {
        println!(
            "NOTE: the sharded topology needs at least 1 producer + 2 worker host\n\
             CPUs to overlap; on {host_cpus} CPU(s) the threads serialize and the\n\
             comparison measures topology overhead, not parallel speedup.\n"
        );
    }

    let mut table = Table::new(
        "Wall-clock checking throughput",
        &[
            "runner", "outcome", "items", "items/s", "cycles/s", "speedup", "pool hit",
        ],
    );

    // Best-of-N to damp scheduler noise.
    let mut best_threaded: Option<difftest_core::ThreadedReport> = None;
    let mut best_sharded: Option<difftest_core::ShardedReport> = None;
    for _ in 0..reps {
        let t = run_threaded_session(Session::new(
            dual_core_minimal(),
            DiffConfig::BNSD,
            &w,
            Vec::new(),
            max_cycles,
            depth,
            None,
        ));
        assert_eq!(t.outcome, RunOutcome::GoodTrap, "bench workload must pass");
        if best_threaded.as_ref().is_none_or(|b| t.wall_s < b.wall_s) {
            best_threaded = Some(t);
        }
        let s = run_sharded_session(Session::new(
            dual_core_minimal(),
            DiffConfig::BNSD,
            &w,
            Vec::new(),
            max_cycles,
            depth,
            None,
        ));
        assert_eq!(s.outcome, RunOutcome::GoodTrap, "bench workload must pass");
        if best_sharded.as_ref().is_none_or(|b| s.wall_s < b.wall_s) {
            best_sharded = Some(s);
        }
    }
    let t = best_threaded.expect("at least one rep");
    let s = best_sharded.expect("at least one rep");
    assert_eq!(t.items, s.items, "runners must check the identical stream");

    let t_items_s = t.items as f64 / t.wall_s.max(1e-9);
    let s_items_s = s.items as f64 / s.wall_s.max(1e-9);
    table.row(&[
        "threaded".to_owned(),
        format!("{:?}", t.outcome),
        t.items.to_string(),
        format!("{t_items_s:.0}"),
        format!("{:.0}", t.cycles_per_sec),
        "1.00x".to_owned(),
        "-".to_owned(),
    ]);
    table.row(&[
        "sharded".to_owned(),
        format!("{:?}", s.outcome),
        s.items.to_string(),
        format!("{s_items_s:.0}"),
        format!("{:.0}", s.cycles_per_sec),
        format!("{:.2}x", s_items_s / t_items_s),
        fmt_pct(s.pool.hit_rate()),
    ]);
    println!("{table}");

    println!("per-worker breakdown:");
    for wk in &s.workers {
        println!(
            "  core {}: {} items, {:.0} items/s, {} instructions",
            wk.core, wk.items, wk.items_per_sec, wk.instructions
        );
    }
    println!(
        "\npool: {:?} (hit rate {})",
        s.pool,
        fmt_pct(s.pool.hit_rate())
    );

    // Observability: where the host wall-time went and how the packets
    // were shaped (the merged per-worker registry of the best run).
    println!("\nphase breakdown (sharded, producer + workers merged):");
    let total = s.metrics.phases.total_ns().max(1);
    for (phase, nanos) in s.metrics.phases.iter() {
        println!(
            "  {:<10} {:>12} ns  {:>5.1}%",
            phase.name(),
            nanos,
            nanos as f64 * 100.0 / total as f64
        );
    }
    println!("packet histograms:");
    for (name, h) in s.metrics.histograms() {
        println!(
            "  {:<14} n={:<8} min={:<6} p50={:<6} p99={:<6} max={:<6} mean={:.1}",
            name,
            h.count(),
            h.min(),
            h.percentile(50.0),
            h.percentile(99.0),
            h.max(),
            h.mean()
        );
    }
    // Optional lossy-link mode: DIFFTEST_FAULTS=<per-mille>[:<seed>] runs
    // the sharded topology once more behind a seeded uniform fault plan
    // (difftest_core::FaultPlan) and reports what the link layer saw.
    // The clean rows above already pay the CRC framing cost — its byte
    // overhead is bounded (<2%) by the fault_link test suite.
    if let Ok(spec) = std::env::var("DIFFTEST_FAULTS") {
        let (rate, seed) = match spec.split_once(':') {
            Some((r, s)) => (r.parse().unwrap_or(20u16), s.parse().unwrap_or(1u64)),
            None => (spec.parse().unwrap_or(20u16), 1u64),
        };
        let plan = FaultPlan::uniform(seed, rate);
        let f = run_sharded_session(Session::new(
            dual_core_minimal(),
            DiffConfig::BNSD,
            &w,
            Vec::new(),
            max_cycles,
            depth,
            Some(plan),
        ));
        println!(
            "\nlossy link (uniform {rate}\u{2030}, seed {seed}): outcome {:?}",
            f.outcome
        );
        if let Some(fs) = f.fault {
            println!(
                "  injected: {} drops, {} dups, {} reorders, {} truncations, {} corruptions",
                fs.dropped, fs.duplicated, fs.reordered, fs.truncated, fs.corrupted
            );
        }
        println!(
            "  detected: {} typed link errors, {} stale duplicates discarded",
            f.link.total_detected(),
            f.link.stale_dropped
        );
    }

    if !smoke {
        let needed = 3; // 1 producer + 2 workers for a dual-core DUT
        if host_cpus >= needed {
            println!(
                "\nsharded vs threaded: {:.2}x items/s (target >= 1.3x on 2 cores)",
                s_items_s / t_items_s
            );
        } else {
            println!(
                "\nsharded vs threaded: {:.2}x items/s (serialized: host has \
                 {host_cpus} CPU(s), topology needs {needed} to overlap)",
                s_items_s / t_items_s
            );
        }
    }
}
