//! Per-core sharded parallel checking: one decoder + checker worker per
//! DUT core.
//!
//! [`crate::threaded`] demonstrates the paper's non-blocking architecture
//! with a single software consumer; for multi-core DUTs that consumer is
//! the bottleneck because every core's reference model steps on one host
//! thread. This module shards the software side by core: the shared
//! [`Producer`](crate::produce::Producer) runs one routed lane — one
//! [`AccelUnit`](crate::transport::AccelUnit) stamping each
//! [`Transfer`](crate::transport::Transfer) with its core id — *per
//! core*, and feeds it over a dedicated bounded channel to that core's
//! worker: O(1) routing, no demultiplexing on the consumer side. Each
//! worker drives its own shared [`Consumer`](crate::consume::Consumer)
//! pipeline over a single-core checker, so the per-core reference
//! models step concurrently on separate host threads. Stop broadcast,
//! first-mismatch aggregation and backpressure are the channel
//! topology's ([`crate::channel`]), shared with the threaded runner.
//
// Seam rule: runner modules build on `session`/`link`/`produce`/
// `consume` (and the shared `channel` topology) only — never on another
// runner's internals (enforced by `make ci`'s grep).

use crate::channel::run_channels;
pub use crate::channel::WorkerReport;
use crate::fault::LinkErrorKind;
use crate::pool::PoolStats;
use crate::session::{RunCommon, RunnerKind, Session};

/// Result of a sharded run: the shared [`RunCommon`] core plus per-worker
/// wall-clock throughput.
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// The report core shared by every runner (verdict, volume, link
    /// health, observability). The mismatch is the winning one across
    /// shards (first-mismatch semantics); link counters aggregate all
    /// workers.
    pub common: RunCommon,
    /// Host wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// Host-side throughput in DUT cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// Aggregate items per wall-clock second across workers.
    pub items_per_sec: f64,
    /// One report per core worker, ordered by core id.
    pub workers: Vec<WorkerReport>,
    /// Aggregate buffer-pool statistics across the per-core producers.
    pub pool: PoolStats,
}

impl ShardedReport {
    /// Exports the run as [`difftest_stats::Counters`] (per-worker
    /// throughput and buffer-recycling rates included), for the same
    /// table-rendering toolkit the engine reports feed.
    pub fn counters(&self) -> difftest_stats::Counters {
        let mut c = difftest_stats::Counters::new();
        c.set("hw.cycles", self.cycles);
        c.set("hw.instructions", self.instructions);
        c.set("sw.items_checked", self.items);
        c.set("host.items_per_sec", self.items_per_sec as u64);
        c.set("host.cycles_per_sec", self.cycles_per_sec as u64);
        c.set("pool.hits", self.pool.hits);
        c.set("pool.misses", self.pool.misses);
        c.set("pool.returns", self.pool.returns);
        c.set("pool.discards", self.pool.discards);
        c.set("pool.hit_rate_pct", (self.pool.hit_rate() * 100.0) as u64);
        for w in &self.workers {
            c.set(format!("worker{}.items", w.core), w.items);
            c.set(format!("worker{}.instructions", w.core), w.instructions);
            c.set(
                format!("worker{}.items_per_sec", w.core),
                w.items_per_sec as u64,
            );
        }
        for kind in LinkErrorKind::ALL {
            c.set(
                format!("link.err.{}", kind.counter_name()),
                self.link.count(kind),
            );
        }
        c.set("link.stale_dropped", self.link.stale_dropped);
        c
    }
}

/// Runs a co-simulation with one checker worker per DUT core: the
/// channel topology ([`crate::channel`]) with one routed lane and one
/// single-core consumer per core, verdicts aggregated with
/// first-mismatch semantics. On a single-core DUT this and
/// [`crate::run_threaded_session`] produce identical verdicts.
///
/// Under a fault plan each shard gets an independent deterministic
/// [`crate::fault::FaultyLink`] (`seed + core`), so a multi-core
/// schedule stays reproducible while the shards fail differently. Like
/// the threaded runner this one has no retention ring: decode failures
/// and terminal gaps surface as
/// [`RunOutcome::LinkError`](crate::RunOutcome::LinkError).
///
/// # Panics
///
/// Panics when the configuration is blocking (`Z`/`B`), or if a thread
/// dies (a poisoned internal invariant) — never on workload behaviour
/// or link faults.
pub fn run_sharded_session(session: Session) -> ShardedReport {
    let run = run_channels(RunnerKind::Sharded, &session);
    ShardedReport {
        cycles_per_sec: run.common.cycles as f64 / run.wall_s.max(1e-9),
        items_per_sec: run.common.items as f64 / run.wall_s.max(1e-9),
        common: run.common,
        wall_s: run.wall_s,
        workers: run.workers,
        pool: run.pool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{DiffConfig, RunOutcome};
    use difftest_dut::{BugKind, BugSpec, DutConfig};
    use difftest_workload::Workload;

    fn run_sharded(
        dut_cfg: DutConfig,
        config: DiffConfig,
        workload: &Workload,
        bugs: Vec<BugSpec>,
        max_cycles: u64,
        queue_depth: usize,
    ) -> ShardedReport {
        run_sharded_session(Session::new(
            dut_cfg,
            config,
            workload,
            bugs,
            max_cycles,
            queue_depth,
            None,
        ))
    }

    fn dual_core_minimal() -> DutConfig {
        let mut cfg = DutConfig::xiangshan_minimal();
        cfg.cores = 2;
        cfg
    }

    #[test]
    fn sharded_run_reaches_good_trap() {
        let w = Workload::microbench().seed(2).iterations(50).build();
        let r = run_sharded(
            DutConfig::nutshell(),
            DiffConfig::BNSD,
            &w,
            Vec::new(),
            500_000,
            8,
        );
        assert_eq!(r.outcome, RunOutcome::GoodTrap);
        assert!(r.items > 0);
        assert!(r.cycles_per_sec > 0.0);
        assert_eq!(r.workers.len(), 1);
        assert_eq!(r.workers[0].items, r.items);
    }

    #[test]
    fn sharded_run_detects_bugs() {
        let w = Workload::linux_boot().seed(2).iterations(300).build();
        let r = run_sharded(
            DutConfig::xiangshan_minimal(),
            DiffConfig::BNSD,
            &w,
            vec![BugSpec::new(BugKind::RegWriteCorruption, 5_000)],
            500_000,
            8,
        );
        assert_eq!(r.outcome, RunOutcome::Mismatch);
        assert!(r.mismatch.is_some());
    }

    #[test]
    #[should_panic(expected = "non-blocking")]
    fn sharded_run_rejects_blocking_configs() {
        let w = Workload::microbench().seed(2).iterations(5).build();
        let _ = run_sharded(
            DutConfig::nutshell(),
            DiffConfig::Z,
            &w,
            Vec::new(),
            1_000,
            8,
        );
    }

    #[test]
    fn dual_core_good_trap_with_per_worker_reports() {
        let w = Workload::microbench().seed(5).iterations(40).build();
        let r = run_sharded(
            dual_core_minimal(),
            DiffConfig::BNSD,
            &w,
            Vec::new(),
            500_000,
            8,
        );
        assert_eq!(r.outcome, RunOutcome::GoodTrap);
        assert_eq!(r.workers.len(), 2);
        assert_eq!(r.workers[0].core, 0);
        assert_eq!(r.workers[1].core, 1);
        assert!(r.workers.iter().all(|wk| wk.items > 0));
        assert_eq!(r.items, r.workers.iter().map(|wk| wk.items).sum::<u64>());
    }

    #[test]
    fn dual_core_bug_detected() {
        let w = Workload::linux_boot().seed(3).iterations(300).build();
        let r = run_sharded(
            dual_core_minimal(),
            DiffConfig::BNSD,
            &w,
            vec![BugSpec::new(BugKind::RegWriteCorruption, 5_000)],
            500_000,
            8,
        );
        assert_eq!(r.outcome, RunOutcome::Mismatch);
        assert!(r.mismatch.is_some());
    }

    #[test]
    fn pool_recycles_after_warmup() {
        // Long enough that the bounded warmup allocations (at most the
        // in-flight window) are under 5% of total acquisitions.
        let w = Workload::microbench().seed(2).iterations(1500).build();
        let r = run_sharded(
            DutConfig::nutshell(),
            DiffConfig::BNSD,
            &w,
            Vec::new(),
            5_000_000,
            8,
        );
        assert_eq!(r.outcome, RunOutcome::GoodTrap);
        let s = r.pool;
        assert!(
            s.hits + s.misses > 0,
            "producer must draw payloads from the pool"
        );
        assert!(
            s.hit_rate() >= 0.95,
            "steady-state recycle rate {} below 95% ({s:?})",
            s.hit_rate()
        );
    }

    #[test]
    fn counters_export_worker_stats() {
        let w = Workload::microbench().seed(2).iterations(30).build();
        let r = run_sharded(
            DutConfig::nutshell(),
            DiffConfig::BNSD,
            &w,
            Vec::new(),
            500_000,
            8,
        );
        let c = r.counters();
        assert_eq!(c.get("sw.items_checked"), r.items);
        assert_eq!(c.get("worker0.items"), r.items);
        assert_eq!(c.get("pool.hits"), r.pool.hits);
        assert_eq!(c.get("pool.misses"), r.pool.misses);
    }
}
