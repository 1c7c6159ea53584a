//! A real-threads pipelined runner: hardware/software parallelism with
//! actual concurrency instead of virtual clocks.
//!
//! The engine in [`crate::engine`] *models* non-blocking transmission
//! (paper §4.5) with overlapped virtual timelines. This module runs the
//! same architecture on OS threads: the calling thread runs the shared
//! [`Producer`](crate::produce::Producer) (DUT and acceleration unit), a
//! consumer thread runs the shared [`Consumer`](crate::consume::Consumer)
//! pipeline, and a bounded channel between them
//! ([`ChannelSink`] / [`ChannelSource`]) provides the backpressure of the
//! paper's sending/receiving queues. It reports wall-clock throughput
//! rather than simulated KHz.
//!
//! Coordination:
//!
//! - **Stop broadcast** — when the consumer verifies a halting trap or
//!   detects a mismatch it sets a shared [`AtomicBool`]; the producer
//!   polls it every DUT cycle and stops feeding the channel. An atomic
//!   flag cannot race or fill up the way a 1-slot channel could.
//! - **Backpressure** — the channel is bounded by the session's
//!   `queue_depth`, the paper's sending-queue model.
//
// Seam rule: runner modules build on `session`/`link`/`produce`/
// `consume` only — never on another runner's internals (enforced by
// `make ci`'s grep).

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Instant;

use crossbeam::channel;
use difftest_stats::{FlightRecorder, PhaseTimer, PID_CONSUMER};

use crate::consume::{drive, NoCharge};
use crate::link::{ChannelSink, ChannelSource};
use crate::pool::PoolStats;
use crate::session::{seal_report, RunCommon, RunOutcome, RunnerKind, Session};

/// Result of a threaded run: the shared [`RunCommon`] core plus
/// wall-clock throughput.
#[derive(Debug, Clone)]
pub struct ThreadedReport {
    /// The report core shared by every runner (verdict, volume, link
    /// health, observability).
    pub common: RunCommon,
    /// Host wall-clock seconds.
    pub wall_s: f64,
    /// Host-side throughput in DUT cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// Buffer-pool statistics of the producer's acceleration unit
    /// (payload buffers recycle across the thread boundary).
    pub pool: PoolStats,
}

/// Runs a co-simulation with the hardware and software sides on separate
/// OS threads, connected by a bounded transfer queue of the session's
/// `queue_depth`. Only the non-blocking configurations make sense here;
/// the blocking semantics of `Z`/`B` would serialize the threads anyway.
///
/// This runner has no retention ring, so under a fault plan it reports
/// rather than recovers: decode failures surface as
/// [`RunOutcome::LinkError`], stale duplicates are dropped and counted,
/// and a gap left at end of stream (a lost packet, including a tail drop
/// the sequence window alone cannot see) is a
/// [`crate::fault::LinkErrorKind::Gap`].
///
/// # Panics
///
/// Panics when the configuration is blocking, or if a thread dies (a
/// poisoned internal invariant) — never on workload behaviour or link
/// faults.
pub fn run_threaded_session(session: Session) -> ThreadedReport {
    session.require_nonblock(RunnerKind::Threaded.name());
    let stop = AtomicBool::new(false);
    let start = Instant::now();

    let (tx, rx) = channel::bounded(session.queue_depth());
    let mut producer = session.producer(ChannelSink(tx));
    // The send path counts packets produced before fault injection; once
    // the channel closes that count is final, so a packet the receiver
    // still waits on was lost in flight (tail loss the reorder window
    // alone never sees).
    let sent = producer.produced_handle();
    let (produced, consumed) = thread::scope(|s| {
        let (session, stop) = (&session, &stop);
        let worker = s.spawn(move || {
            let mut consumer = session.consumer().with_spans(session.span_sink(
                PID_CONSUMER,
                0,
                "consumer",
                "consumer",
            ));
            let exhausted = drive(&mut ChannelSource(rx), &mut consumer, || {
                stop.store(true, Ordering::Release);
            });
            if exhausted {
                let sent = sent.load(Ordering::Acquire);
                consumer.finish_stream(Some(sent), 0, &mut NoCharge);
            }
            consumer.finish()
        });
        let (mut timer, mut rec) = (PhaseTimer::monotonic(), FlightRecorder::default());
        producer.run(stop, &mut timer, &mut rec);
        // Closes the channel: end of stream for the consumer.
        let produced = producer.finish(&timer, &rec);
        let consumed = worker
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p));
        (produced, consumed)
    });
    let wall_s = start.elapsed().as_secs_f64();

    let mut metrics = consumed.metrics;
    metrics.phases.merge(&produced.phases);
    let mut common = RunCommon {
        outcome: RunOutcome::decide(
            consumed.mismatch.is_some(),
            consumed.link_error,
            consumed.verdict,
        ),
        mismatch: consumed.mismatch,
        cycles: produced.cycles,
        instructions: produced.instructions,
        items: consumed.items,
        link: consumed.link,
        fault: produced.fault,
        metrics,
        flight: None,
    };
    // Producer context (sends, fusion) first, then the consumer's view
    // of arrivals and the verdict.
    let mut flight = produced.flight;
    seal_report(
        RunnerKind::Threaded,
        &mut common,
        session.tracer(),
        [produced.spans, consumed.spans],
        || {
            flight.append(&consumed.flight);
            flight
        },
    );
    ThreadedReport {
        cycles_per_sec: common.cycles as f64 / wall_s.max(1e-9),
        common,
        wall_s,
        pool: produced.pool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::DiffConfig;
    use difftest_dut::{BugKind, BugSpec, DutConfig};
    use difftest_workload::Workload;

    fn run_threaded(
        dut_cfg: DutConfig,
        config: DiffConfig,
        workload: &Workload,
        bugs: Vec<BugSpec>,
        max_cycles: u64,
    ) -> ThreadedReport {
        run_threaded_session(Session::new(
            dut_cfg, config, workload, bugs, max_cycles, 8, None,
        ))
    }

    #[test]
    fn threaded_run_reaches_good_trap() {
        let w = Workload::microbench().seed(2).iterations(50).build();
        let r = run_threaded(
            DutConfig::nutshell(),
            DiffConfig::BNSD,
            &w,
            Vec::new(),
            500_000,
        );
        assert_eq!(r.outcome, RunOutcome::GoodTrap);
        assert!(r.items > 0);
        assert!(r.cycles_per_sec > 0.0);
    }

    #[test]
    fn threaded_run_detects_bugs() {
        let w = Workload::linux_boot().seed(2).iterations(300).build();
        let r = run_threaded(
            DutConfig::xiangshan_minimal(),
            DiffConfig::BNSD,
            &w,
            vec![BugSpec::new(BugKind::RegWriteCorruption, 5_000)],
            500_000,
        );
        assert_eq!(r.outcome, RunOutcome::Mismatch);
        assert!(r.mismatch.is_some());
    }

    #[test]
    #[should_panic(expected = "non-blocking")]
    fn threaded_run_rejects_blocking_configs() {
        let w = Workload::microbench().seed(2).iterations(5).build();
        let _ = run_threaded(DutConfig::nutshell(), DiffConfig::Z, &w, Vec::new(), 1_000);
    }

    #[test]
    fn pool_recycles_after_warmup() {
        // Long enough that the bounded warmup allocations (at most the
        // in-flight window) are under 5% of total acquisitions.
        let w = Workload::microbench().seed(2).iterations(1500).build();
        let r = run_threaded(
            DutConfig::nutshell(),
            DiffConfig::BNSD,
            &w,
            Vec::new(),
            5_000_000,
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
}
