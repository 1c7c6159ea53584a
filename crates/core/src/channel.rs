//! The in-process channel topology behind the threaded and sharded
//! runners: the producer on the calling thread, one consumer thread per
//! lane, a bounded channel between each pair.
//!
//! The two runners are the same driver over different lanes. Unrouted
//! ([`crate::threaded`]): one lane packing every core into one stream,
//! one full-width consumer. Routed ([`crate::sharded`]): one lane and
//! one single-core consumer per DUT core, so the per-core reference
//! models step concurrently. The only fork is which
//! [`Session`] factories build a lane and its consumer; everything past
//! construction — stop broadcast, tail-loss detection, first-mismatch
//! aggregation, metric and flight merging — is shared.
//!
//! Coordination:
//!
//! - **Stop broadcast** — any consumer that verifies a halting trap or
//!   detects a mismatch sets a shared [`AtomicBool`]; the producer polls
//!   it every DUT cycle and stops feeding the channels. An atomic flag
//!   cannot race or fill up the way a 1-slot channel could: a second
//!   stop reason published while the first is still unread is simply
//!   idempotent.
//! - **First-mismatch semantics** — when several cores fail in the same
//!   drain, the coordinator reports the mismatch with the lowest
//!   instruction count (ties broken by the lower core id), matching what a
//!   single in-order consumer would have hit first.
//! - **Backpressure** — each channel is bounded by `queue_depth`, the
//!   paper's sending-queue model applied per lane.
//
// Seam rule: runner modules build on `session`/`link`/`produce`/
// `consume` only — never on another runner's internals (enforced by
// `make ci`'s grep).

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Instant;

use crossbeam::channel;
use difftest_stats::{FlightRecorder, Metrics, PhaseTimer, PID_CONSUMER};

use crate::consume::{drive, ConsumerOutput, NoCharge};
use crate::fault::{LinkErrorKind, LinkStats};
use crate::link::{ChannelSink, ChannelSource};
use crate::pool::PoolStats;
use crate::session::{seal_report, RunCommon, RunOutcome, RunnerKind, Session};

/// Per-worker (per-core) statistics of a sharded run.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// DUT core this worker checked.
    pub core: u8,
    /// Wire items checked by this worker.
    pub items: u64,
    /// Instructions stepped on this worker's reference model.
    pub instructions: u64,
    /// Worker wall-clock seconds (receive loop + finalize).
    pub wall_s: f64,
    /// Items checked per wall-clock second on this worker.
    pub items_per_sec: f64,
}

/// What the channel driver hands the runner that called it: the sealed
/// report core, whole-run wall seconds, one report per consumer in core
/// order, and the lanes' aggregate buffer-pool statistics.
pub(crate) struct ChannelRun {
    pub common: RunCommon,
    pub wall_s: f64,
    pub workers: Vec<WorkerReport>,
    pub pool: PoolStats,
}

/// Runs `session` with the producer on the calling thread and one
/// consumer thread per lane: per DUT core when `kind` is
/// [`RunnerKind::Sharded`], a single unrouted lane otherwise.
///
/// # Panics
///
/// Panics when the configuration is blocking (`Z`/`B`), or if a thread
/// dies (a poisoned internal invariant) — never on workload behaviour
/// or link faults.
pub(crate) fn run_channels(kind: RunnerKind, session: &Session) -> ChannelRun {
    session.require_nonblock(kind.name());
    let routed = kind == RunnerKind::Sharded;
    let lanes_n = if routed { session.cores() as u8 } else { 1 };
    let stop = AtomicBool::new(false);
    let start = Instant::now();

    let (lanes, rxs): (Vec<_>, Vec<_>) = (0..lanes_n)
        .map(|k| {
            let (tx, rx) = channel::bounded(session.queue_depth());
            (session.lane(routed.then_some(k), ChannelSink(tx)), rx)
        })
        .unzip();

    let (produced, mut outcomes) = thread::scope(|s| {
        let workers: Vec<_> = rxs
            .into_iter()
            .zip(&lanes)
            .zip(0u8..)
            .map(|((rx, lane), core)| {
                // The send path counts packets produced before fault
                // injection; once the channel closes that count is
                // final, so a packet the receiver still waits on was
                // lost in flight (tail loss the reorder window alone
                // never sees).
                let sent = lane.produced_handle();
                let stop = &stop;
                s.spawn(move || {
                    let started = Instant::now();
                    let (consumer, track) = if routed {
                        (session.consumer_for_core(core), format!("worker-{core}"))
                    } else {
                        (session.consumer(), "consumer".to_owned())
                    };
                    let mut consumer = consumer.with_spans(session.span_sink(
                        PID_CONSUMER,
                        u32::from(core),
                        "consumer",
                        &track,
                    ));
                    let exhausted = drive(&mut ChannelSource(rx), &mut consumer, || {
                        stop.store(true, Ordering::Release);
                    });
                    if exhausted {
                        let sent = sent.load(Ordering::Acquire);
                        consumer.finish_stream(Some(sent), 0, &mut NoCharge);
                    }
                    let instructions = consumer.checker().seq(core);
                    let wall_s = started.elapsed().as_secs_f64();
                    (core, instructions, wall_s, consumer.finish())
                })
            })
            .collect();
        let mut producer = session.producer(lanes);
        let (mut timer, mut rec) = (PhaseTimer::monotonic(), FlightRecorder::default());
        producer.run(&stop, &mut timer, &mut rec);
        // Closes every channel: end of stream for the consumers.
        let produced = producer.finish(&timer, &rec);
        let outcomes: Vec<(u8, u64, f64, ConsumerOutput)> = workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect();
        (produced, outcomes)
    });
    let wall_s = start.elapsed().as_secs_f64();

    // First-mismatch semantics across consumers: lowest instruction
    // count wins, core id breaks ties deterministically. The
    // lowest-core link error and verdict stand for the rest (see
    // `RunOutcome::decide` for how the three rank).
    let mismatch = outcomes
        .iter()
        .filter_map(|(.., o)| o.mismatch.clone())
        .min_by_key(|m| (m.seq, m.core));
    let link_error = outcomes.iter().find_map(|(.., o)| o.link_error);
    let verdict = outcomes.iter().find_map(|(.., o)| o.verdict);
    let link = outcomes
        .iter()
        .fold(LinkStats::default(), |mut a, (.., o)| {
            for kind in LinkErrorKind::ALL {
                a.detected[kind as usize] += o.link.count(kind);
            }
            a.stale_dropped += o.link.stale_dropped;
            a
        });

    // Deterministic aggregation: producer phases first, then every
    // consumer's registry in core order, so the merged metrics are
    // independent of worker scheduling.
    let mut metrics = Metrics::new();
    metrics.phases.merge(&produced.phases);
    for (.., o) in &outcomes {
        metrics.merge(&o.metrics);
    }

    let mut common = RunCommon {
        outcome: RunOutcome::decide(mismatch.is_some(), link_error, verdict),
        mismatch,
        cycles: produced.cycles,
        instructions: produced.instructions,
        items: outcomes.iter().map(|(.., o)| o.items).sum(),
        link,
        fault: produced.fault,
        metrics,
        flight: None,
    };
    // Producer tracks in core order, then consumer tracks in core
    // order, so the merged trace is schedule-independent.
    let consumer_spans: Vec<_> = outcomes
        .iter_mut()
        .map(|(.., o)| std::mem::take(&mut o.spans))
        .collect();
    // The consumer whose verdict decided the outcome contributes its
    // view of arrivals to the flight snapshot.
    let failing_core = common
        .mismatch
        .as_ref()
        .map(|m| m.core)
        .or(link_error.map(|(_, _, core)| core));
    let failing = outcomes
        .iter()
        .find(|(core, ..)| Some(*core) == failing_core)
        .or_else(|| {
            outcomes
                .iter()
                .find(|(.., o)| o.mismatch.is_some() || o.link_error.is_some())
        });
    let mut flight = produced.flight;
    seal_report(
        kind,
        &mut common,
        session.tracer(),
        produced.spans.into_iter().chain(consumer_spans),
        || {
            if let Some((.., o)) = failing {
                flight.append(&o.flight);
            }
            flight
        },
    );

    ChannelRun {
        common,
        wall_s,
        workers: outcomes
            .into_iter()
            .map(|(core, instructions, wall_s, o)| WorkerReport {
                core,
                items: o.items,
                instructions,
                wall_s,
                items_per_sec: o.items as f64 / wall_s.max(1e-9),
            })
            .collect(),
        pool: produced.pool,
    }
}
