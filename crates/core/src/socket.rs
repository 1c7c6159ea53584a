//! The socket runner: producer and consumer exchanging the
//! [`crate::proto`] wire format over a kernel socket.
//!
//! The engine hands [`Transfer`]s across an in-memory queue. Here the
//! packet bytes genuinely leave the producer as length-prefixed frames
//! and are decoded back on the far end of a socket: `UnixStream::pair()`
//! joins the producer, on a scoped thread, to the consumer loop
//! ([`serve_connection`]) on the calling thread, with real kernel-socket
//! bytes and socket-buffer backpressure in one process. The socket
//! carries client → server bytes only: the runner joins the producer
//! thread and takes the consumer's output straight from
//! [`serve_connection`]'s return value. Both sides are the same shared
//! pipeline (the [`Session`]'s [`Producer`](crate::produce::Producer)
//! over a frame-writing sink here, a [`Consumer`](crate::Consumer) in
//! [`serve_connection`]), so verdicts are identical to the engine's.
//!
//! An early consumer stop shuts the socket's read side, so the
//! producer's next frame write fails with EPIPE and it stops. The
//! consumer's [`Obs`](difftest_stats::Obs) joins the producer's with one
//! `absorb`, as the engine does.
//
// Seam rule: runner modules build on `session`/`link`/`produce`/
// `consume` (and, uniquely for this runner, the `proto`/`mux` wire
// layer) — never on another runner's internals (enforced by `make ci`'s
// grep).

use std::io::{BufWriter, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::thread;
use std::time::Instant;

use difftest_stats::{Metrics, PID_CONSUMER};

use crate::fault::{LinkErrorKind, LinkStats};
use crate::link::LinkSink;
use crate::mux::serve_connection;
use crate::produce::ProducerOutput;
use crate::proto::{write_end_frame, write_hello, write_transfer_frame, Hello};
use crate::session::{seal_report, RunCommon, RunOutcome, RunnerKind, Session};
use crate::transport::Transfer;

/// Result of a socket run: the shared [`RunCommon`] core plus
/// wall-clock throughput.
///
/// When the consumer ends the run early (a mismatch or a link error),
/// the producer ticks on until a frame write fails. After such a stop,
/// `cycles`, `instructions`, `fault` and the producer's flight records
/// depend on socket timing; `outcome`, `mismatch`, `items` and the
/// consumer's `link` stats are reproducible.
#[derive(Debug, Clone)]
pub struct SocketReport {
    /// The report core shared by every runner (verdict, volume, link
    /// health, observability).
    pub common: RunCommon,
    /// Host wall-clock seconds.
    pub wall_s: f64,
    /// Host-side throughput in DUT cycles per wall-clock second.
    pub cycles_per_sec: f64,
}

/// A no-op. The one-shot consumer is a thread of the calling process,
/// so no binary needs to divert anything first thing in `main` any more.
/// It stays only because the gated benchmark still calls it; the
/// benchmark-only re-baseline (ROADMAP item 1) deletes it.
#[doc(hidden)]
pub fn child_entry() {}

/// Runs a co-simulation with the producer and the shared receive-side
/// pipeline joined by a socket carrying the CRC-framed wire format: the
/// producer on a scoped thread, the consumer on the calling thread, one
/// `UnixStream::pair()` between them. The session's fault plan, if any,
/// applies on the producer side, before the bytes enter the socket;
/// unlike the engine this runner has no retention ring, so decode
/// failures are reported, not recovered. Which report fields an early
/// stop leaves timing-dependent is on [`SocketReport`].
///
/// # Panics
///
/// Panics when the configuration is blocking (`Z`/`B`), which would
/// serialize producer and consumer, or if the producer thread dies (a
/// poisoned internal invariant); never on link failures — those surface
/// as [`RunOutcome::LinkError`].
pub fn run_socket_session(session: Session) -> SocketReport {
    session.require_nonblock("socket");
    let start = Instant::now();
    let Ok((ours, theirs)) = UnixStream::pair() else {
        return setup_failure_report(start, LinkErrorKind::Malformed);
    };
    let (sent, res) = thread::scope(|s| {
        let producer = s.spawn(|| run_producer(&session, ours));
        // Built as the engine builds it, on this thread while the
        // producer starts: its spans read the tracer's one clock.
        let spans = session.span_sink(PID_CONSUMER, 0, "consumer", "consumer");
        let res = serve_connection(theirs, session.consumer().with_spans(spans));
        let sent = producer
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p));
        (sent, res)
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut out = match sent {
        Ok(out) => out,
        Err(kind) => return setup_failure_report(start, kind),
    };

    out.obs.absorb(res.obs);
    let mut common = RunCommon {
        outcome: RunOutcome::decide(res.mismatch.is_some(), res.link_error, res.verdict),
        mismatch: res.mismatch,
        cycles: out.cycles,
        instructions: out.instructions,
        items: res.items,
        link: res.link,
        fault: out.fault,
        metrics: Metrics::new(),
        flight: None,
    };
    seal_report(RunnerKind::Socket, &mut common, session.tracer(), out.obs);
    SocketReport {
        cycles_per_sec: common.cycles as f64 / wall_s.max(1e-9),
        common,
        wall_s,
    }
}

/// A failure before the DUT ever ran (socket pair, hello): there is
/// nothing to report beyond the typed link error.
fn setup_failure_report(start: Instant, kind: LinkErrorKind) -> SocketReport {
    let mut link = LinkStats::default();
    link.note(kind);
    SocketReport {
        common: RunCommon {
            outcome: RunOutcome::LinkError {
                kind,
                seq: 0,
                core: 0,
            },
            mismatch: None,
            cycles: 0,
            instructions: 0,
            items: 0,
            link,
            fault: None,
            metrics: Metrics::new(),
            flight: None,
        },
        wall_s: start.elapsed().as_secs_f64(),
        cycles_per_sec: 0.0,
    }
}

/// Producer-side frame writer behind the shared send path: a failed
/// write means the consumer is gone, which [`SendLink`](crate::link::SendLink)
/// reports to the producer loop as a receiver gone. The frame holds a
/// copy of the bytes, so the buffer is spent once written.
struct StreamSink<W: Write> {
    w: BufWriter<W>,
}

impl<W: Write> LinkSink for StreamSink<W> {
    fn send(&mut self, t: Transfer, spent: &mut Vec<Vec<u8>>) -> bool {
        let ok = write_transfer_frame(&mut self.w, &t).is_ok();
        spent.push(t.bytes);
        ok
    }
}

/// The producer thread: hello, the run, the end frame, then a
/// half-close. Hands back the producer's account of the run.
fn run_producer(session: &Session, stream: UnixStream) -> Result<ProducerOutput, LinkErrorKind> {
    let writer = stream.try_clone().map_err(|_| LinkErrorKind::Malformed)?;
    let mut sink = StreamSink {
        w: BufWriter::new(writer),
    };
    if write_hello(&mut sink.w, &Hello).is_err() {
        return Err(LinkErrorKind::Gap);
    }

    // From here on the run always produces a real report: the DUT side
    // executes locally even if the consumer stops early (its verdict
    // comes back through `serve_connection`, not the socket).
    let mut producer = session.producer(sink);
    producer.run();

    // End-of-stream frame carrying the pre-fault produced count (the
    // consumer's tail-loss reference), then half-close so EOF is
    // unambiguous even if the end frame itself was lost to EPIPE.
    let link = producer.link_mut();
    let produced = link.produced();
    let w = &mut link.sink_mut().w;
    let _ = write_end_frame(w, produced).and_then(|()| w.flush());
    let _ = stream.shutdown(Shutdown::Write);
    Ok(producer.finish())
}

#[cfg(test)]
mod tests {
    use difftest_dut::DutConfig;
    use difftest_workload::Workload;

    use super::*;
    use crate::session::DiffConfig;

    /// The frame writer hands each buffer back once its frame is
    /// written, so past the first cycle's packets nothing allocates.
    #[test]
    fn stream_sink_recycles_every_written_buffer() {
        let w = Workload::linux_boot().seed(9).iterations(300).build();
        for config in [DiffConfig::BN, DiffConfig::BNSD] {
            let session = Session::new(
                DutConfig::nutshell(),
                config,
                &w,
                Vec::new(),
                300_000,
                8,
                None,
            );
            let mut producer = session.producer(StreamSink {
                w: BufWriter::new(Vec::new()),
            });
            producer.run();
            assert!(
                producer.dut().halted().is_some(),
                "{config:?} ran to its trap"
            );
            let s = producer.accel().pool_stats();
            assert!(s.hit_rate() >= 0.99, "{config:?}: {s:?}");
        }
    }
}
