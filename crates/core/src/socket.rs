//! The socket runner: producer and consumer exchanging the
//! [`crate::proto`] wire format over a kernel socket.
//!
//! The engine hands [`Transfer`]s across an in-memory queue. Here the
//! packet bytes genuinely leave the producer as length-prefixed
//! frames and are decoded back on the far end of a socket. Two peer
//! arrangements exist, both speaking the same protocol module:
//!
//! - **one-shot pair** (the default): `UnixStream::pair()` joins the
//!   producer, on a scoped thread, to the consumer loop
//!   ([`serve_connection`]) on the calling thread — real kernel-socket
//!   bytes and socket-buffer backpressure, one process;
//! - **external daemon**: with `DIFFTEST_SERVE_ADDR=unix:<path>` or
//!   `tcp:<host:port>` set (or an explicit address passed to
//!   [`run_socket_session`]), the producer connects to a persistent
//!   `difftest-serve` process running that same loop for many
//!   concurrent sessions (see the `difftest-serve` crate). This is the
//!   arrangement for process isolation.
//!
//! Either way the producer streams frames and reads back a serialized
//! verdict; both sides are the same shared pipeline — the [`Session`]'s
//! [`Producer`](crate::produce::Producer) over a frame-writing sink here,
//! [`serve_connection`] on the consumer — so verdicts are identical to
//! the engine's.
//!
//! Failure semantics: consumer death mid-run (EPIPE on the frame stream,
//! EOF or a short read on the result blob) surfaces as a typed
//! [`RunOutcome::LinkError`] with [`LinkErrorKind::Gap`], never a panic.
//! [`SocketTuning::kill_consumer_after`] exists to test exactly that
//! path.
//!
//! Observability crosses the socket whole: the result blob carries the
//! consumer's [`Obs`](difftest_stats::Obs) — metrics (histograms and
//! `decode.*` included), flight records, span tracks — and the runner
//! joins it to the producer's with one `absorb`, as the engine does.
//
// Seam rule: runner modules build on `session`/`link`/`produce`/
// `consume` (and, uniquely for this runner, the `proto`/`mux` wire
// layer) — never on another runner's internals (enforced by `make ci`'s
// grep).

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::thread;
use std::time::{Duration, Instant};

use difftest_stats::{FlightKind, FlightRecord, Metrics};

use crate::fault::{LinkErrorKind, LinkStats};
use crate::link::LinkSink;
use crate::mux::{serve_connection, Conn};
use crate::proto::{
    read_result, write_end_frame, write_hello, write_transfer_frame, Hello, ServeAddr,
    SERVE_ADDR_ENV,
};
use crate::session::{seal_report, RunCommon, RunOutcome, RunnerKind, Session};
use crate::transport::Transfer;

/// How long connecting to a daemon may take.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// How long the one-shot consumer waits for the handshake before
/// concluding the peer is dead. Applied only until the hello decodes —
/// mid-run reads may legitimately block while the producer computes
/// between frames.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);
/// How long the producer waits for the result blob after its end frame.
/// The consumer is at most one socket buffer behind, so a healthy peer
/// answers in well under a second; only a hung peer trips this.
const RESULT_TIMEOUT: Duration = Duration::from_secs(60);

/// Test/diagnostic knobs for the socket runner.
#[derive(Debug, Clone, Copy, Default)]
pub struct SocketTuning {
    /// When `Some(n)` with `n >= 1`, the consumer abandons the run
    /// abruptly when its `n`-th transfer frame arrives, before ingesting
    /// it: no result blob, its socket end simply closed — simulating
    /// consumer death mid-run so tests can exercise the producer's typed
    /// [`RunOutcome::LinkError`] path. The knob travels in the handshake,
    /// so a daemon honours it too. `None` (or `Some(0)`) disables the
    /// kill.
    pub kill_consumer_after: Option<u32>,
}

/// Result of a socket run: the shared [`RunCommon`] core plus
/// wall-clock throughput.
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
/// pipeline joined by a socket carrying the CRC-framed wire format. The
/// session's fault plan, if any, applies on the producer side, before
/// the bytes enter the socket; unlike the engine this runner has no
/// retention ring, so decode failures are reported, not recovered.
///
/// The peer is, in order of precedence: the daemon at `addr` (how many
/// producers share one `difftest-serve` fleet); the daemon
/// `DIFFTEST_SERVE_ADDR` names (a malformed address is a setup failure,
/// not a silent fallback); otherwise a consumer on the calling thread,
/// joined to a scoped producer thread by `UnixStream::pair()`. `tuning`
/// lets tests kill the consumer mid-run.
///
/// # Panics
///
/// Panics when the configuration is blocking (`Z`/`B`), which would
/// serialize producer and consumer, or if the producer thread dies (a
/// poisoned internal invariant); never on link failures — those surface
/// as [`RunOutcome::LinkError`].
pub fn run_socket_session(
    session: Session,
    addr: Option<&ServeAddr>,
    tuning: SocketTuning,
) -> SocketReport {
    session.require_nonblock("socket");
    let start = Instant::now();
    let env_addr = match (addr, std::env::var(SERVE_ADDR_ENV)) {
        (None, Ok(env)) => match ServeAddr::parse(&env) {
            Some(parsed) => Some(parsed),
            None => return setup_failure_report(start, LinkErrorKind::Malformed),
        },
        _ => None,
    };
    let report = match addr.or(env_addr.as_ref()) {
        Some(addr) => {
            connect_remote(addr).and_then(|conn| run_producer(&session, tuning, start, conn))
        }
        None => run_paired(&session, tuning, start),
    };
    report.unwrap_or_else(|kind| setup_failure_report(start, kind))
}

/// The one-shot topology: the producer on a scoped thread, the consumer
/// on the calling thread, one socket pair between them.
fn run_paired(
    session: &Session,
    tuning: SocketTuning,
    start: Instant,
) -> Result<SocketReport, LinkErrorKind> {
    let (ours, theirs) = UnixStream::pair().map_err(|_| LinkErrorKind::Malformed)?;
    thread::scope(|s| {
        let producer = s.spawn(move || run_producer(session, tuning, start, Conn::Unix(ours)));
        serve_connection(Conn::Unix(theirs), HANDSHAKE_TIMEOUT);
        producer
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p))
    })
}

/// A failure before the DUT ever ran (connect/handshake): there is
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

/// Connects to an external daemon.
fn connect_remote(addr: &ServeAddr) -> Result<Conn, LinkErrorKind> {
    match addr {
        ServeAddr::Unix(path) => UnixStream::connect(path)
            .map(Conn::Unix)
            .map_err(|_| LinkErrorKind::Gap),
        ServeAddr::Tcp(spec) => {
            let sa = spec
                .to_socket_addrs()
                .ok()
                .and_then(|mut addrs| addrs.next())
                .ok_or(LinkErrorKind::Malformed)?;
            let stream =
                TcpStream::connect_timeout(&sa, CONNECT_TIMEOUT).map_err(|_| LinkErrorKind::Gap)?;
            // Frames are latency-sensitive and already batched; never
            // let Nagle hold them back.
            let _ = stream.set_nodelay(true);
            Ok(Conn::Tcp(stream))
        }
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

fn run_producer(
    session: &Session,
    tuning: SocketTuning,
    start: Instant,
    stream: Conn,
) -> Result<SocketReport, LinkErrorKind> {
    let writer = stream.try_clone().map_err(|_| LinkErrorKind::Malformed)?;
    let mut sink = StreamSink {
        w: BufWriter::new(writer),
    };
    let hello = Hello::from_session(
        session,
        tuning.kill_consumer_after.unwrap_or(0),
        session.words(),
    );
    if write_hello(&mut sink.w, &hello).is_err() {
        return Err(LinkErrorKind::Gap);
    }

    // From here on the run always produces a real report: the DUT side
    // executes locally even if the consumer dies (that becomes a typed
    // link error, not a setup failure).
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

    // Read the verdict back. Whatever went wrong on the way here (EPIPE
    // mid-stream included), the consumer may still have decided the run
    // and written its result before exiting — so always try. Bounded:
    // a hung daemon must not hang the producer.
    let _ = stream.set_read_timeout(Some(RESULT_TIMEOUT));
    let result = read_result(&mut BufReader::new(stream));
    let wall_s = start.elapsed().as_secs_f64();

    let mut out = producer.finish();
    let mut link = LinkStats::default();
    let (outcome, mismatch, items) = match result {
        Ok(res) => {
            // The consumer's spans are already shifted onto this clock
            // via the wall-epoch exchanged in the handshake.
            out.obs.absorb(res.obs);
            link = res.link;
            (
                RunOutcome::decide(res.mismatch.is_some(), res.link_error, res.verdict),
                res.mismatch,
                res.items,
            )
        }
        Err(_) => {
            // The consumer died without a verdict: everything it had
            // not acknowledged is gone. Typed link error, attributed to
            // the produced count (the last sequence we know left).
            let kind = LinkErrorKind::Gap;
            out.obs.flight.records.push(FlightRecord {
                kind: FlightKind::LinkError,
                core: 0,
                seq: produced,
                cycle: out.cycles,
                value: kind as u64,
            });
            link.note(kind);
            let outcome = RunOutcome::LinkError {
                kind,
                seq: produced,
                core: 0,
            };
            (outcome, None, 0)
        }
    };
    let mut common = RunCommon {
        outcome,
        mismatch,
        cycles: out.cycles,
        instructions: out.instructions,
        items,
        link,
        fault: out.fault,
        metrics: Metrics::new(),
        flight: None,
    };
    seal_report(RunnerKind::Socket, &mut common, session.tracer(), out.obs);
    Ok(SocketReport {
        cycles_per_sec: common.cycles as f64 / wall_s.max(1e-9),
        common,
        wall_s,
    })
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
