//! The process-separated runner: producer and consumer in different OS
//! processes exchanging the [`crate::proto`] wire format over a socket.
//!
//! The other runners share an address space, so "transport" is a queue
//! or channel of [`Transfer`]s. Here the packet bytes genuinely leave
//! the process. Two peer arrangements exist, both speaking the same
//! protocol module:
//!
//! - **spawned child** (the default): the producer re-executes the
//!   current binary as a one-shot consumer process (the host binary
//!   must call [`child_entry`] first thing in `main`), joined by a
//!   Unix-domain socket;
//! - **external daemon**: with `DIFFTEST_SERVE_ADDR=unix:<path>` or
//!   `tcp:<host:port>` set (or an explicit address passed to
//!   [`run_socket_session`]), the producer connects to a persistent
//!   `difftest-serve` service multiplexing many concurrent sessions
//!   (see the `difftest-serve` crate).
//!
//! Either way the producer streams length-prefixed frames and reads
//! back a serialized verdict; both sides are the same shared pipeline —
//! the [`Session`]'s [`Producer`](crate::produce::Producer) over a
//! frame-writing sink here, a
//! [`ProtoSession`](crate::mux::ProtoSession) state machine on the
//! consumer — so verdicts are identical to the in-process runners.
//!
//! Failure semantics: consumer-process death mid-run (EPIPE on the
//! frame stream, EOF or a short read on the result blob) surfaces as a
//! typed [`RunOutcome::LinkError`] with [`LinkErrorKind::Gap`], never a
//! panic. [`SocketTuning::kill_consumer_after`] exists to test exactly
//! that path.
//!
//! One observability deviation: packet-size histograms
//! (`packet.bytes`/`packet.items`) are recorded producer-side here
//! (pre-fault), because histograms are not part of the serialized
//! result; counters, gauges, phase times and flight records cross the
//! socket and match the in-process runners.
//
// Seam rule: runner modules build on `session`/`link`/`produce`/
// `consume` (and, uniquely for this runner, the `proto`/`mux` wire
// layer) — never on another runner's internals (enforced by `make ci`'s
// grep).

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use difftest_stats::{
    wall_epoch_ns, FlightKind, FlightRecord, FlightRecorder, Metrics, PhaseTimer,
};

use crate::fault::{LinkErrorKind, LinkStats};
use crate::link::LinkSink;
use crate::mux::{MuxStep, ProtoSession};
use crate::proto::{
    read_result, write_end_frame, write_hello, write_transfer_frame, Hello, ServeAddr,
    SERVE_ADDR_ENV,
};
use crate::session::{seal_report, RunCommon, RunOutcome, RunnerKind, Session};
use crate::transport::Transfer;

/// Environment variable marking a process as a spawned socket consumer.
const ROLE_ENV: &str = "DIFFTEST_SOCKET_ROLE";
/// Environment variable carrying the socket path to the consumer.
const PATH_ENV: &str = "DIFFTEST_SOCKET_PATH";

const ACCEPT_TIMEOUT: Duration = Duration::from_secs(10);
const CHILD_WAIT_TIMEOUT: Duration = Duration::from_secs(10);
/// How long the consumer waits for the handshake before concluding the
/// peer is dead. Applied only until the hello decodes — mid-run reads
/// may legitimately block while the producer computes between frames.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);
/// How long the producer waits for the result blob after its end frame.
/// The consumer is at most one socket buffer behind, so a healthy peer
/// answers in well under a second; only a hung peer trips this.
const RESULT_TIMEOUT: Duration = Duration::from_secs(60);
/// Exit code of a consumer killed by [`SocketTuning::kill_consumer_after`].
pub const KILLED_EXIT: i32 = 86;

/// Test/diagnostic knobs for the socket runner.
#[derive(Debug, Clone, Copy, Default)]
pub struct SocketTuning {
    /// When `Some(n)` with `n >= 1`, the consumer process exits abruptly
    /// (no result blob, no socket teardown) right after delivering its
    /// `n`-th transfer frame — simulating consumer death mid-run so
    /// tests can exercise the producer's typed
    /// [`RunOutcome::LinkError`] path. `None` (or `Some(0)`) disables
    /// the kill.
    pub kill_consumer_after: Option<u32>,
}

/// Result of a socket run: the shared [`RunCommon`] core plus
/// wall-clock throughput and the consumer process's exit status.
#[derive(Debug, Clone)]
pub struct SocketReport {
    /// The report core shared by every runner (verdict, volume, link
    /// health, observability).
    pub common: RunCommon,
    /// Host wall-clock seconds.
    pub wall_s: f64,
    /// Host-side throughput in DUT cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// Consumer process exit code (`None` if it had to be killed, never
    /// ran, or belongs to an external daemon this run does not own).
    pub consumer_exit: Option<i32>,
}

/// Hands the process over to the socket consumer when the environment
/// marks it as one, and returns immediately otherwise. Every binary
/// that may host the socket runner (examples, benches, harness-free
/// tests) must call this first thing in `main`: the runner re-executes
/// the current binary to obtain its consumer process, and this is where
/// that process diverges from the host's own `main`. Never returns in a
/// consumer process.
pub fn child_entry() {
    if std::env::var(ROLE_ENV).as_deref() != Ok("consumer") {
        return;
    }
    std::process::exit(consumer_main());
}

/// Runs a co-simulation with the producer in this process and the
/// shared receive-side pipeline in a separate consumer process, joined
/// by a socket carrying the CRC-framed wire format. The session's fault
/// plan, if any, applies on the producer side, before the bytes enter
/// the socket; like the threaded runner this one has no retention
/// ring, so decode failures are reported, not recovered.
///
/// The peer is, in order of precedence: the daemon at `addr` (how many
/// producers share one `difftest-serve` fleet); the daemon
/// `DIFFTEST_SERVE_ADDR` names (a malformed address is a setup failure,
/// not a silent fallback); otherwise a consumer child this call spawns
/// and reaps. `consumer_exit` is `None` against a daemon — it outlives
/// the run. `tuning` lets tests kill the consumer mid-run.
///
/// # Panics
///
/// Panics when the configuration is blocking (`Z`/`B`), like the other
/// parallel runners; never on link or process failures — those surface
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
            None => return setup_failure_report(start, SetupFail::new(LinkErrorKind::Malformed)),
        },
        _ => None,
    };
    let report = match addr.or(env_addr.as_ref()) {
        Some(addr) => {
            connect_remote(addr).and_then(|conn| run_producer(&session, tuning, start, conn, None))
        }
        // Anti-fork-bomb guard: a consumer process must never spawn
        // another generation of consumers, even if a test calls the
        // runner from one.
        None if std::env::var_os(ROLE_ENV).is_some() => {
            Err(SetupFail::new(LinkErrorKind::Malformed))
        }
        None => spawn_consumer().and_then(|(stream, guard)| {
            run_producer(
                &session,
                tuning,
                start,
                ConnStream::Unix(stream),
                Some(guard),
            )
        }),
    };
    report.unwrap_or_else(|fail| setup_failure_report(start, fail))
}

/// A failure before the DUT ever ran (bind/spawn/accept/handshake):
/// there is nothing to report beyond the typed link error.
struct SetupFail {
    kind: LinkErrorKind,
    consumer_exit: Option<i32>,
}

impl SetupFail {
    fn new(kind: LinkErrorKind) -> Self {
        SetupFail {
            kind,
            consumer_exit: None,
        }
    }
}

fn setup_failure_report(start: Instant, fail: SetupFail) -> SocketReport {
    let SetupFail {
        kind,
        consumer_exit,
    } = fail;
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
        consumer_exit,
    }
}

/// Owns the spawned consumer and the socket file; `Drop` reaps both so
/// every early-return path cleans up.
struct ChildGuard {
    child: Child,
    path: PathBuf,
}

impl ChildGuard {
    /// Waits for the consumer to exit (bounded), killing it on timeout.
    fn wait_exit(&mut self) -> Option<i32> {
        let deadline = Instant::now() + CHILD_WAIT_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.code(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return None;
                }
            }
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Distinguishes runs within one process sharing a temp directory.
static PATH_SALT: AtomicU64 = AtomicU64::new(0);

/// A socket path no concurrent run can collide with: pid (distinct
/// processes), wall-clock nanos (pid-reuse across test binaries), and a
/// process-local counter (runs within one process, including several in
/// the same nanosecond). Stale files from crashed runs are additionally
/// unlinked before bind.
fn socket_path() -> PathBuf {
    let salt = PATH_SALT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "difftest-{}-{:x}-{salt}.sock",
        std::process::id(),
        wall_epoch_ns()
    ))
}

/// Either transport the producer can speak, behind one Read/Write face.
enum ConnStream {
    /// A Unix-domain stream (spawned child, or a daemon's unix listener).
    Unix(UnixStream),
    /// A TCP stream to a daemon.
    Tcp(TcpStream),
}

impl ConnStream {
    fn try_clone(&self) -> io::Result<ConnStream> {
        match self {
            ConnStream::Unix(s) => s.try_clone().map(ConnStream::Unix),
            ConnStream::Tcp(s) => s.try_clone().map(ConnStream::Tcp),
        }
    }

    fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        match self {
            ConnStream::Unix(s) => s.shutdown(how),
            ConnStream::Tcp(s) => s.shutdown(how),
        }
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            ConnStream::Unix(s) => s.set_read_timeout(dur),
            ConnStream::Tcp(s) => s.set_read_timeout(dur),
        }
    }
}

impl Read for ConnStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ConnStream::Unix(s) => s.read(buf),
            ConnStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for ConnStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ConnStream::Unix(s) => s.write(buf),
            ConnStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            ConnStream::Unix(s) => s.flush(),
            ConnStream::Tcp(s) => s.flush(),
        }
    }
}

/// Binds a fresh socket, re-executes the current binary as the
/// consumer, and accepts its connection (bounded: a consumer that never
/// connects must not hang the run).
fn spawn_consumer() -> Result<(UnixStream, ChildGuard), SetupFail> {
    let path = socket_path();
    let _ = std::fs::remove_file(&path);
    let listener =
        UnixListener::bind(&path).map_err(|_| SetupFail::new(LinkErrorKind::Malformed))?;
    if listener.set_nonblocking(true).is_err() {
        let _ = std::fs::remove_file(&path);
        return Err(SetupFail::new(LinkErrorKind::Malformed));
    }
    let exe = std::env::current_exe().map_err(|_| {
        let _ = std::fs::remove_file(&path);
        SetupFail::new(LinkErrorKind::Malformed)
    })?;
    let child = Command::new(exe)
        .env(ROLE_ENV, "consumer")
        .env(PATH_ENV, &path)
        .spawn()
        .map_err(|_| {
            let _ = std::fs::remove_file(&path);
            SetupFail::new(LinkErrorKind::Gap)
        })?;
    let mut guard = ChildGuard { child, path };

    let accept_from = Instant::now();
    let stream = loop {
        match listener.accept() {
            Ok((s, _)) => break s,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    && accept_from.elapsed() <= ACCEPT_TIMEOUT =>
            {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => {
                return Err(SetupFail {
                    kind: LinkErrorKind::Gap,
                    consumer_exit: guard.wait_exit(),
                });
            }
        }
    };
    // The accepted stream must block: frame writes are the runner's
    // backpressure, the socket buffer its bounded queue.
    if stream.set_nonblocking(false).is_err() {
        return Err(SetupFail::new(LinkErrorKind::Malformed));
    }
    Ok((stream, guard))
}

/// Connects to an external daemon.
fn connect_remote(addr: &ServeAddr) -> Result<ConnStream, SetupFail> {
    match addr {
        ServeAddr::Unix(path) => UnixStream::connect(path)
            .map(ConnStream::Unix)
            .map_err(|_| SetupFail::new(LinkErrorKind::Gap)),
        ServeAddr::Tcp(spec) => {
            let sa = spec
                .to_socket_addrs()
                .ok()
                .and_then(|mut addrs| addrs.next())
                .ok_or_else(|| SetupFail::new(LinkErrorKind::Malformed))?;
            let stream = TcpStream::connect_timeout(&sa, ACCEPT_TIMEOUT)
                .map_err(|_| SetupFail::new(LinkErrorKind::Gap))?;
            // Frames are latency-sensitive and already batched; never
            // let Nagle hold them back.
            let _ = stream.set_nodelay(true);
            Ok(ConnStream::Tcp(stream))
        }
    }
}

/// Producer-side frame writer behind the shared send path: a failed
/// write means the consumer is gone, which [`SendLink`](crate::link::SendLink)
/// reports to the producer loop exactly like a closed channel.
struct StreamSink<W: Write> {
    w: BufWriter<W>,
}

impl<W: Write> LinkSink for StreamSink<W> {
    fn send(&mut self, t: Transfer) -> bool {
        write_transfer_frame(&mut self.w, &t).is_ok()
    }
}

fn run_producer(
    session: &Session,
    tuning: SocketTuning,
    start: Instant,
    stream: ConnStream,
    mut guard: Option<ChildGuard>,
) -> Result<SocketReport, SetupFail> {
    let writer = stream
        .try_clone()
        .map_err(|_| SetupFail::new(LinkErrorKind::Malformed))?;
    let mut sink = StreamSink {
        w: BufWriter::new(writer),
    };
    let hello = Hello::from_session(
        session,
        tuning.kill_consumer_after.unwrap_or(0),
        session.words(),
    );
    if write_hello(&mut sink.w, &hello).is_err() {
        return Err(SetupFail {
            kind: LinkErrorKind::Gap,
            consumer_exit: guard.as_mut().and_then(ChildGuard::wait_exit),
        });
    }

    // From here on the run always produces a real report: the DUT side
    // executes locally even if the consumer dies (that becomes a typed
    // link error, not a setup failure).
    let mut producer = session.producer(sink);
    let mut timer = PhaseTimer::monotonic();
    let mut rec = FlightRecorder::default();
    let mut metrics = Metrics::new();
    let h_bytes = metrics.register_histogram("packet.bytes");
    let h_items = metrics.register_histogram("packet.items");
    let mut sizes = |t: &Transfer| {
        metrics.record(h_bytes, t.bytes.len() as u64);
        metrics.record(h_items, u64::from(t.items));
    };
    while producer.running() {
        producer.tick(&mut timer);
        producer.pack(&mut timer);
        producer.feed(&mut timer, &mut rec, &mut sizes);
    }
    producer.flush(&mut timer, &mut rec, &mut sizes);

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
    let consumer_exit = guard.as_mut().and_then(ChildGuard::wait_exit);
    let wall_s = start.elapsed().as_secs_f64();

    if result.is_err() {
        // The consumer process died without a verdict: everything it
        // had not acknowledged is gone. Typed link error, attributed
        // to the produced count (the last sequence we know left).
        rec.record(FlightRecord {
            kind: FlightKind::LinkError,
            core: 0,
            seq: produced,
            cycle: producer.dut().cycles(),
            value: LinkErrorKind::Gap as u64,
        });
    }
    let out = producer.finish(&timer, &rec);
    metrics.phases = out.phases;
    // One merged timeline: the producer's own track plus the consumer
    // process's tracks (none without a result blob), already shifted
    // onto this clock via the wall-epoch exchanged in the handshake.
    let mut spans = vec![out.spans];
    let mut link = LinkStats::default();
    let (outcome, mismatch, items, consumer_flight) = match result {
        Ok(res) => {
            metrics.phases.merge(&res.phases);
            metrics.counters.set("obs.transfers", res.obs_transfers);
            metrics.counters.set("obs.bytes", res.obs_bytes);
            metrics.counters.set("obs.items", res.items);
            metrics.set_gauge("reorder.buffered.max", res.g_reorder);
            metrics.set_gauge("checker.pending.max", res.g_pending);
            spans.extend(res.spans);
            link = res.link;
            (
                RunOutcome::decide(res.mismatch.is_some(), res.link_error, res.verdict),
                res.mismatch,
                res.items,
                Some(res.flight),
            )
        }
        Err(_) => {
            let kind = LinkErrorKind::Gap;
            link.note(kind);
            let seq = produced;
            (RunOutcome::LinkError { kind, seq, core: 0 }, None, 0, None)
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
        metrics,
        flight: None,
    };
    // Producer-side context (sends, fusion) first, then the consumer
    // process's view of arrivals and the verdict — same ordering as the
    // threaded runner.
    let mut flight = out.flight;
    seal_report(
        RunnerKind::Socket,
        &mut common,
        session.tracer(),
        spans,
        || {
            if let Some(theirs) = &consumer_flight {
                flight.append(theirs);
            }
            flight
        },
    );
    Ok(SocketReport {
        cycles_per_sec: common.cycles as f64 / wall_s.max(1e-9),
        common,
        wall_s,
        consumer_exit,
    })
}

/// The spawned consumer process: connect back and drive one
/// [`ProtoSession`] off the socket with blocking reads, then serialize
/// the verdict. Exit codes are diagnostics only (the producer treats
/// any missing/short result blob as a link error).
fn consumer_main() -> i32 {
    let Some(path) = std::env::var_os(PATH_ENV) else {
        return 2;
    };
    let Ok(mut stream) = UnixStream::connect(&path) else {
        return 3;
    };
    let Ok(result_handle) = stream.try_clone() else {
        return 3;
    };
    // A dead or wedged peer must not hang setup forever: bounded reads
    // until the handshake decodes, unbounded after (the producer may
    // legitimately compute for a long time between frames).
    if stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).is_err() {
        return 3;
    }
    let mut sess = ProtoSession::new();
    let mut buf = [0u8; 64 * 1024];
    let mut hello_handled = false;
    let outcome = loop {
        match stream.read(&mut buf) {
            Ok(0) => break sess.eof(),
            Ok(n) => {
                let step = match sess.feed(&buf[..n]) {
                    Ok(step) => step,
                    // Pre-hello protocol violation: nothing to report.
                    Err(_) => return 4,
                };
                match step {
                    MuxStep::Running => {
                        if !hello_handled && sess.hello_seen() {
                            hello_handled = true;
                            let _ = stream.set_read_timeout(None);
                        }
                    }
                    // Tuning knob: die abruptly mid-stream, exercising
                    // the producer's EPIPE/short-result handling.
                    MuxStep::Killed => std::process::exit(KILLED_EXIT),
                    MuxStep::Decided => {
                        // Early stop (mismatch/trap decided the run):
                        // half-close the read side so the producer's
                        // blocked frame writes fail with EPIPE instead
                        // of stuffing a dead pipe.
                        let _ = result_handle.shutdown(Shutdown::Read);
                        break MuxStep::Decided;
                    }
                    other => break other,
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Handshake never arrived within the deadline.
                return 4;
            }
            // Peer vanished: decide with what arrived (the result write
            // below will usually fail, which is fine — exit codes are
            // diagnostics).
            Err(_) => break sess.eof(),
        }
    };
    if outcome == MuxStep::NoSession {
        return 4;
    }
    let Some(res) = sess.take_result() else {
        return 4;
    };
    let mut w = BufWriter::new(result_handle);
    if w.write_all(&res.blob).and_then(|()| w.flush()).is_err() {
        return 5;
    }
    0
}
