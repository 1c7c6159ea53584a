//! Consumer sessions over the DTH wire protocol: one [`ProtoSession`]
//! per client stream, drivable incrementally from partial frames; the
//! one socket consumer loop that drives it, [`serve_connection`]; and a
//! [`SessionRegistry`] that accounts many of them behind one service.
//!
//! Bytes are *pushed* into a session as they arrive
//! ([`ProtoSession::feed`]), the embedded [`FrameDecoder`] surfaces whole
//! messages, and each message advances the same `Consumer` state machine
//! every runner drives. [`serve_connection`] is the only code that reads
//! a socket into a session: the one-shot socket runner calls it on its
//! calling thread, and `difftest-serve` on one thread per accepted
//! connection. Both therefore share these semantics:
//!
//! - the hello must decode within an absolute deadline; after it, reads
//!   block without a timeout,
//! - the kill knob fires *before* the n-th transfer is ingested,
//! - an early consumer stop ([`MuxStep::Decided`]) seals the result
//!   immediately and makes the producer's writes fail fast (Unix) or
//!   drains them (TCP),
//! - a post-hello codec error is treated as end-of-stream, and the
//!   pipeline judges what the truncation means,
//! - EOF without an end frame finishes the stream with an unknown
//!   produced count (tail-loss attribution unchanged).

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use difftest_dut::DutConfig;
use difftest_ref::Memory;
use difftest_stats::span::DEFAULT_SPAN_CAPACITY;
use difftest_stats::{wall_epoch_ns, GaugeId, Metrics, MonotonicClock, SpanSink, PID_CONSUMER};

use crate::consume::{Consumer, ConsumerOutput, NoCharge, Step};
use crate::proto::{write_result, ClientMsg, FrameDecoder, Hello, ProtoError};
use crate::session::Session;

/// How many bytes one read of [`serve_connection`] hands to its session.
const READ_CHUNK: usize = 64 * 1024;

/// Where a session stands after a [`ProtoSession::feed`] / `eof` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MuxStep {
    /// Mid-stream: keep feeding bytes.
    Running,
    /// The consumer decided the run early (mismatch/trap/link error):
    /// the result is sealed — stop reading, deliver the blob, close.
    Decided,
    /// The stream completed (end frame or orderly EOF): result sealed.
    Finished,
    /// The hello's kill knob fired: abandon the connection abruptly —
    /// no result blob, no teardown (the tuning knob simulates consumer
    /// death mid-run).
    Killed,
    /// The stream ended before a handshake arrived: nothing to report.
    NoSession,
}

/// A sealed session's deliverables: the serialized `DTHR` blob to send
/// back, and the structured output for service-side accounting and
/// per-session observability export.
#[derive(Debug)]
pub struct SessionResult {
    /// The `DTHR` result blob, ready to write to the peer.
    pub blob: Vec<u8>,
    /// The consumer's structured output (items, verdict, metrics, …).
    pub output: ConsumerOutput,
}

/// The running half of a session, created when the hello decodes.
struct Running {
    consumer: Consumer,
    trace: bool,
    producer_epoch: u64,
    consumer_epoch: u64,
    kill_after: u32,
    delivered: u32,
}

/// One client stream's incremental state machine: decoder + consumer.
///
/// Feed bytes in any fragmentation; the returned [`MuxStep`] says when
/// the session has sealed a result (fetch it with
/// [`take_result`](Self::take_result)). After any terminal step
/// (`Decided`/`Finished`/`Killed`/`NoSession`) or error the session is
/// done and further feeds are inert.
pub struct ProtoSession {
    dec: FrameDecoder,
    run: Option<Running>,
    result: Option<SessionResult>,
    done: bool,
}

impl Default for ProtoSession {
    fn default() -> Self {
        ProtoSession::new()
    }
}

impl ProtoSession {
    /// A session expecting the start of a client stream.
    pub fn new() -> ProtoSession {
        ProtoSession {
            dec: FrameDecoder::new(),
            run: None,
            result: None,
            done: false,
        }
    }

    /// Whether the handshake has been decoded.
    pub fn hello_seen(&self) -> bool {
        self.dec.hello_seen()
    }

    /// Whether the session has reached a terminal state.
    pub fn done(&self) -> bool {
        self.done
    }

    /// Pushes newly received bytes and advances the state machine.
    ///
    /// `Err` is only returned for a *pre-hello* protocol violation (bad
    /// magic/version/bounds): there is no session to report, the caller
    /// should drop the connection. Post-hello damage is folded into
    /// end-of-stream.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<MuxStep, ProtoError> {
        if self.done {
            return Ok(self.terminal_step());
        }
        self.dec.push(bytes);
        self.pump()
    }

    /// Signals end-of-stream (peer closed or read error): finishes the
    /// stream with whatever arrived.
    pub fn eof(&mut self) -> MuxStep {
        if self.done {
            return self.terminal_step();
        }
        if self.run.is_none() {
            self.done = true;
            return MuxStep::NoSession;
        }
        self.seal(None, false)
    }

    /// Takes the sealed result, once a terminal step reported one.
    pub fn take_result(&mut self) -> Option<SessionResult> {
        self.result.take()
    }

    /// The step to repeat once `done` (feeds after a terminal state).
    fn terminal_step(&self) -> MuxStep {
        if self.result.is_some() {
            MuxStep::Finished
        } else if self.run.is_none() && !self.dec.hello_seen() {
            MuxStep::NoSession
        } else {
            MuxStep::Killed
        }
    }

    fn pump(&mut self) -> Result<MuxStep, ProtoError> {
        loop {
            let msg = match self.dec.next_msg() {
                Ok(Some(m)) => m,
                Ok(None) => return Ok(MuxStep::Running),
                Err(e) => {
                    if self.run.is_none() {
                        self.done = true;
                        return Err(e);
                    }
                    // Post-hello codec damage is end-of-stream: the
                    // pipeline judges what the truncation means.
                    return Ok(self.seal(None, false));
                }
            };
            match msg {
                ClientMsg::Hello(h) => self.start(h),
                ClientMsg::Transfer(t) => {
                    let Some(r) = self.run.as_mut() else {
                        // Unreachable: the decoder only yields frames
                        // after the hello. Treat as stream damage.
                        return Ok(self.seal(None, false));
                    };
                    r.delivered += 1;
                    if r.kill_after != 0 && r.delivered >= r.kill_after {
                        // The knob kills *before* the n-th transfer is
                        // ingested.
                        self.done = true;
                        return Ok(MuxStep::Killed);
                    }
                    if r.consumer.ingest(&t, 0, &mut NoCharge) == Step::Stop {
                        return Ok(self.seal(None, true));
                    }
                }
                ClientMsg::End { produced } => {
                    return Ok(self.seal(Some(produced), false));
                }
            }
        }
    }

    /// Builds the per-session pipeline from a decoded hello. The
    /// consumer only needs what the receive side uses: core count and
    /// the memory image the reference models boot from. Bugs, cycle
    /// budget and fault plans live producer-side. Tracing config comes
    /// from the handshake, never this process's environment:
    /// `with_tracer(None)` keeps a socket consumer (or daemon) from
    /// clobbering the producer's merged trace file.
    fn start(&mut self, h: Hello) {
        let mut dut_cfg = DutConfig::nutshell();
        dut_cfg.cores = h.cores;
        let mut image = Memory::new();
        image.load_words(Memory::RAM_BASE, &h.words);
        let session =
            Session::from_image(dut_cfg, h.config, image, Vec::new(), 0, 1, None).with_tracer(None);
        let mut consumer = session.consumer();
        let mut consumer_epoch = 0u64;
        if h.trace {
            // Own clock, origin now; the matching wall epoch lets the
            // spans be shifted onto the producer's timeline before
            // shipping.
            consumer_epoch = wall_epoch_ns();
            consumer = consumer.with_spans(SpanSink::on_track(
                Arc::new(MonotonicClock::default()),
                DEFAULT_SPAN_CAPACITY,
                PID_CONSUMER,
                0,
                "consumer",
                "consumer",
            ));
        }
        self.run = Some(Running {
            consumer,
            trace: h.trace,
            producer_epoch: h.epoch_wall_ns,
            consumer_epoch,
            kill_after: h.kill_after,
            delivered: 0,
        });
    }

    /// Seals the session: finish the stream (unless the consumer already
    /// stopped), serialize the result blob, record the terminal step.
    fn seal(&mut self, produced: Option<u32>, early: bool) -> MuxStep {
        let Some(mut r) = self.run.take() else {
            self.done = true;
            return MuxStep::NoSession;
        };
        self.done = true;
        if !r.consumer.stopped() {
            // EOF/end frame: the produced count (when it arrived)
            // exposes tail loss the sequence window cannot see.
            r.consumer.finish_stream(produced, 0, &mut NoCharge);
        }
        let mut out = r.consumer.finish();
        if r.trace {
            // Producer timeline = wall - producer_epoch; consumer
            // timeline = wall - consumer_epoch. Shifting by (consumer -
            // producer) maps the consumer's spans onto the producer's
            // clock.
            for b in &mut out.obs.spans {
                b.shift_ts(r.consumer_epoch as i64 - r.producer_epoch as i64);
            }
        }
        let mut blob = Vec::new();
        if write_result(&mut blob, &out).is_err() {
            // Vec writes cannot fail; keep the typed path anyway.
            blob.clear();
        }
        self.result = Some(SessionResult { blob, output: out });
        if early {
            MuxStep::Decided
        } else {
            MuxStep::Finished
        }
    }
}

/// Why a session left the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// Stream completed and the result blob was delivered.
    Finished,
    /// Consumer decided early; result delivered, read side dropped.
    EarlyStop,
    /// The hello's kill knob fired (diagnostic tooling).
    Killed,
    /// Pre-hello protocol violation; connection dropped.
    Rejected,
    /// No hello within the service's deadline; connection dropped.
    HelloTimeout,
    /// The peer vanished before a result was sealed (EOF before the
    /// hello, or a read error).
    ProducerLost,
    /// The session panicked; its connection dropped with the unwind.
    Panicked,
}

impl CloseReason {
    /// The `serve.sessions.*` counter this close increments.
    fn counter(self) -> &'static str {
        match self {
            CloseReason::Finished => "serve.sessions.finished",
            CloseReason::EarlyStop => "serve.sessions.early_stop",
            CloseReason::Killed => "serve.sessions.killed",
            CloseReason::Rejected => "serve.sessions.rejected",
            CloseReason::HelloTimeout => "serve.sessions.hello_timeout",
            CloseReason::ProducerLost => "serve.sessions.producer_lost",
            CloseReason::Panicked => "serve.sessions.panicked",
        }
    }
}

/// Either transport a DTH byte stream runs over.
#[derive(Debug)]
pub enum Conn {
    /// A Unix-domain stream: the one-shot pair, or a daemon's Unix
    /// listener.
    Unix(UnixStream),
    /// A TCP stream to or from a daemon.
    Tcp(TcpStream),
}

impl Conn {
    /// A second handle on the same socket.
    pub fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
        }
    }

    /// Shuts down the read half, the write half, or both.
    pub fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.shutdown(how),
            Conn::Tcp(s) => s.shutdown(how),
        }
    }

    /// Bounds every later read by `dur` (`None`: block indefinitely).
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(dur),
            Conn::Tcp(s) => s.set_read_timeout(dur),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// How one connection ended, for the caller's accounting.
#[derive(Debug)]
pub struct Served {
    /// Why the session closed.
    pub reason: CloseReason,
    /// The sealed result (`Finished` and `EarlyStop` only).
    pub result: Option<SessionResult>,
    /// Whether the result blob was written back in full.
    pub delivered: bool,
    /// Bytes read off the connection, drained ones included.
    pub bytes_read: u64,
}

/// The one socket consumer loop: drives a [`ProtoSession`] off `conn`
/// with blocking reads until it closes, then writes the result blob
/// back.
///
/// The hello must decode within `hello_within` of the call. That is an
/// absolute deadline, so a peer dribbling bytes cannot hold a session
/// open; after the hello, reads block without a timeout (the producer
/// may compute for a long time between frames). An early stop over Unix
/// half-closes the read side and then delivers, so the producer's next
/// frame write fails with EPIPE. Over TCP, closing with unread inbound
/// data would reset the connection and lose the blob, so the loop
/// delivers first and then discards inbound bytes until the producer's
/// EOF. Returning drops `conn`; for a killed or rejected session that
/// close is all the producer sees.
pub fn serve_connection(mut conn: Conn, hello_within: Duration) -> Served {
    let deadline = Instant::now() + hello_within;
    let mut sess = ProtoSession::new();
    let mut buf = [0u8; READ_CHUNK];
    let mut bytes_read = 0u64;
    let mut awaiting_hello = true;
    let reason = loop {
        if awaiting_hello {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || conn.set_read_timeout(Some(left)).is_err() {
                break CloseReason::HelloTimeout;
            }
        }
        let step = match conn.read(&mut buf) {
            Ok(0) => sess.eof(),
            Ok(n) => {
                bytes_read += n as u64;
                match sess.feed(&buf[..n]) {
                    Ok(step) => step,
                    Err(_) => break CloseReason::Rejected,
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if awaiting_hello
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                break CloseReason::HelloTimeout
            }
            Err(_) => break CloseReason::ProducerLost,
        };
        if awaiting_hello && sess.hello_seen() {
            awaiting_hello = false;
            let _ = conn.set_read_timeout(None);
        }
        match step {
            MuxStep::Running => {}
            MuxStep::Finished => break CloseReason::Finished,
            MuxStep::Decided => break CloseReason::EarlyStop,
            MuxStep::Killed => break CloseReason::Killed,
            // EOF before the hello: nothing to report.
            MuxStep::NoSession => break CloseReason::ProducerLost,
        }
    };
    let result = sess.take_result();
    let early = reason == CloseReason::EarlyStop;
    let unix = matches!(conn, Conn::Unix(_));
    if early && unix {
        let _ = conn.shutdown(Shutdown::Read);
    }
    let delivered = result.as_ref().is_some_and(|res| {
        conn.write_all(&res.blob)
            .and_then(|()| conn.flush())
            .is_ok()
    });
    if early && !unix {
        loop {
            match conn.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => bytes_read += n as u64,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }
    Served {
        reason,
        result,
        delivered,
        bytes_read,
    }
}

/// Lifecycle accounting for the sessions of one service: session ids
/// plus the service-level metrics registry (`serve.sessions.*` lifecycle
/// counters, the `serve.sessions.active` gauge and its high-water mark).
/// The sessions themselves live with whoever runs [`serve_connection`];
/// everything session-lifecycle is counted here so in-process embedders
/// (tests, the example) and the daemon binary account identically.
pub struct SessionRegistry {
    next_id: u64,
    active: usize,
    metrics: Metrics,
    g_active: GaugeId,
    g_active_max: GaugeId,
}

impl Default for SessionRegistry {
    fn default() -> Self {
        SessionRegistry::new()
    }
}

impl SessionRegistry {
    /// An empty registry with zeroed lifecycle metrics.
    pub fn new() -> SessionRegistry {
        let mut metrics = Metrics::new();
        let g_active = metrics.register_gauge("serve.sessions.active");
        let g_active_max = metrics.register_gauge("serve.sessions.active.max");
        SessionRegistry {
            next_id: 0,
            active: 0,
            metrics,
            g_active,
            g_active_max,
        }
    }

    /// Opens a new session, returning its id (ids are unique for the
    /// registry's lifetime; they namespace per-session observability as
    /// `serve.s<id>`).
    pub fn open(&mut self) -> u64 {
        self.next_id += 1;
        self.active += 1;
        self.metrics.counters.add("serve.sessions.opened", 1);
        self.metrics.set(self.g_active, self.active as u64);
        self.metrics.set_max(self.g_active_max, self.active as u64);
        self.next_id
    }

    /// Closes a session: updates lifecycle counters and the active
    /// gauge, and folds the sealed result's volume (when the session
    /// produced one) into the service totals.
    pub fn close(&mut self, reason: CloseReason, result: Option<&SessionResult>) {
        self.active = self.active.saturating_sub(1);
        self.metrics.set(self.g_active, self.active as u64);
        self.metrics.counters.add(reason.counter(), 1);
        if let Some(res) = result {
            self.metrics.counters.add("serve.items", res.output.items);
        }
    }

    /// Open sessions right now.
    pub fn active(&self) -> usize {
        self.active
    }

    /// The service-level metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable access for service-level counters (connection accepts,
    /// bytes read, drains).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::QueueSink;
    use crate::proto::{read_result, write_end_frame, write_hello, write_transfer_frame};
    use crate::session::DiffConfig;
    use crate::session::RunOutcome;
    use difftest_workload::Workload;

    /// Produces a full clean stream (hello + frames + end) for `seed`.
    fn stream_for(seed: u64) -> (Vec<u8>, u64) {
        let w = Workload::microbench().seed(seed).iterations(10).build();
        let session = Session::new(
            DutConfig::nutshell(),
            DiffConfig::BNSD,
            &w,
            Vec::new(),
            200_000,
            8,
            None,
        );
        let mut p = session.producer(QueueSink::default());
        p.run();
        let mut bytes = Vec::new();
        write_hello(&mut bytes, &Hello::from_session(&session, 0, w.words())).unwrap();
        let queued: Vec<_> = p.link_mut().sink_mut().queue.drain(..).collect();
        for t in queued {
            write_transfer_frame(&mut bytes, &t).unwrap();
        }
        write_end_frame(&mut bytes, p.link_mut().produced()).unwrap();
        (bytes, p.dut().cycles())
    }

    #[test]
    fn incremental_session_matches_engine_verdict() {
        let (bytes, _) = stream_for(7);
        let engine = crate::session::run_runner(
            crate::session::RunnerKind::Engine,
            DutConfig::nutshell(),
            DiffConfig::BNSD,
            &Workload::microbench().seed(7).iterations(10).build(),
            Vec::new(),
            200_000,
            8,
            None,
        );
        let mut sess = ProtoSession::new();
        // Ragged chunking across the whole stream.
        let mut step = MuxStep::Running;
        for chunk in bytes.chunks(193) {
            step = sess.feed(chunk).unwrap();
        }
        assert_eq!(step, MuxStep::Finished);
        let res = sess.take_result().unwrap();
        assert!(res.output.mismatch.is_none());
        assert!(res.output.link_error.is_none());
        assert_eq!(engine.outcome, RunOutcome::GoodTrap);
        assert_eq!(res.output.items, engine.items);
        assert!(!res.blob.is_empty());
    }

    #[test]
    fn registry_tracks_lifecycle_counters() {
        let mut reg = SessionRegistry::new();
        reg.open();
        reg.open();
        assert_eq!(reg.active(), 2);
        assert_eq!(reg.metrics().gauge("serve.sessions.active.max"), 2);

        let (bytes, _) = stream_for(3);
        let mut sess = ProtoSession::new();
        let step = sess.feed(&bytes).unwrap();
        assert_eq!(step, MuxStep::Finished);
        let res = sess.take_result();
        assert!(res.is_some());
        reg.close(CloseReason::Finished, res.as_ref());
        reg.close(CloseReason::HelloTimeout, None);
        assert_eq!(reg.active(), 0);
        let m = reg.metrics();
        assert_eq!(m.counters.get("serve.sessions.opened"), 2);
        assert_eq!(m.counters.get("serve.sessions.finished"), 1);
        assert_eq!(m.counters.get("serve.sessions.hello_timeout"), 1);
        assert_eq!(m.gauge("serve.sessions.active"), 0);
        assert!(m.counters.get("serve.items") > 0);
    }

    /// A one-word program's hello: enough to open a session.
    fn tiny_hello() -> Hello {
        Hello {
            config: DiffConfig::BNSD,
            cores: 1,
            kill_after: 0,
            trace: false,
            epoch_wall_ns: 0,
            words: vec![0x13; 16],
        }
    }

    /// A transfer whose payload fails CRC admission: ingesting it
    /// decides the run.
    fn garbage_transfer(len: usize) -> crate::transport::Transfer {
        crate::transport::Transfer {
            bytes: vec![0xA5; len],
            core: 0,
            items: 1,
        }
    }

    #[test]
    fn early_stop_on_unix_fails_the_next_write_and_still_delivers() {
        let (mut ours, theirs) = UnixStream::pair().unwrap();
        // Kept open so the consumer's close cannot turn the failed write
        // below into a connection reset: only its half-close is seen.
        let _held = theirs.try_clone().unwrap();
        let consumer = std::thread::spawn(move || {
            serve_connection(Conn::Unix(theirs), Duration::from_secs(10))
        });
        write_hello(&mut ours, &tiny_hello()).unwrap();
        // 16 MiB of frames: far more than the socket buffers, so a
        // consumer that keeps reading after its stop would take them all.
        let frame = garbage_transfer(4096);
        let err = (0..4096).find_map(|_| write_transfer_frame(&mut ours, &frame).err());
        let _ = ours.shutdown(Shutdown::Write);
        let res = read_result(&mut ours).unwrap();
        let served = consumer.join().unwrap();
        assert_eq!(err.map(|e| e.kind()), Some(io::ErrorKind::BrokenPipe));
        assert_eq!(served.reason, CloseReason::EarlyStop);
        assert!(served.delivered);
        assert!(res.link_error.is_some());
    }

    #[test]
    fn hello_deadline_is_absolute() {
        let (mut ours, theirs) = UnixStream::pair().unwrap();
        let consumer = std::thread::spawn(move || {
            let start = Instant::now();
            let served = serve_connection(Conn::Unix(theirs), Duration::from_millis(100));
            (served, start.elapsed())
        });
        let mut hello = Vec::new();
        write_hello(&mut hello, &tiny_hello()).unwrap();
        // One byte every 20 ms, never the whole hello: each read is well
        // inside 100 ms, the hello as a whole is not.
        for b in &hello[..hello.len() - 1] {
            if consumer.is_finished() || ours.write_all(&[*b]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let (served, took) = consumer.join().unwrap();
        assert_eq!(served.reason, CloseReason::HelloTimeout);
        assert!(served.result.is_none());
        assert!(took < Duration::from_millis(300), "closed after {took:?}");
    }

    #[test]
    fn kill_knob_fires_before_nth_transfer() {
        let w = Workload::microbench().seed(5).iterations(10).build();
        let session = Session::new(
            DutConfig::nutshell(),
            DiffConfig::BNSD,
            &w,
            Vec::new(),
            200_000,
            8,
            None,
        );
        let mut bytes = Vec::new();
        // kill_after = 1: the knob must fire before even the first
        // transfer is ingested (the payloads below would otherwise
        // trip CRC admission and stop the run early).
        write_hello(&mut bytes, &Hello::from_session(&session, 1, w.words())).unwrap();
        for i in 0..4u8 {
            let t = crate::transport::Transfer {
                bytes: vec![i; 8],
                core: 0,
                items: 1,
            };
            write_transfer_frame(&mut bytes, &t).unwrap();
        }
        let mut sess = ProtoSession::new();
        assert_eq!(sess.feed(&bytes).unwrap(), MuxStep::Killed);
        assert!(sess.done());
        assert!(sess.take_result().is_none());
    }

    #[test]
    fn eof_before_hello_is_no_session() {
        let mut sess = ProtoSession::new();
        assert_eq!(sess.feed(b"DT").unwrap(), MuxStep::Running);
        assert_eq!(sess.eof(), MuxStep::NoSession);
        assert!(sess.take_result().is_none());
    }
}
