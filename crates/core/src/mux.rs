//! The one socket consumer loop over the DTH wire protocol,
//! [`serve_connection`], and a [`SessionRegistry`] that accounts many of
//! its sessions behind one service.
//!
//! [`serve_connection`] reads a client stream into a [`FrameDecoder`],
//! builds a `Consumer` when the hello decodes, and ingests each transfer
//! frame into it: the same state machine every runner drives. It is the
//! only code that turns a socket's frames into a verdict: the one-shot
//! socket runner calls it on its calling thread, and `difftest-serve` on
//! one thread per accepted connection. Both therefore share these
//! semantics:
//!
//! - the hello must decode within an absolute deadline; after it, reads
//!   block without a timeout,
//! - an early consumer stop ([`CloseReason::EarlyStop`]) seals the
//!   result immediately and makes the producer's writes fail fast (Unix)
//!   or drains them (TCP),
//! - a post-hello codec error is treated as end-of-stream, and the
//!   pipeline judges what the truncation means,
//! - EOF without an end frame finishes the stream with an unknown
//!   produced count (tail-loss attribution unchanged).

// Peer bytes reach this module: every read of them is checked.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

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
use crate::proto::{write_result, ClientMsg, FrameDecoder, Hello};
use crate::session::Session;

/// How many bytes one read of [`serve_connection`] takes off the socket.
const READ_CHUNK: usize = 64 * 1024;

/// Builds a session's pipeline from its decoded hello, with the shift
/// that maps the consumer's span timestamps onto the producer's clock.
/// The consumer only needs what the receive side uses: core count and
/// the memory image the reference models boot from. Bugs, cycle budget
/// and fault plans live producer-side. Tracing config comes from the
/// handshake, never this process's environment: `with_tracer(None)`
/// keeps a socket consumer (or daemon) from clobbering the producer's
/// merged trace file.
fn start(h: Hello) -> (Consumer, i64) {
    let mut dut_cfg = DutConfig::nutshell();
    dut_cfg.cores = h.cores;
    let mut image = Memory::new();
    image.load_words(Memory::RAM_BASE, &h.words);
    let session =
        Session::from_image(dut_cfg, h.config, image, Vec::new(), 0, 1, None).with_tracer(None);
    let consumer = session.consumer();
    if !h.trace {
        return (consumer, 0);
    }
    // Own clock, origin now. Producer timeline = wall - producer epoch;
    // consumer timeline = wall - consumer epoch. Shifting by (consumer -
    // producer) maps the consumer's spans onto the producer's clock.
    let shift = wall_epoch_ns() as i64 - h.epoch_wall_ns as i64;
    let spans = SpanSink::on_track(
        Arc::new(MonotonicClock::default()),
        DEFAULT_SPAN_CAPACITY,
        PID_CONSUMER,
        0,
        "consumer",
        "consumer",
    );
    (consumer.with_spans(spans), shift)
}

/// Seals a session: finishes the stream (unless the consumer already
/// stopped) and moves its spans onto the producer's clock. The produced
/// count, when the end frame brought one, exposes tail loss the
/// sequence window cannot see.
fn seal(mut consumer: Consumer, span_shift: i64, produced: Option<u32>) -> ConsumerOutput {
    if !consumer.stopped() {
        consumer.finish_stream(produced, 0, &mut NoCharge);
    }
    let mut out = consumer.finish();
    for b in &mut out.obs.spans {
        b.shift_ts(span_shift);
    }
    out
}

/// Why a session left the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// Stream completed and the result blob was delivered.
    Finished,
    /// Consumer decided early; result delivered, read side dropped.
    EarlyStop,
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
    /// The sealed consumer output (`Finished` and `EarlyStop` only),
    /// whose `DTHR` blob was written back to the peer.
    pub result: Option<ConsumerOutput>,
    /// Whether the result blob was written back in full.
    pub delivered: bool,
    /// Bytes read off the connection, drained ones included.
    pub bytes_read: u64,
}

/// The one socket consumer loop: reads `conn` with blocking reads,
/// ingests each decoded transfer into the session's consumer until the
/// stream closes, then writes the result blob back.
///
/// The hello must decode within `hello_within` of the call. That is an
/// absolute deadline, so a peer dribbling bytes cannot hold a session
/// open; after the hello, reads block without a timeout (the producer
/// may compute for a long time between frames). An early stop over Unix
/// half-closes the read side and then delivers, so the producer's next
/// frame write fails with EPIPE. Over TCP, closing with unread inbound
/// data would reset the connection and lose the blob, so the loop
/// delivers first and then discards inbound bytes until the producer's
/// EOF. Returning drops `conn`; for a rejected or lost session that
/// close is all the producer sees.
pub fn serve_connection(mut conn: Conn, hello_within: Duration) -> Served {
    let deadline = Instant::now() + hello_within;
    let mut dec = FrameDecoder::new();
    let mut session: Option<(Consumer, i64)> = None;
    let mut buf = [0u8; READ_CHUNK];
    let mut bytes_read = 0u64;
    let (reason, produced) = 'serve: loop {
        if session.is_none() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || conn.set_read_timeout(Some(left)).is_err() {
                break (CloseReason::HelloTimeout, None);
            }
        }
        match conn.read(&mut buf) {
            // EOF: after the hello it ends the stream with an unknown
            // produced count; before it there is nothing to report.
            Ok(0) if session.is_some() => break (CloseReason::Finished, None),
            Ok(0) => break (CloseReason::ProducerLost, None),
            Ok(n) => {
                bytes_read += n as u64;
                dec.push(buf.get(..n).unwrap_or_default());
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if session.is_none()
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                break (CloseReason::HelloTimeout, None)
            }
            Err(_) => break (CloseReason::ProducerLost, None),
        }
        loop {
            match (dec.next_msg(), session.as_mut()) {
                (Ok(None), _) => break,
                (Ok(Some(ClientMsg::Hello(h))), _) => {
                    session = Some(start(h));
                    let _ = conn.set_read_timeout(None);
                }
                (Ok(Some(ClientMsg::Transfer(t))), Some((consumer, _))) => {
                    if consumer.ingest(&t, 0, &mut NoCharge) == Step::Stop {
                        break 'serve (CloseReason::EarlyStop, None);
                    }
                }
                (Ok(Some(ClientMsg::End { produced })), Some(_)) => {
                    break 'serve (CloseReason::Finished, Some(produced));
                }
                // Post-hello codec damage is end-of-stream: the pipeline
                // judges what the truncation means.
                (Err(_), Some(_)) => break 'serve (CloseReason::Finished, None),
                // A pre-hello protocol violation (the decoder yields no
                // frame before the hello): there is no session to report.
                (_, None) => break 'serve (CloseReason::Rejected, None),
            }
        }
    };
    let result = session
        .filter(|_| matches!(reason, CloseReason::Finished | CloseReason::EarlyStop))
        .map(|(consumer, span_shift)| seal(consumer, span_shift, produced));
    let early = reason == CloseReason::EarlyStop;
    let unix = matches!(conn, Conn::Unix(_));
    if early && unix {
        let _ = conn.shutdown(Shutdown::Read);
    }
    let delivered = result.as_ref().is_some_and(|out| {
        let mut blob = Vec::new();
        write_result(&mut blob, out)
            .and_then(|()| conn.write_all(&blob))
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
    pub fn close(&mut self, reason: CloseReason, result: Option<&ConsumerOutput>) {
        self.active = self.active.saturating_sub(1);
        self.metrics.set(self.g_active, self.active as u64);
        self.metrics.counters.add(reason.counter(), 1);
        if let Some(res) = result {
            self.metrics.counters.add("serve.items", res.items);
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

    /// Serves `bytes`, written in `chunk`-byte writes, over a socket
    /// pair; returns what `serve_connection` reports and the bytes it
    /// wrote back.
    fn serve_bytes(bytes: &[u8], chunk: usize) -> (Served, Vec<u8>) {
        let (mut ours, theirs) = UnixStream::pair().unwrap();
        std::thread::scope(|s| {
            let consumer =
                s.spawn(|| serve_connection(Conn::Unix(theirs), Duration::from_secs(10)));
            for part in bytes.chunks(chunk) {
                if ours.write_all(part).is_err() {
                    break;
                }
            }
            let _ = ours.shutdown(Shutdown::Write);
            let mut back = Vec::new();
            let _ = ours.read_to_end(&mut back);
            (consumer.join().unwrap(), back)
        })
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
        // Ragged chunking across the whole stream.
        let (served, back) = serve_bytes(&bytes, 193);
        assert_eq!(served.reason, CloseReason::Finished);
        assert!(served.delivered);
        let out = served.result.unwrap();
        assert!(out.mismatch.is_none());
        assert!(out.link_error.is_none());
        assert_eq!(engine.outcome, RunOutcome::GoodTrap);
        assert_eq!(out.items, engine.items);
        let res = read_result(&mut back.as_slice()).unwrap();
        assert_eq!(res.items, engine.items);
    }

    #[test]
    fn registry_tracks_lifecycle_counters() {
        let mut reg = SessionRegistry::new();
        reg.open();
        reg.open();
        assert_eq!(reg.active(), 2);
        assert_eq!(reg.metrics().gauge("serve.sessions.active.max"), 2);

        let (bytes, _) = stream_for(3);
        let (served, _) = serve_bytes(&bytes, bytes.len());
        assert_eq!(served.reason, CloseReason::Finished);
        assert!(served.result.is_some());
        reg.close(served.reason, served.result.as_ref());
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
    fn eof_before_hello_is_no_session() {
        let (served, back) = serve_bytes(b"DT", 2);
        assert_eq!(served.reason, CloseReason::ProducerLost);
        assert!(served.result.is_none());
        assert!(back.is_empty());
    }
}
