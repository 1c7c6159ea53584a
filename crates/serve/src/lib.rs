//! The persistent verification daemon: one consumer service multiplexing
//! many concurrent producer sessions over the DTH wire protocol.
//!
//! The one-shot socket runner pays a process spawn, a handshake and a
//! teardown per run. This crate keeps the consumer side resident: a
//! single-threaded poll loop accepts producer connections on a
//! Unix-domain and/or TCP listener, drives one
//! [`ProtoSession`](difftest_core::ProtoSession) per connection from
//! whatever bytes have arrived, and writes each session's DTHR result
//! blob back on its own connection. Producers are the unmodified socket
//! runner pointed at the daemon (`DIFFTEST_SERVE_ADDR` or an address
//! passed to [`run_socket_session`](difftest_core::run_socket_session));
//! verdicts are byte-identical to the spawned-child arrangement because both
//! sides share the same protocol and consumer pipeline.
//!
//! # Backpressure
//!
//! The loop reads at most [`ServeConfig::read_budget`] bytes per
//! connection per poll round and never buffers beyond the frame
//! decoder's current frame. A producer that outruns the service simply
//! fills the kernel socket buffer and stalls in its blocking frame
//! writes — producer-visible backoff with bounded daemon memory, the
//! same flow control the one-shot runner gets from a busy child.
//!
//! # Drain
//!
//! Setting the shutdown flag (SIGTERM/SIGINT in the binary) stops
//! accepting; in-flight sessions keep running until each reaches its
//! end frame, early stop or EOF and has its result delivered. The final
//! `serve.*` counters are exported through `DIFFTEST_OBS` alongside a
//! per-session export under the `serve.s<id>` label.

#![warn(missing_docs)]
// The daemon must survive hostile peers; failures are counters and
// dropped connections, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use difftest_core::{CloseReason, MuxStep, ServeAddr, SessionRegistry};
use difftest_stats::{export_to_env, Metrics};

/// Tuning for one service instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix-domain listener path (stale files are unlinked on bind).
    pub unix_path: Option<PathBuf>,
    /// TCP listener address, e.g. `"127.0.0.1:0"` (port 0 picks a free
    /// port; read it back from [`Bound::tcp_addr`]).
    pub tcp_addr: Option<String>,
    /// Maximum concurrent producer connections; excess connections wait
    /// in the kernel accept backlog.
    pub max_sessions: usize,
    /// Read budget per connection per poll round, in bytes. This is the
    /// backpressure knob: smaller budgets make the daemon rotate between
    /// sessions more fairly and push slow-consumer stalls back into the
    /// producers sooner.
    pub read_budget: usize,
    /// How long a fresh connection may sit without a decodable
    /// handshake before it is dropped (`serve.sessions.hello_timeout`).
    pub hello_timeout: Duration,
    /// Sleep between poll rounds that made no progress.
    pub idle_sleep: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            unix_path: None,
            tcp_addr: None,
            max_sessions: 64,
            read_budget: 256 * 1024,
            hello_timeout: Duration::from_secs(10),
            idle_sleep: Duration::from_micros(500),
        }
    }
}

/// Listeners bound and ready to serve (bind early, serve later: tests
/// and [`spawn`] need the resolved addresses before the loop runs).
pub struct Bound {
    cfg: ServeConfig,
    unix: Option<UnixListener>,
    unix_path: Option<PathBuf>,
    tcp: Option<TcpListener>,
    tcp_local: Option<SocketAddr>,
}

impl Bound {
    /// The Unix listener's address, when one is bound.
    pub fn unix_addr(&self) -> Option<ServeAddr> {
        self.unix_path.clone().map(ServeAddr::Unix)
    }

    /// The TCP listener's resolved address (real port even when the
    /// config asked for port 0), when one is bound.
    pub fn tcp_addr(&self) -> Option<ServeAddr> {
        self.tcp_local.map(|a| ServeAddr::Tcp(a.to_string()))
    }
}

/// Binds the configured listeners without serving yet.
///
/// # Errors
///
/// Fails when no listener is configured, or when a bind itself fails.
pub fn bind(cfg: ServeConfig) -> io::Result<Bound> {
    if cfg.unix_path.is_none() && cfg.tcp_addr.is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "difftest-serve: no listener configured (need a unix path or tcp addr)",
        ));
    }
    let (unix, unix_path) = match &cfg.unix_path {
        Some(path) => {
            // A stale file from a crashed daemon must not block rebinding.
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path)?;
            l.set_nonblocking(true)?;
            (Some(l), Some(path.clone()))
        }
        None => (None, None),
    };
    let (tcp, tcp_local) = match &cfg.tcp_addr {
        Some(addr) => {
            let l = TcpListener::bind(addr.as_str())?;
            l.set_nonblocking(true)?;
            let local = l.local_addr()?;
            (Some(l), Some(local))
        }
        None => (None, None),
    };
    Ok(Bound {
        cfg,
        unix,
        unix_path,
        tcp,
        tcp_local,
    })
}

/// Final service-level accounting, returned when the drain completes.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// The service metrics registry: `serve.sessions.*` lifecycle
    /// counters, `serve.conns.*`, `serve.bytes.read`, `serve.items`,
    /// and the `serve.sessions.active`/`.max` gauges.
    pub metrics: Metrics,
}

impl ServeSummary {
    /// Convenience counter read (zero when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counters.get(name)
    }
}

/// Either transport a producer connection arrived on.
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_nonblocking(nb),
            Stream::Tcp(s) => s.set_nonblocking(nb),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// One producer connection and its session binding.
struct Conn {
    stream: Stream,
    sid: u64,
    opened: Instant,
    /// After an early stop the result is already delivered but the
    /// producer may still be writing frames; keep reading and
    /// discarding until EOF so a TCP close cannot RST the result blob
    /// out from under the peer.
    discard: bool,
}

/// What a poll round decided about one connection.
enum Fate {
    Keep(bool),
    Drop(bool),
}

/// Runs the service loop until `shutdown` is observed **and** every
/// in-flight session has drained. Returns the final accounting; also
/// exports it (and a per-session export as each session closes) through
/// `DIFFTEST_OBS` when that is set.
///
/// # Errors
///
/// Only setup-shaped failures (none today) — peer misbehavior never
/// errors the loop; it is counted and the connection dropped.
pub fn serve(bound: Bound, shutdown: &AtomicBool) -> io::Result<ServeSummary> {
    let cfg = bound.cfg.clone();
    let mut reg = SessionRegistry::new();
    let mut conns: Vec<Conn> = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut draining = false;
    loop {
        let mut progress = false;
        if !draining && shutdown.load(Ordering::SeqCst) {
            draining = true;
            reg.metrics_mut().counters.add("serve.drains", 1);
        }
        if !draining {
            progress |= accept_round(&bound, &mut reg, &mut conns, &cfg);
        }
        let mut i = 0;
        while i < conns.len() {
            match pump_conn(&mut conns[i], &mut reg, &cfg, &mut buf) {
                Fate::Keep(p) => {
                    progress |= p;
                    i += 1;
                }
                Fate::Drop(p) => {
                    progress |= p;
                    conns.swap_remove(i);
                }
            }
        }
        if draining && conns.is_empty() {
            break;
        }
        if !progress {
            std::thread::sleep(cfg.idle_sleep);
        }
    }
    if let Some(path) = &bound.unix_path {
        let _ = std::fs::remove_file(path);
    }
    let summary = ServeSummary {
        metrics: reg.metrics().clone(),
    };
    if let Err(e) = export_to_env("serve", &summary.metrics, None) {
        eprintln!(
            "difftest-serve: {} export failed: {e}",
            difftest_stats::OBS_ENV
        );
    }
    Ok(summary)
}

/// Accepts whatever is pending on both listeners, up to capacity.
fn accept_round(
    bound: &Bound,
    reg: &mut SessionRegistry,
    conns: &mut Vec<Conn>,
    cfg: &ServeConfig,
) -> bool {
    let mut progress = false;
    if let Some(l) = &bound.unix {
        while conns.len() < cfg.max_sessions {
            match l.accept() {
                Ok((s, _)) => {
                    if s.set_nonblocking(true).is_err() {
                        continue;
                    }
                    progress = true;
                    admit(reg, conns, Stream::Unix(s), "serve.conns.unix");
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }
    if let Some(l) = &bound.tcp {
        while conns.len() < cfg.max_sessions {
            match l.accept() {
                Ok((s, _)) => {
                    if s.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Result blobs and backpressure care about latency,
                    // not about coalescing tiny segments.
                    let _ = s.set_nodelay(true);
                    progress = true;
                    admit(reg, conns, Stream::Tcp(s), "serve.conns.tcp");
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }
    progress
}

fn admit(
    reg: &mut SessionRegistry,
    conns: &mut Vec<Conn>,
    stream: Stream,
    transport: &'static str,
) {
    let sid = reg.open();
    reg.metrics_mut().counters.add("serve.conns.accepted", 1);
    reg.metrics_mut().counters.add(transport, 1);
    conns.push(Conn {
        stream,
        sid,
        opened: Instant::now(),
        discard: false,
    });
}

/// Reads up to the round's budget from one connection and advances its
/// session, handling every terminal step.
fn pump_conn(
    conn: &mut Conn,
    reg: &mut SessionRegistry,
    cfg: &ServeConfig,
    buf: &mut [u8],
) -> Fate {
    let mut progress = false;
    let mut spent = 0usize;
    while spent < cfg.read_budget {
        match conn.stream.read(buf) {
            Ok(0) => {
                if conn.discard {
                    return Fate::Drop(true);
                }
                let step = match reg.session(conn.sid) {
                    Some(s) => s.eof(),
                    None => return Fate::Drop(true),
                };
                return match step {
                    // EOF is how a clean stream ends when the end frame
                    // was lost, and how an early-stopped stream ends
                    // after the producer notices EPIPE; both sealed a
                    // result to deliver.
                    MuxStep::Finished | MuxStep::Decided => {
                        close_deliver(conn, reg, CloseReason::Finished);
                        Fate::Drop(true)
                    }
                    _ => {
                        reg.close(conn.sid, CloseReason::ProducerLost);
                        Fate::Drop(true)
                    }
                };
            }
            Ok(n) => {
                progress = true;
                spent += n;
                reg.metrics_mut().counters.add("serve.bytes.read", n as u64);
                if conn.discard {
                    continue;
                }
                let step = match reg.session(conn.sid) {
                    Some(s) => s.feed(&buf[..n]),
                    None => return Fate::Drop(true),
                };
                match step {
                    Ok(MuxStep::Running) => {}
                    Ok(MuxStep::Finished) => {
                        // Producer half-closed after its end frame, so
                        // nothing more is inbound: deliver and close.
                        close_deliver(conn, reg, CloseReason::Finished);
                        return Fate::Drop(true);
                    }
                    Ok(MuxStep::Decided) => {
                        // Early stop: deliver now, then drain the
                        // producer's remaining frames to EOF.
                        close_deliver(conn, reg, CloseReason::EarlyStop);
                        conn.discard = true;
                        return Fate::Keep(true);
                    }
                    Ok(MuxStep::Killed) => {
                        // Diagnostic kill knob: drop with no result, as
                        // the one-shot consumer abandons its socket end.
                        reg.close(conn.sid, CloseReason::Killed);
                        return Fate::Drop(true);
                    }
                    Ok(MuxStep::NoSession) | Err(_) => {
                        reg.close(conn.sid, CloseReason::Rejected);
                        return Fate::Drop(true);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => {
                reg.close(conn.sid, CloseReason::ProducerLost);
                return Fate::Drop(progress);
            }
        }
    }
    let hello_pending = reg.session(conn.sid).is_some_and(|s| !s.hello_seen());
    if hello_pending && conn.opened.elapsed() > cfg.hello_timeout {
        reg.close(conn.sid, CloseReason::HelloTimeout);
        return Fate::Drop(progress);
    }
    Fate::Keep(progress)
}

/// Closes the session, writes its result blob back (blocking just for
/// the write), and exports the session's own metrics under a
/// `serve.s<id>` label.
fn close_deliver(conn: &mut Conn, reg: &mut SessionRegistry, reason: CloseReason) {
    let sid = conn.sid;
    let Some(res) = reg.close(sid, reason) else {
        return;
    };
    let _ = conn.stream.set_nonblocking(false);
    let delivered = conn
        .stream
        .write_all(&res.blob)
        .and_then(|()| conn.stream.flush())
        .is_ok();
    let _ = conn.stream.set_nonblocking(true);
    if !delivered {
        reg.metrics_mut()
            .counters
            .add("serve.results.undelivered", 1);
    }
    if let Err(e) = export_to_env(&format!("serve.s{sid}"), &res.output.metrics, None) {
        eprintln!(
            "difftest-serve: {} export failed: {e}",
            difftest_stats::OBS_ENV
        );
    }
}

/// A daemon running on a background thread, for embedding in tests and
/// examples (the standalone binary is `difftest-serve`).
pub struct ServeHandle {
    shutdown: Arc<AtomicBool>,
    join: std::thread::JoinHandle<io::Result<ServeSummary>>,
    unix: Option<ServeAddr>,
    tcp: Option<ServeAddr>,
}

impl ServeHandle {
    /// Address producers should dial on the Unix transport.
    pub fn unix_addr(&self) -> Option<&ServeAddr> {
        self.unix.as_ref()
    }

    /// Address producers should dial on the TCP transport.
    pub fn tcp_addr(&self) -> Option<&ServeAddr> {
        self.tcp.as_ref()
    }

    /// Signals drain without waiting (in-flight sessions finish; new
    /// connections are refused work).
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Signals drain and waits for the loop to finish.
    ///
    /// # Errors
    ///
    /// Propagates the loop's error; a panicked service thread becomes
    /// `io::ErrorKind::Other`.
    pub fn drain(self) -> io::Result<ServeSummary> {
        self.shutdown.store(true, Ordering::SeqCst);
        match self.join.join() {
            Ok(r) => r,
            Err(_) => Err(io::Error::other("difftest-serve: service thread panicked")),
        }
    }
}

/// Binds and serves on a background thread; addresses are resolved
/// before this returns, so producers can dial immediately.
///
/// # Errors
///
/// Fails when [`bind`] fails.
pub fn spawn(cfg: ServeConfig) -> io::Result<ServeHandle> {
    let bound = bind(cfg)?;
    let unix = bound.unix_addr();
    let tcp = bound.tcp_addr();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let join = std::thread::Builder::new()
        .name("difftest-serve".into())
        .spawn(move || serve(bound, &flag))?;
    Ok(ServeHandle {
        shutdown,
        join,
        unix,
        tcp,
    })
}
