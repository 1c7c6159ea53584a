//! The persistent verification daemon: one consumer service serving
//! many concurrent producer sessions over the DTH wire protocol.
//!
//! The one-shot socket runner builds a consumer inside each run. This
//! crate keeps the consumer side resident: an accept thread polls a
//! Unix-domain and/or TCP listener and hands every producer connection
//! to a thread of its own, which runs the one socket consumer loop
//! ([`serve_connection`]) the one-shot runner runs too, and writes the
//! session's DTHR result blob back on its connection. Producers are the unmodified socket runner pointed at
//! the daemon (`DIFFTEST_SERVE_ADDR` or an address passed to
//! [`run_socket_session`](difftest_core::run_socket_session)); verdicts
//! are byte-identical to the one-shot arrangement because both share
//! the same protocol, loop and consumer pipeline.
//!
//! # Backpressure
//!
//! Each session thread reads as fast as its own session checks and
//! never buffers beyond the frame decoder's current frame. A producer
//! that outruns its session fills the kernel socket buffer and stalls in
//! its blocking frame writes — producer-visible backoff with bounded
//! daemon memory, the same flow control the one-shot runner gets. A slow
//! session stalls only its own producer. At most
//! [`ServeConfig::max_sessions`] run at once; further connections wait
//! in the kernel accept backlog.
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

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

use difftest_core::{serve_connection, CloseReason, Conn, ServeAddr, Served, SessionRegistry};
use difftest_stats::{export_to_env, Metrics};

/// How long the accept thread sleeps when no connection is pending
/// (or the service is at capacity) before polling its listeners and the
/// shutdown flag again.
const ACCEPT_POLL: Duration = Duration::from_micros(500);

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
    /// How long a fresh connection may take to deliver a decodable
    /// handshake, counted from accept, before it is dropped
    /// (`serve.sessions.hello_timeout`).
    pub hello_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            unix_path: None,
            tcp_addr: None,
            max_sessions: 64,
            hello_timeout: Duration::from_secs(10),
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

/// Runs the service until `shutdown` is observed **and** every
/// in-flight session has drained. Returns the final accounting; also
/// exports it (and a per-session export as each session closes) through
/// `DIFFTEST_OBS` when that is set.
///
/// The calling thread accepts, in connect order, and opens each session
/// in the registry before handing its connection to a session thread;
/// that thread does the rest of the accounting when the session closes.
///
/// # Errors
///
/// Only setup-shaped failures (none today) — peer misbehavior never
/// errors the service; it is counted and the connection dropped.
pub fn serve(bound: Bound, shutdown: &AtomicBool) -> io::Result<ServeSummary> {
    serve_with(bound, shutdown, serve_connection)
}

/// [`serve`] over any session function. A session that panics closes
/// alone, as [`CloseReason::Panicked`]: its connection drops with the
/// unwind (its producer sees EOF, a typed link error) and every other
/// session keeps running.
fn serve_with(
    bound: Bound,
    shutdown: &AtomicBool,
    session: impl Fn(Conn, Duration) -> Served + Sync,
) -> io::Result<ServeSummary> {
    let session = &session;
    let hello_timeout = bound.cfg.hello_timeout;
    let reg = &Mutex::new(SessionRegistry::new());
    thread::scope(|s| {
        while !shutdown.load(Ordering::SeqCst) {
            let pending = if lock(reg).active() < bound.cfg.max_sessions {
                accept(&bound)
            } else {
                None
            };
            let Some((conn, transport)) = pending else {
                thread::sleep(ACCEPT_POLL);
                continue;
            };
            let sid = {
                let mut reg = lock(reg);
                let sid = reg.open();
                reg.metrics_mut().counters.add("serve.conns.accepted", 1);
                reg.metrics_mut().counters.add(transport, 1);
                sid
            };
            let spawned = thread::Builder::new()
                .name(format!("difftest-serve-s{sid}"))
                .spawn_scoped(s, move || {
                    match catch_unwind(AssertUnwindSafe(|| session(conn, hello_timeout))) {
                        Ok(served) => close(reg, sid, served),
                        Err(_) => lock(reg).close(CloseReason::Panicked, None),
                    }
                });
            if spawned.is_err() {
                // No thread to serve it on: the connection was dropped
                // with the failed spawn.
                lock(reg).close(CloseReason::Rejected, None);
            }
        }
        lock(reg).metrics_mut().counters.add("serve.drains", 1);
    });
    if let Some(path) = &bound.unix_path {
        let _ = std::fs::remove_file(path);
    }
    let summary = ServeSummary {
        metrics: lock(reg).metrics().clone(),
    };
    if let Err(e) = export_to_env("serve", &summary.metrics, None) {
        eprintln!(
            "difftest-serve: {} export failed: {e}",
            difftest_stats::OBS_ENV
        );
    }
    Ok(summary)
}

/// Takes one pending connection off either listener, as a blocking
/// [`Conn`] plus the counter naming its transport.
fn accept(bound: &Bound) -> Option<(Conn, &'static str)> {
    // The listeners are nonblocking, and BSD and macOS hand that flag
    // on to accepted streams: clear it, the session loop blocks.
    if let Some((s, _)) = bound.unix.as_ref().and_then(|l| l.accept().ok()) {
        return s
            .set_nonblocking(false)
            .ok()
            .map(|()| (Conn::Unix(s), "serve.conns.unix"));
    }
    let (s, _) = bound.tcp.as_ref()?.accept().ok()?;
    // Result blobs and backpressure care about latency, not about
    // coalescing tiny segments.
    let _ = s.set_nodelay(true);
    s.set_nonblocking(false)
        .ok()
        .map(|()| (Conn::Tcp(s), "serve.conns.tcp"))
}

/// Closes a served session: lifecycle counters, bytes read, undelivered
/// results and the `serve.s<id>` export, all under the registry lock so
/// exports never interleave.
fn close(reg: &Mutex<SessionRegistry>, sid: u64, served: Served) {
    let mut reg = lock(reg);
    reg.close(served.reason, served.result.as_ref());
    let counters = &mut reg.metrics_mut().counters;
    counters.add("serve.bytes.read", served.bytes_read);
    let Some(res) = served.result else {
        return;
    };
    if !served.delivered {
        counters.add("serve.results.undelivered", 1);
    }
    if let Err(e) = export_to_env(&format!("serve.s{sid}"), &res.output.obs.metrics, None) {
        eprintln!(
            "difftest-serve: {} export failed: {e}",
            difftest_stats::OBS_ENV
        );
    }
}

/// The registry, even if a session thread panicked while holding it:
/// every update under the lock is a whole counter or gauge write, so the
/// accounting of every other session stays valid.
fn lock(reg: &Mutex<SessionRegistry>) -> MutexGuard<'_, SessionRegistry> {
    reg.lock().unwrap_or_else(PoisonError::into_inner)
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

#[cfg(test)]
mod tests {
    use super::*;
    use difftest_core::{
        run_session, run_socket_session, DiffConfig, RunOutcome, RunnerKind, Session, SocketTuning,
    };
    use difftest_dut::DutConfig;
    use difftest_workload::Workload;

    /// One session's panic costs that session alone: its producer gets a
    /// typed link error, the sessions after it reach the engine's
    /// verdict, and the drain returns `Ok` with the panic counted.
    #[test]
    fn a_panicking_session_closes_alone() {
        let path =
            std::env::temp_dir().join(format!("difftest-serve-panic-{}.sock", std::process::id()));
        let bound = bind(ServeConfig {
            unix_path: Some(path),
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = bound.unix_addr().unwrap();
        let w = Workload::microbench().seed(5).iterations(10).build();
        let session = || {
            Session::new(
                DutConfig::nutshell(),
                DiffConfig::BNSD,
                &w,
                Vec::new(),
                200_000,
                8,
                None,
            )
        };
        let engine = run_session(RunnerKind::Engine, session());
        let (shutdown, first) = (AtomicBool::new(false), AtomicBool::new(true));
        thread::scope(|s| {
            let server = s.spawn(|| {
                serve_with(bound, &shutdown, |conn, hello| {
                    if first.swap(false, Ordering::SeqCst) {
                        panic!("injected session panic");
                    }
                    serve_connection(conn, hello)
                })
            });
            let socket = || run_socket_session(session(), Some(&addr), SocketTuning::default());
            let lost = socket();
            assert!(
                matches!(lost.outcome, RunOutcome::LinkError { .. }),
                "{:?}",
                lost.outcome
            );
            let neighbours = [s.spawn(socket), s.spawn(socket)];
            for n in neighbours {
                let r = n.join().unwrap();
                assert_eq!((r.outcome, r.items), (engine.outcome, engine.items));
            }
            shutdown.store(true, Ordering::SeqCst);
            let summary = server.join().unwrap().expect("drain returns Ok");
            assert_eq!(summary.counter("serve.sessions.panicked"), 1);
            assert_eq!(summary.counter("serve.sessions.finished"), 2);
            assert_eq!(summary.counter("serve.sessions.opened"), 3);
            assert_eq!(summary.metrics.gauge("serve.sessions.active"), 0);
        });
    }
}
