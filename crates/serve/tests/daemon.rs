//! End-to-end acceptance for the persistent verification daemon.
//!
//! Producers connect to an in-process (or spawned-binary) daemon, one
//! libtest thread each, so the default harness's thread-per-test
//! parallelism is exactly what serving many sessions needs exercised.
//!
//! Coverage: many concurrent sessions reach verdicts byte-identical to
//! the single-process engine over both transports, one mismatching
//! session cannot disturb its neighbors, an early stop over Unix stops
//! its producer at once, hostile or vanished clients are contained as
//! counters, and drain (flag or SIGTERM on the real binary) finishes
//! in-flight sessions before exiting.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use difftest_core::proto::{read_result, write_end_frame, write_hello, write_transfer_frame};
use difftest_core::{
    run_runner, run_socket_session, DiffConfig, Hello, LinkSink, RunOutcome, RunnerKind,
    RunnerReport, ServeAddr, Session, SocketReport, SocketTuning, Transfer,
};
use difftest_dut::{BugKind, BugSpec, DutConfig};
use difftest_serve::{spawn, ServeConfig};
use difftest_workload::Workload;

const MAX_CYCLES: u64 = 400_000;
const QUEUE_DEPTH: usize = 8;

fn engine(w: &Workload, bugs: Vec<BugSpec>) -> RunnerReport {
    run_runner(
        RunnerKind::Engine,
        DutConfig::nutshell(),
        DiffConfig::BNSD,
        w,
        bugs,
        MAX_CYCLES,
        QUEUE_DEPTH,
        None,
    )
}

fn session(w: &Workload, bugs: Vec<BugSpec>) -> Session {
    Session::new(
        DutConfig::nutshell(),
        DiffConfig::BNSD,
        w,
        bugs,
        MAX_CYCLES,
        QUEUE_DEPTH,
        None,
    )
}

fn via_daemon(addr: &ServeAddr, w: &Workload, bugs: Vec<BugSpec>) -> SocketReport {
    run_socket_session(session(w, bugs), Some(addr), SocketTuning::default())
}

/// The producer end of a hand-driven daemon connection: every transfer
/// becomes one DTH frame on the stream.
struct FrameSink(BufWriter<UnixStream>);

impl LinkSink for FrameSink {
    fn send(&mut self, t: Transfer, spent: &mut Vec<Vec<u8>>) -> bool {
        let ok = write_transfer_frame(&mut self.0, &t).is_ok();
        spent.push(t.bytes);
        ok
    }
}

/// What [`hand_driven`] reads back: the fields the engine comparison uses.
struct HandReport {
    outcome: RunOutcome,
    items: u64,
    instructions: u64,
}

/// What the eight [`hand_driven`] clients share: how many have connected
/// so far, and the barrier that holds back their end frames.
struct Overlap {
    connected: Mutex<usize>,
    ends: Barrier,
}

/// One clean session spoken to the daemon by hand, so the test — not the
/// scheduler — decides which session may end first: connect, hello,
/// stream, end frame, verdict.
///
/// The daemon registers a session when it accepts the connection, accepts
/// in connect order, and cannot close a session before its end frame. So
/// the client that connected *last* ends first, alone: its verdict proves
/// it was accepted, which puts the other seven — accepted before it, end
/// frames still held back by the barrier — in the registry at that moment.
fn hand_driven(path: &Path, w: &Workload, overlap: &Overlap) -> HandReport {
    let session = session(w, Vec::new());
    let (mut stream, last) = {
        // Connecting under the lock makes the count the accept order.
        let mut n = overlap.connected.lock().expect("connect order");
        *n += 1;
        (UnixStream::connect(path).expect("connect"), *n == 8)
    };
    write_hello(
        &mut stream,
        &Hello::from_session(&session, 0, session.words()),
    )
    .expect("hello");

    let sink = FrameSink(BufWriter::new(stream.try_clone().expect("clone stream")));
    let mut producer = session.producer(sink);
    producer.run();
    if !last {
        overlap.ends.wait();
    }
    let link = producer.link_mut();
    let produced = link.produced();
    let w = &mut link.sink_mut().0;
    write_end_frame(w, produced).expect("end frame");
    w.flush().expect("flush stream");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let res = read_result(&mut BufReader::new(stream)).expect("verdict");
    if last {
        overlap.ends.wait();
    }
    HandReport {
        outcome: RunOutcome::decide(res.mismatch.is_some(), res.link_error, res.verdict),
        items: res.items,
        instructions: producer.finish().instructions,
    }
}

fn unix_sock(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("difftest-daemon-{tag}-{}.sock", std::process::id()))
}

/// Eight producers dialing one daemon at once, each with its own
/// workload: every per-session verdict must equal the single-process
/// engine on the same workload, and the high-water gauge must prove the
/// sessions genuinely overlapped. The clients are [`hand_driven`] so
/// that overlap is constructed rather than hoped for.
#[test]
fn eight_concurrent_unix_sessions_match_engine() {
    let handle = spawn(ServeConfig {
        unix_path: Some(unix_sock("eight")),
        max_sessions: 16,
        ..ServeConfig::default()
    })
    .expect("bind daemon");
    let Some(ServeAddr::Unix(path)) = handle.unix_addr().cloned() else {
        panic!("unix addr");
    };
    let overlap = Arc::new(Overlap {
        connected: Mutex::new(0),
        ends: Barrier::new(8),
    });
    let joins: Vec<_> = (0..8u64)
        .map(|i| {
            let path = path.clone();
            let overlap = Arc::clone(&overlap);
            std::thread::spawn(move || {
                let w = Workload::microbench()
                    .seed(100 + i)
                    .iterations(40 + i as u32)
                    .build();
                (i, hand_driven(&path, &w, &overlap))
            })
        })
        .collect();
    for join in joins {
        let (i, rep) = join.join().expect("producer thread");
        let w = Workload::microbench()
            .seed(100 + i)
            .iterations(40 + i as u32)
            .build();
        let e = engine(&w, Vec::new());
        assert_eq!(rep.outcome, RunOutcome::GoodTrap, "session {i}");
        assert_eq!(rep.outcome, e.outcome, "session {i}");
        assert_eq!(rep.items, e.items, "session {i}: same stream, same items");
        assert_eq!(rep.instructions, e.instructions, "session {i}");
    }
    let summary = handle.drain().expect("drain");
    assert_eq!(summary.counter("serve.sessions.opened"), 8);
    assert_eq!(summary.counter("serve.sessions.finished"), 8);
    assert_eq!(
        summary.metrics.gauge("serve.sessions.active.max"),
        8,
        "sessions must have been concurrent, not serialized"
    );
    assert_eq!(summary.metrics.gauge("serve.sessions.active"), 0);
    assert_eq!(summary.counter("serve.conns.unix"), 8);
}

/// TCP transport, one session carrying an injected DUT bug among clean
/// neighbors: the buggy session must report the engine's exact
/// mismatch, the neighbors must stay clean — fault containment across
/// sessions of one daemon.
#[test]
fn tcp_mismatch_is_contained_to_its_session() {
    let handle = spawn(ServeConfig {
        tcp_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    })
    .expect("bind daemon");
    let addr = handle.tcp_addr().expect("tcp addr").clone();
    let bugs = vec![BugSpec::new(BugKind::RegWriteCorruption, 2_000)];
    let buggy_w = Workload::linux_boot().seed(7).iterations(300).build();
    let barrier = Arc::new(Barrier::new(4));
    let mut joins = Vec::new();
    {
        let addr = addr.clone();
        let barrier = Arc::clone(&barrier);
        let bugs = bugs.clone();
        let w = buggy_w.clone();
        joins.push(std::thread::spawn(move || {
            barrier.wait();
            (u64::MAX, via_daemon(&addr, &w, bugs))
        }));
    }
    for i in 0..3u64 {
        let addr = addr.clone();
        let barrier = Arc::clone(&barrier);
        joins.push(std::thread::spawn(move || {
            let w = Workload::microbench().seed(200 + i).iterations(30).build();
            barrier.wait();
            (i, via_daemon(&addr, &w, Vec::new()))
        }));
    }
    for join in joins {
        let (i, rep) = join.join().expect("producer thread");
        if i == u64::MAX {
            let e = engine(&buggy_w, bugs.clone());
            assert_eq!(rep.outcome, RunOutcome::Mismatch, "buggy session");
            assert_eq!(rep.mismatch, e.mismatch, "mismatch identity");
        } else {
            assert_eq!(rep.outcome, RunOutcome::GoodTrap, "clean neighbor {i}");
        }
    }
    let summary = handle.drain().expect("drain");
    assert_eq!(summary.counter("serve.sessions.opened"), 4);
    assert_eq!(summary.counter("serve.sessions.finished"), 3);
    assert_eq!(summary.counter("serve.sessions.early_stop"), 1);
    assert_eq!(summary.counter("serve.conns.tcp"), 4);
}

/// An early stop over the Unix listener half-closes the session's read
/// side, as the one-shot consumer does: the producer's next frame write
/// fails, so it stops right away instead of running out its cycle budget
/// into a session that has already decided.
#[test]
fn unix_early_stop_stops_the_producer() {
    let handle = spawn(ServeConfig {
        unix_path: Some(unix_sock("early")),
        ..ServeConfig::default()
    })
    .expect("bind daemon");
    let addr = handle.unix_addr().expect("unix addr").clone();
    let bugs = vec![BugSpec::new(BugKind::RegWriteCorruption, 2_000)];
    let w = Workload::linux_boot().seed(7).iterations(300).build();
    let rep = via_daemon(&addr, &w, bugs.clone());
    let e = engine(&w, bugs);
    let clean = engine(&w, Vec::new());
    assert_eq!(rep.outcome, RunOutcome::Mismatch);
    assert_eq!(rep.mismatch, e.mismatch, "mismatch identity");
    assert!(
        rep.cycles < clean.cycles,
        "producer ran {} cycles; the clean run takes {}",
        rep.cycles,
        clean.cycles
    );
    let summary = handle.drain().expect("drain");
    assert_eq!(summary.counter("serve.sessions.early_stop"), 1);
}

/// Hostile and vanished raw clients: garbage magic is rejected, silence
/// trips the hello timeout, and a peer that dies right after its
/// handshake costs the daemon nothing but a counter — no hangs, no
/// panics, no effect on later sessions.
#[test]
fn hostile_and_lost_clients_are_contained() {
    let handle = spawn(ServeConfig {
        unix_path: Some(unix_sock("hostile")),
        hello_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    })
    .expect("bind daemon");
    let Some(ServeAddr::Unix(path)) = handle.unix_addr().cloned() else {
        panic!("unix addr");
    };

    // Wrong magic: dropped on the first mismatching byte.
    let mut garbage = UnixStream::connect(&path).expect("connect");
    garbage.write_all(b"NOPE").expect("write garbage");
    let mut tail = Vec::new();
    garbage
        .read_to_end(&mut tail)
        .expect("peer closes, not hangs");
    assert!(tail.is_empty(), "no result for a rejected client");

    // Silence: never sends a byte, must not hold a session slot forever.
    let silent = UnixStream::connect(&path).expect("connect");

    // Valid handshake, then the producer process "dies".
    let mut ghost = UnixStream::connect(&path).expect("connect");
    write_hello(
        &mut ghost,
        &Hello {
            config: DiffConfig::BNSD,
            cores: 1,
            kill_after: 0,
            trace: false,
            epoch_wall_ns: 0,
            words: vec![0x13],
        },
    )
    .expect("hello");
    drop(ghost);

    // A clean session afterwards must be unaffected.
    let w = Workload::microbench().seed(9).iterations(20).build();
    let rep = via_daemon(&ServeAddr::Unix(path), &w, Vec::new());
    assert_eq!(rep.outcome, RunOutcome::GoodTrap);

    drop(silent);
    let summary = handle.drain().expect("drain");
    assert_eq!(summary.counter("serve.sessions.rejected"), 1);
    // EOF right after a hello still seals a (empty-stream) result; the
    // write back fails because the peer is gone.
    assert_eq!(summary.counter("serve.results.undelivered"), 1);
    assert_eq!(summary.counter("serve.sessions.opened"), 4);
}

/// The silent client from above, isolated: with nothing else happening
/// the daemon must evict it via the hello timeout during drain.
#[test]
fn hello_timeout_evicts_silent_clients() {
    let handle = spawn(ServeConfig {
        unix_path: Some(unix_sock("timeout")),
        hello_timeout: Duration::from_millis(100),
        ..ServeConfig::default()
    })
    .expect("bind daemon");
    let Some(ServeAddr::Unix(path)) = handle.unix_addr().cloned() else {
        panic!("unix addr");
    };
    let mut silent = UnixStream::connect(&path).expect("connect");
    let mut tail = Vec::new();
    // The daemon closes the connection once the deadline passes.
    silent.read_to_end(&mut tail).expect("evicted, not hung");
    assert!(tail.is_empty());
    let summary = handle.drain().expect("drain");
    assert_eq!(summary.counter("serve.sessions.hello_timeout"), 1);
}

/// Graceful drain with sessions in flight: setting the shutdown flag
/// mid-run must let every producer finish its stream and receive its
/// DTHR verdict, then stop the loop.
#[test]
fn drain_finishes_inflight_sessions() {
    let handle = spawn(ServeConfig {
        unix_path: Some(unix_sock("drain")),
        ..ServeConfig::default()
    })
    .expect("bind daemon");
    let addr = handle.unix_addr().expect("unix addr").clone();
    let flag = handle.shutdown_flag();
    let barrier = Arc::new(Barrier::new(4));
    let joins: Vec<_> = (0..3u64)
        .map(|i| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let w = Workload::linux_boot().seed(i).iterations(150).build();
                barrier.wait();
                (i, via_daemon(&addr, &w, Vec::new()))
            })
        })
        .collect();
    barrier.wait();
    // Let the producers connect and get their streams going, then pull
    // the plug while they are mid-flight.
    std::thread::sleep(Duration::from_millis(200));
    flag.store(true, Ordering::SeqCst);
    for join in joins {
        let (i, rep) = join.join().expect("producer thread");
        assert_eq!(
            rep.outcome,
            RunOutcome::GoodTrap,
            "session {i} must finish across the drain"
        );
    }
    let summary = handle.drain().expect("drain");
    assert_eq!(summary.counter("serve.drains"), 1);
    assert_eq!(summary.counter("serve.sessions.finished"), 3);
    assert_eq!(summary.metrics.gauge("serve.sessions.active"), 0);
}

/// The real binary under SIGTERM: spawn `difftest-serve`, run sessions
/// against it, signal mid-flight, and require a clean exit with the
/// final `serve.*` accounting exported through `DIFFTEST_OBS`.
#[test]
fn sigterm_binary_drains_gracefully() {
    let sock = unix_sock("sigterm");
    let obs = std::env::temp_dir().join(format!("difftest-serve-obs-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&obs);
    let mut child = Command::new(env!("CARGO_BIN_EXE_difftest-serve"))
        .arg("--unix")
        .arg(&sock)
        .env("DIFFTEST_OBS", &obs)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn difftest-serve");
    let mut lines = BufReader::new(child.stdout.take().expect("stdout"));
    let mut line = String::new();
    loop {
        line.clear();
        let n = lines.read_line(&mut line).expect("daemon stdout");
        assert!(n > 0, "daemon exited before becoming ready");
        if line.trim() == "ready" {
            break;
        }
    }

    let addr = ServeAddr::Unix(sock.clone());
    let joins: Vec<_> = (0..2u64)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let w = Workload::linux_boot().seed(40 + i).iterations(150).build();
                (i, via_daemon(&addr, &w, Vec::new()))
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(150));
    let killed = Command::new("sh")
        .arg("-c")
        .arg(format!("kill -TERM {}", child.id()))
        .status()
        .expect("send SIGTERM");
    assert!(killed.success());

    for join in joins {
        let (i, rep) = join.join().expect("producer thread");
        assert_eq!(
            rep.outcome,
            RunOutcome::GoodTrap,
            "session {i} must finish across SIGTERM"
        );
    }
    let status = child.wait().expect("daemon exit");
    assert!(status.success(), "drain must exit 0, got {status:?}");
    let mut rest = String::new();
    lines.read_to_string(&mut rest).expect("daemon stdout tail");
    assert!(rest.contains("drained:"), "missing drain summary: {rest:?}");

    let text = std::fs::read_to_string(&obs).expect("obs export");
    assert!(
        text.contains("\"runner\":\"serve\""),
        "service-level export"
    );
    assert!(text.contains("serve.sessions.finished"));
    assert!(
        text.contains("\"runner\":\"serve.s1\"") && text.contains("\"runner\":\"serve.s2\""),
        "per-session exports"
    );
    let _ = std::fs::remove_file(&obs);
}
