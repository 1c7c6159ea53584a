//! The one socket consumer loop over the DTH wire protocol,
//! [`serve_connection`].
//!
//! [`serve_connection`] reads a client stream into a [`FrameDecoder`],
//! builds a `Consumer` when the hello decodes, and ingests each transfer
//! frame into it: the same state machine every runner drives. It is the
//! only code that turns a socket's frames into a verdict, and it hands
//! that verdict to its caller (the socket runner, on its calling
//! thread): nothing is ever written back to the peer. Its semantics:
//!
//! - an early consumer stop ([`CloseReason::EarlyStop`]) seals the
//!   result immediately and shuts the read side, so the producer's next
//!   write fails with EPIPE,
//! - a post-hello codec error is treated as end-of-stream, and the
//!   pipeline judges what the truncation means,
//! - EOF without an end frame finishes the stream with an unknown
//!   produced count (tail-loss attribution unchanged).

// Peer bytes reach this module: every read of them is checked.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::io::{self, Read};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::sync::Arc;

use difftest_dut::DutConfig;
use difftest_stats::span::DEFAULT_SPAN_CAPACITY;
use difftest_stats::{wall_epoch_ns, MonotonicClock, SpanSink, PID_CONSUMER};

use crate::consume::{Consumer, ConsumerOutput, NoCharge, Step};
use crate::proto::{ClientMsg, FrameDecoder, Hello};
use crate::session::Session;

/// How many bytes one read of [`serve_connection`] takes off the socket.
const READ_CHUNK: usize = 64 * 1024;

/// Builds a session's pipeline from its decoded hello, with the shift
/// that maps the consumer's span timestamps onto the producer's clock.
/// The consumer only needs what the receive side uses: core count and
/// the memory image the reference models boot from. Bugs, cycle budget
/// and fault plans live producer-side. Tracing config comes from the
/// handshake, never the environment: `with_tracer(None)` keeps the
/// socket consumer from clobbering the producer's merged trace file.
fn start(h: Hello) -> (Consumer, i64) {
    let mut dut_cfg = DutConfig::nutshell();
    dut_cfg.cores = h.cores;
    let session =
        Session::from_words(dut_cfg, h.config, &h.words, Vec::new(), 0, 1, None).with_tracer(None);
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

/// How one connection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The stream completed (end frame, EOF or post-hello damage).
    Finished,
    /// The consumer decided early; the read side was shut.
    EarlyStop,
    /// Pre-hello protocol violation; connection dropped.
    Rejected,
    /// The peer vanished before the hello (EOF or a read error).
    ProducerLost,
}

/// How one connection ended, and what its consumer concluded.
#[derive(Debug)]
pub struct Served {
    /// Why the session closed.
    pub reason: CloseReason,
    /// The sealed consumer output (`Finished` and `EarlyStop` only).
    pub result: Option<ConsumerOutput>,
}

/// The one socket consumer loop: reads `conn` with blocking reads and
/// ingests each decoded transfer into the session's consumer until the
/// stream closes, then returns the sealed output. It writes nothing to
/// `conn`.
///
/// The peer is a thread of this process: if it dies, its end of the
/// socket closes and the loop reads EOF. An early stop shuts the read
/// side before returning, so the producer's next frame write fails with
/// EPIPE. Returning drops `conn`; for a rejected or lost session that
/// close is all the producer sees.
pub fn serve_connection(mut conn: UnixStream) -> Served {
    let mut dec = FrameDecoder::new();
    let mut session: Option<(Consumer, i64)> = None;
    let mut buf = [0u8; READ_CHUNK];
    let (reason, produced) = 'serve: loop {
        match conn.read(&mut buf) {
            // EOF: after the hello it ends the stream with an unknown
            // produced count; before it there is nothing to report.
            Ok(0) if session.is_some() => break (CloseReason::Finished, None),
            Ok(0) => break (CloseReason::ProducerLost, None),
            Ok(n) => dec.push(buf.get(..n).unwrap_or_default()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break (CloseReason::ProducerLost, None),
        }
        loop {
            match (dec.next_msg(), session.as_mut()) {
                (Ok(None), _) => break,
                (Ok(Some(ClientMsg::Hello(h))), _) => session = Some(start(h)),
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
    if reason == CloseReason::EarlyStop {
        let _ = conn.shutdown(Shutdown::Read);
    }
    let result = session
        .filter(|_| matches!(reason, CloseReason::Finished | CloseReason::EarlyStop))
        .map(|(consumer, span_shift)| seal(consumer, span_shift, produced));
    Served { reason, result }
}

#[cfg(test)]
mod tests {
    use std::io::Write;

    use super::*;
    use crate::link::QueueSink;
    use crate::proto::{write_end_frame, write_hello, write_transfer_frame};
    use crate::session::DiffConfig;
    use crate::session::RunOutcome;
    use difftest_workload::Workload;

    /// Produces a full clean stream (hello + frames + end) for `seed`.
    fn stream_for(seed: u64) -> Vec<u8> {
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
        bytes
    }

    /// Serves `bytes`, written in `chunk`-byte writes, over a socket
    /// pair; returns what `serve_connection` reports, having checked
    /// that it wrote nothing back.
    fn serve_bytes(bytes: &[u8], chunk: usize) -> Served {
        let (mut ours, theirs) = UnixStream::pair().unwrap();
        std::thread::scope(|s| {
            let consumer = s.spawn(|| serve_connection(theirs));
            for part in bytes.chunks(chunk) {
                if ours.write_all(part).is_err() {
                    break;
                }
            }
            let _ = ours.shutdown(Shutdown::Write);
            let mut back = Vec::new();
            let _ = ours.read_to_end(&mut back);
            assert!(back.is_empty(), "consumer wrote {} bytes back", back.len());
            consumer.join().unwrap()
        })
    }

    #[test]
    fn incremental_session_matches_engine_verdict() {
        let bytes = stream_for(7);
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
        let served = serve_bytes(&bytes, 193);
        assert_eq!(served.reason, CloseReason::Finished);
        let out = served.result.unwrap();
        assert!(out.mismatch.is_none());
        assert!(out.link_error.is_none());
        assert_eq!(engine.outcome, RunOutcome::GoodTrap);
        assert_eq!(out.items, engine.items);
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
    fn early_stop_on_unix_fails_the_next_write() {
        let (mut ours, theirs) = UnixStream::pair().unwrap();
        // Kept open so the consumer's close cannot turn the failed write
        // below into a connection reset: only its half-close is seen.
        let _held = theirs.try_clone().unwrap();
        let consumer = std::thread::spawn(move || serve_connection(theirs));
        write_hello(&mut ours, &tiny_hello()).unwrap();
        // 16 MiB of frames: far more than the socket buffers, so a
        // consumer that keeps reading after its stop would take them all.
        let frame = garbage_transfer(4096);
        let err = (0..4096).find_map(|_| write_transfer_frame(&mut ours, &frame).err());
        let served = consumer.join().unwrap();
        assert_eq!(err.map(|e| e.kind()), Some(io::ErrorKind::BrokenPipe));
        assert_eq!(served.reason, CloseReason::EarlyStop);
        assert!(served.result.unwrap().link_error.is_some());
    }

    #[test]
    fn eof_before_hello_is_no_session() {
        let served = serve_bytes(b"DT", 2);
        assert_eq!(served.reason, CloseReason::ProducerLost);
        assert!(served.result.is_none());
    }
}
