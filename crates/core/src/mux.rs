//! The one socket consumer loop over the DTH wire protocol,
//! [`serve_connection`].
//!
//! [`serve_connection`] reads a client stream into a [`FrameDecoder`]
//! and ingests each transfer frame into the `Consumer` its caller built
//! from the run's session: the same state machine every runner drives.
//! It is the only code that turns a socket's frames into a verdict, and
//! it hands that verdict to its caller (the socket runner, on its
//! calling thread): nothing is ever written back to the peer. Its
//! semantics:
//!
//! - an early consumer stop seals the result immediately and shuts the
//!   read side, so the producer's next write fails with EPIPE,
//! - a protocol error, before or after the hello, is treated as
//!   end-of-stream, and the consumer judges what the truncation means,
//! - EOF without an end frame finishes the stream with an unknown
//!   produced count (tail-loss attribution unchanged).

use std::io::{self, Read};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;

use crate::consume::{Consumer, ConsumerOutput, NoCharge, Step};
use crate::proto::{ClientMsg, FrameDecoder};

/// How many bytes one read of [`serve_connection`] takes off the socket.
const READ_CHUNK: usize = 64 * 1024;

/// The one socket consumer loop: reads `conn` with blocking reads and
/// ingests each decoded transfer into `consumer` until the stream
/// closes, then finishes the stream (the end frame's produced count,
/// when one arrived, exposes tail loss the sequence window cannot see)
/// and returns the sealed output. It writes nothing to `conn`.
///
/// The peer is a thread of this process: if it dies, its end of the
/// socket closes and the loop reads EOF. An early stop shuts the read
/// side before returning, so the producer's next frame write fails with
/// EPIPE.
pub fn serve_connection(mut conn: UnixStream, mut consumer: Consumer) -> ConsumerOutput {
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; READ_CHUNK];
    let produced = 'serve: loop {
        match conn.read(&mut buf) {
            Ok(n @ 1..) => dec.push(buf.get(..n).unwrap_or_default()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // EOF or a read error ends the stream with an unknown
            // produced count.
            Ok(_) | Err(_) => break None,
        }
        loop {
            match dec.next_msg() {
                Ok(None) => break,
                Ok(Some(ClientMsg::Hello(_))) => {}
                Ok(Some(ClientMsg::Transfer(t))) => {
                    if consumer.ingest(&t, 0, &mut NoCharge) == Step::Stop {
                        let _ = conn.shutdown(Shutdown::Read);
                        break 'serve None;
                    }
                }
                Ok(Some(ClientMsg::End { produced })) => {
                    break 'serve Some(produced);
                }
                // Protocol damage is end-of-stream: the consumer judges
                // what the truncation means.
                Err(_) => break 'serve None,
            }
        }
    };
    consumer.finish_stream(produced, 0, &mut NoCharge);
    consumer.finish()
}

#[cfg(test)]
mod tests {
    use std::io::Write;

    use super::*;
    use crate::link::QueueSink;
    use crate::proto::{write_end_frame, write_hello, write_transfer_frame, Hello};
    use crate::session::{run_session, DiffConfig, RunOutcome, RunnerKind, Session};
    use difftest_dut::DutConfig;
    use difftest_workload::Workload;

    fn session(seed: u64) -> Session {
        let w = Workload::microbench().seed(seed).iterations(10).build();
        Session::new(
            DutConfig::nutshell(),
            DiffConfig::BNSD,
            &w,
            Vec::new(),
            200_000,
            8,
            None,
        )
    }

    /// Produces a full clean stream (hello + frames + end) for `session`.
    fn stream_for(session: &Session) -> Vec<u8> {
        let mut p = session.producer(QueueSink::default());
        p.run();
        let mut bytes = Vec::new();
        write_hello(&mut bytes, &Hello).unwrap();
        let queued: Vec<_> = p.link_mut().sink_mut().queue.drain(..).collect();
        for t in queued {
            write_transfer_frame(&mut bytes, &t).unwrap();
        }
        write_end_frame(&mut bytes, p.link_mut().produced()).unwrap();
        bytes
    }

    /// Serves `bytes`, written in `chunk`-byte writes, over a socket
    /// pair into `session`'s consumer; returns what `serve_connection`
    /// reports, having checked that it wrote nothing back.
    fn serve_bytes(session: &Session, bytes: &[u8], chunk: usize) -> ConsumerOutput {
        let (mut ours, theirs) = UnixStream::pair().unwrap();
        std::thread::scope(|s| {
            let consumer = s.spawn(|| serve_connection(theirs, session.consumer()));
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
        let session = session(7);
        let bytes = stream_for(&session);
        let engine = run_session(RunnerKind::Engine, session.clone());
        // Ragged chunking across the whole stream.
        let out = serve_bytes(&session, &bytes, 193);
        assert!(out.mismatch.is_none());
        assert!(out.link_error.is_none());
        assert_eq!(engine.outcome, RunOutcome::GoodTrap);
        assert_eq!(out.items, engine.items);
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
        let consumer = session(1).consumer();
        let consumer = std::thread::spawn(move || serve_connection(theirs, consumer));
        write_hello(&mut ours, &Hello).unwrap();
        // 16 MiB of frames: far more than the socket buffers, so a
        // consumer that keeps reading after its stop would take them all.
        let frame = garbage_transfer(4096);
        let err = (0..4096).find_map(|_| write_transfer_frame(&mut ours, &frame).err());
        let out = consumer.join().unwrap();
        assert_eq!(err.map(|e| e.kind()), Some(io::ErrorKind::BrokenPipe));
        assert!(out.link_error.is_some());
    }
}
