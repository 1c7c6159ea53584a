//! Hostile-bytes property tests for the DTH wire codec.
//!
//! The protocol layer decodes whatever arrives on its socket, so the
//! decoder is held to a stricter bar than "round-trips what our writers
//! produce": truncated, bit-flipped and length-inflated streams must all
//! yield typed [`ProtoError`]s or a need-more-bytes stall — never a
//! panic, and never an allocation sized by an attacker-controlled length
//! prefix.

use std::io::{Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;

use difftest_core::proto::{write_end_frame, write_hello, write_transfer_frame, MAX_FRAME_BYTES};
use difftest_core::{
    serve_connection, ClientMsg, ConsumerOutput, DiffConfig, FrameDecoder, Hello, ProtoError,
    Session, Transfer,
};
use difftest_dut::DutConfig;
use difftest_workload::Workload;
use proptest::prelude::*;

/// A syntactically valid wire stream: hello, `transfers` frames, end.
fn valid_stream(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    write_hello(&mut out, &Hello).expect("vec write");
    for (i, p) in payloads.iter().enumerate() {
        let t = Transfer {
            bytes: p.clone(),
            core: 0,
            items: i as u32,
        };
        write_transfer_frame(&mut out, &t).expect("vec write");
    }
    write_end_frame(&mut out, payloads.len() as u32).expect("vec write");
    out
}

/// Decodes everything the decoder will give for `bytes`, packaging the
/// outcome so properties can compare runs.
fn decode_all(bytes: &[u8], chunk: usize) -> (Vec<String>, Option<ProtoError>) {
    let mut dec = FrameDecoder::new();
    let mut seen = Vec::new();
    for part in bytes.chunks(chunk.max(1)) {
        dec.push(part);
        loop {
            match dec.next_msg() {
                Ok(Some(ClientMsg::Hello(_))) => seen.push("hello".to_owned()),
                Ok(Some(ClientMsg::Transfer(t))) => {
                    seen.push(format!("transfer:{}:{:?}", t.items, &t.bytes[..]));
                }
                Ok(Some(ClientMsg::End { produced })) => {
                    seen.push(format!("end:{produced}"));
                }
                Ok(None) => break,
                Err(e) => return (seen, Some(e)),
            }
        }
    }
    (seen, None)
}

/// Serves `bytes`, written in `chunk`-byte writes, through the socket
/// consumer loop on one end of a socket pair, and waits for it to close.
fn serve_bytes(bytes: &[u8], chunk: usize) -> ConsumerOutput {
    let w = Workload::microbench().seed(1).iterations(5).build();
    let session = Session::new(
        DutConfig::nutshell(),
        DiffConfig::BNSD,
        &w,
        Vec::new(),
        1_000,
        8,
        None,
    );
    let (mut ours, theirs) = UnixStream::pair().expect("socket pair");
    std::thread::scope(|s| {
        let consumer = s.spawn(|| serve_connection(theirs, session.consumer()));
        for part in bytes.chunks(chunk.max(1)) {
            if ours.write_all(part).is_err() {
                break;
            }
        }
        let _ = ours.shutdown(Shutdown::Write);
        let _ = ours.read_to_end(&mut Vec::new());
        consumer.join().expect("serve_connection panicked")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any truncation of a valid stream decodes a prefix of its
    /// messages and then stalls waiting for more — truncation is never
    /// an error, a panic, or a phantom message.
    #[test]
    fn truncation_yields_a_clean_prefix(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 0..6),
        cut in any::<u16>(),
        chunk in 1usize..512,
    ) {
        let full = valid_stream(&payloads);
        let (complete, err) = decode_all(&full, chunk);
        prop_assert!(err.is_none(), "valid stream errored: {err:?}");
        let cut = cut as usize % (full.len() + 1);
        let (partial, err) = decode_all(&full[..cut], chunk);
        prop_assert!(err.is_none(), "truncated stream errored: {err:?}");
        prop_assert!(partial.len() <= complete.len());
        prop_assert_eq!(&complete[..partial.len()], &partial[..]);
    }

    /// A single flipped bit anywhere in the stream must never panic the
    /// decoder or the socket consumer loop: it decodes up to the damage
    /// and then yields a typed error or stalls, and the consumer decides
    /// the stream it got. The payloads fail the CRC, so no damage can
    /// make them a verdict or a mismatch.
    #[test]
    fn bit_flips_never_panic(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..48), 0..5),
        pos in any::<u32>(),
        bit in 0u8..8,
        chunk in 1usize..256,
    ) {
        let mut bytes = valid_stream(&payloads);
        let len = bytes.len();
        bytes[pos as usize % len] ^= 1 << bit;
        let (_, _) = decode_all(&bytes, chunk);
        // The consumer loop on top must be exactly as calm about it.
        let out = serve_bytes(&bytes, chunk);
        prop_assert!(out.verdict.is_none() && out.mismatch.is_none(), "{out:?}");
    }

    /// Arbitrary garbage fed to a fresh session is rejected or stalls
    /// until EOF; it never panics and never produces a verdict or a
    /// mismatch.
    #[test]
    fn garbage_never_yields_a_result(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        chunk in 1usize..64,
    ) {
        let out = serve_bytes(&bytes, chunk);
        prop_assert!(out.verdict.is_none() && out.mismatch.is_none(), "{out:?}");
    }

    /// Length prefixes are judged the moment they are readable: a frame
    /// longer than [`MAX_FRAME_BYTES`] is a typed error from the header
    /// alone — the decoder never buffers toward an attacker-sized
    /// payload.
    #[test]
    fn oversize_lengths_are_rejected_from_the_header(
        frame_excess in 1u32..1024,
        garbage_len in any::<u32>(),
    ) {
        // Valid hello, then a transfer frame with an inflated length.
        let mut stream = valid_stream(&[]);
        stream.truncate(stream.len() - 5); // drop the end frame
        let mut frame = vec![0u8, 0]; // FRAME_TRANSFER, core
        frame.extend_from_slice(&1u32.to_le_bytes()); // items
        let bad_len = (MAX_FRAME_BYTES as u32).saturating_add(frame_excess);
        frame.extend_from_slice(&bad_len.to_le_bytes());
        // Even with trailing bytes available, the header alone decides.
        frame.extend_from_slice(&vec![0u8; garbage_len as usize % 256]);
        stream.extend_from_slice(&frame);
        let (msgs, err) = decode_all(&stream, 7);
        prop_assert_eq!(msgs.len(), 1, "hello only");
        prop_assert!(matches!(err, Some(ProtoError::Oversize { .. })), "{err:?}");
    }

    /// Chunking is invisible: any fragmentation of a valid stream
    /// decodes the identical message sequence as one-shot delivery.
    #[test]
    fn incremental_decode_equals_oneshot(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 0..6),
        chunk in 1usize..96,
    ) {
        let full = valid_stream(&payloads);
        let oneshot = decode_all(&full, full.len());
        let chunked = decode_all(&full, chunk);
        prop_assert_eq!(oneshot, chunked);
    }
}
