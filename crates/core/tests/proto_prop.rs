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

use difftest_core::proto::{
    write_end_frame, write_hello, write_transfer_frame, MAX_FRAME_BYTES, MAX_HELLO_WORDS,
};
use difftest_core::{
    serve_connection, ClientMsg, CloseReason, DiffConfig, FrameDecoder, Hello, ProtoError, Served,
    Transfer,
};
use proptest::prelude::*;

/// A syntactically valid wire stream: hello, `transfers` frames, end.
fn valid_stream(words: &[u32], payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    let hello = Hello {
        config: DiffConfig::BNSD,
        cores: 1,
        trace: false,
        epoch_wall_ns: 42,
        words: words.to_vec(),
    };
    write_hello(&mut out, &hello).expect("vec write");
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
                Ok(Some(ClientMsg::Hello(h))) => {
                    seen.push(format!("hello:{}w", h.words.len()));
                }
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
fn serve_bytes(bytes: &[u8], chunk: usize) -> Served {
    let (mut ours, theirs) = UnixStream::pair().expect("socket pair");
    std::thread::scope(|s| {
        let consumer = s.spawn(|| serve_connection(theirs));
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
        words in proptest::collection::vec(any::<u32>(), 0..24),
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 0..6),
        cut in any::<u16>(),
        chunk in 1usize..512,
    ) {
        let full = valid_stream(&words, &payloads);
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
    /// and then yields a typed error, stalls, or (post-hello, where the
    /// CRC owns integrity) decides the stream like the consumer would.
    #[test]
    fn bit_flips_never_panic(
        words in proptest::collection::vec(any::<u32>(), 0..16),
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..48), 0..5),
        pos in any::<u32>(),
        bit in 0u8..8,
        chunk in 1usize..256,
    ) {
        let mut bytes = valid_stream(&words, &payloads);
        let len = bytes.len();
        bytes[pos as usize % len] ^= 1 << bit;
        let (_, _) = decode_all(&bytes, chunk);
        // The consumer loop on top must be exactly as calm about it.
        let served = serve_bytes(&bytes, chunk);
        let sealed = matches!(served.reason, CloseReason::Finished | CloseReason::EarlyStop);
        prop_assert_eq!(served.result.is_some(), sealed, "{:?}", served.reason);
    }

    /// Arbitrary garbage fed to a fresh session is rejected or stalls
    /// until EOF; it never panics and never produces a result.
    #[test]
    fn garbage_never_yields_a_result(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        chunk in 1usize..64,
    ) {
        let served = serve_bytes(&bytes, chunk);
        if served.reason != CloseReason::Rejected {
            prop_assert_eq!(served.reason, CloseReason::ProducerLost);
            prop_assert!(served.result.is_none());
        }
    }

    /// Length prefixes are judged the moment they are readable: a hello
    /// advertising more memory words than RAM holds, or a frame longer
    /// than [`MAX_FRAME_BYTES`], is a typed error from the header alone
    /// — the decoder never buffers toward an attacker-sized payload.
    #[test]
    fn oversize_lengths_are_rejected_from_the_header(
        words_excess in 1u32..1024,
        frame_excess in 1u32..1024,
        garbage_len in any::<u32>(),
    ) {
        // Hello header with an inflated words count and no payload.
        let mut hello = Vec::new();
        hello.extend_from_slice(b"DTH1");
        hello.push(difftest_core::proto::PROTO_VERSION);
        hello.push(3); // BNSD
        hello.extend_from_slice(&1u32.to_le_bytes()); // cores
        hello.push(0); // trace
        hello.extend_from_slice(&42u64.to_le_bytes()); // epoch
        let bad_words = MAX_HELLO_WORDS as u32 + words_excess;
        hello.extend_from_slice(&bad_words.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.push(&hello);
        let header_high_water = dec.buffered();
        prop_assert!(matches!(
            dec.next_msg(),
            Err(ProtoError::Oversize { .. })
        ));
        prop_assert!(header_high_water <= hello.len());

        // Valid hello, then a transfer frame with an inflated length.
        let mut stream = valid_stream(&[], &[]);
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
        words in proptest::collection::vec(any::<u32>(), 0..24),
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 0..6),
        chunk in 1usize..96,
    ) {
        let full = valid_stream(&words, &payloads);
        let oneshot = decode_all(&full, full.len());
        let chunked = decode_all(&full, chunk);
        prop_assert_eq!(oneshot, chunked);
    }
}
