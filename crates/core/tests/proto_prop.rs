//! Hostile-bytes property tests for the DTH wire codec.
//!
//! The protocol layer fronts a daemon that accepts connections from
//! anything able to dial a socket, so the decoder is held to a
//! stricter bar than "round-trips what our writers produce": truncated,
//! bit-flipped and length-inflated streams must all yield typed
//! [`ProtoError`]s or a need-more-bytes stall — never a panic, and
//! never an allocation sized by an attacker-controlled length prefix.

use std::borrow::Cow;
use std::io::ErrorKind;

use difftest_core::consume::{ConsumerOutput, NoCharge, Step};
use difftest_core::proto::{
    read_result, write_end_frame, write_hello, write_result, write_transfer_frame, MAX_FRAME_BYTES,
    MAX_HELLO_WORDS,
};
use difftest_core::{
    ClientMsg, DiffConfig, FrameDecoder, Hello, ProtoError, ProtoSession, QueueSink, Session,
    Transfer,
};
use difftest_dut::DutConfig;
use difftest_stats::{SpanBuf, SpanEvent, SpanKind, PID_CONSUMER};
use difftest_workload::Workload;
use proptest::prelude::*;

/// A syntactically valid wire stream: hello, `transfers` frames, end.
fn valid_stream(words: &[u32], payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    let hello = Hello {
        config: DiffConfig::BNSD,
        cores: 1,
        kill_after: 0,
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
    /// decoder or a push-driven session: it decodes up to the damage
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
        // The session layer on top must be exactly as calm about it.
        let mut sess = ProtoSession::new();
        for part in bytes.chunks(chunk) {
            if sess.feed(part).is_err() || sess.done() {
                break;
            }
        }
        sess.eof();
    }

    /// Arbitrary garbage fed to a fresh session is rejected or stalls;
    /// it never panics and never produces a result blob.
    #[test]
    fn garbage_never_yields_a_result(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        chunk in 1usize..64,
    ) {
        let mut sess = ProtoSession::new();
        let mut rejected = false;
        for part in bytes.chunks(chunk) {
            if sess.feed(part).is_err() {
                rejected = true;
                break;
            }
        }
        if !rejected && !sess.hello_seen() {
            prop_assert_eq!(sess.eof(), difftest_core::MuxStep::NoSession);
            prop_assert!(sess.take_result().is_none());
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
        hello.extend_from_slice(&0u32.to_le_bytes()); // kill_after
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

/// A consumer's output over a short real stream — histograms, gauges,
/// `obs.*` and `decode.*` counters, a flight ring of several records —
/// plus one span track, with no span section when `traced` is off.
fn full_output(traced: bool) -> ConsumerOutput {
    let w = Workload::microbench().seed(3).iterations(3).build();
    let session = Session::new(
        DutConfig::nutshell(),
        DiffConfig::BN,
        &w,
        Vec::new(),
        100_000,
        8,
        None,
    )
    .with_packet_bytes(1024);
    let mut p = session.producer(QueueSink::default());
    p.run();
    let mut c = session.consumer();
    for t in &p.link_mut().sink_mut().queue {
        if c.ingest(t, 0, &mut NoCharge) == Step::Stop {
            break;
        }
    }
    let mut out = c.finish();
    if traced {
        out.obs.spans.push(SpanBuf {
            pid: PID_CONSUMER,
            tid: 0,
            process: "consumer".into(),
            track: "consumer".into(),
            events: vec![SpanEvent {
                kind: SpanKind::Span,
                name: Cow::Borrowed("check"),
                ts_ns: 5,
                dur_ns: 7,
                id: 1,
            }],
            recorded: 1,
            dropped: 0,
        });
    }
    out
}

fn result_blob(out: &ConsumerOutput) -> Vec<u8> {
    let mut blob = Vec::new();
    write_result(&mut blob, out).expect("vec write");
    blob
}

/// A flight count past what one consumer's ring holds is rejected from
/// the count alone, before any record is read or allocated for.
#[test]
fn oversize_flight_count_is_invalid_before_any_record() {
    let mut out = full_output(false);
    out.obs.flight.records.clear();
    let mut blob = result_blob(&out);
    // The blob ends: flight count, evicted count, span track count.
    let at = blob.len() - 4 - 8 - 4;
    blob[at..at + 4].copy_from_slice(&(1u32 << 24).to_le_bytes());
    let err = read_result(&mut blob.as_slice()).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
}

/// Every truncation of a full result blob — histograms, flight records
/// and a span track included — is a typed error, never a panic.
#[test]
fn truncated_result_blob_is_a_typed_error_at_every_offset() {
    let out = full_output(true);
    let blob = result_blob(&out);
    let back = read_result(&mut blob.as_slice()).expect("full blob reads");
    assert_eq!(back.obs, out.obs);
    assert!(back
        .obs
        .metrics
        .histogram("packet.bytes")
        .is_some_and(|h| h.count() > 0));
    assert!(back.obs.flight.records.len() > 2);
    for cut in 0..blob.len() {
        let err = read_result(&mut &blob[..cut]).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                ErrorKind::UnexpectedEof | ErrorKind::InvalidData
            ),
            "cut at {cut}: {err}"
        );
    }
}
