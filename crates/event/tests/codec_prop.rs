//! Property tests: every event kind's codec is total over exact-length
//! inputs, encode∘decode is the identity on the byte level, and the
//! borrowed [`EventRef`] view family agrees with the materializing
//! decode path — field reads, matching, and error behavior alike. The
//! record codec round-trips every kind with its monitor stamps, a cut or
//! malformed record is a typed error, never a panic, and the header-first
//! walk stops where the viewing walk does.

use difftest_event::record::{encode_record, RecordHeader, Records, RECORD_HEADER_BYTES};
use difftest_event::{CodecError, Event, EventKind, EventRef, MonitoredEvent, OrderTag, Token};
use proptest::prelude::*;

/// Deterministic pseudo-random payload of the kind's exact length.
fn payload(kind: EventKind, seed: u64) -> Vec<u8> {
    (0..kind.encoded_len())
        .map(|i| {
            (seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(i as u32)
                >> 32) as u8
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn decode_encode_is_identity_on_bytes(
        kind_idx in 0usize..EventKind::COUNT,
        seed in any::<u64>(),
    ) {
        let kind = EventKind::ALL[kind_idx];
        let bytes = payload(kind, seed);
        let event = Event::decode(kind, &bytes).expect("exact length decodes");
        let mut back = Vec::new();
        event.encode_into(&mut back);
        prop_assert_eq!(back, bytes);
    }

    #[test]
    fn decode_rejects_wrong_lengths(
        kind_idx in 0usize..EventKind::COUNT,
        delta in prop_oneof![Just(-1i64), Just(1i64), Just(7i64)],
    ) {
        let kind = EventKind::ALL[kind_idx];
        let len = (kind.encoded_len() as i64 + delta).max(0) as usize;
        prop_assume!(len != kind.encoded_len());
        let bytes = vec![0u8; len];
        prop_assert!(Event::decode(kind, &bytes).is_err());
    }

    #[test]
    fn view_agrees_with_materializing_decode(
        kind_idx in 0usize..EventKind::COUNT,
        seed in any::<u64>(),
    ) {
        let kind = EventKind::ALL[kind_idx];
        let bytes = payload(kind, seed);
        let event = Event::decode(kind, &bytes).expect("exact length decodes");
        let view = EventRef::parse(kind, &bytes).expect("exact length parses");
        prop_assert_eq!(view.kind(), kind);
        prop_assert_eq!(view.wire_bytes(), bytes.as_slice());
        // View-based checking agrees with the owned event, in both the
        // matching and the fully materializing direction.
        prop_assert!(view.fields_match(&event));
        prop_assert_eq!(view.to_event(), event.clone());
        prop_assert_eq!(view.is_nde(), event.is_nde());
    }

    #[test]
    fn view_detects_any_corrupted_byte(
        kind_idx in 0usize..EventKind::COUNT,
        seed in any::<u64>(),
        flip_pos in any::<u64>(),
        flip_bit in 0u32..8,
    ) {
        let kind = EventKind::ALL[kind_idx];
        let bytes = payload(kind, seed);
        let event = Event::decode(kind, &bytes).expect("exact length decodes");
        let mut corrupt = bytes.clone();
        let pos = (flip_pos % corrupt.len() as u64) as usize;
        corrupt[pos] ^= 1 << flip_bit;
        // The codec is byte-injective (see identity test above), so a
        // flipped bit must break the view/owned agreement — and the view
        // of the corrupted bytes must still match its own decode.
        let view = EventRef::parse(kind, &corrupt).expect("exact length parses");
        prop_assert!(!view.fields_match(&event));
        let reread = Event::decode(kind, &corrupt).expect("exact length decodes");
        prop_assert!(view.fields_match(&reread));
        prop_assert_eq!(view.to_event(), reread);
    }

    #[test]
    fn view_and_decode_return_identical_errors(
        kind_idx in 0usize..EventKind::COUNT,
        delta in prop_oneof![Just(-17i64), Just(-1i64), Just(1i64), Just(7i64)],
    ) {
        let kind = EventKind::ALL[kind_idx];
        let len = (kind.encoded_len() as i64 + delta).max(0) as usize;
        prop_assume!(len != kind.encoded_len());
        let bytes = vec![0u8; len];
        let owned = Event::decode(kind, &bytes).expect_err("wrong length rejected");
        let view = EventRef::parse(kind, &bytes).expect_err("wrong length rejected");
        prop_assert_eq!(view, owned);
    }
}

/// A monitored event of `kind` with a pseudo-random payload and stamps.
fn monitored(kind: EventKind, seed: u64, core: u8) -> MonitoredEvent {
    MonitoredEvent {
        core,
        cycle: seed.rotate_left(7),
        order: OrderTag(seed.rotate_left(23)),
        token: Token(!seed),
        event: Event::decode(kind, &payload(kind, seed)).expect("exact length decodes"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn record_round_trips_every_kind(seed in any::<u64>(), core in any::<u8>()) {
        for kind in EventKind::ALL {
            let ev = monitored(kind, seed, core);
            let mut bytes = Vec::new();
            encode_record(&ev, &mut bytes);
            let (header, len) = RecordHeader::read(&bytes).expect("whole header reads");
            prop_assert_eq!(len, bytes.len());
            prop_assert_eq!(len, RECORD_HEADER_BYTES + kind.encoded_len());
            prop_assert_eq!(header.kind, kind);
            let walked: Vec<_> = Records::new(&bytes).collect();
            prop_assert_eq!(walked.len(), 1);
            let record = walked[0].as_ref().expect("whole record walks");
            prop_assert_eq!(record.header, header);
            prop_assert_eq!(record.to_monitored(), ev);
        }
    }

    #[test]
    fn truncated_record_is_unexpected_end(seed in any::<u64>()) {
        for kind in EventKind::ALL {
            let mut bytes = Vec::new();
            encode_record(&monitored(kind, seed, 1), &mut bytes);
            prop_assert!(Records::new(&bytes[..0]).next().is_none());
            for cut in 1..bytes.len() {
                let mut walk = Records::new(&bytes[..cut]);
                let first = walk.next();
                prop_assert!(
                    matches!(first, Some(Err(CodecError::UnexpectedEnd { .. }))),
                    "{:?} cut at {}: {:?}", kind, cut, first
                );
                prop_assert!(walk.next().is_none());
                // The header alone reads once it is whole.
                let header = RecordHeader::read(&bytes[..cut]);
                prop_assert_eq!(header.is_ok(), cut >= RECORD_HEADER_BYTES);
            }
        }
    }

    /// The header-first walk yields each record's header and exact
    /// payload, and stops where the viewing walk stops: at the first
    /// record cut short.
    #[test]
    fn header_first_walk_agrees_with_the_viewing_walk(seed in any::<u64>(), cut in 0usize..64) {
        let mut bytes = Vec::new();
        for kind in EventKind::ALL {
            encode_record(&monitored(kind, seed ^ kind as u64, 1), &mut bytes);
        }
        let bytes = &bytes[..bytes.len() - cut.min(bytes.len())];
        let (mut raw, mut viewed) = (Records::new(bytes), Records::new(bytes));
        loop {
            match (raw.next_raw(), viewed.next()) {
                (None, None) => break,
                (Some(Ok((header, payload))), Some(Ok(record))) => {
                    prop_assert_eq!(header, record.header);
                    prop_assert_eq!(payload, record.payload.wire_bytes());
                }
                (Some(Err(a)), Some(Err(b))) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "walks diverge: {:?} vs {:?}", a, b.map(|r| r.map(|r| r.header))),
            }
        }
    }

    #[test]
    fn out_of_range_kind_is_bad_kind(seed in any::<u64>(), bad in 32u8..=255) {
        prop_assert_eq!(EventKind::COUNT, 32);
        let kind = EventKind::ALL[(seed % 32) as usize];
        let mut bytes = Vec::new();
        encode_record(&monitored(kind, seed, 0), &mut bytes);
        bytes[1] = bad;
        prop_assert_eq!(RecordHeader::read(&bytes).err(), Some(CodecError::BadKind(bad)));
        let mut walk = Records::new(&bytes);
        prop_assert_eq!(walk.next().map(|r| r.err()), Some(Some(CodecError::BadKind(bad))));
        prop_assert!(walk.next().is_none());
    }
}
