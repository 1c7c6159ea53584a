//! Property tests on the lossy-link layer: under *arbitrary* seeded fault
//! schedules (drops, duplicates, reorders, truncations, bit flips) the
//! unpacker never panics — every disturbed packet either decodes into the
//! original in-order item stream or surfaces a typed [`CodecError`] — and
//! the schedule itself replays bit-for-bit from its seed.

use difftest_core::batch::{BatchUnit, Unpacker};
use difftest_core::{FaultPlan, FaultyLink, LinkErrorKind, Transfer, WireItem};
use difftest_event::wire::CodecError;
use difftest_event::{Event, EventKind, OrderTag, Token};
use proptest::prelude::*;

/// Strategy: an arbitrary event with a randomized payload.
fn any_event() -> impl Strategy<Value = Event> {
    (0usize..EventKind::COUNT).prop_flat_map(|k| {
        let kind = EventKind::ALL[k];
        proptest::collection::vec(any::<u8>(), kind.encoded_len())
            .prop_map(move |bytes| Event::decode(kind, &bytes).expect("exact length"))
    })
}

/// Strategy: a non-diff wire item (diff packing is lossy by design for
/// vacuous diffs, which would confuse the prefix property below).
fn any_item() -> impl Strategy<Value = WireItem> {
    (
        any_event(),
        any::<u64>(),
        any::<u64>(),
        0u8..2,
        any::<bool>(),
    )
        .prop_map(|(event, tag, token, core, tagged)| {
            if tagged {
                WireItem::Tagged {
                    core,
                    tag: OrderTag(tag),
                    token: Token(token),
                    event,
                }
            } else {
                WireItem::Plain { core, event }
            }
        })
}

/// Strategy: an arbitrary (legal) fault plan. Individual rates stay under
/// 200‰ so their sum respects the 1000‰ budget.
fn any_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        (0u16..150, 0u16..150, 0u16..150, 0u16..150, 0u16..150),
        0u32..8,
    )
        .prop_map(
            |(seed, (drop, dup, reorder, trunc, corrupt), depth)| FaultPlan {
                seed,
                drop_per_mille: drop,
                duplicate_per_mille: dup,
                reorder_per_mille: reorder,
                truncate_per_mille: trunc,
                corrupt_per_mille: corrupt,
                reorder_depth: depth,
            },
        )
}

/// Packs `items` into sequenced, CRC-framed packets (pseudo-cycles of up
/// to 6 items) and wraps each as a link [`Transfer`].
fn pack(items: &[WireItem], capacity: usize) -> Vec<Transfer> {
    let mut packer = BatchUnit::new(2, capacity);
    let mut packets = Vec::new();
    for chunk in items.chunks(6) {
        packer.push_cycle(chunk, &mut packets);
    }
    packer.flush(&mut packets);
    packets
        .into_iter()
        .map(|p| {
            let items = p.items;
            Transfer {
                bytes: p.bytes,
                core: 0,
                items,
            }
        })
        .collect()
}

/// Drives `transfers` through a [`FaultyLink`] and the disturbed output
/// through an [`Unpacker`], recording every decoded item and every typed
/// error kind. Panics in here are exactly what the property forbids.
fn receive(plan: FaultPlan, transfers: Vec<Transfer>) -> (Vec<WireItem>, Vec<LinkErrorKind>) {
    let mut link = FaultyLink::new(plan);
    let mut wire = Vec::new();
    for t in transfers {
        link.transmit(t, &mut wire);
    }
    link.flush(&mut wire);

    let mut unpacker = Unpacker::new(2);
    let mut delivered = Vec::new();
    let mut errors = Vec::new();
    for t in &wire {
        // Admission validates a whole packet before releasing any item,
        // so an error never follows a partial delivery.
        match unpacker.unpack(&t.bytes) {
            Ok(items) => delivered.extend(items),
            Err(e) => errors.push(LinkErrorKind::classify(&e)),
        }
    }
    (delivered, errors)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole safety property: an arbitrary fault schedule never
    /// panics the unpacker, and whatever it delivers is an exact in-order
    /// prefix of the sent stream — faults manifest only as typed errors
    /// or as withheld (never reordered, never fabricated) items.
    #[test]
    fn unpacker_survives_arbitrary_fault_schedules(
        items in proptest::collection::vec(any_item(), 1..140),
        capacity in 1024usize..4096,
        plan in any_plan(),
    ) {
        let transfers = pack(&items, capacity);
        let sent = transfers.len();
        let (delivered, errors) = receive(plan, transfers);
        prop_assert!(
            items.starts_with(&delivered),
            "delivered items must be an in-order prefix: {} sent packets, \
             {} of {} items delivered, errors {errors:?}",
            sent, delivered.len(), items.len()
        );
        if plan.is_clean() {
            prop_assert_eq!(&delivered, &items);
            prop_assert!(errors.is_empty());
        }
    }

    /// Equal seeds replay the exact same disturbed stream: both the
    /// delivered items and the typed error sequence are bit-for-bit
    /// reproducible, and a different seed (with faults enabled) is free
    /// to differ.
    #[test]
    fn fault_schedules_replay_from_their_seed(
        items in proptest::collection::vec(any_item(), 8..80),
        plan in any_plan(),
    ) {
        let (d1, e1) = receive(plan, pack(&items, 2048));
        let (d2, e2) = receive(plan, pack(&items, 2048));
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(e1, e2);
    }

    /// Every error the link can provoke classifies into the typed
    /// taxonomy without falling through to `Malformed`: CRC framing
    /// catches corruption and truncation *before* the structural parser
    /// ever sees the bytes.
    #[test]
    fn link_faults_never_reach_the_structural_parser(
        items in proptest::collection::vec(any_item(), 8..80),
        plan in any_plan(),
    ) {
        let (_, errors) = receive(plan, pack(&items, 2048));
        for kind in errors {
            prop_assert_ne!(
                kind,
                LinkErrorKind::Malformed,
                "a link fault leaked past the CRC frame into the parser"
            );
        }
    }
}

/// A truncated or bit-flipped frame is rejected *before* the sequence
/// window moves, so a clean retransmission of the same packet still
/// decodes — the invariant packet-level recovery in the engine relies on.
#[test]
fn corrupt_frame_rejection_preserves_unpacker_state() {
    let items: Vec<WireItem> = (0..120u64)
        .map(|i| WireItem::Plain {
            core: 0,
            event: Event::decode(
                EventKind::InstrCommit,
                &vec![i as u8; EventKind::InstrCommit.encoded_len()],
            )
            .expect("exact length"),
        })
        .collect();
    let transfers = pack(&items, 1024);
    assert!(transfers.len() >= 2, "need several packets");

    let mut unpacker = Unpacker::new(2);
    let mut out = Vec::new();
    for (i, t) in transfers.iter().enumerate() {
        if i == 1 {
            // Deliver a corrupted copy first: typed error, no state change.
            let mut bad = t.bytes.to_vec();
            let mid = bad.len() / 2;
            bad[mid] ^= 0x10;
            let before = unpacker.expected_seq();
            let err = unpacker.unpack(&bad).expect_err("corrupt");
            assert!(matches!(err, CodecError::CrcMismatch { .. }), "{err}");
            assert_eq!(unpacker.expected_seq(), before, "window must not advance");

            // ... and a truncated copy: same story.
            let cut = &t.bytes[..t.bytes.len() - 7];
            let err = unpacker.unpack(cut).expect_err("truncated");
            assert!(
                matches!(
                    err,
                    CodecError::CrcMismatch { .. } | CodecError::UnexpectedEnd { .. }
                ),
                "{err}"
            );
            assert_eq!(unpacker.expected_seq(), before);
        }
        // The pristine packet (the "retransmission") decodes normally.
        out.extend(
            unpacker
                .unpack(&t.bytes)
                .expect("pristine packet decodes after rejected copies"),
        );
    }
    assert_eq!(out, items);
}

/// The CRC trailer the framing adds costs well under the 2% byte-overhead
/// budget at the default packet capacity.
#[test]
fn crc_trailer_overhead_is_under_two_percent() {
    let items: Vec<WireItem> = (0..4000u64)
        .map(|i| WireItem::Tagged {
            core: (i % 2) as u8,
            tag: OrderTag(i),
            token: Token(i),
            event: Event::decode(
                EventKind::InstrCommit,
                &vec![(i % 251) as u8; EventKind::InstrCommit.encoded_len()],
            )
            .expect("exact length"),
        })
        .collect();
    let transfers = pack(&items, 4096);
    let total: usize = transfers.iter().map(|t| t.bytes.len()).sum();
    let trailer = transfers.len() * difftest_event::wire::CRC_TRAILER_BYTES;
    let overhead = trailer as f64 / (total - trailer) as f64;
    assert!(
        overhead < 0.02,
        "CRC framing overhead {:.3}% exceeds the 2% budget ({} packets, {} bytes)",
        overhead * 100.0,
        transfers.len(),
        total
    );
}
