//! Property tests on the communication pipeline's core invariants:
//! pack/unpack is the identity, differencing round-trips across packet
//! boundaries, the fused-commit codec is self-inverse, the byte
//! retention ring behaves as a deque of event values and its release
//! keeps everything a localization can still ask for, and Squash's two
//! output sinks make the same bytes.

use std::collections::VecDeque;

use difftest_core::batch::{BatchUnit, Unpacker};
use difftest_core::{AccelUnit, FusedCommit, ReplayBuffer, SquashUnit, WireItem, WireKind};
use difftest_event::record::{encode_record, RecordRef};
use difftest_event::wire::Reader;
use difftest_event::{
    commit_flags, ArchIntRegState, CsrState, Event, EventKind, InstrCommit, MonitoredEvent,
    OrderTag, StoreEvent, Token,
};
use proptest::prelude::*;

/// Strategy: an arbitrary event with a randomized payload (drawn from raw
/// bytes of the right length, which every kind decodes total-ly).
fn any_event() -> impl Strategy<Value = Event> {
    (0usize..EventKind::COUNT).prop_flat_map(|k| {
        let kind = EventKind::ALL[k];
        proptest::collection::vec(any::<u8>(), kind.encoded_len())
            .prop_map(move |bytes| Event::decode(kind, &bytes).expect("exact length"))
    })
}

/// Strategy: a non-diff wire item (diff items are exercised separately
/// because vacuous diffs are intentionally dropped by the packer).
fn any_plain_or_tagged() -> impl Strategy<Value = WireItem> {
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

/// The retention ring's independent oracle: a deque of event values with
/// pop-front eviction and a per-core highest-evicted-token watermark.
struct RingModel {
    ring: VecDeque<MonitoredEvent>,
    capacity: usize,
    dropped: u64,
    watermark: [Option<u64>; 4],
}

impl RingModel {
    fn push(&mut self, ev: &MonitoredEvent) {
        if self.ring.len() == self.capacity {
            let old = self.ring.pop_front().expect("capacity >= 1");
            let w = &mut self.watermark[old.core as usize];
            *w = Some(w.map_or(old.token.0, |w| w.max(old.token.0)));
            self.dropped += 1;
        }
        self.ring.push_back(ev.clone());
    }

    fn retransmit(&self, core: u8, from: u64, to: u64) -> (Vec<MonitoredEvent>, bool) {
        (
            self.ring
                .iter()
                .filter(|e| e.core == core && (from..=to).contains(&e.token.0))
                .cloned()
                .collect(),
            self.watermark[core as usize].is_none_or(|w| from > w),
        )
    }
}

/// Strategy: a commit shaped like the DUT's (small register indices, so
/// write sets collide; MMIO skips and FP writes now and then).
fn any_commit() -> impl Strategy<Value = Event> {
    (any::<u64>(), 0u8..8, any::<u64>(), 0u8..8, 0u8..4).prop_map(
        |(pc, wdest, wdata, dice, wen)| {
            let mut flags = 0;
            if dice == 0 {
                flags |= commit_flags::SKIP;
            }
            if dice == 1 {
                flags |= commit_flags::FP_WEN;
            }
            InstrCommit {
                pc,
                instr: 0x13,
                wen: (wen != 0) as u8,
                wdest,
                wdata,
                flags,
                rob_idx: 0,
            }
            .into()
        },
    )
}

/// Strategy: `cycles` of monitored events on two cores — commits (so
/// windows fill and, across the empty cycles, age out), repeats from a
/// small pool (so differencing sees unchanged and slightly changed
/// payloads, vacuous diffs included) and fresh events of every kind.
/// Tokens count up in capture order; order tags are non-decreasing.
fn any_cycle_stream() -> impl Strategy<Value = Vec<Vec<MonitoredEvent>>> {
    let pool = proptest::collection::vec(any_event(), 1..6);
    let pick = (
        0u8..6,
        any_commit(),
        any_event(),
        0usize..6,
        0u8..2,
        0u64..3,
    );
    let cycle = proptest::collection::vec(pick, 0..7);
    (pool, proptest::collection::vec(cycle, 1..160)).prop_map(|(pool, cycles)| {
        let (mut token, mut order) = (0u64, 0u64);
        cycles
            .into_iter()
            .enumerate()
            .map(|(cycle, picks)| {
                picks
                    .into_iter()
                    .map(|(which, commit, fresh, idx, core, step)| {
                        order += step;
                        token += 1;
                        MonitoredEvent {
                            core,
                            cycle: cycle as u64,
                            order: OrderTag(order),
                            token: Token(token),
                            event: match which {
                                0..=2 => commit,
                                3..=4 => pool[idx % pool.len()].clone(),
                                _ => fresh,
                            },
                        }
                    })
                    .collect()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pack_unpack_is_identity(
        items in proptest::collection::vec(any_plain_or_tagged(), 0..120),
        capacity in 1024usize..8192,
    ) {
        let mut packer = BatchUnit::new(2, capacity);
        let mut unpacker = Unpacker::new(2);
        let mut packets = Vec::new();
        // Split the stream into pseudo-cycles of up to 8 items.
        for chunk in items.chunks(8) {
            packer.push_cycle(chunk, &mut packets);
        }
        packer.flush(&mut packets);
        let decoded: Vec<WireItem> = packets
            .iter()
            .map(|p| unpacker.unpack(&p.bytes).expect("round-trip"))
            .collect::<Vec<_>>()
            .concat();
        prop_assert_eq!(decoded, items);
    }

    #[test]
    fn packets_respect_capacity(
        items in proptest::collection::vec(any_plain_or_tagged(), 1..200),
        capacity in 1024usize..4096,
    ) {
        let mut packer = BatchUnit::new(2, capacity);
        let mut packets = Vec::new();
        packer.push_cycle(&items, &mut packets);
        packer.flush(&mut packets);
        for p in &packets {
            // A packet may exceed capacity only when a single item does.
            prop_assert!(p.len() <= capacity || p.items == 1,
                "packet {} bytes / {} items over capacity {}", p.len(), p.items, capacity);
        }
    }

    #[test]
    fn diff_stream_round_trips(
        updates in proptest::collection::vec(
            (0usize..24, any::<u64>(), any::<bool>()), 1..60),
        capacity in 1024usize..4096,
    ) {
        // Evolve a CSR file and an integer register file, emitting diffs.
        let mut csrs = [0u64; 24];
        let mut regs = [0u64; 32];
        let mut items = Vec::new();
        for (i, (idx, value, which)) in updates.iter().enumerate() {
            if *which {
                csrs[*idx] = *value;
                items.push(WireItem::Diff {
                    core: 0,
                    tag: OrderTag(i as u64),
                    token: Token(i as u64),
                    event: CsrState { csrs }.into(),
                });
            } else {
                regs[idx + 4] = *value;
                items.push(WireItem::Diff {
                    core: 0,
                    tag: OrderTag(i as u64),
                    token: Token(i as u64),
                    event: ArchIntRegState { regs }.into(),
                });
            }
        }
        let mut packer = BatchUnit::new(1, capacity);
        let mut unpacker = Unpacker::new(1);
        let mut packets = Vec::new();
        for chunk in items.chunks(4) {
            packer.push_cycle(chunk, &mut packets);
        }
        packer.flush(&mut packets);
        let decoded: Vec<WireItem> = packets
            .iter()
            .map(|p| unpacker.unpack(&p.bytes).expect("round-trip"))
            .collect::<Vec<_>>()
            .concat();
        // Vacuous diffs (identical consecutive states) are dropped by
        // design; every surviving item must match the original stream in
        // order, and every *distinct* state transition must survive.
        let mut orig = items.iter();
        for d in &decoded {
            prop_assert!(
                orig.any(|o| o == d),
                "decoded item not in original order: {d:?}"
            );
        }
        // The final reconstructed state equals the final produced state.
        if let Some(WireItem::Diff { event, .. }) = decoded.last() {
            let last_of_kind = items
                .iter()
                .rev()
                .find_map(|it| match it {
                    WireItem::Diff { event: e, .. } if e.kind() == event.kind() => Some(e),
                    _ => None,
                })
                .expect("kind exists");
            prop_assert_eq!(event, last_of_kind);
        }
    }

    #[test]
    fn byte_ring_behaves_as_a_deque_of_events(
        stream in proptest::collection::vec((any_event(), 0u8..4, any::<u64>(), 0u64..3), 1..2500),
        capacity in prop_oneof![1usize..8, 8usize..600, 600usize..=4096],
        batches in proptest::collection::vec(1usize..700, 1..12),
        probe in any::<(u64, u64)>(),
    ) {
        // Tokens count up with gaps, as the monitor's do; a few thousand
        // events of every kind span several 64 KiB chunks, so evictions
        // cross chunk boundaries whenever the capacity is below that.
        let mut token = 0u64;
        let events: Vec<MonitoredEvent> = stream
            .into_iter()
            .map(|(event, core, cycle, gap)| {
                token += 1 + gap;
                MonitoredEvent { core, cycle, order: OrderTag(cycle ^ token), token: Token(token), event }
            })
            .collect();
        let mut ring = ReplayBuffer::new(capacity);
        let mut model = RingModel {
            ring: VecDeque::new(),
            capacity,
            dropped: 0,
            watermark: [None; 4],
        };
        let mut rest = events.as_slice();
        for n in batches.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (batch, tail) = rest.split_at((*n).min(rest.len()));
            rest = tail;
            ring.push_slice(batch);
            batch.iter().for_each(|e| model.push(e));
            prop_assert_eq!(ring.len(), model.ring.len());
            prop_assert_eq!(ring.dropped(), model.dropped);
            let (lo, hi) = (probe.0 % (token + 2), probe.1 % (token + 2));
            for core in 0..4 {
                for (from, to) in [(0, u64::MAX), (lo.min(hi), lo.max(hi))] {
                    let got = ring.retransmit(core, from, to);
                    let got = (
                        got.records.iter().map(RecordRef::to_monitored).collect::<Vec<_>>(),
                        got.complete,
                    );
                    prop_assert_eq!(
                        got,
                        model.retransmit(core, from, to),
                        "core {} tokens [{}, {}]", core, from, to
                    );
                }
            }
        }
    }

    #[test]
    fn release_keeps_what_a_localization_can_ask_for(
        stream in proptest::collection::vec((any_event(), 0u8..4, 0u64..3), 1..2500),
        capacity in prop_oneof![Just(usize::MAX), 600usize..=4096],
        steps in proptest::collection::vec((1usize..400, (0u64..600, 0u64..600, 0u64..600, 0u64..600), 0u8..16), 1..24),
    ) {
        // Four-core pushes interleaved with releases at per-core floors
        // that only rise, and start unset. The model is every event
        // pushed; a small capacity adds overflow evictions on top.
        let mut token = 0u64;
        let events: Vec<MonitoredEvent> = stream
            .into_iter()
            .map(|(event, core, gap)| {
                token += 1 + gap;
                MonitoredEvent { core, cycle: token, order: OrderTag(token), token: Token(token), event }
            })
            .collect();
        let mut ring = ReplayBuffer::new(capacity);
        let mut model: Vec<MonitoredEvent> = Vec::new();
        let mut floors: [Option<u64>; 4] = [None; 4];
        let mut rest = events.as_slice();
        for (n, (d0, d1, d2, d3), advance) in steps.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (batch, tail) = rest.split_at((*n).min(rest.len()));
            rest = tail;
            ring.push_slice(batch);
            model.extend_from_slice(batch);
            for (core, d) in [d0, d1, d2, d3].into_iter().enumerate() {
                if advance & (1 << core) != 0 {
                    floors[core] = Some(floors[core].unwrap_or(0) + d);
                }
            }
            let dropped = ring.dropped();
            ring.release(|core| floors[core as usize]);
            prop_assert_eq!(ring.dropped(), dropped, "release counted as overflow");

            // The record just pushed stays: release never takes the
            // chunk being filled.
            let newest = model.last().expect("pushed");
            let got = ring.retransmit(newest.core, newest.token.0, newest.token.0);
            prop_assert_eq!(got.records.len(), 1);
            let mut above = 0;
            for core in 0..4u8 {
                let floor = floors[core as usize].unwrap_or(0);
                let want = |from: u64| -> Vec<MonitoredEvent> {
                    model
                        .iter()
                        .filter(|e| e.core == core && e.token.0 >= from)
                        .cloned()
                        .collect()
                };
                above += want(floor).len();
                for from in [floor, 0] {
                    let got = ring.retransmit(core, from, u64::MAX);
                    // Without an overflow, everything from the floor on is
                    // there; below it, a release must show as incomplete.
                    if ring.dropped() == 0 && from == floor {
                        prop_assert!(got.complete, "core {} from floor {}", core, floor);
                    }
                    if got.complete {
                        let got: Vec<_> = got.records.iter().map(RecordRef::to_monitored).collect();
                        prop_assert_eq!(got, want(from), "core {} from {}", core, from);
                    }
                }
            }
            if ring.dropped() == 0 {
                prop_assert!(ring.len() >= above, "len {} < {} above the floors", ring.len(), above);
            }
        }
    }

    #[test]
    fn squash_sinks_make_the_same_transfers(
        cycles in any_cycle_stream(),
        capacity in 1024usize..4096,
        window in 1u32..12,
        order_coupled in any::<bool>(),
        differencing in any::<bool>(),
    ) {
        // Production: Squash lends each record of the cycle's arena to
        // the packer inside AccelUnit.
        let mut accel =
            AccelUnit::squash_batch_with(2, capacity, window, order_coupled, differencing);
        let mut transfers = Vec::new();
        // Staged: Squash fills a Vec<WireItem>, the packer takes it.
        let mut squash = SquashUnit::new(2, window);
        squash.set_order_coupled(order_coupled);
        squash.set_differencing(differencing);
        let mut batch = BatchUnit::new(2, capacity);
        let (mut items, mut packets) = (Vec::new(), Vec::new());
        let mut records = Vec::new();
        for events in &cycles {
            records.clear();
            events.iter().for_each(|ev| encode_record(ev, &mut records));
            accel.push_records(&records, &mut transfers);
            items.clear();
            for ev in events {
                squash.push(ev, &mut items);
            }
            squash.on_cycle_end(&mut items);
            batch.push_cycle(&items, &mut packets);
        }
        accel.flush(&mut transfers);
        items.clear();
        squash.flush_all(&mut items);
        batch.push_cycle(&items, &mut packets);
        batch.flush(&mut packets);

        prop_assert_eq!(transfers.len(), packets.len());
        for (t, p) in transfers.iter().zip(&packets) {
            prop_assert_eq!(&t.bytes[..], &p.bytes[..]);
            prop_assert_eq!(t.items, p.items);
            prop_assert_eq!(t.core, 0);
        }
        prop_assert_eq!(accel.squash_stats(), Some(*squash.stats()));
        prop_assert_eq!(accel.pack_stats(), Some(*batch.stats()));
    }

    #[test]
    fn fused_commit_codec_round_trips(
        first_seq in any::<u64>(),
        count in any::<u32>(),
        final_pc in any::<u64>(),
        tokens in any::<(u64, u64)>(),
        int_writes in proptest::collection::vec((any::<u8>(), any::<u64>()), 0..31),
        fp_writes in proptest::collection::vec((any::<u8>(), any::<u64>()), 0..31),
    ) {
        let f = FusedCommit {
            first_seq,
            count,
            final_pc,
            token_first: tokens.0,
            token_last: tokens.1,
            int_writes,
            fp_writes,
        };
        let mut buf = Vec::new();
        f.encode_into(&mut buf);
        prop_assert_eq!(buf.len(), f.encoded_len());
        let mut r = Reader::new(&buf);
        let mut back = FusedCommit::default();
        back.read_from(&mut r).expect("round-trip");
        r.finish().expect("exact");
        prop_assert_eq!(back, f);
    }

    #[test]
    fn wire_kind_byte_round_trips(kind in 0usize..EventKind::COUNT, class in 0u8..3) {
        let k = EventKind::ALL[kind];
        let wk = match class {
            0 => WireKind::Plain(k),
            1 => WireKind::Tagged(k),
            _ => WireKind::Diff(k),
        };
        prop_assert_eq!(WireKind::from_u8(wk.to_u8()).expect("valid"), wk);
    }

    #[test]
    fn unpacker_rejects_corruption(
        flip in 2usize..64,
        items in proptest::collection::vec(any_plain_or_tagged(), 4..16),
    ) {
        let mut packer = BatchUnit::new(2, 65536);
        let mut packets = Vec::new();
        packer.push_cycle(&items, &mut packets);
        packer.flush(&mut packets);
        let mut bytes = packets[0].bytes.clone();
        let pos = flip % bytes.len();
        bytes[pos] ^= 0xff;
        let corrupted = difftest_core::batch::Packet { bytes, items: packets[0].items };
        let mut unpacker = Unpacker::new(2);
        // Either a decode error or a *different* item stream — never a
        // silent identical result.
        match unpacker.unpack(&corrupted.bytes) {
            Err(_) => {}
            Ok(decoded) => prop_assert_ne!(decoded, items),
        }
    }
}

#[test]
fn commit_events_survive_squash_fuse_defuse() {
    // Deterministic cross-check: N commits fused then checked against an
    // interpreter-style accumulation equals the direct write-set.
    let mut squash = SquashUnit::new(1, 1000);
    let mut out = Vec::new();
    let mut last = [0u64; 32];
    for i in 0..200u64 {
        let wdest = (i % 29 + 1) as u8;
        let wdata = i * 3;
        last[wdest as usize] = wdata;
        squash.push(
            &MonitoredEvent {
                core: 0,
                cycle: i,
                order: OrderTag(i),
                token: Token(i),
                event: InstrCommit {
                    pc: 0x8000_0000 + 4 * i,
                    instr: 0x13,
                    wen: 1,
                    wdest,
                    wdata,
                    flags: 0,
                    rob_idx: 0,
                }
                .into(),
            },
            &mut out,
        );
    }
    squash.flush_all(&mut out);
    assert_eq!(out.len(), 1);
    let WireItem::Fused { fused, .. } = &out[0] else {
        panic!("expected fused record");
    };
    assert_eq!(fused.count, 200);
    for (r, v) in &fused.int_writes {
        assert_eq!(last[*r as usize], *v, "write-set is last-write-wins");
    }
}

#[test]
fn store_events_are_never_dropped_by_packing() {
    // Memory-check events must survive the full pipeline verbatim.
    let mut packer = BatchUnit::new(1, 2048);
    let mut unpacker = Unpacker::new(1);
    let items: Vec<WireItem> = (0..500u64)
        .map(|i| WireItem::Tagged {
            core: 0,
            tag: OrderTag(i),
            token: Token(i),
            event: StoreEvent {
                addr: 0x8000_0000 + 8 * i,
                data: i,
                mask: 0xff,
            }
            .into(),
        })
        .collect();
    let mut packets = Vec::new();
    for chunk in items.chunks(3) {
        packer.push_cycle(chunk, &mut packets);
    }
    packer.flush(&mut packets);
    let decoded: Vec<WireItem> = packets
        .iter()
        .map(|p| unpacker.unpack(&p.bytes).expect("round-trip"))
        .collect::<Vec<_>>()
        .concat();
    assert_eq!(decoded, items);
}
