//! Transport-robustness tests (paper §4.5): the unified packet interface
//! must never *silently* accept disturbed transfer streams — reordering
//! is reassembled, a duplicate is discarded and counted, and loss,
//! truncation or corruption surface as typed link errors or checker
//! mismatches, never as a clean good trap. Streams are checked through
//! [`Consumer`], the receive pipeline every runner drives.

use difftest_h::core::{
    AccelUnit, Checker, Consumer, ConsumerOutput, NoCharge, Step, SwUnit, Transfer, Verdict,
};
use difftest_h::dut::{Dut, DutConfig};
use difftest_h::ref_model::{Memory, RefModel};
use difftest_h::workload::Workload;

fn record_transfers() -> (Memory, Vec<Transfer>) {
    let w = Workload::linux_boot().seed(31).iterations(80).build();
    let mut image = Memory::new();
    image.load_words(Memory::RAM_BASE, w.words());
    let mut dut = Dut::new(DutConfig::xiangshan_minimal(), &image, Vec::new());
    let mut accel = AccelUnit::squash_batch_with(1, 4096, 32, false, true);
    let mut transfers = Vec::new();
    while dut.halted().is_none() && dut.cycles() < 200_000 {
        let out = dut.tick();
        accel.push_cycle(&out.events, &mut transfers);
    }
    accel.flush(&mut transfers);
    assert!(dut.halted().expect("run halts").good);
    assert!(transfers.len() > 10);
    (image, transfers)
}

/// Feeds a transfer stream to a fresh consumer and closes it.
fn consume(image: &Memory, transfers: &[Transfer]) -> ConsumerOutput {
    let checker = Checker::new(vec![RefModel::new(image.clone())], false);
    let mut consumer = Consumer::new(SwUnit::packed(1), checker);
    for t in transfers {
        if consumer.ingest(t, 0, &mut NoCharge) == Step::Stop {
            break;
        }
    }
    consumer.finish_stream(None, 0, &mut NoCharge);
    consumer.finish()
}

/// Returns `Ok(halted_good)` or the first failure (link error or
/// mismatch) as `Err`.
fn check(image: &Memory, transfers: &[Transfer]) -> Result<bool, String> {
    let out = consume(image, transfers);
    if let Some(m) = out.mismatch {
        return Err(format!("mismatch: {m}"));
    }
    if let Some((kind, seq, core)) = out.link_error {
        return Err(format!("link: {kind:?} at packet {seq} (core {core})"));
    }
    Ok(matches!(
        out.verdict,
        Some(Verdict::Halt { good: true, .. })
    ))
}

#[test]
fn intact_stream_verifies() {
    let (image, transfers) = record_transfers();
    assert_eq!(check(&image, &transfers), Ok(true));
}

#[test]
fn reordered_packets_are_reassembled() {
    // Non-blocking links may deliver out of order; the sequence-numbered
    // packets let the receiver restore order (paper §4.5), so a swapped
    // pair verifies cleanly end to end.
    let (image, mut transfers) = record_transfers();
    let mid = transfers.len() / 2;
    transfers.swap(mid, mid + 1);
    assert_eq!(check(&image, &transfers), Ok(true));
}

#[test]
fn heavily_shuffled_window_is_reassembled() {
    let (image, mut transfers) = record_transfers();
    let mid = transfers.len() / 2;
    // Reverse an 8-packet window: worst-case local reordering.
    transfers[mid..mid + 8].reverse();
    assert_eq!(check(&image, &transfers), Ok(true));
}

#[test]
fn duplicated_packet_never_passes_silently() {
    // The consumer discards the stale duplicate and counts it — what
    // every runner does — and the stream still verifies.
    let (image, mut transfers) = record_transfers();
    let dup = transfers[transfers.len() / 2].clone();
    transfers.insert(transfers.len() / 2, dup);
    let out = consume(&image, &transfers);
    assert_eq!(out.link.stale_dropped, 1, "the duplicate must be counted");
    assert!(
        matches!(out.verdict, Some(Verdict::Halt { good: true, .. })),
        "{:?} {:?}",
        out.mismatch,
        out.link_error
    );
}

#[test]
fn dropped_packet_stalls_instead_of_passing() {
    // A lost packet leaves a sequence gap: everything after it is held in
    // the reorder buffer and the stream never reaches its good trap.
    let (image, mut transfers) = record_transfers();
    transfers.remove(transfers.len() / 2);
    let verdict = check(&image, &transfers);
    assert_ne!(
        verdict,
        Ok(true),
        "a dropped packet must not verify: {verdict:?}"
    );
}

#[test]
fn corrupted_metadata_never_passes_silently() {
    // Corrupt the packet *metadata* (the first bytes): the meta-guided
    // parser must either fail or decode a visibly different stream — the
    // checker then flags it. (A flip inside an unchecked microarchitectural
    // context field, e.g. a ROB index, is legitimately tolerated.)
    let (image, mut transfers) = record_transfers();
    let mid = transfers.len() / 2;
    // Offset 6 = first meta entry (after the 4-byte sequence number and
    // the 2-byte meta count).
    transfers[mid].bytes[6] ^= 0x5a;
    assert!(
        check(&image, &transfers).is_err(),
        "corrupted metadata must surface as an error"
    );
}

#[test]
fn truncated_packet_is_a_decode_error() {
    let (image, mut transfers) = record_transfers();
    let mid = transfers.len() / 2;
    let len = transfers[mid].bytes.len();
    transfers[mid].bytes.truncate(len - 5);
    let out = consume(&image, &transfers);
    assert!(out.link_error.is_some(), "truncation must fail the link");
    assert!(out.mismatch.is_none(), "{:?}", out.mismatch);
}
