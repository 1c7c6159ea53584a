//! Snapshot-based debugging: the prior-work baseline Replay replaces
//! (paper §4.4, Fig. 10).
//!
//! Before DiffTest-H, recovering instruction-level detail after a fused
//! mismatch meant snapshotting the *entire DUT* periodically and
//! re-executing it from the nearest checkpoint. This module implements that
//! strategy faithfully so its costs can be compared against Replay:
//!
//! - snapshots clone the whole DUT and the checker's REF states, which
//!   requires *quiescing* the acceleration pipeline (flushing fusion
//!   windows and partial packets) at every snapshot point;
//! - on a mismatch, the DUT is restored and re-executed cycle by cycle,
//!   regenerating the full unfused event stream until the failure
//!   reproduces.
//!
//! Replay instead buffers original events in a token ring and retransmits
//! only the failing range — no DUT re-execution, no multi-megabyte
//! snapshots, no quiesce-induced fusion breaks.

use difftest_dut::Dut;
use difftest_ref::RefModel;

use crate::checker::{Checker, Mismatch};
use crate::consume::{Consumer, NoCharge, Step};
use crate::session::{RunOutcome, Session};
use crate::transport::{AccelUnit, SwUnit, Transfer};

/// Outcome and cost accounting of a snapshot-debugged run.
#[derive(Debug, Clone)]
pub struct SnapshotReport {
    /// Why the run ended.
    pub outcome: RunOutcome,
    /// The mismatch detected on the fused stream, if any.
    pub coarse: Option<Mismatch>,
    /// The instruction-level mismatch recovered by re-execution, if any.
    pub precise: Option<Mismatch>,
    /// DUT cycles simulated in the main run.
    pub cycles: u64,
    /// Snapshots taken.
    pub snapshots: u64,
    /// Bytes held by one snapshot (DUT footprint; the dominant cost).
    pub snapshot_bytes: u64,
    /// Cycles re-executed from the restored snapshot to reproduce the bug.
    pub reexecuted_cycles: u64,
    /// Unfused events regenerated during re-execution.
    pub regenerated_events: u64,
}

/// Ingests `transfers` until the consumer decides the stream; returns how
/// many it ingested (the rest are dropped with the run).
fn feed(consumer: &mut Consumer, transfers: &mut Vec<Transfer>) -> u64 {
    let mut ingested = 0;
    for t in transfers.drain(..) {
        ingested += 1;
        if consumer.ingest(&t, 0, &mut NoCharge) == Step::Stop {
            break;
        }
    }
    ingested
}

/// Runs `session` (a squash-fused configuration) debugged by periodic
/// whole-DUT snapshots (interval in cycles), reproducing the prior-work
/// flow of paper Fig. 10 for comparison against Replay. The session's
/// DUT, acceleration unit, consumer and cycle budget drive the main run;
/// its platform, queue depth, fault plan and Replay switch play no part.
///
/// Both passes check through the one receive pipeline, [`Consumer`]: the
/// main run over the fused, packed stream; the re-execution over the
/// per-event baseline stream, which is what makes it instruction-precise.
///
/// `snapshot_interval == 0` is clamped to 1 (snapshot every cycle) rather
/// than silently disabling snapshots, which would make `precise`
/// localization return `None` with no signal.
pub fn snapshot_debug_run(session: &Session, snapshot_interval: u64) -> SnapshotReport {
    let snapshot_interval = snapshot_interval.max(1);
    let max_cycles = session.max_cycles();
    let mut dut = session.dut();
    let mut accel = session.accel();
    let mut consumer = session.consumer();

    let mut snapshot: Option<(Dut, Vec<(RefModel, u64)>)> = None;
    let mut snapshots_taken = 0u64;
    let mut snapshot_bytes = 0u64;
    let mut transfers: Vec<Transfer> = Vec::new();
    let mut records = Vec::new();

    while !consumer.stopped() && dut.halted().is_none() && dut.cycles() < max_cycles {
        // Periodic snapshot: quiesce the pipeline first (flush fusion
        // windows and partial packets, check everything) — the structural
        // cost snapshotting imposes on fusion. Cycle 0 is skipped: a
        // snapshot before any execution is the reset state, which the
        // debug flow can rebuild for free.
        if dut.cycles() > 0 && dut.cycles().is_multiple_of(snapshot_interval) {
            accel.flush(&mut transfers);
            feed(&mut consumer, &mut transfers);
            // The flush just emptied every window and partial packet, so
            // this is a stream boundary: close it to drain the checker's
            // due order-tagged items.
            consumer.finish_stream(None, 0, &mut NoCharge);
            if consumer.stopped() {
                break;
            }
            // `snapshot_refs` hands out borrows; the snapshot strategy is
            // the one place that genuinely pays for owned copies.
            let refs: Vec<_> = consumer
                .checker()
                .snapshot_refs()
                .into_iter()
                .map(|(r, s)| (r.clone(), s))
                .collect();
            snapshot = Some((dut.clone(), refs));
            snapshots_taken += 1;
            snapshot_bytes = dut.snapshot_footprint();
        }

        records.clear();
        dut.tick_records(&mut records);
        accel.push_records(&records, &mut transfers);
        feed(&mut consumer, &mut transfers);
    }

    if !consumer.stopped() {
        accel.flush(&mut transfers);
        feed(&mut consumer, &mut transfers);
        consumer.finish_stream(None, 0, &mut NoCharge);
    }
    let coarse = consumer.mismatch().cloned();

    // Debug flow: restore the nearest snapshot and re-execute the whole DUT
    // to regenerate unfused events until the failure reproduces.
    let mut precise = None;
    let mut reexecuted_cycles = 0u64;
    let mut regenerated_events = 0u64;
    if coarse.is_some() {
        // A mismatch before the first periodic snapshot falls back to the
        // reset state (a fresh DUT and fresh REFs), so localization still
        // works without the wasted cycle-0 whole-DUT copy.
        let (mut re_dut, checker) = match snapshot.take() {
            Some((dut, refs)) => (dut, Checker::resume(refs, false)),
            None => (session.dut(), session.checker(false)),
        };
        let mut per_event = AccelUnit::per_event();
        let mut re_consumer = Consumer::new(SwUnit::per_event(session.cores()), checker);
        while !re_consumer.stopped() && re_dut.halted().is_none() && re_dut.cycles() < max_cycles {
            records.clear();
            re_dut.tick_records(&mut records);
            reexecuted_cycles += 1;
            per_event.push_records(&records, &mut transfers);
            regenerated_events += feed(&mut re_consumer, &mut transfers);
        }
        precise = re_consumer.mismatch().cloned();
    }

    SnapshotReport {
        outcome: RunOutcome::decide(coarse.is_some(), consumer.link_error(), consumer.verdict()),
        coarse,
        precise,
        cycles: dut.cycles(),
        snapshots: snapshots_taken,
        snapshot_bytes,
        reexecuted_cycles,
        regenerated_events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::DiffConfig;
    use difftest_dut::{BugKind, BugSpec, DutConfig};
    use difftest_workload::Workload;

    /// A BNSD session over `w`, as the snapshot baseline runs it.
    fn bnsd(dut: DutConfig, w: &Workload, bugs: Vec<BugSpec>, max_cycles: u64) -> Session {
        Session::new(dut, DiffConfig::BNSD, w, bugs, max_cycles, 8, None)
    }

    /// `kind` armed at twelve commit counts, 250 apart: one trigger can
    /// land on a write the program overwrites unread within its fusion
    /// window, which only a per-cycle register dump would have seen.
    fn armed(kind: BugKind) -> Vec<BugSpec> {
        (0..12)
            .map(|i| BugSpec::new(kind, 6_000 + i * 250))
            .collect()
    }

    #[test]
    fn snapshot_flow_localizes_a_bug() {
        let w = Workload::linux_boot().seed(41).iterations(300).build();
        let r = snapshot_debug_run(
            &bnsd(
                DutConfig::xiangshan_minimal(),
                &w,
                armed(BugKind::RegWriteCorruption),
                200_000,
            ),
            2_000,
        );
        assert_eq!(r.outcome, RunOutcome::Mismatch);
        let precise = r.precise.expect("re-execution reproduces the bug");
        assert!(precise.check.contains("commit"), "{precise}");
        assert!(r.snapshots > 1);
        assert!(r.reexecuted_cycles > 0);
        assert!(r.snapshot_bytes > 10_000, "snapshots copy the DUT state");
    }

    #[test]
    fn snapshot_flow_passes_clean_runs() {
        let w = Workload::microbench().seed(41).iterations(40).build();
        let r = snapshot_debug_run(&bnsd(DutConfig::nutshell(), &w, Vec::new(), 400_000), 5_000);
        assert_eq!(r.outcome, RunOutcome::GoodTrap);
        assert!(r.precise.is_none());
    }

    /// Regression: cycle 0 used to satisfy `is_multiple_of(interval)` and
    /// clone the whole DUT before a single cycle had executed. With an
    /// interval longer than the run, no snapshot should ever be taken.
    #[test]
    fn no_wasted_snapshot_at_cycle_zero() {
        let w = Workload::microbench().seed(41).iterations(40).build();
        let r = snapshot_debug_run(
            &bnsd(DutConfig::nutshell(), &w, Vec::new(), 400_000),
            1_000_000,
        );
        assert_eq!(r.outcome, RunOutcome::GoodTrap);
        assert_eq!(r.snapshots, 0, "interval > run length must snapshot never");
    }

    /// A mismatch that fires before the first periodic snapshot still gets
    /// precise localization: the debug flow re-executes from reset.
    #[test]
    fn bug_before_first_snapshot_localizes_from_reset() {
        let w = Workload::linux_boot().seed(41).iterations(300).build();
        let r = snapshot_debug_run(
            &bnsd(
                DutConfig::xiangshan_minimal(),
                &w,
                armed(BugKind::RegWriteCorruption),
                200_000,
            ),
            50_000,
        );
        assert_eq!(r.outcome, RunOutcome::Mismatch);
        assert_eq!(r.snapshots, 0, "bug fires before the first snapshot");
        let precise = r.precise.expect("reset re-execution reproduces the bug");
        assert!(precise.check.contains("commit"), "{precise}");
        assert!(r.reexecuted_cycles > 0);
    }

    /// Regression: `snapshot_interval == 0` used to silently disable
    /// snapshots (nothing is a multiple of 0), so `precise` came back
    /// `None` with no signal. It now clamps to snapshot-every-cycle and
    /// localization works.
    #[test]
    fn interval_zero_clamps_instead_of_disabling() {
        let w = Workload::linux_boot().seed(41).iterations(300).build();
        let r = snapshot_debug_run(
            &bnsd(
                DutConfig::xiangshan_minimal(),
                &w,
                vec![BugSpec::new(BugKind::RegWriteCorruption, 500)],
                100_000,
            ),
            0,
        );
        assert_eq!(r.outcome, RunOutcome::Mismatch);
        assert!(r.snapshots > 0, "interval 0 must not disable snapshots");
        assert!(r.precise.is_some(), "localization must still work");
    }
}
