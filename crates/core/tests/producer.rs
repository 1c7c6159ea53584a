//! The shared send-side state machine on its own: a `Producer` run to
//! completion over an in-memory queue ships exactly the stream the
//! engine ships, a dead receiver stops it without losing its account of
//! the run, the squashed stream carries state dumps once per window, and
//! payload buffers recycle through the packer's free list once the
//! receiver hands them back.

use difftest_core::consume::{NoCharge, Step};
use difftest_core::wire::WireItemRef;
use difftest_core::{
    run_session, DiffConfig, FaultPlan, LinkSink, QueueSink, RunnerKind, Session, SwUnit, Transfer,
};
use difftest_dut::DutConfig;
use difftest_event::EventKind;
use difftest_stats::{FlightKind, Phase};
use difftest_workload::Workload;

fn dual_core_minimal() -> DutConfig {
    let mut cfg = DutConfig::xiangshan_minimal();
    cfg.cores = 2;
    cfg
}

#[test]
fn queue_producer_reproduces_the_engine_stream() {
    let presets = [
        Workload::microbench().seed(5).iterations(8).build(),
        Workload::linux_boot().seed(5).iterations(12).build(),
    ];
    for w in &presets {
        for dut in [DutConfig::nutshell(), dual_core_minimal()] {
            for config in DiffConfig::ALL {
                let ctx = format!("{config:?} on {} core(s)", dut.cores);
                let session = Session::new(dut.clone(), config, w, Vec::new(), 300_000, 8, None);
                let engine = run_session(RunnerKind::Engine, session.clone());

                let mut p = session.producer(QueueSink::default());
                p.run();
                let produced = p.link_mut().produced();
                let queue = std::mem::take(&mut p.link_mut().sink_mut().queue);
                assert_eq!(
                    queue.len() as u32,
                    produced,
                    "{ctx}: clean link delivers all"
                );
                let out = p.finish();
                assert_eq!(out.cycles, engine.cycles, "{ctx}");
                assert_eq!(out.instructions, engine.instructions, "{ctx}");
                for phase in [Phase::Tick, Phase::Pack, Phase::Transport] {
                    assert!(
                        out.obs.metrics.phases.get(phase) > 0,
                        "{ctx}: {phase} untimed"
                    );
                }
                assert_eq!(
                    out.obs.metrics.phases.get(Phase::Monitor),
                    0,
                    "{ctx}: no hook ran"
                );

                // The same receive side the engine drives, fed the
                // producer's stream, must account the same volume.
                let mut consumer = session.consumer();
                let stopped = queue
                    .iter()
                    .any(|t| consumer.ingest(t, 0, &mut NoCharge) == Step::Stop);
                if !stopped {
                    consumer.finish_stream(Some(produced), 0, &mut NoCharge);
                }
                let got = consumer.finish();
                assert!(got.mismatch.is_none(), "{ctx}: {:?}", got.mismatch);
                assert_eq!(got.items, engine.items, "{ctx}");
                for key in ["obs.bytes", "obs.transfers"] {
                    assert_eq!(
                        got.obs.metrics.counters.get(key),
                        engine.metrics.counters.get(key),
                        "{ctx}: {key}"
                    );
                }
            }
        }
    }
}

/// A receiver that is gone by the time the `.0`-th transfer arrives.
struct DyingSink(u32);

impl LinkSink for DyingSink {
    fn send(&mut self, _t: Transfer, _spent: &mut Vec<Vec<u8>>) -> bool {
        self.0 = self.0.saturating_sub(1);
        self.0 > 0
    }
}

#[test]
fn dead_receiver_stops_the_producer_and_finish_still_reports() {
    let w = Workload::linux_boot().seed(9).iterations(300).build();
    let session = Session::new(
        DutConfig::nutshell(),
        DiffConfig::BNSD,
        &w,
        Vec::new(),
        300_000,
        8,
        Some(FaultPlan::clean(1)),
    );
    let mut p = session.producer(DyingSink(3));
    p.run();
    assert!(!p.running());
    assert!(
        p.dut().halted().is_none() && p.dut().cycles() < 300_000,
        "the dead receiver, not the workload, ended the run"
    );
    let out = p.finish();
    assert!(out.cycles > 0 && out.instructions > 0);
    assert!(out.fault.is_some_and(|f| f.delivered >= 3));
    let sent = out
        .obs
        .flight
        .records
        .iter()
        .filter(|r| r.kind == FlightKind::PacketSent);
    assert!(sent.count() >= 3, "sends stay on the flight record");
}

/// Squash holds each state dump and ships the newest of its kind only at
/// a window close (one fused record), ahead of a tagged event, or after a
/// trap entry: at most one dump of each of the eight held kinds per such
/// point. A stream that shipped dumps every commit cycle breaks the bound.
#[test]
fn state_dumps_ship_once_per_window_not_per_cycle() {
    let w = Workload::microbench().seed(7).iterations(40).build();
    let dut = DutConfig::xiangshan_default();
    let cores = dut.cores;
    let session = Session::new(dut, DiffConfig::BNSD, &w, Vec::new(), 300_000, 8, None);
    let mut p = session.producer(QueueSink::default());
    p.run();
    let queue = std::mem::take(&mut p.link_mut().sink_mut().queue);

    let mut sw = SwUnit::packed(cores as usize);
    let (mut diff, mut fused, mut tagged, mut traps) = (0u64, 0u64, 0u64, 0u64);
    for t in &queue {
        let body = sw
            .admit(t)
            .expect("clean link")
            .expect("a queue delivers in order");
        sw.visit_admitted(body, &mut |item: WireItemRef<'_>| {
            match item {
                WireItemRef::Diff { .. } => diff += 1,
                WireItemRef::Fused { .. } => fused += 1,
                WireItemRef::Tagged { event, .. } => {
                    tagged += 1;
                    traps += u64::from(event.kind() == EventKind::ArchEvent);
                }
                WireItemRef::Plain { .. } => {}
            }
            true
        })
        .expect("admitted bodies visit");
    }
    assert!(fused > 0 && diff > 0, "{fused} fused, {diff} diff");
    assert!(
        diff <= 8 * (fused + tagged + traps),
        "{diff} diff items against {fused} fused, {tagged} tagged, {traps} trap entries"
    );
}

/// A receiver that hands each transfer back soon after it arrives, the
/// way the engine drains its queue every cycle: past the warmup (at most
/// one cycle's packets in flight), the producer draws payloads from its
/// free list, not the allocator.
#[test]
fn pool_recycles_after_warmup() {
    // Long enough that the bounded warmup allocations are under 5% of
    // total acquisitions.
    let w = Workload::microbench().seed(2).iterations(1500).build();
    let session = Session::new(
        DutConfig::nutshell(),
        DiffConfig::BNSD,
        &w,
        Vec::new(),
        5_000_000,
        8,
        None,
    );
    let mut p = session.producer(QueueSink::default());
    while p.running() {
        p.tick();
        p.pack();
        p.feed(|_| {});
        for t in std::mem::take(&mut p.link_mut().sink_mut().queue) {
            p.recycle(t);
        }
    }
    p.flush(|_| {});
    assert!(p.dut().halted().is_some(), "the workload ran to its trap");
    let s = p.accel().pool_stats();
    assert!(
        s.hits + s.misses > 0,
        "producer must draw payloads from the pool"
    );
    assert!(
        s.hit_rate() >= 0.95,
        "steady-state recycle rate {} below 95% ({s:?})",
        s.hit_rate()
    );
}
