//! The shared send-side state machine on its own: a `Producer` run to
//! completion over an in-memory queue ships exactly the stream the
//! engine ships, a dead receiver stops it without losing its account of
//! the run, the squashed stream carries state dumps once per window,
//! payload buffers recycle through the packer's free list once the
//! receiver hands them back, and a receiver on the producer's thread
//! gets its retention ring filled and decides the run through the two
//! sink hooks.

use difftest_core::batch::peek_packet_seq;
use difftest_core::consume::{NoCharge, Step};
use difftest_core::wire::WireItemRef;
use difftest_core::{
    run_session, AccelUnit, DiffConfig, FaultPlan, LinkSink, Producer, QueueSink, ReplayBuffer,
    RunnerKind, Session, SwUnit, Transfer,
};
use difftest_dut::DutConfig;
use difftest_event::record::Records;
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

/// A receiver on the producer's thread that hands each cycle's
/// transfers back once the cycle is delivered, as the engine does after
/// ingesting them.
#[derive(Default)]
struct RecyclingSink(Vec<Transfer>);

impl LinkSink for RecyclingSink {
    fn send(&mut self, t: Transfer, _spent: &mut Vec<Vec<u8>>) -> bool {
        self.0.push(t);
        true
    }

    fn deliver(&mut self, _cycle: u64, accel: &mut AccelUnit) -> bool {
        for t in self.0.drain(..) {
            accel.recycle(t.bytes);
        }
        true
    }
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
    let mut p = session.producer(RecyclingSink::default());
    p.run();
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

/// A receiver on the producer's thread that keeps a retention ring, never
/// releases it, and decides the run once cycle `decide_at` is delivered.
struct DecidingSink {
    ring: ReplayBuffer,
    decide_at: u64,
    decided: bool,
    delivers: u64,
    sent: Vec<Transfer>,
    sent_after_decision: usize,
}

impl LinkSink for DecidingSink {
    fn send(&mut self, t: Transfer, _spent: &mut Vec<Vec<u8>>) -> bool {
        self.sent_after_decision += usize::from(self.decided);
        self.sent.push(t);
        true
    }

    fn retention(&mut self) -> Option<&mut ReplayBuffer> {
        Some(&mut self.ring)
    }

    fn deliver(&mut self, cycle: u64, _accel: &mut AccelUnit) -> bool {
        self.delivers += 1;
        self.decided = cycle >= self.decide_at;
        !self.decided
    }
}

const DECIDE_AT: u64 = 3_000;

/// A BNSD producer over a [`DecidingSink`], run until the sink decides
/// at the end of cycle `decide_at`.
fn run_until_decided(fault: Option<FaultPlan>, decide_at: u64) -> Producer<DecidingSink> {
    let w = Workload::linux_boot().seed(9).iterations(300).build();
    let session = Session::new(
        DutConfig::nutshell(),
        DiffConfig::BNSD,
        &w,
        Vec::new(),
        300_000,
        8,
        fault,
    );
    let mut p = session.producer(DecidingSink {
        ring: ReplayBuffer::new(usize::MAX),
        decide_at,
        decided: false,
        delivers: 0,
        sent: Vec::new(),
        sent_after_decision: 0,
    });
    p.run();
    p
}

#[test]
fn a_deciding_receiver_stops_the_run_without_a_flush() {
    let p = run_until_decided(None, DECIDE_AT);
    let sink = p.link().sink();
    assert!(!p.running());
    assert_eq!(p.dut().cycles(), DECIDE_AT, "the decision ended the run");
    assert_eq!(sink.delivers, DECIDE_AT, "one delivery per cycle");
    assert!(!sink.sent.is_empty());
    assert_eq!(sink.sent_after_decision, 0, "nothing flushed after it");
    assert_eq!(p.link().produced() as usize, sink.sent.len());
}

#[test]
fn the_retention_ring_holds_exactly_the_cycles_that_ran() {
    let p = run_until_decided(None, DECIDE_AT);
    let ring = &p.link().sink().ring;

    let w = Workload::linux_boot().seed(9).iterations(300).build();
    let session = Session::new(
        DutConfig::nutshell(),
        DiffConfig::BNSD,
        &w,
        Vec::new(),
        300_000,
        8,
        None,
    );
    let mut dut = session.dut();
    let mut captured = Vec::new();
    for _ in 0..DECIDE_AT {
        dut.tick_records(&mut captured);
    }
    let replayed = ring.retransmit(0, 0, u64::MAX);
    assert!(replayed.complete);
    assert_eq!(ring.len(), replayed.records.len());
    assert_eq!(ring.len(), Records::new(&captured).count());
    let retained: Vec<u8> = replayed
        .records
        .iter()
        .flat_map(|r| r.bytes())
        .copied()
        .collect();
    assert!(
        retained == captured,
        "the ring holds the arena of every cycle run, no more"
    );
}

#[test]
fn every_sequenced_packet_sent_over_a_faulty_link_is_retained_pristine() {
    // Long enough for a few dozen packets, most of which the link damages.
    let pristine = run_until_decided(None, 40_000);
    let faulty = run_until_decided(Some(FaultPlan::uniform(11, 150)), 40_000);
    let stats = faulty.link().fault_stats().expect("a fault model");
    assert!(
        stats.corrupted + stats.truncated > 0,
        "the link damaged some packet: {stats:?}"
    );
    let ring = &faulty.link().sink().ring;
    let sent = &pristine.link().sink().sent;
    assert_eq!(faulty.link().produced() as usize, sent.len());
    assert_eq!(ring.packets_retained(), sent.len());
    for t in sent {
        let seq = peek_packet_seq(&t.bytes).expect("a sequenced packet");
        assert_eq!(
            ring.retransmit_packet(seq),
            Some(t.bytes.as_slice()),
            "packet {seq}"
        );
    }
}
