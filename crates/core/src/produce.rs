//! The send-side state machine every runner drives: tick → monitor →
//! pack → feed.
//!
//! The paper has one hardware-side pipeline (monitor → Squash → Batch →
//! sending queue, §4) whatever platform sits behind it. [`Producer`] is
//! that pipeline, symmetric to [`Consumer`](crate::consume::Consumer):
//! it owns the DUT, one [`Lane`] per link, the per-cycle event scratch
//! and the stop conditions, and exposes each phase as its own call so a
//! runner is reduced to a topology — where the producer runs, what the
//! sink is, how many consumers listen.
//!
//! The producer owns no instruments. Every phase borrows the
//! [`PhaseTimer`] and [`FlightRecorder`] it writes to, the way
//! [`SendLink::feed`] does: the engine lends its consumer's, so
//! producer and consumer phases land on one interleaved timeline; the
//! wall-clock runners lend a pair local to the producing thread.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use difftest_dut::Dut;
use difftest_event::MonitoredEvent;
use difftest_stats::{FlightRecorder, FlightSnapshot, Phase, PhaseTimer, PhaseTimes, SpanBuf};

use crate::fault::FaultStats;
use crate::link::{FusionWatch, LinkSink, SendLink};
use crate::pool::PoolStats;
use crate::transport::{AccelUnit, Transfer};

/// One link's worth of hardware-side pipeline: the acceleration unit
/// that packs for it, the fusion watermark it reports, the send path in
/// front of its sink, and the transfers packed but not yet fed.
///
/// An *unrouted* lane packs every core's events into one stream; a
/// *routed* lane keeps only its route core's (one lane per core shards
/// the stream). Built by [`Session::lane`](crate::Session::lane).
#[derive(Debug)]
pub struct Lane<S: LinkSink> {
    accel: AccelUnit,
    fusion: FusionWatch,
    link: SendLink<S>,
    route: Option<u8>,
    staging: Vec<Transfer>,
}

impl<S: LinkSink> Lane<S> {
    /// `route` restricts packing to that core and stamps its id on the
    /// lane's transfers.
    pub(crate) fn new(mut accel: AccelUnit, link: SendLink<S>, route: Option<u8>) -> Self {
        accel.set_route_core(route.unwrap_or(0));
        Lane {
            accel,
            fusion: FusionWatch::default(),
            link,
            route,
            staging: Vec::new(),
        }
    }

    /// Shared handle to the link's produced-packet counter (the
    /// consumer's tail-loss reference once the stream closes).
    pub fn produced_handle(&self) -> Arc<AtomicU32> {
        self.link.produced_handle()
    }

    /// Moves staged transfers across the link. Returns `false` once the
    /// receiver is gone.
    fn feed(
        &mut self,
        cycle: u64,
        timer: &mut PhaseTimer,
        rec: &mut FlightRecorder,
        tap: &mut impl FnMut(&Transfer),
    ) -> bool {
        if self.staging.is_empty() {
            return true;
        }
        let t0 = timer.start();
        let core = self.route.unwrap_or(0);
        self.fusion.observe(&self.accel, true, core, cycle, rec);
        self.staging.iter().for_each(&mut *tap);
        let alive = self.link.feed(&mut self.staging, rec, cycle);
        timer.stop(Phase::Transport, t0);
        alive
    }
}

/// What a finished [`Producer`] hands back to its runner.
#[derive(Debug)]
pub struct ProducerOutput {
    /// DUT cycles simulated.
    pub cycles: u64,
    /// Instructions committed by the DUT.
    pub instructions: u64,
    /// Buffer-pool statistics summed over the lanes.
    pub pool: PoolStats,
    /// Injected-fault counters summed over the lanes (`None` on clean
    /// links).
    pub fault: Option<FaultStats>,
    /// Phase attribution of the lent timer.
    pub phases: PhaseTimes,
    /// The lent flight ring, oldest first.
    pub flight: FlightSnapshot,
    /// One producer-side span buffer per lane (empty when tracing is
    /// off).
    pub spans: Vec<SpanBuf>,
}

/// The shared send-side pipeline: DUT, lanes, event scratch and stop
/// conditions. Built by [`Session::producer`](crate::Session::producer).
///
/// Phase contract, per DUT cycle: [`tick`](Self::tick), optionally
/// [`monitor`](Self::monitor), [`pack`](Self::pack),
/// [`feed`](Self::feed), while [`running`](Self::running); then one
/// [`flush`](Self::flush), then [`finish`](Self::finish) (dropping the
/// producer closes every sink: end of stream). [`run`](Self::run) is
/// that loop with no hooks.
#[derive(Debug)]
pub struct Producer<S: LinkSink> {
    dut: Dut,
    lanes: Vec<Lane<S>>,
    /// The current cycle's monitored events.
    events: Vec<MonitoredEvent>,
    max_cycles: u64,
    /// Cleared once any sink reports its receiver gone.
    alive: bool,
}

impl<S: LinkSink> Producer<S> {
    pub(crate) fn new(dut: Dut, lanes: Vec<Lane<S>>, max_cycles: u64) -> Self {
        Producer {
            dut,
            lanes,
            events: Vec::new(),
            max_cycles,
            alive: true,
        }
    }

    /// Whether another cycle should run: the DUT has not trapped, the
    /// cycle budget is not spent, and every receiver is still there.
    pub fn running(&self) -> bool {
        self.alive && self.dut.halted().is_none() && self.dut.cycles() < self.max_cycles
    }

    /// The design under test.
    pub fn dut(&self) -> &Dut {
        &self.dut
    }

    /// Lane `lane`'s acceleration unit (fusion and packing statistics).
    pub fn accel(&self, lane: usize) -> &AccelUnit {
        &self.lanes[lane].accel
    }

    /// Lane `lane`'s send path (its sink, produced count, fault model).
    pub fn link_mut(&mut self, lane: usize) -> &mut SendLink<S> {
        &mut self.lanes[lane].link
    }

    /// Injected-fault counters summed over the lanes (`None` on clean
    /// links).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        let mut total: Option<FaultStats> = None;
        for stats in self.lanes.iter().filter_map(|l| l.link.fault_stats()) {
            *total.get_or_insert_with(FaultStats::default) += stats;
        }
        total
    }

    /// Advances the DUT one cycle, capturing its monitored events.
    pub fn tick(&mut self, timer: &mut PhaseTimer) {
        let t0 = timer.start();
        self.events.clear();
        self.dut.tick_into(&mut self.events);
        timer.stop(Phase::Tick, t0);
    }

    /// Runs `hook` over the cycle's events, timed as the monitor phase
    /// (the engine retains them for Replay here). Runners without a
    /// monitor-side consumer of the events skip this call.
    pub fn monitor(&mut self, timer: &mut PhaseTimer, hook: impl FnOnce(&[MonitoredEvent])) {
        timer.time(Phase::Monitor, || hook(&self.events));
    }

    /// Streams the cycle's events through every lane's acceleration
    /// unit; completed transfers are staged for [`feed`](Self::feed).
    pub fn pack(&mut self, timer: &mut PhaseTimer) {
        let t0 = timer.start();
        for lane in &mut self.lanes {
            match lane.route {
                Some(_) => lane
                    .accel
                    .push_cycle_for_route_core(&self.events, &mut lane.staging),
                None => lane.accel.push_cycle(&self.events, &mut lane.staging),
            }
        }
        timer.stop(Phase::Pack, t0);
    }

    /// Moves staged transfers across their links, lane by lane: the
    /// fusion watermark record first, then `tap` over each transfer
    /// about to be sent (pre-fault), then the send path. A blocking
    /// sink is the lane's sending queue with backpressure. Returns
    /// `false` once a receiver is gone — it already decided the run.
    pub fn feed(
        &mut self,
        timer: &mut PhaseTimer,
        rec: &mut FlightRecorder,
        mut tap: impl FnMut(&Transfer),
    ) -> bool {
        let cycle = self.dut.cycles();
        for lane in &mut self.lanes {
            if !lane.feed(cycle, timer, rec, &mut tap) {
                self.alive = false;
                break;
            }
        }
        self.alive
    }

    /// End of stream: flushes fusion windows and partial packets, feeds
    /// them (through `tap`, like [`feed`](Self::feed)), and releases
    /// transfers the fault models still hold for reordering.
    pub fn flush(
        &mut self,
        timer: &mut PhaseTimer,
        rec: &mut FlightRecorder,
        mut tap: impl FnMut(&Transfer),
    ) {
        let cycle = self.dut.cycles();
        for lane in &mut self.lanes {
            let t0 = timer.start();
            lane.accel.flush(&mut lane.staging);
            timer.stop(Phase::Pack, t0);
            if lane.feed(cycle, timer, rec, &mut tap) {
                let t0 = timer.start();
                lane.link.finish();
                timer.stop(Phase::Transport, t0);
            }
        }
    }

    /// Steps until the run ends or `stop` is raised (a consumer decided
    /// the stream early), then flushes.
    pub fn run(&mut self, stop: &AtomicBool, timer: &mut PhaseTimer, rec: &mut FlightRecorder) {
        while self.running() && !stop.load(Ordering::Acquire) {
            self.tick(timer);
            self.pack(timer);
            self.feed(timer, rec, |_| {});
        }
        self.flush(timer, rec, |_| {});
    }

    /// Tears the producer down into its runner-facing output, reading
    /// phases and flight records off the instruments it was lent.
    /// Dropping the lanes closes every sink: end of stream.
    pub fn finish(mut self, timer: &PhaseTimer, rec: &FlightRecorder) -> ProducerOutput {
        let mut pool = PoolStats::default();
        for lane in &self.lanes {
            pool += lane.accel.pool_stats();
        }
        ProducerOutput {
            cycles: self.dut.cycles(),
            instructions: self.dut.total_commits(),
            pool,
            fault: self.fault_stats(),
            phases: timer.times(),
            flight: rec.snapshot(),
            spans: self.lanes.iter_mut().map(|l| l.link.take_spans()).collect(),
        }
    }
}
