//! The send-side state machine every runner drives: tick → monitor →
//! pack → feed.
//!
//! The paper has one hardware-side pipeline (monitor → Squash → Batch →
//! sending queue, §4) whatever platform sits behind it. [`Producer`] is
//! that pipeline, symmetric to [`Consumer`](crate::consume::Consumer):
//! it owns the DUT, the acceleration unit, the send path in front of the
//! link's sink, the per-cycle capture arena and the stop conditions, and
//! exposes each phase as its own call so a runner is reduced to a
//! topology — where the producer runs and what the sink is.
//! A monitored event has one representation on this side, the record
//! the DUT's monitor appends to the capture arena: retention copies it
//! and the acceleration unit reads it in place.
//!
//! The producer owns its instruments, as the consumer owns its own: a
//! [`PhaseTimer`] for its phases and a [`FlightRecorder`] for its sends
//! and fusion watermarks (its span track lives in the [`SendLink`]).
//! [`obs`](Producer::obs) hands them back as one [`Obs`], which a
//! runner joins with the consumer's by one [`Obs::absorb`].

use difftest_dut::Dut;
use difftest_stats::{FlightRecorder, Metrics, Obs, Phase, PhaseTimer};

use crate::fault::FaultStats;
use crate::link::{FusionWatch, LinkSink, SendLink};
use crate::transport::{AccelUnit, Transfer};

/// What a finished [`Producer`] hands back to its runner.
#[derive(Debug)]
pub struct ProducerOutput {
    /// DUT cycles simulated.
    pub cycles: u64,
    /// Instructions committed by the DUT.
    pub instructions: u64,
    /// Injected-fault counters (`None` on a clean link).
    pub fault: Option<FaultStats>,
    /// What the producer observed: its phase times, flight records and
    /// span track.
    pub obs: Obs,
}

/// The shared send-side pipeline: DUT, acceleration unit, send path,
/// capture arena, stop conditions and instruments. Built by
/// [`Session::producer`](crate::Session::producer).
///
/// Phase contract, per DUT cycle: [`tick`](Self::tick), optionally
/// [`monitor`](Self::monitor), [`pack`](Self::pack),
/// [`feed`](Self::feed), while [`running`](Self::running); then one
/// [`flush`](Self::flush), then [`finish`](Self::finish) (dropping the
/// producer closes the sink: end of stream). [`run`](Self::run) is that
/// loop with no monitor hook and no send tap.
#[derive(Debug)]
pub struct Producer<S: LinkSink> {
    dut: Dut,
    accel: AccelUnit,
    fusion: FusionWatch,
    link: SendLink<S>,
    /// Transfers packed but not yet fed.
    staging: Vec<Transfer>,
    /// The current cycle's capture arena: its monitored events, as
    /// records back to back.
    records: Vec<u8>,
    max_cycles: u64,
    /// Cleared once the sink reports its receiver gone.
    alive: bool,
    /// Times the tick, monitor, pack and transport phases.
    timer: PhaseTimer,
    /// Records fusion watermarks and packets sent.
    flight: FlightRecorder,
}

impl<S: LinkSink> Producer<S> {
    pub(crate) fn new(dut: Dut, accel: AccelUnit, link: SendLink<S>, max_cycles: u64) -> Self {
        Producer {
            dut,
            accel,
            fusion: FusionWatch::default(),
            link,
            staging: Vec::new(),
            records: Vec::new(),
            max_cycles,
            alive: true,
            timer: PhaseTimer::monotonic(),
            flight: FlightRecorder::default(),
        }
    }

    /// Whether another cycle should run: the DUT has not trapped, the
    /// cycle budget is not spent, and the receiver is still there.
    pub fn running(&self) -> bool {
        self.alive && self.dut.halted().is_none() && self.dut.cycles() < self.max_cycles
    }

    /// The design under test.
    pub fn dut(&self) -> &Dut {
        &self.dut
    }

    /// The acceleration unit (fusion and packing statistics).
    pub fn accel(&self) -> &AccelUnit {
        &self.accel
    }

    /// The send path (its sink, produced count, fault model).
    pub fn link_mut(&mut self) -> &mut SendLink<S> {
        &mut self.link
    }

    /// Injected-fault counters (`None` on a clean link).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.link.fault_stats()
    }

    /// Advances the DUT one cycle, capturing its monitored events into
    /// the arena.
    pub fn tick(&mut self) {
        let t0 = self.timer.start();
        self.records.clear();
        self.dut.tick_records(&mut self.records);
        self.timer.stop(Phase::Tick, t0);
    }

    /// Runs `hook` over the cycle's capture arena, timed as the monitor
    /// phase (the engine retains its records for Replay here). Runners
    /// without a monitor-side consumer of the events skip this call.
    pub fn monitor(&mut self, hook: impl FnOnce(&[u8])) {
        self.timer.time(Phase::Monitor, || hook(&self.records));
    }

    /// Streams the cycle's records through the acceleration unit;
    /// completed transfers are staged for [`feed`](Self::feed).
    pub fn pack(&mut self) {
        let t0 = self.timer.start();
        self.accel.push_records(&self.records, &mut self.staging);
        self.timer.stop(Phase::Pack, t0);
    }

    /// Moves staged transfers across the link: the fusion watermark
    /// record first, then `tap` over each transfer about to be sent
    /// (pre-fault), then the send path. A blocking sink is the sending
    /// queue with backpressure. Returns `false` once the receiver is
    /// gone — it already decided the run.
    pub fn feed(&mut self, tap: impl FnMut(&Transfer)) -> bool {
        if !self.ship(tap) {
            self.alive = false;
        }
        self.alive
    }

    /// End of stream: flushes fusion windows and partial packets, feeds
    /// them (through `tap`, like [`feed`](Self::feed)), and releases
    /// transfers the fault model still holds for reordering.
    pub fn flush(&mut self, tap: impl FnMut(&Transfer)) {
        let t0 = self.timer.start();
        self.accel.flush(&mut self.staging);
        self.timer.stop(Phase::Pack, t0);
        if self.ship(tap) {
            let t0 = self.timer.start();
            self.link.finish();
            self.timer.stop(Phase::Transport, t0);
        }
    }

    /// Feeds the staged transfers to the send path. Returns `false`
    /// once the receiver is gone.
    fn ship(&mut self, tap: impl FnMut(&Transfer)) -> bool {
        if self.staging.is_empty() {
            return true;
        }
        let t0 = self.timer.start();
        let cycle = self.dut.cycles();
        self.fusion
            .observe(&self.accel, true, 0, cycle, &mut self.flight);
        self.staging.iter().for_each(tap);
        let alive = self.link.feed(&mut self.staging, &mut self.flight, cycle);
        self.link.reclaim(&mut self.accel);
        self.timer.stop(Phase::Transport, t0);
        alive
    }

    /// Hands a transfer the receiver has finished with back to the
    /// packer, for its buffer to carry a later transfer.
    pub fn recycle(&mut self, t: Transfer) {
        self.accel.recycle(t.bytes);
    }

    /// Steps until the run ends (a receiver that decided the stream
    /// early ends it by going away), then flushes.
    pub fn run(&mut self) {
        while self.running() {
            self.tick();
            self.pack();
            self.feed(|_| {});
        }
        self.flush(|_| {});
    }

    /// What the producer observed so far: its phase times, a snapshot
    /// of its flight ring, and its span track (taken, so a second call
    /// carries none). Non-consuming: the engine stays runnable.
    pub fn obs(&mut self) -> Obs {
        let mut metrics = Metrics::new();
        metrics.phases = self.timer.times();
        Obs::new(metrics, self.flight.snapshot(), self.link.take_spans())
    }

    /// Tears the producer down into its runner-facing output. Dropping
    /// the send path closes the sink: end of stream.
    pub fn finish(mut self) -> ProducerOutput {
        ProducerOutput {
            cycles: self.dut.cycles(),
            instructions: self.dut.total_commits(),
            fault: self.link.fault_stats(),
            obs: self.obs(),
        }
    }
}
