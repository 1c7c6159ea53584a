//! The send-side state machine every runner drives: tick → monitor →
//! pack → feed → deliver.
//!
//! The paper has one hardware-side pipeline (monitor → Squash → Batch →
//! sending queue, §4) whatever platform sits behind it. [`Producer`] is
//! that pipeline, symmetric to [`Consumer`](crate::consume::Consumer):
//! it owns the DUT, the acceleration unit, the send path in front of the
//! link's sink, the per-cycle capture arena and the stop conditions, and
//! [`run`](Producer::run) is the one loop over its phases, so a runner is
//! reduced to a topology — where the producer runs and what the sink is.
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
/// [`run`](Self::run) drives it to the end of the stream, then
/// [`finish`](Self::finish) hands back its account of the run (dropping
/// the producer closes the sink: end of stream).
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
    /// Cleared once the receiver is gone or has decided the run.
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
    pub fn link(&self) -> &SendLink<S> {
        &self.link
    }

    /// The send path, mutably.
    pub fn link_mut(&mut self) -> &mut SendLink<S> {
        &mut self.link
    }

    /// Steps until the run ends, then flushes — unless a failed send or
    /// a [`deliver`](LinkSink::deliver) that decided the run stopped it.
    /// The phases are timed as laps: each phase's closing clock reading
    /// opens the next, so a cycle reads the clock once at its start and
    /// once per phase.
    pub fn run(&mut self) {
        while self.running() {
            let t = self.timer.start();
            let t = self.tick(t);
            let t = self.monitor(t);
            let t = self.pack(t);
            self.alive = self.feed(t) && self.deliver();
        }
        if self.alive {
            self.flush();
        }
    }

    /// Advances the DUT one cycle, capturing its monitored events into
    /// the arena; a lap of the tick phase from `since`.
    fn tick(&mut self, since: u64) -> u64 {
        self.records.clear();
        self.dut.tick_records(&mut self.records);
        self.timer.lap(Phase::Tick, since)
    }

    /// Copies the cycle's capture arena into the receiver's retention
    /// ring, a lap of the monitor phase from `since`. Without a ring the
    /// phase reads zero and no lap is taken.
    fn monitor(&mut self, since: u64) -> u64 {
        match self.link.sink_mut().retention() {
            Some(rb) => {
                rb.push_records(&self.records);
                self.timer.lap(Phase::Monitor, since)
            }
            None => since,
        }
    }

    /// Streams the cycle's records through the acceleration unit,
    /// staging completed transfers for [`feed`](Self::feed); a lap of
    /// the pack phase from `since`.
    fn pack(&mut self, since: u64) -> u64 {
        self.accel.push_records(&self.records, &mut self.staging);
        self.timer.lap(Phase::Pack, since)
    }

    /// Moves staged transfers across the link: the fusion watermark
    /// record first, then the send path, as a lap of the transport phase
    /// from `since`. A blocking sink is the sending queue with
    /// backpressure. Returns `false` once the receiver is gone.
    fn feed(&mut self, since: u64) -> bool {
        if self.staging.is_empty() {
            return true;
        }
        let cycle = self.dut.cycles();
        self.fusion
            .observe(&self.accel, true, 0, cycle, &mut self.flight);
        let alive = self.link.feed(&mut self.staging, &mut self.flight, cycle);
        self.link.reclaim(&mut self.accel);
        self.timer.lap(Phase::Transport, since);
        alive
    }

    /// Lets the sink take what was sent, outside every phase timer.
    fn deliver(&mut self) -> bool {
        let cycle = self.dut.cycles();
        self.link.sink_mut().deliver(cycle, &mut self.accel)
    }

    /// End of stream: flushes fusion windows and partial packets, feeds
    /// them, releases transfers the fault model still holds for
    /// reordering, and delivers once more.
    fn flush(&mut self) {
        let t0 = self.timer.start();
        self.accel.flush(&mut self.staging);
        let t = self.timer.lap(Phase::Pack, t0);
        if self.feed(t) {
            let t0 = self.timer.start();
            let sent = self.link.finish();
            self.timer.stop(Phase::Transport, t0);
            self.alive = sent && self.deliver();
        }
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
