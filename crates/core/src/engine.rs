//! The co-simulation engine: DUT + acceleration unit + link model + checker.
//!
//! The engine runs the DUT cycle by cycle, streams verification events
//! through the configured acceleration pipeline, decodes and checks them
//! against per-core reference models, and accounts simulated time with the
//! paper's LogGP overhead model (Eq. 1):
//!
//! - **blocking** configurations (baseline, +Batch) pause the DUT for every
//!   transfer's startup, transmission and software processing;
//! - **non-blocking** configurations overlap hardware execution, link
//!   transfers and software processing, with a bounded in-flight queue
//!   providing backpressure (paper §4.5).
//!
//! Real bytes flow through real pack/fuse/parse code; only *time* is
//! virtual, so every reported speedup derives from genuinely reduced
//! invocations, bytes and checks. Both sides are the shared pipelines:
//! [`Producer::run`] drives the send side, and the engine's link is a
//! [`LinkSink`] that hands each cycle's transfers to the shared
//! [`Consumer`] on the same thread, with a [`ChargeObserver`] that prices
//! every transfer on the LogGP timeline.

use std::collections::VecDeque;
use std::fmt;

use difftest_dut::{BugSpec, Dut, DutConfig};
use difftest_platform::{OverheadBreakdown, Platform};
use difftest_stats::{Metrics, Tracer, PID_CONSUMER};
use difftest_workload::Workload;

use crate::checker::CheckStats;
use crate::consume::{ChargeObserver, Consumer, Step};
use crate::fault::FaultPlan;
use crate::link::LinkSink;
use crate::produce::Producer;
use crate::replay::{FailureReport, ReplayBuffer};
use crate::session::{link_counters, seal_report, RunCommon, RunnerKind, Session};
use crate::squash::SquashStats;
use crate::transport::{AccelUnit, Transfer};

pub use crate::session::{DiffConfig, RunOutcome};

/// Build-time validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// `max_cycles` must be positive.
    ZeroCycles,
    /// Packet capacity below the largest single item.
    PacketTooSmall(usize),
    /// Fusion window must be positive.
    ZeroWindow,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::ZeroCycles => write!(f, "max_cycles must be positive"),
            BuildError::PacketTooSmall(n) => write!(f, "packet capacity {n} below 1024 bytes"),
            BuildError::ZeroWindow => write!(f, "fusion window must be positive"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Configures and builds a [`CoSimulation`].
#[derive(Debug, Clone)]
pub struct CoSimulationBuilder {
    dut: DutConfig,
    platform: Platform,
    config: DiffConfig,
    max_cycles: u64,
    bugs: Vec<BugSpec>,
    packet_bytes: usize,
    fusion_window: u32,
    order_coupled: bool,
    differencing: bool,
    replay: bool,
    queue_depth: usize,
    fault_plan: Option<FaultPlan>,
    tracer: Option<Tracer>,
}

impl Default for CoSimulationBuilder {
    fn default() -> Self {
        CoSimulationBuilder {
            dut: DutConfig::xiangshan_default(),
            platform: Platform::palladium(),
            config: DiffConfig::BNSD,
            max_cycles: 1_000_000,
            bugs: Vec::new(),
            packet_bytes: 4096,
            fusion_window: 32,
            order_coupled: false,
            differencing: true,
            replay: true,
            queue_depth: 8,
            fault_plan: None,
            tracer: None,
        }
    }
}

impl CoSimulationBuilder {
    /// Selects the DUT configuration (default: XiangShan default).
    pub fn dut(mut self, dut: DutConfig) -> Self {
        self.dut = dut;
        self
    }

    /// Selects the platform model (default: Palladium).
    pub fn platform(mut self, platform: Platform) -> Self {
        self.platform = platform;
        self
    }

    /// Selects the optimization configuration (default: BNSD).
    pub fn config(mut self, config: DiffConfig) -> Self {
        self.config = config;
        self
    }

    /// Caps the simulated cycles (default: 1,000,000).
    pub fn max_cycles(mut self, cycles: u64) -> Self {
        self.max_cycles = cycles;
        self
    }

    /// Injects bugs into core 0 of the DUT.
    pub fn bugs(mut self, bugs: Vec<BugSpec>) -> Self {
        self.bugs = bugs;
        self
    }

    /// Sets the transmission packet capacity in bytes (default: 4096).
    pub fn packet_bytes(mut self, bytes: usize) -> Self {
        self.packet_bytes = bytes;
        self
    }

    /// Sets the fusion window in commits (default: 32).
    pub fn fusion_window(mut self, commits: u32) -> Self {
        self.fusion_window = commits;
        self
    }

    /// Uses the order-coupled fusion baseline of prior work (default: off).
    pub fn order_coupled(mut self, coupled: bool) -> Self {
        self.order_coupled = coupled;
        self
    }

    /// Enables or disables differencing within Squash (default: on).
    pub fn differencing(mut self, on: bool) -> Self {
        self.differencing = on;
        self
    }

    /// Enables the Replay debugging mechanism (default: on; only effective
    /// with [`DiffConfig::BNSD`]).
    pub fn replay(mut self, replay: bool) -> Self {
        self.replay = replay;
        self
    }

    /// Sets the non-blocking in-flight queue depth (default: 8).
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Injects link faults per a seeded schedule (default: clean link).
    /// With [`DiffConfig::BNSD`] and replay enabled, detected failures
    /// first attempt bounded recovery by retransmission from the packet
    /// retention ring; otherwise they surface as
    /// [`RunOutcome::LinkError`].
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Overrides the span tracer (default: the `DIFFTEST_TRACE`
    /// environment variable). Tests inject a
    /// [`FakeClock`](difftest_stats::FakeClock)-driven tracer here for
    /// deterministic span timestamps.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Builds the co-simulation over a workload image.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] for invalid parameter combinations.
    pub fn build(self, workload: &Workload) -> Result<CoSimulation, BuildError> {
        if self.max_cycles == 0 {
            return Err(BuildError::ZeroCycles);
        }
        if self.packet_bytes < 1024 {
            return Err(BuildError::PacketTooSmall(self.packet_bytes));
        }
        if self.fusion_window == 0 {
            return Err(BuildError::ZeroWindow);
        }

        let mut session = Session::new(
            self.dut,
            self.config,
            workload,
            self.bugs,
            self.max_cycles,
            self.queue_depth,
            self.fault_plan,
        )
        .with_packet_bytes(self.packet_bytes)
        .with_fusion_window(self.fusion_window)
        .with_order_coupled(self.order_coupled)
        .with_differencing(self.differencing);
        if self.tracer.is_some() {
            session = session.with_tracer(self.tracer);
        }

        Ok(CoSimulation::assemble(session, self.platform, self.replay))
    }
}

/// The result of one co-simulation run: the shared [`RunCommon`] core
/// plus the engine's virtual-time extensions.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The report core shared by every runner (verdict, volume, link
    /// health, observability).
    pub common: RunCommon,
    /// Failure details when `outcome == Mismatch`.
    pub failure: Option<FailureReport>,
    /// Simulated wall-clock seconds (virtual time).
    pub sim_time_s: f64,
    /// Achieved co-simulation speed in Hz (cycles / simulated second).
    pub speed_hz: f64,
    /// The platform's DUT-only speed for this design (theoretical maximum).
    pub dut_only_hz: f64,
    /// Per-phase communication overhead attribution.
    pub overhead: OverheadBreakdown,
    /// Communication invocations.
    pub invokes: u64,
    /// Bytes transferred hardware→software.
    pub bytes: u64,
    /// Fusion statistics (BNSD only).
    pub squash: Option<SquashStats>,
    /// Checker statistics.
    pub check: CheckStats,
    /// Events evicted from the replay ring before use (the
    /// `replay.dropped` counter): when non-zero, a localization over an
    /// old token range may be partial.
    pub replay_dropped: u64,
    /// The most events the replay ring held at once (the
    /// `replay.high_water` counter): the working set a localization can
    /// still ask for, against the ring's overflow ceiling.
    pub replay_high_water: u64,
}

impl RunReport {
    /// Fraction of simulated time spent on communication (not DUT
    /// execution): the paper's "communication overhead".
    pub fn comm_overhead_fraction(&self) -> f64 {
        let dut_time = self.cycles as f64 / self.dut_only_hz;
        if self.sim_time_s <= 0.0 {
            0.0
        } else {
            ((self.sim_time_s - dut_time) / self.sim_time_s).max(0.0)
        }
    }

    /// Exports the run's statistics as named performance counters
    /// (paper §5 "performance evaluation support").
    pub fn counters(&self) -> difftest_stats::Counters {
        let mut c = difftest_stats::Counters::new();
        c.set("hw.cycles", self.cycles);
        c.set("hw.instructions", self.instructions);
        c.set("link.invokes", self.invokes);
        c.set("link.bytes", self.bytes);
        c.set("sw.events_checked", self.check.events);
        c.set("sw.instructions_stepped", self.check.instructions);
        c.set("sw.mmio_skips", self.check.skips);
        c.set("sw.interrupts_synced", self.check.interrupts);
        c.set("sw.exceptions_checked", self.check.exceptions);
        c.set("sw.fused_records", self.check.fused_records);
        c.set("sw.bytes_compared", self.check.bytes);
        if let Some(s) = self.squash {
            c.set("squash.commits_fused", s.commits_fused);
            c.set("squash.fused_records", s.fused_records);
            c.set("squash.subsumed", s.subsumed);
            c.set("squash.tagged", s.tagged);
            c.set("squash.diffed", s.diffed);
            c.set("squash.nde_breaks", s.nde_breaks);
        }
        link_counters(&self.link, self.fault, &mut c);
        c.set("replay.dropped", self.replay_dropped);
        c.set("replay.high_water", self.replay_high_water);
        c
    }
}

/// How simulated time is charged (derived from [`DiffConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimingMode {
    /// Step-and-compare per-event baseline: a per-cycle clock-control sync
    /// plus fully serial transfers.
    BlockingStep,
    /// Packed but blocking: the DUT pauses for each packet round trip.
    Blocking,
    /// Non-blocking (paper §4.5): the hardware streams packet bytes (which
    /// stalls the emulated clock for their wire time), while startup
    /// handshakes and software processing run on overlapped lanes with a
    /// bounded in-flight queue providing backpressure.
    Pipelined,
}

/// LogGP virtual-time accounting (Eq. 1, per [`TimingMode`]).
#[derive(Debug)]
struct Timing {
    platform: Platform,
    mode: TimingMode,
    cycle_time: f64,
    step_sync: f64,
    queue_depth: usize,
    hw: f64,
    link_free: f64,
    sw_free: f64,
    inflight: VecDeque<f64>,
    end: f64,
    overhead: OverheadBreakdown,
    /// Communication invocations and bytes charged so far.
    invokes: u64,
    bytes: u64,
}

impl Timing {
    fn new(platform: Platform, gates: f64, mode: TimingMode, queue_depth: usize) -> Self {
        Timing {
            mode,
            cycle_time: platform.cycle_time_s(gates),
            step_sync: platform.step_sync_s(),
            platform,
            queue_depth,
            hw: 0.0,
            link_free: 0.0,
            sw_free: 0.0,
            inflight: VecDeque::new(),
            end: 0.0,
            overhead: OverheadBreakdown::default(),
            invokes: 0,
            bytes: 0,
        }
    }

    fn on_cycle(&mut self) {
        self.hw += self.cycle_time;
        if self.mode == TimingMode::BlockingStep {
            // Step-and-compare advances the emulated clock through a
            // per-cycle hardware/software handshake.
            self.hw += self.step_sync;
            self.overhead.startup_s += self.step_sync;
        }
    }

    fn on_transfer(&mut self, invokes: u64, bytes: u64, sw_cost: f64) {
        let link = self.platform.link();
        let startup = link.startup_time(invokes);
        let trans = link.transmission_time(bytes);
        self.overhead.startup_s += startup;
        self.overhead.transmission_s += trans;
        self.overhead.software_s += sw_cost;

        match self.mode {
            TimingMode::BlockingStep | TimingMode::Blocking => {
                // The DUT clock pauses for the full round trip.
                self.hw += startup + trans + sw_cost;
                self.end = self.hw;
            }
            TimingMode::Pipelined => {
                // Backpressure: a bounded number of transfers in flight.
                while self.inflight.len() >= self.queue_depth {
                    if let Some(t) = self.inflight.pop_front() {
                        if t > self.hw {
                            self.hw = t;
                        }
                    }
                }
                // Streaming the payload shares the emulation fabric
                // (GFIFO/XDMA), so the wire time stalls the DUT clock...
                self.hw += trans;
                // ...while the handshake and software processing overlap.
                let link_done = self.link_free.max(self.hw) + startup;
                self.link_free = link_done;
                let sw_done = self.sw_free.max(link_done) + sw_cost;
                self.sw_free = sw_done;
                self.inflight.push_back(sw_done);
                self.end = self.end.max(sw_done);
            }
        }
    }

    /// Prices one transfer that crossed the link on the LogGP timeline
    /// (Eq. 1) and tallies its invoke and byte volume. The software
    /// cost derives from the checker-stats delta the transfer caused —
    /// real work, virtually priced.
    fn charge(&mut self, invokes: u64, bytes: u64, before: &CheckStats, after: &CheckStats) {
        self.invokes += invokes;
        self.bytes += bytes;
        let host = self.platform.host();
        let sw_cost = (after.events - before.events) as f64 * host.event_fixed_s
            + (after.instructions - before.instructions) as f64 * host.ref_step_s
            + bytes as f64 * host.event_per_byte_s;
        self.on_transfer(invokes, bytes, sw_cost);
    }

    fn total(&self) -> f64 {
        self.hw.max(self.end)
    }
}

impl ChargeObserver for Timing {
    fn transfer_done(&mut self, t: &Transfer, before: &CheckStats, after: &CheckStats) {
        self.charge(1, t.bytes.len() as u64, before, after);
    }
}

/// The engine's virtual link: [`deliver`](LinkSink::deliver) ingests each
/// cycle's queued transfers through the shared [`Consumer`], priced by
/// the LogGP [`Timing`] model, and hands every buffer back to the packer.
#[derive(Debug)]
struct Inline {
    queue: Vec<Transfer>,
    consumer: Consumer,
    timing: Timing,
    /// The last DUT cycle charged to the virtual clock.
    cycles: u64,
}

impl LinkSink for Inline {
    fn send(&mut self, t: Transfer, _spent: &mut Vec<Vec<u8>>) -> bool {
        self.queue.push(t);
        true
    }

    fn retention(&mut self) -> Option<&mut ReplayBuffer> {
        self.consumer.retention_mut()
    }

    fn deliver(&mut self, cycle: u64, accel: &mut AccelUnit) -> bool {
        if cycle > self.cycles {
            self.cycles = cycle;
            self.timing.on_cycle();
        }
        let mut stop = false;
        for t in self.queue.drain(..) {
            stop = stop || self.consumer.ingest(&t, cycle, &mut self.timing) == Step::Stop;
            accel.recycle(t.bytes);
        }
        !stop
    }
}

/// A runnable co-simulation.
#[derive(Debug)]
pub struct CoSimulation {
    /// The shared send side, whose sink holds the shared receive side
    /// (decode, check, ARQ, Replay localization) and the LogGP clock.
    producer: Producer<Inline>,
    config: DiffConfig,
    failure: Option<FailureReport>,
    /// Span-trace configuration, when `DIFFTEST_TRACE` (or a builder
    /// override) enabled tracing.
    tracer: Option<Tracer>,
}

impl CoSimulation {
    /// Starts configuring a co-simulation.
    pub fn builder() -> CoSimulationBuilder {
        CoSimulationBuilder::default()
    }

    /// Wires a built session onto the engine's virtual link, timed by
    /// `platform`'s LogGP model, with Replay on where `replay` asks for
    /// it and the configuration fuses ([`builder`](Self::builder) is the
    /// validated front door).
    pub(crate) fn assemble(session: Session, platform: Platform, replay: bool) -> CoSimulation {
        let config = session.config();
        let consumer = if replay && config.squash() {
            // A memory ceiling, not the working set: the consumer
            // releases the ring's chunks as the checker's checkpoints
            // pass them, so `replay.high_water` stays at a few thousand
            // records.
            session.consumer_with_retention(true, 1 << 16)
        } else {
            session.consumer()
        }
        .with_spans(session.span_sink(PID_CONSUMER, 0, "consumer", "consumer"));
        let timing = Timing::new(
            platform,
            session.dut_cfg().gates,
            match config {
                DiffConfig::Z => TimingMode::BlockingStep,
                DiffConfig::B => TimingMode::Blocking,
                DiffConfig::BN | DiffConfig::BNSD => TimingMode::Pipelined,
            },
            session.queue_depth(),
        );
        CoSimulation {
            producer: session.producer(Inline {
                queue: Vec::new(),
                consumer,
                timing,
                cycles: 0,
            }),
            config,
            failure: None,
            tracer: session.tracer().cloned(),
        }
    }

    /// The selected optimization configuration.
    pub fn config(&self) -> DiffConfig {
        self.config
    }

    /// The design under test (device transcripts, per-core state).
    pub fn dut(&self) -> &Dut {
        self.producer.dut()
    }

    /// The ISA checker (statistics, per-core progress).
    pub fn checker(&self) -> &crate::checker::Checker {
        self.producer.link().sink().consumer.checker()
    }

    /// Runs to completion (trap, mismatch or cycle budget) and reports.
    pub fn run(&mut self) -> RunReport {
        self.producer.run();
        let dut = self.producer.dut();
        let (cycles, instructions) = (dut.cycles(), dut.total_commits());
        let gates = dut.config().gates;
        let squash = self.producer.accel().squash_stats();
        let link = self.producer.link_mut();
        let (produced, fault) = (link.produced(), link.fault_stats());
        let Inline {
            consumer, timing, ..
        } = link.sink_mut();
        // Terminal gaps: sent packets that never arrived.
        if !consumer.stopped() {
            consumer.finish_stream(Some(produced), cycles, timing);
        }
        if self.failure.is_none() {
            if let Some(coarse) = consumer.mismatch().cloned() {
                let (failure, replay) = consumer.localize(coarse);
                if let Some((bytes, before)) = replay {
                    timing.charge(1, bytes, &before, consumer.checker().stats());
                }
                self.failure = Some(failure);
            }
        }

        let sim_time_s = timing.total();
        let ring = consumer.retention();
        let mut report = RunReport {
            common: RunCommon {
                outcome: RunOutcome::decide(
                    self.failure.is_some(),
                    consumer.link_error(),
                    consumer.verdict(),
                ),
                mismatch: self.failure.as_ref().map(|f| f.coarse.clone()),
                cycles,
                instructions,
                items: consumer.items(),
                link: consumer.link_stats(),
                fault,
                // Filled by `seal_report` from both sides' observations.
                metrics: Metrics::new(),
                flight: None,
            },
            failure: self.failure.clone(),
            sim_time_s,
            speed_hz: cycles as f64 / sim_time_s.max(1e-12),
            dut_only_hz: timing.platform.dut_only_hz(gates),
            overhead: timing.overhead,
            invokes: timing.invokes,
            bytes: timing.bytes,
            squash,
            check: *consumer.checker().stats(),
            replay_dropped: ring.map_or(0, ReplayBuffer::dropped),
            replay_high_water: ring.map_or(0, |rb| rb.high_water() as u64),
        };
        report.common.metrics.counters = report.counters();
        // Snapshots (`self` stays runnable): producer context first.
        let mut obs = self.producer.obs();
        obs.absorb(self.producer.link_mut().sink_mut().consumer.obs());
        seal_report(
            RunnerKind::Engine,
            &mut report.common,
            self.tracer.as_ref(),
            obs,
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The engine hands every ingested transfer's buffer back to the
    /// packer, so past the first cycle's packets nothing allocates.
    #[test]
    fn engine_recycles_every_ingested_buffer() {
        let w = Workload::linux_boot().seed(9).iterations(300).build();
        for config in [DiffConfig::BN, DiffConfig::BNSD] {
            let mut sim = CoSimulation::builder()
                .dut(DutConfig::nutshell())
                .config(config)
                .max_cycles(300_000)
                .build(&w)
                .unwrap();
            assert_eq!(sim.run().outcome, RunOutcome::GoodTrap, "{config:?}");
            let s = sim.producer.accel().pool_stats();
            assert!(s.hit_rate() >= 0.99, "{config:?}: {s:?}");
        }
    }
}
