//! The shared session layer: one place that owns the setup every runner
//! needs, so the transport substrates stay thin.
//!
//! The paper's architecture is a single receive-side pipeline (unpack →
//! fuse-resolve → check → recover) behind interchangeable transports.
//! [`Session`] captures everything that pipeline needs before a single
//! byte moves — the workload image, per-core reference models, the
//! acceleration unit matching a [`DiffConfig`], the fault schedule — and
//! hands each runner pre-wired components:
//!
//! - [`Session::producer`] puts the DUT and an acceleration unit in
//!   front of the shared fault-injection / flight-recording send path
//!   over any [`LinkSink`]: the send-side state machine ([`Producer`])
//!   running the tick → monitor → pack → feed loop,
//! - [`Session::consumer`] builds the receive-side state machine
//!   ([`Consumer`]) that performs the actual CRC verify → unpack →
//!   check → recover loop.
//!
//! The two runners ([`crate::engine`], [`crate::socket`]) differ only in
//! *where* those two machines run — one virtual timeline, or two threads
//! joined by a socket — and in what they report on top of the shared
//! [`RunCommon`] core.
//! [`run_session`] dispatches a built session onto any of them.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use difftest_dut::{BugSpec, Dut, DutConfig};
use difftest_platform::Platform;
use difftest_ref::{Memory, RefModel};
use difftest_stats::{
    chrometrace, export_to_env, Counters, FlightSnapshot, Metrics, Obs, SpanSink, Tracer,
    PID_PRODUCER,
};
use difftest_workload::Workload;

use crate::checker::{Checker, Mismatch, Verdict};
use crate::consume::Consumer;
use crate::fault::{FaultPlan, FaultStats, FaultyLink, LinkErrorKind, LinkStats};
use crate::link::{LinkSink, SendLink};
use crate::produce::Producer;
use crate::transport::{AccelUnit, SwUnit};

/// The optimization configurations of the artifact appendix (`DIFF_CONFIG`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiffConfig {
    /// Baseline: per-event blocking transfers.
    Z,
    /// +Batch: tight packing, still blocking.
    B,
    /// +Batch +NonBlock: packed, non-blocking transfers.
    BN,
    /// +Batch +NonBlock +Squash(+Differencing): the full DiffTest-H.
    BNSD,
}

impl DiffConfig {
    /// All configurations in Table 5 order.
    pub const ALL: [DiffConfig; 4] = [
        DiffConfig::Z,
        DiffConfig::B,
        DiffConfig::BN,
        DiffConfig::BNSD,
    ];

    /// Tight packing enabled.
    pub fn batch(self) -> bool {
        self != DiffConfig::Z
    }

    /// Non-blocking transmission enabled.
    pub fn nonblock(self) -> bool {
        matches!(self, DiffConfig::BN | DiffConfig::BNSD)
    }

    /// Fusion + differencing enabled.
    pub fn squash(self) -> bool {
        self == DiffConfig::BNSD
    }

    /// Table 5 row label.
    pub fn label(self) -> &'static str {
        match self {
            DiffConfig::Z => "Baseline",
            DiffConfig::B => "+Batch",
            DiffConfig::BN => "+NonBlock",
            DiffConfig::BNSD => "+Squash",
        }
    }

    /// Stable single-byte encoding for cross-process handshakes.
    pub(crate) fn to_wire(self) -> u8 {
        match self {
            DiffConfig::Z => 0,
            DiffConfig::B => 1,
            DiffConfig::BN => 2,
            DiffConfig::BNSD => 3,
        }
    }

    /// Inverse of [`to_wire`](Self::to_wire).
    pub(crate) fn from_wire(b: u8) -> Option<Self> {
        match b {
            0 => Some(DiffConfig::Z),
            1 => Some(DiffConfig::B),
            2 => Some(DiffConfig::BN),
            3 => Some(DiffConfig::BNSD),
            _ => None,
        }
    }
}

impl fmt::Display for DiffConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The workload reached its good trap and every check passed.
    GoodTrap,
    /// The workload signalled failure.
    BadTrap,
    /// A DUT/REF divergence was detected.
    Mismatch,
    /// The cycle budget was exhausted without a trap.
    MaxCycles,
    /// The link failed in a way bounded recovery could not mask.
    LinkError {
        /// Failure classification.
        kind: LinkErrorKind,
        /// Packet sequence involved (the receiver's expected sequence
        /// at detection; 0 for unsequenced per-event transfers).
        seq: u32,
        /// Routing core of the offending transfer.
        core: u8,
    },
}

impl RunOutcome {
    /// Ranks what the receive side found into the run's outcome: a
    /// genuine mismatch outranks a link error (the stream prefix it was
    /// found on was intact), which outranks the halting-trap verdict;
    /// with none of them the cycle budget ended the run.
    pub fn decide(
        mismatch: bool,
        link_error: Option<(LinkErrorKind, u32, u8)>,
        verdict: Option<Verdict>,
    ) -> RunOutcome {
        match (mismatch, link_error, verdict) {
            (true, ..) => RunOutcome::Mismatch,
            (_, Some((kind, seq, core)), _) => RunOutcome::LinkError { kind, seq, core },
            (.., Some(Verdict::Halt { good: true, .. })) => RunOutcome::GoodTrap,
            (.., Some(Verdict::Halt { good: false, .. })) => RunOutcome::BadTrap,
            _ => RunOutcome::MaxCycles,
        }
    }
}

/// The report core every runner shares: verdict, volume, link health and
/// observability. Runner-specific reports ([`RunReport`](crate::RunReport),
/// [`SocketReport`](crate::SocketReport)) embed one and `Deref` to it, so
/// `report.outcome` reads the same across both runners.
#[derive(Debug, Clone)]
pub struct RunCommon {
    /// Why the run ended.
    pub outcome: RunOutcome,
    /// The first detected divergence, if any (for the engine this is the
    /// coarse checker mismatch; the localized one lives in its
    /// [`FailureReport`](crate::FailureReport)).
    pub mismatch: Option<Mismatch>,
    /// DUT cycles simulated.
    pub cycles: u64,
    /// Instructions committed by the DUT.
    pub instructions: u64,
    /// Wire items checked.
    pub items: u64,
    /// Link failure counters accumulated by the receive side.
    pub link: LinkStats,
    /// Faults the injected link model applied (`None` on a clean link).
    pub fault: Option<FaultStats>,
    /// The run's observability registry (counters, histograms, phase
    /// times). Exported as JSONL when `DIFFTEST_OBS=<path>` is set.
    pub metrics: Metrics,
    /// Flight-recorder snapshot attached on [`RunOutcome::Mismatch`] and
    /// [`RunOutcome::LinkError`], `None` on clean runs.
    pub flight: Option<FlightSnapshot>,
}

/// Every runner's report `Deref`s to the [`RunCommon`] it embeds.
macro_rules! deref_to_common {
    ($($report:ty),+) => {$(
        impl Deref for $report {
            type Target = RunCommon;

            fn deref(&self) -> &RunCommon {
                &self.common
            }
        }

        impl DerefMut for $report {
            fn deref_mut(&mut self) -> &mut RunCommon {
                &mut self.common
            }
        }
    )+};
}

deref_to_common!(crate::engine::RunReport, crate::socket::SocketReport);

/// One co-simulation session: the one description of a run, shared by
/// every runner. Cloneable and `Sync`, so the socket runner's producer
/// thread can borrow it and build its components locally.
#[derive(Debug, Clone)]
pub struct Session {
    dut_cfg: DutConfig,
    config: DiffConfig,
    image: Memory,
    /// The program words `image` was loaded from (the socket handshake
    /// ships them).
    words: Arc<[u32]>,
    bugs: Vec<BugSpec>,
    max_cycles: u64,
    queue_depth: usize,
    fault: Option<FaultPlan>,
    packet_bytes: usize,
    fusion_window: u32,
    order_coupled: bool,
    differencing: bool,
    platform: Platform,
    replay: bool,
    tracer: Option<Tracer>,
}

impl Session {
    /// Creates a session over a workload with the default pipeline
    /// tuning: 4 KiB packets, a 32-commit fusion window, order-decoupled
    /// fusion with differencing on, the Palladium platform model and
    /// Replay on. The `with_*` methods override each of them.
    pub fn new(
        dut_cfg: DutConfig,
        config: DiffConfig,
        workload: &Workload,
        bugs: Vec<BugSpec>,
        max_cycles: u64,
        queue_depth: usize,
        fault: Option<FaultPlan>,
    ) -> Session {
        Session::from_words(
            dut_cfg,
            config,
            workload.words(),
            bugs,
            max_cycles,
            queue_depth,
            fault,
        )
    }

    /// Creates a session over a program's words, loading the image the
    /// DUT and the REFs boot from out of them, so the image and the
    /// words the socket hello ships always agree.
    pub(crate) fn from_words(
        dut_cfg: DutConfig,
        config: DiffConfig,
        words: &[u32],
        bugs: Vec<BugSpec>,
        max_cycles: u64,
        queue_depth: usize,
        fault: Option<FaultPlan>,
    ) -> Session {
        let mut image = Memory::new();
        image.load_words(Memory::RAM_BASE, words);
        Session {
            dut_cfg,
            config,
            image,
            words: words.into(),
            bugs,
            max_cycles,
            queue_depth: queue_depth.max(1),
            fault,
            packet_bytes: 4096,
            fusion_window: 32,
            order_coupled: false,
            differencing: true,
            platform: Platform::palladium(),
            replay: true,
            tracer: Tracer::from_env(),
        }
    }

    /// Overrides the span tracer (default: [`Tracer::from_env`], i.e.
    /// `DIFFTEST_TRACE=<path>`). Tests inject a tracer here rather than
    /// setting the variable, which parallel test threads would race on.
    /// Pass `None` to force tracing off — every socket consumer does
    /// this, so the environment never makes it clobber the producer's
    /// merged trace file.
    pub fn with_tracer(mut self, tracer: Option<Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// The session's span tracer, when tracing is on.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// A span sink on the named track — enabled when the session has a
    /// tracer, a single-branch no-op otherwise.
    pub fn span_sink(&self, pid: u32, tid: u32, process: &str, track: &str) -> SpanSink {
        match &self.tracer {
            Some(t) => t.sink(pid, tid, process, track),
            None => SpanSink::disabled(),
        }
    }

    /// Overrides the transmission packet capacity in bytes.
    pub fn with_packet_bytes(mut self, bytes: usize) -> Self {
        self.packet_bytes = bytes;
        self
    }

    /// Overrides the fusion window in commits.
    pub fn with_fusion_window(mut self, commits: u32) -> Self {
        self.fusion_window = commits;
        self
    }

    /// Uses the order-coupled fusion baseline of prior work.
    pub fn with_order_coupled(mut self, coupled: bool) -> Self {
        self.order_coupled = coupled;
        self
    }

    /// Enables or disables differencing within Squash.
    pub fn with_differencing(mut self, on: bool) -> Self {
        self.differencing = on;
        self
    }

    /// Selects the platform whose LogGP model times the engine's run
    /// (default: Palladium). The socket runner ignores it: it measures
    /// wall time.
    pub fn with_platform(mut self, platform: Platform) -> Self {
        self.platform = platform;
        self
    }

    /// Enables the Replay debugging mechanism (default: on; only
    /// effective with [`DiffConfig::BNSD`]). The socket runner ignores
    /// it: it keeps no retention ring.
    pub fn with_replay(mut self, replay: bool) -> Self {
        self.replay = replay;
        self
    }

    /// The selected optimization configuration.
    pub fn config(&self) -> DiffConfig {
        self.config
    }

    /// The DUT configuration.
    pub fn dut_cfg(&self) -> &DutConfig {
        &self.dut_cfg
    }

    /// Number of DUT cores (= reference models).
    pub fn cores(&self) -> usize {
        self.dut_cfg.cores as usize
    }

    /// The simulated-cycle budget.
    pub fn max_cycles(&self) -> u64 {
        self.max_cycles
    }

    /// The bounded in-flight queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// The transmission packet capacity in bytes.
    pub(crate) fn packet_bytes(&self) -> usize {
        self.packet_bytes
    }

    /// The fusion window in commits.
    pub(crate) fn fusion_window(&self) -> u32 {
        self.fusion_window
    }

    /// The platform model the engine times its run on.
    pub(crate) fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Whether the engine runs with Replay.
    pub(crate) fn replay(&self) -> bool {
        self.replay
    }

    /// The loaded workload memory image.
    pub fn image(&self) -> &Memory {
        &self.image
    }

    /// The workload's program words.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Asserts the configuration suits a genuinely parallel runner.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is blocking (`Z`/`B`): those
    /// semantics would serialize producer and consumer anyway.
    pub fn require_nonblock(&self, runner: &str) {
        assert!(
            self.config.nonblock(),
            "{runner} runner requires a non-blocking configuration"
        );
    }

    /// Builds the design under test (with the session's injected bugs).
    pub fn dut(&self) -> Dut {
        Dut::new(self.dut_cfg.clone(), &self.image, self.bugs.clone())
    }

    /// Builds the hardware-side acceleration unit for this
    /// configuration, packing all cores into one stream.
    pub fn accel(&self) -> AccelUnit {
        let cores = self.cores();
        match self.config {
            DiffConfig::Z => AccelUnit::per_event(),
            DiffConfig::B | DiffConfig::BN => AccelUnit::batch(cores, self.packet_bytes),
            DiffConfig::BNSD => AccelUnit::squash_batch_with(
                cores,
                self.packet_bytes,
                self.fusion_window,
                self.order_coupled,
                self.differencing,
            ),
        }
    }

    /// Builds the software-side decoder matching [`accel`](Self::accel).
    pub fn sw_unit(&self) -> SwUnit {
        match self.config {
            DiffConfig::Z => SwUnit::per_event(self.cores()),
            _ => SwUnit::packed(self.cores()),
        }
    }

    /// Builds the multi-core checker (one [`RefModel`] per core).
    /// `replay` enables compensation logging for instruction-level
    /// replay after fusion (paper §4.4).
    pub fn checker(&self, replay: bool) -> Checker {
        let refs: Vec<RefModel> = (0..self.cores())
            .map(|_| RefModel::new(self.image.clone()))
            .collect();
        Checker::new(refs, replay)
    }

    /// Builds the receive-side pipeline ([`Consumer`]): full-width
    /// decoder and checker, no retention ring (report-only link-error
    /// handling).
    pub fn consumer(&self) -> Consumer {
        Consumer::new(self.sw_unit(), self.checker(false))
    }

    /// Builds the engine's receive-side pipeline: checker compensation
    /// logging per `replay`, plus a packet/event retention ring of
    /// `ring` entries enabling bounded ARQ recovery and §4.4 replay.
    pub fn consumer_with_retention(&self, replay: bool, ring: usize) -> Consumer {
        Consumer::new(self.sw_unit(), self.checker(replay)).with_retention(ring)
    }

    /// Wraps a transport sink in the shared send path (fault injection
    /// per the session's plan, produced-packet accounting, flight
    /// records).
    pub fn send_link<S: LinkSink>(&self, sink: S) -> SendLink<S> {
        SendLink::new(sink, self.fault.map(FaultyLink::new))
    }

    /// Builds the send-side pipeline ([`Producer`]) over `sink`: the
    /// DUT and every core's events packed into one stream through the
    /// shared send path, traced on the `dut` track, stopping at the
    /// session's cycle budget.
    pub fn producer<S: LinkSink>(&self, sink: S) -> Producer<S> {
        let link =
            self.send_link(sink)
                .with_spans(self.span_sink(PID_PRODUCER, 0, "producer", "dut"));
        Producer::new(self.dut(), self.accel(), link, self.max_cycles)
    }
}

/// The report epilogue every runner shares, run once the outcome is
/// decided: merges `obs` (both sides' observations, producer first)
/// into the report's metrics and stamps the `hw.*` volume counters;
/// when tracing is on, folds the span tracks' totals into
/// `trace.spans_recorded` / `trace.spans_dropped` and writes them as
/// Chrome trace-event JSON; attaches the flight snapshot on
/// [`RunOutcome::Mismatch`] / [`RunOutcome::LinkError`]; and writes the
/// `DIFFTEST_OBS` export under the runner's name.
pub(crate) fn seal_report(
    kind: RunnerKind,
    common: &mut RunCommon,
    tracer: Option<&Tracer>,
    obs: Obs,
) {
    link_counters(&common.link, common.fault, &mut common.metrics.counters);
    common.metrics.merge(&obs.metrics);
    let counters = &mut common.metrics.counters;
    counters.set("hw.cycles", common.cycles);
    counters.set("hw.instructions", common.instructions);
    // Trace counters exist only when tracing is on, so dormant runs
    // stay byte-identical.
    if let Some(tracer) = tracer {
        let bufs = &obs.spans;
        counters.add(
            "trace.spans_recorded",
            bufs.iter().map(|b| b.recorded).sum(),
        );
        counters.add("trace.spans_dropped", bufs.iter().map(|b| b.dropped).sum());
        if let Err(e) = chrometrace::write_trace(tracer.path(), bufs) {
            eprintln!(
                "difftest: failed to write trace {}: {e}",
                tracer.path().display()
            );
        }
    }
    if matches!(
        common.outcome,
        RunOutcome::Mismatch | RunOutcome::LinkError { .. }
    ) {
        common.flight = Some(obs.flight);
    }
    if let Err(e) = export_to_env(kind.name(), &common.metrics, common.flight.as_ref()) {
        eprintln!("difftest: {} export failed: {e}", difftest_stats::OBS_ENV);
    }
}

/// Writes the link-health rows every runner reports: one
/// `link.err.<kind>` per [`LinkErrorKind`], the ARQ recovery counters,
/// and, when a fault plan ran, the `fault.*` injection tallies.
pub(crate) fn link_counters(link: &LinkStats, fault: Option<FaultStats>, c: &mut Counters) {
    for kind in LinkErrorKind::ALL {
        c.set(
            format!("link.err.{}", kind.counter_name()),
            link.count(kind),
        );
    }
    c.set("link.stale_dropped", link.stale_dropped);
    c.set("link.recovered", link.recovered);
    c.set("link.retransmits", link.retransmits);
    c.set("link.retransmit_bytes", link.retransmit_bytes);
    if let Some(f) = fault {
        c.set("fault.delivered", f.delivered);
        c.set("fault.dropped", f.dropped);
        c.set("fault.duplicated", f.duplicated);
        c.set("fault.reordered", f.reordered);
        c.set("fault.truncated", f.truncated);
        c.set("fault.corrupted", f.corrupted);
    }
}

/// Which transport substrate runs the shared pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunnerKind {
    /// Virtual-time LogGP engine (one timeline, simulated speed).
    Engine,
    /// Producer and consumer threads joined by a Unix-domain socket
    /// pair (wall-clock, real framed bytes through the kernel).
    Socket,
}

impl RunnerKind {
    /// All runners, in the order the runner matrix documents them.
    pub const ALL: [RunnerKind; 2] = [RunnerKind::Engine, RunnerKind::Socket];

    /// Stable lowercase name (matrix rows, bench scenario labels).
    pub fn name(self) -> &'static str {
        match self {
            RunnerKind::Engine => "engine",
            RunnerKind::Socket => "socket",
        }
    }
}

impl fmt::Display for RunnerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.name())
    }
}

/// The report of [`run_session`]: the runner's own report, `Deref`ing to
/// the shared [`RunCommon`] so dispatch call sites can read
/// `report.outcome` / `report.items` without matching.
// One report exists per co-simulation run, never in bulk — the size
// skew between variants costs nothing, while boxing would put an
// indirection in every `Deref` read.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum RunnerReport {
    /// Engine report (virtual-time speeds, LogGP overhead breakdown).
    Engine(crate::engine::RunReport),
    /// Socket report (wall-clock throughput across the socket).
    Socket(crate::socket::SocketReport),
}

impl Deref for RunnerReport {
    type Target = RunCommon;

    fn deref(&self) -> &RunCommon {
        match self {
            RunnerReport::Engine(r) => r,
            RunnerReport::Socket(r) => r,
        }
    }
}

impl DerefMut for RunnerReport {
    fn deref_mut(&mut self) -> &mut RunCommon {
        match self {
            RunnerReport::Engine(r) => r,
            RunnerReport::Socket(r) => r,
        }
    }
}

impl RunnerReport {
    /// Host wall-clock seconds and DUT cycles per wall-clock second, for
    /// the runners that measure real time (`None` for the virtual-time
    /// engine, whose speeds are simulated — see
    /// [`RunReport`](crate::engine::RunReport)).
    pub fn wall(&self) -> Option<(f64, f64)> {
        match self {
            RunnerReport::Engine(_) => None,
            RunnerReport::Socket(r) => Some((r.wall_s, r.cycles_per_sec)),
        }
    }
}

/// Runs a built session on the chosen transport substrate — the single
/// dispatch entry point. Both runners drive the identical
/// [`Producer`] and [`Consumer`] state machines, so the verdict is
/// substrate-independent; only the throughput story differs. The engine
/// times the run on the session's platform model, with Replay as the
/// session sets it, and skips [`CoSimulation::new`]'s parameter checks;
/// the socket runner runs its consumer on the calling thread, joined to
/// the producer by a socket pair.
///
/// [`CoSimulation::new`]: crate::engine::CoSimulation::new
///
/// # Panics
///
/// Panics when `kind` is the socket runner and the session's
/// configuration is blocking (`Z`/`B`), mirroring the underlying
/// runner.
pub fn run_session(kind: RunnerKind, session: Session) -> RunnerReport {
    match kind {
        RunnerKind::Engine => {
            RunnerReport::Engine(crate::engine::CoSimulation::assemble(session).run())
        }
        RunnerKind::Socket => RunnerReport::Socket(crate::socket::run_socket_session(session)),
    }
}

/// [`run_session`] over a session built from its parts with the default
/// pipeline tuning ([`Session::new`]).
///
/// # Panics
///
/// As [`run_session`].
#[allow(clippy::too_many_arguments)]
pub fn run_runner(
    kind: RunnerKind,
    dut_cfg: DutConfig,
    config: DiffConfig,
    workload: &Workload,
    bugs: Vec<BugSpec>,
    max_cycles: u64,
    queue_depth: usize,
    fault: Option<FaultPlan>,
) -> RunnerReport {
    run_session(
        kind,
        Session::new(
            dut_cfg,
            config,
            workload,
            bugs,
            max_cycles,
            queue_depth,
            fault,
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(config: DiffConfig, fault: Option<FaultPlan>) -> Session {
        let w = Workload::microbench().seed(1).iterations(5).build();
        Session::new(
            DutConfig::nutshell(),
            config,
            &w,
            Vec::new(),
            1_000,
            8,
            fault,
        )
    }

    #[test]
    fn session_builds_matching_components() {
        let s = session(DiffConfig::BNSD, None);
        assert_eq!(s.cores(), 1);
        assert!(s.accel().squash_stats().is_some());
        assert!(s.sw_unit().expected_seq().is_some());
        let plain = session(DiffConfig::Z, None);
        assert!(plain.accel().squash_stats().is_none());
        assert!(plain.sw_unit().expected_seq().is_none());
    }

    #[test]
    fn diff_config_wire_round_trips() {
        for c in DiffConfig::ALL {
            assert_eq!(DiffConfig::from_wire(c.to_wire()), Some(c));
        }
        assert_eq!(DiffConfig::from_wire(9), None);
    }

    /// The socket hello ships the words the session's image was loaded
    /// from, so the consumer's REFs boot from the engine's image and both
    /// runners reach the same verdict (an empty hello traps the REFs at
    /// instruction 0: a false mismatch).
    #[test]
    fn a_session_from_words_gets_one_verdict_on_both_runners() {
        let w = Workload::microbench().seed(7).iterations(20).build();
        let s = Session::from_words(
            DutConfig::nutshell(),
            DiffConfig::BNSD,
            w.words(),
            Vec::new(),
            200_000,
            8,
            None,
        )
        .with_tracer(None);
        let engine = run_session(RunnerKind::Engine, s.clone());
        let socket = run_session(RunnerKind::Socket, s);
        assert_eq!(engine.outcome, RunOutcome::GoodTrap);
        assert_eq!(socket.outcome, engine.outcome, "{:?}", socket.mismatch);
    }

    #[test]
    #[should_panic(expected = "non-blocking")]
    fn require_nonblock_rejects_blocking_configs() {
        session(DiffConfig::Z, None).require_nonblock("test");
    }
}
