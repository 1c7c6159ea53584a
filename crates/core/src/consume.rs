//! The receive-side state machine every runner drives: CRC verify →
//! unpack → check → bounded ARQ recovery.
//!
//! [`Consumer`] is the single implementation: feed it transfers with
//! [`ingest`](Consumer::ingest), close the stream with
//! [`finish_stream`](Consumer::finish_stream), and read the verdict.
//! Transport differences stay outside — a runner only decides *where*
//! this state machine executes (in-line, or behind a socket on the
//! calling thread) and what [`ChargeObserver`] accounts each transfer
//! (the engine's LogGP virtual-time model; nothing for the wall-clock
//! socket runner).
//!
//! The consumer owns its instruments — metrics registry, phase timer,
//! flight ring and span sink — as plain fields, and hands them back as
//! one [`Obs`] ([`Consumer::obs`]). It also owns the §4.4 Replay flow
//! ([`Consumer::localize`]), which needs its timer, retention ring and
//! checker together.
//!
//! Recovery is opt-in: with a retention ring
//! ([`with_retention`](Consumer::with_retention)), decode failures and
//! terminal gaps first attempt redelivery of the pristine packet,
//! bounded by [`RECOVERY_BUDGET`] and [`MAX_REDELIVERY_DEPTH`]; without
//! one (the socket runner), they surface directly as typed
//! [`RunOutcome::LinkError`](crate::RunOutcome::LinkError) material.

use difftest_event::wire::CodecError;
use difftest_stats::{
    FlightKind, FlightRecord, FlightRecorder, GaugeId, HistogramId, Metrics, Obs, Phase,
    PhaseTimer, SpanSink,
};

use crate::batch::peek_packet_seq;
use crate::checker::{CheckStats, Checker, Mismatch, Verdict};
use crate::fault::{LinkErrorKind, LinkStats};
use crate::replay::{FailureReport, ReplayBuffer, Retransmission};
use crate::transport::{SwUnit, Transfer};

/// Retransmissions a run may issue before a link failure is reported
/// unrecoverable (bounds the cost a hostile schedule can impose).
pub const RECOVERY_BUDGET: u32 = 64;

/// Nested redeliveries a single decode failure may trigger (a
/// retransmitted packet failing again counts one level deeper).
pub const MAX_REDELIVERY_DEPTH: u32 = 4;

/// What one [`Consumer::ingest`] call decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Keep feeding transfers.
    Continue,
    /// The stream is decided — a halting trap was verified, a mismatch
    /// was detected, or the link failed unrecoverably. Stop feeding and
    /// read the verdict accessors.
    Stop,
}

/// Per-transfer accounting hook. The engine implements this to charge
/// LogGP virtual time (startup + transmission + software cost derived
/// from the checker-stats delta); wall-clock runners use [`NoCharge`].
pub trait ChargeObserver {
    /// Called once per transfer that crossed the link — after its items
    /// were checked, or after its decode failed (the damaged bytes
    /// crossed regardless). `before`/`after` bracket the checker stats.
    fn transfer_done(&mut self, t: &Transfer, before: &CheckStats, after: &CheckStats);
}

/// The no-op observer for runners that measure wall-clock time.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoCharge;

impl ChargeObserver for NoCharge {
    fn transfer_done(&mut self, _t: &Transfer, _before: &CheckStats, _after: &CheckStats) {}
}

/// What a finished [`Consumer`] hands back to its runner.
#[derive(Debug)]
pub struct ConsumerOutput {
    /// Wire items checked.
    pub items: u64,
    /// Halting-trap verdict, if one was verified.
    pub verdict: Option<Verdict>,
    /// First detected mismatch, if any.
    pub mismatch: Option<Mismatch>,
    /// Unrecovered link failure, if any: `(kind, expected seq, core)`.
    pub link_error: Option<(LinkErrorKind, u32, u8)>,
    /// Link failure / recovery counters.
    pub link: LinkStats,
    /// What the consumer observed: its metrics (histograms, gauges,
    /// `obs.*` and `decode.*` counters, phase times), flight records
    /// and span track.
    pub obs: Obs,
}

/// The shared receive-side pipeline: decoder, checker, observability
/// and (optionally) the ARQ retention ring.
#[derive(Debug)]
pub struct Consumer {
    sw: SwUnit,
    checker: Checker,
    metrics: Metrics,
    h_bytes: HistogramId,
    h_items: HistogramId,
    g_reorder: GaugeId,
    g_pending: GaugeId,
    timer: PhaseTimer,
    flight: FlightRecorder,
    items: u64,
    obs_transfers: u64,
    obs_bytes: u64,
    verdict: Option<Verdict>,
    mismatch: Option<Mismatch>,
    link_error: Option<(LinkErrorKind, u32, u8)>,
    link: LinkStats,
    retention: Option<ReplayBuffer>,
    recovery_budget: u32,
    spans: SpanSink,
}

impl Consumer {
    /// Builds the pipeline over a decoder and checker. Metrics
    /// (histograms `packet.bytes`/`packet.items`, gauges
    /// `reorder.buffered.max`/`checker.pending.max`), the phase timer
    /// and the flight ring are wired here.
    pub fn new(sw: SwUnit, checker: Checker) -> Self {
        let mut metrics = Metrics::new();
        let h_bytes = metrics.register_histogram("packet.bytes");
        let h_items = metrics.register_histogram("packet.items");
        let g_reorder = metrics.register_gauge("reorder.buffered.max");
        let g_pending = metrics.register_gauge("checker.pending.max");
        Consumer {
            sw,
            checker,
            metrics,
            h_bytes,
            h_items,
            g_reorder,
            g_pending,
            timer: PhaseTimer::monotonic(),
            flight: FlightRecorder::default(),
            items: 0,
            obs_transfers: 0,
            obs_bytes: 0,
            verdict: None,
            mismatch: None,
            link_error: None,
            link: LinkStats::default(),
            retention: None,
            recovery_budget: RECOVERY_BUDGET,
            spans: SpanSink::disabled(),
        }
    }

    /// Installs a span sink: every ingested transfer records a `pkt`
    /// flow target plus `unpack`/`check` spans keyed by its seq, and
    /// samples the reorder/pending occupancy as counter tracks.
    pub fn with_spans(mut self, spans: SpanSink) -> Self {
        self.spans = spans;
        self
    }

    /// Attaches a packet/event retention ring of `capacity` entries,
    /// enabling bounded ARQ recovery (and §4.4 replay for the engine).
    pub fn with_retention(mut self, capacity: usize) -> Self {
        self.retention = Some(ReplayBuffer::new(capacity));
        self
    }

    /// Feeds one delivered transfer through decode → check → recover.
    /// `cycle` stamps flight records (0 on consumers without a cycle
    /// view); `obs` accounts the transfer once its fate is known. While
    /// the stream goes on, the retention ring then releases what the
    /// checker's checkpoints have passed; a stop leaves it whole for
    /// [`localize`](Self::localize).
    pub fn ingest<O: ChargeObserver>(&mut self, t: &Transfer, cycle: u64, obs: &mut O) -> Step {
        let step = self.ingest_at(t, cycle, 0, obs);
        if let (Step::Continue, Some(rb)) = (step, &mut self.retention) {
            let checker = &self.checker;
            rb.release(|core| checker.replay_floor(core));
        }
        step
    }

    fn ingest_at(
        &mut self,
        t: &Transfer,
        cycle: u64,
        depth: u32,
        obs: &mut dyn ChargeObserver,
    ) -> Step {
        let seq = peek_packet_seq(&t.bytes).unwrap_or(0);
        self.flight.record(FlightRecord {
            kind: FlightKind::PacketReceived,
            core: t.core,
            seq,
            cycle,
            value: t.bytes.len() as u64,
        });
        self.metrics.record(self.h_bytes, t.bytes.len() as u64);
        self.metrics.record(self.h_items, u64::from(t.items));
        self.obs_transfers += 1;
        self.obs_bytes += t.bytes.len() as u64;

        self.spans.flow_in("pkt", seq as u64);
        let before = *self.checker.stats();
        // Admission does everything that can fail — CRC, sequence
        // bookkeeping, structural validation — without materializing a
        // single event, so the checking pass below cannot observe a
        // malformed item and packets that fail decode leave no checker
        // effects behind.
        let t0 = self.timer.start();
        let s0 = self.spans.start();
        let admitted = self.sw.admit(t);
        self.spans.end("unpack", s0, seq as u64);
        self.timer.stop(Phase::Unpack, t0);
        let result = match admitted {
            Ok(None) => Ok(()), // buffered early packet: nothing to check yet
            Ok(Some(body)) => {
                let t0 = self.timer.start();
                let s0 = self.spans.start();
                // Stream the items through the checker as borrowed views
                // reading straight from the packet bytes — no `WireItem`
                // batch is ever built on this path.
                let Consumer {
                    sw,
                    checker,
                    flight,
                    items,
                    verdict,
                    mismatch,
                    ..
                } = self;
                let visited = sw.visit_admitted(body, &mut |item| {
                    *items += 1;
                    match checker.process_ref(item) {
                        Ok(Verdict::Continue) => true,
                        Ok(v @ Verdict::Halt { good, .. }) => {
                            flight.record(FlightRecord {
                                kind: FlightKind::Verdict,
                                core: t.core,
                                seq,
                                cycle,
                                value: u64::from(good),
                            });
                            *verdict = Some(v);
                            false
                        }
                        Err(m) => {
                            flight.record(FlightRecord {
                                kind: FlightKind::Mismatch,
                                core: m.core,
                                seq,
                                cycle,
                                value: m.seq,
                            });
                            *mismatch = Some(m);
                            false
                        }
                    }
                });
                self.spans.end("check", s0, seq as u64);
                self.timer.stop(Phase::Check, t0);
                visited.map(|_| ())
            }
            Err(e) => Err(e),
        };
        match result {
            Ok(()) => {
                // Occupancy high-water marks by handle: an indexed store
                // per transfer, no name lookup.
                self.metrics
                    .set_max(self.g_reorder, self.sw.buffered_packets() as u64);
                self.metrics
                    .set_max(self.g_pending, self.checker.pending_items() as u64);
                if self.spans.enabled() {
                    self.spans
                        .counter("reorder.buffered", self.sw.buffered_packets() as u64);
                    self.spans
                        .counter("checker.pending", self.checker.pending_items() as u64);
                }
                obs.transfer_done(t, &before, self.checker.stats());
                if self.verdict.is_some() || self.mismatch.is_some() {
                    Step::Stop
                } else {
                    Step::Continue
                }
            }
            Err(e) => {
                // The damaged bytes crossed the link regardless.
                obs.transfer_done(t, &before, &before);
                self.on_decode_error(t, &e, cycle, depth, obs)
            }
        }
    }

    /// Handles a transfer the decoder rejected: count it, drop stale
    /// duplicates, attempt ARQ redelivery, or fail the link.
    fn on_decode_error(
        &mut self,
        t: &Transfer,
        err: &CodecError,
        cycle: u64,
        depth: u32,
        obs: &mut dyn ChargeObserver,
    ) -> Step {
        let kind = LinkErrorKind::classify(err);
        self.link.note(kind);
        if kind == LinkErrorKind::Stale {
            // A duplicate of an already-delivered packet: dropping it
            // loses nothing (paper §4.5's window already delivered it).
            self.link.stale_dropped += 1;
            return Step::Continue;
        }
        // Identify the packet to re-request: a detected gap names the
        // missing sequence; for a damaged frame the embedded sequence
        // field is a best-effort guess from unverified bytes, validated
        // implicitly by the retention-ring lookup.
        let seq = match err {
            CodecError::ReorderOverflow { missing } => Some(*missing),
            _ => peek_packet_seq(&t.bytes),
        };
        if let Some(seq) = seq {
            if self.redeliver(seq, t.core, cycle, depth, obs) {
                return if self.stopped() {
                    Step::Stop
                } else {
                    Step::Continue
                };
            }
        }
        self.fail_link(kind, t.core, cycle);
        Step::Stop
    }

    /// Attempts to re-deliver packet `seq` from the retention ring; the
    /// redelivered transfer runs the full pipeline one level deeper
    /// (and is charged through `obs` like any other transfer). Returns
    /// `true` when a pristine copy was found and processed.
    fn redeliver(
        &mut self,
        seq: u32,
        core: u8,
        cycle: u64,
        depth: u32,
        obs: &mut dyn ChargeObserver,
    ) -> bool {
        if depth >= MAX_REDELIVERY_DEPTH || self.recovery_budget == 0 {
            return false;
        }
        let t0 = self.timer.start();
        let pristine = self
            .retention
            .as_ref()
            .and_then(|rb| rb.retransmit_packet(seq))
            .map(<[u8]>::to_vec);
        self.timer.stop(Phase::Arq, t0);
        let Some(pristine) = pristine else {
            return false;
        };
        self.recovery_budget -= 1;
        self.link.retransmits += 1;
        self.link.retransmit_bytes += pristine.len() as u64;
        self.flight.record(FlightRecord {
            kind: FlightKind::Retransmit,
            core,
            seq,
            cycle,
            value: pristine.len() as u64,
        });
        let rt = Transfer {
            bytes: pristine,
            core,
            items: 0,
        };
        self.ingest_at(&rt, cycle, depth + 1, obs);
        if self.link_error.is_none() {
            self.link.recovered += 1;
        }
        true
    }

    /// Raises a typed link failure at the receiver's expected sequence.
    fn fail_link(&mut self, kind: LinkErrorKind, core: u8, cycle: u64) {
        let expected = self.sw.expected_seq().unwrap_or(0);
        self.flight.record(FlightRecord {
            kind: FlightKind::LinkError,
            core,
            seq: expected,
            cycle,
            value: kind as u64,
        });
        self.link_error = Some((kind, expected, core));
    }

    /// Closes the stream: any receive-side gap is now permanent —
    /// buffered successors still waiting, or (`produced` known) sent
    /// packets that never arrived. Gaps are recovered from the
    /// retention ring where possible, otherwise reported (attributed to
    /// core 0: the stream interleaves every core); an intact stream
    /// runs the checker's finalize.
    pub fn finish_stream<O: ChargeObserver>(
        &mut self,
        produced: Option<u32>,
        cycle: u64,
        obs: &mut O,
    ) {
        loop {
            if self.stopped() {
                return;
            }
            let Some(expected) = self.sw.expected_seq() else {
                // Per-event transfers carry no sequence numbers; drops
                // are undetectable at this layer.
                self.finalize_checker(cycle);
                return;
            };
            let tail_missing = produced.is_some_and(|sent| expected != sent);
            if self.sw.buffered_packets() == 0 && !tail_missing {
                self.finalize_checker(cycle);
                return;
            }
            self.link.note(LinkErrorKind::Gap);
            if !self.redeliver(expected, 0, cycle, 0, obs) {
                self.fail_link(LinkErrorKind::Gap, 0, cycle);
                return;
            }
        }
    }

    fn finalize_checker(&mut self, cycle: u64) {
        let t0 = self.timer.start();
        let fin = self.checker.finalize();
        self.timer.stop(Phase::Check, t0);
        match fin {
            Ok(v @ Verdict::Halt { good, .. }) => {
                self.flight.record(FlightRecord {
                    kind: FlightKind::Verdict,
                    core: 0,
                    seq: 0,
                    cycle,
                    value: u64::from(good),
                });
                self.verdict = Some(v);
            }
            Ok(Verdict::Continue) => {}
            Err(m) => {
                self.flight.record(FlightRecord {
                    kind: FlightKind::Mismatch,
                    core: m.core,
                    seq: 0,
                    cycle,
                    value: m.seq,
                });
                self.mismatch = Some(m);
            }
        }
    }

    /// Whether the stream is decided (verdict, mismatch or link error).
    pub fn stopped(&self) -> bool {
        self.verdict.is_some() || self.mismatch.is_some() || self.link_error.is_some()
    }

    /// The verified halting trap, if any.
    pub fn verdict(&self) -> Option<Verdict> {
        self.verdict
    }

    /// The first detected mismatch, if any.
    pub fn mismatch(&self) -> Option<&Mismatch> {
        self.mismatch.as_ref()
    }

    /// The unrecovered link failure, if any.
    pub fn link_error(&self) -> Option<(LinkErrorKind, u32, u8)> {
        self.link_error
    }

    /// Wire items checked so far.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Link failure / recovery counters so far.
    pub fn link_stats(&self) -> LinkStats {
        self.link
    }

    /// The checker (statistics, per-core progress).
    pub fn checker(&self) -> &Checker {
        &self.checker
    }

    /// The retention ring, when recovery is enabled (the engine records
    /// pristine packets and monitored events into it).
    pub fn retention_mut(&mut self) -> Option<&mut ReplayBuffer> {
        self.retention.as_mut()
    }

    /// The retention ring, when recovery is enabled (its `dropped` and
    /// `high_water` counters).
    pub fn retention(&self) -> Option<&ReplayBuffer> {
        self.retention.as_ref()
    }

    /// The flight ring. Not part of the surface: kept only because the
    /// gated benchmark's layer pass still records its sends into it; the
    /// benchmark-only re-baseline (ROADMAP item 1) moves that call.
    #[doc(hidden)]
    pub fn flight_mut(&mut self) -> &mut FlightRecorder {
        &mut self.flight
    }

    /// Replay localization (paper §4.4) of a mismatch on `coarse`'s
    /// core: revert the checker to the last fused window's start,
    /// retransmit that window's unfused records from the retention ring
    /// and re-check them one by one, viewed in the ring, timed as the ARQ
    /// phase. Returns the failure report and, when a replay ran, what the
    /// retransmission cost: its bytes (a 2-byte request per record plus
    /// its payload) and the checker stats before it, for a virtual-time
    /// charge against the stats after. Without a fused window to revert
    /// on that core, the mismatch is already precise; without a ring on
    /// a fused stream, no Replay pass runs and nothing is localized.
    pub fn localize(&mut self, coarse: Mismatch) -> (FailureReport, Option<(u64, CheckStats)>) {
        let t0 = self.timer.start();
        let Consumer {
            retention, checker, ..
        } = self;
        let window = retention
            .as_ref()
            .and_then(|rb| Some((rb, checker.revert_for_replay(coarse.core)?)));
        let Some((rb, (from, to))) = window else {
            // Without a ring, a fused window's mismatch names the window,
            // not an instruction: only the unfused streams are precise.
            let fused = retention.is_none() && checker.stats().fused_records > 0;
            let report = FailureReport {
                precise: (!fused).then(|| coarse.clone()),
                coarse,
                token_range: (0, 0),
                replayed_events: 0,
                partial: false,
            };
            return (report, None);
        };
        let Retransmission { records, complete } = rb.retransmit(coarse.core, from, to);
        let bytes: usize = records
            .iter()
            .map(|r| 2 + r.payload.wire_bytes().len())
            .sum();
        let before = *checker.stats();
        let precise = checker.replay_unfused(coarse.core, &records);
        self.timer.stop(Phase::Arq, t0);
        let report = FailureReport {
            coarse,
            precise,
            token_range: (from, to),
            replayed_events: records.len(),
            partial: !complete,
        };
        (report, Some((bytes as u64, before)))
    }

    /// The consumer's metrics with its deferred counters
    /// (`obs.transfers`/`obs.bytes`/`obs.items`), the REF decode-cache
    /// counters (`decode.*`) and phase attribution folded in.
    /// Non-consuming: the engine stays runnable.
    pub fn metrics_snapshot(&self) -> Metrics {
        let mut m = self.metrics.clone();
        m.counters.set("obs.transfers", self.obs_transfers);
        m.counters.set("obs.bytes", self.obs_bytes);
        m.counters.set("obs.items", self.items);
        let decode = self.checker.ref_cache_stats();
        m.counters.set("decode.hits", decode.hits);
        m.counters.set("decode.misses", decode.misses);
        m.phases = self.timer.times();
        m
    }

    /// What the consumer observed so far: [`metrics_snapshot`](Self::metrics_snapshot),
    /// a snapshot of its flight ring, and its span track (taken, so a
    /// second call carries none). Non-consuming: the engine stays
    /// runnable.
    pub fn obs(&mut self) -> Obs {
        Obs::new(
            self.metrics_snapshot(),
            self.flight.snapshot(),
            self.spans.take_buf(),
        )
    }

    /// Tears the consumer down into its runner-facing output.
    pub fn finish(mut self) -> ConsumerOutput {
        ConsumerOutput {
            obs: self.obs(),
            items: self.items,
            verdict: self.verdict,
            mismatch: self.mismatch,
            link_error: self.link_error,
            link: self.link,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::QueueSink;
    use crate::session::{DiffConfig, Session};
    use difftest_dut::DutConfig;
    use difftest_workload::Workload;

    /// Small workload + small packets: several sequenced transfers, yet
    /// few enough that none fall out of the packet-retention ring.
    fn session() -> Session {
        let w = Workload::microbench().seed(3).iterations(5).build();
        Session::new(
            DutConfig::nutshell(),
            DiffConfig::BN,
            &w,
            Vec::new(),
            200_000,
            8,
            None,
        )
        .with_packet_bytes(1024)
    }

    /// Runs the producer side to completion, collecting every packet.
    fn produce(session: &Session) -> Vec<Transfer> {
        let mut p = session.producer(QueueSink::default());
        p.run();
        std::mem::take(&mut p.link_mut().sink_mut().queue)
    }

    #[test]
    fn tail_loss_is_reported_as_gap() {
        // Deliver everything but the last packet: the consumer must
        // flag the missing tail once the produced count says more.
        let s = session();
        let transfers = produce(&s);
        assert!(transfers.len() >= 3, "need several packets");
        let produced = transfers.len() as u32;
        let mut c = s.consumer();
        for t in &transfers[..transfers.len() - 1] {
            if c.ingest(t, 0, &mut NoCharge) == Step::Stop {
                break;
            }
        }
        if !c.stopped() {
            c.finish_stream(Some(produced), 0, &mut NoCharge);
        }
        let out = c.finish();
        match out.link_error {
            Some((LinkErrorKind::Gap, seq, _)) => assert_eq!(seq, produced - 1),
            other => panic!("expected tail gap, got {other:?} ({:?})", out.mismatch),
        }
        assert!(out.link.count(LinkErrorKind::Gap) > 0);
        assert!(
            out.obs
                .flight
                .find(FlightKind::LinkError, produced - 1)
                .is_some(),
            "gap must leave a flight record"
        );
    }

    #[test]
    fn redelivery_recovers_a_dropped_packet() {
        let s = session();
        let transfers = produce(&s);
        assert!(transfers.len() >= 3);
        let mut c = s.consumer().with_retention(1 << 12);
        // Retain pristine copies like the engine's send path does.
        if let Some(rb) = c.retention_mut() {
            for t in &transfers {
                if let Some(seq) = peek_packet_seq(&t.bytes) {
                    rb.record_packet(seq, &t.bytes);
                }
            }
        }
        let produced = transfers.len() as u32;
        // Drop packet 1 in flight.
        for (i, t) in transfers.iter().enumerate() {
            if i == 1 {
                continue;
            }
            if c.ingest(t, 0, &mut NoCharge) == Step::Stop {
                break;
            }
        }
        if !c.stopped() {
            c.finish_stream(Some(produced), 0, &mut NoCharge);
        }
        let out = c.finish();
        assert_eq!(out.link_error, None, "{:?}", out.link);
        assert!(out.link.retransmits >= 1);
        assert!(out.link.recovered >= 1);
        assert!(out.mismatch.is_none(), "{:?}", out.mismatch);
    }

    #[test]
    fn snapshot_exports_ref_cache_counters() {
        let s = session();
        let transfers = produce(&s);
        let mut c = s.consumer();
        for t in &transfers {
            if c.ingest(t, 0, &mut NoCharge) == Step::Stop {
                break;
            }
        }
        let m = c.metrics_snapshot();
        let hits = m.counters.get("decode.hits");
        let misses = m.counters.get("decode.misses");
        assert!(hits > 0, "decode cache never hit: {misses} misses");
        assert!(hits > misses, "microbench loops should be decode-hot");
        // Every REF step probes the cache exactly once.
        assert_eq!(hits + misses, c.checker.stats().instructions);
        // Snapshots set the counters, so a second one reads the same.
        let again = c.metrics_snapshot();
        assert_eq!(again.counters.get("decode.hits"), hits);
    }

    /// A CRC-valid packet naming a core the session does not have is a
    /// malformed transfer, not a panic in the diff mirror.
    #[test]
    fn a_packet_naming_an_absent_core_is_malformed() {
        use crate::batch::BatchUnit;
        use crate::wire::WireItem;
        use difftest_event::{ArchIntRegState, OrderTag, Token};

        let mut wide = BatchUnit::new(8, 4096);
        let item = WireItem::Diff {
            core: 5,
            tag: OrderTag(0),
            token: Token(0),
            event: ArchIntRegState { regs: [1; 32] }.into(),
        };
        let mut packets = Vec::new();
        wide.push_cycle(&[item], &mut packets);
        wide.flush(&mut packets);
        let t = Transfer {
            bytes: packets.remove(0).bytes,
            core: 0,
            items: 1,
        };

        let mut c = session().consumer();
        assert_eq!(c.ingest(&t, 0, &mut NoCharge), Step::Stop);
        assert!(matches!(
            c.link_error(),
            Some((LinkErrorKind::Malformed, 0, _))
        ));
        assert_eq!(c.items(), 0, "nothing reached the checker");
    }

    #[test]
    fn stale_duplicates_are_dropped_silently() {
        let s = session();
        let transfers = produce(&s);
        assert!(transfers.len() >= 2);
        let mut c = s.consumer();
        assert_eq!(c.ingest(&transfers[0], 0, &mut NoCharge), Step::Continue);
        // The same packet again: stale, dropped, not fatal.
        assert_eq!(c.ingest(&transfers[0], 0, &mut NoCharge), Step::Continue);
        let out = c.finish();
        assert_eq!(out.link.stale_dropped, 1);
        assert_eq!(out.link_error, None);
    }
}
