//! Entry points kept for the benchmark contract (ROADMAP, "Benchmark
//! contract"). The adapter under `benchmark/` still feeds
//! `MonitoredEvent` values where the send path now takes records: each
//! typed shim encodes its events into a local arena with
//! [`encode_record`] and calls the record path. It also still starts a
//! run with [`CoSimulationBuilder`], which is [`Session::new`] and
//! [`CoSimulation::new`] under six setters, and frames a hello with
//! [`Hello::from_session`], whose arguments the hello no longer
//! carries. None is a second implementation. They go, this whole module at once, when the
//! benchmark-only PR of ROADMAP items 1, 9(a) and 19 moves the adapter
//! onto the record entry points and [`Session`].

use difftest_dut::{BugSpec, DutConfig};
use difftest_event::record::{encode_record, RecordHeader, Records};
use difftest_event::{Event, EventRef, MonitoredEvent};
use difftest_workload::Workload;

use crate::batch::{BatchUnit, Packet};
use crate::engine::{BuildError, CoSimulation};
use crate::proto::Hello;
use crate::replay::ReplayBuffer;
use crate::session::{DiffConfig, Session};
use crate::squash::{FusedCommit, SquashSink, SquashUnit};
use crate::transport::{AccelUnit, Transfer};
use crate::wire::WireItem;

/// `events` as one capture arena.
fn arena<'a>(events: impl IntoIterator<Item = &'a MonitoredEvent>) -> Vec<u8> {
    let mut records = Vec::new();
    for ev in events {
        encode_record(ev, &mut records);
    }
    records
}

impl AccelUnit {
    /// [`push_records`](Self::push_records) over `events`' records.
    pub fn push_cycle(&mut self, events: &[MonitoredEvent], out: &mut Vec<Transfer>) {
        self.push_records(&arena(events), out);
    }
}

impl ReplayBuffer {
    /// [`push_records`](Self::push_records) over `ev`'s record.
    pub fn push(&mut self, ev: MonitoredEvent) {
        self.push_records(&arena([&ev]));
    }

    /// [`push_records`](Self::push_records) over `events`' records.
    pub fn push_slice(&mut self, events: &[MonitoredEvent]) {
        self.push_records(&arena(events));
    }
}

impl SquashUnit {
    /// [`push_record`](Self::push_record) over `ev`'s record.
    pub fn push<S: SquashSink>(&mut self, ev: &MonitoredEvent, out: &mut S) {
        let records = arena([ev]);
        let mut walk = Records::new(&records);
        while let Some(Ok((header, payload))) = walk.next_raw() {
            if self.push_record(&header, payload, out).is_err() {
                break;
            }
        }
    }
}

impl BatchUnit {
    /// [`push_payload`](Self::push_payload) over `event`'s payload.
    pub fn push_plain(&mut self, core: u8, event: &Event, out: &mut Vec<Packet>) {
        let mut payload = Vec::with_capacity(event.encoded_len());
        event.encode_into(&mut payload);
        if let Ok(view) = EventRef::parse(event.kind(), &payload) {
            self.push_payload(core, view, out);
        }
    }
}

/// Squash's output as owned wire items: the staged form the layer pass
/// times apart from packing.
impl SquashSink for Vec<WireItem> {
    fn tagged(&mut self, h: &RecordHeader, payload: &[u8]) {
        if let Ok(event) = Event::decode(h.kind, payload) {
            self.push(WireItem::Tagged {
                core: h.core,
                tag: h.order,
                token: h.token,
                event,
            });
        }
    }

    fn diff(&mut self, h: &RecordHeader, payload: &[u8]) {
        if let Ok(event) = Event::decode(h.kind, payload) {
            self.push(WireItem::Diff {
                core: h.core,
                tag: h.order,
                token: h.token,
                event,
            });
        }
    }

    fn fused(&mut self, core: u8, fused: &FusedCommit) {
        self.push(WireItem::Fused {
            core,
            fused: fused.clone(),
        });
    }
}

/// The benchmark adapter's run builder: [`Session::new`]'s arguments
/// the adapter sets, with the defaults it relies on (XiangShan default,
/// BNSD, no bugs, 1 000 000 cycles, queue depth 8, Replay on).
#[derive(Debug, Clone)]
pub struct CoSimulationBuilder {
    dut: DutConfig,
    config: DiffConfig,
    bugs: Vec<BugSpec>,
    max_cycles: u64,
    queue_depth: usize,
    replay: bool,
}

impl CoSimulation {
    /// A [`CoSimulationBuilder`] at its defaults.
    pub fn builder() -> CoSimulationBuilder {
        CoSimulationBuilder {
            dut: DutConfig::xiangshan_default(),
            config: DiffConfig::BNSD,
            bugs: Vec::new(),
            max_cycles: 1_000_000,
            queue_depth: 8,
            replay: true,
        }
    }
}

impl CoSimulationBuilder {
    /// Selects the DUT configuration.
    pub fn dut(mut self, dut: DutConfig) -> Self {
        self.dut = dut;
        self
    }

    /// Selects the optimization configuration.
    pub fn config(mut self, config: DiffConfig) -> Self {
        self.config = config;
        self
    }

    /// Injects bugs into core 0 of the DUT.
    pub fn bugs(mut self, bugs: Vec<BugSpec>) -> Self {
        self.bugs = bugs;
        self
    }

    /// Caps the simulated cycles.
    pub fn max_cycles(mut self, cycles: u64) -> Self {
        self.max_cycles = cycles;
        self
    }

    /// Sets the non-blocking in-flight queue depth.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// [`Session::with_replay`].
    pub fn replay(mut self, replay: bool) -> Self {
        self.replay = replay;
        self
    }

    /// [`CoSimulation::new`] over the session these settings describe.
    ///
    /// # Errors
    ///
    /// As [`CoSimulation::new`].
    pub fn build(self, workload: &Workload) -> Result<CoSimulation, BuildError> {
        let session = Session::new(
            self.dut,
            self.config,
            workload,
            self.bugs,
            self.max_cycles,
            self.queue_depth,
            None,
        );
        CoSimulation::new(session.with_replay(self.replay))
    }
}

impl Hello {
    /// The hello. Its arguments are ignored: the hello no longer ships
    /// a run description, since the consumer is built from the same
    /// [`Session`].
    pub fn from_session(_session: &Session, _ignored: u32, _words: &[u32]) -> Hello {
        Hello
    }
}
