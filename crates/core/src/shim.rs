//! Typed entry points kept for the benchmark contract (ROADMAP,
//! "Benchmark contract"): the adapter under `benchmark/` still feeds
//! `MonitoredEvent` values where the send path now takes records. Each
//! shim encodes its events into a local arena with
//! [`encode_record`] and calls the record path, so none is a second
//! implementation. They go, this whole module at once, when the
//! benchmark-only PR of ROADMAP items 1 and 9(a) moves the adapter onto
//! the record entry points.

use difftest_event::record::{encode_record, RecordRef, Records};
use difftest_event::{Event, EventRef, MonitoredEvent};

use crate::batch::{BatchUnit, Packet};
use crate::replay::ReplayBuffer;
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
        for rec in Records::new(&records).map_while(Result::ok) {
            self.push_record(&rec, out);
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
    fn tagged(&mut self, ev: &RecordRef<'_>) {
        self.push(WireItem::Tagged {
            core: ev.header.core,
            tag: ev.header.order,
            token: ev.header.token,
            event: ev.payload.to_event(),
        });
    }

    fn diff(&mut self, ev: &RecordRef<'_>) {
        self.push(WireItem::Diff {
            core: ev.header.core,
            tag: ev.header.order,
            token: ev.header.token,
            event: ev.payload.to_event(),
        });
    }

    fn fused(&mut self, core: u8, fused: &FusedCommit) {
        self.push(WireItem::Fused {
            core,
            fused: fused.clone(),
        });
    }
}
