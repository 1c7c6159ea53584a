//! What one side of a run observed, as one mergeable bundle.
//!
//! The producer and the consumer each own their instruments — a
//! [`PhaseTimer`](crate::PhaseTimer), a [`FlightRecorder`](crate::FlightRecorder),
//! a span sink and (the consumer) a [`Metrics`] registry — as plain
//! fields. At the end of a run each side hands back an [`Obs`], and a
//! runner joins the two with one [`Obs::absorb`]; both runners run both
//! sides in one process, so the bundle never crosses a byte stream.

use crate::metrics::Metrics;
use crate::recorder::FlightSnapshot;
use crate::span::SpanBuf;

/// One side's observation of a run: its metrics registry with the phase
/// attribution folded in, its flight ring's snapshot, and its span
/// tracks (only the ones that recorded something).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Obs {
    /// Counters, gauges, histograms and phase times.
    pub metrics: Metrics,
    /// Flight records, oldest first.
    pub flight: FlightSnapshot,
    /// Span tracks, in the order they were gathered.
    pub spans: Vec<SpanBuf>,
}

impl Obs {
    /// One side's observation over a single span track, which joins
    /// [`spans`](Self::spans) only when it recorded something (tracing
    /// off leaves it empty).
    pub fn new(metrics: Metrics, flight: FlightSnapshot, track: SpanBuf) -> Obs {
        let spans = Some(track).filter(|t| !t.is_empty()).into_iter().collect();
        Obs {
            metrics,
            flight,
            spans,
        }
    }

    /// Joins `other` after this side: metrics merge
    /// ([`Metrics::merge`]), flight records append after this side's
    /// (producer context first, then the consumer's view), span tracks
    /// follow this side's.
    pub fn absorb(&mut self, other: Obs) {
        self.metrics.merge(&other.metrics);
        self.flight.append(&other.flight);
        self.spans.extend(other.spans);
    }
}

#[cfg(test)]
mod tests {
    use std::borrow::Cow;

    use super::*;
    use crate::metrics::Phase;
    use crate::recorder::{FlightKind, FlightRecord, FlightRecorder};
    use crate::span::{SpanEvent, SpanKind};

    fn sample() -> Obs {
        let mut metrics = Metrics::new();
        metrics.counters.set("decode.hits", 4055);
        metrics.counters.set("obs.items", 7);
        metrics.phases.add(Phase::Check, 1234);
        metrics.set_gauge("reorder.buffered.max", 3);
        let h = metrics.register_histogram("packet.bytes");
        for v in [0, 17, 4096, 4096, u64::MAX] {
            metrics.record(h, v);
        }
        metrics.register_histogram("packet.items");
        let mut rec = FlightRecorder::new(2);
        for i in 0..7u32 {
            rec.record(FlightRecord {
                kind: [FlightKind::PacketReceived, FlightKind::Mismatch][i as usize % 2],
                core: 1,
                seq: i,
                cycle: u64::from(i) * 10,
                value: 99,
            });
        }
        let track = SpanBuf {
            pid: 2,
            tid: 7,
            process: "consumer".into(),
            track: "consumer".into(),
            events: [SpanKind::FlowIn, SpanKind::Span]
                .into_iter()
                .map(|kind| SpanEvent {
                    kind,
                    name: Cow::Borrowed("unpack"),
                    ts_ns: 10,
                    dur_ns: 25,
                    id: 3,
                })
                .collect(),
            recorded: 2,
            dropped: 1,
        };
        Obs::new(metrics, rec.snapshot(), track)
    }

    #[test]
    fn untraced_side_carries_no_track() {
        let obs = Obs::new(
            Metrics::new(),
            FlightSnapshot::default(),
            SpanBuf::default(),
        );
        assert!(obs.spans.is_empty());
    }

    #[test]
    fn absorb_merges_metrics_and_orders_flight_and_tracks() {
        let mut a = sample();
        let b = sample();
        a.absorb(b.clone());
        assert_eq!(a.metrics.counters.get("decode.hits"), 2 * 4055);
        assert_eq!(a.metrics.histogram("packet.bytes").unwrap().count(), 10);
        assert_eq!(a.flight.records[2..], b.flight.records[..]);
        assert_eq!(a.flight.recorded(), 2 * b.flight.recorded());
        assert_eq!(a.spans.len(), 2);
    }
}
