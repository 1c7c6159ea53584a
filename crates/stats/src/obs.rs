//! What one side of a run observed, as one mergeable, serializable
//! bundle.
//!
//! The producer and the consumer each own their instruments — a
//! [`PhaseTimer`](crate::PhaseTimer), a [`FlightRecorder`], a span sink
//! and (the consumer) a [`Metrics`] registry — as plain fields. At the
//! end of a run each side hands back an [`Obs`]; a runner joins the two
//! with one [`Obs::absorb`], whether both sides ran in-line (the engine)
//! or the consumer's half crossed a socket in the `DTHR` result blob,
//! which carries it whole through [`Obs::write_to`] / [`Obs::read_from`].
//!
//! The codec is little-endian and bounds every count by what an honest
//! sender can hold — one flight ring, one span sink's capacity, a
//! registry of at most 1 024 metrics of each kind — *before*
//! allocating, so a hostile or truncated blob is a typed [`io::Error`]
//! (`InvalidData` or `UnexpectedEof`), never a panic or an
//! attacker-sized buffer.

use std::borrow::Cow;
use std::io::{self, Read, Write};

use crate::histogram::Histogram;
use crate::metrics::{Metrics, Phase};
use crate::recorder::{FlightKind, FlightRecord, FlightRecorder, FlightSnapshot};
use crate::span::{SpanBuf, SpanEvent, SpanKind, DEFAULT_SPAN_CAPACITY};

/// Most counters, gauges or histograms one side's registry may carry
/// on the wire (each kind counted separately).
const MAX_METRICS: usize = 1024;
/// Most span tracks one side may carry on the wire.
const MAX_TRACKS: usize = 64;
/// Longest metric, track or span name on the wire, in bytes.
const MAX_NAME_BYTES: usize = 1024;

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

    /// Writes the observation in its wire form: counters, phases,
    /// gauges, sparse histograms (count, sum, min, max, then the
    /// non-zero buckets), flight records, span tracks. It carries one
    /// side's observation: [`read_from`](Self::read_from) rejects more
    /// than one flight ring or span sink holds.
    ///
    /// # Errors
    ///
    /// Propagates writer failures.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let m = &self.metrics;
        w_named(w, m.counters.len(), m.counters.iter())?;
        for (_, nanos) in m.phases.iter() {
            w_u64(w, nanos)?;
        }
        w_named(w, m.gauges().count(), m.gauges())?;
        w_len(w, m.histograms().count())?;
        for (name, h) in m.histograms() {
            w_str(w, name)?;
            h.write_sparse(w)?;
        }
        w_len(w, self.flight.records.len())?;
        for r in &self.flight.records {
            w.write_all(&[r.kind as u8, r.core])?;
            w.write_all(&r.seq.to_le_bytes())?;
            w_u64(w, r.cycle)?;
            w_u64(w, r.value)?;
        }
        w_u64(w, self.flight.evicted)?;
        w_len(w, self.spans.len())?;
        for b in &self.spans {
            w.write_all(&b.pid.to_le_bytes())?;
            w.write_all(&b.tid.to_le_bytes())?;
            w_str(w, &b.process)?;
            w_str(w, &b.track)?;
            w_u64(w, b.recorded)?;
            w_u64(w, b.dropped)?;
            w_len(w, b.events.len())?;
            for e in &b.events {
                w.write_all(&[e.kind as u8])?;
                w_str(w, &e.name)?;
                w_u64(w, e.ts_ns)?;
                w_u64(w, e.dur_ns)?;
                w_u64(w, e.id)?;
            }
        }
        Ok(())
    }

    /// Reads an observation [`write_to`](Self::write_to) wrote.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` on truncation; `InvalidData` on an unknown
    /// flight or span kind, an out-of-range bucket, inconsistent bucket
    /// counts, non-UTF-8 names, or any count or name length past its
    /// bound — judged before anything is allocated for it.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Obs> {
        let mut metrics = Metrics::new();
        r_named(r, |name, v| metrics.counters.set(name, v))?;
        for p in Phase::ALL {
            metrics.phases.add(p, r_u64(r)?);
        }
        r_named(r, |name, v| metrics.set_gauge(name, v))?;
        for _ in 0..r_len(r, MAX_METRICS, "histogram count")? {
            let name = r_str(r)?;
            let h = Histogram::read_sparse(r)?;
            metrics.insert_histogram(name, h);
        }
        let n = r_len(r, FlightRecorder::DEFAULT_CAPACITY, "flight count")?;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            let [kind, core] = r_array(r)?;
            records.push(FlightRecord {
                kind: *FlightKind::ALL
                    .get(usize::from(kind))
                    .ok_or_else(|| bad("flight kind"))?,
                core,
                seq: u32::from_le_bytes(r_array(r)?),
                cycle: r_u64(r)?,
                value: r_u64(r)?,
            });
        }
        let flight = FlightSnapshot {
            records,
            evicted: r_u64(r)?,
        };
        let n = r_len(r, MAX_TRACKS, "span track count")?;
        let mut spans = Vec::with_capacity(n);
        for _ in 0..n {
            let mut b = SpanBuf {
                pid: u32::from_le_bytes(r_array(r)?),
                tid: u32::from_le_bytes(r_array(r)?),
                process: r_str(r)?,
                track: r_str(r)?,
                recorded: r_u64(r)?,
                dropped: r_u64(r)?,
                events: Vec::new(),
            };
            let n = r_len(r, DEFAULT_SPAN_CAPACITY, "span event count")?;
            b.events.reserve_exact(n);
            for _ in 0..n {
                let [kind] = r_array(r)?;
                b.events.push(SpanEvent {
                    kind: *SpanKind::ALL
                        .get(usize::from(kind))
                        .ok_or_else(|| bad("span kind"))?,
                    name: Cow::Owned(r_str(r)?),
                    ts_ns: r_u64(r)?,
                    dur_ns: r_u64(r)?,
                    id: r_u64(r)?,
                });
            }
            spans.push(b);
        }
        Ok(Obs {
            metrics,
            flight,
            spans,
        })
    }
}

pub(crate) fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("obs wire: bad {what}"))
}

pub(crate) fn w_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// A `u32` count.
pub(crate) fn w_len<W: Write>(w: &mut W, n: usize) -> io::Result<()> {
    w.write_all(&(n as u32).to_le_bytes())
}

/// A counted list of `(name, value)` pairs (counters, gauges).
fn w_named<'a, W: Write>(
    w: &mut W,
    n: usize,
    pairs: impl Iterator<Item = (&'a str, u64)>,
) -> io::Result<()> {
    w_len(w, n)?;
    for (name, v) in pairs {
        w_str(w, name)?;
        w_u64(w, v)?;
    }
    Ok(())
}

fn r_named<R: Read>(r: &mut R, mut put: impl FnMut(String, u64)) -> io::Result<()> {
    for _ in 0..r_len(r, MAX_METRICS, "metric count")? {
        let name = r_str(r)?;
        put(name, r_u64(r)?);
    }
    Ok(())
}

fn w_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    w_len(w, s.len())?;
    w.write_all(s.as_bytes())
}

pub(crate) fn r_array<const N: usize, R: Read>(r: &mut R) -> io::Result<[u8; N]> {
    let mut b = [0u8; N];
    r.read_exact(&mut b)?;
    Ok(b)
}

pub(crate) fn r_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    r_array(r).map(u64::from_le_bytes)
}

/// A `u32` count, rejected past `max` before the caller allocates.
pub(crate) fn r_len<R: Read>(r: &mut R, max: usize, what: &str) -> io::Result<usize> {
    let n = u32::from_le_bytes(r_array(r)?) as usize;
    if n > max {
        return Err(bad(what));
    }
    Ok(n)
}

fn r_str<R: Read>(r: &mut R) -> io::Result<String> {
    let mut buf = vec![0u8; r_len(r, MAX_NAME_BYTES, "name length")?];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| bad("name encoding"))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for (i, kind) in FlightKind::ALL.into_iter().enumerate() {
            let i = i as u32;
            rec.record(FlightRecord {
                kind,
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
            events: SpanKind::ALL
                .into_iter()
                .map(|kind| SpanEvent {
                    kind,
                    name: Cow::Borrowed("unpack"),
                    ts_ns: 10,
                    dur_ns: 25,
                    id: 3,
                })
                .collect(),
            recorded: 4,
            dropped: 1,
        };
        Obs::new(metrics, rec.snapshot(), track)
    }

    fn blob(obs: &Obs) -> Vec<u8> {
        let mut out = Vec::new();
        obs.write_to(&mut out).unwrap();
        out
    }

    #[test]
    fn round_trips_every_section() {
        let obs = sample();
        let back = Obs::read_from(&mut blob(&obs).as_slice()).unwrap();
        assert_eq!(back, obs);
        let h = back.metrics.histogram("packet.bytes").unwrap();
        assert_eq!((h.count(), h.min(), h.max()), (5, 0, u64::MAX));
        assert_eq!(
            h.percentile(50.0),
            obs.metrics
                .histogram("packet.bytes")
                .unwrap()
                .percentile(50.0)
        );
        assert!(back.metrics.histogram("packet.items").unwrap().is_empty());
        assert_eq!(back.flight.evicted, 5);
    }

    #[test]
    fn untraced_side_carries_no_track() {
        let obs = Obs::new(
            Metrics::new(),
            FlightSnapshot::default(),
            SpanBuf::default(),
        );
        assert!(obs.spans.is_empty());
        assert_eq!(Obs::read_from(&mut blob(&obs).as_slice()).unwrap(), obs);
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

    #[test]
    fn every_truncation_is_a_typed_error() {
        let full = blob(&sample());
        for cut in 0..full.len() {
            let err = Obs::read_from(&mut &full[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn out_of_range_bucket_and_kinds_are_rejected() {
        let mut obs = sample();
        obs.spans.clear();
        obs.metrics = Metrics::new();
        let full = blob(&obs);
        // Empty metrics: 4 + 7 * 8 + 4 + 4 bytes, then the flight count
        // and the first record's kind byte.
        let kind_at = 4 + 7 * 8 + 4 + 4 + 4;
        let mut bytes = full.clone();
        bytes[kind_at] = FlightKind::ALL.len() as u8;
        let err = Obs::read_from(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut m = Metrics::new();
        let h = m.register_histogram("h");
        m.record(h, 5);
        let mut bytes = blob(&Obs::new(m, FlightSnapshot::default(), SpanBuf::default()));
        // The histogram's one bucket index follows count/sum/min/max and
        // the non-zero bucket count.
        let idx_at = 4 + 7 * 8 + 4 + 4 + (4 + 1) + 4 * 8 + 4;
        bytes[idx_at..idx_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Obs::read_from(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
